"""Result containers for AC and transient analyses."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import SimulationError

__all__ = ["FrequencyResponse", "TransientResult"]


@dataclass
class FrequencyResponse:
    """Multi-port frequency response ``Z(s_k)``.

    Attributes
    ----------
    s:
        Complex frequency points, shape ``(m,)``.
    z:
        Impedance matrices, shape ``(m, p, p)``.
    port_names:
        Port ordering of the matrix axes.
    label:
        Free-form tag ("exact", "sympvl n=48", ...) used in reports.
    tier:
        The sweep-ladder tier that computed it (``pool`` / ``serial`` /
        ``compiled`` / ``direct``; see :mod:`repro.engine.sweep`), or
        ``""`` outside the ladder.
    transition:
        The ``"from->to"`` ladder edge the sweep fell down, if any.
    """

    s: np.ndarray
    z: np.ndarray
    port_names: list[str]
    label: str = ""
    tier: str = ""
    transition: str | None = None

    def __post_init__(self) -> None:
        self.s = np.asarray(self.s)
        self.z = np.asarray(self.z)
        if self.z.ndim != 3 or self.z.shape[0] != self.s.shape[0]:
            raise SimulationError("z must have shape (len(s), p, p)")

    @property
    def omega(self) -> np.ndarray:
        """Angular frequency (assumes imaginary-axis sweep)."""
        return self.s.imag

    @property
    def frequency_hz(self) -> np.ndarray:
        return self.omega / (2.0 * np.pi)

    def _port_index(self, port: str | int) -> int:
        if isinstance(port, int):
            return port
        try:
            return self.port_names.index(port)
        except ValueError:
            raise SimulationError(
                f"unknown port {port!r}; have {self.port_names}"
            ) from None

    def entry(self, row: str | int, col: str | int) -> np.ndarray:
        """One ``Z_ij(s)`` trace as a complex vector."""
        return self.z[:, self._port_index(row), self._port_index(col)]

    def magnitude_db(self, row: str | int, col: str | int) -> np.ndarray:
        """``20 log10 |Z_ij|`` (floored at -400 dB for exact zeros)."""
        mag = np.abs(self.entry(row, col))
        return 20.0 * np.log10(np.maximum(mag, 1e-20))

    def voltage_transfer(self, output: str | int, source: str | int) -> np.ndarray:
        """Voltage-to-voltage transfer with all other ports open.

        Driving port ``source`` with a current source and leaving the
        others open gives ``V_out / V_src = Z_os / Z_ss`` -- the
        quantity plotted in the paper's Figures 3 and 4.
        """
        i = self._port_index(output)
        j = self._port_index(source)
        return self.z[:, i, j] / self.z[:, j, j]


@dataclass
class TransientResult:
    """Time-domain waveforms.

    ``outputs`` has one row per time point and one column per entry of
    ``output_names`` (typically port voltages).
    """

    t: np.ndarray
    outputs: np.ndarray
    output_names: list[str]
    label: str = ""
    stats: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.t = np.asarray(self.t, dtype=float)
        self.outputs = np.asarray(self.outputs)
        if self.outputs.shape[0] != self.t.shape[0]:
            raise SimulationError("outputs must have one row per time point")

    def signal(self, name: str | int) -> np.ndarray:
        if isinstance(name, int):
            return self.outputs[:, name]
        try:
            idx = self.output_names.index(name)
        except ValueError:
            raise SimulationError(
                f"unknown output {name!r}; have {self.output_names}"
            ) from None
        return self.outputs[:, idx]
