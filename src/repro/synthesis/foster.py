"""Foster-form synthesis for one-port RC models (paper ref. [8]).

For ``p = 1`` the reduced impedance is a sum of first-order sections,

``Z_n(s) = sum_k r_k / (1 + s tau_k)``,

each realizable as a resistor ``r_k`` in parallel with a capacitor
``tau_k / r_k``; the sections are chained in series between the port
and ground.  This is the classical Foster-I RC one-port and the
``p = 1`` specialization the paper's section 6 refers to; element
values may be negative for non-guaranteed models, which the paper
explicitly tolerates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuits.netlist import Netlist
from repro.core.model import ReducedOrderModel
from repro.errors import SynthesisError

__all__ = ["FosterSection", "foster_sections", "synthesize_foster", "synthesize_foster_lc"]


@dataclass(frozen=True)
class FosterSection:
    """One series section of the kernel partial-fraction expansion.

    ``kind = "standard"``: the term ``resistance / (1 + sigma tau)``
    (``capacitance = tau / resistance``; zero capacitance for the
    purely resistive ``tau = 0`` term).

    ``kind = "origin"``: the term ``resistance / sigma`` — a kernel
    pole at the origin (DC-blocked circuits).  ``capacitance`` then
    holds the realizing *series capacitor* value ``1 / resistance``
    (valid in both the RC and the LC transfer maps).
    """

    resistance: float
    capacitance: float
    kind: str = "standard"

    @property
    def tau(self) -> float:
        if self.kind == "origin":
            return float("inf")
        return self.resistance * self.capacitance


def foster_sections(model: ReducedOrderModel, tol: float = 1e-14) -> list[FosterSection]:
    """Pole-residue (Foster) decomposition of a one-port model.

    Diagonalizes ``T`` in the ``Delta`` metric and folds the expansion
    shift into each section:

    ``Z(sigma) = sum c_k^2 / (1 + (sigma - sigma0) lambda_k)
               = sum r_k / (1 + sigma tau_k)``

    with ``r_k = c_k^2 / (1 - sigma0 lambda_k)`` and
    ``tau_k = lambda_k / (1 - sigma0 lambda_k)``.

    Raises
    ------
    SynthesisError
        For multi-ports, non-``sigma = s`` models, complex modes (the
        RC-guaranteed path never produces them), or a section whose
        shifted denominator vanishes (pole at the expansion point).
    """
    if model.num_ports != 1:
        raise SynthesisError("Foster synthesis requires a one-port model")
    if model.transfer.sigma_power != 1:
        raise SynthesisError("Foster synthesis requires a sigma = s kernel")
    if model.direct is not None and np.abs(model.direct).max() > 0.0:
        raise SynthesisError(
            "models with a direct term need an extra series section; "
            "use synthesize_rc or strip the direct term first"
        )
    eigenvalues, vectors = np.linalg.eig(model.t)
    if np.abs(eigenvalues.imag).max(initial=0.0) > 1e-8 * max(
        1.0, float(np.abs(eigenvalues).max(initial=0.0))
    ):
        raise SynthesisError(
            "complex kernel poles: not an RC-type model; "
            "use synthesize_rc on the state-space form instead"
        )
    eigenvalues = eigenvalues.real
    vectors = vectors.real
    c_rows = (model._rho_t_delta @ vectors).ravel()
    l_rows = np.linalg.solve(vectors, model.rho).ravel()
    residues = c_rows * l_rows  # == c_k^2 in the symmetric case

    sections: list[FosterSection] = []
    scale = max(float(np.abs(residues).max(initial=0.0)), 1e-300)
    for lam, residue in zip(eigenvalues, residues):
        if abs(residue) <= tol * scale:
            continue
        denom = 1.0 - model.sigma0 * lam
        # classification threshold: 1e-9 relative -- a true pole within
        # 1e-9 * sigma0 of the origin realizes as a series capacitor
        # with at most 1e-9 relative response error, while the pole at
        # exactly zero is only *located* to ~eps * kappa anyway
        if abs(denom) <= 1e-9 * max(1.0, abs(model.sigma0 * lam)):
            # kernel pole at sigma = sigma0 - 1/lam ~ 0 (DC-blocked
            # circuit): c^2 / (1 + (sigma - sigma0) lam) = a / sigma up
            # to the pole-location roundoff, with a = c^2 / lam
            coefficient = residue / lam
            sections.append(
                FosterSection(coefficient, 1.0 / coefficient, kind="origin")
            )
            continue
        resistance = residue / denom
        tau = lam / denom
        capacitance = tau / resistance if resistance != 0.0 else 0.0
        sections.append(FosterSection(resistance, capacitance))
    sections = _normalize_sections(sections, model.sigma0)
    if not sections:
        raise SynthesisError("model has no non-negligible sections")
    return sections


def _normalize_sections(
    sections: list[FosterSection], sigma0: float
) -> list[FosterSection]:
    """Regularize degenerate sections before they reach a netlist.

    The near-origin pathologies are relative to the expansion point
    ``sigma0`` (the resolution limit for pole locations near the
    origin):

    * a "standard" section whose pole ``-1/tau`` lies within
      ``~1e-8 * sigma0`` of the origin is numerically the origin term
      ``(r/tau)/sigma`` -- reclassify it so the synthesized series
      capacitor has a sane value;
    * an origin section whose magnitude at the expansion corner
      (``|a|/sigma0``) is negligible against the resistive sections
      realizes as an absurd series capacitor that wrecks the
      synthesized circuit's conditioning -- drop it.

    With ``sigma0 = 0`` neither can occur (an origin pole would have
    made ``G`` singular and unfactorable); the negligible-section drop
    below applies at every expansion point.
    """
    converted: list[FosterSection] = []
    for section in sections:
        if (
            sigma0 > 0.0
            and section.kind == "standard"
            and section.tau * sigma0 > 1e8
            and section.tau < float("inf")
        ):
            coefficient = section.resistance / section.tau
            converted.append(
                FosterSection(coefficient, 1.0 / coefficient, kind="origin")
            )
        else:
            converted.append(section)

    # all a/sigma terms describe the same pole (the origin): merge them
    # into one section -- several separate snapped-to-zero poles would
    # otherwise synthesize a chain of series capacitors spanning wildly
    # different magnitudes and wreck the netlist's conditioning
    origin_total = sum(
        s.resistance for s in converted if s.kind == "origin"
    )
    kept = [s for s in converted if s.kind != "origin"]
    r_values = [abs(s.resistance) for s in kept]
    r_ref = max(r_values) if r_values else 0.0

    # Two more roundoff degeneracies, both harmless to the response but
    # fatal to the synthesized netlist's conditioning:
    #
    # * a section whose magnitude at the expansion corner,
    #   ``|r| / (1 + sigma0 |tau|)``, is negligible against the largest
    #   one (``|a| / sigma0`` for the origin term) barely touches the
    #   in-band response yet stamps a near-short into the MNA: a branch
    #   conductance ``1/r`` for a tiny ``r``, or a huge parallel
    #   capacitor ``tau / r`` -- drop it.  The largest raw ``|r|`` is no
    #   reference: a near-origin pole carries an enormous ``r`` that its
    #   ``tau`` cancels in band, and measuring against it would drop the
    #   real sections.  The cut is 1e-9: a near-short ~3e11 times
    #   stronger than the rest (``n=14, seed=2241`` RC, order 7) already
    #   costs the sparse solve ~1e-4 relative accuracy, and stronger
    #   ones make the synthesized netlist numerically singular -- a
    #   260 F Cauer shunt capacitor (``n=13, seed=1483``, order 4), an
    #   84 F Foster one from a near-double eigenvalue at ``1/sigma0``
    #   that roundoff split by ~``sqrt(eps)`` (``n=10, seed=4110``,
    #   order 5), a 0.6 nOhm resistor at ``sigma0 = 0``
    #   (``n=13, seed=9989``, order 6);
    # * a section whose ``tau`` is at roundoff scale against the band
    #   (``|tau| * sigma0 <~ eps``) realizes as an eps-level, possibly
    #   *negative*, parallel capacitor -- snap it to a pure resistor.
    in_band = [
        abs(s.resistance) / (1.0 + sigma0 * abs(s.tau)) for s in kept
    ]
    if origin_total != 0.0:
        z_ref = max(in_band + [abs(origin_total) / sigma0])
    else:
        z_ref = max(in_band, default=0.0)
    regularized: list[FosterSection] = []
    for section, magnitude in zip(kept, in_band):
        if magnitude <= 1e-9 * z_ref:
            continue
        if sigma0 > 0.0 and abs(section.tau) * sigma0 <= 1e-16:
            section = FosterSection(section.resistance, 0.0)
        regularized.append(section)
    kept = regularized
    if origin_total != 0.0 and (
        r_ref == 0.0 or abs(origin_total) / sigma0 > 1e-12 * r_ref
    ):
        kept.append(
            FosterSection(origin_total, 1.0 / origin_total, kind="origin")
        )
    return kept


def synthesize_foster(
    model: ReducedOrderModel,
    *,
    tol: float = 1e-14,
    title: str = "",
) -> Netlist:
    """Series chain of parallel-RC sections realizing a one-port model.

    The returned netlist declares the model's port at its head node;
    its exact impedance equals ``Z_n(s)`` (round-trip tested).
    """
    sections = foster_sections(model, tol=tol)
    net = Netlist(title or f"foster one-port, {len(sections)} sections")
    port_name = model.port_names[0] if model.port_names else "port"
    net.port(port_name, "f0")
    previous = "f0"
    for k, section in enumerate(sections):
        is_last = k == len(sections) - 1
        nxt = "0" if is_last else f"f{k + 1}"
        if section.kind == "origin":
            # the a/s term is a series capacitor of value 1/a
            net.capacitor(f"Cf{k}", previous, nxt, section.capacitance)
        else:
            net.resistor(f"Rf{k}", previous, nxt, section.resistance)
            if section.capacitance != 0.0:
                net.capacitor(f"Cf{k}", previous, nxt, section.capacitance)
        previous = nxt
    return net


def synthesize_foster_lc(
    model: ReducedOrderModel,
    *,
    tol: float = 1e-14,
    title: str = "",
) -> Netlist:
    """Foster LC realization of a one-port LC-kernel model.

    For LC circuits the kernel variable is ``sigma = s**2`` and the
    physical impedance is ``Z(s) = s * H(s**2)`` (paper eqs. 8-9).  With
    the kernel in partial fractions,
    ``H(sigma) = sum r_k / (1 + sigma tau_k)``, each term becomes

    ``r_k s / (1 + s^2 tau_k)``,

    which is exactly the impedance of a parallel L-C tank with
    ``L_k = r_k`` and ``C_k = tau_k / r_k`` (a plain series inductor for
    ``tau_k = 0``).  Chaining the tanks in series realizes the model --
    the classical Foster-I reactance synthesis, the LC face of the
    paper's section-6 claim.  For guaranteed LC models (``T`` PSD,
    shift bound) all residues and time constants are non-negative, so
    the synthesized elements are physical.

    The returned netlist is an LC circuit: re-assembling it with
    ``assemble_mna`` reproduces ``Z_n(s)`` exactly (round-trip tested),
    and it can be dropped into the transient engine via the general
    ``"mna"`` formulation -- giving LC reduced models a time-domain
    path that the first-order state-space realization cannot offer.
    """
    if model.num_ports != 1:
        raise SynthesisError("Foster-LC synthesis requires a one-port model")
    if model.transfer.sigma_power != 2 or model.transfer.prefactor_power != 1:
        raise SynthesisError(
            "Foster-LC synthesis requires the LC transfer map "
            "Z(s) = s * H(s^2)"
        )
    # reuse the kernel partial-fraction machinery by viewing the model
    # through a sigma = s map (the decomposition is about the kernel)
    from repro.circuits.mna import TransferMap

    kernel_view = ReducedOrderModel(
        t=model.t.copy(),
        delta=model.delta.copy(),
        rho=model.rho.copy(),
        sigma0=model.sigma0,
        transfer=TransferMap(sigma_power=1, prefactor_power=0),
        port_names=list(model.port_names),
        source_size=model.source_size,
        guaranteed_stable_passive=model.guaranteed_stable_passive,
        output=None if model.output is None else model.output.copy(),
    )
    sections = foster_sections(kernel_view, tol=tol)

    net = Netlist(title or f"foster LC one-port, {len(sections)} tanks")
    port_name = model.port_names[0] if model.port_names else "port"
    net.port(port_name, "t0")
    previous = "t0"
    for k, section in enumerate(sections):
        is_last = k == len(sections) - 1
        nxt = "0" if is_last else f"t{k + 1}"
        if section.kind == "origin":
            # kernel a/sigma -> Z contribution a/s: a series capacitor
            net.capacitor(f"Ct{k}", previous, nxt, section.capacitance)
        else:
            net.inductor(f"Lt{k}", previous, nxt, section.resistance)
            if section.capacitance != 0.0:
                net.capacitor(f"Ct{k}", previous, nxt, section.capacitance)
        previous = nxt
    return net
