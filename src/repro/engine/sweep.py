"""Batched frequency sweeps and the engine's one sweep ladder.

Every sweep runs down a two-tier ladder (:func:`run_ladder`):

* **exact** (an MNA system): ``pool -> serial``.  ``pool`` is the
  persistent process pool of :mod:`repro.engine.pool`, attempted only
  with more than one resolved worker and at least
  :data:`MIN_POINTS_PER_WORKER` points per worker; ``serial`` runs
  :func:`~repro.simulation.ac.ac_kernel_prepared` over operands
  prepared once, in chunks.  Results are bitwise independent of the
  tier and the worker count.
* **model**: ``compiled -> direct``.  ``compiled`` evaluates the
  pole-residue form as broadcast sums in fixed-size batches
  (:func:`batched_eval` bounds peak memory); ``direct`` is per-point
  scalar ``model.impedance`` (:func:`direct_sweep`).

A :class:`~repro.robustness.guards.CircuitBreaker` on the ``pool`` tier
short-circuits to ``serial`` while the pool keeps failing; serial tiers
check the caller's :class:`~repro.robustness.guards.Deadline` between
chunks; every fall is one ``engine.sweep`` health event; and
:class:`SimulationError`, :class:`MemoryError` and deadline expiry are
re-raised, never walked past.  The response names the ``tier`` that
computed it.

The worker count resolves as ``workers`` argument > ``REPRO_WORKERS``
environment variable > 1 (serial), clamped to the CPUs this process
may actually run on (``os.sched_getaffinity`` when available --
container CPU quotas shrink the affinity mask without touching
``os.cpu_count()`` -- else ``os.cpu_count()``); non-integer and
non-positive ``REPRO_WORKERS`` values are ignored with a one-shot
:class:`~repro.errors.NumericalWarning`.

Compiled sweeps are backend/dtype-generic: :func:`compiled_sweep`
accepts an :class:`~repro.backends.ArrayBackend` and a
:class:`~repro.backends.DtypePolicy` and forwards them to
:meth:`CompiledModel.impedance`.  A reduced-precision (``float32``)
policy is never trusted blindly -- :func:`verify_precision` compares a
small sample of the grid against the float64 reference first (the same
probe-gate pattern that guards spectral compilation) and the sweep
falls back to float64, recording an ``engine.precision``
:class:`~repro.robustness.health.HealthMonitor` event either way.
"""

from __future__ import annotations

import os
import warnings

import numpy as np

from repro.errors import NumericalWarning, SimulationError
from repro.robustness.guards import DeadlineExceeded
from repro.simulation.ac import ac_kernel_prepared, prepare_ac_operands
from repro.simulation.results import FrequencyResponse

__all__ = [
    "batched_eval",
    "compiled_sweep",
    "direct_sweep",
    "parallel_ac_kernel",
    "parallel_ac_sweep",
    "resolve_workers",
    "run_ladder",
    "verify_precision",
]

#: default frequency-batch size for compiled evaluation (bounds the
#: (chunk, n, p*p) broadcast intermediates)
DEFAULT_CHUNK = 4096

#: below this many points per worker, process spawn cost dominates and
#: the sweep runs serially
MIN_POINTS_PER_WORKER = 16

#: max relative error a reduced-precision sweep may show against the
#: float64 reference on the probe sample before it is rejected
PRECISION_PROBE_TOL = 1.0e-5

#: how many grid points the precision probe compares (spread evenly)
PRECISION_PROBE_POINTS = 8


def _cpu_limit() -> int:
    """CPUs this process may actually run on.

    ``os.sched_getaffinity(0)`` reflects container CPU quotas and
    ``taskset`` restrictions that ``os.cpu_count()`` ignores; platforms
    without it (macOS, Windows) fall back to the raw count.
    """
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            mask = getaffinity(0)
        except OSError:  # pragma: no cover - exotic platforms
            mask = ()
        if mask:
            return len(mask)
    return os.cpu_count() or 1


def resolve_workers(workers: int | None = None) -> int:
    """``workers`` arg > ``REPRO_WORKERS`` env > 1 (serial).

    The result is clamped to ``[1, cpu limit]`` where the limit honors
    the scheduler affinity mask (:func:`_cpu_limit`): oversubscribing
    the pool beyond the cores the container actually grants only adds
    spawn cost.  A ``REPRO_WORKERS`` value that is non-integer *or*
    non-positive is rejected with the same one-shot
    :class:`NumericalWarning` path and the sweep stays serial.
    """
    limit = _cpu_limit()
    if workers is not None:
        return max(1, min(int(workers), limit))
    env = os.environ.get("REPRO_WORKERS", "").strip()
    if env:
        try:
            value = int(env)
        except ValueError:
            warnings.warn(
                f"ignoring non-integer REPRO_WORKERS={env!r}",
                NumericalWarning,
                stacklevel=2,
            )
        else:
            if value <= 0:
                warnings.warn(
                    f"ignoring non-positive REPRO_WORKERS={env!r}",
                    NumericalWarning,
                    stacklevel=2,
                )
            else:
                return max(1, min(value, limit))
    return 1


# ---------------------------------------------------------------------------
# compiled (batched) path
# ---------------------------------------------------------------------------
def batched_eval(
    evaluate, values: np.ndarray, *, chunk: int = DEFAULT_CHUNK, deadline=None
) -> np.ndarray:
    """Apply ``evaluate`` over ``values`` in fixed-size batches.

    ``chunk`` is clamped to at least 1, and a grid no larger than one
    chunk (including the tiny ``n_points < chunk`` and empty cases)
    evaluates in a single call -- never an empty batch.  ``deadline``
    (a :class:`~repro.robustness.guards.Deadline`) is checked before
    every batch.
    """
    values = np.atleast_1d(np.asarray(values)).ravel()
    chunk = max(1, int(chunk))
    parts = []
    for lo in range(0, max(values.size, 1), chunk):
        if deadline is not None:
            deadline.check("sweep-chunk")
        parts.append(np.asarray(evaluate(values[lo:lo + chunk])))
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=0)


def verify_precision(
    compiled,
    s_values: np.ndarray,
    *,
    backend=None,
    dtype="float32",
    tol: float = PRECISION_PROBE_TOL,
    samples: int = PRECISION_PROBE_POINTS,
    monitor=None,
) -> tuple[bool, float]:
    """Probe-gate a reduced-precision sweep against the float64 path.

    Picks up to ``2 * samples`` probe points over ``s_values``: half
    spread evenly, half *peak-seeking* -- a full-grid reduced-precision
    scan locates the largest-|Z| points, because cancellation error in
    the complex64 pole denominators is worst exactly at resonance
    peaks (needle-sharp on lightly-damped circuits), which an even
    sample walks right past.  The scan costs one pass at the cheap
    precision -- the same work the sweep itself is about to do -- so
    verification overhead is bounded by ~1x the reduced-precision
    sweep, still well under a float64 pass.  The probe points are then
    evaluated both at the requested ``(backend, dtype)`` and on the
    float64 NumPy reference, and the downgrade is accepted only when
    the max relative mismatch stays within ``tol``.  Returns
    ``(accepted, error)`` and records an ``engine.precision`` event on
    ``monitor`` for the downgrade *and* the rejection case, so serving
    at reduced precision is always observable.
    """
    from repro.backends import get_backend, resolve_dtype

    xp = get_backend(backend)
    policy = resolve_dtype(dtype)
    s_values = np.atleast_1d(np.asarray(s_values)).ravel()
    if policy.is_default or s_values.size == 0:
        return True, 0.0
    take = min(max(1, int(samples)), s_values.size)
    even = np.unique(
        np.linspace(0, s_values.size - 1, take).round().astype(int)
    )
    scan = np.asarray(
        compiled.impedance(s_values, backend=xp, dtype=policy)
    )
    magnitudes = np.abs(scan).reshape(s_values.size, -1).max(axis=1)
    peaks = np.argsort(magnitudes)[-take:]
    index = np.unique(np.concatenate([even, peaks]))
    sample = s_values[index]
    reference = np.asarray(compiled.impedance(sample))
    probed = np.asarray(
        compiled.impedance(sample, backend=xp, dtype=policy)
    )
    scale = float(np.abs(reference).max())
    if scale == 0.0:
        error = float(np.abs(probed).max())
    else:
        error = float(np.abs(probed - reference).max() / scale)
    accepted = bool(np.isfinite(error) and error <= tol)
    if monitor is not None:
        monitor.record(
            "engine.precision",
            action="downgrade" if accepted else "reject",
            accepted=accepted,
            backend=xp.name,
            dtype=policy.name,
            error=error,
            tol=tol,
            probe_points=int(sample.size),
        )
    return accepted, error


def compiled_sweep(
    compiled,
    s_values: np.ndarray,
    *,
    chunk: int = DEFAULT_CHUNK,
    label: str = "",
    backend=None,
    dtype=None,
    monitor=None,
    verify: bool = True,
) -> FrequencyResponse:
    """Sweep a :class:`~repro.engine.compiled.CompiledModel` over
    ``s_values`` in batches; drop-in comparable with ``ac_sweep``.

    ``backend`` / ``dtype`` route evaluation through the array-backend
    layer (``docs/BACKENDS.md``); with a ``float32`` policy and
    ``verify=True`` the grid is probe-gated by
    :func:`verify_precision` first and silently served at float64 when
    the model does not tolerate the downgrade (the ``engine.precision``
    event on ``monitor`` is the audit trail).
    """
    from repro.backends import FLOAT64, get_backend, resolve_dtype

    s_values = np.atleast_1d(np.asarray(s_values)).ravel()
    generic = backend is not None or dtype is not None
    if generic:
        xp = get_backend(backend)
        policy = resolve_dtype(dtype)
        if verify and not policy.is_default:
            accepted, _ = verify_precision(
                compiled, s_values, backend=xp, dtype=policy,
                monitor=monitor,
            )
            if not accepted:
                policy = FLOAT64

        def evaluate(values):
            return compiled.impedance(values, backend=xp, dtype=policy)
    else:
        evaluate = compiled.impedance
    z = batched_eval(evaluate, s_values, chunk=chunk)
    return FrequencyResponse(
        s=s_values,
        z=z,
        port_names=list(compiled.port_names),
        label=label or f"compiled n={compiled.order}",
    )


# ---------------------------------------------------------------------------
# the sweep ladder: exact pool -> serial, model compiled -> direct
# ---------------------------------------------------------------------------
#: grid chunk of the serial tiers; the deadline is checked between chunks
SERIAL_CHUNK = 64

#: failures no lower tier can fix: a singular point fails identically
#: on every tier, a grid that does not fit only fails worse serially,
#: and an expired deadline is final
_FINAL = (SimulationError, MemoryError, DeadlineExceeded)

#: the tier-fallback NumericalWarning fires once per process (the
#: transition events still record every occurrence)
_FALLBACK_WARNED = False


def _reset_fallback_warning() -> None:
    """Re-arm the one-shot tier-fallback warning (test seam)."""
    global _FALLBACK_WARNED
    _FALLBACK_WARNED = False


def run_ladder(
    upper: tuple, lower: tuple, *, points: int, breaker=None, monitor=None,
    deadline=None,
):
    """Walk one two-tier ladder of ``(name, fn)`` pairs.

    An upper ``fn`` of ``None`` is a tier that cannot run for this
    sweep and is skipped without a transition; ``breaker`` guards the
    upper tier.  Each fall -- a failure or a breaker short circuit --
    is one ``engine.sweep`` event on ``monitor``.  Returns ``(result,
    tier, transition)``, ``transition`` being the ``"from->to"`` edge
    taken or ``None``.
    """
    global _FALLBACK_WARNED
    (upper_name, upper_fn), (lower_name, lower_fn) = upper, lower
    if upper_fn is None:
        return lower_fn(), lower_name, None
    if deadline is not None:
        deadline.check(upper_name)
    error = None
    if breaker is not None and not breaker.allow():
        reason = "breaker-open"
    else:
        try:
            result = upper_fn()
        except _FINAL:
            if breaker is not None:  # the tier ran; the grid is at fault
                breaker.record_success()
            raise
        except Exception as exc:
            if breaker is not None:
                breaker.record_failure()
            error, reason = exc, f"{type(exc).__name__}: {exc}"
        else:
            if breaker is not None:
                breaker.record_success()
            return result, upper_name, None
    if monitor is not None:
        monitor.record(
            "engine.sweep", from_tier=upper_name, to_tier=lower_name,
            reason=reason, error_class=type(error).__name__ if error else None,
            breaker_short_circuit=error is None, points=int(points),
        )
    if error is not None and not _FALLBACK_WARNED:
        _FALLBACK_WARNED = True
        warnings.warn(
            f"{upper_name} sweep tier failed ({reason}); falling back to "
            f"the {lower_name} tier (further occurrences are recorded "
            "only as health events)",
            NumericalWarning,
            stacklevel=3,
        )
    return lower_fn(), lower_name, f"{upper_name}->{lower_name}"


def _exact_ladder(
    system, sigma_values, *, workers=None,
    min_points_per_worker: int = MIN_POINTS_PER_WORKER, monitor=None,
    breaker=None, deadline=None, faults=None,
):
    """The exact ladder over the kernel variable: ``pool -> serial``.
    ``faults`` fires its ``pool.crash@chunk`` fault in the pool tier."""
    sigma_values = np.atleast_1d(np.asarray(sigma_values)).ravel()
    # pool feasibility: more than one worker, each fed enough points
    # for process fan-out to pay off
    n_workers = min(
        resolve_workers(workers),
        max(1, sigma_values.size // max(1, int(min_points_per_worker))),
    )

    def pool():
        if faults is not None:
            faults.maybe_crash_pool("chunk")
        from repro.engine import pool as engine_pool

        return engine_pool.get_pool().eval(
            system, sigma_values, workers=n_workers, monitor=monitor
        )

    def serial():
        operands = prepare_ac_operands(system)
        return batched_eval(
            lambda chunk: ac_kernel_prepared(operands, chunk),
            sigma_values, chunk=SERIAL_CHUNK, deadline=deadline,
        )

    return run_ladder(
        ("pool", pool if n_workers > 1 else None), ("serial", serial),
        points=sigma_values.size, breaker=breaker, monitor=monitor,
        deadline=deadline,
    )


def parallel_ac_kernel(
    system,
    sigma_values: np.ndarray,
    *,
    workers: int | None = None,
    min_points_per_worker: int = MIN_POINTS_PER_WORKER,
    monitor=None,
) -> np.ndarray:
    """Exact kernel sweep down the ``pool -> serial`` ladder.

    The pool tier runs only with more than one resolved worker and at
    least ``min_points_per_worker`` points per worker; a pool failure
    is one ``engine.sweep`` event on ``monitor`` plus a
    one-shot-per-process :class:`NumericalWarning`, and the serial tier
    answers bit for bit the same.
    """
    return _exact_ladder(
        system, sigma_values, workers=workers,
        min_points_per_worker=min_points_per_worker, monitor=monitor,
    )[0]


def parallel_ac_sweep(
    system,
    s_values: np.ndarray,
    *,
    workers: int | None = None,
    label: str = "exact",
    monitor=None,
    breaker=None,
    deadline=None,
    faults=None,
) -> FrequencyResponse:
    """Exact physical impedance sweep down the ``pool -> serial`` ladder
    (the parallel counterpart of :func:`repro.simulation.ac.ac_sweep`).
    ``breaker`` guards the pool tier, ``deadline`` is checked between
    serial chunks, and ``faults`` (a
    :class:`~repro.robustness.faultinject.ServiceFaultPlan`) fires
    ``pool.crash@chunk`` in the pool tier."""
    s_values = np.atleast_1d(np.asarray(s_values)).ravel()
    kernel, tier, transition = _exact_ladder(
        system, system.transfer.sigma(s_values), workers=workers,
        monitor=monitor, breaker=breaker, deadline=deadline, faults=faults,
    )
    pref = np.atleast_1d(np.asarray(system.transfer.prefactor(s_values)))
    if pref.size == 1:
        pref = np.full(s_values.size, pref.ravel()[0])
    z = kernel * pref[:, None, None]
    return FrequencyResponse(
        s=s_values, z=z, port_names=list(system.port_names), label=label,
        tier=tier, transition=transition,
    )


def direct_sweep(
    model, s_values: np.ndarray, *, label: str = "", deadline=None
) -> FrequencyResponse:
    """The model ladder's ``direct`` tier: per-point scalar
    ``model.impedance`` (one dense solve, no compiled or batched path)
    in chunks, checking ``deadline`` between them."""
    s_values = np.atleast_1d(np.asarray(s_values)).ravel()
    ports = list(getattr(model, "port_names", []) or []) or [
        f"p{k}" for k in range(int(model.num_ports))
    ]

    def evaluate(chunk):
        return np.array(
            [model.impedance(complex(sk)) for sk in chunk], dtype=complex
        ).reshape(chunk.size, len(ports), len(ports))

    z = batched_eval(evaluate, s_values, chunk=SERIAL_CHUNK, deadline=deadline)
    return FrequencyResponse(
        s=s_values, z=z, port_names=ports, label=label or "direct",
    )
