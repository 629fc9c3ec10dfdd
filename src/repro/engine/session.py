"""The serving layer: a session object tying cache, compiler, and
sweep executors together.

An :class:`Engine` is the inference-side counterpart of the reduction
("training") drivers in :mod:`repro.core`:

>>> from repro.engine import Engine
>>> eng = Engine()                      # in-memory cache, serial
>>> model = eng.reduce(system, order=40)       # cached by content hash
>>> response = eng.sweep(model, 1j * omega)    # compiled, batched
>>> exact = eng.sweep(system, 1j * omega)      # parallel exact sweep
>>> eng.stats()["solves_avoided"]

Every expensive step -- reduction, compilation, exact factorization --
happens at most once per distinct input; repeated queries hit the
content-addressed cache or the compiled pole-residue form.  Per-session
metrics (cache hits, compilations, linear solves avoided, wall times)
are exposed by :meth:`Engine.stats` and the ``repro sweep
--stats-json`` CLI.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.backends import get_backend, resolve_dtype
from repro.engine.cache import ReductionCache, fitting_key, reduction_key
from repro.engine.compiled import CompiledModel
from repro.engine.sweep import (
    DEFAULT_CHUNK,
    compiled_sweep,
    direct_sweep,
    parallel_ac_sweep,
    resolve_workers,
    run_ladder,
    verify_precision,
)
from repro.errors import ReductionError
from repro.simulation.results import FrequencyResponse

__all__ = ["Engine", "EngineStats"]

_REDUCERS = ("sympvl", "sypvl", "arnoldi")


@dataclass
class EngineStats:
    """Aggregated per-session counters (see :meth:`Engine.stats`)."""

    reductions: int = 0
    fits: int = 0
    compilations: int = 0
    compile_fallbacks: int = 0
    compiled_points: int = 0
    exact_points: int = 0
    solves_avoided: int = 0
    sweeps: int = 0
    transients: int = 0
    precision_checks: int = 0
    precision_rejections: int = 0
    wall: dict = field(default_factory=lambda: {
        "reduce": 0.0, "fit": 0.0, "compile": 0.0, "sweep": 0.0,
        "transient": 0.0,
    })

    def to_dict(self) -> dict:
        return {
            "reductions": self.reductions,
            "fits": self.fits,
            "compilations": self.compilations,
            "compile_fallbacks": self.compile_fallbacks,
            "compiled_points": self.compiled_points,
            "exact_points": self.exact_points,
            "solves_avoided": self.solves_avoided,
            "sweeps": self.sweeps,
            "transients": self.transients,
            "precision_checks": self.precision_checks,
            "precision_rejections": self.precision_rejections,
            "wall_seconds": {k: round(v, 6) for k, v in self.wall.items()},
        }


class Engine:
    """Cache-aware, compile-once macromodel evaluation session.

    Parameters
    ----------
    cache:
        An existing :class:`ReductionCache` to share between engines;
        built from ``cache_dir`` / ``cache_entries`` when omitted.
    cache_dir:
        Enables the persistent disk layer (see
        :func:`repro.engine.cache.default_cache_dir`).
    workers:
        Default process-pool width for exact sweeps (``None`` defers to
        ``REPRO_WORKERS``, then serial).
    monitor:
        A :class:`~repro.robustness.health.HealthMonitor`; compilation
        fallbacks, cache activity, and precision downgrades are
        recorded as ``engine.*`` events.
    backend:
        Array backend for compiled sweeps: a name from
        :data:`repro.backends.BACKEND_NAMES` or an
        :class:`~repro.backends.ArrayBackend` instance (``None``
        defers to ``REPRO_BACKEND``, then NumPy).  Resolution happens
        here, so an unavailable backend fails fast at construction.
    dtype:
        Default evaluation precision (``"float64"`` / ``"float32"`` or
        a :class:`~repro.backends.DtypePolicy`; ``None`` defers to
        ``REPRO_DTYPE``, then float64).  ``float32`` sweeps are
        probe-verified against float64 and fall back on mismatch.
        Non-default backend/dtype are folded into every cache key.
    version:
        Override the package version folded into cache keys (test
        seam for invalidation-on-upgrade).
    """

    def __init__(
        self,
        *,
        cache: ReductionCache | None = None,
        cache_dir=None,
        cache_entries: int = 64,
        cache_max_bytes: int | None = None,
        cache_ttl: float | None = None,
        workers: int | None = None,
        monitor=None,
        backend=None,
        dtype=None,
        version: str | None = None,
    ) -> None:
        if cache is not None and cache_dir is not None:
            raise ValueError("pass either cache or cache_dir, not both")
        # explicit None check: an *empty* ReductionCache is falsy (len 0)
        self.cache = cache if cache is not None else ReductionCache(
            max_entries=cache_entries, cache_dir=cache_dir,
            max_disk_bytes=cache_max_bytes, ttl_seconds=cache_ttl,
        )
        self.workers = workers
        self.monitor = monitor
        self.backend = get_backend(backend)
        self.dtype = resolve_dtype(dtype)
        self.version = version
        self.stats_ = EngineStats()
        self._compiled: dict[int, tuple[object, CompiledModel]] = {}

    def _fold_backend_options(self, key_options: dict) -> dict:
        """Fold non-default backend/dtype into a cache-key option dict.

        The default (NumPy, float64) keys exactly like the
        pre-abstraction layout, so existing disk caches stay warm; any
        other pair addresses its own entry and an environment change
        never serves an artifact produced under different numerics.
        """
        if self.backend.name != "numpy":
            key_options["backend"] = self.backend.name
        if not self.dtype.is_default:
            key_options["dtype"] = self.dtype.name
        return key_options

    # ------------------------------------------------------------------
    # reduction (cache-aware)
    # ------------------------------------------------------------------
    def reduce(
        self,
        system,
        order: int,
        *,
        engine: str = "sympvl",
        shift: float | str = "auto",
        use_cache: bool = True,
        **options,
    ):
        """Reduce ``system`` with the named engine, via the cache.

        The cache key is the content address of ``(system, engine,
        order, shift, options)``; a hit skips the reduction entirely.
        """
        if engine not in _REDUCERS:
            raise ReductionError(
                f"unknown reduction engine {engine!r}; "
                f"choose one of {', '.join(_REDUCERS)}"
            )
        started = time.perf_counter()
        key_options = self._fold_backend_options({"shift": shift, **options})
        if engine in ("sympvl", "sypvl"):
            # key on the *effective* factorization backend so an
            # explicit factor_method and an equivalent REPRO_FACTORIZATION
            # override address the same entry -- and an env change never
            # serves a stale backend's model from cache.  "auto" keys
            # exactly like the pre-override layout.
            from repro.linalg.factorization import resolve_factor_method

            resolved = resolve_factor_method(
                key_options.pop("factor_method", None)
            )
            if resolved != "auto":
                key_options["factor_method"] = resolved
        key = reduction_key(
            system,
            engine=engine,
            order=order,
            options=key_options,
            version=self.version,
        )
        if use_cache:
            cached = self.cache.get(key)
            if cached is not None:
                if self.monitor is not None:
                    self.monitor.record(
                        "engine.cache", hit=True, key=key[:16], engine=engine,
                        order=order,
                    )
                self.stats_.wall["reduce"] += time.perf_counter() - started
                return cached
            if self.monitor is not None:
                self.monitor.record(
                    "engine.cache", hit=False, key=key[:16], engine=engine,
                    order=order,
                )
        model = self._run_reducer(system, order, engine, shift, options)
        self.stats_.reductions += 1
        if use_cache:
            self.cache.put(key, model)
        self.stats_.wall["reduce"] += time.perf_counter() - started
        return model

    def _run_reducer(self, system, order, engine, shift, options):
        if engine == "sympvl":
            from repro.core.sympvl import sympvl

            return sympvl(
                system, order, shift=shift, monitor=self.monitor, **options
            )
        if engine == "sypvl":
            from repro.core.sypvl import sypvl

            return sypvl(
                system, order, shift=shift, monitor=self.monitor, **options
            )
        from repro.core.arnoldi import prima

        sigma0 = 0.0 if shift == "auto" else float(shift)
        return prima(system, order, sigma0=sigma0, **options)

    # ------------------------------------------------------------------
    # fitting (cache-aware)
    # ------------------------------------------------------------------
    def fit(
        self,
        data,
        *,
        num_poles: int | None = None,
        enforce_passivity: bool = False,
        use_cache: bool = True,
        domain: str | None = None,
        **options,
    ):
        """Vector-fit a tabulated sweep (a
        :class:`~repro.fitting.TouchstoneData`), via the cache.

        The key is the content address of the table plus every fit
        option, so re-fitting identical data is free; the fitted model
        persists to the disk layer like a reduced model.  With
        ``enforce_passivity`` the fit is post-processed by
        :func:`repro.fitting.enforce_model_passivity` (that choice is
        part of the cache key).
        """
        from repro.fitting import enforce_model_passivity, fit_touchstone

        started = time.perf_counter()
        key_options = self._fold_backend_options({
            "num_poles": num_poles,
            "domain": domain,
            "enforce_passivity": bool(enforce_passivity),
            **options,
        })
        key = fitting_key(data, options=key_options, version=self.version)
        if use_cache:
            cached = self.cache.get(key)
            if cached is not None:
                if self.monitor is not None:
                    self.monitor.record(
                        "engine.cache", hit=True, key=key[:16],
                        engine="vector-fit", order=num_poles,
                    )
                self.stats_.wall["fit"] += time.perf_counter() - started
                return cached
            if self.monitor is not None:
                self.monitor.record(
                    "engine.cache", hit=False, key=key[:16],
                    engine="vector-fit", order=num_poles,
                )
        model = fit_touchstone(
            data,
            domain=domain,
            num_poles=num_poles,
            monitor=self.monitor,
            **options,
        )
        if enforce_passivity:
            model = enforce_model_passivity(model, monitor=self.monitor)
        self.stats_.fits += 1
        if use_cache:
            self.cache.put(key, model)
        self.stats_.wall["fit"] += time.perf_counter() - started
        return model

    # ------------------------------------------------------------------
    # compilation (memoized per model instance)
    # ------------------------------------------------------------------
    def compile(self, model, **options) -> CompiledModel:
        """Pole-residue compile ``model`` (idempotent per instance)."""
        if isinstance(model, CompiledModel):
            return model
        entry = self._compiled.get(id(model))
        if entry is not None and entry[0] is model:
            return entry[1]
        started = time.perf_counter()
        compiled = CompiledModel.compile(
            model, monitor=self.monitor, **options
        )
        self.stats_.compilations += 1
        if not compiled.is_spectral:
            self.stats_.compile_fallbacks += 1
        self.stats_.wall["compile"] += time.perf_counter() - started
        # keep a strong reference to the source so id() stays unique
        self._compiled[id(model)] = (model, compiled)
        return compiled

    # ------------------------------------------------------------------
    # sweeps
    # ------------------------------------------------------------------
    def sweep(
        self,
        target,
        s_values: np.ndarray,
        *,
        workers: int | None = None,
        chunk: int = DEFAULT_CHUNK,
        label: str = "",
        backend=None,
        dtype=None,
        breaker=None,
        deadline=None,
        faults=None,
    ) -> FrequencyResponse:
        """Frequency sweep of a model *or* an assembled system, down the
        engine's sweep ladder (:mod:`repro.engine.sweep`).

        An :class:`~repro.circuits.mna.MNASystem` (anything with sparse
        ``G``) runs the exact ladder, ``pool -> serial``; a reduced
        model runs ``compiled -> direct``: compiled once and evaluated
        as a batched broadcast sum, or per point when that fails.  The
        response's ``tier`` names the tier that computed it.
        ``breaker`` (a :class:`~repro.robustness.guards.CircuitBreaker`)
        guards the pool tier, ``deadline`` (a
        :class:`~repro.robustness.guards.Deadline`) is checked between
        serial chunks, and ``faults`` (a
        :class:`~repro.robustness.faultinject.ServiceFaultPlan`) fires
        ``pool.crash@chunk`` inside the pool tier.

        Compiled sweeps honor ``backend`` / ``dtype`` (per-call
        overrides of the engine defaults).  A ``float32`` policy is
        probe-gated by :func:`~repro.engine.sweep.verify_precision`
        once per call and the sweep falls back to float64 on rejection,
        counted in :meth:`stats` as ``precision_checks`` /
        ``precision_rejections``; the exact reference path is always
        float64.
        """
        started = time.perf_counter()
        s_values = np.atleast_1d(np.asarray(s_values)).ravel()
        self.stats_.sweeps += 1
        if hasattr(target, "G") and hasattr(target, "B"):
            response = parallel_ac_sweep(
                target,
                s_values,
                workers=workers if workers is not None else self.workers,
                label=label or "exact",
                monitor=self.monitor,
                breaker=breaker,
                deadline=deadline,
                faults=faults,
            )
            self.stats_.exact_points += s_values.size
        else:
            response, tier, transition = run_ladder(
                ("compiled", lambda: self._compiled_sweep(
                    target, s_values, chunk, label, backend, dtype
                )),
                ("direct", lambda: direct_sweep(
                    target, s_values, label=label, deadline=deadline
                )),
                points=s_values.size,
                monitor=self.monitor,
                deadline=deadline,
            )
            response.tier, response.transition = tier, transition
        self.stats_.wall["sweep"] += time.perf_counter() - started
        return response

    def _compiled_sweep(self, model, s_values, chunk, label, backend, dtype):
        """The model ladder's ``compiled`` tier."""
        compiled = self.compile(model)
        xp = get_backend(backend) if backend is not None else self.backend
        policy = resolve_dtype(dtype) if dtype is not None else self.dtype
        generic = xp.name != "numpy" or not policy.is_default
        if generic and not policy.is_default:
            self.stats_.precision_checks += 1
            accepted, _ = verify_precision(
                compiled, s_values, backend=xp, dtype=policy,
                monitor=self.monitor,
            )
            if not accepted:
                self.stats_.precision_rejections += 1
                policy = resolve_dtype("float64")
        response = compiled_sweep(
            compiled, s_values, chunk=chunk, label=label,
            backend=xp if generic else None,
            dtype=policy if generic else None,
            monitor=self.monitor,
            verify=False,  # gated above so the stats counters see it
        )
        self.stats_.compiled_points += s_values.size
        if compiled.is_spectral:
            self.stats_.solves_avoided += s_values.size
        return response

    def transient(self, model, drives, t, **kwargs):
        """Time-domain response of a reduced model (eq. 23 DAE)."""
        from repro.simulation.transient import transient_reduced

        started = time.perf_counter()
        result = transient_reduced(model, drives, t, **kwargs)
        self.stats_.transients += 1
        self.stats_.wall["transient"] += time.perf_counter() - started
        return result

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """JSON-ready session metrics (cache + evaluation counters)."""
        from repro.engine import pool as engine_pool

        return {
            **self.stats_.to_dict(),
            "workers": resolve_workers(self.workers),
            "backend": self.backend.name,
            "dtype": self.dtype.name,
            "cache": self.cache.describe(),
            "pool": engine_pool.describe(),
        }
