"""Persistent shared-memory sweep pool: the ``pool`` tier of the exact
sweep ladder (:mod:`repro.engine.sweep`).

A per-call :class:`~concurrent.futures.ProcessPoolExecutor` pays full
pool bring-up on every exact-reference sweep and re-pickles the entire
sparse MNA system to every worker on every call.  At the
10^5--10^6-node scale of post-layout models that serialization and
spawn cost rivals the LU solves themselves.  This module keeps one
process-wide pool warm instead:

* **Lazy start, long life.**  The pool spins up on first use (with a
  warm-up solve so workers have SciPy loaded before real traffic),
  stays alive across sweeps, shuts itself down after
  ``idle_timeout`` seconds without work, and restarts transparently on
  the next call.  Worker crashes are detected
  (:class:`~concurrent.futures.process.BrokenProcessPool`), recorded
  as ``engine.pool`` :class:`~repro.robustness.health.HealthMonitor`
  events, and answered with one automatic restart before the exact
  ladder falls to its serial tier.
* **No plain fork.**  Workers start from a ``forkserver`` (``spawn``
  where that is unavailable), never as a fork of this process: a fork
  would inherit locks held by this process's other threads -- the
  ``repro serve`` stdin reader holds the ``sys.stdin`` buffer lock,
  and a forked worker's bootstrap blocks on it forever.
* **Ship the system once.**  The aligned CSC operand arrays
  (``data``/``indices``/``indptr`` for ``G`` and ``C``, plus the dense
  ``B``) are published through :mod:`multiprocessing.shared_memory`
  exactly once per model, keyed by the existing SHA-256
  :func:`~repro.engine.cache.fingerprint_system`.  Workers rebuild and
  cache the CSC pair on first touch, so repeated sweeps on the same
  system send only the sigma chunk.  When shared memory is unavailable
  (sandboxes without ``/dev/shm``) the pool falls back to pickling the
  prepared operands -- still warm, just per-call serialization.
* **Warm worker state.**  Each worker keeps a bounded LRU of LU
  factorizations keyed by ``(fingerprint, sigma)``; serving traffic
  that sweeps the same grid repeatedly (the common case behind a
  cache-hit service) skips the factorization entirely and pays only
  triangular solves.  A cached factor is the very object a fresh
  factorization would produce, so results stay bitwise identical.

Every transport (shared memory, pickle, serial) funnels into
:func:`repro.simulation.ac.ac_kernel_prepared`, so sweep results are
bitwise independent of pool reuse, transport, and worker count.

Configuration resolves from ``REPRO_POOL_*`` environment variables
(see :class:`PoolConfig`) and can be overridden programmatically with
:func:`configure` or per-process via the ``--pool-idle-timeout`` flag
of ``repro sweep`` / ``repro serve``.
"""

from __future__ import annotations

import atexit
import os
import threading
import time
import weakref
from collections import OrderedDict
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from repro.errors import SimulationError
from repro.simulation.ac import (
    AcOperands,
    ac_kernel_prepared,
    prepare_ac_operands,
)

__all__ = [
    "PoolConfig",
    "SweepPool",
    "configure",
    "configure_pool",
    "describe",
    "get_pool",
    "pool_stats",
    "shutdown_pool",
]


def _env_flag(name: str, default: bool) -> bool:
    raw = os.environ.get(name, "").strip().lower()
    if not raw:
        return default
    return raw not in ("0", "false", "no", "off")


def _env_float(name: str, default: float) -> float:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        return float(raw)
    except ValueError:
        return default


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        return int(raw)
    except ValueError:
        return default


@dataclass(frozen=True)
class PoolConfig:
    """Knobs of the process-wide sweep pool (``REPRO_POOL_*`` env).

    ``idle_timeout``
        Seconds without work before the pool shuts itself down
        (``REPRO_POOL_IDLE_TIMEOUT``, default 120; ``<= 0`` keeps the
        pool alive until process exit).
    ``use_shm``
        Ship operands through shared memory (``REPRO_POOL_SHM``,
        default on); off forces the pickling transport.
    ``shm_models``
        How many models' operand segments stay published at once
        (``REPRO_POOL_SHM_MODELS``, default 4; least-recently swept
        evicted first).  Workers cache the same number of rebuilt
        operand sets.
    ``lu_cache``
        Per-worker LU-factorization LRU capacity across all models
        (``REPRO_POOL_LU_CACHE``, default 8; 0 disables).  Each cached
        factor of an ``N``-unknown system holds its fill-in in memory
        (~hundreds of MB at 10^5 nodes), so size this to the machine.
    ``warmup``
        Run a tiny factor+solve in every worker at pool start
        (``REPRO_POOL_WARMUP``, default on), so library import cost is
        paid before the first real sweep.
    """

    idle_timeout: float = 120.0
    use_shm: bool = True
    shm_models: int = 4
    lu_cache: int = 8
    warmup: bool = True

    @classmethod
    def from_env(cls) -> "PoolConfig":
        return cls(
            idle_timeout=_env_float("REPRO_POOL_IDLE_TIMEOUT", 120.0),
            use_shm=_env_flag("REPRO_POOL_SHM", True),
            shm_models=max(1, _env_int("REPRO_POOL_SHM_MODELS", 4)),
            lu_cache=max(0, _env_int("REPRO_POOL_LU_CACHE", 8)),
            warmup=_env_flag("REPRO_POOL_WARMUP", True),
        )


# ---------------------------------------------------------------------------
# worker side (module-level so everything pickles by reference)
# ---------------------------------------------------------------------------
class _FactorCache:
    """Bounded LRU of LU factorizations keyed by ``(fingerprint, sigma)``."""

    def __init__(self, capacity: int):
        self.capacity = int(capacity)
        self._entries: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key):
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key, lu) -> None:
        if self.capacity <= 0:
            return
        self._entries[key] = lu
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def __len__(self) -> int:
        return len(self._entries)


class _ModelScopedFactorCache:
    """Adapter presenting one model's slice of the worker factor LRU."""

    def __init__(self, cache: _FactorCache, fingerprint: str):
        self._cache = cache
        self._fingerprint = fingerprint

    def get(self, sigma):
        return self._cache.get((self._fingerprint, sigma))

    def put(self, sigma, lu) -> None:
        self._cache.put((self._fingerprint, sigma), lu)


#: per-worker state: fingerprint -> AcOperands, plus one factor LRU
_WORKER_OPERANDS: OrderedDict = OrderedDict()
_WORKER_FACTORS: _FactorCache | None = None


def _worker_warmup() -> bool:
    """Pay the SciPy/SuperLU import + first-factor cost up front."""
    from repro.linalg.utils import checked_splu

    tiny = sp.csc_matrix(
        np.array([[2.0, -1.0], [-1.0, 2.0]], dtype=complex)
    )
    lu = checked_splu(tiny)
    lu.solve(np.ones(2, dtype=complex))
    return True


def _attach_shm_operands(descriptor: dict) -> AcOperands:
    """Rebuild the CSC pair from the model's shared-memory segment.

    The arrays are copied out of the segment and the mapping is closed
    immediately, so the parent is free to unlink the segment at any
    time (LRU eviction, shutdown) without coordinating with workers.
    """
    from multiprocessing import shared_memory

    # the attach re-registers the segment with the resource tracker this
    # worker shares with the parent -- a no-op for a name the parent
    # registered already; the parent's unlink unregisters it once
    shm = shared_memory.SharedMemory(name=descriptor["shm_name"])
    try:
        arrays = {}
        for name, dtype, shape, offset in descriptor["layout"]:
            count = int(np.prod(shape, dtype=np.int64))
            arrays[name] = np.frombuffer(
                shm.buf, dtype=np.dtype(dtype), count=count, offset=offset
            ).reshape(shape).copy()
    finally:
        shm.close()
    shape = tuple(descriptor["shape"])
    g = sp.csc_matrix(
        (arrays["g_data"], arrays["indices"], arrays["indptr"]),
        shape=shape,
    )
    c = sp.csc_matrix(
        (arrays["c_data"], arrays["indices"].copy(),
         arrays["indptr"].copy()),
        shape=shape,
    )
    return AcOperands(g=g, c=c, b=arrays["b"], aligned=True)


def _worker_eval(descriptor: dict, sigma_chunk: np.ndarray) -> np.ndarray:
    """One chunk of the exact sweep, evaluated against cached operands."""
    global _WORKER_FACTORS
    fingerprint = descriptor["fingerprint"]
    operands = _WORKER_OPERANDS.get(fingerprint)
    if operands is None:
        if descriptor.get("operands") is not None:
            operands = descriptor["operands"]
        else:
            operands = _attach_shm_operands(descriptor)
        _WORKER_OPERANDS[fingerprint] = operands
        while len(_WORKER_OPERANDS) > descriptor["model_slots"]:
            _WORKER_OPERANDS.popitem(last=False)
    else:
        _WORKER_OPERANDS.move_to_end(fingerprint)
    lu_capacity = descriptor["lu_cache"]
    factor_cache = None
    if lu_capacity > 0:
        if _WORKER_FACTORS is None or _WORKER_FACTORS.capacity != lu_capacity:
            _WORKER_FACTORS = _FactorCache(lu_capacity)
        factor_cache = _ModelScopedFactorCache(_WORKER_FACTORS, fingerprint)
    return ac_kernel_prepared(
        operands, sigma_chunk, factor_cache=factor_cache
    )


# ---------------------------------------------------------------------------
# parent side
# ---------------------------------------------------------------------------
def _mp_context():
    """Worker start method: a ``forkserver`` preloaded with this module
    (workers fork from a clean single-threaded server with NumPy and
    SciPy already imported), else ``spawn``."""
    import multiprocessing

    if "forkserver" in multiprocessing.get_all_start_methods():
        context = multiprocessing.get_context("forkserver")
        context.set_forkserver_preload([__name__])
        return context
    return multiprocessing.get_context("spawn")


class _ShmEntry:
    """One model's published operand segment (parent side)."""

    def __init__(self, shm, descriptor: dict):
        self.shm = shm
        self.descriptor = descriptor
        self.nbytes = shm.size if shm is not None else 0

    def close(self) -> None:
        if self.shm is None:
            return
        try:
            self.shm.close()
            self.shm.unlink()
        except FileNotFoundError:
            pass
        except Exception:
            pass
        self.shm = None


def _publish_shm(fingerprint: str, operands: AcOperands) -> _ShmEntry:
    """Write the aligned CSC pair + B into one shared-memory segment."""
    from multiprocessing import shared_memory

    arrays = [
        ("indptr", np.ascontiguousarray(operands.g.indptr)),
        ("indices", np.ascontiguousarray(operands.g.indices)),
        ("g_data", np.ascontiguousarray(operands.g.data)),
        ("c_data", np.ascontiguousarray(operands.c.data)),
        ("b", np.ascontiguousarray(operands.b)),
    ]
    layout = []
    offset = 0
    for name, array in arrays:
        # 16-byte alignment keeps complex128 views happy
        offset = (offset + 15) & ~15
        layout.append((name, array.dtype.str, array.shape, offset))
        offset += array.nbytes
    shm = shared_memory.SharedMemory(create=True, size=max(1, offset))
    for (name, array), (_, _, _, start) in zip(arrays, layout):
        view = np.frombuffer(
            shm.buf, dtype=array.dtype, count=array.size, offset=start
        )
        view[:] = array.ravel()
    descriptor = {
        "fingerprint": fingerprint,
        "shm_name": shm.name,
        "layout": layout,
        "shape": tuple(operands.g.shape),
        "operands": None,
    }
    return _ShmEntry(shm, descriptor)


class SweepPool:
    """The process-wide persistent exact-sweep pool.

    Use the module-level :func:`get_pool` singleton; a private instance
    is only for tests.  All public methods are thread-safe.
    """

    def __init__(self, config: PoolConfig | None = None):
        self.config = config or PoolConfig.from_env()
        self._lock = threading.RLock()
        self._executor = None
        self._workers = 0
        self._shm_ok = True
        self._busy = 0
        self._last_used = time.monotonic()
        self._idle_timer: threading.Timer | None = None
        #: id(system) -> (weakref, fingerprint) fast path (skips re-hashing)
        self._fingerprints: dict[int, tuple] = {}
        #: fingerprint -> AcOperands (pickle transport / republish source)
        self._operands: OrderedDict = OrderedDict()
        #: fingerprint -> _ShmEntry
        self._segments: OrderedDict = OrderedDict()
        self.stats = {
            "cold_starts": 0,
            "evals": 0,
            "warm_evals": 0,
            "restarts": 0,
            "idle_shutdowns": 0,
            "shm_publishes": 0,
            "shm_fallbacks": 0,
            "chunks": 0,
        }

    # -- lifecycle ------------------------------------------------------
    def running(self) -> bool:
        with self._lock:
            return self._executor is not None

    def _ensure_executor(self, workers: int, monitor=None):
        """Start (or grow) the executor; returns it.  Caller holds lock."""
        import concurrent.futures as futures

        if self._executor is not None and workers > self._workers:
            # a wider request than the live pool: restart at the new width
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None
        if self._executor is None:
            self._executor = futures.ProcessPoolExecutor(
                max_workers=workers, mp_context=_mp_context()
            )
            self._workers = workers
            self.stats["cold_starts"] += 1
            if self.config.warmup:
                try:
                    done = [
                        self._executor.submit(_worker_warmup)
                        for _ in range(workers)
                    ]
                    for future in done:
                        future.result(timeout=60)
                except Exception:
                    # warm-up is best-effort; real work will surface
                    # genuine pool failures with better context
                    pass
            self._record(
                monitor, action="start", workers=workers,
                cold_starts=self.stats["cold_starts"],
            )
        return self._executor

    def _record(self, monitor, **data) -> None:
        if monitor is not None:
            monitor.record("engine.pool", **data)

    def _restart(self, monitor, error: Exception, workers: int):
        """Replace a broken executor (crash detection + auto restart)."""
        with self._lock:
            if self._executor is not None:
                try:
                    self._executor.shutdown(wait=False, cancel_futures=True)
                except Exception:
                    pass
                self._executor = None
            self.stats["restarts"] += 1
            self._record(
                monitor, action="restart",
                error_class=type(error).__name__, error=str(error),
                restarts=self.stats["restarts"],
            )
            return self._ensure_executor(workers, monitor)

    def shutdown(self) -> None:
        """Tear down the executor and unlink every published segment."""
        with self._lock:
            if self._idle_timer is not None:
                self._idle_timer.cancel()
                self._idle_timer = None
            if self._executor is not None:
                self._executor.shutdown(wait=False, cancel_futures=True)
                self._executor = None
            for entry in self._segments.values():
                entry.close()
            self._segments.clear()
            self._operands.clear()
            self._fingerprints.clear()
            self._workers = 0

    def _arm_idle_timer(self) -> None:
        """(Re)schedule the idle shutdown check.  Caller holds lock."""
        timeout = self.config.idle_timeout
        if timeout <= 0:
            return
        if self._idle_timer is not None:
            self._idle_timer.cancel()
        timer = threading.Timer(timeout, self._maybe_idle_shutdown)
        timer.daemon = True
        self._idle_timer = timer
        timer.start()

    def _maybe_idle_shutdown(self) -> None:
        with self._lock:
            if self._executor is None or self._busy > 0:
                return
            idle = time.monotonic() - self._last_used
            if idle + 1e-3 < self.config.idle_timeout:
                self._arm_idle_timer()
                return
            self.stats["idle_shutdowns"] += 1
            self.shutdown()

    # -- operand publication -------------------------------------------
    def _fingerprint(self, system) -> str:
        from repro.engine.cache import fingerprint_system

        key = id(system)
        entry = self._fingerprints.get(key)
        if entry is not None and entry[0]() is system:
            return entry[1]
        fingerprint = fingerprint_system(system)
        try:
            ref = weakref.ref(system)
        except TypeError:  # pragma: no cover - non-weakrefable stand-ins
            ref = lambda: system  # noqa: E731
        self._fingerprints[key] = (ref, fingerprint)
        if len(self._fingerprints) > 4 * max(4, self.config.shm_models):
            self._fingerprints = {
                k: v for k, v in self._fingerprints.items()
                if v[0]() is not None
            }
        return fingerprint

    def _descriptor(self, system, monitor) -> dict:
        """Publish (or look up) ``system`` and return the task descriptor."""
        fingerprint = self._fingerprint(system)
        operands = self._operands.get(fingerprint)
        if operands is None:
            operands = prepare_ac_operands(system)
            self._operands[fingerprint] = operands
            while len(self._operands) > self.config.shm_models:
                stale, _ = self._operands.popitem(last=False)
                entry = self._segments.pop(stale, None)
                if entry is not None:
                    entry.close()
        else:
            self._operands.move_to_end(fingerprint)

        descriptor = None
        if self.config.use_shm and self._shm_ok and operands.aligned:
            entry = self._segments.get(fingerprint)
            if entry is None:
                try:
                    entry = _publish_shm(fingerprint, operands)
                    self._segments[fingerprint] = entry
                    self.stats["shm_publishes"] += 1
                    self._record(
                        monitor, action="shm-publish",
                        fingerprint=fingerprint[:16],
                        bytes=entry.nbytes,
                    )
                except Exception as exc:
                    self._shm_ok = False
                    self.stats["shm_fallbacks"] += 1
                    self._record(
                        monitor, action="shm-fallback",
                        error_class=type(exc).__name__, error=str(exc),
                    )
            else:
                self._segments.move_to_end(fingerprint)
            if entry is not None:
                descriptor = dict(entry.descriptor)
        if descriptor is None:
            # pickling transport: operands ride along with every chunk
            descriptor = {
                "fingerprint": fingerprint,
                "shm_name": None,
                "layout": (),
                "shape": tuple(operands.g.shape),
                "operands": operands,
            }
        descriptor["lu_cache"] = self.config.lu_cache
        descriptor["model_slots"] = self.config.shm_models
        return descriptor

    # -- evaluation -----------------------------------------------------
    def eval(
        self,
        system,
        sigma_values: np.ndarray,
        *,
        workers: int,
        monitor=None,
    ) -> np.ndarray:
        """Exact kernel sweep over the persistent pool.

        Splits ``sigma_values`` into one contiguous chunk per worker
        (every point is solved independently, so the chunks concatenate
        to the serial tier's array bit for bit), ships the tiny
        descriptor + sigma chunk, and reassembles.  A broken pool is
        restarted once; a second failure propagates and the exact
        ladder falls to its serial tier.  An eval counts as warm when
        its executor was already running.
        """
        from concurrent.futures.process import BrokenProcessPool

        sigma_values = np.atleast_1d(np.asarray(sigma_values)).ravel()
        workers = max(1, int(workers))
        with self._lock:
            warm = self._executor is not None and workers <= self._workers
            executor = self._ensure_executor(workers, monitor)
            descriptor = self._descriptor(system, monitor)
            self._busy += 1
        try:
            chunks = np.array_split(sigma_values, min(workers, self._workers))
            try:
                parts = self._map_chunks(executor, descriptor, chunks)
            except (SimulationError, MemoryError):
                raise
            except BrokenProcessPool as exc:
                executor = self._restart(monitor, exc, workers)
                warm = False
                parts = self._map_chunks(executor, descriptor, chunks)
            with self._lock:
                self.stats["evals"] += 1
                if warm:
                    self.stats["warm_evals"] += 1
                self.stats["chunks"] += len(chunks)
            return np.concatenate(parts, axis=0)
        finally:
            with self._lock:
                self._busy -= 1
                self._last_used = time.monotonic()
                self._arm_idle_timer()

    def _map_chunks(self, executor, descriptor: dict, chunks) -> list:
        futures = [
            executor.submit(_worker_eval, descriptor, chunk)
            for chunk in chunks
        ]
        return [future.result() for future in futures]

    # -- observability --------------------------------------------------
    def describe(self) -> dict:
        """JSON-ready pool state for ``Engine.stats`` / ``healthz``."""
        with self._lock:
            return {
                "running": self._executor is not None,
                "workers": self._workers,
                "transport": (
                    "shm" if (self.config.use_shm and self._shm_ok)
                    else "pickle"
                ),
                "published_models": len(self._segments),
                "published_bytes": sum(
                    entry.nbytes for entry in self._segments.values()
                ),
                "idle_timeout_s": self.config.idle_timeout,
                **self.stats,
            }


# ---------------------------------------------------------------------------
# module-level singleton
# ---------------------------------------------------------------------------
_LOCK = threading.Lock()
_POOL: SweepPool | None = None
_CONFIG: PoolConfig | None = None


def _current_config() -> PoolConfig:
    global _CONFIG
    if _CONFIG is None:
        _CONFIG = PoolConfig.from_env()
    return _CONFIG


def configure(**overrides) -> PoolConfig:
    """Override pool knobs for this process (CLI flags, tests).

    Accepts any :class:`PoolConfig` field; ``None`` values are ignored
    so CLI passthrough is trivial.  A running pool is shut down so the
    next sweep starts under the new configuration.
    """
    global _CONFIG, _POOL
    with _LOCK:
        base = _current_config()
        fields = {k: v for k, v in overrides.items() if v is not None}
        _CONFIG = replace(base, **fields)
        if _POOL is not None:
            _POOL.shutdown()
            _POOL = None
        return _CONFIG


def get_pool() -> SweepPool:
    """The process-wide :class:`SweepPool`, created on first use."""
    global _POOL
    with _LOCK:
        if _POOL is None:
            _POOL = SweepPool(_current_config())
        return _POOL


def shutdown_pool() -> None:
    """Tear down the singleton (idempotent; used by tests and atexit)."""
    global _POOL
    with _LOCK:
        if _POOL is not None:
            _POOL.shutdown()
            _POOL = None


def describe() -> dict:
    """Pool observability without forcing a pool into existence."""
    with _LOCK:
        if _POOL is not None:
            return _POOL.describe()
    config = _current_config()
    return {
        "running": False,
        "workers": 0,
        "transport": "shm" if config.use_shm else "pickle",
        "published_models": 0,
        "published_bytes": 0,
        "idle_timeout_s": config.idle_timeout,
    }


# unambiguous names for the package namespace (repro.engine.configure
# would read as "configure the engine")
configure_pool = configure
pool_stats = describe

atexit.register(shutdown_pool)
