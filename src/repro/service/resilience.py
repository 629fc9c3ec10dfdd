"""Resilience primitives for the serving runtime.

Small, dependency-free building blocks, each independently testable:

* :class:`RetryPolicy` -- bounded attempts with exponential backoff and
  *deterministic* jitter (seeded per request key, so a replayed trace
  backs off identically while distinct requests decorrelate).
* :class:`SingleFlight` -- per-key coalescing of concurrent identical
  work: one task computes, every other awaiter shares the result.
* :class:`LatencyHistogram` -- fixed log-spaced buckets for per-stage
  latency, JSON-ready for the ``stats`` endpoint.

:class:`Deadline` and :class:`CircuitBreaker` live in
:mod:`repro.robustness.guards` (the engine's sweep ladder honors them)
and are re-exported here.
"""

from __future__ import annotations

import asyncio
import hashlib

from repro.robustness.guards import CircuitBreaker, Deadline, DeadlineExceeded
from repro.service.config import RetryConfig

__all__ = [
    "DeadlineExceeded",
    "Deadline",
    "RetryPolicy",
    "CircuitBreaker",
    "SingleFlight",
    "LatencyHistogram",
]


def _jitter_unit(seed: int, key: str, attempt: int) -> float:
    """Deterministic uniform in ``[-1, 1]`` from ``(seed, key, attempt)``.

    SHA-256-based so it is stable across processes and platforms
    (``random.Random`` would be too, but this keeps the whole derivation
    explicit and collision-resistant in the key).
    """
    digest = hashlib.sha256(
        f"{seed}:{key}:{attempt}".encode()
    ).digest()
    value = int.from_bytes(digest[:8], "big") / float(1 << 64)
    return 2.0 * value - 1.0


class RetryPolicy:
    """Bounded retry schedule with exponential backoff + deterministic jitter."""

    def __init__(self, config: RetryConfig | None = None):
        self.config = config or RetryConfig()

    @property
    def attempts(self) -> int:
        return max(1, self.config.attempts)

    def delay(self, retry_index: int, key: str = "") -> float:
        """Backoff before retry ``retry_index`` (1-based), in seconds."""
        cfg = self.config
        raw = cfg.base_delay * cfg.multiplier ** (retry_index - 1)
        raw = min(raw, cfg.max_delay)
        return max(
            0.0, raw * (1.0 + cfg.jitter * _jitter_unit(cfg.seed, key, retry_index))
        )

    def schedule(self, key: str = "") -> list[float]:
        """Every backoff delay this policy would apply, in order."""
        return [self.delay(i, key) for i in range(1, self.attempts)]


class SingleFlight:
    """Coalesce concurrent identical work onto one in-flight task.

    ``run(key, factory)`` returns the shared result: the first caller
    for a key starts ``factory()`` as a background task, every
    concurrent duplicate awaits the same task and counts as a dedup
    hit.  Awaiting goes through :func:`asyncio.shield`, so one caller
    timing out (``wait_for`` cancellation) does *not* cancel the shared
    computation -- it runs to completion and later arrivals (or the
    reduction cache) still benefit.  The entry is removed when the task
    finishes, so sequential repeats recompute (the cache handles
    those).  Failures propagate to every waiter.
    """

    def __init__(self):
        self._inflight: dict[str, asyncio.Task] = {}
        self.hits = 0       # awaiters that joined an in-flight computation
        self.starts = 0     # computations actually started

    def inflight_count(self) -> int:
        return len(self._inflight)

    async def run(self, key: str, factory):
        task = self._inflight.get(key)
        if task is None:
            self.starts += 1
            task = asyncio.get_running_loop().create_task(factory())
            self._inflight[key] = task
            task.add_done_callback(
                lambda done, k=key: self._finish(k, done)
            )
        else:
            self.hits += 1
        return await asyncio.shield(task)

    def _finish(self, key: str, task: asyncio.Task) -> None:
        self._inflight.pop(key, None)
        if not task.cancelled():
            # mark retrieved so an all-waiters-timed-out failure does
            # not log a "exception was never retrieved" warning
            task.exception()

    async def drain(self) -> None:
        """Wait for every in-flight computation (shutdown barrier)."""
        tasks = list(self._inflight.values())
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)


#: histogram bucket upper bounds in milliseconds (last bucket is +inf)
_BUCKETS_MS = (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000)


class LatencyHistogram:
    """Fixed log-spaced latency buckets, JSON-ready for ``stats``."""

    def __init__(self):
        self.counts = [0] * (len(_BUCKETS_MS) + 1)
        self.total = 0
        self.sum_ms = 0.0
        self.max_ms = 0.0

    def observe(self, seconds: float) -> None:
        ms = seconds * 1e3
        self.total += 1
        self.sum_ms += ms
        self.max_ms = max(self.max_ms, ms)
        for index, bound in enumerate(_BUCKETS_MS):
            if ms <= bound:
                self.counts[index] += 1
                return
        self.counts[-1] += 1

    def to_dict(self) -> dict:
        buckets = {
            f"le_{bound}ms": count
            for bound, count in zip(_BUCKETS_MS, self.counts)
        }
        buckets["inf"] = self.counts[-1]
        return {
            "count": self.total,
            "mean_ms": round(self.sum_ms / self.total, 3) if self.total else 0.0,
            "max_ms": round(self.max_ms, 3),
            "buckets": buckets,
        }
