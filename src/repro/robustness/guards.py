"""Guards shared by the engine's sweep ladder and the serving runtime:
a per-request :class:`Deadline` and the thread-safe
:class:`CircuitBreaker` on the exact ladder's pool tier.  They live
below :mod:`repro.engine` so the engine never imports
:mod:`repro.service`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro.errors import ReproError

__all__ = ["BreakerConfig", "CircuitBreaker", "Deadline", "DeadlineExceeded"]


class DeadlineExceeded(ReproError):
    """The request's wall budget ran out (mapped to ``deadline_exceeded``)."""


@dataclass
class Deadline:
    """Monotonic deadline; ``None`` budget means unbounded."""

    expires_at: float | None

    @classmethod
    def after(cls, seconds: float | None) -> "Deadline":
        if seconds is None:
            return cls(expires_at=None)
        return cls(expires_at=time.monotonic() + float(seconds))

    def remaining(self) -> float | None:
        """Seconds left, or ``None`` when unbounded (never negative)."""
        if self.expires_at is None:
            return None
        return max(0.0, self.expires_at - time.monotonic())

    def expired(self) -> bool:
        return self.expires_at is not None and time.monotonic() >= self.expires_at

    def check(self, stage: str = "") -> None:
        """Cooperative cancellation point: raise when out of budget."""
        if self.expired():
            where = f" at stage {stage!r}" if stage else ""
            raise DeadlineExceeded(f"deadline exceeded{where}")


@dataclass(frozen=True)
class BreakerConfig:
    """Circuit breaker around the process-pool sweep tier."""

    fail_threshold: int = 3     # consecutive failures that open the breaker
    cooldown: float = 0.05      # open -> half-open delay
    probe_successes: int = 1    # half-open successes that close it


class CircuitBreaker:
    """Closed / open / half-open automaton with monotonic cooldown.

    Trips after ``fail_threshold`` consecutive failures, short-circuits
    while open, and admits one probe after ``cooldown``.  The guarded
    tier brackets its work with :meth:`allow` and
    :meth:`record_success` / :meth:`record_failure`, all under one lock
    (concurrent sweeps run on worker threads).
    """

    CLOSED, OPEN, HALF_OPEN = "closed", "open", "half-open"

    def __init__(self, config: BreakerConfig | None = None, *, clock=time.monotonic):
        self.config = config or BreakerConfig()
        self._clock = clock
        self._lock = threading.Lock()
        self.state = self.CLOSED
        self.consecutive_failures = 0
        self._opened_at: float | None = None
        self._half_open_successes = 0
        self._probe_inflight = False
        self.stats = {
            "trips": 0, "short_circuits": 0, "probes": 0, "recoveries": 0,
            "failures": 0, "successes": 0,
        }

    # ------------------------------------------------------------------
    def allow(self) -> bool:
        """May the guarded tier run now?  (May transition open->half-open.)"""
        with self._lock:
            if self.state == self.CLOSED:
                return True
            if self.state == self.OPEN:
                elapsed = self._clock() - (self._opened_at or 0.0)
                if elapsed >= self.config.cooldown:
                    self.state = self.HALF_OPEN
                    self._half_open_successes = 0
                    self._probe_inflight = False
                else:
                    self.stats["short_circuits"] += 1
                    return False
            # half-open: admit one probe at a time
            if self._probe_inflight:
                self.stats["short_circuits"] += 1
                return False
            self._probe_inflight = True
            self.stats["probes"] += 1
            return True

    def record_success(self) -> None:
        with self._lock:
            self.stats["successes"] += 1
            if self.state == self.HALF_OPEN:
                self._probe_inflight = False
                self._half_open_successes += 1
                if self._half_open_successes >= self.config.probe_successes:
                    self.state = self.CLOSED
                    self.consecutive_failures = 0
                    self.stats["recoveries"] += 1
            else:
                self.consecutive_failures = 0

    def record_failure(self) -> None:
        with self._lock:
            self.stats["failures"] += 1
            if self.state == self.HALF_OPEN:
                self._probe_inflight = False
                self._trip()
                return
            self.consecutive_failures += 1
            if (
                self.state == self.CLOSED
                and self.consecutive_failures >= self.config.fail_threshold
            ):
                self._trip()

    def _trip(self) -> None:
        self.state = self.OPEN
        self._opened_at = self._clock()
        self.stats["trips"] += 1
        self.consecutive_failures = 0

    def describe(self) -> dict:
        with self._lock:
            return {
                "state": self.state,
                "consecutive_failures": self.consecutive_failures,
                **self.stats,
            }
