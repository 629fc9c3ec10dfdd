"""Resilient macromodel serving runtime (``repro serve``).

A long-running asyncio service wrapping one
:class:`~repro.engine.session.Engine` behind two fronts -- stdio-JSONL
(:mod:`repro.service.stdio`) and a minimal localhost HTTP/JSON server
(:mod:`repro.service.http`).  Concurrent ``reduce`` / ``sweep`` /
``stats`` requests get:

* single-flight dedup on the content-addressed reduction key,
* per-request deadlines with cooperative cancellation,
* bounded retries with exponential backoff + deterministic jitter,
* a bounded admission queue with structured load shedding,
* a circuit breaker around the process-pool sweep tier,
* cross-request micro-batching of compiled sweeps sharing one model
  fingerprint (:mod:`repro.service.batching`), and
* graceful degradation down the engine's sweep ladder (exact
  ``pool -> serial``, model ``compiled -> direct``), every tier
  transition observable through the shared
  :class:`~repro.robustness.health.HealthMonitor`.

See ``docs/SERVICE.md`` for the wire protocol and failure semantics.
"""

from repro.service.batching import SweepBatcher
from repro.service.config import BreakerConfig, RetryConfig, ServiceConfig
from repro.service.http import serve_http
from repro.service.protocol import (
    ERROR_CODES,
    OPS,
    ProtocolError,
    Request,
    decode_line,
    encode_line,
    error_response,
    ok_response,
)
from repro.service.resilience import (
    CircuitBreaker,
    Deadline,
    DeadlineExceeded,
    LatencyHistogram,
    RetryPolicy,
    SingleFlight,
)
from repro.service.runtime import MacromodelService
from repro.service.stdio import serve_stdio

__all__ = [
    "BreakerConfig",
    "CircuitBreaker",
    "Deadline",
    "DeadlineExceeded",
    "ERROR_CODES",
    "LatencyHistogram",
    "MacromodelService",
    "OPS",
    "ProtocolError",
    "Request",
    "RetryConfig",
    "RetryPolicy",
    "ServiceConfig",
    "SingleFlight",
    "SweepBatcher",
    "decode_line",
    "encode_line",
    "error_response",
    "ok_response",
    "serve_http",
    "serve_stdio",
]
