"""Cross-request micro-batching for compiled sweeps.

The single-flight layer coalesces *identical* requests; this module
coalesces *distinct* sweep requests that share a compiled model -- the
dynamic-batching win every inference stack takes for granted.  A
:class:`SweepBatcher` holds compiled-sweep requests for a short window
(``ServiceConfig.batch_window_ms``), merges the frequency grids of all
requests keyed by the same model fingerprint into one concatenated
grid, runs a single broadcast evaluation, and scatters per-request
slices back.

Compiled pole-residue evaluation is elementwise across the frequency
axis, so each point's value is independent of whatever other points
ride in the same batch: the scattered slices are **bitwise identical**
to what each request would have computed alone.

Failure semantics: the shared evaluation is one walk down the engine's
model ladder (``compiled -> direct``), so a compiled-tier failure falls
to the direct tier once for the whole batch and every rider's slice
names the tier that computed it; an error no tier can fix is delivered
to every request in the batch.  A request whose deadline expires while
queued abandons only its own future; the shared evaluation still
completes for the others.
"""

from __future__ import annotations

import asyncio
import dataclasses
import time

import numpy as np

from repro.service.resilience import LatencyHistogram

__all__ = ["SweepBatcher"]


class _PendingBatch:
    """Requests accumulated for one model fingerprint, pre-flush."""

    __slots__ = ("key", "model", "requests", "wake", "opened_at")

    def __init__(self, key: str, model) -> None:
        self.key = key
        self.model = model
        #: list of (s_grid, future, enqueued_at)
        self.requests: list = []
        self.wake = asyncio.Event()
        self.opened_at = time.monotonic()


class SweepBatcher:
    """Window-based request merger for compiled sweeps.

    Parameters
    ----------
    evaluate:
        ``async (model, s_concat) -> FrequencyResponse`` over the merged
        grid -- the service supplies its engine sweep here, so batched
        and unbatched requests run the exact same evaluation path.
    window_ms:
        How long the first request of a batch waits for company.
        ``<= 0`` disables batching entirely (``submit`` evaluates
        immediately, one request per call).
    max_size:
        Requests per batch before an early flush (bounds both queue
        delay under load and the merged grid size).
    """

    def __init__(self, evaluate, *, window_ms: float, max_size: int) -> None:
        self._evaluate = evaluate
        self.window = max(0.0, float(window_ms)) / 1e3
        self.max_size = max(1, int(max_size))
        self._pending: dict[str, _PendingBatch] = {}
        self._flushers: set[asyncio.Task] = set()
        self.batches = 0
        self.batched_requests = 0
        #: occupancy -> how many batches flushed with that many requests
        self.occupancy: dict[str, int] = {}
        self.queue_delay = LatencyHistogram()

    @property
    def enabled(self) -> bool:
        return self.window > 0.0 and self.max_size > 1

    def pending_requests(self) -> int:
        return sum(len(b.requests) for b in self._pending.values())

    async def submit(self, key: str, model, s: np.ndarray):
        """One request's sweep over ``s``; may ride a shared evaluation.

        Returns the same ``FrequencyResponse``-shaped object ``evaluate``
        produces, sliced to this request's grid.
        """
        if not self.enabled:
            return await self._evaluate(model, s)
        batch = self._pending.get(key)
        if batch is None:
            batch = _PendingBatch(key, model)
            self._pending[key] = batch
            task = asyncio.ensure_future(self._flush_after(batch))
            self._flushers.add(task)
            task.add_done_callback(self._flushers.discard)
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        batch.requests.append((np.asarray(s), future, time.monotonic()))
        if len(batch.requests) >= self.max_size:
            # full house: seal the batch (new arrivals open a fresh one)
            # and flush without waiting out the window
            if self._pending.get(key) is batch:
                del self._pending[key]
            batch.wake.set()
        return await future

    async def _flush_after(self, batch: _PendingBatch) -> None:
        try:
            await asyncio.wait_for(batch.wake.wait(), timeout=self.window)
        except asyncio.TimeoutError:
            pass
        if self._pending.get(batch.key) is batch:
            del self._pending[batch.key]
        if not batch.requests:  # pragma: no cover - defensive
            return
        now = time.monotonic()
        for _, _, enqueued in batch.requests:
            self.queue_delay.observe(now - enqueued)
        occupancy = len(batch.requests)
        self.batches += 1
        self.batched_requests += occupancy
        self.occupancy[str(occupancy)] = (
            self.occupancy.get(str(occupancy), 0) + 1
        )
        grids = [s for s, _, _ in batch.requests]
        merged = np.concatenate(grids)
        try:
            response = await self._evaluate(batch.model, merged)
        except asyncio.CancelledError:
            for _, future, _ in batch.requests:
                if not future.done():
                    future.cancel()
            raise
        except Exception as exc:
            # every rider sees the failure
            for _, future, _ in batch.requests:
                if not future.done():
                    future.set_exception(exc)
            return
        offset = 0
        z = np.asarray(response.z)
        for s, future, _ in batch.requests:
            piece = z[offset:offset + s.size]
            offset += s.size
            if future.done():  # rider timed out while queued
                continue
            future.set_result(_reslice(response, s, piece))

    async def drain(self) -> None:
        """Flush-and-wait barrier for shutdown paths."""
        for batch in list(self._pending.values()):
            batch.wake.set()
        while self._flushers:
            await asyncio.gather(
                *list(self._flushers), return_exceptions=True
            )

    def describe(self) -> dict:
        """JSON-ready batching metrics for ``stats`` / ``healthz``."""
        return {
            "enabled": self.enabled,
            "window_ms": self.window * 1e3,
            "max_size": self.max_size,
            "batches": self.batches,
            "batched_requests": self.batched_requests,
            "pending_requests": self.pending_requests(),
            "occupancy": dict(self.occupancy),
            "queue_delay_ms": self.queue_delay.to_dict(),
        }


def _reslice(response, s: np.ndarray, z: np.ndarray):
    """This request's slice of the merged response, same shape as solo."""
    return dataclasses.replace(response, s=s, z=z)
