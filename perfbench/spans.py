"""In-memory span recorder with a Chrome trace-event writer.

Spans are recorded from the benchmark's own code around each call into
a layer of the program: name, start, end, parent span and one id per
operation.  They stay in memory and are written once, at the end of a
run, as Chrome trace-event JSON (``{"traceEvents": [...]}``) that
Perfetto and ``chrome://tracing`` open directly; spans the program
records itself can later be merged into the same file.

Per-layer metrics are derived back from the written file
(:func:`load_trace`, :func:`self_times`), never from the live objects,
so the file is the record of the run.
"""

from __future__ import annotations

import json
import os
import pathlib
import time
from contextlib import contextmanager

__all__ = ["Tracer", "load_trace", "self_times", "spans_by_op"]


def now_ns() -> int:
    return time.perf_counter_ns()


class Tracer:
    """Records spans when ``enabled``; always returns durations.

    ``span()`` yields a mutable ``args`` dict the caller may fill in
    (attributes land in the trace event).  With tracing off nothing is
    stored, so the untraced run pays only the clock reads.  With tracing
    on, the part of a span's bookkeeping that lies outside its own
    interval lands in its parent's self time; :meth:`children_cost_ns`
    says how much that was.
    """

    def __init__(self, enabled: bool, *, process_name: str = "perfbench"):
        self.enabled = enabled
        self.events: list[dict] = []
        self.process_name = process_name
        self._next_id = 1
        self._stack: list[int] = []
        self.op_id: int | None = None
        self._cost_ns: dict = {}
        self._pid = os.getpid()

    # -- ids ------------------------------------------------------------
    def new_id(self) -> int:
        value = self._next_id
        self._next_id += 1
        return value

    @property
    def current(self) -> int | None:
        """Id of the innermost open span (the parent of a new one)."""
        return self._stack[-1] if self._stack else None

    # -- recording ------------------------------------------------------
    def add(
        self, name: str, start_ns: int, end_ns: int, *,
        span_id: int | None = None, parent: int | None = None,
        op: int | None = None, **args,
    ) -> None:
        """Store one completed span (``ph: X``)."""
        if self.enabled:
            self._record(name, start_ns, end_ns, span_id, parent, op, args)

    def children_cost_ns(self, span_id: int | None) -> int:
        """Recording time of ``span_id``'s child spans spent outside
        their own intervals (so inside ``span_id``'s self time)."""
        return self._cost_ns.get(span_id, 0)

    def _record(self, name, start_ns, end_ns, span_id, parent, op, args):
        self.events.append({
            "name": name,
            "cat": name.split(".", 1)[0],
            "ph": "X",
            "ts": start_ns / 1e3,
            "dur": max(0, end_ns - start_ns) / 1e3,
            "pid": self._pid,
            "tid": 1,
            "args": {
                "id": span_id if span_id is not None else self.new_id(),
                "parent": parent,
                "op": op if op is not None else self.op_id,
                **args,
            },
        })

    @contextmanager
    def span(self, name: str, timings: dict | None = None, **attrs):
        """Time a block; nested spans take this one as parent.

        ``timings[name]`` receives the duration in seconds whether or
        not tracing is on.
        """
        enter = now_ns()
        args = dict(attrs)
        span_id = self.new_id() if self.enabled else None
        parent = self.current
        if self.enabled:
            self._stack.append(span_id)
        start = now_ns()
        try:
            yield args
        finally:
            end = now_ns()
            if timings is not None:
                timings[name] = (end - start) / 1e9
            if self.enabled:
                self._stack.pop()
                self._record(name, start, end, span_id, parent, None, args)
                self._cost_ns[parent] = self._cost_ns.get(parent, 0) + (
                    start - enter) + (now_ns() - end)

    def counter(self, name: str, values: dict) -> None:
        """Store one counter sample (``ph: C``)."""
        if not self.enabled:
            return
        self.events.append({
            "name": name,
            "cat": name.split(".", 1)[0],
            "ph": "C",
            "ts": now_ns() / 1e3,
            "pid": self._pid,
            "args": dict(values),
        })

    def write(self, path: pathlib.Path, metadata: dict | None = None) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        events = [{
            "name": "process_name", "ph": "M", "pid": self._pid,
            "args": {"name": self.process_name},
        }] + self.events
        payload = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": metadata or {},
        }
        with open(path, "w") as handle:
            json.dump(payload, handle, default=str)


# ---------------------------------------------------------------------------
# reading a trace back
# ---------------------------------------------------------------------------
def load_trace(path: pathlib.Path) -> tuple[list[dict], list[dict], dict]:
    """``(spans, counters, metadata)`` of a written trace file."""
    with open(path) as handle:
        payload = json.load(handle)
    events = payload.get("traceEvents", [])
    spans = [e for e in events if e.get("ph") == "X"]
    counters = [e for e in events if e.get("ph") == "C"]
    return spans, counters, payload.get("otherData", {})


def spans_by_op(spans: list[dict]) -> dict:
    grouped: dict = {}
    for span in spans:
        grouped.setdefault(span["args"].get("op"), []).append(span)
    return grouped


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float):
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> self time in microseconds.

    Self time is the span's duration minus the part of its interval
    that its child spans cover.
    """
    children: dict = {}
    for span in spans:
        children.setdefault(span["args"].get("parent"), []).append(span)
    out = {}
    for span in spans:
        lo, hi = span["ts"], span["ts"] + span["dur"]
        kids = children.get(span["args"]["id"], [])
        covered = _covered(
            [(k["ts"], k["ts"] + k["dur"]) for k in kids], lo, hi
        )
        out[span["args"]["id"]] = span["dur"] - covered
    return out
