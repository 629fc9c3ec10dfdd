"""Workload ``reduce-grid``: the reduction pipeline on an RC power grid.

Closed loop, one client.  Each operation is the ROADMAP pipeline on a
roughly 10^5-node :func:`repro.large_rc_grid`: ``sympvl`` at order 64
(the ``auto`` factorization picks SuperLU at this size), then
``certify``, ``compile_model``, a 2000-point compiled sweep,
``synthesize_rc``, and an exact serial ``ac_sweep`` of the full grid at
one of the seeded check points (below the sweep pool's threshold, so it
is one sparse LU and solve in this process).  The seed moves the grid
by a few rows and columns and picks the check points.

Every operation's model must match the benchmark's own exact solve
``B^T (G + sC)^{-1} B`` (a SciPy LU of the grid, outside every timed
region) at all check points to 1e-8 relative (the LARGENET tolerance),
its exact stage must match the same solve to 1e-10, and it must be
certified passive, give a finite sweep and synthesize to ``order``
nodes; anything else is a failed operation.

``sweep_hit_*`` time single warm compiled sweeps after each op, sent
one at a time with short idle gaps, outside the op's latency; ``reduce_miss_p50_ms`` times the
``sympvl`` stage of each op (the pipeline has no cache, so every
reduction is a miss).

The traced run alternates untraced and traced operations.  Traced
operations time the layers from outside through ``sympvl``'s public
``factor_fn`` and ``operator_wrapper`` seams plus the top-level calls.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict, dataclass

import numpy as np
import scipy.sparse.linalg as sla

from common import (
    OUT_DIR, ROOT, WorkloadResult, median, median_setup, peak_rss_mb, tail,
)
from spans import Tracer, load_trace, now_ns, self_times, spans_by_op

NAME = "reduce-grid"

#: (base rows, base cols, +- jitter, order, warm-up grid side)
SCALES = {
    "full": (317, 316, 3, 64, 40),
    "tiny": (20, 20, 2, 48, 12),
}
SWEEP_POINTS = 2000
#: warm single-sweep requests after each op (``sweep_hit_*``), sent
#: one at a time :data:`HIT_GAP_S` apart, as isolated requests arrive:
#: each pays the idle process's wake-up (OpenBLAS threads asleep), about
#: 0.5-1 ms on top of the ~1.5 ms a back-to-back sweep takes.  The tail
#: is the 10th-slowest sample, so the count sets its percentile: with
#: ~45 samples a run it is ~p78.  Deeper tails (p90 and beyond) land on
#: sweeps stalled 2-4x by timer ticks, which come in bursts, and swung
#: 2x between runs
SWEEP_HITS = 8
HIT_GAP_S = 0.02
#: idle time between an op and its sweep hits.  For ~0.1 s after an op
#: every third sweep takes 3-4x longer while the op's freed memory
#: settles; that aftermath belongs to the op, not to a warm hit
SETTLE_S = 0.2
CHECK_POINTS = 3
#: relative accuracy every model must reach against the exact solve
ACCURACY_LIMIT = 1.0e-8
#: relative agreement of the exact stage with the benchmark's own solve
EXACT_LIMIT = 1.0e-10
#: per-operation latency limit counted by ``goodput_rps``
LATENCY_LIMIT_S = 60.0
#: how far the reported layer self times plus the tracer's own recording
#: time may miss an op's wall time: the larger of an absolute slack
#: (microseconds; the ``with`` machinery between stages takes ~60 us per
#: op) and a share of the op's wall (scheduler stalls in those gaps)
COVERAGE_SLACK_US = 250.0
COVERAGE_SLACK_SHARE = 1.0e-4
#: grid time constant (resistance * capacitance of large_rc_grid)
_TAU = 1.0e3 * 0.2e-12


@dataclass(frozen=True)
class Inputs:
    rows: int
    cols: int
    order: int
    warmup_side: int
    w_lo: float
    w_hi: float
    check_omega: tuple

    def sweep_s(self) -> np.ndarray:
        return 1j * np.logspace(
            np.log10(self.w_lo), np.log10(self.w_hi), SWEEP_POINTS
        )


def make_inputs(seed: int, scale: str) -> Inputs:
    base_r, base_c, jitter, order, warm = SCALES[scale]
    rng = np.random.default_rng([seed, 11])
    rows = base_r + int(rng.integers(-jitter, jitter + 1))
    cols = base_c + int(rng.integers(-jitter, jitter + 1))
    # band scaled to the grid's slowest mode (LARGENET's Fig.-2 band)
    w_hi = 200.0 / (_TAU * rows * cols)
    w_lo = 1.0e-3 * w_hi
    check = np.sort(10.0 ** rng.uniform(np.log10(w_lo), np.log10(w_hi),
                                        CHECK_POINTS))
    return Inputs(rows, cols, order, warm, w_lo, w_hi,
                  tuple(float(w) for w in check))


def digest(inputs: Inputs) -> str:
    return hashlib.sha256(
        json.dumps(asdict(inputs), sort_keys=True).encode()
    ).hexdigest()


# ---------------------------------------------------------------------------
# one operation
# ---------------------------------------------------------------------------
class _TracedOperator:
    """Lanczos operator proxy timing every ``apply`` as a linalg span.

    The Lanczos span ends at the last call into the operator; what
    ``sympvl`` does after that is the model build.
    """

    def __init__(self, inner, tracer: Tracer, state: dict):
        self._inner = inner
        self._tracer = tracer
        self._state = state

    def apply(self, v):
        start = now_ns()
        out = self._inner.apply(v)
        end = now_ns()
        v = np.asarray(v)
        self._tracer.add(
            "linalg.apply", start, end, parent=self._state["lanczos_id"],
            columns=1 if v.ndim == 1 else int(v.shape[1]),
        )
        self._state["last_end"] = end
        return out

    def _timed(self, method, *args):
        out = method(*args)
        self._state["last_end"] = now_ns()
        return out

    def start_block(self):
        return self._timed(self._inner.start_block)

    def j_product(self, x):
        return self._timed(self._inner.j_product, x)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _traced_sympvl(repro, system, order, tracer: Tracer):
    """``sympvl`` with factor / apply / Lanczos / model-build spans."""
    from repro.linalg.factorization import factor_symmetric

    state: dict = {}

    def factor_fn(g, **kwargs):
        with tracer.span("linalg.factor") as args:
            fact = factor_symmetric(g, **kwargs)
            args["method"] = fact.method
        return fact

    def operator_wrapper(op):
        state["lanczos_id"] = tracer.new_id()
        state["lanczos_start"] = state["last_end"] = now_ns()
        return _TracedOperator(op, tracer, state)

    model = repro.sympvl(
        system, order, factor_fn=factor_fn,
        operator_wrapper=operator_wrapper,
    )
    end = now_ns()
    parent = tracer.current
    tracer.add("core.lanczos", state["lanczos_start"], state["last_end"],
               span_id=state["lanczos_id"], parent=parent)
    tracer.add("core.model_build", state["last_end"], end, parent=parent)
    return model


def one_op(repro, system, order: int, tracer: Tracer, s: np.ndarray,
           s_exact: np.ndarray):
    """Run the pipeline once; returns ``(timings, outputs)``."""
    from repro.engine.sweep import compiled_sweep

    timings: dict = {}
    outputs: dict = {}
    with tracer.span("op", timings) as op_args:
        with tracer.span("core.sympvl", timings) as args:
            if tracer.enabled:
                model = _traced_sympvl(repro, system, order, tracer)
            else:
                model = repro.sympvl(system, order)
            args["order"] = int(model.order)
            args["deflations"] = int(model.metadata.get("deflations", 0))
        with tracer.span("core.certify", timings):
            outputs["certified"] = bool(repro.certify(model).certified)
        with tracer.span("engine.compile", timings):
            compiled = repro.compile_model(model)
        with tracer.span("engine.compiled_sweep", timings):
            response = compiled_sweep(compiled, s)
            outputs["finite"] = bool(np.isfinite(response.z).all())
        with tracer.span("synthesis.synthesize", timings):
            outputs["synth_nodes"] = int(repro.synthesize_rc(model).num_nodes)
        with tracer.span("simulation.ac_sweep", timings) as args:
            outputs["exact"] = repro.ac_sweep(system, s_exact).z
            args["points"] = int(s_exact.size)
        op_args["tracer_us"] = tracer.children_cost_ns(tracer.current) / 1e3
    outputs.update(order=int(model.order), compiled=compiled)
    return timings, outputs


def sweep_hits(compiled, s: np.ndarray, count: int) -> list:
    """Wall times of ``count`` single sweeps of a warm compiled model,
    :data:`HIT_GAP_S` apart, starting :data:`SETTLE_S` after the op."""
    from repro.engine.sweep import compiled_sweep

    time.sleep(SETTLE_S - HIT_GAP_S)
    walls = []
    for _ in range(count):
        time.sleep(HIT_GAP_S)
        begin = time.perf_counter()
        compiled_sweep(compiled, s)
        walls.append(time.perf_counter() - begin)
    return walls


def closed_loop(run_op, seconds: float, trace: bool, tracer: Tracer):
    """Run operations back to back for ``seconds``; the traced run
    alternates untraced and traced operations (at least one of each)."""
    ops = []
    started = time.perf_counter()
    while True:
        traced = trace and len(ops) % 2 == 1
        tracer.enabled = traced
        tracer.op_id = len(ops) + 1
        op = run_op(tracer, len(ops))
        op["traced"] = traced
        ops.append(op)
        if time.perf_counter() - started >= seconds and (
            not trace or len(ops) >= 2
        ):
            break
    return ops


def end_to_end(ops, setup_s: float, rss_mb: float,
               limit_s: float) -> tuple[dict, dict]:
    """The nine end-to-end metrics of the closed loop, plus notes.

    Throughput and goodput count the time spent in operations, not the
    sweep-hit sampling between them.
    """
    untraced = [op for op in ops if not op["traced"]]
    busy_s = sum(op["timings"]["op"] for op in ops)
    wall = [op["timings"]["op"] for op in untraced]
    sweep = [w for op in untraced for w in op["sweep_hits"]]
    reduce_ = [op["timings"]["core.sympvl"] for op in untraced]
    lat_tail, lat_pct, lat_n = tail(wall)
    sw_tail, sw_pct, sw_n = tail(sweep)
    good = sum(1 for op in ops if op["ok"] and op["timings"]["op"] <= limit_s)
    metrics = {
        "setup_s": setup_s,
        "latency_p50_ms": 1e3 * median(wall),
        "latency_tail_ms": 1e3 * lat_tail,
        "throughput_ops_s": len(ops) / busy_s,
        "goodput_rps": good / busy_s,
        "sweep_hit_p50_ms": 1e3 * median(sweep),
        "sweep_hit_tail_ms": 1e3 * sw_tail,
        "reduce_miss_p50_ms": 1e3 * median(reduce_),
        "peak_rss_mb": rss_mb,
    }
    notes = {
        "ops": len(ops),
        "op_walls_s": [round(op["timings"]["op"], 3) for op in ops],
        "latency_tail": f"p{lat_pct:.0f} of {len(wall)} ops, "
                        f"{lat_n} beyond",
        "sweep_hit": f"{SWEEP_HITS} single warm compiled {SWEEP_POINTS}-"
                     f"point sweeps per op, {HIT_GAP_S:g} s apart, "
                     f"{len(sweep)} samples; tail p{sw_pct:.1f}, "
                     f"{sw_n} beyond",
        "reduce_miss": "sympvl stage of each op (no cache on this path)",
        "goodput_limit_s": limit_s,
    }
    return metrics, notes


def finish_trace(result: WorkloadResult, tracer: Tracer, ops, seed: int,
                 max_rel_err: float) -> None:
    """Write the trace file and derive the per-layer metrics from it."""
    wall = [op["timings"]["op"] for op in ops if not op["traced"]]
    traced_wall = [op["timings"]["op"] for op in ops if op["traced"]]
    tracer.enabled = True
    tracer.counter("accuracy", {"max_rel_err": max_rel_err})
    tracer.counter("trace", {
        "overhead_ratio": median(traced_wall) / median(wall)})
    path = OUT_DIR / f"{NAME}-seed{seed}.trace.json"
    tracer.write(path, {"workload": NAME, "seed": seed})
    result.per_layer, residuals, walls = derive_layers(path)
    result.notes["trace_file"] = str(path.relative_to(ROOT))
    result.check(
        "trace_self_times_cover_wall", coverage_ok(residuals, walls),
        f"op wall - reported layer self times - tracer time, per traced "
        f"op (us): {[round(r, 1) for r in residuals]}",
    )


def _warm_up(repro, inputs: Inputs) -> None:
    """The pipeline once on a small grid: loads and touches every path."""
    side = inputs.warmup_side
    small = repro.large_rc_grid(side, side)
    one_op(repro, small, inputs.order, Tracer(False),
           1j * np.logspace(6, 9, 64), np.array([1.0e8j]))


def setup(repro, inputs: Inputs):
    system = repro.large_rc_grid(inputs.rows, inputs.cols)
    _warm_up(repro, inputs)
    return system


def setup_probe(seed: int, scale: str) -> None:
    import repro

    setup(repro, make_inputs(seed, scale))


def exact_reference(system, omega: np.ndarray) -> np.ndarray:
    """``B^T (G + j w C)^{-1} B`` of the RC grid with SciPy's own LU."""
    b = system.B.astype(complex)
    return np.stack([
        b.T @ sla.splu((system.G + 1j * w * system.C).tocsc()).solve(b)
        for w in omega
    ])


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------
def run(repro, *, seed: int, seconds: float, trace: bool, scale: str,
        plant_wrong: bool) -> WorkloadResult:
    result = WorkloadResult()
    inputs = make_inputs(seed, scale)
    setup_s, setup_samples = median_setup(NAME, seed, scale)
    system = setup(repro, inputs)
    s = inputs.sweep_s()
    omega = np.asarray(inputs.check_omega)

    tracer = Tracer(False, process_name=f"{NAME} seed={seed}")

    def run_op(tracer, index):
        point = index % CHECK_POINTS
        timings, op = one_op(repro, system, inputs.order, tracer, s,
                             1j * omega[point:point + 1])
        op["timings"] = timings
        op["point"] = point
        op["sweep_hits"] = sweep_hits(op["compiled"], s, SWEEP_HITS)
        return op

    ops = closed_loop(run_op, seconds, trace, tracer)
    rss_mb = peak_rss_mb()

    # -- correctness, outside every timed region --------------------------
    exact = exact_reference(system, omega)
    scale_ref = float(np.abs(exact).max())
    errors, exact_errors = [], []
    for op in ops:
        reduced = op.pop("compiled").impedance(1j * omega)
        if plant_wrong:
            reduced = reduced * (1.0 + 1.0e-6)
        err = float(np.abs(reduced - exact).max() / scale_ref)
        exact_err = float(np.abs(op.pop("exact")[0] - exact[op["point"]])
                          .max() / scale_ref)
        errors.append(err)
        exact_errors.append(exact_err)
        op["ok"] = (
            err <= ACCURACY_LIMIT and exact_err <= EXACT_LIMIT
            and op["certified"] and op["finite"]
            and op["synth_nodes"] == op["order"]
        )
    result.attempted = len(ops)
    result.failed = sum(1 for op in ops if not op["ok"])
    result.check("accuracy_le_1e-8", max(errors) <= ACCURACY_LIMIT,
                 f"max rel err {max(errors):.3e} at {CHECK_POINTS} points")
    result.check("exact_stage_le_1e-10", max(exact_errors) <= EXACT_LIMIT,
                 f"max rel err {max(exact_errors):.3e}")
    result.check("certified_synthesized",
                 all(op["certified"] and op["finite"]
                     and op["synth_nodes"] == op["order"] for op in ops))
    result.end_to_end, notes = end_to_end(ops, setup_s, rss_mb,
                                          LATENCY_LIMIT_S)
    result.notes = {
        "grid": [inputs.rows, inputs.cols],
        "nodes": int(system.size),
        "order": inputs.order,
        "setup_samples_s": setup_samples,
        "max_rel_err": max(errors),
        **notes,
    }
    if trace:
        finish_trace(result, tracer, ops, seed, max(errors))
    return result


#: span name -> per-layer metric of its summed self time (seconds)
_SELF_METRICS = {
    "linalg.factor": "linalg.factor_s",
    "linalg.apply": "linalg.apply_s",
    "core.sympvl": "core.sympvl_self_s",
    "core.lanczos": "core.lanczos_self_s",
    "core.model_build": "core.model_build_s",
    "core.certify": "core.certify_s",
    "engine.compile": "engine.compile_s",
    "engine.compiled_sweep": "engine.compiled_sweep_s",
    "synthesis.synthesize": "synthesis.synthesize_s",
    "simulation.ac_sweep": "simulation.ac_sweep_s",
}

#: this workload's per-layer metrics; the rest of the table is not on
#: its path
LAYER_METRICS = (
    *_SELF_METRICS.values(), "linalg.factor_calls", "linalg.apply_calls",
    "linalg.apply_columns", "simulation.ac_point_s", "core.order",
    "core.deflations", "accuracy.max_rel_err", "trace.overhead_ratio",
)


def coverage_ok(residuals: list, walls: list) -> bool:
    """Do the reported self times add up to each op's wall time?"""
    return bool(residuals) and all(
        abs(r) <= max(COVERAGE_SLACK_US, COVERAGE_SLACK_SHARE * w)
        for r, w in zip(residuals, walls))


def derive_layers(path) -> tuple[dict, list]:
    """Per-layer metrics (means over traced ops) from a trace file.

    Returns ``(metrics, residuals, walls)``: per op, ``residuals`` is
    its wall time minus the reported ``*_s`` self-time metrics and the
    tracer's own recording time -- the part of the op no metric
    accounts for -- and ``walls`` its wall time, both in microseconds.
    """
    spans, counters, _ = load_trace(path)
    selfs = self_times(spans)
    per_op = []
    residuals, walls = [], []
    for op_id, group in spans_by_op(spans).items():
        roots = [s for s in group if s["name"] == "op"]
        if op_id is None or not roots:
            continue
        layer = dict.fromkeys(_SELF_METRICS.values(), 0.0)
        counts = {"linalg.factor_calls": 0, "linalg.apply_calls": 0,
                  "linalg.apply_columns": 0, "simulation.ac_point_s": 0.0}
        for span in group:
            metric = _SELF_METRICS.get(span["name"])
            if metric is not None:
                layer[metric] += selfs[span["args"]["id"]] / 1e6
            if span["name"] == "linalg.factor":
                counts["linalg.factor_calls"] += 1
            elif span["name"] == "linalg.apply":
                counts["linalg.apply_calls"] += 1
                counts["linalg.apply_columns"] += span["args"]["columns"]
            elif span["name"] == "core.sympvl":
                counts["core.order"] = span["args"]["order"]
                counts["core.deflations"] = span["args"]["deflations"]
            elif span["name"] == "simulation.ac_sweep":
                counts["simulation.ac_point_s"] = (
                    selfs[span["args"]["id"]] / 1e6 / span["args"]["points"])
        per_op.append({**layer, **counts})
        root = roots[0]
        walls.append(root["dur"])
        residuals.append(root["dur"] - root["args"]["tracer_us"]
                         - 1e6 * sum(layer.values()))
    metrics = {
        name: float(np.mean([op[name] for op in per_op]))
        for name in per_op[0]
    }
    for counter in counters:
        if counter["name"] == "accuracy":
            metrics["accuracy.max_rel_err"] = counter["args"]["max_rel_err"]
        elif counter["name"] == "trace":
            metrics["trace.overhead_ratio"] = counter["args"]["overhead_ratio"]
    return metrics, residuals, walls
