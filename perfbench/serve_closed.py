"""Workload ``serve-closed``: closed-loop traffic through the service.

One client keeps exactly one request outstanding against a ``python -m
repro serve --workers <nproc>`` subprocess, over its stdio-JSONL pipe:
it sends a request, waits for the response, and sends the next.  Every
request pays the whole service path -- JSON decode, admission, the
netlist-hash cache lookup, the micro-batching window, compiled
evaluation or reduction, JSON encode -- and the pipe in both
directions.

The requests come in blocks of :data:`BLOCK` (see :func:`make_inputs`);
the seed orders each block and draws its values:

* 3 reduce requests for seeded variants of the 64-pin RF package of the
  paper's Figs. 3-4 (RLC, 16 ports, order 64 about 2 pi 1.5 GHz, series
  resistance, coupling and shunt capacitance within +-10 %).  They
  miss the cache, parse, reduce through the dense Bunch-Kaufman
  ``L J L^T`` factorization and look-ahead Lanczos with ``J != I``, and
  write the cache;
* 22 compiled sweeps of 200-2000 points on three warm netlists: the
  Fig. 2 PEEC (LC, 1 port; 18 sweeps, 14 of them with
  ``return_values``), the 64-pin package and the 17-port
  ``coupled_rc_bus`` (RC), 2 sweeps each.  They hit the cache.  The
  multi-port sweeps ask for ``max_abs`` only: with ``return_values`` a
  2000-point answer is over 20 MB of JSON, which measures the encoder,
  not the service.

Exact sweeps are not in the mix: behind ``repro serve`` the sweep
pool's forked workers deadlock on the stdin lock the stdio reader
thread holds, so they run into their deadline.

Correctness (every check failure is a failed operation): each sweep
must come from the compiled tier with the requested point count, its
``max_abs`` must match an in-benchmark reduction of the same netlist to
1e-9 relative, and every returned PEEC value array must match that
reduction's values to 1e-9; each reduce must report the requested
order, the package's port count and source size.  The references are
computed before the server starts and are not part of ``setup_s``.

Set-up is the program's: spawn the server, then reduce and compile the
three warm netlists through it (one small sweep each).
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from common import (
    OUT_DIR, ROOT, WorkloadResult, median, peak_rss_mb, program_env, tail,
    usable_cpus,
)
from spans import Tracer, load_trace, now_ns, self_times

NAME = "serve-closed"

#: requests per block: (kind, net, return_values) -> count.  Latency
#: rises by group in this order, so both medians (of all requests and
#: of the sweeps) fall deep inside the PEEC return_values group and do
#: not move with the mix of its neighbours from run to run, and the
#: sweep tail falls inside the package group
BLOCK = {
    ("reduce", "pkg", False): 3,
    ("sweep", "peec", False): 4,
    ("sweep", "peec", True): 14,
    ("sweep", "pkg", False): 2,
    ("sweep", "bus", False): 2,
}
#: latency limits counted by ``goodput_rps`` (seconds)
LIMITS_S = {"sweep": 1.0, "reduce": 10.0}
VALUE_RTOL = 1.0e-9
#: server set-ups timed per run; ``setup_s`` is their median
SETUP_REPEATS = 3
#: per-request wait before the run gives up on the server
REQUEST_TIMEOUT_S = 60.0

_PKG_SHIFT = 2 * np.pi * 1.5e9
_PEEC_BAND = (1.5e9, 4.0e10)
_PKG_BAND = (2 * np.pi * 5e7, 2 * np.pi * 5e9)
_BUS_BAND = (1.0e7, 1.0e11)

#: per scale: PEEC (cells, order), package (kwargs, order), bus (wires,
#: segments, order)
SCALES = {
    "full": ((120, 50), ({}, 64), (17, 79, 51)),
    "tiny": ((30, 12), ({"n_pins": 8, "n_signal": 2, "n_sections": 4}, 16),
             (4, 12, 16)),
}


@dataclass(frozen=True)
class Net:
    key: str
    order: int
    shift: object
    band: tuple
    text: str = field(repr=False)


def _package(repro, scale: str, factors=(1.0, 1.0, 1.0)):
    f_r, f_k, f_c = factors
    return repro.package_model(
        series_resistance=1.5 * f_r, neighbor_coupling=0.2 * f_k,
        shunt_capacitance=0.144e-12 * f_c, **SCALES[scale][1][0],
    )


def _nets(repro, scale: str) -> dict:
    (cells, peec_order), (_, pkg_order), (wires, segments, bus_order) = \
        SCALES[scale]
    specs = [
        ("peec", repro.peec_like_lc(cells), peec_order, "auto", _PEEC_BAND),
        ("pkg", _package(repro, scale), pkg_order, _PKG_SHIFT, _PKG_BAND),
        ("bus", repro.coupled_rc_bus(wires, segments,
                                     driver_resistance=100.0),
         bus_order, 0.0, _BUS_BAND),
    ]
    return {
        key: Net(key, order, shift, band, repro.write_netlist(net))
        for key, net, order, shift, band in specs
    }


@dataclass
class Request:
    index: int
    kind: str            # "sweep" | "reduce"
    net: str
    points: int = 0
    return_values: bool = False
    factors: tuple = ()

    @property
    def rid(self) -> str:
        return f"r{self.index}"


def make_inputs(seed: int, blocks: int) -> list:
    """The first ``blocks`` blocks of the request sequence.

    Each block holds the :data:`BLOCK` counts in a seeded order; the
    sweep sizes of one group are stratified over [200, 2000] and the
    reduce variants are seeded, so seeds differ in order and values but
    not in how much work a block offers.
    """
    rng = np.random.default_rng([seed, 33])
    requests: list = []
    for _ in range(blocks):
        slots = []
        for (kind, net, values), size in BLOCK.items():
            points = 200 + ((rng.permutation(size) + rng.random(size))
                            / size * 1801).astype(int)
            slots.extend((kind, net, values, int(p)) for p in points)
        for pick in rng.permutation(len(slots)):
            kind, net, values, points = slots[pick]
            index = len(requests)
            if kind == "reduce":
                factors = tuple(round(float(f), 6)
                                for f in rng.uniform(0.9, 1.1, 3))
                requests.append(Request(index, kind, net, factors=factors))
            else:
                requests.append(Request(index, kind, net, points=points,
                                        return_values=values))
    return requests


def digest(requests: list) -> str:
    described = [(r.kind, r.net, r.points, r.return_values, r.factors)
                 for r in requests]
    return hashlib.sha256(json.dumps(described).encode()).hexdigest()


# ---------------------------------------------------------------------------
# wire format
# ---------------------------------------------------------------------------
def _shift_json(shift) -> str:
    return json.dumps(shift if isinstance(shift, str) else float(shift))


class Encoder:
    """Request lines; each netlist is JSON-escaped once."""

    def __init__(self, nets: dict):
        self.nets = nets
        self._netlist = {k: json.dumps(n.text) for k, n in nets.items()}

    def sweep(self, rid: str, net_key: str, points: int,
              values: bool) -> bytes:
        net = self.nets[net_key]
        params = (
            f'"netlist":{self._netlist[net_key]},"order":{net.order},'
            f'"shift":{_shift_json(net.shift)},'
            f'"band":[{net.band[0]!r},{net.band[1]!r}],"points":{points},'
            f'"return_values":{"true" if values else "false"}'
        )
        return (f'{{"id":"{rid}","op":"sweep","params":{{{params}}}}}\n'
                ).encode()

    def reduce(self, rid: str, text: str) -> bytes:
        pkg = self.nets["pkg"]
        params = (f'"netlist":{json.dumps(text)},"order":{pkg.order},'
                  f'"shift":{_shift_json(pkg.shift)}')
        return (f'{{"id":"{rid}","op":"reduce","params":{{{params}}}}}\n'
                ).encode()


def grid(net: Net, points: int) -> np.ndarray:
    return 1j * np.logspace(np.log10(net.band[0]), np.log10(net.band[1]),
                            points)


# ---------------------------------------------------------------------------
# the server process
# ---------------------------------------------------------------------------
class Server:
    """One ``repro serve`` subprocess and its JSONL pipe (one request at
    a time)."""

    def __init__(self, workers: int, log_path):
        self.workers = workers
        self.log_path = log_path
        self.proc = None

    async def start(self) -> None:
        self.log_path.parent.mkdir(parents=True, exist_ok=True)
        self._log = open(self.log_path, "ab")
        self.proc = await asyncio.create_subprocess_exec(
            sys.executable, "-m", "repro", "serve",
            "--workers", str(self.workers),
            cwd=str(ROOT), env=program_env(),
            stdin=asyncio.subprocess.PIPE, stdout=asyncio.subprocess.PIPE,
            stderr=self._log, limit=1 << 26,
        )

    async def call(self, data: bytes) -> tuple[int, int, bytes]:
        """Send one request line; ``(sent_ns, recv_ns, response line)``."""
        sent = now_ns()
        self.proc.stdin.write(data)
        await self.proc.stdin.drain()
        line = await asyncio.wait_for(self.proc.stdout.readline(),
                                      REQUEST_TIMEOUT_S)
        recv = now_ns()
        if not line:
            raise ConnectionError("server closed its output")
        return sent, recv, line

    async def stats(self) -> dict:
        _, _, line = await self.call(b'{"id":"stats","op":"stats"}\n')
        return json.loads(line)["result"]

    async def stop(self) -> None:
        if self.proc is None:
            return
        try:
            if self.proc.returncode is None:
                self.proc.stdin.write(b'{"id":"bye","op":"shutdown"}\n')
                await self.proc.stdin.drain()
                self.proc.stdin.close()
        except (BrokenPipeError, ConnectionResetError):
            pass
        try:
            await asyncio.wait_for(self.proc.wait(), 30.0)
        except asyncio.TimeoutError:
            self.proc.kill()
            await self.proc.wait()
        self._log.close()


async def _start_and_warm(encoder: Encoder, workers: int, log_path):
    """The program's set-up: spawn, then reduce and compile the nets."""
    started = time.perf_counter()
    server = Server(workers, log_path)
    await server.start()
    try:
        for key in encoder.nets:
            _, _, line = await server.call(
                encoder.sweep(f"warm-{key}", key, 200, False))
            response = json.loads(line)
            if not response.get("ok"):
                raise RuntimeError(f"server warm-up failed: {response}")
    except BaseException:
        await server.stop()
        raise
    return server, time.perf_counter() - started


# ---------------------------------------------------------------------------
# references and checks (outside the timed window)
# ---------------------------------------------------------------------------
class References:
    """In-benchmark reductions of the warm nets (the sweep reference)."""

    def __init__(self, repro, nets: dict):
        self.nets = nets
        self.compiled = {}
        self.systems = {}
        for key, net in nets.items():
            system = repro.assemble_mna(repro.parse_netlist(net.text))
            model = repro.sympvl(system, net.order, shift=net.shift)
            self.systems[key] = system
            self.compiled[key] = repro.compile_model(model)

    def sweep(self, net_key: str, points: int) -> np.ndarray:
        return self.compiled[net_key].impedance(
            grid(self.nets[net_key], points))


def _check(record, refs: References, expected: dict, plant_wrong: bool):
    """``(ok, reason, response)`` for one request."""
    request = record["request"]
    response = json.loads(record.pop("line"))
    if not response.get("ok"):
        return False, response.get("error", {}).get("code"), response
    result = response["result"]
    skew = 1.0 + 1.0e-6 if plant_wrong else 1.0
    if request.kind == "reduce":
        ok = (result.get("order") == expected["order"]
              and result.get("num_ports") == expected["ports"]
              and result.get("source_size") == expected["size"]
              and not plant_wrong)
        return ok, None if ok else "reduce result mismatch", response
    if result.get("tier") != "compiled" or \
            result.get("points") != request.points:
        return False, f"tier {result.get('tier')}", response
    reference = refs.sweep(request.net, request.points)
    ref_max = float(np.abs(reference).max())
    if abs(result["max_abs"] * skew - ref_max) > VALUE_RTOL * ref_max:
        return False, "max_abs mismatch", response
    if request.return_values:
        z = np.asarray(result["z_real"]) + 1j * np.asarray(result["z_imag"])
        err = float(np.abs(z.reshape(reference.shape) - reference).max()
                    / ref_max)
        if err > VALUE_RTOL:
            return False, f"value rel err {err:.2e}", response
    return True, None, response


def _flat_stats(snapshot: dict) -> dict:
    service, engine = snapshot["service"], snapshot["engine"]
    flat = {}
    for stage, hist in service["latency_ms"].items():
        flat[f"{stage}_count"] = hist["count"]
        flat[f"{stage}_sum_ms"] = hist["count"] * hist["mean_ms"]
    batching = service["batching"]
    flat["batches"] = batching["batches"]
    flat["batched_requests"] = batching["batched_requests"]
    queue = batching["queue_delay_ms"]
    flat["queue_count"] = queue["count"]
    flat["queue_sum_ms"] = queue["count"] * queue["mean_ms"]
    cache = engine["cache"]
    flat["cache_hits"] = cache["hits"]
    flat["cache_misses"] = cache["misses"]
    flat["cache_puts"] = cache["puts"]
    flat["reductions"] = engine["reductions"]
    flat["degradations"] = sum(service["degradations"].values())
    for name in ("shed", "deadline_exceeded", "retries"):
        flat[name] = service[name]
    return flat


def stats_delta(before: dict, after: dict) -> dict:
    a, b = _flat_stats(before), _flat_stats(after)
    return {key: b[key] - a[key] for key in b}


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------
async def _drive(server: Server, requests: list, encoder: Encoder,
                 variant_text: dict, seconds: float, tracer: Tracer):
    """Send requests one at a time until ``seconds`` have passed.

    With tracing on, each request gets a ``client.request`` span (send
    to receive) and a ``service.request`` child (the server's own
    ``elapsed_ms``, ending at the receive); the time spent recording
    them is summed so the run can report what tracing cost.
    """
    records = []
    trace_ns = 0
    started = now_ns()
    deadline = started + int(seconds * 1e9)
    for request in requests:
        if now_ns() >= deadline:
            break
        if request.kind == "reduce":
            line = encoder.reduce(request.rid, variant_text[request.index])
        else:
            line = encoder.sweep(request.rid, request.net, request.points,
                                 request.return_values)
        sent, recv, response = await server.call(line)
        records.append({"request": request, "sent": sent, "recv": recv,
                        "line": response})
        if tracer.enabled:
            begin = now_ns()
            server_ms = json.loads(response)["elapsed_ms"]
            tracer.op_id = request.index + 1
            root = tracer.new_id()
            tracer.add("client.request", sent, recv, span_id=root,
                       kind=request.kind, net=request.net)
            tracer.add("service.request",
                       max(sent, recv - int(server_ms * 1e6)), recv,
                       parent=root)
            trace_ns += now_ns() - begin
    else:
        raise RuntimeError("request schedule ran out before the window "
                           "closed")
    return records, (now_ns() - started) / 1e9, trace_ns / 1e9


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------
def setup_probe(seed: int, scale: str) -> None:
    raise SystemExit(f"{NAME} times its set-up in-process")


def _schedule_blocks(seconds: float, scale: str) -> int:
    """Blocks enough for ``seconds`` at well over the measured pace
    (a block takes about 5 s at full scale on a 2-core x86 box)."""
    per_block_s = 0.5 if scale == "full" else 0.05
    return max(2, int(seconds / per_block_s) + 2)


async def _run_async(repro, seed, seconds, trace, scale, plant_wrong):
    result = WorkloadResult()
    requests = make_inputs(seed, _schedule_blocks(seconds, scale))
    nets = _nets(repro, scale)
    encoder = Encoder(nets)
    workers = usable_cpus()
    log_path = OUT_DIR / f"{NAME}-seed{seed}-server.log"
    if log_path.exists():
        log_path.unlink()

    # client-side data and references, outside every timed region
    variant_text = {
        r.index: repro.write_netlist(_package(repro, scale, r.factors))
        for r in requests if r.kind == "reduce"
    }
    refs = References(repro, nets)
    expected = {"order": nets["pkg"].order,
                "ports": int(refs.systems["pkg"].num_ports),
                "size": int(refs.systems["pkg"].size)}

    tracer = Tracer(trace, process_name=f"{NAME} seed={seed}")
    setup_samples = []
    server = None
    try:
        for attempt in range(SETUP_REPEATS):
            server, elapsed = await _start_and_warm(encoder, workers,
                                                    log_path)
            setup_samples.append(elapsed)
            if attempt + 1 < SETUP_REPEATS:
                await server.stop()
                server = None
        before = await server.stats()
        records, window_s, trace_s = await _drive(
            server, requests, encoder, variant_text, seconds, tracer)
        after = await server.stats()
        rss_mb = peak_rss_mb(server.proc.pid)
    finally:
        if server is not None:
            await server.stop()

    delta = stats_delta(before, after)
    tiers: dict = {}
    failures: dict = {}
    by_kind: dict = {"sweep": [], "reduce": []}
    good = 0
    for record in records:
        request = record["request"]
        ok, reason, response = _check(record, refs, expected, plant_wrong)
        record["ok"] = ok
        if response.get("ok"):
            tier = response["result"].get("tier", "reduce")
            key = f"{request.kind}:{tier}"
            tiers[key] = tiers.get(key, 0) + 1
        if not ok:
            failures[reason] = failures.get(reason, 0) + 1
        record["latency"] = (record["recv"] - record["sent"]) / 1e9
        by_kind[request.kind].append(record)
        if ok and record["latency"] <= LIMITS_S[request.kind]:
            good += 1
    result.attempted = len(records)
    result.failed = sum(1 for r in records if not r["ok"])
    result.check("responses_correct", not failures, failures or None)
    result.check("misses_reduced_hits_cached",
                 delta["reductions"] == len(by_kind["reduce"]),
                 f"{delta['reductions']} reductions for "
                 f"{len(by_kind['reduce'])} reduce requests")

    all_lat = [r["latency"] for r in records]
    sweep_lat = [r["latency"] for r in by_kind["sweep"]]
    reduce_lat = [r["latency"] for r in by_kind["reduce"]]
    lat_tail, lat_pct, lat_n = tail(all_lat)
    sw_tail, sw_pct, sw_n = tail(sweep_lat)
    result.end_to_end = {
        "setup_s": median(setup_samples),
        "latency_p50_ms": 1e3 * median(all_lat),
        "latency_tail_ms": 1e3 * lat_tail,
        "throughput_ops_s": len(records) / window_s,
        "goodput_rps": good / window_s,
        "sweep_hit_p50_ms": 1e3 * median(sweep_lat),
        "sweep_hit_tail_ms": 1e3 * sw_tail,
        "reduce_miss_p50_ms": 1e3 * median(reduce_lat),
        "peak_rss_mb": rss_mb,
    }
    groups: dict = {}
    for r in by_kind["sweep"]:
        mode = "values" if r["request"].return_values else "max_abs"
        groups.setdefault(f"{r['request'].net}:{mode}", []).append(
            1e3 * r["latency"])
    result.notes = {
        "requests": {k: len(v) for k, v in by_kind.items()},
        "tiers": tiers,
        "setup_samples_s": setup_samples,
        "latency_tail": f"p{lat_pct:.1f} of {len(all_lat)}, {lat_n} beyond",
        "sweep_hit_tail": f"p{sw_pct:.1f} of {len(sweep_lat)}, "
                          f"{sw_n} beyond",
        "goodput_limits_s": LIMITS_S,
        "sweep_p50_ms_by_group": {k: round(median(v), 2)
                                  for k, v in sorted(groups.items())},
        "window_s": window_s,
        "server_log": str(log_path.relative_to(ROOT)),
    }
    result.environment = {
        "pool_transport": after["engine"]["pool"].get("transport"),
        "server_workers": workers,
    }
    if trace:
        path = OUT_DIR / f"{NAME}-seed{seed}.trace.json"
        tracer.op_id = None
        tracer.counter("service.stats_delta", delta)
        tracer.counter("trace", {
            "overhead_ratio": window_s / (window_s - trace_s)})
        tracer.write(path, {"workload": NAME, "seed": seed})
        result.per_layer = derive_layers(path)
        result.notes["trace_file"] = str(path.relative_to(ROOT))
    return result


#: this workload's per-layer metrics; the rest of the table is not on
#: its path
LAYER_METRICS = (
    "service.admission_wait_ms", "service.batch_wait_ms",
    "service.batch_occupancy", "service.sweep_ms", "service.wire_ms",
    "service.parse_ms", "service.reduce_ms", "engine.cache_hit_ratio",
    "engine.cache_writes", "service.degradations", "service.shed",
    "service.deadline_exceeded", "service.retries", "trace.overhead_ratio",
)


def derive_layers(path) -> dict:
    """Service per-layer metrics from a trace file.

    ``service.wire_ms`` is the mean self time of the client span of a
    sweep (its wall minus the server's own time: pipe plus JSON);
    everything else comes from the server's ``stats`` deltas over the
    window, recorded as a counter in the same file.
    """
    spans, counters, _ = load_trace(path)
    selfs = self_times(spans)
    counter = {c["name"]: c["args"] for c in counters}
    delta = counter["service.stats_delta"]

    def per(total, count):
        return total / count if count else 0.0

    wire = [selfs[s["args"]["id"]] / 1e3 for s in spans
            if s["name"] == "client.request" and s["args"]["kind"] == "sweep"]
    inside = (delta["parse_sum_ms"] + delta["reduce_sum_ms"]
              + delta["sweep_sum_ms"])
    lookups = delta["cache_hits"] + delta["cache_misses"]
    return {
        "service.admission_wait_ms": max(
            0.0, per(delta["total_sum_ms"] - inside, delta["total_count"])),
        "service.batch_wait_ms": per(delta["queue_sum_ms"],
                                     delta["queue_count"]),
        "service.batch_occupancy": per(delta["batched_requests"],
                                       delta["batches"]),
        "service.sweep_ms": per(delta["sweep_sum_ms"], delta["sweep_count"]),
        "service.wire_ms": float(np.mean(wire)) if wire else 0.0,
        "service.parse_ms": per(delta["parse_sum_ms"], delta["parse_count"]),
        "service.reduce_ms": per(delta["reduce_sum_ms"],
                                 delta["reductions"]),
        "engine.cache_hit_ratio": per(delta["cache_hits"], lookups),
        "engine.cache_writes": delta["cache_puts"],
        "service.degradations": delta["degradations"],
        "service.shed": delta["shed"],
        "service.deadline_exceeded": delta["deadline_exceeded"],
        "service.retries": delta["retries"],
        "trace.overhead_ratio": counter["trace"]["overhead_ratio"],
    }


def run(repro, *, seed: int, seconds: float, trace: bool, scale: str,
        plant_wrong: bool) -> WorkloadResult:
    return asyncio.run(
        _run_async(repro, seed, seconds, trace, scale, plant_wrong)
    )
