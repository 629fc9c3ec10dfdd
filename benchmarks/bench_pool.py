"""POOL -- persistent sweep pool and cross-request micro-batching.

Measures, on a MORCIC-scale RC power-grid
(:func:`repro.large_rc_grid`; ~10^5 unknowns in the full run):

* **warm vs cold**: repeated exact sweeps through the persistent pool
  of :mod:`repro.engine.pool` (workers stay up, CSC operands ride
  shared memory once per model, LU factors cached per worker) against
  the per-call ``ProcessPoolExecutor`` baseline that pays pool
  bring-up and full system pickling on every call
  (threshold: warm >= 3x the per-call baseline);
* **batched vs sequential**: N concurrent service sweep requests
  sharing one compiled model merged into a single broadcast evaluation
  by the :class:`repro.service.batching.SweepBatcher` window, against
  the same N requests dispatched one at a time with batching disabled
  (threshold: batched dispatch strictly faster, occupancy > 1);
* **bitwise identity**: the serial reference, cold pool, warm pool,
  shm-disabled (pickle transport), and per-call pool paths must return
  bit-for-bit identical kernels, and batched service responses must
  equal unbatched ones exactly.

Writes ``benchmarks/BENCH_POOL.json`` (the CI artifact) plus the
human-readable report, and exits nonzero when a gate fails -- this is
the ``pool-smoke`` gate of ``.github/workflows/ci.yml`` (which runs
``--quick``: a smaller grid, same checks).

Usage::

    python benchmarks/bench_pool.py [--quick] [--json PATH]
"""

from __future__ import annotations

import asyncio
import pathlib
import sys
import time

import numpy as np

import repro
from repro.engine import pool as engine_pool
from repro.simulation.ac import ac_kernel

from _util import finish, standard_main

WARM_SPEEDUP_THRESHOLD = 3.0
JSON_PATH = pathlib.Path(__file__).parent / "BENCH_POOL.json"

#: explicit pool width -- the benchmark measures transport + warm-state
#: cost, not CPU scaling, so it does not defer to the affinity clamp
WORKERS = 2

#: (rows, cols, sigma points, warm repeats)
FULL_SCALE = (317, 316, 4, 3)     # ~1e5 unknowns
QUICK_SCALE = (100, 100, 6, 3)    # ~1e4 unknowns (CI smoke)

#: batching leg: concurrent requests sharing one compiled model; the
#: modest grid keeps per-request dispatch overhead (the cost batching
#: amortizes) visible next to the broadcast evaluation itself
BATCH_REQUESTS = 8
BATCH_POINTS = 500

NETLIST = """* rc ladder (pool benchmark)
R1 1 2 1.0
C1 2 0 1e-9
R2 2 3 2.0
C2 3 0 2e-9
R3 3 4 3.0
C3 4 0 1e-9
.port P1 1 0
.port P2 4 0
"""


def _ac_chunk(payload):
    """Per-call worker body: the serial exact kernel over one chunk."""
    system, sigma_chunk = payload
    return ac_kernel(system, sigma_chunk)


def per_call_pool_kernel(system, chunks, n_workers: int) -> list:
    """The cold baseline: a fresh ``ProcessPoolExecutor`` per call that
    pickles the whole system to every worker (what every exact sweep
    paid before the persistent pool)."""
    import concurrent.futures as futures

    with futures.ProcessPoolExecutor(max_workers=n_workers) as pool:
        return list(
            pool.map(_ac_chunk, [(system, chunk) for chunk in chunks])
        )


def sweep_band(system, points: int) -> np.ndarray:
    """Real sigma grid spread over the grid's dominant time constants."""
    tau = 1.0e3 * 0.2e-12
    w_hi = 200.0 / (tau * system.size)
    return np.logspace(
        np.log10(w_hi) - 3.0, np.log10(w_hi), points
    ).astype(complex)


def measure_pool(rows: int, cols: int, points: int, repeats: int) -> dict:
    system = repro.large_rc_grid(rows, cols)
    sigma = sweep_band(system, points)
    chunks = np.array_split(sigma, WORKERS)

    serial = ac_kernel(system, sigma)

    # per-call baseline: a fresh ProcessPoolExecutor + full system
    # pickle every call (what every sweep paid before the pool)
    percall_times = []
    percall = None
    for _ in range(2):
        start = time.perf_counter()
        parts = per_call_pool_kernel(system, chunks, WORKERS)
        percall_times.append(time.perf_counter() - start)
        percall = np.concatenate(parts, axis=0)
    percall_s = min(percall_times)

    # persistent pool: cold first call (spawn + publish + factor), then
    # warm repeats (operands + LU factors already cached in workers)
    engine_pool.shutdown_pool()
    engine_pool.configure(use_shm=True, idle_timeout=600.0)
    pool = engine_pool.get_pool()
    start = time.perf_counter()
    cold = pool.eval(system, sigma, workers=WORKERS)
    cold_s = time.perf_counter() - start

    warm_times = []
    warm = None
    for _ in range(repeats):
        start = time.perf_counter()
        warm = pool.eval(system, sigma, workers=WORKERS)
        warm_times.append(time.perf_counter() - start)
    warm_s = min(warm_times)
    pool_state = pool.describe()

    # shm disabled: same pool machinery over the pickle transport
    engine_pool.configure(use_shm=False)
    noshm = engine_pool.get_pool().eval(system, sigma, workers=WORKERS)
    engine_pool.shutdown_pool()

    identity = {
        "serial_vs_percall": bool(np.array_equal(serial, percall)),
        "serial_vs_cold_pool": bool(np.array_equal(serial, cold)),
        "serial_vs_warm_pool": bool(np.array_equal(serial, warm)),
        "serial_vs_shm_off": bool(np.array_equal(serial, noshm)),
    }
    return {
        "nodes": system.size,
        "grid": [rows, cols],
        "nnz_g": int(system.G.nnz),
        "points": points,
        "workers": WORKERS,
        "percall_s": percall_s,
        "cold_pool_s": cold_s,
        "warm_pool_s": warm_s,
        "warm_speedup_vs_percall": percall_s / warm_s,
        "shm_published_bytes": pool_state["published_bytes"],
        "transport": pool_state["transport"],
        "identity": identity,
    }


async def _run_service_leg() -> dict:
    from repro.service import MacromodelService, ServiceConfig

    def request(i: int, *, tag: str, points: int, values: bool) -> dict:
        # distinct grids (same model) so single-flight cannot dedup them
        return {
            "id": f"{tag}-{i}",
            "op": "sweep",
            "params": {
                "netlist": NETLIST,
                "order": 6,
                "band": [1e3 * (1 + i), 1e9],
                "points": points,
                "return_values": values,
            },
        }

    async def warm_model(svc):
        first = await svc.handle(
            request(0, tag="warmup", points=10, values=False)
        )
        assert first["ok"], first

    seq = MacromodelService(ServiceConfig(batch_window_ms=0.0))
    bat = MacromodelService(ServiceConfig(
        batch_window_ms=25.0,
        batch_max_size=BATCH_REQUESTS,
        max_concurrency=BATCH_REQUESTS,
    ))
    await warm_model(seq)
    await warm_model(bat)

    # timing leg (no value payloads, so per-request JSON serialization
    # does not drown the dispatch cost batching amortizes):
    # sequential dispatch with batching off = N engine sweeps back to
    # back; concurrent dispatch with batching on = one broadcast eval
    start = time.perf_counter()
    for i in range(BATCH_REQUESTS):
        response = await seq.handle(
            request(i, tag="seq", points=BATCH_POINTS, values=False)
        )
        assert response["ok"], response
    sequential_s = time.perf_counter() - start

    start = time.perf_counter()
    bat_responses = await asyncio.gather(*[
        bat.handle(request(i, tag="bat", points=BATCH_POINTS, values=False))
        for i in range(BATCH_REQUESTS)
    ])
    batched_s = time.perf_counter() - start
    for response in bat_responses:
        assert response["ok"], response
    stats = bat.stats()["service"]["batching"]

    # identity leg: full values on a smaller grid, compared exactly
    identical = True
    seq_values = [
        await seq.handle(request(i, tag="seqv", points=200, values=True))
        for i in range(BATCH_REQUESTS)
    ]
    bat_values = await asyncio.gather(*[
        bat.handle(request(i, tag="batv", points=200, values=True))
        for i in range(BATCH_REQUESTS)
    ])
    for left, right in zip(seq_values, bat_values):
        assert left["ok"] and right["ok"], (left, right)
        if (
            left["result"]["z_real"] != right["result"]["z_real"]
            or left["result"]["z_imag"] != right["result"]["z_imag"]
        ):
            identical = False
    await seq.drain()
    await bat.drain()

    max_occupancy = max(
        (int(k) for k in stats["occupancy"]), default=0
    )
    return {
        "requests": BATCH_REQUESTS,
        "points_per_request": BATCH_POINTS,
        "sequential_s": sequential_s,
        "batched_s": batched_s,
        "speedup": sequential_s / batched_s,
        "batches": stats["batches"],
        "batched_requests": stats["batched_requests"],
        "max_occupancy": max_occupancy,
        "identical_to_sequential": identical,
    }


def run(quick: bool, json_path: pathlib.Path) -> int:
    rows, cols, points, repeats = QUICK_SCALE if quick else FULL_SCALE
    pool_stats = measure_pool(rows, cols, points, repeats)
    batch_stats = asyncio.run(_run_service_leg())

    checks = {
        "warm_pool_speedup_ge_3x": (
            pool_stats["warm_speedup_vs_percall"] >= WARM_SPEEDUP_THRESHOLD
        ),
        "batched_beats_sequential": (
            batch_stats["batched_s"] < batch_stats["sequential_s"]
        ),
        "batch_occupancy_gt_1": batch_stats["max_occupancy"] > 1,
        "bitwise_identical_all_paths": (
            all(pool_stats["identity"].values())
            and batch_stats["identical_to_sequential"]
        ),
    }
    payload = {
        "experiment": "POOL",
        "quick": quick,
        "thresholds": {"warm_speedup": WARM_SPEEDUP_THRESHOLD},
        "pool": pool_stats,
        "batching": batch_stats,
        "checks": checks,
        "pass": all(checks.values()),
    }
    lines = [
        "POOL: persistent sweep pool + service micro-batching"
        + (" [quick]" if quick else ""),
        f"  grid: {pool_stats['nodes']} nodes "
        f"(nnz(G) = {pool_stats['nnz_g']}), {pool_stats['points']} points, "
        f"{pool_stats['workers']} workers, "
        f"transport {pool_stats['transport']} "
        f"({pool_stats['shm_published_bytes'] / 1e6:.1f} MB published)",
        f"  per-call pool: {pool_stats['percall_s']:.3f} s/sweep "
        "(spawn + pickle every call)",
        f"  persistent:    cold {pool_stats['cold_pool_s']:.3f} s, "
        f"warm {pool_stats['warm_pool_s']:.3f} s",
        f"  warm speedup vs per-call: "
        f"{pool_stats['warm_speedup_vs_percall']:.1f}x "
        f"(threshold {WARM_SPEEDUP_THRESHOLD:.0f}x)",
        f"  batching: {batch_stats['requests']} requests x "
        f"{batch_stats['points_per_request']} points -> "
        f"{batch_stats['batches']} batch(es), "
        f"max occupancy {batch_stats['max_occupancy']}",
        f"  sequential {batch_stats['sequential_s'] * 1e3:.1f} ms, "
        f"batched {batch_stats['batched_s'] * 1e3:.1f} ms "
        f"({batch_stats['speedup']:.1f}x)",
        f"  identity: {pool_stats['identity']} + batched==sequential: "
        f"{batch_stats['identical_to_sequential']}",
    ]
    return finish("POOL", lines, payload, json_path)


main = standard_main(
    run, default_json=JSON_PATH, description=__doc__.split("\n")[0]
)


if __name__ == "__main__":
    sys.exit(main())
