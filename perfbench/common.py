"""Shared pieces of the benchmark: metric table, statistics, process
memory, the run environment, set-up probes and the result record.

Everything here is benchmark-side; the program under test is the
``repro`` package under ``src/`` of the same checkout.
"""

from __future__ import annotations

import json
import os
import pathlib
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

#: end-to-end metrics (measured with tracing off): name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "latency_p50_ms": ("ms", "lower"),
    "latency_tail_ms": ("ms", "lower"),
    "throughput_ops_s": ("1/s", "higher"),
    "goodput_rps": ("1/s", "higher"),
    "sweep_hit_p50_ms": ("ms", "lower"),
    "sweep_hit_tail_ms": ("ms", "lower"),
    "reduce_miss_p50_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

#: per-layer metrics (traced run): name -> (unit, better).  Each
#: workload module names the ones on its path in ``LAYER_METRICS`` and
#: reports 0 for the rest.
PER_LAYER = {
    # reduce-grid: linalg / core / engine / synthesis / simulation
    "linalg.factor_s": ("s", "lower"),
    "linalg.factor_calls": ("count", "lower"),
    "linalg.apply_s": ("s", "lower"),
    "linalg.apply_calls": ("count", "lower"),
    "linalg.apply_columns": ("count", "lower"),
    "core.sympvl_self_s": ("s", "lower"),
    "core.lanczos_self_s": ("s", "lower"),
    "core.model_build_s": ("s", "lower"),
    "core.certify_s": ("s", "lower"),
    "engine.compile_s": ("s", "lower"),
    "engine.compiled_sweep_s": ("s", "lower"),
    "synthesis.synthesize_s": ("s", "lower"),
    "simulation.ac_sweep_s": ("s", "lower"),
    "simulation.ac_point_s": ("s", "lower"),
    "core.order": ("count", "higher"),
    "core.deflations": ("count", "lower"),
    "accuracy.max_rel_err": ("ratio", "lower"),
    # serve-closed: service / engine cache
    "service.admission_wait_ms": ("ms", "lower"),
    "service.batch_wait_ms": ("ms", "lower"),
    "service.batch_occupancy": ("count", "higher"),
    "service.sweep_ms": ("ms", "lower"),
    "service.wire_ms": ("ms", "lower"),
    "service.parse_ms": ("ms", "lower"),
    "service.reduce_ms": ("ms", "lower"),
    "engine.cache_hit_ratio": ("ratio", "higher"),
    "engine.cache_writes": ("count", "lower"),
    "service.degradations": ("count", "lower"),
    "service.shed": ("count", "lower"),
    "service.deadline_exceeded": ("count", "lower"),
    "service.retries": ("count", "lower"),
    # every workload
    "trace.overhead_ratio": ("ratio", "lower"),
}

#: how many set-ups one run times; ``setup_s`` is their median
SETUP_REPEATS = 5


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------
def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def tail(values, beyond: int = 10) -> tuple[float, float, int]:
    """The highest percentile with at least ``beyond`` samples above it.

    Returns ``(value, percentile, samples_beyond)``.  With ``beyond``
    samples or fewer there is no such percentile; the maximum is
    reported as p100 with zero samples beyond it.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, 100.0, 0
    if n <= beyond:
        return float(ordered[-1]), 100.0, 0
    index = n - beyond - 1
    return float(ordered[index]), 100.0 * (index + 1) / n, n - index - 1


# ---------------------------------------------------------------------------
# process memory
# ---------------------------------------------------------------------------
def _status_kb(pid: int | str, field_name: str) -> float:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith(field_name + ":"):
                    return float(line.split()[1])
    except OSError:
        pass
    return 0.0


def peak_rss_mb(pid: int | str = "self") -> float:
    """High-water resident set size of ``pid`` (``VmHWM``), in MB."""
    kb = _status_kb(pid, "VmHWM")
    if kb == 0.0 and pid == "self":
        import resource

        kb = float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return kb / 1024.0


# ---------------------------------------------------------------------------
# run environment (recorded, never pinned)
# ---------------------------------------------------------------------------
_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def _blas_info() -> dict:
    import numpy as np

    info: dict = {}
    try:
        config = np.show_config(mode="dicts")
        blas = config.get("Build Dependencies", {}).get("blas", {})
        info = {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "config": blas.get("openblas configuration"),
        }
    except (TypeError, AttributeError, ValueError):
        info = {"name": "unknown"}
    return info


def run_environment(**extra) -> dict:
    import numpy as np
    import scipy

    getaffinity = getattr(os, "sched_getaffinity", None)
    affinity = sorted(getaffinity(0)) if getaffinity is not None else None
    return {
        "nproc": os.cpu_count(),
        "affinity": affinity,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_info(),
        "thread_env": {
            name: os.environ.get(name, "unset") for name in _THREAD_VARS
        },
        **extra,
    }


def usable_cpus() -> int:
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        return max(1, len(getaffinity(0)))
    return max(1, os.cpu_count() or 1)


# ---------------------------------------------------------------------------
# set-up probes: a fresh interpreter pays import + assembly + warm-up
# ---------------------------------------------------------------------------
def program_env() -> dict:
    """Environment for a child that runs the program from ``src/``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def probe_setup(workload: str, seed: int, scale: str) -> float:
    """Wall time of one set-up in a fresh interpreter.

    Runs ``run.py --setup-probe`` (import, input assembly, warm-up)
    and times it from spawn until the child reports ready.
    """
    cmd = [
        sys.executable, str(BENCH_DIR / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--scale", scale, "--setup-probe",
    ]
    started = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=str(ROOT), env=program_env(),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - started
        out, err = proc.communicate(timeout=60)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0 or not line.startswith("ready"):
        raise RuntimeError(
            f"set-up probe failed (exit {proc.returncode}): {err.strip()}"
        )
    return elapsed


def median_setup(workload: str, seed: int, scale: str) -> tuple[float, list]:
    samples = [
        probe_setup(workload, seed, scale) for _ in range(SETUP_REPEATS)
    ]
    return median(samples), samples


# ---------------------------------------------------------------------------
# result record
# ---------------------------------------------------------------------------
@dataclass
class WorkloadResult:
    """What one workload run hands back to ``run.py``."""

    attempted: int = 0
    failed: int = 0
    checks: dict = field(default_factory=dict)
    end_to_end: dict = field(default_factory=dict)
    per_layer: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)
    environment: dict = field(default_factory=dict)

    def check(self, name: str, ok: bool, detail=None) -> None:
        self.checks[name] = {"ok": bool(ok), "detail": detail}

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(c["ok"] for c in self.checks.values())


def write_json(path: pathlib.Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1, default=str)
