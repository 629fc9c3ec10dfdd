"""The repository benchmark: one command, seeded workloads, end-to-end
and per-layer metrics for the SyMPVL reduction pipeline and its service.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload reduce-grid --seed 1 --seconds 40 \
        --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 1

Workloads (see each module's docstring for the full definition):

* ``reduce-grid``   -- :mod:`reduce_grid`, closed loop, one client, the
  in-process pipeline on a 10^5-node RC grid;
* ``serve-closed``  -- :mod:`serve_closed`, closed loop, one request
  outstanding against ``python -m repro serve`` over its JSONL pipe.

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that records spans around
each layer call, writes them to ``perfbench/out/*.trace.json``
(Chrome trace-event format) and derives the per-layer metrics from
that file.  The last line of standard output is the JSON result
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
are the human-readable report and the run environment.  A run that
cannot find the program (``src/repro`` of this checkout) exits with
status 1 without a result.

``--scale tiny`` and ``--plant-wrong`` exist for the self-test in
``perfbench/tests``; ``--setup-probe`` is the child mode that times one
set-up in a fresh interpreter.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import subprocess
import sys

from common import (
    BENCH_DIR, END_TO_END, OUT_DIR, PER_LAYER, ROOT, SRC, run_environment,
    write_json,
)

WORKLOADS = ("reduce-grid", "serve-closed")


def _import_program():
    """Import ``repro`` from this checkout's ``src`` -- and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: program not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    origin = os.path.realpath(repro.__file__)
    if not origin.startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(
            f"perfbench: imported repro from {origin}, not from {SRC}"
        )
    return repro


def _module(workload: str):
    """The workload's module: ``reduce-grid`` -> ``reduce_grid``."""
    return importlib.import_module(workload.replace("-", "_"))


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _report(workload, args, result, metrics, off_path) -> None:
    print(f"== {workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} scale={args.scale}")
    print(f"   operations: attempted {result.attempted}, "
          f"failed {result.failed}")
    for name, check in result.checks.items():
        status = "PASS" if check["ok"] else "FAIL"
        detail = f" ({check['detail']})" if check["detail"] else ""
        print(f"   check {name}: {status}{detail}")
    for name, entry in metrics.items():
        print(f"   {name:28s} {_fmt(entry['value']):>14s} {entry['unit']}")
    for name, note in result.notes.items():
        print(f"   note {name}: {note}")
    if off_path:
        print("   not on this workload's path (reported as 0): "
              + ", ".join(off_path))


def run_one(args) -> int:
    repro = _import_program()
    module = _module(args.workload)
    if args.setup_probe:
        module.setup_probe(args.seed, args.scale)
        print("ready", flush=True)
        return 0
    result = module.run(
        repro, seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
        scale=args.scale, plant_wrong=args.plant_wrong,
    )
    off_path = []
    if args.trace:
        values = {}
        for name in PER_LAYER:
            if name not in module.LAYER_METRICS:
                values[name] = 0.0
                off_path.append(name)
            elif name in result.per_layer:
                values[name] = result.per_layer[name]
            else:
                raise RuntimeError(f"per-layer metric {name} not measured")
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
    else:
        values = {n: result.end_to_end[n] for n in END_TO_END
                  if n in result.end_to_end}
        units = {name: unit for name, (unit, _) in END_TO_END.items()}
    metrics = {
        name: {"value": float(value), "unit": units[name]}
        for name, value in values.items()
    }
    environment = run_environment(**result.environment)
    _report(args.workload, args, result, metrics, off_path)
    print("   environment: " + json.dumps(environment, default=str))
    write_json(
        OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
        {"workload": args.workload, "seed": args.seed,
         "seconds": args.seconds, "trace": args.trace, "scale": args.scale,
         "attempted": result.attempted, "failed": result.failed,
         "checks": result.checks, "metrics": metrics, "notes": result.notes,
         "environment": environment},
    )
    print(json.dumps({
        "correct": result.correct,
        "attempted": int(result.attempted),
        "failed": int(result.failed),
        "metrics": metrics,
    }), flush=True)
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in its own interpreter."""
    _import_program()
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [
            sys.executable, str(BENCH_DIR / "run.py"),
            "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--scale", args.scale,
        ]
        if args.plant_wrong:
            cmd.append("--plant-wrong")
        proc = subprocess.run(cmd, cwd=str(ROOT), capture_output=True,
                              text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"perfbench: {workload} exited "
                             f"{proc.returncode}")
        last = json.loads(lines[-1])
        summary["correct"] &= last["correct"]
        summary["attempted"] += last["attempted"]
        summary["failed"] += last["failed"]
        for name, entry in last["metrics"].items():
            summary["metrics"][f"{workload}/{name}"] = entry
    print(json.dumps(summary), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0]
    )
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help=argparse.SUPPRESS)
    parser.add_argument("--plant-wrong", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
