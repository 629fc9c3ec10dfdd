"""Self-test of the benchmark (not part of the program's test suite).

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q

Each workload runs at a tiny size through the real command line; the
same seed must generate identical inputs and another seed different
ones; a planted wrong answer must surface as failed operations; a
trace missing a layer span must fail the coverage check; and the
benchmark must refuse to produce a result outside a checkout.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import common  # noqa: E402
import reduce_grid  # noqa: E402
import run  # noqa: E402
import serve_closed  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LISTED = [w["name"] for w in SPEC["workloads"]]


def _run(*args, cwd=ROOT, timeout=170):
    cmd = [sys.executable, str(BENCH / "run.py"), *args]
    return subprocess.run(cmd, cwd=str(cwd), capture_output=True, text=True,
                          timeout=timeout)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    last = proc.stdout.strip().splitlines()[-1]
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def _tiny(workload, seed=1, trace=0, *extra):
    return _result(_run("--workload", workload, "--seed", str(seed),
                        "--seconds", "1", "--trace", str(trace),
                        "--scale", "tiny", *extra))


# ---------------------------------------------------------------------------
# the contract file and the metric tables agree
# ---------------------------------------------------------------------------
def test_benchmark_json_matches_metric_tables():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert LISTED == list(run.WORKLOADS)
    for entry in SPEC["end_to_end"]:
        unit, better = common.END_TO_END[entry["name"]]
        assert (entry["unit"], entry["better"]) == (unit, better)
        assert 0 < entry["bound"] <= 0.25
    assert {e["name"] for e in SPEC["end_to_end"]} == set(common.END_TO_END)
    assert [e["name"] for e in SPEC["per_layer"]] == list(common.PER_LAYER)
    for entry in SPEC["per_layer"]:
        unit, better = common.PER_LAYER[entry["name"]]
        assert (entry["unit"], entry["better"]) == (unit, better)
    on_some_path = set(reduce_grid.LAYER_METRICS) | set(
        serve_closed.LAYER_METRICS)
    assert on_some_path == set(common.PER_LAYER)


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("make", [
    lambda seed: reduce_grid.digest(reduce_grid.make_inputs(seed, "full")),
    lambda seed: serve_closed.digest(serve_closed.make_inputs(seed, 4)),
], ids=["reduce-grid", "serve-closed"])
def test_same_seed_same_inputs_other_seed_other_inputs(make):
    assert make(7) == make(7)
    assert make(7) != make(8)


# ---------------------------------------------------------------------------
# tiny end-to-end runs
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("workload", LISTED)
def test_tiny_run_is_correct_and_complete(workload):
    result = _tiny(workload)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(common.END_TO_END)
    for name, entry in result["metrics"].items():
        assert entry["unit"] == common.END_TO_END[name][0]
        assert entry["value"] > 0, name


@pytest.mark.parametrize("workload", LISTED)
def test_tiny_traced_run_reports_every_layer(workload):
    result = _tiny(workload, 1, 1)
    assert result["correct"] is True
    assert set(result["metrics"]) == set(common.PER_LAYER)
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0
    trace = BENCH / "out" / f"{workload}-seed1.trace.json"
    payload = json.loads(trace.read_text())
    assert any(e["ph"] == "X" for e in payload["traceEvents"])


@pytest.mark.parametrize("workload", LISTED)
def test_planted_wrong_answer_fails_operations(workload):
    result = _tiny(workload, 1, 0, "--plant-wrong")
    assert result["correct"] is False
    assert result["failed"] >= 1


def test_coverage_check_fails_when_a_layer_span_is_missing(tmp_path):
    """Dropping one layer's spans must break the self-time sum."""
    _tiny("reduce-grid", 2, 1)
    path = BENCH / "out" / "reduce-grid-seed2.trace.json"
    _, residuals, walls = reduce_grid.derive_layers(path)
    assert reduce_grid.coverage_ok(residuals, walls)
    payload = json.loads(path.read_text())
    payload["traceEvents"] = [e for e in payload["traceEvents"]
                              if e.get("name") != "engine.compile"]
    dropped = tmp_path / "dropped.trace.json"
    dropped.write_text(json.dumps(payload))
    _, residuals, walls = reduce_grid.derive_layers(dropped)
    assert not reduce_grid.coverage_ok(residuals, walls)


def test_refuses_to_run_outside_a_checkout():
    """A directory holding only BENCHMARK.json and perfbench/."""
    bare = BENCH / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", LISTED[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=str(bare), capture_output=True, text=True, timeout=170,
    )
    shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
