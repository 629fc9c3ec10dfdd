#!/usr/bin/env python
"""Concurrency smoke test for ``repro serve`` over stdio-JSONL.

Spawns the service as a subprocess with a two-worker sweep pool and
service faults armed (``service.slow@reduce:3, service.drop@sweep:2``),
fires ~50 mixed requests at it concurrently (reductions, reduced and
exact sweeps, stats probes, malformed requests, and one exact sweep
large enough for the pool), and asserts:

* every request id gets exactly one response (zero hung requests);
* every response is either ``ok`` or carries a documented error code;
* the large exact sweep is answered ``ok`` by the ``pool`` tier;
* dedup / retry / tier counters in the final ``stats`` are coherent;
* the process drains and exits cleanly within the timeout after a
  ``shutdown`` request.

Exit code 0 on success; non-zero with a diagnostic on any violation.
Used by the ``service-smoke`` CI job::

    python scripts/service_smoke.py [--requests 50] [--timeout 120]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys
import threading
import time

REPO = pathlib.Path(__file__).resolve().parent.parent

NETLIST_A = """* rc ladder A
R1 1 2 1.0
C1 2 0 1e-9
R2 2 3 2.0
C2 3 0 2e-9
.port P1 1 0
.port P2 3 0
"""

NETLIST_B = """* rc ladder B
R1 1 2 5.0
C1 2 0 4e-10
R2 2 3 3.0
C2 3 0 1e-9
R3 3 4 2.0
C3 4 0 2e-9
.port P1 1 0
.port P2 4 0
"""

ERROR_CODES = {
    "bad_request", "overloaded", "deadline_exceeded", "reduction_failed",
    "simulation_failed", "shutting_down", "internal",
}


def build_requests(n: int) -> list[dict]:
    """A deterministic mixed workload of ``n`` requests."""
    requests: list[dict] = []
    for k in range(n):
        kind = k % 5
        netlist = NETLIST_A if k % 2 == 0 else NETLIST_B
        if kind == 0:
            requests.append({
                "id": f"red-{k}", "op": "reduce",
                "params": {"netlist": netlist, "order": 3 + (k % 2)},
            })
        elif kind == 1:
            requests.append({
                "id": f"swp-{k}", "op": "sweep",
                "params": {"netlist": netlist, "order": 3,
                           "band": [1e6, 1e9], "points": 12},
            })
        elif kind == 2:
            requests.append({
                "id": f"ext-{k}", "op": "sweep",
                "params": {"netlist": netlist, "order": 3,
                           "band": [1e6, 1e9], "points": 8, "exact": True},
            })
        elif kind == 3:
            requests.append({"id": f"sts-{k}", "op": "stats"})
        else:  # deliberately malformed: must answer, not hang
            requests.append({
                "id": f"bad-{k}", "op": "sweep",
                "params": {"netlist": netlist, "order": 3},
            })
    return requests


#: an exact sweep the pool tier actually runs: two workers at
#: MIN_POINTS_PER_WORKER = 16 points each need >= 32 points
POOL_REQUEST = {
    "id": "pool-exact", "op": "sweep", "deadline_ms": 20000,
    "params": {"netlist": NETLIST_B, "order": 3, "band": [1e6, 1e9],
               "points": 64, "exact": True},
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--requests", type=int, default=50)
    parser.add_argument("--timeout", type=float, default=120.0)
    args = parser.parse_args()

    requests = build_requests(args.requests)
    expected_ids = {r["id"] for r in requests} | {
        POOL_REQUEST["id"], "final-stats", "bye",
    }

    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--workers", "2",
         "--max-concurrency", "4", "--max-pending", "256",
         "--inject-fault", "service.slow@reduce:3, service.drop@sweep:2"],
        cwd=REPO,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env={**__import__("os").environ,
             "PYTHONPATH": str(REPO / "src")},
    )

    responses: dict[str, dict] = {}
    reader_errors: list[str] = []

    def read_responses():
        for line in process.stdout:
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError:
                reader_errors.append(f"non-JSON line: {line[:120]!r}")
                continue
            responses[str(payload.get("id"))] = payload

    reader = threading.Thread(target=read_responses, daemon=True)
    reader.start()

    started = time.monotonic()
    # the pool request goes first, alone, while stdin stays open: the
    # server's stdin reader thread is blocked in readline when the pool
    # starts its workers (a plain fork of the server would inherit that
    # held lock and hang)
    process.stdin.write(json.dumps(POOL_REQUEST) + "\n")
    process.stdin.flush()
    while (
        POOL_REQUEST["id"] not in responses
        and process.poll() is None
        and time.monotonic() - started < args.timeout
    ):
        time.sleep(0.05)
    for request in requests:
        process.stdin.write(json.dumps(request) + "\n")
    process.stdin.write(json.dumps({"id": "final-stats", "op": "stats"}) + "\n")
    process.stdin.write(json.dumps({"id": "bye", "op": "shutdown"}) + "\n")
    process.stdin.flush()
    process.stdin.close()  # EOF lets the serve loop drain and exit

    try:
        process.wait(timeout=args.timeout)
    except subprocess.TimeoutExpired:
        process.kill()
        print("FAIL: service did not shut down within "
              f"{args.timeout}s", file=sys.stderr)
        return 1
    reader.join(timeout=10)
    elapsed = time.monotonic() - started

    failures: list[str] = []
    if process.returncode != 0:
        failures.append(
            f"service exited with {process.returncode}; "
            f"stderr:\n{process.stderr.read()}"
        )
    missing = expected_ids - set(responses)
    if missing:
        failures.append(f"hung/unanswered requests: {sorted(missing)}")
    for rid, resp in responses.items():
        if resp.get("ok"):
            continue
        code = resp.get("error", {}).get("code")
        if code not in ERROR_CODES:
            failures.append(f"{rid}: undocumented error code {code!r}")
        if not (rid.startswith("bad-") or code in (
            "overloaded", "deadline_exceeded", "internal",
            "shutting_down",
        )):
            failures.append(f"{rid}: unexpected failure {resp['error']}")
    bad_answers = [
        rid for rid in responses
        if rid.startswith("bad-") and responses[rid].get("ok")
    ]
    if bad_answers:
        failures.append(f"malformed requests accepted: {bad_answers}")
    pool = responses.get(POOL_REQUEST["id"], {})
    if not pool.get("ok") or pool["result"].get("tier") != "pool":
        failures.append(f"large exact sweep not served by the pool: {pool}")
    failures.extend(reader_errors)

    stats = responses.get("final-stats", {}).get("result", {})
    service = stats.get("service", {})
    if service:
        if service.get("requests", 0) < args.requests:
            failures.append(
                f"stats saw only {service.get('requests')} requests"
            )
        flight = service.get("singleflight", {})
        print(
            f"requests={service.get('requests')} ok={service.get('ok')} "
            f"errors={service.get('errors')} retries={service.get('retries')} "
            f"dedup_hits={flight.get('hits')} tiers={service.get('tiers')} "
            f"breaker={service.get('breaker', {}).get('state')}"
        )
    else:
        failures.append("final stats response missing")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(
        f"OK: {len(responses)} responses for {len(expected_ids)} requests "
        f"in {elapsed:.1f}s, clean shutdown (exit 0)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
