"""``repro serve`` reaches the process pool and exits cleanly.

The stdio front reads requests on a thread that holds the ``sys.stdin``
buffer lock.  Pool workers must therefore never be plain forks of the
server: a forked worker's bootstrap closes stdin and blocks on that
inherited lock forever -- exact sweeps hit their deadline, the server
hangs on EOF, and the workers outlive it.  This test drives a real
server subprocess: one exact sweep large enough for two pool workers
must come back from the ``pool`` tier, and EOF must end the server
with exit code 0 and no child process left behind.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
import threading
import time

import pytest

import repro

REPO = pathlib.Path(__file__).resolve().parents[2]

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux")
    or len(os.sched_getaffinity(0)) < 2,
    reason="needs /proc and two CPUs for a two-worker pool",
)


def _descendants(root: int) -> list[int]:
    """Every process below ``root`` in the process tree (from /proc)."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        children.setdefault(int(fields[1]), []).append(int(entry))
    found, stack = [], [root]
    while stack:
        for child in children.get(stack.pop(), []):
            found.append(child)
            stack.append(child)
    return found


def _alive(pid: int) -> bool:
    """Running (not gone, not a zombie awaiting its reaper)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state != "Z"


def test_exact_sweep_served_by_the_pool_then_clean_exit():
    netlist = repro.write_netlist(repro.rc_ladder(40, port_at_far_end=True))
    request = {
        "id": "exact", "op": "sweep", "deadline_ms": 20000,
        "params": {
            "netlist": netlist, "order": 4, "band": [1e6, 1e10],
            "points": 64, "exact": True,
        },
    }
    with subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--workers", "2"],
        cwd=REPO,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
    ) as process:
        _exchange(process, request)


def _exchange(process, request) -> None:
    lines: list[str] = []
    reader = threading.Thread(
        target=lambda: lines.extend(process.stdout), daemon=True
    )
    workers: list[int] = []
    try:
        reader.start()
        process.stdin.write(json.dumps(request) + "\n")
        process.stdin.flush()
        waited = time.monotonic() + 40.0
        while not lines and time.monotonic() < waited:
            time.sleep(0.05)
        workers = _descendants(process.pid)
        assert lines, "no response to the exact sweep"
        response = json.loads(lines[0])
        assert response["ok"], response
        assert response["result"]["tier"] == "pool"
        assert workers, "the pool tier ran without worker processes"

        process.stdin.close()  # EOF: drain and exit
        assert process.wait(timeout=30) == 0
        gone_by = time.monotonic() + 10.0
        while any(map(_alive, workers)) and time.monotonic() < gone_by:
            time.sleep(0.05)
        assert not [pid for pid in workers if _alive(pid)]
        stderr = process.stderr.read()
        assert "Traceback" not in stderr, stderr
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
        reader.join(timeout=10)
        for pid in workers:
            if _alive(pid):
                os.kill(pid, 9)
