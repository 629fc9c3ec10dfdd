"""The acceptance scenario: injected pool crashes degrade, never corrupt.

A sticky ``pool.crash@chunk`` fault kills the process-pool tier of the
engine's exact sweep ladder (``pool -> serial``); concurrent
exact-sweep requests must still return answers that match the serial
solves to 1e-10, the circuit breaker must trip (and its state / shed /
retry counters surface in ``stats``), and clearing the fault must let
the breaker close and the pool tier resume.  Reduced sweeps fall
``compiled -> direct`` the same way.
"""

from __future__ import annotations

import asyncio
import dataclasses

import numpy as np
import pytest

from repro.circuits import assemble_mna, parse_netlist
from repro.robustness.faultinject import ServiceFaultPlan
from repro.service import MacromodelService, ServiceConfig
from repro.service.config import BreakerConfig, RetryConfig
from repro.simulation.ac import ac_sweep

NETLIST = """* two-port RC ladder
R1 1 2 1.0
C1 2 0 1e-9
R2 2 3 2.0
C2 3 0 2e-9
R3 3 4 1.5
C3 4 0 1e-9
.port P1 1 0
.port P2 4 0
"""

BAND = [1e6, 1e9]
POINTS = 10
#: two pool workers at MIN_POINTS_PER_WORKER = 16 points each: the
#: smallest exact sweep the pool tier actually runs
POOL_POINTS = 32


def grid(points=POINTS):
    return 1j * np.logspace(
        np.log10(BAND[0]), np.log10(BAND[1]), points
    )


def exact_request(request_id):
    return {
        "id": request_id, "op": "sweep",
        "params": {
            "netlist": NETLIST, "order": 4, "band": BAND,
            "points": POOL_POINTS, "exact": True, "return_values": True,
        },
    }


@pytest.fixture
def two_cpus(monkeypatch):
    """Let ``workers=2`` resolve to two pool workers on any runner."""
    import repro.engine.sweep as sweep_mod

    monkeypatch.setattr(sweep_mod.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(
        sweep_mod.os, "sched_getaffinity",
        lambda pid: {0, 1}, raising=False,
    )


def response_z(resp):
    result = resp["result"]
    return (
        np.asarray(result["z_real"]) + 1j * np.asarray(result["z_imag"])
    )


def test_pool_crash_degrades_then_recovers(two_cpus):
    plan = ServiceFaultPlan.parse("pool.crash@chunk")
    config = ServiceConfig(
        workers=2,
        max_concurrency=4,
        breaker=BreakerConfig(
            fail_threshold=3, cooldown=0.05, probe_successes=1
        ),
        retry=dataclasses.replace(
            RetryConfig(), base_delay=0.001, max_delay=0.002
        ),
    )
    svc = MacromodelService(config, fault_plan=plan)
    reference = ac_sweep(
        assemble_mna(parse_netlist(NETLIST)), grid(POOL_POINTS)
    ).z

    async def faulty_phase():
        responses = await asyncio.gather(*(
            svc.handle(exact_request(f"deg{k}")) for k in range(6)
        ))
        stats = (await svc.handle({"id": "s", "op": "stats"}))["result"]
        return responses, stats

    responses, stats = asyncio.run(faulty_phase())

    # 1. every request answered correctly despite the dead pool tier
    assert all(r["ok"] for r in responses), responses
    for resp in responses:
        assert resp["result"]["tier"] == "serial"
        assert np.abs(response_z(resp) - reference).max() <= 1e-10

    # 2. the breaker tripped and the full picture is in stats
    service = stats["service"]
    assert service["breaker"]["state"] in ("open", "half-open")
    assert service["breaker"]["trips"] >= 1
    assert "shed" in service and "retries" in service
    degraded = sum(service["degradations"].values())
    assert degraded == 6
    assert service["degradations"]["pool->serial"] == 6
    # short-circuited requests never touched the crashing pool tier
    assert len(plan.triggered) < 6
    # every tier switch is an observable health event
    degrade_events = [
        e for e in svc.monitor.events if e.category == "engine.sweep"
    ]
    assert len(degrade_events) == 6
    assert any(e.data["breaker_short_circuit"] for e in degrade_events)

    # 3. fault cleared -> cooldown elapses -> probe succeeds -> breaker
    #    closes and the pool tier serves again
    plan.clear()

    async def recovery_phase():
        await asyncio.sleep(0.06)  # past the breaker cooldown
        recovered = await svc.handle(exact_request("rec"))
        stats = (await svc.handle({"id": "s2", "op": "stats"}))["result"]
        return recovered, stats

    recovered, stats = asyncio.run(recovery_phase())
    assert recovered["ok"]
    assert recovered["result"]["tier"] == "pool"
    assert np.abs(response_z(recovered) - reference).max() <= 1e-10
    assert stats["service"]["breaker"]["state"] == "closed"
    assert stats["service"]["breaker"]["recoveries"] >= 1


def test_reduced_sweep_survives_compiled_tier_failure(monkeypatch):
    """A broken compiled path degrades to the direct tier, same values."""
    svc = MacromodelService(ServiceConfig())

    def exploding_compile(model, **options):
        raise RuntimeError("compiled evaluation exploded")

    monkeypatch.setattr(svc.engine, "compile", exploding_compile)
    request = {
        "id": "w", "op": "sweep",
        "params": {
            "netlist": NETLIST, "order": 4, "band": BAND,
            "points": POINTS, "return_values": True,
        },
    }
    resp = asyncio.run(svc.handle(request))
    assert resp["ok"], resp
    assert resp["result"]["tier"] == "direct"
    assert svc.counters["degradations"]["compiled->direct"] == 1

    # the degraded answer still matches the model evaluated directly
    system = assemble_mna(parse_netlist(NETLIST))
    from repro.engine import Engine

    model = Engine().reduce(system, 4)
    expected = model.impedance(grid())
    assert np.abs(response_z(resp) - expected).max() <= 1e-10


def test_last_resort_direct_tier(monkeypatch):
    """Every compiled evaluation path dead -- the engine's compile and
    the model's own lazily compiled batch form: per-point direct solves
    still answer, after exactly one transition."""
    from repro.core.model import ReducedOrderModel
    from repro.engine import Engine

    system = assemble_mna(parse_netlist(NETLIST))
    expected = Engine().reduce(system, 4).impedance(grid())

    def exploding(*args, **kwargs):
        raise RuntimeError("compiled evaluation exploded")

    svc = MacromodelService(ServiceConfig())
    monkeypatch.setattr(svc.engine, "compile", exploding)
    monkeypatch.setattr(ReducedOrderModel, "_ensure_compiled", exploding)
    request = {
        "id": "w", "op": "sweep",
        "params": {
            "netlist": NETLIST, "order": 4, "band": BAND,
            "points": POINTS, "return_values": True,
        },
    }
    resp = asyncio.run(svc.handle(request))
    assert resp["ok"], resp
    assert resp["result"]["tier"] == "direct"
    assert svc.counters["degradations"] == {"compiled->direct": 1}
    assert svc.counters["tiers"] == {"direct": 1}
    events = svc.monitor.by_category("engine.sweep")
    assert len(events) == 1
    assert events[0].data["breaker_short_circuit"] is False

    # and the per-point answers match the model evaluated directly
    assert np.abs(response_z(resp) - expected).max() <= 1e-10
