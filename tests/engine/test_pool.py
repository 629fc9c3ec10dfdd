"""The persistent shared-memory sweep pool (:mod:`repro.engine.pool`).

The load-bearing claim is bitwise identity: whatever transport a sweep
takes -- serial, a one-shot per-call pool (the reference baseline
below), cold persistent pool, warm persistent pool, pickle fallback --
the kernel array must be bit-for-bit the same.
Everything else here exercises the lifecycle (lazy start, reuse, idle
shutdown, crash restart) and the observability surface.

Pool tests pass explicit ``workers=`` so they exercise real fork
workers even on single-CPU CI runners (``resolve_workers`` would clamp
to the affinity mask).
"""

from __future__ import annotations

import dataclasses
import os
import signal
import time

import numpy as np
import pytest

import repro
import repro.engine.sweep as sweep_mod
from repro.engine import pool as engine_pool
from repro.engine.pool import PoolConfig, SweepPool
from repro.engine.sweep import parallel_ac_kernel
from repro.robustness import HealthMonitor
from repro.simulation.ac import ac_kernel

#: idle timer disabled -- lifecycle tests arm it explicitly
NO_IDLE = PoolConfig(idle_timeout=0.0)


def _ac_chunk(payload):
    system, sigma_chunk = payload
    return ac_kernel(system, sigma_chunk)


def _per_call_pool_kernel(system, chunks, n_workers: int):
    """One-shot ``ProcessPoolExecutor`` sweep: the transport-free
    reference every pool path must match bit for bit."""
    import concurrent.futures as futures

    with futures.ProcessPoolExecutor(max_workers=n_workers) as pool:
        return list(
            pool.map(_ac_chunk, [(system, chunk) for chunk in chunks])
        )


@pytest.fixture(autouse=True)
def pool_sandbox():
    """Isolate every test from the module singleton and its config."""
    previous = engine_pool._current_config()
    engine_pool.shutdown_pool()
    yield
    engine_pool.shutdown_pool()
    engine_pool.configure(**dataclasses.asdict(previous))


class TestPoolConfig:
    def test_env_knobs(self, monkeypatch):
        monkeypatch.setenv("REPRO_POOL_IDLE_TIMEOUT", "7.5")
        monkeypatch.setenv("REPRO_POOL_SHM", "0")
        monkeypatch.setenv("REPRO_POOL_SHM_MODELS", "2")
        monkeypatch.setenv("REPRO_POOL_LU_CACHE", "0")
        monkeypatch.setenv("REPRO_POOL_WARMUP", "false")
        config = PoolConfig.from_env()
        assert config == PoolConfig(
            idle_timeout=7.5, use_shm=False,
            shm_models=2, lu_cache=0, warmup=False,
        )

    def test_garbage_env_falls_back_to_defaults(self, monkeypatch):
        monkeypatch.setenv("REPRO_POOL_IDLE_TIMEOUT", "soon")
        monkeypatch.setenv("REPRO_POOL_SHM_MODELS", "lots")
        config = PoolConfig.from_env()
        assert config.idle_timeout == 120.0
        assert config.shm_models == 4


class TestBitwiseIdentity:
    def test_every_transport_matches_serial(self, rc_two_port_system):
        sigma = 1j * np.logspace(7, 10, 24)
        serial = ac_kernel(rc_two_port_system, sigma)

        chunks = np.array_split(sigma, 2)
        percall = np.concatenate(
            _per_call_pool_kernel(rc_two_port_system, chunks, 2), axis=0
        )

        pool = SweepPool(NO_IDLE)
        try:
            cold = pool.eval(rc_two_port_system, sigma, workers=2)
            warm = pool.eval(rc_two_port_system, sigma, workers=2)
            assert pool.describe()["transport"] == "shm"
        finally:
            pool.shutdown()

        pickled = SweepPool(dataclasses.replace(NO_IDLE, use_shm=False))
        try:
            noshm = pickled.eval(rc_two_port_system, sigma, workers=2)
            assert pickled.describe()["transport"] == "pickle"
        finally:
            pickled.shutdown()

        for out in (percall, cold, warm, noshm):
            assert np.array_equal(out, serial)

    def test_worker_count_does_not_change_bits(self, rlc_system):
        sigma = 1j * np.logspace(8, 10, 12)
        pool = SweepPool(NO_IDLE)
        try:
            one = pool.eval(rlc_system, sigma, workers=1)
            pool.shutdown()
            three = pool.eval(rlc_system, sigma, workers=3)
        finally:
            pool.shutdown()
        assert np.array_equal(one, ac_kernel(rlc_system, sigma))
        assert np.array_equal(three, one)


class TestLifecycle:
    def test_lazy_start_reuse_and_warm_stats(self, rc_two_port_system):
        pool = SweepPool(NO_IDLE)
        try:
            assert not pool.running()
            sigma = 1j * np.logspace(7, 10, 8)
            pool.eval(rc_two_port_system, sigma, workers=2)
            assert pool.running()
            pool.eval(rc_two_port_system, sigma, workers=2)
            state = pool.describe()
            assert state["cold_starts"] == 1
            assert state["evals"] == 2
            assert state["warm_evals"] == 1
            # the operand segment was published exactly once
            assert state["shm_publishes"] == 1
            assert state["published_models"] == 1
            assert state["published_bytes"] > 0
        finally:
            pool.shutdown()

    def test_idle_timeout_shuts_the_pool_down(self, rc_two_port_system):
        pool = SweepPool(PoolConfig(idle_timeout=0.2, warmup=False))
        try:
            pool.eval(
                rc_two_port_system, 1j * np.logspace(7, 10, 4), workers=2
            )
            assert pool.running()
            deadline = time.monotonic() + 10.0
            while pool.running() and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not pool.running()
            assert pool.describe()["idle_shutdowns"] == 1
            # the next sweep restarts transparently
            out = pool.eval(
                rc_two_port_system, 1j * np.logspace(7, 10, 4), workers=2
            )
            assert pool.running()
            assert out.shape[0] == 4
        finally:
            pool.shutdown()

    def test_warm_evals_count_after_an_idle_shutdown(
        self, rc_two_port_system
    ):
        """An eval is warm when its executor was already running -- also
        after the idle timer has shut the pool down and it restarted."""
        pool = SweepPool(PoolConfig(idle_timeout=0.2, warmup=False))
        sigma = 1j * np.logspace(7, 10, 4)
        try:
            pool.eval(rc_two_port_system, sigma, workers=2)
            deadline = time.monotonic() + 10.0
            while pool.running() and time.monotonic() < deadline:
                time.sleep(0.05)
            assert pool.describe()["idle_shutdowns"] == 1
            pool.eval(rc_two_port_system, sigma, workers=2)  # cold restart
            pool.eval(rc_two_port_system, sigma, workers=2)  # warm
            state = pool.describe()
            assert state["cold_starts"] == 2
            assert state["evals"] == 3
            assert state["warm_evals"] == 1
        finally:
            pool.shutdown()

    def test_worker_crash_triggers_restart_and_correct_result(
        self, rc_two_port_system
    ):
        pool = SweepPool(NO_IDLE)
        monitor = HealthMonitor()
        try:
            sigma = 1j * np.logspace(7, 10, 8)
            expected = ac_kernel(rc_two_port_system, sigma)
            pool.eval(rc_two_port_system, sigma, workers=2, monitor=monitor)
            for pid in list(pool._executor._processes):
                os.kill(pid, signal.SIGKILL)
            out = pool.eval(
                rc_two_port_system, sigma, workers=2, monitor=monitor
            )
            assert np.array_equal(out, expected)
            assert pool.describe()["restarts"] == 1
            actions = [
                event.data.get("action")
                for event in monitor.by_category("engine.pool")
            ]
            assert "restart" in actions
        finally:
            pool.shutdown()

    def test_shutdown_is_idempotent(self, rc_two_port_system):
        pool = SweepPool(NO_IDLE)
        pool.eval(rc_two_port_system, 1j * np.logspace(7, 9, 4), workers=2)
        pool.shutdown()
        pool.shutdown()
        assert not pool.running()
        assert pool.describe()["published_models"] == 0


class TestTransportFailures:
    def test_shm_publish_failure_falls_back_to_pickle(
        self, rc_two_port_system, monkeypatch
    ):
        def refuse(fingerprint, operands):
            raise OSError("no /dev/shm")

        monkeypatch.setattr(engine_pool, "_publish_shm", refuse)
        pool = SweepPool(NO_IDLE)
        monitor = HealthMonitor()
        try:
            sigma = 1j * np.logspace(7, 10, 8)
            out = pool.eval(
                rc_two_port_system, sigma, workers=2, monitor=monitor
            )
            assert np.array_equal(out, ac_kernel(rc_two_port_system, sigma))
            state = pool.describe()
            assert state["shm_fallbacks"] == 1
            assert state["transport"] == "pickle"
            actions = [
                event.data.get("action")
                for event in monitor.by_category("engine.pool")
            ]
            assert "shm-fallback" in actions
        finally:
            pool.shutdown()

    def test_simulation_error_propagates_from_workers(self, lc_system):
        pool = SweepPool(NO_IDLE)
        try:
            with pytest.raises(repro.errors.SimulationError, match="singular"):
                pool.eval(lc_system, np.array([0.0, 0.0]), workers=2)
        finally:
            pool.shutdown()


class TestKernelLadder:
    """parallel_ac_kernel runs the exact ladder: pool -> serial."""

    @pytest.fixture(autouse=True)
    def many_cpus(self, monkeypatch):
        monkeypatch.setattr(sweep_mod.os, "cpu_count", lambda: 8)
        monkeypatch.setattr(
            sweep_mod.os, "sched_getaffinity",
            lambda pid: set(range(8)), raising=False,
        )

    def test_persistent_tier_serves_the_sweep(self, rc_two_port_system):
        engine_pool.configure(idle_timeout=0.0)
        monitor = HealthMonitor()
        sigma = 1j * np.logspace(7, 10, 32)
        out = parallel_ac_kernel(
            rc_two_port_system, sigma,
            workers=2, min_points_per_worker=4, monitor=monitor,
        )
        assert np.array_equal(out, ac_kernel(rc_two_port_system, sigma))
        assert engine_pool.get_pool().describe()["evals"] == 1
        actions = [
            event.data.get("action")
            for event in monitor.by_category("engine.pool")
        ]
        assert "start" in actions

    def test_broken_persistent_tier_drops_one_rung(
        self, rc_two_port_system, monkeypatch
    ):
        engine_pool.configure(idle_timeout=0.0)

        def explode(self, *args, **kwargs):
            raise RuntimeError("persistent tier down")

        monkeypatch.setattr(engine_pool.SweepPool, "eval", explode)
        monitor = HealthMonitor()
        sigma = 1j * np.logspace(7, 10, 32)
        with pytest.warns(repro.errors.NumericalWarning):
            sweep_mod._reset_fallback_warning()
            out = parallel_ac_kernel(
                rc_two_port_system, sigma,
                workers=2, min_points_per_worker=4, monitor=monitor,
            )
        assert np.array_equal(out, ac_kernel(rc_two_port_system, sigma))
        # one fall, one transition event -- nothing else narrates it
        events = monitor.by_category("engine.sweep")
        assert len(events) == 1
        assert events[0].data["from_tier"] == "pool"
        assert events[0].data["to_tier"] == "serial"
        assert events[0].data["error_class"] == "RuntimeError"
        assert not monitor.by_category("engine.pool")
        assert monitor.report().sweep_fallbacks == 1

    def test_infeasible_pool_skips_the_tier(self, rc_two_port_system):
        """Too few points per worker: serial, no pool, no transition."""
        monitor = HealthMonitor()
        sigma = 1j * np.logspace(7, 10, 31)
        out = parallel_ac_kernel(
            rc_two_port_system, sigma, workers=2, monitor=monitor
        )
        assert np.array_equal(out, ac_kernel(rc_two_port_system, sigma))
        assert engine_pool.describe()["running"] is False
        assert not monitor.events


class TestModuleSingleton:
    def test_get_pool_returns_one_instance(self):
        first = engine_pool.get_pool()
        assert engine_pool.get_pool() is first
        engine_pool.shutdown_pool()
        assert engine_pool.get_pool() is not first

    def test_configure_controls_transport(self):
        engine_pool.configure(use_shm=False)
        assert engine_pool.describe()["transport"] == "pickle"
        engine_pool.configure(use_shm=True)
        assert engine_pool.describe()["transport"] == "shm"

    def test_configure_ignores_none_values(self):
        engine_pool.configure(idle_timeout=42.0)
        engine_pool.configure(use_shm=None, idle_timeout=None)
        assert engine_pool.describe()["idle_timeout_s"] == 42.0

    def test_describe_without_forcing_a_pool(self):
        state = engine_pool.describe()
        assert state["running"] is False
        assert state["workers"] == 0
        assert engine_pool._POOL is None

    def test_engine_stats_include_pool_state(self):
        from repro.engine import Engine

        stats = Engine().stats()
        assert set(stats["pool"]) >= {"running", "transport"}
