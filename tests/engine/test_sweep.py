"""Batched / parallel sweep executors and the ac_kernel fast path."""

from __future__ import annotations

import numpy as np
import pytest

import repro
import repro.engine.sweep as sweep_mod
from repro.engine import CompiledModel
from repro.engine.sweep import (
    batched_eval,
    compiled_sweep,
    parallel_ac_kernel,
    parallel_ac_sweep,
    resolve_workers,
    run_ladder,
)
from repro.errors import SimulationError
from repro.robustness import HealthMonitor
from repro.robustness.guards import (
    BreakerConfig,
    CircuitBreaker,
    Deadline,
    DeadlineExceeded,
)
from repro.simulation.ac import _aligned_csc_pair, ac_kernel, ac_sweep

from ..conftest import dense_impedance, rel_err


class TestResolveWorkers:
    @pytest.fixture(autouse=True)
    def eight_cpus(self, monkeypatch):
        """Pin the clamp ceiling so assertions hold on any machine."""
        import repro.engine.sweep as sweep_mod

        monkeypatch.setattr(sweep_mod.os, "cpu_count", lambda: 8)
        monkeypatch.setattr(
            sweep_mod.os, "sched_getaffinity",
            lambda pid: set(range(8)), raising=False,
        )

    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "7")
        assert resolve_workers(3) == 3

    def test_env_knob(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "5")
        assert resolve_workers(None) == 5

    def test_default_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers(None) == 1

    def test_garbage_env_warns_and_serializes(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "many")
        with pytest.warns(repro.errors.NumericalWarning):
            assert resolve_workers(None) == 1

    def test_floor_at_one(self):
        assert resolve_workers(0) == 1
        assert resolve_workers(-3) == 1

    def test_clamped_to_cpu_count(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers(64) == 8
        monkeypatch.setenv("REPRO_WORKERS", "64")
        assert resolve_workers(None) == 8

    def test_nonpositive_env_warns_and_serializes(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "0")
        with pytest.warns(repro.errors.NumericalWarning, match="non-positive"):
            assert resolve_workers(None) == 1
        monkeypatch.setenv("REPRO_WORKERS", "-2")
        with pytest.warns(repro.errors.NumericalWarning, match="non-positive"):
            assert resolve_workers(None) == 1

    def test_restricted_affinity_mask_wins_over_cpu_count(self, monkeypatch):
        """A container CPU quota shrinks the affinity mask while
        ``os.cpu_count()`` still reports the full machine."""
        import repro.engine.sweep as sweep_mod

        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        monkeypatch.setattr(
            sweep_mod.os, "sched_getaffinity",
            lambda pid: {0, 3}, raising=False,
        )
        assert sweep_mod._cpu_limit() == 2
        assert resolve_workers(16) == 2
        monkeypatch.setenv("REPRO_WORKERS", "16")
        assert resolve_workers(None) == 2

    def test_missing_affinity_falls_back_to_cpu_count(self, monkeypatch):
        import repro.engine.sweep as sweep_mod

        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        monkeypatch.delattr(
            sweep_mod.os, "sched_getaffinity", raising=False
        )
        assert sweep_mod._cpu_limit() == 8
        assert resolve_workers(64) == 8


class TestAlignedCscPair:
    def test_union_pattern_shared(self, rc_two_port_system):
        g, c, aligned = _aligned_csc_pair(rc_two_port_system)
        assert aligned
        assert np.array_equal(g.indptr, c.indptr)
        assert np.array_equal(g.indices, c.indices)

    def test_reconstructs_both_matrices(self, rlc_system):
        g, c, aligned = _aligned_csc_pair(rlc_system)
        assert aligned
        assert np.allclose(g.toarray(), rlc_system.G.toarray())
        assert np.allclose(c.toarray(), rlc_system.C.toarray())


class TestAcKernelFastPath:
    """The per-point tocsc() rebuild is gone; results are unchanged."""

    def test_matches_dense_oracle(self, rc_two_port_system):
        s = 1j * np.logspace(7, 10, 13)
        resp = ac_sweep(rc_two_port_system, s)
        assert rel_err(resp.z, dense_impedance(rc_two_port_system, s)) < 1e-10

    def test_mna_formulation(self, rlc_system):
        s = 1j * np.logspace(8, 10, 9)
        resp = ac_sweep(rlc_system, s)
        assert rel_err(resp.z, dense_impedance(rlc_system, s)) < 1e-9

    def test_singular_point_message_intact(self, lc_system):
        with pytest.raises(
            repro.errors.SimulationError, match="singular at sigma"
        ):
            ac_kernel(lc_system, np.array([0.0]))

    def test_workers_kwarg_matches_serial(self, rc_two_port_system):
        sigma = 1j * np.logspace(7, 10, 40)
        serial = ac_kernel(rc_two_port_system, sigma)
        fanned = ac_kernel(rc_two_port_system, sigma, workers=2)
        assert np.allclose(fanned, serial, rtol=1e-12, atol=0.0)


class TestBatchedEval:
    def test_chunking_matches_single_batch(self, rc_two_port_system):
        model = repro.sympvl(rc_two_port_system, order=8)
        compiled = CompiledModel.compile(model)
        sigma = 1j * np.logspace(6, 10, 33)
        whole = compiled.kernel(sigma)
        chunked = batched_eval(compiled.kernel, sigma, chunk=7)
        assert np.allclose(chunked, whole, rtol=0, atol=0)

    def test_compiled_sweep_matches_model_sweep(self, rc_two_port_system):
        model = repro.sympvl(rc_two_port_system, order=8)
        compiled = CompiledModel.compile(model)
        s = 1j * np.logspace(7, 10, 21)
        resp = compiled_sweep(compiled, s, chunk=5)
        direct = repro.model_sweep(model, s)
        assert np.allclose(resp.z, direct.z, rtol=1e-10)
        assert resp.port_names == direct.port_names

    def test_label_defaults(self, rc_two_port_system):
        model = repro.sympvl(rc_two_port_system, order=8)
        compiled = CompiledModel.compile(model)
        resp = compiled_sweep(compiled, 1j * np.logspace(7, 9, 4))
        assert "compiled" in resp.label


class TestParallelExact:
    def test_small_grid_stays_serial(self, rc_two_port_system):
        """Below min_points_per_worker the pool is never spun up."""
        sigma = 1j * np.logspace(7, 9, 6)
        out = parallel_ac_kernel(rc_two_port_system, sigma, workers=4)
        assert np.allclose(out, ac_kernel(rc_two_port_system, sigma))

    def test_parallel_matches_serial(self, rc_two_port_system):
        sigma = 1j * np.logspace(7, 10, 32)
        serial = ac_kernel(rc_two_port_system, sigma)
        fanned = parallel_ac_kernel(
            rc_two_port_system, sigma, workers=2, min_points_per_worker=4
        )
        assert np.allclose(fanned, serial, rtol=1e-12, atol=0.0)

    def test_parallel_sweep_response(self, lc_system):
        s = 1j * np.linspace(1e9, 5e9, 24)
        resp = parallel_ac_sweep(
            lc_system, s, workers=2, label="exact-parallel"
        )
        reference = ac_sweep(lc_system, s)
        assert np.allclose(resp.z, reference.z, rtol=1e-12, atol=0.0)
        assert resp.label == "exact-parallel"

    def test_worker_count_does_not_change_values(self, rc_two_port_system):
        sigma = 1j * np.logspace(7, 10, 36)
        results = [
            parallel_ac_kernel(
                rc_two_port_system, sigma,
                workers=w, min_points_per_worker=4,
            )
            for w in (1, 2, 3)
        ]
        for out in results[1:]:
            assert np.allclose(out, results[0], rtol=1e-12, atol=0.0)


class TestRunLadder:
    """The ladder contract, on stand-in tiers (no processes)."""

    @staticmethod
    def fail():
        raise RuntimeError("tier down")

    def test_upper_tier_serves_without_events(self):
        monitor = HealthMonitor()
        out = run_ladder(
            ("pool", lambda: 1), ("serial", lambda: 2),
            points=3, monitor=monitor,
        )
        assert out == (1, "pool", None)
        assert not monitor.events

    def test_infeasible_upper_tier_is_no_transition(self):
        monitor = HealthMonitor()
        out = run_ladder(
            ("pool", None), ("serial", lambda: 2), points=3, monitor=monitor
        )
        assert out == (2, "serial", None)
        assert not monitor.events

    def test_failure_is_one_transition_event(self):
        monitor = HealthMonitor()
        breaker = CircuitBreaker()
        with pytest.warns(repro.errors.NumericalWarning):
            sweep_mod._reset_fallback_warning()
            out = run_ladder(
                ("compiled", self.fail), ("direct", lambda: 2),
                points=3, breaker=breaker, monitor=monitor,
            )
        assert out == (2, "direct", "compiled->direct")
        [event] = monitor.events
        assert event.category == "engine.sweep"
        assert event.data["error_class"] == "RuntimeError"
        assert event.data["breaker_short_circuit"] is False
        assert breaker.describe()["failures"] == 1

    def test_open_breaker_short_circuits(self):
        monitor = HealthMonitor()
        breaker = CircuitBreaker(BreakerConfig(fail_threshold=1))
        breaker.record_failure()
        out = run_ladder(
            ("pool", self.fail), ("serial", lambda: 2),
            points=3, breaker=breaker, monitor=monitor,
        )
        assert out == (2, "serial", "pool->serial")
        [event] = monitor.events
        assert event.data["breaker_short_circuit"] is True
        assert event.data["reason"] == "breaker-open"

    @pytest.mark.parametrize(
        "error", [SimulationError, MemoryError, DeadlineExceeded]
    )
    def test_final_errors_are_not_walked_past(self, error):
        monitor = HealthMonitor()

        def upper():
            raise error("final")

        with pytest.raises(error):
            run_ladder(
                ("pool", upper), ("serial", self.fail),
                points=3, monitor=monitor,
            )
        assert not monitor.events

    def test_serial_tier_checks_the_deadline_between_chunks(
        self, rc_two_port_system
    ):
        calls = []
        deadline = Deadline.after(60.0)

        def evaluate(chunk):
            calls.append(chunk.size)
            deadline.expires_at = 0.0  # budget gone after the first chunk
            return np.zeros((chunk.size, 1, 1))

        with pytest.raises(DeadlineExceeded):
            batched_eval(evaluate, np.arange(10.0), chunk=4,
                         deadline=deadline)
        assert calls == [4]
        with pytest.raises(DeadlineExceeded):
            parallel_ac_sweep(
                rc_two_port_system, 1j * np.logspace(7, 9, 8),
                deadline=Deadline.after(0.0),
            )


class _ExplodingPool:
    """ProcessPoolExecutor stand-in whose task submission fails."""

    raises: type[BaseException] = OSError

    def __init__(self, *args, **kwargs):
        pass

    def submit(self, fn, *args):
        raise self.raises("injected pool failure")

    def shutdown(self, *args, **kwargs):
        pass


class TestPoolFallbackObservability:
    @pytest.fixture(autouse=True)
    def many_cpus(self, monkeypatch):
        import repro.engine.sweep as sweep_mod
        from repro.engine import pool as engine_pool

        monkeypatch.setattr(sweep_mod.os, "cpu_count", lambda: 8)
        monkeypatch.setattr(
            sweep_mod.os, "sched_getaffinity",
            lambda pid: set(range(8)), raising=False,
        )
        # these tests inject failures into the pool tier's executor;
        # start each from a fresh pool with the one-shot fallback
        # warning re-armed
        engine_pool.shutdown_pool()
        sweep_mod._reset_fallback_warning()
        yield
        engine_pool.shutdown_pool()
        sweep_mod._reset_fallback_warning()

    def test_fallback_records_health_event(
        self, rc_two_port_system, monkeypatch
    ):
        import concurrent.futures as futures

        from repro.robustness import HealthMonitor

        monkeypatch.setattr(futures, "ProcessPoolExecutor", _ExplodingPool)
        monitor = HealthMonitor()
        sigma = 1j * np.logspace(7, 10, 40)
        with pytest.warns(repro.errors.NumericalWarning, match="pool"):
            out = parallel_ac_kernel(
                rc_two_port_system, sigma,
                workers=2, min_points_per_worker=4, monitor=monitor,
            )
        assert np.allclose(out, ac_kernel(rc_two_port_system, sigma))
        events = monitor.by_category("engine.sweep")
        assert len(events) == 1
        assert events[0].data["from_tier"] == "pool"
        assert events[0].data["to_tier"] == "serial"
        assert events[0].data["error_class"] == "OSError"

    def test_memory_error_reraised(self, rc_two_port_system, monkeypatch):
        import concurrent.futures as futures

        class OOMPool(_ExplodingPool):
            raises = MemoryError

        monkeypatch.setattr(futures, "ProcessPoolExecutor", OOMPool)
        sigma = 1j * np.logspace(7, 10, 40)
        with pytest.raises(MemoryError):
            parallel_ac_kernel(
                rc_two_port_system, sigma,
                workers=2, min_points_per_worker=4,
            )

    def test_engine_stats_reflect_pool_failure(
        self, rc_two_port_system, monkeypatch
    ):
        import concurrent.futures as futures

        from repro.engine import Engine
        from repro.robustness import HealthMonitor

        monkeypatch.setattr(futures, "ProcessPoolExecutor", _ExplodingPool)
        monitor = HealthMonitor()
        engine = Engine(workers=2, monitor=monitor)
        s = 1j * np.logspace(7, 10, 40)
        with pytest.warns(repro.errors.NumericalWarning):
            engine.sweep(rc_two_port_system, s)
        assert len(monitor.by_category("engine.sweep")) == 1

    def test_fallback_warning_is_one_shot_per_process(
        self, rc_two_port_system, monkeypatch
    ):
        """Sweep-heavy sessions see the NumericalWarning once; every
        later fallback is still visible as an ``engine.sweep`` event."""
        import concurrent.futures as futures
        import warnings as warnings_mod

        from repro.robustness import HealthMonitor

        monkeypatch.setattr(futures, "ProcessPoolExecutor", _ExplodingPool)
        monitor = HealthMonitor()
        sigma = 1j * np.logspace(7, 10, 40)
        with pytest.warns(repro.errors.NumericalWarning, match="pool"):
            parallel_ac_kernel(
                rc_two_port_system, sigma,
                workers=2, min_points_per_worker=4, monitor=monitor,
            )
        with warnings_mod.catch_warnings():
            warnings_mod.simplefilter("error")  # any warning would raise
            out = parallel_ac_kernel(
                rc_two_port_system, sigma,
                workers=2, min_points_per_worker=4, monitor=monitor,
            )
        assert np.allclose(out, ac_kernel(rc_two_port_system, sigma))
        assert len(monitor.by_category("engine.sweep")) == 2
