"""Health-monitor integration: events recorded through the real pipeline."""

import json

import numpy as np
import pytest

import repro
from repro.robustness import HealthMonitor, ReductionHealth


@pytest.fixture
def rc_system():
    return repro.assemble_mna(repro.rc_ladder(20, port_at_far_end=True))


@pytest.fixture
def rlc_system():
    return repro.assemble_mna(repro.rlc_line(12))


class TestMonitorThroughSympvl:
    def test_cholesky_path_records_pivots(self, rc_system):
        monitor = HealthMonitor()
        model = repro.sympvl(rc_system, 8, shift=1e8, monitor=monitor)
        assert model.order == 8
        health = monitor.report()
        assert health.healthy
        assert health.factorization is not None
        assert "cholesky" in health.factorization["method"]
        assert health.factorization["min_pivot"] > 0.0
        # margin is relative: min_pivot / max_pivot scale
        assert 0.0 < health.factorization["margin"] <= 1.0
        assert health.shift_attempts[-1]["ok"] is True
        assert health.orthogonality_loss is not None
        assert health.orthogonality_loss < 1e-6

    def test_ldlt_path_records_pivot_blocks(self, rlc_system):
        monitor = HealthMonitor()
        repro.sympvl(
            rlc_system, 6, shift=1e9, factor_method="ldlt", monitor=monitor
        )
        health = monitor.report()
        assert "bunch-kaufman" in health.factorization["method"]
        assert health.factorization["min_pivot"] > 0.0

    def test_auto_shift_failure_then_success_is_logged(self):
        # LC PEEC-like circuit: G is singular, sigma0=0 must fail first
        system = repro.assemble_mna(repro.peec_like_lc(6))
        monitor = HealthMonitor()
        repro.sympvl(system, 4, shift="auto", monitor=monitor)
        attempts = monitor.report().shift_attempts
        assert len(attempts) >= 2
        assert attempts[0]["ok"] is False
        assert attempts[-1]["ok"] is True

    def test_passivity_certificate_recorded(self, rc_system):
        monitor = HealthMonitor()
        model = repro.sympvl(rc_system, 6, shift=1e8, monitor=monitor)
        repro.certify(model, monitor=monitor)
        health = monitor.report()
        assert health.passivity is not None
        assert health.passivity["certified"] is True

    def test_monitor_optional_everywhere(self, rc_system):
        # the default (no monitor) path must stay untouched
        a = repro.sympvl(rc_system, 8, shift=1e8)
        b = repro.sympvl(rc_system, 8, shift=1e8, monitor=HealthMonitor())
        np.testing.assert_allclose(a.t, b.t, atol=1e-14)


class TestReportSerialization:
    def test_json_round_trip(self, rc_system):
        monitor = HealthMonitor()
        repro.sympvl(rc_system, 8, shift=1e8, monitor=monitor)
        health = monitor.report()
        payload = json.loads(health.to_json())
        assert payload["healthy"] is True
        assert payload["factorization"]["method"]
        assert isinstance(payload["events"], list)
        # strict JSON: no NaN/Infinity literals survive
        json.dumps(payload, allow_nan=False)

    def test_nonfinite_values_encoded_as_strings(self):
        monitor = HealthMonitor()
        monitor.record("lanczos.cluster", step=0, size=1,
                       condition=float("inf"), forced=False,
                       pseudo_inverse=False)
        monitor.record("custom", value=float("nan"))
        payload = monitor.report().to_dict()
        assert payload["clusters"]["max_condition"] == "inf"
        json.dumps(payload, allow_nan=False)

    def test_context_attached_to_events(self):
        monitor = HealthMonitor()
        monitor.set_context(attempt=2, policy="order-backoff")
        monitor.record("lanczos.deflation", step=3, exact=True)
        event = monitor.events[0]
        assert event.context == {"attempt": 2, "policy": "order-backoff"}
        assert event.to_dict()["context"]["policy"] == "order-backoff"


class TestHealthVerdict:
    def test_breakdown_marks_unhealthy(self):
        monitor = HealthMonitor()
        monitor.record("lanczos.breakdown", step=4, reason="incurable")
        health = monitor.report()
        assert not health.healthy
        assert health.breakdowns[0]["step"] == 4

    def test_orthogonality_loss_threshold(self):
        monitor = HealthMonitor()
        monitor.record("lanczos.orthogonality", loss=1e-3, order=8)
        assert not monitor.report().healthy
        monitor2 = HealthMonitor()
        monitor2.record("lanczos.orthogonality", loss=1e-12, order=8)
        assert monitor2.report().healthy

    def test_from_events_on_empty_log(self):
        health = ReductionHealth.from_events([])
        assert health.healthy
        assert health.factorization is None


class TestServiceEvents:
    def test_sweep_fallback_counted(self):
        monitor = HealthMonitor()
        monitor.record(
            "engine.sweep", stage="pool-fallback",
            error_class="OSError", error="pool died", workers=4, points=64,
        )
        health = monitor.report()
        assert health.sweep_fallbacks == 1
        assert health.to_dict()["sweep_fallbacks"] == 1

    def test_service_degradations_collected(self):
        """The sweep ladder's transitions are the service's degradations:
        one ``engine.sweep`` event each, all collected."""
        monitor = HealthMonitor()
        monitor.record(
            "engine.sweep", from_tier="pool",
            to_tier="serial", reason="crash",
            breaker_short_circuit=False,
        )
        monitor.record(
            "engine.sweep", from_tier="compiled",
            to_tier="direct", reason="overload",
            breaker_short_circuit=False,
        )
        health = monitor.report()
        assert health.sweep_fallbacks == 2
        assert len(health.sweep_transitions) == 2
        assert health.sweep_transitions[0]["from_tier"] == "pool"
        assert health.to_dict()["sweep_transitions"][1]["to_tier"] == (
            "direct"
        )
