"""Unit tests for the resilience primitives (no engine involved)."""

from __future__ import annotations

import asyncio

import pytest

from repro.service.config import BreakerConfig, RetryConfig
from repro.service.resilience import (
    CircuitBreaker,
    Deadline,
    DeadlineExceeded,
    LatencyHistogram,
    RetryPolicy,
    SingleFlight,
)


class TestDeadline:
    def test_unbounded(self):
        d = Deadline.after(None)
        assert d.remaining() is None
        assert not d.expired()
        d.check("anywhere")  # never raises

    def test_remaining_counts_down(self):
        d = Deadline.after(60.0)
        r = d.remaining()
        assert 0 < r <= 60.0
        assert not d.expired()

    def test_expired_raises_with_stage(self):
        d = Deadline.after(0.0)
        assert d.expired()
        assert d.remaining() == 0.0
        with pytest.raises(DeadlineExceeded, match="sweep-chunk"):
            d.check("sweep-chunk")


class TestRetryPolicy:
    def test_deterministic_per_key(self):
        policy = RetryPolicy(RetryConfig(seed=7))
        assert policy.schedule("key-a") == policy.schedule("key-a")
        assert policy.schedule("key-a") != policy.schedule("key-b")

    def test_exponential_shape_and_cap(self):
        policy = RetryPolicy(RetryConfig(
            attempts=5, base_delay=0.01, multiplier=2.0, max_delay=0.03,
            jitter=0.0,
        ))
        assert policy.schedule("k") == pytest.approx(
            [0.01, 0.02, 0.03, 0.03]
        )

    def test_jitter_bounded(self):
        policy = RetryPolicy(RetryConfig(
            attempts=4, base_delay=0.1, multiplier=1.0, max_delay=1.0,
            jitter=0.2,
        ))
        for delay in policy.schedule("any"):
            assert 0.08 <= delay <= 0.12

    def test_attempts_floor(self):
        assert RetryPolicy(RetryConfig(attempts=0)).attempts == 1


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestCircuitBreaker:
    def make(self, **kw):
        clock = FakeClock()
        cfg = BreakerConfig(**{
            "fail_threshold": 3, "cooldown": 10.0, "probe_successes": 1,
            **kw,
        })
        return CircuitBreaker(cfg, clock=clock), clock

    def test_trips_after_consecutive_failures(self):
        breaker, _ = self.make()
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.describe()["trips"] == 1

    def test_success_resets_failure_streak(self):
        breaker, _ = self.make()
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_open_short_circuits_until_cooldown(self):
        breaker, clock = self.make()
        for _ in range(3):
            breaker.record_failure()
        assert not breaker.allow()
        assert breaker.describe()["short_circuits"] == 1
        clock.now = 10.0
        assert breaker.allow()  # half-open probe admitted
        assert breaker.state == CircuitBreaker.HALF_OPEN

    def test_half_open_admits_one_probe(self):
        breaker, clock = self.make()
        for _ in range(3):
            breaker.record_failure()
        clock.now = 10.0
        assert breaker.allow()
        assert not breaker.allow()  # second concurrent probe blocked

    def test_probe_success_closes(self):
        breaker, clock = self.make()
        for _ in range(3):
            breaker.record_failure()
        clock.now = 10.0
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.describe()["recoveries"] == 1

    def test_probe_failure_retrips(self):
        breaker, clock = self.make()
        for _ in range(3):
            breaker.record_failure()
        clock.now = 10.0
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.describe()["trips"] == 2
        # and the cooldown restarts from the re-trip
        clock.now = 15.0
        assert not breaker.allow()
        clock.now = 20.0
        assert breaker.allow()

    def test_concurrent_threads_lose_no_update(self):
        """The breaker is shared by the sweeps running on worker threads:
        counters never lose an increment and a half-open breaker admits
        exactly one probe however many threads race for it."""
        import sys
        import threading

        breaker, clock = self.make(fail_threshold=10**9)
        threads, rounds = 8, 2000
        barrier = threading.Barrier(threads)
        admitted = []

        def hammer(k):
            barrier.wait(timeout=10)
            for _ in range(rounds):
                if k % 2:
                    breaker.record_failure()
                else:
                    breaker.record_success()

        def race():
            barrier.wait(timeout=10)
            admitted.append(breaker.allow())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [
                threading.Thread(target=hammer, args=(k,))
                for k in range(threads)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30)
            assert not any(worker.is_alive() for worker in workers)
            stats = breaker.describe()
            assert stats["failures"] + stats["successes"] == threads * rounds

            breaker._trip()
            clock.now += 10.0  # cooldown over: half-open, one probe
            workers = [threading.Thread(target=race) for _ in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30)
            assert not any(worker.is_alive() for worker in workers)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(admitted) == [False] * (threads - 1) + [True]

    def test_multi_probe_close(self):
        breaker, clock = self.make(probe_successes=2)
        for _ in range(3):
            breaker.record_failure()
        clock.now = 10.0
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED


class TestSingleFlight:
    def test_concurrent_calls_coalesce(self):
        async def scenario():
            sf = SingleFlight()
            calls = 0
            release = asyncio.Event()

            async def work():
                nonlocal calls
                calls += 1
                await release.wait()
                return "result"

            tasks = [
                asyncio.ensure_future(sf.run("k", work)) for _ in range(5)
            ]
            await asyncio.sleep(0)  # let all five join
            release.set()
            results = await asyncio.gather(*tasks)
            return calls, results, sf

        calls, results, sf = asyncio.run(scenario())
        assert calls == 1
        assert results == ["result"] * 5
        assert sf.starts == 1
        assert sf.hits == 4
        assert sf.inflight_count() == 0

    def test_sequential_calls_recompute(self):
        async def scenario():
            sf = SingleFlight()
            calls = 0

            async def work():
                nonlocal calls
                calls += 1
                return calls

            first = await sf.run("k", work)
            second = await sf.run("k", work)
            return first, second, sf

        first, second, sf = asyncio.run(scenario())
        assert (first, second) == (1, 2)
        assert sf.starts == 2
        assert sf.hits == 0

    def test_failure_propagates_to_all_waiters(self):
        async def scenario():
            sf = SingleFlight()
            release = asyncio.Event()

            async def work():
                await release.wait()
                raise RuntimeError("boom")

            tasks = [
                asyncio.ensure_future(sf.run("k", work)) for _ in range(3)
            ]
            await asyncio.sleep(0)
            release.set()
            return await asyncio.gather(*tasks, return_exceptions=True)

        results = asyncio.run(scenario())
        assert all(isinstance(r, RuntimeError) for r in results)

    def test_waiter_timeout_does_not_cancel_shared_work(self):
        async def scenario():
            sf = SingleFlight()
            finished = asyncio.Event()

            async def work():
                await asyncio.sleep(0.05)
                finished.set()
                return 42

            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(sf.run("k", work), timeout=0.005)
            # the shared task keeps running after the waiter timed out
            await asyncio.wait_for(finished.wait(), timeout=1.0)
            await sf.drain()
            return finished.is_set()

        assert asyncio.run(scenario())


class TestLatencyHistogram:
    def test_buckets_and_summary(self):
        hist = LatencyHistogram()
        for seconds in (0.0005, 0.003, 0.03, 30.0):
            hist.observe(seconds)
        d = hist.to_dict()
        assert d["count"] == 4
        assert d["buckets"]["le_1ms"] == 1
        assert d["buckets"]["le_5ms"] == 1
        assert d["buckets"]["le_50ms"] == 1
        assert d["buckets"]["inf"] == 1
        assert d["max_ms"] == pytest.approx(30000.0)

    def test_empty(self):
        d = LatencyHistogram().to_dict()
        assert d["count"] == 0
        assert d["mean_ms"] == 0.0
