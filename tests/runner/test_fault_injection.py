"""Fault-injection tests: retries, timeouts, degradation, pool repair.

Every path here is driven deterministically through the
:class:`repro.runner.faults.FaultPlan` seam, mirroring the paper's own
campaign: faults happen on schedule, and the measurement keeps running.
"""

import datetime as dt
import os

import pytest

from repro.runner import (
    Fault,
    FaultAction,
    FaultPlan,
    InjectedFault,
    RetryPolicy,
    sweep_records,
)

UNTIL = dt.datetime(2010, 2, 20)
#: Short horizon (prototype weekend + a day) for timeout tests: a real
#: attempt finishes in well under a second, so the per-attempt budget
#: only ever fires on the injected stall.
UNTIL_TINY = dt.datetime(2010, 2, 16)
FAST = dict(backoff_base_s=0.01, backoff_max_s=0.05)


def _canonical(result):
    return [record.canonical_json() for record in result.records]


def _no_tmp_files(cache_dir):
    leftovers = [n for n in os.listdir(cache_dir) if n.endswith(".tmp")]
    assert leftovers == []


class TestRetry:
    def test_transient_crash_retried_serially(self):
        baseline = sweep_records([7], until=UNTIL, jobs=1)
        plan = FaultPlan.of(Fault(seed=7, attempt=1, action=FaultAction.RAISE))
        result = sweep_records(
            [7], until=UNTIL, jobs=1,
            policy=RetryPolicy(max_attempts=2, **FAST), faults=plan,
        )
        assert result.failures == ()
        assert result.retries == 1
        assert _canonical(result) == _canonical(baseline)

    def test_worker_death_retried_in_pool_byte_identical(self):
        # The acceptance scenario: one worker hard-exits mid-sweep with
        # retries=2; the pool is rebuilt, every in-flight spec re-driven,
        # and the records match a fault-free run byte for byte.
        baseline = sweep_records([7, 11], until=UNTIL, jobs=2)
        plan = FaultPlan.of(Fault(seed=11, attempt=1, action=FaultAction.DIE))
        result = sweep_records(
            [7, 11], until=UNTIL, jobs=2,
            policy=RetryPolicy(max_attempts=3, **FAST), faults=plan,
        )
        assert result.failures == ()
        assert result.ok
        assert [r.seed for r in result.records] == [7, 11]
        assert _canonical(result) == _canonical(baseline)

    def test_retry_counters_reach_runner_telemetry(self):
        plan = FaultPlan.of(Fault(seed=7, attempt=1, action=FaultAction.RAISE))
        result = sweep_records(
            [7], until=UNTIL, jobs=1,
            policy=RetryPolicy(max_attempts=2, **FAST), faults=plan,
        )
        hub = result.runner_telemetry
        assert hub is not None
        assert hub.metrics.counter_value("runner.retries") == result.retries == 1
        assert hub.metrics.counter_value("runner.failures") == 0
        assert hub.metrics.counter_value("runner.cache_misses") == 1


class TestDegradation:
    def test_exhausted_retries_keep_going(self, tmp_path):
        cache = str(tmp_path / "runs")
        plan = FaultPlan.of(
            Fault(seed=7, attempt=1, action=FaultAction.RAISE, message="boom"),
            Fault(seed=7, attempt=2, action=FaultAction.RAISE, message="boom"),
        )
        result = sweep_records(
            [7, 11], until=UNTIL, jobs=1, cache_dir=cache,
            policy=RetryPolicy(max_attempts=2, **FAST), faults=plan,
        )
        assert [r.seed for r in result.records] == [11]
        assert len(result.failures) == 1
        failure = result.failures[0]
        assert failure.seed == 7
        assert failure.attempts == 2
        assert failure.error_type == "InjectedFault"
        assert "boom" in failure.error_message
        assert not failure.timed_out
        assert "seed 7" in failure.describe()
        # The survivor was cached on completion despite the failure.
        again = sweep_records([11], until=UNTIL, jobs=1, cache_dir=cache)
        assert again.cache_hits == 1
        _no_tmp_files(cache)

    def test_strict_fail_fast_raises_original_error(self):
        plan = FaultPlan.of(Fault(seed=7, attempt=1, action=FaultAction.RAISE))
        with pytest.raises(InjectedFault):
            sweep_records([7], until=UNTIL, jobs=1, faults=plan, strict=True)

    def test_single_attempt_without_policy_records_failure(self):
        plan = FaultPlan.of(Fault(seed=7, attempt=1, action=FaultAction.RAISE))
        result = sweep_records([7], until=UNTIL, jobs=1, faults=plan)
        assert result.records == ()
        assert len(result.failures) == 1
        assert result.failures[0].attempts == 1
        with pytest.raises(ValueError, match="no records survived"):
            result.summary

    def test_die_degrades_to_raise_in_serial_mode(self):
        # A hard exit in a serial sweep would kill the test process; the
        # plan degrades it to an InjectedFault instead.
        plan = FaultPlan.of(Fault(seed=7, attempt=1, action=FaultAction.DIE))
        result = sweep_records([7], until=UNTIL, jobs=1, faults=plan)
        assert len(result.failures) == 1
        assert result.failures[0].error_type == "InjectedFault"


class TestTimeout:
    def test_wedged_worker_times_out_and_retries(self):
        baseline = sweep_records([7], until=UNTIL_TINY, jobs=1)
        plan = FaultPlan.of(
            Fault(seed=7, attempt=1, action=FaultAction.STALL, delay_s=6.0)
        )
        policy = RetryPolicy(max_attempts=2, timeout_s=2.0, **FAST)
        result = sweep_records(
            [7], until=UNTIL_TINY, jobs=2, policy=policy, faults=plan
        )
        assert result.failures == ()
        assert result.timeouts == 1
        assert result.retries == 1
        assert result.runner_telemetry.metrics.counter_value("runner.timeouts") == 1
        assert _canonical(result) == _canonical(baseline)

    def test_timeout_exhaustion_reports_timed_out_failure(self):
        plan = FaultPlan.of(
            Fault(seed=7, attempt=1, action=FaultAction.STALL, delay_s=4.0),
            Fault(seed=7, attempt=2, action=FaultAction.STALL, delay_s=4.0),
        )
        policy = RetryPolicy(max_attempts=2, timeout_s=1.0, **FAST)
        result = sweep_records(
            [7], until=UNTIL_TINY, jobs=2, policy=policy, faults=plan
        )
        assert result.records == ()
        assert len(result.failures) == 1
        failure = result.failures[0]
        assert failure.timed_out
        assert failure.error_type == "SpecTimeoutError"
        assert "timed out" in failure.describe()

    def test_slow_worker_within_budget_succeeds(self):
        plan = FaultPlan.of(
            Fault(seed=7, attempt=1, action=FaultAction.DELAY, delay_s=0.2)
        )
        policy = RetryPolicy(max_attempts=2, timeout_s=60.0, **FAST)
        result = sweep_records(
            [7], until=UNTIL_TINY, jobs=2, policy=policy, faults=plan
        )
        assert result.failures == ()
        assert result.timeouts == 0
        assert result.retries == 0


class TestFaultPlan:
    def test_lookup_matches_seed_and_attempt(self):
        fault = Fault(seed=7, attempt=2, action=FaultAction.RAISE)
        plan = FaultPlan.of(fault)
        assert plan.lookup(7, 2) is fault
        assert plan.lookup(7, 1) is None
        assert plan.lookup(11, 2) is None

    def test_invalid_faults_rejected(self):
        with pytest.raises(ValueError):
            Fault(seed=7, attempt=0, action=FaultAction.RAISE)
        with pytest.raises(ValueError):
            Fault(seed=7, attempt=1, action=FaultAction.DELAY, delay_s=-1.0)
