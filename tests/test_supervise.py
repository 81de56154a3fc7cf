"""Tests for the engine's fault boundary: supervision, retry, quarantine.

Workers that crash, hang, or raise are module-level functions (picklable
by reference, as the pool requires); cross-process "fail once, then
succeed" state rides on marker files under ``tmp_path`` because retries
run in a *fresh* worker process by design.
"""

import os
import time

import pytest

from repro.runner import (
    CampaignAborted,
    FailedUnit,
    FailureReport,
    RetryBudget,
    SupervisionPolicy,
    UnitFailure,
    run_supervised,
)

#: Retry without waiting: the backoff schedule is tested separately.
FAST = RetryBudget(max_attempts=3, backoff_base=0.0)


def _square(x):
    return x * x


def _flaky(item):
    """Fail (raise) the first time each marker is seen, succeed after."""
    root, x = item
    marker = os.path.join(root, f"flaky-{x}.seen")
    if not os.path.exists(marker):
        with open(marker, "w"):
            pass
        raise ValueError(f"transient failure on {x}")
    return x * x


def _crashy(item):
    """Hard-kill the worker process the first time each marker is seen."""
    root, x = item
    marker = os.path.join(root, f"crash-{x}.seen")
    if not os.path.exists(marker):
        with open(marker, "w"):
            pass
        os._exit(99)
    return x * x


def _poison(x):
    raise ValueError(f"always bad: {x}")


def _slow_then_fast(item):
    """Sleep past any reasonable deadline on the first attempt only."""
    root, x = item
    marker = os.path.join(root, f"slow-{x}.seen")
    if not os.path.exists(marker):
        with open(marker, "w"):
            pass
        time.sleep(60.0)
    return x * x


class TestRetryBudget:
    def test_backoff_is_exponential_and_capped(self):
        budget = RetryBudget(backoff_base=0.5, backoff_cap=3.0)
        assert budget.delay(1) == 0.5
        assert budget.delay(2) == 1.0
        assert budget.delay(3) == 2.0
        assert budget.delay(4) == 3.0   # capped
        assert budget.delay(10) == 3.0

    def test_zero_base_disables_waiting(self):
        assert RetryBudget(backoff_base=0.0).delay(5) == 0.0


class TestRunSupervised:
    def test_clean_run_preserves_input_order(self):
        policy = SupervisionPolicy(retry=FAST)
        results, quarantined, retries = run_supervised(
            _square, [5, 3, 8, 1], jobs=2, policy=policy)
        assert results == [25, 9, 64, 1]
        assert quarantined == []
        assert retries == 0

    def test_transient_exception_is_retried(self, tmp_path):
        items = [(str(tmp_path), x) for x in range(4)]
        policy = SupervisionPolicy(retry=FAST)
        results, quarantined, retries = run_supervised(
            _flaky, items, jobs=2, policy=policy)
        assert results == [0, 1, 4, 9]
        assert quarantined == []
        assert retries == 4  # every unit failed exactly once

    def test_worker_crash_is_contained_and_retried(self, tmp_path):
        items = [(str(tmp_path), x) for x in range(3)]
        policy = SupervisionPolicy(retry=FAST)
        results, quarantined, retries = run_supervised(
            _crashy, items, jobs=2, policy=policy)
        assert results == [0, 1, 4]
        assert quarantined == []
        assert retries == 3

    def test_poison_unit_is_quarantined_with_attribution(self):
        policy = SupervisionPolicy(
            retry=RetryBudget(max_attempts=2, backoff_base=0.0))
        results, quarantined, retries = run_supervised(
            _poison, [7], jobs=1, policy=policy,
            describe=lambda i: f"unit-{i}", keys=["k" * 40])
        assert len(quarantined) == 1
        failure = quarantined[0]
        assert isinstance(results[0], FailedUnit)
        assert results[0].failure is failure
        assert failure.final
        assert failure.kind == "exception"
        assert failure.attempts == 2
        assert failure.label == "unit-0"
        assert failure.key == "k" * 40
        assert "always bad" in failure.error
        assert "ValueError" in failure.traceback
        assert retries == 1

    def test_deadline_kills_hung_worker_and_retries(self, tmp_path):
        items = [(str(tmp_path), x) for x in range(2)]
        policy = SupervisionPolicy(
            unit_timeout=0.5,
            retry=RetryBudget(max_attempts=2, backoff_base=0.0))
        started = time.monotonic()
        results, quarantined, retries = run_supervised(
            _slow_then_fast, items, jobs=2, policy=policy)
        elapsed = time.monotonic() - started
        assert results == [0, 1]
        assert quarantined == []
        assert retries == 2
        assert elapsed < 30.0  # killed, not waited out

    def test_campaign_retry_budget_bounds_total_retries(self):
        # total=1: the first poison unit consumes the campaign budget;
        # the second quarantines on its first failure
        policy = SupervisionPolicy(
            retry=RetryBudget(max_attempts=5, total=1, backoff_base=0.0))
        results, quarantined, retries = run_supervised(
            _poison, [1, 2], jobs=1, policy=policy)
        assert len(quarantined) == 2
        assert retries == 1
        assert all(isinstance(r, FailedUnit) for r in results)

    def test_on_done_fires_per_completion(self):
        seen = []
        policy = SupervisionPolicy(retry=FAST)
        results, _, _ = run_supervised(
            _square, [2, 3], jobs=1, policy=policy,
            on_done=lambda i, v, lane, latency_s: seen.append(
                (i, v, lane, latency_s >= 0)))
        # each completion names its worker lane and wall time
        assert sorted(seen) == [(0, 4, "w0", True), (1, 9, "w0", True)]
        assert results == [4, 9]

    def test_on_failure_sees_transient_then_final(self):
        attempts = []
        policy = SupervisionPolicy(
            retry=RetryBudget(max_attempts=2, backoff_base=0.0))
        run_supervised(_poison, [1], jobs=1, policy=policy,
                       on_failure=lambda f: attempts.append(f.final))
        assert attempts == [False, True]

    def test_empty_batch_is_a_noop(self):
        results, quarantined, retries = run_supervised(
            _square, [], jobs=4, policy=SupervisionPolicy(retry=FAST))
        assert results == []
        assert quarantined == []
        assert retries == 0


class TestFailureReport:
    def _failure(self, **overrides):
        base = dict(index=3, label="fig2-flash seed=1", key="ab" * 20,
                    kind="exception", error="ValueError: nope",
                    attempts=2, final=True)
        base.update(overrides)
        return UnitFailure(**base)

    def test_ok_until_a_failure_is_added(self):
        report = FailureReport()
        assert report.ok
        assert report.format() == "no failures"
        report.add(self._failure())
        assert not report.ok

    def test_format_attributes_every_failure(self):
        report = FailureReport()
        report.add(self._failure())
        report.retries = 4
        text = report.format()
        assert "1 unit(s) quarantined (4 retries spent)" in text
        assert "fig2-flash seed=1" in text
        assert "after 2 attempt(s)" in text
        assert "ValueError: nope" in text
        assert ("ab" * 20)[:12] in text

    def test_records_are_flat_and_export_ready(self):
        record = self._failure().record()
        assert record["unit"] == 3
        assert record["kind"] == "exception"
        assert record["final"] is True

    def test_campaign_aborted_carries_the_report(self):
        report = FailureReport()
        report.add(self._failure())
        exc = CampaignAborted(report)
        assert exc.report is report
        assert "quarantined" in str(exc)
