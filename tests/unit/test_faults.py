"""Fault injection and per-item batch isolation.

The headline acceptance scenario lives here: a ``chase_many`` batch of 8
with 2 injected worker faults completes the other 6 and returns
structured :class:`repro.errors.BatchItemError` objects in the failed
positions — the batch as a whole never dies with a worker.  Also covers
the retry policy (crash faults are transient), the ``raise`` policy,
``reverse_many`` isolation, executor-level deadlines, and the
``FaultPlan`` spec language itself.
"""

from __future__ import annotations

import pytest

from repro import (
    BatchItemError,
    BudgetExhausted,
    ExchangeEngine,
    ExchangeResult,
    FaultInjected,
    FaultPlan,
    Instance,
    Limits,
    ReverseResult,
    SchemaMapping,
    inject_faults,
)
from repro.engine.parallel import ItemOutcome, is_transient, run_batch_isolated
from repro.limits.faults import Fault, trip

MAPPING = SchemaMapping.from_text("P(x, y) -> Q(x, y)")
REVERSE = SchemaMapping.from_text("Q(x, y) -> P(x, y)")

def _instances(n=8):
    # Distinct instances so batch dedup cannot collapse items.
    return [Instance.parse(f"P(a{i}, b{i})") for i in range(n)]


class TestFaultPlan:
    def test_parse_spec(self):
        plan = FaultPlan.parse("crash@1;crash@3:2;slow@2=0.01;exhaust@4")
        assert plan.for_item(0) is None
        assert plan.for_item(1).kind == "crash"
        assert plan.for_item(3).times == 2
        assert plan.for_item(2).kind == "slow"
        assert plan.for_item(2).seconds == pytest.approx(0.01)
        assert plan.for_item(4).kind == "exhaust"

    def test_empty_plan_is_falsy(self):
        assert not FaultPlan()
        assert FaultPlan.parse("")  is None or not FaultPlan.parse("")

    def test_crashes_helper(self):
        plan = FaultPlan.crashes(1, 5)
        assert plan.for_item(1) is not None and plan.for_item(5) is not None
        assert plan.for_item(0) is None

    def test_trip_crash_then_recover(self):
        fault = Fault(kind="crash", item=0, times=1)
        with pytest.raises(FaultInjected):
            trip(fault, attempt=1)
        trip(fault, attempt=2)  # second attempt passes

    def test_trip_exhaust_raises_budget_error(self):
        with pytest.raises(BudgetExhausted):
            trip(Fault(kind="exhaust", item=0), attempt=1)

    def test_transient_classification(self):
        assert is_transient(FaultInjected())
        assert is_transient(OSError("io"))
        assert not is_transient(BudgetExhausted("over"))
        assert not is_transient(ValueError("logic bug"))


class TestRunBatchIsolated:
    def test_serial_isolation(self):
        def fn(payload):
            value, fault, attempt = payload[0], payload[-2], payload[-1]
            trip(fault, attempt)
            return value * 10

        plan = FaultPlan.crashes(1)
        payloads = [(i, plan.for_item(i), 1) for i in range(3)]
        outcomes = run_batch_isolated(payloads, fn)
        assert [o.ok for o in outcomes] == [True, False, True]
        assert outcomes[0].value == 0 and outcomes[2].value == 20
        assert isinstance(outcomes[1].error, FaultInjected)

    def test_serial_retry_recovers(self):
        def fn(payload):
            value, fault, attempt = payload[0], payload[-2], payload[-1]
            trip(fault, attempt)
            return value

        plan = FaultPlan.crashes(1)
        payloads = [(i, plan.for_item(i), 1) for i in range(3)]
        outcomes = run_batch_isolated(payloads, fn, retries=1)
        assert all(o.ok for o in outcomes)
        assert outcomes[1].attempts == 2

    def test_non_transient_not_retried(self):
        calls = []

        def fn(payload):
            calls.append(payload)
            raise ValueError("deterministic bug")

        outcomes = run_batch_isolated([(0, None, 1)], fn, retries=3)
        assert not outcomes[0].ok and outcomes[0].attempts == 1
        assert len(calls) == 1


class TestChaseManyIsolation:
    def test_headline_8_items_2_faults(self):
        """Batch of 8, 2 injected faults -> 6 results + 2 typed errors."""
        engine = ExchangeEngine()
        results = engine.chase_many(
            MAPPING,
            _instances(8),
            faults=FaultPlan.crashes(1, 5),
            on_error="skip",
        )
        assert len(results) == 8
        good = [r for r in results if isinstance(r, ExchangeResult)]
        bad = [r for r in results if isinstance(r, BatchItemError)]
        assert len(good) == 6 and len(bad) == 2
        assert isinstance(results[1], BatchItemError)
        assert isinstance(results[5], BatchItemError)
        assert results[1].index == 1 and results[1].op == "chase"
        assert isinstance(results[1].error, FaultInjected)
        # The survivors are real chase results.
        assert "Q(a0, b0)" in str(results[0].instance)

    def test_headline_parallel(self):
        engine = ExchangeEngine()
        results = engine.chase_many(
            MAPPING,
            _instances(8),
            jobs=4,
            faults=FaultPlan.crashes(1, 5),
            on_error="skip",
        )
        bad = [i for i, r in enumerate(results) if isinstance(r, BatchItemError)]
        assert bad == [1, 5]

    def test_retries_recover_the_batch(self):
        engine = ExchangeEngine(retries=1, on_error="skip")
        results = engine.chase_many(
            MAPPING, _instances(8), faults=FaultPlan.crashes(1, 5)
        )
        assert all(isinstance(r, ExchangeResult) for r in results)

    def test_raise_policy_propagates(self):
        engine = ExchangeEngine()
        with pytest.raises(FaultInjected):
            engine.chase_many(
                MAPPING, _instances(4), faults=FaultPlan.crashes(2)
            )

    def test_failed_items_never_cached(self):
        engine = ExchangeEngine()
        instances = _instances(4)
        engine.chase_many(
            MAPPING, instances, faults=FaultPlan.crashes(2), on_error="skip"
        )
        # Re-run with no faults: item 2 must now succeed (a cached
        # failure would be a correctness bug, a cached partial likewise).
        results = engine.chase_many(MAPPING, instances)
        assert all(isinstance(r, ExchangeResult) for r in results)

    def test_error_counter_in_stats(self):
        engine = ExchangeEngine()
        engine.chase_many(
            MAPPING, _instances(4), faults=FaultPlan.crashes(0), on_error="skip"
        )
        assert engine.stats()["chase"]["errors"] == 1

    def test_ambient_fault_plan(self):
        engine = ExchangeEngine(on_error="skip")
        with inject_faults(FaultPlan.crashes(3)):
            results = engine.chase_many(MAPPING, _instances(4))
        assert isinstance(results[3], BatchItemError)

    def test_batch_deadline_returns_structured_outcomes(self):
        engine = ExchangeEngine(on_error="skip")
        results = engine.chase_many(
            MAPPING,
            _instances(4),
            jobs=2,
            limits=Limits(deadline=0.0),
        )
        assert len(results) == 4
        for item in results:
            if isinstance(item, BatchItemError):
                assert isinstance(item.error, BudgetExhausted)
            else:
                # Items that beat the clock come back partial or complete.
                assert isinstance(item, ExchangeResult)


class TestReverseManyIsolation:
    def test_faulted_reverse_batch(self):
        engine = ExchangeEngine(on_error="skip")
        targets = [Instance.parse(f"Q(a{i}, b{i})") for i in range(4)]
        results = engine.reverse_many(
            REVERSE, targets, faults=FaultPlan.crashes(2)
        )
        assert len(results) == 4
        assert isinstance(results[2], BatchItemError)
        assert results[2].op == "reverse"
        good = [r for r in results if isinstance(r, ReverseResult)]
        assert len(good) == 3

    def test_disjunctive_reverse_batch_isolation(self):
        mapping = SchemaMapping.from_text("P'(x, x) -> T(x) | P(x, x)")
        engine = ExchangeEngine(on_error="skip")
        targets = [Instance.parse(f"P'(a{i}, a{i})") for i in range(3)]
        results = engine.reverse_many(
            mapping, targets, faults=FaultPlan.crashes(1)
        )
        assert isinstance(results[1], BatchItemError)
        assert all(
            isinstance(r, ReverseResult) and len(r.candidates) == 2
            for i, r in enumerate(results)
            if i != 1
        )


class TestBatchItemErrorShape:
    def test_message_carries_op_index_and_cause(self):
        err = BatchItemError(index=3, op="chase", error=OSError("boom"), attempts=2)
        text = str(err)
        assert "chase batch item 3" in text
        assert "2 attempts" in text
        assert "OSError" in text and "boom" in text

    def test_outcome_helper(self):
        ok = ItemOutcome(value=42)
        assert ok.ok and ok.value == 42
        bad = ItemOutcome(error=ValueError("x"))
        assert not bad.ok
