"""Resource governance: ``Limits``, ``Budget``, and partial chase results.

Covers the config algebra (merge/replace/resolve), the cooperative
budget (rounds, gauges, deadline, cancellation, ambient scope), and the
partial-result contract of both chases: on exhaustion the run stops at a
sound sub-instance tagged with an ``Exhausted`` diagnosis instead of
raising — unless ``on_exhausted="raise"`` asks for the legacy errors.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter

import pytest

from repro import (
    Budget,
    BudgetExhausted,
    CancelToken,
    Cancelled,
    ChaseNonTermination,
    ExchangeEngine,
    Instance,
    Limits,
    SchemaMapping,
    budget_scope,
    chase,
    disjunctive_chase,
    parse_dependencies,
    parse_dependency,
)
from repro.chase import disjunctive
from repro.chase.disjunctive import Branches, reverse_disjunctive_chase
from repro.homs.quotient import enumerate_quotients
from repro.homs.search import find_homomorphism
from repro.limits import Exhausted, cancel_scope, resolve_limits
from repro.obs import ProgressReporter, Tracer, progress_scope

from .test_homs import chain

RECURSIVE = parse_dependency("P(x, y) -> EXISTS z . P(y, z)")
PAB = Instance.parse("P(a, b)")
# The module, not the ``core`` function ``repro.homs`` exports by that name.
cores = importlib.import_module("repro.homs.core")


class TestLimitsConfig:
    def test_unlimited_by_default(self):
        assert Limits().unlimited
        assert not Limits(max_rounds=5).unlimited
        assert not Limits(deadline=1.0).unlimited

    def test_raises_property(self):
        assert Limits(on_exhausted="raise").raises
        assert not Limits().raises

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            Limits(on_exhausted="explode")

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError):
            Limits(max_rounds=-1)
        with pytest.raises(ValueError):
            Limits(deadline=-0.5)

    def test_replace_returns_new_object(self):
        base = Limits(max_rounds=5)
        other = base.replace(max_facts=10)
        assert other.max_rounds == 5 and other.max_facts == 10
        assert base.max_facts is None

    def test_merge_override_wins_on_set_fields(self):
        base = Limits(max_rounds=5, max_facts=100, on_exhausted="raise")
        override = Limits(max_rounds=9)
        merged = base.merge(override)
        assert merged.max_rounds == 9
        assert merged.max_facts == 100
        # The override's policy always wins, even when defaulted.
        assert merged.on_exhausted == "partial"

    def test_resolve_limits(self):
        default = Limits(max_rounds=5)
        assert resolve_limits(None, None) is None
        assert resolve_limits(None, default) is default
        got = resolve_limits(Limits(max_facts=3), default)
        assert got.max_rounds == 5 and got.max_facts == 3

    def test_describe_mentions_set_bounds(self):
        text = Limits(max_rounds=4, deadline=0.5).describe()
        assert "max_rounds=4" in text and "deadline" in text


class TestBudget:
    def test_rounds_exhaust_after_limit(self):
        budget = Budget(Limits(max_rounds=2))
        assert budget.start_round("t") is None
        assert budget.start_round("t") is None
        diagnosis = budget.start_round("t")
        assert diagnosis is not None and diagnosis.resource == "rounds"

    def test_fact_gauge(self):
        budget = Budget(Limits(max_facts=10))
        assert budget.charge("t", facts=10) is None
        diagnosis = budget.charge("t", facts=11)
        assert diagnosis is not None and diagnosis.resource == "facts"

    def test_first_mark_wins(self):
        budget = Budget(Limits(max_facts=1, max_nulls=1))
        first = budget.charge("t", facts=2)
        second = budget.charge("t", nulls=2)
        assert first.resource == "facts"
        assert second.resource == "facts"  # sticky diagnosis

    def test_deadline(self):
        budget = Budget(Limits(deadline=0.0))
        diagnosis = budget.checkpoint("t")
        assert diagnosis is not None and diagnosis.resource == "deadline"

    def test_cancellation(self):
        token = CancelToken()
        budget = Budget(Limits(), token=token)
        assert budget.checkpoint("t") is None
        token.cancel()
        diagnosis = budget.checkpoint("t")
        assert diagnosis is not None and diagnosis.resource == "cancelled"
        with pytest.raises(Cancelled):
            budget.raise_exhausted()

    def test_remaining_time(self):
        assert Budget(Limits()).remaining_time() is None
        assert Budget(Limits(deadline=60.0)).remaining_time() > 0

    def test_raise_exhausted_maps_rounds_to_nontermination(self):
        budget = Budget(Limits(max_rounds=1))
        budget.start_round("chase")
        budget.start_round("chase")
        with pytest.raises(ChaseNonTermination, match="did not terminate"):
            budget.raise_exhausted()


class TestChasePartialResults:
    def test_partial_result_instead_of_raise(self):
        result = chase(PAB, [RECURSIVE], limits=Limits(max_rounds=3))
        assert result.exhausted is not None
        assert result.exhausted.resource == "rounds"
        assert not result.completed
        assert result.rounds == 3

    def test_partial_is_prefix_of_full_run(self):
        partial = chase(PAB, [RECURSIVE], limits=Limits(max_rounds=3))
        fuller = chase(PAB, [RECURSIVE], limits=Limits(max_rounds=6))
        assert set(partial.instance.facts) <= set(fuller.instance.facts)
        assert partial.generated <= fuller.generated

    def test_completed_run_has_no_diagnosis(self):
        deps = parse_dependencies("P(x, y) -> Q(x, y)")
        result = chase(PAB, deps, limits=Limits(max_rounds=50))
        assert result.completed and result.exhausted is None

    def test_max_facts_limit(self):
        result = chase(PAB, [RECURSIVE], limits=Limits(max_facts=4))
        assert result.exhausted is not None
        assert result.exhausted.resource == "facts"

    def test_max_nulls_limit(self):
        result = chase(PAB, [RECURSIVE], limits=Limits(max_nulls=3))
        assert result.exhausted is not None
        assert result.exhausted.resource == "nulls"

    def test_deadline_limit(self):
        result = chase(PAB, [RECURSIVE], limits=Limits(deadline=0.0))
        assert result.exhausted is not None
        assert result.exhausted.resource == "deadline"

    def test_raise_mode_keeps_legacy_error(self):
        with pytest.raises(ChaseNonTermination, match="did not terminate"):
            chase(PAB, [RECURSIVE], limits=Limits(max_rounds=3, on_exhausted="raise"))

    def test_exhaustion_event_on_tracer(self):
        tracer = Tracer()
        chase(PAB, [RECURSIVE], limits=Limits(max_rounds=3), tracer=tracer)
        events = [e for e in tracer.events if e.kind == "resource_exhausted"]
        assert len(events) == 1 and events[0].resource == "rounds"
        assert tracer.metrics.counter("budget.exhausted.rounds") == 1
        assert tracer.metrics.counter("chase.nontermination") == 1

    def test_explicit_budget_shared_across_calls(self):
        budget = Budget(Limits(max_rounds=4))
        first = chase(PAB, [RECURSIVE], budget=budget)
        assert first.exhausted is not None
        # The budget is spent: a second call exhausts immediately.
        second = chase(PAB, [RECURSIVE], budget=budget)
        assert second.exhausted is not None and second.rounds == 0

    def test_ambient_budget_scope(self):
        with budget_scope(Limits(max_rounds=3)) as budget:
            result = chase(PAB, [RECURSIVE])
            assert result.exhausted is not None
            assert result.rounds == 3
            assert budget.exhausted is not None
        # Outside the scope the legacy default guard applies again.
        with pytest.raises(ChaseNonTermination):
            chase(PAB, [RECURSIVE])


class TestDisjunctivePartialResults:
    DEPS = parse_dependencies("P(x, y) -> EXISTS z . P(y, z)")

    def test_partial_branches_tagged(self):
        branches = disjunctive_chase(PAB, self.DEPS, limits=Limits(max_rounds=3))
        assert isinstance(branches, Branches)
        assert branches.exhausted is not None
        assert not branches.completed
        assert all(isinstance(b, Instance) for b in branches)

    def test_branches_is_still_a_list(self):
        deps = parse_dependencies("P'(x, x) -> T(x) | P(x, x)")
        branches = disjunctive_chase(Instance.parse("P'(a, a)"), deps)
        assert isinstance(branches, list) and len(branches) == 2
        assert branches.completed

    def test_branch_cap_partial(self):
        deps = parse_dependencies(
            "S(x) -> A(x) | B(x); S(x) -> C(x) | D(x); S(x) -> E(x) | F(x)"
        )
        branches = disjunctive_chase(
            Instance.parse("S(a)"), deps, limits=Limits(max_branches=3)
        )
        assert branches.exhausted is not None
        assert branches.exhausted.resource == "branches"

    def test_branch_cap_raise_mode_message(self):
        deps = parse_dependencies(
            "S(x) -> A(x) | B(x); S(x) -> C(x) | D(x); S(x) -> E(x) | F(x)"
        )
        with pytest.raises(BudgetExhausted, match="max_branches=3"):
            disjunctive_chase(
                Instance.parse("S(a)"),
                deps,
                limits=Limits(max_branches=3, on_exhausted="raise"),
            )

    @pytest.mark.parametrize(
        "instance, deps, limits",
        [
            # Rounds: the diverging branch closes as nonterminating and
            # must not close again when the frontier is flushed.
            (PAB, [RECURSIVE], Limits(max_rounds=3)),
            (
                Instance.parse("R(a), R(b), R(c), R(d)"),
                parse_dependencies("R(x) -> P(x) | Q(x)"),
                Limits(max_branches=5),
            ),
        ],
    )
    def test_every_branch_closes_once_for_every_consumer(
        self, instance, deps, limits
    ):
        tracer = Tracer()
        with progress_scope(ProgressReporter(stream=None)) as reporter:
            branches = disjunctive_chase(
                instance, deps, limits=limits, tracer=tracer
            )
        assert branches.exhausted is not None
        closed = [e for e in tracer.events if e.kind == "branch_closed"]
        ids = Counter(e.branch for e in closed)
        assert max(ids.values()) == 1, ids
        assert Counter(e.reason for e in closed) == reporter.close_reasons
        assert reporter.branches_closed == len(closed)

    def test_diverging_branch_closes_as_nonterminating(self):
        tracer = Tracer()
        disjunctive_chase(
            PAB, [RECURSIVE], limits=Limits(max_rounds=3), tracer=tracer
        )
        (closed,) = [e for e in tracer.events if e.kind == "branch_closed"]
        assert closed.reason == "nonterminating"
        node = tracer.provenance.branches[closed.branch]
        assert node.closed == "nonterminating"

    def test_exhausted_branch_closed_in_trace(self):
        tracer = Tracer()
        disjunctive_chase(
            PAB, self.DEPS, limits=Limits(max_rounds=3), tracer=tracer
        )
        closed = [e for e in tracer.events if e.kind == "branch_closed"]
        assert any(e.reason in ("nonterminating", "exhausted") for e in closed)


class TestHomSearchGovernance:
    def test_budget_cuts_off_hom_search(self):
        # A 3-cycle has no homomorphism into a long path, so the search
        # backtracks across well over the checkpoint interval of probes.
        source = Instance.parse("E(X, Y), E(Y, Z), E(Z, X)")
        target = Instance.parse(
            ", ".join(f"E(a{i}, a{i + 1})" for i in range(400))
        )
        with budget_scope(Limits(deadline=0.0)):
            with pytest.raises(BudgetExhausted):
                find_homomorphism(source, target)

    def test_unlimited_search_unaffected(self):
        source = Instance.parse("E(X, Y)")
        target = Instance.parse("E(a, b)")
        assert find_homomorphism(source, target) is not None


class OnMinimize:
    """A progress reporter that runs *action* once minimization starts."""

    def __init__(self, action) -> None:
        self.action = action

    def heartbeat(self, where, rounds, steps, **gauges):
        if where == "minimize_branches":
            self.action()


class TestReverseMinimizationGovernance:
    """The budget keeps governing ``reverse_disjunctive_chase`` after the
    chase: minimization runs under it too."""

    SIGMA_STAR = SchemaMapping.from_text(
        "P'(x, y) & x != y -> P(x, y)\nP'(x, x) -> T(x) | P(x, x)"
    )
    TARGET = Instance.parse("P'(X, Y), P'(Y, a)")

    def reverse(self, budget=None, minimize=True, target=TARGET):
        return reverse_disjunctive_chase(
            target,
            self.SIGMA_STAR.dependencies,
            result_relations=["P", "T"],
            minimize=minimize,
            budget=budget,
        )

    def chased(self, target=TARGET, budget=None):
        """The deduplicated branch list of the worlds a minimized call chases.

        A minimized call chases the observable closure of the target
        (DESIGN.md D10), in order, until a world's chase runs out.
        """
        dependencies = self.SIGMA_STAR.dependencies
        branches = []
        for quotient in enumerate_quotients(target, observed_by=dependencies):
            world = disjunctive_chase(quotient.instance, dependencies, budget=budget)
            branches += [branch.restrict(["P", "T"]) for branch in world]
            if world.exhausted is not None:
                break
        return sorted(set(branches), key=lambda inst: (len(inst), str(inst)))

    def assert_dominates(self, branches, raw):
        """Every raw branch receives a homomorphism from a listed one."""
        for branch in raw:
            assert any(
                find_homomorphism(listed, branch) is not None for listed in branches
            )

    def cancelling_budget(self, on_exhausted):
        token = CancelToken()
        return Budget(
            Limits(on_exhausted=on_exhausted),
            token=token,
            reporter=OnMinimize(lambda: token.cancel("during minimization")),
        )

    def test_target_really_minimizes(self):
        assert len(self.reverse()) < len(self.reverse(minimize=False))

    def test_partial_mode_returns_deduplicated_unminimized_set(self):
        branches = self.reverse(self.cancelling_budget("partial"))
        assert branches.exhausted is not None
        assert branches.exhausted.resource == "cancelled"
        assert branches.exhausted.where == "minimize_branches"
        assert list(branches) == self.chased()
        self.assert_dominates(branches, self.reverse(minimize=False))

    def test_raise_mode_raises_typed_error(self):
        with pytest.raises(Cancelled) as info:
            self.reverse(self.cancelling_budget("raise"))
        assert info.value.diagnosis.where == "minimize_branches"

    def test_deadline_passing_during_minimization(self):
        now = [0.0]

        def expire():
            now[0] = 2.0

        budget = Budget(
            Limits(deadline=1.0, on_exhausted="partial"),
            clock=lambda: now[0],
            reporter=OnMinimize(expire),
        )
        branches = self.reverse(budget)
        assert branches.exhausted.resource == "deadline"
        assert branches.exhausted.where == "minimize_branches"
        assert list(branches) == self.chased()
        self.assert_dominates(branches, self.reverse(minimize=False))

    def test_budget_spent_by_the_chase_skips_minimization(self):
        wide = Instance.parse("P'(X, Y), P'(Y, a), P'(a, a)")

        def capped():
            return Budget(Limits(max_branches=3, on_exhausted="partial"))

        branches = self.reverse(capped(), True, wide)
        assert branches.exhausted.resource == "branches"
        assert list(branches) == self.chased(wide, capped())
        self.assert_dominates(branches, self.reverse(capped(), False, wide))

    def test_exhausted_chase_never_enters_minimization(self, monkeypatch):
        from repro import ExchangeEngine

        entered = []
        monkeypatch.setattr(
            importlib.import_module("repro.chase.disjunctive"),
            "minimize_branches",
            lambda branches: entered.append(1),
        )
        recursive = SchemaMapping.from_text("T(x, y) -> EXISTS z . T(y, z) | Q(x)")
        result = ExchangeEngine().reverse(
            recursive, Instance.parse("T(a, b)"), limits=Limits(deadline=0.05)
        )
        assert result.exhausted.resource == "deadline"
        assert entered == []
        assert list(result.candidates) == sorted(
            set(result.candidates), key=lambda inst: (len(inst), str(inst))
        )


class TestReverseDeadlineOvershoot:
    """Past its deadline a reverse chase returns promptly: deduplicating
    the partial branches prints only those whose size ties another's."""

    RECURSIVE = SchemaMapping.from_text("T(x, y) -> EXISTS z . T(y, z) | Q(x)")

    @pytest.mark.parametrize("deadline", [0.1, 0.3, 0.5])
    def test_prints_only_branches_that_tie_in_size(self, deadline, monkeypatch):
        printed = Counter()
        render = disjunctive.render_instances

        def counted(instances):
            instances = list(instances)
            printed.update(instances)
            return render(instances)

        monkeypatch.setattr(disjunctive, "render_instances", counted)
        started = time.perf_counter()
        branches = reverse_disjunctive_chase(
            Instance.parse("T(a, b)"),
            self.RECURSIVE.dependencies,
            limits=Limits(deadline=deadline),
        )
        elapsed = time.perf_counter() - started
        assert branches.exhausted.resource == "deadline"
        sizes = Counter(len(branch) for branch in branches)
        assert set(printed) == {b for b in branches if sizes[len(b)] > 1}
        assert sizes.most_common(1)[0][1] < len(branches)
        # The work, not the clock, is the tight check; this bound only
        # catches a return that waits for nothing.
        assert elapsed < deadline * 1.5 + 0.5
        assert list(branches) == sorted(
            set(branches), key=lambda inst: (len(inst), str(inst))
        )


class TestReverseCoringBudget:
    """``ExchangeEngine.reverse(take_core=True)`` cores under the call's
    budget: once it is gone no probe starts, the candidate being folded
    keeps its last fold, the rest stay as they are, and nothing partial
    is cached."""

    RECURSIVE = SchemaMapping.from_text("T(x, y) -> EXISTS z . T(y, z) | Q(x)")
    #: A plain reverse mapping: its one candidate is a copy of the target.
    COPY = SchemaMapping.from_text("T(x, y) -> S(x, y)\nQ(x) -> R(x)")

    @pytest.fixture
    def probes(self, monkeypatch):
        """Per core probe, whether its budget had run out when it started."""
        started = []
        search = cores._homomorphisms

        def counted(*args, budget=None, **kwargs):
            started.append(budget is not None and budget.exhausted is not None)
            return search(*args, budget=budget, **kwargs)

        monkeypatch.setattr(cores, "_homomorphisms", counted)
        return started

    @pytest.mark.parametrize("deadline", [0.1, 0.3, 0.5])
    def test_a_chase_that_spent_the_deadline_is_not_cored(self, deadline, probes):
        started = time.perf_counter()
        result = ExchangeEngine().reverse(
            self.RECURSIVE,
            Instance.parse("T(a, b)"),
            take_core=True,
            limits=Limits(deadline=deadline),
        )
        elapsed = time.perf_counter() - started
        assert result.exhausted.resource == "deadline"
        assert result.exhausted.where == "disjunctive_chase"
        assert len(result.candidates) > 1
        assert probes == []  # the chase spent the budget the coring shares
        # The work is the tight check; this bound only catches a return
        # that waits for nothing (coring these took about 56 s before).
        assert elapsed < deadline * 1.5 + 0.5

    @pytest.mark.parametrize("deadline", [0.1, 0.3, 0.5])
    def test_coring_stops_at_the_deadline(self, deadline, probes):
        target = chain(600)  # about 6 s to core on a 2-vCPU host
        engine = ExchangeEngine()
        started = time.perf_counter()
        result = engine.reverse(
            self.COPY, target, take_core=True, limits=Limits(deadline=deadline)
        )
        elapsed = time.perf_counter() - started
        assert result.exhausted.resource == "deadline"
        # Between two probes, or inside one (the search checks too).
        assert result.exhausted.where in ("core", "hom_search")
        assert probes and not any(probes)
        assert len(probes) < len(target) - 3  # a full coring probes each null fact
        assert result.candidates == (engine.exchange(self.COPY, target).instance,)
        assert engine.stats()["core"]["entries"] == 0
        assert elapsed < deadline * 1.5 + 0.5

    def test_the_last_fold_is_kept_and_nothing_partial_is_cached(self, monkeypatch):
        # A 12-fact path out of ``b`` that the first probe folds onto
        # the chain, which is its own core.
        padding = ["T(b, A0)"] + [f"T(A{i}, A{i + 1})" for i in range(11)]
        target = chain(40).union(Instance.parse(", ".join(padding)))
        engine = ExchangeEngine()
        copied = engine.exchange(self.COPY, target).instance
        search = cores._homomorphisms
        with cancel_scope() as token:

            def fold_then_cancel(*args, **kwargs):
                for step in search(*args, **kwargs):
                    token.cancel("after the first fold")
                    yield step

            monkeypatch.setattr(cores, "_homomorphisms", fold_then_cancel)
            partial = engine.reverse(
                self.COPY, target, take_core=True, limits=Limits(deadline=60)
            )
            monkeypatch.undo()
        assert partial.exhausted.resource == "cancelled"
        assert partial.exhausted.where == "core"
        (folded,) = partial.candidates
        assert folded.facts < copied.facts and len(copied) - len(folded) == 12
        assert engine.stats()["core"]["entries"] == 0
        complete = engine.reverse(self.COPY, target, take_core=True)
        assert complete.exhausted is None
        assert complete.candidates == (cores.core(copied),) == (folded,)
        assert engine.stats()["core"]["entries"] == 1


class TestEngineLimits:
    def test_engine_exchange_partial_not_cached(self):
        from repro import ExchangeEngine

        engine = ExchangeEngine()
        mapping = SchemaMapping.from_text("P(x, y) -> EXISTS z . P(y, z)")
        partial = engine.exchange(mapping, PAB, limits=Limits(max_rounds=3))
        assert partial.exhausted is not None
        # A later unlimited-enough call must NOT see the partial result.
        full = engine.exchange(mapping, PAB, limits=Limits(max_rounds=6))
        assert not full.cached
        assert set(partial.instance.facts) <= set(full.instance.facts)

    def test_completed_results_cache_across_limits(self):
        from repro import ExchangeEngine

        engine = ExchangeEngine()
        mapping = SchemaMapping.from_text("P(x, y) -> Q(x, y)")
        first = engine.exchange(mapping, PAB, limits=Limits(max_rounds=50))
        second = engine.exchange(mapping, PAB, limits=Limits(max_rounds=99))
        assert first.completed and second.cached

    def test_facade_limits_passthrough(self):
        mapping = SchemaMapping.from_text("P(x, y) -> EXISTS z . P(y, z)")
        result = mapping.exchange(PAB, limits=Limits(max_rounds=3))
        assert result.exhausted is not None
        instance = mapping.chase(PAB, limits=Limits(max_rounds=3))
        assert isinstance(instance, Instance)
