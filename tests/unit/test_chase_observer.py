"""The chase kernels' observer contract (repro.obs.observer).

Every kernel — the tuple chase (delta and naive), the disjunctive chase
and the SQL chase on sqlite — reports through one ``ChaseObserver``:
a recording observer's ``cell`` totals must reconcile with what the
kernel returns.  With nothing attached, the kernels must read no clock
and build no event: counted here by monkeypatching, so the
nothing-attached path is checked deterministically rather than timed.
"""

from __future__ import annotations

import time
from collections import Counter

import pytest

from repro import Instance, Limits, chase, disjunctive_chase, parse_dependencies
from repro.obs import ChaseObserver, ChaseProfiler, Tracer, chase_observer
from repro.obs.events import BranchClosed, BranchOpened, NullMinted, TriggerFired
from repro.store import SqliteStore, sql_chase
from repro.workloads.generators import chain_graph_instance, path_closure_mapping

CLOSURE = path_closure_mapping().dependencies
CHAIN = chain_graph_instance(8)
# Nulls in the input and minted nulls both reach the kernels' counters.
MINTING = parse_dependencies(
    "E(x, y) -> EXISTS z . F(x, z); F(x, z) & E(x, y) -> G(z, y)"
)
WITH_NULLS = Instance.parse("E(a, b), E(b, N1), E(N1, c)")
REVERSE = parse_dependencies("P(x, y) -> S(x) | T(x, y); S(x) -> EXISTS z . U(x, z)")
TARGET = Instance.parse("P(a, b), P(b, c), P(a, c)")


class RecordingObserver(ChaseObserver):
    """Keeps every hook call, for reconciliation."""

    def __init__(self) -> None:
        self.cells = []
        self.firings = []
        self.branches = []
        self.exhaustions = []

    def cell(self, dependency, round_number, seconds, considered, fired,
             facts, nulls, branch=None):
        self.cells.append((round_number, considered, fired, facts, nulls))

    def fired(self, dependency, index, round_number, binding, full, added,
              branch=None, disjunct_index=None):
        self.firings.append((len(added), len(full) - len(binding)))

    def branch(self, kind, branch, reason=None, facts=0, parent=None,
               disjunct_index=None, round_number=0):
        self.branches.append((kind, reason))

    def exhausted(self, diagnosis):
        self.exhaustions.append(diagnosis)

    def total(self, column: int) -> int:
        return sum(cell[column] for cell in self.cells)


def _tuple(evaluation):
    def run(deps, instance, **kwargs):
        return chase(instance, deps, evaluation=evaluation, **kwargs)

    return run


def _sql(deps, instance, **kwargs):
    store = SqliteStore(":memory:")
    store.add_all(instance.facts)
    return sql_chase(store, deps, **kwargs)


FORWARD = {
    "tuple-delta": _tuple("delta"),
    "tuple-naive": _tuple("naive"),
    "sql-sqlite": _sql,
}


def _disjunctive(**kwargs):
    return disjunctive_chase(TARGET, REVERSE, **kwargs)


class TestCellsReconcile:
    @pytest.mark.parametrize("kernel", sorted(FORWARD))
    @pytest.mark.parametrize(
        "deps, instance",
        [(CLOSURE, CHAIN), (MINTING, WITH_NULLS)],
    )
    def test_forward_cells_match_the_result(self, kernel, deps, instance):
        observer = RecordingObserver()
        result = FORWARD[kernel](deps, instance, profiler=observer)
        assert observer.total(1) == result.triggers_considered
        assert observer.total(2) == result.steps
        generated = (
            result.generated_count
            if kernel == "sql-sqlite"
            else len(result.generated)
        )
        assert observer.total(3) == generated
        assert observer.total(4) == len(result.instance.nulls - instance.nulls)
        assert max(cell[0] for cell in observer.cells) == result.rounds
        assert not observer.exhaustions

    @pytest.mark.parametrize("kernel", ["tuple-delta", "tuple-naive"])
    def test_tuple_firings_match_the_result(self, kernel):
        observer = RecordingObserver()
        result = FORWARD[kernel](MINTING, WITH_NULLS, profiler=observer)
        assert len(observer.firings) == result.steps
        assert sum(added for added, _ in observer.firings) == len(result.generated)

    def test_disjunctive_cells_match_the_branch_tree(self):
        observer = RecordingObserver()
        branches = _disjunctive(profiler=observer)
        kinds = Counter(kind for kind, _ in observer.branches)
        reasons = Counter(reason for kind, reason in observer.branches if reason)
        # One cell per pop that fired; each firing forks one child per disjunct.
        assert len(observer.cells) == kinds["forked"]
        assert observer.total(2) == len(observer.firings)
        assert kinds["opened"] == 1 + len(observer.firings)
        assert kinds["opened"] == kinds["forked"] + kinds["closed"]
        assert reasons["finished"] == len(branches)
        assert observer.total(3) == sum(added for added, _ in observer.firings)
        assert observer.total(4) == sum(minted for _, minted in observer.firings)

    def test_exhausted_is_reported_once(self):
        observer = RecordingObserver()
        result = chase(
            Instance.parse("P(a, b)"),
            parse_dependencies("P(x, y) -> EXISTS z . P(y, z)"),
            limits=Limits(max_rounds=3),
            profiler=observer,
        )
        assert observer.exhaustions == [result.exhausted]


@pytest.mark.no_ambient_trace
class TestNothingAttached:
    @pytest.fixture
    def counted(self, monkeypatch):
        counts = Counter()
        clock = time.perf_counter

        def counting_clock():
            counts["perf_counter"] += 1
            return clock()

        monkeypatch.setattr(time, "perf_counter", counting_clock)
        for cls in (TriggerFired, NullMinted, BranchOpened, BranchClosed):
            original = cls.__init__

            def counting_init(self, *args, _name=cls.__name__,
                              _original=original, **kwargs):
                counts[_name] += 1
                _original(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting_init)
        return counts

    RUNS = {
        "tuple-delta": lambda **kw: FORWARD["tuple-delta"](MINTING, WITH_NULLS, **kw),
        "tuple-naive": lambda **kw: FORWARD["tuple-naive"](MINTING, WITH_NULLS, **kw),
        "sql-sqlite": lambda **kw: FORWARD["sql-sqlite"](CLOSURE, CHAIN, **kw),
        "disjunctive": _disjunctive,
    }

    @pytest.mark.parametrize("kernel", sorted(RUNS))
    def test_no_clock_and_no_events(self, kernel, counted):
        self.RUNS[kernel]()
        assert counted == Counter()

    @pytest.mark.parametrize("kernel", sorted(RUNS))
    def test_attached_observers_are_counted(self, kernel, counted):
        # The control: the same counters do see an attached observer.
        self.RUNS[kernel](tracer=Tracer(), profiler=ChaseProfiler())
        assert counted["perf_counter"] > 0
        if kernel != "sql-sqlite":  # the SQL chase fires whole sets
            assert counted["TriggerFired"] > 0

    def test_resolution_is_none_with_nothing_attached(self):
        assert chase_observer() is None
        assert chase_observer(reporter=object()) is None
