"""Unit tests for the mapping → SQL plan compiler and sql_chase."""

import pytest

from repro.chase.standard import chase
from repro.errors import BudgetExhausted
from repro.instance import Instance, fact
from repro.limits import Limits
from repro.logic.dependencies import DisjunctiveTgd, Tgd
from repro.parsing.parser import parse_dependencies, parse_dependency
from repro.store import SqliteStore, in_sql_fragment, sql_chase
from repro.store.sqlplan import SqlPlanError, compile_tgd


class _OpaqueGuard:
    """A guard kind the SQL dialect does not know: sql_chase rejects it.

    Implements the duck-typed guard protocol the tuple chase uses
    (``holds``/``substitute_terms``) but is neither an ``Inequality``
    nor a ``ConstantGuard``, so ``in_sql_fragment`` must reject it.
    Semantically it is always true.
    """

    def __init__(self, term):
        self.term = term

    def holds(self, binding):
        return True

    def substitute_terms(self, mapping):
        return self

    def is_trivially_false(self):
        return False


def _load(instance: Instance) -> SqliteStore:
    store = SqliteStore(":memory:")
    store.add_all(instance.facts)
    return store


def _memory_chase(instance, text):
    return chase(instance, parse_dependencies(text)).instance


class TestFragment:
    def test_plain_tgd_in_fragment(self):
        dep = parse_dependency("P(x, y) -> Q(x, y)")
        assert in_sql_fragment(dep)

    def test_inequality_guard_in_fragment(self):
        dep = parse_dependency("P(x, y) & x != y -> Q(x, y)")
        assert in_sql_fragment(dep)

    def test_constant_guard_in_fragment(self):
        # The tagged encoding makes Constant(x) a SQL prefix test.
        dep = parse_dependency("P(x, y) & Constant(x) -> Q(x, y)")
        assert in_sql_fragment(dep)
        plan = compile_tgd(dep, 0, {"P": ("r0", 2), "Q": ("r1", 2)})
        assert plan is not None
        assert "SUBSTR" in plan.trigger_sql and "'n:'" in plan.trigger_sql

    def test_unknown_guard_outside_fragment(self):
        dep = parse_dependency("P(x, y) -> Q(x, y)")
        guarded = Tgd(
            premise=dep.premise,
            conclusion=dep.conclusion,
            guards=(_OpaqueGuard(next(iter(dep.frontier))),),
        )
        assert not in_sql_fragment(guarded)
        with pytest.raises(SqlPlanError):
            compile_tgd(guarded, 0, {"P": ("r0", 2), "Q": ("r1", 2)})

    def test_disjunctive_rejected_outright(self):
        dep = parse_dependency("P(x) -> Q(x) | R(x)")
        assert isinstance(dep, DisjunctiveTgd)
        store = _load(Instance.parse("P(a)"))
        with pytest.raises(SqlPlanError):
            sql_chase(store, [dep])

    def test_frozen_store_rejected(self):
        store = _load(Instance.parse("P(a, b)"))
        store.freeze()
        with pytest.raises(SqlPlanError):
            sql_chase(store, parse_dependencies("P(x, y) -> Q(x, y)"))


class TestCompiledExecution:
    def test_full_tgd_identical_to_memory_chase(self):
        text = "P(x, y, z) -> Q(x, y) & R(y, z)"
        source = Instance.parse("P(a, b, c), P(a, b, d), P(e, e, e)")
        store = _load(source)
        result = sql_chase(store, parse_dependencies(text))
        assert result.compiled == 1
        assert result.completed
        assert result.instance.facts == _memory_chase(source, text).facts

    def test_existentials_hom_equivalent(self):
        from repro.homs.search import is_hom_equivalent

        text = "P(x, y) -> Q(x, z)"
        source = Instance.parse("P(a, b), P(c, d)")
        store = _load(source)
        result = sql_chase(store, parse_dependencies(text))
        reference = _memory_chase(source, text)
        got = result.instance
        assert len(got) == len(reference)
        assert is_hom_equivalent(got, reference)
        # Two distinct triggers, two distinct fresh nulls.
        assert len(got.nulls) == 2

    def test_restricted_not_oblivious(self):
        # A witnessed trigger must not fire: P(a,b) with Q(a,c) already
        # present satisfies P(x,y) -> Q(x,z) without minting.
        store = _load(Instance.parse("P(a, b), Q(a, c)"))
        result = sql_chase(store, parse_dependencies("P(x, y) -> Q(x, z)"))
        assert result.steps == 0
        assert result.instance.facts == Instance.parse("P(a, b), Q(a, c)").facts

    def test_frontier_distinct_fires_once(self):
        # Same frontier value reached by two premise rows → one trigger.
        store = _load(Instance.parse("P(a, b), P(a, c)"))
        result = sql_chase(store, parse_dependencies("P(x, y) -> S(x)"))
        assert result.steps == 1
        assert fact("S", "a") in result.instance.facts

    def test_inequality_guard_enforced(self):
        text = "P(x, y) & x != y -> Q(x, y)"
        source = Instance.parse("P(a, a), P(a, b)")
        store = _load(source)
        result = sql_chase(store, parse_dependencies(text))
        assert result.compiled == 1
        assert result.instance.facts == _memory_chase(source, text).facts
        assert fact("Q", "a", "b") in result.instance.facts
        assert fact("Q", "a", "a") not in result.instance.facts

    def test_join_premise(self):
        text = "E(x, y) & E(y, z) -> T(x, z)"
        source = Instance.parse("E(a, b), E(b, c), E(c, d)")
        store = _load(source)
        result = sql_chase(store, parse_dependencies(text))
        assert result.instance.facts == _memory_chase(source, text).facts

    def test_constants_in_premise_and_conclusion(self):
        text = 'P("a", y) -> Q(y, "b")'
        source = Instance.parse("P(a, x1), P(c, x2)")
        store = _load(source)
        result = sql_chase(store, parse_dependencies(text))
        assert result.instance.facts == _memory_chase(source, text).facts
        assert fact("Q", "x1", "b") in result.instance.facts
        assert fact("Q", "x2", "b") not in result.instance.facts

    def test_multi_round_fixpoint(self):
        # Transitive closure needs several compiled rounds.
        text = "E(x, y) & E(y, z) -> E(x, z)"
        source = Instance.parse("E(a, b), E(b, c), E(c, d), E(d, e)")
        store = _load(source)
        result = sql_chase(store, parse_dependencies(text))
        assert result.rounds > 1
        assert result.instance.facts == _memory_chase(source, text).facts


class TestConstantGuardCompiled:
    def test_constant_guard_compiles_same_result(self):
        text = "P(x, y) & Constant(x) -> Q(x, y)"
        source = Instance.parse("P(a, b), P(N7, c)")
        store = _load(source)
        result = sql_chase(store, parse_dependencies(text))
        assert result.compiled == 1
        assert result.instance.facts == _memory_chase(source, text).facts
        assert fact("Q", "a", "b") in result.instance.facts
        assert fact("Q", "N7", "c") not in result.instance.facts

    def test_constant_guard_on_minted_null(self):
        # A null minted by a compiled round must fail Constant() in the
        # next compiled round — the prefix test sees SQL-minted nulls.
        text = (
            "P(x) -> Q(x, z)\n"
            "Q(x, y) & Constant(y) -> S(y)"
        )
        source = Instance.parse("P(a), Q(b, c)")
        store = _load(source)
        result = sql_chase(store, parse_dependencies(text))
        assert result.compiled == 2
        assert fact("S", "c") in result.instance.facts
        # The only other S-fact candidate is the minted null: excluded.
        s_facts = [f for f in result.instance.facts if f.relation == "S"]
        assert len(s_facts) == 1

    def test_constant_guard_with_inequality(self):
        text = 'P(x, y) & Constant(x) & x != y -> Q(x, y)'
        source = Instance.parse("P(a, a), P(a, b), P(N1, b)")
        store = _load(source)
        result = sql_chase(store, parse_dependencies(text))
        assert result.compiled == 1
        assert result.instance.facts == _memory_chase(source, text).facts
        q_facts = [f for f in result.instance.facts if f.relation == "Q"]
        assert q_facts == [fact("Q", "a", "b")]


class TestFallback:
    def test_unknown_guard_falls_back_same_result(self):
        # Outside the fragment: rejected up front, before any table is
        # touched (the engine runs such mappings on the tuple chase).
        dep = parse_dependency("P(x, y) -> Q(x, y)")
        guarded = Tgd(
            premise=dep.premise,
            conclusion=dep.conclusion,
            guards=(_OpaqueGuard(next(iter(dep.frontier))),),
        )
        source = Instance.parse("P(a, b), P(c, d)")
        store = _load(source)
        with pytest.raises(SqlPlanError):
            sql_chase(store, [parse_dependency("P(x, y) -> R(x)"), guarded])
        assert store.as_instance().facts == source.facts

    def test_null_prefix_avoids_existing_names(self):
        source = Instance.parse("P(a, N5)")
        store = _load(source)
        result = sql_chase(store, parse_dependencies("P(x, y) -> Q(x, z)"))
        minted = result.instance.nulls - source.nulls
        assert len(minted) == 1
        assert next(iter(minted)).name != "N5"


class TestSemiNaive:
    """The delta-join union vs. the naive oracle."""

    CLOSURE = "P(x, y) & E(y, z) -> P(x, z)\nE(x, y) -> P(x, y)"

    def _chain(self, n):
        return Instance.parse(
            ", ".join(f"E(v{i}, v{i + 1})" for i in range(n))
        )

    def _run(self, source, text, **kw):
        store = _load(source)
        result = sql_chase(store, parse_dependencies(text), **kw)
        return result, store.digest()

    def test_delta_is_default_and_naive_is_byte_identical(self):
        source = self._chain(10)
        r_delta, d_delta = self._run(source, self.CLOSURE)
        r_naive, d_naive = self._run(source, self.CLOSURE, evaluation="naive")
        assert r_delta.evaluation == "delta"
        assert r_naive.evaluation == "naive"
        assert d_delta == d_naive
        assert r_delta.steps == r_naive.steps
        assert r_delta.rounds == r_naive.rounds
        assert r_delta.delta_sizes == r_naive.delta_sizes

    def test_delta_considers_fewer_triggers(self):
        source = self._chain(16)
        r_delta, _ = self._run(source, self.CLOSURE)
        r_naive, _ = self._run(source, self.CLOSURE, evaluation="naive")
        assert 0 < r_delta.triggers_considered < r_naive.triggers_considered

    def test_existential_null_numbering_identical(self):
        # Byte identity must survive null minting, not just full tgds.
        text = "P(x, y) & E(y, z) -> P(x, z)\nE(x, y) -> P(x, y)\nP(x, y) -> H(y, w)"
        source = self._chain(6)
        digests = {
            self._run(source, text, evaluation=ev)[1]
            for ev in ("delta", "naive")
        }
        assert len(digests) == 1

    def test_truncation_prefixes_identical(self):
        lim = Limits(max_facts=12, on_exhausted="partial")
        source = self._chain(8)
        outs = set()
        for ev in ("delta", "naive"):
            result, digest = self._run(
                source, self.CLOSURE, evaluation=ev, limits=lim
            )
            assert not result.completed
            outs.add((digest, result.steps, result.rounds))
        assert len(outs) == 1

    def test_unknown_evaluation_rejected(self):
        with pytest.raises(ValueError):
            self._run(self._chain(2), self.CLOSURE, evaluation="eager")

    def test_delta_sizes_start_with_seed(self):
        source = self._chain(5)
        result, _ = self._run(source, self.CLOSURE)
        assert len(result.delta_sizes) == result.rounds
        assert result.delta_sizes[0] == len(source)
        assert sum(result.delta_sizes) <= len(result.store)


class TestFileBackedStore:
    def test_file_store_identical_to_memory_store(self, tmp_path):
        source = TestSemiNaive()._chain(10)
        closure = parse_dependencies(TestSemiNaive.CLOSURE)
        memory_store = _load(source)
        sql_chase(memory_store, closure)
        file_store = SqliteStore(str(tmp_path / "chase.db"))
        file_store.add_all(source.facts)
        sql_chase(file_store, closure)
        assert file_store.digest() == memory_store.digest()


class TestGovernance:
    def test_max_rounds_partial(self):
        text = "E(x, y) & E(y, z) -> E(x, z)"
        source = Instance.parse("E(a, b), E(b, c), E(c, d), E(d, e)")
        store = _load(source)
        result = sql_chase(
            store,
            parse_dependencies(text),
            limits=Limits(max_rounds=1, on_exhausted="partial"),
        )
        assert not result.completed
        assert result.exhausted.resource == "rounds"

    def test_max_facts_raises(self):
        text = "E(x, y) & E(y, z) -> E(x, z)"
        source = Instance.parse("E(a, b), E(b, c), E(c, d), E(d, e)")
        store = _load(source)
        with pytest.raises(BudgetExhausted):
            sql_chase(
                store,
                parse_dependencies(text),
                limits=Limits(max_facts=5, on_exhausted="raise"),
            )


class TestNoDdlInRounds:
    """A round refills its plan's trigger table; no round runs DDL.

    Each compiled plan's trigger table is created once per chase and
    dropped when it ends, so the statement trace holds the same
    ``CREATE``/``DROP`` count whether the chase runs 4 rounds or 40.
    """

    def _chase_traced(self, n, **kw):
        store = _load(TestSemiNaive()._chain(n))
        # The conclusion relation exists already, so every CREATE traced
        # below is the chase's own.
        store.ensure_relation("P", 2)
        statements = []
        store.connection.set_trace_callback(statements.append)
        try:
            result = sql_chase(
                store, parse_dependencies(TestSemiNaive.CLOSURE), **kw
            )
        finally:
            store.connection.set_trace_callback(None)
        return result, store, [s.split(None, 1)[0].upper() for s in statements]

    @staticmethod
    def _temp_tables(store):
        return store.connection.execute(
            "SELECT name FROM sqlite_temp_master WHERE type = 'table'"
        ).fetchall()

    @pytest.mark.parametrize("evaluation", ["delta", "naive"])
    def test_ddl_count_does_not_grow_with_rounds(self, evaluation):
        short, _, words4 = self._chase_traced(4, evaluation=evaluation)
        long, _, words40 = self._chase_traced(40, evaluation=evaluation)
        assert short.rounds < long.rounds
        counts = [(w.count("CREATE"), w.count("DROP")) for w in (words4, words40)]
        assert counts[0] == counts[1]

    def test_at_most_one_create_per_compiled_plan(self):
        result, store, words = self._chase_traced(40)
        assert 0 < words.count("CREATE") <= result.compiled
        assert words.count("DROP") == words.count("CREATE")
        assert self._temp_tables(store) == []

    def test_trigger_tables_dropped_when_the_budget_raises(self):
        with pytest.raises(BudgetExhausted):
            self._chase_traced(40, limits=Limits(max_facts=60, on_exhausted="raise"))
        store = _load(TestSemiNaive()._chain(6))
        with pytest.raises(BudgetExhausted):
            sql_chase(
                store,
                parse_dependencies(TestSemiNaive.CLOSURE),
                limits=Limits(max_facts=8, on_exhausted="raise"),
            )
        assert self._temp_tables(store) == []
        # The same store chases again: no trigger table is left behind.
        result = sql_chase(store, parse_dependencies(TestSemiNaive.CLOSURE))
        assert result.completed
