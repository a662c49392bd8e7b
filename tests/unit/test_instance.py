"""Unit tests for facts and instances."""

import pickle

import pytest

from repro.instance import Fact, Instance, InstanceBuilder, fact, render_instances
from repro.schema import Schema
from repro.store import MemoryStore, StoreError
from repro.terms import Const, Null, Var


def assert_same_instance(got: Instance, want: Instance) -> None:
    """*got* agrees with *want* on every read the kernels make."""
    assert got == want
    assert got.facts == want.facts
    assert got.digest() == want.digest()
    assert hash(got) == hash(want)
    assert got.active_domain == want.active_domain
    assert got.nulls == want.nulls
    assert got.relation_names == want.relation_names
    probes = want.active_domain | {Const("absent")}
    for relation in want.relation_names + ("Absent",):
        assert set(got.tuples(relation)) == set(want.tuples(relation))
        arity = max((len(row) for row in want.tuples(relation)), default=1)
        for position in range(arity):
            for value in probes:
                assert set(got.tuples_at(relation, position, value)) == set(
                    want.tuples_at(relation, position, value)
                )


class TestFact:
    def test_construction(self):
        f = Fact("P", (Const("a"), Null("X")))
        assert f.relation == "P"
        assert f.arity == 2

    def test_rejects_vars(self):
        with pytest.raises(TypeError):
            Fact("P", (Var("x"),))

    def test_is_ground(self):
        assert Fact("P", (Const("a"),)).is_ground()
        assert not Fact("P", (Null("X"),)).is_ground()

    def test_nulls_iteration(self):
        f = Fact("P", (Null("X"), Const("a"), Null("X")))
        assert list(f.nulls()) == [Null("X"), Null("X")]

    def test_substitute(self):
        f = Fact("P", (Null("X"), Const("a")))
        g = f.substitute({Null("X"): Const("b")})
        assert g == Fact("P", (Const("b"), Const("a")))

    def test_substitute_identity_outside_domain(self):
        f = Fact("P", (Null("X"),))
        assert f.substitute({Null("Y"): Const("b")}) == f

    def test_str(self):
        assert str(Fact("P", (Const("a"), Null("X")))) == "P(a, _X)"

    def test_helper_constructor_token_convention(self):
        f = fact("P", "a", "X", 3)
        assert f == Fact("P", (Const("a"), Null("X"), Const(3)))

    def test_helper_rejects_junk(self):
        with pytest.raises(TypeError):
            fact("P", object())

    def test_parsed_facts_share_one_relation_name(self):
        # ``facts.fact`` interns the name, so a pickle stores it once.
        instance = Instance.parse("Emp(1, 2), Emp(3, 4), Emp(5, 6)")
        assert len({id(f.relation) for f in instance.facts}) == 1
        assert pickle.dumps(instance).count(b"Emp") == 1


class TestInstanceConstruction:
    def test_deduplicates(self):
        inst = Instance([fact("P", "a"), fact("P", "a")])
        assert len(inst) == 1

    def test_schema_validation_unknown_relation(self):
        with pytest.raises(ValueError):
            Instance([fact("P", "a")], schema=Schema([("Q", 1)]))

    def test_schema_validation_arity(self):
        with pytest.raises(ValueError):
            Instance([fact("P", "a", "b")], schema=Schema([("P", 1)]))

    def test_rejects_non_fact(self):
        with pytest.raises(TypeError):
            Instance(["P(a)"])

    def test_parse_round_trip(self):
        inst = Instance.parse("P(a, X), Q(b, 1)")
        assert fact("P", "a", "X") in inst
        assert fact("Q", "b", 1) in inst

    def test_parse_empty(self):
        assert Instance.parse("").is_empty()

    def test_parse_rejects_junk(self):
        with pytest.raises(ValueError):
            Instance.parse("P(a")

    def test_of(self):
        inst = Instance.of(fact("P", "a"))
        assert len(inst) == 1


class TestInstanceProtocol:
    def test_equality_is_set_equality(self):
        a = Instance.parse("P(a), Q(b)")
        b = Instance.parse("Q(b), P(a)")
        assert a == b
        assert hash(a) == hash(b)

    def test_subset(self):
        small = Instance.parse("P(a)")
        big = Instance.parse("P(a), Q(b)")
        assert small <= big
        assert not big <= small

    def test_contains(self):
        assert fact("P", "a") in Instance.parse("P(a)")

    def test_iteration_deterministic(self):
        inst = Instance.parse("P(b), P(a), P(X)")
        assert [str(f) for f in inst] == ["P(a)", "P(b)", "P(_X)"]

    def test_str_empty(self):
        assert str(Instance()) == "{}"


class TestRenderInstances:
    """Printing a list of instances costs its distinct facts."""

    #: Candidates of ``T(x, y) -> EXISTS z . T(y, z) | Q(x)`` over
    #: ``T(a, b)``: chains of nulls, each sharing the shorter ones' facts.
    CHAINS = [
        Instance(
            [fact("T", "a", "b"), fact("T", "b", "D0")]
            + [fact("T", f"D{i}", f"D{i + 1}") for i in range(length)]
            + [fact("Q", f"D{length}")]
        )
        for length in range(12)
    ]

    @staticmethod
    def _reverse_result():
        from repro.engine.results import ReverseResult

        return ReverseResult(
            candidates=tuple(TestRenderInstances.CHAINS),
            canonical=TestRenderInstances.CHAINS[0],
        )

    def _render_directly(self, capsys):
        return render_instances(self.CHAINS)

    def _execute_op(self, capsys):
        from repro.service.ops import execute_op, validate_request

        result = self._reverse_result()

        class Engine:
            def reverse(self, *args, **kwargs):
                return result

        request = validate_request(
            "reverse",
            {"mapping": "T(x, y) -> EXISTS z . T(y, z) | Q(x)", "instance": "T(a, b)"},
        )
        response = execute_op(Engine(), request)
        assert response["canonical"] == response["candidates"][0]
        return response["candidates"]

    def _print_candidates(self, capsys):
        from repro.cli import _print_candidates

        _print_candidates(self._reverse_result())
        return [line.split("] ", 1)[1] for line in capsys.readouterr().out.splitlines()]

    @pytest.mark.parametrize(
        "entry", ["_render_directly", "_execute_op", "_print_candidates"]
    )
    def test_prints_each_distinct_fact_once(self, entry, monkeypatch, capsys):
        expected = [str(i) for i in self.CHAINS]
        printed = []
        text = Fact.__str__

        def counted(f):
            printed.append(f)
            return text(f)

        monkeypatch.setattr(Fact, "__str__", counted)
        assert getattr(self, entry)(capsys) == expected
        distinct = set().union(*(i.facts for i in self.CHAINS))
        assert sorted(printed, key=Fact.sort_key) == sorted(distinct, key=Fact.sort_key)

    def test_one_instance_prints_as_str(self):
        inst = Instance.parse("Q(X), P(b, 3), P(a, c)")
        assert render_instances([inst, Instance()]) == [str(inst), "{}"]
        assert str(inst) == "{P(a, c), P(b, 3), Q(_X)}"
        assert repr(inst) == "Instance({P(a, c), P(b, 3), Q(_X)})"
        assert render_instances([]) == []


class TestInstanceInspection:
    def test_active_domain(self):
        inst = Instance.parse("P(a, X)")
        assert inst.active_domain == {Const("a"), Null("X")}

    def test_nulls_and_constants(self):
        inst = Instance.parse("P(a, X), Q(Y)")
        assert inst.nulls == {Null("X"), Null("Y")}
        assert inst.constants == {Const("a")}

    def test_is_ground(self):
        assert Instance.parse("P(a, b)").is_ground()
        assert not Instance.parse("P(a, X)").is_ground()

    def test_tuples(self):
        inst = Instance.parse("P(a), P(b)")
        assert len(inst.tuples("P")) == 2
        assert inst.tuples("Q") == frozenset()

    def test_schema_inference(self):
        schema = Instance.parse("P(a, b), Q(c)").schema()
        assert schema.arity("P") == 2
        assert schema.arity("Q") == 1

    def test_schema_inference_conflict(self):
        inst = Instance([fact("P", "a"), fact("P", "a", "b")])
        with pytest.raises(ValueError):
            inst.schema()


class TestInstanceAlgebra:
    def test_union(self):
        u = Instance.parse("P(a)").union(Instance.parse("Q(b)"))
        assert len(u) == 2
        assert_same_instance(u, Instance.parse("Q(b), P(a)"))

    def test_difference(self):
        d = Instance.parse("P(a), Q(b)").difference(Instance.parse("Q(b)"))
        assert d == Instance.parse("P(a)")

    def test_restrict(self):
        r = Instance.parse("P(a), Q(b)").restrict(["P"])
        assert r == Instance.parse("P(a)")

    def test_substitute_collapses_facts(self):
        inst = Instance.parse("P(X), P(Y)")
        merged = inst.substitute({Null("X"): Null("Y")})
        assert len(merged) == 1

    def test_substitute_constants_fixed_by_caller_convention(self):
        inst = Instance.parse("P(X, a)")
        out = inst.substitute({Null("X"): Const("a")})
        assert out == Instance.parse("P(a, a)")

    def test_rename_nulls_apart(self):
        left = Instance.parse("P(X)")
        right = Instance.parse("Q(X)")
        renamed = left.rename_nulls_apart(right)
        assert not renamed.nulls & right.nulls
        assert len(renamed) == 1

    def test_rename_nulls_apart_noop_when_disjoint(self):
        left = Instance.parse("P(X)")
        right = Instance.parse("Q(Y)")
        assert left.rename_nulls_apart(right) is left

    def test_freshen_nulls(self):
        inst = Instance.parse("P(X, Y)")
        fresh = inst.freshen_nulls()
        assert len(fresh.nulls) == 2
        assert not fresh.nulls & inst.nulls

    def test_map_values(self):
        inst = Instance.parse("P(a)")
        out = inst.map_values(lambda v: Const("z"))
        assert out == Instance.parse("P(z)")


class TestStructureSharing:
    """``extended`` and ``restrict`` over a frozen memory store share the
    parent's sets yet read exactly like a per-fact build."""

    BASE = Instance.parse("P(a, X), P(b, c), Q(X), R(c)")
    EXTRA = [fact("P", "c", "Y"), fact("S", "Y"), fact("Q", "X")]

    def per_fact(self, facts) -> Instance:
        builder = InstanceBuilder()
        for f in facts:
            builder.add(f)
        return builder.snapshot()

    def test_extended_matches_per_fact_build(self):
        child = self.BASE.extended(self.EXTRA)
        assert_same_instance(child, self.per_fact(list(self.BASE) + self.EXTRA))
        assert_same_instance(self.BASE, Instance.parse("P(a, X), P(b, c), Q(X), R(c)"))

    def test_extended_chain_matches_per_fact_build(self):
        grandchild = self.BASE.extended(self.EXTRA[:1]).extended(self.EXTRA[1:])
        assert_same_instance(
            grandchild, self.per_fact(list(self.BASE) + self.EXTRA)
        )

    def test_extended_shares_untouched_relations(self):
        child = self.BASE.extended([fact("P", "d", "Z")])
        assert child.tuples("Q") is self.BASE.tuples("Q")
        assert child.tuples("R") is self.BASE.tuples("R")
        assert child.tuples("P") is not self.BASE.tuples("P")

    def test_extended_with_nothing_new_is_self(self):
        assert self.BASE.extended([fact("Q", "X")]) is self.BASE
        assert self.BASE.extended([]) is self.BASE

    def test_extended_after_index_built(self):
        self.BASE.tuples_at("P", 0, Const("a"))  # build the parent's index
        child = self.BASE.extended([fact("P", "a", "b")])
        assert set(child.tuples_at("P", 0, Const("a"))) == {
            (Const("a"), Null("X")),
            (Const("a"), Const("b")),
        }

    def test_extended_domain_grows_only_when_new(self):
        same = self.BASE.extended([fact("P", "c", "a")])
        assert same.active_domain is self.BASE.active_domain
        assert same.nulls is self.BASE.nulls
        grown = self.BASE.extended([fact("P", "c", "W")])
        assert grown.nulls == {Null("X"), Null("W")}

    def test_extended_rejects_non_facts(self):
        with pytest.raises(TypeError):
            self.BASE.extended([("P", "z")])

    def test_derivation_needs_a_frozen_store(self):
        with pytest.raises(StoreError):
            MemoryStore().extended([fact("P", "a")])
        with pytest.raises(StoreError):
            MemoryStore().restricted(["P"])

    @pytest.mark.parametrize(
        "keep", [["P"], ["P", "Q"], ["Q", "Absent"], [], ["R", "S"]]
    )
    def test_restrict_matches_per_fact_build(self, keep):
        want = self.per_fact(f for f in self.BASE if f.relation in keep)
        assert_same_instance(self.BASE.restrict(keep), want)

    def test_restrict_shares_kept_relations(self):
        restricted = self.BASE.restrict(["P", "R"])
        assert restricted.tuples("P") is self.BASE.tuples("P")
        assert restricted.nulls == {Null("X")}
        assert self.BASE.restrict(["Q", "R"]).tuples_at("R", 0, Const("c"))

    def test_restrict_keeping_everything_is_self(self):
        assert self.BASE.restrict(["P", "Q", "R", "Absent"]) is self.BASE

    def test_derived_instances_skip_schema_validation(self):
        typed = Instance([fact("P", "a")], schema=Schema.from_arities({"P": 1}))
        assert len(typed.union(Instance.parse("Q(b, c)"))) == 2


class TestPositionIndex:
    def test_lookup_by_constant(self):
        inst = Instance.parse("P(a, b), P(a, c), P(d, b)")
        hits = inst.tuples_at("P", 0, Const("a"))
        assert len(hits) == 2
        assert all(values[0] == Const("a") for values in hits)

    def test_lookup_by_null(self):
        inst = Instance.parse("P(X, b), P(a, b)")
        hits = inst.tuples_at("P", 0, Null("X"))
        assert len(hits) == 1

    def test_missing_value_empty(self):
        inst = Instance.parse("P(a)")
        assert inst.tuples_at("P", 0, Const("zzz")) == ()

    def test_missing_relation_empty(self):
        assert Instance.parse("P(a)").tuples_at("Q", 0, Const("a")) == ()

    def test_index_consistent_with_scan(self):
        inst = Instance.parse("P(a, b), P(b, a), P(a, a), Q(a)")
        for position in (0, 1):
            for value in inst.active_domain:
                indexed = set(inst.tuples_at("P", position, value))
                scanned = {
                    values
                    for values in inst.tuples("P")
                    if values[position] == value
                }
                assert indexed == scanned

    def test_index_does_not_change_equality_or_hash(self):
        left = Instance.parse("P(a, b)")
        right = Instance.parse("P(a, b)")
        left.tuples_at("P", 0, Const("a"))  # force index build on one side
        assert left == right
        assert hash(left) == hash(right)


class TestInstanceBuilder:
    def test_add_reports_novelty(self):
        builder = InstanceBuilder()
        assert builder.add(fact("P", "a"))
        assert not builder.add(fact("P", "a"))

    def test_add_all_counts(self):
        builder = InstanceBuilder()
        added = builder.add_all([fact("P", "a"), fact("P", "a"), fact("Q", "b")])
        assert added == 2

    def test_base_instance(self):
        builder = InstanceBuilder(Instance.parse("P(a)"))
        assert fact("P", "a") in builder
        assert len(builder) == 1

    def test_snapshot_is_independent(self):
        builder = InstanceBuilder()
        builder.add(fact("P", "a"))
        snap = builder.snapshot()
        builder.add(fact("Q", "b"))
        assert len(snap) == 1

    def test_values_tracked(self):
        builder = InstanceBuilder()
        builder.add(fact("P", "a", "X"))
        assert Const("a") in builder.values
        assert Null("X") in builder.values
