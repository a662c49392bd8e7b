"""Unit tests for the standard and disjunctive chase."""

import importlib

import pytest

from repro.chase.disjunctive import (
    disjunctive_chase,
    minimize_branches,
    reverse_disjunctive_chase,
)
from repro.chase.standard import (
    ChaseNonTermination,
    chase,
    chase_atoms_canonical,
)
from repro.engine import ExchangeEngine
from repro.homs.quotient import count_quotients
from repro.homs.search import is_hom_equivalent, is_homomorphic
from repro.instance import Instance, render_instances
from repro.limits import Limits
from repro.logic.atoms import atom
from repro.mappings.schema_mapping import SchemaMapping
from repro.parsing.parser import parse_dependencies, parse_dependency


class TestStandardChase:
    def test_full_tgd(self):
        deps = parse_dependencies("P(x, y) -> Q(y, x)")
        result = chase(Instance.parse("P(a, b)"), deps)
        assert Instance.parse("Q(b, a)") <= result.instance

    def test_existential_creates_fresh_null(self):
        deps = parse_dependencies("P(x) -> EXISTS z . Q(x, z)")
        result = chase(Instance.parse("P(a)"), deps)
        generated = [f for f in result.generated]
        assert len(generated) == 1
        assert list(generated[0].nulls())

    def test_fresh_nulls_avoid_input_nulls(self):
        deps = parse_dependencies("P(x) -> EXISTS z . Q(x, z)")
        inst = Instance.parse("P(N0)")  # input null named like the default prefix
        result = chase(inst, deps)
        q_fact = next(f for f in result.generated if f.relation == "Q")
        fresh = q_fact.values[1]
        assert fresh.is_null and fresh.name != "N0"

    def test_source_nulls_are_matched_like_values(self):
        # Proposition 3.11 territory: chasing a null-containing source works.
        deps = parse_dependencies("P(x, y) -> EXISTS z . Q(x, z) & Q(z, y)")
        result = chase(Instance.parse("P(W, Z)"), deps)
        assert len([f for f in result.generated if f.relation == "Q"]) == 2

    def test_restricted_does_not_refire_satisfied(self):
        deps = parse_dependencies("P(x) -> EXISTS z . Q(x, z)")
        inst = Instance.parse("P(a), Q(a, b)")
        result = chase(inst, deps, variant="restricted")
        assert result.generated == frozenset()

    def test_oblivious_fires_anyway(self):
        deps = parse_dependencies("P(x) -> EXISTS z . Q(x, z)")
        inst = Instance.parse("P(a), Q(a, b)")
        result = chase(inst, deps, variant="oblivious")
        assert len(result.generated) == 1

    def test_variants_hom_equivalent(self):
        deps = parse_dependencies(
            "P(x, y) -> EXISTS z . Q(x, z) & Q(z, y)\nP(x, y) -> R(x)"
        )
        inst = Instance.parse("P(a, b), P(b, c), Q(a, k)")
        restricted = chase(inst, deps, variant="restricted").instance
        oblivious = chase(inst, deps, variant="oblivious").instance
        assert is_hom_equivalent(restricted, oblivious)

    def test_example_1_1_shape(self):
        deps = parse_dependencies("P(x, y, z) -> Q(x, y) & R(y, z)")
        result = chase(Instance.parse("P(a, b, c)"), deps)
        target = result.restricted_to(["Q", "R"])
        assert target == Instance.parse("Q(a, b), R(b, c)")

    def test_multiple_rounds_for_recursive_deps(self):
        # Conclusion feeds the next premise: needs > 1 round, terminates.
        deps = parse_dependencies("A(x) -> B(x)\nB(x) -> C(x)")
        result = chase(Instance.parse("A(a)"), deps)
        assert Instance.parse("B(a), C(a)") <= result.instance
        assert result.rounds >= 2

    def test_nontermination_guard(self):
        deps = parse_dependencies("A(x) -> EXISTS y . A(y)")
        with pytest.raises(ChaseNonTermination):
            chase(
                Instance.parse("A(a)"),
                deps,
                variant="oblivious",
                limits=Limits(max_rounds=3, on_exhausted="raise"),
            )

    def test_guarded_tgd_constant(self):
        deps = parse_dependencies("R(x, y) & Constant(x) -> P(x)")
        result = chase(Instance.parse("R(a, b), R(X, c)"), deps)
        assert result.restricted_to(["P"]) == Instance.parse("P(a)")

    def test_guarded_tgd_inequality(self):
        deps = parse_dependencies("R(x, y) & x != y -> P(x, y)")
        result = chase(Instance.parse("R(a, a), R(a, b)"), deps)
        assert result.restricted_to(["P"]) == Instance.parse("P(a, b)")

    def test_rejects_disjunctive(self):
        dep = parse_dependency("R(x) -> P(x) | Q(x)")
        with pytest.raises(TypeError):
            chase(Instance.parse("R(a)"), [dep])

    def test_unknown_variant(self):
        deps = parse_dependencies("P(x) -> Q(x)")
        with pytest.raises(ValueError):
            chase(Instance(), deps, variant="eager")

    def test_steps_counted(self):
        deps = parse_dependencies("P(x) -> Q(x)")
        result = chase(Instance.parse("P(a), P(b)"), deps)
        assert result.steps == 2

    def test_full_trigger_builds_its_conclusion_once(self, monkeypatch):
        """The facts the witness check looks up are the facts that fire."""
        from repro.logic.atoms import Atom

        built = []
        instantiate = Atom.instantiate

        def counting(self, binding):
            built.append(self)
            return instantiate(self, binding)

        monkeypatch.setattr(Atom, "instantiate", counting)
        deps = parse_dependencies("P(x, y) -> Q(y, x) & R(x)")
        source = Instance.parse("P(a, b), P(c, d), Q(f, e), R(e), P(e, f)")
        result = chase(source, deps)
        assert (result.steps, result.rounds) == (2, 2)
        # Two fired triggers and one witnessed one (P(e, f)), two atoms
        # each: the firing reuses the facts its check built.
        assert len(built) == 6
        assert Instance.parse("Q(b, a), R(a), Q(d, c), R(c)") <= result.instance

    def test_canonical_premise_instance(self):
        inst = chase_atoms_canonical([atom("P", "x", "y"), atom("Q", "y")])
        assert len(inst) == 2
        assert len(inst.nulls) == 2


class TestDisjunctiveChase:
    def test_branches_per_disjunct(self):
        deps = [parse_dependency("R(x) -> P(x) | Q(x)")]
        branches = disjunctive_chase(Instance.parse("R(a)"), deps)
        projected = {b.restrict(["P", "Q"]) for b in branches}
        assert projected == {Instance.parse("P(a)"), Instance.parse("Q(a)")}

    def test_two_facts_four_branches(self):
        deps = [parse_dependency("R(x) -> P(x) | Q(x)")]
        branches = disjunctive_chase(Instance.parse("R(a), R(b)"), deps)
        assert len(branches) == 4

    def test_satisfied_trigger_does_not_branch(self):
        deps = [parse_dependency("R(x) -> P(x) | Q(x)")]
        branches = disjunctive_chase(Instance.parse("R(a), P(a)"), deps)
        assert len(branches) == 1

    def test_plain_tgd_accepted(self):
        deps = [parse_dependency("R(x) -> P(x)")]
        branches = disjunctive_chase(Instance.parse("R(a)"), deps)
        assert len(branches) == 1
        assert Instance.parse("P(a)") <= branches[0]

    def test_inequality_guard_respected(self):
        deps = [parse_dependency("R(x, y) & x != y -> P(x, y)")]
        branches = disjunctive_chase(Instance.parse("R(a, a)"), deps)
        assert branches == [Instance.parse("R(a, a)")]

    def test_existentials_in_disjuncts(self):
        deps = [parse_dependency("R(x) -> (EXISTS z . P(x, z)) | Q(x)")]
        branches = disjunctive_chase(Instance.parse("R(a)"), deps)
        withp = [b for b in branches if b.tuples("P")]
        assert withp and list(withp[0].nulls)

    def test_branch_cap(self):
        deps = [parse_dependency("R(x) -> P(x) | Q(x)")]
        inst = Instance.parse(", ".join(f"R({chr(ord('a') + i)})" for i in range(12)))
        with pytest.raises(RuntimeError):
            disjunctive_chase(
                inst, deps, limits=Limits(max_branches=100, on_exhausted="raise")
            )

    @pytest.mark.parametrize("evaluation", ["delta", "naive"])
    def test_deep_chase_mints_without_collecting_null_names(
        self, evaluation, monkeypatch
    ):
        # Collecting every null name of the world at each pop
        # (NullFactory.avoiding) made a branch's minting quadratic in
        # its depth; a pop looks names up in the world's null set.
        from repro.terms import NullFactory

        calls = []
        avoiding = NullFactory.avoiding.__func__

        def counting(cls, values, prefix="N"):
            calls.append(prefix)
            return avoiding(cls, values, prefix)

        monkeypatch.setattr(NullFactory, "avoiding", classmethod(counting))
        deps = [parse_dependency("T(x, y) -> EXISTS z . T(y, z) | Q(x)")]
        branches = disjunctive_chase(
            Instance.parse("T(a, b)"),
            deps,
            limits=Limits(max_branches=60, max_rounds=120, on_exhausted="partial"),
            evaluation=evaluation,
        )
        assert len(branches) == 61
        assert max(len(branch.nulls) for branch in branches) >= 30
        assert calls == []

    @pytest.mark.parametrize("evaluation", ["delta", "naive"])
    def test_minting_skips_the_names_a_world_holds(self, evaluation):
        # The input holds _D0 and _D2: a pop mints the lowest free names
        # upward, and siblings draw from one stream.
        deps = [parse_dependency("T(x, y) -> EXISTS z . T(y, z) | Q(x)")]
        branches = disjunctive_chase(
            Instance.parse("T(a, D0), T(D0, D2)"),
            deps,
            limits=Limits(max_branches=4, max_rounds=8, on_exhausted="partial"),
            evaluation=evaluation,
        )
        assert render_instances(branches) == [
            "{Q(_D0), T(a, _D0), T(_D0, _D2)}",
            "{Q(_D2), T(a, _D0), T(_D0, _D2), T(_D2, _D1)}",
            "{Q(_D1), T(a, _D0), T(_D0, _D2), T(_D1, _D3), T(_D2, _D1)}",
            "{T(a, _D0), T(_D0, _D2), T(_D1, _D3), T(_D2, _D1), T(_D3, _D4),"
            " T(_D4, _D5)}",
            "{Q(_D3), T(a, _D0), T(_D0, _D2), T(_D1, _D3), T(_D2, _D1),"
            " T(_D3, _D4)}",
        ]
        deps = [
            parse_dependency(
                "R(x) -> (EXISTS z . P(x, z)) | (EXISTS u, v . S(x, u, v))"
            )
        ]
        branches = disjunctive_chase(
            Instance.parse("R(D1), R(D3)"), deps, evaluation=evaluation
        )
        assert render_instances(branches) == [
            "{R(_D1), R(_D3), S(_D1, _D2, _D4), S(_D3, _D5, _D6)}",
            "{P(_D3, _D0), R(_D1), R(_D3), S(_D1, _D2, _D4)}",
            "{P(_D1, _D0), R(_D1), R(_D3), S(_D3, _D4, _D5)}",
            "{P(_D1, _D0), P(_D3, _D2), R(_D1), R(_D3)}",
        ]


class TestMinimizeBranches:
    def test_drops_dominated(self):
        small = Instance.parse("P(X, Y)")
        big = Instance.parse("P(a, a)")
        kept = minimize_branches([small, big])
        assert kept == [small]

    def test_keeps_incomparable(self):
        left = Instance.parse("P(a)")
        right = Instance.parse("Q(b)")
        assert set(minimize_branches([left, right])) == {left, right}

    def test_collapses_hom_equivalent(self):
        left = Instance.parse("P(a, X)")
        right = Instance.parse("P(a, Y), P(a, Z)")
        assert len(minimize_branches([left, right])) == 1

    def test_empty(self):
        assert minimize_branches([]) == []


class TestReverseDisjunctiveChase:
    def test_theorem_5_2_branches(self, self_join_reverse):
        branches = reverse_disjunctive_chase(
            Instance.parse("P'(N1, N2)"),
            self_join_reverse.dependencies,
            result_relations=["P", "T"],
        )
        # The null-merge worlds must surface a T-branch and a P-branch.
        as_str = {str(b) for b in branches}
        assert any("T(" in s for s in as_str)
        assert any("P(" in s for s in as_str)

    def test_ground_target_no_quotient_blowup(self, self_join_reverse):
        branches = reverse_disjunctive_chase(
            Instance.parse("P'(a, b)"),
            self_join_reverse.dependencies,
            result_relations=["P", "T"],
        )
        assert branches == [Instance.parse("P(a, b)")]

    def test_diagonal_ground_target_branches(self, self_join_reverse):
        branches = reverse_disjunctive_chase(
            Instance.parse("P'(a, a)"),
            self_join_reverse.dependencies,
            result_relations=["P", "T"],
        )
        assert set(branches) == {Instance.parse("P(a, a)"), Instance.parse("T(a)")}

    def test_unminimized_superset(self, self_join_reverse):
        minimized = reverse_disjunctive_chase(
            Instance.parse("P'(N1, N2)"),
            self_join_reverse.dependencies,
            result_relations=["P", "T"],
        )
        raw = reverse_disjunctive_chase(
            Instance.parse("P'(N1, N2)"),
            self_join_reverse.dependencies,
            result_relations=["P", "T"],
            minimize=False,
        )
        assert len(raw) >= len(minimized)
        for kept in minimized:
            assert any(is_homomorphic(kept, branch) for branch in raw)


class TestReverseWorldSelection:
    """Which quotient worlds the reverse chase chases (DESIGN.md D10)."""

    @pytest.fixture
    def worlds(self, monkeypatch):
        """Count the worlds the module-level ``enumerate_quotients`` yields."""
        # ``repro.chase`` the attribute is the chase function, so the
        # module is looked up by name.
        module = importlib.import_module("repro.chase.disjunctive")
        counted = []
        original = module.enumerate_quotients

        def counting(*args, **kwargs):
            for quotient in original(*args, **kwargs):
                counted.append(quotient.substitution)
                yield quotient

        monkeypatch.setattr(module, "enumerate_quotients", counting)
        return counted

    TARGET = Instance.parse("P'(N1, N2), P'(N2, a), P'(N3, b)")

    def test_minimized_chase_takes_the_observable_closure(
        self, worlds, self_join_reverse
    ):
        reverse_disjunctive_chase(
            self.TARGET, self_join_reverse.dependencies, result_relations=["P", "T"]
        )
        assert all(null == value for null, value in worlds[0])
        assert 1 < len(worlds) < count_quotients(3, 2)

    def test_unminimized_chase_takes_every_quotient(self, worlds, self_join_reverse):
        reverse_disjunctive_chase(
            self.TARGET,
            self_join_reverse.dependencies,
            result_relations=["P", "T"],
            minimize=False,
        )
        assert len(worlds) == count_quotients(3, 2)

    def test_non_source_to_target_set_takes_every_quotient(self, worlds):
        # The second premise reads P, which the first conclusion writes.
        dependencies = parse_dependencies(
            "P'(x, y) & x != y -> P(x, y) | T(x)\nP(x, y) -> T(y)"
        )
        reverse_disjunctive_chase(self.TARGET, dependencies)
        assert len(worlds) == count_quotients(3, 2)

    def test_guard_constant_anchors_a_world(self):
        # G6 -> 7 is a homomorphic image of the target whose reverse is
        # empty, and the empty source dominates every other candidate.
        mapping = SchemaMapping.from_text("R(x, y) & y != 7 -> S(x, y) | T(y)")
        target = Instance.parse("R(1, G6)")
        result = ExchangeEngine().reverse(mapping, target, take_core=True)
        assert list(result.candidates) == [Instance()]
        exhaustive = reverse_disjunctive_chase(
            target, mapping.dependencies, mapping.target.names, minimize=False
        )
        assert Instance() in exhaustive
