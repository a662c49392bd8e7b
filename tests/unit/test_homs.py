"""Unit tests for homomorphism search, cores, and quotients."""

import pytest

from repro.errors import BudgetExhausted
from repro.homs.core import core, is_core, retraction_to_core
from repro.homs.quotient import (
    QuotientExplosion,
    count_quotients,
    enumerate_quotients,
)
from repro.homs.search import (
    all_homomorphisms,
    find_homomorphism,
    homomorphisms,
    is_hom_equivalent,
    is_homomorphic,
    verify_homomorphism,
)
from repro.instance import Instance
from repro.limits import Limits, budget_scope
from repro.parsing.parser import parse_dependencies
from repro.terms import Const, Null


class TestHomomorphismSearch:
    def test_ground_hom_is_subset(self):
        small = Instance.parse("P(a, b)")
        big = Instance.parse("P(a, b), Q(c)")
        assert is_homomorphic(small, big)
        assert not is_homomorphic(big, small)

    def test_constants_map_to_themselves(self):
        left = Instance.parse("P(a)")
        right = Instance.parse("P(b)")
        assert not is_homomorphic(left, right)

    def test_null_maps_anywhere(self):
        assert is_homomorphic(Instance.parse("P(X)"), Instance.parse("P(a)"))
        assert is_homomorphic(Instance.parse("P(X)"), Instance.parse("P(Y)"))

    def test_null_consistency_across_facts(self):
        left = Instance.parse("P(X), Q(X)")
        assert is_homomorphic(left, Instance.parse("P(a), Q(a)"))
        assert not is_homomorphic(left, Instance.parse("P(a), Q(b)"))

    def test_repeated_null_in_fact(self):
        left = Instance.parse("P(X, X)")
        assert is_homomorphic(left, Instance.parse("P(a, a)"))
        assert not is_homomorphic(left, Instance.parse("P(a, b)"))

    def test_collapse_distinct_nulls(self):
        left = Instance.parse("P(X, Y)")
        assert is_homomorphic(left, Instance.parse("P(a, a)"))

    def test_empty_source_always_maps(self):
        assert is_homomorphic(Instance(), Instance.parse("P(a)"))
        assert is_homomorphic(Instance(), Instance())

    def test_nonempty_to_empty_fails(self):
        assert not is_homomorphic(Instance.parse("P(a)"), Instance())

    def test_find_returns_mapping_over_nulls(self):
        h = find_homomorphism(Instance.parse("P(X, b)"), Instance.parse("P(a, b)"))
        assert h == {Null("X"): Const("a")}

    def test_seed_constrains(self):
        left = Instance.parse("P(X)")
        right = Instance.parse("P(a), P(b)")
        h = find_homomorphism(left, right, seed={Null("X"): Const("b")})
        assert h == {Null("X"): Const("b")}
        assert find_homomorphism(left, right, seed={Null("X"): Const("z")}) is None

    def test_all_homomorphisms_count(self):
        left = Instance.parse("P(X)")
        right = Instance.parse("P(a), P(b), P(c)")
        assert len(all_homomorphisms(left, right)) == 3

    def test_results_verify(self):
        left = Instance.parse("P(X, Y), Q(Y)")
        right = Instance.parse("P(a, b), Q(b), P(b, b)")
        for h in homomorphisms(left, right):
            assert verify_homomorphism(h, left, right)

    def test_verify_rejects_bad_map(self):
        left = Instance.parse("P(X)")
        right = Instance.parse("P(a)")
        assert not verify_homomorphism({Null("X"): Const("z")}, left, right)

    def test_hom_equivalence(self):
        left = Instance.parse("P(a, X)")
        right = Instance.parse("P(a, Y), P(a, Z)")
        assert is_hom_equivalent(left, right)

    def test_paper_example_1_1_direction(self):
        # V -> I but not I -> V for the decomposition round trip.
        v = Instance.parse("P(a, b, Z), P(X, b, c)")
        i = Instance.parse("P(a, b, c)")
        assert is_homomorphic(v, i)
        assert not is_homomorphic(i, v)


class TestCore:
    def test_ground_instance_is_its_own_core(self):
        inst = Instance.parse("P(a), Q(b)")
        assert core(inst) == inst

    def test_redundant_null_fact_folded(self):
        inst = Instance.parse("Q(a, X), Q(a, b)")
        assert core(inst) == Instance.parse("Q(a, b)")

    def test_core_is_hom_equivalent_to_input(self):
        inst = Instance.parse("P(X, Y), P(Y, Z), P(a, b)")
        c = core(inst)
        assert is_hom_equivalent(inst, c)

    def test_core_is_core(self):
        inst = Instance.parse("P(X, Y), P(a, b), P(b, c)")
        assert is_core(core(inst))

    def test_nontrivial_core_kept(self):
        # P(X, Y) with no ground facts folds to a single loop-free atom?
        # It cannot fold further: removing the only fact leaves nothing.
        inst = Instance.parse("P(X, Y)")
        assert core(inst) == inst

    def test_triangle_vs_edge(self):
        # A 2-cycle of nulls retracts onto... nothing smaller (odd girth
        # arguments aside, removing either fact breaks the cycle).
        inst = Instance.parse("E(X, Y), E(Y, X)")
        assert len(core(inst)) in (1, 2)
        assert is_hom_equivalent(core(inst), inst)

    def test_retraction_composes(self):
        inst = Instance.parse("Q(a, X), Q(a, b), Q(Y, b)")
        h = retraction_to_core(inst)
        image = inst.substitute(dict(h))
        assert image == core(inst) or is_hom_equivalent(image, core(inst))

    def test_is_core_detects_redundancy(self):
        assert not is_core(Instance.parse("Q(a, X), Q(a, b)"))


def chain(facts: int) -> Instance:
    """``T(a, b), T(b, _D0), …, T(_D{k-1}, _Dk), Q(_D{k-1})``, *facts* long.

    The shape of the reverse candidates of ``T(x, y) -> EXISTS z .
    T(y, z) | Q(x)`` over ``T(a, b)``: a path of nulls out of ``b`` whose
    second-to-last null carries the one ``Q`` fact.  Each is its own core.
    """
    k = facts - 3
    path = [f"T(D{i}, D{i + 1})" for i in range(k)]
    return Instance.parse(", ".join(["T(a, b)", "T(b, D0)", *path, f"Q(D{k - 1})"]))


class TestChainCores:
    """Coring chains of nulls takes one failed probe per fact, each a
    walk down the chain — not a search over orders of the facts."""

    SIZES = [20, 50, 100, 200]

    @pytest.mark.parametrize("facts", SIZES)
    def test_chain_is_its_own_core(self, facts):
        inst = chain(facts)
        assert len(inst) == facts
        with budget_scope(Limits(deadline=10.0)):
            assert core(inst) == inst
            assert is_core(inst)

    @pytest.mark.parametrize("facts", SIZES)
    def test_redundant_prefix_folds_back_to_the_chain(self, facts):
        inst = chain(facts)
        path = [f"T(E{i}, E{i + 1})" for i in range(facts // 2)]
        padded = inst.union(Instance.parse(", ".join(["T(b, E0)", *path])))
        assert len(padded) == facts + facts // 2 + 1
        with budget_scope(Limits(deadline=10.0)):
            assert core(padded) == inst
            assert padded.substitute(retraction_to_core(padded)) == inst

    @pytest.mark.parametrize("fold", [core, is_core, retraction_to_core])
    def test_deadline_stops_the_probes(self, fold):
        # Every probe of the chain tries only a few rows, under the
        # search's own checkpoint interval: the probe loop checks too.
        inst = chain(200)
        with budget_scope(Limits(deadline=0.05)):
            with pytest.raises(BudgetExhausted):
                fold(inst)


class TestQuotients:
    def test_identity_quotient_present(self):
        inst = Instance.parse("P(X, Y)")
        quotients = list(enumerate_quotients(inst))
        assert any(q.is_identity() for q in quotients)

    def test_counts_match_closed_form(self):
        inst = Instance.parse("P(X, Y, a)")
        quotients = list(enumerate_quotients(inst))
        assert len(quotients) == count_quotients(2, 1)

    def test_merge_branch_exists(self):
        inst = Instance.parse("P(X, Y)")
        merged = [q for q in enumerate_quotients(inst) if len(q.instance.nulls) == 1]
        assert merged  # X = Y world

    def test_constant_anchoring(self):
        inst = Instance.parse("P(X, a)")
        anchored = [
            q for q in enumerate_quotients(inst) if q.instance == Instance.parse("P(a, a)")
        ]
        assert anchored

    def test_no_anchoring_flag(self):
        inst = Instance.parse("P(X, a)")
        quotients = list(enumerate_quotients(inst, anchor_constants=False))
        assert all(q.instance.nulls for q in quotients)

    def test_ground_instance_has_single_quotient(self):
        inst = Instance.parse("P(a, b)")
        quotients = list(enumerate_quotients(inst))
        assert len(quotients) == 1
        assert quotients[0].instance == inst

    def test_explosion_guard(self):
        inst = Instance.parse("P(A, B, C), P(D, E, F), P(G, H, J)")
        with pytest.raises(QuotientExplosion):
            list(enumerate_quotients(inst, max_nulls=4))

    def test_quotient_mapping_applies(self):
        inst = Instance.parse("P(X, Y)")
        for q in enumerate_quotients(inst):
            assert inst.substitute(q.mapping) == q.instance

    def test_count_quotients_base_cases(self):
        assert count_quotients(0, 5) == 1
        assert count_quotients(1, 0) == 1
        assert count_quotients(1, 2) == 3  # keep null, anchor to c1, or c2
        assert count_quotients(2, 0) == 2  # {X}{Y} or {XY}, no anchors

    def test_blocks_anchor_to_distinct_constants(self):
        # 4 nulls over 1 constant used to yield 94 substitutions, 52 distinct.
        inst = Instance.parse("P(A, B, C, D, a)")
        substitutions = [q.substitution for q in enumerate_quotients(inst)]
        assert len(substitutions) == len(set(substitutions)) == 52
        assert count_quotients(4, 1) == 52
        assert count_quotients(4, 4) == 799

    SIGMA_STAR = parse_dependencies(
        "P'(x, y) & x != y -> P(x, y)\nP'(x, x) -> T(x) | P(x, x)"
    )

    def test_observable_closure_follows_inequality_guards(self):
        inst = Instance.parse("P'(X, Y), P'(Y, a)")
        worlds = [
            q.instance for q in enumerate_quotients(inst, observed_by=self.SIGMA_STAR)
        ]
        # X and a never meet in one premise match, so X -> a alone is not
        # generated; Y -> a, X = Y and the world where both are a are
        # (pairs with a constant side first).
        assert worlds == [
            inst,
            Instance.parse("P'(X, a), P'(a, a)"),
            Instance.parse("P'(X, X), P'(X, a)"),
            Instance.parse("P'(a, a)"),
        ]

    def test_observable_closure_anchors_guard_constants(self):
        dependencies = parse_dependencies("R(x, y) & y != 7 -> S(y)")
        inst = Instance.parse("R(1, G)")
        worlds = [q.instance for q in enumerate_quotients(inst, observed_by=dependencies)]
        assert worlds == [inst, Instance.parse("R(1, 7)")]

    def test_observable_closure_keeps_the_null_guard(self):
        inst = Instance.parse("P(A, B, C, D, E, F, G, H, J)")
        with pytest.raises(QuotientExplosion):
            list(enumerate_quotients(inst, observed_by=self.SIGMA_STAR))
