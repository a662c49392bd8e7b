"""SB-2 — homomorphism machinery: search, equivalence, cores.

Also the D3 (search ordering) and D4 (core canonicalization) ablations.
Expected shapes: ground-to-ground checks are near-linear (hash
membership per fact); null-rich sources pay backtracking that grows
with the null ratio; cores cost one block-local probe per fact of the
core plus one per fold, and on chains of nulls each failed probe is a
walk down the chain, so coring grows about quadratically in the length.
"""

import pytest

from repro.homs.core import core
from repro.homs.search import is_hom_equivalent, is_homomorphic
from repro.instance import Instance
from repro.schema import Schema
from repro.workloads.generators import random_instance

from .conftest import record_metric


SCHEMA = Schema([("P", 2), ("Q", 2)])
SIZES = [10, 40]
NULL_RATIOS = [0.0, 0.3, 0.8]


def _pair(size, null_ratio, seed=0):
    left = random_instance(SCHEMA, size, seed=seed, null_ratio=null_ratio, value_pool=6)
    right = random_instance(SCHEMA, size * 2, seed=seed + 1, null_ratio=0.0, value_pool=6)
    return left, right


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("null_ratio", NULL_RATIOS)
def test_hom_check(benchmark, size, null_ratio):
    left, right = _pair(size, null_ratio)
    found = benchmark(is_homomorphic, left, right)
    record_metric(
        benchmark, size=size, null_ratio=null_ratio, found=found,
        source_nulls=len(left.nulls),
    )


@pytest.mark.parametrize("size", SIZES)
def test_hom_equivalence(benchmark, size):
    inst = random_instance(SCHEMA, size, seed=3, null_ratio=0.3, value_pool=6)
    padded = inst.union(inst.freshen_nulls(prefix="PAD"))
    result = benchmark(is_hom_equivalent, inst, padded)
    record_metric(benchmark, size=size, equivalent=result)


@pytest.mark.parametrize("size", [5, 10, 20])
@pytest.mark.parametrize("null_ratio", [0.3, 0.6])
def test_core_computation(benchmark, size, null_ratio):
    inst = random_instance(SCHEMA, size, seed=9, null_ratio=null_ratio, value_pool=4)
    result = benchmark(core, inst)
    record_metric(
        benchmark, size=size, null_ratio=null_ratio,
        input_facts=len(inst), core_facts=len(result),
    )


def _null_chain(facts):
    """``T(a, b), T(b, _D0), …, T(_D{k-1}, _Dk), Q(_D{k-1})``, *facts* long.

    The reverse candidates of ``T(x, y) -> EXISTS z . T(y, z) | Q(x)``
    over ``T(a, b)`` have this shape, and each is its own core.
    """
    k = facts - 3
    path = [f"T(D{i}, D{i + 1})" for i in range(k)]
    return Instance.parse(", ".join(["T(a, b)", "T(b, D0)", *path, f"Q(D{k - 1})"]))


@pytest.mark.parametrize("facts", [20, 50, 100, 200])
def test_core_of_null_chain(benchmark, facts):
    """D3: coring a chain of nulls, every probe of which must fail."""
    inst = _null_chain(facts)
    result = benchmark(core, inst)
    record_metric(benchmark, input_facts=len(inst), core_facts=len(result))


def test_core_vs_double_hom_ablation(benchmark):
    """D4: comparing instances via cores vs. raw bidirectional checks.

    Times the raw double hom check on a redundant pair; the core-based
    route is timed by test_core_computation — compare in the report.
    """
    inst = random_instance(SCHEMA, 15, seed=4, null_ratio=0.4, value_pool=4)
    padded = inst.union(inst.freshen_nulls(prefix="PAD"))
    benchmark(is_hom_equivalent, inst, padded)


@pytest.mark.parametrize("ordering", ["constrained", "naive"])
def test_ordering_ablation(benchmark, ordering):
    """D3: most-constrained-first vs. naive fact ordering.

    The source mixes one highly selective fact (many constants) among
    null-rich facts; the constrained order places it first and prunes,
    the naive order takes the facts in sort order.
    """
    from repro.homs.search import homomorphisms

    source = random_instance(SCHEMA, 12, seed=2, null_ratio=0.7, value_pool=4)
    anchor = Instance.parse("Q(a9, a9)")
    source = source.union(anchor)
    target = random_instance(SCHEMA, 30, seed=5, null_ratio=0.0, value_pool=4).union(
        anchor
    )

    def run():
        return next(homomorphisms(source, target, ordering=ordering), None)

    found = benchmark(run)
    record_metric(benchmark, ordering=ordering, found=found is not None)


def test_hom_hard_case_cycles(benchmark):
    """Null cycles are the hom-search worst case (graph-coloring-like)."""
    cycle = Instance.parse(
        ", ".join(f"P(C{i}, C{(i + 1) % 8})" for i in range(8))
    )
    target = Instance.parse("P(a, b), P(b, c), P(c, a)")
    found = benchmark(is_homomorphic, cycle, target)
    record_metric(benchmark, found=found)
