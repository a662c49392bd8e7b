"""Property-based tests: the position index never changes results.

Matching against an indexed ``Instance`` and against an index-less
store (``InstanceBuilder``) must produce identical binding sets; the
homomorphism search must find the same reachability either way.  And
the search misses no binding: on joins of three and four atoms, where
it re-ranks and backtracks, it finds what brute force finds.
"""

import itertools

from hypothesis import given, settings

from repro.instance import Instance, InstanceBuilder
from repro.logic.atoms import atom
from repro.logic.matching import match_atoms
from repro.terms import Var, value_sort_key

from .strategies import instances


PATTERNS = [
    [atom("P", "x", "y")],
    [atom("P", "x", "x")],
    [atom("P", "x", "y"), atom("P", "y", "z")],
    [atom("P", "x", "y"), atom("Q", "y")],
    [atom("Q", "x"), atom("Q", "y")],
]


JOINS = [
    [atom("P", "x", "y"), atom("P", "y", "z"), atom("P", "z", "u")],
    [atom("P", "x", "y"), atom("P", "y", "z"), atom("P", "z", "x")],
    [atom("P", "x", "y"), atom("Q", "x"), atom("P", "y", "z"), atom("P", "u", "z")],
]


def canonical(bindings):
    return sorted(
        tuple(sorted((v.name, str(value)) for v, value in binding.items()))
        for binding in bindings
    )


@given(instances({"P": 2, "Q": 1}, max_size=5))
@settings(max_examples=60, deadline=None)
def test_indexed_and_plain_matching_agree(inst):
    builder_view = InstanceBuilder(inst)  # no tuples_at -> full scans
    for pattern in PATTERNS:
        indexed = canonical(match_atoms(pattern, inst))
        scanned = canonical(match_atoms(pattern, builder_view))
        assert indexed == scanned, pattern


@given(instances({"P": 2, "Q": 1}, max_size=4), instances({"P": 2, "Q": 1}, max_size=4))
@settings(max_examples=60, deadline=None)
def test_hom_search_unaffected_by_index_warmth(left, right):
    from repro.homs.search import is_homomorphic

    cold = is_homomorphic(left, right)
    # Warm the index through arbitrary probes, then re-check.
    for relation in right.relation_names:
        for value in right.active_domain:
            right.tuples_at(relation, 0, value)
    warm = is_homomorphic(left, right)
    assert cold == warm


@given(instances({"P": 2, "Q": 1}, max_size=14))
@settings(max_examples=80, deadline=None)
def test_matching_finds_every_binding(inst):
    domain = sorted(inst.active_domain, key=value_sort_key)
    for pattern in JOINS:
        variables = sorted({v for a in pattern for v in a.variables()})
        brute = []
        for values in itertools.product(domain, repeat=len(variables)):
            binding = dict(zip(variables, values))
            if all(a.instantiate(binding) in inst for a in pattern):
                brute.append(binding)
        assert canonical(match_atoms(pattern, inst)) == canonical(brute), pattern
