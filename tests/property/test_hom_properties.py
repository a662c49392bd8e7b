"""Property-based tests: the homomorphism relation and cores.

The relation → is the extended identity mapping e(Id); these invariants
(preorder laws, ground behaviour, interaction with substitution and
cores) are load-bearing for every extended notion in the paper.  The
search must also be complete: it finds every homomorphism a brute-force
enumeration of null assignments finds, and the core probes miss no
retraction.
"""

from itertools import product

from hypothesis import given, settings

from repro.homs.core import core, is_core, retraction_to_core
from repro.homs.search import (
    all_homomorphisms,
    find_homomorphism,
    is_hom_equivalent,
    is_homomorphic,
    verify_homomorphism,
)
from repro.instance import Instance
from repro.terms import Const, value_sort_key

from .strategies import instances, nonempty_instances


@given(instances())
def test_hom_reflexive(inst):
    assert is_homomorphic(inst, inst)


@given(instances(max_size=3), instances(max_size=3), instances(max_size=3))
@settings(max_examples=60, deadline=None)
def test_hom_transitive(a, b, c):
    if is_homomorphic(a, b) and is_homomorphic(b, c):
        assert is_homomorphic(a, c)


@given(instances(allow_nulls=False), instances(allow_nulls=False))
def test_ground_hom_is_subset(a, b):
    assert is_homomorphic(a, b) == (a <= b)


@given(instances())
def test_empty_instance_is_bottom(inst):
    assert is_homomorphic(Instance(), inst)


@given(nonempty_instances())
def test_nonempty_never_maps_to_empty(inst):
    assert not is_homomorphic(inst, Instance())


@given(instances(), instances())
@settings(max_examples=80, deadline=None)
def test_found_homomorphisms_verify(a, b):
    h = find_homomorphism(a, b)
    if h is not None:
        assert verify_homomorphism(h, a, b)
        # Constants never remapped.
        assert all(not isinstance(k, Const) for k in h)


@given(instances())
def test_subset_implies_hom(inst):
    smaller = Instance(list(inst.facts)[: max(0, len(inst) - 1)])
    assert is_homomorphic(smaller, inst)


@given(instances())
@settings(max_examples=60, deadline=None)
def test_substitution_image_is_hom_target(inst):
    """Any null substitution yields a homomorphic image."""
    nulls = sorted(inst.nulls)
    if not nulls:
        return
    collapse = {n: Const("a") for n in nulls}
    image = inst.substitute(collapse)
    assert is_homomorphic(inst, image)


@given(instances(max_size=4))
@settings(max_examples=40, deadline=None)
def test_core_is_hom_equivalent_and_minimal(inst):
    c = core(inst)
    assert is_hom_equivalent(inst, c)
    assert is_core(c)
    assert len(c) <= len(inst)


@given(instances(max_size=4))
@settings(max_examples=40, deadline=None)
def test_core_idempotent(inst):
    c = core(inst)
    assert core(c) == c


@given(instances(allow_nulls=False, max_size=4))
def test_ground_core_identity(inst):
    assert core(inst) == inst


def brute_force_homomorphisms(source, target):
    """Every null assignment into *target*'s active domain that verifies."""
    nulls = sorted(source.nulls)
    domain = sorted(target.active_domain, key=value_sort_key)
    for image in product(domain, repeat=len(nulls)):
        h = dict(zip(nulls, image))
        if verify_homomorphism(h, source, target):
            yield h


@given(instances(), instances())
@settings(max_examples=60, deadline=None)
def test_search_finds_every_homomorphism(a, b):
    found = all_homomorphisms(a, b)
    as_sets = {frozenset(h.items()) for h in found}
    assert len(as_sets) == len(found)
    assert as_sets == {
        frozenset(h.items()) for h in brute_force_homomorphisms(a, b)
    }


@given(instances(max_size=6))
@settings(max_examples=60, deadline=None)
def test_core_is_a_subinstance(inst):
    assert core(inst) <= inst


@given(instances(max_size=4))
@settings(max_examples=60, deadline=None)
def test_is_core_agrees_with_brute_force(inst):
    # A retract into any proper subinstance is one into some subinstance
    # missing a single fact, so those are the ones to try.
    retracts = any(
        next(brute_force_homomorphisms(inst, Instance(inst.facts - {f})), None)
        is not None
        for f in inst.facts
    )
    assert is_core(inst) == (not retracts)


@given(instances(max_size=6))
@settings(max_examples=60, deadline=None)
def test_retraction_to_core_lands_on_core(inst):
    assert inst.substitute(retraction_to_core(inst)) == core(inst)
