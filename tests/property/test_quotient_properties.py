"""Property-based tests: quotient enumeration completeness.

The quotient set of J must cover the kernel of *every* homomorphism out
of J — the completeness requirement that makes the reverse disjunctive
chase (and hence universal-faithfulness) work over nulls.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.homs.quotient import count_quotients, enumerate_quotients
from repro.homs.search import homomorphisms, is_homomorphic
from repro.instance import Instance

from .strategies import instances


SMALL = {"P": 2, "Q": 1}


@given(instances(SMALL, max_size=3))
@settings(max_examples=40, deadline=None)
def test_identity_quotient_always_present(inst):
    assert any(q.is_identity() for q in enumerate_quotients(inst))


@given(instances(SMALL, max_size=3))
@settings(max_examples=40, deadline=None)
def test_quotients_are_hom_images(inst):
    for quotient in enumerate_quotients(inst):
        assert is_homomorphic(inst, quotient.instance)


@given(instances(SMALL, max_size=3))
@settings(max_examples=30, deadline=None)
def test_quotient_count_matches_closed_form(inst):
    actual = sum(1 for _ in enumerate_quotients(inst))
    expected = count_quotients(len(inst.nulls), len(inst.constants))
    assert actual == expected


@given(instances(SMALL, max_size=3))
@example(Instance.parse("P(X, Y), Q(a)"))
@settings(max_examples=40, deadline=None)
def test_quotient_substitutions_are_distinct(inst):
    """Each world comes once: two blocks never anchor to one constant."""
    substitutions = [q.substitution for q in enumerate_quotients(inst)]
    assert len(substitutions) == len(set(substitutions))


@given(instances(SMALL, max_size=2), instances(SMALL, max_size=2, allow_nulls=False))
@settings(max_examples=30, deadline=None)
def test_kernels_of_homs_are_covered(source, ground_target):
    """For every hom h: source -> target, some quotient realizes h's

    kernel: the quotient instance maps injectively-on-values into the
    target via h.  (Completeness of quotient branching.)
    """
    for h in homomorphisms(source, ground_target):
        image = source.substitute(dict(h))
        found = False
        for quotient in enumerate_quotients(source):
            # The quotient whose substitution agrees with h up to
            # renaming of representatives: its instance must still map
            # into the target, and have the same fact count as the image.
            mapped = quotient.instance.substitute(
                {n: h[n] for n in quotient.instance.nulls if n in h}
            )
            if mapped == image:
                found = True
                break
        assert found


@given(instances(SMALL, max_size=3))
@settings(max_examples=30, deadline=None)
def test_quotients_without_anchoring_keep_nulls(inst):
    for quotient in enumerate_quotients(inst, anchor_constants=False):
        assert len(quotient.instance.constants) == len(inst.constants)
