"""Instance isomorphism (null-renaming equivalence).

Two instances are *isomorphic* when some bijective renaming of nulls
(constants fixed) maps one exactly onto the other.  Isomorphism is
strictly finer than homomorphic equivalence and is the right notion for
comparing *cores*: cores of hom-equivalent instances are isomorphic, so
``core + isomorphism`` gives a decidable canonical comparison for the
paper's "up to homomorphic equivalence" statements.

After a fact-count/profile fast path, the search enumerates the
homomorphisms ``left → right`` (:func:`repro.homs.search.homomorphisms`)
and keeps those that send nulls injectively to nulls and map ``left``
exactly onto ``right``; injectivity is a filter on the results, not a
constraint inside the search.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional

from ..instance import Instance
from ..terms import Const, Null, Value
from .core import core
from .search import homomorphisms


def _profiles_differ(left: Instance, right: Instance) -> bool:
    """Cheap invariants that isomorphic instances must share."""
    if len(left) != len(right):
        return True
    if len(left.nulls) != len(right.nulls):
        return True
    if left.constants != right.constants:
        return True
    left_counts = {rel: len(left.tuples(rel)) for rel in left.relation_names}
    right_counts = {rel: len(right.tuples(rel)) for rel in right.relation_names}
    return left_counts != right_counts


def isomorphisms(left: Instance, right: Instance) -> Iterator[Dict[Null, Value]]:
    """Yield the isomorphisms ``left → right`` as null bijections."""
    if _profiles_differ(left, right):
        return
    for h in homomorphisms(left, right):
        values = list(h.values())
        if len(set(values)) != len(values):
            continue  # not injective on nulls
        if any(isinstance(v, Const) for v in values):
            continue  # nulls must map to nulls for a bijection to exist
        if left.substitute(dict(h)) == right:
            yield h


def find_isomorphism(left: Instance, right: Instance) -> Optional[Dict[Null, Value]]:
    """One isomorphism, or None."""
    return next(isomorphisms(left, right), None)


def is_isomorphic(left: Instance, right: Instance) -> bool:
    """Null-renaming equivalence of two instances."""
    return find_isomorphism(left, right) is not None


def canonically_equivalent(left: Instance, right: Instance) -> bool:
    """Hom-equivalence decided through cores: ``core(left) ≅ core(right)``.

    Equivalent to two hom checks, but yields a *certificate* pair of
    isomorphic cores; preferable when the instances are large but fold to
    small cores.
    """
    return is_isomorphic(core(left), core(right))
