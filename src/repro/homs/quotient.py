"""Quotients of instances by null identifications.

A *quotient* of an instance ``J`` identifies some of its nulls with each
other and/or with constants.  Formally, a quotient is induced by an
idempotent substitution whose kernel partitions the nulls, each block
optionally anchored to a constant, no two blocks to the same one.

Why this matters: the disjunctive chase with inequalities, run over a
target instance that *contains nulls*, must consider that distinct nulls
may denote the same unknown value.  Without quotient branching, the
paper's own maximum extended recovery for Theorem 5.2 would fail
universal-faithfulness on ``J = {P'(n1, n2)}`` — the branch where
``n1 = n2`` (and the branch where both equal a constant) must exist for
condition (3) of Definition 6.1 to hold.  Enumerating all quotients of
``J`` enumerates exactly the possible kernels of homomorphisms out of
``J``, which is the completeness requirement.

:func:`enumerate_quotients` has two modes.  Given the dependencies that
will chase the worlds (``observed_by``), it yields only the *observable
closure* of ``J``: ``J`` itself, then breadth-first each generated world
with one more identification of two values that an inequality guard
compares in some premise match (``x != y``, or ``x != c`` for a constant
``c``).  For source-to-target dependencies every other world's branches
are dominated by branches of the closure (DESIGN.md D10), so the reverse
chase chases the closure whenever it minimizes.  Without
``observed_by`` it yields every quotient: the exhaustive oracle, whose
count grows like the Bell numbers in the number of nulls
(:func:`count_quotients`; benchmarks measure the growth, SB-3).  Both
modes take a ``max_nulls`` guard that raises instead of silently
exploding.

Limitation (documented in DESIGN.md): the exhaustive mode anchors blocks
only to constants of ``J`` plus any ``extra_anchors`` (the reverse chase
passes the constants its inequality guards name).  A world anchored to
any other constant could only be told apart by a ``Constant(x)`` guard
or a premise constant, and those only add triggers, so such a world's
branches are dominated anyway (D10).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import comb, perm
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..instance import Instance
from ..logic.dependencies import Dependency, iter_disjunctive
from ..logic.guards import Inequality
from ..logic.matching import match_atoms
from ..terms import Const, Null, Value, value_sort_key


class QuotientExplosion(RuntimeError):
    """Raised when an instance has too many nulls to quotient exhaustively."""


@dataclass(frozen=True)
class Quotient:
    """One quotient: the substitution applied and the resulting instance."""

    substitution: Tuple[Tuple[Null, Value], ...]
    instance: Instance

    @property
    def mapping(self) -> Dict[Null, Value]:
        return dict(self.substitution)

    def is_identity(self) -> bool:
        return all(n == v for n, v in self.substitution)


def _partitions(items: Sequence[Null]) -> Iterator[List[List[Null]]]:
    """Enumerate set partitions (restricted-growth recursion)."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partial in _partitions(rest):
        for block in partial:
            yield [blk + [first] if blk is block else list(blk) for blk in partial]
        yield [[first]] + [list(blk) for blk in partial]


def enumerate_quotients(
    instance: Instance,
    max_nulls: int = 8,
    anchor_constants: bool = True,
    extra_anchors: Sequence[Const] = (),
    observed_by: Optional[Sequence[Dependency]] = None,
) -> Iterator[Quotient]:
    """Yield quotients of *instance*, each substitution once.

    Without *observed_by*, yields every quotient (identity included):
    each partition of the nulls, each block anchored to a distinct
    constant of the instance (plus any *extra_anchors*) or to none.

    With *observed_by* (dependencies), yields the observable closure
    instead, identity first and breadth-first: each world adds one
    identification of two values that an inequality guard of the
    dependencies compares in a premise match over its parent world.
    The anchor arguments do not apply; anchors come from the guards'
    pairs.  The closure is complete for minimized reverse chases of
    source-to-target dependencies only (DESIGN.md D10).

    Raises :class:`QuotientExplosion` when the instance has more than
    *max_nulls* nulls, in either mode.
    """
    nulls = sorted(instance.nulls)
    if len(nulls) > max_nulls:
        raise QuotientExplosion(
            f"instance has {len(nulls)} nulls > max_nulls={max_nulls}; "
            "raise the limit explicitly if the blowup is acceptable"
        )
    if observed_by is not None:
        yield from _observable_closure(instance, nulls, observed_by)
        return
    anchors: List[Optional[Const]] = [None]
    if anchor_constants:
        anchors += sorted(
            set(instance.constants) | set(extra_anchors), key=value_sort_key
        )

    for partition in _partitions(nulls):
        for anchor_choice in _anchor_choices(partition, anchors):
            substitution: Dict[Null, Value] = {}
            for block, anchor in zip(partition, anchor_choice):
                representative: Value = anchor if anchor is not None else min(block)
                for null in block:
                    substitution[null] = representative
            yield Quotient(
                tuple(sorted(substitution.items())),
                instance.substitute(substitution),
            )


def _anchor_choices(
    partition: List[List[Null]], anchors: List[Optional[Const]]
) -> Iterator[Tuple[Optional[Const], ...]]:
    """All ways to anchor each block to a distinct anchor (or to none).

    Two blocks anchored to one constant would be the substitution of
    their merged block anchored there, which the partition enumeration
    yields on its own.
    """
    if not partition:
        yield ()
        return
    for rest in _anchor_choices(partition[1:], anchors):
        for anchor in anchors:
            if anchor is None or anchor not in rest:
                yield (anchor,) + rest


def _observable_closure(
    instance: Instance, nulls: List[Null], dependencies: Sequence[Dependency]
) -> Iterator[Quotient]:
    """The worlds generated from the identity by observable identifications.

    A substitution maps every null of *instance* to its block's
    representative: the anchor constant, else the block's least null.
    Merging an observable pair ``(value, null)`` — ordered so that
    *value* sorts first, hence is the constant or the lesser null —
    sends every null of *null*'s block to *value*, which keeps that
    canonical form.  Queued worlds are substitutions only: each world
    is built once, when it is dequeued and yielded.
    """
    checks = []
    for dtgd in iter_disjunctive(dependencies):
        inequalities = [g for g in dtgd.guards if isinstance(g, Inequality)]
        if inequalities:
            checks.append((dtgd.premise, dtgd.guards, inequalities))
    identity = tuple((null, null) for null in nulls)
    seen = {identity}
    queue = deque([identity])
    while queue:
        substitution = queue.popleft()
        world = instance.substitute(dict(substitution))
        yield Quotient(substitution, world)
        for value, null in _observable_pairs(world, checks):
            merged = tuple(
                (n, value if v == null else v) for n, v in substitution
            )
            if merged not in seen:
                seen.add(merged)
                queue.append(merged)


def _observable_pairs(world: Instance, checks: list) -> List[Tuple[Value, Null]]:
    """Value pairs an inequality guard compares in a premise match.

    Each pair is ``(value, null)`` with *value* first in
    :func:`~repro.terms.value_sort_key` order; pairs of two constants
    are left out (no quotient merges them).  Sorted, so the closure's
    order depends on content only.
    """
    pairs: Set[Tuple[Value, Null]] = set()
    for premise, guards, inequalities in checks:
        for binding in match_atoms(premise, world, guards):
            for guard in inequalities:
                # A constant side is not a binding key and stays itself.
                low, high = sorted(
                    (binding.get(guard.left, guard.left),
                     binding.get(guard.right, guard.right)),
                    key=value_sort_key,
                )
                if isinstance(high, Null):
                    pairs.add((low, high))
    return sorted(pairs, key=lambda pair: tuple(map(value_sort_key, pair)))


def count_quotients(null_count: int, constant_count: int) -> int:
    """Closed-form count of the exhaustive quotients.

    ``Σₖ S(n, k) · Σⱼ C(k, j) · c! / (c − j)!``: partitions of the
    nulls into ``k`` blocks, ``j`` of them anchored to distinct
    constants.
    """
    stirling = [[0] * (null_count + 1) for _ in range(null_count + 1)]
    stirling[0][0] = 1
    for n in range(1, null_count + 1):
        for k in range(1, n + 1):
            stirling[n][k] = k * stirling[n - 1][k] + stirling[n - 1][k - 1]
    return sum(
        stirling[null_count][k]
        * sum(comb(k, j) * perm(constant_count, j) for j in range(k + 1))
        for k in range(null_count + 1)
    )
