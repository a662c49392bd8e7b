"""Premise guards: inequalities and the ``Constant`` predicate.

The paper's richer dependency languages (Section 2) extend tgd premises
with two kinds of non-relational conjuncts:

* inequalities ``x ≠ x'`` between premise variables, and
* ``Constant(x)``, true exactly when ``x`` is bound to a constant.

Guards are evaluated against a variable binding produced by matching the
relational premise atoms.  Over instances with nulls, an inequality between
two *distinct* values is satisfied syntactically; the subtlety that distinct
nulls might still denote the same unknown value is handled one level up, by
the quotient branching of the disjunctive chase (see
:mod:`repro.chase.disjunctive`), not by the guard itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Mapping, Union

from ..terms import Const, Term, Value, Var, is_term, term_text


def _resolve(term: Term, binding: Mapping[Var, Value]) -> Value:
    if isinstance(term, Var):
        try:
            return binding[term]
        except KeyError:
            raise KeyError(f"binding misses guard variable {term}")
    return term


@dataclass(frozen=True, order=True)
class Inequality:
    """The guard ``left ≠ right``."""

    left: Term
    right: Term

    def __post_init__(self) -> None:
        if not (is_term(self.left) and is_term(self.right)):
            raise TypeError("inequality endpoints must be terms (Var/Const)")

    def holds(self, binding: Mapping[Var, Value]) -> bool:
        """Syntactic disequality of the bound values."""
        return _resolve(self.left, binding) != _resolve(self.right, binding)

    def variables(self) -> FrozenSet[Var]:
        """The variables the guard needs bound before it can be checked.

        The matcher uses this to defer a guard exactly while some of
        its variables are unbound — and to let real evaluation errors
        propagate once they all are.
        """
        return frozenset(
            t for t in (self.left, self.right) if isinstance(t, Var)
        )

    def substitute_terms(self, mapping: Mapping[Var, Term]) -> "Inequality":
        """Substitute into both sides (either may become a constant)."""
        left = mapping.get(self.left, self.left) if isinstance(self.left, Var) else self.left
        right = (
            mapping.get(self.right, self.right) if isinstance(self.right, Var) else self.right
        )
        return Inequality(left, right)

    def is_trivially_false(self) -> bool:
        """True for ``t ≠ t``, which no binding can satisfy."""
        return self.left == self.right

    def __str__(self) -> str:
        return f"{term_text(self.left)} != {term_text(self.right)}"


@dataclass(frozen=True, order=True)
class ConstantGuard:
    """The guard ``Constant(term)`` — satisfied when the value is a constant."""

    term: Term

    def __post_init__(self) -> None:
        if not is_term(self.term):
            raise TypeError("Constant() argument must be a term (Var/Const)")

    def holds(self, binding: Mapping[Var, Value]) -> bool:
        """True when the bound value is a constant (not a null)."""
        return isinstance(_resolve(self.term, binding), Const)

    def variables(self) -> FrozenSet[Var]:
        """The variables the guard needs bound before it can be checked."""
        if isinstance(self.term, Var):
            return frozenset((self.term,))
        return frozenset()

    def substitute_terms(self, mapping: Mapping[Var, Term]) -> "ConstantGuard":
        """Substitute into the guarded term."""
        term = mapping.get(self.term, self.term) if isinstance(self.term, Var) else self.term
        return ConstantGuard(term)

    def is_trivially_false(self) -> bool:
        """Constant guards are satisfiable for some binding: never false."""
        return False

    def __str__(self) -> str:
        return f"Constant({term_text(self.term)})"


Guard = Union[Inequality, ConstantGuard]
