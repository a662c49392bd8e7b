"""Relational atoms over variables and constants.

Atoms are the building blocks of tgds and conjunctive queries.  Their
arguments are *terms* — variables or constants — never labeled nulls:
nulls live in instances only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Tuple

from ..facts import Fact
from ..terms import Const, Term, Value, Var, is_term, term_text


@dataclass(frozen=True, order=True)
class Atom:
    """An atom ``R(t1, ..., tn)`` with terms in ``Var ∪ Const``."""

    relation: str
    terms: Tuple[Term, ...]

    def __post_init__(self) -> None:
        for t in self.terms:
            if not is_term(t):
                raise TypeError(
                    f"atom {self.relation} contains {t!r}; atoms hold Var/Const only"
                )

    @property
    def arity(self) -> int:
        return len(self.terms)

    def variables(self) -> Iterator[Var]:
        """Yield the variables of the atom, with repetitions."""
        for t in self.terms:
            if isinstance(t, Var):
                yield t

    def substitute_terms(self, mapping: Mapping[Var, Term]) -> "Atom":
        """Replace variables by terms (used for equality-type quotients)."""
        return Atom(
            self.relation,
            tuple(mapping.get(t, t) if isinstance(t, Var) else t for t in self.terms),
        )

    def instantiate(self, binding: Mapping[Var, Value]) -> Fact:
        """Turn the atom into a fact under a complete variable binding."""
        values = []
        for t in self.terms:
            if isinstance(t, Var):
                try:
                    values.append(binding[t])
                except KeyError:
                    raise KeyError(f"binding misses variable {t} of atom {self}")
            else:
                values.append(t)
        return Fact(self.relation, tuple(values))

    def __str__(self) -> str:
        args = ", ".join(term_text(t) for t in self.terms)
        return f"{self.relation}({args})"


def atom(relation: str, *tokens: object) -> Atom:
    """Convenience constructor: ``atom("P", "x", "y")``.

    String tokens become variables; ints become constants; ``Var``/``Const``
    objects pass through.  (Note this differs from :func:`repro.instance.fact`,
    where strings denote constants or nulls — atoms live in formulas, where
    bare identifiers conventionally denote variables.)
    """
    terms = []
    for tok in tokens:
        if is_term(tok):
            terms.append(tok)
        elif isinstance(tok, str):
            terms.append(Var(tok))
        elif isinstance(tok, int):
            terms.append(Const(tok))
        else:
            raise TypeError(f"cannot build an atom term from {tok!r}")
    return Atom(relation, tuple(terms))
