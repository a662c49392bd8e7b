"""Term algebra for instances and dependencies.

The paper distinguishes three kinds of terms:

* **constants** (``Const``) — values from the fixed infinite set ``Const`` of
  the paper; homomorphisms must map every constant to itself;
* **labeled nulls** (``Null``) — values from the infinite set ``Var`` of the
  paper (renamed here to avoid clashing with dependency variables); a
  homomorphism may map a null to any constant or null;
* **variables** (``Var``) — placeholders that occur only inside dependencies
  and queries, never inside instances.

Instances contain only ``Const`` and ``Null`` values; dependencies and
queries contain ``Const`` and ``Var`` terms.  Keeping the three kinds as
distinct types (rather than, say, string conventions) makes the
homomorphism/chase code self-checking: mixing a ``Var`` into an instance is
a type error caught by validation, not a silent wrong answer.

Each kind is a ``tuple`` subclass that carries a kind tag: ``Const(v)``
is ``(0, v)``, ``Null(n)`` is ``(1, n)`` and ``Var(n)`` is ``(2, n)``, so
hashing and equality run in C wherever a term is a set member or a dict
key (DESIGN.md D13).  The tag keeps the kinds apart (``Const("x")``,
``Null("x")`` and ``Var("x")`` are pairwise unequal); a term equals its
plain tagged tuple, and terms of different kinds order by tag.  Canonical
output order is :func:`value_sort_key`, not that tuple order.
"""

from __future__ import annotations

import itertools
import re
from operator import itemgetter
from typing import Iterable, Union


class Const(tuple):
    """A constant value.

    Homomorphisms are required to map every constant to itself
    (Definition 3.1 of the paper).  The payload may be any hashable,
    orderable value; strings and integers are typical.
    """

    __slots__ = ()

    is_null = False
    is_const = True

    def __new__(cls, value: Union[str, int]) -> "Const":
        return tuple.__new__(cls, (0, value))

    value = property(itemgetter(1), doc="The payload (a string or an int).")

    def __getnewargs__(self) -> tuple:
        return (self[1],)

    def __repr__(self) -> str:
        return f"Const({self[1]!r})"

    def __str__(self) -> str:
        return str(self[1])


class Null(tuple):
    """A labeled null.

    Nulls represent unknown values.  Two nulls with the same name are the
    same null; nulls with different names are distinct values of an
    instance, but a homomorphism may collapse them or send them to
    constants.
    """

    __slots__ = ()

    is_null = True
    is_const = False

    def __new__(cls, name: str) -> "Null":
        return tuple.__new__(cls, (1, name))

    name = property(itemgetter(1), doc="The null's label.")

    def __getnewargs__(self) -> tuple:
        return (self[1],)

    def __repr__(self) -> str:
        return f"Null({self[1]!r})"

    def __str__(self) -> str:
        return f"_{self[1]}"


class Var(tuple):
    """A first-order variable, used only inside dependencies and queries."""

    __slots__ = ()

    def __new__(cls, name: str) -> "Var":
        return tuple.__new__(cls, (2, name))

    name = property(itemgetter(1), doc="The variable's name.")

    def __getnewargs__(self) -> tuple:
        return (self[1],)

    def __repr__(self) -> str:
        return f"Var({self[1]!r})"

    def __str__(self) -> str:
        return self[1]


#: A value that may occur in an instance.
Value = Union[Const, Null]

#: A term that may occur in a dependency or query atom.
Term = Union[Const, Var]


def term_text(term: Term) -> str:
    """*term* as dependency or query text, which parses back to it.

    A string constant prints quoted (``"a"``): bare, it would read back
    as a variable, and ``"3"`` would read back as the integer ``3``.
    Fact and instance text keep :meth:`Const.__str__`, unquoted.
    """
    if isinstance(term, Const) and isinstance(term.value, str):
        return f'"{term.value}"'
    return str(term)


def is_value(obj: object) -> bool:
    """Return True if *obj* may occur in an instance (constant or null)."""
    return isinstance(obj, (Const, Null))


def is_term(obj: object) -> bool:
    """Return True if *obj* may occur in a dependency atom."""
    return isinstance(obj, (Const, Var))


class NullFactory:
    """Deterministic factory of fresh labeled nulls.

    The chase needs a stream of nulls guaranteed not to clash with nulls
    already present in the input.  A factory carries a prefix and a counter;
    creating the factory with :meth:`avoiding` skips every name already in
    use, so freshness is guaranteed without global state.
    """

    def __init__(self, prefix: str = "N", start: int = 0) -> None:
        """Mint nulls named ``<prefix><counter>`` starting at *start*."""
        self._prefix = prefix
        self._counter = itertools.count(start)
        self._taken: set[str] = set()

    @classmethod
    def avoiding(cls, values: Iterable[Value], prefix: str = "N") -> "NullFactory":
        """Build a factory whose nulls avoid every null name in *values*."""
        factory = cls(prefix=prefix)
        factory._taken = {v.name for v in values if isinstance(v, Null)}
        return factory

    def fresh(self) -> Null:
        """Return a null that no previous call (nor the avoided set) produced."""
        while True:
            name = f"{self._prefix}{next(self._counter)}"
            if name not in self._taken:
                self._taken.add(name)
                return Null(name)

    def fresh_many(self, count: int) -> list[Null]:
        """Return *count* distinct fresh nulls."""
        return [self.fresh() for _ in range(count)]


def value_sort_key(value: Value) -> tuple:
    """A total order over mixed constants and nulls (constants first).

    ``Const`` payloads may mix ints and strings, so the key stringifies
    with a type tag to stay comparable.
    """
    if isinstance(value, Const):
        return (0, type(value.value).__name__, str(value.value))
    return (1, "null", value.name)


def term_sort_key(term: Term) -> tuple:
    """A total order over mixed constants and variables (constants first)."""
    if isinstance(term, Const):
        return (0, type(term.value).__name__, str(term.value))
    return (1, "var", term.name)


_CONST_TOKEN = re.compile(r"^[a-z0-9][A-Za-z0-9_']*$|^[0-9]+$")
_NULL_TOKEN = re.compile(r"^[A-Z][A-Za-z0-9_']*$")


def value_from_token(token: str) -> Value:
    """Interpret a bare token as a value, following data-exchange convention.

    Lowercase-initial tokens and numbers are constants; uppercase-initial
    tokens are labeled nulls.  This mirrors the paper's notation, where
    ``a, b, c, 0, 1`` are constants and ``X, Y, Z, W, U, V`` are nulls.
    """
    token = token.strip()
    if not token:
        raise ValueError("empty value token")
    if token.isdigit():
        return Const(int(token))
    if _NULL_TOKEN.match(token):
        return Null(token)
    if _CONST_TOKEN.match(token):
        return Const(token)
    raise ValueError(f"cannot interpret {token!r} as a constant or null")
