"""Recursive-descent parser for dependencies and conjunctive queries.

Grammar (informally)::

    dependency  :=  premise '->' disjunction
    premise     :=  conjunct ('&' conjunct)*
    conjunct    :=  atom | inequality | 'Constant' '(' term ')'
    inequality  :=  term '!=' term
    disjunction :=  disjunct ('|' disjunct)*
    disjunct    :=  ['EXISTS' var (',' var)* '.'] atoms
                 |  '(' ['EXISTS' ...] atoms ')'
    atoms       :=  atom ('&' atom)*
    atom        :=  IDENT '(' term (',' term)* ')'
    term        :=  IDENT            -- a variable
                 |  NUMBER           -- an integer constant
                 |  STRING           -- a string constant

    query       :=  IDENT '(' [var (',' var)*] ')' ':-' atoms

Examples::

    P(x, y, z) -> Q(x, y) & R(y, z)
    P(x, y) -> EXISTS z . Q(x, z) & Q(z, y)
    P'(x, y) & x != y -> P(x, y)
    P'(x, x) -> T(x) | P(x, x)
    R(x, y) & Constant(x) -> P(x)
    q(x) :- P(x, y) & Q(y, x)

``EXISTS`` annotations are optional and checked for consistency: the
declared variables must be exactly the disjunct's variables that do not
occur in the premise.
"""

from __future__ import annotations

import sys
from typing import List, Tuple

from ..errors import ParseError
from ..logic.atoms import Atom
from ..logic.dependencies import Dependency, DisjunctiveTgd, Tgd
from ..logic.guards import ConstantGuard, Guard, Inequality
from ..logic.queries import ConjunctiveQuery
from ..terms import Const, Term, Var
from .lexer import TokenStream, tokenize


def _parse_term(stream: TokenStream) -> Term:
    tok = stream.peek()
    if tok.kind == "IDENT":
        stream.next()
        return Var(tok.text)
    if tok.kind == "NUMBER":
        stream.next()
        return Const(int(tok.text))
    if tok.kind == "STRING":
        stream.next()
        return Const(tok.text[1:-1])
    raise ParseError(f"expected a term, found {tok}")


def _parse_atom(stream: TokenStream, name: str) -> Atom:
    stream.expect("LPAREN")
    terms: List[Term] = []
    if not stream.at("RPAREN"):
        terms.append(_parse_term(stream))
        while stream.accept("COMMA"):
            terms.append(_parse_term(stream))
    stream.expect("RPAREN")
    # One name object per relation, shared with the facts of
    # ``facts.fact`` (both intern).
    return Atom(sys.intern(name), tuple(terms))


def _parse_premise(stream: TokenStream) -> Tuple[List[Atom], List[Guard]]:
    atoms: List[Atom] = []
    guards: List[Guard] = []
    while True:
        tok = stream.peek()
        if tok.kind in ("IDENT", "NUMBER", "STRING"):
            # Either an atom, a Constant guard, or an inequality.
            if tok.kind == "IDENT":
                name = stream.next().text
                if stream.at("LPAREN"):
                    if name == "Constant":
                        stream.expect("LPAREN")
                        term = _parse_term(stream)
                        stream.expect("RPAREN")
                        guards.append(ConstantGuard(term))
                    else:
                        atoms.append(_parse_atom(stream, name))
                elif stream.at("NEQ"):
                    stream.expect("NEQ")
                    right = _parse_term(stream)
                    guards.append(Inequality(Var(name), right))
                else:
                    raise ParseError(f"dangling identifier {name!r} in premise")
            else:
                left = _parse_term(stream)
                stream.expect("NEQ")
                right = _parse_term(stream)
                guards.append(Inequality(left, right))
        else:
            raise ParseError(f"expected premise conjunct, found {tok}")
        if not stream.accept("AND"):
            break
    return atoms, guards


def _parse_disjunct(stream: TokenStream) -> Tuple[Tuple[Atom, ...], Tuple[Var, ...]]:
    """Parse one disjunct; return its atoms and declared existentials."""
    parenthesized = stream.accept("LPAREN")
    declared: List[Var] = []
    if stream.accept("EXISTS"):
        declared.append(Var(stream.expect("IDENT").text))
        while stream.accept("COMMA"):
            declared.append(Var(stream.expect("IDENT").text))
        stream.expect("DOT")
    atoms: List[Atom] = []
    while True:
        name = stream.expect("IDENT").text
        atoms.append(_parse_atom(stream, name))
        if not stream.accept("AND"):
            break
    if parenthesized:
        stream.expect("RPAREN")
    return tuple(atoms), tuple(declared)


def _check_exists(
    premise: List[Atom], atoms: Tuple[Atom, ...], declared: Tuple[Var, ...]
) -> None:
    if not declared:
        return
    premise_vars = {v for a in premise for v in a.variables()}
    actual = {v for a in atoms for v in a.variables()} - premise_vars
    if set(declared) != actual:
        decl = ", ".join(sorted(v.name for v in declared))
        act = ", ".join(sorted(v.name for v in actual))
        raise ParseError(
            f"EXISTS declares [{decl}] but the existential variables are [{act}]"
        )


def parse_dependency(text: str) -> Dependency:
    """Parse one dependency; returns :class:`Tgd` or :class:`DisjunctiveTgd`.

    A dependency with a single disjunct comes back as a plain :class:`Tgd`.
    Malformed text, and a dependency the constructors reject (say, a
    guard variable missing from the premise), raise :class:`ParseError`
    naming *text*.
    """
    try:
        stream = TokenStream(tokenize(text))
        premise, guards = _parse_premise(stream)
        stream.expect("ARROW")
        disjuncts: List[Tuple[Atom, ...]] = []
        while True:
            atoms, declared = _parse_disjunct(stream)
            _check_exists(premise, atoms, declared)
            disjuncts.append(atoms)
            if not stream.accept("OR"):
                break
        stream.expect("EOF")
        if len(disjuncts) == 1:
            return Tgd(tuple(premise), disjuncts[0], tuple(guards))
        return DisjunctiveTgd(tuple(premise), tuple(disjuncts), tuple(guards))
    except ValueError as exc:  # LexError, ParseError, constructor checks
        raise ParseError(f"in {text!r}: {exc}") from exc


def parse_dependencies(text: str) -> List[Dependency]:
    """Parse a newline- or semicolon-separated list of dependencies.

    Blank lines and ``--``/``#`` comments are skipped.
    """
    out: List[Dependency] = []
    for chunk in text.replace(";", "\n").splitlines():
        chunk = chunk.split("--")[0].split("#")[0].strip()
        if chunk:
            out.append(parse_dependency(chunk))
    return out


def parse_query(text: str) -> ConjunctiveQuery:
    """Parse a conjunctive query, e.g. ``q(x) :- P(x, y) & Q(y, x)``.

    Malformed or ill-formed text raises :class:`ParseError` naming *text*.
    """
    try:
        stream = TokenStream(tokenize(text))
        stream.expect("IDENT")  # query name, ignored
        stream.expect("LPAREN")
        head: List[Var] = []
        if not stream.at("RPAREN"):
            head.append(Var(stream.expect("IDENT").text))
            while stream.accept("COMMA"):
                head.append(Var(stream.expect("IDENT").text))
        stream.expect("RPAREN")
        stream.expect("TURNSTILE")
        body: List[Atom] = []
        while True:
            name = stream.expect("IDENT").text
            body.append(_parse_atom(stream, name))
            if not stream.accept("AND"):
                break
        stream.expect("EOF")
        return ConjunctiveQuery(tuple(head), tuple(body))
    except ValueError as exc:  # LexError, ParseError, constructor checks
        raise ParseError(f"in {text!r}: {exc}") from exc
