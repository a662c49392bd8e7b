"""Tokenizer for the dependency/query syntax.

Token kinds::

    IDENT    P, Q', emp_dept, x1     (relations and variables)
    NUMBER   0, 42                   (integer constants)
    STRING   "alice"                 (string constants)
    ARROW    ->
    NEQ      !=
    AND      &
    OR       |
    LPAREN   (      RPAREN )
    COMMA    ,      DOT    .
    TURNSTILE :-
    EXISTS   EXISTS (case-insensitive keyword)

Comments run from ``--`` or ``#`` to end of line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, List

from ..errors import ReproError


@dataclass(frozen=True)
class Token:
    """One lexeme: its kind tag, raw text, and source offset."""

    kind: str
    text: str
    position: int

    def __str__(self) -> str:
        return f"{self.kind}({self.text!r})@{self.position}"


class LexError(ReproError, ValueError):
    """Raised on an unrecognized character or an unexpected token."""


_TOKEN_RE = re.compile(
    r"""
    (?P<WS>\s+)
  | (?P<COMMENT>(\#|--)[^\n]*)
  | (?P<TURNSTILE>:-)
  | (?P<ARROW>->)
  | (?P<NEQ>!=)
  | (?P<AND>&)
  | (?P<OR>\|)
  | (?P<LPAREN>\()
  | (?P<RPAREN>\))
  | (?P<COMMA>,)
  | (?P<DOT>\.)
  | (?P<SEMI>;)
  | (?P<NUMBER>\d+)
  | (?P<STRING>"[^"]*")
  | (?P<IDENT>[A-Za-z_][A-Za-z0-9_']*)
    """,
    re.VERBOSE,
)


def tokenize(text: str) -> List[Token]:
    """Tokenize *text*, raising :class:`LexError` on junk."""
    tokens: List[Token] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            snippet = text[pos : pos + 10]
            raise LexError(f"unexpected character at position {pos}: {snippet!r}")
        kind = m.lastgroup
        assert kind is not None
        value = m.group()
        pos = m.end()
        if kind in ("WS", "COMMENT"):
            continue
        if kind == "IDENT" and value.upper() == "EXISTS":
            kind = "EXISTS"
        tokens.append(Token(kind, value, m.start()))
    tokens.append(Token("EOF", "", len(text)))
    return tokens


class TokenStream:
    """A cursor over a token list with one-token lookahead."""

    def __init__(self, tokens: List[Token]) -> None:
        """Wrap a token list ending in the EOF sentinel."""
        self._tokens = tokens
        self._index = 0

    def peek(self) -> Token:
        """The next token, without consuming it."""
        return self._tokens[self._index]

    def next(self) -> Token:
        """Consume and return the next token (EOF is sticky)."""
        tok = self._tokens[self._index]
        if tok.kind != "EOF":
            self._index += 1
        return tok

    def expect(self, kind: str) -> Token:
        """Consume a token of *kind* or raise :class:`LexError`."""
        tok = self.peek()
        if tok.kind != kind:
            raise LexError(f"expected {kind}, found {tok}")
        return self.next()

    def accept(self, kind: str) -> bool:
        """Consume the next token if it is of *kind*; report whether."""
        if self.peek().kind == kind:
            self.next()
            return True
        return False

    def at(self, *kinds: str) -> bool:
        """True when the next token is one of *kinds*."""
        return self.peek().kind in kinds

    def __iter__(self) -> Iterator[Token]:
        return iter(self._tokens[self._index :])
