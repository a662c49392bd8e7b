"""Unit tests for the lexer and parser."""

import pytest

from repro import Instance, chase
from repro.logic.dependencies import DisjunctiveTgd, Tgd
from repro.logic.guards import ConstantGuard, Inequality
from repro.parsing.lexer import LexError, TokenStream, tokenize
from repro.parsing.parser import (
    ParseError,
    parse_dependencies,
    parse_dependency,
    parse_query,
)
from repro.terms import Const, Var


class TestLexer:
    def test_kinds(self):
        tokens = tokenize("P(x, 1) -> Q(x) | R(x)")
        kinds = [t.kind for t in tokens]
        assert kinds == [
            "IDENT", "LPAREN", "IDENT", "COMMA", "NUMBER", "RPAREN",
            "ARROW", "IDENT", "LPAREN", "IDENT", "RPAREN", "OR",
            "IDENT", "LPAREN", "IDENT", "RPAREN", "EOF",
        ]

    def test_exists_keyword_case_insensitive(self):
        assert tokenize("exists")[0].kind == "EXISTS"
        assert tokenize("EXISTS")[0].kind == "EXISTS"

    def test_comments_skipped(self):
        tokens = tokenize("P(x) -- trailing\n# full line\n")
        assert [t.kind for t in tokens] == ["IDENT", "LPAREN", "IDENT", "RPAREN", "EOF"]

    def test_strings(self):
        tok = tokenize('"hello world"')[0]
        assert tok.kind == "STRING"

    def test_primed_identifiers(self):
        assert tokenize("P'")[0].text == "P'"

    def test_junk_raises(self):
        with pytest.raises(LexError):
            tokenize("P(x) @ Q(x)")

    def test_stream_expect(self):
        stream = TokenStream(tokenize("P"))
        assert stream.expect("IDENT").text == "P"
        with pytest.raises(LexError):
            stream.expect("ARROW")


class TestParseDependency:
    def test_plain_tgd(self):
        dep = parse_dependency("P(x, y) -> Q(x)")
        assert isinstance(dep, Tgd)
        assert dep.is_full()

    def test_existential(self):
        dep = parse_dependency("P(x) -> EXISTS z . Q(x, z)")
        assert dep.existential_variables == {Var("z")}

    def test_exists_annotation_checked(self):
        with pytest.raises(ParseError):
            parse_dependency("P(x) -> EXISTS w . Q(x, z)")

    def test_existential_inferred_without_annotation(self):
        dep = parse_dependency("P(x) -> Q(x, z)")
        assert dep.existential_variables == {Var("z")}

    def test_inequality_guard(self):
        dep = parse_dependency("P(x, y) & x != y -> Q(x)")
        assert dep.guards == (Inequality(Var("x"), Var("y")),)

    def test_constant_guard(self):
        dep = parse_dependency("P(x) & Constant(x) -> Q(x)")
        assert dep.guards == (ConstantGuard(Var("x")),)

    def test_disjunction(self):
        dep = parse_dependency("R(x) -> P(x) | Q(x)")
        assert isinstance(dep, DisjunctiveTgd)
        assert len(dep.disjuncts) == 2

    def test_parenthesized_disjuncts(self):
        dep = parse_dependency("R(x) -> (P(x) & S(x)) | Q(x)")
        assert isinstance(dep, DisjunctiveTgd)
        assert len(dep.disjuncts[0]) == 2

    def test_disjunct_with_exists(self):
        dep = parse_dependency("R(x) -> (EXISTS z . P(x, z)) | Q(x)")
        assert dep.existential_variables(0) == {Var("z")}

    def test_constants_in_atoms(self):
        dep = parse_dependency('P(x, 1) -> Q(x, "tag")')
        assert dep.premise[0].terms[1] == Const(1)
        assert dep.conclusion[0].terms[1] == Const("tag")

    def test_number_inequality(self):
        dep = parse_dependency("P(x) & x != 0 -> Q(x)")
        assert dep.guards == (Inequality(Var("x"), Const(0)),)

    def test_missing_arrow(self):
        with pytest.raises(ParseError):
            parse_dependency("P(x) Q(x)")

    def test_dangling_identifier(self):
        with pytest.raises(ParseError):
            parse_dependency("P(x) & y -> Q(x)")

    def test_round_trip_via_str(self):
        text = "P'(x, y) & x != y -> P(x, y)"
        dep = parse_dependency(text)
        assert parse_dependency(str(dep)) == dep

    def test_round_trip_disjunctive(self):
        dep = parse_dependency("P'(x, x) -> T(x) | P(x, x)")
        assert parse_dependency(str(dep)) == dep


class TestParseDependencies:
    def test_multiline(self):
        deps = parse_dependencies(
            """
            P(x) -> Q(x)   -- comment
            # another comment
            R(x) -> S(x)
            """
        )
        assert len(deps) == 2

    def test_semicolons(self):
        assert len(parse_dependencies("P(x) -> Q(x); R(x) -> S(x)")) == 2

    def test_empty(self):
        assert parse_dependencies("") == []

    def test_relation_names_are_shared_with_parsed_facts(self):
        # The parser and ``facts.fact`` both intern relation names, so
        # a chase result holds one name object per relation.
        deps = parse_dependencies(
            "Edge(x, y) -> Path(x, y)\nPath(x, y) & Edge(y, z) -> Path(x, z)"
        )
        result = chase(Instance.parse("Edge(1, 2), Edge(2, 3)"), deps)
        names = {}
        for f in result.instance.facts:
            names.setdefault(f.relation, set()).add(id(f.relation))
        assert sorted(names) == ["Edge", "Path"]
        assert all(len(ids) == 1 for ids in names.values())


class TestParseQuery:
    def test_basic(self):
        query = parse_query("q(x, y) :- P(x, z) & Q(z, y)")
        assert [v.name for v in query.head] == ["x", "y"]
        assert len(query.body) == 2

    def test_boolean(self):
        query = parse_query("q() :- P(x)")
        assert query.is_boolean

    def test_head_var_not_in_body(self):
        with pytest.raises(ValueError):
            parse_query("q(w) :- P(x)")

    def test_missing_turnstile(self):
        with pytest.raises(ParseError):
            parse_query("q(x) P(x)")
