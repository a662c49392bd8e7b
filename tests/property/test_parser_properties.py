"""Property-based tests: parser/printer round trips for dependencies."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logic.atoms import Atom
from repro.logic.dependencies import DisjunctiveTgd, Tgd
from repro.logic.guards import Inequality
from repro.mappings.schema_mapping import SchemaMapping
from repro.parsing.parser import parse_dependency
from repro.terms import Const, Var


VARIABLES = [Var(n) for n in ("x", "y", "z", "w")]
RELATIONS = {"P": 2, "Q": 1, "R": 3}
#: Integer and string constants the lexer can read back; ``"3"`` and
#: ``"x"`` must not turn into the integer 3 or the variable x.
CONSTANTS = [Const(1), Const(2), Const("a"), Const("3"), Const("x"), Const("b c")]


@st.composite
def atoms(draw, relations=None):
    rels = relations or RELATIONS
    name = draw(st.sampled_from(sorted(rels)))
    terms = tuple(
        draw(st.sampled_from(VARIABLES + CONSTANTS))
        for _ in range(rels[name])
    )
    return Atom(name, terms)


@st.composite
def tgds(draw):
    premise = tuple(draw(st.lists(atoms(), min_size=1, max_size=3)))
    premise_vars = sorted(
        {v for a in premise for v in a.variables()}, key=lambda v: v.name
    )
    conclusion = tuple(draw(st.lists(atoms({"S": 2, "T": 1}), min_size=1, max_size=2)))
    guards = ()
    if premise_vars and draw(st.booleans()):
        other = draw(st.sampled_from(premise_vars[1:] + CONSTANTS))
        guards = (Inequality(premise_vars[0], other),)
    return Tgd(premise, conclusion, guards)


@st.composite
def disjunctive_tgds(draw):
    premise = tuple(draw(st.lists(atoms(), min_size=1, max_size=2)))
    disjuncts = tuple(
        tuple(draw(st.lists(atoms({"S": 2, "T": 1}), min_size=1, max_size=2)))
        for _ in range(draw(st.integers(min_value=2, max_value=3)))
    )
    return DisjunctiveTgd(premise, disjuncts)


@given(tgds())
@settings(max_examples=80, deadline=None)
def test_tgd_print_parse_round_trip(tgd):
    assert parse_dependency(str(tgd)) == tgd


@given(disjunctive_tgds())
@settings(max_examples=60, deadline=None)
def test_disjunctive_print_parse_round_trip(dtgd):
    assert parse_dependency(str(dtgd)) == dtgd


@given(tgds())
@settings(max_examples=40, deadline=None)
def test_printed_form_is_stable(tgd):
    """Printing is idempotent through a parse cycle."""
    once = str(parse_dependency(str(tgd)))
    twice = str(parse_dependency(once))
    assert once == twice


@given(st.lists(st.one_of(tgds(), disjunctive_tgds()), min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_mapping_print_parse_round_trip(dependencies):
    """A printed mapping reads back equal, under the same digest."""
    mapping = SchemaMapping(dependencies)
    printed = SchemaMapping.from_text(str(mapping))
    assert printed == mapping
    assert printed.digest() == mapping.digest()
