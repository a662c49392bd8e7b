"""Property-based tests: malformed input fails typed at the input edges.

The dependency DSL, the instance syntax and the query syntax are the
program's untrusted text inputs; HTTP request bodies are the service's.
Mutated text must fail with :class:`repro.errors.ParseError` only, and a
malformed body with :class:`repro.service.ops.ServiceRequestError` only
(the HTTP layer's 400), never with an untyped exception (a 500).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParseError
from repro.instance import Instance
from repro.mappings.schema_mapping import SchemaMapping
from repro.parsing.parser import parse_query
from repro.service.ops import SERVICE_OPS, ServiceRequestError, validate_request
from repro.workloads.scenarios import PAPER_SCENARIOS

MAPPING_TEXTS = sorted(
    {
        "\n".join(str(dep) for dep in mapping.dependencies)
        for scenario in PAPER_SCENARIOS.values()
        for mapping in (scenario.mapping, scenario.reverse)
        if mapping is not None
    }
) + [
    'R(x, "a") & Constant(x) & x != 7 -> EXISTS z . S(x, z) | T(x)',
]
INSTANCE_TEXTS = ["P(a, b, Z), P(X, b, c)", "R(1, G6)", "P'(X, Y), P'(Y, a)"]
QUERY_TEXTS = ["q(x) :- P(x, y) & Q(y, x)", "q() :- P(x)", "q(x, y) :- P'(x, 1)"]

#: The DSL's own characters, so mutations reach deep into the grammar.
DSL_CHARS = "()&|!=-><.,:'\"\\ \n\tEXISTSConstantPQRSTxyzab0179_"


@st.composite
def mutated(draw, seeds):
    """A seed text with one to four random splices."""
    text = draw(st.sampled_from(seeds))
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        start = draw(st.integers(min_value=0, max_value=len(text)))
        end = draw(st.integers(min_value=start, max_value=min(len(text), start + 4)))
        insert = draw(st.text(alphabet=DSL_CHARS, max_size=3) | st.text(max_size=2))
        text = text[:start] + insert + text[end:]
    return text


def _fails_typed(parse, text):
    try:
        parse(text)
    except ParseError:
        pass


@given(mutated(MAPPING_TEXTS))
@settings(max_examples=300, deadline=None)
def test_mutated_mapping_text_raises_only_parse_error(text):
    _fails_typed(SchemaMapping.from_text, text)


@given(mutated(INSTANCE_TEXTS))
@settings(max_examples=300, deadline=None)
def test_mutated_instance_text_raises_only_parse_error(text):
    _fails_typed(Instance.parse, text)


@given(mutated(QUERY_TEXTS))
@settings(max_examples=300, deadline=None)
def test_mutated_query_text_raises_only_parse_error(text):
    _fails_typed(parse_query, text)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=8,
)

FIELDS = (
    "mapping", "instance", "reverse", "recovery", "query", "limits", "fault",
    "variant", "max_nulls", "take_core",
)

VALID_BODIES = {
    "chase": {"mapping": "P(x) -> Q(x)", "instance": "P(a)", "variant": "oblivious"},
    "reverse": {
        "mapping": "P'(x, y) & x != y -> P(x, y)\nP'(x, x) -> T(x) | P(x, x)",
        "instance": "P'(X, a)",
        "max_nulls": 4,
        "take_core": True,
        "limits": {"deadline": 5, "max_branches": 100},
    },
    "audit": {"mapping": "P(x) -> Q(x)", "reverse": "Q(x) -> P(x)"},
    "answer": {
        "mapping": "P(x) -> Q(x)",
        "recovery": "Q(x) -> P(x)",
        "instance": "P(a)",
        "query": "q(x) :- P(x)",
        "fault": {"kind": "hang", "seconds": 1},
    },
}


def _validates_or_fails_typed(op, body, allow_faults):
    try:
        validate_request(op, body, allow_faults=allow_faults)
    except ServiceRequestError:
        pass


@given(
    op=st.sampled_from(SERVICE_OPS + ("frobnicate",)),
    body=JSON_VALUES
    | st.dictionaries(st.sampled_from(FIELDS) | st.text(max_size=6), JSON_VALUES, max_size=6),
    allow_faults=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_random_bodies_raise_only_request_errors(op, body, allow_faults):
    _validates_or_fails_typed(op, body, allow_faults)


@given(
    op=st.sampled_from(SERVICE_OPS),
    field=st.sampled_from(FIELDS),
    value=JSON_VALUES | mutated(MAPPING_TEXTS + INSTANCE_TEXTS + QUERY_TEXTS),
    allow_faults=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_one_mutated_field_raises_only_request_errors(op, field, value, allow_faults):
    body = dict(VALID_BODIES[op], **{field: value})
    _validates_or_fails_typed(op, body, allow_faults)
