"""Property-based tests: the value contract of terms and facts.

``Const``, ``Null`` and ``Var`` are tuples tagged with their kind, and
``Fact`` is the tuple ``(relation, values)`` (DESIGN.md D13).  Equality
and hashing follow kind and payload, pickling and copying keep the
type, and ``str``/``repr`` print what the frozen dataclasses they
replaced printed.  Lists of instances print as ``str`` printed each
instance before :func:`~repro.instance.render_instances` printed them.
"""

import copy
import pickle

from hypothesis import example, given
from hypothesis import strategies as st

from repro.facts import Fact
from repro.instance import Instance, render_instances
from repro.logic.atoms import Atom
from repro.terms import Const, Null, Var

#: Payloads: ints and strings, including ones that print alike.
PAYLOADS = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.text(alphabet="aX0_ '", max_size=3),
)
NAMES = st.text(alphabet="aX0_'", min_size=1, max_size=3)


@st.composite
def terms(draw):
    """A ``(kind, payload, term)`` triple; nulls and variables are named."""
    kind = draw(st.sampled_from((Const, Null, Var)))
    payload = draw(PAYLOADS if kind is Const else NAMES)
    return kind, payload, kind(payload)


@st.composite
def facts(draw):
    relation = draw(st.sampled_from(("P", "Q", "Emp")))
    values = draw(
        st.lists(
            st.one_of(PAYLOADS.map(Const), NAMES.map(Null)), max_size=3
        )
    )
    return Fact(relation, tuple(values))


@given(terms(), terms())
def test_equality_is_kind_and_payload(left, right):
    left_kind, left_payload, a = left
    right_kind, right_payload, b = right
    same = left_kind is right_kind and left_payload == right_payload
    assert (a == b) is same
    assert (a != b) is not same


@given(terms(), terms())
def test_hash_agrees_with_equality(left, right):
    a, b = left[2], right[2]
    if a == b:
        assert hash(a) == hash(b)
    assert len({a, b}) == (1 if a == b else 2)
    assert ({a: 1}.get(b) == 1) is (a == b)


@given(NAMES)
def test_kinds_with_one_payload_are_pairwise_unequal(payload):
    kinds = [Const(payload), Null(payload), Var(payload)]
    for i, a in enumerate(kinds):
        for b in kinds[i + 1:]:
            assert a != b and b != a
    assert len(set(kinds)) == 3


@given(facts())
def test_fact_never_equals_an_atom(f):
    # Ground facts hold only constants, so the atom below is legal.
    ground = Fact(f.relation, tuple(v for v in f.values if isinstance(v, Const)))
    atom = Atom(ground.relation, ground.values)
    assert ground != atom and atom != ground
    assert len({ground, atom}) == 2


@given(terms())
def test_pickle_and_copy_keep_type_and_equality(triple):
    kind, _, term = triple
    for clone in (
        pickle.loads(pickle.dumps(term)),
        copy.copy(term),
        copy.deepcopy(term),
    ):
        assert type(clone) is kind
        assert clone == term and hash(clone) == hash(term)


@given(facts())
def test_fact_pickle_and_copy_keep_type_and_equality(f):
    for clone in (pickle.loads(pickle.dumps(f)), copy.copy(f), copy.deepcopy(f)):
        assert type(clone) is Fact
        assert clone == f and hash(clone) == hash(f)
        assert all(type(a) is type(b) for a, b in zip(clone.values, f.values))


@given(terms())
def test_str_and_repr_unchanged(triple):
    kind, payload, term = triple
    assert repr(term) == f"{kind.__name__}({payload!r})"
    if kind is Const:
        assert str(term) == str(payload) and term.value == payload
    elif kind is Null:
        assert str(term) == f"_{payload}" and term.name == payload
    else:
        assert str(term) == payload and term.name == payload


@given(facts())
def test_fact_str_and_repr_unchanged(f):
    assert repr(f) == f"Fact(relation={f.relation!r}, values={f.values!r})"
    assert str(f) == f"{f.relation}({', '.join(str(v) for v in f.values)})"
    assert f.arity == len(f.values)


@st.composite
def instance_lists(draw):
    """Instances over one pool of facts, so they share facts."""
    pool = draw(st.lists(facts(), max_size=8))
    subsets = st.lists(st.sampled_from(pool), max_size=6) if pool else st.just([])
    return draw(st.lists(subsets.map(Instance), max_size=5))


def printed_before(instance):
    """``Instance.__str__`` before the renderer: each fact, sorted."""
    if instance.is_empty():
        return "{}"
    ordered = sorted(instance.facts, key=Fact.sort_key)
    return "{" + ", ".join(str(f) for f in ordered) + "}"


@given(instance_lists())
@example([Instance()])
@example([Instance([Fact("P", (Const(3),))]), Instance([Fact("P", (Const("3"),))])])
def test_render_instances_prints_as_before(instances):
    expected = [printed_before(i) for i in instances]
    assert render_instances(instances) == expected
    assert [str(i) for i in instances] == expected
