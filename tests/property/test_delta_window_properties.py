"""Property-based tests: delta windows pick exactly the delta bindings.

A :class:`~repro.logic.delta.TriggerIndex` filled over several round
rotations, with adds between them, has windows that start mid-bucket;
a fork extended by a disjunct's rows (the disjunctive chase's child
index) has its window on the trailing rows.  Over each round view,
``match_atoms_delta`` must yield exactly the bindings ``match_atoms``
yields over the same view that use a row inside a window, in the same
order, with and without an inequality guard.

When one relation alone has new rows, a pattern with none placed first
reads only the rows that join them (the semi-join cut): premises with a
constant, a repeated variable, an inequality guard, a live pattern
placed last, and two shared variables reach it, and their delta yields
must still be the naive-filtered enumeration, in order.

Forks are copy-on-write, so a pool of indexes forked from one another
shares lists until one of them writes: after any interleaving of adds,
forks and rotations, each index must read exactly like a fresh index
that replayed its own history.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.facts import Fact
from repro.instance import Instance
from repro.logic.atoms import atom
from repro.logic.delta import TriggerIndex, match_atoms_delta
from repro.logic.guards import Inequality
from repro.logic.matching import match_atoms
from repro.terms import Const

from .strategies import CONSTANTS, NULLS, facts, instances, values
from .test_matching_index_properties import JOINS, PATTERNS

RELATIONS = {"P": 2, "Q": 1}


def guard_choices(premise):
    """No guard, and an inequality between the premise's first two variables."""
    variables = sorted({v for a in premise for v in a.variables()})
    choices = [()]
    if len(variables) >= 2:
        choices.append((Inequality(variables[0], variables[1]),))
    return choices


def assert_delta_subset(index: TriggerIndex, delta, premises=PATTERNS + JOINS) -> None:
    view = index.round_view()
    new_rows = {
        relation: {index.tuples(relation)[number] for number in window}
        for relation, window in delta.items()
    }

    def touches(binding, premise):
        return any(
            a.instantiate(binding).values in new_rows.get(a.relation, ())
            for a in premise
        )

    for premise in premises:
        for guards in guard_choices(premise):
            naive = list(match_atoms(premise, view, guards))
            expected = [b for b in naive if touches(b, premise)]
            got = list(match_atoms_delta(premise, view, delta, guards))
            assert got == expected, (premise, guards)


batches = st.lists(facts(RELATIONS), max_size=6)


@given(
    instances(RELATIONS, max_size=6),
    st.lists(st.tuples(batches, batches), min_size=2, max_size=4),
)
@settings(max_examples=60, deadline=None)
def test_windows_across_rotations(base, rounds):
    """Each rotation's window covers exactly the rows added since the last.

    The second batch of a round is added after the rotation, as a round
    fires: the round view hides it until the next rotation.
    """
    index = TriggerIndex(base)
    visible = {}
    for before, during in rounds:
        for f in before:
            index.add(f)
        sizes = {relation: len(index.tuples(relation)) for relation in RELATIONS}
        delta = index.begin_round()
        assert delta == {
            relation: range(visible.get(relation, 0), size)
            for relation, size in sizes.items()
            if size > visible.get(relation, 0)
        }
        visible = sizes
        for f in during:
            index.add(f)
        assert_delta_subset(index, delta)


@given(
    instances(RELATIONS, max_size=6),
    st.lists(st.lists(facts(RELATIONS), min_size=1, max_size=3), min_size=1, max_size=3),
)
@settings(max_examples=60, deadline=None)
def test_windows_on_forked_children(base, disjuncts):
    """A forked child's window is its disjunct's rows, the trailing ones.

    Each disjunct forks the previous child, as a branch forks again
    deeper in the disjunctive chase; the parent's rows stay old.
    """
    parent = TriggerIndex(base)
    parent.begin_round()
    for rows in disjuncts:
        child = parent.fork()
        sizes = {relation: len(child.tuples(relation)) for relation in RELATIONS}
        added = [f for f in rows if child.add(f)]
        delta = child.begin_round()
        assert {
            relation: [child.tuples(relation)[n] for n in window]
            for relation, window in delta.items()
        } == {
            relation: [f.values for f in added if f.relation == relation]
            for relation in {f.relation for f in added}
        }
        for relation, window in delta.items():
            assert window.start == sizes[relation]
        assert parent.begin_round() == {}
        assert_delta_subset(child, delta)
        parent = child


#: Premises that reach the semi-join cut when one relation has new rows.
CUT_RELATIONS = {"P": 2, "Q": 1, "R": 2}
CUT_PREMISES = [
    [atom("P", Const("a"), "y"), atom("R", "y", "z")],
    [atom("P", "x", "y"), atom("R", "y", Const("b"))],
    [atom("P", "x", "x"), atom("Q", "x")],
    [atom("P", "x", "y"), atom("Q", "y")],
    [atom("P", "x", "y"), atom("R", "y", "z"), atom("Q", "z")],
    [atom("Q", "x"), atom("P", "x", "y"), atom("R", "y", "z")],
    [atom("P", "x", "y"), atom("R", "x", "y")],
    [atom("P", "x", "y"), atom("R", "y", "x")],
]
_pairs = st.tuples(values(False), values(False))
_a, _b, _d = Const("a"), Const("b"), Const("d")


@given(
    st.lists(facts(CUT_RELATIONS, allow_nulls=False), min_size=6, max_size=20).map(
        Instance
    ),
    st.sampled_from(sorted(CUT_RELATIONS)),
    st.lists(
        st.tuples(st.lists(_pairs, max_size=2), st.lists(_pairs, max_size=1)),
        min_size=1,
        max_size=3,
    ),
)
@example(  # R is new: the constants and both two-variable joins are cut
    Instance.parse("P(a, a), P(a, b), P(b, a), R(b, b), R(c, b), R(d, b)"),
    "R",
    [([(_a, _b)], [])],
)
@example(  # Q is new: the repeated variable, and Q placed last
    Instance.parse(
        "P(a, a), P(b, b), P(c, c), P(d, a), Q(b), Q(c), Q(d), "
        "R(a, b), R(b, c), R(b, a)"
    ),
    "Q",
    [([(_a, _a)], [(_b, _b)])],
)
@example(  # P is new and placed last, after two cut placements
    Instance.parse("Q(a), Q(b), R(b, c), R(d, a), P(a, b), P(a, c), P(c, d)"),
    "P",
    [([(_a, _d)], [])],
)
@settings(max_examples=80, deadline=None)
def test_one_live_relation_keeps_naive_order(base, live, rounds):
    """Windows that hold one relation reach every cut path, in order.

    Each round adds *live* rows before its rotation and may add one
    after it, which the view hides until the next rotation.
    """
    arity = CUT_RELATIONS[live]
    index = TriggerIndex(base)
    index.begin_round()
    for before, during in rounds:
        for pair in before:
            index.add(Fact(live, pair[:arity]))
        delta = index.begin_round()
        assert set(delta) <= {live}
        for pair in during:
            index.add(Fact(live, pair[:arity]))
        assert_delta_subset(index, delta, CUT_PREMISES)


#: Steps on a pool of indexes: (kind, which index, the fact an add adds).
steps = st.lists(
    st.tuples(
        st.sampled_from(("add", "add", "fork", "round")),
        st.integers(min_value=0, max_value=7),
        facts(RELATIONS),
    ),
    max_size=30,
)


#: Every fact ``facts(RELATIONS)`` can draw.
EVERY_FACT = [Fact("Q", (v,)) for v in CONSTANTS + NULLS] + [
    Fact("P", (v, w)) for v in CONSTANTS + NULLS for w in CONSTANTS + NULLS
]


def replay(base, history):
    """A fresh index run through *history* (a fact adds it, ``None``
    rotates), with what each step returned."""
    index = TriggerIndex(base)
    returned = [
        index.begin_round() if step is None else index.add(step) for step in history
    ]
    return index, returned


def assert_reads_alike(got: TriggerIndex, want: TriggerIndex) -> None:
    """Rows, buckets, round views and membership agree."""
    assert len(got) == len(want)
    assert list(got.facts()) == list(want.facts())
    got_view, want_view = got.round_view(), want.round_view()
    for relation, arity in RELATIONS.items():
        assert list(got.tuples(relation)) == list(want.tuples(relation))
        assert list(got_view.tuples(relation)) == list(want_view.tuples(relation))
        numbers = range(len(want.tuples(relation)) + 1)
        for position in range(arity):
            for value in CONSTANTS + NULLS:
                key = (relation, position, value)
                assert list(got.tuples_at(*key)) == list(want.tuples_at(*key))
                got_rows, want_rows = got_view.tuples_at(*key), want_view.tuples_at(*key)
                for number in numbers:
                    assert [list(part) for part in got_rows.split(number)] == [
                        list(part) for part in want_rows.split(number)
                    ]
    for f in EVERY_FACT:
        assert (f in got) == (f in want)


@given(instances(RELATIONS, max_size=6), steps)
@settings(max_examples=100, deadline=None)
def test_forks_read_like_fresh_indexes(base, script):
    pool, histories, returned = [TriggerIndex(base)], [[]], [[]]
    for kind, which, f in script:
        i = which % len(pool)
        if kind == "fork":
            pool.append(pool[i].fork())
            histories.append(list(histories[i]))
            returned.append(list(returned[i]))
        elif kind == "round":
            histories[i].append(None)
            returned[i].append(pool[i].begin_round())
        else:
            histories[i].append(f)
            returned[i].append(pool[i].add(f))
    for index, history, seen in zip(pool, histories, returned):
        fresh, replayed = replay(base, history)
        assert seen == replayed
        assert_reads_alike(index, fresh)
