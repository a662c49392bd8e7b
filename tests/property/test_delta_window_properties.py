"""Property-based tests: delta windows pick exactly the delta bindings.

A :class:`~repro.logic.delta.TriggerIndex` filled over several round
rotations, with adds between them, has windows that start mid-bucket;
a fork extended by a disjunct's rows (the disjunctive chase's child
index) has its window on the trailing rows.  Over each round view,
``match_atoms_delta`` must yield exactly the bindings ``match_atoms``
yields over the same view that use a row inside a window, in the same
order, with and without an inequality guard.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logic.delta import TriggerIndex, match_atoms_delta
from repro.logic.guards import Inequality
from repro.logic.matching import match_atoms

from .strategies import facts, instances
from .test_matching_index_properties import JOINS, PATTERNS

RELATIONS = {"P": 2, "Q": 1}


def guard_choices(premise):
    """No guard, and an inequality between the premise's first two variables."""
    variables = sorted({v for a in premise for v in a.variables()})
    choices = [()]
    if len(variables) >= 2:
        choices.append((Inequality(variables[0], variables[1]),))
    return choices


def assert_delta_subset(index: TriggerIndex, delta) -> None:
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

    for premise in PATTERNS + JOINS:
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
