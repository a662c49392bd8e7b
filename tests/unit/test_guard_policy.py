"""One default-guard policy, whichever entry point serves the request.

Every kernel resolves its budget and its round and branch bounds through
:func:`repro.limits.resolve_guards`.  A fallback bound applies only when
the effective limits set neither that bound nor a deadline, whatever
the budget's source; with no limits at all the kernel raises.  The
matrix runs a non-terminating tgd (tuple and SQL chase) and a
non-terminating dtgd (disjunctive chase, reverse) through every entry
point under every source of limits, and asserts one outcome per cell:
the exhausted resource, or the raised type.  A chase of full tgds gets
no round fallback: it mints no null, so it always reaches a fixpoint.
"""

from __future__ import annotations

import pytest

from repro import (
    Budget,
    ChaseNonTermination,
    ExchangeEngine,
    Instance,
    Limits,
    SchemaMapping,
    budget_scope,
    chase,
    disjunctive_chase,
)
from repro.chase.disjunctive import reverse_disjunctive_chase
from repro.limits.budget import FALLBACK_BOUNDS
from repro.store import open_store
from repro.store.sqlplan import sql_chase
from repro.workloads.generators import chain_graph_instance, path_closure_mapping

TGD = SchemaMapping.from_text("T(x, y) -> EXISTS z . T(y, z)")
DTGD = SchemaMapping.from_text("T(x, y) -> EXISTS z . T(y, z) | Q(x)")
SOURCE = Instance.parse("T(a, b)")


def _sql_chase(limits=None, budget=None):
    store = open_store("sqlite", fresh=True)
    try:
        store.add_all(SOURCE.facts)
        return sql_chase(store, TGD.dependencies, limits=limits, budget=budget)
    finally:
        store.close()


#: entry point -> call(limits, budget); ``budget`` is None where the
#: entry point takes no shared budget.
ENTRY_POINTS = {
    "chase": lambda limits, budget: chase(
        SOURCE, TGD.dependencies, limits=limits, budget=budget
    ),
    "sql_chase": _sql_chase,
    "disjunctive_chase": lambda limits, budget: disjunctive_chase(
        SOURCE, DTGD.dependencies, limits=limits, budget=budget
    ),
    "reverse_disjunctive_chase": lambda limits, budget: reverse_disjunctive_chase(
        SOURCE, DTGD.dependencies, limits=limits, budget=budget
    ),
    "engine.exchange": lambda limits, _budget: ExchangeEngine().exchange(
        TGD, SOURCE, limits=limits
    ),
    "engine.exchange/sql": lambda limits, _budget: ExchangeEngine(
        sql_chase=True
    ).exchange(TGD, SOURCE, limits=limits),
    "engine.reverse": lambda limits, _budget: ExchangeEngine().reverse(
        DTGD, SOURCE, limits=limits
    ),
    "SchemaMapping.reverse": lambda limits, _budget: DTGD.reverse(
        SOURCE, limits=limits
    ),
}

#: entry point -> the kernel whose fallback bounds it.
KERNELS = {
    entry: "chase"
    if entry in ("chase", "sql_chase", "engine.exchange", "engine.exchange/sql")
    else "disjunctive_chase"
    for entry in ENTRY_POINTS
}

#: Entry points that accept a shared ``budget=``.
SHARED = ("chase", "sql_chase", "disjunctive_chase", "reverse_disjunctive_chase")

FACTS = Limits(max_facts=1000)

#: limit source -> the one outcome every entry point shows under it.
OUTCOMES = {
    "none": ChaseNonTermination,
    "limits/max_facts": "rounds",
    "limits/deadline": "deadline",
    "ambient/max_facts": "rounds",
    "shared/max_facts": "rounds",
}


def _run(entry: str, source: str):
    call = ENTRY_POINTS[entry]
    if source == "none":
        return call(None, None)
    if source == "limits/max_facts":
        return call(FACTS, None)
    if source == "limits/deadline":
        return call(Limits(deadline=0.2), None)
    if source == "ambient/max_facts":
        with budget_scope(Budget(FACTS)):
            return call(None, None)
    return call(None, Budget(FACTS))


CELLS = [
    pytest.param(entry, source, id=f"{entry}-{source}")
    for entry in ENTRY_POINTS
    for source in OUTCOMES
    if source != "shared/max_facts" or entry in SHARED
]


@pytest.mark.parametrize("entry, source", CELLS)
def test_one_guard_policy(entry, source):
    expected = OUTCOMES[source]
    if isinstance(expected, type):
        with pytest.raises(expected):
            _run(entry, source)
        return
    result = _run(entry, source)
    assert result.exhausted is not None
    assert result.exhausted.resource == expected
    if expected == "rounds":  # the kernel's fallback made the cut
        assert result.exhausted.limit == FALLBACK_BOUNDS[KERNELS[entry]][0]


def test_full_tgds_reach_their_fixpoint_past_the_fallback():
    # A full tgd set mints no null, so its chase always terminates; the
    # 64-chain closure needs 65 rounds, and no fallback may cut it on
    # either kernel, variant or evaluation.
    mapping, source = path_closure_mapping(), chain_graph_instance(64)
    results = [
        ExchangeEngine().exchange(mapping, source),
        ExchangeEngine(sql_chase=True).exchange(mapping, source),
    ]
    for evaluation in ("delta", "naive"):
        for variant in ("restricted", "oblivious"):
            results.append(
                chase(source, mapping.dependencies, variant=variant, evaluation=evaluation)
            )
        store = open_store("sqlite", fresh=True)
        try:
            store.add_all(source.facts)
            result = sql_chase(store, mapping.dependencies, evaluation=evaluation)
            results.append((result.rounds, result.instance.digest()))
        finally:
            store.close()
    outcomes = {
        r if isinstance(r, tuple) else (r.rounds, r.instance.digest()) for r in results
    }
    assert len(outcomes) == 1
    assert next(iter(outcomes))[0] == 65
