"""Mapping → SQL plan compiler: the set-at-a-time, semi-naive chase.

"Laconic schema mappings" (ten Cate, Chiticariu, Kolaitis, Tan) shows
that for broad mapping classes the chase underpinning data exchange can
be compiled to SQL and run set-at-a-time instead of trigger-by-trigger.
This module does that for the **non-disjunctive tgd fragment**: each
plain or inequality-guarded :class:`~repro.logic.dependencies.Tgd`
becomes one ``INSERT ... SELECT`` per conclusion atom, executed inside
any SQL-backed store (:class:`~repro.store.SqliteStore` or
:class:`~repro.store.DuckDbStore`):

* the **trigger query** joins the premise atoms (shared variables become
  equi-join conditions, constants become parameters, inequality guards
  become ``<>`` predicates on the encoded cells — sound because the
  value encoding is injective, and ``Constant`` guards become prefix
  tests on the encoding's type tag: a cell holds a null exactly when
  it starts with ``'n:'``) and keeps the ``DISTINCT`` frontier
  assignments with no witness, via ``NOT EXISTS`` over the joined
  conclusion atoms — exactly the restricted-chase firing condition;
* triggers land in the plan's temp table, whose ``trig_n`` column
  (1..n, assigned by ``ROW_NUMBER() OVER (ORDER BY frontier)``) numbers
  them, so existential nulls are minted *inside SQL* as
  ``'n:' || prefix || (base + (trig_n-1)*K + j)`` — deterministic,
  collision-free, no per-row Python;
* one ``INSERT OR IGNORE ... SELECT`` per conclusion atom then fires
  every trigger at once.

No round runs DDL.  Each plan's trigger table is created once per
chase, with typed columns, and dropped when the chase ends; a round
refills it with ``DELETE`` and one ``INSERT ... SELECT ... ROW_NUMBER()``,
whose row count is the round's trigger count.  Any schema change makes
SQLite re-prepare every statement it has cached, so a
``DROP``/``CREATE TEMP TABLE ... AS`` pair per plan and round cost about
ten times the refill (DESIGN.md D6).  The budget is charged with a fact
count carried forward from the inserts' row counts, not recounted.

Evaluation is **semi-naive by default** (decision D6): each round
snapshots a per-relation ``rowid`` watermark — the SQL analog of
``TriggerIndex.begin_round()`` — and each compiled tgd runs as the
standard delta-join union: one variant per premise atom, where that
atom reads only the previous round's delta window
(``rowid`` in ``(W_prev, W]``), atoms before it read the pre-delta
prefix (``rowid <= W_prev``), and atoms after it read the full visible
relation (``rowid <= W``).  The variants partition the delta-touching
join rows exactly, so round *k* only enumerates bindings that involve a
round *k−1* fact.  The ``NOT EXISTS`` satisfaction check stays against
the **live** tables (decision D5), which is what makes the delta and
naive trigger sets provably identical per round: an all-old frontier
row was enumerated the round before and is therefore satisfied now.
Premise matching in *both* modes is confined to the round-start
watermark, so ``evaluation="naive"`` survives as a byte-identical
differential oracle — same triggers, same null numbering, same rounds,
same digests, only the per-round join work (``triggers_considered``)
differs.

Dependencies outside the fragment are rejected up front with
:class:`SqlPlanError`, and so are disjunctive tgds, mirroring
:func:`repro.chase.standard.chase`; the engine runs such mappings on
the tuple chase instead (:func:`in_sql_fragment` decides).

Result caveat: a SQL chase reaches the same fixpoint as the in-memory
restricted chase *up to null renaming* (hom-equivalent); for **full**
tgds no nulls are minted and the result is fact-for-fact identical —
``tests/differential/`` checks both.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ReproError
from ..limits import resolve_guards
from ..terms import Const, Var
from ..logic.atoms import Atom
from ..logic.dependencies import Dependency, Tgd
from ..logic.guards import ConstantGuard, Guard, Inequality
from .sqlbase import SqlStoreBase, encode_value

__all__ = [
    "CompiledTgd",
    "SqlChaseResult",
    "SqlPlanError",
    "TriggerQuery",
    "Watermark",
    "compile_tgd",
    "in_sql_fragment",
    "sql_chase",
]

#: Name prefix of the per-plan temp tables holding a round's trigger set.
TRIGGER_TABLE = "_sqlchase_trig"

#: Param-plan sentinels, replaced at execution time (see CompiledTgd).
PREFIX = object()
BASE = object()


class SqlPlanError(ReproError):
    """A dependency cannot be executed by the SQL chase at all."""


@dataclass(frozen=True)
class Watermark:
    """Param-plan sentinel: a per-relation ``rowid`` visibility bound.

    Resolved at execution time against the round's watermark snapshots:
    ``bound="new"`` is the round-start high-water mark *W* (facts
    visible this round), ``bound="old"`` is the previous round's mark
    *W_prev* (``(W_prev, W]`` is the delta window).
    """

    relation: str
    bound: str  # "old" | "new"


def in_sql_fragment(dep: Dependency) -> bool:
    """True when *dep* compiles to a SQL plan.

    The fragment is: non-disjunctive tgds whose guards are all
    inequalities or ``Constant`` guards.  Inequalities compare encoded
    cells (sound because the encoding is injective); ``Constant``
    guards probe the *type* of a value, which the tagged encoding makes
    a prefix test — a cell is a null exactly when it starts with
    ``'n:'`` (constants encode as ``'i:'``/``'s:'``).  :func:`sql_chase`
    rejects a dependency outside the fragment.
    """
    return isinstance(dep, Tgd) and all(
        isinstance(g, (Inequality, ConstantGuard)) for g in dep.guards
    )


@dataclass(frozen=True)
class TriggerQuery:
    """One candidate-trigger SELECT plus its join-size counter.

    ``sql`` yields the ``DISTINCT`` unsatisfied frontier rows of one
    evaluation variant; ``count_sql`` counts the variant's raw premise
    join rows (guards applied, satisfaction check dropped) — the
    set-at-a-time analog of the tuple chase's *bindings enumerated*
    metric.  Parameter tuples mix encoded literal cells with
    :class:`Watermark` sentinels resolved per round.
    """

    sql: str
    params: Tuple[object, ...]
    count_sql: str
    count_params: Tuple[object, ...]


@dataclass(frozen=True)
class CompiledTgd:
    """One tgd's SQL plan: trigger queries + per-conclusion-atom inserts.

    ``naive`` is the single full-join trigger query (every premise atom
    reads ``rowid <= W``); ``deltas`` holds the semi-naive variants, one
    per premise atom (that atom reads the delta window, earlier atoms
    the pre-delta prefix, later atoms the full visible relation — the
    standard delta-join union, a disjoint cover of the delta-touching
    join rows).  ``inserts`` holds ``(sql, param_plan)`` pairs whose
    statements select from the plan's trigger temp table, ``table``.  A
    *param_plan* lists the statement's positional parameters in
    placeholder order:
    encoded literal cells verbatim, plus the :data:`PREFIX`/:data:`BASE`
    sentinels that the executor replaces with the null prefix and the
    round's minting base.
    """

    tgd: Tgd
    index: int
    frontier: Tuple[Var, ...]
    existentials: Tuple[Var, ...]
    naive: TriggerQuery
    deltas: Tuple[TriggerQuery, ...]
    inserts: Tuple[Tuple[str, Tuple[object, ...]], ...]
    table: str

    @property
    def trigger_sql(self) -> str:
        """The naive trigger SELECT (kept for introspection/tests)."""
        return self.naive.sql


def _guard_condition(
    guard: Guard, var_col: Dict[Var, str], params: List[object]
) -> str:
    """A fragment guard as a SQL predicate on encoded cells.

    Inequalities become ``<>`` between encoded cells/parameters;
    ``Constant`` guards become the type-tag prefix test
    ``SUBSTR(cell, 1, 2) <> 'n:'`` (a guard on a literal constant is
    trivially true and compiles to ``1 = 1``).
    """
    if isinstance(guard, ConstantGuard):
        if isinstance(guard.term, Const):
            return "1 = 1"
        return f"SUBSTR({var_col[guard.term]}, 1, 2) <> 'n:'"
    assert isinstance(guard, Inequality)
    sides = []
    for term in (guard.left, guard.right):
        if isinstance(term, Const):
            sides.append("?")
            params.append(encode_value(term))
        else:
            sides.append(var_col[term])
    return f"{sides[0]} <> {sides[1]}"


def _witness_subquery(
    tgd: Tgd,
    resolve: Dict[str, Tuple[str, int]],
    var_col: Dict[Var, str],
    params: List[object],
) -> str:
    """``EXISTS``-body joining the conclusion atoms (restricted check).

    Frontier variables correlate with the outer premise columns;
    existential variables join freely inside the subquery — precisely
    "the conclusion is witnessed by some extension of the frontier
    binding".  Deliberately *unwindowed*: satisfaction reads the live
    tables (decisions D5/D6).
    """
    from_items: List[str] = []
    conds: List[str] = []
    sub_col: Dict[Var, str] = {}
    for i, atom in enumerate(tgd.conclusion):
        tbl, _ = resolve[atom.relation]
        alias = f"s{i}"
        from_items.append(f"{tbl} AS {alias}")
        for j, term in enumerate(atom.terms):
            col = f"{alias}.c{j}"
            if isinstance(term, Const):
                conds.append(f"{col} = ?")
                params.append(encode_value(term))
            elif term in var_col:  # frontier: correlate with the outer row
                conds.append(f"{col} = {var_col[term]}")
            else:  # existential: free join variable inside the subquery
                bound = sub_col.get(term)
                if bound is None:
                    sub_col[term] = col
                else:
                    conds.append(f"{col} = {bound}")
    where = f" WHERE {' AND '.join(conds)}" if conds else ""
    return f"SELECT 1 FROM {', '.join(from_items)}{where}"


def _compile_variant(
    tgd: Tgd,
    resolve: Dict[str, Tuple[str, int]],
    delta_index: Optional[int],
) -> TriggerQuery:
    """One evaluation variant of the trigger query.

    ``delta_index=None`` compiles the naive variant (every premise atom
    windowed to ``rowid <= W``); ``delta_index=d`` compiles the
    semi-naive variant where atom *d* reads the delta window
    ``(W_prev, W]``, atoms before *d* read ``rowid <= W_prev`` and
    atoms after *d* read ``rowid <= W`` — so the variants for
    ``d = 0..len(premise)-1`` partition the delta-touching join rows.
    """
    from_items: List[str] = []
    conds: List[str] = []
    params: List[object] = []
    var_col: Dict[Var, str] = {}
    for i, atom in enumerate(tgd.premise):
        tbl, _ = resolve[atom.relation]
        alias = f"t{i}"
        from_items.append(f"{tbl} AS {alias}")
        if delta_index is None or i > delta_index:
            conds.append(f"{alias}.rowid <= ?")
            params.append(Watermark(atom.relation, "new"))
        elif i == delta_index:
            conds.append(f"{alias}.rowid > ?")
            params.append(Watermark(atom.relation, "old"))
            conds.append(f"{alias}.rowid <= ?")
            params.append(Watermark(atom.relation, "new"))
        else:  # i < delta_index
            conds.append(f"{alias}.rowid <= ?")
            params.append(Watermark(atom.relation, "old"))
        for j, term in enumerate(atom.terms):
            col = f"{alias}.c{j}"
            if isinstance(term, Const):
                conds.append(f"{col} = ?")
                params.append(encode_value(term))
            else:
                bound = var_col.get(term)
                if bound is None:
                    var_col[term] = col
                else:
                    conds.append(f"{col} = {bound}")
    for guard in tgd.guards:
        conds.append(_guard_condition(guard, var_col, params))

    # Join-size counter: premise + guards, no satisfaction check.
    count_sql = (
        f"SELECT COUNT(*) FROM {', '.join(from_items)} "
        f"WHERE {' AND '.join(conds)}"
    )
    count_params = tuple(params)

    conds.append(
        f"NOT EXISTS ({_witness_subquery(tgd, resolve, var_col, params)})"
    )
    frontier = tuple(sorted(tgd.frontier))
    if frontier:
        select = ", ".join(
            f"{var_col[v]} AS f{i}" for i, v in enumerate(frontier)
        )
    else:
        select = "1 AS f_dummy"
    sql = (
        f"SELECT DISTINCT {select} FROM {', '.join(from_items)} "
        f"WHERE {' AND '.join(conds)}"
    )
    return TriggerQuery(
        sql=sql,
        params=tuple(params),
        count_sql=count_sql,
        count_params=count_params,
    )


def compile_tgd(
    tgd: Tgd, index: int, resolve: Dict[str, Tuple[str, int]]
) -> CompiledTgd:
    """Compile one tgd against the store's table catalog.

    Raises :class:`SqlPlanError` when the dependency is outside the SQL
    fragment (:func:`in_sql_fragment`).  *resolve* maps every
    premise/conclusion relation to its ``(table, arity)`` — the caller
    ensures the tables exist.
    """
    if not in_sql_fragment(tgd):
        raise SqlPlanError(f"{tgd!r} is outside the SQL fragment")
    frontier = tuple(sorted(tgd.frontier))
    existentials = tuple(sorted(tgd.existential_variables))

    naive = _compile_variant(tgd, resolve, None)
    deltas = tuple(
        _compile_variant(tgd, resolve, d) for d in range(len(tgd.premise))
    )

    table = f"{TRIGGER_TABLE}{index}"
    frontier_pos = {v: i for i, v in enumerate(frontier)}
    exist_pos = {v: j for j, v in enumerate(existentials)}
    stride = max(len(existentials), 1)
    inserts: List[Tuple[str, Tuple[object, ...]]] = []
    for atom in tgd.conclusion:
        tbl, _ = resolve[atom.relation]
        exprs: List[str] = []
        param_plan: List[object] = []
        for term in atom.terms:
            if isinstance(term, Const):
                exprs.append("?")
                param_plan.append(encode_value(term))
            elif term in frontier_pos:
                exprs.append(f"f{frontier_pos[term]}")
            else:
                # Fresh null: base + (trig_n-1)*stride + position, named
                # in SQL.  `?` slots for (prefix, base) are filled per
                # round.  CAST keeps the concatenation portable (DuckDB
                # will not implicitly stringify an integer operand).
                j = exist_pos[term]
                exprs.append(
                    "'n:' || ? || CAST(? + "
                    f"({table}.trig_n - 1) * {stride} + {j} "
                    "AS VARCHAR)"
                )
                param_plan.extend((PREFIX, BASE))
        inserts.append(
            (
                f"INSERT OR IGNORE INTO {tbl} "
                f"SELECT {', '.join(exprs)} FROM {table}",
                tuple(param_plan),
            )
        )
    return CompiledTgd(
        tgd=tgd,
        index=index,
        frontier=frontier,
        existentials=existentials,
        naive=naive,
        deltas=deltas,
        inserts=tuple(inserts),
        table=table,
    )


@dataclass(frozen=True)
class SqlChaseResult:
    """Outcome of a SQL chase run over a SQL-backed store.

    Mirrors :class:`repro.chase.standard.ChaseResult` where it can;
    ``generated_count`` replaces the materialized ``generated`` set (the
    point of this backend is not to materialize), ``compiled`` counts
    the compiled dependency plans, ``delta_sizes`` records how many
    facts became newly visible entering each round, and
    ``triggers_considered``
    totals the raw premise-join rows the trigger queries enumerated —
    the set-at-a-time analog of the tuple chase's bindings metric, and
    the quantity semi-naive evaluation shrinks.
    """

    store: SqlStoreBase
    steps: int
    rounds: int
    generated_count: int
    compiled: int
    exhausted: Optional[object] = None
    delta_sizes: Tuple[int, ...] = ()
    triggers_considered: int = 0
    evaluation: str = "delta"

    @property
    def completed(self) -> bool:
        """True when the chase reached its fixpoint within budget."""
        return self.exhausted is None

    @property
    def instance(self):
        """The chased store, frozen and wrapped as an ``Instance``."""
        return self.store.as_instance()


def _null_base(store: SqlStoreBase, prefix: str) -> int:
    """First integer suffix that avoids every existing ``prefix<int>`` null."""
    base = 0
    for null in store.nulls():
        if null.name.startswith(prefix):
            suffix = null.name[len(prefix):]
            if suffix.isdigit():
                base = max(base, int(suffix) + 1)
    return base


def _resolve_params(
    params: Tuple[object, ...],
    wm_old: Dict[str, int],
    wm_new: Dict[str, int],
) -> Tuple[object, ...]:
    """Replace :class:`Watermark` sentinels with the round's snapshots."""
    out: List[object] = []
    for p in params:
        if isinstance(p, Watermark):
            out.append(wm_old[p.relation] if p.bound == "old" else wm_new[p.relation])
        else:
            out.append(p)
    return tuple(out)


def _trigger_table(conn, plan: CompiledTgd, queries: Sequence[TriggerQuery]) -> str:
    """Create *plan*'s trigger table; return the SQL that fills it.

    The table is made once per chase, with typed columns, and refilled
    every round, so no round runs DDL: any schema change makes SQLite
    re-prepare every statement it has cached.  The fill numbers the
    candidate rows (the naive query, or the UNION of the delta variants
    — UNION also deduplicates frontier rows reachable through several
    variants) by ``ROW_NUMBER() OVER (ORDER BY frontier)``, which fixes
    the null-minting order independently of storage order.  Its ``?``
    slots are the *queries*' parameters, in order.
    """
    width = len(plan.frontier)
    fcols = ", ".join(f"f{i}" for i in range(width)) or "f_dummy"
    typed = ", ".join(f"f{i} TEXT" for i in range(width)) or "f_dummy INTEGER"
    conn.execute(f"CREATE TEMP TABLE {plan.table} ({typed}, trig_n BIGINT)")
    cand = " UNION ".join(q.sql for q in queries)
    return (
        f"INSERT INTO {plan.table} "
        f"SELECT {fcols}, ROW_NUMBER() OVER (ORDER BY {fcols}) "
        f"FROM ({cand}) AS _cand"
    )


def _fill_triggers(
    store: SqlStoreBase,
    plan: CompiledTgd,
    fill: str,
    queries: Sequence[TriggerQuery],
    wm_old: Dict[str, int],
    wm_new: Dict[str, int],
) -> Tuple[int, int]:
    """Refill *plan*'s trigger table for one round (see :func:`_trigger_table`).

    Returns ``(trigger_count, joins_considered)``: the fill's row count,
    and the raw premise-join rows the round's *queries* enumerate.
    """
    conn = store.connection
    conn.execute(f"DELETE FROM {plan.table}")
    params: List[object] = []
    for q in queries:
        params.extend(_resolve_params(q.params, wm_old, wm_new))
    n = store._exec_insert(fill, tuple(params))
    considered = 0
    for q in queries:
        (c,) = conn.execute(
            q.count_sql, _resolve_params(q.count_params, wm_old, wm_new)
        ).fetchone()
        considered += c
    return n, considered


def sql_chase(
    store: SqlStoreBase,
    dependencies: Sequence[Dependency],
    *,
    null_prefix: str = "N",
    tracer=None,
    limits=None,
    budget=None,
    evaluation: Optional[str] = None,
    profiler=None,
) -> SqlChaseResult:
    """Run the restricted chase set-at-a-time inside *store*.

    Every dependency executes as ``INSERT ... SELECT`` plans; one
    outside the fragment (:func:`in_sql_fragment`) raises
    :class:`SqlPlanError` before anything runs.  *evaluation* selects
    semi-naive delta joins (``"delta"``, the default) or the full-join
    oracle (``"naive"``); ``None`` resolves to delta
    (:func:`repro.chase.standard.resolve_evaluation`), and the two modes
    are byte-identical in everything but ``triggers_considered``.

    Resource governance matches :func:`repro.chase.standard.chase`:
    pass ``limits`` or a shared ``budget``; with neither, the ambient
    budget applies, and with none of the three the chase raises.  Any
    budget that bounds neither rounds nor time gets the 64-round
    fallback (:func:`repro.limits.resolve_guards`) unless every tgd is
    full, and exhaustion either raises or returns a tagged partial
    result per ``Limits.on_exhausted``.

    With a *profiler* (:class:`repro.obs.ChaseProfiler`, or any
    :class:`repro.obs.observer.ChaseObserver`) each trigger plan's work
    is attributed per round — one cell per compiled plan × round: self
    time, join rows considered, triggers fired, facts added, nulls
    minted — so ``--profile`` works on ``--sql-chase`` like on the
    tuple chase.

    Provenance note: the SQL path fires whole trigger *sets*, so no
    per-trigger ``TriggerFired`` events are emitted — set-at-a-time
    throughput trades away per-fact provenance.  Budget heartbeats and
    exhaustion events still flow to the tracer/reporter as usual.
    """
    # Imported here, not at module top: chase.standard sits *above* the
    # store package in the layer map (it imports the Instance facade).
    from ..chase.standard import resolve_evaluation
    from ..obs.observer import chase_observer
    from ..obs.tracer import current_tracer, maybe_span

    if not isinstance(store, SqlStoreBase):
        raise SqlPlanError(
            f"sql_chase needs a SQL-backed store (sqlite or duckdb), "
            f"got {type(store).__name__}"
        )
    tgds: List[Tgd] = []
    for dep in dependencies:
        if not isinstance(dep, Tgd):
            raise SqlPlanError(
                f"sql_chase handles plain tgds only, got {dep!r}; "
                "use disjunctive_chase for disjunctive dependencies"
            )
        if not in_sql_fragment(dep):
            raise SqlPlanError(
                f"sql_chase cannot compile {dep!r}: a guard is outside the "
                "SQL fragment; use chase for it"
            )
        tgds.append(dep)
    if store.frozen:
        raise SqlPlanError("cannot chase into a frozen store")
    tracer = tracer or current_tracer()
    observer = chase_observer(tracer, profiler)
    guards = resolve_guards(
        "sql_chase", limits, budget, full=all(tgd.is_full() for tgd in tgds)
    )
    budget = guards.budget
    evaluation = resolve_evaluation(evaluation)

    resolve: Dict[str, Tuple[str, int]] = {}
    for tgd in tgds:
        for atom in tuple(tgd.premise) + tuple(tgd.conclusion):
            resolve[atom.relation] = store.ensure_relation(
                atom.relation, atom.arity
            )

    compiled = [compile_tgd(tgd, i, resolve) for i, tgd in enumerate(tgds)]

    conn = store.connection
    next_null = _null_base(store, null_prefix)
    facts = len(store)
    steps = 0
    rounds = 0
    minted_total = 0
    added_total = 0
    considered_total = 0
    delta_sizes: List[int] = []
    exhausted = None

    # Per-relation rowid watermarks: wm_visible is this round's premise
    # visibility bound W, wm_old the previous round's (so (old, new] is
    # the delta window).  Facts inserted mid-round get larger rowids and
    # only become matchable next round — the SQL analog of
    # TriggerIndex.begin_round() rotation.
    wm_visible: Dict[str, int] = {rel: 0 for rel in resolve}

    with maybe_span(
        tracer, "sql_chase", compiled=len(compiled), evaluation=evaluation
    ):
        fills: List[Tuple[CompiledTgd, Sequence[TriggerQuery], str]] = []
        try:
            for plan in compiled:
                queries = (
                    plan.deltas if evaluation == "delta" else (plan.naive,)
                )
                fills.append((plan, queries, _trigger_table(conn, plan, queries)))
            while exhausted is None:
                rounds += 1
                exhausted = guards.start_round("sql_chase", rounds)
                if exhausted is not None:
                    rounds -= 1
                    break
                wm_old = wm_visible
                wm_visible = {
                    rel: store.max_rowid(resolve[rel][0]) for rel in resolve
                }
                delta_sizes.append(
                    sum(wm_visible[rel] - wm_old[rel] for rel in resolve)
                )
                progressed = False
                for plan, queries, fill in fills:
                    if observer is not None:
                        started = time.perf_counter()
                    n, considered = _fill_triggers(
                        store, plan, fill, queries, wm_old, wm_visible
                    )
                    considered_total += considered
                    stride = len(plan.existentials)
                    added = 0
                    if n:
                        for insert_sql, param_plan in plan.inserts:
                            params = tuple(
                                null_prefix
                                if p is PREFIX
                                else next_null
                                if p is BASE
                                else p
                                for p in param_plan
                            )
                            added += store._exec_insert(insert_sql, params)
                        next_null += n * stride
                        minted_total += n * stride
                        steps += n
                        added_total += added
                        progressed = True
                        # The inserts bypass add(), so carry its count.
                        facts += added
                        store._count = facts
                        exhausted = budget.charge(
                            "sql_chase", facts=facts, nulls=minted_total
                        )
                    if observer is not None:
                        observer.cell(
                            plan.tgd,
                            rounds,
                            time.perf_counter() - started,
                            considered,
                            n,
                            added,
                            n * stride,
                        )
                    if exhausted is not None:
                        break
                if not progressed and exhausted is None:
                    break
        finally:
            for plan, _, _ in fills:
                conn.execute(f"DROP TABLE {plan.table}")
        if exhausted is not None:
            if observer is not None:
                observer.exhausted(exhausted)
            if budget.limits.raises:
                budget.raise_exhausted()

    return SqlChaseResult(
        store=store,
        steps=steps,
        rounds=rounds,
        generated_count=added_total,
        compiled=len(compiled),
        exhausted=exhausted,
        delta_sizes=tuple(delta_sizes),
        triggers_considered=considered_total,
        evaluation=evaluation,
    )
