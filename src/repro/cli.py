"""Command-line interface: chase, reverse, audit, recover, answer.

Usage (after ``pip install -e .``)::

    python -m repro chase   --mapping deps.txt --instance "P(a, b, c)"
    python -m repro reverse --mapping rev.txt  --instance "Q(a, b), R(b, c)"
    python -m repro audit   --mapping deps.txt
    python -m repro recover --mapping deps.txt            # quasi-inverse algo
    python -m repro answer  --mapping deps.txt --recovery rev.txt \\
                            --instance "P(1, 2)" --query "q(x) :- P(x, y)"

``--mapping``/``--recovery`` accept a file path or an inline dependency
string (semicolon-separated).  Instances use the token convention
(lowercase/number = constant, Uppercase = null).  Malformed text (a
:class:`repro.errors.ParseError`), like any library error no command
handles, prints one ``error:`` line to stderr and exits 2.

The engine-backed commands (``chase``, ``reverse``, ``audit``,
``answer``) share four flags: ``--jobs N`` fans batches out over N
workers (``--instance`` is repeatable — each occurrence is one batch
item), ``--no-cache`` disables the content-addressed caches,
``--stats`` prints the engine's hit/miss/wall-time table to stderr,
and ``--trace out.jsonl`` records the run under a tracer and writes
the event/span log as JSONL (flushed even when the chase aborts with
non-termination — exit code 3 — so the partial trace is inspectable).

Resource governance (see ``docs/ROBUSTNESS.md``): ``--deadline S``,
``--max-rounds N``, ``--max-facts N``, and ``--max-branches N`` bound
the run; when any is set the chase degrades gracefully — a truncated
result prints normally with a ``partial:`` note on stderr (exit 0)
instead of aborting.  Batches add ``--on-error skip`` (failed items
report per-item on stderr and the rest complete; exit 5 when any item
failed) and ``--retries N`` for transiently failing items.

Worker supervision (see ``docs/ARCHITECTURE.md`` §5): ``--grace S``
together with ``--deadline`` arms the hard-kill watchdog for batch
runs — the items run on a pool of heartbeat-watched worker processes,
and a worker silent for more than the grace period past its deadline
is terminated and its item failed as *killed* (or retried under
``--retries``).  Kills are noted on stderr and, when any item ends
killed, the exit code is 7 (taking precedence over the generic batch
failure code 5).

Every invocation mints an ambient :class:`repro.obs.TraceContext`
(a ``trace_id`` plus a ``req-…`` request id) that propagates across
the worker-pool boundary and is stamped onto every span, ops-log
line, and registry row the run produces — interrupt and partial
notes on stderr cite the request id so a dump is matchable to its
history rows.  ``--profile`` on the chase-running commands turns on
the per-dependency chase profiler and prints its EXPLAIN
ANALYZE-style table to **stderr** (stdout stays byte-identical to an
unprofiled run); the profile summary also lands in the registry row,
where ``repro runs show`` re-renders it and ``repro runs diff
--profile`` attributes a wall-time move to the dependencies that
moved.  ``repro runs list --columns`` adds opt-in columns, including
the request id and a p50/p95 latency aggregate.

Telemetry (see ``docs/OBSERVABILITY.md``): ``--metrics-out m.prom``
(env ``REPRO_METRICS_OUT``) writes an OpenMetrics text file of per-op
counters and wall-time histograms, ``--ops-log ops.jsonl`` appends one
JSON line per engine operation, and ``--progress`` turns the budget
checkpoints into a live stderr ticker.  Every engine operation is also
recorded into the persistent run registry (SQLite, default
``.repro_runs/runs.db``; override with ``--registry PATH`` or
``REPRO_RUNS_DB``, disable with ``--no-registry`` or
``REPRO_RUNS_DB=off``), browsable via ``repro runs list|show|diff|gc``.

Ctrl-C cancels cooperatively: the first SIGINT flips the ambient
:class:`repro.limits.CancelToken`, the chase stops at its next
checkpoint, partial output / trace / registry rows flush, and the exit
code is 130.  A second SIGINT falls back to the ordinary
``KeyboardInterrupt``.

``repro explain`` chases an instance under a provenance-recording
tracer and prints the derivation tree of each requested fact (or of
every generated fact when ``--fact`` is omitted), plus a budget
summary when the run was truncated.
"""

from __future__ import annotations

import argparse
import functools
import os
import signal
import sys
from typing import Callable, List, Optional

from .chase.standard import ChaseNonTermination
from .engine import ExchangeEngine
from .errors import BatchItemError, Cancelled, ReproError
from .instance import Instance, render_instances
from .inverses.quasi_inverse import (
    NotFullTgds,
    maximum_extended_recovery_for_full_tgds,
)
from .limits import CancelToken, Limits, cancel_scope
from .mappings.schema_mapping import SchemaMapping
from .obs import (
    ChaseProfile,
    DEFAULT_DB_PATH,
    JsonlSink,
    MultiSink,
    OpenMetricsSink,
    ProgressReporter,
    RunRegistry,
    Tracer,
    context_scope,
    diff_profiles,
    mint_context,
    progress_scope,
    render_budget_summary,
    render_derivation,
    render_profile,
    render_span_tree,
    spans_from_payload,
    write_trace_jsonl,
)
from .parsing.parser import parse_query
from .service.diskcache import (
    DEFAULT_CACHE_DIR,
    DiskCache,
    resolve_cache_dir,
)
from .store import open_store

#: ``REPRO_RUNS_DB`` values that disable the registry outright.
_REGISTRY_OFF = ("", "off", "0", "none", "disabled")


def _load_mapping(spec: str) -> SchemaMapping:
    if os.path.exists(spec):
        with open(spec) as handle:
            text = handle.read()
    else:
        text = spec
    return SchemaMapping.from_text(text)


def _limits_from_args(args: argparse.Namespace) -> Optional[Limits]:
    """A ``Limits`` from the governance flags, or ``None`` when none set.

    CLI-built limits use ``on_exhausted="partial"``: the whole point of
    bounding a command-line run is getting the partial result back.
    """
    values = {
        name: getattr(args, name, None)
        for name in ("deadline", "max_rounds", "max_facts", "max_branches", "grace")
    }
    if all(value is None for value in values.values()):
        return None
    return Limits(**values)


def _registry_path(args: argparse.Namespace) -> Optional[str]:
    """Where the run registry lives for this invocation, or ``None``.

    Resolution: ``--no-registry`` wins, then an explicit ``--registry``
    path, then ``REPRO_RUNS_DB`` (whose *off* values disable), then the
    default ``.repro_runs/runs.db`` — the registry is on by default so
    every engine-backed command leaves a history row.
    """
    if getattr(args, "no_registry", False):
        return None
    explicit = getattr(args, "registry", None)
    if explicit is not None:
        return explicit
    env = os.environ.get("REPRO_RUNS_DB")
    if env is not None:
        if env.strip().lower() in _REGISTRY_OFF:
            return None
        return env
    return DEFAULT_DB_PATH


def _telemetry_sink(args: argparse.Namespace):
    """The engine sink for this invocation (``None``, one, or a fan-out)."""
    sinks = []
    if getattr(args, "ops_log", None):
        sinks.append(JsonlSink(args.ops_log))
    if getattr(args, "metrics_out", None):
        sinks.append(OpenMetricsSink(args.metrics_out))
    if not sinks:
        return None
    return sinks[0] if len(sinks) == 1 else MultiSink(sinks)


def _make_engine(
    args: argparse.Namespace, force_tracer: bool = False
) -> ExchangeEngine:
    tracer = (
        Tracer() if (force_tracer or getattr(args, "trace", None)) else None
    )
    registry_path = _registry_path(args)
    return ExchangeEngine(
        enable_cache=not getattr(args, "no_cache", False),
        jobs=getattr(args, "jobs", None),
        tracer=tracer,
        limits=_limits_from_args(args),
        retries=getattr(args, "retries", None) or 0,
        on_error=getattr(args, "on_error", None) or "raise",
        sink=_telemetry_sink(args),
        registry=RunRegistry(registry_path) if registry_path else None,
        store=getattr(args, "store", None) or "memory",
        sql_chase=getattr(args, "sql_chase", False),
        disk_cache=resolve_cache_dir(getattr(args, "cache_dir", None)),
        profile=getattr(args, "profile", False),
    )


def _note_partial(result, index: Optional[int] = None) -> None:
    """Report a budget-truncated result on stderr (the result printed).

    The note cites the request id the exhaustion was stamped with, so
    a partial dump is matchable to its registry rows and spans."""
    if result.exhausted is not None:
        prefix = "" if index is None else f"[{index}] "
        request = (
            f" [request {result.exhausted.request_id}]"
            if getattr(result.exhausted, "request_id", "")
            else ""
        )
        print(
            f"{prefix}partial: {result.exhausted.describe()}{request}",
            file=sys.stderr,
        )


def _note_batch_error(result: BatchItemError, index: int) -> bool:
    """Report one failed batch item on stderr; True when it was killed.

    Killed items (the supervisor terminated a hung worker,
    ``kind="killed"``) get their own note so a wedged batch is
    distinguishable from ordinary per-item failures in logs.
    """
    if result.kind == "killed":
        print(f"[{index}] killed: {result.error}", file=sys.stderr)
        return True
    print(f"[{index}] error: {result}", file=sys.stderr)
    return False


def _batch_exit_code(failures: int, kills: int) -> int:
    """Exit code for a finished batch: 7 over 5 over 0.

    7 — at least one item ended *killed* (hung worker, hard
    terminated); 5 — items failed but none were killed; 0 — clean.
    """
    if kills:
        return 7
    return 5 if failures else 0


def _finish(engine: ExchangeEngine, args: argparse.Namespace, code: int) -> int:
    trace_path = getattr(args, "trace", None)
    if trace_path and engine.tracer is not None:
        count = write_trace_jsonl(engine.tracer, trace_path)
        print(f"trace: {count} lines -> {trace_path}", file=sys.stderr)
    engine.close_telemetry()
    if getattr(args, "metrics_out", None):
        print(f"metrics: -> {args.metrics_out}", file=sys.stderr)
    if getattr(args, "profile", False):
        if engine.last_profile is not None:
            print(render_profile(engine.last_profile), file=sys.stderr)
        else:
            print(
                "profile: not collected (batch run or cache hit)",
                file=sys.stderr,
            )
    if getattr(args, "stats", False):
        print(engine.render_stats(), file=sys.stderr)
    return code


def _nonterminating(
    engine: ExchangeEngine, args: argparse.Namespace, exc: ChaseNonTermination
) -> int:
    """Report a diverging chase; the partial trace still flushes."""
    print(f"error: chase did not terminate: {exc}", file=sys.stderr)
    return _finish(engine, args, 3)


def _cancelled(
    engine: ExchangeEngine, args: argparse.Namespace, exc: Cancelled
) -> int:
    """Report a cooperative cancellation (Ctrl-C); trace, metrics, and
    registry rows still flush, and the exit code is the conventional
    128 + SIGINT."""
    print(f"cancelled: {exc}", file=sys.stderr)
    return _finish(engine, args, 130)


def _parse_instances(args: argparse.Namespace) -> List[Instance]:
    """Parse ``--instance`` texts onto the selected store backend.

    With ``--store sqlite[...]`` or ``--store duckdb[...]`` each parsed
    instance is rehydrated into a SQL store and handed back behind the
    ``Instance`` facade, so every downstream code path (chase, reverse,
    audit, batches) runs against the pluggable backend unchanged.
    Path-based specs get a ``.{i}`` suffix per extra instance so batch
    inputs never share a database file.
    """
    spec = getattr(args, "store", None) or "memory"
    parsed = [Instance.parse(text) for text in args.instance]
    if spec == "memory":
        return parsed
    loaded = []
    _, sep, spec_path = spec.partition(":")
    for index, inst in enumerate(parsed):
        item_spec = spec
        if index and sep and spec_path:
            item_spec = f"{spec}.{index}"
        store = open_store(item_spec, fresh=True)
        store.add_all(inst.facts)
        loaded.append(Instance(store=store))
    return loaded


def _print_candidates(result, prefix: str = "") -> None:
    texts = render_instances(result.candidates)
    if len(texts) == 1:
        print(f"{prefix}{texts[0]}")
    else:
        for index, text in enumerate(texts):
            print(f"{prefix}[{index}] {text}")


def _run_exchange(
    args: argparse.Namespace,
    single: Callable,
    many: Callable,
    show: Callable,
    **options,
) -> int:
    """The body of ``chase`` and ``reverse``: one item, or a batch.

    One ``--instance`` runs ``single(engine, mapping, item, **options)``
    and prints the result with *show*; several run ``many`` over the
    batch and print each item under an ``[index]`` prefix, reporting
    failed items on stderr (exit 5, or 7 when one was killed).
    """
    engine = _make_engine(args)
    mapping = _load_mapping(args.mapping)
    items = _parse_instances(args)
    failures = kills = 0
    try:
        if len(items) == 1:
            result = single(engine, mapping, items[0], **options)
            show(result)
            _note_partial(result)
        else:
            results = many(engine, mapping, items, jobs=args.jobs, **options)
            for index, result in enumerate(results):
                if isinstance(result, BatchItemError):
                    failures += 1
                    kills += _note_batch_error(result, index)
                    continue
                show(result, prefix=f"[{index}] ")
                _note_partial(result, index)
    except Cancelled as exc:
        return _cancelled(engine, args, exc)
    except ChaseNonTermination as exc:
        return _nonterminating(engine, args, exc)
    return _finish(engine, args, _batch_exit_code(failures, kills))


def _cmd_chase(args: argparse.Namespace) -> int:
    return _run_exchange(
        args,
        ExchangeEngine.exchange,
        ExchangeEngine.chase_many,
        lambda result, prefix="": print(f"{prefix}{result.instance}"),
        variant=args.variant,
    )


def _cmd_reverse(args: argparse.Namespace) -> int:
    return _run_exchange(
        args,
        ExchangeEngine.reverse,
        ExchangeEngine.reverse_many,
        _print_candidates,
        max_nulls=args.max_nulls,
        take_core=True,
    )


def _cmd_audit(args: argparse.Namespace) -> int:
    engine = _make_engine(args)
    mapping = _load_mapping(args.mapping)
    reverse = _load_mapping(args.reverse) if args.reverse else None
    try:
        report = engine.audit(mapping, reverse=reverse)
    except Cancelled as exc:
        return _cancelled(engine, args, exc)
    print(f"invertible (ground subset property): {report.invertible.holds}")
    print(f"extended invertible (hom property):  {report.extended_invertible.holds}")
    if not report.extended_invertible.holds:
        print(f"  counterexample: {report.extended_invertible.counterexample}")
    if report.chase_inverse is not None:
        print(f"reverse is a chase-inverse:          {report.chase_inverse.holds}")
        if not report.chase_inverse.holds:
            print(f"  counterexample: {report.chase_inverse.counterexample}")
    return _finish(engine, args, 0 if report.extended_invertible.holds else 1)


def _cmd_recover(args: argparse.Namespace) -> int:
    mapping = _load_mapping(args.mapping)
    try:
        recovery = maximum_extended_recovery_for_full_tgds(mapping)
    except NotFullTgds as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for dep in recovery.dependencies:
        print(dep)
    return 0


def _cmd_answer(args: argparse.Namespace) -> int:
    engine = _make_engine(args)
    mapping = _load_mapping(args.mapping)
    recovery = (
        _load_mapping(args.recovery)
        if args.recovery
        else maximum_extended_recovery_for_full_tgds(mapping)
    )
    query = parse_query(args.query)
    try:
        for source in _parse_instances(args):
            answers = engine.answer(
                mapping, recovery, query, source, max_nulls=args.max_nulls
            )
            for row in sorted(answers, key=str):
                print("(" + ", ".join(str(v) for v in row) + ")")
            if not answers:
                print("-- no certain answers --")
    except Cancelled as exc:
        return _cancelled(engine, args, exc)
    return _finish(engine, args, 0)


def _explain_budget_note(engine: ExchangeEngine, result) -> None:
    """Print the budget summary when the explained chase was truncated."""
    if result.exhausted is None:
        return
    print()
    print(render_budget_summary(engine.tracer))


def _cmd_explain(args: argparse.Namespace) -> int:
    engine = _make_engine(args, force_tracer=True)
    mapping = _load_mapping(args.mapping)
    source = Instance.parse(args.instance)
    try:
        result = engine.exchange(mapping, source, variant=args.variant)
    except Cancelled as exc:
        return _cancelled(engine, args, exc)
    except ChaseNonTermination as exc:
        return _nonterminating(engine, args, exc)
    graph = engine.tracer.provenance
    if args.fact:
        facts = [
            f
            for text in args.fact
            for f in sorted(Instance.parse(text).facts, key=lambda f: f.sort_key())
        ]
    else:
        facts = sorted(result.generated, key=lambda f: f.sort_key())
    if not facts:
        print("-- no generated facts: the instance already satisfies the mapping --")
        _explain_budget_note(engine, result)
        return _finish(engine, args, 0)
    code = 0
    for index, f in enumerate(facts):
        if index:
            print()
        try:
            print(render_derivation(graph, f, source=source))
        except KeyError:
            print(f"error: no derivation recorded for {f}", file=sys.stderr)
            code = 2
    _explain_budget_note(engine, result)
    return _finish(engine, args, code)


def _cmd_compose(args: argparse.Namespace) -> int:
    from .mappings.syntactic_composition import NotComposable, compose

    first = _load_mapping(args.first)
    second = _load_mapping(args.second)
    try:
        composed = compose(first, second, prune=not args.no_prune)
    except NotComposable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for dep in composed.dependencies:
        print(dep)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .analysis.report import analyze_mapping

    mapping = _load_mapping(args.mapping)
    probe = Instance.parse(args.probe) if args.probe else None
    print(analyze_mapping(mapping, probe=probe).render())
    return 0


# ----------------------------------------------------------------------
# repro runs — browsing the persistent run registry
# ----------------------------------------------------------------------


def _runs_registry(args: argparse.Namespace) -> Optional[RunRegistry]:
    """Open the registry for a ``runs`` subcommand, or complain.

    ``--db`` wins, then ``REPRO_RUNS_DB`` (off-values fall through to
    the default path — the user is explicitly *asking* for history, so
    an env var that merely disabled recording does not hide it).
    """
    path = getattr(args, "db", None)
    if not path:
        env = os.environ.get("REPRO_RUNS_DB", "").strip()
        path = env if env.lower() not in _REGISTRY_OFF else DEFAULT_DB_PATH
    if not os.path.exists(path):
        print(f"error: no run registry at {path}", file=sys.stderr)
        return None
    return RunRegistry(path)


def _run_status(row) -> str:
    """One-word status column for a registry row (``runs list``)."""
    if row.error == "WorkerKilled":
        return "killed"
    if row.error is not None:
        return f"error:{row.error}"
    if row.exhausted is not None:
        return f"partial:{row.exhausted}"
    return "hit" if row.cache_hit else "ok"


#: ``runs list --columns`` vocabulary, in canonical display order.
_LIST_COLUMNS = (
    "when", "op", "wall", "status", "request", "latency",
    "triggers", "mapping",
)

#: Header text per ``--columns`` name.
_LIST_HEADERS = {
    "when": "when",
    "op": "op",
    "wall": "wall(s)",
    "status": "status",
    "request": "request",
    "latency": "p50/p95(s)",
    "triggers": "triggers",
    "mapping": "mapping",
}

#: Numeric columns render right-aligned.
_LIST_RIGHT = {"wall", "latency", "triggers"}


def _percentile(values, q: float) -> float:
    """The *q*-quantile of *values* by linear interpolation."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = (len(ordered) - 1) * q
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def _latency_stats(rows) -> dict:
    """Per-(op, mapping digest) p50/p95 wall times over the listed rows.

    The aggregate is computed over the rows actually listed (after
    ``--limit``/``--op``), so the latency column always describes the
    history the user is looking at."""
    groups: dict = {}
    for row in rows:
        groups.setdefault((row.op, row.mapping_digest), []).append(
            row.wall_time
        )
    return {
        key: (_percentile(values, 0.50), _percentile(values, 0.95))
        for key, values in groups.items()
    }


def _list_cell(row, name: str, latency: dict, when: str) -> str:
    """One formatted ``runs list`` cell for column *name*."""
    if name == "when":
        return when
    if name == "op":
        return row.op
    if name == "wall":
        return f"{row.wall_time:.6f}"
    if name == "status":
        return _run_status(row)
    if name == "request":
        return row.request_id or "-"
    if name == "latency":
        p50, p95 = latency[(row.op, row.mapping_digest)]
        return f"{p50:.4f}/{p95:.4f}"
    if name == "triggers":
        return str(row.triggers)
    return row.mapping_digest[:12]


def _cmd_runs_list(args: argparse.Namespace) -> int:
    import time as _time

    registry = _runs_registry(args)
    if registry is None:
        return 2
    columns = None
    if getattr(args, "columns", None):
        columns = [
            name.strip() for name in args.columns.split(",") if name.strip()
        ]
        unknown = [name for name in columns if name not in _LIST_COLUMNS]
        if unknown:
            print(
                f"error: unknown column(s) {', '.join(unknown)}"
                f" (choose from {', '.join(_LIST_COLUMNS)})",
                file=sys.stderr,
            )
            return 2
    rows = registry.list_runs(limit=args.limit, op=args.op)
    if not rows:
        print("-- no recorded runs --")
        return 0
    whens = {
        row.id: _time.strftime("%Y-%m-%d %H:%M:%S", _time.localtime(row.ts))
        for row in rows
    }
    if columns is None:
        # The historical fixed-width layout, unchanged for scripts.
        print(
            f"{'id':>5}  {'when':<19} {'op':<8} {'wall(s)':>10} "
            f"{'status':<18} mapping"
        )
        for row in rows:
            print(
                f"{row.id:>5}  {whens[row.id]:<19} {row.op:<8} "
                f"{row.wall_time:>10.6f} "
                f"{_run_status(row):<18} {row.mapping_digest[:12]}"
            )
        return 0
    latency = _latency_stats(rows)
    table = [
        [_list_cell(row, name, latency, whens[row.id]) for name in columns]
        for row in rows
    ]
    widths = [
        max(len(_LIST_HEADERS[name]), *(len(line[i]) for line in table))
        for i, name in enumerate(columns)
    ]
    header_cells = [
        f"{_LIST_HEADERS[name]:>{widths[i]}}"
        if name in _LIST_RIGHT
        else f"{_LIST_HEADERS[name]:<{widths[i]}}"
        for i, name in enumerate(columns)
    ]
    print(f"{'id':>5}  " + "  ".join(header_cells).rstrip())
    for row, line in zip(rows, table):
        cells = [
            f"{line[i]:>{widths[i]}}"
            if name in _LIST_RIGHT
            else f"{line[i]:<{widths[i]}}"
            for i, name in enumerate(columns)
        ]
        print(f"{row.id:>5}  " + "  ".join(cells).rstrip())
    return 0


def _cmd_runs_show(args: argparse.Namespace) -> int:
    import time as _time

    registry = _runs_registry(args)
    if registry is None:
        return 2
    try:
        row = registry.get(args.id)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    when = _time.strftime("%Y-%m-%d %H:%M:%S", _time.localtime(row.ts))
    print(f"run {row.id} ({row.op}) at {when}")
    print(f"  mapping:  {row.mapping_digest or '-'}")
    print(f"  instance: {row.instance_digest or '-'}")
    print(f"  wall time: {row.wall_time:.6f}s  cache hit: {row.cache_hit}")
    print(
        f"  rounds={row.rounds} steps={row.steps} facts={row.facts} "
        f"nulls={row.nulls} branches={row.branches} triggers={row.triggers}"
    )
    print(f"  exhausted: {row.exhausted or '-'}  error: {row.error or '-'}")
    if row.trace_id or row.request_id:
        print(
            f"  trace: {row.trace_id or '-'}  request: {row.request_id or '-'}"
        )
    print(registry.compare_to_baseline(row.id, factor=args.factor).render())
    metrics = row.metrics or {}
    spans = metrics.get("spans")
    if spans:
        print()
        print(render_span_tree(spans_from_payload(spans)))
    profile = ChaseProfile.from_summary(metrics.get("profile"))
    if profile is not None:
        print()
        print(render_profile(profile))
    return 0


def _cmd_runs_diff(args: argparse.Namespace) -> int:
    registry = _runs_registry(args)
    if registry is None:
        return 2
    try:
        diff = registry.diff(args.first, args.second)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    print(diff.render())
    if getattr(args, "profile", False):
        before = ChaseProfile.from_summary(
            (diff.a.metrics or {}).get("profile")
        )
        after = ChaseProfile.from_summary(
            (diff.b.metrics or {}).get("profile")
        )
        if before is None or after is None:
            missing = ", ".join(
                str(row.id)
                for row, prof in ((diff.a, before), (diff.b, after))
                if prof is None
            )
            print(
                f"error: no stored chase profile for run(s) {missing}"
                " (record runs with --profile first)",
                file=sys.stderr,
            )
            return 2
        print(diff_profiles(before, after))
    return 0


def _cmd_runs_gc(args: argparse.Namespace) -> int:
    cache_dir = resolve_cache_dir(args.cache_dir)
    sweep_cache = cache_dir is not None and os.path.isdir(cache_dir)
    registry = _runs_registry(args)
    if registry is not None:
        deleted = registry.gc(keep=args.keep)
        print(f"deleted {deleted} rows, kept {len(registry)}")
    elif not (sweep_cache and args.cache_dir is not None):
        # No registry and no explicit cache sweep requested: usage error.
        return 2
    if sweep_cache:
        report = DiskCache(cache_dir).gc(
            max_bytes=args.max_cache_bytes,
            max_age=args.max_cache_age,
        )
        print(report.render())
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the long-lived exchange service (see ``docs/SERVICE.md``)."""
    from .service import ExchangeService, WarmPool, serve

    cache_dir = resolve_cache_dir(args.cache_dir)
    if cache_dir is None and args.cache_dir is None:
        cache_dir = DEFAULT_CACHE_DIR
    registry_path = _registry_path(args)
    pool = WarmPool(
        workers=args.pool_workers,
        engine_config={
            "cache_dir": cache_dir,
            "store": args.store or "memory",
            "sql_chase": args.sql_chase,
        },
        deadline=args.deadline,
        grace=args.grace if args.grace is not None else 2.0,
        max_pending=args.max_pending,
    )
    service = ExchangeService(
        pool,
        cache_dir=cache_dir,
        response_cache_size=args.response_cache_size,
        allow_faults=args.allow_faults,
        sink=_telemetry_sink(args),
        registry=RunRegistry(registry_path) if registry_path else None,
    )

    def _ready(host: str, port: int) -> None:
        print(f"serving on http://{host}:{port}", flush=True)
        if cache_dir is not None:
            print(f"cache: {cache_dir}", file=sys.stderr)

    return serve(service, host=args.host, port=args.port, ready=_ready)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reverse data exchange with nulls (PODS 2009 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    engine_flags = argparse.ArgumentParser(add_help=False)
    engine_flags.add_argument(
        "--jobs", type=int, default=None,
        help="worker count for batch operations (repeat --instance to batch)")
    engine_flags.add_argument(
        "--no-cache", action="store_true",
        help="disable the engine's content-addressed caches")
    engine_flags.add_argument(
        "--stats", action="store_true",
        help="print engine cache/time stats to stderr")
    engine_flags.add_argument(
        "--trace", metavar="PATH",
        help="record the run under a tracer and write JSONL to PATH "
             "(flushed even on non-termination)")
    engine_flags.add_argument(
        "--profile", action="store_true",
        help="profile the chase per dependency and print the EXPLAIN "
             "ANALYZE-style table to stderr (stdout is byte-identical "
             "to an unprofiled run; the summary also lands in the "
             "registry row for 'runs show' / 'runs diff --profile')")
    engine_flags.add_argument(
        "--deadline", type=float, metavar="SECONDS",
        help="wall-clock budget; on exhaustion the partial result prints "
             "with a 'partial:' note on stderr")
    engine_flags.add_argument(
        "--max-rounds", type=int, metavar="N",
        help="bound chase fixpoint rounds (per branch for disjunctive)")
    engine_flags.add_argument(
        "--max-facts", type=int, metavar="N",
        help="bound total facts in the chased instance")
    engine_flags.add_argument(
        "--max-branches", type=int, metavar="N",
        help="bound live branches of the disjunctive chase")
    engine_flags.add_argument(
        "--grace", type=float, metavar="SECONDS",
        help="with --deadline: hard-kill a batch worker whose heartbeat "
             "stays silent this long past its deadline (exit 7 when an "
             "item ends killed)")
    engine_flags.add_argument(
        "--on-error", choices=["raise", "skip"], default=None,
        help="batch item failure policy: raise (default) aborts, skip "
             "reports failed items on stderr and exits 5")
    engine_flags.add_argument(
        "--retries", type=int, default=None, metavar="N",
        help="retry transiently failing batch items up to N times")
    engine_flags.add_argument(
        "--metrics-out", metavar="PATH",
        help="write an OpenMetrics/Prometheus text file of per-op "
             "counters and wall-time histograms (env: REPRO_METRICS_OUT)")
    engine_flags.add_argument(
        "--ops-log", metavar="PATH",
        help="append one JSON line per engine operation to PATH")
    engine_flags.add_argument(
        "--progress", action="store_true",
        help="live stderr ticker fed from the budget checkpoints")
    engine_flags.add_argument(
        "--registry", metavar="PATH", nargs="?", const=DEFAULT_DB_PATH,
        default=None,
        help="run-registry database recording this invocation "
             f"(default: $REPRO_RUNS_DB or {DEFAULT_DB_PATH})")
    engine_flags.add_argument(
        "--no-registry", action="store_true",
        help="do not record this invocation in the run registry")
    engine_flags.add_argument(
        "--store", metavar="SPEC", default="memory",
        help="instance backend: memory (default), sqlite, sqlite:PATH, "
             "duckdb, or duckdb:PATH (duckdb needs the optional wheel); "
             "parsed instances load onto this backend and the SQL "
             "chase uses it as scratch space")
    engine_flags.add_argument(
        "--sql-chase", action="store_true",
        help="compile restricted chases, single and batched, to "
             "semi-naive SQL plans run inside the SQL store backend (a "
             "mapping with a dependency outside the SQL fragment runs "
             "tuple-at-a-time)")
    engine_flags.add_argument(
        "--cache-dir", metavar="PATH", default=None,
        help="persistent disk tier under the engine caches: results "
             "survive process restarts, keyed by content digests "
             "(env: REPRO_CACHE_DIR; 'off' disables)")

    chase = sub.add_parser("chase", parents=[engine_flags],
                           help="forward data exchange (the chase)")
    chase.add_argument("--mapping", required=True)
    chase.add_argument("--instance", required=True, action="append",
                       help="source instance; repeatable for a batch")
    chase.add_argument("--variant", choices=["restricted", "oblivious"],
                       default="restricted")
    chase.set_defaults(func=_cmd_chase)

    reverse = sub.add_parser("reverse", parents=[engine_flags],
                             help="reverse data exchange")
    reverse.add_argument("--mapping", required=True,
                         help="the REVERSE mapping (target -> source)")
    reverse.add_argument("--instance", required=True, action="append",
                         help="target instance; repeatable for a batch")
    reverse.add_argument("--max-nulls", type=int, default=8)
    reverse.set_defaults(func=_cmd_reverse)

    audit = sub.add_parser("audit", parents=[engine_flags],
                           help="invertibility audit")
    audit.add_argument("--mapping", required=True)
    audit.add_argument("--reverse", help="candidate chase-inverse to verify")
    audit.set_defaults(func=_cmd_audit)

    recover = sub.add_parser(
        "recover", help="compute a maximum extended recovery (full tgds)"
    )
    recover.add_argument("--mapping", required=True)
    recover.set_defaults(func=_cmd_recover)

    answer = sub.add_parser("answer", parents=[engine_flags],
                            help="reverse certain answers")
    answer.add_argument("--mapping", required=True)
    answer.add_argument("--recovery",
                        help="reverse mapping; computed when omitted")
    answer.add_argument("--instance", required=True, action="append",
                        help="source instance; repeatable for a batch")
    answer.add_argument("--query", required=True)
    answer.add_argument("--max-nulls", type=int, default=8)
    answer.set_defaults(func=_cmd_answer)

    explain = sub.add_parser(
        "explain", parents=[engine_flags],
        help="why-provenance: print the derivation tree of chased facts"
    )
    explain.add_argument("--mapping", required=True)
    explain.add_argument("--instance", required=True,
                         help="source instance to chase")
    explain.add_argument("--fact", action="append",
                         help="fact to explain, e.g. \"Q(a, N1)\"; repeatable; "
                              "every generated fact when omitted")
    explain.add_argument("--variant", choices=["restricted", "oblivious"],
                         default="restricted")
    explain.set_defaults(func=_cmd_explain)

    compose_cmd = sub.add_parser(
        "compose", help="syntactically compose two tgd mappings"
    )
    compose_cmd.add_argument("--first", required=True,
                             help="left mapping (must be full tgds)")
    compose_cmd.add_argument("--second", required=True)
    compose_cmd.add_argument("--no-prune", action="store_true",
                             help="skip implication-based minimization")
    compose_cmd.set_defaults(func=_cmd_compose)

    report = sub.add_parser(
        "report", help="full analysis report (language, invertibility, "
        "recovery, loss, round trip)"
    )
    report.add_argument("--mapping", required=True)
    report.add_argument("--probe", help="probe instance for the round trip")
    report.set_defaults(func=_cmd_report)

    runs = sub.add_parser(
        "runs", help="browse the persistent run registry"
    )
    runs_sub = runs.add_subparsers(dest="runs_command", required=True)
    db_flag = argparse.ArgumentParser(add_help=False)
    db_flag.add_argument(
        "--db", metavar="PATH",
        help=f"registry database (default: $REPRO_RUNS_DB or {DEFAULT_DB_PATH})")
    runs_list = runs_sub.add_parser(
        "list", parents=[db_flag], help="recent runs, newest first")
    runs_list.add_argument("--limit", type=int, default=20)
    runs_list.add_argument("--op", help="filter by operation kind")
    runs_list.add_argument(
        "--columns", metavar="NAMES",
        help="comma-separated columns to show, from: "
             f"{', '.join(_LIST_COLUMNS)} (latency is the p50/p95 "
             "wall time of each row's op + mapping group over the "
             "listed rows; request is the request id)")
    runs_list.set_defaults(func=_cmd_runs_list)
    runs_show = runs_sub.add_parser(
        "show", parents=[db_flag],
        help="one run in full, with its baseline-regression verdict")
    runs_show.add_argument("id", type=int)
    runs_show.add_argument(
        "--factor", type=float, default=2.0,
        help="regression threshold over the baseline median wall time")
    runs_show.set_defaults(func=_cmd_runs_show)
    runs_diff = runs_sub.add_parser(
        "diff", parents=[db_flag],
        help="wall-time and counter deltas between two runs")
    runs_diff.add_argument("first", type=int)
    runs_diff.add_argument("second", type=int)
    runs_diff.add_argument(
        "--profile", action="store_true",
        help="also diff the stored chase profiles, attributing the "
             "wall-time move to specific dependencies")
    runs_diff.set_defaults(func=_cmd_runs_diff)
    runs_gc = runs_sub.add_parser(
        "gc", parents=[db_flag],
        help="prune all but the newest rows; also sweeps the disk "
             "result cache when one is configured")
    runs_gc.add_argument("--keep", type=int, default=1000)
    runs_gc.add_argument(
        "--cache-dir", metavar="PATH", default=None,
        help="disk result cache to sweep alongside the registry "
             f"(env: REPRO_CACHE_DIR; default: {DEFAULT_CACHE_DIR} "
             "when present)")
    runs_gc.add_argument(
        "--max-cache-bytes", type=int, default=None, metavar="N",
        help="evict oldest cache entries until the total fits N bytes")
    runs_gc.add_argument(
        "--max-cache-age", type=float, default=None, metavar="SECONDS",
        help="evict cache entries older than SECONDS")
    runs_gc.set_defaults(func=_cmd_runs_gc)

    serve_cmd = sub.add_parser(
        "serve",
        help="long-lived HTTP exchange service with a warm worker pool "
             "and persistent result cache (see docs/SERVICE.md)")
    serve_cmd.add_argument("--host", default="127.0.0.1")
    serve_cmd.add_argument(
        "--port", type=int, default=8642,
        help="listen port (0 picks a free one; the bound port prints "
             "on stdout as 'serving on http://HOST:PORT')")
    serve_cmd.add_argument(
        "--pool-workers", type=int, default=2, metavar="N",
        help="warm worker processes (each holds a ready engine)")
    serve_cmd.add_argument(
        "--cache-dir", metavar="PATH", default=None,
        help="persistent result cache shared by workers and the "
             f"response tier (default: {DEFAULT_CACHE_DIR}; "
             "env REPRO_CACHE_DIR; 'off' disables)")
    serve_cmd.add_argument(
        "--response-cache-size", type=int, default=256, metavar="N",
        help="in-memory response cache entries (0 = serve repeats "
             "from disk every time)")
    serve_cmd.add_argument(
        "--deadline", type=float, default=30.0, metavar="SECONDS",
        help="per-request budget; a request may lower it via its "
             "'limits' object")
    serve_cmd.add_argument(
        "--grace", type=float, default=None, metavar="SECONDS",
        help="hard-kill a worker silent this long past the deadline "
             "(default 2.0); the slot respawns in place")
    serve_cmd.add_argument(
        "--max-pending", type=int, default=None, metavar="N",
        help="admission bound on queued+running requests "
             "(default 4 x workers); beyond it requests get 429")
    serve_cmd.add_argument(
        "--allow-faults", action="store_true",
        help="honor the test-only 'fault' request field (hang/crash "
             "injection for supervision drills)")
    serve_cmd.add_argument(
        "--metrics-out", metavar="PATH",
        help="also write the OpenMetrics exposition served at /metrics "
             "to PATH (env: REPRO_METRICS_OUT)")
    serve_cmd.add_argument(
        "--ops-log", metavar="PATH",
        help="append one JSON line per served request to PATH")
    serve_cmd.add_argument(
        "--registry", metavar="PATH", nargs="?", const=DEFAULT_DB_PATH,
        default=None,
        help="run-registry database recording every request "
             f"(default: $REPRO_RUNS_DB or {DEFAULT_DB_PATH})")
    serve_cmd.add_argument(
        "--no-registry", action="store_true",
        help="do not record requests in the run registry")
    serve_cmd.add_argument(
        "--store", metavar="SPEC", default="memory",
        help="worker instance backend: memory (default), sqlite, "
             "sqlite:PATH, duckdb, or duckdb:PATH")
    serve_cmd.add_argument(
        "--sql-chase", action="store_true",
        help="workers compile eligible chases to SQL plans")
    serve_cmd.set_defaults(func=_cmd_serve)
    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The process's one :func:`build_parser`.

    Building it takes about 2 ms on a 2-vCPU x86-64 host, so a process
    that calls :func:`main` many times (the differential harness's CLI
    lanes, say) builds it once.
    """
    return build_parser()


def main(argv: Optional[list] = None) -> int:
    args = _parser().parse_args(argv)
    # Environment defaults are read per call, not when the shared
    # parser was built.
    if getattr(args, "metrics_out", "") is None:
        args.metrics_out = os.environ.get("REPRO_METRICS_OUT") or None
    token = CancelToken()
    # One ambient TraceContext per invocation: every span, ops-log
    # line, and registry row this command produces — in this process
    # and in pool workers — carries the same trace/request ids.
    context = mint_context()

    def _on_sigint(signum, frame):
        if token.cancelled:  # second Ctrl-C: the ordinary abort
            raise KeyboardInterrupt
        token.cancel("SIGINT")
        print(
            "interrupt: stopping at the next checkpoint"
            f" [request {context.request_id}]"
            " (Ctrl-C again to abort hard)",
            file=sys.stderr,
        )

    previous_handler = None
    installed = False
    try:
        previous_handler = signal.signal(signal.SIGINT, _on_sigint)
        installed = True
    except ValueError:  # pragma: no cover - non-main-thread embedding
        pass
    reporter = (
        ProgressReporter(stream=sys.stderr)
        if getattr(args, "progress", False)
        else None
    )
    try:
        with cancel_scope(token), context_scope(context):
            if reporter is not None:
                with progress_scope(reporter):
                    code = args.func(args)
            else:
                code = args.func(args)
    except Cancelled as exc:
        # Backstop for cancellations surfacing outside a command's own
        # handler (telemetry has already flushed what it could).
        print(f"cancelled: {exc}", file=sys.stderr)
        return 130
    except ReproError as exc:
        # Malformed input and any other library error no command
        # handled: one line, the exit code recover/compose use.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if reporter is not None:
            reporter.finish()
        if installed:
            signal.signal(signal.SIGINT, previous_handler)
    if token.cancelled:
        return 130
    return code


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    raise SystemExit(main())
