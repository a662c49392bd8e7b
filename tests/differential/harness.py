"""Lanes: one execution configuration each, one :class:`Outcome` per input.

A configuration picks a kernel (tuple or SQL chase), an input store
(memory, sqlite, a sqlite file, duckdb when installed), an evaluation
(delta or naive), an observer (none, ``ChaseProfiler`` or ``Tracer``)
and an entry point: the kernel call, ``exchange``/``reverse``, serial,
pooled and supervised ``chase_many``/``reverse_many``, ``repro
chase``/``repro reverse`` through ``cli.main``, or serve's renderer
``execute_op``.  A lane runs a list of inputs (a batch entry point as
one batch) and returns one outcome per input.  The engine, CLI and
serve lanes run delta evaluation, as those entry points do.
"""

from __future__ import annotations

import atexit
import io
import itertools
import os
import re
import shutil
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from functools import cache, cached_property, partial
from typing import Callable, Dict, List, Optional

from repro.chase.disjunctive import disjunctive_chase, reverse_disjunctive_chase
from repro.chase.standard import chase
from repro.cli import main
from repro.engine import ExchangeEngine
from repro.facts import digest_facts
from repro.instance import Instance
from repro.limits import Limits
from repro.mappings.schema_mapping import SchemaMapping
from repro.obs import ChaseProfiler, Tracer
from repro.service.ops import execute_op, validate_request
from repro.store import duckdb_available, in_sql_fragment, open_store, sql_chase
from repro.terms import Null

STORES = ("memory", "sqlite", "sqlite-file") + (("duckdb",) if duckdb_available() else ())
#: Reverse lanes bound the quotient enumeration here (CLI ``--max-nulls``).
MAX_NULLS = 6

_FILES = itertools.count()


@cache
def _scratch_dir() -> str:
    path = tempfile.mkdtemp(prefix="repro-differential-")
    atexit.register(shutil.rmtree, path, ignore_errors=True)
    return path


def scratch_path() -> str:
    """A fresh file path in a directory removed at exit."""
    return os.path.join(_scratch_dir(), f"{next(_FILES)}.db")


@dataclass(frozen=True)
class Case:
    """A mapping under test as DSL text, which the CLI and serve lanes parse."""

    text: str
    variant: str = "restricted"

    @classmethod
    def of(cls, dependencies, variant: str = "restricted") -> "Case":
        return cls("\n".join(str(dep) for dep in dependencies), variant)

    @cached_property
    def mapping(self) -> SchemaMapping:
        return SchemaMapping.from_text(self.text)

    @cached_property
    def sql(self) -> bool:
        """Does ``sql_chase=True`` pick the SQL kernel for this case?"""
        return self.variant == "restricted" and all(map(in_sql_fragment, self.mapping.dependencies))


@dataclass(frozen=True)
class Outcome:
    """What a lane produced for one input; equality is the contract.

    ``printed`` is what the CLI prints.  ``detail`` holds the full
    instance text and digest, generated facts, steps, rounds and delta
    sizes (or a branch list's digests); text lanes leave it unset.
    """

    printed: str
    exhausted: Optional[str] = None
    detail: Optional[tuple] = None
    triggers: int = field(default=0, compare=False)
    result: object = field(default=None, compare=False)
    events: Optional[list] = field(default=None, compare=False)


def dsl(instance: Instance) -> str:
    """*instance* in ``--instance`` syntax (a null by its bare name)."""
    value = lambda v: v.name if isinstance(v, Null) else str(v.value)  # noqa: E731
    return ", ".join(f"{f.relation}({', '.join(map(value, f.values))})" for f in instance)


def sql_store(instance: Instance, store: str):
    """A SQL *store* holding *instance*'s facts, with their digest."""
    spec = f"sqlite:{scratch_path()}" if store == "sqlite-file" else store
    backend = open_store(spec, fresh=True)
    backend.add_all(instance.facts)
    assert backend.digest() == digest_facts(instance.facts)
    return backend


def load(instance: Instance, store: str) -> Instance:
    """*instance* on *store*; a SQL-backed copy equals its memory twin."""
    if store == "memory":
        return instance
    loaded = Instance(store=sql_store(instance, store))
    assert loaded == instance and loaded.digest() == instance.digest()
    return loaded


def outcome(case, source, result, tracer=None) -> Outcome:
    """A chase result (tuple, SQL or engine) or a branch list as an outcome."""
    events = None if tracer is None else list(tracer.events)
    exhausted = None if result.exhausted is None else result.exhausted.resource
    if isinstance(result, list):
        return Outcome(
            "\n".join(map(str, result)), exhausted, tuple(b.digest() for b in result),
            result=list(result), events=events,
        )
    full = result.instance
    generated = getattr(result, "generated", None)  # the SQL kernel only counts
    generated = frozenset(full.facts - source.facts if generated is None else generated)
    detail = (str(full), full.digest(), generated, result.steps, result.rounds)
    detail += (tuple(result.delta_sizes),)
    printed = str(full.restrict(case.mapping.target.names))
    return Outcome(printed, exhausted, detail, result.triggers_considered, full, events)


# -- kernel lanes ----------------------------------------------------------


def kernel(case, inputs, limits, *, kind, store, evaluation, observer):
    """The kernel call: ``tuple``, ``sql``, ``disjunctive``, ``reverse``
    (pruned) or ``exhaustive`` (``minimize=False``)."""
    deps, out = case.mapping.dependencies, []
    for item in inputs:
        kw = {"evaluation": evaluation, "limits": limits}
        if observer != "none":
            kw[observer] = ChaseProfiler() if observer == "profiler" else Tracer()
        if kind == "sql":
            result = sql_chase(sql_store(item, store), deps, **kw)
        elif kind == "tuple":
            result = chase(load(item, store), deps, variant=case.variant, **kw)
        elif kind == "disjunctive":
            result = disjunctive_chase(load(item, store), deps, **kw)
        else:
            result = reverse_disjunctive_chase(
                load(item, store), deps, result_relations=case.mapping.target.names,
                max_nulls=MAX_NULLS, minimize=kind == "reverse", **kw,
            )
        out.append(outcome(case, item, result, kw.get("tracer")))
    return out


def kernel_lanes(kind: str, stores) -> Dict[str, Callable]:
    """Store × evaluation, plus a tracer in both evaluations and a profiler
    (on the first store)."""
    configs = [(s, e, "none") for s in stores for e in ("delta", "naive")]
    configs += [(stores[0], "delta", "tracer"), (stores[0], "naive", "tracer")]
    configs.append((stores[0], "delta", "profiler"))
    return {
        f"kernel/{s}/{e}/{o}": partial(kernel, kind=kind, store=s, evaluation=e, observer=o)
        for s, e, o in configs
    }


# -- entry-point lanes -------------------------------------------------------


def engine_lane(case, inputs, limits, *, op, sql, entry, observer="none", on="memory", **kw):
    """A single call per input, or one serial, pooled or supervised batch,
    with the inputs *on* a store; *kw* goes to the engine."""
    engine = ExchangeEngine(
        sql_chase=sql, process_threshold=0, profile=observer == "profiler",
        tracer=Tracer() if observer == "tracer" else None, **kw,
    )
    mapping, items = case.mapping, [load(item, on) for item in inputs]
    options = {"max_nulls": MAX_NULLS, "take_core": True}
    if op == "chase":
        options = {"variant": case.variant}
    if entry == "single":
        single = engine.exchange if op == "chase" else engine.reverse
        results = [single(mapping, item, limits=limits, **options) for item in items]
    else:
        if entry == "supervised":  # a deadline and a grace period arm the pool
            limits = Limits(deadline=120, grace=10).merge(limits)
        many = engine.chase_many if op == "chase" else engine.reverse_many
        results = many(mapping, items, jobs=1 if entry == "serial" else 2, limits=limits, **options)
    if op == "reverse":
        return [Outcome("\n".join(map(str, result.candidates))) for result in results]
    return [outcome(case, item, result.to_chase_result()) for item, result in zip(inputs, results)]


_PARTIAL = re.compile(r"^(?:\[(\d+)\] )?partial: .*?(\w+) budget exhausted", re.M)


def cli_lane(case, inputs, limits, *, op, sql, flag=""):
    """``repro chase``/``repro reverse`` per input; *flag* ``batch`` runs
    them as one batch, ``store`` loads them into a sqlite file (which must
    then be non-empty), ``profile`` and ``trace`` attach observers."""
    argv = [op, "--no-registry", "--cache-dir", "off", "--mapping", case.text]
    argv += ["--variant", case.variant] if op == "chase" else ["--max-nulls", str(MAX_NULLS)]
    if sql:
        argv.append("--sql-chase")
    if limits is not None:
        argv += ["--max-facts", str(limits.max_facts)]
    # A batch of one would run the single path: repeat the first input,
    # which the batch deduplicates.
    runs = [[*inputs, inputs[0]]] if flag == "batch" else [[item] for item in inputs]
    out = []
    for items in runs:
        path, stdout, stderr = scratch_path(), io.StringIO(), io.StringIO()
        extra = {"store": ["--store", f"sqlite:{path}"], "trace": ["--trace", path]}
        extra["profile"] = ["--profile"]
        instances = itertools.chain(*(("--instance", dsl(item)) for item in items))
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = main([*argv, *extra.get(flag, []), *instances])
        stdout, stderr = stdout.getvalue(), stderr.getvalue()
        assert code == 0, stderr
        assert flag not in ("store", "trace") or os.path.getsize(path) > 0
        assert flag != "profile" or "chase profile:" in stderr
        printed: Dict[int, List[str]] = {index: [] for index in range(len(items))}
        for line in stdout.splitlines():
            index = int(line[1:line.index("]")]) if flag == "batch" else 0
            printed[index].append(line[line.index("{"):])
        exhausted = {int(m.group(1) or 0): m.group(2) for m in _PARTIAL.finditer(stderr)}
        out += [Outcome("\n".join(printed[i]), exhausted.get(i)) for i in range(len(items))]
    return out[: len(inputs)]


def serve_lane(case, inputs, limits, *, op, sql):
    engine, out = ExchangeEngine(sql_chase=sql), []
    for item in inputs:
        body = {"mapping": case.text, "instance": dsl(item)}
        body.update({"variant": case.variant} if op == "chase" else {"max_nulls": MAX_NULLS})
        if limits is not None:
            body["limits"] = {"max_facts": limits.max_facts}
        response = execute_op(engine, validate_request(op, body))
        printed = response["instance"] if op == "chase" else "\n".join(response["candidates"])
        out.append(Outcome(printed, response["exhausted"]))
    return out


def entry_lanes(op: str, sql: bool, everywhere: bool) -> Dict[str, Callable]:
    """One kernel's entry points: the single call and the serial batch;
    *everywhere* adds observers, a sqlite-file engine store, the worker
    pools, the CLI and serve."""
    run = partial(engine_lane, op=op, sql=sql)
    lanes = {"single": partial(run, entry="single"), "serial": partial(run, entry="serial")}
    if not everywhere:
        return lanes
    lanes["single/profiler"] = partial(run, entry="single", observer="profiler")
    lanes["single/tracer"] = partial(run, entry="single", observer="tracer")
    lanes["pooled"] = partial(run, entry="pooled")
    lanes["supervised/sqlite"] = partial(run, entry="supervised", on="sqlite")
    lanes["serve"] = partial(serve_lane, op=op, sql=sql)
    if op == "chase":
        lanes["single/sqlite-file-spec"] = lambda *args: run(
            *args, entry="single", store=f"sqlite:{scratch_path()}"
        )
    for flag in ("", "batch", "store", "profile", "trace"):
        lanes[f"cli/{flag or 'plain'}"] = partial(cli_lane, op=op, sql=sql, flag=flag)
    return lanes


# -- assertions --------------------------------------------------------------


def run_lanes(lanes: Dict[str, Callable], case, inputs, limits=None) -> Dict[str, List[Outcome]]:
    return {name: lane(case, inputs, limits) for name, lane in lanes.items()}


def assert_one_outcome(runs: Dict[str, List[Outcome]]) -> List[Outcome]:
    """Every lane gives the reference lane's outcome, input by input.

    The reference is the first lane with details, else the first lane;
    text lanes match it on printed text and exhausted resource.
    """
    first, reference = next(
        ((n, o) for n, o in runs.items() if o[0].detail is not None), next(iter(runs.items()))
    )
    for name, outcomes in runs.items():
        assert len(outcomes) == len(reference), name
        for index, (want, got) in enumerate(zip(reference, outcomes)):
            if got.detail is None:
                got, want = (got.printed, got.exhausted), (want.printed, want.exhausted)
            assert got == want, f"lane {name} differs from {first} on input {index}"
    return reference


def assert_evaluations_agree(runs: Dict[str, List[Outcome]]) -> None:
    """Delta considers no more triggers than naive and traces the same events."""
    for name, outcomes in runs.items():
        naive = runs.get(name.replace("/delta/", "/naive/"))
        if "/delta/" in name and naive is not None:
            for delta, oracle in zip(outcomes, naive):
                assert delta.triggers <= oracle.triggers, name
                assert delta.events == oracle.events, name
