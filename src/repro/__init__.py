"""repro — Reverse Data Exchange: Coping with Nulls (PODS 2009).

A from-scratch reproduction of Fagin, Kolaitis, Popa, and Tan's framework
for reverse data exchange over instances with labeled nulls: homomorphic
extensions of schema mappings, extended inverses, maximum extended
recoveries, the quasi-inverse algorithm for full tgds, reverse query
answering, and information-loss comparison of schema mappings.

Quickstart::

    from repro import ExchangeEngine, SchemaMapping, Instance

    engine = ExchangeEngine()
    M = SchemaMapping.from_text("P(x, y, z) -> Q(x, y) & R(y, z)")
    I = Instance.parse("P(a, b, c)")
    U = engine.chase(M, I)              # {Q(a, b), R(b, c)}
    engine.chase(M, I)                  # cache hit — identical result

The classic ``M.chase(I)`` still works and delegates to a module-level
default engine.  See ``examples/quickstart.py`` for the full Example 1.1
round trip and ``docs/USAGE.md`` §9 for the engine API.

Resource governance: every chase/engine entry point accepts
``limits=Limits(deadline=0.5, max_facts=10_000, ...)``; on exhaustion
the result comes back partial and tagged (``result.exhausted``) rather
than raising.  Errors derive from :class:`repro.errors.ReproError`.
See ``docs/ROBUSTNESS.md``.
"""

from .errors import (
    BatchItemError,
    BudgetExhausted,
    Cancelled,
    FaultInjected,
    ParseError,
    ReproError,
    WorkerKilled,
)
from .limits import (
    Budget,
    CancelToken,
    Exhausted,
    FaultPlan,
    Limits,
    budget_scope,
    cancel_scope,
    inject_faults,
)
from .terms import Const, Null, NullFactory, Var
from .schema import RelationSymbol, Schema
from .instance import Fact, Instance, fact
from .logic.atoms import Atom, atom
from .logic.guards import ConstantGuard, Inequality
from .logic.dependencies import DisjunctiveTgd, Tgd
from .logic.queries import ConjunctiveQuery
from .parsing.parser import parse_dependencies, parse_dependency, parse_query
from .homs.search import (
    all_homomorphisms,
    find_homomorphism,
    is_hom_equivalent,
    is_homomorphic,
)
from .homs.core import core
from .chase.standard import ChaseNonTermination, ChaseResult, chase
from .chase.disjunctive import (
    disjunctive_chase,
    minimize_branches,
    reverse_disjunctive_chase,
)
from .mappings.schema_mapping import SchemaMapping
from .engine import (
    AuditReport,
    ExchangeEngine,
    ExchangeResult,
    OperationStats,
    ReverseResult,
    get_default_engine,
    set_default_engine,
)
from .mappings.extension import (
    extended_universal_solution,
    in_extension,
    in_extension_reverse,
    is_extended_solution,
)
from .mappings.identity import extended_identity_contains, identity_contains
from .mappings.composition import in_extended_composition
from .store import (
    InstanceStore,
    MemoryStore,
    SqliteStore,
    StoreError,
    open_store,
)
from .obs import (
    JsonlSink,
    MetricsRegistry,
    MultiSink,
    OpRecord,
    OpenMetricsSink,
    ProgressReporter,
    ProvenanceGraph,
    RunRegistry,
    Tracer,
    current_tracer,
    progress_scope,
    render_derivation,
    set_tracer,
    tracing,
    write_trace_jsonl,
)

__version__ = "1.0.0"

__all__ = [
    "ReproError",
    "BudgetExhausted",
    "Cancelled",
    "FaultInjected",
    "ParseError",
    "BatchItemError",
    "WorkerKilled",
    "Budget",
    "CancelToken",
    "Exhausted",
    "FaultPlan",
    "Limits",
    "budget_scope",
    "cancel_scope",
    "inject_faults",
    "Const",
    "Null",
    "NullFactory",
    "Var",
    "RelationSymbol",
    "Schema",
    "Fact",
    "Instance",
    "fact",
    "Atom",
    "atom",
    "ConstantGuard",
    "Inequality",
    "DisjunctiveTgd",
    "Tgd",
    "ConjunctiveQuery",
    "parse_dependencies",
    "parse_dependency",
    "parse_query",
    "all_homomorphisms",
    "find_homomorphism",
    "is_hom_equivalent",
    "is_homomorphic",
    "core",
    "ChaseNonTermination",
    "ChaseResult",
    "chase",
    "disjunctive_chase",
    "minimize_branches",
    "reverse_disjunctive_chase",
    "SchemaMapping",
    "AuditReport",
    "ExchangeEngine",
    "ExchangeResult",
    "OperationStats",
    "ReverseResult",
    "get_default_engine",
    "set_default_engine",
    "extended_universal_solution",
    "in_extension",
    "in_extension_reverse",
    "is_extended_solution",
    "extended_identity_contains",
    "identity_contains",
    "in_extended_composition",
    "InstanceStore",
    "MemoryStore",
    "SqliteStore",
    "StoreError",
    "open_store",
    "JsonlSink",
    "MetricsRegistry",
    "MultiSink",
    "OpRecord",
    "OpenMetricsSink",
    "ProgressReporter",
    "ProvenanceGraph",
    "RunRegistry",
    "Tracer",
    "current_tracer",
    "progress_scope",
    "render_derivation",
    "set_tracer",
    "tracing",
    "write_trace_jsonl",
    "__version__",
]
