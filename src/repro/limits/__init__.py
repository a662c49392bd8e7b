"""Resource governance: limits, budgets, cancellation, fault injection.

The package behind graceful degradation (see ``docs/ROBUSTNESS.md``)::

    from repro import Limits, chase

    result = chase(instance, deps, limits=Limits(deadline=0.5, max_facts=10_000))
    if result.exhausted:                 # a sound partial result
        print(result.exhausted.describe())

* :class:`Limits` — declarative bounds (deadline, rounds, facts, minted
  nulls, disjunctive branches) accepted uniformly by the chase kernels,
  the :class:`repro.ExchangeEngine`, and the CLI.
* :class:`Budget` / :class:`CancelToken` — the live cooperative
  accounting checked inside the fixpoint loops and the hom search.
* :func:`resolve_guards` — the one default-guard policy: which budget a
  kernel call runs under and its effective round and branch bounds
  (:data:`FALLBACK_BOUNDS` when the limits set neither that bound nor
  a deadline).
* :class:`Exhausted` — the diagnosis tagged onto partial results.
* :class:`FaultPlan` / :func:`inject_faults` — deterministic fault
  injection for the engine's batch paths (tests and CI).
"""

from .budget import (
    FALLBACK_BOUNDS,
    Budget,
    CancelToken,
    budget_scope,
    cancel_scope,
    current_budget,
    current_cancel_token,
    resolve_guards,
    set_budget,
    set_cancel_token,
)
from .config import Exhausted, Limits, resolve_limits
from .faults import (
    Fault,
    FaultPlan,
    HANG_BACKSTOP,
    current_fault_plan,
    inject_faults,
    set_fault_plan,
    trip,
)

__all__ = [
    "Budget",
    "CancelToken",
    "Exhausted",
    "FALLBACK_BOUNDS",
    "Fault",
    "FaultPlan",
    "HANG_BACKSTOP",
    "Limits",
    "budget_scope",
    "cancel_scope",
    "current_budget",
    "current_cancel_token",
    "current_fault_plan",
    "set_cancel_token",
    "inject_faults",
    "resolve_guards",
    "resolve_limits",
    "set_budget",
    "set_fault_plan",
    "trip",
]
