"""Deterministic fault injection for the engine's batch paths.

Production batch systems are validated by injecting the failures they
must survive.  A :class:`FaultPlan` describes, per batch item, a fault
to trip inside the worker:

* ``crash`` — raise :class:`repro.errors.FaultInjected` (simulates a
  transient worker crash; the retry policy treats it as retryable);
* ``slow``  — sleep for a fixed duration before computing (exercises
  deadlines);
* ``exhaust`` — raise :class:`repro.errors.BudgetExhausted` with an
  ``"injected"`` diagnosis (simulates a budget blowout);
* ``hang`` — spin in a sleep loop that never runs a cooperative
  checkpoint and ignores cancellation (simulates a deadlocked native
  call or a pathological chase; only the worker supervisor's hard-kill
  escalation can end it).  The loop is bounded by ``seconds`` (default
  :data:`HANG_BACKSTOP`) so an unsupervised run cannot wedge CI
  forever.

Plans are plain frozen dataclasses, so they pickle into pool
workers unchanged and the same plan produces the same failures every
run — that's what makes the CI smoke job deterministic.

Three ways to activate a plan, in precedence order:

1. explicitly: ``engine.chase_many(..., faults=plan)``;
2. ambiently:  ``with inject_faults(plan): engine.chase_many(...)``;
3. by environment: ``REPRO_FAULTS="crash@1;crash@3"`` (read by the
   engine when neither of the above is present — how CI injects faults
   under an unmodified CLI invocation).

Spec syntax (semicolon-separated)::

    crash@<item>            crash item once
    crash@<item>:<times>    crash the first <times> attempts
    slow@<item>=<seconds>   sleep before computing
    exhaust@<item>          fail with an injected budget exhaustion
    hang@<item>             hang without checkpointing (backstop-bounded)
    hang@<item>=<seconds>   hang for at most <seconds>
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional, Tuple

from ..errors import BudgetExhausted, FaultInjected
from .config import Exhausted

_KINDS = ("crash", "slow", "exhaust", "hang")

#: How long a ``hang`` fault spins when no explicit duration is given.
#: A safety net, not a semantic bound: supervised runs kill the hung
#: worker long before this; the backstop only protects *unsupervised*
#: test runs from wedging past their harness timeout.
HANG_BACKSTOP = 60.0


@dataclass(frozen=True)
class Fault:
    """One fault rule: what to do to which batch item, how many times."""

    kind: str  # "crash" | "slow" | "exhaust" | "hang"
    item: int
    times: int = 1
    seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"fault kind must be one of {_KINDS}, got {self.kind!r}")
        if self.item < 0:
            raise ValueError(f"fault item index must be >= 0, got {self.item}")
        if self.times < 1:
            raise ValueError(f"fault times must be >= 1, got {self.times}")
        if self.seconds < 0:
            raise ValueError(f"fault seconds must be >= 0, got {self.seconds}")


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic set of fault rules keyed by batch item index.

    Indexes refer to positions in the input batch; when the engine's
    content-addressed dedup folds duplicate items into one computation,
    the rule of the *first* occurrence governs it.
    """

    faults: Tuple[Fault, ...] = ()

    @classmethod
    def crashes(cls, *items: int, times: int = 1) -> "FaultPlan":
        """Shorthand: crash each of *items* for the first *times* attempts."""
        return cls(tuple(Fault("crash", item, times=times) for item in items))

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse the compact spec syntax (see module docstring)."""
        rules = []
        for piece in spec.split(";"):
            piece = piece.strip()
            if not piece:
                continue
            if "@" not in piece:
                raise ValueError(f"cannot parse fault rule {piece!r}")
            kind, _, rest = piece.partition("@")
            kind = kind.strip()
            times, seconds = 1, 0.0
            if kind == "slow":
                item_text, sep, value = rest.partition("=")
                if not sep:
                    raise ValueError(f"slow fault needs '=<seconds>': {piece!r}")
                seconds = float(value)
            elif kind == "hang":
                item_text, sep, value = rest.partition("=")
                if sep:
                    seconds = float(value)
                else:
                    item_text, sep, value = rest.partition(":")
                    if sep:
                        times = int(value)
            else:
                item_text, sep, value = rest.partition(":")
                if sep:
                    times = int(value)
            rules.append(
                Fault(kind, int(item_text.strip()), times=times, seconds=seconds)
            )
        return cls(tuple(rules))

    @classmethod
    def from_env(cls, variable: str = "REPRO_FAULTS") -> Optional["FaultPlan"]:
        """The plan in the environment, or ``None`` when unset/empty."""
        spec = os.environ.get(variable, "").strip()
        if not spec:
            return None
        return cls.parse(spec)

    def for_item(self, index: int) -> Optional[Fault]:
        """The first rule targeting batch item *index*, if any."""
        for rule in self.faults:
            if rule.item == index:
                return rule
        return None

    def __bool__(self) -> bool:
        return bool(self.faults)


def trip(fault: Optional[Fault], attempt: int = 1) -> None:
    """Apply *fault* inside a worker for the given attempt number.

    ``crash``/``exhaust``/``hang`` rules trip while ``attempt <= times``
    and are silent afterwards (so retries can succeed); ``slow`` sleeps
    on every attempt.  ``fault=None`` is a no-op — tasks call this
    unconditionally.
    """
    if fault is None:
        return
    if fault.kind == "slow":
        time.sleep(fault.seconds)
        return
    if attempt > fault.times:
        return
    if fault.kind == "hang":
        # The point is NOT to checkpoint: no budget, no cancellation
        # check, no heartbeat — just a blind sleep loop, exactly what a
        # deadlocked native call looks like to the supervisor.
        stop = time.monotonic() + (fault.seconds or HANG_BACKSTOP)
        while time.monotonic() < stop:
            time.sleep(0.02)
        return
    if fault.kind == "crash":
        raise FaultInjected(
            f"injected crash on batch item {fault.item} (attempt {attempt})",
            item=fault.item,
        )
    raise BudgetExhausted(
        diagnosis=Exhausted(
            resource="injected",
            where="fault_plan",
            limit=fault.times,
            used=attempt,
        )
    )


# ----------------------------------------------------------------------
# The ambient fault plan (process-wide; tests and the CLI smoke job)
# ----------------------------------------------------------------------

_current_plan: Optional[FaultPlan] = None


def current_fault_plan() -> Optional[FaultPlan]:
    """The active plan: the ambient one, else ``REPRO_FAULTS``, else None."""
    if _current_plan is not None:
        return _current_plan
    return FaultPlan.from_env()


def set_fault_plan(plan: Optional[FaultPlan]) -> Optional[FaultPlan]:
    """Install *plan* as the ambient fault plan; returns the previous one."""
    global _current_plan
    previous = _current_plan
    _current_plan = plan
    return previous


@contextmanager
def inject_faults(plan: FaultPlan):
    """Scope an ambient fault plan: ``with inject_faults(plan): ...``."""
    previous = set_fault_plan(plan)
    try:
        yield plan
    finally:
        set_fault_plan(previous)
