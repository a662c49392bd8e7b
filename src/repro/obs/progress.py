"""Live progress reporting for long-running governed operations.

A multi-minute disjunctive chase is a black box until it returns.  The
:class:`ProgressReporter` turns the cooperative :class:`repro.limits.
Budget` checkpoints the chase already executes — every fixpoint round,
every charge after a firing — into a throttled heartbeat stream,
surfaced by the CLI's ``--progress`` flag as a stderr ticker::

    progress: chase round 12 steps=8412 facts=20310 elapsed=3.4s

Design constraints mirror the tracer's:

* **Near-zero overhead when off.**  With no reporter installed (the
  default) a budget checkpoint pays exactly one ``is None`` slot read.
  The reporter is a :class:`~repro.obs.observer.ChaseObserver`: the
  disjunctive chase attaches its budget's reporter and feeds it
  branch lifecycle steps only when one is installed.
* **Throttled when on.**  Heartbeats arrive per chase *step*; the
  reporter keeps the latest gauges and writes at most one line per
  :data:`INTERVAL` seconds (monotonic clock), so a hot loop cannot
  flood stderr.
* **Ambient, like the tracer.**  ``with progress_scope(reporter): ...``
  installs a process-wide reporter that freshly created budgets pick
  up; batch items on the serial loop share it, and worker-pool
  processes install their heartbeat cell as the reporter instead
  (:mod:`repro.engine.supervisor`).
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from typing import Dict, Optional, TextIO

from .observer import ChaseObserver

#: Seconds between two ticker lines; heartbeats in between coalesce.
INTERVAL = 0.2


class ProgressReporter(ChaseObserver):
    """Collects heartbeat gauges and renders a throttled stderr ticker.

    ``stream=None`` keeps the reporter silent (gauges still accumulate
    — useful for tests and for embedding).  On a TTY the ticker
    redraws one line with ``\\r``; otherwise each report is a plain
    newline-terminated line.  As a
    :class:`~repro.obs.observer.ChaseObserver` it consumes the
    disjunctive chase's ``branch`` hook.
    """

    def __init__(
        self, stream: Optional[TextIO] = None, clock=time.monotonic
    ) -> None:
        self.stream = stream
        self._clock = clock
        self._started_at: Optional[float] = None
        self._next_at = float("-inf")
        self._where = ""
        self._rounds = 0
        self._steps = 0
        self._gauges: Dict[str, int] = {}
        self.branches_opened = 0
        self.branches_forked = 0
        self.branches_closed = 0
        self.close_reasons: Dict[str, int] = {}
        self.ticks = 0
        self._line_open = False

    # -- fed from Budget checkpoint sites ------------------------------

    def heartbeat(
        self,
        where: str,
        rounds: int,
        steps: int,
        facts: Optional[int] = None,
        nulls: Optional[int] = None,
        branches: Optional[int] = None,
    ) -> None:
        """One cooperative checkpoint fired; maybe emit a ticker line."""
        now = self._clock()
        if self._started_at is None:
            self._started_at = now
        self._where = where
        self._rounds = rounds
        self._steps = steps
        if facts is not None:
            self._gauges["facts"] = facts
        if nulls is not None:
            self._gauges["nulls"] = nulls
        if branches is not None:
            self._gauges["branches"] = branches
        if now < self._next_at:
            return
        self._next_at = now + INTERVAL
        self.ticks += 1
        self._write(self.render(now))

    def branch_event(self, kind: str, reason: Optional[str] = None) -> None:
        """Record one disjunctive-chase branch lifecycle event.

        *kind* is ``"opened"``, ``"forked"`` (the branch fired a
        disjunctive trigger and was superseded by its children), or
        ``"closed"``; close events carry the chase's close *reason*
        (``finished``, ``duplicate``, ``exhausted``,
        ``nonterminating``).  The running breakdown is appended to the
        throttled ticker line — the latest-gauge heartbeats alone
        cannot say *why* the open-branch count moved.
        """
        if kind == "opened":
            self.branches_opened += 1
        elif kind == "forked":
            self.branches_forked += 1
        elif kind == "closed":
            self.branches_closed += 1
            if reason:
                self.close_reasons[reason] = self.close_reasons.get(reason, 0) + 1
        else:
            raise ValueError(f"unknown branch event kind {kind!r}")

    def branch(
        self,
        kind: str,
        branch: str,
        reason: Optional[str] = None,
        facts: int = 0,
        parent: Optional[str] = None,
        disjunct_index: Optional[int] = None,
        round_number: int = 0,
    ) -> None:
        """The chase observer hook: one :meth:`branch_event`."""
        self.branch_event(kind, reason)

    @property
    def branches_open(self) -> int:
        """Branches opened and neither closed nor superseded."""
        return self.branches_opened - self.branches_closed - self.branches_forked

    def branch_breakdown(self) -> str:
        """The per-branch ticker segment, or ``""`` before any event."""
        if not self.branches_opened:
            return ""
        text = (
            f"branches open={self.branches_open} "
            f"opened={self.branches_opened} "
            f"forked={self.branches_forked} closed={self.branches_closed}"
        )
        if self.close_reasons:
            reasons = ", ".join(
                f"{name}={count}"
                for name, count in sorted(self.close_reasons.items())
            )
            text += f" ({reasons})"
        return text

    @property
    def elapsed(self) -> float:
        if self._started_at is None:
            return 0.0
        return self._clock() - self._started_at

    def render(self, now: Optional[float] = None) -> str:
        """The current ticker line (without the trailing newline)."""
        if now is None:
            now = self._clock()
        elapsed = 0.0 if self._started_at is None else now - self._started_at
        parts = [
            f"progress: {self._where}",
            f"round {self._rounds}",
            f"steps={self._steps}",
        ]
        for name in ("facts", "nulls", "branches"):
            if name in self._gauges:
                parts.append(f"{name}={self._gauges[name]}")
        parts.append(f"elapsed={elapsed:.1f}s")
        breakdown = self.branch_breakdown()
        if breakdown:
            parts.append(f"| {breakdown}")
        return " ".join(parts)

    # -- output --------------------------------------------------------

    def _write(self, line: str) -> None:
        stream = self.stream
        if stream is None:
            return
        if getattr(stream, "isatty", lambda: False)():
            stream.write("\r\x1b[2K" + line)
        else:
            stream.write(line + "\n")
        stream.flush()
        self._line_open = True

    def finish(self, note: str = "") -> None:
        """Terminate the ticker: final line (when anything ran) + *note*."""
        if self.stream is None or not self._line_open:
            return
        final = self.render()
        if note:
            final += f"  [{note}]"
        if getattr(self.stream, "isatty", lambda: False)():
            self.stream.write("\r\x1b[2K" + final + "\n")
        else:
            self.stream.write(final + "\n")
        self.stream.flush()
        self._line_open = False


# ----------------------------------------------------------------------
# The ambient (process-wide) reporter
# ----------------------------------------------------------------------

_current: Optional[ProgressReporter] = None


def current_reporter() -> Optional[ProgressReporter]:
    """The ambient reporter, or ``None`` (the default).

    Read once per :class:`repro.limits.Budget` construction — the
    disabled-path cost at the checkpoints themselves is a slot read."""
    return _current


def set_reporter(
    reporter: Optional[ProgressReporter],
) -> Optional[ProgressReporter]:
    """Install *reporter* as the ambient one; returns the previous."""
    global _current
    previous = _current
    _current = reporter
    return previous


@contextmanager
def progress_scope(reporter: Optional[ProgressReporter] = None):
    """Scope an ambient reporter: ``with progress_scope(r): ...``."""
    if reporter is None:
        reporter = ProgressReporter(stream=sys.stderr)
    previous = set_reporter(reporter)
    try:
        yield reporter
    finally:
        set_reporter(previous)


__all__ = [
    "ProgressReporter",
    "current_reporter",
    "progress_scope",
    "set_reporter",
]
