"""The chase profiler: per-dependency, per-round time attribution.

``EXPLAIN ANALYZE`` for the chase.  A :class:`ChaseProfiler` is handed
to any chase kernel — :func:`repro.chase.standard.chase`, the
disjunctive chase, or :func:`repro.store.sqlplan.sql_chase` — and
collects, for every dependency × fixpoint round, the **self time** of
that dependency's work plus its counters: triggers considered,
triggers fired, facts added, nulls minted.  The finished
:class:`ChaseProfile` answers "which tgd is the hot one" the way a
database plan profile answers "which operator".

The profiler is a :class:`~repro.obs.observer.ChaseObserver` that
consumes only the ``cell`` hook: one cell per tuple dependency ×
round, per disjunctive pop (keyed by branch), or per SQL trigger plan
× round.  With no profiler attached the kernels read no clock; with
one, they read it twice per cell — never per binding.  The one
overhead guard (``benchmarks/bench_overhead.py``) races profiler-on
against nothing attached at ≤10%.  Profiling **never changes the
chase result**: the CI ``profile-smoke`` job diffs profiled output
byte-for-byte against an unprofiled run.

Dependencies are keyed by a stable :func:`fingerprint_dependency`
(content hash of the dependency text), so profiles from different
processes, runs, or registry rows line up row-for-row —
``repro runs diff --profile`` exploits this to attribute a wall-time
regression to the specific dependencies whose self time moved.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .observer import ChaseObserver

__all__ = [
    "ChaseProfile",
    "ChaseProfiler",
    "DependencyProfile",
    "fingerprint_dependency",
    "render_profile",
    "diff_profiles",
]

#: Blocks for the rounds-active sparkline, lightest to heaviest.
_SPARK = "▁▂▃▄▅▆▇█"


def fingerprint_dependency(dependency) -> str:
    """A stable 12-hex content fingerprint of one dependency.

    Hashes the dependency's text form, so the same tgd gets the same
    fingerprint across processes, sessions, and registry rows —
    regardless of its position in the mapping.
    """
    text = dependency if isinstance(dependency, str) else str(dependency)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


@dataclass(frozen=True)
class RoundCell:
    """One dependency's work inside one fixpoint round."""

    round: int
    seconds: float
    considered: int
    fired: int
    facts: int
    nulls: int

    def as_list(self) -> list:
        """The compact JSON projection ``[round, sec, c, f, fa, n]``."""
        return [
            self.round,
            self.seconds,
            self.considered,
            self.fired,
            self.facts,
            self.nulls,
        ]


@dataclass(frozen=True)
class DependencyProfile:
    """One dependency's aggregated profile row.

    ``branch`` is ``None`` for the standard chase and the branch id for
    disjunctive-chase attribution (the same tgd may appear once per
    branch)."""

    fingerprint: str
    text: str
    self_time: float
    considered: int
    fired: int
    facts: int
    nulls: int
    rounds: Tuple[RoundCell, ...]
    branch: Optional[str] = None

    @property
    def active_rounds(self) -> int:
        """Rounds in which this dependency had any binding to consider."""
        return sum(1 for cell in self.rounds if cell.considered > 0)


@dataclass(frozen=True)
class ChaseProfile:
    """The finished profile of one chase: per-dependency attribution.

    ``dependencies`` is sorted by self time, hottest first;
    ``total_time`` is the whole operation's wall time (the profiled
    blocks' sum when the caller did not supply one)."""

    total_time: float
    rounds: int
    dependencies: Tuple[DependencyProfile, ...]

    @property
    def triggers_considered(self) -> int:
        """Sum of every per-round ``considered`` count across rows."""
        return sum(dep.considered for dep in self.dependencies)

    @property
    def self_time(self) -> float:
        """Total profiled (attributed) time across all dependencies."""
        return sum(dep.self_time for dep in self.dependencies)

    def to_summary(self) -> dict:
        """A JSON-safe summary for registry rows and HTTP payloads."""
        return {
            "total_time": self.total_time,
            "rounds": self.rounds,
            "dependencies": [
                {
                    "fingerprint": dep.fingerprint,
                    "text": dep.text,
                    "branch": dep.branch,
                    "self_time": dep.self_time,
                    "considered": dep.considered,
                    "fired": dep.fired,
                    "facts": dep.facts,
                    "nulls": dep.nulls,
                    "rounds": [cell.as_list() for cell in dep.rounds],
                }
                for dep in self.dependencies
            ],
        }

    @classmethod
    def from_summary(cls, data: Optional[dict]) -> Optional["ChaseProfile"]:
        """Rebuild a profile from :meth:`to_summary` output (None-safe)."""
        if not data:
            return None
        deps = []
        for row in data.get("dependencies", ()):
            cells = tuple(
                RoundCell(
                    round=int(c[0]),
                    seconds=float(c[1]),
                    considered=int(c[2]),
                    fired=int(c[3]),
                    facts=int(c[4]),
                    nulls=int(c[5]),
                )
                for c in row.get("rounds", ())
            )
            deps.append(
                DependencyProfile(
                    fingerprint=str(row.get("fingerprint", "")),
                    text=str(row.get("text", "")),
                    branch=row.get("branch"),
                    self_time=float(row.get("self_time", 0.0)),
                    considered=int(row.get("considered", 0)),
                    fired=int(row.get("fired", 0)),
                    facts=int(row.get("facts", 0)),
                    nulls=int(row.get("nulls", 0)),
                    rounds=cells,
                )
            )
        deps.sort(key=lambda d: (-d.self_time, d.fingerprint, d.branch or ""))
        return cls(
            total_time=float(data.get("total_time", 0.0)),
            rounds=int(data.get("rounds", 0)),
            dependencies=tuple(deps),
        )


class ChaseProfiler(ChaseObserver):
    """Mutable per-chase collector: the observer that builds profiles.

    Consumes the kernels' ``cell`` hook.  One instance may span several
    chase calls (the disjunctive reverse chase profiles every quotient
    world it chases into the same collector, keyed by branch).  Not thread-safe —
    one profiler per operation, like a budget."""

    __slots__ = ("_cells", "_texts", "_keys", "_max_round")

    def __init__(self) -> None:
        """An empty collector."""
        # (fingerprint, branch) -> {round -> [sec, considered, fired, facts, nulls]}
        self._cells: Dict[Tuple[str, Optional[str]], Dict[int, list]] = {}
        self._texts: Dict[str, str] = {}
        # dependency -> fingerprint, filled on its first cell
        self._keys: Dict[object, str] = {}
        self._max_round = 0

    def cell(
        self,
        dependency,
        round_number: int,
        seconds: float,
        considered: int,
        fired: int,
        facts: int,
        nulls: int,
        branch: Optional[str] = None,
    ) -> None:
        """Accumulate one (dependency, round) cell."""
        fingerprint = self._keys.get(dependency)
        if fingerprint is None:
            fingerprint = self._keys[dependency] = fingerprint_dependency(dependency)
            self._texts.setdefault(fingerprint, str(dependency))
        if round_number > self._max_round:
            self._max_round = round_number
        rounds = self._cells.setdefault((fingerprint, branch), {})
        cell = rounds.get(round_number)
        if cell is None:
            rounds[round_number] = [seconds, considered, fired, facts, nulls]
        else:
            cell[0] += seconds
            cell[1] += considered
            cell[2] += fired
            cell[3] += facts
            cell[4] += nulls

    def __bool__(self) -> bool:
        """True once any cell has been recorded."""
        return bool(self._cells)

    def profile(self, total_time: Optional[float] = None) -> ChaseProfile:
        """Freeze the collected cells into a :class:`ChaseProfile`."""
        deps: List[DependencyProfile] = []
        for (fingerprint, branch), rounds in self._cells.items():
            cells = tuple(
                RoundCell(
                    round=r,
                    seconds=vals[0],
                    considered=vals[1],
                    fired=vals[2],
                    facts=vals[3],
                    nulls=vals[4],
                )
                for r, vals in sorted(rounds.items())
            )
            deps.append(
                DependencyProfile(
                    fingerprint=fingerprint,
                    text=self._texts.get(fingerprint, ""),
                    branch=branch,
                    self_time=sum(c.seconds for c in cells),
                    considered=sum(c.considered for c in cells),
                    fired=sum(c.fired for c in cells),
                    facts=sum(c.facts for c in cells),
                    nulls=sum(c.nulls for c in cells),
                    rounds=cells,
                )
            )
        deps.sort(key=lambda d: (-d.self_time, d.fingerprint, d.branch or ""))
        attributed = sum(d.self_time for d in deps)
        return ChaseProfile(
            total_time=attributed if total_time is None else total_time,
            rounds=self._max_round,
            dependencies=tuple(deps),
        )


def _sparkline(dep: DependencyProfile, rounds: int) -> str:
    """Per-round activity (triggers considered) as a block sparkline."""
    if rounds <= 0:
        return ""
    by_round = {cell.round: cell.considered for cell in dep.rounds}
    peak = max(by_round.values(), default=0)
    out = []
    for r in range(1, rounds + 1):
        value = by_round.get(r, 0)
        if value <= 0 or peak <= 0:
            out.append("·")
        else:
            out.append(_SPARK[min(len(_SPARK) - 1, (value * len(_SPARK)) // (peak + 1))])
    return "".join(out)


#: Dependency text wider than this is clipped in rendered profiles.
_TEXT_WIDTH = 44


def _clip(text: str) -> str:
    return text if len(text) <= _TEXT_WIDTH else text[: _TEXT_WIDTH - 1] + "…"


def render_profile(profile: ChaseProfile) -> str:
    """The ``EXPLAIN ANALYZE``-style table, hottest dependency first.

    One row per dependency (× branch for disjunctive profiles): self
    time, share of total, rounds active, triggers considered/fired,
    facts and nulls produced, and a per-round activity sparkline.
    """
    total = profile.total_time or profile.self_time
    branchy = any(dep.branch is not None for dep in profile.dependencies)
    header = (
        f"chase profile: {total * 1000:.3f} ms total, "
        f"{profile.rounds} round{'s' if profile.rounds != 1 else ''}, "
        f"{profile.triggers_considered} triggers considered"
    )
    if not profile.dependencies:
        return header + "\n  (no dependencies profiled)"
    width = max(
        [len("dependency")]
        + [len(_clip(d.text)) for d in profile.dependencies]
    )
    lines = [header]
    branch_col = "  branch" if branchy else ""
    lines.append(
        f"  {'dependency':<{width}}  {'fingerprint':<12}  {'self':>10}  "
        f"{'%':>5}  {'rounds':>6}  {'considered':>10}  {'fired':>7}  "
        f"{'facts':>7}  {'nulls':>7}{branch_col}  activity"
    )
    for dep in profile.dependencies:
        share = (dep.self_time / total * 100.0) if total > 0 else 0.0
        branch_cell = f"  {dep.branch or '':>6}" if branchy else ""
        lines.append(
            f"  {_clip(dep.text):<{width}}  {dep.fingerprint:<12}  "
            f"{dep.self_time * 1000:>8.3f}ms  {share:>4.1f}%  "
            f"{dep.active_rounds:>3}/{profile.rounds:<2}  {dep.considered:>10}  "
            f"{dep.fired:>7}  {dep.facts:>7}  {dep.nulls:>7}{branch_cell}  "
            f"{_sparkline(dep, profile.rounds)}"
        )
    return "\n".join(lines)


def diff_profiles(before: ChaseProfile, after: ChaseProfile) -> str:
    """Attribute a wall-time move to the dependencies that moved.

    Matches rows across the two profiles by (fingerprint, branch) and
    renders self-time deltas sorted by absolute movement — the
    ``repro runs diff --profile`` body.
    """
    keyed_before = {(d.fingerprint, d.branch): d for d in before.dependencies}
    keyed_after = {(d.fingerprint, d.branch): d for d in after.dependencies}
    rows = []
    for key in sorted(set(keyed_before) | set(keyed_after)):
        b, a = keyed_before.get(key), keyed_after.get(key)
        b_time = b.self_time if b is not None else 0.0
        a_time = a.self_time if a is not None else 0.0
        delta = a_time - b_time
        text = (a or b).text
        rows.append((abs(delta), delta, b_time, a_time, key, text, b, a))
    rows.sort(key=lambda r: (-r[0], r[4]))
    total_delta = after.total_time - before.total_time
    pct = (
        f" ({total_delta / before.total_time * 100.0:+.1f}%)"
        if before.total_time > 0
        else ""
    )
    lines = [
        "profile diff: total "
        f"{before.total_time * 1000:.3f} ms -> {after.total_time * 1000:.3f} ms "
        f"[{total_delta * 1000:+.3f} ms{pct}]"
    ]
    for _, delta, b_time, a_time, key, text, b, a in rows:
        fingerprint, branch = key
        if b is None:
            note = "appeared"
        elif a is None:
            note = "removed"
        elif b_time > 0:
            note = f"{delta / b_time * 100.0:+.1f}%"
        else:
            note = "+inf%"
        branch_note = f" branch={branch}" if branch is not None else ""
        lines.append(
            f"  {delta * 1000:+9.3f} ms  {note:>9}  "
            f"{_clip(text)} [{fingerprint}]{branch_note}  "
            f"({b_time * 1000:.3f} -> {a_time * 1000:.3f} ms)"
        )
    return "\n".join(lines)
