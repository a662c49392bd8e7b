"""Typed result objects for the engine's public API.

``exchange`` and ``reverse`` return these normalized shapes:

* :class:`ExchangeResult` — forward exchange: the target restriction,
  the full chased instance, chase work counters, and cache provenance;
* :class:`ReverseResult` — reverse exchange: the candidate source
  instances (one for tgd reverses, a branch set for disjunctive ones),
  plus the same stats/provenance envelope.

``SchemaMapping.chase`` is the paper's ``chase_M(I)``, a bare
:class:`~repro.instance.Instance` (an ``ExchangeResult``'s
``instance``), and ``reverse_chase`` the set ``chase_{M'}(J)`` of
Definition 6.1, a ``List[Instance]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from ..chase.standard import ChaseResult
from ..instance import Instance
from ..inverses.verdicts import CheckVerdict
from ..limits import Exhausted


@dataclass(frozen=True)
class OperationStats:
    """Work done to produce one result.

    ``wall_time`` is the compute time in seconds (near zero on a cache
    hit); ``steps``/``rounds`` are chase trigger firings and fixpoint
    rounds (0 where not applicable); ``branches`` is the disjunctive
    branch count explored on reverse operations.

    ``triggers_considered``/``delta_sizes`` carry the semi-naive
    chase's per-round statistics through the engine (see
    :class:`~repro.chase.standard.ChaseResult`): how many premise
    bindings the loop enumerated, and how many facts were new going
    into each round.  Cache hits replay the counters recorded when the
    entry was computed (as with ``steps``/``rounds``); both are
    zero/empty for operations without a standard-chase phase.
    """

    wall_time: float = 0.0
    steps: int = 0
    rounds: int = 0
    branches: int = 0
    triggers_considered: int = 0
    delta_sizes: Tuple[int, ...] = ()


@dataclass(frozen=True)
class CacheProvenance:
    """Where a result came from, as key plus hit flag.

    ``key`` is the content-addressed cache key; ``hit`` is True when
    the engine served the result from cache rather than computing."""

    key: str = ""
    hit: bool = False


@dataclass(frozen=True)
class ExchangeResult:
    """Outcome of a forward exchange ``chase_M(I)``.

    ``instance`` is the target-schema restriction (what ``chase``
    returns); ``full`` the whole chased instance: the source facts plus
    ``generated``, the facts the chase added.

    ``exhausted`` is ``None`` for a completed chase; on a budget-limited
    run it carries the :class:`repro.limits.Exhausted` diagnosis and the
    instances are sound partial results (never served from or stored in
    the cache).
    """

    instance: Instance
    full: Instance
    generated: frozenset = frozenset()
    stats: OperationStats = field(default_factory=OperationStats)
    provenance: CacheProvenance = field(default_factory=CacheProvenance)
    exhausted: Optional[Exhausted] = None

    @property
    def cached(self) -> bool:
        """True when this result was served from the engine cache."""
        return self.provenance.hit

    @property
    def completed(self) -> bool:
        """True when the chase reached its fixpoint within budget."""
        return self.exhausted is None

    @property
    def steps(self) -> int:
        """Chase steps performed to produce the result."""
        return self.stats.steps

    @property
    def rounds(self) -> int:
        """Chase rounds performed to produce the result."""
        return self.stats.rounds

    def to_chase_result(self) -> ChaseResult:
        """This result as the chase kernels' :class:`ChaseResult` shape."""
        return ChaseResult(
            instance=self.full,
            generated=self.generated,
            steps=self.stats.steps,
            rounds=self.stats.rounds,
            exhausted=self.exhausted,
            delta_sizes=self.stats.delta_sizes,
            triggers_considered=self.stats.triggers_considered,
        )


@dataclass(frozen=True)
class ReverseResult:
    """Outcome of a reverse exchange.

    ``candidates`` holds the recovered source instances (a single
    element for tgd reverse mappings, a hom-minimal antichain for
    disjunctive maximum extended recoveries).  ``canonical`` is the
    first candidate — a compact representative for reporting.
    """

    candidates: Tuple[Instance, ...]
    canonical: Instance
    stats: OperationStats = field(default_factory=OperationStats)
    provenance: CacheProvenance = field(default_factory=CacheProvenance)
    exhausted: Optional[Exhausted] = None

    @property
    def cached(self) -> bool:
        """True when this result was served from the engine cache."""
        return self.provenance.hit

    @property
    def completed(self) -> bool:
        """True when the branch enumeration finished within budget."""
        return self.exhausted is None

    @property
    def instances(self) -> Tuple[Instance, ...]:
        """Alias of ``candidates`` (the normalized plural accessor)."""
        return self.candidates

    @property
    def unique(self) -> Instance:
        """The single candidate; raises when the result branched."""
        if len(self.candidates) != 1:
            raise ValueError(
                f"reverse exchange produced {len(self.candidates)} candidates; "
                "use .candidates for disjunctive recoveries"
            )
        return self.candidates[0]


@dataclass(frozen=True)
class AuditReport:
    """Invertibility audit of one mapping, from :meth:`ExchangeEngine.audit`.

    Optionally covers a candidate reverse mapping's chase-inverse
    check alongside the two invertibility verdicts."""

    invertible: CheckVerdict
    extended_invertible: CheckVerdict
    chase_inverse: Optional[CheckVerdict] = None
    provenance: CacheProvenance = field(default_factory=CacheProvenance)

    @property
    def cached(self) -> bool:
        """True when this result was served from the engine cache."""
        return self.provenance.hit
