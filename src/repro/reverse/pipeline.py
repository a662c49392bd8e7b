"""Multi-hop schema-evolution pipelines.

The paper's long-run motivation (Section 1): schema evolution is
analyzed by *composing* forward mappings and *inverting* back through
them.  An :class:`EvolutionPipeline` holds an ordered chain of hops,
materializes each generation by chasing (nulls flowing freely between
hops — the capability this paper adds), reverses back through any
suffix of the chain, and, for full-tgd chains, collapses the whole
chain into one composed mapping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..homs.search import is_homomorphic
from ..instance import Instance
from ..mappings.schema_mapping import SchemaMapping
from ..mappings.syntactic_composition import compose


@dataclass(frozen=True)
class Hop:
    """One evolution step: a forward mapping and (optionally) a reverse."""

    forward: SchemaMapping
    reverse: Optional[SchemaMapping] = None
    label: str = ""


class EvolutionPipeline:
    """An ordered chain of schema-evolution hops.

    Adjacent hops must agree on the middle schema (every source relation
    of hop *i+1* must exist in hop *i*'s target).

    An optional :class:`~repro.engine.ExchangeEngine` backs every chase
    and core fold; when omitted the module-level default engine is used,
    so repeated runs (and the forward legs shared by ``run_forward``,
    ``round_trip``, and the recovery checks) reuse intermediate results
    instead of re-chasing each generation.
    """

    def __init__(self, hops: Sequence[Hop], engine=None) -> None:
        if not hops:
            raise ValueError("a pipeline needs at least one hop")
        self._engine = engine
        self._hops: Tuple[Hop, ...] = tuple(hops)
        for left, right in zip(self._hops, self._hops[1:]):
            missing = set(right.forward.source.names) - set(
                left.forward.target.names
            )
            if missing:
                raise ValueError(
                    f"hop {right.label or '?'} reads relations {sorted(missing)} "
                    "that the previous hop does not produce"
                )

    @property
    def hops(self) -> Tuple[Hop, ...]:
        return self._hops

    @property
    def engine(self):
        """The engine backing this pipeline's chases and core folds."""
        if self._engine is not None:
            return self._engine
        from ..engine import get_default_engine

        return get_default_engine()

    def __len__(self) -> int:
        return len(self._hops)

    # ------------------------------------------------------------------
    # Forward
    # ------------------------------------------------------------------

    def run_forward(self, source: Instance) -> List[Instance]:
        """Materialize every generation; index 0 is the input.

        Returns ``[I, chase_1(I), chase_2(chase_1(I)), ...]``.
        """
        engine = self.engine
        generations = [source]
        current = source
        for hop in self._hops:
            current = engine.chase(hop.forward, current)
            generations.append(current)
        return generations

    def final(self, source: Instance) -> Instance:
        """The last generation only."""
        return self.run_forward(source)[-1]

    # ------------------------------------------------------------------
    # Reverse
    # ------------------------------------------------------------------

    def run_reverse(
        self, target: Instance, from_hop: Optional[int] = None, take_core: bool = True
    ) -> List[Instance]:
        """Reverse from generation *from_hop* (default: the last) back to 0.

        Every hop on the path needs a catalogued tgd reverse mapping.
        Returns the recovered generations, newest first; entry *k* is the
        recovered generation ``from_hop - k``.
        """
        engine = self.engine
        end = len(self._hops) if from_hop is None else from_hop
        recovered = [target]
        current = target
        for hop in reversed(self._hops[:end]):
            if hop.reverse is None:
                raise ValueError(
                    f"hop {hop.label or '?'} has no reverse mapping catalogued"
                )
            if hop.reverse.is_disjunctive() or hop.reverse.uses_inequality():
                raise ValueError(
                    "run_reverse supports tgd reverses; use the hop's "
                    "reverse_chase directly for disjunctive recoveries"
                )
            current = engine.chase(hop.reverse, current)
            if take_core:
                current = engine.core(current)
            recovered.append(current)
        return recovered

    def run_reverse_branching(
        self,
        target: Instance,
        from_hop: Optional[int] = None,
        max_nulls: int = 8,
        max_candidates: int = 64,
    ) -> List[Instance]:
        """Reverse through hops whose reverses may be disjunctive.

        Each hop maps every current candidate to its reverse-exchange
        branch set.  Candidates are deduplicated up to *hom-equivalence*
        only — NOT minimized to a hom-minimal antichain: across hops the
        branches represent alternative worlds, and antichain minimization
        would let an uninformative world (ultimately the empty instance)
        absorb informative ones.  The set is capped at *max_candidates*
        (loudly).  Returns the candidate generation-0 instances.
        """
        from ..chase.disjunctive import _deduplicated
        from ..homs.search import is_hom_equivalent

        engine = self.engine

        def dedup(pool: List[Instance]) -> List[Instance]:
            kept: List[Instance] = []
            for candidate in _deduplicated(pool):
                if not any(is_hom_equivalent(candidate, k) for k in kept):
                    kept.append(candidate)
            return kept

        end = len(self._hops) if from_hop is None else from_hop
        candidates = [target]
        for hop in reversed(self._hops[:end]):
            if hop.reverse is None:
                raise ValueError(
                    f"hop {hop.label or '?'} has no reverse mapping catalogued"
                )
            next_candidates: List[Instance] = []
            for result in engine.reverse_many(
                hop.reverse, candidates, max_nulls=max_nulls, take_core=False
            ):
                next_candidates.extend(result.candidates)
            candidates = dedup(next_candidates)
            if len(candidates) > max_candidates:
                raise RuntimeError(
                    f"branching reverse exceeded max_candidates="
                    f"{max_candidates} at hop {hop.label or '?'}"
                )
        return candidates

    def round_trip(self, source: Instance) -> Instance:
        """Forward through every hop, then reverse back to generation 0."""
        return self.run_reverse(self.final(source))[-1]

    def recovery_is_sound(self, source: Instance) -> bool:
        """True when the recovered source never claims more than the original.

        ``recovered → source`` must hold (soundness of reverse
        exchange)."""
        return is_homomorphic(self.round_trip(source), source)

    def recovery_is_complete(self, source: Instance) -> bool:
        """The recovered source is hom-equivalent to the original."""
        recovered = self.round_trip(source)
        return is_homomorphic(recovered, source) and is_homomorphic(
            source, recovered
        )

    # ------------------------------------------------------------------
    # Composition
    # ------------------------------------------------------------------

    def collapse(self) -> SchemaMapping:
        """Compose the whole chain into one mapping (full-tgd hops only).

        Raises ``NotComposable`` when a hop leaves the composable
        fragment (the last hop alone may have existentials).
        """
        composed = self._hops[0].forward
        for hop in self._hops[1:]:
            composed = compose(composed, hop.forward)
        return composed
