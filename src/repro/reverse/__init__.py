"""Reverse data exchange and reverse query answering (Section 6)."""

from .exchange import (
    RecoveryQuality,
    ReverseResult,
    forward_exchange,
    recovery_quality,
    reverse_exchange,
    round_trip,
)
from .pipeline import EvolutionPipeline, Hop
from .query_answering import (
    brute_force_certain_answers,
    certain_answers,
    reverse_certain_answers,
)

__all__ = [
    "EvolutionPipeline",
    "Hop",
    "RecoveryQuality",
    "ReverseResult",
    "forward_exchange",
    "recovery_quality",
    "reverse_exchange",
    "round_trip",
    "brute_force_certain_answers",
    "certain_answers",
    "reverse_certain_answers",
]
