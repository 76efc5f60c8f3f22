"""Trajectory similarity join extension: two-phase join + temporal-first baseline."""

from repro.join.pairs import PairwiseScorer
from repro.join.tfmatch import TemporalFirstJoin
from repro.join.tsjoin import BruteForceJoin, JoinResult, TopKJoin, TwoPhaseJoin

__all__ = [
    "BruteForceJoin",
    "JoinResult",
    "PairwiseScorer",
    "TemporalFirstJoin",
    "TopKJoin",
    "TwoPhaseJoin",
]
