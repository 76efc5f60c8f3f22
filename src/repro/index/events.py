"""Typed mutation events for live-ingestion invalidation.

Every ``TrajectoryDatabase.add``/``remove`` dispatches one
:class:`MutationEvent` to the database's registered listeners.  The event
carries the *scope* of the change — the mutated trajectory's keyword set
and covered vertices — which is exactly what per-layer caches need to
invalidate only the entries a mutation can actually affect:

- the cross-query **distance cache** drops the mutated trajectory's own
  ``(trajectory_id, location)`` rows and nothing else;
- the cross-query **text-score cache** drops only tables whose query
  keyword set intersects ``event.keywords`` (a disjoint table can neither
  contain nor need the mutated trajectory — scores of zero are never
  stored);
- the service-level **result cache** invalidates removals through a
  reverse index (``trajectory_id -> fingerprints that ranked it``) and
  bounds additions with one Dijkstra from the new trajectory's vertices,
  bounded at the scan's phase-1 radius, plus its exact text similarity;
- the **shard mirror** routes the event to the owning shard without
  re-deriving the mutation kind from database membership.

The event is immutable and self-contained (ids, keywords, vertex array):
listeners never need to re-query the database — essential for ``remove``,
where the trajectory is already gone by dispatch time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

import numpy as np

__all__ = ["MutationEvent"]


@dataclass(frozen=True)
class MutationEvent:
    """One database mutation, scoped for fine-grained invalidation.

    Parameters
    ----------
    kind:
        ``"add"`` or ``"remove"``.
    trajectory_id:
        The mutated trajectory's id.
    keywords:
        The trajectory's (lower-cased) keyword set — the textual reach of
        the mutation.
    vertices:
        The trajectory's distinct covered vertices as an ``intp`` array —
        the spatial reach of the mutation (the sources of the bounded
        Dijkstra that proves cached top-k entries unaffected by an
        ``add``).
    """

    kind: Literal["add", "remove"]
    trajectory_id: int
    keywords: frozenset[str]
    vertices: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.kind not in ("add", "remove"):
            raise ValueError(f"kind must be 'add' or 'remove', got {self.kind!r}")

    def __repr__(self) -> str:  # vertices elided: they can be thousands wide
        return (
            f"MutationEvent(kind={self.kind!r}, trajectory_id={self.trajectory_id}, "
            f"|keywords|={len(self.keywords)}, |vertices|={self.vertices.size})"
        )
