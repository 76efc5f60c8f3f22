"""The serving engine: an exact two-phase scan over flat trajectory arrays.

The paper's bound-and-stop (expand from every query location, bound what
has not been reached, stop once the k-th result beats the bound) run at
array grain instead of per settled vertex:

- **phase 1** — one SciPy Dijkstra per query location bounded at
  ``r = PHASE1_RADIUS_SIGMAS * sigma``.  Every vertex it settles is exact,
  and every unsettled one is farther than ``r``, so a trajectory with *any*
  settled vertex has its exact distance to that location: the minimum over
  the settled vertices' postings, read through the vertex -> trajectory
  CSR (the transpose of :class:`ScanArrays`).  A location that reached no
  vertex of a trajectory contributes at most ``exp(-r / sigma)``, which
  gives every trajectory a lower and an upper bound in one ``|P|``-length
  vector (SimT is exact from the inverted index).  The scan stops when the
  top-k all have exact scores and each strictly beats every other
  trajectory's upper bound — ties fall through;
- **phase 2** — otherwise, full SSSP rows for the locations that left a
  gap, and exact scores for the *blocking set* only: the trajectories whose
  upper bound reaches the k-th lower bound.  Everything else is provably
  below the k-th score, so the top-k of the blocking set plus the
  already-exact candidates is the answer.

The top-k is ranked under the library-wide total order (score desc, id
asc).  :func:`scan_topk` is the unbounded kernel — every trajectory scored
from full distance rows — which the sharded searcher runs per shard over
distance maps its parent computed once.
"""

from __future__ import annotations

import math
import threading
import time
from typing import Sequence

import numpy as np

from repro.core.baselines import _baseline_plan
from repro.core.instrument import annotate_search_span, execute_span
from repro.core.plan import QueryPlan
from repro.core.query import UOTSQuery
from repro.core.results import ScoredTrajectory, SearchResult, SearchStats
from repro.core.search import CollaborativeSearcher, exact_text_scores
from repro.index.database import TrajectoryDatabase
from repro.index.events import MutationEvent
from repro.network.csr import CSRAdjacency, _scipy_kernels, sssp_arrays_batch
from repro.resilience.budget import SearchBudget

__all__ = ["PHASE1_RADIUS_SIGMAS", "ScanArrays", "ScanSearcher", "bounded_topk", "scan_topk"]

#: Phase 1's Dijkstra radius in units of sigma.  At paper scale one round
#: at 2 sigma already answers 51 of 100 cold queries; 3/4/6/8/12 sigma
#: answer 53/57/62/65/74 while the bounded rows alone climb from 0.6 to
#: 10.7 ms, so a larger radius buys little (DESIGN §7).
PHASE1_RADIUS_SIGMAS = 2.0

#: The plan's expected work per spatial query, in the units the stats
#: report (DESIGN §7): vertex settles per query location as a share of
#: |V| — the bounded round's ~6 % plus phase 2's full rows, weighted by how
#: often a location needs one — and exactly scored trajectories as a share
#: of |P|.  Measured over the paper-scale ``cold_c1`` population.
_SETTLED_SHARE = 0.34
_EVALUATED_SHARE = 0.11

#: Queued mutation events past which the writer folds them itself.
_MAX_PENDING = 64


class ScanArrays:
    """One database's trajectories as flat arrays, kept current under
    mutation.

    Built from the trajectories on first use.  After that a listener queues
    every :class:`~repro.index.events.MutationEvent` and the next
    :meth:`snapshot` folds the queue into the previous arrays (upsert or
    delete by id, so replaying an event that a racing build already saw is
    harmless).  A query keeps working on the tuple it captured.
    :meth:`transposed` adds the vertex -> trajectory CSR the two-phase scan
    walks; only a caller that asks for it holds one.
    """

    def __init__(self, database: TrajectoryDatabase):
        self._database = database
        self._lock = threading.Lock()
        self._pending: list[MutationEvent] = []
        self._arrays: tuple | None = None
        self._transposed: tuple | None = None  # (the arrays it belongs to, CSR)
        database.add_mutation_listener(self._queue)

    def _queue(self, event: MutationEvent) -> None:
        """Mutation listener: queue the event for the next snapshot.  A
        long queue is folded on the writer's thread, so a process that
        writes but never searches (a pool's parent) holds a bounded one."""
        self._pending.append(event)
        if len(self._pending) >= _MAX_PENDING:
            with self._lock:
                if self._arrays is None:
                    self._pending.clear()  # the first build reads the live set
                    return
            self.snapshot()

    def snapshot(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        """``(ids, starts, vertices, sigma)``: ids ascending, and
        ``vertices[starts[i]:starts[i + 1]]`` (``int32``) the vertex set of
        ``ids[i]``."""
        if self._pending or self._arrays is None:
            with self._lock:
                count = len(self._pending)
                if self._arrays is None:
                    self._arrays = _build(self._database)
                elif count:
                    self._arrays = _fold(self._arrays, self._pending[:count])
                del self._pending[:count]
        return self._arrays

    def transposed(self) -> tuple[tuple, tuple[np.ndarray, np.ndarray]]:
        """The current snapshot and its transpose ``(indptr, rows)``:
        ``rows[indptr[v]:indptr[v + 1]]`` are the snapshot positions of the
        trajectories covering vertex ``v``."""
        arrays = self.snapshot()
        held = self._transposed
        if held is None or held[0] is not arrays:
            with self._lock:
                held = self._transposed
                if held is None or held[0] is not arrays:
                    num_vertices = self._database.graph.num_vertices
                    held = (arrays, _transpose(arrays[1], arrays[2], num_vertices))
                    self._transposed = held
        return arrays, held[1]


def _starts(lengths: np.ndarray) -> np.ndarray:
    starts = np.zeros(lengths.size, dtype=np.intp)
    np.cumsum(lengths[:-1], out=starts[1:])
    return starts


def _build(database: TrajectoryDatabase) -> tuple:
    """A snapshot read from the trajectories themselves (first use only).
    The id -> trajectory pairs are copied in one call, so a concurrent
    write is either in the copy or still queued for the next fold.  One
    sort of ``position * |V| + vertex`` keys over every sample yields each
    trajectory's distinct vertices, ascending."""
    members = sorted(database.trajectories.as_mapping().items())
    ids = np.array([tid for tid, _ in members], dtype=np.int64)
    samples = [trajectory.vertex_array for _, trajectory in members]
    lengths = np.fromiter(map(len, samples), dtype=np.intp, count=len(samples))
    num_vertices = database.graph.num_vertices
    keys = np.repeat(np.arange(ids.size, dtype=np.int64) * num_vertices, lengths)
    if samples:
        keys += np.concatenate(samples)
    # Sort and drop repeats by hand (``np.unique`` is an order of magnitude
    # slower on these keys), in place where possible: this runs at the
    # serving parent's memory peak.
    keys.sort()
    distinct = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=distinct[1:])
    keys = keys[distinct]
    lengths = np.bincount(keys // num_vertices, minlength=ids.size)
    keys %= num_vertices
    return ids, _starts(lengths), keys.astype(np.int32), database.sigma


def _fold(arrays: tuple, events: Sequence[MutationEvent]) -> tuple:
    """``arrays`` with ``events`` applied: per id the last event wins, a
    remove deletes the segment if present, an add replaces or inserts it."""
    ids, starts, vertices, sigma = arrays
    lengths = np.diff(starts, append=vertices.size)
    latest = {event.trajectory_id: event for event in events}
    touched = np.fromiter(latest, dtype=np.int64, count=len(latest))
    at = np.searchsorted(ids, touched)
    held = at[at < ids.size]
    held = held[ids[held] == touched[at < ids.size]]
    if held.size:
        keep = np.ones(ids.size, dtype=bool)
        keep[held] = False
        vertices = vertices[np.repeat(keep, lengths)]
        ids, lengths = ids[keep], lengths[keep]
    added = sorted(
        (event for event in latest.values() if event.kind == "add"),
        key=lambda event: event.trajectory_id,
    )
    if added:
        new_ids = np.array([event.trajectory_id for event in added], dtype=np.int64)
        where = np.searchsorted(ids, new_ids)
        cuts = np.append(_starts(lengths), vertices.size)[where]
        pieces, previous = [], 0
        for cut, event in zip(cuts.tolist(), added):
            pieces += (vertices[previous:cut], event.vertices.astype(np.int32))
            previous = cut
        pieces.append(vertices[previous:])
        vertices = np.concatenate(pieces)
        ids = np.insert(ids, where, new_ids)
        lengths = np.insert(lengths, where, [event.vertices.size for event in added])
    return ids, _starts(lengths), vertices, sigma


def _transpose(
    starts: np.ndarray, vertices: np.ndarray, num_vertices: int
) -> tuple[np.ndarray, np.ndarray]:
    """The vertex -> trajectory-position CSR of a snapshot: SciPy's
    ``tocsc`` (resolved lazily) when present, a stable argsort otherwise."""
    n = starts.size
    csr_matrix = _scipy_kernels()[0]
    if csr_matrix is not None:
        indptr = np.append(starts, vertices.size).astype(np.int32)
        flat = np.ones(vertices.size, dtype=bool)
        csc = csr_matrix((flat, vertices, indptr), shape=(n, num_vertices)).tocsc()
        return csc.indptr, csc.indices
    owners = np.repeat(np.arange(n, dtype=np.int32), np.diff(starts, append=vertices.size))
    indptr = np.zeros(num_vertices + 1, dtype=np.int32)
    np.cumsum(np.bincount(vertices, minlength=num_vertices), out=indptr[1:])
    return indptr, owners[np.argsort(vertices, kind="stable")]


# ------------------------------------------------------------------ kernels
def _text_vector(ids: np.ndarray, text_scores: dict[int, float]) -> np.ndarray:
    """Exact SimT aligned with ``ids``; ids the snapshot lacks are skipped."""
    n = ids.size
    textual = np.zeros(n)
    if text_scores and n:
        count = len(text_scores)
        text_ids = np.fromiter(text_scores, dtype=np.int64, count=count)
        values = np.fromiter(text_scores.values(), dtype=np.float64, count=count)
        at = np.minimum(np.searchsorted(ids, text_ids), n - 1)
        held = ids[at] == text_ids
        textual[at[held]] = values[held]
    return textual


def _combine(
    distances: np.ndarray, textual: np.ndarray, query: UOTSQuery, sigma: float
) -> tuple[np.ndarray, np.ndarray]:
    """``(spatial, score)`` from one distance row per location (the one
    formula both kernels use, so equal inputs give equal floats)."""
    spatial = np.zeros(textual.size)
    for row in distances:
        spatial += np.exp(-row / sigma)
    spatial /= query.num_locations
    return spatial, query.lam * spatial + (1.0 - query.lam) * textual


def _ranked(
    keep: np.ndarray, scores: np.ndarray, ids: np.ndarray, k: int
) -> np.ndarray:
    """The best ``k`` of the positions ``keep``, best first."""
    if keep.size > k:
        # Cut at the kth score keeping every tie with it: the lexsort
        # below must see all of them to break the tie toward lower ids.
        cut = keep.size - k
        keep = keep[scores[keep] >= np.partition(scores[keep], cut)[cut]]
    return keep[np.lexsort((ids[keep], -scores[keep]))][:k]


def _items(order, ids, scores, spatial, textual) -> list[ScoredTrajectory]:
    return [
        ScoredTrajectory(int(ids[i]), float(scores[i]), float(spatial[i]), float(textual[i]))
        for i in order
    ]


def scan_topk(
    arrays: tuple[np.ndarray, np.ndarray, np.ndarray, float],
    distance_maps: Sequence[np.ndarray],
    text_scores: dict[int, float],
    query: UOTSQuery,
    score_floor: float | None = None,
) -> SearchResult:
    """The exact top-k of a :meth:`ScanArrays.snapshot` (among scores
    ``>= score_floor``), given one dense ``|V|`` distance row per query
    location (none for a text-only query) and the exact ``SimT`` of every
    keyword-sharing trajectory; ids the snapshot lacks (added since) are
    skipped.
    """
    ids, starts, vertices, sigma = arrays
    n = ids.size
    stats = SearchStats(
        visited_trajectories=n, similarity_evaluations=n, text_candidates=len(text_scores)
    )
    if n == 0:
        return SearchResult(items=[], stats=stats)
    # NumPy gathers through an intp index about 3x faster than through the
    # snapshot's int32 one, so the index is widened once per call.
    index = vertices.astype(np.intp) if len(distance_maps) else vertices
    distances = [np.minimum.reduceat(row[index], starts) for row in distance_maps]
    textual = _text_vector(ids, text_scores)
    spatial, scores = _combine(distances, textual, query, sigma)
    keep = np.arange(n) if score_floor is None else np.flatnonzero(scores >= score_floor)
    order = _ranked(keep, scores, ids, query.k)
    return SearchResult(items=_items(order, ids, scores, spatial, textual), stats=stats)


def _phase1(
    arrays: tuple,
    transpose: tuple[np.ndarray, np.ndarray],
    csr: CSRAdjacency,
    textual: np.ndarray,
    query: UOTSQuery,
    radius: float,
) -> tuple:
    """One Dijkstra round per location bounded at ``radius``:
    ``(distances, spatial, lower, upper, exact, settled, pairs)``.
    ``distances`` holds the exact distance per (location, trajectory) where
    the round reached the trajectory and ``inf`` elsewhere; ``lower`` scores
    every unreached location at 0 and ``upper`` at ``exp(-radius / sigma)``;
    ``exact`` marks the trajectories whose bounds meet."""
    ids, _, _, sigma = arrays
    sources = query.locations if query.lam != 0.0 else ()
    distances = np.full((len(sources), ids.size), np.inf)
    settled = pairs = 0
    if sources and ids.size:
        indptr, owners = transpose
        for dmin, row in zip(distances, sssp_arrays_batch(csr, sources, radius)):
            hit = np.flatnonzero(np.isfinite(row))
            first = indptr[hit]
            counts = indptr[hit + 1] - first
            total = int(counts.sum())
            settled += hit.size
            pairs += total
            if total:
                # Every (reached vertex, covering trajectory) pair, then
                # the per-trajectory minimum over them.
                at = np.repeat(first - (np.cumsum(counts) - counts), counts)
                at += np.arange(total)
                np.minimum.at(dmin, owners[at], np.repeat(row[hit], counts))
    spatial, lower = _combine(distances, textual, query, sigma)
    unreached = np.count_nonzero(np.isinf(distances), axis=0)
    slack = unreached * (query.lam / query.num_locations * math.exp(-radius / sigma))
    return distances, spatial, lower, lower + slack, slack == 0.0, settled, pairs


def bounded_topk(
    arrays: tuple[np.ndarray, np.ndarray, np.ndarray, float],
    transpose: tuple[np.ndarray, np.ndarray],
    csr: CSRAdjacency,
    text_scores: dict[int, float],
    query: UOTSQuery,
    radius: float,
) -> tuple[SearchResult, dict]:
    """The exact top-k of a snapshot by the two-phase scan (module docs).

    Returns the result and what the execute span reports: the radius, the
    (vertex, trajectory) pairs phase 1 reached, the blocking-set size and
    the phase that answered.
    """
    ids, starts, vertices, sigma = arrays
    n, k = ids.size, query.k
    textual = _text_vector(ids, text_scores)
    distances, spatial, scores, upper, exact, settled, pairs = _phase1(
        arrays, transpose, csr, textual, query, radius
    )
    floor = -np.inf
    phase, order, blocking = 1, None, np.empty(0, dtype=np.intp)
    if n > k:
        floor = np.partition(scores, n - k)[n - k]  # the k-th lower bound
        top = np.flatnonzero(scores >= floor)
        if top.size == k and exact[top].all():
            rest = upper.copy()
            rest[top] = -np.inf
            if rest.max() < floor:
                order = _ranked(top, scores, ids, k)
    elif exact.all():
        order = _ranked(np.arange(n), scores, ids, k)
    if order is None:
        # Phase 2: only trajectories whose upper bound reaches the k-th
        # lower bound can be in the top-k; score the inexact ones exactly.
        phase = 2
        candidates = np.flatnonzero(upper >= floor)
        blocking = candidates[~exact[candidates]]
        if blocking.size:
            gaps = np.flatnonzero(np.isinf(distances[:, blocking]).any(axis=1))
            lengths = np.diff(starts, append=vertices.size)[blocking]
            offsets = np.cumsum(lengths) - lengths
            members = vertices[
                np.repeat(starts[blocking] - offsets, lengths) + np.arange(lengths.sum())
            ].astype(np.intp)  # the faster gather index (see scan_topk)
            full = sssp_arrays_batch(csr, [query.locations[i] for i in gaps])
            for i, row in zip(gaps, full):
                distances[i, blocking] = np.minimum.reduceat(row[members], offsets)
                settled += int(np.count_nonzero(np.isfinite(row)))
            spatial[blocking], scores[blocking] = _combine(
                distances[:, blocking], textual[blocking], query, sigma
            )
        order = _ranked(candidates, scores, ids, k)
    evaluated = int(np.count_nonzero(exact)) + blocking.size
    touched = np.isfinite(distances).any(axis=0) | (textual > 0.0)
    touched[blocking] = True
    stats = SearchStats(
        visited_trajectories=int(np.count_nonzero(touched)),
        expanded_vertices=settled,
        similarity_evaluations=evaluated,
        pruned_trajectories=n - evaluated,
        text_candidates=len(text_scores),
    )
    trace = {
        "radius": radius,
        "reached_pairs": pairs,
        "blocking": int(blocking.size),
        "phase": phase,
    }
    result = SearchResult(items=_items(order, ids, scores, spatial, textual), stats=stats)
    return result, trace


class ScanSearcher:
    """Exact top-k by the two-phase scan (see the module docs).
    Budgeted (anytime) queries go unchanged to a held
    :class:`CollaborativeSearcher`: ``exact=False`` / ``residual_bound`` /
    ``confirmed_prefix()`` are the bound tracker's semantics.  That
    searcher builds the database's vertex index on its first query; the
    scan itself never reads it.
    """

    plan_name = "scan"

    def __init__(self, database: TrajectoryDatabase):
        self._database = database
        self._arrays = ScanArrays(database)
        self._anytime = CollaborativeSearcher(database)

    def warm(self) -> None:
        """Build the SciPy matrix, the snapshot and its transpose ahead of
        a fork."""
        self._database.graph.csr.matrix()
        self._arrays.transposed()

    def plan(self, query: UOTSQuery) -> QueryPlan:
        """The (trivial) plan.  ``estimated_cost`` is the *expected* work in
        the units the executed stats report (vertex settles plus exact
        evaluations), so plan drift averages about 1: phase 1 is cheap and
        phase 2 dear, and no plan-time signal tells them apart."""
        database = self._database
        if query.lam == 0.0:
            estimated_cost = float(len(database))
            notes = ("text-only: every score is the exact SimT; no Dijkstra",)
        else:
            estimated_cost = (
                _SETTLED_SHARE * query.num_locations * database.graph.num_vertices
                + _EVALUATED_SHARE * len(database)
            )
            radius = PHASE1_RADIUS_SIGMAS * database.sigma
            notes = (
                f"phase 1: one Dijkstra per location bounded at "
                f"{PHASE1_RADIUS_SIGMAS:g} sigma = {radius:.0f}; an unreached "
                "location adds at most exp(-r/sigma)",
                "phase 2, only if phase 1 cannot stop: full SSSP rows, exact "
                "scores for the blocking set",
                "est. cost is the expected work of the two phases, not a ceiling",
            )
        return _baseline_plan(
            self,
            query,
            use_text_in_bounds=True,
            use_refinement=False,
            estimated_cost=estimated_cost,
            notes=notes,
        )

    def execute(
        self, plan: QueryPlan, budget: SearchBudget | None = None
    ) -> SearchResult:
        """Run a previously built plan."""
        query: UOTSQuery = plan.query
        if budget is None:
            budget = query.budget
        if budget is not None and not budget.unlimited:
            return self._anytime.search(query, budget)
        database = self._database
        query.validate_against(database.graph)
        with execute_span(self.plan_name) as span:
            started = time.perf_counter()
            text_scores = {}
            if query.keywords and query.lam != 1.0:
                text_scores = exact_text_scores(database, query)
            arrays, transpose = self._arrays.transposed()
            result, trace = bounded_topk(
                arrays, transpose, database.graph.csr, text_scores, query,
                PHASE1_RADIUS_SIGMAS * database.sigma,
            )
            result.stats.estimated_cost = plan.estimated_cost
            result.stats.elapsed_seconds = time.perf_counter() - started
            if span is not None:
                span.update(trace)
            annotate_search_span(span, result)
        return result

    def search(
        self, query: UOTSQuery, budget: SearchBudget | None = None
    ) -> SearchResult:
        """``execute(plan(query), budget)`` — the one-call convenience."""
        return self.execute(self.plan(query), budget)
