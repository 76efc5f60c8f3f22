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
  vector.  SimT is exact from the snapshot's keyword postings: one
  ``bincount`` over the query keywords' postings gives ``|q.T & tau.T|``
  for every trajectory, and the measure's closed form
  (:func:`repro.text.similarity.get_count_form`) does the rest.  The
  *candidates* are the trajectories whose upper bound reaches the k-th
  lower bound; everything else is strictly below the k-th score.  The scan
  stops when the *blocking set* — the candidates without an exact score —
  is empty: the top-k of the candidates is then the answer;
- **phase 2** — otherwise, full SSSP rows for the locations that left a
  gap, and exact scores for the blocking set only, after which every
  candidate is exact and their top-k is the answer.

A budget is checked once, at the boundary between the two: when phase 2
would run past the deadline or a work cap, the scan stops there and
answers from phase 1's bounds, labelled ``exact=False`` with the largest
upper bound it did not resolve as ``residual_bound`` (the paper's
bound-and-stop, :func:`bounded_topk`).

The top-k is ranked under the library-wide total order (score desc, id
asc).  :func:`scan_topk` is the unbounded kernel — every trajectory scored
from full distance rows and a dict of text scores — which the sharded
searcher runs per shard over distance maps its parent computed once.
"""

from __future__ import annotations

import math
import threading
import time
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from repro.core.instrument import annotate_search_span, execute_span
from repro.core.plan import QueryPlan, _baseline_plan
from repro.core.query import UOTSQuery
from repro.core.results import ScoredTrajectory, SearchResult, SearchStats
from repro.errors import BudgetExceededError
from repro.index.database import TrajectoryDatabase
from repro.index.events import MutationEvent
from repro.network.csr import CSRAdjacency, _scipy_kernels, sssp_arrays_batch
from repro.network.stats import PHASE1_RADIUS_SIGMAS
from repro.resilience.budget import BudgetMeter, SearchBudget
from repro.text.similarity import get_count_form

__all__ = [
    "PHASE1_RADIUS_SIGMAS",
    "ScanArrays",
    "ScanSearcher",
    "Snapshot",
    "bounded_topk",
    "scan_topk",
]

#: The plan's expected work per spatial query, in the units the stats
#: report (DESIGN §7): vertex settles per query location as a share of
#: |V| — the bounded round's ~6 % plus phase 2's full rows, weighted by how
#: often a location needs one — and exactly scored trajectories as a share
#: of |P|.  Measured over the paper-scale ``cold_c1`` population.
_SETTLED_SHARE = 0.34
_EVALUATED_SHARE = 0.11

#: Queued mutation events past which the writer folds them itself.
_MAX_PENDING = 64


class Snapshot(NamedTuple):
    """One database state as flat arrays.  ``ids`` ascend;
    ``vertices[starts[i]:starts[i + 1]]`` are the distinct vertices of
    ``ids[i]``, ascending, and ``keywords[keyword_starts[i]:keyword_starts[i
    + 1]]`` its keywords as ids into the owning :class:`ScanArrays`'
    vocabulary (both ``int32``)."""

    ids: np.ndarray
    starts: np.ndarray
    vertices: np.ndarray
    sigma: float
    keyword_starts: np.ndarray
    keywords: np.ndarray


class ScanArrays:
    """One database's trajectories as flat arrays, kept current under
    mutation.

    Built from the trajectories on first use.  After that a listener queues
    every :class:`~repro.index.events.MutationEvent` and the next
    :meth:`snapshot` folds the queue into the previous arrays (upsert or
    delete by id, so replaying an event that a racing build already saw is
    harmless).  A query keeps working on the :class:`Snapshot` it captured.
    Keyword ids come from a vocabulary that only grows, so an id never
    changes meaning under a captured snapshot.  :meth:`transposed` adds the
    vertex -> trajectory and keyword -> trajectory postings the two-phase
    scan reads; only a caller that asks for them holds them.
    """

    def __init__(self, database: TrajectoryDatabase):
        self._database = database
        self._lock = threading.Lock()
        self._pending: list[MutationEvent] = []
        self._arrays: Snapshot | None = None
        self._vocabulary: dict[str, int] = {}  # written under the lock only
        self._transposed: tuple | None = None  # (the snapshot they belong to, postings)
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

    def snapshot(self) -> Snapshot:
        """The current :class:`Snapshot`."""
        if self._pending or self._arrays is None:
            with self._lock:
                count = len(self._pending)
                if self._arrays is None:
                    self._arrays = _build(self._database, self._vocabulary)
                elif count:
                    self._arrays = _fold(self._arrays, self._pending[:count], self._vocabulary)
                del self._pending[:count]
        return self._arrays

    def transposed(
        self,
    ) -> tuple[Snapshot, tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
        """The current snapshot and its two transposes, each ``(indptr,
        rows)``: ``rows[indptr[v]:indptr[v + 1]]`` are the snapshot
        positions of the trajectories covering vertex ``v`` in the first
        and of those holding keyword id ``v`` in the second."""
        arrays = self.snapshot()
        held = self._transposed
        if held is None or held[0] is not arrays:
            with self._lock:
                held = self._transposed
                if held is None or held[0] is not arrays:
                    num_vertices = self._database.graph.num_vertices
                    held = (
                        arrays,
                        _transpose(arrays.starts, arrays.vertices, num_vertices),
                        # Every id in ``arrays`` is below the vocabulary's
                        # size: folds that grow it also hold the lock.
                        _transpose(arrays.keyword_starts, arrays.keywords, len(self._vocabulary)),
                    )
                    self._transposed = held
        return held

    def keyword_ids(self, keywords: Iterable[str]) -> list[int]:
        """The vocabulary ids of ``keywords``; words no snapshot has held
        are left out (they share nothing with any trajectory)."""
        return [i for i in map(self._vocabulary.get, keywords) if i is not None]


def _starts(lengths: np.ndarray) -> np.ndarray:
    starts = np.zeros(lengths.size, dtype=np.intp)
    np.cumsum(lengths[:-1], out=starts[1:])
    return starts


def _intern(vocabulary: dict[str, int], words: Iterable[str], count: int) -> np.ndarray:
    """The ids of ``count`` words, giving an unseen word the next id."""
    return np.fromiter(
        (vocabulary.setdefault(word, len(vocabulary)) for word in words),
        dtype=np.int32,
        count=count,
    )


def _build(database: TrajectoryDatabase, vocabulary: dict[str, int]) -> Snapshot:
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
    keyword_lengths = np.fromiter(
        (len(trajectory.keywords) for _, trajectory in members), dtype=np.intp, count=ids.size
    )
    keywords = _intern(
        vocabulary,
        (word for _, trajectory in members for word in trajectory.keywords),
        int(keyword_lengths.sum()),
    )
    return Snapshot(
        ids, _starts(lengths), keys.astype(np.int32), database.sigma,
        _starts(keyword_lengths), keywords,
    )


def _fold(
    arrays: Snapshot, events: Sequence[MutationEvent], vocabulary: dict[str, int]
) -> Snapshot:
    """``arrays`` with ``events`` applied: per id the last event wins, a
    remove deletes the trajectory's segments if present, an add replaces
    or inserts them."""
    ids = arrays.ids
    latest = {event.trajectory_id: event for event in events}
    touched = np.fromiter(latest, dtype=np.int64, count=len(latest))
    at = np.searchsorted(ids, touched)
    held = at[at < ids.size]
    held = held[ids[held] == touched[at < ids.size]]
    keep = np.ones(ids.size, dtype=bool)
    keep[held] = False
    ids = ids[keep]
    added = sorted(
        (event for event in latest.values() if event.kind == "add"),
        key=lambda event: event.trajectory_id,
    )
    new_ids = np.array([event.trajectory_id for event in added], dtype=np.int64)
    where = np.searchsorted(ids, new_ids)
    starts, vertices = _splice(
        arrays.starts, arrays.vertices, keep, where,
        [event.vertices.astype(np.int32) for event in added],
    )
    keyword_starts, keywords = _splice(
        arrays.keyword_starts, arrays.keywords, keep, where,
        [_intern(vocabulary, event.keywords, len(event.keywords)) for event in added],
    )
    return Snapshot(
        np.insert(ids, where, new_ids), starts, vertices, arrays.sigma, keyword_starts, keywords
    )


def _splice(
    starts: np.ndarray,
    values: np.ndarray,
    keep: np.ndarray,
    where: np.ndarray,
    inserted: list[np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """One of a snapshot's segment arrays with the segments ``~keep``
    deleted and ``inserted[j]`` placed before kept segment ``where[j]``."""
    lengths = np.diff(starts, append=values.size)
    if not keep.all():
        values = values[np.repeat(keep, lengths)]
        lengths = lengths[keep]
    if inserted:
        cuts = np.append(_starts(lengths), values.size)[where]
        pieces, previous = [], 0
        for cut, segment in zip(cuts.tolist(), inserted):
            pieces += (values[previous:cut], segment)
            previous = cut
        pieces.append(values[previous:])
        values = np.concatenate(pieces)
        lengths = np.insert(lengths, where, [segment.size for segment in inserted])
    return _starts(lengths), values


def _transpose(
    starts: np.ndarray, values: np.ndarray, num_values: int
) -> tuple[np.ndarray, np.ndarray]:
    """The value -> trajectory-position CSR of one of a snapshot's segment
    arrays (values in ``range(num_values)``, distinct within a segment):
    SciPy's ``tocsc``, imported lazily."""
    csr_matrix = _scipy_kernels()[0]
    indptr = np.append(starts, values.size).astype(np.int32)
    flat = np.ones(values.size, dtype=bool)
    csc = csr_matrix((flat, values, indptr), shape=(starts.size, num_values)).tocsc()
    return csc.indptr, csc.indices


# ------------------------------------------------------------------ kernels
def _shared_keywords(
    arrays: Snapshot, postings: tuple[np.ndarray, np.ndarray], words: list[int]
) -> np.ndarray:
    """``|q.T & tau.T|`` for every trajectory of ``arrays``: one
    ``bincount`` over the concatenated postings of the query's keyword ids
    ``words``.  An id the vocabulary gained after ``arrays`` was captured
    has no postings here."""
    indptr, rows = postings
    held = indptr.size - 1
    # ``rows[:0]`` keeps the concatenation well defined for no words.
    hits = np.concatenate([rows[:0]] + [rows[indptr[w]:indptr[w + 1]] for w in words if w < held])
    return np.bincount(hits, minlength=arrays.ids.size)


def _simt(
    arrays: Snapshot,
    postings: tuple[np.ndarray, np.ndarray],
    words: list[int],
    query: UOTSQuery,
) -> np.ndarray:
    """Exact SimT of every trajectory of ``arrays``, the query measure's
    closed form over ``(|q.T & tau.T|, |q.T|, |tau.T|)``."""
    shared = _shared_keywords(arrays, postings, words)
    sizes = np.diff(arrays.keyword_starts, append=arrays.keywords.size)
    return get_count_form(query.text_measure)(shared, len(query.keywords), sizes)


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


def _items(order, ids, scores, spatial, textual, exact=None) -> list[ScoredTrajectory]:
    return [
        ScoredTrajectory(
            int(ids[i]), float(scores[i]), float(spatial[i]), float(textual[i]),
            exact is None or bool(exact[i]),
        )
        for i in order
    ]


def scan_topk(
    arrays: Snapshot,
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
    ids, starts, vertices, sigma, *_ = arrays
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
    arrays: Snapshot,
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
    ids, sigma = arrays.ids, arrays.sigma
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
    arrays: Snapshot,
    transpose: tuple[np.ndarray, np.ndarray],
    csr: CSRAdjacency,
    textual: np.ndarray,
    query: UOTSQuery,
    radius: float,
    meter: BudgetMeter | None = None,
) -> tuple[SearchResult, dict]:
    """The top-k of a snapshot by the two-phase scan (module docs), given
    its vertex transpose and the exact SimT of each trajectory: exact
    unless ``meter`` stops the scan.

    ``meter`` is the query's running budget (``None`` when unbudgeted).
    It is read once, after phase 1 and only when a blocking set exists:
    phase 2 runs only if the deadline has not passed and its worst case —
    one full row of ``|V|`` settles and one refinement per gap location —
    keeps every work counter within its cap.  Otherwise the scan stops at
    the phase boundary with phase 1's bounds: the top-k by lower bound,
    each item flagged by whether its score is exact, and as
    ``residual_bound`` the largest upper bound outside the exactly scored
    items.  A strict budget raises instead.

    Returns the result and what the execute span reports: the radius, the
    (vertex, trajectory) pairs phase 1 reached, the blocking-set size, the
    phase that answered and, on a stop, the reason.
    """
    ids, starts, vertices, sigma, *_ = arrays
    n, k = ids.size, query.k
    distances, spatial, scores, upper, exact, settled, pairs = _phase1(
        arrays, transpose, csr, textual, query, radius
    )
    # Only trajectories whose upper bound reaches the k-th lower bound can
    # be in the top-k; the inexact ones among them are the blocking set.
    floor = np.partition(scores, n - k)[n - k] if n > k else -np.inf
    candidates = np.flatnonzero(upper >= floor)
    blocking = candidates[~exact[candidates]]
    stopped = None
    if blocking.size:
        gaps = np.flatnonzero(np.isinf(distances[:, blocking]).any(axis=1))
        if meter is not None:
            stopped = meter.forbids(settled + gaps.size * csr.num_vertices, gaps.size)
        if stopped is None:
            # Phase 2: score the blocking set exactly from full SSSP rows.
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
            exact[blocking] = True
        elif meter.budget.strict:
            raise BudgetExceededError(stopped)
    phase2 = blocking.size > 0 and stopped is None
    order = _ranked(candidates, scores, ids, k)
    evaluated = int(np.count_nonzero(exact))
    touched = np.isfinite(distances).any(axis=0) | (textual > 0.0)
    touched[blocking] = True
    stats = SearchStats(
        visited_trajectories=int(np.count_nonzero(touched)),
        expanded_vertices=settled,
        similarity_evaluations=evaluated,
        pruned_trajectories=n - evaluated,
        text_candidates=int(np.count_nonzero(textual)),
        refinements=int(gaps.size) if phase2 else 0,
    )
    trace = {
        "radius": radius,
        "reached_pairs": pairs,
        "blocking": int(blocking.size),
        "phase": 2 if phase2 else 1,
    }
    items = _items(order, ids, scores, spatial, textual, exact)
    if stopped is None:
        return SearchResult(items=items, stats=stats), trace
    trace["stopped"] = stopped
    stats.degraded_queries = 1
    # Nothing outside the exactly scored items can beat its upper bound.
    open_ = np.ones(n, dtype=bool)
    open_[order[exact[order]]] = False
    result = SearchResult(
        items, stats, exact=False, degradation_reason=stopped,
        residual_bound=float(upper[open_].max()),
    )
    return result, trace


class ScanSearcher:
    """Top-k by the two-phase scan (see the module docs): exact, unless a
    budget stops it at the phase boundary (:func:`bounded_topk`).  Its
    budget meter starts when :meth:`execute` does, so the snapshot and the
    text scores count against the deadline too.  Phase 1 is never cut, so
    a deadline is overrun by at most one phase 2.
    """

    plan_name = "scan"

    def __init__(self, database: TrajectoryDatabase):
        self._database = database
        self._arrays = ScanArrays(database)

    def warm(self) -> None:
        """Build the SciPy matrix, the snapshot and its vertex and keyword
        postings ahead of a fork."""
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
        candidate_count = 0
        if query.keywords:
            arrays, _, postings = self._arrays.transposed()
            words = self._arrays.keyword_ids(query.keywords)
            candidate_count = int(np.count_nonzero(_shared_keywords(arrays, postings, words)))
        return _baseline_plan(
            self,
            query,
            use_text_in_bounds=True,
            use_refinement=False,
            estimated_cost=estimated_cost,
            notes=notes,
            candidate_count=candidate_count,
        )

    def execute(
        self, plan: QueryPlan, budget: SearchBudget | None = None
    ) -> SearchResult:
        """Run a previously built plan."""
        query: UOTSQuery = plan.query
        if budget is None:
            budget = query.budget
        meter = None if budget is None or budget.unlimited else budget.start()
        database = self._database
        query.validate_against(database.graph)
        with execute_span(self.plan_name) as span:
            started = time.perf_counter()
            # Vertices and keywords come from one captured snapshot, so a
            # write landing meanwhile is wholly in the answer or wholly not.
            arrays, transpose, postings = self._arrays.transposed()
            textual = np.zeros(arrays.ids.size)
            if query.keywords and query.lam != 1.0:
                words = self._arrays.keyword_ids(query.keywords)
                textual = _simt(arrays, postings, words, query)
            result, trace = bounded_topk(
                arrays, transpose, database.graph.csr, textual, query,
                PHASE1_RADIUS_SIGMAS * database.sigma, meter,
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
