"""The flat exact scan: score every trajectory in one vectorised pass.

A full SciPy SSSP over the network costs a few milliseconds, so a query
can own a *complete* distance map per intended place; ``d(o, tau)`` for
every trajectory is then one ``minimum.reduceat`` over the concatenated
trajectory-vertex array, the textual term is scattered in from the
inverted index, and the top-k is a partition plus a lexsort under the
library-wide total order (score desc, id asc).  The cost is flat in the
query — no scheduler, no bounds, no tail — which is why ``scan`` is
:data:`~repro.core.registry.SERVING_ALGORITHM` while the collaborative
expansion stays the paper's algorithm and the reference implementation.
:func:`scan_topk` is the one implementation of the scan: the sharded
searcher runs it per shard over distance maps its parent computed once.
"""

from __future__ import annotations

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
from repro.network.csr import sssp_arrays_batch
from repro.resilience.budget import SearchBudget

__all__ = ["ScanArrays", "ScanSearcher", "scan_topk"]


class ScanArrays:
    """One database's trajectories as flat arrays: built on first use,
    dropped by a mutation listener.  Lock-free: a snapshot is stored with
    the mutation count it was built at and served only while that count is
    current, so a build that raced a mutation is never served; a query
    keeps working on the tuple it captured.
    """

    def __init__(self, database: TrajectoryDatabase):
        self._database = database
        self._mutations = 0
        self._built: tuple[int, tuple] | None = None
        database.add_mutation_listener(self._drop)

    def _drop(self, _event) -> None:
        self._mutations += 1
        self._built = None

    def snapshot(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        """``(ids, starts, vertices, sigma)``: ids ascending, and
        ``vertices[starts[i]:starts[i + 1]]`` the vertex set of ``ids[i]``."""
        built, mutations = self._built, self._mutations
        if built is None or built[0] != mutations:
            database = self._database
            ids = sorted(database.trajectories.ids())
            rows = [database.vertex_array(tid) for tid in ids]
            starts = np.zeros(len(rows), dtype=np.intp)
            np.cumsum([row.size for row in rows[:-1]], out=starts[1:])
            vertices = np.concatenate(rows) if rows else np.empty(0, dtype=np.intp)
            arrays = (np.array(ids, dtype=np.int64), starts, vertices, database.sigma)
            self._built = built = (mutations, arrays)
        return built[1]

    def topk(
        self, distance_maps: Sequence[np.ndarray], query: UOTSQuery, score_floor=None
    ) -> SearchResult:
        """:func:`scan_topk` of the current snapshot, with the textual term
        resolved from the database's inverted index when it can matter."""
        arrays = self.snapshot()
        text_scores = {}
        if query.keywords and query.lam != 1.0:
            text_scores = exact_text_scores(self._database, query)
        return scan_topk(arrays, distance_maps, text_scores, query, score_floor)


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
    spatial = np.zeros(n)
    for row in distance_maps:
        spatial += np.exp(-np.minimum.reduceat(row[vertices], starts) / sigma)
    spatial /= query.num_locations
    textual = np.zeros(n)
    if text_scores:
        count = len(text_scores)
        text_ids = np.fromiter(text_scores, dtype=np.int64, count=count)
        values = np.fromiter(text_scores.values(), dtype=np.float64, count=count)
        at = np.minimum(np.searchsorted(ids, text_ids), n - 1)
        held = ids[at] == text_ids
        textual[at[held]] = values[held]
    scores = query.lam * spatial + (1.0 - query.lam) * textual
    keep = np.arange(n) if score_floor is None else np.flatnonzero(scores >= score_floor)
    if keep.size > query.k:
        # Cut at the kth score keeping every tie with it: the lexsort
        # below must see all of them to break the tie toward lower ids.
        cut = keep.size - query.k
        keep = keep[scores[keep] >= np.partition(scores[keep], cut)[cut]]
    order = keep[np.lexsort((ids[keep], -scores[keep]))][: query.k]
    items = [
        ScoredTrajectory(
            int(ids[i]), float(scores[i]), float(spatial[i]), float(textual[i])
        )
        for i in order
    ]
    return SearchResult(items=items, stats=stats)


class ScanSearcher:
    """Exact top-k by scanning the whole database (see the module docs).
    Budgeted (anytime) queries go unchanged to a held
    :class:`CollaborativeSearcher`: ``exact=False`` / ``residual_bound`` /
    ``confirmed_prefix()`` are the bound tracker's semantics, and a scan
    has no useful partial answer.
    """

    plan_name = "scan"

    def __init__(self, database: TrajectoryDatabase):
        self._database = database
        self._arrays = ScanArrays(database)
        self._anytime = CollaborativeSearcher(database)

    def warm(self) -> None:
        """Build the SciPy matrix and the snapshot ahead of a fork."""
        self._database.graph.csr.matrix()
        self._arrays.snapshot()

    def plan(self, query: UOTSQuery) -> QueryPlan:
        """The (trivial) plan; ``estimated_cost`` counts what the executed
        stats will report — vertex settles plus evaluations."""
        database = self._database
        sources = 0 if query.lam == 0.0 else query.num_locations
        return _baseline_plan(
            self,
            query,
            use_text_in_bounds=False,
            use_refinement=False,
            estimated_cost=float(sources * database.graph.num_vertices + len(database)),
            notes=("flat scan: one full SSSP per location, every trajectory scored",),
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
            distance_maps = ()  # lam == 0: the ranking is the text ranking
            if query.lam != 0.0:
                distance_maps = sssp_arrays_batch(database.graph.csr, query.locations)
            result = self._arrays.topk(distance_maps, query)
            stats = result.stats
            stats.expanded_vertices = len(distance_maps) * database.graph.num_vertices
            stats.estimated_cost = plan.estimated_cost
            stats.elapsed_seconds = time.perf_counter() - started
            annotate_search_span(span, result)
        return result

    def search(
        self, query: UOTSQuery, budget: SearchBudget | None = None
    ) -> SearchResult:
        """``execute(plan(query), budget)`` — the one-call convenience."""
        return self.execute(self.plan(query), budget)
