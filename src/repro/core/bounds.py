"""Similarity upper bounds over partially explored trajectories.

During an expansion search each query source (an intended place in UOTS; a
sample point or timestamp in the matching/join extensions) explores its
domain incrementally.  For a trajectory ``tau`` and source ``i`` one of
three things is true at any moment:

1. the expansion from ``i`` has scanned ``tau`` at distance ``d_i`` — then
   the source's *weight contribution* ``alpha_i * exp(-d_i / sigma_i)`` is
   exact (expansions scan in non-decreasing distance order);
2. it has not — then ``d_i >= r_i``, the expansion's current radius, so the
   contribution is at most ``alpha_i * exp(-r_i / sigma_i)``;
3. the expansion is exhausted without reaching ``tau`` — the contribution
   is exactly zero.

``alpha_i`` folds the domain weighting into the source (``lam/m`` for the
``m`` spatial sources of a UOTS query; ``(1-lam)/m`` for temporal sources in
the extensions), so a trajectory's *score* is simply the sum of all source
contributions plus ``text_weight * SimT``.  Because radii only grow, every
bound computed now dominates every bound computed later — which makes a lazy
max-heap a valid way to track the loosest partly scanned trajectory, the
quantity the termination test needs.
"""

from __future__ import annotations

import heapq
from typing import Callable, Iterator, Mapping

__all__ = ["SourceRadiiWeights", "BoundTracker"]

_INF = float("inf")
_EPS = 1e-12


class SourceRadiiWeights:
    """Per-source frontier contributions ``alpha_i * exp(-r_i / sigma_i)``.

    Recomputed once per termination check instead of once per trajectory.
    An exhausted source has radius ``inf`` and weight 0.  The caller supplies
    the already-evaluated weights (it knows each source's domain scale).
    """

    __slots__ = ("weights", "total")

    def __init__(self, weights: list[float]):
        self.weights = weights
        self.total = sum(weights)


class _State:
    """Partial knowledge about one scanned, not yet finished trajectory."""

    __slots__ = ("known", "known_weight", "text", "caps")

    def __init__(self, text: float):
        self.known: set[int] = set()
        self.known_weight = 0.0
        self.text = text
        # Per-source frontier caps (ALT): source i's unknown contribution
        # can never exceed caps[i], however small the radii still are.
        # Computed lazily — only for states that reach the top of the bound
        # heap, where tightening actually decides termination.
        self.caps: list[float] | None = None


class BoundTracker:
    """Bookkeeping of partial contributions, bounds, and completion events."""

    def __init__(
        self,
        num_sources: int,
        text_weight: float,
        text_scores: Mapping[int, float],
        default_text: float = 0.0,
        unseen_text_override: float | None = None,
        frontier_caps: Callable[[int], list[float] | None] | None = None,
    ):
        """``text_scores`` maps trajectory id -> *exact* textual similarity.

        ``text_weight`` scales the textual term in every bound (``1 - lam``
        for UOTS; 0 for the purely spatiotemporal extensions).
        ``default_text`` is the textual value assumed for ids absent from
        ``text_scores`` (0 when texts are fully known, as in the
        collaborative search; 1 for a spatial-first search that defers text
        evaluation and must stay admissible).  ``unseen_text_override``,
        when given, replaces the best-unseen-text bookkeeping with a
        constant (again for the spatial-first mode).

        ``frontier_caps`` is the ALT hook: given a trajectory id it returns
        per-source caps on the unknown-source contributions
        (``alpha_i * exp(-lb_i / sigma_i)`` from an admissible distance
        lower bound ``lb_i <= d_i``).  Caps only ever *tighten* upper
        bounds, so every pruning decision stays semantics-preserving;
        ``None`` keeps the pure radius-based bound.  The hook is invoked
        lazily — only for trajectories that surface as the loosest active
        candidate — so its cost scales with the handful of states blocking
        termination, not with everything scanned.
        """
        if num_sources < 1:
            raise ValueError("need at least one query source")
        self._m = num_sources
        self._text_weight = text_weight
        self._frontier_caps = frontier_caps
        self._text = dict(text_scores)
        self._default_text = default_text
        self._unseen_text_override = unseen_text_override
        self._states: dict[int, _State] = {}
        self._finished: set[int] = set()
        self._exhausted: set[int] = set()
        # Lazy max-heap of (-upper_bound, trajectory_id); keys only ever
        # overestimate the current bound (bounds decrease over time).
        self._heap: list[tuple[float, int]] = []
        # Descending text scores drive the best-unseen-text pointer.
        self._text_order: list[tuple[float, int]] = sorted(
            ((score, tid) for tid, score in self._text.items()), reverse=True
        )
        self._text_pointer = 0

    # ------------------------------------------------------------ accessors
    @property
    def num_seen(self) -> int:
        """Distinct trajectories scanned so far (active + finished)."""
        return len(self._states) + len(self._finished)

    @property
    def num_active(self) -> int:
        """Currently partly scanned trajectories."""
        return len(self._states)

    def is_finished(self, trajectory_id: int) -> bool:
        """Whether the trajectory's expansion contributions are final."""
        return trajectory_id in self._finished

    def is_seen(self, trajectory_id: int) -> bool:
        """Whether any source has reached the trajectory."""
        return trajectory_id in self._states or trajectory_id in self._finished

    def text_score(self, trajectory_id: int) -> float:
        """The textual value used in bounds (exact score or the default)."""
        return self._text.get(trajectory_id, self._default_text)

    # -------------------------------------------------------------- updates
    def record_hit(
        self,
        trajectory_id: int,
        source_index: int,
        weight: float,
        radii_weights: SourceRadiiWeights,
    ) -> tuple[float, float] | None:
        """Register the first scan of ``trajectory_id`` by ``source_index``.

        ``weight`` is the source's exact contribution
        ``alpha_i * exp(-d_i / sigma_i)``.  Returns
        ``(expansion_weight_sum, text_similarity)`` when the hit completes
        the trajectory (every source has reached it or is exhausted), else
        ``None``.  Repeated hits from the same source are ignored (only the
        first is the minimum distance).
        """
        if trajectory_id in self._finished:
            return None
        state = self._states.get(trajectory_id)
        if state is None:
            state = _State(self.text_score(trajectory_id))
            self._states[trajectory_id] = state
        if source_index in state.known:
            return None
        state.known.add(source_index)
        state.known_weight += weight

        if len(state.known) + len(self._exhausted - state.known) >= self._m:
            return self._complete(trajectory_id, state)
        heapq.heappush(
            self._heap,
            (-self._upper_bound(state, radii_weights), trajectory_id),
        )
        return None

    def mark_source_exhausted(
        self, source_index: int
    ) -> list[tuple[int, float, float]]:
        """Mark a source as exhausted; finish trajectories it alone blocked.

        Returns ``(trajectory_id, expansion_weight_sum, text_similarity)``
        for every trajectory completed by this event.
        """
        if source_index in self._exhausted:
            return []
        self._exhausted.add(source_index)
        completed = []
        for trajectory_id in list(self._states):
            state = self._states[trajectory_id]
            if len(state.known) + len(self._exhausted - state.known) >= self._m:
                weight, text = self._complete(trajectory_id, state)
                completed.append((trajectory_id, weight, text))
        return completed

    def _complete(self, trajectory_id: int, state: _State) -> tuple[float, float]:
        """Finalise: unknown sources are exhausted, contributing zero."""
        del self._states[trajectory_id]
        self._finished.add(trajectory_id)
        return (state.known_weight, state.text)

    def finish(self, trajectory_id: int) -> None:
        """Retire an active trajectory whose exact score was computed
        out-of-band (refinement).  Its heap entries become stale and are
        dropped lazily."""
        if trajectory_id in self._states:
            del self._states[trajectory_id]
        self._finished.add(trajectory_id)

    # --------------------------------------------------------------- bounds
    def _upper_bound(self, state: _State, radii_weights: SourceRadiiWeights) -> float:
        """Score upper bound for one partly scanned trajectory.

        Without ALT caps, evaluated as ``known + text + (total frontier -
        frontier of known sources)`` so the cost is O(|known|), not O(m) —
        this sits on the hottest path of the search.  With caps the unknown
        term is ``sum over unknown i of min(frontier_i, cap_i)`` (O(m),
        with m the handful of query locations): the frontier weight is the
        radius-based bound, the cap is the ALT bound, and the smaller of
        the two is still admissible.
        """
        weights = radii_weights.weights
        caps = state.caps
        known = state.known
        if caps is None:
            unknown_frontier = radii_weights.total
            for i in known:
                unknown_frontier -= weights[i]
        else:
            unknown_frontier = 0.0
            for i in range(self._m):
                if i not in known:
                    w = weights[i]
                    c = caps[i]
                    unknown_frontier += w if w < c else c
        return state.known_weight + self._text_weight * state.text + unknown_frontier

    def _tighten(self, trajectory_id: int, state: _State) -> None:
        """Attach the (lazily computed) ALT caps to a heap-top state."""
        if self._frontier_caps is not None and state.caps is None:
            state.caps = self._frontier_caps(trajectory_id)

    def upper_bound_of(
        self, trajectory_id: int, radii_weights: SourceRadiiWeights
    ) -> float:
        """Current upper bound of a seen, unfinished trajectory."""
        return self._upper_bound(self._states[trajectory_id], radii_weights)

    def irreducible_bound_of(self, trajectory_id: int) -> float:
        """The part of a trajectory's bound no expansion can remove.

        ``known contributions + text term``: the frontier term shrinks as
        radii grow, but this floor does not — a trajectory whose floor
        exceeds the pruning threshold can only be resolved by completing or
        refining it, never by expanding past it.
        """
        state = self._states[trajectory_id]
        return state.known_weight + self._text_weight * state.text

    def best_unseen_text(self) -> float:
        """Max textual similarity among never-scanned trajectories."""
        score, __ = self.best_unseen_text_candidate()
        return score

    def best_unseen_text_candidate(self) -> tuple[float, int | None]:
        """The never-scanned trajectory with the best textual similarity.

        Returns ``(score, trajectory_id)``; the id is ``None`` when nothing
        textual remains unseen (or when an override constant is in force).
        """
        if self._unseen_text_override is not None:
            return self._unseen_text_override, None
        order = self._text_order
        while self._text_pointer < len(order):
            score, tid = order[self._text_pointer]
            if not self.is_seen(tid):
                return score, tid
            self._text_pointer += 1
        return 0.0, None

    def unseen_text_candidates(self, limit: int) -> list[tuple[float, int]]:
        """Up to ``limit`` never-scanned ``(text_score, id)`` pairs, best first.

        Used by the degraded (budget-tripped) wrap-up: these are the best
        candidates the expansion never reached, whose textual term alone is
        a valid score lower bound.  Empty under an override constant (the
        spatial-first mode knows no exact text scores).
        """
        if self._unseen_text_override is not None or limit <= 0:
            return []
        out: list[tuple[float, int]] = []
        for score, tid in self._text_order[self._text_pointer:]:
            if not self.is_seen(tid):
                out.append((score, tid))
                if len(out) >= limit:
                    break
        return out

    def unseen_upper_bound(self, radii_weights: SourceRadiiWeights) -> float:
        """Upper bound for every trajectory no source has reached yet."""
        return radii_weights.total + self._text_weight * self.best_unseen_text()

    def best_active_bound(
        self, radii_weights: SourceRadiiWeights, refine_rounds: int = 8
    ) -> tuple[float, int | None]:
        """The loosest partly scanned trajectory: ``(upper bound, id)``.

        The lazy heap's top key always dominates every partly scanned
        trajectory's current bound; a few refinement rounds (recompute the
        top, reinsert) tighten it.  Returns ``(0.0, None)`` when nothing is
        partly scanned.
        """
        heap = self._heap
        for __ in range(refine_rounds):
            while heap and heap[0][1] in self._finished:
                heapq.heappop(heap)
            if not heap:
                return 0.0, None
            key, tid = heap[0]
            state = self._states[tid]
            self._tighten(tid, state)  # ALT caps, only for heap-top states
            current = self._upper_bound(state, radii_weights)
            if -key - current <= _EPS:
                return current, tid
            heapq.heapreplace(heap, (-current, tid))
        # Rounds exhausted: the stored top key is a safe over-estimate, but
        # the top may have finished since the last cleaning pass.
        while heap and heap[0][1] in self._finished:
            heapq.heappop(heap)
        return (-heap[0][0], heap[0][1]) if heap else (0.0, None)

    def global_upper_bound(
        self, radii_weights: SourceRadiiWeights, refine_rounds: int = 8
    ) -> float:
        """Upper bound over *every* not-fully-scanned trajectory.

        The max of the loosest partly scanned trajectory's bound and the
        unseen-trajectory bound: the quantity the termination test compares
        against the k-th best exact score (or the join threshold).
        """
        partly, __ = self.best_active_bound(radii_weights, refine_rounds)
        return max(partly, self.unseen_upper_bound(radii_weights))

    def count_alt_pruned(
        self, radii_weights: SourceRadiiWeights, threshold: float
    ) -> int:
        """Active trajectories retired by ALT caps rather than radii.

        Counts states whose capped upper bound sits at or below
        ``threshold`` while the pure radius-based bound still exceeds it —
        exactly the candidates that would have kept the search expanding
        without the landmark caps.  Called once at termination (O(active *
        m)), purely observational.
        """
        weights = radii_weights.weights
        total = radii_weights.total
        text_weight = self._text_weight
        count = 0
        for state in self._states.values():
            caps = state.caps
            if caps is None:
                continue
            base = state.known_weight + text_weight * state.text
            uncapped = total
            capped = 0.0
            for i in state.known:
                uncapped -= weights[i]
            for i in range(self._m):
                if i not in state.known:
                    w = weights[i]
                    c = caps[i]
                    capped += w if w < c else c
            if base + capped <= threshold + _EPS < base + uncapped:
                count += 1
        return count

    # ------------------------------------------------------------ iteration
    def active_items(self) -> Iterator[tuple[int, set[int], float, float]]:
        """Partly scanned trajectories for the scheduler.

        Yields ``(trajectory_id, sources_that_hit_it, known_weight, text)``.
        The source set is live state — do not mutate it.
        """
        for trajectory_id, state in self._states.items():
            yield (trajectory_id, state.known, state.known_weight, state.text)

    def active_states(self) -> Iterator[tuple[int, float, float]]:
        """Partly scanned trajectories as ``(id, weight_sum, text)``.

        Used when the search drains at exhaustion: the known weight sum is
        then the exact expansion score component.
        """
        for trajectory_id, state in self._states.items():
            yield (trajectory_id, state.known_weight, state.text)

    def upper_bound_given(
        self,
        known_sources: set[int],
        known_weight: float,
        text: float,
        radii_weights: SourceRadiiWeights,
    ) -> float:
        """Bound from explicit components (scheduler helper)."""
        weights = radii_weights.weights
        unknown_frontier = radii_weights.total
        for i in known_sources:
            unknown_frontier -= weights[i]
        return known_weight + self._text_weight * text + unknown_frontier
