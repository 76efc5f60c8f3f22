"""Unit tests for result types and the top-k collector."""

import dataclasses

import pytest

from repro.core.results import ScoredTrajectory, SearchResult, SearchStats, TopK


def _item(tid, score):
    return ScoredTrajectory(tid, score, score, 0.0)


class TestScoredTrajectoryOrdering:
    def test_higher_score_sorts_first(self):
        assert _item(1, 0.9) < _item(2, 0.5)

    def test_ties_broken_by_lower_id(self):
        assert _item(1, 0.5) < _item(2, 0.5)

    def test_sorted_gives_ranking(self):
        ranked = sorted([_item(3, 0.2), _item(1, 0.9), _item(2, 0.9)])
        assert [i.trajectory_id for i in ranked] == [1, 2, 3]


class TestTopK:
    def test_keeps_best_k(self):
        topk = TopK(2)
        for tid, score in [(0, 0.1), (1, 0.9), (2, 0.5), (3, 0.7)]:
            topk.offer(_item(tid, score))
        assert [i.trajectory_id for i in topk.ranked()] == [1, 3]

    def test_threshold_until_full(self):
        topk = TopK(3)
        assert topk.threshold == float("-inf")
        topk.offer(_item(0, 0.5))
        assert not topk.full
        topk.offer(_item(1, 0.6))
        topk.offer(_item(2, 0.7))
        assert topk.full
        assert topk.threshold == pytest.approx(0.5)

    def test_offer_returns_admission(self):
        topk = TopK(1)
        assert topk.offer(_item(0, 0.5))
        assert not topk.offer(_item(1, 0.4))
        assert topk.offer(_item(2, 0.6))

    def test_tie_at_boundary_prefers_lower_id(self):
        topk = TopK(1)
        topk.offer(_item(5, 0.5))
        assert topk.offer(_item(2, 0.5))  # same score, lower id wins
        assert [i.trajectory_id for i in topk.ranked()] == [2]
        assert not topk.offer(_item(9, 0.5))  # same score, higher id loses

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            TopK(0)

    def test_len(self):
        topk = TopK(5)
        topk.offer(_item(0, 0.1))
        assert len(topk) == 1


#: The public field list of SearchStats (order included): the wire schema,
#: the service's work series and ``benchmarks/e2e/tracing.py`` read them
#: by name.
SEARCH_STATS_FIELDS = (
    "visited_trajectories", "expanded_vertices", "similarity_evaluations",
    "pruned_trajectories", "text_candidates", "elapsed_seconds", "refinements",
    "retries", "degraded_queries", "failed_queries", "executor",
    "expand_batches", "alt_pruned", "distance_cache_hits",
    "distance_cache_misses", "text_cache_hits", "text_cache_misses", "cache",
    "shards_planned", "shards_executed", "shards_pruned", "shard_seconds",
    "shard_critical_seconds", "estimated_cost",
)


class TestSearchStats:
    def test_merge_accumulates(self):
        a = SearchStats(visited_trajectories=3, expanded_vertices=10,
                        similarity_evaluations=2, elapsed_seconds=0.5)
        b = SearchStats(visited_trajectories=1, expanded_vertices=5,
                        pruned_trajectories=7, elapsed_seconds=0.25)
        a.merge(b)
        assert a.visited_trajectories == 4
        assert a.expanded_vertices == 15
        assert a.pruned_trajectories == 7
        assert a.elapsed_seconds == pytest.approx(0.75)

    def test_merge_keeps_retries_and_first_executor(self):
        a = SearchStats(expanded_vertices=3, retries=1)
        b = SearchStats(expanded_vertices=4, executor="fork")
        a.merge(b)
        assert a.expanded_vertices == 7
        assert a.retries == 1
        assert a.executor == "fork"  # the first non-empty label wins

    def test_field_list_is_locked(self):
        fields = tuple(f.name for f in dataclasses.fields(SearchStats))
        assert fields == SEARCH_STATS_FIELDS

    def test_fields_default_to_zeroes(self):
        stats = SearchStats()
        for field in SEARCH_STATS_FIELDS:
            assert getattr(stats, field) == ("" if field in ("executor", "cache") else 0)


class TestSearchResult:
    def test_accessors(self):
        result = SearchResult(items=[_item(4, 0.9), _item(2, 0.5)])
        assert result.ids == [4, 2]
        assert result.scores == [0.9, 0.5]
        assert result.best().trajectory_id == 4
        assert len(result) == 2

    def test_empty_result(self):
        result = SearchResult(items=[])
        assert result.best() is None
        assert result.ids == []
