"""Unit tests for exact pairwise similarity."""

import pytest

from repro.join.pairs import PairwiseScorer


class TestPairwiseScorer:
    @pytest.fixture()
    def scorer(self, database):
        return PairwiseScorer(database, lam=0.5)

    def test_symmetry(self, scorer):
        assert scorer.similarity(0, 5) == pytest.approx(scorer.similarity(5, 0))

    def test_range(self, scorer, database):
        for id2 in (1, 2, 3):
            assert 0.0 <= scorer.similarity(0, id2) <= 2.0

    def test_self_similarity_is_two(self, scorer, database):
        # V(t, t) = 1 in each direction.
        assert scorer.similarity(0, 0) == pytest.approx(2.0)

    def test_directional_consistent_with_engine(self, database, scorer):
        from repro.matching.engine import DirectionalSearchEngine

        engine = DirectionalSearchEngine(database)
        t1 = database.get(0)
        points = [(p.vertex, p.timestamp) for p in t1.points]
        for id2 in (3, 7, 11):
            assert scorer.directional(t1, id2) == pytest.approx(
                engine.exact_value(points, 0.5, id2)
            )

    def test_transform_cache_counts(self, database):
        scorer = PairwiseScorer(database)
        scorer.similarity(0, 1)
        assert scorer.transforms_built == 2
        scorer.similarity(0, 2)
        assert scorer.transforms_built == 3  # t0's transform reused

    def test_lam_extremes(self, database):
        spatial_only = PairwiseScorer(database, lam=1.0)
        temporal_only = PairwiseScorer(database, lam=0.0)
        s = spatial_only.similarity(0, 1)
        t = temporal_only.similarity(0, 1)
        mixed = PairwiseScorer(database, lam=0.5).similarity(0, 1)
        assert mixed == pytest.approx(0.5 * s + 0.5 * t)
