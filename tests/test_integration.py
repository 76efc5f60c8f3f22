"""End-to-end integration: full pipeline on a ring-radial city.

Exercises the whole public API surface in one realistic flow — network
generation, trips, annotation, indexing, all search algorithms, matching,
join, parallel batch — on a topology different from the grid the unit
fixtures use.
"""

import pytest

import repro


@pytest.fixture(scope="module")
def city():
    graph = repro.ring_radial_network(rings=8, radials=24, seed=51)
    trips = repro.generate_trips(graph, 300, seed=52)
    vocab = repro.Vocabulary.build(80, seed=53)
    trips = repro.annotate_trajectories(
        trips, repro.assign_vertex_keywords(graph, vocab, seed=54), seed=55
    )
    return repro.TrajectoryDatabase(graph, trips), vocab


class TestSearchPipeline:
    def test_all_algorithms_agree(self, city):
        database, vocab = city
        query = repro.UOTSQuery.create(
            [0, 57, 120], vocab.keywords[:3], lam=0.5, k=8
        )
        reference = None
        for name in repro.ALGORITHMS:
            result = repro.make_searcher(database, name).search(query)
            if reference is None:
                reference = result.scores
            assert result.scores == pytest.approx(reference, abs=1e-7), name

    def test_recommendations_well_formed(self, city):
        database, __ = city
        recs = repro.TripRecommender(database).recommend(
            [10, 100], "park museum seafood", lam=0.4, k=5
        )
        assert len(recs) == 5
        for a, b in zip(recs, recs[1:]):
            assert a.score >= b.score


class TestMatchingPipeline:
    def test_ptm_roundtrip(self, city):
        database, __ = city
        anchor = database.get(7)
        fast = repro.PTMMatcher(database).match(repro.PTMQuery(anchor, k=5))
        oracle = repro.BruteForcePTMMatcher(database).match(
            repro.PTMQuery(anchor, k=5)
        )
        assert fast.scores == pytest.approx(oracle.scores, abs=1e-7)


class TestJoinPipeline:
    def test_join_algorithms_agree(self, city):
        database, __ = city
        theta = 1.85
        two = repro.TwoPhaseJoin(database).self_join(theta)
        tf = repro.TemporalFirstJoin(database).self_join(theta)
        assert two.pair_set() == tf.pair_set()

    def test_parallel_join_agrees(self, city):
        database, __ = city
        sequential = repro.TwoPhaseJoin(database).self_join(1.9)
        if repro.fork_available():
            fanned = repro.TwoPhaseJoin(database, workers=2).self_join(1.9)
            assert fanned.pair_set() == sequential.pair_set()


class TestPersistenceRoundtrip:
    def test_save_load_query(self, city, tmp_path):
        from repro.network.io import load_json, save_json
        from repro.trajectory.io import load_jsonl, save_jsonl

        database, vocab = city
        save_json(database.graph, tmp_path / "net.json")
        save_jsonl(database.trajectories, tmp_path / "trips.jsonl")
        reloaded = repro.TrajectoryDatabase(
            load_json(tmp_path / "net.json"),
            load_jsonl(tmp_path / "trips.jsonl"),
            sigma=database.sigma,
        )
        query = repro.UOTSQuery.create([3, 30], vocab.keywords[:2], k=5)
        original = repro.CollaborativeSearcher(database).search(query)
        restored = repro.CollaborativeSearcher(reloaded).search(query)
        assert restored.scores == pytest.approx(original.scores)
        assert restored.ids == original.ids
