"""Unit tests for ALT landmark lower bounds."""

import random

import pytest

from repro.errors import GraphError
from repro.network.dijkstra import shortest_path_length
from repro.network.graph import SpatialNetwork
from repro.network.landmarks import LandmarkIndex


class TestBuild:
    def test_landmark_count(self, grid10):
        index = LandmarkIndex.build(grid10, num_landmarks=4, seed=0)
        assert len(index.landmarks) == 4

    def test_landmarks_are_distinct(self, grid10):
        index = LandmarkIndex.build(grid10, num_landmarks=6, seed=1)
        assert len(set(index.landmarks)) == len(index.landmarks)

    def test_count_exceeding_graph_size_clamped(self, line_graph):
        from repro.network import landmarks as landmarks_module

        before = landmarks_module.clamp_events()
        index = LandmarkIndex.build(line_graph, num_landmarks=50, seed=0)
        assert len(index.landmarks) == line_graph.num_vertices
        assert len(set(index.landmarks)) == line_graph.num_vertices
        assert landmarks_module.clamp_events() == before + 1

    def test_nonpositive_count_rejected(self, grid10):
        with pytest.raises(GraphError, match="num_landmarks"):
            LandmarkIndex.build(grid10, num_landmarks=0, seed=0)

    def test_generator_seed_accepted(self, grid10):
        import numpy as np

        rng = np.random.default_rng(7)
        index = LandmarkIndex.build(grid10, num_landmarks=4, seed=rng)
        assert len(index.landmarks) == 4

    def test_int_seed_is_deterministic(self, grid10):
        a = LandmarkIndex.build(grid10, num_landmarks=5, seed=3)
        b = LandmarkIndex.build(grid10, num_landmarks=5, seed=3)
        assert a.landmarks == b.landmarks

    def test_disconnected_rejected(self):
        g = SpatialNetwork(xs=[0, 1, 9], ys=[0, 0, 0], edges=[(0, 1, 1.0)])
        with pytest.raises(GraphError, match="connected"):
            LandmarkIndex.build(g, 2)

    def test_empty_rejected(self):
        with pytest.raises(GraphError):
            LandmarkIndex.build(SpatialNetwork([], [], []), 2)


class TestLowerBound:
    def test_bound_never_exceeds_distance(self, grid10):
        index = LandmarkIndex.build(grid10, num_landmarks=6, seed=2)
        rng = random.Random(3)
        for __ in range(40):
            u = rng.randrange(grid10.num_vertices)
            v = rng.randrange(grid10.num_vertices)
            assert index.lower_bound(u, v) <= (
                shortest_path_length(grid10, u, v) + 1e-9
            )

    def test_bound_is_zero_for_same_vertex(self, grid10):
        index = LandmarkIndex.build(grid10, num_landmarks=4, seed=0)
        assert index.lower_bound(5, 5) == 0.0

    def test_bound_exact_for_landmark_pairs(self, grid10):
        index = LandmarkIndex.build(grid10, num_landmarks=4, seed=0)
        lm = index.landmarks[0]
        for v in (0, 17, 99):
            expected = shortest_path_length(grid10, lm, v)
            assert index.lower_bound(lm, v) == pytest.approx(expected)

    def test_symmetry(self, grid10):
        index = LandmarkIndex.build(grid10, num_landmarks=4, seed=0)
        assert index.lower_bound(3, 88) == pytest.approx(index.lower_bound(88, 3))

