"""Unit tests for map matching."""

import time

import pytest

from repro.errors import DatasetError
from repro.trajectory.generator import generate_trips
from repro.trajectory.mapmatch import HmmMatcher, VertexGrid, snap_match
from repro.trajectory.noise import NoiseConfig, RawFix, add_gps_noise


@pytest.fixture(scope="module")
def trip(grid20):
    return next(iter(generate_trips(grid20, 1, seed=11)))


class TestVertexGrid:
    def test_nearest_finds_exact_vertex(self, grid20):
        grid = VertexGrid(grid20)
        for vertex in (0, 57, 399):
            x, y = grid20.position(vertex)
            found, dist = grid.nearest(x, y)
            assert found == vertex
            assert dist == pytest.approx(0.0)

    def test_nearest_far_away_point(self, grid20):
        grid = VertexGrid(grid20)
        started = time.perf_counter()
        found, dist = grid.nearest(-1e6, -1e6)
        elapsed = time.perf_counter() - started
        assert 0 <= found < grid20.num_vertices
        assert dist > 0
        # Hostile input costs bounded time: a fix 1 000 km off the map must
        # not walk a (2 * reach + 1)^2 window of empty cells (137 s once).
        assert elapsed < 0.1
        # ...and still names the true nearest vertex.
        xs, ys = grid20.xs, grid20.ys
        assert found == min(
            grid20.vertices(), key=lambda v: (xs[v] + 1e6) ** 2 + (ys[v] + 1e6) ** 2
        )

    def test_within_radius(self, grid20):
        grid = VertexGrid(grid20)
        x, y = grid20.position(50)
        nearby = grid.within(x, y, 150.0)
        assert 50 in nearby
        far = grid.within(x, y, 1.0)
        assert far == [50]

    def test_empty_graph_rejected(self):
        from repro.network.graph import SpatialNetwork

        with pytest.raises(DatasetError):
            VertexGrid(SpatialNetwork([], [], []))


class TestSnapMatch:
    def test_clean_fixes_recover_trajectory(self, grid20, trip):
        config = NoiseConfig(position_std=0.0, outlier_probability=0.0,
                             drop_probability=0.0)
        fixes = add_gps_noise(grid20, trip, config, seed=1)
        matched = snap_match(grid20, fixes, trajectory_id=5)
        assert matched.id == 5
        assert matched.vertices() == trip.vertices()

    def test_noisy_fixes_mostly_recover(self, grid20, trip):
        fixes = add_gps_noise(grid20, trip, NoiseConfig(position_std=10.0), seed=2)
        matched = snap_match(grid20, fixes)
        overlap = len(matched.vertex_set & trip.vertex_set)
        assert overlap >= len(trip.vertex_set) * 0.5

    def test_consecutive_duplicates_collapsed(self, grid20):
        x, y = grid20.position(3)
        fixes = [RawFix(x, y, 10.0), RawFix(x + 1, y, 20.0), RawFix(x, y, 30.0)]
        matched = snap_match(grid20, fixes)
        assert matched.vertices() == [3]

    def test_clock_jitter_clamped(self, grid20):
        x0, y0 = grid20.position(0)
        x1, y1 = grid20.position(1)
        fixes = [RawFix(x0, y0, 100.0), RawFix(x1, y1, 90.0)]
        matched = snap_match(grid20, fixes)
        stamps = matched.timestamps()
        assert all(b >= a for a, b in zip(stamps, stamps[1:]))

    def test_empty_fix_list_rejected(self, grid20):
        with pytest.raises(DatasetError):
            snap_match(grid20, [])


class TestHmmMatcher:
    def test_clean_fixes_recover_trajectory(self, grid20, trip):
        config = NoiseConfig(position_std=0.0, outlier_probability=0.0,
                             drop_probability=0.0)
        fixes = add_gps_noise(grid20, trip, config, seed=3)
        matched = HmmMatcher(grid20).match(fixes, trajectory_id=9)
        assert matched.id == 9
        assert matched.vertices() == trip.vertices()

    def test_beats_snapping_under_heavy_noise(self, grid20, trip):
        # With position noise comparable to the street spacing, per-point
        # snapping teleports between streets while the Viterbi transition
        # model keeps the matched route coherent.  Aggregated over noise
        # seeds (either matcher can get lucky on one), the HMM must both
        # recover more true vertices and produce a smoother route.
        config = NoiseConfig(
            position_std=60.0, outlier_probability=0.0, drop_probability=0.0
        )
        matcher = HmmMatcher(grid20, candidate_radius=200.0)
        truth = trip.vertex_set

        def jaccard(a, b):
            return len(a & b) / len(a | b)

        def continuity(matched):
            from repro.network.dijkstra import shortest_path_length

            vertices = matched.vertices()
            return sum(
                shortest_path_length(grid20, a, b)
                for a, b in zip(vertices, vertices[1:])
            ) / max(1, len(vertices) - 1)

        snap_jaccard = hmm_jaccard = 0.0
        snap_jumpiness = hmm_jumpiness = 0.0
        for seed in range(8):
            fixes = add_gps_noise(grid20, trip, config, seed=seed)
            snapped = snap_match(grid20, fixes)
            hmm = matcher.match(fixes)
            snap_jaccard += jaccard(snapped.vertex_set, truth)
            hmm_jaccard += jaccard(hmm.vertex_set, truth)
            snap_jumpiness += continuity(snapped)
            hmm_jumpiness += continuity(hmm)
        assert hmm_jaccard >= snap_jaccard
        assert hmm_jumpiness <= snap_jumpiness

    def test_empty_fix_list_rejected(self, grid20):
        with pytest.raises(DatasetError):
            HmmMatcher(grid20).match([])

    def test_invalid_parameters_rejected(self, grid20):
        with pytest.raises(DatasetError):
            HmmMatcher(grid20, candidate_radius=0.0)
        with pytest.raises(DatasetError):
            HmmMatcher(grid20, emission_std=-1.0)

    def test_single_fix(self, grid20):
        x, y = grid20.position(7)
        matched = HmmMatcher(grid20).match([RawFix(x, y, 50.0)])
        assert matched.vertices() == [7]
