"""Unit tests for incremental network expansion (the core search primitive)."""

import pytest

from repro.errors import VertexNotFoundError
from repro.network.dijkstra import single_source_distances
from repro.network.expansion import IncrementalExpansion


class TestStepping:
    def test_first_settle_is_source(self, grid10):
        ex = IncrementalExpansion(grid10, 7)
        assert ex.expand() == (7, 0.0)

    def test_settles_in_nondecreasing_order(self, grid10):
        ex = IncrementalExpansion(grid10, 0)
        last = -1.0
        while (item := ex.expand()) is not None:
            assert item[1] >= last
            last = item[1]

    def test_each_vertex_settled_once(self, grid10):
        ex = IncrementalExpansion(grid10, 0)
        seen = set()
        while (item := ex.expand()) is not None:
            assert item[0] not in seen
            seen.add(item[0])
        assert len(seen) == grid10.num_vertices

    def test_distances_match_dijkstra(self, grid10):
        ex = IncrementalExpansion(grid10, 42)
        while ex.expand() is not None:
            pass
        reference = single_source_distances(grid10, 42)
        assert ex.settled_vertices() == pytest.approx(reference)

    def test_exhaustion_returns_none_repeatedly(self, line_graph):
        ex = IncrementalExpansion(line_graph, 0)
        last_distance = 0.0
        while (item := ex.expand()) is not None:
            last_distance = item[1]
        assert ex.exhausted
        assert ex.expand() is None
        # The radius stays at the last settled distance — still a valid
        # lower bound on unsettled vertices (there are none); callers must
        # use `exhausted`, not an infinite radius, to zero the frontier.
        assert ex.radius == pytest.approx(last_distance)

    def test_batched_matches_single_steps(self, grid10):
        single = IncrementalExpansion(grid10, 3)
        order = []
        while (item := single.expand()) is not None:
            order.append(item)
        batched = IncrementalExpansion(grid10, 3)
        got = []
        while not batched.exhausted:
            got.extend(batched.expand_steps(7))
        assert got == order
        assert batched.expand_steps(7) == []

    def test_exhausted_flips_at_last_settle_mid_batch(self, line_graph):
        ex = IncrementalExpansion(line_graph, 0)
        steps = ex.expand_steps(line_graph.num_vertices + 10)
        # The component ran out inside the batch: exhaustion is visible
        # immediately, not one call later.
        assert len(steps) == line_graph.num_vertices
        assert ex.exhausted
        assert ex.radius == pytest.approx(steps[-1][1])

    def test_invalid_source_rejected(self, line_graph):
        with pytest.raises(VertexNotFoundError):
            IncrementalExpansion(line_graph, 99)


class TestRadius:
    def test_radius_tracks_last_settled(self, line_graph):
        ex = IncrementalExpansion(line_graph, 0)
        ex.expand()  # source at 0
        assert ex.radius == 0.0
        ex.expand()
        assert ex.radius == pytest.approx(1.0)

    def test_radius_lower_bounds_unsettled(self, grid10):
        ex = IncrementalExpansion(grid10, 0)
        for __ in range(30):
            ex.expand()
        radius = ex.radius
        reference = single_source_distances(grid10, 0)
        settled = ex.settled_vertices()
        for vertex, dist in reference.items():
            if vertex not in settled:
                assert dist >= radius - 1e-9

