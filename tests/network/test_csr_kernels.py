"""Property tests: CSR kernels vs the dict reference kernel vs SciPy.

The array-backed kernels in :mod:`repro.network.csr` replaced the original
dict-based Dijkstra.  ``dict_reference_sssp`` is kept as the executable
specification; hypothesis drives random connected weighted graphs through
both implementations and requires identical settled sets and distances —
including the cutoff and early-exit target variants.  Full and bounded
rows are SciPy's; the interpreted early-exit kernel is checked directly,
and ``targets_array`` once on each side of its graph-size choice, so both
kernels answer to the same oracle.
"""

import math
import sys
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network import csr
from repro.network.builder import GraphBuilder
from repro.network.csr import (
    CSRAdjacency,
    _sssp_python,
    array_to_distance_dict,
    sssp_array,
    sssp_arrays_batch,
    targets_array,
)
from repro.network.dijkstra import dict_reference_sssp

_INF = float("inf")


@st.composite
def connected_graphs(draw):
    """A random connected weighted graph (random tree + extra edges)."""
    n = draw(st.integers(min_value=2, max_value=24))
    weight = st.floats(min_value=0.1, max_value=10.0, allow_nan=False)
    builder = GraphBuilder()
    for i in range(n):
        builder.add_vertex(float(i), 0.0)
    for v in range(1, n):  # random spanning tree: connectivity guaranteed
        u = draw(st.integers(min_value=0, max_value=v - 1))
        builder.add_edge(u, v, draw(weight))
    for __ in range(draw(st.integers(min_value=0, max_value=n))):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        if u != v:  # re-adding an edge keeps the smaller weight: still valid
            builder.add_edge(u, v, draw(weight))
    return builder.build(require_connected=True)


@contextmanager
def _tier(scipy: bool):
    """Force one side of ``targets_array``'s size choice: a SciPy row even
    on tiny graphs, or the interpreted early exit on any graph.  A context
    manager rather than ``monkeypatch``, which hypothesis rejects as
    function-scoped."""
    saved = csr._SCIPY_TARGETS_MIN_VERTICES
    csr._SCIPY_TARGETS_MIN_VERTICES = 0 if scipy else sys.maxsize
    try:
        yield
    finally:
        csr._SCIPY_TARGETS_MIN_VERTICES = saved


def _as_dict(distances):
    return array_to_distance_dict(distances)


def _assert_same(got: dict, want: dict):
    assert set(got) == set(want)
    for v, d in want.items():
        assert got[v] == pytest.approx(d, abs=1e-9)


class TestAgainstDictReference:
    @settings(max_examples=60, deadline=None)
    @given(graph=connected_graphs(), data=st.data())
    def test_single_source_full(self, graph, data):
        source = data.draw(st.integers(0, graph.num_vertices - 1))
        want = dict_reference_sssp(graph, (source,))
        _assert_same(_as_dict(sssp_array(graph.csr, (source,))), want)

    @settings(max_examples=60, deadline=None)
    @given(graph=connected_graphs(), data=st.data())
    def test_multi_source_full(self, graph, data):
        k = data.draw(st.integers(1, min(3, graph.num_vertices)))
        sources = tuple(
            {data.draw(st.integers(0, graph.num_vertices - 1)) for __ in range(k)}
        )
        want = dict_reference_sssp(graph, sources)
        _assert_same(_as_dict(sssp_array(graph.csr, sources)), want)

    @settings(max_examples=60, deadline=None)
    @given(graph=connected_graphs(), data=st.data())
    def test_cutoff(self, graph, data):
        source = data.draw(st.integers(0, graph.num_vertices - 1))
        cutoff = data.draw(st.floats(min_value=0.0, max_value=30.0))
        want = dict_reference_sssp(graph, (source,), cutoff=cutoff)
        _assert_same(_as_dict(sssp_array(graph.csr, (source,), cutoff=cutoff)), want)
        _assert_same(_as_dict(_sssp_python(graph.csr, (source,), cutoff, None)), want)

    @settings(max_examples=60, deadline=None)
    @given(graph=connected_graphs(), data=st.data())
    def test_target_early_exit(self, graph, data):
        source = data.draw(st.integers(0, graph.num_vertices - 1))
        target = data.draw(st.integers(0, graph.num_vertices - 1))
        want = dict_reference_sssp(graph, (source,), target=target)
        full = dict_reference_sssp(graph, (source,))
        got = sssp_array(graph.csr, (source,), target=target)
        # The early exit guarantees the target entry; everything settled
        # on the way must carry its exact (full-search) distance.
        assert got[target] == pytest.approx(want[target], abs=1e-9)
        for v, d in _as_dict(got).items():
            assert d == pytest.approx(full[v], abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(graph=connected_graphs(), data=st.data())
    def test_targets_array(self, graph, data):
        source = data.draw(st.integers(0, graph.num_vertices - 1))
        k = data.draw(st.integers(1, min(4, graph.num_vertices)))
        targets = list(
            dict.fromkeys(
                data.draw(st.integers(0, graph.num_vertices - 1))
                for __ in range(k)
            )
        )
        # A cutoff just short of a target's distance makes that target the
        # first vertex past the bound: it must come back inf, not its distance.
        full = dict_reference_sssp(graph, (source,))
        just_short = [0.999 * full[t] for t in targets]
        cutoff = data.draw(
            st.none() | st.floats(0.0, 30.0) | st.sampled_from(just_short)
        )
        want = dict_reference_sssp(graph, (source,), cutoff=cutoff)
        for scipy in (False, True):
            with _tier(scipy):
                got = targets_array(graph.csr, (source,), targets, cutoff=cutoff)
            for t, d in zip(targets, got):
                assert d == pytest.approx(want.get(t, _INF), abs=1e-9)


class TestAgainstScipy:
    """SciPy csgraph as an independent third implementation."""

    @settings(max_examples=40, deadline=None)
    @given(graph=connected_graphs(), data=st.data())
    def test_python_tier_matches_scipy(self, graph, data):
        from scipy.sparse.csgraph import dijkstra

        source = data.draw(st.integers(0, graph.num_vertices - 1))
        ours = _sssp_python(graph.csr, (source,), None, None)
        ref = dijkstra(graph.csr.matrix(), directed=True, indices=source)
        assert ours == pytest.approx(ref, abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(graph=connected_graphs(), data=st.data())
    def test_batch_matches_scipy(self, graph, data):
        from scipy.sparse.csgraph import dijkstra

        k = data.draw(st.integers(1, min(3, graph.num_vertices)))
        sources = sorted(
            {data.draw(st.integers(0, graph.num_vertices - 1)) for __ in range(k)}
        )
        ours = sssp_arrays_batch(graph.csr, sources)
        for row, s in zip(ours, sources):
            ref = dijkstra(graph.csr.matrix(), directed=True, indices=s)
            assert row == pytest.approx(ref, abs=1e-9)


class TestDisconnected:
    def test_unreachable_is_inf(self):
        builder = GraphBuilder()
        for i in range(4):
            builder.add_vertex(float(i), 0.0)
        builder.add_edge(0, 1, 1.0)
        builder.add_edge(2, 3, 1.0)
        graph = builder.build(require_connected=False)
        dist = sssp_array(graph.csr, (0,))
        assert dist[1] == pytest.approx(1.0)
        assert math.isinf(dist[2]) and math.isinf(dist[3])
        assert targets_array(graph.csr, (0,), [3]) == [_INF]

    def test_empty_edge_graph(self):
        builder = GraphBuilder()
        builder.add_vertex(0.0, 0.0)
        graph = builder.build(require_connected=False)
        dist = sssp_array(graph.csr, (0,))
        assert dist[0] == 0.0

    def test_csr_from_no_edges(self):
        empty = np.empty(0, dtype=np.int64)
        csr = CSRAdjacency.from_arrays(3, empty, empty, np.empty(0))
        assert csr.num_vertices == 3
        assert list(csr.indptr) == [0, 0, 0, 0]
