"""Shared fixtures: small deterministic graphs and databases.

Session-scoped where construction is expensive; tests must not mutate
shared fixtures (tests that need mutation build their own objects).
"""

from __future__ import annotations

import re

import pytest

from repro.index.database import TrajectoryDatabase
from repro.network.builder import GraphBuilder
from repro.network.generators import grid_network
from repro.text.assignment import annotate_trajectories, assign_vertex_keywords
from repro.text.vocabulary import Vocabulary
from repro.trajectory.generator import generate_trips


_SAMPLE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})? (\S+)$")
_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def series(source, name: str, **labels) -> float:
    """What a service's registry (or a registry) exports for ``name``.

    The sum over every exported sample of that name whose labels include
    ``labels``, so ``series(service, "repro_service_queries_total")`` is
    every outcome and ``..., outcome="exact")`` one of them; 0.0 when no
    such sample exists.
    """
    registry = getattr(source, "metrics", source)
    want = {key: str(value) for key, value in labels.items()}
    total = 0.0
    for line in registry.render_prometheus().splitlines():
        match = _SAMPLE.match(line)
        if match is None or match.group(1) != name:
            continue
        if want.items() <= dict(_LABEL.findall(match.group(2) or "")).items():
            total += float(match.group(3))
    return total


@pytest.fixture(scope="session")
def grid10():
    """A 10x10 jittered grid, connected, deterministic."""
    return grid_network(10, 10, seed=1)


@pytest.fixture(scope="session")
def grid20():
    """A 20x20 jittered grid for heavier search tests."""
    return grid_network(20, 20, seed=2)


@pytest.fixture(scope="session")
def line_graph():
    """A 5-vertex path with unit edge weights: analytic distances."""
    builder = GraphBuilder()
    for i in range(5):
        builder.add_vertex(float(i), 0.0)
    for i in range(4):
        builder.add_edge(i, i + 1, 1.0)
    return builder.build(require_connected=True)


@pytest.fixture(scope="session")
def vocab():
    """A 50-keyword Zipf vocabulary."""
    return Vocabulary.build(50, seed=3)


@pytest.fixture(scope="session")
def annotated_trips(grid20, vocab):
    """250 annotated trips over grid20."""
    trips = generate_trips(grid20, 250, seed=7)
    vertex_keywords = assign_vertex_keywords(grid20, vocab, seed=9)
    return annotate_trajectories(trips, vertex_keywords, seed=11)


@pytest.fixture(scope="session")
def database(grid20, annotated_trips):
    """A shared read-only trajectory database (do not mutate)."""
    return TrajectoryDatabase(grid20, annotated_trips)
