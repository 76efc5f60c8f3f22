"""Gateway fixtures: a small served database and helpers to build
service/gateway pairs per test (gateway state — pending counters,
admission slots — must not leak between tests, so nothing here is shared
mutable)."""

from __future__ import annotations

import pytest

from repro.index.database import TrajectoryDatabase
from repro.network.generators import grid_network
from repro.text.assignment import annotate_trajectories, assign_vertex_keywords
from repro.text.vocabulary import Vocabulary
from repro.trajectory.generator import generate_trips


@pytest.fixture(scope="session")
def gateway_database():
    """A compact database: big enough that searches do real work, small
    enough that a full e2e suite stays fast."""
    graph = grid_network(10, 10, seed=21)
    trips = generate_trips(graph, 120, seed=22)
    vocabulary = Vocabulary.build(40, seed=23)
    vertex_keywords = assign_vertex_keywords(graph, vocabulary, seed=24)
    trips = annotate_trajectories(trips, vertex_keywords, seed=25)
    return TrajectoryDatabase(graph, trips)
