"""repro — User Oriented Trajectory Search for Trip Recommendation (UOTS).

A full reproduction of the EDBT 2012 paper's system and its substrates:
spatial networks, trajectories with textual attributes, the collaborative
spatial-textual search with bound-based pruning and heuristic scheduling,
three baselines, and the group's follow-up extensions (spatio-temporal
matching and the trajectory similarity join).

Quickstart
----------
>>> from repro import (ring_radial_network, generate_trips, Vocabulary,
...                    assign_vertex_keywords, annotate_trajectories,
...                    TrajectoryDatabase, TripRecommender)
>>> graph = ring_radial_network(10, 24, seed=1)
>>> trips = generate_trips(graph, 200, seed=2)
>>> vocab = Vocabulary.build(60, seed=3)
>>> trips = annotate_trajectories(
...     trips, assign_vertex_keywords(graph, vocab, seed=4), seed=5)
>>> recommender = TripRecommender(TrajectoryDatabase(graph, trips))
>>> trips_for_me = recommender.recommend(
...     locations=[0, 57], preference="lakeside seafood", k=3)
"""

from repro.core import (
    ALGORITHMS,
    AlgorithmSpec,
    BruteForceSearcher,
    CollaborativeSearcher,
    QueryPlan,
    Recommendation,
    ScoredTrajectory,
    Searcher,
    SearchResult,
    SearchStats,
    SpatialFirstSearcher,
    TextFirstSearcher,
    TripRecommender,
    UOTSQuery,
    make_searcher,
)
from repro.errors import (
    BudgetExceededError,
    CorruptPageError,
    DatasetError,
    DisconnectedError,
    GraphError,
    QueryError,
    ReproError,
    StorageError,
    TrajectoryError,
    TrajectoryIndexError,
    VertexNotFoundError,
)
from repro.index import (
    TemporalGridIndex,
    TrajectoryDatabase,
    VertexTrajectoryIndex,
)
from repro.join import (
    BruteForceJoin,
    JoinResult,
    TemporalFirstJoin,
    TopKJoin,
    TwoPhaseJoin,
)
from repro.matching import (
    BruteForcePTMMatcher,
    DirectionalSearchEngine,
    PTMMatcher,
    PTMQuery,
    TimestampIndex,
)
from repro.obs import (
    MetricsRegistry,
    Tracer,
    format_trace,
    get_registry,
)
from repro.network import (
    GraphBuilder,
    IncrementalExpansion,
    SpatialNetwork,
    grid_network,
    random_geometric_network,
    ring_radial_network,
    shortest_path,
    shortest_path_length,
)
from repro.parallel import fork_available, parallel_search
from repro.resilience import (
    BudgetMeter,
    FaultInjector,
    FaultPolicy,
    RetryPolicy,
    SearchBudget,
)
from repro.service import (
    AdmissionController,
    AdmissionPolicy,
    QueryService,
)
from repro.storage import DiskTrajectoryDatabase, DiskTrajectoryStore
from repro.viz import SvgCanvas, draw_network, draw_search_result, draw_trajectories
from repro.text import (
    InvertedKeywordIndex,
    Vocabulary,
    annotate_trajectories,
    assign_vertex_keywords,
)
from repro.trajectory import (
    Trajectory,
    TrajectoryPoint,
    TrajectorySet,
    TripConfig,
    TripGenerator,
    generate_trips,
)

__version__ = "1.0.0"

__all__ = [
    "ALGORITHMS",
    "AdmissionController",
    "AdmissionPolicy",
    "AlgorithmSpec",
    "BruteForceJoin",
    "BruteForcePTMMatcher",
    "BruteForceSearcher",
    "BudgetExceededError",
    "BudgetMeter",
    "CollaborativeSearcher",
    "CorruptPageError",
    "DatasetError",
    "DirectionalSearchEngine",
    "DisconnectedError",
    "DiskTrajectoryDatabase",
    "DiskTrajectoryStore",
    "FaultInjector",
    "FaultPolicy",
    "GraphBuilder",
    "GraphError",
    "IncrementalExpansion",
    "InvertedKeywordIndex",
    "JoinResult",
    "MetricsRegistry",
    "PTMMatcher",
    "PTMQuery",
    "QueryError",
    "QueryPlan",
    "QueryService",
    "Recommendation",
    "ReproError",
    "RetryPolicy",
    "ScoredTrajectory",
    "SearchBudget",
    "Searcher",
    "SearchResult",
    "SearchStats",
    "SpatialFirstSearcher",
    "SpatialNetwork",
    "StorageError",
    "TemporalFirstJoin",
    "TemporalGridIndex",
    "TopKJoin",
    "TextFirstSearcher",
    "TimestampIndex",
    "Tracer",
    "Trajectory",
    "TrajectoryDatabase",
    "TrajectoryError",
    "TrajectoryIndexError",
    "TrajectoryPoint",
    "TrajectorySet",
    "TripConfig",
    "TripGenerator",
    "TripRecommender",
    "TwoPhaseJoin",
    "UOTSQuery",
    "VertexNotFoundError",
    "VertexTrajectoryIndex",
    "annotate_trajectories",
    "assign_vertex_keywords",
    "fork_available",
    "format_trace",
    "generate_trips",
    "get_registry",
    "grid_network",
    "make_searcher",
    "parallel_search",
    "random_geometric_network",
    "ring_radial_network",
    "shortest_path",
    "shortest_path_length",
    "draw_network",
    "draw_search_result",
    "draw_trajectories",
    "SvgCanvas",
    "Vocabulary",
    "__version__",
]
