"""Trajectory substrate: model, generation, GPS noise, map matching, I/O."""

from repro.trajectory.generator import TripConfig, TripGenerator, generate_trips
from repro.trajectory.io import load_jsonl, save_jsonl
from repro.trajectory.mapmatch import HmmMatcher, VertexGrid, snap_match
from repro.trajectory.model import (
    DAY_SECONDS,
    Trajectory,
    TrajectoryPoint,
    TrajectorySet,
)
from repro.trajectory.noise import NoiseConfig, RawFix, add_gps_noise
from repro.trajectory.routes import reconstruct_route, route_length, route_overlap

__all__ = [
    "DAY_SECONDS",
    "HmmMatcher",
    "NoiseConfig",
    "RawFix",
    "Trajectory",
    "TrajectoryPoint",
    "TrajectorySet",
    "TripConfig",
    "TripGenerator",
    "VertexGrid",
    "add_gps_noise",
    "generate_trips",
    "load_jsonl",
    "reconstruct_route",
    "route_length",
    "route_overlap",
    "save_jsonl",
    "snap_match",
]
