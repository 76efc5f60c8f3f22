"""GPS noise simulation.

Turns a clean (map-matched) trajectory back into the raw fixes a GPS device
would report: planar coordinates with Gaussian positioning error, occasional
outliers, and random point drops.  Together with
:mod:`repro.trajectory.mapmatch` this closes the loop the paper assumes has
already happened ("sample points have been map matched onto the vertices").
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import DatasetError
from repro.network.graph import SpatialNetwork
from repro.trajectory.model import Trajectory

__all__ = ["RawFix", "NoiseConfig", "add_gps_noise"]


@dataclass(frozen=True, slots=True)
class RawFix:
    """One raw GPS report: position and time of day (seconds)."""

    x: float
    y: float
    timestamp: float


@dataclass(frozen=True)
class NoiseConfig:
    """Parameters of the simulated GPS error model."""

    position_std: float = 15.0  # metres, typical urban GPS error
    outlier_probability: float = 0.02
    outlier_std: float = 120.0  # metres, multipath reflections
    drop_probability: float = 0.05  # missed fixes

    def __post_init__(self):
        if self.position_std < 0 or self.outlier_std < 0:
            raise DatasetError("noise standard deviations must be non-negative")
        for p in (self.outlier_probability, self.drop_probability):
            if not (0.0 <= p < 1.0):
                raise DatasetError(f"probability {p} outside [0, 1)")


def add_gps_noise(
    graph: SpatialNetwork,
    trajectory: Trajectory,
    config: NoiseConfig | None = None,
    seed: int | None = None,
) -> list[RawFix]:
    """Simulate the raw GPS fixes behind a map-matched trajectory.

    The first and last fixes are never dropped, so the trip's extent is
    preserved.  Returns at least two fixes.
    """
    config = config or NoiseConfig()
    rng = random.Random(seed)
    fixes: list[RawFix] = []
    last = len(trajectory) - 1
    for i, (vertex, timestamp) in enumerate(trajectory.samples()):
        if 0 < i < last and rng.random() < config.drop_probability:
            continue
        x, y = graph.position(vertex)
        std = config.position_std
        if rng.random() < config.outlier_probability:
            std = config.outlier_std
        fixes.append(
            RawFix(
                x + rng.gauss(0.0, std),
                y + rng.gauss(0.0, std),
                timestamp,
            )
        )
    return fixes
