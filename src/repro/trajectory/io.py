"""Persistence for trajectory sets (JSON-lines format).

One trajectory per line keeps files streamable and diff-friendly, and lets a
partially written file be detected (the loader validates every record).
Each record's ``points`` list becomes the trajectory's two arrays directly.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.errors import TrajectoryError
from repro.trajectory.model import Trajectory, TrajectorySet

__all__ = ["save_jsonl", "load_jsonl"]


def save_jsonl(trajectories: TrajectorySet, path: str | Path) -> int:
    """Write one JSON record per trajectory; returns the record count."""
    count = 0
    with Path(path).open("w") as fh:
        for trajectory in trajectories:
            record = {
                "id": trajectory.id,
                "points": trajectory.samples(),
                "keywords": sorted(trajectory.keywords),
            }
            fh.write(json.dumps(record))
            fh.write("\n")
            count += 1
    return count


def _from_record(record: dict) -> Trajectory:
    # Transposing the pairs fails on anything but an (n, 2) list (strict:
    # a point of another length is an error, not a truncation); the array
    # conversion then applies int() / float() to every value.
    vertices, timestamps = zip(*record["points"], strict=True)
    return Trajectory.from_arrays(
        int(record["id"]), vertices, timestamps, record.get("keywords", ())
    )


def load_jsonl(path: str | Path) -> TrajectorySet:
    """Read a trajectory set previously written by :func:`save_jsonl`."""
    trajectories = TrajectorySet()
    with Path(path).open() as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                trajectory = _from_record(json.loads(line))
            except (
                KeyError, ValueError, TypeError, OverflowError, TrajectoryError
            ) as exc:
                raise TrajectoryError(f"{path}:{line_no}: malformed record: {exc}") from exc
            trajectories.add(trajectory)
    return trajectories
