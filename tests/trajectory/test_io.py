"""Unit tests for trajectory persistence."""

import re

import pytest

from repro.errors import TrajectoryError
from repro.trajectory.generator import generate_trips
from repro.trajectory.io import load_jsonl, save_jsonl
from repro.trajectory.model import Trajectory, TrajectoryPoint, TrajectorySet


def _sample_set():
    return TrajectorySet(
        [
            Trajectory(0, [TrajectoryPoint(1, 10.0), TrajectoryPoint(2, 20.0)],
                       ["park", "seafood"]),
            Trajectory(7, [TrajectoryPoint(5, 100.0)]),
        ]
    )


class TestRoundtrip:
    def test_roundtrip_preserves_everything(self, tmp_path):
        path = tmp_path / "trips.jsonl"
        count = save_jsonl(_sample_set(), path)
        assert count == 2
        loaded = load_jsonl(path)
        assert len(loaded) == 2
        original = _sample_set()
        for tid in original.ids():
            assert loaded.get(tid) == original.get(tid)

    def test_empty_set_roundtrip(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        assert save_jsonl(TrajectorySet(), path) == 0
        assert len(load_jsonl(path)) == 0

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "gaps.jsonl"
        save_jsonl(_sample_set(), path)
        content = path.read_text()
        path.write_text("\n" + content + "\n\n")
        assert len(load_jsonl(path)) == 2


class TestMalformedInput:
    def test_bad_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": 0, "points": [[1, 10.0]]}\nnot json\n')
        with pytest.raises(TrajectoryError, match=":2:"):
            load_jsonl(path)

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "missing.jsonl"
        path.write_text('{"id": 0}\n')
        with pytest.raises(TrajectoryError, match="malformed"):
            load_jsonl(path)

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        record = '{"id": 0, "points": [[1, 10.0]], "keywords": []}\n'
        path.write_text(record + record)
        with pytest.raises(TrajectoryError, match="duplicate"):
            load_jsonl(path)


class TestArrayRecords:
    """``load_jsonl`` reads each record's points straight into arrays."""

    @pytest.mark.parametrize(
        "points",
        [
            "[[1, 10.0, 3]]",  # a 3-element point
            "[[1, 10.0], [2, 20.0, 5]]",  # one 3-element point among pairs
            "[[1, 10.0], [2]]",  # a 1-element point
            "[1, 10.0]",  # a flat list
            "[]",  # no points
            '[["a", 10.0]]',  # a non-numeric vertex
            '[[1, "noon"]]',  # a non-numeric timestamp
            "[[1, null]]",  # a missing timestamp
            "[[NaN, 10.0]]",  # a vertex that is no integer
            "[[1, 10.0], [2, 5.0]]",  # decreasing timestamps
            "[[-1, 10.0]]",  # a negative vertex
            "7",  # not a list at all
        ],
    )
    def test_malformed_points_report_path_and_line(self, tmp_path, points):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"id": 0, "points": [[1, 10.0]]}\n'
            f'{{"id": 1, "points": {points}, "keywords": []}}\n'
        )
        with pytest.raises(TrajectoryError, match=re.escape(f"{path}:2: malformed record")):
            load_jsonl(path)

    def test_generated_set_round_trips(self, tmp_path, grid10):
        trips = generate_trips(grid10, 40, seed=3)
        path = tmp_path / "trips.jsonl"
        save_jsonl(trips, path)
        loaded = load_jsonl(path)
        assert loaded.ids() == trips.ids()
        for trajectory in trips:
            twin = loaded.get(trajectory.id)
            assert twin == trajectory and hash(twin) == hash(trajectory)
            assert not twin.vertex_array.flags.writeable
        again = tmp_path / "again.jsonl"
        save_jsonl(loaded, again)
        assert again.read_bytes() == path.read_bytes()

    def test_record_bytes(self, tmp_path):
        path = tmp_path / "trips.jsonl"
        save_jsonl(_sample_set(), path)
        assert path.read_text() == (
            '{"id": 0, "points": [[1, 10.0], [2, 20.0]], "keywords": ["park", "seafood"]}\n'
            '{"id": 7, "points": [[5, 100.0]], "keywords": []}\n'
        )
