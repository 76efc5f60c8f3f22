"""Unit and property tests for the binary trajectory record codec."""

import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import DatasetError
from repro.storage.records import decode_trajectory, encode_trajectory
from repro.trajectory.model import DAY_SECONDS, Trajectory, TrajectoryPoint


def _traj(tid=3, points=((1, 10.0), (2, 20.5)), keywords=("park", "seafood")):
    return Trajectory(
        tid, [TrajectoryPoint(v, t) for v, t in points], keywords
    )


class TestRoundtrip:
    def test_simple_roundtrip(self):
        original = _traj()
        decoded, consumed = decode_trajectory(encode_trajectory(original))
        assert decoded == original
        assert consumed == len(encode_trajectory(original))

    def test_empty_keywords(self):
        original = _traj(keywords=())
        decoded, __ = decode_trajectory(encode_trajectory(original))
        assert decoded.keywords == frozenset()

    def test_unicode_keywords(self):
        original = _traj(keywords=("café", "smörgås"))
        decoded, __ = decode_trajectory(encode_trajectory(original))
        assert decoded.keywords == original.keywords

    def test_offset_decoding(self):
        a, b = _traj(1), _traj(2, points=((5, 50.0),))
        blob = encode_trajectory(a) + encode_trajectory(b)
        first, offset = decode_trajectory(blob)
        second, end = decode_trajectory(blob, offset)
        assert first == a
        assert second == b
        assert end == len(blob)

    def test_layout_is_the_packed_struct_format(self):
        blob = encode_trajectory(_traj(keywords=("zoo",)))
        assert blob == (
            struct.pack("<IHH", 3, 2, 1)
            + struct.pack("<Id", 1, 10.0)
            + struct.pack("<Id", 2, 20.5)
            + b"\x03zoo"
        )

    def test_vertex_beyond_u32_rejected(self):
        with pytest.raises(DatasetError, match="too large"):
            encode_trajectory(_traj(points=((2**32, 1.0),)))


class TestMalformed:
    def test_truncated_record_rejected(self):
        blob = encode_trajectory(_traj())
        with pytest.raises(DatasetError, match="corrupt"):
            decode_trajectory(blob[: len(blob) // 2])

    def test_empty_bytes_rejected(self):
        with pytest.raises(DatasetError):
            decode_trajectory(b"")


point_lists = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2**31 - 1),
        st.floats(min_value=0.0, max_value=DAY_SECONDS - 1.0, allow_nan=False),
    ),
    min_size=1,
    max_size=30,
)
keyword_sets = st.sets(
    st.text(
        alphabet=st.characters(whitelist_categories=("Ll", "Nd")),
        min_size=1,
        max_size=12,
    ),
    max_size=8,
)


@given(tid=st.integers(0, 2**31 - 1), points=point_lists, keywords=keyword_sets)
def test_roundtrip_property(tid, points, keywords):
    points = sorted(points, key=lambda p: p[1])
    original = Trajectory(
        tid, [TrajectoryPoint(v, t) for v, t in points], keywords
    )
    decoded, consumed = decode_trajectory(encode_trajectory(original))
    assert decoded == original
    assert consumed == len(encode_trajectory(original))
