"""Binary trajectory record codec.

A compact, dependency-free on-disk format for one trajectory:

```
u32 trajectory_id
u16 num_points
u16 num_keywords
num_points   x (u32 vertex, f64 timestamp)
num_keywords x (u8 length, utf-8 bytes)
```

The codec is explicit ``struct`` packing (no pickle) so files are portable,
versionable, and safe to read from untrusted sources.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.errors import DatasetError
from repro.trajectory.model import Trajectory

__all__ = ["encode_trajectory", "decode_trajectory"]

_HEADER = struct.Struct("<IHH")
#: One packed ``(u32 vertex, f64 timestamp)`` point, as ``struct`` "<Id" lays it out.
_POINTS = np.dtype([("vertex", "<u4"), ("timestamp", "<f8")])


def encode_trajectory(trajectory: Trajectory) -> bytes:
    """Serialise one trajectory to its binary record."""
    if len(trajectory) > 0xFFFF:
        raise DatasetError(
            f"trajectory {trajectory.id} has too many points to encode"
        )
    keywords = sorted(trajectory.keywords)
    if len(keywords) > 0xFFFF:
        raise DatasetError(
            f"trajectory {trajectory.id} has too many keywords to encode"
        )
    if trajectory.vertex_array.max() > 0xFFFFFFFF:
        raise DatasetError(f"trajectory {trajectory.id} has a vertex id too large to encode")
    points = np.empty(len(trajectory), dtype=_POINTS)
    points["vertex"] = trajectory.vertex_array
    points["timestamp"] = trajectory.timestamp_array
    parts = [_HEADER.pack(trajectory.id, len(trajectory), len(keywords)), points.tobytes()]
    for keyword in keywords:
        raw = keyword.encode("utf-8")
        if len(raw) > 0xFF:
            raise DatasetError(f"keyword {keyword!r} too long to encode")
        parts.append(bytes([len(raw)]))
        parts.append(raw)
    return b"".join(parts)


def decode_trajectory(data: bytes, offset: int = 0) -> tuple[Trajectory, int]:
    """Deserialise one record starting at ``offset``.

    Returns the trajectory and the offset just past the record.
    """
    try:
        trajectory_id, num_points, num_keywords = _HEADER.unpack_from(data, offset)
        offset += _HEADER.size
        points = np.frombuffer(data, dtype=_POINTS, count=num_points, offset=offset)
        offset += points.nbytes
        keywords = []
        for __ in range(num_keywords):
            length = data[offset]
            offset += 1
            keywords.append(data[offset : offset + length].decode("utf-8"))
            offset += length
        return (
            Trajectory.from_arrays(
                trajectory_id, points["vertex"], points["timestamp"], keywords
            ),
            offset,
        )
    except (struct.error, IndexError, ValueError) as exc:  # incl. UnicodeDecodeError
        raise DatasetError(f"corrupt trajectory record: {exc}") from exc
