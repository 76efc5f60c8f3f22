"""Persistence for spatial networks.

Two formats are supported:

- a single JSON document (convenient, self-describing), and
- the classic two-file edge-list layout (``*.co`` vertex coordinates +
  ``*.gr`` weighted edges) used by public road-network releases such as the
  DIMACS / Illinois open data the paper points at.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterator

import numpy as np

from repro.errors import GraphError
from repro.network.graph import SpatialNetwork

__all__ = ["save_json", "load_json", "save_edge_list", "load_edge_list"]


def save_json(graph: SpatialNetwork, path: str | Path) -> None:
    """Write the network to ``path`` as a JSON document."""
    payload = {
        "format": "repro-network",
        "version": 1,
        "xs": [float(x) for x in graph.xs],
        "ys": [float(y) for y in graph.ys],
        "edges": [[u, v, w] for u, v, w in graph.edges()],
    }
    Path(path).write_text(json.dumps(payload))


def load_json(path: str | Path) -> SpatialNetwork:
    """Read a network previously written by :func:`save_json`.

    A file that is not such a network, or holds a malformed coordinate or
    edge, raises :class:`GraphError` naming ``path``.
    """
    try:
        payload = json.loads(Path(path).read_text())
    except ValueError as exc:  # not JSON, or not text
        raise GraphError(f"{path}: malformed network file: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != "repro-network":
        raise GraphError(f"{path} is not a repro network file")
    try:
        xs = _numbers(payload["xs"], "xs")
        ys = _numbers(payload["ys"], "ys")
        edges = _numbers(payload["edges"], "edges", width=3)
        return SpatialNetwork.from_arrays(xs, ys, edges[:, 0], edges[:, 1], edges[:, 2])
    except KeyError as exc:
        raise GraphError(f"{path}: malformed network: no {exc} key") from exc
    except GraphError as exc:
        raise GraphError(f"{path}: malformed network: {exc}") from exc


def _numbers(values, name: str, width: int | None = None) -> np.ndarray:
    """``values`` as a numeric array: a list of numbers, or of ``width``-long
    lists of numbers."""
    try:
        array = np.array(values)
        shape = (len(values),) if width is None else (len(values), width)
        if array.size == 0:
            array = array.reshape(shape)
    except (TypeError, ValueError):  # not a list, or ragged rows
        array = shape = None
    if array is None or array.dtype.kind not in "iuf" or array.shape != shape:
        rows = "numbers" if width is None else "[u, v, weight] triples"
        raise GraphError(f"{name!r} must be a list of {rows}")
    return array


def save_edge_list(graph: SpatialNetwork, prefix: str | Path) -> tuple[Path, Path]:
    """Write ``<prefix>.co`` (coordinates) and ``<prefix>.gr`` (edges).

    Vertex ids are written 1-based to match the DIMACS convention.
    Returns the two paths written.
    """
    prefix = Path(prefix)
    co_path = prefix.with_suffix(".co")
    gr_path = prefix.with_suffix(".gr")
    with co_path.open("w") as fh:
        fh.write(f"p aux co {graph.num_vertices}\n")
        for v in graph.vertices():
            x, y = graph.position(v)
            fh.write(f"v {v + 1} {x!r} {y!r}\n")
    with gr_path.open("w") as fh:
        fh.write(f"p sp {graph.num_vertices} {graph.num_edges}\n")
        for u, v, w in graph.edges():
            fh.write(f"a {u + 1} {v + 1} {w!r}\n")
    return co_path, gr_path


def load_edge_list(prefix: str | Path) -> SpatialNetwork:
    """Read a network from ``<prefix>.co`` + ``<prefix>.gr``.

    A ``v`` line that is not a 1-based integral id and two numbers, or an
    ``a`` line that is not two such ids and a number, raises
    :class:`GraphError` as ``path:line: malformed record``.
    """
    prefix = Path(prefix)
    co_path = prefix.with_suffix(".co")
    gr_path = prefix.with_suffix(".gr")
    if not co_path.exists() or not gr_path.exists():
        raise GraphError(f"missing {co_path} or {gr_path}")

    xs: list[float] = []
    ys: list[float] = []
    for index, x, y in _records(co_path, "v", (_vertex_id, float, float)):
        while len(xs) <= index:
            xs.append(0.0)
            ys.append(0.0)
        xs[index] = x
        ys[index] = y

    us: list[int] = []
    vs: list[int] = []
    ws: list[float] = []
    seen: set[tuple[int, int]] = set()
    for u, v, w in _records(gr_path, "a", (_vertex_id, _vertex_id, float)):
        key = (min(u, v), max(u, v))
        if key in seen:
            continue  # directed files list both arcs; keep one
        seen.add(key)
        us.append(u)
        vs.append(v)
        ws.append(w)
    try:
        return SpatialNetwork.from_arrays(xs, ys, us, vs, ws)
    except GraphError as exc:
        raise GraphError(f"{gr_path}: {exc}") from exc


def _vertex_id(text: str) -> int:
    """A 1-based integral vertex id as a 0-based one."""
    vertex = int(text) - 1
    if vertex < 0:
        raise ValueError(f"vertex ids are 1-based, got {text}")
    return vertex


def _records(path: Path, tag: str, kinds: tuple) -> Iterator[list]:
    """Every ``tag`` line of ``path``, its fields parsed by ``kinds``."""
    with path.open() as fh:
        for line_no, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts or parts[0] != tag:
                continue
            try:
                if len(parts) != len(kinds) + 1:
                    raise ValueError(f"expected {len(kinds)} fields, got {len(parts) - 1}")
                yield [kind(text) for kind, text in zip(kinds, parts[1:])]
            except ValueError as exc:
                raise GraphError(f"{path}:{line_no}: malformed record: {exc}") from exc
