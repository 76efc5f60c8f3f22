"""Unit tests for network persistence."""

import json

import pytest

from repro.errors import GraphError
from repro.network.generators import grid_network
from repro.network.io import load_edge_list, load_json, save_edge_list, save_json


class TestJsonRoundtrip:
    def test_roundtrip_preserves_structure(self, tmp_path, grid10):
        path = tmp_path / "net.json"
        save_json(grid10, path)
        loaded = load_json(path)
        assert loaded.num_vertices == grid10.num_vertices
        assert loaded.num_edges == grid10.num_edges
        assert sorted(loaded.edges()) == sorted(grid10.edges())
        assert loaded.position(42) == grid10.position(42)

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(GraphError, match="not a repro network"):
            load_json(path)


_NETWORK = {"format": "repro-network", "version": 1, "xs": [0, 1, 2], "ys": [0, 0, 0]}


class TestJsonMalformed:
    """Every malformed document is a :class:`GraphError` naming the file."""

    @pytest.mark.parametrize(
        "payload, message",
        [
            (dict(_NETWORK, edges=[[0, 1]]), "must be a list of \\[u, v, weight\\] triples"),
            (dict(_NETWORK, edges=[[0, 1, "heavy"]]), "must be a list of"),
            (dict(_NETWORK, edges=[[0, 1, 1.0], [1, 2]]), "must be a list of"),
            (_NETWORK, "no 'edges' key"),
            (dict(_NETWORK, xs="abc", edges=[]), "'xs' must be a list of numbers"),
            ([1, 2], "is not a repro network file"),
            (dict(_NETWORK, edges=[[0, 1.7, 1.0]]), "non-integral vertex id"),
            (dict(_NETWORK, edges=[[0, 5, 1.0]]), "vertex 5 does not exist"),
        ],
        ids=["two-elements", "string-weight", "ragged", "no-edges", "string-xs",
             "top-level-list", "fractional-id", "out-of-range"],
    )
    def test_malformed_document(self, tmp_path, payload, message):
        path = tmp_path / "net.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(GraphError, match=message) as info:
            load_json(path)
        assert str(info.value).startswith(str(path))

    def test_not_json(self, tmp_path):
        path = tmp_path / "net.json"
        path.write_text("{not json")
        with pytest.raises(GraphError, match="malformed network file"):
            load_json(path)

    def test_integral_float_ids_and_no_edges_load(self, tmp_path):
        path = tmp_path / "net.json"
        path.write_text(json.dumps(dict(_NETWORK, edges=[[0.0, 1, 2], [2, 1.0, 0.5]])))
        assert list(load_json(path).edges()) == [(0, 1, 2.0), (2, 1, 0.5)]
        path.write_text(json.dumps(dict(_NETWORK, edges=[])))
        assert load_json(path).num_edges == 0


class TestEdgeListRoundtrip:
    def test_roundtrip_preserves_structure(self, tmp_path):
        g = grid_network(4, 4, seed=3)
        co, gr = save_edge_list(g, tmp_path / "net")
        assert co.exists() and gr.exists()
        loaded = load_edge_list(tmp_path / "net")
        assert loaded.num_vertices == g.num_vertices
        assert loaded.num_edges == g.num_edges
        assert sorted(loaded.edges()) == sorted(g.edges())

    def test_missing_files_rejected(self, tmp_path):
        with pytest.raises(GraphError, match="missing"):
            load_edge_list(tmp_path / "nothing")

    def test_duplicate_arcs_collapsed(self, tmp_path):
        # DIMACS-style files list both directions; the loader keeps one.
        (tmp_path / "d.co").write_text("p aux co 2\nv 1 0.0 0.0\nv 2 1.0 0.0\n")
        (tmp_path / "d.gr").write_text(
            "p sp 2 2\na 1 2 5.0\na 2 1 5.0\n"
        )
        loaded = load_edge_list(tmp_path / "d")
        assert loaded.num_edges == 1
        assert loaded.edge_weight(0, 1) == pytest.approx(5.0)

    def test_comment_lines_ignored(self, tmp_path):
        (tmp_path / "c.co").write_text("c comment\nv 1 0 0\nv 2 1 0\n")
        (tmp_path / "c.gr").write_text("c comment\na 1 2 2.0\n")
        loaded = load_edge_list(tmp_path / "c")
        assert loaded.num_vertices == 2
        assert loaded.num_edges == 1

    @pytest.mark.parametrize(
        "line, message",
        [
            ("a 1 x 3", "invalid literal"),
            ("a 1 2", "expected 3 fields, got 2"),
            ("a 1 2 3 4", "expected 3 fields, got 4"),
            ("a 1 2.5 3", "invalid literal"),
            ("a 0 1 3", "1-based"),
            ("a 1 2 heavy", "could not convert"),
        ],
        ids=["non-numeric-id", "short", "long", "fractional-id", "zero-id", "bad-weight"],
    )
    def test_malformed_arc_line(self, tmp_path, line, message):
        (tmp_path / "m.co").write_text("v 1 0 0\nv 2 1 0\n")
        (tmp_path / "m.gr").write_text(f"c comment\n{line}\n")
        with pytest.raises(GraphError, match=message) as info:
            load_edge_list(tmp_path / "m")
        assert str(info.value).startswith(f"{tmp_path / 'm.gr'}:2: malformed record")

    def test_malformed_vertex_line(self, tmp_path):
        (tmp_path / "m.co").write_text("v 1 0 0\nv 2 east 0\n")
        (tmp_path / "m.gr").write_text("a 1 2 3\n")
        with pytest.raises(GraphError, match="m.co:2: malformed record"):
            load_edge_list(tmp_path / "m")
