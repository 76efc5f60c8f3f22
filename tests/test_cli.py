"""End-to-end tests for the command-line interface."""

import shutil
import subprocess
import sys

import pytest

from repro.cli import build_parser, main


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli-data")
    code = main(
        [
            "generate", "--output", str(path), "--vertices", "300",
            "--trajectories", "80", "--seed", "1",
        ]
    )
    assert code == 0
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_flags(self):
        args = build_parser().parse_args(
            ["generate", "--output", "/tmp/x", "--topology", "grid"]
        )
        assert args.topology == "grid"


class TestGenerate:
    def test_files_written(self, dataset_dir):
        assert (dataset_dir / "network.json").exists()
        assert (dataset_dir / "trajectories.jsonl").exists()

    def test_grid_topology(self, tmp_path):
        code = main(
            [
                "generate", "--output", str(tmp_path / "g"), "--topology", "grid",
                "--vertices", "100", "--trajectories", "20",
            ]
        )
        assert code == 0


class TestQuery:
    def test_query_prints_ranking(self, dataset_dir, capsys):
        code = main(
            [
                "query", "--data", str(dataset_dir), "--locations", "1,5,9",
                "--preference", "park seafood", "--k", "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "trajectory" in out
        assert "visited=" in out

    def test_all_algorithms(self, dataset_dir, capsys):
        for algorithm in ("brute-force", "collaborative", "text-first"):
            code = main(
                [
                    "query", "--data", str(dataset_dir), "--locations", "2,7",
                    "--algorithm", algorithm, "--k", "2",
                ]
            )
            assert code == 0

    def test_invalid_location_reports_error(self, dataset_dir, capsys):
        code = main(
            ["query", "--data", str(dataset_dir), "--locations", "999999"]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "network",
        [
            '{"format": "repro-network", "xs": [0, 1], "ys": [0, 0], "edges": [[0, 1]]}',
            '{"format": "repro-network", "xs": [0, 1], "ys": [0, 0]}',
            "[1, 2]",
            "{not json",
        ],
        ids=["short-edge", "no-edges", "top-level-list", "not-json"],
    )
    def test_malformed_network_is_one_error_line(self, dataset_dir, tmp_path, network):
        """A broken ``network.json`` is a library error, not a traceback."""
        (tmp_path / "network.json").write_text(network)
        shutil.copy(dataset_dir / "trajectories.jsonl", tmp_path)
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "query", "--data", str(tmp_path),
             "--locations", "0"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
        assert "network.json" in lines[0]

    def test_tuning_flags(self, dataset_dir, capsys):
        code = main(
            [
                "query", "--data", str(dataset_dir), "--locations", "1,5",
                "--preference", "park", "--scheduler", "round-robin",
                "--batch-size", "8", "--no-alt",
            ]
        )
        assert code == 0
        assert "trajectory" in capsys.readouterr().out

    def test_rejects_unknown_scheduler(self, dataset_dir):
        with pytest.raises(SystemExit):
            main(
                [
                    "query", "--data", str(dataset_dir), "--locations", "1",
                    "--scheduler", "fifo",
                ]
            )

    def test_sharded_algorithm_with_shard_flags(self, dataset_dir, capsys):
        code = main(
            [
                "query", "--data", str(dataset_dir), "--locations", "1,5,9",
                "--preference", "park seafood", "--k", "3",
                "--algorithm", "sharded", "--shards", "4",
            ]
        )
        assert code == 0
        assert "trajectory" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv", [["query", "--locations", "1"], ["serve"]], ids=["query", "serve"]
    )
    def test_workers_flag_is_gone(self, dataset_dir, capsys, argv):
        """Nothing on the per-query path forks, so there is no width to set."""
        with pytest.raises(SystemExit):
            main(argv + ["--data", str(dataset_dir), "--workers", "2"])
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag", ["--no-alt", "--batch-size=8", "--scheduler=round-robin",
                 "--shards=4", "--cache-size=0"],
    )
    def test_serve_has_no_tuning_flags(self, capsys, flag):
        """Served algorithms keep their registry defaults."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--data", "x", flag])
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


class TestExplain:
    def test_prints_plan_without_executing(self, dataset_dir, capsys):
        code = main(
            [
                "explain", "--data", str(dataset_dir), "--locations", "1,5,9",
                "--preference", "park seafood", "--k", "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "QueryPlan[collaborative]" in out
        assert "scheduler:" in out
        assert "est. cost:" in out
        # No execution: none of the result/stats output appears.
        assert "visited=" not in out
        assert "score" not in out

    def test_reflects_tuning_flags(self, dataset_dir, capsys):
        code = main(
            [
                "explain", "--data", str(dataset_dir), "--locations", "2,7",
                "--preference", "park", "--scheduler", "round-robin", "--no-alt",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "round-robin" in out
        assert "alt:          off" in out

    def test_sharded_explain_shows_shard_schedule(self, dataset_dir, capsys):
        code = main(
            [
                "explain", "--data", str(dataset_dir), "--locations", "1,5,9",
                "--preference", "park seafood", "--algorithm", "sharded",
                "--shards", "4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "QueryPlan[sharded]" in out
        assert "shards:" in out
        assert "prunable at plan floor" in out
        assert "shard[" in out
        # Explain never executes; the plan rendering stays result-free.
        assert "visited=" not in out
        assert "score" not in out

    def test_every_algorithm_explains(self, dataset_dir, capsys):
        for algorithm in ("brute-force", "text-first", "spatial-first"):
            code = main(
                [
                    "explain", "--data", str(dataset_dir), "--locations", "2,7",
                    "--preference", "park", "--algorithm", algorithm,
                ]
            )
            assert code == 0
            assert f"QueryPlan[{algorithm}]" in capsys.readouterr().out


class TestBench:
    def test_algorithms_filter(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_SCALE", "0.02")
        code = main(
            ["bench", "--queries", "2",
             "--algorithms", "collaborative,brute-force"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "collaborative" in out
        assert "brute-force" in out
        assert "text-first" not in out
        assert "p95 ms" in out

    def test_unknown_algorithm_fails(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_SCALE", "0.02")
        code = main(["bench", "--queries", "2", "--algorithms", "quantum"])
        assert code == 1
        assert "unknown algorithm" in capsys.readouterr().err


class TestJoin:
    def test_join_runs(self, dataset_dir, capsys):
        code = main(["join", "--data", str(dataset_dir), "--theta", "1.9"])
        assert code == 0
        assert "pairs" in capsys.readouterr().out


class TestVisualize:
    def test_svg_written(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "map.svg"
        code = main(
            [
                "visualize", "--data", str(dataset_dir), "--locations", "1,9",
                "--preference", "park", "--output", str(out),
            ]
        )
        assert code == 0
        assert out.read_text().startswith("<svg")
