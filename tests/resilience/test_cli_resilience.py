"""CLI resilience: budget flags and clean non-zero exits on errors."""

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_data") / "ds"
    code = main([
        "generate", "--output", str(out), "--topology", "grid",
        "--vertices", "100", "--trajectories", "80", "--seed", "5",
    ])
    assert code == 0
    return out


class TestBudgetFlags:
    def test_deadline_flag_degrades(self, dataset_dir, capsys):
        code = main([
            "query", "--data", str(dataset_dir), "--locations", "0,50",
            "--preference", "park", "--deadline-ms", "0.0001",
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert "degraded:" in captured.out
        assert "deadline" in captured.out
        assert "scores <=" in captured.out  # the residual error bar

    def test_max_expansions_flag_degrades(self, dataset_dir, capsys):
        code = main([
            "query", "--data", str(dataset_dir), "--locations", "0,50",
            "--preference", "park", "--max-expansions", "1",
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert "degraded:" in captured.out
        assert "expansion budget" in captured.out

    def test_no_flags_stays_exact(self, dataset_dir, capsys):
        code = main([
            "query", "--data", str(dataset_dir), "--locations", "0,50",
            "--preference", "park",
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert "degraded:" not in captured.out


class TestErrorExits:
    def test_missing_dataset_exits_one(self, tmp_path, capsys):
        code = main([
            "query", "--data", str(tmp_path / "nope"), "--locations", "0,1",
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error:")
        assert "Traceback" not in captured.err

    def test_bad_query_exits_one(self, dataset_dir, capsys):
        code = main([
            "query", "--data", str(dataset_dir), "--locations", "0,999999",
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error:")

    def test_degrade_headroom_without_max_cost_exits_one(self, dataset_dir, capsys):
        code = main([
            "query", "--data", str(dataset_dir), "--locations", "0,50",
            "--degrade-headroom", "1.5",
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.splitlines() == [
            "error: degrade_headroom scales the max_cost ceiling; set max_cost"
        ]
        assert captured.out == ""
