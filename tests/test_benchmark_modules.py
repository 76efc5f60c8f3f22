"""Import and structure checks for the benchmark modules.

``pytest tests/`` alone must catch syntax or API regressions in the
experiment harness, so every bench module is imported here and checked for
the common contract: a module docstring stating the claim, a
``run_experiment`` entry point, and at least one pytest-benchmark target.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"
BENCH_MODULES = sorted(BENCH_DIR.glob("bench_*.py"))


def _load(path: Path):
    if str(BENCH_DIR) not in sys.path:
        sys.path.insert(0, str(BENCH_DIR))  # for their `from common import ...`
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmarks_exist():
    assert len(BENCH_MODULES) >= 14  # E1-E10, M1, A1, X1-X3 (+ G1 I1 O1 O2 P1 R1 R2 S1)


@pytest.mark.parametrize("path", BENCH_MODULES, ids=lambda p: p.stem)
def test_module_contract(path):
    module = _load(path)
    assert module.__doc__, f"{path.stem} lacks a docstring stating its claim"
    assert hasattr(module, "run_experiment"), (
        f"{path.stem} lacks the run_experiment() script entry point"
    )
    targets = [name for name in dir(module) if name.startswith("test_")]
    assert targets, f"{path.stem} has no pytest-benchmark target"


def test_experiment_index_covers_every_module():
    """Every bench module must be referenced from DESIGN.md's index."""
    design = (BENCH_DIR.parent / "DESIGN.md").read_text()
    for path in BENCH_MODULES:
        assert path.name in design, f"{path.name} missing from DESIGN.md"
