"""Where the benchmark finds the program and keeps what it builds.

The benchmark is started as ``python3 benchmarks/e2e/run.py`` from the root
of a checkout that need not be a git repository, so every path is derived
from this file's own location.  Nothing outside the checkout is read or
written: the built dataset lives under ``.bench_build/`` (git-ignored) and
per-run scratch files under a temporary directory inside it.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
SRC = REPO_ROOT / "src"
BUILD_ROOT = REPO_ROOT / ".bench_build" / "e2e"
CONTRACT = REPO_ROOT / "BENCHMARK.json"


def require_program() -> None:
    """Put the program under test on ``sys.path``, or exit non-zero.

    A directory that holds only the benchmark (no ``src/repro``) has no
    program to measure; the run must fail without printing a result.
    """
    if not (SRC / "repro" / "cli.py").is_file():
        print(
            f"error: no program to benchmark: {SRC / 'repro'} is missing",
            file=sys.stderr,
        )
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
