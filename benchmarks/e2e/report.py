"""Printing: provenance header, metric tables, and the final result line."""

from __future__ import annotations

import importlib.metadata
import importlib.util
import json
import math
import os
import platform
import statistics
from dataclasses import dataclass, field


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile of ``values`` (``share`` in (0, 1])."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


#: The order-statistic bands behind ``latency_p50_ms`` / ``latency_p90_ms``.
P50_BAND = (0.40, 0.60)
P90_BAND = (0.85, 0.95)


def quantile_band(values: list[float], low: float, high: float) -> float:
    """A smoothed quantile: the mean of the order statistics ranked between
    the ``low`` and ``high`` shares of the sample.

    A cold phase has 100 samples from a bimodal mixture (light vs typical
    queries), and its plain median sits in the sparse gap between the
    modes: a 10% slowdown moved it by 70% in practice.  Averaging the
    ranks around the quantile keeps the location and the unit (ms per
    request) and responds proportionally to a slowdown.
    """
    ordered = sorted(values)
    first = math.floor(low * len(ordered))
    last = max(first + 1, math.ceil(high * len(ordered)))
    return statistics.fmean(ordered[first:last])


def _version(package: str) -> str:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return "absent"


def host_facts() -> dict:
    """What the numbers were measured on (printed with every run)."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "pydantic": _version("pydantic"),
        # `repro serve` picks uvicorn when importable, else its stdlib server.
        "http_server": (
            "uvicorn" if importlib.util.find_spec("uvicorn") else "stdlib asyncio"
        ),
    }


@dataclass
class Metric:
    """One reported number.  ``value is None`` prints as ``n/a``."""

    name: str
    value: float | None
    unit: str
    note: str = ""


@dataclass
class RunResult:
    """Everything one workload run reports."""

    workload: str
    seed: int
    traced: bool
    metrics: list[Metric] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    lines: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems

    def add(self, name: str, value: float | None, unit: str, note: str = "") -> None:
        self.metrics.append(Metric(name, value, unit, note))

    def say(self, line: str) -> None:
        self.lines.append(line)


def format_table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    out = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    out.append("  ".join("-" * w for w in widths))
    out.extend("  ".join(c.ljust(w) for c, w in zip(row, widths)) for row in rows)
    return "\n".join(out)


def _number(value: float | None) -> str:
    if value is None:
        return "n/a"
    if value == 0 or abs(value) >= 100:
        return f"{value:.1f}"
    return f"{value:.4g}"


def print_result(result: RunResult, facts: dict, dataset: dict) -> None:
    """The human-readable report of one run (everything but the last line)."""
    mode = "traced (per-layer)" if result.traced else "untraced (end-to-end)"
    print(f"== {result.workload} | seed {result.seed} | {mode}")
    print("host: " + ", ".join(f"{k}={v}" for k, v in facts.items()))
    print(
        "dataset: brn |V|={V} |E|={E} |P|={P} sigma={sigma:.1f} scale={scale}".format(
            **dataset
        )
    )
    for line in result.lines:
        print(line)
    print(
        format_table(
            ["metric", "value", "unit", "note"],
            [[m.name, _number(m.value), m.unit, m.note] for m in result.metrics],
        )
    )
    failed_share = result.failed / result.attempted if result.attempted else 1.0
    print(
        f"attempted={result.attempted} failed={result.failed} "
        f"failed_share={failed_share:.6f} correct={result.correct}"
    )
    for problem in result.problems:
        print(f"PROBLEM: {problem}")


def result_line(result: RunResult) -> str:
    """The contract's one-line JSON result (N/A per-layer rows read 0)."""
    return json.dumps(
        {
            "correct": result.correct,
            "attempted": max(1, result.attempted),
            "failed": result.failed,
            "metrics": {
                m.name: {"value": 0.0 if m.value is None else m.value, "unit": m.unit}
                for m in result.metrics
            },
        }
    )
