"""Self-checks of the benchmark itself: traffic is verified, not assumed.

    python -m pytest benchmarks/e2e -q

Everything here runs at the smoke profile (300 trajectories) in well under
a minute; none of it produces benchmark numbers.  Not part of tier-1
(``testpaths = ["tests"]``): run it when the benchmark changes.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import env  # noqa: E402

env.require_program()

import data  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

from repro.perf.result_cache import query_fingerprint  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def contract() -> dict:
    return json.loads(env.CONTRACT.read_text())


@pytest.fixture(scope="module")
def populations() -> dict:
    return data.load_population(data.ensure_built(data.SMOKE))["populations"]


def smoke_run(workload: str, trace: int, seed: int = 0) -> tuple[dict, str]:
    """One smoke run in a fresh process: (parsed result, full stdout)."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--workload", workload,
         "--seed", str(seed), "--seconds", "2", "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=300, check=False,
    )
    last = done.stdout.rstrip().rsplit("\n", 1)[-1]
    assert done.returncode == 0, done.stdout[-2000:]
    # Smoke sizes must never print a line the driver could take for a result.
    assert last.startswith("smoke-result: "), last[:80]
    return json.loads(last.removeprefix("smoke-result: ")), done.stdout


# ------------------------------------------------------------ the contract
def test_contract_shape(contract):
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert contract["paths"] == ["benchmarks/e2e"]
    assert contract["run_seconds"] == workloads.RUN_SECONDS
    assert 2 <= len(contract["workloads"]) <= 8
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    names = (
        [w["name"] for w in contract["workloads"]]
        + [m["name"] for m in contract["end_to_end"]]
        + [m["name"] for m in contract["per_layer"]]
    )
    assert len(set(names)) == len(names), "a name is used twice"
    assert all(NAME.match(name) for name in names)
    for workload in contract["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in contract["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25 and UNIT.match(metric["unit"])
    for metric in contract["per_layer"]:
        assert set(metric) == {"name", "unit", "better"} and UNIT.match(metric["unit"])
    setup = [m for m in contract["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in contract["end_to_end"])
    # Total budget: 4 + 22 x workloads runs inside 3420 s needs short runs.
    assert len(env.CONTRACT.read_bytes()) <= 64 * 1024


def test_contract_mirrors_the_code(contract):
    assert {w["name"]: w["why"] for w in contract["workloads"]} == workloads.WORKLOADS
    assert [
        (m["name"], m["unit"], m["better"]) for m in contract["per_layer"]
    ] == tracing.PER_LAYER


# ------------------------------------------------------------------ inputs
def test_block_is_mix_v1():
    assert len(data.BLOCK) == 20
    assert {s: data.BLOCK.count(s) for s in data.SHAPES} == {
        "light": 9, "typical": 9, "heavy": 2,
    }


def test_no_fingerprint_is_sent_twice_on_cold_lanes(populations):
    for workload in ("cold_miss", "sharded_cold"):
        rows = workloads.phase_rows(workload, 0, populations)
        sent = populations["warmup"] + rows["c1"] + rows["c2"]
        prints = [
            query_fingerprint(data.query_from_body(row["body"]), "") for row in sent
        ]
        assert len(set(prints)) == len(prints)


def test_sharded_lane_runs_a_prefix_of_the_cold_populations(populations):
    key = lambda row: json.dumps(row["body"], sort_keys=True)  # noqa: E731
    cold = workloads.phase_rows("cold_miss", 3, populations)
    sharded = workloads.phase_rows("sharded_cold", 3, populations)
    for phase in ("c1", "c2"):
        assert {key(r) for r in sharded[phase]} <= {key(r) for r in cold[phase]}
        shapes = [row["shape"] for row in sharded[phase]]
        assert shapes.count("heavy") * 10 == len(shapes)  # still mix-v1


def test_hit_pool_fits_the_result_cache(populations):
    assert len(populations["hit_pool"]) <= workloads.RESULT_CACHE_CAPACITY


def test_streams_are_byte_identical_per_seed(populations):
    def digest(workload, seed):
        rows = workloads.phase_rows(workload, seed, populations)
        return {
            phase: workloads.stream_sha256(
                [workloads.encode_request("POST", "/query", r["body"]) for r in sent]
            )
            for phase, sent in rows.items()
        }

    for workload in workloads.HTTP_LANES:
        assert digest(workload, 7) == digest(workload, 7)
        assert digest(workload, 7) != digest(workload, 8)
    assert workloads.ingest_schedule(60, 7) == workloads.ingest_schedule(60, 7)
    assert workloads.ingest_schedule(60, 7) != workloads.ingest_schedule(60, 8)


def test_ingest_stream_shape():
    ops, checked = workloads.ingest_schedule(60, 0)
    reads = [op for op in ops if op is not None]
    assert len(ops) == workloads.INGEST_OPS
    assert len(ops) - len(reads) == workloads.INGEST_OPS // workloads.INGEST_WRITE_EVERY
    assert {reads.count(i) for i in range(60)} == {len(reads) // 60}  # balanced
    assert all(ops[n] is not None and ops[n - 1] is None for n in checked)
    writes = workloads.ingest_writes(list(range(100)), 20)
    assert [kind for kind, *_ in writes] == ["add", "remove"] * 10
    assert [clone for kind, _, clone in writes if kind == "add"] == list(range(100, 110))
    assert writes == workloads.ingest_writes(list(range(100)), 20)  # seed-free


# ----------------------------------------------------------------- oracle
def test_tie_rule():
    body = {"k": 2}
    want = [(1, 0.9), (2, 0.5), (3, 0.5), (4, 0.1)]  # ranking past k
    never = lambda body, tid: None  # noqa: E731

    verdict = oracle.Verdict()
    oracle.check_answer(verdict, body, [(1, 0.9), (2, 0.5)], want, never)
    assert (verdict.mismatches, verdict.tie_substitutions) == (0, 0)
    # id 3 ties with id 2 at rank 1: accepted, but counted.
    oracle.check_answer(verdict, body, [(1, 0.9), (3, 0.5)], want, never)
    assert (verdict.mismatches, verdict.tie_substitutions) == (0, 1)
    # id 4 does not tie: a mismatch, as is a wrong score or a short answer.
    oracle.check_answer(verdict, body, [(1, 0.9), (4, 0.5)], want, never)
    oracle.check_answer(verdict, body, [(1, 0.9), (2, 0.4)], want, never)
    oracle.check_answer(verdict, body, [(1, 0.9)], want, never)
    oracle.check_answer(verdict, body, [(1, 0.9), (1, 0.9)], want, never)
    assert verdict.mismatches == 4
    # An id the file does not know is rescored exactly.
    oracle.check_answer(verdict, body, [(1, 0.9), (9, 0.5)], want, lambda b, t: 0.5)
    assert (verdict.mismatches, verdict.tie_substitutions) == (4, 2)


# ------------------------------------------------- end-to-end, smoke scale
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_untraced_run_prints_every_end_to_end_metric_once(workload, contract):
    result, stdout = smoke_run(workload, trace=0)
    declared = [m["name"] for m in contract["end_to_end"]]
    assert sorted(result["metrics"]) == sorted(declared)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for metric in contract["end_to_end"]:
        reading = result["metrics"][metric["name"]]
        assert reading["unit"] == metric["unit"] and reading["value"] > 0
        assert len(re.findall(rf"^{re.escape(metric['name'])}\s", stdout, re.M)) == 1
    assert "tie_substitutions=" in stdout and "nproc=" in stdout and "|V|=" in stdout
    if workload in workloads.HTTP_LANES:
        # /metrics deltas agreed with the reply bodies (else: a PROBLEM line),
        # and the hit share stands beside every QPS.
        assert "PROBLEM" not in stdout
        assert len(re.findall(r"qps=\S+ hit_share=", stdout)) >= 2
        expected = "1.000" if workload == "cache_hit" else "0.000"
        assert re.search(rf"phase c2\S*: .* hit_share={expected} ", stdout)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_run_prints_every_per_layer_metric_once(workload, contract):
    result, stdout = smoke_run(workload, trace=1)
    assert list(result["metrics"]) == [m["name"] for m in contract["per_layer"]]
    assert result["correct"]
    # The self-time rows partition the client wall.
    total, wall = map(float, re.search(
        r"self-time rows sum to (\S+) ms; mean \w+ wall (\S+) ms", stdout
    ).groups())
    assert total == pytest.approx(wall, rel=1e-6)
    hit_share = result["metrics"]["perf.result_cache.hit_share"]["value"]
    if workload in workloads.HTTP_LANES:
        assert hit_share == (1.0 if workload == "cache_hit" else 0.0)


def test_same_seed_same_streams_in_the_real_run():
    digests = [
        re.findall(r"stream_sha256=(\w+)", smoke_run("cold_miss", 0, seed)[1])
        for seed in (5, 5, 6)
    ]
    assert digests[0] == digests[1] != digests[2]


def test_no_program_no_result(tmp_path):
    """In a directory holding only the benchmark, the run must fail
    without printing a result."""
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"),
    )
    shutil.copy(env.CONTRACT, tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "cold_miss",
         "--seed", "0", "--seconds", "2", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=60, check=False,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout
