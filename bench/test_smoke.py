"""Smoke tests of the benchmark harness at about order 10.

They cover the whole path: worker spawning, the case and digest checks,
tracing, and the JSON result lines.  Run with ``python -m pytest bench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402


def _results(*args: str) -> list:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke", "--seconds", "1", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1].startswith("{")
    return [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]


def _declared(kind: str) -> dict:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[kind]}


def _check(results: list, kind: str) -> None:
    assert len(results) == len(run.WORKLOADS)
    for result in results:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {name: m["unit"] for name, m in result["metrics"].items()} == _declared(kind)


def test_end_to_end_metrics():
    results = _results("--trace", "0")
    _check(results, "end_to_end")
    for result in results:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_per_layer_metrics():
    results = _results("--trace", "1")
    _check(results, "per_layer")
    for workload, result in zip(run.WORKLOADS, results):
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        assert metrics["identities.cases"] > 0
        assert metrics["series.mul.calls"] > 0 and metrics["series.mul.coeff_products"] > 0
        assert 0 < metrics["trace.layers_share"] <= 1
        assert (ROOT / ".bench_build" / "trace" / f"{workload}-full.tsv").is_file()
    suite = {name: m["value"] for name, m in results[0]["metrics"].items()}
    assert suite["cli.self_s"] > 0 and suite["oracles.calls"] > 0


def test_digest_mismatch_fails_the_run():
    expected = json.loads((BENCH / "expected.json").read_text())["digests"]
    key = f"V+1@{run.CHAIN_TABLES[0][1] // run.SMOKE_DIVISOR}"
    assert key in expected
    line = run.run_workload("chain_deep", 0, 0.1, False, run.SMOKE_DIVISOR,
                            {**expected, key: "0" * 64})
    assert not line["correct"]
    assert line["failed"] == line["attempted"] > 0


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "suite", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
