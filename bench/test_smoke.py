"""Smoke runs of the pipeline benchmark on tiny inputs.

Run from the repository root::

    python -m pytest bench -q

Each run uses ``--size tiny --seconds 1``: every part of the pipeline on
40-image corpora and a few hundred regions, one iteration.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    command = [sys.executable, *BENCHMARK["command"][1:], "--seed", "5", "--seconds", "1", *args]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)


def tiny_run(*args: str) -> tuple[dict, dict]:
    proc = run_bench("--size", "tiny", *args)
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["record"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_printed_with_its_unit(workload, trace):
    result, record = tiny_run("--workload", workload, "--trace", str(trace))
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1, record["failures"]
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if trace:
        assert result["metrics"]["distractor.missing_counts.calls"]["value"] > 0
        assert result["metrics"]["trace.spans"]["value"] > 0
    assert record["digests"]["generate_w2"] == record["digests"]["generate"]


def test_a_flipped_byte_in_the_instances_fails_exactly_one_operation():
    result, record = tiny_run("--workload", "build", "--fault", "flip-instances")
    assert result["failed"] == 1 and result["correct"] is False
    assert [f.split("#")[0] for f in record["failures"]] == ["distract"]


def test_a_wrong_child_score_fails_exactly_one_operation():
    result, record = tiny_run("--workload", "consume", "--fault", "wrong-score")
    assert result["failed"] == 1 and result["correct"] is False
    assert [f.split("#")[0] for f in record["failures"]] == ["eval_subprocess"]


def test_without_the_program_the_benchmark_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", WORKLOADS[0], "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
