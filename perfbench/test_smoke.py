"""Smoke test for the benchmark: every workload, plain and traced, at a tiny size.

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def result(workload: str, trace: int, seed: int = 3) -> tuple[dict, dict]:
    out = bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                "--trace", str(trace), "--size", "tiny")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def test_spec_matches_code():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert WORKLOADS == ["train-short", "train-long", "eval-long", "patch-o4"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reports_every_metric(workload, trace):
    record, res = result(workload, trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"], record["checks"]
    assert res["attempted"] >= 1 and res["failed"] == 0
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == wanted
    assert all(math.isfinite(v["value"]) for v in res["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in res["metrics"].values())
    assert record["machine"]["seed"] == 3 and record["machine"]["workload"]["name"] == workload


def test_training_loss_repeats_across_processes():
    first, _ = result("train-short", 0, seed=5)
    second, _ = result("train-short", 0, seed=5)
    assert math.isfinite(first["loss_after_fixed_steps"])
    assert first["loss_after_fixed_steps"] == second["loss_after_fixed_steps"]


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = bench("--workload", "train-short", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""
