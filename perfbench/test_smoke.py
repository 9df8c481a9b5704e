"""Smoke test of the benchmark harness on a tiny input (``verify --max-order 12``).

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import harness
import speed

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((harness.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(root: Path, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "smoke", "--seed", "5",
         "--seconds", "0.2", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=120,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _units(metrics: list[dict]) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in metrics}


def test_end_to_end_metrics_match_benchmark_json():
    proc = _run(harness.ROOT, trace=0)
    result = _result(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 29
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    assert got == _units(SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    detail = json.loads(proc.stdout.splitlines()[-2])
    assert detail["probes"] > 0 and detail["raw_wall_s"] > 0


def test_per_layer_metrics_match_benchmark_json():
    proc = _run(harness.ROOT, trace=1)
    result = _result(proc)
    assert result["correct"], proc.stdout
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    assert got == _units(SPEC["per_layer"])
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert metrics["groupspec.groups"] == 29
    assert metrics["oracle.verdict_ratio"] == 1.0 and metrics["oracle.positions"] > 0
    detail = json.loads(proc.stdout.splitlines()[-2])
    assert detail["seed"] == 5 and detail["env"]["nproc"] >= 1
    assert "probes" not in detail  # traced runs report raw times


def test_changed_output_counts_as_failed(tmp_path):
    shutil.copytree(harness.SRC, tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    path = tmp_path / "perfbench" / "expected" / "smoke.json"
    expected = json.loads(path.read_text(encoding="utf-8"))
    expected["outputs"]["verify"] = expected["outputs"]["verify"].replace("Z7,7,1", "Z7,7,0")
    expected["counters"]["Z8"]["subgroups"] += 1
    path.write_text(json.dumps(expected), encoding="utf-8")
    untraced = _result(_run(tmp_path, trace=0))
    assert not untraced["correct"] and untraced["metrics"]["ok_ratio"]["value"] < 1
    traced = _result(_run(tmp_path, trace=1))
    assert not traced["correct"] and traced["failed"] >= 2  # Z7 row, Z8 counters


def test_refuses_without_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, trace=0)
    assert proc.returncode != 0 and proc.stdout == ""


def test_seed_shuffles_analyze_order_only():
    ladder, survey = harness.WORKLOADS["ladder"], harness.WORKLOADS["survey"]
    orders = {tuple(ladder.order(seed)) for seed in range(5)}
    assert len(orders) > 1 and all(sorted(o) == sorted(ladder.specs) for o in orders)
    assert ladder.order(3) == ladder.order(3)
    assert survey.order(0) == survey.order(1)


def test_speed_correction_credits_stretches_at_their_probe_speed():
    probe = speed.SpeedProbe()
    half = 2 * speed.NOMINAL_S  # a probe at half the nominal speed
    probe.samples = [(0.5, speed.NOMINAL_S), (1.0, half), (3.0, speed.NOMINAL_S)]
    total, probes = probe.corrected(1.0 - 0.25, 2.0)
    # 0.25 s before the probe at 1.0 counts at half speed, and so does the
    # tail after it; the probe's own time is left out
    assert total == pytest.approx((0.25 + (2.0 - 1.0 - half)) / 2)
    assert probes == half
    assert probe.corrected(5.0, 6.0) == (pytest.approx(1.0), 0.0)  # last earlier probe
