"""Tests of the benchmark itself, on its --quick sizes.

Run from the repository root:

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import os
import shutil
import subprocess
import sys
from collections import defaultdict

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)


def run_quick(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_quick_run_prints_every_metric_with_its_unit(workload, trace):
    proc = run_quick(workload, trace)
    assert proc.returncode == 0, proc.stderr
    *_, report_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    report = json.loads(report_line)["report"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], report["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCH["per_layer" if trace else "end_to_end"]
    assert {n: v["unit"] for n, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if trace:
        # the traced replay ran and matched the program row for row
        assert result["metrics"]["decoders.trials"]["value"] > 0
        assert report["problems"] == []


@pytest.mark.parametrize("workload", ["decode-positive-rate", "learn-d6"])
def test_traced_replay_flags_a_row_the_program_did_not_produce(workload, monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "src"))
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    import bench

    cmd, cfg = bench.subsweeps(workload, 3, quick=True)[0][0]
    rows = bench.run_sweep_fn(cmd)(bench.expcli.parse_spec(cfg))
    replay = bench.replay_learn_call if cmd == "learn" else bench.replay_decode_call
    assert replay(bench.Tracer(), defaultdict(float), cfg, rows) == []
    key = "loss_avg" if cmd == "learn" else "error_count"
    rows[0] = {**rows[0], key: rows[0][key] + 1}
    mismatches = replay(bench.Tracer(), defaultdict(float), cfg, rows)
    assert len(mismatches) == 1 and mismatches[0].startswith(rows[0]["experiment_id"])


def test_run_without_the_package_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_quick("decode-zero-rate", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
