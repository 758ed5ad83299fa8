"""Smoke self-test of the layer ledger: every workload, briefly, both modes.

    PYTHONPATH=src python -m pytest layerbench/test_bench_layers.py

Each workload runs for about two seconds on small inputs (``--smoke``),
once untraced and once traced; about two minutes in all on two CPUs.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "layerbench" / "bench_layers.py"), *args],
        cwd=str(cwd), capture_output=True, text=True, timeout=600,
    )


def _run(workload: str, trace: int) -> dict:
    out = _bench("--workload", workload, "--seed", "7", "--seconds", "2",
                 "--trace", str(trace), "--smoke")
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def _units(result: dict) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    result = _run(workload, 0)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert _units(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_layer_and_tiles_requests(workload):
    result = _run(workload, 1)
    # correct covers zero mismatches, identical verdicts with tracing on
    # and off, and (service workloads) the phase-coverage check.
    assert result["correct"] and result["failed"] == 0
    assert _units(result) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["analysis.s"] > 0
    assert metrics["trace.overhead"] > 0
    if workload.startswith("svc_"):
        # Worker-side span files were merged with the daemon's.
        assert metrics["worker.analyze_ms.p50"] > 0
        assert metrics["request.n"] >= 1
        assert abs(metrics["request.coverage"] - 1) <= 0.05
        assert metrics["fsync.per_verdict"] >= 2


def _results(path: Path, workload: str, latencies: list,
             invalid: int = 0) -> str:
    runs = [
        {"workload": workload, "trace": 0, "tag": "", "valid": i >= invalid,
         "result": {"correct": True, "attempted": 10, "failed": 0,
                    "metrics": {m["name"]: {"value": 100.0, "unit": m["unit"]}
                                for m in SPEC["end_to_end"]}}}
        for i in range(len(latencies))
    ]
    for run, latency in zip(runs, latencies):
        run["result"]["metrics"]["verdict_p50_ms"]["value"] = latency
    path.write_text(json.dumps({"runs": runs}))
    return str(path)


def test_compare_passes_agreement_and_flags_regressions(tmp_path):
    base = _results(tmp_path / "a.json", "svc_small", [10.0, 10.1, 9.9, 10.0])
    same = _results(tmp_path / "b.json", "svc_small", [10.0, 9.95, 10.05, 10.1])
    slow = _results(tmp_path / "c.json", "svc_small", [14.0, 14.1, 13.9, 14.0])
    assert _bench("compare", base, same).returncode == 0
    out = _bench("compare", base, slow)
    assert out.returncode == 1
    assert "regressed" in out.stdout


def test_compare_leaves_out_invalid_runs(tmp_path):
    base = _results(tmp_path / "a.json", "svc_small", [10.0, 10.1, 9.9, 10.0])
    # Three late open loops read slow; only the two valid runs count.
    late = _results(tmp_path / "b.json", "svc_small",
                    [14.0, 14.1, 13.9, 10.0, 10.05], invalid=3)
    out = _bench("compare", base, late)
    assert out.returncode == 0, out.stdout
    assert "3 invalid run(s) left out" in out.stdout


def test_capacity_window_ends_at_the_last_send_when_the_plan_runs_out():
    from bench_layers import capacity_window
    from loadgen import Request

    sent = [Request(b"", "clean", 1, "small", post_sent=t, seen=t + 0.5)
            for t in (1.0, 2.0, 3.0)]
    phases = {"start": 0.0, "end": 10.0, "saturation_sent": sent}
    # Warm-up is the first 20% of the phase.
    assert capacity_window(phases, planned=5) == (2.0, 10.0)
    assert capacity_window(phases, planned=3) == (2.0, 3.0)


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "layerbench",
                    ignore=shutil.ignore_patterns(".cache", "__pycache__"))
    out = _bench("--workload", "svc_small", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert not out.stdout.strip()
