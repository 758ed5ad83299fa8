"""Tests for trace persistence and the command-line interface."""

import json

import pytest

from repro.__main__ import main as cli_main
from repro.experiments.traces import record_trace
from repro.hardware import SimConfig, simulate_trace
from repro.runtime.trace import READ, SYNC, WRITE, Trace, TraceEvent
from repro.workloads import get_benchmark


class TestTracePersistence:
    def small_trace(self):
        return Trace(
            per_thread={
                1: [
                    TraceEvent(WRITE, 0x1000, 8, gap=3),
                    TraceEvent(SYNC, gap=1, sync_name="Release"),
                    TraceEvent(READ, 0x1000, 4, private=True, gap=0),
                ],
                2: [TraceEvent(READ, 0x2000, 1, gap=7)],
            }
        )

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "t.trace"
        original = self.small_trace()
        original.save(path)
        loaded = Trace.load(path)
        assert loaded.per_thread == original.per_thread

    def test_simulation_identical_after_roundtrip(self, tmp_path):
        trace = record_trace(get_benchmark("fft"), scale="test")
        path = tmp_path / "fft.trace"
        trace.save(path)
        loaded = Trace.load(path)
        a = simulate_trace(trace, SimConfig(detection=True))
        b = simulate_trace(loaded, SimConfig(detection=True))
        assert a.cycles == b.cycles


class TestCli:
    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "lu_cb" in out and "canneal" in out

    def test_bench(self, capsys):
        assert cli_main(["bench", "swaptions", "--scale", "test"]) == 0
        out = capsys.readouterr().out
        assert "full CLEAN slowdown" in out

    def test_bench_racy(self, capsys):
        assert cli_main(["bench", "canneal", "--scale", "test", "--racy"]) == 0
        out = capsys.readouterr().out
        assert "race =" in out

    def test_trace_and_simulate(self, tmp_path, capsys):
        out_file = str(tmp_path / "trace.trace")
        assert cli_main(["trace", "swaptions", out_file]) == 0
        assert cli_main(["simulate", out_file]) == 0
        out = capsys.readouterr().out
        assert "slowdown" in out

    def test_simulate_precise_unit(self, tmp_path, capsys):
        out_file = str(tmp_path / "trace.trace")
        cli_main(["trace", "swaptions", out_file])
        assert cli_main(["simulate", out_file, "--unit", "precise"]) == 0

    def test_check_torn(self, capsys):
        assert cli_main(["check", "torn", "--seeds", "3"]) == 0
        out = capsys.readouterr().out
        assert "stopped 3/3" in out

    def test_unknown_experiment(self, capsys):
        assert cli_main(["experiment", "fig99"]) == 2

    def test_experiment_fig7(self, capsys):
        assert cli_main(["experiment", "fig7"]) == 0
        out = capsys.readouterr().out
        assert "lu_cb" in out


class TestInputErrors:
    """``analyze`` and ``simulate`` answer an unreadable trace with one
    ``error:`` line on stderr and exit 2; ``analyze`` keeps 1 for a
    race and 0 for a clean trace."""

    @pytest.fixture(scope="class")
    def traces(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("inputs")
        paths = {name: root / f"{name}.trace" for name in ("racy", "clean")}
        for name, path in paths.items():
            argv = ["trace", "dedup", str(path), "--scale", "test"]
            assert cli_main(argv + (["--racy"] if name == "racy" else [])) == 0
        raw = paths["clean"].read_bytes()
        paths["empty"] = root / "empty.trace"
        paths["empty"].write_bytes(b"")
        paths["list"] = root / "list.trace"
        paths["list"].write_text("[1]")
        paths["jsonl"] = root / "old.jsonl"
        paths["jsonl"].write_text(
            json.dumps({"tid": 0, "events": [["W", 4096, 8, 0, 0, ""]]}) + "\n"
        )
        paths["header_cut"] = root / "header_cut.trace"
        paths["header_cut"].write_bytes(raw[:20])
        paths["payload_cut"] = root / "payload_cut.trace"
        paths["payload_cut"].write_bytes(raw[: len(raw) // 2])
        paths["missing"] = root / "missing.trace"
        paths["no_events"] = root / "no_events.trace"
        Trace(per_thread={}).save(paths["no_events"])
        return paths

    @pytest.mark.parametrize(
        "name", ["empty", "list", "jsonl", "header_cut", "payload_cut",
                 "missing"],
    )
    @pytest.mark.parametrize("json_out", [False, True])
    def test_analyze_unreadable_exits_2(self, traces, capsys, name, json_out):
        argv = ["analyze", str(traces[name])] + (["--json"] if json_out else [])
        assert cli_main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    def test_analyze_verdict_codes_unchanged(self, traces, capsys):
        assert cli_main(["analyze", str(traces["racy"])]) == 1
        assert "RACE:" in capsys.readouterr().out
        assert cli_main(["analyze", str(traces["clean"]), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["racy"] is False

    @pytest.mark.parametrize("name", ["no_events", "empty", "header_cut"])
    def test_simulate_unreadable_exits_2(self, traces, capsys, name):
        assert cli_main(["simulate", str(traces[name])]) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "slowdown" not in captured.out
