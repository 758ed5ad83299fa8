"""Tests for trace persistence and the command-line interface."""

import json
import struct
import zlib

import pytest

from repro.__main__ import main as cli_main
from repro.analysis import analyze_trace
from repro.experiments.traces import record_trace
from repro.hardware import SimConfig, simulate_trace
from repro.runtime.trace import (
    ADDRESS_LIMIT,
    READ,
    SYNC,
    TRACE_MAGIC,
    WRITE,
    Trace,
    TraceEvent,
    open_trace,
    verify_trace_bytes,
)
from repro.workloads import get_benchmark


def raw_trace(per_thread):
    """A CRC-valid, uncompressed binary trace built byte by byte, so it
    can hold records the writer refuses.  ``per_thread`` maps a tid to
    its ``(kind code, address, size, sync name)`` records."""
    data = TRACE_MAGIC + bytes([1])
    for tid, records in per_thread.items():
        names = [name for *_, name in records if name]
        payload = struct.pack("<H", len(names))
        for name in names:
            payload += struct.pack("<H", len(name)) + name.encode()
        for code, address, size, name in records:
            index = names.index(name) if name else 0xFFFF
            payload += struct.pack("<BQIIH", code, address, size, 0, index)
        stored = payload + struct.pack("<I", zlib.crc32(payload))
        data += struct.pack(
            "<HBIII", tid, 0x02, len(records), len(payload), len(stored)
        ) + stored
    return data


def straddling_trace(address=ADDRESS_LIMIT - 4, size=8):
    """T0 spawns T1, then writes ``size`` bytes at ``address``; T1 writes
    the byte at 2**63."""
    return raw_trace({
        0: [(2, 1, 0, "Spawn:1"), (1, address, size, "")],
        1: [(1, ADDRESS_LIMIT, 1, "")],
    })


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
        paths["past_2_63"] = root / "past_2_63.trace"
        paths["past_2_63"].write_bytes(straddling_trace())
        # Traces no replay can follow: a tid the epoch layout cannot
        # hold, a join of an absent thread, a thread spawning itself.
        write = TraceEvent(WRITE, 0x1000, 8)
        join_7 = TraceEvent(SYNC, 1, sync_name="Join:7")
        spawn_0 = TraceEvent(SYNC, 1, sync_name="Spawn:0")
        unreplayable = {
            "tid_4000": {4000: [write]},
            "join_absent": {0: [write, join_7]},
            "spawn_self": {0: [spawn_0, write]},
        }
        for name, per_thread in unreplayable.items():
            paths[name] = root / f"{name}.trace"
            Trace(per_thread=per_thread).save(paths[name])
        return paths

    @pytest.mark.parametrize(
        "name", ["empty", "list", "jsonl", "header_cut", "payload_cut",
                 "missing", "past_2_63", "tid_4000", "join_absent",
                 "spawn_self"],
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


class TestAddressBound:
    """Every byte an access touches lies below 2**63: the replay keeps
    addresses in signed 64-bit columns, and an access reaching past that
    once wrapped to a negative address in batch mode only."""

    def test_decoders_reject_an_access_past_2_63(self, tmp_path):
        data = straddling_trace()
        with pytest.raises(ValueError, match="corrupt trace.*past 2"):
            verify_trace_bytes(data)
        path = tmp_path / "past.trace"
        path.write_bytes(data)
        with pytest.raises(ValueError, match="past 2"):
            Trace.load(path)
        trace = open_trace(path)
        with pytest.raises(ValueError, match="past 2"):
            list(trace.iter_chunks(0))
        for mode in ("scalar", "batch"):
            with pytest.raises(ValueError, match="past 2"):
                analyze_trace(str(path), mode=mode)

    def test_an_access_ending_at_2_63_is_admitted(self, tmp_path):
        data = raw_trace({0: [(1, ADDRESS_LIMIT - 8, 8, "")]})
        assert verify_trace_bytes(data) == 1
        path = tmp_path / "edge.trace"
        path.write_bytes(data)
        assert Trace.load(path).per_thread[0][0].address == ADDRESS_LIMIT - 8
        for mode in ("scalar", "batch"):
            assert not analyze_trace(str(path), mode=mode).racy

    def test_writer_refuses_an_access_past_2_63(self, tmp_path):
        past = TraceEvent(WRITE, ADDRESS_LIMIT - 4, 8)
        trace = Trace(per_thread={0: [past]})
        with pytest.raises(ValueError, match="past 2"):
            trace.save(tmp_path / "past.trace")
