"""Tests for trace persistence and the command-line interface."""

import hashlib
import json
import os
import struct
import subprocess
import sys
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.__main__ import main as cli_main
from repro.analysis import _hot_sites, _Plan, analyze_trace
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

    @staticmethod
    def pinned_trace():
        """Several threads (one empty), sync names, private bits, the
        widest access ending at 2**63 and the widest gap."""
        return Trace(per_thread={
            0: [TraceEvent(SYNC, address=1, gap=3, sync_name="Spawn:1"),
                TraceEvent(SYNC, address=2, sync_name="Spawn:2")]
            + [TraceEvent(WRITE, 0x1000 + 8 * i, 8, private=i % 4 == 0,
                          gap=i % 3) for i in range(11)]
            + [TraceEvent(SYNC, address=5, sync_name="Release:L"),
               TraceEvent(SYNC, address=6, sync_name="Join:1")],
            1: [TraceEvent(SYNC, address=3, sync_name="Acquire:L")]
            + [TraceEvent(READ, 0x1000 + 4 * i, 4, gap=7 * i) for i in range(9)]
            + [TraceEvent(SYNC, address=4, gap=1, sync_name="Release:L")],
            2: [],
            7: [TraceEvent(WRITE, ADDRESS_LIMIT - 64, 64, private=True,
                           gap=(1 << 32) - 1)],
        })

    @pytest.mark.parametrize("options, digest", [
        (dict(compress=True, crc=True, chunk_events=4),
         "a5304c0656f917c8af90fbb52faa594231962c9179d8425ff21212087c23b04b"),
        (dict(compress=True, crc=False, chunk_events=4),
         "74dddd06f74ba90677121e87004ef7dd5edb2ac5d643f52e25c898e7b18a266e"),
        (dict(compress=False, crc=True, chunk_events=4),
         "da14ffd4a12a4add786e759552e4e9d631ce88704e9ecaa0a1163027b23f43cc"),
        (dict(compress=False, crc=False, chunk_events=4),
         "f2dbbc870d2e649c0cffe5651855b89a658f8253cecea0480cea0bfc318feb11"),
        (dict(),
         "952aea7b1e7baa49f421436e5c598ba4a88f05567966c07a0508ad9edabd6242"),
    ])
    def test_saved_bytes_are_pinned(self, tmp_path, options, digest):
        # The format is a contract: re-saving a loaded trace must give
        # back the file's bytes (the layer ledger's upload variants
        # depend on it), so the writer's output may not drift.
        path = tmp_path / "pinned.trace"
        self.pinned_trace().save(path, **options)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
        loaded = Trace.load(path)
        assert loaded.per_thread == self.pinned_trace().per_thread
        again = tmp_path / "again.trace"
        loaded.save(again, **options)
        assert again.read_bytes() == path.read_bytes()

    def test_failed_save_leaves_no_trace(self, tmp_path):
        # Thread 1's chunk encodes; thread 2's zero-byte access does not.
        bad = Trace(per_thread={
            1: [TraceEvent(WRITE, 64, 8)], 2: [TraceEvent(WRITE, 64, 0)],
        })
        path = tmp_path / "t.trace"
        with pytest.raises(ValueError, match="access size"):
            bad.save(path)
        assert list(tmp_path.iterdir()) == []
        self.small_trace().save(path)
        before = path.read_bytes()
        with pytest.raises(ValueError, match="access size"):
            bad.save(path)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("per_thread, field", [
        ({1 << 16: [TraceEvent(WRITE, 0x1000, 8)]}, "thread id"),
        ({0: [TraceEvent(WRITE, 0x1000, 8, gap=1 << 32)]}, "gap"),
        ({0: [TraceEvent(SYNC, 1 << 64, sync_name="Acquire:L")]},
         "sync order"),
        ({0: [TraceEvent(WRITE, -8, 8)]}, "address"),
        ({0: [TraceEvent(SYNC, 1, sync_name="L" * (1 << 16))]}, "sync name"),
    ])
    def test_writer_names_a_field_its_record_cannot_hold(
        self, tmp_path, per_thread, field
    ):
        path = tmp_path / "t.trace"
        with pytest.raises(ValueError, match=field):
            Trace(per_thread=per_thread).save(path)
        assert not path.exists()


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
        spawn_1 = TraceEvent(SYNC, 2, sync_name="Spawn:1")
        acquire = TraceEvent(SYNC, 1, sync_name="Acquire:L")
        read = TraceEvent(READ, 0x1000, 8)
        unreplayable = {
            "tid_4000": {4000: [write]},
            "join_absent": {0: [write, join_7]},
            "spawn_self": {0: [spawn_0, write]},
            # Threads that no Spawn starts, that sync while not running,
            # or that are spawned while running or joined while not.
            "unspawned_root_1": {1: [write]},
            "unspawned_3": {0: [write], 3: [write]},
            "unspawned_2": {0: [], 2: [read]},
            "sync_before_spawn": {0: [spawn_1], 1: [acquire, write]},
            "sync_after_join": {
                0: [TraceEvent(SYNC, 1, sync_name="Spawn:1"),
                    TraceEvent(SYNC, 2, sync_name="Join:1")],
                1: [TraceEvent(SYNC, 3, sync_name="Acquire:L"), write],
            },
            "spawn_twice": {
                0: [TraceEvent(SYNC, 1, sync_name="Spawn:1"), spawn_1],
                1: [write],
            },
            "join_before_spawn": {
                0: [TraceEvent(SYNC, 1, sync_name="Join:1"), spawn_1],
                1: [write],
            },
            # A barrier episode that trips after one arriver was joined.
            "depart_after_join": {
                0: [spawn_1, TraceEvent(SYNC, 4, sync_name="Join:1"),
                    TraceEvent(SYNC, 5, sync_name="BarrierWait:B@0")],
                1: [write, TraceEvent(SYNC, 3, sync_name="BarrierWait:B@0")],
            },
            # Commit orders that go back within a thread.
            "orders_decrease": {
                0: [TraceEvent(SYNC, 2, sync_name="Acquire:L"),
                    TraceEvent(SYNC, 1, sync_name="Release:L")],
            },
        }
        for name, per_thread in unreplayable.items():
            paths[name] = root / f"{name}.trace"
            Trace(per_thread=per_thread).save(paths[name])
        return paths

    @pytest.mark.parametrize(
        "name", ["empty", "list", "jsonl", "header_cut", "payload_cut",
                 "missing", "past_2_63", "tid_4000", "join_absent",
                 "spawn_self", "unspawned_root_1", "unspawned_3",
                 "unspawned_2", "sync_before_spawn", "sync_after_join",
                 "spawn_twice", "join_before_spawn", "depart_after_join",
                 "orders_decrease"],
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

    @pytest.mark.parametrize("json_out", [False, True])
    def test_analyze_negative_hot_sites_exits_2(self, traces, capsys, json_out):
        argv = ["analyze", str(traces["clean"]), "--hot-sites", "-3"]
        assert cli_main(argv + (["--json"] if json_out else [])) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: hot_sites must be 0 or more, not -3"
        ]

    def test_serve_negative_hot_sites_exits_2(self, tmp_path, capsys):
        spool = tmp_path / "spool"
        argv = ["serve", "--hot-sites", "-1", "--spool", str(spool),
                "--port", "0", "--for", "1"]
        assert cli_main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "error: hot_sites must be 0 or more, not -1"
        ]
        assert not spool.exists()

    def test_library_rejects_negative_hot_sites(self, traces):
        for mode in ("scalar", "batch"):
            with pytest.raises(ValueError, match="hot_sites"):
                analyze_trace(str(traces["clean"]), mode=mode, hot_sites=-1)
            assert analyze_trace(
                str(traces["clean"]), mode=mode, hot_sites=0
            ).hot_sites == []

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


#: Every name the three packages export; a name may join, never leave.
_EXPORTED = {
    "repro": """
        CleanDetector CleanError CleanMonitor MetricsRegistry
        RaceException RawRaceException TelemetryMonitor Tracer
        WawRaceException __version__ clean_stack run_clean
    """.split(),
    "repro.runtime": """
        Acquire AtomicRMW Barrier BarrierWait Compute CondBroadcast
        CondSignal CondWait Condition ConflictEdge ExecutionMonitor
        ExecutionResult ExplorationStats IsolationOracle Join Lock
        Op Output Program Quarantined READ RandomPolicy Read
        RecordingPolicy RecoveryError RecoveryEvent RecoveryPolicy
        RecoveryReport RegionSerializabilityOracle Release
        ReplayDivergence ReplayPolicy RoundRobinPolicy SYNC
        Scheduler SchedulingPolicy ScriptedPolicy SemPost SemWait
        SemanticViolation Semaphore SfrTracker SharedMemory Spawn
        StreamingTrace SyncCommit ThreadStatus Trace TraceEvent
        TraceRecorder WRITE Write WriteAtomicityOracle explore
        explore_results open_trace verify_trace verify_trace_bytes
    """.split(),
    "repro.obs": """
        Collector Counter FORENSICS_FORMAT_VERSION Gauge Histogram
        JsonlExporter MetricsRegistry Objective SLO_FORMAT_VERSION
        SPANS_FORMAT_VERSION SiteProfiler Span StatusFile
        TIMELINE_FORMAT_VERSION TIMESERIES_FORMAT_VERSION
        TelemetryContext TelemetryMonitor TelemetryServer
        TimeSeriesStore TimelineRecorder TimelineSink Timer Tracer
        build_hb_graph chrome_trace current_context current_registry
        current_sites current_timeline current_tracer default_slos
        evaluate_slos hb_graph_dot labeled_name load_slo_config
        prom_name publish_detector_metrics publish_sim_metrics
        read_jsonl render_dashboard render_html render_prom
        render_slo_text split_labels telemetry_scope
        validate_chrome_trace write_forensics
    """.split(),
}

#: Live-run modules (and packages) that offline analysis must not load.
_LIVE_ONLY = (
    "repro.runtime.scheduler", "repro.runtime.ops", "repro.runtime.program",
    "repro.runtime.sync", "repro.determinism", "repro.obs.timeline",
    "repro.obs.sites", "repro.obs.tracer",
)


class TestLazyImports:
    """The package ``__init__`` modules resolve their re-exports on
    first access, so offline analysis imports none of the service,
    telemetry-server or exploration stack."""

    def test_analysis_loads_no_service_stack(self):
        src = os.path.dirname(os.path.dirname(repro.__file__))
        code = (
            "import sys, repro.analysis\n"
            "print([m for m in ('repro.service', 'repro.obs.serve', "
            "'http.server', 'repro.runtime.explore') if m in sys.modules])"
        )
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, check=True,
        ).stdout
        assert out.strip() == "[]"

    def test_analysis_loads_no_live_runtime(self, tmp_path):
        """Neither ``import repro.analysis`` nor ``repro analyze`` loads
        the scheduler, the Kendo gate or the telemetry stack: the
        detector adapter imports them where a live run calls them."""
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        path = tmp_path / "t.trace"
        Trace(per_thread={0: [
            TraceEvent(WRITE, 0x1000, 8), TraceEvent(READ, 0x1000, 8),
            TraceEvent(WRITE, 0x1010, 4), TraceEvent(READ, 0x1010, 4),
        ]}).save(path)
        code = "import sys, repro.analysis\nprint(' '.join(sys.modules))"
        imported = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, check=True,
        ).stdout.split()
        # Each line of -X importtime ends with the module's name.
        cli = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "repro", "analyze",
             str(path), "--json"],
            env=env, capture_output=True, text=True, check=True,
        )
        assert json.loads(cli.stdout)["accesses"] == 4
        analyzed = [
            line.rpartition("|")[2].strip()
            for line in cli.stderr.splitlines()
            if line.startswith("import time:")
        ]
        assert "repro.analysis" in imported and "repro.analysis" in analyzed
        for modules in (imported, analyzed):
            assert [m for m in modules if m.startswith(_LIVE_ONLY)] == []

    def test_monitor_protocol_and_exports_kept(self):
        import repro.obs
        import repro.runtime
        from repro.runtime import monitor, scheduler

        assert scheduler.ExecutionMonitor is repro.runtime.ExecutionMonitor
        assert monitor.ExecutionMonitor is repro.runtime.ExecutionMonitor
        for package in (repro, repro.runtime, repro.obs):
            assert set(_EXPORTED[package.__name__]) <= set(package.__all__)

    def test_reexports_resolve(self):
        import repro.obs
        import repro.runtime
        from repro.runtime import explore
        from repro.runtime.explore import explore as defined

        assert explore is defined and repro.runtime.explore is defined
        for package in (repro, repro.runtime, repro.obs):
            for name in package.__all__:
                assert getattr(package, name) is not None
            assert set(package.__all__) <= set(dir(package))


def _hot_sites_reference(per_thread, top_k, race_addr):
    """The hot-site ranking in plain Python: per shared address, its
    reads, writes and threads, by (-accesses, address)."""
    reads, writes, threads = {}, {}, {}
    for tid, events in per_thread.items():
        for event in events:
            if event.kind == SYNC or event.private:
                continue
            counts = writes if event.kind == WRITE else reads
            counts[event.address] = counts.get(event.address, 0) + 1
            threads.setdefault(event.address, set()).add(tid)
    ranked = sorted(
        threads, key=lambda a: (-reads.get(a, 0) - writes.get(a, 0), a)
    )
    return [
        {
            "address": a,
            "accesses": reads.get(a, 0) + writes.get(a, 0),
            "reads": reads.get(a, 0),
            "writes": writes.get(a, 0),
            "threads": len(threads[a]),
            "racy": a == race_addr,
        }
        for a in ranked[:top_k]
    ]


#: (is_write, address, size, private): few addresses, so counts tie.
_site_events = st.lists(
    st.tuples(
        st.booleans(), st.sampled_from([0x1000 + 8 * i for i in range(6)]),
        st.sampled_from([1, 4, 8]), st.integers(0, 4).map(lambda d: d == 0),
    ),
    max_size=30,
)


class TestHotSites:
    """The vectorized hot-site ranking equals the plain-Python one."""

    @settings(max_examples=60, deadline=None)
    @given(
        threads=st.lists(_site_events, min_size=1, max_size=4),
        top_k=st.integers(1, 8),
        racy=st.booleans(),
    )
    def test_equals_reference(self, threads, top_k, racy):
        per_thread = {
            tid: [TraceEvent(WRITE if w else READ, a, n, private=p)
                  for w, a, n, p in events]
            for tid, events in enumerate(threads)
        }
        per_thread[0][:0] = [
            TraceEvent(SYNC, tid, sync_name=f"Spawn:{tid}")
            for tid in range(1, len(threads))
        ]
        race_addr = 0x1008 if racy else None
        race = {"address": race_addr} if racy else None
        plan = _Plan(Trace(per_thread=per_thread))
        assert _hot_sites(plan, top_k, race) == _hot_sites_reference(
            per_thread, top_k, race_addr
        )
