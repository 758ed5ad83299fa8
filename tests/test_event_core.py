"""Tests for the unified access-event core.

Four groups, matching the hot-path refactor's guarantees:

1. **Stable sync keys** — per-sync vector clocks are keyed by
   :func:`~repro.core.events.stable_sync_id`, never object identity, so
   a reconstructed lock (record/replay, pickling) keeps its
   happens-before history.
2. **Binary trace format** — round trips, rejection of files without
   the magic bytes, and the streaming reader's equivalence to the
   in-memory one.
3. **Verdict invariance** — the live CLEAN stack, with the same-epoch
   filter on and off, raises a race exception iff the full
   vector-clock detector sees a WAW or RAW race in the same execution,
   and names the first one.
4. **Offline analysis equivalence** — scalar and ``check_block`` batch
   trace analysis agree on every verdict, racing pair and ``clean.*``
   counter total, and race-free replays are counter-exact
   against the live run that recorded them.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import analyze_trace
from repro.clean import CleanMonitor, clean_stack
from repro.core import CleanDetector
from repro.core.events import stable_sync_id
from repro.determinism import KendoGate
from repro.determinism.counters import PreciseCounter
from repro.hardware import SimConfig, simulate_trace
from repro.obs import MetricsRegistry
from repro.runtime import (
    READ,
    SYNC,
    WRITE,
    Lock,
    Program,
    RandomPolicy,
    StreamingTrace,
    Trace,
    TraceEvent,
    TraceRecorder,
    open_trace,
)
from repro.workloads.randprog import make_random_program
from tests._oracle import (
    Oracle,
    OracleMonitor,
    assert_names_first_race,
    race_fields,
)

MAX_THREADS = 8


# ---------------------------------------------------------------------------
# 1. Stable sync keys
# ---------------------------------------------------------------------------


class TestStableSyncId:
    def test_named_object_maps_to_its_name(self):
        assert stable_sync_id(Lock("shared")) == "shared"

    def test_two_instances_same_name_collapse(self):
        assert stable_sync_id(Lock("shared")) == stable_sync_id(Lock("shared"))

    def test_tuple_maps_elementwise(self):
        barrier_like = Lock("b1")  # anything with a .name
        assert stable_sync_id((barrier_like, 3)) == ("b1", 3)

    def test_plain_hashables_pass_through(self):
        assert stable_sync_id("lock") == "lock"
        assert stable_sync_id(17) == 17


class TestLockKeyRegression:
    """A reconstructed lock object must carry the same vector clock.

    Before the event-core refactor the detector keyed ``_lock_vcs`` by
    the lock *object*, so releasing on one ``Lock("shared")`` instance
    and acquiring on another (as replay of a persisted trace does)
    silently dropped the happens-before edge and reported a phantom
    race.
    """

    def test_edge_survives_lock_reconstruction(self):
        det = CleanDetector(max_threads=4)
        t0 = det.spawn_root()
        t1 = det.fork(t0)
        det.check_write(t0, 0x100, 8)
        det.release(t0, Lock("shared"))
        # A *different* object with the same stable name: the edge must
        # still be found, so t1's write is ordered after t0's.
        det.acquire(t1, Lock("shared"))
        det.check_write(t1, 0x100, 8)  # must not raise

    def test_identity_keying_would_have_raced(self):
        from repro.core.exceptions import WawRaceException

        det = CleanDetector(max_threads=4)
        t0 = det.spawn_root()
        t1 = det.fork(t0)
        det.check_write(t0, 0x100, 8)
        det.release(t0, Lock("shared"))
        det.acquire(t1, Lock("other"))  # genuinely different lock
        with pytest.raises(WawRaceException):
            det.check_write(t1, 0x100, 8)

    def test_one_clock_per_name_not_per_instance(self):
        det = CleanDetector(max_threads=4)
        t0 = det.spawn_root()
        det.release(t0, Lock("shared"))
        det.release(t0, Lock("shared"))
        assert list(det._lock_vcs) == ["shared"]


# ---------------------------------------------------------------------------
# 2. Binary trace format
# ---------------------------------------------------------------------------


def small_trace():
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


class TestBinaryTraceRoundTrip:
    @pytest.mark.parametrize("compress", [True, False])
    def test_roundtrip(self, tmp_path, compress):
        path = tmp_path / "t.trace"
        original = small_trace()
        original.save(path, compress=compress)
        loaded = Trace.load(path)
        assert loaded.per_thread == original.per_thread

    def test_roundtrip_empty_trace(self, tmp_path):
        path = tmp_path / "empty.trace"
        Trace(per_thread={}).save(path)
        assert Trace.load(path).per_thread == {}

    def test_empty_thread_stays_visible(self, tmp_path):
        path = tmp_path / "t.trace"
        original = Trace(per_thread={3: [], 5: [TraceEvent(WRITE, 0x10, 1)]})
        original.save(path)
        loaded = Trace.load(path)
        assert loaded.thread_ids() == [3, 5]
        assert loaded.per_thread[3] == []

    def test_chunking_preserves_order(self, tmp_path):
        events = [TraceEvent(WRITE, 0x1000 + i, 1, gap=i % 5) for i in range(50)]
        path = tmp_path / "t.trace"
        Trace(per_thread={1: events}).save(path, chunk_events=7)
        assert Trace.load(path).per_thread[1] == events

    def test_every_extension_gets_binary(self, tmp_path):
        from repro.runtime.trace import TRACE_MAGIC

        for name in ("t.jsonl", "t.trace", "t"):
            small_trace().save(tmp_path / name)
            assert (tmp_path / name).read_bytes().startswith(TRACE_MAGIC)

    def test_magic_autodetect_ignores_extension(self, tmp_path):
        # The loader trusts the magic bytes, not the file name: a trace
        # under a .jsonl name loads, and a JSON-lines file (the format
        # of older recorders) under a .trace name is rejected.
        misnamed_binary = tmp_path / "renamed.jsonl"
        small_trace().save(misnamed_binary)
        assert Trace.load(misnamed_binary).per_thread == small_trace().per_thread

        misnamed_jsonl = tmp_path / "renamed.trace"
        misnamed_jsonl.write_text(
            '{"tid": 1, "events": [["W", 4096, 8, 0, 3, ""]]}\n'
        )
        with pytest.raises(ValueError, match="not a binary trace"):
            Trace.load(misnamed_jsonl)

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("kind,address,size\nW,4096,8\n")
        with pytest.raises(ValueError, match="not a binary trace"):
            Trace.load(path)
        with pytest.raises(ValueError, match="not a binary trace"):
            open_trace(path)

    def test_unsupported_version_rejected(self, tmp_path):
        from repro.runtime.trace import TRACE_MAGIC

        path = tmp_path / "future.trace"
        path.write_bytes(TRACE_MAGIC + bytes([99]))
        with pytest.raises(ValueError):
            Trace.load(path)


class TestStreamingTrace:
    def test_open_trace_dispatches_by_magic(self, tmp_path):
        binary = tmp_path / "t.jsonl"
        small_trace().save(binary)
        assert isinstance(open_trace(binary), StreamingTrace)
        empty = tmp_path / "empty.trace"
        empty.write_bytes(b"")
        with pytest.raises(ValueError, match="shorter than its header"):
            open_trace(empty)

    def test_matches_in_memory_load(self, tmp_path):
        path = tmp_path / "t.trace"
        original = small_trace()
        original.save(path, chunk_events=2)
        streaming = StreamingTrace(path)
        assert streaming.thread_ids() == original.thread_ids()
        assert streaming.total_events == original.total_events
        for tid in original.thread_ids():
            assert list(streaming.iter_events(tid)) == original.per_thread[tid]

    def test_iter_events_is_reiterable(self, tmp_path):
        path = tmp_path / "t.trace"
        small_trace().save(path)
        streaming = StreamingTrace(path)
        first = list(streaming.iter_events(1))
        second = list(streaming.iter_events(1))
        assert first == second and first

    def test_interleaved_iterators_are_independent(self, tmp_path):
        path = tmp_path / "t.trace"
        small_trace().save(path, chunk_events=1)
        streaming = StreamingTrace(path)
        it1, it2 = iter(streaming.iter_events(1)), iter(streaming.iter_events(2))
        a = next(it1)
        b = next(it2)
        assert a == small_trace().per_thread[1][0]
        assert b == small_trace().per_thread[2][0]
        assert next(it1) == small_trace().per_thread[1][1]

    def test_simulator_accepts_streaming_trace(self, tmp_path):
        from repro.experiments.traces import record_trace
        from repro.workloads import get_benchmark

        trace = record_trace(get_benchmark("swaptions"), scale="test")
        path = tmp_path / "sw.trace"
        trace.save(path)
        in_memory = simulate_trace(trace, SimConfig(detection=True))
        streamed = simulate_trace(open_trace(path), SimConfig(detection=True))
        assert streamed.cycles == in_memory.cycles


# ---------------------------------------------------------------------------
# 3. Live verdicts against the vector-clock oracle
# ---------------------------------------------------------------------------


def run_stack(program, sseed, fastpath):
    """One CLEAN execution with the same-epoch filter on or off."""
    monitors, clean, _gate = clean_stack(
        max_threads=MAX_THREADS, fastpath=fastpath
    )
    result = program.run(
        policy=RandomPolicy(sseed),
        monitors=monitors,
        max_threads=MAX_THREADS,
        counter_cost=PreciseCounter(),
    )
    return result, clean


def run_oracle(program, sseed):
    """The same execution under the vector-clock oracle, which records
    every race and never stops the run; Kendo orders the syncs as in
    :func:`run_stack`, so the two share every step up to CLEAN's race.
    The oracle is fed by its own adapter, not by ``CleanMonitor``."""
    oracle = Oracle(max_threads=MAX_THREADS)
    program.run(
        policy=RandomPolicy(sseed),
        monitors=[OracleMonitor(oracle), KendoGate()],
        max_threads=MAX_THREADS,
        counter_cost=PreciseCounter(),
    )
    return oracle.records


program_seeds = st.integers(min_value=0, max_value=10_000)
schedule_seeds = st.integers(min_value=0, max_value=10_000)
race_probs = st.sampled_from([0.0, 0.2, 0.5, 0.9])


class TestVerdictInvariance:
    """The live CLEAN stack, with the same-epoch filter on and off,
    raises a race exception iff the full vector-clock detector sees a
    WAW or RAW race in the same execution, and names the first one."""

    @settings(max_examples=60, deadline=None)
    @given(
        pseed=st.integers(0, 2**20),
        sseed=st.integers(0, 2**20),
        threads=st.sampled_from((3, 4)),
        ops=st.sampled_from((10, 30)),
        prob=st.sampled_from((0.0, 0.05, 0.3)),
    )
    def test_live_verdict_matches_vc_oracle(
        self, pseed, sseed, threads, ops, prob
    ):
        def program():
            return make_random_program(
                pseed, n_threads=threads, ops_per_thread=ops,
                race_probability=prob,
            )[0]

        records = run_oracle(program(), sseed)
        for fastpath in (True, False):
            result, _clean = run_stack(program(), sseed, fastpath=fastpath)
            assert_names_first_race(
                records, race_fields(result.race), f"fastpath={fastpath}"
            )

    @settings(max_examples=20, deadline=None)
    @given(pseed=program_seeds, sseed=schedule_seeds)
    def test_filter_accounting_is_exact(self, pseed, sseed):
        """Hits + misses equals the checks the unfiltered stack runs, and
        the detector's access statistics are figure-identical."""
        program, _plan = make_random_program(
            pseed, n_threads=3, ops_per_thread=10, race_probability=0.2
        )
        on, clean_on = run_stack(program, sseed, fastpath=True)
        off, clean_off = run_stack(program, sseed, fastpath=False)
        assert clean_on.fastpath_enabled
        assert not clean_off.fastpath_enabled
        assert (on.race is None) == (off.race is None)
        stats_on = clean_on.detector.stats
        stats_off = clean_off.detector.stats
        assert stats_on.reads == stats_off.reads
        assert stats_on.writes == stats_off.writes

    def test_fastpath_disabled_for_metadata_mutating_backends(self):
        from repro.baselines import FastTrackDetector

        monitor = CleanMonitor(
            detector=FastTrackDetector(max_threads=4, record_only=True),
            fastpath=True,
        )
        assert not monitor.fastpath_enabled


# ---------------------------------------------------------------------------
# 4. Offline analysis equivalence (scalar / batch)
# ---------------------------------------------------------------------------


def record_only(program, sseed):
    """Record a trace with no detector attached.

    Offline analysis of *racy* programs needs record-only traces: a live
    detector raises before the racing access reaches the recorder, so a
    detection-recorded racy trace is truncated just short of its race.
    """
    recorder = TraceRecorder()
    program.run(
        policy=RandomPolicy(sseed),
        monitors=[recorder],
        max_threads=MAX_THREADS,
        counter_cost=PreciseCounter(),
    )
    return recorder.trace


def clean_counters(monitor):
    """The monitor's ``clean.*`` totals, as offline analysis reports them."""
    registry = MetricsRegistry()
    monitor.accumulate_metrics(registry)
    return {
        name: value
        for name, value in registry.snapshot().items()
        if isinstance(value, (int, float))
    }


RACE_KEYS = (
    "kind",
    "address",
    "size",
    "accessing_tid",
    "prior_writer_tid",
    "prior_writer_clock",
    "position",
)


def assert_same_race(left, right):
    assert (left is None) == (right is None)
    if left is not None:
        for key in RACE_KEYS:
            assert left[key] == right[key], key


class TestAnalysisEquivalence:
    """``check_block`` is a drop-in equivalent of the scalar path: same verdict, same racing pair, same ``clean.*``
    counter totals on every trace."""

    @settings(max_examples=25, deadline=None)
    @given(pseed=program_seeds, sseed=schedule_seeds, prob=race_probs)
    def test_scalar_equals_batch(self, pseed, sseed, prob):
        program, _plan = make_random_program(
            pseed, n_threads=3, ops_per_thread=10, race_probability=prob
        )
        trace = record_only(program, sseed)
        scalar = analyze_trace(trace, mode="scalar")
        batch = analyze_trace(trace, mode="batch")
        assert scalar.racy == batch.racy
        assert_same_race(scalar.race, batch.race)
        assert scalar.counters == batch.counters
        assert (scalar.threads, scalar.events, scalar.accesses) == (
            batch.threads,
            batch.events,
            batch.accesses,
        )

    @settings(max_examples=15, deadline=None)
    @given(pseed=program_seeds, sseed=schedule_seeds)
    def test_race_free_replay_matches_live_counters(self, pseed, sseed):
        """On a race-free trace the offline replay is figure-exact: every
        ``clean.*`` counter equals the live run that recorded it."""
        program, _plan = make_random_program(
            pseed, n_threads=3, ops_per_thread=10, race_probability=0.0
        )
        monitors, clean, _gate = clean_stack(max_threads=MAX_THREADS)
        recorder = TraceRecorder()
        result = program.run(
            policy=RandomPolicy(sseed),
            monitors=monitors + [recorder],
            max_threads=MAX_THREADS,
            counter_cost=PreciseCounter(),
        )
        assert result.race is None  # race-free by construction
        for mode in ("scalar", "batch"):
            report = analyze_trace(recorder.trace, mode=mode)
            assert not report.racy
            assert report.counters == clean_counters(clean), mode

    def test_legacy_traces_are_rejected(self):
        # Pre-batch recorders left the SYNC address field zero; without
        # the global sync order replay cannot be reconstructed.
        trace = Trace(
            per_thread={0: [TraceEvent(SYNC, sync_name="Acquire:L")]}
        )
        with pytest.raises(ValueError, match="re-record"):
            analyze_trace(trace)
