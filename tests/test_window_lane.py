"""The batch lane — the clock pass and the several-segment sides of the
batch kernel — against the per-access loop it replaces.

In batch analysis the clock pass applies the syncs to clock rows of its
own, and a segment (one thread's accesses up to its next sync) joins an
open batch with its thread's row: a window of segments with fewer than
``BATCH_MIN`` shared accesses, or a run of longer ones.
``CleanMonitor.check_block`` then checks the whole batch against those
rows at once.  These tests pin that lane to the scalar hooks:

1. **Analysis property** — random programs (3-4 threads, race-free and
   racy, epoch layouts small enough that clocks roll over): batch and
   scalar analysis agree on verdict, race payload including its
   position, and every ``clean.*`` counter, and the kernel ran.
2. **Kernel property** — random windows over a shadow seeded by ordered
   and unordered writers (and epochs whose expanded bit makes the
   vectorized predicate conservative): ``check_block`` leaves the same
   exception, counters and shadow as the per-event hooks run against
   each segment's recorded clock, and as one call per segment.
3. **Oracle** — random racy programs: scalar and batch analysis report
   a race iff the full vector-clock detector, replayed in the same
   order, records a WAW or RAW race, and name one it recorded.
4. **Rollover** — the window is checked before the advance that resets
   every epoch, including the fork of a reused tid no live clock
   announces.
5. **Runs** — consecutive long segments checked in one call: batch
   equals scalar, and one call per segment, across a shared epoch, a
   race or a conservative flag in a later segment, a rollover, sparse
   and spilled addresses, and the window join's overflow fallback.
6. **Clock pass** — the detector ends where per-sync replay leaves it,
   and batch analysis holds one batch's memory at a time.
"""

import dataclasses
import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.analysis
from repro.analysis import _MonitorReplay, _Plan, _run_single, analyze_trace
from repro.clean import CleanMonitor
from repro.core import CleanDetector
from repro.core.epoch import EpochLayout
from repro.core.exceptions import RaceException
from repro.determinism.counters import PreciseCounter
from repro.experiments.traces import record_trace
from repro.runtime import (
    Acquire,
    CondBroadcast,
    CondSignal,
    CondWait,
    Condition,
    Join,
    Lock,
    Program,
    RandomPolicy,
    Read,
    Release,
    Spawn,
    TraceRecorder,
    Write,
)
from repro.runtime.trace import READ, SYNC, WRITE, Trace, TraceEvent
from repro.workloads import RACE_FREE_VARIANTS, get_benchmark
from repro.workloads.randprog import make_random_program
from tests._oracle import Oracle, assert_names_first_race


def record_only(program, sseed):
    """Record a trace with no detector attached, so a racy program's
    trace runs past its first race."""
    recorder = TraceRecorder()
    program.run(
        policy=RandomPolicy(sseed),
        monitors=[recorder],
        max_threads=8,
        counter_cost=PreciseCounter(),
    )
    return recorder.trace


def _count_kernel():
    """Patch ``CleanDetector.check_block`` to record, per call, how many
    segments and accesses it got and the join its block takes:
    ``"table"`` when each of its segments has ``BATCH_MIN`` or more
    accesses, else ``"sort"``."""
    calls = []
    original = CleanDetector.check_block

    def counting(self, segments, block):
        counts = np.unique(block[3], return_counts=True)[1]
        side = "table" if counts.min() >= self.BATCH_MIN else "sort"
        calls.append((len(segments), int(block[1].size), side))
        return original(self, segments, block)

    return calls, mock.patch.object(CleanDetector, "check_block", counting)


class TestAnalysisProperty:
    @settings(max_examples=40, deadline=None)
    @given(
        pseed=st.integers(0, 2**20),
        sseed=st.integers(0, 2**20),
        threads=st.sampled_from((3, 4)),
        prob=st.sampled_from((0.0, 0.3)),
        ops=st.sampled_from((10, 30)),
        clock_bits=st.integers(2, 4),
        batch_min=st.sampled_from((2, 4, CleanDetector.BATCH_MIN)),
    )
    def test_window_equals_scalar(
        self, pseed, sseed, threads, prob, ops, clock_bits, batch_min
    ):
        """``batch_min`` below the default lets short windows reach the
        vectorized join, not only its scalar fallback."""
        program, _plan = make_random_program(
            pseed, n_threads=threads, ops_per_thread=ops,
            race_probability=prob,
        )
        trace = record_only(program, sseed)
        layout = EpochLayout(clock_bits=clock_bits)
        scalar = analyze_trace(trace, mode="scalar", layout=layout)
        calls, counting = _count_kernel()
        with counting, mock.patch.object(
            CleanDetector, "BATCH_MIN", batch_min
        ):
            batch = analyze_trace(trace, mode="batch", layout=layout)
        assert calls, "the batch kernel never ran"
        assert batch.racy == scalar.racy
        assert batch.race == scalar.race
        assert batch.counters == scalar.counters


# -- the kernel against the per-event hooks -----------------------------------

BASE = 64
SPAN = 48
sizes = st.sampled_from((1, 2, 4, 8))
accesses = st.tuples(
    st.booleans(), st.integers(BASE, BASE + SPAN - 1), sizes,
    st.integers(0, 9).map(lambda d: d == 0),
)


@st.composite
def windows(draw):
    return {
        # (writer tid, address, size, expanded bit): the shadow before
        # the window; tid 3 never syncs with anyone.
        "seed": draw(st.lists(
            st.tuples(st.sampled_from((1, 2, 3)),
                      st.integers(BASE, BASE + SPAN - 1), sizes,
                      st.booleans()),
            max_size=8,
        )),
        # Per segment: its thread, the syncs before it, its accesses.
        "segments": draw(st.lists(
            st.tuples(
                st.sampled_from((0, 1, 2)),
                st.lists(st.tuples(st.sampled_from((0, 1, 2)),
                                   st.booleans()), max_size=2),
                st.lists(accesses, min_size=1, max_size=6),
            ),
            min_size=1, max_size=12,
        )),
        "far": draw(st.booleans()),
    }


def _monitor():
    detector = CleanDetector(max_threads=4)
    monitor = CleanMonitor(detector=detector, max_threads=4)
    monitor.sites = None
    monitor.on_thread_start(0, None)
    for child in (1, 2, 3):
        monitor.on_thread_start(child, 0)
        monitor.on_spawn(0, child)
    return monitor


def _outcome(monitor, race, index):
    detector = monitor.detector
    return {
        "race": None if race is None else (
            type(race).__name__, race.address, race.size, race.accessing_tid,
            race.prior_writer_tid, race.prior_writer_clock,
        ),
        "index": index,
        "stats": dataclasses.asdict(detector.stats),
        "hits": monitor.fastpath_hits,
        "misses": monitor.fastpath_misses,
        "loads": detector.shadow.loads,
        "stores": detector.shadow.stores,
        "shadow": sorted(detector.shadow.items()),
    }


def _replay(window, lane):
    """Seed a monitor, then replay the window's segments on ``lane``."""
    monitor = _monitor()
    detector = monitor.detector
    layout = detector.layout
    shift = (1 << 24) if window["far"] else 0
    for tid, address, size, expanded in window["seed"]:
        epoch = detector.thread_vc(tid).element(tid)
        if expanded:
            epoch = layout.set_expanded(epoch)
        detector.shadow.store_range(address + shift, size, epoch)
    tids, clocks, rows = [], [], []
    for s, (tid, syncs, block) in enumerate(window["segments"]):
        for other, release in syncs:
            if release:
                monitor.on_release(other, f"L{other}")
            else:
                monitor.on_acquire(other, f"L{(other + 1) % 3}")
            monitor.on_sync_commit(other, None)
        tids.append(tid)
        clocks.append(detector.thread_vc(tid).copy())
        rows += [(w, a + shift, n, p, s) for w, a, n, p in block]
    race = index = None
    if lane in ("kernel", "segments"):
        # One kernel call for the window, or one per segment.
        w, a, n, p, seg = (np.array(col) for col in zip(*rows))
        matrix = np.array(
            [(tid, *vc) for tid, vc in zip(tids, clocks)], dtype=np.int64
        )
        block = (w.astype(bool), a, n, p.astype(bool), seg)
        cuts = [0, len(seg)]
        if lane == "segments":
            cuts = [0, *np.flatnonzero(np.diff(seg)) + 1, len(seg)]
        try:
            for lo, hi in zip(cuts, cuts[1:]):
                index = lo
                monitor.check_block(matrix, tuple(c[lo:hi] for c in block))
        except RaceException as exc:
            race, index = exc, index + monitor.block_progress
        return _outcome(monitor, race, index if race is not None else None)
    # The per-event hooks, each segment against its recorded clock and
    # with the empty written set a replayed segment starts from.
    live = {tid: detector.thread_vc(tid) for tid in set(tids)}
    current = None
    for index, (w, a, n, p, s) in enumerate(rows):
        tid = tids[s]
        if s != current:
            current = s
            detector._threads[tid].vc = clocks[s]
            monitor._invalidate(tid)
        if p:
            continue
        try:
            monitor._check_one(tid, w, a, n)
        except RaceException as exc:
            race = exc
            break
    for tid, vc in live.items():
        detector._threads[tid].vc = vc
    return _outcome(monitor, race, index if race is not None else None)


class TestKernelProperty:
    @settings(max_examples=200, deadline=None)
    @given(window=windows(), batch_min=st.sampled_from((1, 4, 16)))
    # A conservative flag mid-segment (T0's own epoch with the expanded
    # bit): the re-run resumes at the flagged read, and the segment's
    # earlier write still makes its last access a same-epoch hit.
    @example(
        window={
            "seed": [(0, 80, 4, True)],
            "segments": [(0, [], [
                (True, 64, 8, False), (False, 80, 4, False),
                (False, 64, 8, False),
            ])],
            "far": False,
        },
        batch_min=1,
    )
    def test_window_equals_per_access_hooks(self, window, batch_min):
        with mock.patch.object(CleanDetector, "BATCH_MIN", batch_min):
            kernel = _replay(window, "kernel")
            assert kernel == _replay(window, "hooks")
            assert kernel == _replay(window, "segments")


class TestConservativeFlagInARun:
    """A byte carrying its own thread's epoch with the expanded bit set
    is flagged by the vectorized predicate (its tid bits fall outside
    the clock) and cleared by the scalar re-run.  In a run, the segments
    after the flagged one have already written through the shadow: the
    kernel must roll them back, re-run the flagged segment, then check
    the rest, ending where the per-event hooks and one call per segment
    end."""

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_flag_in_the_kth_segment(self, k):
        segments = []
        for i in range(3):
            block = [(True, 64, 8, False), (False, 64, 8, False),
                     (True, 72, 4, False), (False, 60, 8, False)]
            if i == k:
                block[2:2] = [(False, 80, 4, False), (True, 80, 8, False)]
            elif i > k:
                block.append((True, 80, 8, False))
            segments.append((0, [(0, True)] if i else [], block))
        window = {"seed": [(0, 80, 4, True)], "segments": segments,
                  "far": False}
        rerun = mock.patch.object(
            CleanDetector, "_replay_segments", autospec=True,
            side_effect=CleanDetector._replay_segments,
        )
        with mock.patch.object(CleanDetector, "BATCH_MIN", 4):
            with rerun as spy:
                kernel = _replay(window, "kernel")
            assert spy.call_count == 1  # the flagged segment only
            assert kernel == _replay(window, "hooks")
            assert kernel == _replay(window, "segments")
        assert kernel["race"] is None


# -- both lanes against the oracle --------------------------------------------


def _oracle_records(trace):
    """The oracle's records, replayed in the scalar analysis order (a
    live-run oracle can see a WAR where replay sees a RAW)."""
    plan = _Plan(trace)
    oracle = Oracle(max_threads=max(plan.min_max_threads(), 2))
    monitor = CleanMonitor(detector=oracle)
    monitor.sites = None
    _MonitorReplay(plan, monitor).run()
    return oracle.records


class TestOracle:
    """Each lane is racy iff the oracle records a WAW or RAW race, and
    names the oracle's first one: same kind and accessing thread, the
    racing byte inside the reported access, and a prior writer the
    oracle also saw (it reports every racing writer, CLEAN the last)."""

    @pytest.mark.parametrize("batch_min", [2, 4, 16])
    @settings(max_examples=50, deadline=None)
    @given(
        pseed=st.integers(0, 2**20),
        sseed=st.integers(0, 2**20),
        threads=st.sampled_from((3, 4)),
        ops=st.sampled_from((10, 30)),
        prob=st.sampled_from((0.0, 0.05, 0.3)),
    )
    def test_lanes_match_oracle(
        self, batch_min, pseed, sseed, threads, ops, prob
    ):
        program, _plan = make_random_program(
            pseed, n_threads=threads, ops_per_thread=ops,
            race_probability=prob,
        )
        trace = record_only(program, sseed)
        records = _oracle_records(trace)
        with mock.patch.object(CleanDetector, "BATCH_MIN", batch_min):
            reports = [
                analyze_trace(trace, mode=mode) for mode in ("scalar", "batch")
            ]
        for report in reports:
            assert_names_first_race(records, report.race, report.mode)

    def test_both_join_sides_run(self):
        """With a low ``BATCH_MIN`` the random programs reach both the
        table side of the kernel and its sort side, each with several
        segments: runs of long segments, and windows of short ones.
        (At ``BATCH_MIN`` 1 every segment with an access is long.)"""
        sides = set()
        for seed, batch_min in itertools.product(range(6), (1, 2)):
            program, _plan = make_random_program(
                seed, n_threads=4, ops_per_thread=30, race_probability=0.3
            )
            trace = record_only(program, seed)
            calls, counting = _count_kernel()
            with counting, mock.patch.object(
                CleanDetector, "BATCH_MIN", batch_min
            ):
                analyze_trace(trace, mode="batch")
            sides.update(
                (side, segments > 1)
                for segments, accesses, side in calls
                if accesses >= 2
            )
        assert {("table", True), ("sort", True)} <= sides


# -- rollover -----------------------------------------------------------------


def _ordered(per_thread):
    """A trace from ``{tid: [event, ...]}``: a sync is ``(order,
    "Kind:arg")``, an 8-byte access ``("W" or "R", address)``."""
    return Trace(per_thread={
        tid: [
            TraceEvent(SYNC, event[0], sync_name=event[1])
            if isinstance(event[1], str)
            else TraceEvent(WRITE if event[0] == "W" else READ, event[1], 8)
            for event in events
        ]
        for tid, events in per_thread.items()
    })


def _resets_after_checks(trace, layout):
    """Batch analysis of ``trace`` with every metadata reset logged next
    to the kernel calls: the reset must find the window checked."""
    log = []
    check, reset = CleanDetector.check_block, CleanDetector.reset_metadata

    def checking(self, segments, block):
        log.append("check")
        return check(self, segments, block)

    def resetting(self):
        log.append("reset")
        return reset(self)

    with mock.patch.object(CleanDetector, "check_block", checking), \
            mock.patch.object(CleanDetector, "reset_metadata", resetting):
        report = analyze_trace(trace, mode="batch", layout=layout)
    return report, log


X = 0x1000


class TestRollover:
    """The clock pass rolls the clocks over at the advance that would
    exceed ``clock_max``, after checking the window: a write pending
    there must be wiped by the reset like any earlier write, so a
    reader the reset leaves unordered with it does not race."""

    def test_fork_of_a_reused_tid_rolls_over(self):
        """A joined child leaves its clock in the parent's row; forking
        its tid again advances that clock past ``clock_max``.  No live
        thread's own clock shows it."""
        layout = EpochLayout(clock_bits=3)
        trace = _ordered({
            0: [(1, "Spawn:1"), (2, "Spawn:2"), (8, "Join:1"),
                ("W", X), (9, "Spawn:1")],
            1: [(order, "Release:L") for order in range(3, 8)],
            2: [(10, "Acquire:M"), ("R", X), (11, "Release:M")],
        })
        scalar = analyze_trace(trace, mode="scalar", layout=layout)
        batch, log = _resets_after_checks(trace, layout)
        assert scalar.counters["clean.rollovers"] == 1
        assert not scalar.racy
        assert batch.to_payload() | {"mode": "scalar"} == scalar.to_payload()
        assert log.index("reset") > 0

    @pytest.mark.parametrize("trigger", [
        "Release:B", "SemPost:S", "CondSignal:C", "CondBroadcast:C",
        "CondWait:C:B", "BarrierWait:B@0", "Spawn:2", "Join:2",
    ])
    def test_every_advance_rolls_over_after_the_window(self, trigger):
        """Each sync that advances a clock can be the one that rolls
        over: the root reaches ``clock_max`` (a child's clock, for a
        join), writes X, then syncs; thread 1, spawned before the write
        and checked after the reset, reads X."""
        layout = EpochLayout(clock_bits=2)
        per_thread = {
            0: [(1, "Spawn:1"), (2, "Release:A"), ("W", X), (3, trigger)],
            1: [(6, "Acquire:M"), ("R", X), (7, "Release:M")],
            2: [],
        }
        if trigger == "Join:2":
            per_thread[0] = [(1, "Spawn:1"), (2, "Spawn:2"), ("W", X),
                             (5, trigger)]
            per_thread[2] = [(3, "Release:D"), (4, "Release:D")]
        elif trigger != "Spawn:2":
            del per_thread[2]
        trace = _ordered(per_thread)
        scalar = analyze_trace(trace, mode="scalar", layout=layout)
        batch, log = _resets_after_checks(trace, layout)
        assert scalar.counters["clean.rollovers"] == 1
        assert not scalar.racy
        assert batch.to_payload() | {"mode": "scalar"} == scalar.to_payload()
        assert "check" in log[: log.index("reset")]


# -- runs of long segments ----------------------------------------------------

N = CleanDetector.BATCH_MIN


def _run_of(kind, base, stride=8):
    """``N`` 8-byte accesses of ``kind`` ("W" or "R"), ``stride`` apart."""
    return [(kind, base + stride * i) for i in range(N)]


def _three_ways(trace, layout=None):
    """Analyze ``trace`` scalar, batch, and batch with one kernel call
    per segment: the payloads must agree apart from ``mode``.  Returns
    the scalar report and the batch lane's kernel calls."""
    layout = layout or EpochLayout()
    scalar = analyze_trace(trace, mode="scalar", layout=layout)
    calls, counting = _count_kernel()
    with counting:
        batch = analyze_trace(trace, mode="batch", layout=layout)
    with mock.patch.object(repro.analysis, "WINDOW_BYTES", 1):
        alone = analyze_trace(trace, mode="batch", layout=layout)
    expected = scalar.to_payload() | {"mode": "batch"}
    assert batch.to_payload() == expected
    assert alone.to_payload() == expected
    return scalar, calls


def _ran_a_run(calls):
    return any(side == "table" and segments > 1
               for segments, _accesses, side in calls)


class TestRuns:
    """Consecutive long segments go to the kernel together, as a *run*,
    and its table join takes them one at a time against the shadow.
    Batch analysis must still print what scalar analysis prints, and
    what batch analysis prints with one kernel call per segment."""

    def test_segments_split_by_an_acquire_share_an_epoch(self):
        """An acquire of a lock nobody released leaves the clock as it
        is: the second segment writes with the first one's epoch, yet
        its reads of the first one's bytes are checks, not hits."""
        trace = _ordered({0: [
            *_run_of("W", X), *_run_of("R", X), (1, "Acquire:L"),
            *_run_of("R", X), *_run_of("W", X), (2, "Release:L"),
        ]})
        scalar, calls = _three_ways(trace)
        assert _ran_a_run(calls)
        assert scalar.counters["clean.same_epoch.hits"] == N
        assert scalar.counters["clean.same_epoch.misses"] == 3 * N
        assert scalar.counters["clean.epoch_updates"] == 8 * N

    @pytest.mark.parametrize("racy", [0, 1, 2, 3])
    @pytest.mark.parametrize("base,stride", [
        (X, 8),  # dense: the table keys are address offsets
        (X, 1 << 15),  # sparser than _DENSE_SPAN: distinct-byte ranks
        ((1 << 24) + X, 8),  # past the flat shadow's window: the spill
    ])
    def test_race_in_a_later_segment_of_a_run(self, racy, base, stride):
        """Thread 1's long segment, then three of thread 0 that rewrite
        one range under a new epoch each; with ``racy`` k, thread 0's
        k-th segment reads thread 1's unordered write mid-way."""
        y = base + N * stride
        per_thread = {
            0: [(1, "Spawn:1")], 1: [*_run_of("W", y), (2, "Release:M")],
        }
        for i in range(3):
            accesses = _run_of("W", base, stride)
            if i + 1 == racy:
                accesses[N // 2] = ("R", y)
            per_thread[0] += [*accesses, (3 + i, f"Release:A{i}")]
        scalar, calls = _three_ways(_ordered(per_thread))
        assert _ran_a_run(calls)
        assert scalar.racy == bool(racy)
        if racy:
            assert scalar.race["kind"] == "RAW"
            assert scalar.race["address"] == y

    @pytest.mark.parametrize("clock_bits", [2, 3])
    def test_rollover_between_long_segments(self, clock_bits):
        """The root's releases roll its clock over between two of its
        long segments; thread 1 reads the range after acquiring."""
        per_thread = {0: [(1, "Spawn:1")], 1: [(20, "Acquire:L"),
                                               *_run_of("R", X),
                                               (21, "Release:M")]}
        for i in range(8):
            per_thread[0] += [*_run_of("W", X), (2 + i, "Release:L")]
        scalar, calls = _three_ways(
            _ordered(per_thread), EpochLayout(clock_bits=clock_bits)
        )
        assert _ran_a_run(calls)
        assert scalar.counters["clean.rollovers"] >= 1
        assert not scalar.racy

    @pytest.mark.parametrize("racy", [False, True])
    def test_window_key_overflow_falls_back_to_argsort(self, racy):
        """A window of short segments whose bytes span 2**62 addresses:
        its composite sort keys would overflow int64, so the sort join
        takes the stable argsort instead."""
        far = 1 << 62
        per_thread = {0: [(1, "Spawn:1")], 1: [("W", far), (2, "Release:M")]}
        for i in range(8):
            access = ("R", far) if racy and i == 5 else ("W", far + 8 + 8 * i)
            per_thread[0] += [("W", X + 8 * i), access, ("R", X),
                              (3 + i, "Release:L")]
        spans = []
        check = CleanDetector.check_block

        def spying(self, segments, block):
            _is_write, addr, size, _seg = block
            if addr.size >= self.BATCH_MIN:
                spans.append(int(addr.max() + size.max() - addr.min())
                             * int(size.sum()))
            return check(self, segments, block)

        with mock.patch.object(CleanDetector, "check_block", spying):
            _three_ways(_ordered(per_thread))
        assert max(spans) >= 1 << 63
        assert analyze_trace(_ordered(per_thread)).racy == racy


# -- the clock pass against per-sync replay -----------------------------------


def _end_state(trace, batch, layout):
    """The detector after analyzing a race-free ``trace``: every live
    thread's and sync object's clock, the free tids and the sync
    counters."""
    plan = _Plan(trace, layout)
    monitor, race, _position = _run_single(plan, batch, layout)
    assert race is None
    detector = monitor.detector
    return {
        "threads": {
            tid: list(state.vc) for tid, state in detector._threads.items()
        },
        "locks": {key: list(vc) for key, vc in detector._lock_vcs.items()},
        "free": list(detector._free_tids),
        "sync_ops": detector.stats.sync_ops,
        "rollovers": detector.stats.rollovers,
        "pending": detector.rollover_pending,
    }


class TestClockPass:
    """The batch lane applies the syncs on plain rows and installs the
    result; the detector must end where per-sync replay (the scalar
    lane's monitor hooks) leaves it."""

    @settings(max_examples=40, deadline=None)
    @given(
        pseed=st.integers(0, 2**20),
        sseed=st.integers(0, 2**20),
        threads=st.sampled_from((3, 4)),
        ops=st.sampled_from((10, 30)),
        clock_bits=st.integers(2, 4),
    )
    def test_end_state_equals_per_sync_replay(
        self, pseed, sseed, threads, ops, clock_bits
    ):
        program, _plan = make_random_program(
            pseed, n_threads=threads, ops_per_thread=ops, race_probability=0.0
        )
        trace = record_only(program, sseed)
        layout = EpochLayout(clock_bits=clock_bits)
        assert _end_state(trace, True, layout) == _end_state(
            trace, False, layout
        )

    @pytest.mark.parametrize("name", RACE_FREE_VARIANTS)
    def test_workload_end_state(self, name):
        """The workload models add barriers, conditions and semaphores
        to the random programs' locks, spawns and joins."""
        trace = record_trace(get_benchmark(name), scale="test", seed=11)
        for layout in (EpochLayout(), EpochLayout(clock_bits=3)):
            assert _end_state(trace, True, layout) == _end_state(
                trace, False, layout
            )

    @pytest.mark.parametrize("sseed", range(6))
    def test_condition_end_state(self, sseed):
        """Waits, wakes, signals and broadcasts, which no workload model
        records."""
        lock, cond = Lock("L"), Condition("C")

        def waiter(ctx, flag, slot):
            yield Acquire(lock)
            while (yield Read(flag, 1)) < slot:
                yield CondWait(cond, lock)
            yield Write(flag + 1 + slot, 1, slot)
            yield Release(lock)

        def main(ctx):
            flag = ctx.alloc(8)
            kids = []
            for slot in (1, 2, 3):
                kids.append((yield Spawn(waiter, (flag, slot))))
            for slot in (1, 2, 3):
                yield Acquire(lock)
                yield Write(flag, 1, slot)
                yield CondSignal(cond) if slot == 1 else CondBroadcast(cond)
                yield Release(lock)
            for kid in kids:
                yield Join(kid)

        trace = record_only(Program(main), sseed)
        names = {name.partition(":")[0] for name in _Plan(trace).sync_names}
        assert {"CondWait", "CondWake", "CondBroadcast"} <= names
        for layout in (EpochLayout(), EpochLayout(clock_bits=2)):
            assert _end_state(trace, True, layout) == _end_state(
                trace, False, layout
            )

    @pytest.mark.parametrize("name", ["fluidanimate", "lu_cb"])
    def test_peak_memory_near_scalar(self, name):
        """Batch analysis holds one window's rows and gathered columns
        at a time, so its ``tracemalloc`` peak stays within 1.5x of the
        scalar lane's on a sync-dense trace (fluidanimate: ~4-access
        segments) and on a long-SFR one (lu_cb).  The window shrinks
        with the trace: this one is 1/32 of the ledger's 225k-event
        trace, and so is the window, so its fixed scratch weighs as it
        does there.  Keeping every segment's row, or gathering the whole
        trace at once, puts fluidanimate near 7x."""
        trace = record_trace(get_benchmark(name), scale="simsmall", seed=1)
        peaks = {}
        for mode in ("scalar", "batch"):
            tracemalloc.start()
            try:
                with mock.patch.object(
                    repro.analysis, "WINDOW_BYTES",
                    repro.analysis.WINDOW_BYTES // 32,
                ):
                    analyze_trace(trace, mode=mode)
                peaks[mode] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks["batch"] <= 1.5 * peaks["scalar"]


Y = 0x2000


def _assert_batch_is_scalar(trace, layout=None):
    """Batch analysis of the race-free ``trace`` ends where scalar does:
    verdict, race fields and ``clean.*`` counters, and every thread and
    sync-object clock the detector holds after the pass."""
    layout = layout or EpochLayout()
    scalar = analyze_trace(trace, mode="scalar", layout=layout)
    batch = analyze_trace(trace, mode="batch", layout=layout)
    assert not scalar.racy
    assert batch.to_payload() | {"mode": "scalar"} == scalar.to_payload()
    assert _end_state(trace, True, layout) == _end_state(
        trace, False, layout
    )
    return scalar


class TestReleaseOwner:
    """The clock pass assigns a Release's row to the key (FastTrack's
    ``L := C_t``) only when the releaser joined the key at an Acquire
    and nothing has written the key since; every other release joins.
    Each trace here is one where the assignment would drop a clock
    component: thread 0 (or 2) reads Y, written before an earlier
    release of the key, and would report a race the scalar lane does
    not."""

    @pytest.mark.parametrize("post, wait", [
        ("SemPost:S", "SemWait:S"),
        ("CondSignal:S", "CondWake:M:S"),
        ("CondBroadcast:S", "CondWake:M:S"),
        ("CondWait:C:S", "Acquire:S"),
    ])
    def test_release_of_a_key_never_acquired(self, post, wait):
        """Threads 1 and 2 each release S without holding it: the key
        must end as the join of both."""
        _assert_batch_is_scalar(_ordered({
            0: [(1, "Spawn:1"), (2, "Spawn:2"), (5, wait), ("R", Y),
                ("R", X)],
            1: [("W", X), (4, post)],
            2: [("W", Y), (3, post)],
        }))

    def test_two_acquirers_before_a_release(self):
        """Thread 2 acquires L after thread 1 and releases it first:
        thread 1's release finds the key written since its Acquire."""
        _assert_batch_is_scalar(_ordered({
            0: [(1, "Spawn:1"), (2, "Spawn:2"), (7, "Acquire:L"),
                ("R", Y)],
            1: [(3, "Acquire:L"), (6, "Release:L")],
            2: [(4, "Acquire:L"), ("W", Y), (5, "Release:L")],
        }))

    def test_released_by_one_thread_then_another(self):
        """Thread 1 holds L and releases it (an assignment); thread 2
        then releases L without acquiring it."""
        _assert_batch_is_scalar(_ordered({
            0: [(1, "Spawn:1"), (2, "Spawn:2"), (6, "Acquire:L"),
                ("R", Y)],
            1: [(3, "Acquire:L"), ("W", Y), (4, "Release:L")],
            2: [(5, "Release:L")],
        }))

    def test_rejoined_tid_respawned_by_another_thread(self):
        """Thread 1 joins L, which holds thread 3's write of Y, and is
        joined; thread 2, which never saw that write, spawns tid 1 again,
        and the new thread 1 releases L without acquiring it.  Thread 2
        then acquires L and reads Y."""
        trace = _ordered({
            0: [(1, "Spawn:1"), (2, "Spawn:2"), (3, "Spawn:3"),
                (6, "Join:1")],
            1: [(5, "Acquire:L"), (8, "Release:L")],
            2: [(7, "Spawn:1"), (9, "Acquire:L"), ("R", Y)],
            3: [("W", Y), (4, "Release:L")],
        })
        _assert_batch_is_scalar(trace)

    def test_rollover_between_acquire_and_release(self):
        """Thread 2 acquires L, rolls the clocks over with releases of
        M, writes Y and releases L; thread 1 then releases L without
        acquiring it, and thread 0 acquires L and reads Y."""
        layout = EpochLayout(clock_bits=3)
        releases = [(order, "Release:M") for order in range(5, 13)]
        scalar = _assert_batch_is_scalar(_ordered({
            0: [(1, "Spawn:1"), (2, "Spawn:2"), (15, "Acquire:L"),
                ("R", Y)],
            1: [(3, "Acquire:K"), (14, "Release:L")],
            2: [(4, "Acquire:L"), *releases, ("W", Y), (13, "Release:L")],
        }), layout)
        assert scalar.counters["clean.rollovers"] == 1
