"""The several-segment side of the batch kernel against the per-access
loop it replaces.

In batch analysis a segment (one thread's accesses up to its next sync)
with fewer than ``BATCH_MIN`` shared accesses is deferred into a window
with a snapshot of its thread's vector clock; ``CleanMonitor.check_block``
then joins the whole window against the recorded clocks at once.  These
tests pin that lane to the scalar hooks:

1. **Analysis property** — random programs (3-4 threads, race-free and
   racy, epoch layouts small enough that clocks roll over): batch and
   scalar analysis agree on verdict, race payload including its
   position, and every ``clean.*`` counter, and the kernel ran.
2. **Kernel property** — random windows over a shadow seeded by ordered
   and unordered writers (and epochs whose expanded bit makes the
   vectorized predicate conservative): ``check_block`` leaves the same
   exception, counters and shadow as the per-event hooks run against
   each segment's recorded clock.
3. **Oracle** — random racy programs: scalar and batch analysis report
   a race iff the full vector-clock detector, replayed in the same
   order, records a WAW or RAW race, and name one it recorded.
4. **Rollover** — the window closes before a sync that may reset every
   epoch, including the fork of a reused tid no live clock announces.
"""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis import _MonitorReplay, _Plan, analyze_trace
from repro.clean import CleanMonitor
from repro.core import CleanDetector
from repro.core.epoch import EpochLayout
from repro.core.exceptions import RaceException
from repro.determinism.counters import PreciseCounter
from repro.runtime import RandomPolicy, TraceRecorder
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
    segments and accesses it got."""
    calls = []
    original = CleanDetector.check_block

    def counting(self, segments, block):
        calls.append((len(segments), int(block[1].size)))
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
    if lane == "kernel":
        w, a, n, p, seg = (np.array(col) for col in zip(*rows))
        try:
            monitor.check_block(
                list(zip(tids, clocks)),
                (w.astype(bool), a, n, p.astype(bool), seg),
            )
        except RaceException as exc:
            race, index = exc, monitor.block_progress
        return _outcome(monitor, race, index)
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
            assert _replay(window, "kernel") == _replay(window, "hooks")


# -- both lanes against the oracle --------------------------------------------


def _oracle_records(trace):
    """The oracle's records, replayed in the scalar analysis order (a
    live-run oracle can see a WAR where replay sees a RAW)."""
    plan = _Plan(trace)
    oracle = Oracle(max_threads=max(plan.min_max_threads(), 2))
    monitor = CleanMonitor(detector=oracle)
    monitor.sites = None
    _MonitorReplay(plan, monitor, batch=False).run()
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
        one-segment and the several-segment side of the kernel."""
        sides = set()
        for seed in range(6):
            program, _plan = make_random_program(
                seed, n_threads=4, ops_per_thread=30, race_probability=0.3
            )
            trace = record_only(program, seed)
            calls, counting = _count_kernel()
            with counting, mock.patch.object(CleanDetector, "BATCH_MIN", 2):
                analyze_trace(trace, mode="batch")
            sides.update(
                "one" if segments == 1 else "several"
                for segments, accesses in calls
                if accesses >= 2
            )
        assert sides == {"one", "several"}


# -- rollover -----------------------------------------------------------------


class TestRollover:
    def test_headroom_sees_the_fork_of_a_reused_tid(self):
        """A joined child leaves its clock in the parent's vector clock;
        forking its tid again advances that clock.  No live thread's own
        clock shows it, but the headroom does."""
        layout = EpochLayout(clock_bits=3)
        detector = CleanDetector(max_threads=2, layout=layout)
        detector.spawn_root()
        detector.fork(0, 1)
        while detector.thread_vc(1).clock_of(1) < layout.clock_max - 1:
            detector.release(1, "L")
        detector.join(0, 1)  # the child's clock reaches clock_max
        assert not detector.rollover_imminent(slack=0)
        assert detector.clock_headroom() <= 0
        before = detector.stats.rollovers
        detector.fork(0, 1)
        assert detector.stats.rollovers == before + 1

    def test_headroom_bounds_every_advance(self):
        layout = EpochLayout(clock_bits=4)
        detector = CleanDetector(max_threads=3, layout=layout)
        detector.spawn_root()
        detector.fork(0, 1)
        detector.fork(0, 2)
        ops = 0
        headroom = detector.clock_headroom()
        while detector.stats.rollovers == 0:
            tid = ops % 3
            detector.release(tid, f"L{ops % 2}")
            detector.acquire((tid + 1) % 3, f"L{ops % 2}")
            ops += 1
        assert ops > headroom
