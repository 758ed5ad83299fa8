"""The one-pass batch lane against the per-access loop it replaces.

``CleanMonitor.check_block`` hands a whole synchronization-free block,
plus the thread's written-this-epoch set, to
``CleanDetector.check_block``, which classifies same-epoch hits, builds
the effective-epoch overlay and checks every access in one vectorized
pass.  These tests pin that pass to the scalar loop
(``CleanMonitor._check_one`` per access):

1. **Block property** — random blocks of 16-400 accesses (so they enter
   the vector lane) over overlapping 1/2/4/8-byte accesses, with private
   accesses, a pre-block written set (partly stale), foreign epochs from
   ordered and unordered threads, and optionally half the addresses far
   away (sparse blocks, spilled shadow): same exception, counters,
   shadow and written set.
2. **Analysis level** — recorded benchmark traces whose blocks reach the
   lane: scalar and batch analysis agree on verdict, race (including its
   position) and counters.
3. **Rollover** — a detector reset fired by another thread's release
   invalidates every written set, on both lanes.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analysis import analyze_trace
from repro.clean import CleanMonitor
from repro.core import CleanDetector
from repro.core.epoch import EpochLayout
from repro.core.exceptions import RaceException, WawRaceException
from repro.experiments.traces import record_trace
from repro.workloads.suite import get_benchmark

BASE = 64
SPAN = 96
#: Where the upper half of the address range moves in a "far" scenario:
#: past the flat shadow's window (into its spill map), which also makes
#: the block too sparse for the lane's address-offset table.
FAR = 1 << 24
sizes = st.sampled_from((1, 2, 4, 8))
addresses = st.integers(BASE, BASE + SPAN - 1)
writes = st.lists(st.tuples(addresses, sizes), max_size=10)
#: (is_write, address, size, private): one access in ten is private.
accesses = st.tuples(
    st.booleans(), addresses, sizes, st.integers(0, 9).map(lambda d: d == 0)
)


@st.composite
def scenarios(draw):
    return {
        # T1 writes, then releases a lock T0 (and T2) acquire: ordered.
        "synced": draw(writes),
        # T2 writes after that acquire, unordered with T0.
        "unsynced": draw(st.lists(st.tuples(addresses, sizes), max_size=2)),
        # T0 writes before the block: its written-this-epoch set.
        "pre_block": draw(st.lists(st.tuples(addresses, sizes), min_size=1,
                                   max_size=6)),
        # Bytes left in T0's set although their epoch is not T0's: the
        # lane must skip them exactly as the scalar loop does.
        "stale": draw(st.lists(st.tuples(addresses, sizes), max_size=6)),
        "block": draw(st.lists(accesses, min_size=16, max_size=400)),
        "columnar": draw(st.booleans()),
        "far": draw(st.booleans()),
    }


def placed(scenario, address):
    if scenario["far"] and address >= BASE + SPAN // 2:
        return address + FAR
    return address


def build(scenario):
    detector = CleanDetector(max_threads=4)
    monitor = CleanMonitor(detector=detector, max_threads=4)
    monitor.sites = None
    monitor.on_thread_start(0, None)
    for child in (1, 2):
        monitor.on_thread_start(child, 0)
        monitor.on_spawn(0, child)
    for address, size in scenario["synced"]:
        monitor._check_one(1, True, placed(scenario, address), size)
    monitor.on_release(1, "L")
    monitor.on_sync_commit(1, None)
    for tid in (2, 0):
        monitor.on_acquire(tid, "L")
        monitor.on_sync_commit(tid, None)
    unsynced = set()
    for address, size in scenario["unsynced"]:
        address = placed(scenario, address)
        monitor._check_one(2, True, address, size)
        unsynced.update(range(address, address + size))
    for address, size in scenario["pre_block"]:
        address = placed(scenario, address)
        if unsynced.isdisjoint(range(address, address + size)):
            monitor._check_one(0, True, address, size)
    for address, size in scenario["stale"]:
        address = placed(scenario, address)
        monitor._epoch_writes.setdefault(0, set()).update(
            range(address, address + size)
        )
    return monitor


def outcome(monitor, race, position):
    detector = monitor.detector
    return {
        "race": None if race is None else (
            type(race).__name__, race.address, race.size, race.accessing_tid,
            race.prior_writer_tid, race.prior_writer_clock,
        ),
        "position": position,
        "stats": dataclasses.asdict(detector.stats),
        "hits": monitor.fastpath_hits,
        "misses": monitor.fastpath_misses,
        "loads": detector.shadow.loads,
        "stores": detector.shadow.stores,
        "shadow": sorted(detector.shadow.items()),
        "written": sorted(monitor._epoch_writes.get(0, ())),
    }


class TestBlockProperty:
    @settings(max_examples=150, deadline=None)
    @given(scenario=scenarios())
    def test_block_equals_per_access_loop(self, scenario):
        block = [
            (is_write, placed(scenario, address), size, private)
            for is_write, address, size, private in scenario["block"]
        ]
        batch, scalar = build(scenario), build(scenario)
        assume(batch._epoch_writes.get(0))  # non-empty pre-block set

        race = position = None
        if scenario["columnar"]:
            is_write, address, size, private = zip(*block)
            argument = (
                np.array(is_write, dtype=bool),
                np.array(address, dtype=np.int64),
                np.array(size, dtype=np.int64),
                np.array(private, dtype=bool),
            )
        else:
            argument = block
        try:
            batch.check_block(0, argument)
        except RaceException as exc:
            race, position = exc, batch.block_progress
        expected = outcome(batch, race, position)

        race = position = None
        for index, (is_write, address, size, private) in enumerate(block):
            if private:
                continue
            try:
                scalar._check_one(0, is_write, address, size)
            except RaceException as exc:
                race, position = exc, index
                break
        assert expected == outcome(scalar, race, position)


def _count_lane(monkeypatch):
    """Record, per ``CleanDetector.check_block`` call, whether it entered
    the vector lane and whether it raised."""
    calls = []
    original = CleanDetector.check_block

    def counting(self, tid, block, written=None):
        n = len(block[1]) if type(block) is tuple else len(block)
        call = {"lane": n >= self.BATCH_MIN, "raised": False}
        calls.append(call)
        try:
            return original(self, tid, block, written=written)
        except RaceException:
            call["raised"] = True
            raise

    monkeypatch.setattr(CleanDetector, "check_block", counting)
    return calls


class TestAnalysisLane:
    """``lu_cb`` has no racy variant; ``lu_ncb`` is its racy sibling."""

    @pytest.mark.parametrize("name,racy", [("lu_cb", False), ("lu_ncb", True)])
    def test_scalar_equals_batch(self, monkeypatch, name, racy):
        trace = record_trace(
            get_benchmark(name), scale="simsmall", seed=0, racy=racy
        )
        scalar = analyze_trace(trace, mode="scalar")
        calls = _count_lane(monkeypatch)
        batch = analyze_trace(trace, mode="batch")

        assert any(call["lane"] for call in calls)
        assert batch.racy == scalar.racy == racy
        assert batch.race == scalar.race
        assert batch.counters == scalar.counters
        if racy:
            # The race surfaced inside the vector lane, and the lane
            # still reports the raising access's trace position.
            assert any(call["lane"] and call["raised"] for call in calls)
            assert batch.race["position"] is not None


X = 0x100


class TestRolloverInvalidatesWrittenSets:
    """A reset by another thread's sync must end every same-epoch hit:
    the thread's next write has to install its post-reset epoch, or a
    later unordered write to the same bytes goes unreported."""

    @pytest.mark.parametrize("lane", ["check_one", "check_block"])
    @pytest.mark.parametrize("fastpath", [False, True])
    def test_waw_race_after_auto_rollover(self, lane, fastpath):
        detector = CleanDetector(
            max_threads=4, layout=EpochLayout(clock_bits=3)
        )
        monitor = CleanMonitor(detector=detector, fastpath=fastpath)
        monitor.sites = None
        monitor.on_thread_start(0, None)
        for child in (1, 2):
            monitor.on_thread_start(child, 0)
            monitor.on_spawn(0, child)

        def write(tid):
            if lane == "check_one":
                monitor._check_one(tid, True, X, 8)
            else:
                # The write leads a block long enough for the vector lane.
                block = [(True, X, 8, False)]
                block += [(False, X, 8, False)] * (detector.BATCH_MIN - 1)
                monitor.check_block(tid, block)

        write(1)
        for i in range(10):
            monitor.on_release(2, f"L{i}")
            monitor.on_sync_commit(2, None)
        assert detector.stats.rollovers >= 1
        write(1)
        with pytest.raises(WawRaceException):
            write(2)
