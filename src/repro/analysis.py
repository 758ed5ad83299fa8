"""Offline trace analysis: race-check recorded traces without re-running.

A :class:`~repro.runtime.trace.TraceRecorder` trace carries everything
the detector needs — every thread's accesses in program order plus, for
each synchronization commit, a *replayable descriptor* (``"Acquire:L"``,
``"BarrierWait:B@3"``, ``"Spawn:2"``, ...) and the commit's global
position in the scheduler's deterministic sync sequence.  This module
rebuilds the execution's happens-before relation from those descriptors
and drives the CLEAN detector over the trace, entirely offline:

* **scalar** mode replays one access at a time through the exact
  per-event monitor path;
* **batch** mode checks segments through the one vectorized kernel,
  ``check_block``, each segment against the vector clock its thread
  held when it ended: a synchronization-free run of ``BATCH_MIN`` or
  more shared accesses goes in alone, and runs of shorter ones are
  joined in *windows* — same verdicts, same counters, much faster.

Replay order
------------

Replay is one sequential pass.  Segments (one thread's accesses up to
its next sync commit) replay in the global order of their closing syncs; a thread's vector clock only
changes at its own commits, so this order is consistent with the
recorded happens-before relation.  Race-free traces therefore get the
exact live verdicts and counters; racy traces get a canonical,
deterministic order so every analysis mode agrees on the first race.

Traces from recorders older than the descriptor format (sync events
with a zero global index) cannot be replayed faithfully and are
rejected with a clear error — re-record the trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from .clean import CleanMonitor
from .core.detector import CleanDetector
from .core.epoch import DEFAULT_LAYOUT, EpochLayout
from .core.exceptions import MetadataError, RaceException
from .runtime.trace import SYNC, StreamingTrace, Trace, open_trace

__all__ = ["AnalysisReport", "analyze_trace"]


@dataclass
class AnalysisReport:
    """Outcome of one offline trace analysis."""

    mode: str
    racy: bool
    #: kind/address/accessing_tid/prior_writer_tid/prior_writer_clock/
    #: size, plus the race's global access position when known.
    race: Optional[Dict[str, Any]]
    threads: int
    events: int
    accesses: int
    syncs: int
    #: ``clean.*`` counter totals (detector stats + fast path + shadow).
    counters: Dict[str, float]
    #: top-K shared addresses by access count (``hot_sites`` > 0 only)
    hot_sites: List[Dict[str, Any]] = field(default_factory=list)

    def to_payload(self) -> Dict[str, Any]:
        """JSON-ready dict (the ``analyze --json`` output)."""
        return {
            "mode": self.mode,
            "racy": self.racy,
            "race": self.race,
            "threads": self.threads,
            "events": self.events,
            "accesses": self.accesses,
            "syncs": self.syncs,
            "counters": dict(self.counters),
            "hot_sites": list(self.hot_sites),
        }


# -- trace loading and the replay plan ----------------------------------------


class _Cols:
    """One thread's full event stream as numpy columns."""

    __slots__ = (
        "kinds", "addresses", "sizes", "private", "sync_pos", "sync_names"
    )

    def __init__(self, trace: object, tid: int) -> None:
        kinds, addresses, sizes, private = [], [], [], []
        names: List[str] = []
        for chunk in trace.iter_chunks(tid):
            k = chunk.kinds
            kinds.append(k)
            addresses.append(chunk.addresses.astype(np.int64))
            sizes.append(chunk.sizes.astype(np.int64))
            private.append(chunk.private)
            names.extend(map(chunk.sync_name_at, np.flatnonzero(k == 2)))
        if kinds:
            self.kinds = np.concatenate(kinds)
            self.addresses = np.concatenate(addresses)
            self.sizes = np.concatenate(sizes)
            self.private = np.concatenate(private)
        else:
            self.kinds = np.zeros(0, dtype=np.uint8)
            self.addresses = np.zeros(0, dtype=np.int64)
            self.sizes = np.zeros(0, dtype=np.int64)
            self.private = np.zeros(0, dtype=bool)
        #: positions of the sync events, and their descriptors
        self.sync_pos = np.flatnonzero(self.kinds == 2)
        self.sync_names = names

    def __len__(self) -> int:
        return len(self.kinds)


class _Plan:
    """The replay plan: per-thread columns plus the global sync order.

    Raises :class:`ValueError` for a trace no replay can follow: a tid
    the epoch ``layout`` cannot hold, a thread other than the root (tid
    0) that no Spawn starts, a sync by a thread that is not running
    (before its Spawn or after its Join), or a Spawn/Join that names
    the root, itself, no thread of the trace, a running thread (Spawn)
    or one not running (Join).
    """

    def __init__(
        self, trace: object, layout: EpochLayout = DEFAULT_LAYOUT
    ) -> None:
        self.cols: Dict[int, _Cols] = {
            tid: _Cols(trace, tid) for tid in trace.thread_ids()
        }
        if self.cols and max(self.cols) > layout.max_tid:
            raise ValueError(
                f"thread id {max(self.cols)} does not fit the epoch "
                f"layout's {layout.tid_bits} tid bits"
            )
        #: (global order, tid, position, kind, argument) per sync commit,
        #: in global order; ``"Acquire:L"`` splits into kind and argument.
        self.syncs: List[Tuple[int, int, int, str, str]] = []
        split: Dict[str, Tuple[str, str]] = {}
        for tid, cols in self.cols.items():
            for order, pos, name in zip(
                cols.addresses[cols.sync_pos].tolist(),
                cols.sync_pos.tolist(),
                cols.sync_names,
            ):
                if order <= 0:
                    raise ValueError(
                        "trace has sync events without replayable "
                        "descriptors (recorded before the descriptor "
                        "format); re-record it to analyze offline"
                    )
                parts = split.get(name)
                if parts is None:
                    parts = split[name] = name.partition(":")[::2]
                self.syncs.append((order, tid, pos, *parts))
        self.syncs.sort(key=itemgetter(0))
        # Per (barrier, generation) episode: arrivers in arrival order.
        # Departs of the whole episode apply at its last arrival — the
        # moment the live barrier tripped.
        self.episodes: Dict[str, List[int]] = {}
        last_arrival: Dict[str, int] = {}
        spawned = {0}
        running = {0}
        for o, t, _p, kind, rest in self.syncs:
            if t not in running:
                raise ValueError(
                    f"thread {t}'s {kind} comes while it is not running "
                    "(before a Spawn of it, or after its Join)"
                )
            if kind == "BarrierWait":
                self.episodes.setdefault(rest, []).append(t)
                last_arrival[rest] = o
            elif kind in ("Spawn", "Join"):
                target = int(rest) if rest.isdecimal() else None
                if (
                    target in (t, 0)
                    or target not in self.cols
                    or (target in running) != (kind == "Join")
                ):
                    raise ValueError(
                        f"thread {t}'s {kind}:{rest} names no thread of "
                        f"the trace it could {kind.lower()}"
                    )
                if kind == "Spawn":
                    spawned.add(target)
                    running.add(target)
                else:
                    running.remove(target)
        self.trips: Dict[int, str] = {
            o: key for key, o in last_arrival.items()
        }
        unspawned = sorted(set(self.cols) - spawned)
        if unspawned:
            raise ValueError(
                f"thread {unspawned[0]} is never spawned: only the root, "
                "tid 0, starts without a Spawn"
            )
        self.threads = len(self.cols)
        self.events = sum(len(c) for c in self.cols.values())
        self.accesses = self.events - len(self.syncs)

    def min_max_threads(self) -> int:
        return (max(self.cols) + 1) if self.cols else 1


def _barrier_key(text: str) -> Tuple[str, int]:
    """``"B@3"`` -> the live run's ``(barrier name, generation)`` key."""
    name, _, gen = text.rpartition("@")
    return (name, int(gen))


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The concatenated index ranges ``[start, start + length)``."""
    return np.arange(int(lengths.sum())) + np.repeat(
        starts - (np.cumsum(lengths) - lengths), lengths
    )


def _segment_sums(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Sums of ``values`` from each start to the next (the last: to the
    end); ``starts`` is increasing and may end at ``len(values)``."""
    sums = np.zeros(starts.size, dtype=np.int64)
    inside = starts < values.size
    if inside.any():
        sums[inside] = np.add.reduceat(values, starts[inside], dtype=np.int64)
    return sums


# -- the single-process replay (scalar and batch) -----------------------------

#: Bytes of short segments a window gathers before it is joined.
WINDOW_BYTES = 1 << 15


class _MonitorReplay:
    """Drive a :class:`CleanMonitor` over a plan, scalar or batch.

    Mirrors exactly the live hook sequence: accesses of a segment, then
    the segment's sync's happens-before edges, then the sync-commit
    invalidation — so verdicts and every counter match a live run of
    the same interleaving.

    In batch mode a segment with at least ``BATCH_MIN`` shared accesses
    goes to ``check_block`` as it ends, as a one-segment block sliced
    straight from the plan's columns; shorter ones are deferred into a
    *window* with a snapshot of their thread's vector clock, and the
    window is joined in one ``check_block`` call — before the next long
    segment, at ``WINDOW_BYTES``, before any sync that might roll the
    clocks over (the reset must follow the window's writes) and at the
    end of the trace.  The syncs themselves still replay in order.
    """

    def __init__(
        self,
        plan: _Plan,
        monitor: CleanMonitor,
        batch: bool,
    ) -> None:
        self.plan = plan
        self.monitor = monitor
        self.batch = batch
        self.position = 0
        self._cursor: Dict[int, int] = {tid: 0 for tid in plan.cols}
        #: per thread, the index of its open segment (its syncs so far)
        self._segment: Dict[int, int] = {tid: 0 for tid in plan.cols}
        self.race: Optional[RaceException] = None
        self.race_position: Optional[int] = None
        # Batch mode: per thread and segment (the run before each sync,
        # then the tail), its bytes.
        self._bytes: Dict[int, List[int]] = {}
        if batch:
            for tid, cols in plan.cols.items():
                starts = np.concatenate(([0], cols.sync_pos + 1))
                self._bytes[tid] = _segment_sums(cols.sizes, starts).tolist()
        #: pending short segments: (tid, start, end, position, clock)
        self._window: List[Tuple[int, int, int, int, Any]] = []
        self._window_bytes = 0
        #: syncs that surely run before a rollover (recomputed at 0)
        self._safe_syncs = 0

    def run(self) -> None:
        monitor = self.monitor
        detector = monitor.detector
        monitor.on_thread_start(0, None)
        try:
            for order, tid, pos, kind, rest in self.plan.syncs:
                self._flush(tid, pos)
                if kind == "Join":
                    # The child's trailing accesses (after its last sync)
                    # happened before this join; replay them before
                    # retiring its tid.
                    child = int(rest)
                    self._flush(child, self._segment_end(child))
                if self._window and self._safe_syncs <= 0:
                    self._safe_syncs = detector.clock_headroom()
                    if self._safe_syncs <= 0:
                        # This sync may reset every epoch: the window's
                        # writes come first.
                        self._close_window()
                self._safe_syncs -= 1
                self._apply_sync(order, tid, kind, rest)
                self._cursor[tid] = pos + 1
                self._segment[tid] += 1
            for tid in sorted(self.plan.cols):
                self._flush(tid, len(self.plan.cols[tid]))
            self._close_window()
        except RaceException as exc:
            self.race = exc

    # -- segments ---------------------------------------------------------

    def _flush(self, tid: int, end: int) -> None:
        """Replay ``tid``'s accesses from its cursor up to ``end``."""
        start = self._cursor[tid]
        if end <= start:
            return
        self._cursor[tid] = end
        cols = self.plan.cols[tid]
        base = self.position
        self.position += end - start
        if self.batch:
            monitor = self.monitor
            batch_min = monitor.detector.BATCH_MIN
            shared = end - start
            if shared >= batch_min:
                shared -= int(np.count_nonzero(cols.private[start:end]))
            if shared >= batch_min:
                self._close_window()
                # Columnar hand-off: the decoded trace columns go to the
                # monitor's batch lane without materializing one tuple.
                try:
                    monitor.check_block(
                        ((tid, monitor.detector.thread_vc(tid)),),
                        (
                            cols.kinds[start:end] == 1,
                            cols.addresses[start:end],
                            cols.sizes[start:end],
                            cols.private[start:end],
                            np.zeros(end - start, dtype=np.int64),
                        ),
                    )
                except RaceException:
                    self.race_position = base + monitor.block_progress
                    raise
            else:
                try:
                    clock = monitor.detector.thread_vc(tid).copy()
                except MetadataError:
                    # Scalar replay checks every earlier access first.
                    self._close_window()
                    raise
                self._window.append((tid, start, end, base, clock))
                self._window_bytes += self._bytes[tid][self._segment[tid]]
                if self._window_bytes >= WINDOW_BYTES:
                    self._close_window()
        else:
            is_write = (cols.kinds[start:end] == 1).tolist()
            addr = cols.addresses[start:end].tolist()
            size = cols.sizes[start:end].tolist()
            private = cols.private[start:end].tolist()
            check = self.monitor._check_one
            for i in range(len(addr)):
                if private[i]:
                    continue
                try:
                    check(tid, is_write[i], addr[i], size[i])
                except RaceException:
                    self.race_position = base + i
                    raise

    def _close_window(self) -> None:
        """Join the pending short segments in one ``check_block``."""
        if not self._window:
            return
        tids, starts, ends, bases, clocks = zip(*self._window)
        self._window = []
        self._window_bytes = 0
        tid_col = np.array(tids)
        start_col = np.array(starts)
        lengths = np.array(ends) - start_col
        offsets = np.cumsum(lengths) - lengths
        total = int(lengths.sum())
        is_write = np.empty(total, dtype=bool)
        addr = np.empty(total, dtype=np.int64)
        size = np.empty(total, dtype=np.int64)
        private = np.empty(total, dtype=bool)
        for tid in set(tids):
            mine = tid_col == tid
            src = _ranges(start_col[mine], lengths[mine])
            dst = _ranges(offsets[mine], lengths[mine])
            cols = self.plan.cols[tid]
            is_write[dst] = cols.kinds[src] == 1
            addr[dst] = cols.addresses[src]
            size[dst] = cols.sizes[src]
            private[dst] = cols.private[src]
        seg = np.arange(len(tids)).repeat(lengths)
        monitor = self.monitor
        try:
            monitor.check_block(
                list(zip(tids, clocks)), (is_write, addr, size, private, seg)
            )
        except RaceException:
            index = monitor.block_progress
            s = int(seg[index])
            self.race_position = bases[s] + index - int(offsets[s])
            raise

    # -- synchronization --------------------------------------------------

    def _apply_sync(self, order: int, tid: int, kind: str, rest: str) -> None:
        monitor = self.monitor
        if kind == "Acquire":
            monitor.on_acquire(tid, rest)
        elif kind == "Release":
            monitor.on_release(tid, rest)
        elif kind == "CondWait":
            # The wait releases the lock; the cond edge happens at wake.
            _cond, _, lock = rest.partition(":")
            monitor.on_release(tid, lock)
        elif kind == "CondWake":
            lock, _, cond = rest.partition(":")
            monitor.on_acquire(tid, lock)
            monitor.on_cond_wake(tid, cond)
        elif kind in ("CondSignal", "CondBroadcast"):
            monitor.on_cond_signal(tid, rest)
        elif kind == "SemWait":
            monitor.on_sem_wait(tid, rest)
        elif kind == "SemPost":
            monitor.on_sem_post(tid, rest)
        elif kind == "BarrierWait":
            name, gen = _barrier_key(rest)
            monitor.on_barrier_arrive(tid, name, gen)
        elif kind == "Spawn":
            child = int(rest)
            monitor.on_thread_start(child, tid)
            monitor.on_spawn(tid, child)
        elif kind == "Join":
            monitor.on_join(tid, int(rest))
        else:
            raise ValueError(f"unknown sync kind {kind!r}")
        monitor.on_sync_commit(tid, None)
        key = self.plan.trips.get(order)
        if key is not None:
            name, gen = _barrier_key(key)
            for arriver in self.plan.episodes[key]:
                monitor.on_barrier_depart(arriver, name, gen)

    def _segment_end(self, tid: int) -> int:
        """End of ``tid``'s current open segment: its next sync, or EOF."""
        cols = self.plan.cols[tid]
        segment = self._segment[tid]
        if segment < cols.sync_pos.size:
            return int(cols.sync_pos[segment])
        return len(cols)


def _run_single(
    plan: _Plan,
    batch: bool,
    max_threads: int,
    layout: EpochLayout,
) -> Tuple[CleanMonitor, Optional[RaceException], Optional[int]]:
    detector = CleanDetector(max_threads=max_threads, layout=layout)
    monitor = CleanMonitor(detector=detector, max_threads=max_threads)
    monitor.sites = None  # profiling belongs to live runs, not replay
    replay = _MonitorReplay(plan, monitor, batch=batch)
    replay.run()
    return monitor, replay.race, replay.race_position


def _collect_counters(monitor: CleanMonitor) -> Dict[str, float]:
    from .obs import MetricsRegistry

    registry = MetricsRegistry()
    monitor.accumulate_metrics(registry)
    return {
        name: value
        for name, value in registry.snapshot().items()
        if isinstance(value, (int, float))
    }


def _race_payload(
    race: RaceException, position: Optional[int]
) -> Dict[str, Any]:
    return {
        "kind": race.kind,
        "address": race.address,
        "size": race.size,
        "accessing_tid": race.accessing_tid,
        "prior_writer_tid": race.prior_writer_tid,
        "prior_writer_clock": race.prior_writer_clock,
        "position": position,
    }


# -- hot-site ranking ---------------------------------------------------------


def _hot_sites(
    plan: _Plan, top_k: int, race: Optional[Dict[str, Any]]
) -> List[Dict[str, Any]]:
    """Top ``top_k`` shared addresses by access count, reads/writes split.

    Pure column arithmetic over the replay plan (no detector state):
    per-thread ``np.unique`` histograms of shared read/write start
    addresses, merged across threads, ranked by total accesses with the
    address as deterministic tie-break.  When the analysis found a race
    the racing address is flagged in its entry.
    """
    reads: Dict[int, int] = {}
    writes: Dict[int, int] = {}
    threads: Dict[int, set] = {}
    for tid, cols in plan.cols.items():
        shared = (cols.kinds != 2) & ~cols.private
        for counts, mask in ((reads, cols.kinds == 0), (writes, cols.kinds == 1)):
            addrs, tallies = np.unique(
                cols.addresses[shared & mask], return_counts=True
            )
            for addr, n in zip(addrs.tolist(), tallies.tolist()):
                counts[addr] = counts.get(addr, 0) + n
                threads.setdefault(addr, set()).add(tid)
    race_addr = race.get("address") if race else None
    ranked = sorted(
        set(reads) | set(writes),
        key=lambda a: (-(reads.get(a, 0) + writes.get(a, 0)), a),
    )
    return [
        {
            "address": addr,
            "accesses": reads.get(addr, 0) + writes.get(addr, 0),
            "reads": reads.get(addr, 0),
            "writes": writes.get(addr, 0),
            "threads": len(threads.get(addr, ())),
            "racy": addr == race_addr,
        }
        for addr in ranked[:top_k]
    ]


# -- the public entry point ---------------------------------------------------


def analyze_trace(
    trace: Union[str, Trace, StreamingTrace],
    mode: str = "batch",
    max_threads: Optional[int] = None,
    layout: EpochLayout = DEFAULT_LAYOUT,
    salvage: bool = False,
    hot_sites: int = 0,
) -> AnalysisReport:
    """Race-analyze a recorded trace offline.

    ``trace`` is a path or an in-memory/streaming trace.  ``mode`` is
    ``"scalar"`` or ``"batch"`` (default); both return identical
    verdicts, racing pairs and counter totals.  With ``hot_sites`` > 0
    the report additionally ranks the top-K shared addresses by access
    count (the service's ``/report`` diagnostics).
    """
    if mode not in ("scalar", "batch"):
        raise ValueError(f"unknown analysis mode {mode!r}")
    if isinstance(trace, (str,)) or hasattr(trace, "__fspath__"):
        trace = open_trace(str(trace), salvage=salvage)
    plan = _Plan(trace, layout)
    if max_threads is None:
        max_threads = max(plan.min_max_threads(), 2)
    monitor, race, position = _run_single(
        plan, batch=(mode == "batch"), max_threads=max_threads, layout=layout
    )
    payload = _race_payload(race, position) if race is not None else None
    return AnalysisReport(
        mode=mode,
        racy=race is not None,
        race=payload,
        threads=plan.threads,
        events=plan.events,
        accesses=plan.accesses,
        syncs=len(plan.syncs),
        counters=_collect_counters(monitor),
        hot_sites=(
            _hot_sites(plan, hot_sites, payload) if hot_sites > 0 else []
        ),
    )
