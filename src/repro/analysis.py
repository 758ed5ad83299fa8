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
* **batch** mode hands each synchronization-free run to the vectorized
  ``check_block`` lane — same verdicts, same counters, much faster.

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
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from .clean import CleanMonitor
from .core.detector import CleanDetector
from .core.epoch import DEFAULT_LAYOUT, EpochLayout
from .core.exceptions import RaceException
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

    __slots__ = ("kinds", "addresses", "sizes", "private", "sync_names")

    def __init__(self, trace: object, tid: int) -> None:
        kinds, addresses, sizes, private = [], [], [], []
        names: Dict[int, str] = {}
        base = 0
        for chunk in trace.iter_chunks(tid):
            k = chunk.kinds
            kinds.append(k)
            addresses.append(chunk.addresses.astype(np.int64))
            sizes.append(chunk.sizes.astype(np.int64))
            private.append(chunk.private)
            for pos in np.flatnonzero(k == 2):
                names[base + int(pos)] = chunk.sync_name_at(int(pos))
            base += len(chunk)
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
        #: event position -> sync descriptor
        self.sync_names = names

    def __len__(self) -> int:
        return len(self.kinds)


@dataclass(frozen=True)
class _SyncPoint:
    """One sync commit: global order, owning thread, position, descriptor."""

    order: int
    tid: int
    pos: int  # index into the thread's event columns
    descriptor: str


class _Plan:
    """The replay plan: per-thread columns plus the global sync order."""

    def __init__(self, trace: object) -> None:
        self.cols: Dict[int, _Cols] = {
            tid: _Cols(trace, tid) for tid in trace.thread_ids()
        }
        self.syncs: List[_SyncPoint] = []
        for tid, cols in self.cols.items():
            for pos in np.flatnonzero(cols.kinds == 2):
                pos = int(pos)
                order = int(cols.addresses[pos])
                if order <= 0:
                    raise ValueError(
                        "trace has sync events without replayable "
                        "descriptors (recorded before the descriptor "
                        "format); re-record it to analyze offline"
                    )
                self.syncs.append(
                    _SyncPoint(order, tid, pos, cols.sync_names[pos])
                )
        self.syncs.sort(key=lambda s: s.order)
        # Per (barrier, generation) episode: arrivers in arrival order.
        # Departs of the whole episode apply at its last arrival — the
        # moment the live barrier tripped.
        self.episodes: Dict[str, List[int]] = {}
        episode_orders: Dict[str, List[int]] = {}
        for s in self.syncs:
            if s.descriptor.startswith("BarrierWait:"):
                key = s.descriptor[len("BarrierWait:"):]
                self.episodes.setdefault(key, []).append(s.tid)
                episode_orders.setdefault(key, []).append(s.order)
        self.trips: Dict[int, str] = {
            max(orders): key for key, orders in episode_orders.items()
        }
        spawned = {
            int(s.descriptor.split(":", 1)[1])
            for s in self.syncs
            if s.descriptor.startswith("Spawn:")
        }
        roots = [tid for tid in self.cols if tid not in spawned]
        self.root = min(roots) if roots else min(self.cols, default=0)
        self.threads = len(self.cols)
        self.events = sum(len(c) for c in self.cols.values())
        self.accesses = int(
            sum(int((c.kinds != 2).sum()) for c in self.cols.values())
        )

    def min_max_threads(self) -> int:
        return (max(self.cols) + 1) if self.cols else 1


def _barrier_key(text: str) -> Tuple[str, int]:
    """``"B@3"`` -> the live run's ``(barrier name, generation)`` key."""
    name, _, gen = text.rpartition("@")
    return (name, int(gen))


# -- the single-process replay (scalar and batch) -----------------------------


class _MonitorReplay:
    """Drive a :class:`CleanMonitor` over a plan, scalar or batch.

    Mirrors exactly the live hook sequence: accesses of a segment, then
    the segment's sync's happens-before edges, then the sync-commit
    invalidation — so verdicts and every counter match a live run of
    the same interleaving.
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
        self._next_sync: Dict[int, List[int]] = {
            tid: sorted(
                int(p) for p in np.flatnonzero(plan.cols[tid].kinds == 2)
            )
            for tid in plan.cols
        }
        self.race: Optional[RaceException] = None
        self.race_position: Optional[int] = None

    def run(self) -> None:
        monitor = self.monitor
        monitor.on_thread_start(self.plan.root, None)
        try:
            for sync in self.plan.syncs:
                self._flush(sync.tid, sync.pos)
                self._apply_sync(sync)
                self._cursor[sync.tid] = sync.pos + 1
            for tid in sorted(self.plan.cols):
                self._flush(tid, len(self.plan.cols[tid]))
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
            # Columnar hand-off: the decoded trace columns go to the
            # monitor's batch lane without materializing one tuple.
            try:
                self.monitor.check_block(
                    tid,
                    (
                        cols.kinds[start:end] == 1,
                        cols.addresses[start:end],
                        cols.sizes[start:end],
                        cols.private[start:end],
                    ),
                )
            except RaceException:
                self.race_position = base + self.monitor.block_progress
                raise
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

    # -- synchronization --------------------------------------------------

    def _apply_sync(self, sync: _SyncPoint) -> None:
        monitor = self.monitor
        tid = sync.tid
        kind, _, rest = sync.descriptor.partition(":")
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
            child = int(rest)
            # The child's trailing accesses (after its last sync) happened
            # before this join; replay them before retiring its tid.
            self._flush(child, self._segment_end(child))
            monitor.on_join(tid, child)
        else:
            raise ValueError(f"unknown sync descriptor {sync.descriptor!r}")
        monitor.on_sync_commit(tid, None)
        if sync.order in self.plan.trips:
            key = self.plan.trips[sync.order]
            name, gen = _barrier_key(key)
            for arriver in self.plan.episodes[key]:
                monitor.on_barrier_depart(arriver, name, gen)

    def _segment_end(self, tid: int) -> int:
        """End of ``tid``'s current open segment: its next sync, or EOF."""
        cursor = self._cursor[tid]
        for pos in self._next_sync[tid]:
            if pos >= cursor:
                return pos
        return len(self.plan.cols[tid])


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
    plan = _Plan(trace)
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
