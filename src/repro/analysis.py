"""Offline trace analysis: race-check recorded traces without re-running.

A :class:`~repro.runtime.trace.TraceRecorder` trace carries everything
the detector needs — every thread's accesses in program order plus, for
each synchronization commit, a *replayable descriptor* (``"Acquire:L"``,
``"BarrierWait:B@3"``, ``"Spawn:2"``, ...) and the commit's global
position in the scheduler's deterministic sync sequence.  This module
rebuilds the execution's happens-before relation from those descriptors
and drives the CLEAN detector over the trace, entirely offline:

* **scalar** mode replays one access at a time through the exact
  per-event monitor path, the syncs through the monitor's hooks;
* **batch** mode is one streamed *clock pass*: it applies the syncs to
  epoch-encoded clock rows of its own and checks each segment through
  the one vectorized kernel, ``check_block``, against the row its
  thread held when the segment ended — consecutive segments of
  ``BATCH_MIN`` or more shared accesses together in *runs*, consecutive
  shorter ones together in *windows*, each batch up to ``WINDOW_BYTES``
  — same verdicts, same counters, much faster.

Replay order
------------

Replay is one sequential pass.  Segments (one thread's accesses up to
its next sync commit) replay in the global order of their closing
syncs; a thread's vector clock only changes at its own commits, so this
order is consistent with the recorded happens-before relation, and each
segment's clock is known once its closing sync is reached.  Race-free
traces therefore get the exact live verdicts and counters; racy traces
get a canonical, deterministic order so every analysis mode agrees on
the first race.

Traces from recorders older than the descriptor format (sync events
with a zero global index) cannot be replayed faithfully and are
rejected with a clear error — re-record the trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from typing import Any, Collection, Dict, List, Optional, Set, Tuple, Union

import numpy as np

from .clean import CleanMonitor
from .core.detector import CleanDetector
from .core.epoch import DEFAULT_LAYOUT, EpochLayout
from .core.exceptions import RaceException
from .runtime.trace import StreamingTrace, Trace, open_trace

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
        """JSON-ready dict (the ``analyze --json`` output): the report's
        own field values, already JSON-ready, in a new top-level dict
        that a caller may extend (no deep copy)."""
        return dict(vars(self))


# -- trace loading and the replay plan ----------------------------------------


class _Plan:
    """The replay plan: every thread's events plus the global sync order.

    The columns hold all threads' events back to back, in tid order.  A
    *segment* — a thread's accesses up to its next sync — is indexed by
    the sync that closes it (``sync_tids``/``sync_names`` list the syncs
    in global order), a thread's tail after its last sync by
    ``len(sync_names)`` plus its rank in ``tids``; ``seg_start``,
    ``seg_end``, ``seg_tid``, ``seg_shared`` (its shared accesses) and
    ``seg_bytes`` (their bytes) describe it.

    Raises :class:`ValueError` for a trace no replay can follow: a tid
    the epoch ``layout`` cannot hold, a sync without a commit order, a
    thread whose commit orders do not increase, or a thread other than
    the root (tid 0) that no Spawn names.
    The replay finds syncs of threads that are not running.
    """

    def __init__(
        self, trace: object, layout: EpochLayout = DEFAULT_LAYOUT
    ) -> None:
        self.tids: List[int] = sorted(trace.thread_ids())
        if self.tids and self.tids[-1] > layout.max_tid:
            raise ValueError(
                f"thread id {self.tids[-1]} does not fit the epoch "
                f"layout's {layout.tid_bits} tid bits"
            )
        # Filled chunk by chunk: the columns exist once, never as chunks
        # and their concatenation side by side.
        total = trace.total_events
        self.kinds = np.empty(total, dtype=np.uint8)
        self.addresses = np.empty(total, dtype=np.int64)
        self.sizes = np.empty(total, dtype=np.uint8)  # accesses: 1..64 bytes
        self.private = np.empty(total, dtype=bool)
        names: List[str] = []
        #: per sync event, and per thread: the thread's shared accesses
        #: and their bytes before it, and in all
        before: List[np.ndarray] = []
        totals: List[np.ndarray] = []
        self.ends: List[int] = []
        end = 0
        for tid in self.tids:
            seen = np.zeros((2, 1), dtype=np.int64)
            for chunk in trace.iter_chunks(tid):
                kinds, private, sizes = chunk.kinds, chunk.private, chunk.sizes
                run = slice(end, end + len(kinds))
                end += len(kinds)
                self.kinds[run] = kinds
                self.addresses[run] = chunk.addresses
                self.sizes[run] = sizes
                self.private[run] = private
                sync = kinds == 2
                shared = ~(sync | private)
                tally = np.cumsum((shared, shared * sizes), 1, np.int64)
                before.append(tally[:, sync] + seen)
                seen = seen + tally[:, -1:] if len(kinds) else seen
                # A sync without a name reads the table's "" sentinel.
                table = [*chunk.names, ""]
                index = np.minimum(chunk.name_idx[sync], len(table) - 1)
                names.extend([table[i] for i in index.tolist()])
            self.ends.append(end)
            totals.append(seen[:, 0])

        # Every sync event, in thread order, then by commit order.
        at = np.flatnonzero(self.kinds == 2)
        ends = np.array(self.ends, dtype=np.int64)
        rank = np.searchsorted(ends, at, "right")
        orders = self.addresses[at]
        if orders.size and int(orders.min()) <= 0:
            raise ValueError(
                "trace has sync events without replayable descriptors "
                "(recorded before the descriptor format); re-record it "
                "to analyze offline"
            )
        same = rank[1:] == rank[:-1]
        if (same & (orders[1:] <= orders[:-1])).any():
            raise ValueError("a thread's sync commit orders do not increase")
        perm = np.argsort(orders, kind="stable")
        tids = np.array(self.tids, dtype=np.int64)
        self.sync_tid_col = tids[rank][perm]
        self.sync_tids: List[int] = self.sync_tid_col.tolist()
        self.sync_names: List[str] = [names[i] for i in perm.tolist()]
        # Segments: each sync's run from its thread's previous sync (or
        # its start), then every thread's tail.
        starts = np.concatenate(([0], ends[:-1]))
        seg_start = starts[rank]
        seg_start[1:][same] = at[:-1][same] + 1
        tail = starts.copy()
        np.maximum.at(tail, rank, at + 1)
        self.seg_start = np.concatenate((seg_start[perm], tail))
        self.seg_end = np.concatenate((at[perm], ends))
        self.seg_tid = np.concatenate((self.sync_tid_col, tids))
        # ... and its shared accesses and bytes, from the running tallies.
        tally = np.concatenate([np.zeros((2, 0), np.int64), *before], axis=1)
        own = tally.copy()
        own[:, 1:][:, same] -= tally[:, :-1][:, same]
        at_last = np.zeros((2, len(self.tids)), dtype=np.int64)
        for row in (0, 1):
            np.maximum.at(at_last[row], rank, tally[row])
        tails = np.array(totals, dtype=np.int64).reshape(-1, 2).T - at_last
        self.seg_shared, self.seg_bytes = np.concatenate(
            (own[:, perm], tails), axis=1
        )

        # Per (barrier, generation) episode: arrivers in arrival order.
        # Departs of the whole episode apply at its last arrival — the
        # moment the live barrier tripped.
        distinct = set(self.sync_names)
        barriers = {n for n in distinct if n.startswith("BarrierWait:")}
        self.episodes: Dict[str, List[int]] = {}
        last_arrival: Dict[str, int] = {}
        for i, name in enumerate(self.sync_names):
            if name in barriers:
                key = name[len("BarrierWait:"):]
                self.episodes.setdefault(key, []).append(self.sync_tids[i])
                last_arrival[key] = i
        #: sync index of each episode's last arrival -> its episode
        self.trips = {i: key for key, i in last_arrival.items()}
        spawned = {
            int(n[6:]) for n in distinct
            if n.startswith("Spawn:") and n[6:].isdecimal()
        }
        unspawned = sorted(set(self.tids) - spawned - {0})
        if unspawned:
            raise ValueError(
                f"thread {unspawned[0]} is never spawned: only the root, "
                "tid 0, starts without a Spawn"
            )

    def min_max_threads(self) -> int:
        return self.tids[-1] + 1 if self.tids else 1

    def target(
        self, tid: int, kind: str, rest: str, running: Collection[int]
    ) -> int:
        """The thread a Spawn or Join of ``tid`` names, if it may."""
        target = int(rest) if rest.isdecimal() else None
        if (
            target in (tid, 0)
            or target not in self.tids
            or (target in running) != (kind == "Join")
        ):
            raise ValueError(
                f"thread {tid}'s {kind}:{rest} names no thread of "
                f"the trace it could {kind.lower()}"
            )
        return target

    def open_segment(self, tid: int, i: int) -> int:
        """The segment ``tid`` has open at sync ``i``: up to its next
        sync, or its tail."""
        mine = np.flatnonzero(self.sync_tid_col == tid)
        later = int(np.searchsorted(mine, i))
        if later < mine.size:
            return int(mine[later])
        return len(self.sync_names) + self.tids.index(tid)


def _not_running(tid: int, what: str) -> ValueError:
    return ValueError(
        f"thread {tid}'s {what} comes while it is not running "
        "(before a Spawn of it, or after its Join)"
    )


_ACQUIRE, _RELEASE, _WAKE, _BARRIER, _SPAWN, _JOIN = range(6)


def _sync_op(name: str) -> Tuple[Any, ...]:
    """A sync descriptor as both lanes apply it: an op code and its
    sync keys, the detector's keys for the same objects."""
    kind, _, rest = name.partition(":")
    if kind in ("Acquire", "SemWait"):
        return (_ACQUIRE, rest)
    if kind in ("Release", "SemPost", "CondSignal", "CondBroadcast"):
        return (_RELEASE, rest)
    if kind == "CondWait":  # releases the lock; the cond edge is at wake
        return (_RELEASE, rest.partition(":")[2])
    if kind == "CondWake":
        return (_WAKE, *rest.partition(":")[::2])
    if kind == "BarrierWait":  # "B@3": the live (barrier, generation) key
        barrier, _, generation = rest.rpartition("@")
        return (_BARRIER, (barrier, int(generation)))
    if kind in ("Spawn", "Join"):
        return (_SPAWN if kind == "Spawn" else _JOIN, rest)
    raise ValueError(f"unknown sync kind {kind!r}")


# -- scalar replay: the per-event monitor path --------------------------------


class _MonitorReplay:
    """Drive a :class:`CleanMonitor` over a plan, one event at a time.

    Mirrors exactly the live hook sequence: accesses of a segment, then
    the segment's sync's happens-before edges, then the sync-commit
    invalidation — so verdicts and every counter match a live run of
    the same interleaving.  The batch lane is held to this reference.
    """

    def __init__(self, plan: _Plan, monitor: CleanMonitor) -> None:
        self.plan = plan
        self.monitor = monitor
        self.position = 0
        #: segments already replayed, at a Join of their thread
        self._joined: Set[int] = set()
        self.race: Optional[RaceException] = None
        self.race_position: Optional[int] = None

    def run(self) -> None:
        plan = self.plan
        monitor = self.monitor
        monitor.on_thread_start(0, None)
        running = {0}
        try:
            for i, (tid, name) in enumerate(
                zip(plan.sync_tids, plan.sync_names)
            ):
                if tid not in running:
                    raise _not_running(tid, name)
                self._replay(i)
                op = _sync_op(name)
                if op[0] == _SPAWN:
                    running.add(plan.target(tid, "Spawn", op[1], running))
                elif op[0] == _JOIN:
                    # The child's trailing accesses (after its last sync)
                    # happened before this join; replay them before
                    # retiring its tid.
                    child = plan.target(tid, "Join", op[1], running)
                    segment = plan.open_segment(child, i)
                    self._replay(segment)
                    self._joined.add(segment)
                    running.remove(child)
                self._apply_sync(tid, op)
                for arriver in plan.episodes.get(plan.trips.get(i), ()):
                    if arriver not in running:
                        raise _not_running(arriver, "barrier departure")
                    monitor.on_barrier_depart(arriver, *op[1])
            for rank in range(len(plan.tids)):
                self._replay(len(plan.sync_names) + rank)
        except RaceException as exc:
            self.race = exc

    def _replay(self, s: int) -> None:
        """Replay segment ``s``'s accesses, unless a Join already did."""
        if s in self._joined:
            return
        plan = self.plan
        lo, hi = int(plan.seg_start[s]), int(plan.seg_end[s])
        base = self.position
        self.position += hi - lo
        tid = int(plan.seg_tid[s])
        is_write = (plan.kinds[lo:hi] == 1).tolist()
        addr = plan.addresses[lo:hi].tolist()
        size = plan.sizes[lo:hi].tolist()
        private = plan.private[lo:hi].tolist()
        check = self.monitor._check_one
        for i in range(hi - lo):
            if private[i]:
                continue
            try:
                check(tid, is_write[i], addr[i], size[i])
            except RaceException:
                self.race_position = base + i
                raise

    def _apply_sync(self, tid: int, op: Tuple[Any, ...]) -> None:
        monitor = self.monitor
        code = op[0]
        if code == _ACQUIRE:
            monitor.on_acquire(tid, op[1])
        elif code == _RELEASE:
            monitor.on_release(tid, op[1])
        elif code == _WAKE:
            monitor.on_acquire(tid, op[1])
            monitor.on_cond_wake(tid, op[2])
        elif code == _BARRIER:
            monitor.on_barrier_arrive(tid, *op[1])
        elif code == _SPAWN:
            monitor.on_thread_start(int(op[1]), tid)
            monitor.on_spawn(tid, int(op[1]))
        else:
            monitor.on_join(tid, int(op[1]))
        monitor.on_sync_commit(tid, None)


# -- batch replay: one streamed clock pass ------------------------------------

#: Shared bytes a batch of segments gathers before it is checked.
WINDOW_BYTES = 1 << 14


def _join(a: Tuple[int, ...], b: Tuple[int, ...]) -> Tuple[int, ...]:
    """Vector-clock join of two epoch-encoded rows: a plain word max,
    since element ``i`` of every row packs tid ``i``."""
    return tuple([x if x >= y else y for x, y in zip(a, b)])


class _ClockPass:
    """Batch replay: one pass over the plan's syncs, checking as it goes.

    A thread's vector clock changes only at its own syncs, so a
    segment's clock is known when the sync that closes it is reached.
    The pass applies every sync to epoch-encoded rows held in plain int
    tuples — no monitor hooks, no vector-clock objects — and puts each
    closed segment, with its thread's row, into an open batch: a *run*
    of segments with ``BATCH_MIN`` or more shared accesses each, or a
    *window* of shorter ones.  One ``check_block`` call checks the batch
    when it holds ``WINDOW_BYTES``, before a segment of the other kind,
    before an advance that rolls the clocks over (the pass then resets
    the shadow and every row itself) and at the end; so each call takes
    one of the kernel's two joins, and a segment is never split.  Only
    the open batch's rows and columns are held at any time.  A Release
    assigns its row to the key instead of joining it when the releaser
    owns the key: it joined the key at an Acquire, and nothing has
    written the key since.  The detector ends where per-sync replay
    leaves it.
    """

    def __init__(self, plan: _Plan, monitor: CleanMonitor) -> None:
        self.plan = plan
        self.monitor = monitor
        self.race: Optional[RaceException] = None
        self.race_position: Optional[int] = None
        #: per segment: shared accesses, their bytes, events
        self.shared: List[int] = plan.seg_shared.tolist()
        self.nbytes: List[int] = plan.seg_bytes.tolist()
        self.length: List[int] = (plan.seg_end - plan.seg_start).tolist()
        #: the open batch: segments, their rows and replay positions,
        #: their shared bytes, and whether they are long
        self._segs: List[int] = []
        self._rows: List[Tuple[int, ...]] = []
        self._bases: List[int] = []
        self._size = 0
        self._long = False

    def run(self) -> None:
        try:
            try:
                self._pass()
            except ValueError:
                # Scalar replay checks every earlier access first.
                self._check_batch()
                raise
        except RaceException as exc:
            self.race = exc

    def _pass(self) -> None:
        plan = self.plan
        detector = self.monitor.detector
        layout = detector.layout
        width = detector.max_threads
        cmax = layout.clock_max
        batch_min = detector.BATCH_MIN
        window = WINDOW_BYTES
        base = tuple(layout.pack(t, 0) for t in range(width))
        fresh = [
            base[:t] + (base[t] + 1,) + base[t + 1:] for t in range(width)
        ]
        clocks: Dict[int, Tuple[int, ...]] = {0: fresh[0]}
        free = list(range(width - 1, 0, -1))
        locks: Dict[Any, Tuple[int, ...]] = {}
        # key -> the tid that joined it at an Acquire, while nothing has
        # written it since: that thread's row dominates the key's, so
        # its Release may assign instead of join (FastTrack's L := C_t).
        owner: Dict[Any, int] = {}
        ops: Dict[str, Tuple[Any, ...]] = {}
        shared, nbytes, length = self.shared, self.nbytes, self.length
        segs, rows, bases = self._segs, self._rows, self._bases
        position = sync_ops = 0

        def advance(tid: int) -> None:
            row = clocks[tid]
            if row[tid] & cmax == cmax:
                # Rollover: the batch's writes come before the reset.
                self._check_batch()
                detector.reset_metadata()
                for t in clocks:
                    clocks[t] = fresh[t]
                for key in locks:
                    locks[key] = base
                owner.clear()
                row = clocks[tid]
            new = list(row)
            new[tid] += 1
            clocks[tid] = tuple(new)

        try:
            for i, tid, name in zip(count(), plan.sync_tids, plan.sync_names):
                row = clocks.get(tid)
                if row is None:
                    raise _not_running(tid, name)
                # Segment i joins the open batch here unless it fills the
                # batch or switches its kind: then ``_close`` checks it.
                n = shared[i]
                if not n:
                    position += length[i]
                elif (
                    (n >= batch_min) == self._long
                    and self._size + nbytes[i] < window
                ):
                    segs.append(i)
                    rows.append(row)
                    bases.append(position)
                    self._size += nbytes[i]
                    position += length[i]
                else:
                    position = self._close(i, row, position)
                op = ops.get(name)
                if op is None:
                    op = ops[name] = _sync_op(name)
                code = op[0]
                if code == _ACQUIRE:
                    sync_ops += 1
                    key = op[1]
                    lock = locks.get(key)
                    if lock is not None:
                        clocks[tid] = _join(row, lock)
                    owner[key] = tid
                elif code == _RELEASE or code == _BARRIER:
                    sync_ops += 1
                    key = op[1]
                    if owner.pop(key, None) == tid:
                        locks[key] = row
                    else:
                        lock = locks.get(key)
                        locks[key] = row if lock is None else _join(lock, row)
                    if row[tid] & cmax == cmax:
                        advance(tid)
                    else:
                        new = list(row)
                        new[tid] += 1
                        clocks[tid] = tuple(new)
                    if code == _BARRIER:
                        episode = plan.episodes.get(plan.trips.get(i), ())
                        for arriver in episode:
                            if arriver not in clocks:
                                raise _not_running(
                                    arriver, "barrier departure"
                                )
                            sync_ops += 1
                            row = clocks[arriver]
                            clocks[arriver] = _join(row, locks[key])
                elif code == _WAKE:
                    sync_ops += 2
                    for key in op[1:]:
                        lock = locks.get(key)
                        if lock is not None:
                            row = _join(row, lock)
                        owner[key] = tid
                    clocks[tid] = row
                elif code == _SPAWN:
                    child = plan.target(tid, "Spawn", op[1], clocks)
                    free.remove(child)
                    clocks[child] = row
                    advance(child)
                    advance(tid)
                else:
                    # The child's trailing accesses (after its last sync)
                    # happened before this join.
                    child = plan.target(tid, "Join", op[1], clocks)
                    position = self._close(
                        plan.open_segment(child, i), clocks[child], position
                    )
                    advance(child)
                    clocks[tid] = _join(clocks[tid], clocks.pop(child))
                    free.append(child)
                    # A Spawn may hand the child's tid a row that lacks
                    # what it acquired.  Clearing every entry is amortized
                    # O(1), where finding the child's would cost O(keys).
                    owner.clear()
            for rank, tid in enumerate(plan.tids):
                s = len(plan.sync_names) + rank
                position = self._close(s, clocks.get(tid), position)
            self._check_batch()
        finally:
            detector.install_clocks(clocks, locks, free)
            detector.stats.sync_ops += sync_ops

    def _close(self, s: int, row: Tuple[int, ...], base: int) -> int:
        """Check segment ``s``, which starts at replay position ``base``,
        against ``row``: into the open batch, after checking the batch
        first if it holds the other kind of segment, and checking it
        after if the segment fills it.  A segment is closed once (a Join
        closes its child's ahead of the child's next sync); returns the
        replay position after it."""
        shared, length = self.shared[s], self.length[s]
        self.shared[s] = self.length[s] = 0
        if shared:
            long_segment = shared >= self.monitor.detector.BATCH_MIN
            if long_segment != self._long:
                self._check_batch()
                self._long = long_segment
            self._segs.append(s)
            self._rows.append(row)
            self._bases.append(base)
            self._size += self.nbytes[s]
            if self._size >= WINDOW_BYTES:
                self._check_batch()
        return base + length

    def _check_batch(self) -> None:
        """Check the open batch's segments in one ``check_block`` call."""
        if not self._segs:
            return
        plan = self.plan
        # Emptied in place: the pass appends to these lists directly.
        segs, rows, bases = np.array(self._segs), self._rows, self._bases
        self._size = 0
        segments = np.empty(
            (segs.size, self.monitor.detector.max_threads + 1), dtype=np.int64
        )
        segments[:, 0] = plan.seg_tid[segs]
        segments[:, 1:] = rows
        rows.clear()
        self._segs.clear()
        starts = plan.seg_start[segs]
        lengths = plan.seg_end[segs] - starts
        if segs.size == 1:  # one segment: views, not copies
            src: Any = slice(int(starts[0]), int(starts[0] + lengths[0]))
        else:
            src = np.arange(int(lengths.sum())) + np.repeat(
                starts - (np.cumsum(lengths) - lengths), lengths
            )
        seg = np.arange(segs.size).repeat(lengths)
        monitor = self.monitor
        try:
            monitor.check_block(segments, (
                plan.kinds[src] == 1, plan.addresses[src],
                plan.sizes[src].astype(np.int64),
                plan.private[src], seg,
            ))
        except RaceException:
            index = monitor.block_progress
            s = int(seg[index])
            self.race_position = bases[s] + index - int(lengths[:s].sum())
            raise
        bases.clear()


def _run_single(
    plan: _Plan, batch: bool, layout: EpochLayout
) -> Tuple[CleanMonitor, Optional[RaceException], Optional[int]]:
    max_threads = max(plan.min_max_threads(), 2)
    detector = CleanDetector(max_threads=max_threads, layout=layout)
    monitor = CleanMonitor(detector=detector, max_threads=max_threads)
    monitor.sites = None  # profiling belongs to live runs, not replay
    replay = (_ClockPass if batch else _MonitorReplay)(plan, monitor)
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

    Pure column arithmetic over the replay plan (no detector state): one
    ``np.unique`` over every thread's shared start addresses, counts of
    its accesses and writes and of its distinct (address, thread) pairs
    (a stable sort, not the hashed ``np.unique``, which costs a service
    worker about 1.5 MB of resident memory), ranked by total accesses
    with the address as deterministic tie-break.  When the analysis
    found a race the racing address is flagged in its entry.
    """
    shared = (plan.kinds != 2) & ~plan.private
    at = np.flatnonzero(shared)
    sites, site = np.unique(plan.addresses[at], return_inverse=True)
    accesses = np.bincount(site, minlength=sites.size)
    writes = np.bincount(site[plan.kinds[at] == 1], minlength=sites.size)
    width = len(plan.tids)
    pairs = np.sort(
        site * width + np.searchsorted(plan.ends, at, "right"), kind="stable"
    )
    distinct = np.empty(pairs.size, dtype=bool)
    distinct[:1] = True
    np.not_equal(pairs[1:], pairs[:-1], out=distinct[1:])
    threads = np.bincount(pairs[distinct] // width, minlength=sites.size)
    race_addr = race.get("address") if race else None
    return [
        {
            "address": int(sites[i]),
            "accesses": int(accesses[i]),
            "reads": int(accesses[i] - writes[i]),
            "writes": int(writes[i]),
            "threads": int(threads[i]),
            "racy": int(sites[i]) == race_addr,
        }
        # ``sites`` ascend, so a stable sort breaks ties by address.
        for i in np.argsort(-accesses, kind="stable")[:top_k].tolist()
    ]


# -- the public entry point ---------------------------------------------------


def analyze_trace(
    trace: Union[str, Trace, StreamingTrace],
    mode: str = "batch",
    layout: EpochLayout = DEFAULT_LAYOUT,
    salvage: bool = False,
    hot_sites: int = 0,
) -> AnalysisReport:
    """Race-analyze a recorded trace offline.

    ``trace`` is a path or an in-memory/streaming trace.  ``mode`` is
    ``"scalar"`` or ``"batch"`` (default); both return identical
    verdicts, racing pairs and counter totals.  The detector holds as
    many threads as the trace's largest tid needs.  With ``hot_sites`` > 0
    the report additionally ranks the top-K shared addresses by access
    count (the service's ``/report`` diagnostics); a negative
    ``hot_sites`` raises :class:`ValueError`.
    """
    if mode not in ("scalar", "batch"):
        raise ValueError(f"unknown analysis mode {mode!r}")
    if hot_sites < 0:
        raise ValueError(f"hot_sites must be 0 or more, not {hot_sites}")
    if isinstance(trace, (str,)) or hasattr(trace, "__fspath__"):
        trace = open_trace(str(trace), salvage=salvage)
    plan = _Plan(trace, layout)
    monitor, race, position = _run_single(plan, mode == "batch", layout)
    payload = _race_payload(race, position) if race is not None else None
    return AnalysisReport(
        mode=mode,
        racy=race is not None,
        race=payload,
        threads=len(plan.tids),
        events=len(plan.kinds),
        accesses=len(plan.kinds) - len(plan.sync_names),
        syncs=len(plan.sync_names),
        counters=_collect_counters(monitor),
        hot_sites=(
            _hot_sites(plan, hot_sites, payload) if hot_sites > 0 else []
        ),
    )
