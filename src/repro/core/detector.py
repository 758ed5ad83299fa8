"""The CLEAN race detector: precise WAW and RAW detection via epochs.

This module implements the paper's core mechanism (Sections 3.2 and 4):

* one epoch word per shared byte, holding the last write's
  ``(tid, clock)`` pair;
* per-thread and per-lock vector clocks, updated only on synchronization
  and thread create/join;
* the Figure-2 check on every shared access: a WAW or RAW race occurred
  iff the saved epoch's clock exceeds the accessing thread's vector-clock
  element for the saved epoch's thread;
* write-side epoch update via compare-and-swap, so concurrent write
  checks cannot silently lose a WAW race (Section 4.3);
* the multi-byte fast path of Section 4.4: when all bytes of an access
  share one epoch, a single comparison (and a single wide update)
  suffices;
* the clock-rollover procedure of Section 4.5: when a clock is about to
  exceed its representation, every epoch and vector clock is reset at a
  deterministic synchronization boundary.

WAR races are *never* checked — that is the point of CLEAN: reads do not
update any metadata, and writes are only compared against the last write.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from .epoch import DEFAULT_LAYOUT, EpochLayout
from .events import DetectorBackend, stable_sync_id
from .exceptions import (
    MetadataError,
    RawRaceException,
    TooManyThreadsError,
    WawRaceException,
)
from .shadow import FlatShadow, SparseShadow
from .vector_clock import VectorClock

__all__ = ["AccessStats", "CleanDetector", "ThreadState"]

#: A batch block whose bytes span at most this many addresses keys its
#: scratch table by address offset; a sparser one by distinct-byte rank.
_DENSE_SPAN = 1 << 18


def _expand(
    addr: np.ndarray, size: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Expand an access run into its bytes, in access order.

    Returns ``(starts, acc_idx, baddr)``: each access's first byte
    index, each byte's access index, and each byte's address.
    """
    starts = size.cumsum() - size
    total = int(starts[-1] + size[-1])
    acc_idx = np.arange(size.size).repeat(size)
    baddr = (addr - starts).repeat(size) + np.arange(total)
    return starts, acc_idx, baddr


def _accesses(acc_idx: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """The distinct access indices of the bytes ``mask`` selects from an
    expanded run (``acc_idx`` is non-decreasing)."""
    acc = acc_idx[mask]
    if acc.size:
        keep = np.empty(acc.size, dtype=bool)
        keep[0] = True
        np.not_equal(acc[1:], acc[:-1], out=keep[1:])
        acc = acc[keep]
    return acc


@dataclass
class AccessStats:
    """Counters describing the detector's dynamic behaviour.

    These feed the software cost model (Figure 6/8) and the reproduction
    of the paper's measured access properties: the fraction of accesses
    that are >= 4 bytes wide and the fraction of multi-byte accesses whose
    bytes all share one epoch (Section 6.2.3).
    """

    reads: int = 0
    writes: int = 0
    read_bytes: int = 0
    written_bytes: int = 0
    accesses_ge_4_bytes: int = 0
    multibyte_accesses: int = 0
    multibyte_uniform_epoch: int = 0
    epoch_comparisons: int = 0
    epoch_updates: int = 0
    cas_failures: int = 0
    sync_ops: int = 0
    rollovers: int = 0
    races_raised: int = 0

    @property
    def accesses(self) -> int:
        """Total checked accesses."""
        return self.reads + self.writes

    @property
    def fraction_wide(self) -> float:
        """Fraction of accesses that are 4 or more bytes wide."""
        if not self.accesses:
            return 0.0
        return self.accesses_ge_4_bytes / self.accesses

    @property
    def fraction_uniform_epoch(self) -> float:
        """Fraction of multi-byte accesses with one epoch for all bytes."""
        if not self.multibyte_accesses:
            return 0.0
        return self.multibyte_uniform_epoch / self.multibyte_accesses


@dataclass
class ThreadState:
    """Per-thread detector state: the tid and its vector clock."""

    tid: int
    vc: VectorClock


class CleanDetector(DetectorBackend):
    """Precise WAW/RAW race detector with deterministic rollover resets.

    Parameters
    ----------
    max_threads:
        Arity of every vector clock; also bounds concurrently-live
        threads.  Thread ids of joined threads are reused (Section 4.5).
    layout:
        Epoch bit layout.  The default is the paper's 23-bit-clock
        configuration; pass :data:`~repro.core.epoch.WIDE_CLOCK_LAYOUT`
        for the 28-bit Table-1 configuration.
    shadow:
        Epoch store; defaults to a fresh :class:`FlatShadow` (the flat
        array table the batch path vectorizes over).  Pass a
        :class:`SparseShadow` for the paper's pay-as-you-go hash map or
        a :class:`DenseShadow` for a fixed window.
    vectorized:
        Enable the Section-4.4 multi-byte fast path.  Disabling it forces
        one check per byte — the "without vectorization" bar of Figure 8.
    auto_rollover:
        Reset metadata automatically when a clock is about to overflow.
        The runtime integration performs the reset at a globally
        deterministic synchronization point; standalone use resets at the
        offending synchronization operation, which in a cooperative
        execution is itself an SFR boundary.
    """

    def __init__(
        self,
        max_threads: int = 8,
        layout: EpochLayout = DEFAULT_LAYOUT,
        shadow: Optional[SparseShadow] = None,
        vectorized: bool = True,
        auto_rollover: bool = True,
    ) -> None:
        if max_threads < 1:
            raise ValueError("need at least one thread")
        if max_threads - 1 > layout.max_tid:
            raise TooManyThreadsError(
                f"{max_threads} threads need more than {layout.tid_bits} tid bits"
            )
        self.layout = layout
        self.max_threads = max_threads
        self.shadow = shadow if shadow is not None else FlatShadow()
        self.vectorized = vectorized
        self.auto_rollover = auto_rollover
        self.stats = AccessStats()
        self.rollover_pending = False
        self._threads: Dict[int, ThreadState] = {}
        self._free_tids: List[int] = list(range(max_threads - 1, -1, -1))
        self._lock_vcs: Dict[object, VectorClock] = {}

    # -- thread lifecycle --------------------------------------------------

    def spawn_root(self) -> int:
        """Create the initial (main) thread; returns its tid (always 0)."""
        if self._threads:
            raise MetadataError("root thread already exists")
        tid = self._free_tids.pop()
        self._threads[tid] = ThreadState(tid, VectorClock(self.max_threads, self.layout))
        self._threads[tid].vc.increment(tid)
        return tid

    def fork(self, parent_tid: int, child_tid: Optional[int] = None) -> int:
        """Create a child thread; establishes parent-happens-before-child.

        The child inherits the parent's vector clock (so everything the
        parent did so far happens-before everything the child will do),
        then both advance their own clocks.  ``child_tid`` pins the id
        (it must be free) so an external thread manager — the runtime
        scheduler — and the detector agree on thread naming; left to
        ``None``, ids are allocated LIFO from the free list.
        """
        parent = self._thread(parent_tid)
        if not self._free_tids:
            raise TooManyThreadsError(
                f"more than {self.max_threads} concurrently live threads"
            )
        if child_tid is None:
            tid = self._free_tids.pop()
        else:
            if child_tid not in self._free_tids:
                raise MetadataError(f"requested child tid {child_tid} is not free")
            self._free_tids.remove(child_tid)
            tid = child_tid
        self._threads[tid] = ThreadState(tid, parent.vc.copy())
        self._advance(self._threads[tid])
        self._advance(parent)
        return tid

    def join(self, parent_tid: int, child_tid: int) -> None:
        """Join ``child_tid``; establishes child-happens-before-parent.

        The child's tid becomes reusable afterwards.
        """
        parent = self._thread(parent_tid)
        child = self._thread(child_tid)
        self._advance(child)
        parent.vc.join(child.vc)
        del self._threads[child_tid]
        self._free_tids.append(child_tid)

    def install_clocks(
        self,
        threads: Dict[int, Sequence[int]],
        locks: Dict[object, Sequence[int]],
        free_tids: List[int],
    ) -> None:
        """Take every thread and sync-object clock from epoch-encoded rows
        (``threads``: live tid -> row, ``locks``: sync key -> row) and the
        free tids in order — the state the per-sync methods would have
        left, applied elsewhere (offline replay's clock pass)."""
        layout = self.layout
        self._threads = {
            tid: ThreadState(tid, VectorClock.of(row, layout))
            for tid, row in threads.items()
        }
        self._lock_vcs = {
            key: VectorClock.of(row, layout) for key, row in locks.items()
        }
        self._free_tids = list(free_tids)

    def live_threads(self) -> List[int]:
        """Tids of all currently live threads."""
        return sorted(self._threads)

    def thread_vc(self, tid: int) -> VectorClock:
        """The vector clock of thread ``tid`` (live view, do not mutate)."""
        return self._thread(tid).vc

    # -- synchronization ---------------------------------------------------

    def release(self, tid: int, sync_key: object) -> None:
        """Lock release / condition signal / barrier arrival by ``tid``.

        Joins the thread's vector clock into the sync object's and
        advances the thread's own clock, as in standard vector-clock
        detectors (Section 2.3).  Sync vector clocks are keyed by
        :func:`~repro.core.events.stable_sync_id`, not object identity.
        """
        thread = self._thread(tid)
        key = stable_sync_id(sync_key)
        vc = self._lock_vcs.get(key)
        if vc is None:
            vc = VectorClock(self.max_threads, self.layout)
            self._lock_vcs[key] = vc
        vc.join(thread.vc)
        self._advance(thread)
        self.stats.sync_ops += 1

    def acquire(self, tid: int, sync_key: object) -> None:
        """Lock acquire / condition wait return / barrier departure."""
        thread = self._thread(tid)
        vc = self._lock_vcs.get(stable_sync_id(sync_key))
        if vc is not None:
            thread.vc.join(vc)
        self.stats.sync_ops += 1

    # -- the race check (Figure 2) ------------------------------------------

    def check_read(self, tid: int, address: int, size: int = 1) -> None:
        """Race-check a ``size``-byte read at ``address`` by ``tid``.

        Raises :class:`RawRaceException` iff the read races with the last
        write to any accessed byte.  Reads never update metadata.
        """
        self._checked(self._thread(tid), address, size, is_read=True)

    def check_write(self, tid: int, address: int, size: int = 1) -> None:
        """Race-check a ``size``-byte write and update the epochs.

        Raises :class:`WawRaceException` iff the write races with the
        last write to any accessed byte (including the case where the
        epoch CAS observes a concurrent update, Section 4.3).
        """
        self._checked(self._thread(tid), address, size, is_read=False)

    def _checked(
        self, thread: ThreadState, address: int, size: int, is_read: bool
    ) -> None:
        """One access's Figure-2 check against ``thread``'s vector clock,
        then its access statistics."""
        self._check_access(thread, address, size, is_read)
        stats = self.stats
        if is_read:
            stats.reads += 1
            stats.read_bytes += size
        else:
            stats.writes += 1
            stats.written_bytes += size
        self._note_width(size)

    #: The adapter's same-epoch fast path is verdict-invariant for CLEAN:
    #: a byte whose epoch equals the accessing thread's current epoch can
    #: only have been written by that thread in its current SFR, so the
    #: Figure-2 comparison cannot fire and a write's CAS is a no-op.
    same_epoch_filter = True

    def note_same_epoch(
        self, tid: int, address: int, size: int, is_read: bool
    ) -> None:
        """Account an access the same-epoch fast path proved race-free.

        Mirrors exactly the counters :meth:`check_read`/:meth:`check_write`
        would have recorded for an access whose bytes all carry the
        thread's current epoch (one comparison on the vectorized fast
        path, one per byte otherwise; never an epoch update), so the
        software cost model and every figure built on ``stats`` are
        invariant under the filter.
        """
        stats = self.stats
        if size > 1:
            stats.multibyte_accesses += 1
            stats.multibyte_uniform_epoch += 1
        stats.epoch_comparisons += 1 if (self.vectorized and size > 1) else size
        if is_read:
            stats.reads += 1
            stats.read_bytes += size
        else:
            stats.writes += 1
            stats.written_bytes += size
        self._note_width(size)

    def _check_access(
        self, thread: ThreadState, address: int, size: int, is_read: bool
    ) -> None:
        if size < 1:
            raise ValueError("access size must be positive")
        new_epoch = thread.vc.element(thread.tid)

        epochs = self.shadow.load_range(address, size)
        if size > 1:
            self.stats.multibyte_accesses += 1

        if self.vectorized and size > 1 and epochs.count(epochs[0]) == size:
            # Fast path (Section 4.4): all bytes share one epoch, so the
            # race outcome is identical for every byte — one comparison,
            # and (for writes) one wide update.
            self.stats.multibyte_uniform_epoch += 1
            self._compare(epochs[0], thread, address, size, is_read)
            if not is_read and epochs[0] != new_epoch:
                self._update_wide(address, size, epochs[0], new_epoch, thread)
            return

        if size > 1 and epochs.count(epochs[0]) == size:
            # Record uniformity even when vectorization is off, so the
            # Figure-8 "without vectorization" run still measures it.
            self.stats.multibyte_uniform_epoch += 1

        for i, epoch in enumerate(epochs):
            self._compare(epoch, thread, address + i, 1, is_read)
            if not is_read and epoch != new_epoch:
                self._cas_update(address + i, epoch, new_epoch, thread, 1)

    def _compare(
        self, epoch: int, thread: ThreadState, address: int, size: int, is_read: bool
    ) -> None:
        """Line 3 of Figure 2: compare epoch clock with the thread's VC."""
        self.stats.epoch_comparisons += 1
        layout = self.layout
        writer_tid = layout.tid(epoch)
        writer_clock = layout.clock(epoch)
        if writer_clock > thread.vc.clock_of(writer_tid):
            self.stats.races_raised += 1
            exc = RawRaceException if is_read else WawRaceException
            raise exc(address, thread.tid, writer_tid, writer_clock, size)

    def _cas_update(
        self, address: int, expected: int, new_epoch: int, thread: ThreadState, size: int
    ) -> None:
        """Line 6 of Figure 2, via CAS so a concurrent update is a WAW race."""
        if self.shadow.compare_and_swap(address, expected, new_epoch):
            self.stats.epoch_updates += 1
            return
        self.stats.cas_failures += 1
        self.stats.races_raised += 1
        actual = self.shadow.load(address)
        raise WawRaceException(
            address, thread.tid, self.layout.tid(actual), self.layout.clock(actual), size
        )

    def _update_wide(
        self, address: int, size: int, expected: int, new_epoch: int, thread: ThreadState
    ) -> None:
        """Wide-CAS update of all epochs of a uniform multi-byte access."""
        for i in range(size):
            self._cas_update(address + i, expected, new_epoch, thread, size)

    # -- the batch check ------------------------------------------------------

    #: Below this many accesses the scalar loop beats the numpy setup cost.
    BATCH_MIN = 16

    #: After :meth:`check_block` raises: the index of the raising access.
    block_progress = 0

    #: After :meth:`check_block` returns or raises: how many of the
    #: accesses it completed were same-epoch hits (accounted as
    #: :meth:`note_same_epoch` accounts them, never checked).
    block_hits = 0

    def check_block(
        self,
        segments: np.ndarray,
        block: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    ) -> None:
        """Batch check of consecutive replayed segments, in replay order.

        ``segments`` is an int64 matrix with one row per segment: its
        thread's tid, then the epoch-encoded elements of the vector clock
        that thread held when the segment ended (``max_threads`` of
        them).  ``block`` is columnar ``(is_write, address, size,
        segment)``; ``segment`` (non-decreasing) indexes ``segments``.
        Offline replay only: there a sync commit ends every segment, so
        each starts with an empty written-this-epoch set.

        Semantics are identical to the scalar hook loop over the
        segments in order — same verdicts, same exception at the same
        access, figure-exact ``stats`` and shadow counters; afterwards
        :attr:`block_hits` counts the same-epoch hits and, on a race,
        :attr:`block_progress` indexes the raising access.  CLEAN keeps
        only a last-writer epoch per byte, so the whole block is one
        join: each byte's last earlier write in the block leaves its
        segment's epoch as the byte's effective epoch (bytes no earlier
        write covers read the shadow), and an access is a same-epoch hit
        iff its own segment wrote each of its bytes before.  The block
        itself chooses the join:

        * **a run** (every segment has ``BATCH_MIN`` or more accesses) —
          segment by segment, a table keyed by address offset (or, for a
          block spanning more than ``_DENSE_SPAN`` addresses, by
          distinct-byte rank) finds each byte's first write in its
          segment, and the shadow (a copy of its epochs where its flat
          window does not hold the block) gives each byte its epoch when
          the segment began, then takes the segment's writes;
        * **a window** (shorter segments) — one sort by (byte, block
          position) finds each byte's last earlier write.

        Every Figure-2 comparison then runs in one vectorized pass
        against the accessing segment's clock.  The clean prefix before
        the first flagged access commits (its counters and its final
        writers; a run rolls the shadow back to it); the flagged access
        re-runs through the genuine scalar path, its segment's committed
        accesses seeding the written set, and raises with the exact
        counters and exception the loop would have; the rest of the
        block is re-screened the same way.
        """
        is_write, addr, size, seg = block
        n = int(addr.size)
        self.block_progress = 0
        self.block_hits = 0
        if (
            n < self.BATCH_MIN
            or not self.vectorized
            or not hasattr(self.shadow, "gather")
            or int(size.min()) < 1
        ):
            return self._replay_segments(segments, block)

        starts, acc_idx, baddr = _expand(addr, size)
        total = int(baddr.size)
        byte_is_write = is_write[acc_idx]
        # Each segment's clock row plus a -1 column for epochs whose tid
        # bits fall outside the clock, and the epoch it writes.
        width = self.max_threads
        k = len(segments)
        rows = np.empty((k, width + 1), dtype=np.int64)
        rows[:, :width] = segments[:, 1:]
        rows[:, width] = -1
        epochs = rows[np.arange(k), segments[:, 0]].astype(np.uint32)
        installs = epochs[seg][acc_idx]
        shadow = self.shadow
        lo, hi = int(baddr.min()), int(baddr.max())
        span = hi - lo + 1
        # Where each of the block's segments but the first begins.
        cuts = np.flatnonzero(seg[1:] != seg[:-1]) + 1
        run = int(np.diff(cuts, prepend=0, append=n).min()) >= self.BATCH_MIN
        if run:
            # Tables keyed by address offset (or, for a block spanning
            # more than ``_DENSE_SPAN`` addresses, by distinct-byte rank),
            # one segment at a time.  ``store`` holds the keys' epochs:
            # the shadow itself where its flat window holds the block,
            # else a copy written back at the end.
            if span <= _DENSE_SPAN:
                key = baddr - lo
                store = shadow.view(lo, hi)
                in_place = store is not None
                if not in_place:
                    store = np.empty(span, dtype=np.uint32)
                    store[key] = shadow.gather(baddr)
            else:
                distinct, key = np.unique(baddr, return_inverse=True)
                span = distinct.size
                store = shadow.gather(distinct)
                in_place = False
            # Per segment: its row, and its bytes and write bytes.
            written = np.flatnonzero(byte_is_write)
            w_key, w_acc = key[written], acc_idx[written]
            heads = [0, *cuts.tolist()]
            b_cut = [*starts[heads].tolist(), total]
            w_cut = np.searchsorted(written, b_cut).tolist()
            parts = list(zip(
                seg[heads].tolist(), b_cut, b_cut[1:], w_cut, w_cut[1:]
            ))
            # Each byte's first write in its segment.  Taken in reverse,
            # a later segment's entry lies past every access of this one,
            # so it reads as no write at all.
            table = np.empty(span, dtype=np.int64)
            table[key] = n  # only the block's pages: it may be sparse
            first = np.empty(total, dtype=np.int64)
            for _s, b0, b1, w0, w1 in reversed(parts):
                np.minimum.at(table, w_key[w0:w1], w_acc[w0:w1])
                np.take(table, key[b0:b1], out=first[b0:b1])
            # Each byte's epoch when its segment began: the store takes
            # each segment's writes after its reads.
            before = np.empty(total, dtype=np.uint32)
            for s, b0, b1, w0, w1 in parts:
                np.take(store, key[b0:b1], out=before[b0:b1])
                store[w_key[w0:w1]] = epochs[s]
            own = first < acc_idx
            # Scratch goes as soon as it is used: it sets the peak.
            del first, w_acc
            eff = np.where(own, installs, before)
        else:
            # In (address, block position) order, the last write before
            # each byte is a running max of write positions; it is an
            # earlier write to the same byte iff it lies at or after the
            # start of the byte's address group.  One sort of composite
            # keys gives that order when they fit in int64.
            pos = np.arange(total)
            if span * total < 1 << 63:
                s_addr, order = np.divmod(
                    np.sort((baddr - lo) * total + pos), total
                )
                s_addr += lo
            else:
                order = np.argsort(baddr, kind="stable")
                s_addr = baddr[order]
            s_seg = seg[acc_idx[order]]
            s_write = byte_is_write[order]
            prev = np.empty(total, dtype=np.int64)
            prev[0] = -1
            prev[1:] = np.maximum.accumulate(np.where(s_write, pos, -1))[:-1]
            group = np.empty(total, dtype=bool)
            group[0] = True
            np.not_equal(s_addr[1:], s_addr[:-1], out=group[1:])
            joined = prev >= np.maximum.accumulate(np.where(group, pos, 0))
            writer = s_seg[prev]  # meaningful where ``joined`` only
            s_eff = np.where(
                joined, epochs[writer], shadow.gather(s_addr)
            )
            eff = np.empty_like(s_eff)
            eff[order] = s_eff
            own = np.empty(total, dtype=bool)
            own[order] = joined & (writer == s_seg)

        # The Figure-2 predicate, per byte, in one comparison: vector
        # clock elements are epoch-encoded (Section 4.1), so a byte races
        # iff its epoch exceeds its segment's clock element for the
        # epoch's tid.  Epochs whose tid bits fall outside the clock
        # compare against the -1 column and are re-checked by the scalar
        # path.  A hit's bytes carry its segment's epoch, so a hit never
        # fires.
        limit = (seg * (width + 1))[acc_idx]
        limit += np.minimum(eff >> np.uint32(self.layout.clock_bits), width)
        flagged = eff > np.take(rows, limit, out=limit)
        del limit
        done = int(acc_idx[flagged.argmax()]) if flagged.any() else n
        begin = int(np.searchsorted(seg, seg[done])) if done < n else n

        prefix = int(starts[done]) if done < n else total
        hits = 0
        if done > 0:
            hits = self._account(
                done, prefix, is_write, size, acc_idx, byte_is_write, eff,
                installs, own,
            )
        # Each byte's last write in the prefix leaves its segment's epoch
        # behind.
        if run:
            if done < n:
                # Roll the store back to where the flagged segment began
                # (each key to the epoch its first byte from there read),
                # then apply the segment's writes before the flag.
                later = np.arange(int(starts[begin]), total)
                table[key[later]] = total
                np.minimum.at(table, key[later], later)
                at = later[table[key[later]] == later]
                store[key[at]] = before[at]
                at = written[np.searchsorted(written, later[0]):
                             np.searchsorted(written, prefix)]
                store[key[at]] = epochs[seg[done]]
            if not in_place:
                at = written[: np.searchsorted(written, prefix)]
                shadow.scatter(baddr[at], store[key[at]])
        elif done > 0:
            final = s_write & (order < prefix)
            w_addr = s_addr[final]
            if w_addr.size:
                last = np.empty(w_addr.size, dtype=bool)
                last[-1] = True
                np.not_equal(w_addr[1:], w_addr[:-1], out=last[:-1])
                shadow.scatter(w_addr[last], epochs[s_seg[final][last]])
        self.block_hits = hits
        if done == n:
            return

        # The flagged access through the genuine scalar path, after its
        # segment's committed accesses seed the written set; only a
        # conservative flag (foreign tid) gets past it.
        end = int(np.searchsorted(seg, seg[done], side="right"))
        for lo, hi in ((begin, end), (end, n)):
            if lo == hi:
                continue
            part = tuple(col[lo:hi] for col in block)
            try:
                if lo == begin:
                    self._replay_segments(segments, part, done - begin)
                else:
                    self.check_block(segments, part)
            except Exception:
                self.block_progress += lo
                raise
            finally:
                hits += self.block_hits
                self.block_hits = hits

    def _replay_segments(
        self,
        segments: np.ndarray,
        block: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
        skip: int = 0,
    ) -> None:
        """The scalar hook loop over a block's segments: a same-epoch
        hit iff the segment itself wrote every byte before, every other
        access through the Figure-2 path against the segment's clock.
        The first ``skip`` accesses, all of the first segment, already
        ran: they only seed its written set."""
        is_write, addr, size, seg = (col.tolist() for col in block)
        hits = index = 0
        current = -1
        written: Set[int] = set()
        try:
            for index, s in enumerate(seg):
                if s != current:
                    current = s
                    tid, *row = segments[s].tolist()
                    thread = ThreadState(tid, VectorClock.of(row, self.layout))
                    written = set()
                address, n = addr[index], size[index]
                if index < skip:
                    if is_write[index]:
                        written.update(range(address, address + n))
                elif (
                    address in written
                    if n == 1
                    else all(address + o in written for o in range(n))
                ):
                    hits += 1
                    self.note_same_epoch(
                        thread.tid, address, n, is_read=not is_write[index]
                    )
                else:
                    self._checked(thread, address, n, not is_write[index])
                    if is_write[index]:
                        written.update(range(address, address + n))
        finally:
            self.block_progress = index
            self.block_hits = hits

    def _account(
        self,
        done: int,
        prefix: int,
        is_write: np.ndarray,
        size: np.ndarray,
        acc_idx: np.ndarray,
        byte_is_write: np.ndarray,
        eff: np.ndarray,
        installs: np.ndarray,
        own: np.ndarray,
    ) -> int:
        """Add the counter trail the scalar loop leaves for the first
        ``done`` accesses (``prefix`` bytes) of an expanded run.

        ``eff`` is each byte's epoch when its access ran, ``installs``
        the epoch its access installs and ``own`` marks the bytes its
        own segment wrote before: an access whose bytes all are is a
        same-epoch hit.  Returns how many of the ``done`` accesses are
        hits.
        """
        stats = self.stats
        psz = size[:done]
        acc, eff = acc_idx[:prefix], eff[:prefix]
        n_writes = int(np.count_nonzero(is_write[:done]))
        n_written = int(np.count_nonzero(byte_is_write[:prefix]))
        stats.writes += n_writes
        stats.reads += done - n_writes
        stats.written_bytes += n_written
        stats.read_bytes += prefix - n_written
        stats.accesses_ge_4_bytes += int(np.count_nonzero(psz >= 4))
        n_multi = int(np.count_nonzero(psz > 1))
        stats.multibyte_accesses += n_multi
        # A hit is accounted as note_same_epoch does: one epoch for all
        # its bytes, no shadow traffic.  Its bytes all carry the epoch
        # it installs, so it is uniform and updates nothing.
        checked = _accesses(acc, ~own[:prefix])
        mixed = _accesses(
            acc[1:], (eff[1:] != eff[:-1]) & (acc[1:] == acc[:-1])
        )
        stats.multibyte_uniform_epoch += n_multi - mixed.size
        stats.epoch_comparisons += done - mixed.size + int(psz[mixed].sum())

        # Shadow traffic the scalar loop would have generated: one load
        # per checked byte, one (always-successful — the run is
        # unpreempted) CAS per foreign-epoch checked write byte.
        n_updated = int(np.count_nonzero(
            byte_is_write[:prefix] & (eff != installs[:prefix])
        ))
        stats.epoch_updates += n_updated
        self.shadow.loads += int(psz[checked].sum())
        self.shadow.stores += n_updated
        return done - checked.size

    # -- recovery hooks -------------------------------------------------------
    #
    # Race-exception recovery (repro.runtime.recovery) leans on two
    # operations the epoch scheme makes cheap.  Both are conservative in
    # the missed-race direction only — exactly the trade the paper's own
    # rollover reset already makes — and neither touches the access-
    # statistics counters, so the cost model stays faithful to the
    # checks actually performed.

    def rollback_writes(self, tid: int, addresses: Iterable[int]) -> int:
        """Forget ``tid``'s open-epoch write metadata at ``addresses``.

        Called when recovery discards an SFR whose buffered stores never
        became visible: any epoch still carrying the faulting thread's
        current ``(tid, clock)`` pair describes a write that no longer
        exists.  Scrubbed locations read as epoch 0 afterwards (like a
        never-written byte).  Returns how many epochs were scrubbed.
        """
        thread = self._threads.get(tid)
        if thread is None:
            return 0
        mine = thread.vc.element(tid)
        shadow = self.shadow
        scrubbed = 0
        for address in addresses:
            if shadow.peek(address) == mine:
                shadow.clear(address)
                scrubbed += 1
        return scrubbed

    def absorb_epoch(self, tid: int, writer_tid: int, writer_clock: int) -> None:
        """Order a prior write before everything ``tid`` does from now on.

        Recovery *serializes* the two sides of a detected race: after the
        faulting SFR is discarded, the retried SFR must be ordered after
        the conflicting write, or the deterministic re-execution would
        re-raise the very same exception.  Joining the writer's clock
        into ``tid``'s vector clock is precisely the effect an acquire of
        a lock released by the writer would have had.
        """
        thread = self._threads.get(tid)
        if thread is None:
            return
        if thread.vc.clock_of(writer_tid) < writer_clock:
            thread.vc.set_clock(writer_tid, writer_clock)

    # -- rollover (Section 4.5) ---------------------------------------------

    def _advance(self, thread: ThreadState) -> None:
        """Advance a thread's own clock, handling imminent rollover."""
        if self.layout.would_rollover(thread.vc.clock_of(thread.tid)):
            self.rollover_pending = True
            if self.auto_rollover:
                self.reset_metadata()
            else:
                raise OverflowError(
                    f"thread {thread.tid} clock rollover pending and "
                    "auto_rollover is disabled; call reset_metadata()"
                )
        thread.vc.increment(thread.tid)

    def rollover_imminent(self, slack: int = 1) -> bool:
        """Whether any live thread is within ``slack`` ticks of rollover."""
        limit = self.layout.clock_max - slack
        return any(
            t.vc.clock_of(t.tid) >= limit for t in self._threads.values()
        )

    def reset_metadata(self) -> None:
        """Deterministic global reset of all epochs and vector clocks.

        The paper performs this when all threads are at synchronization
        operations; races spanning the reset are missed, but SFR
        isolation, write-atomicity and determinism are preserved because
        the reset lands on a deterministic SFR boundary.
        """
        self.shadow.reset()
        for thread in self._threads.values():
            thread.vc.reset()
            thread.vc.increment(thread.tid)
        for vc in self._lock_vcs.values():
            vc.reset()
        self.rollover_pending = False
        self.stats.rollovers += 1

    # -- helpers -------------------------------------------------------------

    def _thread(self, tid: int) -> ThreadState:
        try:
            return self._threads[tid]
        except KeyError:
            raise MetadataError(f"unknown or dead thread id {tid}") from None

    def _note_width(self, size: int) -> None:
        if size >= 4:
            self.stats.accesses_ge_4_bytes += 1
