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

from dataclasses import dataclass, field
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
    alive: bool = True
    children: Set[int] = field(default_factory=set)


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
        child_vc = parent.vc.copy()
        self._threads[tid] = ThreadState(tid, child_vc)
        parent.children.add(tid)
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
        child.alive = False
        parent.children.discard(child_tid)
        del self._threads[child_tid]
        self._free_tids.append(child_tid)

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
        self._check_access(tid, address, size, is_read=True)
        self.stats.reads += 1
        self.stats.read_bytes += size
        self._note_width(size)

    def check_write(self, tid: int, address: int, size: int = 1) -> None:
        """Race-check a ``size``-byte write and update the epochs.

        Raises :class:`WawRaceException` iff the write races with the
        last write to any accessed byte (including the case where the
        epoch CAS observes a concurrent update, Section 4.3).
        """
        self._check_access(tid, address, size, is_read=False)
        self.stats.writes += 1
        self.stats.written_bytes += size
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

    def _check_access(self, tid: int, address: int, size: int, is_read: bool) -> None:
        if size < 1:
            raise ValueError("access size must be positive")
        thread = self._thread(tid)
        new_epoch = thread.vc.element(tid)

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

    def check_block(
        self,
        tid: int,
        block: Sequence[Tuple[bool, int, int]],
        written: Optional[Set[int]] = None,
    ) -> None:
        """Vectorized batch check of one thread's in-order access block.

        Semantics are *identical* to the scalar loop of
        :meth:`DetectorBackend.check_block` — same verdicts, same
        exception at the same access, figure-exact ``stats`` and shadow
        counters and, given the adapter's ``written`` set, the same
        same-epoch hits and the same set afterwards — but the race-free
        majority is resolved in one byte expansion, keyed by address
        into one scratch table.  Per byte of the block:

        * **hits** — an access is a same-epoch hit iff each of its bytes
          was in ``written`` before the block or covered by an earlier
          write of the block (a hit write's bytes are already in the
          set, so any earlier write counts);
        * **the effective-epoch overlay** — the only metadata mutation
          inside the block is this thread's *checked* (non-hit) writes
          installing its current epoch, so byte ``b`` at access ``i``
          carries that epoch if an earlier checked write covered ``b``,
          and its pre-block epoch otherwise.  Every Figure-2 comparison
          then happens in one vectorized pass.

        The first checked access whose predicate fires (the conflict
        minority) is re-run through the genuine scalar path, which
        raises with the exact counters and exception the loop would
        have produced; the remaining suffix is re-screened the same way.
        """
        columnar = (
            type(block) is tuple
            and len(block) == 3
            and isinstance(block[1], np.ndarray)
        )
        n = int(block[1].size) if columnar else len(block)
        self.block_progress = 0
        if (
            n < self.BATCH_MIN
            or not self.vectorized
            or not hasattr(self.shadow, "gather")
        ):
            return DetectorBackend.check_block(self, tid, block, written)

        thread = self._thread(tid)
        new_epoch = thread.vc.element(tid)

        if columnar:
            is_write = np.asarray(block[0], dtype=bool)
            addr = np.asarray(block[1], dtype=np.int64)
            size = np.asarray(block[2], dtype=np.int64)
        else:
            is_write = np.fromiter((a[0] for a in block), dtype=bool, count=n)
            addr = np.fromiter((a[1] for a in block), dtype=np.int64, count=n)
            size = np.fromiter((a[2] for a in block), dtype=np.int64, count=n)
        if int(size.min()) < 1:
            return DetectorBackend.check_block(self, tid, block, written)

        # Expand accesses into their byte addresses, in access order.
        seg_starts = size.cumsum() - size
        total = int(seg_starts[-1] + size[-1])
        acc_idx = np.arange(n).repeat(size)
        baddr = (addr - seg_starts).repeat(size) + np.arange(total)
        byte_is_write = is_write[acc_idx]

        # Key every byte into one scratch table: by its offset in the
        # block's address window, or — for a sparse block — by its rank
        # among the block's distinct bytes.
        lo = int(baddr.min())
        span = int(baddr.max()) - lo + 1
        if span <= _DENSE_SPAN:
            key = baddr - lo
        else:
            distinct, key = np.unique(baddr, return_inverse=True)
            span = distinct.size
        table = np.empty(span, dtype=np.int64)

        def first_access(mask: np.ndarray) -> np.ndarray:
            """Per byte: the first access of ``mask`` covering it, or n."""
            table[key] = n
            np.minimum.at(table, key[mask], acc_idx[mask])
            return table[key]

        # Same-epoch hits, and the first checked write of every byte.  A
        # hit covered by this block's writes alone carries the thread's
        # epoch in the overlay — uniform, race-free, never updated — and
        # is never the first write of a byte; only hits on bytes from
        # the pre-block set (``prior``) need the corrections below.
        first = first_access(byte_is_write)
        overlaid = first < acc_idx
        hit = None
        if written is not None:
            covered = overlaid
            if written:
                covered = covered | np.fromiter(
                    (b in written for b in baddr.tolist()),
                    dtype=bool,
                    count=total,
                )
            hit = np.logical_and.reduceat(covered, seg_starts)
            if not hit.any():
                hit = None
        prior = hit is not None and bool(written)
        if prior:
            first = first_access(byte_is_write & ~hit[acc_idx])
            overlaid = first < acc_idx
        eff = np.where(
            overlaid, np.uint32(new_epoch), self.shadow.gather(baddr)
        )

        # The Figure-2 predicate, per byte, in one comparison: vector
        # clock elements are epoch-encoded (Section 4.1), so a byte races
        # iff its epoch exceeds the element of its writer's tid.  Epochs
        # whose tid bits fall outside the clock compare against -1 and
        # are re-checked by the scalar path.
        vc = np.array([*thread.vc, -1], dtype=np.int64)
        writer = np.minimum(
            eff >> np.uint32(self.layout.clock_bits), self.max_threads
        )
        racy_acc = np.logical_or.reduceat(eff > vc[writer], seg_starts)
        if prior:
            racy_acc &= ~hit
        racy = racy_acc.nonzero()[0]
        danger = int(racy[0]) if racy.size else n

        n_hits = 0
        if danger > 0:
            stats = self.stats
            prefix = int(seg_starts[danger]) if danger < n else total
            psz = size[:danger]
            n_writes = int(np.count_nonzero(is_write[:danger]))
            n_written = int(np.count_nonzero(byte_is_write[:prefix]))
            stats.writes += n_writes
            stats.reads += danger - n_writes
            stats.written_bytes += n_written
            stats.read_bytes += prefix - n_written
            stats.accesses_ge_4_bytes += int(np.count_nonzero(psz >= 4))
            multi = psz > 1
            stats.multibyte_accesses += int(np.count_nonzero(multi))
            # A hit is accounted as note_same_epoch does: one epoch for
            # all its bytes, no shadow traffic.
            uniform = np.logical_and.reduceat(
                eff == eff[seg_starts][acc_idx], seg_starts
            )[:danger]
            updated = byte_is_write[:prefix] & (
                eff[:prefix] != np.uint32(new_epoch)
            )
            checked_bytes = prefix
            if prior:
                uniform |= hit[:danger]
                updated &= ~hit[acc_idx[:prefix]]
            if hit is not None:
                n_hits = int(np.count_nonzero(hit[:danger]))
                checked_bytes -= int(psz[hit[:danger]].sum())
            one = multi & uniform
            n_one = int(np.count_nonzero(one))
            stats.multibyte_uniform_epoch += n_one
            stats.epoch_comparisons += n_one + int(psz[~one].sum())

            # Shadow traffic the scalar loop would have generated: one
            # load per checked byte, one (always-successful — the block
            # runs unpreempted) CAS per foreign-epoch checked write byte.
            n_updated = int(np.count_nonzero(updated))
            stats.epoch_updates += n_updated
            self.shadow.loads += checked_bytes
            self.shadow.stores += n_updated
            installed = baddr[:prefix][first[:prefix] == acc_idx[:prefix]]
            self.shadow.scatter(installed, new_epoch)
            if written is not None:
                written.update(installed.tolist())
        self.block_hits = n_hits

        if danger < n:
            # Conflict minority: the genuine scalar path reproduces the
            # exact counter trail and exception the loop would have.
            a, s = int(addr[danger]), int(size[danger])
            try:
                if is_write[danger]:
                    self.check_write(tid, a, s)
                else:
                    self.check_read(tid, a, s)
            except Exception:
                self.block_progress = danger
                raise
            if written is not None and is_write[danger]:
                written.update(range(a, a + s))
            # Only reached when the predicate was conservative (foreign
            # tid); re-screen the rest of the block.
            rest = slice(danger + 1, n)
            try:
                self.check_block(
                    tid,
                    (is_write[rest], addr[rest], size[rest]),
                    written=written,
                )
            except Exception:
                self.block_progress += danger + 1
                raise
            finally:
                self.block_hits += n_hits

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
