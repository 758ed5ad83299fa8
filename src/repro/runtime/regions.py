"""Synchronization-free-region (SFR) tracking and semantic oracles.

An SFR is the code a thread executes between two synchronization
operations (Section 2.2).  CLEAN's headline guarantee is that SFRs appear
*isolated* (data a region touches never changes under it due to a
concurrent write) and *write-atomic* (either all or none of a region's
writes are visible to a concurrent reader).

:class:`SfrTracker` assigns every dynamic region an id and records which
region performed every shared access.  Two oracle monitors are built on
it:

* :class:`IsolationOracle` flags a read that observes a value written by
  a region that is still running concurrently — an SFR isolation
  violation (only possible in executions CLEAN would have stopped).
* :class:`WriteAtomicityOracle` flags a reader that has observed *some*
  but not *all* of the writes a concurrent region made to the locations
  it read — the "half-half" outcome of Figure 1b.

The oracles are intentionally independent of the detector: property
tests run racy programs with the oracles but *without* CLEAN to show the
violations exist, then with CLEAN to show every violating execution is
stopped first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..core.events import AccessEvent
from .scheduler import ExecutionMonitor

__all__ = [
    "IsolationOracle",
    "SfrTracker",
    "SemanticViolation",
    "WriteAtomicityOracle",
]

#: A dynamic region is identified by (tid, per-thread region ordinal).
RegionId = Tuple[int, int]


@dataclass(frozen=True)
class SemanticViolation:
    """One observed violation of SFR isolation or write-atomicity."""

    kind: str
    reader_tid: int
    address: int
    writer_region: RegionId
    detail: str = ""


class SfrTracker(ExecutionMonitor):
    """Assigns region ids: a thread's region index bumps at every sync op.

    Also keeps a logical clock (one tick per observed event) and each
    region's ``[start, end)`` lifetime interval, so oracles can ask
    whether two regions temporally overlapped.  Temporal overlap in the
    cooperative execution implies the regions cannot be ordered by
    happens-before (a region only synchronizes at its boundary), so it is
    a sound — though not complete — concurrency witness.
    """

    _OPEN_END = float("inf")

    def __init__(self) -> None:
        self._region_index: Dict[int, int] = {}
        self._open: Set[RegionId] = set()
        self._intervals: Dict[RegionId, List[float]] = {}
        self.now = 0
        self.regions_started = 0

    def tick(self) -> int:
        """Advance and return the logical clock."""
        self.now += 1
        return self.now

    def current_region(self, tid: int) -> RegionId:
        """The region ``tid`` is currently executing."""
        return (tid, self._region_index.get(tid, 0))

    def is_open(self, region: RegionId) -> bool:
        """Whether ``region`` is still executing (not yet past a sync op)."""
        return region in self._open

    def overlapped(self, a: RegionId, b: RegionId) -> bool:
        """Whether regions ``a`` and ``b``'s lifetimes intersected."""
        ia = self._intervals.get(a)
        ib = self._intervals.get(b)
        if ia is None or ib is None:
            return False
        return ia[0] < ib[1] and ib[0] < ia[1]

    def _open_region(self, region: RegionId) -> None:
        self._open.add(region)
        self._intervals[region] = [self.tick(), self._OPEN_END]
        self.regions_started += 1

    def _close_region(self, region: RegionId) -> None:
        self._open.discard(region)
        if region in self._intervals:
            self._intervals[region][1] = self.tick()

    def on_thread_start(self, tid: int, parent: Optional[int]) -> None:
        self._region_index[tid] = 0
        self._open_region((tid, 0))

    def on_thread_exit(self, tid: int) -> None:
        self._close_region(self.current_region(tid))

    def on_sync_commit(self, tid: int, op: object) -> None:
        self._close_region(self.current_region(tid))
        self._region_index[tid] = self._region_index.get(tid, 0) + 1
        self._open_region(self.current_region(tid))


@dataclass
class _WriteStamp:
    region: RegionId
    value: int


class IsolationOracle(ExecutionMonitor):
    """Flags reads that observe writes of a still-running concurrent SFR."""

    def __init__(self, tracker: SfrTracker) -> None:
        self.tracker = tracker
        self.violations: List[SemanticViolation] = []
        self._last_writer: Dict[int, _WriteStamp] = {}

    def after_access(self, event: AccessEvent) -> None:
        if event.private:
            return
        tid = event.tid
        address = event.address
        size = event.size
        if event.is_write:
            value = event.value
            region = self.tracker.current_region(tid)
            for i in range(size):
                self._last_writer[address + i] = _WriteStamp(
                    region, (value >> (8 * i)) & 0xFF
                )
            return
        for i in range(size):
            stamp = self._last_writer.get(address + i)
            if stamp is None:
                continue
            writer_tid, _ = stamp.region
            if writer_tid == tid:
                continue
            if self.tracker.is_open(stamp.region):
                self.violations.append(
                    SemanticViolation(
                        kind="isolation",
                        reader_tid=tid,
                        address=address + i,
                        writer_region=stamp.region,
                        detail="read observed a write of a still-running SFR",
                    )
                )


class WriteAtomicityOracle(ExecutionMonitor):
    """Flags 'half-half' reads: a torn mix of two concurrent regions' writes.

    A violation is a multi-byte read whose footprint mixes bytes written
    by a foreign region ``R`` with bytes that ``R`` also wrote but that
    are now owned by a region whose lifetime *overlapped* ``R``'s — i.e.
    the reader observed part of ``R``'s writes and part of a concurrent
    overwrite (Figure 1b).  Requiring temporal overlap keeps properly
    synchronized partial updates (writer finished and later another
    region updated half) from being misreported.
    """

    def __init__(self, tracker: SfrTracker) -> None:
        self.tracker = tracker
        self.violations: List[SemanticViolation] = []
        self._writer_of: Dict[int, RegionId] = {}
        self._write_sets: Dict[RegionId, Set[int]] = {}

    def after_access(self, event: AccessEvent) -> None:
        if event.is_write:
            self._record_write(event)
        else:
            self._check_torn_read(event)

    def _record_write(self, event: AccessEvent) -> None:
        if event.private:
            return
        tid = event.tid
        address = event.address
        self.tracker.tick()
        region = self.tracker.current_region(tid)
        members = self._write_sets.setdefault(region, set())
        for i in range(event.size):
            self._writer_of[address + i] = region
            members.add(address + i)

    def _check_torn_read(self, event: AccessEvent) -> None:
        tid = event.tid
        address = event.address
        size = event.size
        if event.private or size < 2:
            return
        self.tracker.tick()
        addresses = set(range(address, address + size))
        foreign = {
            r
            for a in addresses
            if (r := self._writer_of.get(a)) is not None and r[0] != tid
        }
        for region in foreign:
            wrote = self._write_sets.get(region, set())
            covered = {a for a in addresses if self._writer_of.get(a) == region}
            missing = (wrote & addresses) - covered
            torn = {
                a
                for a in missing
                if (owner := self._writer_of.get(a)) is not None
                and self.tracker.overlapped(owner, region)
            }
            if torn:
                self.violations.append(
                    SemanticViolation(
                        kind="write-atomicity",
                        reader_tid=tid,
                        address=address,
                        writer_region=region,
                        detail=(
                            f"read mixes bytes {sorted(covered)} from region "
                            f"{region} with concurrently overwritten bytes "
                            f"{sorted(torn)}"
                        ),
                    )
                )
