"""A precise (FastTrack-complete) hardware race checker — the ablation.

CLEAN's hardware is cheap *because* it drops WAR detection (paper
Sections 3.2, 7): no read metadata to maintain, nothing to write on
reads, no O(threads) read vector clocks to scan on writes.  RADISH-class
designs that keep full precision pay for all three and reach up to 3x
slowdown.

This unit quantifies that difference inside our simulator.  It does what
CLEAN's unit does, *plus* the read side of FastTrack:

* every shared **read** also loads and *updates* per-group read metadata
  (a metadata store on every read — CLEAN writes metadata only on some
  writes);
* concurrent reads inflate a group's read metadata to a read vector
  clock occupying ``4 * n_threads`` bytes in a dedicated region, which
  every subsequent access must fetch;
* every shared **write** additionally fetches the read metadata and, if
  inflated, scans the full read VC before clearing it.

The state is *functional* (inflation happens exactly when reads of a
group are concurrent under the simulated thread clocks), so the cost
comes out of the workload's real sharing structure, not a constant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from ..core.epoch import DEFAULT_LAYOUT, EpochLayout
from .hierarchy import MemoryHierarchy
from .metadata import GROUP, MetadataLayout

__all__ = ["PreciseCheckUnit", "PreciseStats"]

#: Base of the read-metadata region (write epochs live in the normal
#: metadata region; read epochs/VCs get their own).
READ_META_BASE = 1 << 46
#: Base of the inflated read-vector-clock region.
READ_VC_BASE = 1 << 47


@dataclass
class PreciseStats:
    """Counters contrasting with CLEAN's RaceUnitStats."""

    accesses: int = 0
    private: int = 0
    read_meta_updates: int = 0
    inflations: int = 0
    read_vc_scans: int = 0


@dataclass
class _ReadMeta:
    """Read metadata of one 4-byte group: an epoch or an inflated VC."""

    tid: int = -1
    clock: int = 0
    inflated: bool = False
    vc: Dict[int, int] = field(default_factory=dict)


class PreciseCheckUnit:
    """Drop-in alternative to :class:`RaceCheckUnit` with WAR precision.

    Exposes the same ``set_thread`` / ``check`` interface so the
    simulator can host either unit; ``check`` returns the exposed-latency
    outcome the simulator expects.
    """

    def __init__(
        self,
        hierarchy: MemoryHierarchy,
        metadata: MetadataLayout,
        layout: EpochLayout = DEFAULT_LAYOUT,
        n_threads: int = 9,
    ) -> None:
        from .race_unit import RaceCheckUnit

        self.hierarchy = hierarchy
        self.n_threads = n_threads
        #: reuse CLEAN's unit for the write-epoch side of the check.
        self.write_side = RaceCheckUnit(hierarchy, metadata, layout)
        self.stats = PreciseStats()
        self._read_meta: Dict[int, _ReadMeta] = {}
        self._core_thread: Dict[int, Tuple[int, int]] = {}

    def reset_stats(self) -> None:
        """Zero counters after a warmup replay (read metadata persists)."""
        self.stats = PreciseStats()
        self.write_side.reset_stats()

    # -- plumbing -----------------------------------------------------------

    def set_thread(self, core: int, tid: int, clock: int = 0) -> None:
        self._core_thread[core] = (tid, clock)
        self.write_side.set_thread(core, tid, clock)

    def _read_meta_address(self, group: int) -> int:
        return READ_META_BASE + group

    def _read_vc_address(self, group: int) -> int:
        return READ_VC_BASE + (group // GROUP) * 4 * self.n_threads

    # -- the check ------------------------------------------------------------

    def check(
        self, core: int, address: int, size: int, is_write: bool, private: bool
    ) -> "CheckOutcome":
        from .race_unit import CheckOutcome

        self.stats.accesses += 1
        if private:
            self.stats.private += 1
            return self.write_side.check(core, address, size, is_write, True)

        # CLEAN's side: write-epoch load/check/update.
        outcome = self.write_side.check(core, address, size, is_write, False)
        latency = outcome.check_latency
        tid, clock = self._core_thread[core]

        first_group = address - (address % GROUP)
        last_group = (address + size - 1) - ((address + size - 1) % GROUP)
        group = first_group
        while group <= last_group:
            latency += self._read_side(core, group, tid, clock, is_write)
            group += GROUP
        return CheckOutcome(outcome.access_class, latency, outcome.expanded_line)

    def _read_side(
        self, core: int, group: int, tid: int, clock: int, is_write: bool
    ) -> int:
        meta = self._read_meta.setdefault(group, _ReadMeta())
        latency = self.hierarchy.access(core, self._read_meta_address(group), 4, False)
        if meta.inflated:
            latency += self.hierarchy.access(
                core, self._read_vc_address(group), 4 * self.n_threads,
                not is_write,
            )
            if is_write:
                # WAR check: scan the full read VC, then clear it.
                self.stats.read_vc_scans += 1
                meta.inflated = False
                meta.vc.clear()
                meta.tid, meta.clock = -1, 0
            else:
                meta.vc[tid] = clock
                self.stats.read_meta_updates += 1
            return latency

        if is_write:
            # Epoch-shaped read metadata: one compare, then clear.
            meta.tid, meta.clock = -1, 0
            return latency
        # Read: update the read epoch; concurrent readers inflate.
        if meta.tid not in (-1, tid):
            # Another thread's read epoch is live: inflate to a VC.
            self.stats.inflations += 1
            meta.inflated = True
            meta.vc = {meta.tid: meta.clock, tid: clock}
            latency += self.hierarchy.access(
                core, self._read_vc_address(group), 4 * self.n_threads, True
            )
        else:
            meta.tid, meta.clock = tid, clock
            latency += self.hierarchy.access(
                core, self._read_meta_address(group), 4, True
            )
        self.stats.read_meta_updates += 1
        return latency
