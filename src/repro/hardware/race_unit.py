"""The hardware race-check unit (paper Section 5.2, Figure 4).

For every potentially shared access the unit, in parallel with the data
access itself:

1. loads the epoch(s) of the accessed bytes (guessing the compact
   metadata address; wrong guesses pay the Section-5.3 reload penalty);
2. runs the fast-path comparison against the on-chip cached main element
   of the thread's vector clock: ``sameThread`` (no race possible) and
   ``sameEpoch`` (no update needed);
3. on the slow path, loads the needed vector-clock element from memory
   and compares; on writes with stale epochs, writes the new epoch back
   (possibly stretching a compact line into its expanded form).

The unit *classifies* each access the way Figure 10 reports them —
``private``, ``fast``, ``vc_load``, ``update``, ``vc_load_update``,
``expand`` — and accounts the check's latency.  Because the check runs
in parallel with the data access, only the excess over the data latency
is exposed (Section 5.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from ..core.epoch import DEFAULT_LAYOUT, EpochLayout
from .hierarchy import MemoryHierarchy
from .metadata import MetadataLayout

__all__ = ["AccessClass", "RaceCheckUnit", "CheckOutcome"]


class AccessClass:
    """Access categories of the Figure-10 breakdown."""

    PRIVATE = "private"
    FAST = "fast"
    VC_LOAD = "vc_load"
    UPDATE = "update"
    VC_LOAD_UPDATE = "vc_load_update"
    EXPAND = "expand"

    ALL = (PRIVATE, FAST, VC_LOAD, UPDATE, VC_LOAD_UPDATE, EXPAND)


@dataclass
class CheckOutcome:
    """Result of one race check: its class and check latency in cycles."""

    access_class: str
    check_latency: int
    expanded_line: bool = False


@dataclass
class RaceUnitStats:
    """Counters for the Figure-10 breakdowns."""

    by_class: Dict[str, int] = field(
        default_factory=lambda: {c: 0 for c in AccessClass.ALL}
    )
    compact_accesses: int = 0
    expanded_accesses: int = 0
    private_accesses: int = 0

    def record(self, outcome: CheckOutcome) -> None:
        self.by_class[outcome.access_class] += 1
        if outcome.access_class == AccessClass.PRIVATE:
            self.private_accesses += 1
        elif outcome.expanded_line:
            self.expanded_accesses += 1
        else:
            self.compact_accesses += 1

    @property
    def total(self) -> int:
        return sum(self.by_class.values())

    def fraction(self, access_class: str) -> float:
        """Fraction of all accesses in ``access_class``."""
        return self.by_class[access_class] / self.total if self.total else 0.0

    @property
    def quick_fraction(self) -> float:
        """Accesses resolved without slow-path work: private + fast."""
        quick = self.by_class[AccessClass.PRIVATE] + self.by_class[AccessClass.FAST]
        return quick / self.total if self.total else 0.0

    @property
    def compact_or_private_fraction(self) -> float:
        """Paper's 94.3% figure: accesses needing no metadata or 1:1-sized
        metadata."""
        good = self.private_accesses + self.compact_accesses
        return good / self.total if self.total else 0.0


class RaceCheckUnit:
    """Per-machine race-check logic shared by all cores.

    The unit holds the per-core cached main vector-clock element (the
    32-bit register of Section 5.1); the simulator updates it via
    :meth:`set_thread` / :meth:`on_sync` on context switches and
    synchronization operations.
    """

    #: Cycles for the on-chip fast-path comparison (Figure 4b): simple
    #: combinational circuitry, folded into the epoch load's cycle.
    FAST_COMPARE = 0
    #: Minimum penalty for a wrong compact-address guess (Section 6.3.1).
    MISCALC_MIN_PENALTY = 1
    #: Extra cycles to start a line expansion, on top of the 4 line writes.
    EXPAND_BASE_PENALTY = 1

    def __init__(
        self,
        hierarchy: MemoryHierarchy,
        metadata: MetadataLayout,
        layout: EpochLayout = DEFAULT_LAYOUT,
    ) -> None:
        self.hierarchy = hierarchy
        self.metadata = metadata
        self.layout = layout
        self.stats = RaceUnitStats()
        #: per-core (tid, clock) of the running thread — the cached main
        #: VC element register.
        self._core_thread: Dict[int, tuple] = {}

    def reset_stats(self) -> None:
        """Zero the breakdown counters (used after a warmup replay)."""
        self.stats = RaceUnitStats()

    # -- thread/clock plumbing ---------------------------------------------------

    def set_thread(self, core: int, tid: int, clock: int = 0) -> None:
        """Context switch: install a thread's (tid, clock) on ``core``."""
        self._core_thread[core] = (tid, clock)

    def on_sync(self, core: int) -> None:
        """A synchronization operation advanced the thread's main element."""
        tid, clock = self._core_thread[core]
        self._core_thread[core] = (tid, clock + 1)

    # -- the check itself -----------------------------------------------------------

    def check(
        self, core: int, address: int, size: int, is_write: bool, private: bool
    ) -> CheckOutcome:
        """Race-check one access; returns its class and check latency."""
        if private:
            outcome = CheckOutcome(AccessClass.PRIVATE, 0)
            self.stats.record(outcome)
            return outcome
        tid, clock = self._core_thread[core]
        my_epoch = self.layout.pack(tid, clock % (self.layout.clock_max + 1))

        epochs = self.metadata.epochs_for(address, size)
        plan = self.metadata.plan_read_check(address, size)
        latency = 0
        for meta_addr, meta_size in plan.reads:
            latency += self.hierarchy.access(core, meta_addr, meta_size, False)
        if plan.miscalculated:
            latency += self.MISCALC_MIN_PENALTY
        latency += self.FAST_COMPARE

        same_thread = all(self.layout.tid(e) == tid for e in epochs)
        same_epoch = all(self.layout.clear_expanded(e) == my_epoch for e in epochs)
        # A zero-clock epoch (virgin memory) precedes every access in the
        # happens-before order, so no race is possible and no VC element
        # is needed — the comparison circuit resolves it like sameThread.
        virgin = all(self.layout.clock(e) == 0 for e in epochs)

        if (same_thread or (virgin and not is_write)) and (
            not is_write or same_epoch
        ):
            outcome = CheckOutcome(AccessClass.FAST, latency, plan.expanded)
            self.stats.record(outcome)
            return outcome

        needs_vc = not same_thread and not virgin
        if needs_vc:
            # Load the needed vector-clock element(s) from memory.
            foreign = {self.layout.tid(e) for e in epochs if self.layout.tid(e) != tid}
            for foreign_tid in foreign:
                vc_addr = self.metadata.vc_element_address(foreign_tid)
                latency += self.hierarchy.access(core, vc_addr, 4, False)

        if not is_write:
            outcome = CheckOutcome(AccessClass.VC_LOAD, latency, plan.expanded)
            self.stats.record(outcome)
            return outcome

        # Write needing an epoch update (same_epoch was false or foreign).
        # The update is *posted*: it drains through the store path while
        # the program continues (its coherence and cache-state effects
        # are fully modelled; only its latency is off the critical path).
        # A line expansion, by contrast, stalls until the 4 stretched
        # metadata lines are written (Section 5.3).
        update_plan = self.metadata.apply_write(address, size, my_epoch)
        posted = 0
        for meta_addr, meta_size in update_plan.writes:
            posted += self.hierarchy.access(core, meta_addr, meta_size, True)
        if update_plan.expansion:
            latency += posted + self.EXPAND_BASE_PENALTY
            access_class = AccessClass.EXPAND
        elif needs_vc:
            access_class = AccessClass.VC_LOAD_UPDATE
        else:
            access_class = AccessClass.UPDATE
        outcome = CheckOutcome(
            access_class,
            latency,
            plan.expanded or update_plan.expanded,
        )
        self.stats.record(outcome)
        return outcome
