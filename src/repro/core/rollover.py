"""Clock-rollover policy and accounting (Section 4.5).

The clock component of an epoch is narrow (23 bits by default), and it is
incremented on every synchronization operation, so long-running programs
*will* exhaust it.  CLEAN prevents the resulting correctness problem by
halting the execution at the next *globally deterministic point* — when
every thread is at a synchronization operation — resetting all epochs and
vector clocks, and resuming.

This module provides the policy side: when a reset should be requested,
and a record of every reset so the Table-1 experiment (rollovers per
second, cost of resets) can be regenerated.  The mechanism side (actually
zeroing metadata) lives in
:meth:`repro.core.detector.CleanDetector.reset_metadata`; the
coordination side (waiting for all threads to reach synchronization)
lives in the runtime integration, where synchronization operations are
already the only points at which the deterministic scheduler commits
sync order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from .detector import CleanDetector

__all__ = ["RolloverEvent", "RolloverPolicy"]


@dataclass(frozen=True)
class RolloverEvent:
    """One metadata reset: when it happened and what it cost.

    ``sync_index`` is the global ordinal of the synchronization operation
    at which the reset landed (a deterministic quantity under Kendo);
    ``wait_cost`` and ``reset_cost`` are the modelled costs, in the cost
    model's abstract time units, of draining threads to the deterministic
    point and of remapping the epoch pages.
    """

    sync_index: int
    wait_cost: float
    reset_cost: float


@dataclass
class RolloverPolicy:
    """Decides when to request a deterministic metadata reset.

    Parameters
    ----------
    slack:
        Request a reset once any thread's clock is within ``slack``
        increments of the maximum.  A slack larger than the number of
        threads guarantees no increment can overflow while the request
        propagates to the next globally deterministic point.
    reset_cost:
        Modelled cost of one reset (page remapping is cheap; the paper
        measures the total impact at <= 2.4% of execution time).
    wait_cost_per_thread:
        Modelled cost of draining one thread to the deterministic point.
    """

    slack: int = 16
    reset_cost: float = 100.0
    wait_cost_per_thread: float = 50.0
    events: List[RolloverEvent] = field(default_factory=list)

    def should_reset(self, detector: CleanDetector) -> bool:
        """Whether the detector is close enough to rollover to reset now."""
        return detector.rollover_pending or detector.rollover_imminent(self.slack)

    def perform_reset(self, detector: CleanDetector, sync_index: int) -> RolloverEvent:
        """Reset the detector's metadata and record the event."""
        n_threads = len(detector.live_threads())
        detector.reset_metadata()
        event = RolloverEvent(
            sync_index=sync_index,
            wait_cost=self.wait_cost_per_thread * n_threads,
            reset_cost=self.reset_cost,
        )
        self.events.append(event)
        return event

    @property
    def count(self) -> int:
        """Number of resets performed."""
        return len(self.events)
