"""Kendo-style deterministic synchronization (paper Sections 2.4, 3.3).

Kendo orders synchronization operations by *deterministic logical
clocks*: each thread owns a counter advanced by its own execution
(instructions retired, or instrumented basic blocks), and a thread may
perform a synchronization operation only when its counter — with the
thread id breaking ties — is the minimum among all running threads.

In this runtime the counters live in the scheduler (every completed
operation charges its cost via the scheduler's ``counter_cost`` model),
and :class:`KendoGate` is the monitor that enforces the minimum-turn
rule through the :meth:`may_sync` veto.  The waiting-with-increment
behaviour of Kendo's lock acquisition (a thread whose turn it is but
whose lock is unavailable bumps its own counter and cedes the turn) is
implemented by the scheduler's pump, which only ever advances the
minimum thread's counter — a pure function of counter state, so the
committed synchronization order is schedule-independent.
"""

from __future__ import annotations

from typing import Optional

from ..runtime.ops import Op
from ..runtime.scheduler import ExecutionMonitor, Scheduler

__all__ = ["KendoGate"]


class KendoGate(ExecutionMonitor):
    """Monitor enforcing Kendo's minimum-turn rule for sync operations."""

    def __init__(self) -> None:
        self._scheduler: Optional[Scheduler] = None
        #: number of sync operations this gate admitted.
        self.admitted = 0
        #: number of veto decisions (a thread had to wait for its turn).
        self.vetoed = 0

    def attach(self, scheduler: Scheduler) -> None:
        self._scheduler = scheduler

    def may_sync(self, tid: int, op: Op) -> bool:
        """True iff ``tid`` holds the deterministic turn.

        The turn belongs to the live thread with the lexicographically
        smallest ``(counter, tid)`` pair — Kendo's rule with thread id
        as the tie-breaker.
        """
        assert self._scheduler is not None, "gate used before attach()"
        # Hot path: the gate is consulted for every parked sync op on
        # every scheduling step, so read the counters straight off the
        # thread records instead of materializing a dict.
        threads = self._scheduler._threads
        mine = (threads[tid].det_counter, tid)
        for other_tid, record in threads.items():
            if other_tid != tid and (record.det_counter, other_tid) < mine:
                self.vetoed += 1
                return False
        self.admitted += 1
        return True
