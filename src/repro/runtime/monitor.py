"""The monitor hook protocol: what the runtime reports, and when.

:class:`ExecutionMonitor` is the base every monitor subclasses — the
race detector, the Kendo gate, the trace recorder, the SFR oracles and
the telemetry monitors.  It lives apart from the scheduler that
dispatches it, so code that only implements or names the protocol (the
trace recorder, the detector adapter in :mod:`repro.clean`) loads no
part of the live runtime; :mod:`repro.runtime.scheduler` re-exports it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    from ..core.events import AccessEvent
    from .ops import Op
    from .scheduler import ExecutionResult, Scheduler
    from .sync import Barrier, Condition, Lock, Semaphore

__all__ = ["ExecutionMonitor"]


class ExecutionMonitor:
    """Base monitor: every hook is a no-op.  Subclass what you need.

    Memory is observed through :meth:`before_access` and
    :meth:`after_access`, which receive the single
    :class:`~repro.core.events.AccessEvent` the scheduler builds per
    operation (``event.is_write`` gives the direction).  They run in the
    order Section 4.3 requires: a write is checked in
    :meth:`before_access`, before the store, and a read in
    :meth:`after_access`, right after the load.  Any hook may raise
    :class:`~repro.core.exceptions.RaceException` to stop the execution.

    The scheduler only calls hooks a subclass actually overrides, so a
    new hook costs nothing until somebody uses it.
    """

    def attach(self, scheduler: "Scheduler") -> None:
        """Called once when the scheduler adopts this monitor."""

    def on_thread_start(self, tid: int, parent: Optional[int]) -> None:
        """A thread (root or spawned) began execution."""

    def on_thread_exit(self, tid: int) -> None:
        """A thread's generator finished."""

    def on_join(self, parent: int, child: int) -> None:
        """``parent`` completed a join on finished thread ``child``."""

    def before_access(self, event: AccessEvent) -> None:
        """About to perform ``event`` (race check point for writes).

        For reads ``event.value`` is still ``None``; for writes it is
        the value about to be stored.  Do not retain ``event``.
        """

    def after_access(self, event: AccessEvent) -> None:
        """``event`` completed (race check point for reads).

        ``event.value`` carries the loaded/stored value.  Do not retain
        ``event``.
        """

    def on_acquire(self, tid: int, lock: Lock) -> None:
        """``tid`` acquired ``lock`` (happens-after its last releaser)."""

    def on_release(self, tid: int, lock: Lock) -> None:
        """``tid`` released ``lock``."""

    def on_barrier_arrive(self, tid: int, barrier: Barrier, generation: int) -> None:
        """``tid`` arrived at ``barrier`` in episode ``generation``."""

    def on_barrier_depart(self, tid: int, barrier: Barrier, generation: int) -> None:
        """``tid`` left ``barrier`` after episode ``generation`` tripped."""

    def on_cond_signal(self, tid: int, cond: Condition) -> None:
        """``tid`` signalled (or broadcast) ``cond``."""

    def on_cond_wake(self, tid: int, cond: Condition) -> None:
        """``tid`` woke from a wait on ``cond`` (after reacquiring its lock)."""

    def on_sem_post(self, tid: int, sem: Semaphore) -> None:
        """``tid`` posted ``sem``."""

    def on_sem_wait(self, tid: int, sem: Semaphore) -> None:
        """``tid`` completed a wait on ``sem``."""

    def on_spawn(self, parent: int, child: int) -> None:
        """``parent`` spawned ``child`` (parent-happens-before-child)."""

    def on_compute(self, tid: int, amount: int) -> None:
        """``tid`` executed ``amount`` non-memory instructions."""

    def may_sync(self, tid: int, op: Op) -> bool:
        """Gate: may ``tid`` commit synchronization operation ``op`` now?"""
        return True

    def on_sync_commit(self, tid: int, op: Op) -> None:
        """A synchronization operation committed (rollover hook point)."""

    def on_rollback(self, tid: int) -> None:
        """Recovery discarded ``tid``'s open SFR (its buffered writes
        never became visible; any per-thread caches keyed on its open
        epoch must be invalidated)."""

    def on_finish(self, result: "ExecutionResult") -> None:
        """The whole execution finished (normally or with a race)."""
