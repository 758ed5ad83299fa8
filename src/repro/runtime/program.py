"""High-level entry point: build and run a multithreaded program.

:class:`Program` wraps a root thread function and runs it under a chosen
scheduling policy and monitor stack.  This is the API the examples and
workloads use:

    from repro.runtime import Program, Read, Write, Spawn, Join

    def worker(ctx, base, i):
        v = yield Read(base + 8 * i, 8)
        yield Write(base + 8 * i, 8, v + 1)

    def main(ctx):
        base = ctx.alloc(64)
        kids = []
        for i in range(8):
            kids.append((yield Spawn(worker, (base, i))))
        for k in kids:
            yield Join(k)

    result = Program(main).run()
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence, Tuple

from .memory import SharedMemory
from .scheduler import (
    ExecutionMonitor,
    ExecutionResult,
    Scheduler,
    SchedulingPolicy,
)

__all__ = ["Program"]


class Program:
    """A runnable multithreaded program rooted at one thread function."""

    def __init__(self, main: Callable[..., Any], *args: Any) -> None:
        self.main = main
        self.args: Tuple[Any, ...] = args

    def run(
        self,
        policy: Optional[SchedulingPolicy] = None,
        monitors: Optional[Sequence[ExecutionMonitor]] = None,
        memory: Optional[SharedMemory] = None,
        max_threads: int = 64,
        max_steps: int = 50_000_000,
        counter_cost: Optional[Callable] = None,
        raise_on_race: bool = False,
        recovery: Optional[object] = None,
        timeline: Optional[ExecutionMonitor] = None,
    ) -> ExecutionResult:
        """Execute the program once and return its result.

        Each call builds a fresh scheduler and memory, so repeated runs
        are independent — run the same program under different policies
        or seeds to explore interleavings.  ``recovery`` — a mode string
        or :class:`~repro.runtime.recovery.RecoveryPolicy` — enables SFR
        write buffering and race-exception recovery.  ``timeline`` — a
        :class:`~repro.obs.timeline.TimelineRecorder` — is appended to
        the monitor stack so the run's execution timeline lands on it.
        """
        if timeline is not None:
            monitors = list(monitors or []) + [timeline]
        scheduler = Scheduler(
            memory=memory,
            monitors=monitors,
            policy=policy,
            max_threads=max_threads,
            max_steps=max_steps,
            counter_cost=counter_cost,
            recovery=recovery,
        )
        scheduler.start(self.main, *self.args)
        return scheduler.run(raise_on_race=raise_on_race)
