"""Ambient telemetry: the scope a worker process publishes into.

The experiment ``compute()`` functions are pure-by-design — they take a
benchmark config and return a JSON payload — so threading an explicit
registry through every call chain (runner → compute → ``clean_stack`` →
``CleanMonitor``) would contaminate dozens of signatures for a purely
observational concern.  Instead the job runner installs a
*telemetry scope* around each job; anything underneath that wants to
publish (the CLEAN monitor's ``clean.*`` accumulators, the site
profiler) asks for :func:`current_registry` / :func:`current_sites` and
gets ``None`` when no scope is active — exactly the pre-pipeline
behaviour.

Scopes are thread-local and stack (nesting keeps the innermost), so a
parent-process run profiling itself cannot leak into a concurrently
serving HTTP thread.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Iterator, Optional

from .registry import MetricsRegistry

if TYPE_CHECKING:
    from .tracer import Tracer

__all__ = [
    "TelemetryContext",
    "current_context",
    "current_registry",
    "current_sites",
    "current_timeline",
    "current_tracer",
    "telemetry_scope",
]


class TelemetryContext:
    """One active telemetry scope: registry + tracer + optional extras."""

    __slots__ = ("registry", "tracer", "sites", "timeline")

    def __init__(
        self,
        registry: MetricsRegistry,
        tracer: Tracer,
        sites: Optional[Any] = None,
        timeline: Optional[Any] = None,
    ) -> None:
        self.registry = registry
        self.tracer = tracer
        self.sites = sites  # a SiteProfiler, duck-typed to avoid a cycle
        self.timeline = timeline  # a TimelineSink, duck-typed likewise


_local = threading.local()


def _stack() -> list:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


@contextmanager
def telemetry_scope(
    registry: Optional[MetricsRegistry] = None,
    tracer: Optional[Tracer] = None,
    sites: Optional[Any] = None,
    timeline: Optional[Any] = None,
) -> Iterator[TelemetryContext]:
    """Install an ambient telemetry context for the enclosed block."""
    from .tracer import Tracer

    ctx = TelemetryContext(
        registry if registry is not None else MetricsRegistry(),
        tracer if tracer is not None else Tracer(),
        sites,
        timeline,
    )
    stack = _stack()
    stack.append(ctx)
    try:
        yield ctx
    finally:
        # Identity removal: tolerate a misbehaving nested scope.
        for i in range(len(stack) - 1, -1, -1):
            if stack[i] is ctx:
                del stack[i]
                break


def current_context() -> Optional[TelemetryContext]:
    """The innermost active scope, or ``None``."""
    stack = _stack()
    return stack[-1] if stack else None


def current_registry() -> Optional[MetricsRegistry]:
    ctx = current_context()
    return ctx.registry if ctx is not None else None


def current_tracer() -> Optional[Tracer]:
    ctx = current_context()
    return ctx.tracer if ctx is not None else None


def current_sites() -> Optional[Any]:
    ctx = current_context()
    return ctx.sites if ctx is not None else None


def current_timeline() -> Optional[Any]:
    """The ambient :class:`~repro.obs.timeline.TimelineSink`, or ``None``."""
    ctx = current_context()
    return ctx.timeline if ctx is not None else None
