"""Race diagnostics: turning a race exception into an actionable report.

The paper motivates CLEAN partly as a development-time tool ("possibly
fast enough to use during development", Section 1) — and a race
exception is only useful to a developer if it says *which two accesses*
conflicted.  The bare exception carries the faulting address and the
epoch of the last write; :class:`RaceContextMonitor` keeps the little
extra provenance a runtime can cheaply maintain — for every address, who
last wrote it, at which per-thread operation index, in which
synchronization-free region — and renders a two-sided report when an
exception fires.

Attach it *before* the CLEAN monitor in the stack, and ask it for
:meth:`report` after a stopped run:

    ctx_monitor = RaceContextMonitor()
    result = program.run(monitors=[ctx_monitor, CleanMonitor(...)])
    if result.race:
        print(ctx_monitor.report(result.race))
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, Optional

from .core.events import AccessEvent
from .core.exceptions import RaceException
from .runtime.recovery import RecoveryReport
from .runtime.scheduler import ExecutionMonitor

__all__ = [
    "AccessSite",
    "RaceContextMonitor",
    "RaceReport",
    "render_recovery",
]


def render_recovery(report: RecoveryReport) -> str:
    """Printable summary of a run's recovery actions.

    The counterpart of :meth:`RaceReport.render` for executions that ran
    under a :class:`~repro.runtime.recovery.RecoveryPolicy`: which races
    fired, what recovery did about each (retried / quarantined /
    aborted), and how the run ended.
    """
    if report.clean:
        return f"recovery ({report.policy}): no races, no recovery actions"
    lines = [
        f"recovery ({report.policy}): {report.races} race(s), "
        f"{report.rollbacks} rollback(s), "
        f"{len(report.quarantined)} thread(s) quarantined"
    ]
    for event in report.events:
        lines.append(
            f"  step {event.step}: {event.kind} race at {event.address:#x} "
            f"in thread {event.tid} (SFR #{event.region}) -> {event.action}"
            + (f" (retry {event.retry + 1})" if event.action == "retried" else "")
        )
    if report.quarantined:
        parked = ", ".join(f"T{t}" for t in report.quarantined)
        lines.append(f"  quarantined threads: {parked}")
    if report.deadlocked:
        lines.append(
            "  run ended in a post-quarantine deadlock: surviving threads "
            "waited on a quarantined peer (graceful stop, not a hang)"
        )
    return "\n".join(lines)


@dataclass(frozen=True)
class AccessSite:
    """Provenance of one shared access."""

    tid: int
    op_index: int
    region_index: int
    is_write: bool
    address: int
    size: int

    def describe(self) -> str:
        kind = "write" if self.is_write else "read"
        return (
            f"thread {self.tid}, operation #{self.op_index} "
            f"({kind} of {self.size} byte(s) at {self.address:#x}, "
            f"SFR #{self.region_index})"
        )

    def to_payload(self) -> Dict[str, Any]:
        """JSON-safe dict (consumed by the forensics artifacts)."""
        return {
            "tid": self.tid,
            "op_index": self.op_index,
            "region_index": self.region_index,
            "is_write": self.is_write,
            "address": self.address,
            "size": self.size,
        }


@dataclass(frozen=True)
class RaceReport:
    """Both sides of a detected race, ready to print.

    ``hot_site`` is optional hot-site provenance from a
    :class:`~repro.obs.sites.SiteProfiler`: how much detector work this
    address attracted before the exception fired and where it ranks
    among all checked sites — the Fig.-10-style attribution that tells a
    developer whether the racing address is also a hot one.  The keys
    are ``rank``, ``checks``, ``reads``, ``writes``, ``same_epoch`` and
    ``races``.
    """

    kind: str
    address: int
    current: AccessSite
    previous: Optional[AccessSite]
    hot_site: Optional[Dict[str, Any]] = field(default=None)
    #: paths of forensics artifacts describing the same race (Chrome
    #: trace, HB graph, HTML report) — see :meth:`with_artifacts`.
    artifacts: Optional[Dict[str, str]] = field(default=None)

    def with_artifacts(self, artifacts: Dict[str, str]) -> "RaceReport":
        """A copy of this report linking the written forensics bundle."""
        return replace(self, artifacts=dict(artifacts))

    def to_payload(self) -> Dict[str, Any]:
        """JSON-safe dict naming the racing pair, plus the rendered text."""
        return {
            "kind": self.kind,
            "address": self.address,
            "current": self.current.to_payload(),
            "previous": (
                self.previous.to_payload() if self.previous is not None else None
            ),
            "hot_site": self.hot_site,
            "artifacts": self.artifacts,
            "text": self.render(),
        }

    def render(self) -> str:
        lines = [
            f"{self.kind} race on address {self.address:#x}",
            f"  second access: {self.current.describe()}",
        ]
        if self.previous is not None:
            lines.append(f"  first access:  {self.previous.describe()}")
            lines.append(
                "  the two accesses are not ordered by any synchronization"
            )
        else:
            lines.append("  first access:  (no recorded shared write)")
        if self.hot_site is not None:
            s = self.hot_site
            lines.append(
                f"  hot-site profile: rank #{s.get('rank', '?')} by "
                f"race-check work ({s.get('checks', 0)} checks, "
                f"{s.get('same_epoch', 0)} same-epoch hits, "
                f"{s.get('races', 0)} race(s) here)"
            )
        if self.artifacts:
            lines.append("  forensics artifacts:")
            for name in sorted(self.artifacts):
                lines.append(f"    {name}: {self.artifacts[name]}")
        return "\n".join(lines)


class RaceContextMonitor(ExecutionMonitor):
    """Tracks per-address last-writer provenance and per-thread progress."""

    def __init__(self) -> None:
        self._op_index: Dict[int, int] = {}
        self._region_index: Dict[int, int] = {}
        self._last_writer: Dict[int, AccessSite] = {}
        self._current: Optional[AccessSite] = None

    # -- progress tracking ----------------------------------------------------

    def on_thread_start(self, tid: int, parent) -> None:
        self._op_index[tid] = 0
        self._region_index[tid] = 0

    def on_sync_commit(self, tid: int, op) -> None:
        self._op_index[tid] = self._op_index.get(tid, 0) + 1
        self._region_index[tid] = self._region_index.get(tid, 0) + 1

    def on_compute(self, tid: int, amount: int) -> None:
        self._op_index[tid] = self._op_index.get(tid, 0) + 1

    def _site(self, tid: int, address: int, size: int, is_write: bool) -> AccessSite:
        self._op_index[tid] = self._op_index.get(tid, 0) + 1
        return AccessSite(
            tid=tid,
            op_index=self._op_index[tid],
            region_index=self._region_index.get(tid, 0),
            is_write=is_write,
            address=address,
            size=size,
        )

    # -- access tracking (runs before CleanMonitor's checks) --------------------

    def before_access(self, event: AccessEvent) -> None:
        if not event.is_write or event.private:
            return
        # The write is current before CLEAN checks it; it becomes the
        # bytes' last writer only after the store, so a raised
        # exception still sees the previous writer.
        self._current = self._site(event.tid, event.address, event.size, True)

    def after_access(self, event: AccessEvent) -> None:
        if event.private:
            return
        if event.is_write:
            site = self._current
            for a in range(event.address, event.address + event.size):
                self._last_writer[a] = site
        else:
            self._current = self._site(
                event.tid, event.address, event.size, False
            )

    # -- reporting --------------------------------------------------------------

    def report(
        self, exc: RaceException, sites: Optional[Any] = None
    ) -> RaceReport:
        """Build the two-sided report for a raised race exception.

        ``sites`` — a :class:`~repro.obs.sites.SiteProfiler` that
        observed the same run — adds hot-site provenance (rank and
        per-site check counts for the faulting address).
        """
        current = self._current
        if current is None:
            current = AccessSite(exc.accessing_tid, -1, -1,
                                 exc.kind != "RAW", exc.address, exc.size)
        previous = self._last_writer.get(exc.address)
        hot_site = None
        if sites is not None:
            stats = sites.addresses.get(exc.address)
            if stats is not None:
                hot_site = dict(stats)
                hot_site["rank"] = sites.site_rank(exc.address)
        return RaceReport(
            kind=exc.kind,
            address=exc.address,
            current=current,
            previous=previous,
            hot_site=hot_site,
        )

    def render(self, exc: RaceException, sites: Optional[Any] = None) -> str:
        """Shortcut: the printable report text."""
        return self.report(exc, sites=sites).render()
