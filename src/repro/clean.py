"""The CLEAN system: detector + deterministic synchronization, assembled.

This is the library's front door.  :class:`CleanMonitor` adapts the
runtime's event stream to the :class:`~repro.core.CleanDetector` — the
software-only CLEAN of Section 4, with the Section-4.3 ordering (write
checks before the store, read checks right after the load) guaranteed by
the monitor hook placement.  :func:`clean_stack` builds the full monitor
stack (race detection + Kendo gate), and :func:`run_clean` runs a program
under it.

Example
-------
    from repro.clean import run_clean
    from repro.runtime import Program

    result = run_clean(Program(main))
    if result.race is not None:
        print("stopped by", result.race)
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from .core.detector import CleanDetector
from .core.events import AccessEvent, DetectorBackend
from .core.epoch import DEFAULT_LAYOUT, EpochLayout
from .core.rollover import RolloverPolicy
from .runtime.monitor import ExecutionMonitor

if TYPE_CHECKING:
    # Live runs only: offline analysis drives the monitor without them.
    from .determinism.kendo import KendoGate
    from .obs import MetricsRegistry
    from .obs.sites import SiteProfiler
    from .obs.timeline import TimelineRecorder
    from .runtime.ops import Op
    from .runtime.program import Program
    from .runtime.scheduler import ExecutionResult, SchedulingPolicy
    from .runtime.sync import Barrier, Condition, Lock, Semaphore

__all__ = ["CleanMonitor", "clean_stack", "run_clean"]


class CleanMonitor(ExecutionMonitor):
    """Adapter: runtime events -> detector backend checks and VC upkeep.

    This is the *only* bridge between the runtime and a detector: the
    CLEAN detector and every baseline implement the same
    :class:`~repro.core.events.DetectorBackend` protocol and plug in
    here unchanged.  Memory traffic arrives as
    :class:`~repro.core.events.AccessEvent` objects through the fused
    scheduler dispatch; the Section-4.3 ordering (write checks before
    the store, read checks right after the load) is guaranteed by
    checking writes in :meth:`before_access` and reads in
    :meth:`after_access`.

    Private (stack-like) accesses are skipped, mirroring the conservative
    shared-access estimate of Section 4.1.  A rollover policy, if given,
    resets all metadata at synchronization commits — under the Kendo gate
    these commits are globally ordered, so the reset point is the
    deterministic one Section 4.5 requires.

    When the backend declares ``same_epoch_filter`` (CLEAN does; the
    baselines do not, because their reads mutate metadata), the monitor
    keeps, per thread, the set of addresses that thread has written in
    its current epoch; an access wholly inside that set provably cannot
    race and cannot change metadata, so the full check is skipped and
    only the backend's statistics mirror
    (:meth:`~repro.core.events.DetectorBackend.note_same_epoch`) runs.
    The set is invalidated whenever the thread's clock can advance (any
    sync commit, spawn/join, barrier departure, condition wake) and
    globally on every metadata reset — the rollover policy's and the
    detector's own auto-rollover.  ``fastpath=False`` disables the filter
    (used by the verdict-equivalence property tests).
    """

    def __init__(
        self,
        detector: Optional[DetectorBackend] = None,
        rollover: Optional[RolloverPolicy] = None,
        max_threads: int = 64,
        layout: EpochLayout = DEFAULT_LAYOUT,
        instrument_private_fraction: float = 0.0,
        registry: Optional[MetricsRegistry] = None,
        fastpath: bool = True,
        sites: Optional[SiteProfiler] = None,
    ) -> None:
        if not 0.0 <= instrument_private_fraction <= 1.0:
            raise ValueError("instrument_private_fraction must be in [0, 1]")
        self.detector = (
            detector
            if detector is not None
            else CleanDetector(max_threads=max_threads, layout=layout)
        )
        self.rollover = rollover
        self.instrument_private_fraction = instrument_private_fraction
        self.registry = registry
        # Hot-site attribution: explicit profiler, else whatever the
        # ambient telemetry scope carries (None outside a scope — the
        # hot path then pays a single attribute test).
        if sites is None:
            from .obs.context import current_sites

            sites = current_sites()
        self.sites = sites
        self._sync_index = 0
        self._fastpath = bool(fastpath) and bool(
            getattr(self.detector, "same_epoch_filter", False)
        )
        #: tid -> addresses written by that thread in its current epoch.
        self._epoch_writes: Dict[int, Set[int]] = {}
        #: The detector's stats and reset count, watched so the written
        #: sets never outlive a metadata reset (fast path only).
        self._stats = getattr(self.detector, "stats", None)
        self._rollovers = getattr(self._stats, "rollovers", 0)
        self.fastpath_hits = 0
        self.fastpath_misses = 0

    @property
    def fastpath_enabled(self) -> bool:
        """Whether the same-epoch filter is active for this backend."""
        return self._fastpath

    def _invalidate(self, tid: int) -> None:
        writes = self._epoch_writes.get(tid)
        if writes:
            writes.clear()

    def _invalidate_all(self) -> None:
        self._epoch_writes.clear()

    def _after_clock_advance(self) -> None:
        """Drop every written set if the detector reset its metadata.

        CLEAN's auto-rollover resets all epochs from inside whichever
        ``release``/``fork``/``join`` pushed a clock to its limit — on
        any thread — so a set surviving it would turn a later write of
        its thread into a stale same-epoch hit that never reinstalls
        the epoch, hiding the next WAW race on those bytes.
        """
        stats = self._stats
        if self._fastpath and stats.rollovers != self._rollovers:
            self._rollovers = stats.rollovers
            self._invalidate_all()

    def _instrument(self, private: bool, address: int) -> bool:
        """Whether this access gets a race check.

        Shared accesses always do.  ``instrument_private_fraction``
        models how conservative the compiler's shared-access estimate is
        (Section 4.1): 0.0 is a perfect escape analysis, 1.0 instruments
        every stack access whose privacy it could not prove.  The choice
        is a deterministic hash of the address, standing in for the
        static classification of the variable.
        """
        if not private:
            return True
        if not self.instrument_private_fraction:
            return False
        return (address * 2654435761 % 1000) < self.instrument_private_fraction * 1000

    # -- thread lifecycle -------------------------------------------------

    def on_thread_start(self, tid: int, parent: Optional[int]) -> None:
        self._invalidate(tid)
        if parent is None:
            root = self.detector.spawn_root()
            if root != tid:
                raise RuntimeError(
                    f"scheduler root tid {tid} != detector root tid {root}"
                )

    def on_spawn(self, parent: int, child: int) -> None:
        self._invalidate(parent)
        self._invalidate(child)
        self.detector.fork(parent, child)
        self._after_clock_advance()

    def on_join(self, parent: int, child: int) -> None:
        self._invalidate(parent)
        self._invalidate(child)
        self.detector.join(parent, child)
        self._after_clock_advance()

    # -- memory (the Figure-2 checks, ordered per Section 4.3) ---------------

    def before_access(self, event: AccessEvent) -> None:
        if not event.is_write:
            return
        address = event.address
        if not self._instrument(event.private, address):
            return
        tid = event.tid
        size = event.size
        sites = self.sites
        if self._fastpath:
            written = self._epoch_writes.get(tid)
            if written is not None and (
                address in written
                if size == 1
                else all(address + o in written for o in range(size))
            ):
                self.fastpath_hits += 1
                self.detector.note_same_epoch(tid, address, size, is_read=False)
                if sites is not None:
                    sites.note_same_epoch(tid, address, is_write=True)
                return
            self.fastpath_misses += 1
            if sites is not None:
                sites.note_check(tid, address, is_write=True)
            self.detector.check_write(tid, address, size)
            if written is None:
                written = self._epoch_writes.setdefault(tid, set())
            written.update(range(address, address + size))
        else:
            if sites is not None:
                sites.note_check(tid, address, is_write=True)
            self.detector.check_write(tid, address, size)

    def after_access(self, event: AccessEvent) -> None:
        if event.is_write:
            return
        address = event.address
        if not self._instrument(event.private, address):
            return
        tid = event.tid
        size = event.size
        sites = self.sites
        if self._fastpath:
            written = self._epoch_writes.get(tid)
            if written is not None and (
                address in written
                if size == 1
                else all(address + o in written for o in range(size))
            ):
                self.fastpath_hits += 1
                self.detector.note_same_epoch(tid, address, size, is_read=True)
                if sites is not None:
                    sites.note_same_epoch(tid, address, is_write=False)
                return
            self.fastpath_misses += 1
        if sites is not None:
            sites.note_check(tid, address, is_write=False)
        self.detector.check_read(tid, address, size)

    # -- the batch lane (replay / analysis) ---------------------------------

    #: After :meth:`check_block` raises: the index of the raising access
    #: in the block as given (private accesses included).
    block_progress = 0

    def check_block(
        self,
        segments: np.ndarray,
        block: Tuple[np.ndarray, ...],
    ) -> None:
        """Drive consecutive replayed segments through the detector's
        :meth:`~repro.core.CleanDetector.check_block`.

        ``block`` is columnar ``(is_write, address, size, private,
        segment)``: equal-length numpy arrays, as the offline replay
        slices them from its decoded trace columns; ``segment`` indexes
        the rows of ``segments``, each segment's tid followed by its
        thread's epoch-encoded vector clock when the segment ended.
        Private accesses are skipped, as replay instruments shared
        accesses only.  The same-epoch hits are the accesses whose bytes
        their own segment wrote before, which is exactly what the
        per-event hooks find when every segment starts with an empty
        written set, as it does in replay.  Verdicts,
        hit/miss counts (kept when the fast path is on) and the
        detector's counters match the per-event hooks; a SiteProfiler is
        not fed.  On a race :attr:`block_progress` names the raising
        access.
        """
        w_col, a_col, s_col, p_col, seg = block
        kept = ~p_col
        accesses = (w_col[kept], a_col[kept], s_col[kept], seg[kept])
        n = int(accesses[1].size)
        if not n:
            return
        detector = self.detector
        done = n
        try:
            detector.check_block(segments, accesses)
        except Exception:
            # The raising access is a checked one (a miss).
            index = detector.block_progress
            done = index + 1
            self.block_progress = int(np.flatnonzero(kept)[index])
            raise
        finally:
            if self._fastpath:
                self.fastpath_hits += detector.block_hits
                self.fastpath_misses += done - detector.block_hits

    def _check_one(
        self, tid: int, is_write: bool, address: int, size: int
    ) -> None:
        """One (already instrument-filtered) access, exact hook body."""
        sites = self.sites
        if self._fastpath:
            written = self._epoch_writes.get(tid)
            if written is not None and (
                address in written
                if size == 1
                else all(address + o in written for o in range(size))
            ):
                self.fastpath_hits += 1
                self.detector.note_same_epoch(
                    tid, address, size, is_read=not is_write
                )
                if sites is not None:
                    sites.note_same_epoch(tid, address, is_write=is_write)
                return
            self.fastpath_misses += 1
            if sites is not None:
                sites.note_check(tid, address, is_write=is_write)
            if is_write:
                self.detector.check_write(tid, address, size)
                if written is None:
                    written = self._epoch_writes.setdefault(tid, set())
                written.update(range(address, address + size))
            else:
                self.detector.check_read(tid, address, size)
            return
        if sites is not None:
            sites.note_check(tid, address, is_write=is_write)
        if is_write:
            self.detector.check_write(tid, address, size)
        else:
            self.detector.check_read(tid, address, size)

    # -- synchronization (vector-clock maintenance) ----------------------------

    def on_acquire(self, tid: int, lock: Lock) -> None:
        self.detector.acquire(tid, lock)

    def on_release(self, tid: int, lock: Lock) -> None:
        self.detector.release(tid, lock)
        self._after_clock_advance()

    def on_barrier_arrive(self, tid: int, barrier: Barrier, generation: int) -> None:
        self.detector.release(tid, (barrier, generation))
        self._after_clock_advance()

    def on_barrier_depart(self, tid: int, barrier: Barrier, generation: int) -> None:
        self._invalidate(tid)
        self.detector.acquire(tid, (barrier, generation))

    def on_cond_signal(self, tid: int, cond: Condition) -> None:
        self.detector.release(tid, cond)
        self._after_clock_advance()

    def on_cond_wake(self, tid: int, cond: Condition) -> None:
        self._invalidate(tid)
        self.detector.acquire(tid, cond)

    def on_sem_post(self, tid: int, sem: Semaphore) -> None:
        self.detector.release(tid, sem)
        self._after_clock_advance()

    def on_sem_wait(self, tid: int, sem: Semaphore) -> None:
        self.detector.acquire(tid, sem)

    # -- rollover -----------------------------------------------------------------

    def on_rollback(self, tid: int) -> None:
        # Recovery discarded ``tid``'s open SFR: the epochs its buffered
        # writes installed were scrubbed, so the written-this-epoch set
        # no longer describes shadow state.
        self._invalidate(tid)

    def on_sync_commit(self, tid: int, op: Op) -> None:
        self._invalidate(tid)
        if self.sites is not None:
            self.sites.note_sync(tid)
        self._sync_index += 1
        if self.rollover is not None and self.rollover.should_reset(self.detector):
            self.rollover.perform_reset(self.detector, self._sync_index)
            # A reset wipes every location's metadata: no thread's
            # written-this-epoch set says anything about shadow state
            # any more.
            self._invalidate_all()
            self._rollovers = getattr(self._stats, "rollovers", 0)

    # -- telemetry ----------------------------------------------------------------

    def on_finish(self, result: ExecutionResult) -> None:
        if self.registry is not None:
            self.publish_metrics(self.registry)
        if self.sites is not None and result.race is not None:
            self.sites.note_race(result.race.address)
        from .obs.context import current_registry

        ambient = current_registry()
        if ambient is not None:
            self.accumulate_metrics(ambient)

    def accumulate_metrics(self, registry: MetricsRegistry) -> None:
        """Add this run's detector totals to ``registry`` (``clean.*``).

        Unlike :meth:`publish_metrics` — an idempotent absolute mirror
        (``set_to``) of *one* detector's stats struct — this family
        *accumulates*: a worker job that executes twenty detector runs
        sums them, and the parent process sums worker snapshots again
        via :meth:`~repro.obs.registry.MetricsRegistry.merge_snapshot`.
        That is what makes ``clean.checks`` totals identical between a
        serial and a ``--jobs N`` report.
        """
        stats = getattr(self.detector, "stats", None)
        if stats is not None:
            accesses = getattr(stats, "accesses", None)
            if isinstance(accesses, (int, float)):
                registry.inc("clean.checks", accesses)
            for field in (
                "reads", "writes", "epoch_comparisons", "epoch_updates",
                "cas_failures", "races_raised", "rollovers",
            ):
                value = getattr(stats, field, None)
                if isinstance(value, (int, float)) and value:
                    registry.inc(f"clean.{field}", value)
        shadow = getattr(self.detector, "shadow", None)
        if shadow is not None:
            # Shadow traffic stays exact under batch operations (the
            # batch paths account loads/stores explicitly), so the fast
            # path is observable from the profile output.
            for field in ("loads", "stores", "resets"):
                value = getattr(shadow, field, None)
                if isinstance(value, (int, float)) and value:
                    registry.inc(f"clean.shadow.{field}", value)
        if self._fastpath:
            registry.inc("clean.same_epoch.hits", self.fastpath_hits)
            registry.inc("clean.same_epoch.misses", self.fastpath_misses)
        registry.inc("clean.runs")

    def publish_metrics(self, registry: MetricsRegistry) -> None:
        """Mirror the detector's counters into ``registry``.

        Runs automatically at the end of every execution when the
        monitor was built with a ``registry``; callable at any point for
        a mid-run snapshot.  Works for the CLEAN detector and for any
        baseline plugged through this adapter (duck-typed publishing).
        """
        from .obs.bridges import publish_detector_metrics

        publish_detector_metrics(self.detector, registry)
        if self._fastpath:
            registry.counter("detector.fastpath.hits").set_to(self.fastpath_hits)
            registry.counter("detector.fastpath.misses").set_to(self.fastpath_misses)
        if self.rollover is not None:
            registry.counter("detector.rollover.resets").set_to(self.rollover.count)


def clean_stack(
    detect: bool = True,
    deterministic: bool = True,
    detector: Optional[DetectorBackend] = None,
    rollover: Optional[RolloverPolicy] = None,
    max_threads: int = 64,
    layout: EpochLayout = DEFAULT_LAYOUT,
    extra: Optional[List[ExecutionMonitor]] = None,
    registry: Optional[MetricsRegistry] = None,
    fastpath: bool = True,
) -> Tuple[List[ExecutionMonitor], Optional[CleanMonitor], Optional[KendoGate]]:
    """Build the CLEAN monitor stack.

    Returns ``(monitors, clean_monitor, kendo_gate)`` — the latter two are
    ``None`` when the corresponding mechanism is disabled, letting
    callers measure each mechanism in isolation as Figure 6 does.  A
    ``registry`` makes the monitor publish its detector's counters there
    at the end of every run (see :mod:`repro.obs`).
    """
    monitors: List[ExecutionMonitor] = []
    clean: Optional[CleanMonitor] = None
    gate: Optional[KendoGate] = None
    if detect:
        clean = CleanMonitor(
            detector=detector,
            rollover=rollover,
            max_threads=max_threads,
            layout=layout,
            registry=registry,
            fastpath=fastpath,
        )
        monitors.append(clean)
    if deterministic:
        from .determinism.kendo import KendoGate

        gate = KendoGate()
        monitors.append(gate)
    if extra:
        monitors.extend(extra)
    return monitors, clean, gate


def run_clean(
    program: Program,
    detect: bool = True,
    deterministic: bool = True,
    policy: Optional[SchedulingPolicy] = None,
    detector: Optional[DetectorBackend] = None,
    rollover: Optional[RolloverPolicy] = None,
    max_threads: int = 64,
    layout: EpochLayout = DEFAULT_LAYOUT,
    counter_cost: Optional[Callable] = None,
    extra_monitors: Optional[List[ExecutionMonitor]] = None,
    raise_on_race: bool = False,
    registry: Optional[MetricsRegistry] = None,
    fastpath: bool = True,
    recovery: Optional[object] = None,
    timeline: Optional[TimelineRecorder] = None,
) -> ExecutionResult:
    """Run ``program`` under CLEAN and return its execution result.

    The returned result's ``race`` field carries the
    :class:`~repro.core.exceptions.RaceException` if the execution was
    stopped; ``raise_on_race=True`` re-raises it instead.

    ``recovery`` — a mode string (``"abort"``, ``"quarantine"``,
    ``"rollback-retry"``) or a
    :class:`~repro.runtime.recovery.RecoveryPolicy` — makes the
    scheduler buffer SFR writes and *survive* race exceptions instead of
    stopping; the result's ``recovery`` field then carries the
    :class:`~repro.runtime.recovery.RecoveryReport`.

    ``timeline`` — a :class:`~repro.obs.timeline.TimelineRecorder` —
    records the run's execution timeline (SFRs, sync ops, happens-before
    edges) for the forensics exporters.  When no recorder is passed but
    the ambient telemetry scope carries a
    :class:`~repro.obs.timeline.TimelineSink`, one is created per run
    and its payload is delivered to the sink — that is how ``--jobs N``
    workers ship timelines back to the parent.  Either way a
    :class:`~repro.diagnostics.RaceContextMonitor` rides along and, if
    the run races, its :class:`~repro.diagnostics.RaceReport` payload is
    attached to the recorder as ``race_report`` so every forensics
    artifact names the same racing SFR pair as ``RaceReport.render()``.
    """
    from .determinism.counters import PreciseCounter
    from .diagnostics import RaceContextMonitor
    from .obs.context import current_sites, current_timeline
    from .obs.timeline import TimelineRecorder

    sink = None
    recorder = timeline
    if recorder is None:
        sink = current_timeline()
        if sink is not None:
            recorder = TimelineRecorder(label=program.main.__name__)
    context: Optional[RaceContextMonitor] = None
    monitors, _clean, _gate = clean_stack(
        detect=detect,
        deterministic=deterministic,
        detector=detector,
        rollover=rollover,
        max_threads=max_threads,
        layout=layout,
        extra=extra_monitors,
        registry=registry,
        fastpath=fastpath,
    )
    if recorder is not None:
        # Provenance must be recorded before the CLEAN monitor raises.
        context = RaceContextMonitor()
        monitors.insert(0, context)
    result = program.run(
        policy=policy,
        monitors=monitors,
        max_threads=max_threads,
        counter_cost=counter_cost if counter_cost is not None else PreciseCounter(),
        raise_on_race=False if recorder is not None else raise_on_race,
        recovery=recovery,
        timeline=recorder,
    )
    if recorder is not None:
        if result.race is not None and context is not None:
            recorder.race_report = context.report(
                result.race, sites=current_sites()
            ).to_payload()
        if sink is not None:
            sink.add(recorder.to_payload())
        if raise_on_race and result.race is not None:
            raise result.race
    return result
