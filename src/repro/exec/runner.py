"""The fault-tolerant job runner and the resident worker pool behind it.

``JobRunner.run(jobs)`` returns one :class:`JobResult` per job **in
submission order**, no matter in which order workers finish — report
tables must not depend on scheduling noise.  Per job it provides:

* checkpointing — a job already in the
  :class:`~repro.exec.checkpoint.CheckpointStore` is served from disk
  (``cached=True``) without executing;
* isolation — with ``workers >= 2`` (or a timeout) the misses run on a
  :class:`PersistentPool` of resident worker processes, which owns the
  per-job timeouts, the heartbeat watchdog for wedged workers, crash
  classification, the bounded retry loop with capped exponential
  backoff (optional jitter is a pure function of job id and attempt, so
  serial, parallel and repeated runs wait identically) and the
  degradation to in-process threads when processes cannot start;
* structured failure — a job that exhausts its retries yields a
  ``failed`` result and the sweep continues;
* telemetry — one ``runner.job`` span per job, ``runner.*`` counters,
  and with ``job_telemetry`` on each attempt runs in a fresh telemetry
  scope (:func:`~repro.exec.job.run_job_traced`) whose metrics, spans,
  hot-site profile and timelines merge back **in submission order**, so
  a ``--jobs 4`` sweep aggregates exactly the totals of the serial one.
  The payload rides in the checkpoint record, so cache-served jobs
  replay the telemetry of their original execution;
* live status — progress (totals, running jobs, ETA) republished to
  :attr:`JobRunner.status` and served by
  :meth:`JobRunner.status_snapshot` to the ``/status`` endpoint.

With ``workers <= 1`` and no timeout, jobs execute in-process: the
serial reference that ``--jobs N`` sweeps must match byte for byte.
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import random
import signal
import sys
import threading
import time
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _wait_connections
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .checkpoint import CheckpointStore
from .job import Job, run_job, run_job_traced

__all__ = ["JobResult", "JobRunner", "PersistentPool", "PoolTicket"]

#: Seconds an idle worker waits for a job before checking whether its
#: owner is still alive.
_ORPHAN_POLL = 0.5


@dataclass
class JobResult:
    """Outcome of one job: value or structured failure, never an exception.

    ``telemetry`` is the job's cross-process telemetry payload (metrics
    snapshot + instrument kinds + span records + optional hot-site
    profile) when the runner collects it — see
    :func:`~repro.exec.job.run_job_traced` — else ``None``.
    """

    job: Job
    status: str  # "ok" | "failed"
    value: Any = None
    error: Optional[str] = None
    attempts: int = 0
    duration_s: float = 0.0
    cpu_s: float = 0.0
    cached: bool = False
    telemetry: Optional[Dict[str, Any]] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def _worker_wedged() -> bool:
    """True when fault injection has wedged this worker (see repro.faults).

    Looked up dynamically so the runner keeps zero dependency on the
    fault-injection module in normal operation.
    """
    faults = sys.modules.get("repro.faults")
    return bool(faults is not None and faults.is_wedged())


def _execute(
    job: Job, telemetry: bool, sites: bool, sample_every: int, timelines: bool
) -> Tuple[Any, Optional[Dict[str, Any]]]:
    """Run one attempt in this process: ``(value, telemetry payload)``."""
    if not telemetry:
        return run_job(job), None
    return run_job_traced(
        job, sites=sites, sample_every=sample_every, timelines=timelines
    )


class _Backoff:
    """The retry delay policy shared by :class:`JobRunner` (serial
    path) and :class:`PersistentPool`; reads ``backoff``,
    ``max_backoff`` and ``backoff_jitter`` from the instance."""

    def _backoff_delay(self, attempt: int, job_id: str = "") -> float:
        """Delay before retry ``attempt + 1``: capped exponential, with
        optional jitter that is a pure function of (job id, attempt) —
        the same job retries after the same delay whether the sweep runs
        serially, in parallel, or is re-run tomorrow."""
        delay = min(self.max_backoff, self.backoff * (2 ** (attempt - 1)))
        if self.backoff_jitter:
            rng = random.Random(f"{job_id}:{attempt}")
            delay *= 1.0 + self.backoff_jitter * (rng.random() - 0.5)
        return max(0.0, min(self.max_backoff, delay))


@dataclass
class JobRunner(_Backoff):
    """Runs :class:`Job` batches with caching, retries and timeouts."""

    workers: int = 1
    timeout: Optional[float] = None
    retries: int = 2
    backoff: float = 0.25
    #: ceiling on any single backoff delay, jitter included
    max_backoff: float = 30.0
    #: relative jitter width (0 = none); deterministic per (job id, attempt)
    backoff_jitter: float = 0.0
    #: seconds a worker may stay silent (no heartbeat, no result) before
    #: the watchdog declares it stuck; ``None`` disables the watchdog
    watchdog: Optional[float] = None
    store: Optional[CheckpointStore] = None
    registry: Any = None  # MetricsRegistry-compatible (duck-typed)
    tracer: Any = None  # Tracer-compatible (duck-typed)
    #: collect per-job telemetry payloads and merge them post-run
    job_telemetry: bool = True
    #: attribute detector work to addresses/SFRs (fills :attr:`sites`)
    profile_sites: bool = False
    #: hot-site sampling period (1 = exact)
    sample_every: int = 1
    #: record per-run execution timelines in every job (fills
    #: :attr:`timelines`) — see :class:`~repro.obs.timeline.TimelineRecorder`
    record_timelines: bool = False
    #: StatusFile-compatible sink for live progress (duck-typed)
    status: Any = None
    #: minimum seconds between status-file rewrites
    status_interval: float = 0.5
    #: per-run tallies, reset by each :meth:`run` call
    stats: Dict[str, Any] = field(default_factory=dict)
    #: merged SiteProfiler after a run with ``profile_sites`` (else None)
    sites: Any = field(default=None, repr=False)
    #: after a run with ``record_timelines``: submission-ordered
    #: ``{"job": label, "timelines": [payload, ...]}`` entries
    timelines: List[Dict[str, Any]] = field(default_factory=list, repr=False)

    # -- public API ---------------------------------------------------------

    def run(self, jobs: Sequence[Job]) -> List[JobResult]:
        """Execute ``jobs``; results come back in submission order."""
        jobs = list(jobs)
        self.stats = {
            "submitted": len(jobs),
            "executed": 0,
            "cache_hits": 0,
            "retries": 0,
            "timeouts": 0,
            "stuck": 0,
            "failures": 0,
            "corrupt_checkpoints": 0,
            "wall_seconds": 0.0,
            "cpu_seconds": 0.0,
            "degraded": False,
        }
        self._run_start = time.perf_counter()
        self._running: Dict[int, str] = {}
        self._tickets: List[PoolTicket] = []
        self._done = 0
        self._ok = 0
        self._last_status = 0.0
        self._total = len(jobs)
        self._publish_status(state="starting", force=True)
        if self.registry is not None:
            self.registry.inc("runner.submitted", len(jobs))
            self.registry.set_gauge("runner.workers", self.workers)
        results: List[Optional[JobResult]] = [None] * len(jobs)
        to_run: List[int] = []
        corrupt_before = (
            self.store.corrupt_records if self.store is not None else 0
        )
        for i, job in enumerate(jobs):
            record = self.store.load(job) if self.store is not None else None
            if record is not None:
                results[i] = JobResult(
                    job=job,
                    status="ok",
                    value=record["value"],
                    attempts=int(record.get("attempts", 1)),
                    duration_s=float(record.get("duration_s", 0.0)),
                    cpu_s=float(record.get("cpu_s", 0.0)),
                    cached=True,
                    telemetry=record.get("telemetry"),
                )
                self._tally("cache_hits")
                self._done += 1
                self._ok += 1
                if self.tracer is not None:
                    self.tracer.event(
                        "runner.job", job=job.label, id=job.job_id, cached=True
                    )
            else:
                to_run.append(i)
        if self.store is not None:
            hit = self.store.corrupt_records - corrupt_before
            if hit:
                # The store already moved the damaged records to its
                # quarantine directory and bumped ``checkpoint.corrupt``;
                # here we just surface the count in the run's stats.
                self.stats["corrupt_checkpoints"] = hit
        self._publish_status(state="running", force=True)
        if to_run:
            if self.workers <= 1 and self.timeout is None and not any(
                jobs[i].timeout for i in to_run
            ):
                self._run_inline(jobs, to_run, results)
            else:
                self._run_resident(jobs, to_run, results)
        assert all(r is not None for r in results)
        self._merge_telemetry(results)
        self._running = {}
        self._tickets = []
        self._publish_status(state="done", force=True)
        return results  # type: ignore[return-value]

    def status_snapshot(self, state: Optional[str] = None) -> Dict[str, Any]:
        """The live progress dict (also what :attr:`status` publishes)."""
        if state is None:
            state = getattr(self, "_state", "idle")
        s = self.stats or {}
        total = getattr(self, "_total", 0)
        done = getattr(self, "_done", 0)
        elapsed = time.perf_counter() - getattr(
            self, "_run_start", time.perf_counter()
        )
        executed = s.get("executed", 0)
        remaining = max(0, total - done)
        eta_s: Optional[float] = None
        if executed > 0 and remaining and state != "done":
            # Cache hits are ~free; pace on executed jobs only.
            eta_s = s.get("wall_seconds", 0.0) / executed * remaining / max(
                1, min(self.workers, remaining)
            )
        running = list(getattr(self, "_running", {}).values()) + [
            t.job.label
            for t in getattr(self, "_tickets", ())
            if t.started is not None and not t.done()
        ]
        return {
            "state": state,
            "total": total,
            "done": done,
            "ok": getattr(self, "_ok", 0),
            "failed": s.get("failures", 0),
            "cached": s.get("cache_hits", 0),
            "executed": executed,
            "retries": s.get("retries", 0),
            "timeouts": s.get("timeouts", 0),
            "stuck": s.get("stuck", 0),
            "corrupt_checkpoints": s.get("corrupt_checkpoints", 0),
            "workers": self.workers,
            "degraded": bool(s.get("degraded")),
            "running": sorted(running),
            "elapsed_s": round(elapsed, 3),
            "eta_s": round(eta_s, 3) if eta_s is not None else None,
        }

    def _publish_status(
        self, state: Optional[str] = None, force: bool = False
    ) -> None:
        if state is not None:
            self._state = state
        if self.status is None:
            return
        now = time.perf_counter()
        if not force and now - self._last_status < self.status_interval:
            return
        self._last_status = now
        self.status.write(self.status_snapshot(state=state))

    def _merge_telemetry(self, results: Sequence[Optional[JobResult]]) -> None:
        """Fold per-job payloads into registry/tracer/sites, submission order."""
        self.sites = None
        self.timelines = []
        if self.profile_sites:
            from ..obs.sites import SiteProfiler

            self.sites = SiteProfiler(sample_every=self.sample_every)
        # Worker span records are relative to the *worker* tracer's
        # origin (≈ attempt start); shifting each job's records by the
        # parent-side start of its ``runner.job`` span puts every
        # process on one ordered axis.
        offsets: Dict[str, float] = {}
        if self.tracer is not None:
            origin = getattr(self.tracer, "origin", 0.0)
            for span in getattr(self.tracer, "finished", []) or []:
                if span.name == "runner.job" and "id" in span.attrs:
                    offsets[span.attrs["id"]] = span.start - origin
        for result in results:
            if result is None or not result.telemetry:
                continue
            telem = result.telemetry
            if self.registry is not None and telem.get("metrics"):
                self.registry.merge_snapshot(
                    telem["metrics"], kinds=telem.get("kinds")
                )
            if self.tracer is not None and telem.get("spans"):
                self.tracer.ingest(
                    telem["spans"],
                    at=offsets.get(result.job.job_id),
                    job=result.job.label,
                )
            if self.sites is not None and telem.get("sites"):
                self.sites.merge_payload(telem["sites"])
            if telem.get("timelines"):
                self.timelines.append(
                    {"job": result.job.label, "timelines": telem["timelines"]}
                )

    # -- shared result plumbing --------------------------------------------

    def _tally(self, key: str, amount: float = 1) -> None:
        self.stats[key] += amount
        if self.registry is not None:
            self.registry.inc(f"runner.{key}", amount)

    def _start_span(self, job: Job):
        if self.tracer is None:
            return None
        return self.tracer.start_span(
            "runner.job", job=job.label, id=job.job_id, cached=False
        )

    def _finish(
        self,
        results: List[Optional[JobResult]],
        index: int,
        result: JobResult,
        span=None,
    ) -> None:
        results[index] = result
        self._tally("executed")
        self._tally("wall_seconds", result.duration_s)
        self._tally("cpu_seconds", result.cpu_s)
        self._done += 1
        if result.ok:
            self._ok += 1
        else:
            self._tally("failures")
        self._running.pop(index, None)
        if self.store is not None and result.ok:
            extra: Dict[str, Any] = {}
            if result.telemetry is not None:
                extra["telemetry"] = result.telemetry
            self.store.store(
                result.job,
                result.value,
                attempts=result.attempts,
                duration_s=result.duration_s,
                cpu_s=result.cpu_s,
                **extra,
            )
        self._publish_status()
        if span is not None:
            span.set("status", result.status)
            span.set("attempts", result.attempts)
            if result.error:
                span.set("error", result.error)
            self.tracer.end_span(span)

    # -- in-process execution ----------------------------------------------

    def _run_inline(
        self,
        jobs: Sequence[Job],
        to_run: Sequence[int],
        results: List[Optional[JobResult]],
    ) -> None:
        for index in to_run:
            job = jobs[index]
            span = self._start_span(job)
            self._running[index] = job.label
            self._publish_status()
            start = time.perf_counter()
            cpu0 = time.process_time()
            value = telem = error = None
            for attempt in range(1, self.retries + 2):
                try:
                    value, telem = _execute(
                        job, self.job_telemetry, self.profile_sites,
                        self.sample_every, self.record_timelines,
                    )
                    error = None
                    break
                except BaseException as exc:  # noqa: BLE001
                    error = f"{type(exc).__name__}: {exc}"
                    if attempt <= self.retries:
                        self._tally("retries")
                        time.sleep(self._backoff_delay(attempt, job.job_id))
            result = JobResult(
                job=job,
                status="ok" if error is None else "failed",
                value=value,
                error=error,
                attempts=attempt,
                duration_s=time.perf_counter() - start,
                cpu_s=time.process_time() - cpu0,
                telemetry=telem,
            )
            self._finish(results, index, result, span)

    # -- resident-worker execution -----------------------------------------

    def _run_resident(
        self,
        jobs: Sequence[Job],
        to_run: Sequence[int],
        results: List[Optional[JobResult]],
    ) -> None:
        """Run the misses on one :class:`PersistentPool`; the pool owns
        timeouts, the watchdog and the retry loop, this side finishes
        (checkpoints, status, spans) each job as it completes."""
        completed = queue.SimpleQueue()  # (index, JobResult) as they land
        pool = PersistentPool(
            workers=max(1, min(self.workers, len(to_run))),
            timeout=self.timeout,
            retries=self.retries,
            backoff=self.backoff,
            max_backoff=self.max_backoff,
            backoff_jitter=self.backoff_jitter,
            watchdog=self.watchdog,
            job_telemetry=self.job_telemetry,
            profile_sites=self.profile_sites,
            sample_every=self.sample_every,
            record_timelines=self.record_timelines,
        ).start()
        try:
            tickets = {
                index: pool.submit(
                    jobs[index],
                    callback=lambda result, i=index: completed.put((i, result)),
                )
                for index in to_run
            }
            self._tickets = list(tickets.values())
            for _ in to_run:
                index, result = completed.get()
                counts = pool.status_snapshot()
                for key in ("retries", "timeouts", "stuck"):
                    if counts[key] > self.stats[key]:
                        self._tally(key, counts[key] - self.stats[key])
                span = self._start_span(result.job)
                if span is not None and tickets[index].started is not None:
                    span.start = tickets[index].started
                self._finish(results, index, result, span)
        finally:
            # A finished sweep has nothing in flight; an interrupted one
            # (Ctrl-C) gives in-flight jobs a second, then kills them.
            pool.stop(timeout=1.0)
        if pool.status_snapshot()["degraded"]:
            self.stats["degraded"] = True
            if self.registry is not None:
                self.registry.inc("runner.degraded")

    # -- reporting ----------------------------------------------------------

    def summary(self) -> str:
        """One-line human summary of the last :meth:`run`."""
        s = self.stats or {}
        return (
            f"jobs={s.get('submitted', 0)} "
            f"executed={s.get('executed', 0)} "
            f"cached={s.get('cache_hits', 0)} "
            f"retries={s.get('retries', 0)} "
            f"timeouts={s.get('timeouts', 0)} "
            f"failed={s.get('failures', 0)} "
            f"job_seconds={s.get('wall_seconds', 0.0):.1f}"
            + (f" stuck={s['stuck']}" if s.get("stuck") else "")
            + (
                f" corrupt_checkpoints={s['corrupt_checkpoints']}"
                if s.get("corrupt_checkpoints")
                else ""
            )
            + (" degraded=yes" if s.get("degraded") else "")
        )


# -- the persistent pool -------------------------------------------------------


def _pool_worker_main(
    conn,
    owner: int,
    telemetry: bool = True,
    sites: bool = False,
    sample_every: int = 1,
    timelines: bool = False,
    heartbeat: float = 0.0,
) -> None:
    """Child-process entry for the pool (the only one): serve jobs until
    told to stop or orphaned.

    Receives ``(seq, fn, config)`` tuples, replies ``("ok", seq, value,
    cpu_s, telem)`` or ``("error", seq, message, cpu_s)``.  A ``None``
    message (or EOF on the pipe) is the shutdown signal, and an idle
    worker whose parent is no longer ``owner`` (the owner was killed)
    exits on its own.  Telemetry options arrive as process args — never
    through the job config, which is content-hashed into the job id.
    With ``heartbeat`` > 0 a daemon thread sends ``("hb",)`` every
    ``heartbeat`` seconds so the parent's watchdog can tell a slow job
    from a wedged worker.
    """
    # Termination belongs to the owner.  A handler inherited at fork
    # (the serve daemon's drain handler) must not swallow terminate(),
    # and a terminal Ctrl-C reaches the owner, which drains or stops
    # the pool itself.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    send_lock = threading.Lock()

    def send(message) -> None:
        with send_lock:
            conn.send(message)

    if heartbeat > 0:

        def _beat() -> None:
            while True:
                time.sleep(heartbeat)
                if _worker_wedged():
                    # An injected hang swallows heartbeats too: the whole
                    # point is to look dead so the watchdog must act.
                    continue
                try:
                    send(("hb",))
                except (OSError, ValueError):
                    return

        threading.Thread(target=_beat, daemon=True).start()
    while True:
        try:
            if not conn.poll(_ORPHAN_POLL):
                if os.getppid() != owner:
                    return
                continue
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message is None:
            return
        seq, fn, config = message
        cpu0 = time.process_time()
        try:
            value, telem = _execute(
                Job(fn=fn, config=config), telemetry, sites, sample_every,
                timelines,
            )
            reply = ("ok", seq, value, time.process_time() - cpu0, telem)
        except BaseException as exc:  # noqa: BLE001 - job failures are data
            reply = (
                "error",
                seq,
                f"{type(exc).__name__}: {exc}",
                time.process_time() - cpu0,
            )
        try:
            send(reply)
        except OSError:
            return


class PoolTicket:
    """Handle for one job submitted to a :class:`PersistentPool`."""

    __slots__ = ("seq", "job", "result", "started", "_event")

    def __init__(self, seq: int, job: Job) -> None:
        self.seq = seq
        self.job = job
        self.result: Optional[JobResult] = None
        #: ``perf_counter`` instant of the first dispatch to a worker
        self.started: Optional[float] = None
        self._event = threading.Event()

    def done(self) -> bool:
        return self._event.is_set()

    def wait(self, timeout: Optional[float] = None) -> Optional[JobResult]:
        """Block for the result; ``None`` if not done within ``timeout``."""
        if self._event.wait(timeout):
            return self.result
        return None

    def _deliver(self, result: JobResult) -> None:
        self.result = result
        self._event.set()


class _PoolWorker:
    """One persistent child process and its duplex pipe."""

    __slots__ = ("process", "conn", "inflight", "last_beat")

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn
        self.inflight: Optional[int] = None  # seq of the job it is running
        #: last sign of life (dispatch, heartbeat) for the watchdog
        self.last_beat = time.perf_counter()


class _PoolEntry:
    """Parent-side book-keeping for one submitted job."""

    __slots__ = ("ticket", "callback", "attempt", "deadline", "ready_at")

    def __init__(self, ticket: PoolTicket, callback) -> None:
        self.ticket = ticket
        self.callback = callback
        self.attempt = 0
        self.deadline: Optional[float] = None
        #: a retry is not dispatched before this ``perf_counter`` instant
        self.ready_at = 0.0


@dataclass
class PersistentPool(_Backoff):
    """``workers`` resident child processes fed jobs as they arrive.

    The execution backend of the ``repro serve`` daemon (submissions
    trickle in over hours; a fork per analysis would dominate latency)
    and of :class:`JobRunner` sweeps.  :meth:`submit` returns a
    :class:`PoolTicket` immediately; jobs complete out of order; an
    optional ``callback`` fires (on the dispatcher thread) with the
    finished :class:`JobResult`.  Resilience:

    * a worker that **crashes** mid-job is respawned and the job
      retried, up to ``retries`` times, then failed structurally
      (``JobResult.status == "failed"`` — never an exception);
    * retries wait ``backoff * 2**(attempt-1)`` seconds (capped at
      ``max_backoff``, optionally with deterministic jitter — see
      :class:`JobRunner`); ``backoff=0`` retries at once;
    * consecutive crash respawns back off exponentially
      (``respawn_backoff`` doubling per cycle, capped at 1s), and a
      **respawn storm** — ``respawn_limit`` crashes without any worker
      delivering a result — stops the forking altogether: the pool
      degrades to inline threads and increments ``pool.respawn_storm``
      rather than thrash forever against a poisoned environment;
    * a job past ``timeout`` seconds (``job.timeout`` overrides) has
      its worker terminated and respawned, same retry policy;
    * with ``watchdog`` set, workers heartbeat; one that stays silent
      for ``watchdog`` seconds mid-job is declared **stuck**,
      terminated and respawned, same retry policy; timeouts and stuck
      workers are not crashes and never trip the storm guard;
    * if child processes cannot be spawned at all (restricted
      sandboxes) the pool **degrades** to in-process threads —
      ``degraded`` flips in :meth:`status_snapshot` and timeouts
      become best-effort;
    * workers die with their owner: an idle worker whose parent is
      gone exits within a second;
    * per-job telemetry payloads (metrics + spans) merge into
      ``registry``/``tracer`` as each job completes, and ``pool.*``
      counters track submissions, completions, failures, crashes,
      timeouts, stuck workers, retries and respawns.
    """

    workers: int = 2
    timeout: Optional[float] = None
    retries: int = 1
    #: base of the exponential retry backoff (0 = retry at once)
    backoff: float = 0.0
    #: ceiling on any single retry delay, jitter included
    max_backoff: float = 30.0
    #: relative jitter width (0 = none); deterministic per (job id, attempt)
    backoff_jitter: float = 0.0
    #: seconds an executing worker may stay silent before it is
    #: declared stuck; ``None`` disables heartbeats and the watchdog
    watchdog: Optional[float] = None
    job_telemetry: bool = True
    #: hot-site profiling / timelines inside each job's telemetry scope
    profile_sites: bool = False
    sample_every: int = 1
    record_timelines: bool = False
    registry: Any = None  # MetricsRegistry-compatible (duck-typed)
    tracer: Any = None  # Tracer-compatible (duck-typed)
    #: force in-process (threaded) execution — tests and sandboxes
    inline: bool = False
    #: consecutive crash→respawn cycles (with no worker delivering a
    #: single result in between) tolerated before the pool stops
    #: burning forks and degrades to inline threads
    respawn_limit: int = 8
    #: base of the exponential backoff between consecutive respawns
    #: (doubles per cycle, capped at one second)
    respawn_backoff: float = 0.05

    def __post_init__(self) -> None:
        self.workers = max(1, self.workers)
        self._lock = threading.Lock()
        self._started = False
        self._stopping = False
        self._degraded = False
        self._seq = 0
        self._queue: List[int] = []
        self._entries: Dict[int, _PoolEntry] = {}
        self._workers: List[_PoolWorker] = []
        self._inline_busy = 0
        self._thread: Optional[threading.Thread] = None
        self._wake_r = None
        self._wake_w = None
        self._wake_lock = threading.Lock()
        #: consecutive respawns since a worker last delivered a result
        self._respawn_streak = 0
        #: no worker slot is refilled before this perf_counter instant
        self._respawn_at: Optional[float] = None
        self._counts = {
            "submitted": 0,
            "completed": 0,
            "failed": 0,
            "retries": 0,
            "crashes": 0,
            "timeouts": 0,
            "stuck": 0,
            "respawns": 0,
            "respawn_storm": 0,
        }

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "PersistentPool":
        with self._lock:
            if self._started:
                return self
            self._started = True
            self._stopping = False
            # fork skips re-importing the (already warm) library in
            # every worker; fall back to the platform default elsewhere.
            self._ctx = multiprocessing.get_context(
                "fork"
                if "fork" in multiprocessing.get_all_start_methods()
                else None
            )
            self._wake_r, self._wake_w = self._ctx.Pipe(duplex=False)
            if not self.inline:
                for _ in range(self.workers):
                    worker = self._spawn_worker()
                    if worker is None:
                        break
                    self._workers.append(worker)
                if not self._workers:
                    self._degraded = True
            if self.registry is not None:
                self.registry.set_gauge(
                    "pool.workers", len(self._workers) or self.workers
                )
            self._thread = threading.Thread(
                target=self._loop, name="repro-pool-dispatch", daemon=True
            )
            self._thread.start()
        return self

    def _spawn_worker(self) -> Optional[_PoolWorker]:
        """Fork one persistent worker; ``None`` on failure (sandbox)."""
        # Beat a few times per watchdog window.
        heartbeat = max(0.05, self.watchdog / 4.0) if self.watchdog else 0.0
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_pool_worker_main,
            args=(
                child_conn,
                os.getpid(),
                self.job_telemetry,
                self.profile_sites,
                self.sample_every,
                self.record_timelines,
                heartbeat,
            ),
            daemon=True,
        )
        try:
            process.start()
        except BaseException:  # noqa: BLE001 - restricted sandboxes
            parent_conn.close()
            child_conn.close()
            self._degraded = True
            if self.registry is not None:
                self.registry.inc("pool.degraded")
            return None
        child_conn.close()
        return _PoolWorker(process, parent_conn)

    def stop(self, timeout: float = 10.0) -> None:
        """Drain nothing: fail queued jobs, let in-flight ones finish
        (up to ``timeout`` seconds), then tear the workers down.
        Idempotent."""
        with self._lock:
            if not self._started:
                return
            self._stopping = True
        self._notify()
        self._thread.join(timeout=timeout)
        with self._lock:
            workers, self._workers = self._workers, []
            leftovers = list(self._entries)
            self._queue = []
        for worker in workers:
            try:
                worker.conn.send(None)
            except OSError:
                pass
        for worker in workers:
            worker.process.join(timeout=2.0)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=2.0)
            try:
                worker.conn.close()
            except OSError:
                pass
        for seq in leftovers:
            self._resolve(seq, error="PoolStopped: pool shut down", cpu_s=0.0,
                          retryable=False)
        self._notify()  # lets a dispatcher cut short by ``timeout`` exit

    def __enter__(self) -> "PersistentPool":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()

    # -- submission ---------------------------------------------------------

    def submit(self, job: Job, callback=None) -> PoolTicket:
        """Enqueue ``job``; returns immediately with a ticket.

        ``callback(result)``, when given, runs on the dispatcher thread
        right after the ticket resolves — keep it quick and don't block
        in it.
        """
        with self._lock:
            if not self._started:
                raise RuntimeError("PersistentPool.submit before start()")
            if self._stopping:
                raise RuntimeError("PersistentPool.submit after stop()")
            self._seq += 1
            seq = self._seq
            ticket = PoolTicket(seq, job)
            self._entries[seq] = _PoolEntry(ticket, callback)
            self._queue.append(seq)
            self._counts["submitted"] += 1
            pending = len(self._queue)
        if self.registry is not None:
            self.registry.inc("pool.submitted")
            self.registry.set_gauge("pool.pending", pending)
        self._notify()
        return ticket

    def status_snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "workers": len(self._workers) or (
                    self.workers if (self.inline or self._degraded) else 0
                ),
                "busy": sum(
                    1 for w in self._workers if w.inflight is not None
                ) + self._inline_busy,
                "pending": len(self._queue),
                "inflight": len(self._entries) - len(self._queue),
                "degraded": self._degraded or self.inline,
                **self._counts,
            }

    # -- dispatcher ---------------------------------------------------------

    def _notify(self) -> None:
        with self._wake_lock:
            if self._wake_w is not None:
                try:
                    self._wake_w.send(None)
                except OSError:
                    pass

    def _loop(self) -> None:
        while True:
            with self._lock:
                self._assign_locked()
                # Idle workers' conns are watched too: a spontaneous child
                # death shows up as EOF and triggers a respawn.
                conns = [w.conn for w in self._workers] + [self._wake_r]
                wake = self._next_deadline_locked()
                finished = self._stopping and not self._entries
            if finished:
                return
            timeout = None
            if wake is not None:
                timeout = max(0.0, wake - time.perf_counter())
            try:
                ready = _wait_connections(conns, timeout)
            except (OSError, ValueError):
                continue  # stop() closed a worker pipe under us
            if self._wake_r in ready:
                while self._wake_r.poll():
                    try:
                        self._wake_r.recv()
                    except (EOFError, OSError):
                        break
            for worker in list(self._workers):
                if worker.conn in ready:
                    self._drain_worker(worker)
            self._check_deadlines()

    def _claim_locked(self, now: float) -> Optional[_PoolEntry]:
        """Dequeue the oldest job whose retry backoff has passed and
        count its attempt; ``None`` if none is ready. Caller holds the
        lock."""
        for i, seq in enumerate(self._queue):
            entry = self._entries[seq]
            if entry.ready_at <= now:
                del self._queue[i]
                entry.attempt += 1
                if entry.ticket.started is None:
                    entry.ticket.started = now
                return entry
        return None

    def _assign_locked(self) -> None:
        """Hand queued jobs to idle workers (or inline threads). Caller
        holds the lock."""
        if self._stopping:
            return
        self._refill_workers_locked()
        now = time.perf_counter()
        for worker in self._workers:
            if worker.inflight is not None:
                continue
            entry = self._claim_locked(now)
            if entry is None:
                break
            seq, job = entry.ticket.seq, entry.ticket.job
            limit = job.timeout if job.timeout is not None else self.timeout
            entry.deadline = now + limit if limit else None
            try:
                worker.conn.send((seq, job.fn, job.config))
            except (OSError, ValueError):
                # The child died between jobs; requeue and respawn.
                self._queue.insert(0, seq)
                entry.attempt -= 1
                self._replace_worker_locked(worker)
                continue
            worker.inflight = seq
            worker.last_beat = now
        if (self.inline or self._degraded) and not self._workers:
            while self._inline_busy < self.workers:
                entry = self._claim_locked(now)
                if entry is None:
                    break
                entry.deadline = None  # threads cannot be killed
                self._inline_busy += 1
                threading.Thread(
                    target=self._run_inline,
                    args=(entry.ticket.seq,),
                    name=f"repro-pool-inline-{entry.ticket.seq}",
                    daemon=True,
                ).start()
        if self.registry is not None:
            self.registry.set_gauge("pool.pending", len(self._queue))
            self.registry.set_gauge(
                "pool.busy",
                sum(1 for w in self._workers if w.inflight is not None)
                + self._inline_busy,
            )

    def _next_deadline_locked(self) -> Optional[float]:
        deadlines = [
            e.deadline
            for e in self._entries.values()
            if e.deadline is not None
        ]
        now = time.perf_counter()
        deadlines.extend(
            self._entries[seq].ready_at
            for seq in self._queue
            if self._entries[seq].ready_at > now
        )
        if self.watchdog is not None:
            deadlines.extend(
                w.last_beat + self.watchdog
                for w in self._workers
                if w.inflight is not None
            )
        if (
            self._respawn_at is not None
            and not (self.inline or self._degraded or self._stopping)
            and len(self._workers) < self.workers
        ):
            deadlines.append(self._respawn_at)
        return min(deadlines) if deadlines else None

    def _replace_worker_locked(
        self, worker: _PoolWorker, crashed: bool = True
    ) -> None:
        """Retire a dead worker; the dispatcher refills the slot after
        the respawn backoff window passes. Caller holds the lock. Only
        a ``crashed`` worker counts toward the respawn storm; one reaped
        for a timeout or by the watchdog adds no respawn delay."""
        try:
            worker.conn.close()
        except OSError:
            pass
        if worker.process.is_alive():
            worker.process.terminate()
        worker.process.join(timeout=2.0)
        if worker in self._workers:
            self._workers.remove(worker)
        if self._stopping:
            return
        self._counts["respawns"] += 1
        if self.registry is not None:
            self.registry.inc("pool.respawns")
        if not crashed:
            return
        self._respawn_streak += 1
        if self._respawn_streak > self.respawn_limit:
            # Respawn storm: fresh workers keep dying before any of
            # them delivers a single result (poisoned job mix, broken
            # interpreter, hostile sandbox).  Stop burning forks; once
            # the last slot is gone the pool degrades to inline threads
            # so the service keeps answering instead of thrashing.
            if not self._workers and not self._degraded:
                self._degraded = True
                self._counts["respawn_storm"] += 1
                if self.registry is not None:
                    self.registry.inc("pool.respawn_storm")
                    self.registry.set_gauge("pool.workers", self.workers)
            return
        delay = min(
            self.respawn_backoff * (2 ** (self._respawn_streak - 1)), 1.0
        )
        self._respawn_at = time.perf_counter() + delay

    def _refill_workers_locked(self) -> None:
        """Top retired worker slots back up once the respawn backoff
        window has passed. Caller holds the lock."""
        if self.inline or self._degraded or self._stopping:
            return
        missing = self.workers - len(self._workers)
        if missing <= 0:
            self._respawn_at = None
            return
        if self._respawn_at is not None and time.perf_counter() < self._respawn_at:
            return
        self._respawn_at = None
        for _ in range(missing):
            fresh = self._spawn_worker()
            if fresh is None:
                break
            self._workers.append(fresh)
        if self.registry is not None and self._workers:
            self.registry.set_gauge("pool.workers", len(self._workers))

    def _drain_worker(self, worker: _PoolWorker) -> None:
        try:
            message = worker.conn.recv()
        except (EOFError, OSError):
            with self._lock:
                seq = worker.inflight
                worker.inflight = None
                self._replace_worker_locked(worker)
                if seq is not None:
                    self._counts["crashes"] += 1
            if seq is not None:
                if self.registry is not None:
                    self.registry.inc("pool.crashes")
                code = worker.process.exitcode
                self._resolve(
                    seq,
                    error=(
                        f"WorkerCrash: worker exited with code {code} "
                        "before reporting a result"
                    ),
                    cpu_s=0.0,
                )
            return
        kind = message[0]
        with self._lock:
            worker.last_beat = time.perf_counter()
            if kind == "hb":
                return
            worker.inflight = None
            # Any delivered message — success or a clean job error —
            # proves workers can survive a job: the storm is over.
            self._respawn_streak = 0
        if kind == "ok":
            _, seq, value, cpu_s, telem = message
            self._resolve(seq, value=value, cpu_s=cpu_s, telemetry=telem)
        else:
            _, seq, error, cpu_s = message
            self._resolve(seq, error=error, cpu_s=cpu_s)

    def _check_deadlines(self) -> None:
        """Reap workers past their job's deadline (``timeouts``) or
        silent past the watchdog window (``stuck``)."""
        now = time.perf_counter()
        expired: List[Tuple[int, str, str]] = []
        with self._lock:
            for worker in list(self._workers):
                seq = worker.inflight
                entry = self._entries.get(seq) if seq is not None else None
                if entry is None:
                    continue
                silent = now - worker.last_beat
                if self.watchdog is not None and silent >= self.watchdog:
                    kind = "stuck"
                    error = (
                        f"Stuck: worker silent for {silent:.1f}s "
                        f"(watchdog {self.watchdog:.1f}s, "
                        f"attempt {entry.attempt})"
                    )
                elif entry.deadline is not None and now >= entry.deadline:
                    kind = "timeouts"
                    limit = entry.ticket.job.timeout or self.timeout
                    error = (
                        f"Timeout: job exceeded {limit:.1f}s "
                        f"(attempt {entry.attempt})"
                    )
                else:
                    continue
                worker.inflight = None
                self._replace_worker_locked(worker, crashed=False)
                self._counts[kind] += 1
                expired.append((seq, kind, error))
        for seq, kind, error in expired:
            if self.registry is not None:
                self.registry.inc(f"pool.{kind}")
            self._resolve(seq, error=error, cpu_s=0.0)

    def _run_inline(self, seq: int) -> None:
        """Degraded path: one job on one parent-process thread."""
        with self._lock:
            entry = self._entries.get(seq)
            if entry is None:
                self._inline_busy -= 1
                return
        job = entry.ticket.job
        cpu0 = time.process_time()
        try:
            value, telem = _execute(
                job, self.job_telemetry, self.profile_sites,
                self.sample_every, self.record_timelines,
            )
            outcome = {"value": value, "telemetry": telem}
        except BaseException as exc:  # noqa: BLE001
            outcome = {"error": f"{type(exc).__name__}: {exc}"}
        with self._lock:
            self._inline_busy -= 1
        self._resolve(seq, cpu_s=time.process_time() - cpu0, **outcome)
        self._notify()

    # -- completion ---------------------------------------------------------

    def _resolve(
        self,
        seq: int,
        value: Any = None,
        error: Optional[str] = None,
        cpu_s: float = 0.0,
        telemetry: Optional[Dict[str, Any]] = None,
        retryable: bool = True,
    ) -> None:
        """One attempt ended; retry (after the backoff) or deliver the
        final JobResult."""
        with self._lock:
            entry = self._entries.get(seq)
            if entry is None:
                return
            if (
                error is not None
                and retryable
                and entry.attempt <= self.retries
                and not self._stopping
            ):
                self._counts["retries"] += 1
                entry.deadline = None
                entry.ready_at = time.perf_counter() + self._backoff_delay(
                    entry.attempt, entry.ticket.job.job_id
                )
                self._queue.append(seq)
                requeued = True
            else:
                del self._entries[seq]
                requeued = False
                started = entry.ticket.started
                now = time.perf_counter()
                result = JobResult(
                    job=entry.ticket.job,
                    status="ok" if error is None else "failed",
                    value=value,
                    error=error,
                    attempts=max(1, entry.attempt),
                    duration_s=now - started if started is not None else 0.0,
                    cpu_s=cpu_s,
                    telemetry=telemetry,
                )
                if error is None:
                    self._counts["completed"] += 1
                else:
                    self._counts["failed"] += 1
        if requeued:
            if self.registry is not None:
                self.registry.inc("pool.retries")
            self._notify()
            return
        if self.registry is not None:
            self.registry.inc(
                "pool.completed" if error is None else "pool.failed"
            )
        if telemetry:
            if self.registry is not None and telemetry.get("metrics"):
                self.registry.merge_snapshot(
                    telemetry["metrics"], kinds=telemetry.get("kinds")
                )
            if self.tracer is not None and telemetry.get("spans"):
                self.tracer.ingest(
                    telemetry["spans"], job=entry.ticket.job.label
                )
        if entry.callback is not None:
            try:
                entry.callback(result)
            except Exception:  # noqa: BLE001 - callbacks must not kill
                # the dispatcher; the ticket still resolves below.
                if self.registry is not None:
                    self.registry.inc("pool.callback_errors")
        entry.ticket._deliver(result)
