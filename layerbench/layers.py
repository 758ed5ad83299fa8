"""Per-layer timing for the layer ledger: wrappers around public entry points.

:func:`install` patches the public entry points of each layer of the
``repro`` package in the current process, from the benchmark's own files
(nothing under ``src/`` changes).  Two kinds of record come out:

* **spans** — one :class:`repro.obs.Span` per call on the service's
  per-request path (admission, spool, journal, cache, pool hand-off,
  worker analysis), tagged with the submission id, so each request's
  phases can be laid end to end;
* **layer stats** — call count, total time, self time (total minus the
  wrapped layers called inside it) and items handled, per detector
  stage.  These calls run up to a million times per analysis, so they
  are summed in place rather than kept as spans.

Install the wrappers *before* the pool forks its workers: forked
workers inherit them, reset their own ledger at fork, and append their
records to ``worker-<pid>.jsonl`` after every job.  The parent process
writes ``main-<pid>.jsonl`` when :meth:`Ledger.flush` is called.  Span
times are absolute ``time.perf_counter`` readings, which on Linux is
``CLOCK_MONOTONIC`` — the clock of ``time.monotonic`` in every process —
so spans from the daemon, its workers and the load generator share one
time axis.  :func:`load_records` merges the files;
:func:`detector_metrics` and :func:`service_metrics` turn them into the
per-layer metrics.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional

import numpy as np

from repro.obs import JsonlExporter, Tracer, read_jsonl

#: Detector stages, in report order.  ``replay.other`` is the analysis
#: call's own self time: plan bookkeeping, the segment loop, hot sites
#: and counters.
STAGES = ("decode", "monitor", "check.vector", "check.scalar", "sync",
          "replay.other")

_SYNC_HOOKS = (
    "on_acquire", "on_release", "on_spawn", "on_join", "on_thread_start",
    "on_barrier_arrive", "on_barrier_depart", "on_cond_signal",
    "on_cond_wake", "on_sem_post", "on_sem_wait", "on_sync_commit",
)

#: Zero-length spans: the instant a submission crossed a boundary.
_MARKS = ("pool.submit", "pool.callback")


def _block_len(block: Any) -> int:
    """Accesses in a ``check_block`` argument: columnar tuple or list."""
    if type(block) is tuple and block and isinstance(block[0], np.ndarray):
        return int(block[0].shape[0])
    return len(block)


class Ledger:
    """One process's layer accounting; reset in every forked child."""

    def __init__(self, records_dir: str) -> None:
        self.records_dir = Path(records_dir)
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        self._lock = threading.Lock()
        self.pid = os.getpid()
        self.tracer = Tracer()
        #: layer -> [calls, total_s, self_s, items]
        self.stats: Dict[str, List[float]] = {}
        self.counters: Dict[str, float] = {}
        self._local = threading.local()
        self._fh: Any = None
        self._exporter: Optional[JsonlExporter] = None

    # -- recording ----------------------------------------------------------

    def _stack(self) -> List[List[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _add(self, layer: str, total: float, own: float, items: int) -> None:
        with self._lock:
            row = self.stats.get(layer)
            if row is None:
                row = self.stats[layer] = [0, 0.0, 0.0, 0]
            row[0] += 1
            row[1] += total
            row[2] += own
            row[3] += items

    def count(self, name: str, amount: float) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def timed(
        self,
        layer: str,
        fn: Callable[..., Any],
        items: Optional[Callable[..., int]] = None,
    ) -> Callable[..., Any]:
        """``fn`` with its calls accounted to ``layer`` (total and self
        time); ``items(*args)`` counts the work each call handles."""
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = self._stack()
            frame = [0.0]
            stack.append(frame)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                self._add(
                    layer, elapsed, elapsed - frame[0],
                    items(*args) if items is not None else 0,
                )

        return wrapper

    def timed_iter(
        self, layer: str, fn: Callable[..., Iterator[Any]]
    ) -> Callable[..., Iterator[Any]]:
        """``fn`` returns an iterator of sized items (decoded chunks);
        each step is accounted to ``layer`` with ``len(item)`` items."""
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Iterator[Any]:
            inner = fn(*args, **kwargs)
            while True:
                start = perf()
                item = next(inner, None)
                elapsed = perf() - start
                stack = self._stack()
                if stack:
                    stack[-1][0] += elapsed
                self._add(layer, elapsed, elapsed,
                          len(item) if item is not None else 0)
                if item is None:
                    return
                yield item

        return wrapper

    def spanned(
        self,
        name: str,
        fn: Callable[..., Any],
        sid: Callable[[Any, Any], Optional[str]],
    ) -> Callable[..., Any]:
        """``fn`` with one span per call; ``sid(args, result)`` names the
        submission the call served (None when it cannot tell)."""

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            span = self.tracer.start_span(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.tracer.end_span(span)
                span.set("sid", sid(args, result))

        return wrapper

    def mark(self, name: str, sid: str) -> None:
        """The instant ``sid`` crossed ``name`` (one of :data:`_MARKS`)."""
        self.tracer.event(name).set("sid", sid)

    # -- output -------------------------------------------------------------

    def flush(self, role: str = "main") -> None:
        """Append everything recorded since the last flush to this
        process's JSONL file, then start counting afresh."""
        with self._lock:
            spans, self.tracer.finished = self.tracer.finished, []
            stats, self.stats = self.stats, {}
            counters, self.counters = self.counters, {}
        if self._exporter is None:
            self.records_dir.mkdir(parents=True, exist_ok=True)
            path = self.records_dir / f"{role}-{self.pid}.jsonl"
            self._fh = open(path, "a", encoding="utf-8")
            self._exporter = JsonlExporter(self._fh)
            self._exporter.export_header()
        for span in spans:
            self._exporter.export(span.to_record(origin=0.0))
        self._exporter.export(
            {"type": "stats", "layers": stats, "counters": counters}
        )

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
        self._fh = None
        self._exporter = None


def install(records_dir: str) -> Ledger:
    """Wrap every layer's public entry points; returns the ledger."""
    if (time.get_clock_info("perf_counter").implementation
            != time.get_clock_info("monotonic").implementation):
        raise RuntimeError(
            "the layer ledger needs perf_counter and monotonic to share "
            "one clock (true on Linux)"
        )
    from repro import analysis
    from repro.clean import CleanMonitor
    from repro.core.detector import CleanDetector
    from repro.exec.checkpoint import CheckpointStore
    from repro.exec.runner import PersistentPool
    from repro.runtime.trace import StreamingTrace
    from repro.service import jobs, service
    from repro.service.store import SubmissionStore

    ledger = Ledger(records_dir)

    # -- detector path: summed stage stats (every process) ------------------
    StreamingTrace.__init__ = ledger.timed("decode", StreamingTrace.__init__)
    StreamingTrace.iter_chunks = ledger.timed_iter(
        "decode", StreamingTrace.iter_chunks
    )
    CleanMonitor.check_block = ledger.timed(
        "monitor", CleanMonitor.check_block,
        items=lambda self, tid, block: _block_len(block),
    )
    CleanDetector.check_block = ledger.timed(
        "check.vector", CleanDetector.check_block,
        items=lambda self, tid, block: _block_len(block),
    )
    for name in ("check_read", "check_write"):
        setattr(CleanDetector, name,
                ledger.timed("check.scalar", getattr(CleanDetector, name)))
    for name in _SYNC_HOOKS:
        setattr(CleanMonitor, name,
                ledger.timed("sync", getattr(CleanMonitor, name)))

    # The CLI and the service job both import analyze_trace at call time,
    # so patching the module attribute reaches them.
    analyze = ledger.timed("replay.other", analysis.analyze_trace)

    @functools.wraps(analysis.analyze_trace)
    def analyze_trace(*args: Any, **kwargs: Any) -> Any:
        start = time.perf_counter()
        report = analyze(*args, **kwargs)
        ledger.count("analysis.s", time.perf_counter() - start)
        ledger.count("analyses", 1)
        for key in ("clean.same_epoch.hits", "clean.same_epoch.misses"):
            ledger.count(key, report.counters.get(key, 0))
        return report

    analysis.analyze_trace = analyze_trace

    # -- service path: per-request spans (daemon and workers) ---------------
    def arg_sid(args: Any, result: Any) -> str:
        return args[1]

    def result_sid(args: Any, result: Any) -> Optional[str]:
        if isinstance(result, dict):
            return result.get("id")
        return getattr(result, "id", None)

    def no_sid(args: Any, result: Any) -> None:
        return None

    service.RaceCheckService.submit = ledger.spanned(
        "admission", service.RaceCheckService.submit, result_sid
    )
    service.verify_trace_bytes = ledger.spanned(
        "admission.verify", service.verify_trace_bytes, no_sid
    )
    CheckpointStore.load = ledger.spanned(
        "admission.cache_lookup", CheckpointStore.load, no_sid
    )
    CheckpointStore.store = ledger.spanned(
        "cache.store", CheckpointStore.store, no_sid
    )
    SubmissionStore.create = ledger.spanned(
        "store.spool", SubmissionStore.create, result_sid
    )
    SubmissionStore.commit = ledger.spanned(
        "journal.accepted", SubmissionStore.commit, arg_sid
    )
    SubmissionStore.mark_running = ledger.spanned(
        "journal.running", SubmissionStore.mark_running, arg_sid
    )
    SubmissionStore.finish = ledger.spanned(
        "journal.terminal", SubmissionStore.finish, arg_sid
    )
    os.fsync = ledger.timed("fsync", os.fsync)

    pool_submit = PersistentPool.submit

    @functools.wraps(pool_submit)
    def submit(self: Any, job: Any, callback: Any = None) -> Any:
        sid = job.name
        ledger.mark("pool.submit", sid)
        if callback is not None:
            settle = callback

            def callback(result: Any) -> Any:
                ledger.mark("pool.callback", sid)
                return settle(result)

        return pool_submit(self, job, callback=callback)

    PersistentPool.submit = submit

    worker_analyze = jobs.analyze_submission

    @functools.wraps(worker_analyze)
    def analyze_submission(trace: str, *args: Any, **kwargs: Any) -> Any:
        span = ledger.tracer.start_span("worker.analyze")
        try:
            return worker_analyze(trace, *args, **kwargs)
        finally:
            ledger.tracer.end_span(span)
            span.set("sid", Path(trace).stem)  # spool files are <sid>.trace
            ledger.flush(role="worker")

    jobs.analyze_submission = analyze_submission
    return ledger


# -- merging and summarizing ----------------------------------------------------


def load_records(records_dir: str) -> Dict[str, Any]:
    """Merge every process's JSONL file: spans by name, summed stats."""
    spans: Dict[str, List[Dict[str, Any]]] = {}
    stats: Dict[str, List[float]] = {}
    counters: Dict[str, float] = {}
    for path in sorted(Path(records_dir).glob("*.jsonl")):
        for record in read_jsonl(str(path)):
            kind = record.get("type")
            if kind == "span":
                spans.setdefault(record["name"], []).append(record)
            elif kind == "stats":
                for layer, row in record["layers"].items():
                    acc = stats.setdefault(layer, [0, 0.0, 0.0, 0])
                    for i, value in enumerate(row):
                        acc[i] += value
                for name, value in record["counters"].items():
                    counters[name] = counters.get(name, 0) + value
    return {"spans": spans, "stats": stats, "counters": counters}


def _pct(values: List[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def detector_metrics(records: Dict[str, Any]) -> Dict[str, float]:
    """Stage seconds per analysis and shares of the analysis wall time."""
    stats, counters = records["stats"], records["counters"]
    analyses = counters.get("analyses", 0)
    wall = counters.get("analysis.s", 0.0)
    per = 1.0 / analyses if analyses else 0.0

    def row(layer: str) -> List[float]:
        return stats.get(layer, [0, 0.0, 0.0, 0])

    out: Dict[str, float] = {"analysis.s": wall * per}
    for stage in STAGES:
        own = row(stage)[2]
        out[f"{stage}.s"] = own * per
        out[f"{stage}.share"] = own / wall if wall else 0.0
    decode = row("decode")
    out["decode.events_per_s"] = decode[3] / decode[1] if decode[1] else 0.0
    monitor = row("monitor")
    out["monitor.blocks"] = monitor[0] * per
    out["monitor.block_len_mean"] = (
        monitor[3] / monitor[0] if monitor[0] else 0.0
    )
    hits = counters.get("clean.same_epoch.hits", 0)
    shared = hits + counters.get("clean.same_epoch.misses", 0)
    out["monitor.same_epoch_hit_ratio"] = hits / shared if shared else 0.0
    out["check.vector.access_share"] = (
        row("check.vector")[3] / shared if shared else 0.0
    )
    out["check.scalar.calls"] = row("check.scalar")[0] * per
    out["sync.calls"] = row("sync")[0] * per
    return out


#: Critical-path phases of one request, as (name, from, to) instants.
#: They tile [POST sent, ``SubmissionStore.finish`` returned] except for
#: one unnamed gap, ``mark_running`` returned -> ``PersistentPool.submit``
#: called: job construction in the dispatcher.  Admission enqueues the
#: submission *before* its journal commit, so the dispatcher may pick it
#: up while ``submit`` is still running; the hand-off instant is
#: whichever comes first, submit returning or ``mark_running`` starting.
_PHASES = (
    ("http.in", "post_sent", "admission.start"),
    ("admission", "admission.start", "handoff"),
    ("queue.wait", "handoff", "journal.running.start"),
    ("journal.running", "journal.running.start", "journal.running.end"),
    ("pool.dispatch", "pool.submit", "worker.analyze.start"),
    ("worker.analyze", "worker.analyze.start", "worker.analyze.end"),
    ("pool.return", "worker.analyze.end", "pool.callback"),
    ("settle", "pool.callback", "journal.terminal.end"),
)


def service_metrics(
    records: Dict[str, Any],
    client: Dict[str, Dict[str, float]],
    scraped: Dict[str, float],
) -> Dict[str, float]:
    """Per-request phase percentiles, the tiling coverage check and the
    store/cache/pool counts.  ``client`` maps submission id to the load
    generator's ``post_sent``/``post_done``/``seen`` instants; ``scraped``
    holds the daemon's ``/metrics`` samples.  Empty inputs give zeros."""
    spans = records.get("spans", {})
    at: Dict[str, Dict[str, float]] = {
        sid: dict(times) for sid, times in client.items()
    }
    durations: Dict[str, List[float]] = {}
    for name, group in spans.items():
        for span in group:
            durations.setdefault(name, []).append(span["duration_s"] * 1e3)
            times = at.get(span["attrs"].get("sid"))
            if times is None:
                continue
            if name in _MARKS:
                times[name] = span["start"]
            else:
                times[f"{name}.start"] = span["start"]
                times[f"{name}.end"] = span["end"]

    http_submit: List[float] = []
    poll_slack: List[float] = []
    coverage: List[float] = []
    phase_ms: Dict[str, List[float]] = {name: [] for name, _, _ in _PHASES}
    waits: List[tuple] = []
    for times in at.values():
        if "admission.start" in times and "post_done" in times:
            http_submit.append(
                (times["post_done"] - times["post_sent"]
                 - (times["admission.end"] - times["admission.start"])) * 1e3
            )
        if "journal.terminal.end" in times and "seen" in times:
            poll_slack.append(
                (times["seen"] - times["journal.terminal.end"]) * 1e3
            )
        if "journal.running.start" not in times or "admission.end" not in times:
            continue  # cache hits settle inside admission: no queue, no pool
        times["handoff"] = min(times["admission.end"],
                               times["journal.running.start"])
        if not all(a in times and b in times for _, a, b in _PHASES):
            continue
        waits.append((times["handoff"], 1))
        waits.append((times["journal.running.start"], -1))
        wall = times["journal.terminal.end"] - times["post_sent"]
        covered = 0.0
        for name, a, b in _PHASES:
            length = max(0.0, times[b] - times[a])
            phase_ms[name].append(length * 1e3)
            covered += length
        coverage.append(covered / wall if wall > 0 else 0.0)

    depth = depth_max = 0
    for _, step in sorted(waits):
        depth += step
        depth_max = max(depth_max, depth)

    fsync = records.get("stats", {}).get("fsync", [0, 0.0, 0.0, 0])
    verdicts = len(spans.get("journal.terminal", []))
    hits = scraped.get("cache_hit", 0.0)
    lookups = hits + scraped.get("cache_miss", 0.0)
    out = {
        "request.n": float(len(coverage)),
        "request.coverage": float(np.median(coverage)) if coverage else 0.0,
        "fsync.per_verdict": fsync[0] / verdicts if verdicts else 0.0,
        "fsync.ms_per_verdict": fsync[1] * 1e3 / verdicts if verdicts else 0.0,
        "queue.depth_max": float(depth_max),
        "pool.retries": scraped.get("pool_retries", 0.0),
        "cache.hit_ratio": hits / lookups if lookups else 0.0,
    }
    for name, values in (
        ("http.submit_ms", http_submit),
        ("http.poll_slack_ms", poll_slack),
        ("admission.ms", durations.get("admission", [])),
        ("queue.wait_ms", phase_ms["queue.wait"]),
        ("pool.dispatch_ms", phase_ms["pool.dispatch"]),
        ("pool.return_ms", phase_ms["pool.return"]),
        ("worker.analyze_ms", durations.get("worker.analyze", [])),
    ):
        out[f"{name}.p50"] = _pct(values, 50)
        out[f"{name}.p90"] = _pct(values, 90)
    for name, span_name in (
        ("admission.verify_ms", "admission.verify"),
        ("admission.cache_lookup_ms", "admission.cache_lookup"),
        ("store.spool_ms", "store.spool"),
        ("journal.accepted_ms", "journal.accepted"),
        ("journal.running_ms", "journal.running"),
        ("journal.terminal_ms", "journal.terminal"),
        ("cache.store_ms", "cache.store"),
    ):
        out[f"{name}.p50"] = _pct(durations.get(span_name, []), 50)
    return out
