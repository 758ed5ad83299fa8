"""Fault injection: break the system on purpose, prove it degrades well.

The recovery machinery of this repo — race-exception recovery
(:mod:`repro.runtime.recovery`), trace salvage
(:mod:`repro.runtime.trace`), checkpoint quarantine
(:mod:`repro.exec.checkpoint`) and the runner's watchdog/retry logic
(:mod:`repro.exec.runner`) — is only trustworthy if it is exercised
against real damage.  This module supplies the damage:

* **artifact faults** mutate on-disk artifacts —

  - ``trace-bitflip`` flips one byte inside a binary trace chunk's
    stored payload, which the per-chunk CRC32 must catch;
  - ``checkpoint-truncate`` cuts a checkpoint record mid-JSON, which
    the store must quarantine;

* **job faults** ride into worker processes through the ``inject_fault``
  job-config key (see :func:`repro.exec.job.run_job`) —

  - ``worker-crash`` hard-exits the worker (``os._exit``) before it
    reports a result, which the runner must classify as a crash and
    retry;
  - ``worker-hang`` wedges the worker: it stops heartbeating and
    sleeps, which the runner's watchdog must detect and terminate;
  - ``monitor-raise`` arms a :class:`FaultyMonitor` that raises from an
    execution-monitor hook mid-run, which must surface as an ordinary
    (retryable) job failure.

* **service faults** target a whole ``repro serve`` daemon —

  - ``daemon-kill`` SIGKILLs the daemon in the middle of a submission
    burst and restarts it on the same spool; the write-ahead journal
    must carry every acknowledged submission across the crash to the
    exact verdict an uninterrupted run produces
    (:func:`run_daemon_kill`).

Every fault is driven by a seeded :class:`FaultPlan`, so a chaos run is
exactly reproducible: same seed, same faults, same targets.  Job faults
fire **once** per scar file — the first attempt hits the fault, the
retry finds the scar and runs clean — modelling transient failures, the
kind retry is for.

:func:`run_chaos` is the end-to-end harness behind ``python -m repro
chaos``: it injects the requested faults, runs the suite twice, and
asserts the recovery invariants (no hang, every fault detected and
counted, surviving results deterministic).
"""

from __future__ import annotations

import json
import multiprocessing
import os
import random
import re
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .runtime.scheduler import ExecutionMonitor

__all__ = [
    "ARTIFACT_FAULTS",
    "FAULT_KINDS",
    "FaultInjected",
    "FaultPlan",
    "FaultyMonitor",
    "JOB_FAULTS",
    "SERVICE_FAULTS",
    "chaos_job",
    "deliver",
    "inject_checkpoint_truncate",
    "inject_trace_bitflip",
    "is_wedged",
    "run_chaos",
    "run_daemon_kill",
    "wedge",
]

#: Faults applied to on-disk artifacts before anything runs.
ARTIFACT_FAULTS = ("trace-bitflip", "checkpoint-truncate")
#: Faults delivered into job attempts via the ``inject_fault`` config key.
JOB_FAULTS = ("worker-crash", "worker-hang", "monitor-raise")
#: Faults delivered to a whole ``repro serve`` daemon process.
SERVICE_FAULTS = ("daemon-kill",)
#: Every injectable fault kind.
FAULT_KINDS = ARTIFACT_FAULTS + JOB_FAULTS + SERVICE_FAULTS


class FaultInjected(RuntimeError):
    """Raised (or reported) by an injected fault firing."""


# -- the wedged flag ---------------------------------------------------------

_WEDGED = False


def wedge() -> None:
    """Mark this process as wedged: its heartbeat thread goes silent.

    Used by the ``worker-hang`` fault so the hung worker looks *dead*
    to the runner's watchdog, not merely slow.
    """
    global _WEDGED
    _WEDGED = True


def is_wedged() -> bool:
    """Whether this process has been wedged by fault injection."""
    return _WEDGED


def _count_fault(kind: str) -> None:
    """Bump the ambient ``faults.<kind>`` counter, if a registry is set."""
    from .obs.context import current_registry

    registry = current_registry()
    if registry is not None:
        registry.inc(f"faults.{kind.replace('-', '_')}")


# -- the seeded plan ---------------------------------------------------------


@dataclass(frozen=True)
class FaultPlan:
    """Which faults to inject, reproducibly.

    All randomness used by injection (which chunk to flip, which job
    gets which fault) derives from :meth:`rng` — a pure function of the
    plan seed and a caller-chosen key — so two chaos runs with the same
    seed damage exactly the same things.
    """

    seed: int
    kinds: Tuple[str, ...]

    def __post_init__(self) -> None:
        unknown = [k for k in self.kinds if k not in FAULT_KINDS]
        if unknown:
            raise ValueError(
                f"unknown fault kind(s) {unknown}; choose from {list(FAULT_KINDS)}"
            )

    @classmethod
    def parse(cls, seed: int, spec: Union[str, Iterable[str]]) -> "FaultPlan":
        """Build a plan from ``"a,b,c"`` or an iterable of kinds."""
        if isinstance(spec, str):
            kinds = tuple(k.strip() for k in spec.split(",") if k.strip())
        else:
            kinds = tuple(spec)
        return cls(seed=seed, kinds=kinds)

    def rng(self, *key: object) -> random.Random:
        return random.Random(f"{self.seed}:" + ":".join(str(k) for k in key))

    @property
    def artifact_kinds(self) -> List[str]:
        return [k for k in self.kinds if k in ARTIFACT_FAULTS]

    @property
    def job_kinds(self) -> List[str]:
        return [k for k in self.kinds if k in JOB_FAULTS]

    @property
    def service_kinds(self) -> List[str]:
        return [k for k in self.kinds if k in SERVICE_FAULTS]

    def assign_jobs(self, labels: Sequence[str]) -> Dict[str, str]:
        """Deterministically map each requested job fault to one label."""
        targets: Dict[str, str] = {}
        pool = sorted(labels)
        if not pool:
            return targets
        for kind in self.job_kinds:
            choice = self.rng("assign", kind).choice(
                [lb for lb in pool if lb not in targets] or pool
            )
            targets[choice] = kind
        return targets


# -- artifact injectors ------------------------------------------------------


def inject_trace_bitflip(
    path: Union[str, Path], rng: random.Random
) -> Tuple[int, int]:
    """Flip one byte inside a random chunk's stored payload.

    Returns ``(chunk_index, file_offset)`` of the flipped byte.  The
    flip lands strictly inside a chunk's *stored* region — never in the
    magic or a chunk header — so the damage is exactly the kind the
    per-chunk CRC exists to catch and salvage can skip.
    """
    from .runtime.trace import TRACE_MAGIC, _CHUNK_HEADER

    data = bytearray(Path(path).read_bytes())
    offset = len(TRACE_MAGIC) + 1
    chunks: List[Tuple[int, int]] = []  # (stored start, stored len)
    while offset < len(data):
        _tid, _flags, _n, _raw, stored_len = _CHUNK_HEADER.unpack_from(
            data, offset
        )
        start = offset + _CHUNK_HEADER.size
        if stored_len:
            chunks.append((start, stored_len))
        offset = start + stored_len
    if not chunks:
        raise ValueError(f"{path}: no non-empty chunks to corrupt")
    index = rng.randrange(len(chunks))
    start, stored_len = chunks[index]
    at = start + rng.randrange(stored_len)
    data[at] ^= 1 << rng.randrange(8)
    Path(path).write_bytes(bytes(data))
    _count_fault("trace-bitflip")
    return index, at


def inject_checkpoint_truncate(
    path: Union[str, Path], rng: random.Random
) -> int:
    """Cut a checkpoint record mid-JSON (a torn write). Returns new size."""
    path = Path(path)
    size = path.stat().st_size
    if size < 2:
        raise ValueError(f"{path}: too small to truncate meaningfully")
    keep = rng.randrange(1, max(2, size // 2))
    with open(path, "r+b") as fh:
        fh.truncate(keep)
    _count_fault("checkpoint-truncate")
    return keep


# -- job-fault delivery ------------------------------------------------------


def _scarred(spec: Dict[str, Any]) -> bool:
    """Check-and-set the fault's one-shot scar. True = already fired."""
    scar = spec.get("scar")
    if not scar:
        return False
    scar_path = Path(scar)
    if scar_path.exists():
        return True
    scar_path.parent.mkdir(parents=True, exist_ok=True)
    scar_path.touch()
    return False


def _in_main_process() -> bool:
    return multiprocessing.current_process().name == "MainProcess"


def deliver(
    spec: Dict[str, Any], label: str = ""
) -> Optional[Dict[str, Any]]:
    """Fire a job fault at the start of a job attempt.

    Called by :func:`repro.exec.job.run_job` with the job's popped
    ``inject_fault`` config value.  ``worker-crash`` and ``worker-hang``
    are process-level faults handled right here (they do not return
    when they fire); ``monitor-raise`` is returned to the caller so a
    fault-aware job function (:func:`chaos_job`) can arm the
    :class:`FaultyMonitor` inside the run.  Returns ``None`` when the
    fault is spent (scar already present) — the attempt runs clean.

    When the runner has degraded to in-process execution, crash and
    hang faults raise :class:`FaultInjected` instead of killing or
    stalling the main process: the sweep must never die of its own
    fault injection.
    """
    kind = spec.get("kind")
    if kind not in JOB_FAULTS:
        raise ValueError(f"unknown job fault kind {kind!r}")
    if _scarred(spec):
        return None
    _count_fault(kind)
    if kind == "monitor-raise":
        return spec
    if _in_main_process():
        raise FaultInjected(f"injected {kind} in {label or 'job'} (in-process)")
    if kind == "worker-crash":
        os._exit(int(spec.get("exit_code", 13)))
    # worker-hang: go silent, then sleep well past any watchdog window.
    wedge()
    time.sleep(float(spec.get("hang_s", 30.0)))
    os._exit(14)


class FaultyMonitor(ExecutionMonitor):
    """Monitor that raises :class:`FaultInjected` after N shared accesses.

    Models a buggy or failing instrumentation layer: the exception
    escapes from a monitor hook in the middle of an execution and must
    surface as an ordinary job failure, not a hang or a corrupted
    result.
    """

    def __init__(self, after: int = 10) -> None:
        self.after = int(after)
        self.seen = 0

    def after_access(self, event) -> None:
        self.seen += 1
        if self.seen >= self.after:
            raise FaultInjected(
                f"injected monitor failure after {self.seen} accesses"
            )


# -- the chaos job -----------------------------------------------------------


def chaos_job(
    benchmark: str,
    scale: str = "test",
    seed: int = 0,
    racy: bool = False,
    recovery: Optional[str] = "rollback-retry",
    inject_fault: Optional[Dict[str, Any]] = None,
    forensics: bool = False,
) -> Dict[str, Any]:
    """One chaos workload: a benchmark under CLEAN with recovery on.

    Returns a JSON-able summary whose ``fingerprint`` digests the full
    observable outcome — the determinism invariant compares these
    across chaos runs.  ``inject_fault`` only ever arrives here as a
    live ``monitor-raise`` spec (crash/hang never reach the job
    function; spent faults arrive as ``None``).

    ``forensics=True`` records the run's execution timeline and ships
    it in the value under ``timeline``.  Chaos runners disable the
    telemetry pipeline (``job_telemetry=False``), so the timeline must
    ride in the job value itself; being logical-clock data it is
    deterministic and therefore *strengthens* the determinism compare
    rather than breaking it.
    """
    import hashlib

    from .clean import run_clean
    from .obs.timeline import TimelineRecorder
    from .workloads import build_program
    from .workloads.suite import get_benchmark

    extra: Optional[List[ExecutionMonitor]] = None
    if inject_fault is not None:
        extra = [FaultyMonitor(after=int(inject_fault.get("after", 10)))]
    recorder = TimelineRecorder(label=benchmark) if forensics else None
    program = build_program(
        get_benchmark(benchmark), scale=scale, racy=racy, seed=seed
    )
    result = run_clean(
        program, extra_monitors=extra, recovery=recovery, timeline=recorder
    )
    digest = hashlib.sha256(repr(result.fingerprint()).encode()).hexdigest()
    value = {
        "benchmark": benchmark,
        "racy": bool(racy),
        "fingerprint": digest,
        "race_kind": result.race.kind if result.race is not None else None,
        "recovery": (
            result.recovery.to_payload() if result.recovery is not None else None
        ),
        "steps": result.steps,
    }
    if recorder is not None:
        value["timeline"] = recorder.to_payload()
    return value


# -- the end-to-end harness --------------------------------------------------

#: The chaos suite: a small deterministic mix of race-free and racy
#: benchmark variants, all at the cheap "test" scale.
CHAOS_SUITE: Tuple[Tuple[str, bool], ...] = (
    ("lu_ncb", False),
    ("ocean_cp", False),
    ("barnes", True),
    ("dedup", True),
)


def _chaos_jobs(
    plan: FaultPlan,
    scar_root: Path,
    targets: Dict[str, str],
    forensics: bool = False,
) -> List[Any]:
    from .exec.job import Job

    jobs = []
    for name, racy in CHAOS_SUITE:
        label = f"{name}@{'racy' if racy else 'clean'}"
        config: Dict[str, Any] = {
            "benchmark": name,
            "scale": "test",
            "seed": plan.seed,
            "racy": racy,
            "recovery": "rollback-retry",
        }
        if forensics:
            config["forensics"] = True
        kind = targets.get(label)
        if kind is not None:
            config["inject_fault"] = {
                "kind": kind,
                "scar": str(scar_root / f"{label}.{kind}.scar"),
            }
        jobs.append(Job(fn="repro.faults:chaos_job", config=config, name=label))
    return jobs


def run_chaos(
    seed: int,
    faults: Union[str, Iterable[str]],
    workdir: Union[str, Path],
    workers: int = 2,
    watchdog: float = 3.0,
    registry: Any = None,
    forensics_dir: Optional[Union[str, Path]] = None,
) -> Dict[str, Any]:
    """Inject ``faults`` and verify every recovery invariant end to end.

    Returns the chaos report dict; ``report["ok"]`` decides the CLI
    exit code.  Invariants checked:

    * every requested fault actually fired and was *detected* by the
      layer responsible for it (CRC/salvage, quarantine, crash
      classification, watchdog, monitor-failure propagation);
    * the run finished — a hung worker was reaped, not waited on;
    * surviving results are deterministic: two full chaos passes with
      the same seed produce identical per-job outcomes.

    ``forensics_dir`` makes every chaos job record its execution
    timeline; a full forensics bundle (Chrome trace, HB graph, HTML
    report — see :func:`repro.obs.forensics.write_forensics`) is
    written there per job, and the report's ``forensics`` map links
    the artifact paths.  The timelines also participate in the
    determinism compare, since they are logical-clock data.
    """
    from .exec.checkpoint import CheckpointStore
    from .exec.job import Job
    from .exec.runner import JobRunner
    from .obs.context import telemetry_scope
    from .runtime.trace import Trace, TraceRecorder

    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    plan = FaultPlan.parse(seed, faults)
    checks: List[Dict[str, Any]] = []

    def check(kind: str, detected: bool, recovered: bool, **details: Any) -> None:
        checks.append(
            {
                "fault": kind,
                "detected": bool(detected),
                "recovered": bool(recovered),
                **details,
            }
        )

    scope = (
        telemetry_scope(registry=registry)
        if registry is not None
        else _null_scope()
    )
    with scope:
        # -- artifact faults ------------------------------------------------
        if "trace-bitflip" in plan.kinds:
            trace_path = workdir / "chaos.clntrace"
            _record_chaos_trace(trace_path, plan.seed)
            index, at = inject_trace_bitflip(
                trace_path, plan.rng("trace-bitflip")
            )
            strict_error: Optional[str] = None
            try:
                Trace.load(trace_path)
            except ValueError as exc:
                strict_error = str(exc)
            salvaged = Trace.load(trace_path, salvage=True)
            check(
                "trace-bitflip",
                detected=strict_error is not None
                and "truncated/corrupt trace" in (strict_error or ""),
                recovered=salvaged.salvaged_chunks == 1
                and bool(salvaged.per_thread),
                chunk=index,
                offset=at,
                error=strict_error,
                salvaged_chunks=salvaged.salvaged_chunks,
            )

        if "checkpoint-truncate" in plan.kinds:
            store = CheckpointStore(workdir / "cache")
            victim = Job(
                fn="repro.faults:chaos_job",
                config={"benchmark": "lu_ncb", "scale": "test", "chaos": True},
            )
            store.store(victim, {"value": 1})
            inject_checkpoint_truncate(
                store.path(victim.job_id), plan.rng("checkpoint-truncate")
            )
            missed = store.load(victim)
            check(
                "checkpoint-truncate",
                detected=store.corrupt_records == 1,
                recovered=missed is None and store.quarantined() == 1,
                quarantined=store.quarantined(),
            )

        # -- service faults -------------------------------------------------
        if "daemon-kill" in plan.kinds:
            dk = run_daemon_kill(workdir / "daemon-kill", seed=plan.seed)
            check(
                "daemon-kill",
                detected=dk["accepted"] > 0,
                recovered=dk["ok"],
                submitted=dk["submitted"],
                accepted=dk["accepted"],
                matched=dk["matched"],
                lost=len(dk["lost"]),
                failed=len(dk["failed"]),
                mismatched=len(dk["mismatched"]),
            )

        # -- job faults, two identical passes (the second pass re-fires
        # every fault from a fresh scar directory: surviving results must
        # match exactly, fault or no fault)
        passes: List[List[Any]] = []
        stats: List[Dict[str, Any]] = []
        labels = [f"{n}@{'racy' if r else 'clean'}" for n, r in CHAOS_SUITE]
        targets = plan.assign_jobs(labels)
        for run_index in (1, 2):
            # Job faults fire inside worker processes, out of reach of
            # this registry — count each injection here in the parent.
            for kind in targets.values():
                _count_fault(kind)
            scars = workdir / f"scars{run_index}"
            runner = JobRunner(
                workers=workers,
                retries=2,
                backoff=0.05,
                backoff_jitter=0.5,
                watchdog=watchdog,
                job_telemetry=False,
            )
            results = runner.run(
                _chaos_jobs(
                    plan, scars, targets, forensics=forensics_dir is not None
                )
            )
            passes.append(results)
            stats.append(dict(runner.stats))

        results1, results2 = passes
        by_label = {r.job.name: r for r in results1}
        for label, kind in targets.items():
            r = by_label[label]
            # A transient fault is detected iff the first attempt failed
            # (crash/hang/monitor error) and recovered iff the retry won.
            check(
                kind,
                detected=r.attempts >= 2,
                recovered=r.ok,
                target=label,
                attempts=r.attempts,
                status=r.status,
            )
            if kind == "worker-hang" and not stats[0].get("degraded"):
                checks[-1]["detected"] = (
                    checks[-1]["detected"] and stats[0].get("stuck", 0) >= 1
                )

        deterministic = [
            (r1.job.name, r1.status, r1.value) for r1 in results1
        ] == [(r2.job.name, r2.status, r2.value) for r2 in results2]

        # -- forensics bundles (after the determinism compare, which the
        # timelines participate in; stripped from the report results so
        # chaos_report.json stays small)
        forensics_artifacts: Dict[str, Dict[str, str]] = {}
        if forensics_dir is not None:
            from .obs.forensics import write_forensics

            out = Path(forensics_dir)
            for r in results1:
                timeline = (r.value or {}).get("timeline") if r.ok else None
                if timeline is None:
                    continue
                basename = r.job.name.replace("@", "_")
                forensics_artifacts[r.job.name] = write_forensics(
                    out, basename, timeline
                )
            for results in passes:
                for r in results:
                    if r.ok and isinstance(r.value, dict):
                        r.value.pop("timeline", None)

    report: Dict[str, Any] = {
        "seed": plan.seed,
        "faults": list(plan.kinds),
        "targets": targets,
        "checks": checks,
        "deterministic": deterministic,
        "runner_stats": stats,
        "results": [
            {
                "job": r.job.name,
                "status": r.status,
                "attempts": r.attempts,
                "error": r.error,
                "value": r.value,
            }
            for r in results1
        ],
        "ok": deterministic
        and all(c["detected"] and c["recovered"] for c in checks)
        and all(r.ok for r in results1),
    }
    if forensics_dir is not None:
        report["forensics"] = forensics_artifacts
    (workdir / "chaos_report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return report


# -- the daemon-kill harness -------------------------------------------------


def _start_serve_daemon(
    spool: Path, log_path: Path, workers: int, startup_timeout: float = 30.0
):
    """Launch ``repro serve`` as a subprocess on an ephemeral port.

    Returns ``(proc, log_handle, port)``; the port is parsed from the
    daemon's startup banner.
    """
    import subprocess
    import sys

    env = dict(os.environ)
    src_root = str(Path(__file__).resolve().parent.parent)
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
    log = open(log_path, "w", encoding="utf-8")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--host", "127.0.0.1", "--port", "0",
            "--workers", str(workers),
            "--spool", str(spool),
            "--no-collector",
        ],
        stdout=log,
        stderr=subprocess.STDOUT,
        env=env,
    )
    deadline = time.monotonic() + startup_timeout
    port: Optional[int] = None
    while port is None and time.monotonic() < deadline:
        if proc.poll() is not None:
            break
        match = re.search(
            r"listening on http://127\.0\.0\.1:(\d+)",
            log_path.read_text(encoding="utf-8", errors="replace"),
        )
        if match:
            port = int(match.group(1))
        else:
            time.sleep(0.05)
    if port is None:
        proc.kill()
        proc.wait()
        log.close()
        raise RuntimeError(f"serve daemon did not start; see {log_path}")
    return proc, log, port


def _service_request(port: int, method: str, path: str, body=None):
    import http.client

    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=15)
    try:
        conn.request(method, path, body=body)
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read())
    finally:
        conn.close()


def run_daemon_kill(
    workdir: Union[str, Path],
    seed: int = 0,
    submissions: int = 6,
    workers: int = 2,
    timeout: float = 120.0,
) -> Dict[str, Any]:
    """SIGKILL a live ``repro serve`` daemon mid-burst; prove recovery.

    The crash-recovery-determinism invariant of the durable service:

    1. record ``submissions`` traces (the chaos suite mix) and compute
       each one's **control verdict** in-process, with no daemon at all;
    2. start a daemon on a fresh spool, POST the whole burst, and
       ``kill -9`` the process the moment the last upload is
       acknowledged — workers die mid-analysis, the queue dies full;
    3. restart the daemon on the same spool and poll every acknowledged
       submission id to a terminal state.

    Every acknowledged submission must come back — none lost, none
    failed — and every verdict report must be **byte-identical** to its
    control.  Returns a JSON-able report; ``report["ok"]`` is the
    verdict, and a copy lands in ``<workdir>/daemon_kill_report.json``.
    """
    from .experiments.traces import record_trace
    from .service.jobs import analyze_submission
    from .workloads.suite import get_benchmark

    workdir = Path(workdir)
    spool = workdir / "spool"
    traces_dir = workdir / "traces"
    traces_dir.mkdir(parents=True, exist_ok=True)

    # -- control verdicts: no daemon, no crash, pure analysis ---------------
    mix = [CHAOS_SUITE[i % len(CHAOS_SUITE)] for i in range(submissions)]
    paths: List[Path] = []
    control: List[Dict[str, Any]] = []
    for i, (name, racy) in enumerate(mix):
        path = traces_dir / f"{i:02d}_{name}.trace"
        record_trace(
            get_benchmark(name), scale="test", seed=seed + i, racy=racy
        ).save(path)
        paths.append(path)
        control.append(analyze_submission(str(path)))

    # -- burst, then kill -9 ------------------------------------------------
    proc, log, port = _start_serve_daemon(
        spool, workdir / "daemon_burst.log", workers
    )
    accepted: List[Tuple[str, int]] = []  # (submission id, trace index)
    try:
        for i, path in enumerate(paths):
            status, payload = _service_request(
                port, "POST", "/submit", body=path.read_bytes()
            )
            if status == 202:
                accepted.append((payload["id"], i))
    finally:
        proc.kill()
        proc.wait()
        log.close()
    _count_fault("daemon-kill")

    # -- restart on the same spool; every acked id must reach its verdict --
    proc, log, port = _start_serve_daemon(
        spool, workdir / "daemon_recover.log", workers
    )
    lost: List[str] = []
    failed: List[Dict[str, Any]] = []
    mismatched: List[str] = []
    matched: List[str] = []
    try:
        deadline = time.monotonic() + timeout
        for sid, index in accepted:
            state = None
            while time.monotonic() < deadline:
                status, payload = _service_request(
                    port, "GET", f"/result/{sid}"
                )
                if status == 404:
                    state = "lost"
                    break
                state = payload.get("state")
                if state in ("done", "failed"):
                    break
                time.sleep(0.1)
            if state == "lost" or state is None:
                lost.append(sid)
            elif state == "failed":
                failed.append({"id": sid, "error": payload.get("error")})
            else:
                _, report_payload = _service_request(
                    port, "GET", f"/report/{sid}"
                )
                if report_payload.get("report") == control[index]:
                    matched.append(sid)
                else:
                    mismatched.append(sid)
    finally:
        proc.terminate()
        proc.wait(timeout=15)
        log.close()

    report = {
        "fault": "daemon-kill",
        "seed": seed,
        "submitted": len(paths),
        "accepted": len(accepted),
        "matched": len(matched),
        "lost": lost,
        "failed": failed,
        "mismatched": mismatched,
        "ok": (
            len(accepted) == len(paths)
            and len(matched) == len(accepted)
            and not lost
            and not failed
            and not mismatched
        ),
    }
    (workdir / "daemon_kill_report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return report


def _null_scope():
    from contextlib import nullcontext

    return nullcontext()


def _record_chaos_trace(path: Path, seed: int) -> None:
    """Record a small real trace (multiple chunks) to damage."""
    from .clean import run_clean
    from .runtime.trace import TraceRecorder
    from .workloads import build_program
    from .workloads.suite import get_benchmark

    recorder = TraceRecorder()
    program = build_program(
        get_benchmark("lu_ncb"), scale="test", racy=False, seed=seed
    )
    run_clean(program, extra_monitors=[recorder])
    recorder.trace.save(path, chunk_events=64)
