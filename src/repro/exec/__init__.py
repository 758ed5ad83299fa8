"""Fault-tolerant parallel job execution for the experiment harnesses.

The paper's evaluation is an embarrassingly parallel sweep over
independent benchmark runs; this package gives the reproduction the
measurement harness such a sweep deserves:

* :class:`~repro.exec.job.Job` — a pure function (named by dotted path
  so any worker process can resolve it) plus a JSON-serializable config,
  content-hashed into a stable job id;
* :class:`~repro.exec.checkpoint.CheckpointStore` — one JSON result
  file per job id, so an interrupted sweep resumes instead of
  recomputing;
* :class:`~repro.exec.runner.JobRunner` — runs a batch of jobs with
  checkpoint/resume, deterministic (submission-order) results and a
  cross-process telemetry pipeline: each job executes inside a fresh
  telemetry scope (:func:`~repro.exec.job.run_job_traced`) and its
  metrics/spans/hot-site payload is merged back in submission order, so
  parallel and serial sweeps report identical telemetry totals;
* :class:`~repro.exec.runner.PersistentPool` — the one worker pool:
  ``workers`` resident child processes fed jobs one at a time, with
  per-job timeouts, a heartbeat watchdog, crash classification, bounded
  retry with capped exponential backoff, degradation to in-process
  threads and ticket-based results
  (:class:`~repro.exec.runner.PoolTicket`).  ``JobRunner`` runs its
  parallel sweeps on it; the ``repro serve`` daemon streams into it.

See ``docs/experiment_runner.md`` for the job model, the cache layout
and the failure semantics.
"""

from .checkpoint import CheckpointStore
from .job import Job, resolve, run_job, run_job_traced
from .runner import JobResult, JobRunner, PersistentPool, PoolTicket

__all__ = [
    "CheckpointStore",
    "Job",
    "JobResult",
    "JobRunner",
    "PersistentPool",
    "PoolTicket",
    "resolve",
    "run_job",
    "run_job_traced",
]
