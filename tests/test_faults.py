"""Fault injection and artifact hardening, end to end.

Covers the robustness surface added around the recovery subsystem:

* binary-trace chunk CRCs, wrapped ``truncated/corrupt trace`` errors
  with file/chunk/offset context, and salvage-mode loading;
* checkpoint quarantine of corrupt records and the
  ``checkpoint.corrupt`` counter;
* the runner's deterministic jittered backoff, stuck-worker watchdog,
  and crash/deadlock degradation;
* the seeded :class:`repro.faults.FaultPlan` and the ``chaos`` harness.
"""

import json
import multiprocessing
import random

import pytest

from repro.exec.checkpoint import CheckpointStore
from repro.exec.job import Job, run_job
from repro.exec.runner import JobRunner
from repro.faults import (
    FAULT_KINDS,
    FaultInjected,
    FaultPlan,
    FaultyMonitor,
    deliver,
    inject_checkpoint_truncate,
    inject_trace_bitflip,
    run_chaos,
)
from repro.obs import MetricsRegistry
from repro.obs.context import telemetry_scope
from repro.runtime.trace import (
    TRACE_MAGIC,
    _CHUNK_HEADER,
    StreamingTrace,
    Trace,
    TraceEvent,
)

_FORK_OK = "fork" in multiprocessing.get_all_start_methods()
needs_processes = pytest.mark.skipif(
    not _FORK_OK, reason="needs fork-capable multiprocessing"
)


def small_trace() -> Trace:
    return Trace(
        per_thread={
            1: [TraceEvent("W", 0x1000, 4, False, 2)],
            2: [TraceEvent("R", 0x1000 + 8 * i, 4) for i in range(300)],
        }
    )


def chunk_spans(path):
    """[(header offset, stored length)] for every chunk in the file."""
    data = path.read_bytes()
    offset = len(TRACE_MAGIC) + 1
    spans = []
    while offset < len(data):
        *_, stored_len = _CHUNK_HEADER.unpack_from(data, offset)
        spans.append((offset, stored_len))
        offset += _CHUNK_HEADER.size + stored_len
    return spans


class TestTraceHardening:
    def test_crc_roundtrip(self, tmp_path):
        path = tmp_path / "t.bin"
        trace = small_trace()
        trace.save(path, chunk_events=128)
        loaded = Trace.load(path)
        assert loaded.per_thread == trace.per_thread
        assert loaded.salvaged_chunks == 0

    def test_no_crc_files_still_load(self, tmp_path):
        path = tmp_path / "legacy.bin"
        trace = small_trace()
        trace.save(path, crc=False)
        assert Trace.load(path).per_thread == trace.per_thread

    def test_bitflip_detected_with_context(self, tmp_path):
        path = tmp_path / "t.bin"
        small_trace().save(path, chunk_events=128)
        index, at = inject_trace_bitflip(path, random.Random(7))
        with pytest.raises(ValueError) as err:
            Trace.load(path)
        message = str(err.value)
        assert "truncated/corrupt trace" in message
        assert str(path) in message
        assert "chunk" in message and "offset" in message

    def test_bitflip_salvage_skips_one_chunk(self, tmp_path):
        path = tmp_path / "t.bin"
        trace = small_trace()
        trace.save(path, chunk_events=128)
        inject_trace_bitflip(path, random.Random(7))
        registry = MetricsRegistry()
        with telemetry_scope(registry=registry):
            salvaged = Trace.load(path, salvage=True)
        assert salvaged.salvaged_chunks == 1
        assert salvaged.total_events < trace.total_events
        assert registry.snapshot().get("trace.salvaged_chunks") == 1

    def test_truncation_mid_chunk_raises_with_offset(self, tmp_path):
        """Regression: a file cut mid-chunk must name file + chunk offset."""
        path = tmp_path / "t.bin"
        small_trace().save(path, chunk_events=128)
        spans = chunk_spans(path)
        header_off, stored_len = spans[-1]
        data = path.read_bytes()
        cut = header_off + _CHUNK_HEADER.size + stored_len // 2
        path.write_bytes(data[:cut])
        with pytest.raises(ValueError) as err:
            Trace.load(path)
        message = str(err.value)
        assert "truncated/corrupt trace" in message
        assert f"chunk {len(spans) - 1} at offset {header_off}" in message
        # Structural damage is not salvageable either.
        with pytest.raises(ValueError):
            Trace.load(path, salvage=True)

    def test_streaming_salvage_and_strict(self, tmp_path):
        path = tmp_path / "t.bin"
        trace = small_trace()
        trace.save(path, chunk_events=128)
        inject_trace_bitflip(path, random.Random(3))
        lazy = StreamingTrace(path)  # header scan alone does not raise
        with pytest.raises(ValueError, match="truncated/corrupt trace"):
            for tid in lazy.thread_ids():
                list(lazy.iter_events(tid))
        salvaging = StreamingTrace(path, salvage=True)
        assert salvaging.salvaged_chunks == 1
        total = sum(
            len(list(salvaging.iter_events(t))) for t in salvaging.thread_ids()
        )
        assert 0 < total < trace.total_events


class TestCheckpointQuarantine:
    def job(self):
        return Job(fn="tests._runner_jobs:double", config={"x": 2})

    def test_corrupt_record_quarantined_and_counted(self, tmp_path):
        store = CheckpointStore(tmp_path)
        job = self.job()
        store.store(job, {"v": 4})
        inject_checkpoint_truncate(store.path(job.job_id), random.Random(0))
        registry = MetricsRegistry()
        with telemetry_scope(registry=registry):
            assert store.load(job) is None
        assert store.corrupt_records == 1
        assert store.quarantined() == 1
        qpath = store.quarantine_path(job.job_id)
        assert qpath.exists()
        assert "JSON" in qpath.with_suffix(".reason").read_text()
        assert not store.path(job.job_id).exists()
        assert registry.snapshot().get("checkpoint.corrupt") == 1

    def test_stale_record_is_plain_miss(self, tmp_path):
        store = CheckpointStore(tmp_path)
        job = self.job()
        store.store(job, {"v": 4})
        path = store.path(job.job_id)
        record = json.loads(path.read_text())
        record["library_version"] = "0.0.0-other"
        path.write_text(json.dumps(record))
        assert store.load(job) is None
        assert store.corrupt_records == 0
        assert path.exists()  # stays in place to be overwritten

    def test_runner_surfaces_corrupt_checkpoints(self, tmp_path):
        store = CheckpointStore(tmp_path)
        job = self.job()
        store.store(job, {"v": 4})
        store.path(job.job_id).write_text("torn{")
        runner = JobRunner(store=store)
        results = runner.run([job])
        assert results[0].ok and not results[0].cached
        assert runner.stats["corrupt_checkpoints"] == 1
        assert "corrupt_checkpoints=1" in runner.summary()


class TestBackoff:
    def test_deterministic_jitter_and_cap(self):
        runner = JobRunner(backoff=0.25, max_backoff=2.0, backoff_jitter=0.5)
        delays = [runner._backoff_delay(i, "job-a") for i in range(1, 10)]
        again = [runner._backoff_delay(i, "job-a") for i in range(1, 10)]
        assert delays == again
        assert all(0.0 <= d <= 2.0 for d in delays)
        assert delays != [runner._backoff_delay(i, "job-b") for i in range(1, 10)]

    def test_serial_and_parallel_runners_agree(self):
        serial = JobRunner(workers=1, backoff=0.1, backoff_jitter=0.4)
        parallel = JobRunner(workers=4, backoff=0.1, backoff_jitter=0.4)
        for attempt in (1, 2, 3):
            assert serial._backoff_delay(attempt, "xyz") == parallel._backoff_delay(
                attempt, "xyz"
            )

    def test_no_jitter_keeps_exact_exponential(self):
        runner = JobRunner(backoff=0.25)
        assert [runner._backoff_delay(i) for i in (1, 2, 3)] == [0.25, 0.5, 1.0]


class TestFaultPlan:
    def test_parse_and_validation(self):
        plan = FaultPlan.parse(3, "trace-bitflip, worker-crash")
        assert plan.kinds == ("trace-bitflip", "worker-crash")
        with pytest.raises(ValueError, match="unknown fault"):
            FaultPlan.parse(3, "gremlins")

    def test_same_seed_same_targets(self):
        labels = ["a", "b", "c", "d"]
        p1 = FaultPlan.parse(9, "worker-crash,worker-hang")
        p2 = FaultPlan.parse(9, "worker-crash,worker-hang")
        assert p1.assign_jobs(labels) == p2.assign_jobs(labels)
        assert p1.rng("x").random() == p2.rng("x").random()
        assert len(set(p1.assign_jobs(labels).values())) == 2

    def test_all_kinds_classified(self):
        for kind in FAULT_KINDS:
            plan = FaultPlan.parse(0, [kind])
            assert (plan.artifact_kinds or plan.job_kinds
                    or plan.service_kinds)


class TestDelivery:
    def test_monitor_raise_spec_is_one_shot(self, tmp_path):
        spec = {"kind": "monitor-raise", "scar": str(tmp_path / "s.scar")}
        assert deliver(dict(spec), "job") == spec  # fires: forwarded
        assert deliver(dict(spec), "job") is None  # spent: clean retry

    def test_crash_in_main_process_raises_not_exits(self, tmp_path):
        spec = {"kind": "worker-crash", "scar": str(tmp_path / "c.scar")}
        with pytest.raises(FaultInjected):
            deliver(spec, "job")

    def test_faulty_monitor_raises_after_n(self):
        from repro.clean import run_clean

        from .test_recovery import locked_increment_program

        with pytest.raises(FaultInjected, match="monitor failure"):
            run_clean(
                locked_increment_program(),
                extra_monitors=[FaultyMonitor(after=3)],
            )

    def test_run_job_delivers_inject_fault(self, tmp_path):
        scar = tmp_path / "j.scar"
        job = Job(
            fn="tests._runner_jobs:double",
            config={
                "x": 1,
                "inject_fault": {"kind": "worker-crash", "scar": str(scar)},
            },
        )
        with pytest.raises(FaultInjected):  # main process: raise, not exit
            run_job(job)
        assert scar.exists()
        assert run_job(job) == {"x": 1, "doubled": 2}  # spent fault


@needs_processes
class TestRunnerFaults:
    def test_worker_crash_degrades_to_failed_row(self):
        runner = JobRunner(workers=2, retries=0)
        job = Job(fn="tests._runner_jobs:hard_exit", config={"code": 13})
        results = runner.run([job])
        assert results[0].status == "failed"
        assert "WorkerCrash" in results[0].error

    def test_watchdog_reaps_stuck_worker(self):
        runner = JobRunner(workers=2, retries=0, watchdog=1.0)
        job = Job(fn="tests._runner_jobs:wedged_sleeper", config={"seconds": 30})
        results = runner.run([job])
        assert results[0].status == "failed"
        assert "Stuck" in results[0].error
        assert runner.stats["stuck"] == 1

    def test_worker_deadlock_degrades_to_failed_row(self):
        runner = JobRunner(workers=2, retries=0)
        job = Job(fn="tests._runner_jobs:deadlock_job", config={})
        results = runner.run([job])
        assert results[0].status == "failed"
        assert "DeadlockError" in results[0].error


@needs_processes
class TestChaos:
    def test_chaos_smoke(self, tmp_path):
        registry = MetricsRegistry()
        report = run_chaos(
            seed=5,
            faults="trace-bitflip,checkpoint-truncate,worker-crash",
            workdir=tmp_path,
            watchdog=2.0,
            registry=registry,
        )
        assert report["ok"]
        assert report["deterministic"]
        kinds = {c["fault"] for c in report["checks"]}
        assert kinds == {"trace-bitflip", "checkpoint-truncate", "worker-crash"}
        assert all(c["detected"] and c["recovered"] for c in report["checks"])
        snapshot = registry.snapshot()
        assert snapshot.get("faults.trace_bitflip") == 1
        assert snapshot.get("faults.worker_crash") == 2  # once per pass
        assert snapshot.get("trace.salvaged_chunks") == 1
        assert snapshot.get("checkpoint.corrupt") == 1
        assert (tmp_path / "chaos_report.json").exists()

    def test_chaos_cli_exit_zero(self, tmp_path):
        from repro.__main__ import main

        code = main(
            [
                "chaos",
                "--seed",
                "5",
                "--faults",
                "trace-bitflip,checkpoint-truncate",
                "--workdir",
                str(tmp_path),
                "--json",
            ]
        )
        assert code == 0
