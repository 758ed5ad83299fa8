"""The fault-tolerant parallel job runner (repro.exec)."""

import json
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exec import CheckpointStore, Job, JobRunner, resolve
from repro.exec.job import InjectedFailure, run_job
from repro.obs import MetricsRegistry, Tracer


def _job(fn, name="", **config):
    return Job(fn=f"tests._runner_jobs:{fn}", config=config, name=name)


class TestJobModel:
    def test_resolve_dotted_path(self):
        fn = resolve("tests._runner_jobs:double")
        assert fn(x=3) == {"x": 3, "doubled": 6}

    def test_resolve_rejects_bad_paths(self):
        with pytest.raises(ValueError):
            resolve("no-colon-here")
        with pytest.raises(AttributeError):
            resolve("tests._runner_jobs:missing")

    def test_job_id_is_content_hash(self):
        a = _job("double", x=1)
        b = Job(fn=a.fn, config={"x": 1}, name="other", group="g")
        c = _job("double", x=2)
        # name/group are presentational; config changes the id.
        assert a.job_id == b.job_id
        assert a.job_id != c.job_id
        assert len(a.job_id) == 16

    def test_config_key_order_does_not_change_id(self):
        a = Job(fn="m:f", config={"x": 1, "y": 2})
        b = Job(fn="m:f", config={"y": 2, "x": 1})
        assert a.job_id == b.job_id

    def test_injected_failure_raises_and_changes_id(self):
        plain = _job("double", x=1)
        injected = _job("double", x=1, inject_failure=True)
        assert plain.job_id != injected.job_id
        with pytest.raises(InjectedFailure):
            run_job(injected)


class TestCheckpointStore:
    def test_round_trip(self, tmp_path):
        store = CheckpointStore(tmp_path)
        job = _job("double", x=5)
        assert store.load(job) is None
        store.store(job, {"doubled": 10}, attempts=1)
        record = store.load(job)
        assert record["value"] == {"doubled": 10}
        assert record["attempts"] == 1
        assert job in store

    def test_corrupt_and_mismatched_records_miss(self, tmp_path):
        store = CheckpointStore(tmp_path)
        job = _job("double", x=5)
        store.store(job, 10)
        # Corrupt file -> miss.
        store.path(job.job_id).write_text("not json")
        assert store.load(job) is None
        # Wrong format version -> miss.
        store.store(job, 10)
        record = json.loads(store.path(job.job_id).read_text())
        record["format"] = -1
        store.path(job.job_id).write_text(json.dumps(record))
        assert store.load(job) is None

    def test_discard_and_clear(self, tmp_path):
        store = CheckpointStore(tmp_path)
        jobs = [_job("double", x=i) for i in range(3)]
        for job in jobs:
            store.store(job, job.config["x"])
        store.discard(jobs[0])
        assert jobs[0] not in store and jobs[1] in store
        assert store.clear() == 2


def _recorded(tmp_path):
    """A job and the record a telemetry-collecting run stored for it."""
    job = _job("clean_workload", seed=3, race_probability=0.3)
    store = CheckpointStore(tmp_path / "seed")
    JobRunner(
        store=store, registry=MetricsRegistry(), tracer=Tracer(),
        profile_sites=True,
    ).run([job])
    return job, json.loads(store.path(job.job_id).read_text())


def _serve_or_rerun(root, job, record):
    """Write ``record`` as ``job``'s checkpoint and run ``job`` once."""
    store = CheckpointStore(root)
    store.root.mkdir(parents=True, exist_ok=True)
    store.path(job.job_id).write_text(json.dumps(record))
    runner = JobRunner(
        store=store, registry=MetricsRegistry(), tracer=Tracer(),
        profile_sites=True,
    )
    (result,) = runner.run([job])
    assert result.ok
    return runner, store, result


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


class TestCheckpointRecordLoad:
    """A checkpoint record that is valid JSON but damaged is served or
    re-run, never crashes ``JobRunner.run``."""

    @pytest.mark.parametrize("damage", [
        "value_renamed", "attempts_str", "duration_null", "telemetry_str",
        "metrics_list", "histogram_buckets_int", "histogram_count_str",
        "histogram_unknown_bound", "site_address_not_int",
    ])
    def test_damaged_record_is_quarantined_and_rerun(self, tmp_path, damage):
        job, record = _recorded(tmp_path)
        if damage == "value_renamed":
            record["valeu"] = record.pop("value")
        elif damage == "attempts_str":
            record["attempts"] = "x"
        elif damage == "duration_null":
            record["duration_s"] = None
        elif damage == "telemetry_str":
            record["telemetry"] = "x"
        elif damage == "metrics_list":
            record["telemetry"] = {"metrics": [1]}
        elif damage == "histogram_buckets_int":
            record["telemetry"]["metrics"]["h"] = {"buckets": 5}
        elif damage == "histogram_count_str":
            record["telemetry"]["metrics"]["h"] = {"count": "x"}
        elif damage == "histogram_unknown_bound":
            record["telemetry"]["metrics"]["h"] = {"buckets": [[0.123456, 1]]}
        else:
            record["telemetry"]["sites"] = {"addresses": {"zz": {}}}
        runner, store, result = _serve_or_rerun(tmp_path / "s", job, record)
        assert not result.cached
        assert runner.stats["corrupt_checkpoints"] == 1
        assert store.quarantined() == 1
        assert "malformed" in store.quarantine_path(job.job_id).with_suffix(
            ".reason"
        ).read_text()
        assert store.load(job) is not None  # the re-run stored a good one

    def test_verdict_cache_records_without_attempts_load(self, tmp_path):
        store = CheckpointStore(tmp_path)
        job = _job("double", x=1)
        store.store(job, {"verdict": "racy"})
        assert store.load(job)["value"] == {"verdict": "racy"}
        assert store.corrupt_records == 0

    @settings(
        max_examples=40, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_damaged_records_never_crash_the_runner(self, tmp_path, data):
        job, record = _recorded(tmp_path)
        telemetry = record["telemetry"]
        registry = MetricsRegistry()
        for value in (0.5, 3, 70):
            registry.observe("h", value)
        histogram = telemetry["metrics"]["h"] = registry.snapshot()["h"]
        sites = telemetry["sites"]["addresses"]
        for _ in range(data.draw(st.integers(1, 3))):
            action = data.draw(st.sampled_from(
                ("drop", "swap", "nested", "histogram", "bucket", "site")
            ))
            if action == "histogram":
                histogram[data.draw(st.sampled_from(sorted(histogram)))] = (
                    data.draw(json_values)
                )
            elif action == "bucket" and isinstance(histogram["buckets"], list):
                histogram["buckets"].append(
                    [data.draw(json_values), data.draw(json_values)]
                )
            elif action == "site":
                sites[data.draw(st.text(max_size=4))] = data.draw(json_values)
            elif action == "drop" and record:
                record.pop(data.draw(st.sampled_from(sorted(record))))
            elif action == "swap" and record:
                record[data.draw(st.sampled_from(sorted(record)))] = (
                    data.draw(json_values)
                )
            elif action == "nested" and telemetry:
                telemetry[data.draw(st.sampled_from(sorted(telemetry)))] = (
                    data.draw(json_values)
                )
        root = tmp_path / f"s{data.draw(st.integers(0, 2**32))}"
        runner, store, result = _serve_or_rerun(root, job, record)
        if result.cached:
            assert store.corrupt_records == 0
        else:
            assert result.attempts == 1


class TestRunnerInline:
    def test_results_in_submission_order(self):
        jobs = [_job("double", x=i) for i in (3, 1, 2)]
        results = JobRunner().run(jobs)
        assert [r.value["x"] for r in results] == [3, 1, 2]
        assert all(r.ok and r.attempts == 1 and not r.cached for r in results)

    def test_worker_raises_becomes_failed_result(self):
        runner = JobRunner(retries=1, backoff=0.0)
        results = runner.run([_job("boom", message="nope")])
        (res,) = results
        assert not res.ok
        assert res.status == "failed"
        assert "RuntimeError: nope" in res.error
        assert res.attempts == 2  # initial try + 1 retry
        assert runner.stats["failures"] == 1
        assert runner.stats["retries"] == 1

    def test_retry_then_succeed(self, tmp_path):
        counter = str(tmp_path / "count.json")
        runner = JobRunner(retries=2, backoff=0.0)
        (res,) = runner.run([_job("flaky", counter_file=counter, fail_times=1)])
        assert res.ok
        assert res.value["calls"] == 2
        assert res.attempts == 2
        assert runner.stats["retries"] == 1
        assert runner.stats["failures"] == 0


class TestRunnerPool:
    def test_parallel_results_in_submission_order(self):
        jobs = [_job("double", x=i) for i in range(6)]
        runner = JobRunner(workers=2, retries=0)
        results = runner.run(jobs)
        assert [r.value["x"] for r in results] == list(range(6))
        if not runner.stats["degraded"]:
            assert runner.stats["executed"] == 6

    def test_worker_timeout(self):
        runner = JobRunner(workers=1, timeout=0.2, retries=0)
        (res,) = runner.run([_job("sleeper", seconds=30.0)])
        if runner.stats["degraded"]:
            pytest.skip("process workers unavailable in this sandbox")
        assert not res.ok
        assert "Timeout" in res.error
        assert runner.stats["timeouts"] == 1
        # The terminated attempt must not have taken the full sleep.
        assert res.duration_s < 10.0

    def test_worker_crash_is_a_failure_not_an_exception(self):
        runner = JobRunner(workers=1, timeout=60.0, retries=0)
        (res,) = runner.run(
            [Job(fn="os:_exit", config={"status": 3}, name="crasher")]
        )
        if runner.stats["degraded"]:
            pytest.skip("process workers unavailable in this sandbox")
        assert not res.ok
        assert "WorkerCrash" in res.error

    def test_pool_retry_then_succeed(self, tmp_path):
        counter = str(tmp_path / "count.json")
        runner = JobRunner(workers=2, retries=2, backoff=0.0, timeout=60.0)
        (res,) = runner.run([_job("flaky", counter_file=counter, fail_times=1)])
        assert res.ok
        assert res.attempts == 2 or runner.stats["degraded"]


class TestCheckpointResume:
    def test_cache_hit_after_resume(self, tmp_path):
        store = CheckpointStore(tmp_path / "cache")
        jobs = [_job("double", x=i) for i in range(4)]
        first = JobRunner(store=store)
        cold = first.run(jobs)
        assert first.stats["executed"] == 4
        assert first.stats["cache_hits"] == 0
        second = JobRunner(store=store)
        warm = second.run(jobs)
        assert second.stats["executed"] == 0
        assert second.stats["cache_hits"] == 4
        assert all(r.cached for r in warm)
        assert [r.value for r in warm] == [r.value for r in cold]

    def test_failures_are_not_checkpointed(self, tmp_path):
        store = CheckpointStore(tmp_path / "cache")
        job = _job("boom")
        runner = JobRunner(store=store, retries=0)
        (res,) = runner.run([job])
        assert not res.ok
        assert job not in store
        # The job re-runs (not cache-served) on the next invocation.
        again = JobRunner(store=store, retries=0)
        again.run([job])
        assert again.stats["executed"] == 1

    def test_partial_resume(self, tmp_path):
        store = CheckpointStore(tmp_path / "cache")
        jobs = [_job("double", x=i) for i in range(4)]
        JobRunner(store=store).run(jobs[:2])
        runner = JobRunner(store=store)
        results = runner.run(jobs)
        assert runner.stats["cache_hits"] == 2
        assert runner.stats["executed"] == 2
        assert [r.value["doubled"] for r in results] == [0, 2, 4, 6]


class TestTelemetry:
    def test_runner_counters_and_spans(self, tmp_path):
        registry = MetricsRegistry()
        tracer = Tracer()
        store = CheckpointStore(tmp_path / "cache")
        runner = JobRunner(store=store, registry=registry, tracer=tracer)
        jobs = [_job("double", x=i) for i in range(3)]
        runner.run(jobs)
        assert registry.value("runner.submitted") == 3
        assert registry.value("runner.executed") == 3
        assert registry.value("runner.wall_seconds") > 0
        assert len(tracer.spans_named("runner.job")) == 3
        runner.run(jobs)  # second pass: all cache hits
        assert registry.value("runner.cache_hits") == 3
        assert registry.value("runner.executed") == 3  # unchanged

    def test_summary_line(self):
        runner = JobRunner()
        runner.run([_job("double", x=1)])
        line = runner.summary()
        assert "jobs=1" in line and "executed=1" in line and "failed=0" in line


class TestReportDegradation:
    def test_injected_failure_renders_failed_row_and_exits_nonzero(
        self, tmp_path, capsys
    ):
        from repro.experiments import report

        code = report.main(
            ["--fast", "--no-cache", "--inject-failure", "swaptions"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "FAILED: InjectedFailure" in out
        assert "[failures]" in out
        # Every experiment still rendered.
        for name in ("Section 6.2.2", "Figure 9", "Ablation A4"):
            assert name in out
        # swaptions failed everywhere it appears, including the merged
        # hardware job's four downstream tables.
        import re

        failed_rows = re.findall(r"swaptions\s+FAILED: InjectedFailure", out)
        assert len(failed_rows) >= 8  # sec62, fig6-8, table1, fig9-11, a1...
