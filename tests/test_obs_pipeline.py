"""The cross-process telemetry pipeline (repro.obs + repro.exec).

Covers the mergeable-metrics semantics, the tracer hardening, the
Prometheus exposition, the status file, the HTTP endpoint, the hot-site
profiler, and — end to end — the worker telemetry pipeline: serial and
parallel report sweeps must aggregate identical totals, and cache-served
jobs must replay the telemetry of their original execution.
"""

import json
import urllib.request

import pytest

from repro.exec import CheckpointStore, Job, JobRunner, run_job_traced
from repro.obs import (
    MetricsRegistry,
    SiteProfiler,
    StatusFile,
    TelemetryServer,
    Tracer,
    current_registry,
    current_sites,
    current_tracer,
    prom_name,
    render_prom,
    telemetry_scope,
)


def _job(fn, name="", **config):
    return Job(fn=f"tests._runner_jobs:{fn}", config=config, name=name)


def _clean_jobs(n=3, runs=2):
    return [
        _job("clean_workload", name=f"clean-{seed}", seed=seed, runs=runs)
        for seed in range(n)
    ]


def _clean_totals(registry):
    return {
        name: value
        for name, value in registry.snapshot().items()
        if name.startswith("clean.")
    }


# ---------------------------------------------------------------------------
# merge semantics


class TestMergeSemantics:
    def test_counters_add(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("x", 3)
        b.inc("x", 4)
        b.inc("y", 1)
        a.merge_snapshot(b.snapshot(), kinds=b.kinds())
        assert a.value("x") == 7
        assert a.value("y") == 1

    def test_gauges_last_write_wins_and_high_water_max(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.set_gauge("g", 10)
        b.set_gauge("g", 4)
        a.merge_snapshot(b.snapshot(), kinds=b.kinds())
        assert a.value("g") == 4  # last write (submission order) wins
        gauge = next(i for i in a.instruments() if i.name == "g")
        assert gauge.high_water == 10  # but the peak survives

    def test_kinds_map_disambiguates_scalars(self):
        # A scalar snapshot value alone cannot say counter-or-gauge; the
        # kinds map must make a gauge merge as a gauge in a fresh parent.
        worker = MetricsRegistry()
        worker.set_gauge("depth", 5)
        worker.inc("hits", 2)
        parent = MetricsRegistry()
        parent.merge_snapshot(worker.snapshot(), kinds=worker.kinds())
        assert parent.kinds() == {"depth": "gauge", "hits": "counter"}
        parent.merge_snapshot(worker.snapshot(), kinds=worker.kinds())
        assert parent.value("depth") == 5  # gauge: not doubled
        assert parent.value("hits") == 4  # counter: added

    def test_unknown_scalar_defaults_to_counter(self):
        parent = MetricsRegistry()
        parent.merge_snapshot({"mystery": 3})
        parent.merge_snapshot({"mystery": 3})
        assert parent.value("mystery") == 6
        assert parent.kinds()["mystery"] == "counter"

    def test_histograms_merge_bucket_by_bucket(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for v in (1, 5):
            a.observe("h", v)
        for v in (5, 500000):
            b.observe("h", v)
        a.merge_snapshot(b.snapshot(), kinds=b.kinds())
        snap = a.snapshot()["h"]
        assert snap["count"] == 4
        assert snap["sum"] == 500011
        assert snap["max"] == 500000
        assert snap["min"] == 1

    def test_incompatible_histogram_bounds_raise(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("h", bounds=[1, 2, 3]).observe(1)
        b.histogram("h", bounds=[10, 20]).observe(1)
        with pytest.raises(ValueError):
            a.merge_snapshot(b.snapshot(), kinds=b.kinds())

    def test_merge_registry_whole(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("n")
        b.inc("n", 2)
        b.observe("h", 3)
        a.merge(b)
        assert a.value("n") == 3
        assert a.snapshot()["h"]["count"] == 1

    def test_merge_is_associative_for_counters(self):
        parts = []
        for amount in (1, 10, 100):
            r = MetricsRegistry()
            r.inc("x", amount)
            parts.append((r.snapshot(), r.kinds()))
        left = MetricsRegistry()
        for snap, kinds in parts:
            left.merge_snapshot(snap, kinds=kinds)
        right = MetricsRegistry()
        for snap, kinds in reversed(parts):
            right.merge_snapshot(snap, kinds=kinds)
        assert left.value("x") == right.value("x") == 111


class TestRegistryDiff:
    def test_histogram_diff_shape(self):
        r = MetricsRegistry()
        r.observe("h", 5)
        before = r.snapshot()
        r.observe("h", 5)
        r.observe("h", 10 ** 9)  # overflow bucket
        delta = MetricsRegistry.diff(before, r.snapshot())
        assert delta["h"]["count"] == 2
        assert delta["h"]["sum"] == 5 + 10 ** 9
        buckets = dict(
            (tuple(b) if isinstance(b, list) else b, n)
            for b, n in delta["h"]["buckets"]
        )
        assert buckets[8] == 1  # one more in the <=8 bucket
        assert buckets[None] == 1  # one overflow

    def test_histogram_absent_before_diffs_from_zero(self):
        r = MetricsRegistry()
        before = r.snapshot()
        r.observe("h", 1)
        delta = MetricsRegistry.diff(before, r.snapshot())
        assert delta["h"]["count"] == 1


# ---------------------------------------------------------------------------
# tracer hardening


class TestTracerHardening:
    def test_out_of_order_close_keeps_parent_attribution(self):
        tracer = Tracer()
        outer = tracer.start_span("outer")
        inner = tracer.start_span("inner")
        # Close the parent first: the child must stay open and a new
        # span opened now must still be attributed to the child.
        tracer.end_span(outer)
        grand = tracer.start_span("grand")
        assert grand.parent_id == inner.span_id
        tracer.end_span(grand)
        tracer.end_span(inner)
        assert [s.name for s in tracer.finished] == ["outer", "grand", "inner"]

    def test_double_close_is_stack_noop(self):
        tracer = Tracer()
        a = tracer.start_span("a")
        b = tracer.start_span("b")
        tracer.end_span(b)
        tracer.end_span(b)  # double close must not pop "a"
        c = tracer.start_span("c")
        assert c.parent_id == a.span_id

    def test_span_context_records_error_attr(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("work"):
                raise ValueError("boom")
        (span,) = tracer.finished
        assert span.attrs["error"] == "ValueError"

    def test_ingest_merges_attrs_and_reexports(self, tmp_path):
        worker = Tracer()
        with worker.span("job.run", seed=1):
            pass
        records = [s.to_record() for s in worker.finished]
        out = tmp_path / "spans.jsonl"
        from repro.obs import JsonlExporter

        exporter = JsonlExporter(str(out))
        parent = Tracer(exporter)
        assert parent.ingest(records, job="clean-1") == 1
        exporter.close()
        assert parent.ingested[0]["attrs"] == {"seed": 1, "job": "clean-1"}
        header_line, line = out.read_text().strip().splitlines()
        assert json.loads(header_line)["type"] == "header"
        assert json.loads(line)["attrs"]["job"] == "clean-1"


# ---------------------------------------------------------------------------
# ambient context


class TestAmbientContext:
    def test_outside_any_scope_is_none(self):
        assert current_registry() is None
        assert current_tracer() is None
        assert current_sites() is None

    def test_scope_nesting_and_restore(self):
        outer_reg = MetricsRegistry()
        with telemetry_scope(registry=outer_reg):
            assert current_registry() is outer_reg
            with telemetry_scope() as inner:
                assert current_registry() is inner.registry
                assert current_registry() is not outer_reg
            assert current_registry() is outer_reg
        assert current_registry() is None


# ---------------------------------------------------------------------------
# exposition: prom text, status file, HTTP endpoint


class TestProm:
    def test_names_sanitized(self):
        assert prom_name("clean.same_epoch.hits") == "clean_same_epoch_hits"
        assert prom_name("9lives") == "_9lives"

    def test_render_parses_and_covers_all_kinds(self):
        r = MetricsRegistry()
        r.inc("clean.checks", 7)
        r.set_gauge("runner.workers", 4)
        for v in (1, 5, 10 ** 9):
            r.observe("sfr.length", v)
        text = render_prom(r)
        samples = {}
        helped = set()
        for line in text.splitlines():
            assert line, "no blank lines in exposition"
            if line.startswith("# TYPE "):
                _, _, name, kind = line.split()
                assert kind in ("counter", "gauge", "histogram")
                continue
            if line.startswith("# HELP "):
                helped.add(line.split()[2])
                continue
            name_and_labels, value = line.rsplit(" ", 1)
            float(value)  # must parse
            samples[name_and_labels] = value
        # Every family carries a HELP line.
        assert {"clean_checks", "runner_workers", "sfr_length"} <= helped
        assert samples["clean_checks"] == "7"
        assert samples["runner_workers"] == "4"
        assert samples["runner_workers_high_water"] == "4"
        # Histogram: cumulative buckets ending at +Inf == count.
        assert samples['sfr_length_bucket{le="+Inf"}'] == "3"
        assert samples["sfr_length_count"] == "3"
        assert float(samples["sfr_length_sum"]) == 1 + 5 + 10 ** 9

    def test_histogram_buckets_are_cumulative(self):
        r = MetricsRegistry()
        h = r.histogram("h", bounds=[1, 2, 4])
        for v in (1, 2, 2, 100):
            h.observe(v)
        text = render_prom(r)
        values = {
            line.rsplit(" ", 1)[0]: float(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if not line.startswith("#")
        }
        assert values['h_bucket{le="1"}'] == 1
        assert values['h_bucket{le="2"}'] == 3
        assert values['h_bucket{le="4"}'] == 3
        assert values['h_bucket{le="+Inf"}'] == 4


class TestStatusFile:
    def test_round_trip_adds_updated_at(self, tmp_path):
        sf = StatusFile(tmp_path / "status.json")
        assert sf.read() is None
        sf.write({"state": "running", "done": 3})
        payload = sf.read()
        assert payload["state"] == "running"
        assert payload["done"] == 3
        assert "updated_at" in payload

    def test_corrupt_reads_none_and_remove(self, tmp_path):
        path = tmp_path / "status.json"
        sf = StatusFile(path)
        path.write_text("{truncated")
        assert sf.read() is None
        sf.write({"state": "done"})
        sf.remove()
        assert sf.read() is None
        sf.remove()  # idempotent


class TestTelemetryServer:
    def test_metrics_and_status_endpoints(self):
        registry = MetricsRegistry()
        registry.inc("clean.checks", 42)
        server = TelemetryServer(
            registry=registry,
            status_fn=lambda: {"state": "running", "done": 1},
            port=0,
        )
        server.start()
        try:
            base = f"http://127.0.0.1:{server.port}"
            with urllib.request.urlopen(f"{base}/metrics") as resp:
                assert resp.status == 200
                assert "text/plain" in resp.headers["Content-Type"]
                body = resp.read().decode()
            assert "clean_checks 42" in body
            with urllib.request.urlopen(f"{base}/status") as resp:
                status = json.load(resp)
            assert status == {"state": "running", "done": 1}
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(f"{base}/nope")
            assert err.value.code == 404
        finally:
            server.stop()

    def test_context_manager_and_live_updates(self):
        registry = MetricsRegistry()
        with TelemetryServer(registry=registry, port=0) as server:
            base = f"http://127.0.0.1:{server.port}"
            registry.inc("x")
            with urllib.request.urlopen(f"{base}/metrics") as resp:
                assert "x 1" in resp.read().decode()
            registry.inc("x")
            with urllib.request.urlopen(f"{base}/metrics") as resp:
                assert "x 2" in resp.read().decode()


# ---------------------------------------------------------------------------
# hot-site profiler


class TestSiteProfiler:
    def _filled(self):
        p = SiteProfiler()
        for _ in range(5):
            p.note_check(1, 0x10, is_write=True)
        for _ in range(3):
            p.note_check(2, 0x20, is_write=False)
        p.note_same_epoch(1, 0x20, is_write=False)
        p.note_sync(1)
        p.note_check(1, 0x30, is_write=True)
        p.note_race(0x20)
        return p

    def test_ranking_is_deterministic_by_work_then_races(self):
        p = self._filled()
        top = p.top_sites()
        assert [addr for addr, _ in top] == [0x10, 0x20, 0x30]
        assert p.site_rank(0x20) == 2
        assert p.site_rank(0xDEAD) is None
        # 0x20: 3 checks + 1 same-epoch = same work as ... no; verify stats
        assert p.addresses[0x20] == {
            "checks": 3, "reads": 3, "writes": 0, "same_epoch": 1, "races": 1
        }

    def test_regions_track_sfr_boundaries(self):
        p = self._filled()
        assert p.regions == {"t1/r0": 5, "t2/r0": 3, "t1/r1": 1}

    def test_merge_payload_round_trip(self):
        a, b = self._filled(), self._filled()
        payload = json.loads(json.dumps(b.to_payload()))  # JSON-clean
        a.merge_payload(payload)
        assert a.addresses[0x10]["checks"] == 10
        assert a.addresses[0x20]["races"] == 2
        assert a.regions["t1/r0"] == 10

    def test_sampling_weights_and_races_never_sampled(self):
        p = SiteProfiler(sample_every=4)
        for _ in range(8):
            p.note_check(1, 0x10, is_write=False)
        p.note_race(0x10)
        assert p.addresses[0x10]["checks"] == 8  # 2 events * weight 4
        assert p.addresses[0x10]["races"] == 1

    def test_render_tables(self):
        text = self._filled().render(k=2)
        assert "top 2 addresses" in text
        assert "0x0000000010" in text
        assert "t1/r0" in text


# ---------------------------------------------------------------------------
# the worker pipeline, end to end


class TestWorkerPipeline:
    def test_run_job_traced_payload(self):
        job = _job("clean_workload", name="clean-0", seed=0, runs=2)
        value, telem = run_job_traced(job, sites=True)
        assert value["runs"] == 2
        assert telem["metrics"]["clean.runs"] == 2
        assert telem["metrics"]["clean.checks"] > 0
        assert telem["kinds"]["clean.checks"] == "counter"
        names = [r["name"] for r in telem["spans"]]
        assert "job.run" in names
        assert telem["sites"]["addresses"]  # profiled something

    def test_serial_equals_parallel_totals(self):
        jobs = _clean_jobs()
        serial_reg = MetricsRegistry()
        JobRunner(registry=serial_reg, tracer=Tracer()).run(jobs)
        par_reg = MetricsRegistry()
        par_runner = JobRunner(
            workers=2, registry=par_reg, tracer=Tracer(), retries=0
        )
        par_runner.run(jobs)
        serial_totals = _clean_totals(serial_reg)
        assert serial_totals["clean.runs"] == 6
        assert serial_totals == _clean_totals(par_reg)

    def test_cached_replay_has_identical_telemetry(self, tmp_path):
        store = CheckpointStore(tmp_path / "cache")
        jobs = _clean_jobs()
        cold_reg = MetricsRegistry()
        JobRunner(store=store, registry=cold_reg, tracer=Tracer()).run(jobs)
        warm_reg = MetricsRegistry()
        warm = JobRunner(store=store, registry=warm_reg, tracer=Tracer())
        results = warm.run(jobs)
        assert warm.stats["executed"] == 0
        assert warm.stats["cache_hits"] == len(jobs)
        assert all(r.cached and r.telemetry for r in results)
        assert _clean_totals(cold_reg) == _clean_totals(warm_reg)

    def test_telemetry_off_ships_no_payload(self):
        runner = JobRunner(job_telemetry=False, registry=MetricsRegistry())
        (res,) = runner.run([_job("double", x=1)])
        assert res.ok and res.telemetry is None
        assert not _clean_totals(runner.registry)

    def test_profile_sites_merges_across_jobs(self):
        runner = JobRunner(
            registry=MetricsRegistry(), tracer=Tracer(), profile_sites=True
        )
        runner.run(_clean_jobs(n=2, runs=1))
        assert runner.sites is not None
        assert runner.sites.addresses
        total_checks = sum(
            s["checks"] for s in runner.sites.addresses.values()
        )
        assert total_checks == runner.registry.value("clean.checks")

    def test_worker_spans_ingested_with_job_label(self):
        tracer = Tracer()
        runner = JobRunner(registry=MetricsRegistry(), tracer=tracer)
        runner.run(_clean_jobs(n=1, runs=1))
        job_runs = [
            r for r in tracer.ingested if r["name"] == "job.run"
        ]
        assert len(job_runs) == 1
        assert job_runs[0]["attrs"]["job"] == "clean-0"

    def test_status_file_lifecycle(self, tmp_path):
        status = StatusFile(tmp_path / "status.json")
        runner = JobRunner(status=status, status_interval=0.0)
        runner.run([_job("double", x=i) for i in range(3)])
        payload = status.read()
        assert payload["state"] == "done"
        assert payload["total"] == 3
        assert payload["done"] == 3 and payload["ok"] == 3
        assert payload["running"] == []

    def test_status_snapshot_shape_before_and_after(self):
        runner = JobRunner()
        snap = runner.status_snapshot()
        assert snap["state"] == "idle" and snap["total"] == 0
        runner.run([_job("double", x=1)])
        snap = runner.status_snapshot()
        assert snap["state"] == "done"
        assert snap["done"] == snap["total"] == 1


# ---------------------------------------------------------------------------
# monitors that override no hook must not change telemetry


class TestFusedTelemetry:
    def _counters(self, inert):
        from repro.obs import TelemetryMonitor
        from repro.runtime import ExecutionMonitor, RandomPolicy
        from repro.workloads import make_random_program

        registry = MetricsRegistry()
        program, _ = make_random_program(11)
        monitor = TelemetryMonitor(registry=registry)
        monitors = [monitor]
        for _ in range(inert):
            monitors = [ExecutionMonitor()] + monitors + [ExecutionMonitor()]
        program.run(policy=RandomPolicy(11), monitors=monitors)
        return registry.snapshot()

    def test_identical_counters_with_inert_monitors(self):
        plain = self._counters(inert=0)
        assert plain
        assert self._counters(inert=3) == plain


# ---------------------------------------------------------------------------
# race report provenance (diagnostics + SiteProfiler)


class TestRaceReportProvenance:
    def test_report_carries_hot_site_rank(self):
        from repro.clean import run_clean
        from repro.diagnostics import RaceContextMonitor
        from repro.runtime import RandomPolicy
        from repro.workloads import spilled_switch_program

        profiler = SiteProfiler()
        ctx = RaceContextMonitor()
        race = None
        for seed in range(20):
            with telemetry_scope(sites=profiler):
                result = run_clean(
                    spilled_switch_program(),
                    policy=RandomPolicy(seed),
                    extra_monitors=[ctx],
                )
            if result.race is not None:
                race = result.race
                break
        assert race is not None, "spilled-switch never raced in 20 seeds"
        report = ctx.report(race, sites=profiler)
        assert report.hot_site is not None
        assert report.hot_site["rank"] >= 1
        assert report.hot_site["races"] >= 1
        assert "hot-site profile: rank #" in report.render()

    def test_report_without_sites_unchanged(self):
        from repro.diagnostics import RaceContextMonitor
        from repro.core.exceptions import RaceException

        exc = RaceException(0x10, 1, 2, 3)
        report = RaceContextMonitor().report(exc)
        assert report.hot_site is None
        assert "hot-site" not in report.render()


# ---------------------------------------------------------------------------
# CLI formats


class TestProfileFormats:
    def test_format_json_parses(self, capsys):
        from repro.__main__ import main

        assert main(["profile", "swaptions", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["benchmark"] == "swaptions"
        assert "metrics" in payload

    def test_format_prom_parses(self, capsys):
        from repro.__main__ import main

        assert main(["profile", "swaptions", "--format", "prom"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE" in out
        for line in out.strip().splitlines():
            if line.startswith("#"):
                continue
            float(line.rsplit(" ", 1)[1])

    def test_sites_flag_prints_tables(self, capsys):
        from repro.__main__ import main

        assert main(["profile", "swaptions", "--sites"]) == 0
        out = capsys.readouterr().out
        assert "hot sites: top" in out
        assert "hot SFRs: top" in out

    def test_legacy_json_alias(self, capsys):
        from repro.__main__ import main

        assert main(["profile", "swaptions", "--json"]) == 0
        json.loads(capsys.readouterr().out)
