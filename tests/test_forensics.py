"""Race forensics: the timeline recorder and its exporters.

Covers the flight-recorder semantics (SFR segments, happens-before
edges, rollback annotation), the three export formats (Chrome trace,
HB graph, HTML), the determinism contract (byte-identical artifacts
between serial, parallel and cache-replayed runs), and the spans-JSONL
origin normalization that makes worker spans orderable in the parent.
"""

import json

import pytest

from repro.clean import run_clean
from repro.diagnostics import AccessSite, RaceReport
from repro.exec.checkpoint import CheckpointStore
from repro.exec.job import Job, run_job_traced
from repro.exec.runner import JobRunner
from repro.obs import (
    SPANS_FORMAT_VERSION,
    TIMELINE_FORMAT_VERSION,
    JsonlExporter,
    TimelineRecorder,
    TimelineSink,
    Tracer,
    build_hb_graph,
    chrome_trace,
    hb_graph_dot,
    read_jsonl,
    render_html,
    telemetry_scope,
    validate_chrome_trace,
    write_forensics,
)
from repro.runtime import (
    Acquire,
    Join,
    Lock,
    Program,
    Read,
    Release,
    Spawn,
    Write,
)
from repro.workloads import build_program
from repro.workloads.suite import get_benchmark

# dedup@racy with seed 0 races deterministically under the default
# RoundRobin + Kendo policy; lu_ncb is its race-free counterpart.
RACY = ("dedup", True, 0)
CLEAN = ("lu_ncb", False, 0)


def _record(name, racy, seed, **kwargs):
    recorder = TimelineRecorder(label=name)
    program = build_program(
        get_benchmark(name), scale="test", racy=racy, seed=seed
    )
    result = run_clean(program, timeline=recorder, **kwargs)
    return recorder.to_payload(), result


@pytest.fixture(scope="module")
def racy_payload():
    payload, result = _record(*RACY)
    assert result.race is not None
    return payload


@pytest.fixture(scope="module")
def clean_payload():
    payload, result = _record(*CLEAN)
    assert result.race is None
    return payload


# ---------------------------------------------------------------------------
# recorder semantics


class TestRecorder:
    def test_locked_counter_program(self):
        """Hand-built program: 2 children under one lock -> fork, join
        and release->acquire edges with the documented region indices."""
        lock = Lock("L")

        def worker(ctx, base):
            yield Acquire(lock)
            v = yield Read(base, 8)
            yield Write(base, 8, v + 1)
            yield Release(lock)

        def main(ctx):
            base = ctx.alloc(8)
            kids = []
            for _ in range(2):
                kids.append((yield Spawn(worker, (base,))))
            for k in kids:
                yield Join(k)

        recorder = TimelineRecorder(label="locked")
        result = run_clean(Program(main), timeline=recorder)
        assert result.race is None
        payload = recorder.to_payload()
        assert payload["format"] == TIMELINE_FORMAT_VERSION
        assert [t["tid"] for t in payload["threads"]] == [0, 1, 2]
        kinds = {e["kind"] for e in payload["edges"]}
        assert {"fork", "join", "lock"} <= kinds
        forks = [e for e in payload["edges"] if e["kind"] == "fork"]
        assert [(e["src"][0], e["dst"][0], e["dst"][1]) for e in forks] == [
            (0, 1, 0),
            (0, 2, 0),
        ]
        # The second acquirer's edge comes from the first releaser.
        locks = [e for e in payload["edges"] if e["kind"] == "lock"]
        assert locks and all(e["src"][0] != e["dst"][0] for e in locks)
        # Logical timestamps strictly increase through the event list.
        lts = [e["lt"] for e in payload["events"]]
        assert lts == sorted(lts) and len(set(lts)) == len(lts)
        # Every closed segment is well-formed.
        for seg in payload["segments"]:
            assert seg["start"] <= seg["end"]
            assert seg["aborted"] is False

    def test_segments_cover_every_thread(self, racy_payload):
        seg_tids = {s["tid"] for s in racy_payload["segments"]}
        assert seg_tids == {t["tid"] for t in racy_payload["threads"]}

    def test_race_event_and_report_attached(self, racy_payload):
        (race_event,) = [
            e for e in racy_payload["events"] if e["kind"] == "race"
        ]
        assert race_event["lt"] == max(e["lt"] for e in racy_payload["events"])
        report = racy_payload["race_report"]
        assert report is not None
        assert report["kind"] == racy_payload["race"]["kind"]
        assert report["current"]["tid"] == racy_payload["race"]["accessing_tid"]
        assert "race on address" in report["text"]

    def test_rollback_marks_aborted_segment(self):
        payload, result = _record(*RACY, recovery="rollback-retry")
        assert result.race is None  # recovered
        assert payload["recovery"]["races"] >= 1
        aborted = [s for s in payload["segments"] if s["aborted"]]
        assert aborted
        tid = aborted[0]["tid"]
        retried = [
            s
            for s in payload["segments"]
            if s["tid"] == tid
            and s["region"] == aborted[0]["region"]
            and not s["aborted"]
        ]
        assert retried and retried[0]["retry"] >= 1
        assert any(e["kind"] == "rollback" for e in payload["events"])

    def test_payload_is_json_safe(self, racy_payload):
        # Tuples would survive the worker pipe but not the checkpoint
        # JSON round trip; the payload must already be tuple-free.
        roundtrip = json.loads(json.dumps(racy_payload))
        assert roundtrip == racy_payload


# ---------------------------------------------------------------------------
# Chrome trace export


class TestChromeTrace:
    def test_valid_and_loadable_shape(self, racy_payload):
        trace = chrome_trace(racy_payload)
        assert validate_chrome_trace(trace) == []
        events = trace["traceEvents"]
        phases = {e["ph"] for e in events}
        assert {"M", "X", "i", "s", "f"} <= phases
        # One duration event per closed SFR segment.
        xs = [e for e in events if e["ph"] == "X"]
        assert len(xs) == len(racy_payload["segments"])
        assert all(e["dur"] >= 0 and e["cat"] == "sfr" for e in xs)
        # The race shows up as a global-scoped instant event.
        assert any(
            e["ph"] == "i" and e.get("cat") == "race" for e in events
        )
        # Flow events pair up s/f under shared ids, one per HB edge.
        starts = [e for e in events if e["ph"] == "s"]
        ends = [e for e in events if e["ph"] == "f"]
        assert len(starts) == len(ends) == len(racy_payload["edges"])

    def test_validator_catches_damage(self, clean_payload):
        trace = chrome_trace(clean_payload)
        assert validate_chrome_trace(trace) == []
        broken = json.loads(json.dumps(trace))
        del broken["traceEvents"][5]["ts"]
        assert validate_chrome_trace(broken)
        unpaired = json.loads(json.dumps(trace))
        unpaired["traceEvents"] = [
            e for e in unpaired["traceEvents"] if e["ph"] != "f"
        ]
        assert any("flow" in err for err in validate_chrome_trace(unpaired))
        assert validate_chrome_trace({"traceEvents": []})
        assert validate_chrome_trace([])

    def test_rejects_future_timeline_format(self, clean_payload):
        future = dict(clean_payload, format=TIMELINE_FORMAT_VERSION + 1)
        with pytest.raises(ValueError):
            chrome_trace(future)
        with pytest.raises(ValueError):
            build_hb_graph(future)
        with pytest.raises(ValueError):
            render_html(future)


# ---------------------------------------------------------------------------
# happens-before graph


class TestHbGraph:
    def test_racy_pair_has_no_hb_path(self, racy_payload):
        graph = build_hb_graph(racy_payload)
        pair = graph["pair"]
        assert pair is not None and pair["approx"] is False
        report = racy_payload["race_report"]
        assert pair["current"] == [
            report["current"]["tid"],
            report["current"]["region_index"],
        ]
        assert pair["previous"] == [
            report["previous"]["tid"],
            report["previous"]["region_index"],
        ]
        assert graph["ordered"] is False
        assert graph["hb_path"] is None

    def test_clean_run_is_fully_ordered_where_synced(self, clean_payload):
        graph = build_hb_graph(clean_payload)
        assert graph["pair"] is None and graph["ordered"] is None
        # Fork edges order the root's first region before every child.
        node_ids = {n["id"] for n in graph["nodes"]}
        assert "T0:R0" in node_ids
        fork_dsts = [
            e["dst"] for e in graph["edges"] if e["kind"] == "fork"
        ]
        assert fork_dsts

    def test_dot_highlights_pair(self, racy_payload):
        graph = build_hb_graph(racy_payload)
        dot = hb_graph_dot(graph)
        assert dot.startswith("digraph happens_before {")
        cur = graph["pair"]["current"]
        assert f"T{cur[0]}:R{cur[1]}" in dot
        assert "red" in dot


# ---------------------------------------------------------------------------
# HTML report


class TestHtml:
    def test_names_same_pair_as_race_report(self, racy_payload):
        graph = build_hb_graph(racy_payload)
        html = render_html(racy_payload, graph=graph)
        report = racy_payload["race_report"]
        assert html.lstrip().startswith("<!DOCTYPE html>")
        assert f"{report['address']:#x}" in html
        for side in ("current", "previous"):
            tid, region = report[side]["tid"], report[side]["region_index"]
            assert f"T{tid}" in html and f"SFR #{region}" in html
        assert report["text"].splitlines()[0] in html
        assert "<svg" in html and "</svg>" in html
        # Self-contained: no external scripts, styles, or fetches
        # (the SVG xmlns URI is an identifier, not a fetch).
        assert "<script src" not in html and "<link" not in html
        assert "fetch(" not in html and "XMLHttpRequest" not in html

    def test_recovery_and_hot_sites_panels(self):
        from repro.obs import SiteProfiler

        recorder = TimelineRecorder(label="dedup")
        profiler = SiteProfiler()
        program = build_program(
            get_benchmark("dedup"), scale="test", racy=True, seed=0
        )
        with telemetry_scope(sites=profiler):
            run_clean(program, timeline=recorder, recovery="rollback-retry")
        html = render_html(
            recorder.to_payload(), sites=profiler.to_payload()
        )
        assert "retried" in html or "quarantined" in html or "Recovery" in html
        assert "Hot sites" in html or "hot-site" in html.lower()

    def test_write_forensics_bundle(self, tmp_path, racy_payload):
        paths = write_forensics(tmp_path, "dedup", racy_payload)
        assert sorted(paths) == ["hb_dot", "hb_json", "html", "trace"]
        trace = json.loads((tmp_path / "dedup.trace.json").read_text())
        assert validate_chrome_trace(trace) == []
        hb = json.loads((tmp_path / "dedup.hb.json").read_text())
        assert hb["ordered"] is False


# ---------------------------------------------------------------------------
# determinism: the whole point of the logical clock


class TestDeterminism:
    JOBS = [
        Job(
            fn="repro.faults:chaos_job",
            config={
                "benchmark": name,
                "racy": racy,
                "seed": 0,
                "recovery": None,
            },
            name=f"{name}@{'racy' if racy else 'clean'}",
        )
        for name, racy in (("dedup", True), ("lu_ncb", False))
    ]

    def _timelines(self, workers, store=None):
        runner = JobRunner(
            workers=workers,
            record_timelines=True,
            store=store,
            tracer=Tracer(),
        )
        results = runner.run(self.JOBS)
        assert all(r.ok for r in results), [r.error for r in results]
        return runner.timelines

    def test_serial_parallel_and_cache_replay_identical(self, tmp_path):
        serial = self._timelines(1)
        parallel = self._timelines(4)
        assert json.dumps(serial, sort_keys=True) == json.dumps(
            parallel, sort_keys=True
        )
        store = CheckpointStore(tmp_path / "cache")
        cold = self._timelines(4, store=store)
        warm = self._timelines(1, store=store)
        assert json.dumps(cold, sort_keys=True) == json.dumps(
            warm, sort_keys=True
        )
        assert json.dumps(serial, sort_keys=True) == json.dumps(
            cold, sort_keys=True
        )
        # And the exports built from them are byte-identical too.
        p = serial[0]["timelines"][0]
        q = json.loads(json.dumps(warm[0]["timelines"][0]))
        assert json.dumps(chrome_trace(p), sort_keys=True) == json.dumps(
            chrome_trace(q), sort_keys=True
        )
        assert json.dumps(build_hb_graph(p), sort_keys=True) == json.dumps(
            build_hb_graph(q), sort_keys=True
        )

    def test_recovery_mode_does_not_perturb_race_free_timeline(self):
        plain, _ = _record(*CLEAN)
        recovered, _ = _record(*CLEAN, recovery="rollback-retry")
        # The recovery field differs by construction (a report exists);
        # the recorded execution - and thus every export - must not.
        assert json.dumps(chrome_trace(plain), sort_keys=True) == json.dumps(
            chrome_trace(recovered), sort_keys=True
        )
        assert json.dumps(
            build_hb_graph(plain), sort_keys=True
        ) == json.dumps(build_hb_graph(recovered), sort_keys=True)

    def test_repeated_runs_byte_identical(self, racy_payload):
        again, _ = _record(*RACY)
        assert json.dumps(again, sort_keys=True) == json.dumps(
            racy_payload, sort_keys=True
        )


# ---------------------------------------------------------------------------
# ambient sink / chaos integration


class TestIntegration:
    def test_ambient_sink_collects_runs(self):
        sink = TimelineSink()
        with telemetry_scope(timeline=sink):
            _, r1 = (
                run_clean(
                    build_program(
                        get_benchmark("lu_ncb"), scale="test", racy=False, seed=0
                    )
                ),
                None,
            )
            run_clean(
                build_program(
                    get_benchmark("dedup"), scale="test", racy=True, seed=0
                )
            )
        assert len(sink.payloads) == 2
        assert sink.payloads[0]["race"] is None
        assert sink.payloads[1]["race"] is not None
        assert sink.payloads[1]["race_report"] is not None

    def test_raise_on_race_still_delivers_payload(self):
        from repro.core.exceptions import RaceException

        sink = TimelineSink()
        with telemetry_scope(timeline=sink):
            with pytest.raises(RaceException):
                run_clean(
                    build_program(
                        get_benchmark("dedup"), scale="test", racy=True, seed=0
                    ),
                    raise_on_race=True,
                )
        assert len(sink.payloads) == 1
        assert sink.payloads[0]["race"] is not None

    def test_run_job_traced_ships_timelines(self):
        job = Job(
            fn="repro.faults:chaos_job",
            config={"benchmark": "dedup", "racy": True, "seed": 0},
        )
        _, telem = run_job_traced(job, timelines=True)
        assert len(telem["timelines"]) == 1
        assert telem["timelines"][0]["format"] == TIMELINE_FORMAT_VERSION
        _, telem = run_job_traced(job)
        assert telem["timelines"] is None

    def test_race_report_artifact_links(self):
        site = AccessSite(1, 5, 2, True, 0x10, 8)
        report = RaceReport("RAW", 0x10, site, None)
        linked = report.with_artifacts({"html": "out/r.html"})
        assert "out/r.html" in linked.render()
        assert linked.to_payload()["artifacts"] == {"html": "out/r.html"}
        assert report.artifacts is None  # original untouched


# ---------------------------------------------------------------------------
# spans JSONL: origin normalization + versioning (satellite of this PR)


class TestSpansOrigin:
    def test_records_are_origin_relative(self):
        tracer = Tracer()
        with tracer.span("work"):
            pass
        record = tracer.finished[0].to_record(tracer.origin)
        assert 0 <= record["start"] <= record["end"] < 60.0

    def test_ingest_rebases_worker_spans_onto_parent_axis(self):
        parent = Tracer()
        with parent.span("runner.job", id="j1"):
            worker = Tracer()
            with worker.span("job.run"):
                pass
            records = [s.to_record(worker.origin) for s in worker.finished]
        job_span = parent.finished[-1]
        at = job_span.start - parent.origin
        parent.ingest(records, at=at, job="j1")
        ingested = parent.ingested[0]
        # The worker span now sits inside the parent-side job window.
        assert ingested["start"] >= at
        assert ingested["end"] <= (job_span.end - parent.origin) + 1e-6

    def test_runner_merge_orders_worker_spans(self):
        runner = JobRunner(workers=2, tracer=Tracer())
        jobs = [
            Job(fn="tests._runner_jobs:double", config={"x": i}, name=f"d{i}")
            for i in range(2)
        ]
        results = runner.run(jobs)
        assert all(r.ok for r in results)
        ingested = [
            r for r in runner.tracer.ingested if r.get("name") == "job.run"
        ]
        assert len(ingested) == 2
        job_spans = {
            s.attrs["job"]: s for s in runner.tracer.spans_named("runner.job")
        }
        origin = runner.tracer.origin
        for record in ingested:
            parent_span = job_spans[record["attrs"]["job"]]
            assert record["start"] >= parent_span.start - origin - 1e-6
            assert record["end"] <= parent_span.end - origin + 1e-6

    def test_read_jsonl_rejects_future_major(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text(
            json.dumps(
                {"type": "header", "format": SPANS_FORMAT_VERSION + 1}
            )
            + "\n"
        )
        with pytest.raises(ValueError):
            read_jsonl(str(path))
        # Headerless legacy files still load.
        legacy = tmp_path / "legacy.jsonl"
        legacy.write_text(json.dumps({"type": "span", "name": "x"}) + "\n")
        assert read_jsonl(str(legacy))[0]["name"] == "x"

    def test_exporter_writes_header_once(self, tmp_path):
        path = tmp_path / "tel.jsonl"
        with JsonlExporter(str(path)) as exporter:
            tracer = Tracer(exporter)
            exporter.export_header()  # idempotent
            tracer.event("marker")
        records = read_jsonl(str(path))
        assert [r["type"] for r in records] == ["header", "span"]
        assert records[0]["format"] == SPANS_FORMAT_VERSION
