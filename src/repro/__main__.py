"""Command-line interface: ``python -m repro <command>``.

Commands
--------
report [--fast] [--jobs N] [--no-cache] [--cache-dir DIR] [--timeout S]
       [--retries N] [--inject-failure BENCH] [--telemetry OUT.jsonl]
       [--status PATH] [--serve PORT] [--prom PATH] [--sites]
    Regenerate every table/figure of the paper (EXPERIMENTS.md content).
    Runs per-benchmark jobs through the fault-tolerant runner
    (repro.exec): ``--jobs N`` fans out across worker processes, the
    checkpoint cache makes interrupted runs resume, and failed jobs
    degrade to FAILED table rows plus a non-zero exit.  Workers ship
    their telemetry back with each result, so the merged counters match
    a serial run.  ``--status`` republishes live progress as JSON,
    ``--serve`` exposes /metrics + /status over HTTP during the run,
    ``--prom`` writes a final Prometheus snapshot, and ``--sites``
    prints the merged hot-site attribution table.
experiment NAME [--scale S]
    Run one experiment: sec62, fig6, fig7, fig8, table1, fig9, fig10,
    fig11, ablations.
check PROGRAM_KIND [--seeds N] [--json] [--telemetry OUT.jsonl]
    Quick demos on built-in programs: ``racy`` / ``war`` / ``torn``.
bench NAME [--scale S] [--seed K] [--racy] [--json] [--telemetry OUT.jsonl]
    Run one workload model under full CLEAN and print its summary.
profile NAME [--scale S] [--seed K] [--format text|json|prom] [--sites]
        [--serve PORT] [--telemetry OUT.jsonl]
    Run one workload under the full stack with the telemetry monitor
    attached and dump every runtime/detector counter.  The special
    name ``report`` profiles the fast report's job sweep instead,
    surfacing the ``runner.*`` counters (``--jobs N`` to fan out) and
    the ``clean.*`` counters merged back from the workers.  ``--sites``
    adds the hot-site attribution tables, ``--serve`` exposes /metrics
    over HTTP during the run, and ``--format prom`` emits the final
    snapshot as Prometheus text.
trace NAME OUT.trace [--scale S] [--seed K] [--racy]
    Record a benchmark's access trace to a binary trace file
    (record-only, so racy variants capture the race for offline
    analysis).  Every path gets the binary format; JSON-lines traces
    from older versions are no longer read, so re-record them.
analyze TRACE [--mode scalar|batch] [--salvage] [--hot-sites K] [--json]
    Race-analyze a recorded trace offline: by default the vectorized
    check_block kernel, which takes each long segment alone and joins
    runs of short ones, or the scalar reference loop; both modes
    report identical verdicts, racing pairs and clean.* counters.
    ``--hot-sites K`` ranks the K most-accessed shared addresses.
    Exits 1 when a race is found, 2 when the trace cannot be read or
    replayed.
serve [--host H] [--port P] [--workers N] [--queue-size N] [--quota T]
      [--mode batch|scalar] [--spool DIR] [--for SECONDS]
      [--sample-interval S] [--retention N] [--slo CONFIG]
      [--no-collector]
    Run the race-checking ingestion daemon: clients POST binary traces
    to /submit (CRC-validated on ingest) and poll /result/<id> or
    /report/<id> for verdicts; a bounded queue sheds load with 429 +
    Retry-After, per-tenant token quotas gate admission, and /metrics
    + /status expose the service counters live (fleet totals plus
    per-tenant ``{tenant="..."}`` series).  A collector thread samples
    every counter into ring buffers exposed at /timeseries, the SLO
    burn-rate engine serves /alerts, and /dashboard renders the
    self-contained HTML fleet dashboard.  See docs/service.md.
slo [--config FILE] [--timeseries FILE] [--json]
    Evaluate SLO burn-rate alerts offline from a scraped /timeseries
    artifact — same engine, same verdicts as the live /alerts endpoint.
    ``--config`` loads declarative objectives (JSON; default: the
    built-in availability / latency-p99 / shed-rate set).  Exits 1
    when any objective is firing.
simulate TRACE.trace [--mode clean|epoch1|epoch4] [--unit clean|precise]
         [--telemetry OUT.jsonl]
    Replay a recorded trace on the hardware simulator.
chaos [--seed N] [--faults KINDS] [--jobs N] [--watchdog S]
      [--workdir DIR] [--report PATH] [--forensics DIR] [--json]
    Inject faults (trace-bitflip, checkpoint-truncate, worker-crash,
    worker-hang, monitor-raise) under a seeded plan and assert the
    recovery invariants end to end: every fault detected and survived,
    no hang, surviving results deterministic across two passes.  Exits
    non-zero only if an invariant fails (see docs/robustness.md).
    ``--forensics DIR`` attaches a full forensics bundle per chaos job.
forensics NAME [--racy] [--scale S] [--seed K] [--recovery MODE]
          [--out DIR] [--validate] [--json]
    Run one workload under CLEAN with the execution flight recorder on
    and write the forensics bundle: a Perfetto-loadable Chrome-trace
    JSON, a happens-before graph (DOT + JSON) with the racing pair
    highlighted, and a self-contained HTML race report.  All artifacts
    use logical timestamps, so re-running the command produces
    byte-identical files.  ``--validate`` re-checks the emitted Chrome
    trace against the trace-event schema and fails loudly on drift.
list
    List the modelled benchmarks and their characteristics.

``--json`` prints a machine-readable result on stdout (same exit code);
``--telemetry`` writes a JSONL timeline of spans plus a final metrics
snapshot (see docs/observability.md for the schema).
"""

from __future__ import annotations

import argparse
import json
import sys

#: Schema major stamped into every ``--format json`` profile payload.
PROFILE_FORMAT_VERSION = 1


def _telemetry_session(args: argparse.Namespace):
    """(registry, tracer, exporter) for a command run; exporter may be None."""
    from .obs import JsonlExporter, MetricsRegistry, Tracer

    exporter = None
    if getattr(args, "telemetry", None):
        exporter = JsonlExporter(args.telemetry)
    return MetricsRegistry(), Tracer(exporter), exporter


def _close_telemetry(exporter, registry) -> None:
    if exporter is not None:
        exporter.export_metrics(registry)
        exporter.close()


def _input_error(exc: Exception) -> int:
    """Report an unreadable input or a bad argument on one stderr line;
    exit code 2."""
    print(f"error: {exc}", file=sys.stderr)
    return 2


def _cmd_report(args: argparse.Namespace) -> int:
    from .experiments import report

    argv = []
    if args.fast:
        argv.append("--fast")
    if args.telemetry:
        argv.extend(["--telemetry", args.telemetry])
    argv.extend(["--jobs", str(args.jobs)])
    if args.no_cache:
        argv.append("--no-cache")
    argv.extend(["--cache-dir", args.cache_dir])
    if args.timeout is not None:
        argv.extend(["--timeout", str(args.timeout)])
    argv.extend(["--retries", str(args.retries)])
    if args.inject_failure:
        argv.extend(["--inject-failure", args.inject_failure])
    if args.status:
        argv.extend(["--status", args.status])
    if args.serve is not None:
        argv.extend(["--serve", str(args.serve)])
    if args.prom:
        argv.extend(["--prom", args.prom])
    if args.sites:
        argv.append("--sites")
    if args.forensics:
        argv.extend(["--forensics", args.forensics])
    return report.main(argv)


def _cmd_experiment(args: argparse.Namespace) -> int:
    from .experiments import (
        ablations,
        fig6_software,
        fig7_freq,
        fig8_vector,
        fig9_hardware,
        fig10_breakdown,
        fig11_epochsize,
        sec62_detection,
        table1_rollover,
    )

    table = {
        "sec62": sec62_detection,
        "fig6": fig6_software,
        "fig7": fig7_freq,
        "fig8": fig8_vector,
        "table1": table1_rollover,
        "fig9": fig9_hardware,
        "fig10": fig10_breakdown,
        "fig11": fig11_epochsize,
        "ablations": ablations,
    }
    module = table.get(args.name)
    if module is None:
        print(f"unknown experiment {args.name!r}; one of {sorted(table)}")
        return 2
    module.main()
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from .clean import run_clean
    from .obs import TelemetryMonitor
    from .runtime import RandomPolicy
    from .workloads import spilled_switch_program, torn_write_program

    if args.kind == "torn":
        make = torn_write_program
    elif args.kind == "racy":
        make = spilled_switch_program
    else:
        print(f"unknown program kind {args.kind!r}; one of racy, torn")
        return 2
    registry, tracer, exporter = _telemetry_session(args)
    per_seed = []
    with tracer.span("check", kind=args.kind, seeds=args.seeds):
        for seed in range(args.seeds):
            telemetry = TelemetryMonitor(registry=registry)
            recorder = None
            if args.forensics:
                from .obs import TimelineRecorder

                recorder = TimelineRecorder(label=f"{args.kind}_seed{seed}")
            with tracer.span("check.seed", seed=seed) as span:
                result = run_clean(
                    make(),
                    policy=RandomPolicy(seed),
                    registry=registry,
                    extra_monitors=[telemetry],
                    timeline=recorder,
                )
                span.set("race", str(result.race) if result.race else None)
            entry = {"seed": seed,
                     "race": str(result.race) if result.race else None}
            if recorder is not None:
                from .obs import write_forensics

                entry["forensics"] = write_forensics(
                    args.forensics, recorder.label, recorder.to_payload()
                )
            per_seed.append(entry)
    stopped = sum(1 for entry in per_seed if entry["race"] is not None)
    _close_telemetry(exporter, registry)
    if args.json:
        print(json.dumps({
            "kind": args.kind,
            "seeds": args.seeds,
            "stopped": stopped,
            "runs": per_seed,
            "metrics": registry.snapshot(),
        }, sort_keys=True))
        return 0
    for entry in per_seed:
        if entry["race"] is not None:
            print(f"seed {entry['seed']}: {entry['race']}")
        else:
            print(f"seed {entry['seed']}: completed")
    print(f"\nstopped {stopped}/{args.seeds} schedules")
    if args.forensics:
        print(f"forensics bundles written under {args.forensics}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from .swclean import run_software_clean
    from .workloads import get_benchmark

    spec = get_benchmark(args.name)
    registry, tracer, exporter = _telemetry_session(args)
    if args.racy:
        from .clean import run_clean
        from .obs import TelemetryMonitor
        from .runtime import RandomPolicy
        from .workloads import build_program

        with tracer.span("bench.racy", benchmark=spec.name, seed=args.seed):
            result = run_clean(
                build_program(spec, scale=args.scale, racy=True, seed=args.seed),
                policy=RandomPolicy(args.seed),
                max_threads=24,
                registry=registry,
                extra_monitors=[TelemetryMonitor(registry=registry)],
            )
        _close_telemetry(exporter, registry)
        if args.json:
            print(json.dumps({
                "benchmark": spec.name,
                "racy": True,
                "race": str(result.race) if result.race else None,
                "metrics": registry.snapshot(),
            }, sort_keys=True))
            return 0
        print(f"{spec.name} (racy variant): race = {result.race}")
        return 0
    with tracer.span("bench", benchmark=spec.name, scale=args.scale):
        run = run_software_clean(
            spec, scale=args.scale, seed=args.seed, registry=registry
        )
    _close_telemetry(exporter, registry)
    if args.json:
        print(json.dumps({
            "benchmark": run.benchmark,
            "suite": spec.suite,
            "style": spec.style,
            "scale": run.scale,
            "t0_instructions": run.t0,
            "shared_accesses": run.shared_accesses,
            "shared_access_density": run.shared_access_density,
            "slowdown_detsync": run.slowdown_detsync,
            "slowdown_detection": run.slowdown_detection,
            "slowdown_full": run.slowdown_full,
            "rollovers": run.rollovers,
            "metrics": registry.snapshot(),
        }, sort_keys=True))
        return 0
    print(f"benchmark            {run.benchmark} ({spec.suite}, {spec.style})")
    print(f"scale                {run.scale}")
    print(f"baseline time        {run.t0:.0f} instructions")
    print(f"shared accesses      {run.shared_accesses}")
    print(f"shared density       {run.shared_access_density:.3f} /instr")
    print(f"det-sync slowdown    {run.slowdown_detsync:.2f}x")
    print(f"detection slowdown   {run.slowdown_detection:.2f}x")
    print(f"full CLEAN slowdown  {run.slowdown_full:.2f}x")
    print(f"rollovers            {run.rollovers}")
    return 0


def _profile_format(args: argparse.Namespace) -> str:
    """Resolve ``--format``; ``--json`` stays as a back-compat alias."""
    if getattr(args, "format", None):
        return args.format
    return "json" if getattr(args, "json", False) else "text"


def _cmd_profile(args: argparse.Namespace) -> int:
    if args.name == "report":
        return _cmd_profile_report(args)
    from .clean import clean_stack
    from .determinism.counters import PreciseCounter
    from .obs import (
        SiteProfiler,
        TelemetryMonitor,
        TelemetryServer,
        render_prom,
        telemetry_scope,
    )
    from .runtime import RoundRobinPolicy
    from .workloads import build_program, get_benchmark

    fmt = _profile_format(args)
    spec = get_benchmark(args.name)
    registry, tracer, exporter = _telemetry_session(args)
    server = None
    if args.serve is not None:
        server = TelemetryServer(registry=registry, port=args.serve)
        server.start()
        print(f"[serving] http://127.0.0.1:{server.port}/metrics", flush=True)
    profiler = SiteProfiler() if args.sites else None
    program = build_program(spec, scale=args.scale, racy=False, seed=args.seed)
    # The scope makes the profiler ambient, so the CleanMonitor built by
    # clean_stack picks it up without signature changes.
    try:
        with telemetry_scope(registry=registry, tracer=tracer, sites=profiler):
            monitors, _clean, _gate = clean_stack(
                registry=registry, max_threads=24
            )
            monitors.append(TelemetryMonitor(registry=registry, tracer=tracer))
            with tracer.span("profile", benchmark=spec.name, scale=args.scale):
                result = program.run(
                    policy=RoundRobinPolicy(),
                    monitors=monitors,
                    max_threads=24,
                    counter_cost=PreciseCounter(),
                )
        _close_telemetry(exporter, registry)
    finally:
        # Always through finally: an exception mid-run must not leak the
        # bound socket and its daemon thread (stop() is idempotent).
        if server is not None:
            server.stop()
    if fmt == "json":
        payload = {
            "format": PROFILE_FORMAT_VERSION,
            "benchmark": spec.name,
            "scale": args.scale,
            "race": str(result.race) if result.race else None,
            "metrics": registry.snapshot(),
        }
        if profiler is not None:
            payload["sites"] = profiler.to_payload()
        print(json.dumps(payload, sort_keys=True))
        return 0
    if fmt == "prom":
        print(render_prom(registry), end="")
        return 0
    print(f"== telemetry profile: {spec.name} (scale={args.scale}) ==\n")
    print(registry.render())
    if profiler is not None:
        print()
        print(profiler.render())
    if result.race is not None:
        print(f"\nrace: {result.race}")
    return 0


def _cmd_profile_report(args: argparse.Namespace) -> int:
    """``profile report``: the fast report through a job runner, then
    every counter — the ``runner.*`` family shows the sweep's shape
    (submitted / executed / cache hits / retries / failures and the
    wall/CPU seconds spent in jobs), and the merged worker telemetry
    surfaces the ``clean.*`` detector counters."""
    from .exec import JobRunner
    from .experiments.report import run_all
    from .obs import TelemetryServer, render_prom

    fmt = _profile_format(args)
    registry, tracer, exporter = _telemetry_session(args)
    runner = JobRunner(
        workers=getattr(args, "jobs", 1),
        registry=registry,
        tracer=tracer,
        profile_sites=args.sites,
    )
    server = None
    if args.serve is not None:
        server = TelemetryServer(
            registry=registry,
            status_fn=runner.status_snapshot,
            port=args.serve,
        )
        server.start()
        print(f"[serving] http://127.0.0.1:{server.port}/metrics "
              f"and /status", flush=True)
    try:
        with tracer.span("profile.report", jobs=runner.workers):
            results = run_all(fast=True, tracer=tracer, runner=runner)
    finally:
        if server is not None:
            server.stop()
    _close_telemetry(exporter, registry)
    if fmt == "json":
        payload = {
            "format": PROFILE_FORMAT_VERSION,
            "experiments": [r.experiment for r in results],
            "runner": runner.stats,
            "metrics": registry.snapshot(),
        }
        if runner.sites is not None:
            payload["sites"] = runner.sites.to_payload()
        print(json.dumps(payload, sort_keys=True))
        return 0
    if fmt == "prom":
        print(render_prom(registry), end="")
        return 0
    print(f"== telemetry profile: report (jobs={runner.workers}) ==\n")
    print(registry.render())
    if runner.sites is not None:
        print()
        print(runner.sites.render())
    print(f"\n[runner] {runner.summary()}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .experiments.traces import record_trace
    from .workloads import get_benchmark

    trace = record_trace(
        get_benchmark(args.name), scale=args.scale, seed=args.seed,
        racy=args.racy,
    )
    trace.save(args.out)
    print(
        f"wrote {trace.total_events} events "
        f"({trace.shared_accesses()} shared accesses, "
        f"{len(trace.thread_ids())} threads) to {args.out}"
    )
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from .analysis import analyze_trace

    try:
        report = analyze_trace(
            args.trace,
            mode=args.mode,
            salvage=args.salvage,
            hot_sites=args.hot_sites,
        )
    except (ValueError, OSError) as exc:
        return _input_error(exc)
    if args.json:
        print(json.dumps(report.to_payload(), sort_keys=True))
        return 1 if report.racy else 0
    print(
        f"analyzed {report.accesses} accesses / {report.syncs} syncs "
        f"across {report.threads} threads ({report.mode} mode)"
    )
    if report.racy:
        race = report.race
        where = (
            f" at access #{race['position']}"
            if race.get("position") is not None
            else ""
        )
        print(
            f"RACE: {race['kind']} on {race['address']:#x} "
            f"(tid {race['accessing_tid']} vs writer "
            f"tid {race['prior_writer_tid']}@{race['prior_writer_clock']})"
            + where
        )
    else:
        print("no race found")
    checks = report.counters.get("clean.checks", 0)
    print(f"  checks: {checks:.0f}  "
          f"(counters: {len(report.counters)} clean.* totals)")
    if report.hot_sites:
        print(f"hot sites (top {len(report.hot_sites)} by shared accesses):")
        print("  address       accesses  reads  writes  threads")
        for site in report.hot_sites:
            mark = "  <- racy" if site["racy"] else ""
            print(
                f"  {site['address']:#12x}  {site['accesses']:8d}  "
                f"{site['reads']:5d}  {site['writes']:6d}  "
                f"{site['threads']:7d}{mark}"
            )
    return 1 if report.racy else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import tempfile
    import time

    from .obs import load_slo_config
    from .service import RaceCheckService, ServeDaemon, SubmissionStore

    journal = args.journal if args.journal is not None else not args.no_journal

    if args.recover_only:
        # Dry run: replay the journal against the spool and report what
        # a real boot would do, touching nothing (the journal keeps its
        # torn tail, lost traces stay on disk).
        if not args.spool:
            print("repro serve --recover-only requires --spool", flush=True)
            return 2
        store = SubmissionStore(args.spool, journal=journal)
        report = store.recover(dry_run=True)
        store.close()
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0 if not report["lost"] else 1

    registry, tracer, exporter = _telemetry_session(args)
    slos = load_slo_config(args.slo) if args.slo else None
    spool = args.spool or tempfile.mkdtemp(prefix="repro-serve-")
    try:
        service = RaceCheckService(
            spool=spool,
            workers=args.workers,
            queue_size=args.queue_size,
            retries=args.retries,
            mode=args.mode,
            hot_sites=args.hot_sites,
            quota_tokens=args.quota,
            quota_refill_per_s=args.quota_refill,
            job_timeout=args.job_timeout,
            registry=registry,
            tracer=tracer,
            keep_traces=args.keep_traces,
            crash_every=args.chaos_crash_every,
            journal=journal,
            dedup=not args.no_dedup,
        )
    except ValueError as exc:
        return _input_error(exc)
    daemon = ServeDaemon(
        service,
        host=args.host,
        port=args.port,
        sample_interval_s=args.sample_interval,
        retention=args.retention,
        slos=slos,
        collect=not args.no_collector,
    )
    # SIGTERM/SIGINT start a graceful drain: admissions get 503 +
    # Retry-After immediately; in-flight work gets --drain-timeout
    # seconds to settle; whatever is left stays journaled for the next
    # boot.  A second signal during the drain is the impatient path —
    # the default handlers are restored, so it kills the process and
    # the journal carries the rest.
    draining = {"flag": False}

    def _on_signal(signum, frame):
        draining["flag"] = True
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.default_int_handler)

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)

    port = daemon.start()
    graceful = False
    try:
        recovery = service.recovery
        if recovery:
            print(
                "recovery: "
                f"resumed={len(recovery.get('resumed', []))} "
                f"restored={len(recovery.get('restored', []))} "
                f"lost={len(recovery.get('lost', []))}",
                flush=True,
            )
        print(
            f"repro serve listening on http://{args.host}:{port} "
            f"(workers={args.workers} queue={args.queue_size} "
            f"mode={args.mode} spool={spool})",
            flush=True,
        )
        print(
            "endpoints: POST /submit | GET /result/<id> /report/<id> "
            "/metrics /status /healthz /timeseries /alerts /dashboard",
            flush=True,
        )
        deadline = (
            time.monotonic() + args.for_seconds
            if args.for_seconds is not None
            else None
        )
        while not draining["flag"]:
            if deadline is not None and time.monotonic() >= deadline:
                break
            time.sleep(0.2)
        graceful = draining["flag"]
    except KeyboardInterrupt:
        graceful = True
    finally:
        if graceful:
            print(
                f"draining: admissions stopped, settling in-flight work "
                f"(up to {args.drain_timeout:.0f}s)",
                flush=True,
            )
            settled = daemon.drain(timeout=args.drain_timeout)
            daemon.stop_preserving()
            print(
                "drained cleanly"
                if settled
                else "drain timed out; unfinished work journaled for "
                     "the next boot",
                flush=True,
            )
        else:
            daemon.stop()
        _close_telemetry(exporter, registry)
    return 0


def _cmd_slo(args: argparse.Namespace) -> int:
    from .obs import (
        TimeSeriesStore,
        default_slos,
        evaluate_slos,
        load_slo_config,
        render_slo_text,
    )

    objectives = load_slo_config(args.config) if args.config else default_slos()
    with open(args.timeseries, "r", encoding="utf-8") as fh:
        store = TimeSeriesStore.from_payload(json.load(fh))
    report = evaluate_slos(store, objectives)
    if args.json:
        print(json.dumps(report, sort_keys=True))
    else:
        print(render_slo_text(report))
    return 0 if report["ok"] else 1


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .hardware import SimConfig, simulate_trace
    from .runtime.trace import open_trace

    registry, tracer, exporter = _telemetry_session(args)
    try:
        with tracer.span("simulate.load", trace=args.trace):
            # The trace streams chunk by chunk through the simulator.
            trace = open_trace(args.trace)
        if not trace.total_events:
            raise ValueError(f"{args.trace}: trace holds no events")
        with tracer.span("simulate.baseline"):
            base = simulate_trace(trace, SimConfig(detection=False))
        with tracer.span("simulate.detection", unit=args.unit, mode=args.mode):
            det = simulate_trace(
                trace,
                SimConfig(
                    detection=True, metadata_mode=args.mode,
                    check_unit=args.unit,
                ),
                registry=registry,
            )
    except (ValueError, OSError) as exc:
        _close_telemetry(exporter, registry)
        return _input_error(exc)
    registry.set_gauge("sim.baseline_cycles", base.cycles)
    registry.set_gauge("sim.slowdown", det.cycles / base.cycles)
    _close_telemetry(exporter, registry)
    print(f"baseline cycles   {base.cycles}")
    print(f"detection cycles  {det.cycles}  "
          f"({args.unit} unit, {args.mode} metadata)")
    print(f"slowdown          {det.cycles / base.cycles:.3f}x")
    return 0


def _cmd_forensics(args: argparse.Namespace) -> int:
    from .clean import run_clean
    from .obs import (
        SiteProfiler,
        TimelineRecorder,
        telemetry_scope,
        validate_chrome_trace,
        write_forensics,
    )
    from .obs.forensics import build_hb_graph, chrome_trace
    from .workloads import build_program, get_benchmark

    spec = get_benchmark(args.name)
    recorder = TimelineRecorder(label=spec.name)
    profiler = SiteProfiler()
    program = build_program(
        spec, scale=args.scale, racy=args.racy, seed=args.seed
    )
    # The ambient scope hands the profiler to the CleanMonitor, so the
    # HTML report's hot-site panel attributes the same run.
    with telemetry_scope(sites=profiler):
        result = run_clean(
            program,
            timeline=recorder,
            recovery=args.recovery,
            max_threads=24,
        )
    payload = recorder.to_payload()
    paths = write_forensics(
        args.out, spec.name, payload, sites=profiler.to_payload()
    )
    errors = []
    if args.validate:
        errors = validate_chrome_trace(chrome_trace(payload))
    graph = build_hb_graph(payload)
    summary = {
        "benchmark": spec.name,
        "racy": bool(args.racy),
        "race": str(result.race) if result.race else None,
        "pair": graph["pair"],
        "ordered": graph["ordered"],
        "artifacts": paths,
        "validation_errors": errors,
    }
    if args.json:
        print(json.dumps(summary, sort_keys=True))
        return 1 if errors else 0
    race_text = (payload.get("race_report") or {}).get("text")
    if race_text:
        print(race_text)
        verdict = (
            "no happens-before path connects the racing pair "
            "(the race is certified)"
            if graph["ordered"] is False
            else "the pair is ordered by synchronization"
        )
        print(f"  {verdict}")
    elif result.recovery is not None and not result.recovery.clean:
        print(f"{spec.name}: race(s) recovered "
              f"({result.recovery.races} event(s)); see the HTML report")
    else:
        print(f"{spec.name}: no race; timeline recorded")
    for name in sorted(paths):
        print(f"  {name}: {paths[name]}")
    if errors:
        print("Chrome-trace validation FAILED:")
        for err in errors[:10]:
            print(f"  {err}")
        return 1
    if args.validate:
        print("  chrome trace validated (ph/ts/pid/tid + flow pairing ok)")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    import tempfile

    from .faults import run_chaos
    from .obs import MetricsRegistry

    workdir = args.workdir or tempfile.mkdtemp(prefix="repro-chaos-")
    registry = MetricsRegistry()
    report = run_chaos(
        seed=args.seed,
        faults=args.faults,
        workdir=workdir,
        workers=args.jobs,
        watchdog=args.watchdog,
        registry=registry,
        forensics_dir=args.forensics,
    )
    if args.report:
        import shutil

        shutil.copyfile(f"{workdir}/chaos_report.json", args.report)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(f"chaos: seed={report['seed']} faults={','.join(report['faults'])}")
        for c in report["checks"]:
            state = (
                "ok"
                if c["detected"] and c["recovered"]
                else "NOT DETECTED" if not c["detected"] else "NOT RECOVERED"
            )
            target = f" -> {c['target']}" if "target" in c else ""
            print(f"  {c['fault']:<20s}{target:<18s} {state}")
        print(
            f"  deterministic: {'yes' if report['deterministic'] else 'NO'}; "
            f"report: {workdir}/chaos_report.json"
        )
    counters = {
        k: v
        for k, v in registry.snapshot().items()
        if k.startswith(("faults.", "trace.", "checkpoint."))
    }
    if counters and not args.json:
        for name in sorted(counters):
            print(f"  {name} = {counters[name]}")
    return 0 if report["ok"] else 1


def _cmd_list(args: argparse.Namespace) -> int:
    from .workloads import ALL_BENCHMARKS

    if args.measured:
        from .workloads import characterize

        print(f"{'name':<16s} {'density':<8s} {'sync/thr':<9s} "
              f"{'write%':<7s} {'wide%':<6s} footprint")
        for spec in ALL_BENCHMARKS:
            c = characterize(spec, scale=args.scale)
            print(
                f"{spec.name:<16s} {c.shared_density:<8.3f} "
                f"{c.sync_ops / c.threads:<9.1f} "
                f"{c.write_fraction * 100:<7.1f} "
                f"{c.wide_fraction * 100:<6.1f} {c.footprint_bytes}B"
            )
        return 0
    print(f"{'name':<16s} {'suite':<8s} {'style':<15s} "
          f"{'racy':<5s} {'density':<8s} notes")
    for spec in ALL_BENCHMARKS:
        notes = []
        if spec.byte_granular:
            notes.append("byte-granular")
        if spec.blocking_sync:
            notes.append("blocking-sync")
        if spec.hw_omitted:
            notes.append("hw-omitted")
        print(
            f"{spec.name:<16s} {spec.suite:<8s} {spec.style:<15s} "
            f"{'yes' if spec.racy else 'no':<5s} "
            f"{spec.shared_access_density:<8.3f} {', '.join(notes)}"
        )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="CLEAN (ISCA 2015) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def telemetry_flag(p):
        p.add_argument("--telemetry", metavar="OUT.jsonl", default=None,
                       help="write a JSONL span timeline + metrics snapshot")

    p = sub.add_parser("report", help="regenerate every table/figure")
    p.add_argument("--fast", action="store_true")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="worker processes for the per-benchmark jobs")
    p.add_argument("--no-cache", action="store_true",
                   help="ignore and do not write the checkpoint cache")
    p.add_argument("--cache-dir", default=".cache/experiments", metavar="DIR")
    p.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                   help="per-job timeout (needs process workers)")
    p.add_argument("--retries", type=int, default=2, metavar="N")
    p.add_argument("--inject-failure", metavar="BENCHMARK", default=None,
                   help="make BENCHMARK's jobs fail (degradation test)")
    p.add_argument("--status", metavar="PATH", default=None,
                   help="republish live run progress as JSON to PATH")
    p.add_argument("--serve", type=int, default=None, metavar="PORT",
                   help="serve /metrics + /status over HTTP during the run")
    p.add_argument("--prom", metavar="PATH", default=None,
                   help="write a final Prometheus text snapshot")
    p.add_argument("--sites", action="store_true",
                   help="hot-site attribution: print the merged top-K table")
    p.add_argument("--forensics", metavar="DIR", default=None,
                   help="record job timelines; write a forensics bundle "
                        "per raced run under DIR")
    telemetry_flag(p)
    p.set_defaults(fn=_cmd_report)

    p = sub.add_parser("experiment", help="run one experiment")
    p.add_argument("name")
    p.set_defaults(fn=_cmd_experiment)

    p = sub.add_parser("check", help="demo CLEAN on a built-in racy program")
    p.add_argument("kind", choices=["racy", "torn"])
    p.add_argument("--seeds", type=int, default=8)
    p.add_argument("--json", action="store_true",
                   help="machine-readable result on stdout")
    p.add_argument("--forensics", metavar="DIR", default=None,
                   help="write a forensics bundle per seed under DIR")
    telemetry_flag(p)
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("bench", help="run one workload under CLEAN")
    p.add_argument("name")
    p.add_argument("--scale", default="test")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--racy", action="store_true")
    p.add_argument("--json", action="store_true",
                   help="machine-readable result on stdout")
    telemetry_flag(p)
    p.set_defaults(fn=_cmd_bench)

    p = sub.add_parser(
        "profile",
        help="run one workload with full telemetry and dump every counter "
             "(the special name 'report' profiles the fast report's job "
             "sweep, surfacing the runner.* counters)",
    )
    p.add_argument("name")
    p.add_argument("--scale", default="test")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="worker processes ('report' profile only)")
    p.add_argument("--format", choices=["text", "json", "prom"], default=None,
                   help="output format (default: text)")
    p.add_argument("--json", action="store_true",
                   help="deprecated alias for --format json")
    p.add_argument("--sites", action="store_true",
                   help="hot-site attribution: collect and print the "
                        "top-K addresses/SFRs by race-check work")
    p.add_argument("--serve", type=int, default=None, metavar="PORT",
                   help="serve /metrics (+ /status for 'report') over "
                        "HTTP during the run; 0 picks an ephemeral port")
    telemetry_flag(p)
    p.set_defaults(fn=_cmd_profile)

    p = sub.add_parser("trace", help="record a workload's access trace")
    p.add_argument("name")
    p.add_argument("out")
    p.add_argument("--scale", default="test")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--racy", action="store_true",
                   help="record the seeded-race variant (for `analyze`)")
    p.set_defaults(fn=_cmd_trace)

    p = sub.add_parser(
        "analyze", help="race-analyze a recorded trace offline"
    )
    p.add_argument("trace")
    p.add_argument("--mode", default="batch",
                   choices=["scalar", "batch"],
                   help="scalar reference or the vectorized check_block "
                        "kernel (default)")
    p.add_argument("--salvage", action="store_true",
                   help="analyze the readable prefix of a damaged trace")
    p.add_argument("--hot-sites", type=int, default=0, metavar="K",
                   help="rank the top K shared addresses by access count "
                        "(0 = off)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser(
        "serve",
        help="run the race-checking ingestion daemon (POST /submit binary "
             "traces, poll /result/<id>)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="bind port (0 = pick an ephemeral port)")
    p.add_argument("--workers", type=int, default=2, metavar="N",
                   help="resident analysis worker processes")
    p.add_argument("--queue-size", type=int, default=32, metavar="N",
                   help="bounded ingest queue; full -> 429 queue_full")
    p.add_argument("--retries", type=int, default=1, metavar="N",
                   help="per-submission retries after a worker crash")
    p.add_argument("--mode", default="batch", choices=["batch", "scalar"],
                   help="analysis lane for each submission")
    p.add_argument("--hot-sites", type=int, default=8, metavar="K",
                   help="hot-site entries in each report (0 = off)")
    p.add_argument("--quota", type=int, default=None, metavar="TOKENS",
                   help="per-tenant submission budget "
                        "(default: unlimited)")
    p.add_argument("--quota-refill", type=float, default=0.0,
                   metavar="PER_S",
                   help="token refill rate; 0 makes --quota a hard budget")
    p.add_argument("--job-timeout", type=float, default=None, metavar="S",
                   help="kill an analysis worker stuck longer than S")
    p.add_argument("--spool", default=None, metavar="DIR",
                   help="upload spool directory (default: temp dir)")
    p.add_argument("--keep-traces", action="store_true",
                   help="keep spooled traces after analysis")
    p.add_argument("--journal", default=None, metavar="PATH",
                   help="write-ahead submission journal file "
                        "(default: <spool>/journal.clnj)")
    p.add_argument("--no-journal", action="store_true",
                   help="disable the write-ahead journal (submissions "
                        "do not survive a restart)")
    p.add_argument("--no-dedup", action="store_true",
                   help="disable the content-hashed verdict cache "
                        "(every upload hits the worker pool)")
    p.add_argument("--drain-timeout", type=float, default=30.0, metavar="S",
                   help="on SIGTERM/SIGINT: seconds to settle in-flight "
                        "work before journaling the rest (default: 30)")
    p.add_argument("--recover-only", action="store_true",
                   help="dry-run journal recovery against --spool, print "
                        "the report and exit (nothing is modified; exit 1 "
                        "when submissions would be lost)")
    p.add_argument("--chaos-crash-every", type=int, default=0, metavar="N",
                   help="fault injection: crash the worker on every Nth "
                        "submission (0 = off)")
    p.add_argument("--for", dest="for_seconds", type=float, default=None,
                   metavar="SECONDS",
                   help="serve for a fixed time then exit cleanly "
                        "(default: until Ctrl-C)")
    p.add_argument("--sample-interval", type=float, default=1.0, metavar="S",
                   help="collector sampling period for /timeseries "
                        "(default: 1.0s)")
    p.add_argument("--retention", type=int, default=600, metavar="N",
                   help="ring-buffer capacity: samples kept per series "
                        "(default: 600)")
    p.add_argument("--slo", default=None, metavar="CONFIG",
                   help="JSON SLO config for /alerts and /dashboard "
                        "(default: built-in objectives)")
    p.add_argument("--no-collector", action="store_true",
                   help="disable the time-series collector thread")
    telemetry_flag(p)
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser(
        "slo",
        help="evaluate SLO burn-rate alerts offline from a scraped "
             "/timeseries artifact (exit 1 when firing)",
    )
    p.add_argument("--timeseries", required=True, metavar="FILE",
                   help="JSON payload scraped from GET /timeseries")
    p.add_argument("--config", default=None, metavar="FILE",
                   help="JSON SLO config (default: built-in objectives)")
    p.add_argument("--json", action="store_true",
                   help="print the full alert document as JSON")
    p.set_defaults(fn=_cmd_slo)

    p = sub.add_parser("simulate", help="replay a trace on the hw simulator")
    p.add_argument("trace")
    p.add_argument("--mode", default="clean",
                   choices=["clean", "epoch1", "epoch4"])
    p.add_argument("--unit", default="clean", choices=["clean", "precise"])
    telemetry_flag(p)
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser(
        "chaos",
        help="inject faults end to end and assert every recovery invariant",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--faults",
        default="trace-bitflip,checkpoint-truncate,worker-crash",
        metavar="KINDS",
        help="comma-separated fault kinds (trace-bitflip, "
             "checkpoint-truncate, worker-crash, worker-hang, "
             "monitor-raise, daemon-kill)",
    )
    p.add_argument("--jobs", type=int, default=2, metavar="N",
                   help="worker processes for the chaos job passes")
    p.add_argument("--watchdog", type=float, default=3.0, metavar="SECONDS",
                   help="silent-worker window before the watchdog kills it")
    p.add_argument("--workdir", default=None, metavar="DIR",
                   help="working directory for artifacts (default: temp dir)")
    p.add_argument("--report", default=None, metavar="PATH",
                   help="copy the JSON chaos report to PATH")
    p.add_argument("--forensics", metavar="DIR", default=None,
                   help="record timelines and write a forensics bundle "
                        "per chaos job under DIR")
    p.add_argument("--json", action="store_true",
                   help="print the full report as JSON")
    p.set_defaults(fn=_cmd_chaos)

    p = sub.add_parser(
        "forensics",
        help="record one workload's execution timeline and write the "
             "Chrome-trace / happens-before-graph / HTML race bundle",
    )
    p.add_argument("name")
    p.add_argument("--racy", action="store_true",
                   help="run the benchmark's racy variant")
    p.add_argument("--scale", default="test")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--recovery", default=None,
                   choices=["abort", "quarantine", "rollback-retry"],
                   help="survive the race under this recovery mode "
                        "(annotated in the artifacts)")
    p.add_argument("--out", default="forensics", metavar="DIR",
                   help="output directory (default: ./forensics)")
    p.add_argument("--validate", action="store_true",
                   help="validate the emitted Chrome trace against the "
                        "trace-event schema")
    p.add_argument("--json", action="store_true",
                   help="machine-readable summary on stdout")
    p.set_defaults(fn=_cmd_forensics)

    p = sub.add_parser("list", help="list the modelled benchmarks")
    p.add_argument("--measured", action="store_true",
                   help="measure characteristics by running each model")
    p.add_argument("--scale", default="test")
    p.set_defaults(fn=_cmd_list)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
