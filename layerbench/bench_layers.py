"""Layer ledger: race-check verdicts timed end to end and layer by layer.

Four workloads, two paths to a verdict:

* ``svc_small`` / ``svc_mixed`` — ``python -m repro serve`` with its
  production defaults, driven by an open-loop generator and then held at
  saturation (see :mod:`loadgen`);
* ``analyze_long_sfr`` / ``analyze_sync_dense`` — ``python -m repro
  analyze TRACE --json``, one process per repetition.

Every verdict is checked against the scalar reference lane's answer,
computed when the seeded inputs were generated (see :mod:`inputs`).
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
inputs once plain and once under the layer wrappers of :mod:`layers` and
prints the per-layer metrics.  The last line of output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``; further
figures go to stderr and ``--out``.

Times are reported at *reference speed*.  On a shared host a vCPU's
effective speed swings by up to 2x within seconds (its host core is
shared with other guests), which spread raw medians 20-45% from run to
run.  A :mod:`gauge` process on each vCPU samples that speed all run
long, and every measured interval is scaled by the host's relative
speed around it (:class:`Speed`).  Raw figures are reported alongside,
and so is the time the hypervisor stole (:func:`steal_share`), which
the gauge cannot see.  See README.md.

    python3 layerbench/bench_layers.py --workload svc_small --seed 1 \\
        --seconds 15 --trace 0
    python3 layerbench/bench_layers.py --seed 1 --out runs.json   # all four
    python3 layerbench/bench_layers.py compare BASE.json NEW.json

``compare`` reads the bounds and directions from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

import numpy as np

from loadgen import Daemon, Generator, Request, vm_hwm_mb

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: Service workloads: Poisson arrival rate (requests/s), the upload mix
#: as one block of ten (blocks are shuffled, so every ten consecutive
#: requests hold exactly these shares), and the capacity the saturation
#: plan is sized for (verdicts/s; 3.5-7x what the reference host
#: reached).  A faster daemon runs the plan out early, and its capacity
#: is then measured up to the plan's last send (:func:`capacity_window`).
SERVICE = {
    "svc_small": {"rate": 25.0, "block": ("small",) * 10, "cap": 600},
    "svc_mixed": {
        "rate": 12.0,
        "block": ("small",) * 7 + ("large",) * 2 + ("repeat",),
        "cap": 150,
    },
}
#: Offline workloads: the input group each analyzes.
ANALYZE = {"analyze_long_sfr": "long_sfr", "analyze_sync_dense": "sync_dense"}
WORKLOADS = (*SERVICE, *ANALYZE)

OPEN_SHARE = 0.7      # of --seconds; the rest is the saturation phase
WARMUP_SHARE = 0.2    # of the saturation phase, left out of capacity
OUTSTANDING = 4       # submissions held in flight at saturation
REPEAT_AGE_S = 2.0    # a re-upload repeats a small upload this much older
SETUP_LAUNCHES = 3    # daemon launches per run; the last one is measured
SETUP_RUNS = 5        # CLI runs on the tiny trace per run
MIN_REPS = 3          # analyze repetitions even when --seconds runs out
COVERAGE_TOLERANCE = 0.05
MAX_LATENESS_MS = 20.0
#: The gauge's burst time on the reference host's vCPUs at full speed
#: (the 10th percentile of 1,180 bursts on an idle 2-vCPU KVM guest).
REFERENCE_BURST_S = 1.1e-3
#: Gauge samples this far either side of an interval set its speed.
SPEED_WINDOW_S = 1.0


def _pct(values: List[float], q: float) -> float:
    return float(np.percentile(values, q))


# -- host speed -----------------------------------------------------------------------


class Gauge:
    """A :mod:`gauge` process on every vCPU this process may use, running
    for the whole workload."""

    def __init__(self, run_dir: Path, env: Dict[str, str]) -> None:
        cpus = sorted(os.sched_getaffinity(0))
        self.files = [run_dir / f"gauge-{cpu}.txt" for cpu in cpus]
        self.procs = [
            subprocess.Popen([sys.executable, str(BENCH_DIR / "gauge.py"),
                              str(cpu), str(path)], cwd=str(ROOT), env=env)
            for cpu, path in zip(cpus, self.files)
        ]

    def read(self) -> "Speed":
        """The samples so far (the gauges keep running)."""
        samples = sorted(
            tuple(map(float, line.split()))
            for path in self.files if path.exists()
            for line in path.read_text().splitlines() if line.count(" ") == 1
        )
        return Speed(np.array([t for t, _ in samples]),
                     np.array([s for _, s in samples]))

    def stop(self) -> None:
        for proc in self.procs:
            proc.terminate()
        for proc in self.procs:
            proc.wait()


class Speed:
    """Gauge samples: turns a measured interval into reference-speed time."""

    def __init__(self, times: np.ndarray, bursts: np.ndarray) -> None:
        self.times, self.bursts = times, bursts

    def factor(self, start: float, end: float) -> float:
        """How much of ``[start, end]``'s wall time the reference host at
        full speed would have needed: the mean relative speed (reference
        burst over burst) of the gauge samples within
        :data:`SPEED_WINDOW_S`, pooled over the vCPUs.  A mean of speeds,
        not a median of bursts: when one vCPU runs slow and the other
        fast, the pooled median jumps between them while the work done
        tracks their summed speed."""
        lo = np.searchsorted(self.times, start - SPEED_WINDOW_S)
        hi = np.searchsorted(self.times, end + SPEED_WINDOW_S)
        near = self.bursts[lo:hi] if hi - lo >= 5 else self.bursts
        return float(np.mean(REFERENCE_BURST_S / near))

    def median_burst_ms(self) -> float:
        return float(np.median(self.bursts)) * 1e3


# -- the service workloads -------------------------------------------------------


def service_plans(workload: str, seed: int, seconds: float, cache: Any,
                  scratch: Path) -> Tuple[list, list]:
    """The open-loop schedule and the saturation sequence, from the seed."""
    # inputs and layers import repro, which main() puts on sys.path.
    from inputs import Uploads

    spec = SERVICE[workload]
    rng = random.Random(f"layer-ledger:{seed}:{workload}:plan")
    pools = {kind: Uploads(cache.group(kind), scratch)
             for kind in sorted(set(spec["block"]) - {"repeat"})}
    sent = {kind: 0 for kind in pools}
    kinds: List[str] = []

    def next_kind() -> str:
        if not kinds:
            kinds.extend(rng.sample(spec["block"], len(spec["block"])))
        return kinds.pop()

    def fresh(kind: str, at: Any) -> Request:
        uploads = pools[kind]
        sent[kind] += 1
        base = sent[kind] % len(uploads.entries)
        entry = uploads.entries[base]
        return Request(uploads.variant(base, sent[kind]), entry["verdict"],
                       entry["events"], kind, at)

    def repeat(of: List[Request], at: Any) -> Request:
        if not of:
            return fresh("small", at)
        old = rng.choice(of)
        return Request(old.body, old.verdict, old.events, "repeat", at)

    open_s = OPEN_SHARE * seconds
    open_plan: List[Request] = []
    at = rng.expovariate(spec["rate"])
    while at < open_s:
        kind = next_kind()
        if kind == "repeat":
            aged = [r for r in open_plan
                    if r.kind == "small" and r.at <= at - REPEAT_AGE_S]
            open_plan.append(repeat(aged, at))
        else:
            open_plan.append(fresh(kind, at))
        at += rng.expovariate(spec["rate"])
    small = [r for r in open_plan if r.kind == "small"]
    saturation = []
    for _ in range(int(spec["cap"] * (seconds - open_s)) + OUTSTANDING):
        kind = next_kind()
        saturation.append(repeat(small, None) if kind == "repeat"
                          else fresh(kind, None))
    return open_plan, saturation


def capacity_window(phases: Dict[str, Any], planned: int) -> Tuple[float, float]:
    """The saturation phase's capacity window: from the end of its
    warm-up to its end or, when the plan ran out first, to the send of
    its last request.  After that fewer than :data:`OUTSTANDING` are in
    flight and the daemon drains, so the tail does not count."""
    start, end = phases["start"], phases["end"]
    begin = start + WARMUP_SHARE * (end - start)
    sent = phases["saturation_sent"]
    if len(sent) == planned:
        end = min(end, max(r.post_sent for r in sent))
    return begin, end


def _replan(plan: list) -> list:
    """Fresh copies of a plan's requests, for a second pass."""
    return [Request(r.body, r.verdict, r.events, r.kind, r.at) for r in plan]


def service_pass(run: "Run", open_plan: list, saturation: list,
                 seconds: float, launches: int, traced: bool) -> Dict[str, Any]:
    """Launch the daemon ``launches`` times (the last one serves the
    load), run both phases, and collect what the generator saw."""
    tag = "traced" if traced else "plain"
    records = run.dir / f"records-{tag}"
    launched = []
    for i in range(launches):
        argv = [sys.executable, "-m", "repro", "serve"]
        if traced:
            argv = [sys.executable, str(BENCH_DIR / "traced.py"),
                    str(records), "serve"]
        argv += ["--port", "0", "--spool", str(run.dir / f"spool-{tag}-{i}")]
        daemon = Daemon(argv, ROOT, run.env, run.dir / f"serve-{tag}-{i}.log")
        launched.append((daemon.started, daemon.setup_s))
        if i < launches - 1:
            daemon.stop()
    saturation_s = seconds * (1 - OPEN_SHARE)
    try:
        phases = Generator(daemon.port, OUTSTANDING).run(
            open_plan, saturation, saturation_s
        )
        scraped = daemon.scrape()
        rss = daemon.peak_rss_mb()
    finally:
        daemon.stop()
    sent = phases["saturation_sent"]
    requests = open_plan + sent
    speed = run.gauge.read()
    done = [r for r in open_plan if r.ok]
    raw = [(r.seen - r.scheduled) * 1e3 for r in done]
    lateness = [(r.post_sent - r.scheduled) * 1e3 for r in open_plan]
    window, end = capacity_window(phases, len(saturation))
    problems = []
    if end <= window:
        problems.append("the saturation plan ran out during the warm-up; "
                        "raise its cap in SERVICE")
    settled = [r for r in sent if r.ok and window <= r.seen <= end]
    span = max(end - window, 1e-3)
    capacity = sum(r.events for r in settled) / span
    return {
        "setup_s": statistics.median(
            s * speed.factor(t, t + s) for t, s in launched
        ),
        "latencies": [ms * speed.factor(r.scheduled, r.seen)
                      for ms, r in zip(raw, done)],
        "raw_latencies": raw,
        "lateness_p99_ms": _pct(lateness, 99) if lateness else 0.0,
        "events_per_s": capacity / speed.factor(window, end),
        "raw_events_per_s": capacity,
        "verdicts_per_s": len(settled) / span,
        "median_burst_ms": speed.median_burst_ms(),
        "peak_rss_mb": rss,
        "attempted": len(requests),
        "failed": sum(not r.ok for r in requests),
        "problems": problems,
        "verdicts": [r.result.get("verdict") for r in open_plan],
        "requests": requests,
        "scraped": scraped,
        "records": records,
    }


def run_service(run: "Run") -> Dict[str, Any]:
    open_plan, saturation = service_plans(
        run.workload, run.seed, run.seconds, run.cache, run.dir
    )
    if not run.trace:
        p = service_pass(run, open_plan, saturation, run.seconds,
                         SETUP_LAUNCHES, traced=False)
        lat, raw = p["latencies"], p["raw_latencies"]
        return {
            "attempted": p["attempted"],
            "failed": p["failed"],
            "problems": p["problems"],
            "metrics": {
                "setup_s": p["setup_s"],
                "verdict_p50_ms": _pct(lat, 50),
                "verdict_p90_ms": _pct(lat, 90),
                "events_per_s": p["events_per_s"],
                "peak_rss_mb": p["peak_rss_mb"],
            },
            "detail": {
                "verdict_p99_ms": _pct(lat, 99),
                "latency_samples": len(lat),
                "raw_verdict_p50_ms": _pct(raw, 50),
                "raw_verdict_p90_ms": _pct(raw, 90),
                "raw_events_per_s": p["raw_events_per_s"],
                "raw_verdicts_per_s": p["verdicts_per_s"],
                "lateness_p99_ms": p["lateness_p99_ms"],
                "median_burst_ms": p["median_burst_ms"],
            },
        }

    import layers

    plain = service_pass(run, open_plan, saturation, run.seconds, 1,
                         traced=False)
    traced = service_pass(run, _replan(open_plan), _replan(saturation),
                          run.seconds, 1, traced=True)
    records = layers.load_records(str(traced["records"]))
    client = {
        r.sid: {"post_sent": r.post_sent, "post_done": r.post_done,
                "seen": r.seen}
        for r in traced["requests"] if r.ok
    }
    metrics = layers.service_metrics(records, client, traced["scraped"])
    metrics.update(layers.detector_metrics(records))
    metrics["trace.overhead"] = (
        _pct(traced["latencies"], 50) / _pct(plain["latencies"], 50)
    )
    metrics["gen.lateness_p99_ms"] = traced["lateness_p99_ms"]
    problems = plain["problems"] + traced["problems"]
    if plain["verdicts"] != traced["verdicts"]:
        problems.append("verdicts differ with tracing on and off")
    if abs(metrics["request.coverage"] - 1) > COVERAGE_TOLERANCE:
        problems.append(
            f"phase coverage {metrics['request.coverage']:.3f} is not "
            f"within {COVERAGE_TOLERANCE:.0%} of the request wall time"
        )
    if not metrics["worker.analyze_ms.p50"]:
        problems.append("no worker-side spans were merged")
    return {
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "problems": problems,
        "metrics": metrics,
        "detail": {
            "lateness_p99_ms": max(plain["lateness_p99_ms"],
                                   traced["lateness_p99_ms"]),
        },
    }


# -- the offline-analysis workloads ------------------------------------------------


def run_cli(run: "Run", argv: List[str]) -> Dict[str, Any]:
    """One CLI process: start instant, wall seconds, exit code, peak RSS
    (MB) and stdout.

    The peak is the child's ``VmHWM``, sampled every 10 ms until it
    exits.  ``ru_maxrss`` would not do: it carries the forking parent's
    resident set across ``exec``, and this process's size depends on
    whether it generated the inputs.
    """
    out_path = run.dir / "cli.out"
    with open(out_path, "wb") as out, open(run.dir / "cli.err", "ab") as err:
        start = time.monotonic()
        proc = subprocess.Popen(argv, cwd=str(ROOT), env=run.env,
                                stdout=out, stderr=err)
        exited = os.pidfd_open(proc.pid)
        peak = 0.0
        try:
            while not select.select([exited], [], [], 0.01)[0]:
                peak = max(peak, vm_hwm_mb(proc.pid))
            wall = time.monotonic() - start
        finally:
            os.close(exited)
        proc.wait()
    return {"start": start, "wall": wall, "code": proc.returncode,
            "rss": peak, "stdout": out_path.read_text()}


def _answer_ok(entry: Dict[str, Any], cli: Dict[str, Any]) -> bool:
    """The CLI exits 1 iff racy and must match the reference answer."""
    try:
        payload = json.loads(cli["stdout"])
    except ValueError:
        return False
    racy = entry["verdict"] == "racy"
    return (cli["code"] == int(racy) and payload.get("racy") == racy
            and payload.get("events") == entry["events"]
            and payload.get("counters") == entry["counters"])


def analyze_reps(run: "Run", entry: Dict[str, Any], argv: List[str],
                 seconds: float, reps: int = MIN_REPS) -> Dict[str, Any]:
    """Repeat one analysis for ``seconds`` (at least ``reps`` times);
    wall times come back raw and at reference speed, in ms."""
    runs = []
    deadline = time.monotonic() + seconds
    while len(runs) < reps or time.monotonic() < deadline:
        runs.append(run_cli(run, argv))
    speed = run.gauge.read()
    return {
        "walls": [r["wall"] * 1e3 * speed.factor(r["start"], r["start"] + r["wall"])
                  for r in runs],
        "raw_walls": [r["wall"] * 1e3 for r in runs],
        "rss": [r["rss"] for r in runs],
        "outputs": [r["stdout"] for r in runs],
        "failed": sum(not _answer_ok(entry, r) for r in runs),
        "median_burst_ms": speed.median_burst_ms(),
    }


def run_analyze(run: "Run") -> Dict[str, Any]:
    entry, = run.cache.group(ANALYZE[run.workload])
    cli = [sys.executable, "-m", "repro", "analyze"]
    plain = analyze_reps(run, entry, cli + [entry["path"], "--json"],
                         run.seconds)
    if not run.trace:
        tiny, = run.cache.group("tiny")
        setup = analyze_reps(run, tiny, cli + [tiny["path"], "--json"],
                             0.0, reps=SETUP_RUNS)
        walls, raw = plain["walls"], plain["raw_walls"]
        return {
            "attempted": len(walls) + len(setup["walls"]),
            "failed": plain["failed"] + setup["failed"],
            "metrics": {
                "setup_s": statistics.median(setup["walls"]) / 1e3,
                "verdict_p50_ms": _pct(walls, 50),
                "verdict_p90_ms": _pct(walls, 90),
                "events_per_s": entry["events"] / (min(walls) / 1e3),
                "peak_rss_mb": statistics.median(plain["rss"]),
            },
            "detail": {
                "reps": len(walls),
                "events": entry["events"],
                "raw_verdict_p50_ms": _pct(raw, 50),
                "raw_verdict_p90_ms": _pct(raw, 90),
                "raw_events_per_s": entry["events"] / (min(raw) / 1e3),
                "median_burst_ms": setup["median_burst_ms"],
            },
        }

    import layers

    records = run.dir / "records-traced"
    traced = analyze_reps(
        run, entry,
        [sys.executable, str(BENCH_DIR / "traced.py"), str(records),
         "analyze", entry["path"], "--json"],
        run.seconds,
    )
    metrics = layers.service_metrics({}, {}, {})
    metrics.update(layers.detector_metrics(layers.load_records(str(records))))
    metrics["trace.overhead"] = (
        _pct(traced["walls"], 50) / _pct(plain["walls"], 50)
    )
    metrics["gen.lateness_p99_ms"] = 0.0
    problems = []
    if len(set(plain["outputs"] + traced["outputs"])) != 1:
        problems.append("reports differ with tracing on and off")
    return {
        "attempted": len(plain["walls"]) + len(traced["walls"]),
        "failed": plain["failed"] + traced["failed"],
        "problems": problems,
        "metrics": metrics,
        "detail": {"reps": len(traced["walls"]), "events": entry["events"]},
    }


# -- running one workload -------------------------------------------------------------


class Run:
    """One invocation's workload, inputs and scratch directory."""

    def __init__(self, args: argparse.Namespace, workload: str) -> None:
        from inputs import InputCache

        self.workload = workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.cache = InputCache(BENCH_DIR, args.seed, smoke=args.smoke)
        runs = BENCH_DIR / ".cache" / "runs"
        runs.mkdir(parents=True, exist_ok=True)
        self.dir = runs / f"{workload}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir()
        path = os.environ.get("PYTHONPATH")
        self.env = dict(
            os.environ,
            PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""),
            TMPDIR=str(self.dir),
        )

    def execute(self) -> Dict[str, Any]:
        self.gauge = Gauge(self.dir, self.env)
        ticks = cpu_ticks()
        try:
            measure = run_service if self.workload in SERVICE else run_analyze
            outcome = measure(self)
        finally:
            self.gauge.stop()
            shutil.rmtree(self.dir, ignore_errors=True)
        outcome["detail"]["steal_share"] = steal_share(ticks, cpu_ticks())
        return outcome


def cpu_ticks() -> List[int]:
    """The host's summed CPU time counters from ``/proc/stat``: user,
    nice, system, idle, iowait, irq, softirq, steal."""
    with open("/proc/stat") as fh:
        return [int(field) for field in fh.readline().split()[1:9]]


def steal_share(before: List[int], after: List[int]) -> float:
    """Of the CPU time the guest wanted, the share the hypervisor gave to
    other guests instead.  The gauge cannot see it: on a guest with
    paravirtual steal accounting, stolen time is not charged as CPU time.
    Reported, not corrected for (see README.md)."""
    user, nice, system, _, _, irq, softirq, steal = (
        b - a for a, b in zip(before, after)
    )
    wanted = user + nice + system + irq + softirq + steal
    return steal / wanted if wanted else 0.0


def benchmark_spec() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def git_sha() -> Any:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def run_workload(args: argparse.Namespace, workload: str) -> Dict[str, Any]:
    run = Run(args, workload)
    outcome = run.execute()
    declared = benchmark_spec()["per_layer" if run.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if sorted(outcome["metrics"]) != sorted(units):
        raise RuntimeError(
            "metrics drifted from BENCHMARK.json: "
            f"{sorted(set(outcome['metrics']) ^ set(units))}"
        )
    for problem in outcome.get("problems", []):
        print(f"{workload}: {problem}", file=sys.stderr)
    # Open-loop validity: a generator running late under-loads the daemon.
    valid = outcome["detail"].get("lateness_p99_ms", 0.0) <= MAX_LATENESS_MS
    if not valid:
        print(f"{workload}: generator lateness p99 above {MAX_LATENESS_MS} ms; "
              "this run is not a valid open-loop measurement", file=sys.stderr)
    result = {
        "correct": outcome["failed"] == 0 and not outcome.get("problems"),
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {
            name: {"value": float(outcome["metrics"][name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    record = {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": int(run.trace),
        "smoke": args.smoke,
        "tag": args.tag,
        "cpu_count": os.cpu_count(),
        "gen_s": run.cache.gen_s,
        "valid": valid,
        "detail": outcome["detail"],
        "result": result,
    }
    print(f"{workload}: cpu_count={os.cpu_count()} gen_s={run.cache.gen_s:.2f} "
          + " ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                     for k, v in outcome["detail"].items()),
          file=sys.stderr)
    for name, unit in units.items():
        print(f"  {name:34s} {outcome['metrics'][name]:14.6g} {unit}",
              file=sys.stderr)
    if args.out:
        path = Path(args.out)
        document = (json.loads(path.read_text()) if path.exists()
                    else {"runs": []})
        record["git_sha"] = git_sha()
        document["runs"].append(record)
        path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    return result


# -- compare --------------------------------------------------------------------------


def _load_runs(spec: str) -> List[Dict[str, Any]]:
    """``FILE`` or ``FILE#TAG``: the untraced runs in a results file."""
    path, _, tag = spec.partition("#")
    runs = json.loads(Path(path).read_text())["runs"]
    return [r for r in runs
            if not r["trace"] and (not tag or r.get("tag") == tag)]


def _quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(argv: List[str]) -> int:
    """Compare each candidate run set against the first (the base)."""
    parser = argparse.ArgumentParser(
        prog="bench_layers.py compare",
        description="median, quartiles and verdict per (workload, metric)",
    )
    parser.add_argument("base", help="results file, optionally FILE#TAG")
    parser.add_argument("candidates", nargs="+")
    args = parser.parse_args(argv)
    spec = benchmark_spec()
    base = _load_runs(args.base)
    bad = 0
    for candidate in args.candidates:
        cand = _load_runs(candidate)
        print(f"{args.base} -> {candidate}")
        print(f"{'workload':20s} {'metric':16s} {'base median [q1, q3]':>34s}"
              f" {'new median [q1, q3]':>34s} {'change':>8s}  verdict")
        for workload in WORKLOADS:
            a = [r for r in base if r["workload"] == workload]
            b = [r for r in cand if r["workload"] == workload]
            if not a or not b:
                continue
            # A run whose open loop ran late is not a measurement.
            invalid = sum(not r["valid"] for r in a + b)
            a = [r for r in a if r["valid"]]
            b = [r for r in b if r["valid"]]
            if invalid:
                print(f"{workload:20s} {invalid} invalid run(s) left out")
            if not a or not b:
                print(f"{workload:20s} no valid runs  unresolved")
                continue
            failed_a = sum(r["result"]["failed"] for r in a) / len(a)
            failed_b = sum(r["result"]["failed"] for r in b) / len(b)
            if failed_b > failed_a or not all(r["result"]["correct"] for r in b):
                print(f"{workload:20s} failed per run {failed_a:g} -> "
                      f"{failed_b:g}  FAILED")
                bad += 1
            for metric in spec["end_to_end"]:
                name, bound = metric["name"], metric["bound"]
                lower = metric["better"] == "lower"
                va = [r["result"]["metrics"][name]["value"] for r in a]
                vb = [r["result"]["metrics"][name]["value"] for r in b]
                qa, qb = _quartiles(va), _quartiles(vb)
                change = (qb[1] - qa[1]) / qa[1]
                worse = change if lower else -change
                spread = max((qa[2] - qa[0]) / qa[1], (qb[2] - qb[0]) / qb[1])
                better_all = (max(vb) < min(va)) if lower else (min(vb) > max(va))
                if worse > bound:
                    verdict = "regressed"
                    bad += 1
                elif spread > bound and not better_all:
                    verdict = "unresolved"
                else:
                    verdict = "ok"
                print(f"{workload:20s} {name:16s} "
                      f"{qa[1]:12.5g} [{qa[0]:9.5g}, {qa[2]:9.5g}] "
                      f"{qb[1]:12.5g} [{qb[0]:9.5g}, {qb[2]:9.5g}] "
                      f"{change:+8.1%}  {verdict}")
    return 1 if bad else 0


# -- entry point ----------------------------------------------------------------------


def main(argv: List[str]) -> int:
    if argv[:1] == ["compare"]:
        return compare(argv[1:])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=("all", *WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="measured time per pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced pass")
    parser.add_argument("--smoke", action="store_true",
                        help="small offline traces, for the self-test")
    parser.add_argument("--out", help="append each run's record to this "
                        "results file (JSON)")
    parser.add_argument("--tag", default="", help="label stored in --out "
                        "records; compare selects it with FILE#TAG")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"bench_layers: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        result = run_workload(args, workload)
        print(json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
