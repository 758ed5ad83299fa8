"""Throughput of the batch-first offline trace analysis.

Two synthetic traces — four threads hammering disjoint slabs with a
shared lock — replayed through both analysis modes of
:func:`repro.analysis.analyze_trace`:

* ``long_sfr``   — a lock round trip every 250 iterations (1,000
  accesses): long synchronization-free segments, checked in runs;
* ``sync_dense`` — a lock round trip every iteration (4 accesses):
  segments below ``BATCH_MIN``, joined in windows.

and in both modes:

* ``scalar``  — the reference path: every access through the monitor's
  per-event ``_check_one``.
* ``batch``   — every segment through ``CleanMonitor.check_block``:
  consecutive long segments as one run, consecutive short ones as one
  window; scalar fallback only for the conflict minority.

Both modes must agree on verdict and every ``clean.*`` counter — the
benchmark asserts it before reporting a single number.  The JSON
artifact carries events/sec per mode, the batch speedup over scalar,
and the host CPU count; the top-level figures are ``long_sfr``'s, and
``traces`` holds both.

Run it directly (CI's bench-smoke job does)::

    PYTHONPATH=src python benchmarks/bench_batch.py --out BENCH_batch.json

``--check`` (release checklist) fails unless the batch path reaches 2x
scalar throughput on ``long_sfr`` and 1.5x on ``sync_dense``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from typing import Dict

from repro.analysis import analyze_trace
from repro.determinism.counters import PreciseCounter
from repro.runtime import (
    Acquire,
    Join,
    Lock,
    Program,
    Read,
    Release,
    RoundRobinPolicy,
    Spawn,
    TraceRecorder,
    Write,
)

#: Worker threads and per-thread iterations (4 accesses each).
N_THREADS = 4
N_ITERS = 1_500
#: Per trace: iterations between lock round trips, and the least batch
#: speedup over scalar ``--check`` accepts.
TRACES = {"long_sfr": (250, 2.0), "sync_dense": (1, 1.5)}


def _worker(ctx, base, lock, idx, sync_every):
    addr = base + 4096 * idx
    for i in range(N_ITERS):
        slot = addr + 8 * (i % 64)
        yield Write(slot, 8, i & 0xFFFFFFFF)
        v = yield Read(slot, 8)
        yield Write(slot + 8, 4, (v ^ i) & 0xFFFF)
        yield Read(slot + 8, 4)
        if i % sync_every == 0:
            yield Acquire(lock)
            yield Release(lock)


def _main(ctx, sync_every):
    base = ctx.alloc(4096 * N_THREADS)
    lock = Lock("bench")
    kids = []
    for idx in range(N_THREADS):
        kids.append((yield Spawn(_worker, (base, lock, idx, sync_every))))
    for k in kids:
        yield Join(k)


def _record(path: str, sync_every: int) -> int:
    """Record the workload record-only; returns the trace's event count."""
    recorder = TraceRecorder()
    result = Program(_main, sync_every).run(
        policy=RoundRobinPolicy(),
        monitors=[recorder],
        max_threads=16,
        counter_cost=PreciseCounter(),
    )
    assert result.race is None
    recorder.trace.save(path)
    return recorder.trace.total_events


def _time_mode(path: str, mode: str, repeats: int):
    best = float("inf")
    report = None
    for _ in range(repeats):
        start = time.perf_counter()
        report = analyze_trace(path, mode=mode)
        best = min(best, time.perf_counter() - start)
    return best, report


def _measure(tmp: str, name: str, repeats: int) -> Dict[str, object]:
    sync_every, _gate = TRACES[name]
    path = os.path.join(tmp, f"{name}.trace")
    events = _record(path, sync_every)
    scalar_s, scalar = _time_mode(path, "scalar", repeats)
    batch_s, batch = _time_mode(path, "batch", repeats)
    # Equivalence first, numbers second: a fast wrong answer is no answer.
    assert batch.racy == scalar.racy
    assert batch.counters == scalar.counters
    timings = {"scalar": scalar_s, "batch": batch_s}
    return {
        "workload": {
            "threads": N_THREADS,
            "iters_per_thread": N_ITERS,
            "sync_every": sync_every,
            "trace_events": events,
        },
        "seconds_best": timings,
        "events_per_sec": {
            mode: events / seconds for mode, seconds in timings.items()
        },
        "speedups": {
            "batch_vs_scalar": scalar_s / batch_s,
        },
    }


def run_benchmarks(repeats: int) -> Dict[str, object]:
    cpus = os.cpu_count() or 1
    with tempfile.TemporaryDirectory() as tmp:
        traces = {name: _measure(tmp, name, repeats) for name in TRACES}
    return {
        "benchmark": "batch_analysis",
        **traces["long_sfr"],
        "host": {"cpu_count": cpus},
        "repeats": repeats,
        "traces": traces,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", default="BENCH_batch.json")
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail unless batch replay reaches 2x scalar on long_sfr "
        "and 1.5x on sync_dense",
    )
    args = parser.parse_args(argv)

    report = run_benchmarks(args.repeats)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    failed = False
    for name, trace in report["traces"].items():
        times = trace["seconds_best"]
        rates = trace["events_per_sec"]
        speed = trace["speedups"]["batch_vs_scalar"]
        print(f"{name}:")
        print(f"  scalar:   {times['scalar']:.3f}s  "
              f"({rates['scalar']:,.0f} ev/s)")
        print(f"  batch:    {times['batch']:.3f}s  "
              f"({rates['batch']:,.0f} ev/s)  -> {speed:.2f}x")
        gate = TRACES[name][1]
        if args.check and speed < gate:
            print(f"FAIL: {name} batch replay below {gate}x scalar",
                  file=sys.stderr)
            failed = True
    print(f"wrote {args.out}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
