"""Throughput of the batch-first offline trace analysis.

One synthetic trace — four threads hammering disjoint slabs with sparse
lock traffic, the shape the batch lane is built for (long
synchronization-free runs) — replayed through both analysis modes of
:func:`repro.analysis.analyze_trace`:

* ``scalar``  — the reference path: every access through the monitor's
  per-event ``_check_one``.
* ``batch``   — whole runs through ``CleanMonitor.check_block``: the
  same-epoch majority resolved in one vectorized pass over the flat
  epoch tables, scalar fallback only for the conflict minority.

Both must agree on verdict and every ``clean.*`` counter — the
benchmark asserts it before reporting a single number.  The JSON
artifact carries events/sec per mode, the batch speedup over scalar,
and the host CPU count.

Run it directly (CI's bench-smoke job does)::

    PYTHONPATH=src python benchmarks/bench_batch.py --out BENCH_batch.json

``--check`` (release checklist) fails unless the batch path reaches 2x
scalar throughput.
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

#: Worker threads, per-thread iterations (4 accesses each) and accesses
#: between lock round trips: sparse syncs give the batch lane the long
#: synchronization-free runs it vectorizes.
N_THREADS = 4
N_ITERS = 1_500
SYNC_EVERY = 250


def _worker(ctx, base, lock, idx):
    addr = base + 4096 * idx
    for i in range(N_ITERS):
        slot = addr + 8 * (i % 64)
        yield Write(slot, 8, i & 0xFFFFFFFF)
        v = yield Read(slot, 8)
        yield Write(slot + 8, 4, (v ^ i) & 0xFFFF)
        yield Read(slot + 8, 4)
        if i % SYNC_EVERY == 0:
            yield Acquire(lock)
            yield Release(lock)


def _main(ctx):
    base = ctx.alloc(4096 * N_THREADS)
    lock = Lock("bench")
    kids = []
    for idx in range(N_THREADS):
        kids.append((yield Spawn(_worker, (base, lock, idx))))
    for k in kids:
        yield Join(k)


def _record(path: str) -> int:
    """Record the workload record-only; returns the trace's event count."""
    recorder = TraceRecorder()
    result = Program(_main).run(
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


def run_benchmarks(repeats: int) -> Dict[str, object]:
    cpus = os.cpu_count() or 1
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "bench.trace")
        events = _record(path)
        scalar_s, scalar = _time_mode(path, "scalar", repeats)
        batch_s, batch = _time_mode(path, "batch", repeats)
    # Equivalence first, numbers second: a fast wrong answer is no answer.
    assert batch.racy == scalar.racy
    assert batch.counters == scalar.counters
    timings = {"scalar": scalar_s, "batch": batch_s}
    return {
        "benchmark": "batch_analysis",
        "workload": {
            "threads": N_THREADS,
            "iters_per_thread": N_ITERS,
            "sync_every": SYNC_EVERY,
            "trace_events": events,
        },
        "host": {"cpu_count": cpus},
        "repeats": repeats,
        "seconds_best": timings,
        "events_per_sec": {
            mode: events / seconds for mode, seconds in timings.items()
        },
        "speedups": {
            "batch_vs_scalar": scalar_s / batch_s,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", default="BENCH_batch.json")
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail unless check_block replay reaches 2x scalar",
    )
    args = parser.parse_args(argv)

    report = run_benchmarks(args.repeats)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    times = report["seconds_best"]
    rates = report["events_per_sec"]
    speed = report["speedups"]
    print(f"scalar:   {times['scalar']:.3f}s  ({rates['scalar']:,.0f} ev/s)")
    print(f"batch:    {times['batch']:.3f}s  ({rates['batch']:,.0f} ev/s)  "
          f"-> {speed['batch_vs_scalar']:.2f}x")
    print(f"wrote {args.out}")
    if args.check and speed["batch_vs_scalar"] < 2.0:
        print("FAIL: check_block replay below 2x scalar", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
