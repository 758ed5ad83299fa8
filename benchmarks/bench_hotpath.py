"""Cost of the scheduler's monitor dispatch on a memory-heavy workload.

The scheduler compiles, per hook, the chain of monitors that override
it, so a monitor that overrides nothing costs nothing per event.  Four
scenarios, each timed over the same workload:

* ``raw_fused``  — detector off, monitors attached (Kendo gate + SFR
  tracker, neither of which watches memory): the dispatch overhead in
  its purest form.
* ``raw_inert``  — the raw stack plus 16 plain ``ExecutionMonitor()``s.
  They override no hook, so this must cost what ``raw_fused`` costs;
  ``--check`` fails when ``raw_inert / raw_fused`` exceeds 1.10.
* ``clean_fused`` — the full CLEAN stack (detector + gate).
* ``clean_fused_nofastpath`` — the same with the same-epoch filter off:
  what the written-this-epoch filter saves.

Run it directly (CI's bench-smoke job does)::

    PYTHONPATH=src python benchmarks/bench_hotpath.py --out BENCH_hotpath.json

The JSON artifact carries per-scenario times (best of ``--repeats``) and
ratios.  No thresholds are enforced in CI; the gate runs only under
``--check`` (used by the release checklist).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Callable, Dict

from repro.clean import run_clean
from repro.determinism.kendo import KendoGate
from repro.runtime import (
    Acquire,
    Compute,
    ExecutionMonitor,
    Join,
    Lock,
    Program,
    Read,
    Release,
    RoundRobinPolicy,
    SfrTracker,
    Spawn,
    Write,
)

#: Worker threads and per-thread loop iterations of the synthetic
#: workload (each iteration: 2 reads + 2 writes + occasional sync).
N_THREADS = 4
N_ITERS = 2_000
SYNC_EVERY = 100
#: Inert monitors added in the ``raw_inert`` scenario.
N_INERT = 16
#: Largest allowed ``raw_inert / raw_fused`` under ``--check``.
INERT_BOUND = 1.10


def _worker(ctx, base, lock, idx):
    addr = base + 64 * idx
    for i in range(N_ITERS):
        v = yield Read(addr, 8)
        yield Write(addr, 8, (v + 1) & 0xFFFFFFFF)
        v2 = yield Read(addr + 8, 4)
        yield Write(addr + 8, 4, (v2 ^ i) & 0xFFFF)
        if i % SYNC_EVERY == 0:
            yield Acquire(lock)
            yield Compute(1)
            yield Release(lock)


def _main(ctx):
    base = ctx.alloc(64 * N_THREADS)
    lock = Lock("bench")
    kids = []
    for idx in range(N_THREADS):
        kids.append((yield Spawn(_worker, (base, lock, idx))))
    for k in kids:
        yield Join(k)


def _time(
    scenarios: Dict[str, Callable[[], object]], repeats: int
) -> Dict[str, float]:
    """Best time of each scenario.  The scenarios take turns within each
    repeat, so a burst of host load hits all of them, not one ratio's
    numerator alone."""
    best = dict.fromkeys(scenarios, float("inf"))
    for _ in range(repeats):
        for name, fn in scenarios.items():
            start = time.perf_counter()
            fn()
            best[name] = min(best[name], time.perf_counter() - start)
    return best


def _run_raw(inert: int = 0):
    result = Program(_main).run(
        policy=RoundRobinPolicy(),
        monitors=[KendoGate(), SfrTracker()]
        + [ExecutionMonitor() for _ in range(inert)],
        max_threads=16,
    )
    assert result.race is None
    return result


def _run_clean(fastpath: bool = True):
    from repro.clean import clean_stack
    from repro.determinism.counters import PreciseCounter

    monitors, _clean, _gate = clean_stack(max_threads=16, fastpath=fastpath)
    result = Program(_main).run(
        policy=RoundRobinPolicy(),
        monitors=monitors,
        max_threads=16,
        counter_cost=PreciseCounter(),
    )
    assert result.race is None
    return result


def run_benchmarks(repeats: int) -> Dict[str, object]:
    timings = _time(
        {
            "raw_fused": _run_raw,
            "raw_inert": lambda: _run_raw(inert=N_INERT),
            "clean_fused": _run_clean,
            "clean_fused_nofastpath": lambda: _run_clean(fastpath=False),
        },
        repeats,
    )
    ratios = {
        "raw_inert_vs_fused": timings["raw_inert"] / timings["raw_fused"],
        "clean_fastpath_vs_off": (
            timings["clean_fused_nofastpath"] / timings["clean_fused"]
        ),
    }
    return {
        "benchmark": "hotpath_dispatch",
        "workload": {
            "threads": N_THREADS,
            "iters_per_thread": N_ITERS,
            "sync_every": SYNC_EVERY,
            "inert_monitors": N_INERT,
        },
        "repeats": repeats,
        "seconds_best": timings,
        "ratios": ratios,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", default="BENCH_hotpath.json")
    parser.add_argument(
        "--check",
        action="store_true",
        help=f"fail if {N_INERT} inert monitors slow the raw stack by "
        f"more than {INERT_BOUND:.2f}x",
    )
    args = parser.parse_args(argv)

    report = run_benchmarks(args.repeats)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    times = report["seconds_best"]
    ratios = report["ratios"]
    print(f"raw (detector off, monitors on):  "
          f"{times['raw_fused']:.3f}s  "
          f"+{N_INERT} inert {times['raw_inert']:.3f}s  "
          f"-> {ratios['raw_inert_vs_fused']:.2f}x")
    print(f"clean (full stack):               {times['clean_fused']:.3f}s")
    print(f"clean same-epoch filter:          "
          f"on {times['clean_fused']:.3f}s  "
          f"off {times['clean_fused_nofastpath']:.3f}s  "
          f"-> {ratios['clean_fastpath_vs_off']:.2f}x")
    print(f"wrote {args.out}")
    if args.check and ratios["raw_inert_vs_fused"] > INERT_BOUND:
        print(f"FAIL: {N_INERT} inert monitors cost more than "
              f"{INERT_BOUND:.2f}x", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
