"""The golden verdict corpus: build it, or rewrite ``tests/golden/corpus.json``.

The corpus is a fixed, seeded set of programs:

* the test-scale workload models at seed 11 — every race-free variant
  and every seeded-race variant (42 programs);
* twenty random programs from :mod:`repro.workloads.randprog`, race-free
  and racy, 3-4 threads.

For each program it pins

* the recorded trace: the sha256 of its ``Trace.save`` bytes, and the
  ``repro analyze --json`` payload (without ``mode``) under the default
  epoch layout and under ``EpochLayout(clock_bits=3)``, where clocks
  roll over.  ``tests/test_golden.py`` asserts that scalar *and* batch
  analysis each produce that one payload;
* the live run under the CLEAN stack, with recovery off and with
  ``rollback-retry``: verdict, race provenance, a digest of
  ``ExecutionResult.fingerprint()`` and the run's ``clean.*`` counters.

A change that moves a golden value must say which one and why.  To
rewrite the file after such a change::

    PYTHONPATH=src python -m tests._golden
"""

import hashlib
import json
import os
import tempfile
from pathlib import Path

from repro.analysis import analyze_trace
from repro.clean import run_clean
from repro.core.epoch import DEFAULT_LAYOUT, EpochLayout
from repro.determinism.counters import PreciseCounter
from repro.experiments.traces import record_trace
from repro.obs import MetricsRegistry
from repro.obs.context import telemetry_scope
from repro.runtime import RandomPolicy, TraceRecorder
from repro.workloads import (
    RACE_FREE_VARIANTS,
    RACY_BENCHMARKS,
    build_program,
    get_benchmark,
    make_random_program,
)
from tests._oracle import race_fields

GOLDEN = Path(__file__).parent / "golden" / "corpus.json"

SEED = 11
SCALE = "test"
LAYOUTS = {"default": DEFAULT_LAYOUT, "clock_bits=3": EpochLayout(clock_bits=3)}
RECOVERY = {"off": None, "rollback-retry": "rollback-retry"}
RANDPROG_MAX_THREADS = 8


def _randprog_params(index):
    """(seed, threads, ops per thread, race probability) of random
    program ``index``: every combination of 3/4 threads, 10/30 ops and
    a race probability of 0, 0.05 or 0.3 appears."""
    return (
        index,
        (3, 4)[index % 2],
        (10, 30)[(index // 2) % 2],
        (0.0, 0.05, 0.3)[index % 3],
    )


def programs():
    """``{name: (factory, live run options)}`` for the whole corpus.

    A factory returns a fresh :class:`~repro.runtime.Program`; a
    program's generators are consumed by one run.
    """
    out = {}
    for racy, names in ((False, RACE_FREE_VARIANTS), (True, RACY_BENCHMARKS)):
        for name in names:
            spec = get_benchmark(name)
            out[f"{name}:{'racy' if racy else 'clean'}"] = (
                lambda spec=spec, racy=racy: build_program(
                    spec, scale=SCALE, racy=racy, seed=SEED
                ),
                {"max_threads": 16},
            )
    for index in range(20):
        seed, threads, ops, prob = _randprog_params(index)
        out[f"randprog:{seed}:{threads}x{ops}:p{prob}"] = (
            lambda seed=seed, threads=threads, ops=ops, prob=prob:
                make_random_program(
                    seed, n_threads=threads, ops_per_thread=ops,
                    race_probability=prob,
                )[0],
            {"max_threads": RANDPROG_MAX_THREADS, "seed": seed},
        )
    return out


def record(name, factory, options):
    """The program's trace, recorded with no detector attached."""
    if name.startswith("randprog:"):
        recorder = TraceRecorder()
        factory().run(
            policy=RandomPolicy(options["seed"]),
            monitors=[recorder],
            max_threads=options["max_threads"],
            counter_cost=PreciseCounter(),
        )
        return recorder.trace
    bench, variant = name.split(":")
    return record_trace(
        get_benchmark(bench), scale=SCALE, seed=SEED, racy=variant == "racy"
    )


def trace_sha256(trace):
    """sha256 of the bytes ``Trace.save`` writes for ``trace``."""
    fd, path = tempfile.mkstemp(suffix=".trace")
    os.close(fd)
    try:
        trace.save(path)
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()
    finally:
        os.unlink(path)


def analysis_payload(trace, mode, layout):
    """``analyze --json``'s payload without ``mode``, JSON-normalized."""
    payload = analyze_trace(trace, mode=mode, layout=layout).to_payload()
    del payload["mode"]
    return json.loads(json.dumps(payload, sort_keys=True))


def live_outcome(factory, options, recovery):
    """Verdict, race provenance, fingerprint digest and ``clean.*``
    counters of one live CLEAN run, or the name of the exception that
    ended it (a parent that does arithmetic on a quarantined child's
    join result raises ``TypeError``)."""
    registry = MetricsRegistry()
    seed = options.get("seed")
    with telemetry_scope(registry=registry):
        try:
            result = run_clean(
                factory(),
                policy=None if seed is None else RandomPolicy(seed),
                max_threads=options["max_threads"],
                recovery=recovery,
            )
        except TypeError as exc:
            return {"error": type(exc).__name__}
    counters = {
        name: value
        for name, value in registry.snapshot().items()
        if name.startswith("clean.") and isinstance(value, (int, float))
    }
    outcome = {
        "racy": result.race is not None,
        "race": race_fields(result.race),
        "fingerprint": hashlib.sha256(
            repr(result.fingerprint()).encode()
        ).hexdigest(),
        "counters": counters,
    }
    if result.recovery is not None:
        outcome["recovered_races"] = result.recovery.races
    return json.loads(json.dumps(outcome, sort_keys=True))


def build_corpus():
    """The whole corpus as a JSON-ready dict (analysis in scalar mode)."""
    traces, live = {}, {}
    for name, (factory, options) in programs().items():
        trace = record(name, factory, options)
        traces[name] = {"sha256": trace_sha256(trace)}
        for label, layout in LAYOUTS.items():
            traces[name][label] = analysis_payload(trace, "scalar", layout)
        live[name] = {
            label: live_outcome(factory, options, recovery)
            for label, recovery in RECOVERY.items()
        }
    return {"traces": traces, "live": live}


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    corpus = json.dumps(build_corpus(), indent=1, sort_keys=True)
    GOLDEN.write_text(corpus + "\n")
    print(f"wrote {GOLDEN}")
