"""Top-level job functions for the exec-runner tests.

Job functions are resolved by dotted path in worker processes, so they
must live in an importable module — not inside a test class.
"""

import json
import os
import time


def double(x):
    return {"x": x, "doubled": 2 * x}


def boom(message="kaboom"):
    raise RuntimeError(message)


def sleeper(seconds, value="done"):
    time.sleep(seconds)
    return value


def clean_workload(seed=0, runs=1, race_probability=0.0):
    """Seeded CLEAN runs that publish ``clean.*`` telemetry.

    Exercises the cross-process pipeline: the CleanMonitor accumulates
    its counters (and feeds the site profiler) into whatever ambient
    telemetry scope the runner installed around this job.
    """
    from repro.clean import run_clean
    from repro.runtime import RandomPolicy
    from repro.workloads import make_random_program

    races = 0
    for i in range(runs):
        program, _ = make_random_program(
            seed + i, race_probability=race_probability
        )
        result = run_clean(program, policy=RandomPolicy(seed + i))
        if result.race is not None:
            races += 1
    return {"seed": seed, "runs": runs, "races": races}


def flaky(counter_file, fail_times=1, value="eventually"):
    """Fail the first ``fail_times`` calls, then succeed.

    Attempts are counted in a file so the count survives process
    boundaries (a retry may run in another worker process).
    """
    count = 0
    if os.path.exists(counter_file):
        with open(counter_file) as fh:
            count = json.load(fh)
    count += 1
    with open(counter_file, "w") as fh:
        json.dump(count, fh)
    if count <= fail_times:
        raise RuntimeError(f"flaky failure #{count}")
    return {"value": value, "calls": count}


def hard_exit(code=13, value="unreached"):
    """Kill the worker process outright (no result ever sent)."""
    os._exit(code)


def wedged_sleeper(seconds=30.0, value="unreached"):
    """Go silent (no heartbeats), then sleep: watchdog fodder."""
    from repro.faults import wedge

    wedge()
    time.sleep(seconds)
    return value


def deadlock_job():
    """Run a program that ABBA-deadlocks; DeadlockError escapes as a
    job failure the runner must degrade to a FAILED row."""
    from repro.runtime import (
        Acquire,
        Compute,
        Join,
        Lock,
        Program,
        RoundRobinPolicy,
        Spawn,
    )

    l1, l2 = Lock("a"), Lock("b")

    def t1(ctx):
        yield Acquire(l1)
        yield Compute(5)
        yield Acquire(l2)

    def t2(ctx):
        yield Acquire(l2)
        yield Compute(5)
        yield Acquire(l1)

    def main(ctx):
        a = yield Spawn(t1)
        b = yield Spawn(t2)
        yield Join(a)
        yield Join(b)

    Program(main).run(policy=RoundRobinPolicy())
    return "unreachable"


def worker_pid(i=0):
    """Report which process ran the job."""
    return os.getpid()
