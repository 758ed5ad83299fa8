"""Race-exception recovery: rollback-and-retry, quarantine, buffering.

The recovery subsystem (:mod:`repro.runtime.recovery`) buffers each
SFR's writes and, when a race exception fires, rolls the faulting
thread back to its SFR entry and retries under a perturbed schedule,
or parks the thread and finishes the rest of the program.  These tests
pin the core guarantees:

* buffering is invisible: race-free runs are bit-identical with
  recovery on or off, and perform zero recovery actions;
* racy runs under rollback-retry complete (no crash, no hang) and are
  deterministic run to run;
* quarantine parks exactly the faulting thread, force-releases its
  locks, and lets the rest of the program finish — even when survivors
  then deadlock on the parked thread (graceful stop, not a hang).
"""

import pytest

from repro.clean import run_clean
from repro.diagnostics import render_recovery
from repro.runtime import (
    Acquire,
    Compute,
    Join,
    Lock,
    Output,
    Program,
    Quarantined,
    Read,
    Release,
    RecoveryPolicy,
    Spawn,
    Write,
)
from repro.workloads import build_program
from repro.workloads.suite import RACY_BENCHMARKS, get_benchmark


def racy_increment_program():
    """Two threads increment a shared counter with no synchronization."""

    def worker(ctx, addr):
        value = yield Read(addr, 8)
        yield Compute(3)
        yield Write(addr, 8, value + 1)

    def main(ctx):
        addr = ctx.alloc(8)
        yield Write(addr, 8, 0)
        a = yield Spawn(worker, (addr,))
        b = yield Spawn(worker, (addr,))
        yield Join(a)
        yield Join(b)
        final = yield Read(addr, 8)
        yield Output(("final", final))

    return Program(main)


def locked_increment_program():
    """Race-free twin of :func:`racy_increment_program`."""
    lock = Lock("counter")

    def worker(ctx, addr):
        yield Acquire(lock)
        value = yield Read(addr, 8)
        yield Compute(3)
        yield Write(addr, 8, value + 1)
        yield Release(lock)

    def main(ctx):
        addr = ctx.alloc(8)
        yield Write(addr, 8, 0)
        a = yield Spawn(worker, (addr,))
        b = yield Spawn(worker, (addr,))
        yield Join(a)
        yield Join(b)
        final = yield Read(addr, 8)
        yield Output(("final", final))

    return Program(main)


class TestPolicy:
    def test_coerce_from_string_and_none(self):
        assert RecoveryPolicy.coerce(None) is None
        policy = RecoveryPolicy.coerce("quarantine")
        assert policy.mode == "quarantine"
        same = RecoveryPolicy.coerce(policy)
        assert same is policy

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            RecoveryPolicy(mode="wish-harder")
        with pytest.raises(ValueError):
            RecoveryPolicy(max_retries=-1)


class TestRollbackRetry:
    def test_racy_program_completes(self):
        result = run_clean(racy_increment_program(), recovery="rollback-retry")
        assert result.race is None
        report = result.recovery
        assert report is not None
        assert report.races >= 1
        assert report.rollbacks >= 1
        assert not report.quarantined
        # Both increments survived: recovery serialized the two SFRs.
        assert result.outputs[0][-1] == ("final", 2)

    def test_rollback_retry_is_deterministic(self):
        r1 = run_clean(racy_increment_program(), recovery="rollback-retry")
        r2 = run_clean(racy_increment_program(), recovery="rollback-retry")
        assert r1.fingerprint() == r2.fingerprint()
        assert r1.recovery.to_payload() == r2.recovery.to_payload()

    def test_race_free_run_bit_identical_with_recovery(self):
        base = run_clean(locked_increment_program())
        recovered = run_clean(locked_increment_program(), recovery="rollback-retry")
        assert base.fingerprint() == recovered.fingerprint()
        assert base.race is None and recovered.race is None
        report = recovered.recovery
        assert report.clean
        assert report.rollbacks == 0 and not report.events

    def test_retry_exhaustion_degrades_to_quarantine(self):
        policy = RecoveryPolicy(mode="rollback-retry", max_retries=0)
        result = run_clean(racy_increment_program(), recovery=policy)
        assert result.race is None
        report = result.recovery
        assert report.quarantined
        assert any(e.action == "quarantined" for e in report.events)


class TestQuarantine:
    def test_faulting_thread_parked_rest_finishes(self):
        result = run_clean(racy_increment_program(), recovery="quarantine")
        assert result.race is None
        report = result.recovery
        assert len(report.quarantined) == 1
        tid = report.quarantined[0]
        sentinel = result.thread_results[tid]
        assert isinstance(sentinel, Quarantined)
        assert sentinel.tid == tid
        # The surviving increment still landed.
        assert result.outputs[0][-1] == ("final", 1)

    def test_quarantine_force_releases_held_locks(self):
        lock = Lock("guard")

        def racer(ctx, addr):
            yield Acquire(lock)
            value = yield Read(addr, 8)  # races against main's write
            yield Write(addr, 8, value + 1)
            yield Release(lock)

        def waiter(ctx, addr):
            yield Compute(50)
            yield Acquire(lock)  # must not hang on the quarantined racer
            yield Release(lock)
            yield Output("lock-acquired")

        def main(ctx):
            addr = ctx.alloc(8)
            a = yield Spawn(racer, (addr,))
            yield Compute(1)
            yield Write(addr, 8, 7)  # conflicts with racer's open SFR
            b = yield Spawn(waiter, (addr,))
            yield Join(a)
            yield Join(b)

        result = run_clean(Program(main), recovery="quarantine")
        assert result.race is None
        report = result.recovery
        if report.quarantined:  # interleaving-dependent which side faults
            assert "lock-acquired" in [
                o for outs in result.outputs.values() for o in outs
            ]

    def test_post_quarantine_deadlock_is_graceful(self):
        lock = Lock("gate")

        def holder(ctx, addr):
            yield Acquire(lock)
            value = yield Read(addr, 8)
            yield Write(addr, 8, value + 1)
            # Never releases: if quarantined mid-SFR the lock is force
            # released; if it survives, it parks on a second acquire.
            yield Acquire(lock)

        def main(ctx):
            addr = ctx.alloc(8)
            a = yield Spawn(holder, (addr,))
            yield Write(addr, 8, 5)
            yield Join(a)

        result = run_clean(Program(main), recovery="quarantine")
        # Either way the run returns instead of raising or hanging.
        assert result.recovery is not None


class TestAbort:
    def test_abort_mode_records_race_and_stops(self):
        result = run_clean(racy_increment_program(), recovery="abort")
        report = result.recovery
        assert report.races == 1
        assert report.events[0].action == "aborted"


class TestDiagnostics:
    def test_render_recovery_mentions_actions(self):
        result = run_clean(racy_increment_program(), recovery="rollback-retry")
        text = render_recovery(result.recovery)
        assert "race(s)" in text and "retried" in text

    def test_render_recovery_clean_run(self):
        result = run_clean(locked_increment_program(), recovery="rollback-retry")
        assert "no recovery actions" in render_recovery(result.recovery)


class TestTelemetry:
    def test_recovery_counters_published(self):
        from repro.obs import MetricsRegistry
        from repro.obs.context import telemetry_scope

        registry = MetricsRegistry()
        with telemetry_scope(registry=registry):
            run_clean(racy_increment_program(), recovery="rollback-retry")
        snapshot = registry.snapshot()
        assert snapshot.get("clean.recovery.races", 0) >= 1
        assert snapshot.get("clean.recovery.rollbacks", 0) >= 1


class TestBenchmarkProperties:
    """The acceptance property over the real workload models."""

    RACY = ["barnes", "dedup", "water_nsquared"]
    CLEAN = ["lu_ncb", "ocean_cp", "volrend"]

    @pytest.mark.parametrize("name", RACY)
    def test_racy_variants_survive_rollback_retry(self, name):
        assert name in RACY_BENCHMARKS
        program = build_program(
            get_benchmark(name), scale="test", racy=True, seed=0
        )
        policy = RecoveryPolicy(mode="rollback-retry", max_retries=4)
        result = run_clean(program, recovery=policy)
        # Completed: every race either retried away or converged to
        # quarantine within the retry budget — never a crash or hang.
        assert result.race is None
        report = result.recovery
        for event in report.events:
            assert event.retry <= policy.max_retries

    @pytest.mark.parametrize("name", CLEAN)
    def test_race_free_variants_unperturbed(self, name):
        program = build_program(
            get_benchmark(name), scale="test", racy=False, seed=0
        )
        base = run_clean(program)
        program2 = build_program(
            get_benchmark(name), scale="test", racy=False, seed=0
        )
        recovered = run_clean(program2, recovery="rollback-retry")
        assert base.fingerprint() == recovered.fingerprint()
        assert (base.race is None) == (recovered.race is None)
        assert recovered.recovery.rollbacks == 0

    def test_racy_suite_deterministic_under_recovery(self):
        fingerprints = []
        for _ in range(2):
            program = build_program(
                get_benchmark("barnes"), scale="test", racy=True, seed=1
            )
            result = run_clean(program, recovery="rollback-retry")
            fingerprints.append(result.fingerprint())
        assert fingerprints[0] == fingerprints[1]
