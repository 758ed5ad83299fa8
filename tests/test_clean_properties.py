"""Property tests for the CLEAN execution model (paper Section 3.4).

These are the load-bearing correctness tests of the reproduction.  Over
seeded random programs and seeded random schedules they check, on *every*
explored interleaving:

1. **Exception iff WAW/RAW** — CLEAN raises a race exception exactly when
   a precise vector-clock oracle observing the same interleaving records
   a WAW or RAW race; WAR-only interleavings complete.
2. **SFR isolation & write-atomicity** — no exception-free execution
   shows a violation under the independent semantic oracles.
3. **Determinism** — race-free programs under the Kendo gate produce one
   fingerprint across scheduling policies and seeds.
4. **No out-of-thin-air values** — every value read was written by some
   program write (or is the initial zero).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import VcRaceDetector
from repro.clean import CleanMonitor
from repro.core import CleanDetector
from repro.determinism import KendoGate
from repro.runtime import (
    IsolationOracle,
    Program,
    RandomPolicy,
    RoundRobinPolicy,
    SfrTracker,
    WriteAtomicityOracle,
)
from repro.workloads.randprog import make_random_program

MAX_THREADS = 8


def run_with_clean_and_oracle(program, policy):
    """One execution observed simultaneously by CLEAN and the precise
    vector-clock oracle (record-only), so both see the same interleaving."""
    oracle = VcRaceDetector(max_threads=MAX_THREADS, record_only=True)
    clean = CleanDetector(max_threads=MAX_THREADS)
    monitors = [
        CleanMonitor(detector=oracle),
        CleanMonitor(detector=clean),
    ]
    result = program.run(policy=policy, monitors=monitors, max_threads=MAX_THREADS)
    return result, oracle, clean


program_seeds = st.integers(min_value=0, max_value=10_000)
schedule_seeds = st.integers(min_value=0, max_value=10_000)
race_probs = st.sampled_from([0.0, 0.2, 0.5, 0.9])


class TestExceptionIffWawRaw:
    @settings(max_examples=60, deadline=None)
    @given(pseed=program_seeds, sseed=schedule_seeds, prob=race_probs)
    def test_clean_raises_iff_oracle_sees_waw_or_raw(self, pseed, sseed, prob):
        program, _plan = make_random_program(
            pseed, n_threads=3, ops_per_thread=10, race_probability=prob
        )
        result, oracle, _clean = run_with_clean_and_oracle(
            program, RandomPolicy(sseed)
        )
        oracle_kinds = set(oracle.race_kinds())
        if result.race is not None:
            assert result.race.kind in {"WAW", "RAW"}
            assert oracle_kinds & {"WAW", "RAW"}, (
                f"CLEAN raised {result.race.kind} but the precise oracle saw "
                f"only {oracle_kinds or 'nothing'}"
            )
        else:
            assert not (oracle_kinds & {"WAW", "RAW"}), (
                f"precise oracle saw {oracle_kinds} but CLEAN stayed silent"
            )

    @settings(max_examples=40, deadline=None)
    @given(pseed=program_seeds, sseed=schedule_seeds)
    def test_race_free_programs_never_raise(self, pseed, sseed):
        program, plan = make_random_program(
            pseed, n_threads=3, ops_per_thread=12, race_probability=0.0
        )
        assert not plan.racy_by_construction
        result = program.run(
            policy=RandomPolicy(sseed),
            monitors=[CleanMonitor(detector=CleanDetector(max_threads=MAX_THREADS))],
            max_threads=MAX_THREADS,
        )
        assert result.race is None


class TestSfrGuarantees:
    @settings(max_examples=50, deadline=None)
    @given(pseed=program_seeds, sseed=schedule_seeds, prob=race_probs)
    def test_exception_free_runs_have_clean_semantics(self, pseed, sseed, prob):
        """Whether or not the program is racy, any execution CLEAN allows
        to complete shows no isolation or write-atomicity violations."""
        program, _plan = make_random_program(
            pseed, n_threads=3, ops_per_thread=10, race_probability=prob
        )
        tracker = SfrTracker()
        isolation = IsolationOracle(tracker)
        atomicity = WriteAtomicityOracle(tracker)
        result = program.run(
            policy=RandomPolicy(sseed),
            monitors=[
                tracker,
                isolation,
                atomicity,
                CleanMonitor(detector=CleanDetector(max_threads=MAX_THREADS)),
            ],
            max_threads=MAX_THREADS,
        )
        if result.race is None:
            assert isolation.violations == []
            assert atomicity.violations == []

    @settings(max_examples=50, deadline=None)
    @given(pseed=program_seeds, sseed=schedule_seeds, prob=race_probs)
    def test_violations_only_in_executions_clean_stops(self, pseed, sseed, prob):
        """Contrapositive, run without CLEAN: if the oracles flag a
        violation, the precise oracle must have seen a WAW or RAW race —
        i.e. CLEAN would have stopped this execution."""
        program, _plan = make_random_program(
            pseed, n_threads=3, ops_per_thread=10, race_probability=prob
        )
        tracker = SfrTracker()
        isolation = IsolationOracle(tracker)
        atomicity = WriteAtomicityOracle(tracker)
        oracle = VcRaceDetector(max_threads=MAX_THREADS, record_only=True)
        program.run(
            policy=RandomPolicy(sseed),
            monitors=[tracker, isolation, atomicity, CleanMonitor(detector=oracle)],
            max_threads=MAX_THREADS,
        )
        if isolation.violations or atomicity.violations:
            assert set(oracle.race_kinds()) & {"WAW", "RAW"}


class TestDeterminism:
    @settings(max_examples=25, deadline=None)
    @given(pseed=program_seeds)
    def test_race_free_fingerprint_stable_across_schedules(self, pseed):
        fingerprints = set()
        policies = [RoundRobinPolicy()] + [RandomPolicy(s) for s in range(4)]
        for policy in policies:
            program, _plan = make_random_program(
                pseed, n_threads=3, ops_per_thread=10, race_probability=0.0
            )
            result = program.run(
                policy=policy,
                monitors=[
                    CleanMonitor(detector=CleanDetector(max_threads=MAX_THREADS)),
                    KendoGate(),
                ],
                max_threads=MAX_THREADS,
            )
            assert result.race is None
            fingerprints.add(result.fingerprint())
        assert len(fingerprints) == 1

    @settings(max_examples=15, deadline=None)
    @given(pseed=program_seeds, prob=st.sampled_from([0.5, 0.9]))
    def test_completed_racy_runs_are_deterministic(self, pseed, prob):
        """Even racy programs: every execution that *completes* under
        CLEAN+Kendo yields the same result (Section 3.1: exception-free
        executions are deterministic)."""
        fingerprints = set()
        completions = 0
        for sched_seed in range(5):
            program, _plan = make_random_program(
                pseed, n_threads=3, ops_per_thread=8, race_probability=prob
            )
            result = program.run(
                policy=RandomPolicy(sched_seed),
                monitors=[
                    CleanMonitor(detector=CleanDetector(max_threads=MAX_THREADS)),
                    KendoGate(),
                ],
                max_threads=MAX_THREADS,
            )
            if result.race is None:
                completions += 1
                fingerprints.add(result.fingerprint())
        assert len(fingerprints) <= 1


from repro.runtime import ExecutionMonitor


class _ByteProvenance(ExecutionMonitor):
    """Monitor asserting every read byte was previously written there.

    In the paper, out-of-thin-air values arise from compiler and hardware
    transformations that our runtime does not perform, so this is a
    sanity check that the substrate itself honours the guarantee CLEAN's
    semantics promise: reads only ever return bytes some write produced
    (or the initial zero).
    """

    def __init__(self):
        self._written = {}

    def after_access(self, event):
        address, value = event.address, event.value
        for i in range(event.size):
            byte = (value >> (8 * i)) & 0xFF
            if event.is_write:
                self._written.setdefault(address + i, {0}).add(byte)
            else:
                legal = self._written.get(address + i, {0})
                assert byte in legal, (
                    f"out-of-thin-air byte {byte:#x} at {address + i:#x}"
                )


class TestNoOutOfThinAir:
    @settings(max_examples=40, deadline=None)
    @given(pseed=program_seeds, sseed=schedule_seeds, prob=race_probs)
    def test_read_bytes_have_provenance(self, pseed, sseed, prob):
        program, _plan = make_random_program(
            pseed, n_threads=3, ops_per_thread=10, race_probability=prob
        )
        program.run(
            policy=RandomPolicy(sseed),
            monitors=[
                _ByteProvenance(),
                CleanMonitor(detector=CleanDetector(max_threads=MAX_THREADS)),
            ],
            max_threads=MAX_THREADS,
        )
