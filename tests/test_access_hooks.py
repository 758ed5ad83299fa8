"""The memory hooks under both scheduler dispatch modes.

Every memory operation reaches monitors as one ``AccessEvent`` through
``before_access``/``after_access``.  ``Scheduler(fused=False)``, the
reference dispatch, calls every monitor's hooks instead of only the
overriding ones.  A recorder that logs each hook call it sees must log
the same sequence under both modes, on random programs mixing shared,
private and atomic accesses with lock-protected regions.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clean import CleanMonitor
from repro.core import CleanDetector
from repro.determinism import KendoGate
from repro.runtime import (
    Acquire,
    AtomicRMW,
    ExecutionMonitor,
    Join,
    Lock,
    Program,
    RandomPolicy,
    Read,
    Release,
    Spawn,
    Write,
)

MAX_THREADS = 8
SLOTS = 4


class Recorder(ExecutionMonitor):
    """Appends ``(name, hook, tid, address, size, is_write, value)`` for
    every memory hook call to a log shared with other recorders, so the
    log also pins the order of monitors in the stack."""

    def __init__(self, name, log):
        self.name = name
        self.log = log

    def _note(self, hook, event):
        self.log.append((
            self.name, hook, event.tid, event.address, event.size,
            event.is_write, event.value,
        ))

    def before_access(self, event):
        self._note("before", event)

    def after_access(self, event):
        self._note("after", event)


#: One worker operation: (kind, slot, size, private).
ops = st.tuples(
    st.sampled_from(("read", "write", "rmw", "locked")),
    st.integers(0, SLOTS - 1),
    st.sampled_from((1, 2, 4, 8)),
    st.booleans(),
)
programs = st.lists(st.lists(ops, min_size=1, max_size=8), min_size=1,
                    max_size=3)


def _worker(ctx, base, lock, index, script):
    for step, (kind, slot, size, private) in enumerate(script):
        address = base + 8 * slot
        if kind == "read":
            yield Read(address, size, private=private)
        elif kind == "write":
            yield Write(address, size, index * 100 + step, private=private)
        elif kind == "rmw":
            yield AtomicRMW(address, size, lambda old: old + 1)
        else:
            yield Acquire(lock)
            value = yield Read(address, size)
            yield Write(address, size, value + 1)
            yield Release(lock)


def _program(scripts):
    def main(ctx):
        base = ctx.alloc(8 * SLOTS)
        lock = Lock("L")
        kids = []
        for index, script in enumerate(scripts):
            kids.append((yield Spawn(_worker, (base, lock, index, script))))
        for kid in kids:
            yield Join(kid)

    return Program(main)


def _log(scripts, seed, fused):
    log = []
    result = _program(scripts).run(
        policy=RandomPolicy(seed),
        monitors=[
            Recorder("first", log),
            CleanMonitor(detector=CleanDetector(max_threads=MAX_THREADS)),
            KendoGate(),
            Recorder("last", log),
        ],
        max_threads=MAX_THREADS,
        fused=fused,
    )
    race = None if result.race is None else str(result.race)
    return log, race, result.fingerprint()


class TestFusedEqualsUnfused:
    @settings(max_examples=60, deadline=None)
    @given(scripts=programs, seed=st.integers(0, 10_000))
    def test_recorded_hook_calls_match(self, scripts, seed):
        fused = _log(scripts, seed, fused=True)
        unfused = _log(scripts, seed, fused=False)
        assert fused == unfused
        assert fused[0], "every program performs at least one access"

    def test_event_values_per_phase(self):
        # A read's value is known only after the load; a write's before
        # hook already sees the value about to be stored.
        scripts = [[("read", 0, 8, False), ("write", 0, 8, False)]]
        for fused in (True, False):
            log, race, _ = _log(scripts, 0, fused=fused)
            assert race is None
            seen = [(hook, is_write, value)
                    for name, hook, _t, _a, _s, is_write, value in log
                    if name == "first"]
            assert seen == [
                ("before", False, None), ("after", False, 0),
                ("before", True, 1), ("after", True, 1),
            ]
