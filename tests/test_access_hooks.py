"""The memory hooks under the scheduler's compiled dispatch.

Every memory operation reaches monitors as one ``AccessEvent`` through
``before_access``/``after_access``, and the scheduler calls only the
monitors that override a hook.  On random programs mixing shared,
private and atomic accesses with lock-protected regions, recorders that
log each hook call they see pin three metamorphic properties:

* monitors that override nothing, or only sync hooks, change no log,
  verdict or outcome wherever they sit in the stack;
* a recorder subclass that inherits its hooks logs what its base logs;
* within each event, hooks are called in stack order.
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


class InheritingRecorder(Recorder):
    """Defines no hook of its own: every hook comes from :class:`Recorder`."""


class SyncOnly(ExecutionMonitor):
    """Overrides only synchronization hooks, and does nothing in them."""

    def on_acquire(self, tid, lock):
        pass

    def on_release(self, tid, lock):
        pass

    def may_sync(self, tid, op):
        return True

    def on_sync_commit(self, tid, op):
        pass


#: Inert monitors to insert: (position in the stack, kind).
inserts = st.lists(
    st.tuples(st.integers(0, 4), st.sampled_from(("plain", "sync_only"))),
    max_size=4,
)


def _log(scripts, seed, inert=(), first=Recorder, middle=False):
    """Run ``scripts`` under recorders around a CLEAN stack.

    ``inert`` inserts ``ExecutionMonitor()``s and :class:`SyncOnly`
    monitors at the given positions; ``first`` is the top recorder's
    class; ``middle`` adds a recorder between the detector and the gate.
    """
    log = []
    monitors = [
        first("first", log),
        CleanMonitor(detector=CleanDetector(max_threads=MAX_THREADS)),
        KendoGate(),
        Recorder("last", log),
    ]
    if middle:
        monitors.insert(2, Recorder("middle", log))
    for position, kind in inert:
        monitors.insert(
            position, ExecutionMonitor() if kind == "plain" else SyncOnly()
        )
    result = _program(scripts).run(
        policy=RandomPolicy(seed),
        monitors=monitors,
        max_threads=MAX_THREADS,
    )
    race = None if result.race is None else str(result.race)
    return log, race, result.fingerprint()


class TestDispatch:
    @settings(max_examples=60, deadline=None)
    @given(scripts=programs, seed=st.integers(0, 10_000), inert=inserts)
    def test_recorded_hook_calls_match(self, scripts, seed, inert):
        """Monitors that override nothing, or only sync hooks, change no
        recorded memory hook call, verdict or outcome wherever they sit
        in the stack."""
        plain = _log(scripts, seed)
        assert _log(scripts, seed, inert=inert) == plain
        assert plain[0], "every program performs at least one access"

    @settings(max_examples=30, deadline=None)
    @given(scripts=programs, seed=st.integers(0, 10_000))
    def test_inherited_hooks_are_dispatched(self, scripts, seed):
        assert _log(scripts, seed, first=InheritingRecorder) == _log(
            scripts, seed
        )

    @settings(max_examples=30, deadline=None)
    @given(scripts=programs, seed=st.integers(0, 10_000))
    def test_calls_follow_stack_order(self, scripts, seed):
        """Each hook call reaches the monitors top to bottom; only the
        race's own call stops at the detector, after the top recorder."""
        log, race, _ = _log(scripts, seed, middle=True)
        order = ["first", "middle", "last"]
        calls = [log[i:i + 3] for i in range(0, len(log), 3)]
        for index, call in enumerate(calls):
            assert [entry[0] for entry in call] == order[:len(call)]
            assert len({entry[1:] for entry in call}) == 1
            if len(call) < 3:
                assert race is not None and len(call) == 1
                assert index == len(calls) - 1

    def test_event_values_per_phase(self):
        # A read's value is known only after the load; a write's before
        # hook already sees the value about to be stored.
        scripts = [[("read", 0, 8, False), ("write", 0, 8, False)]]
        log, race, _ = _log(scripts, 0)
        assert race is None
        seen = [(hook, is_write, value)
                for name, hook, _t, _a, _s, is_write, value in log
                if name == "first"]
        assert seen == [
            ("before", False, None), ("after", False, 0),
            ("before", True, 1), ("after", True, 1),
        ]
