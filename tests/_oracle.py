"""The vector-clock oracle shared by the live and offline verdict tests.

:class:`Oracle` is the full vector-clock detector of Section 2.3 in
record-only mode: it never stops an execution, and it records every race
it sees together with the ordinal of the access that found it.
:class:`OracleMonitor` drives it from a live run without going through
``CleanMonitor``, the adapter under test.  :func:`assert_names_first_race`
checks a lane's verdict against the records.
"""

from repro.baselines.vcdetector import VcRaceDetector
from repro.runtime import ExecutionMonitor


class Oracle(VcRaceDetector):
    """The full vector-clock detector, recording every race it sees
    together with the ordinal of the access that found it."""

    def __init__(self, max_threads):
        super().__init__(max_threads=max_threads, record_only=True)
        self.access = 0
        self.records = []

    def check_read(self, tid, address, size=1):
        self.access += 1
        super().check_read(tid, address, size)

    def check_write(self, tid, address, size=1):
        self.access += 1
        super().check_write(tid, address, size)

    def _report(self, exc):
        self.records.append((self.access, exc))
        super()._report(exc)


class OracleMonitor(ExecutionMonitor):
    """Feeds the scheduler's events to an :class:`Oracle`: shared writes
    are checked before the store, shared reads after the load, and every
    sync is a happens-before edge."""

    def __init__(self, oracle):
        self.oracle = oracle

    def on_thread_start(self, tid, parent):
        if parent is None:
            root = self.oracle.spawn_root()
            assert root == tid, (root, tid)

    def on_spawn(self, parent, child):
        self.oracle.fork(parent, child)

    def on_join(self, parent, child):
        self.oracle.join(parent, child)

    def before_access(self, event):
        if event.is_write and not event.private:
            self.oracle.check_write(event.tid, event.address, event.size)

    def after_access(self, event):
        if not event.is_write and not event.private:
            self.oracle.check_read(event.tid, event.address, event.size)

    def on_acquire(self, tid, lock):
        self.oracle.acquire(tid, lock)

    def on_release(self, tid, lock):
        self.oracle.release(tid, lock)

    def on_barrier_arrive(self, tid, barrier, generation):
        self.oracle.release(tid, (barrier, generation))

    def on_barrier_depart(self, tid, barrier, generation):
        self.oracle.acquire(tid, (barrier, generation))

    def on_cond_signal(self, tid, cond):
        self.oracle.release(tid, cond)

    def on_cond_wake(self, tid, cond):
        self.oracle.acquire(tid, cond)

    def on_sem_post(self, tid, sem):
        self.oracle.release(tid, sem)

    def on_sem_wait(self, tid, sem):
        self.oracle.acquire(tid, sem)


def race_fields(exc):
    """A :class:`~repro.core.exceptions.RaceException` (or ``None``) as
    a dict with the keys of ``analyze --json``'s ``race`` payload, less
    the replay-only ``position``."""
    if exc is None:
        return None
    return {
        "kind": exc.kind,
        "address": exc.address,
        "size": exc.size,
        "accessing_tid": exc.accessing_tid,
        "prior_writer_tid": exc.prior_writer_tid,
        "prior_writer_clock": exc.prior_writer_clock,
    }


def assert_names_first_race(records, race, label=""):
    """A lane is racy iff the oracle recorded a WAW or RAW race, and
    then names the oracle's first one: same kind and accessing thread,
    the racing byte inside the reported access, and a prior writer the
    oracle also saw at that access (it reports every racing writer,
    CLEAN the last).

    ``race`` is the lane's race as a dict with the keys of
    ``analyze --json``'s ``race`` payload (see :func:`race_fields`), or
    ``None``.
    """
    first = next(
        (record for record in records if record[1].kind != "WAR"), None
    )
    assert (race is not None) == (first is not None), (label, race, first)
    if first is None:
        return
    access, expected = first
    assert (race["kind"], race["accessing_tid"]) == (
        expected.kind, expected.accessing_tid
    ), label
    assert (
        race["address"] <= expected.address < race["address"] + race["size"]
    ), label
    seen = {
        (exc.kind, exc.prior_writer_tid, exc.prior_writer_clock)
        for ordinal, exc in records
        if ordinal == access
    }
    assert (
        race["kind"], race["prior_writer_tid"], race["prior_writer_clock"]
    ) in seen, label
