"""Seeded random multithreaded programs for property testing.

Generates small programs whose shared accesses either all follow a
lock-per-address discipline (*race-free by construction*) or sometimes
skip the lock (*racy by construction*).  The generator is deterministic
in its seed, so a failing case is perfectly reproducible, and the plan is
inspectable (how many unprotected accesses were planted).

These programs drive the Section-3.4 property tests: on every schedule,
CLEAN must raise exactly when the precise oracle sees a WAW/RAW race,
race-free programs must never raise and must be deterministic under the
Kendo gate, and exception-free executions must show no SFR isolation or
write-atomicity violations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Tuple

from ..runtime.ops import (
    Acquire,
    Compute,
    Join,
    Output,
    Read,
    Release,
    Spawn,
    Write,
)
from ..runtime.program import Program
from ..runtime.recovery import Quarantined
from ..runtime.sync import Lock

__all__ = ["RandomProgramPlan", "make_random_program"]

#: Each address slot is 8 bytes; accesses stay inside one slot.
SLOT = 8


@dataclass
class RandomProgramPlan:
    """The generated plan: per-thread operation scripts.

    Each action is ``(kind, slot, size, offset, protected)`` with kind in
    ``{"read", "write", "compute"}``.
    """

    seed: int
    n_threads: int
    n_slots: int
    n_locks: int
    actions: List[List[Tuple[str, int, int, int, bool]]] = field(default_factory=list)
    unprotected: int = 0

    @property
    def racy_by_construction(self) -> bool:
        """Whether any planned access skips its slot's lock."""
        return self.unprotected > 0


def make_random_program(
    seed: int,
    n_threads: int = 3,
    ops_per_thread: int = 12,
    n_slots: int = 4,
    n_locks: int = 2,
    race_probability: float = 0.0,
) -> Tuple[Program, RandomProgramPlan]:
    """Build a seeded random program and its plan.

    ``race_probability`` is the chance each shared access skips the lock
    that protects its slot; 0.0 yields a race-free-by-construction
    program.  Every slot is owned by exactly one lock
    (``slot % n_locks``), so protected accesses can never race.
    """
    if not 0.0 <= race_probability <= 1.0:
        raise ValueError("race_probability must be within [0, 1]")
    rng = random.Random(seed)
    plan = RandomProgramPlan(
        seed=seed, n_threads=n_threads, n_slots=n_slots, n_locks=n_locks
    )
    for _ in range(n_threads):
        script: List[Tuple[str, int, int, int, bool]] = []
        for _ in range(ops_per_thread):
            roll = rng.random()
            if roll < 0.15:
                script.append(("compute", 0, rng.randint(1, 20), 0, True))
                continue
            kind = "write" if rng.random() < 0.5 else "read"
            slot = rng.randrange(n_slots)
            size = rng.choice([1, 4, 8])
            offset = rng.randrange(SLOT - size + 1)
            protected = rng.random() >= race_probability
            if not protected:
                plan.unprotected += 1
            script.append((kind, slot, size, offset, protected))
        plan.actions.append(script)

    def worker(ctx, base, locks, script, my_index):
        wrote = 0
        for kind, slot, size, offset, protected in script:
            if kind == "compute":
                yield Compute(size)
                continue
            lock = locks[slot % len(locks)]
            address = base + slot * SLOT + offset
            if protected:
                yield Acquire(lock)
            if kind == "write":
                wrote += 1
                yield Write(address, size, (my_index + 1) * 1000 + wrote)
            else:
                value = yield Read(address, size)
                yield Output(value)
            if protected:
                yield Release(lock)
        return wrote

    def main(ctx):
        base = ctx.alloc(n_slots * SLOT)
        locks = [Lock(f"slot-lock{i}") for i in range(n_locks)]
        children = []
        for index in range(n_threads):
            child = yield Spawn(worker, (base, locks, plan.actions[index], index))
            children.append(child)
        total = 0
        for child in children:
            result = yield Join(child)  # Quarantined if recovery parked it
            total += 0 if isinstance(result, Quarantined) else result
        yield Output(total)
        return total

    return Program(main), plan
