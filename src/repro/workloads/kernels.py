"""Parametrized kernels: turn a :class:`BenchmarkSpec` into a program.

Four kernel families cover the synchronization structures of SPLASH-2
and PARSEC:

* ``barrier_phases`` — iterative data-parallel/stencil codes: threads own
  slot partitions, write only their own partition, read neighbours'
  *previous-phase* values; barriers separate phases, so the race-free
  variant is race-free by construction.
* ``task_locks`` — task-parallel codes sharing structures under locks:
  a slot's lock is ``slot-group % n_locks``; the race-free variant always
  holds the right lock for shared-structure accesses.
* ``pipeline`` — producer/consumer stages over bounded buffers guarded by
  semaphores; ownership handoff makes buffer accesses race-free.
* ``lock_free`` — canneal-style atomic-RMW synchronization, which is a
  data race under CLEAN's model by design (no race-free variant).

The *racy* variant of each kernel injects unprotected accesses to
contended shared slots with probability ``spec.race_density``, the stand-
in for the real benchmarks' known races.

All randomness is drawn from per-thread generators seeded by
``(spec.name, variant, seed, tid)``, so a given (spec, seed) pair always
produces the identical operation stream — programs are replayable and
the determinism experiments are meaningful.
"""

from __future__ import annotations

import random
from typing import Callable, List

from ..runtime.ops import (
    Acquire,
    AtomicRMW,
    BarrierWait,
    Compute,
    Join,
    Output,
    Read,
    Release,
    SemPost,
    SemWait,
    Spawn,
    Write,
)
from ..runtime.program import Program
from ..runtime.recovery import Quarantined
from ..runtime.sync import Barrier, Lock, Semaphore
from .spec import BenchmarkSpec

__all__ = ["build_program", "N_THREADS"]

#: The paper runs every benchmark with 8 threads (Section 6.1).
N_THREADS = 8

SLOT = 8
_PRIVATE_SLOTS = 64


def build_program(
    spec: BenchmarkSpec,
    scale: str = "simsmall",
    racy: bool = False,
    seed: int = 0,
    n_threads: int = N_THREADS,
) -> Program:
    """Build the runnable program for ``spec`` at ``scale``.

    ``racy=True`` selects the unmodified (racy) variant; it is an error
    for specs whose unmodified version is race-free, and lock_free specs
    (canneal) have *only* the racy variant (Section 6.1).
    """
    if racy and not spec.racy:
        raise ValueError(f"{spec.name} has no racy variant (unmodified is race-free)")
    if spec.style == "lock_free" and not racy:
        raise ValueError(
            f"{spec.name} is lock-free synchronized; it has no race-free variant"
        )
    builder = _BUILDERS[spec.style]
    return builder(spec, scale, racy, seed, n_threads)


def _rng_for(spec: BenchmarkSpec, racy: bool, seed: int, tid: int) -> random.Random:
    return random.Random(f"{spec.name}/{int(racy)}/{seed}/{tid}")


def _pick_size(
    rng: random.Random, spec: BenchmarkSpec, is_write: bool = False
) -> int:
    total = sum(w for _, w in spec.access_sizes)
    roll = rng.randrange(total)
    size = spec.access_sizes[-1][0]
    for candidate, weight in spec.access_sizes:
        roll -= weight
        if roll < 0:
            size = candidate
            break
    if is_write and size < 4 and not spec.byte_granular:
        # Sub-word *writes* to shared data are rare in real codes (they
        # are what forces hardware metadata expansion); only the
        # byte-granular benchmarks (dedup) issue them.
        size = 4
    return size


def _slot_address(base: int, slot: int, rng: random.Random, size: int) -> int:
    offset = size * rng.randrange(SLOT // size) if size < SLOT else 0
    return base + slot * SLOT + offset


def _per_item_counts(rng: random.Random, rate: float) -> int:
    """Integer draw with expectation ``rate`` (deterministic in rng)."""
    whole = int(rate)
    if rng.random() < rate - whole:
        whole += 1
    return whole


def _compute_amount(spec: BenchmarkSpec, tid: int, n_threads: int) -> int:
    """Per-item compute, skewed across threads by ``spec.imbalance``."""
    if not spec.imbalance:
        return max(1, spec.compute_per_item)
    # Thread 1 lightest, thread n heaviest; mean stays compute_per_item.
    skew = 1.0 + spec.imbalance * ((2 * (tid - 1) / max(1, n_threads - 1)) - 1.0)
    return max(1, int(spec.compute_per_item * skew))


def _private_accesses(rng, spec, private_base, value):
    """Ops for this item's private (stack-like) accesses."""
    ops = []
    for _ in range(_per_item_counts(rng, spec.private_per_item)):
        slot = rng.randrange(_PRIVATE_SLOTS)
        address = private_base + slot * SLOT
        if rng.random() < 0.5:
            ops.append(Write(address, 8, value, private=True))
        else:
            ops.append(Read(address, 8, private=True))
    return ops


def _choose_slot(rng, spec, hot: List[int], n_slots: int,
                 bias: float = None) -> int:
    """Locality model: reuse a hot slot or stride to a fresh one.

    ``bias`` overrides the spec's reuse probability; writes use a high
    floor (real codes rewrite hot data many times between
    synchronizations, which is what makes the hardware same-epoch fast
    path common).
    """
    reuse = spec.locality if bias is None else bias
    if hot and rng.random() < reuse:
        slot = rng.choice(hot)
    else:
        slot = rng.randrange(n_slots)
        hot.append(slot)
        if len(hot) > 16:
            hot.pop(0)
    return slot


def _write_bias(spec) -> float:
    return max(spec.locality, 0.85)


# ---------------------------------------------------------------------------
# barrier_phases
# ---------------------------------------------------------------------------


def _build_barrier_phases(spec, scale, racy, seed, n_threads):
    items = spec.items_at(scale)
    n_slots = max(n_threads * 16, spec.slots_at(scale))
    phases = max(1, min(items, int(items * spec.sync_per_item)))
    items_per_phase = max(1, items // phases)
    barrier = Barrier(n_threads, f"{spec.name}-barrier")
    # Double buffering: each phase reads the previous phase's array and
    # writes the other; the barrier between phases orders reads after the
    # writes they observe, so the race-free variant is race-free.
    total_slots = 2 * n_slots

    def worker(ctx, shared_base, private_base, tid_index):
        rng = _rng_for(spec, racy, seed, tid_index)
        per_thread = n_slots // n_threads
        my_lo = tid_index * per_thread
        hot_own: List[int] = []   # partition-relative (writes)
        hot_read: List[int] = []  # array-relative (reads)
        checksum = 0
        item = 0
        for phase in range(phases):
            write_array = shared_base + (phase % 2) * n_slots * SLOT
            read_array = shared_base + ((phase + 1) % 2) * n_slots * SLOT
            for _ in range(items_per_phase):
                item += 1
                yield Compute(_compute_amount(spec, tid_index + 1, n_threads))
                for op in _private_accesses(rng, spec, private_base, item):
                    yield op
                for _ in range(_per_item_counts(rng, spec.shared_per_item)):
                    if racy and rng.random() < spec.race_density:
                        # Unmodified benchmark: unsynchronized access to a
                        # small contended region of the write array.
                        is_write = rng.random() < 0.7
                        size = _pick_size(rng, spec, is_write)
                        slot = rng.randrange(min(4, n_slots))
                        address = _slot_address(write_array, slot, rng, size)
                        if is_write:
                            yield Write(address, size, item)
                        else:
                            checksum ^= yield Read(address, size)
                        continue
                    is_write = rng.random() < spec.write_fraction
                    size = _pick_size(rng, spec, is_write)
                    if is_write:
                        # Writes stay in the thread's own partition of the
                        # current write array.
                        slot = my_lo + _choose_slot(
                            rng, spec, hot_own, per_thread, bias=_write_bias(spec)
                        )
                        address = _slot_address(write_array, slot, rng, size)
                        yield Write(address, size, item)
                    else:
                        # Reads mostly stay in the thread's own partition
                        # (interior points); a minority cross partitions
                        # (boundary exchange), barrier-ordered either way.
                        if rng.random() < 0.85:
                            slot = my_lo + _choose_slot(
                                rng, spec, hot_own, per_thread
                            )
                        else:
                            slot = _choose_slot(rng, spec, hot_read, n_slots)
                        address = _slot_address(read_array, slot, rng, size)
                        checksum ^= yield Read(address, size)
            yield BarrierWait(barrier)
        yield Output(checksum & 0xFFFFFFFF)
        return checksum & 0xFFFFFFFF

    return _spawn_harness(spec, worker, total_slots, n_threads)


# ---------------------------------------------------------------------------
# task_locks
# ---------------------------------------------------------------------------


def _build_task_locks(spec, scale, racy, seed, n_threads):
    items = spec.items_at(scale)
    n_slots = max(n_threads * 16, spec.slots_at(scale))
    n_locks = 8
    locks = [Lock(f"{spec.name}-lock{i}") for i in range(n_locks)]
    # Shared structures (locked) occupy the low quarter of the slots; the
    # rest is per-thread-owned data accessed without locks.
    shared_slots = max(n_locks, n_slots // 4)

    def worker(ctx, shared_base, private_base, tid_index):
        rng = _rng_for(spec, racy, seed, tid_index)
        owned_per_thread = (n_slots - shared_slots) // n_threads
        my_lo = shared_slots + tid_index * owned_per_thread
        hot: List[int] = []
        checksum = 0
        for item in range(1, items + 1):
            yield Compute(_compute_amount(spec, tid_index + 1, n_threads))
            for op in _private_accesses(rng, spec, private_base, item):
                yield op
            n_lock_sections = _per_item_counts(rng, spec.sync_per_item / 2)
            for _ in range(n_lock_sections):
                group = rng.randrange(n_locks)
                skip_lock = racy and rng.random() < spec.race_density
                if not skip_lock:
                    yield Acquire(locks[group])
                # Shared structures are hot: only a few rows per lock, so
                # unprotected accesses in the racy variant reliably
                # conflict with other threads' locked updates.  The racy
                # variant's unprotected sections hit the hottest row.
                rows = 1 if skip_lock else max(1, min(4, shared_slots // n_locks))
                slot = group + n_locks * rng.randrange(rows)
                address = _slot_address(shared_base, slot, rng, 8)
                value = yield Read(address, 8)
                yield Write(address, 8, (value + item) & 0xFFFFFFFFFFFFFFFF)
                checksum ^= value
                if not skip_lock:
                    yield Release(locks[group])
            for _ in range(_per_item_counts(rng, spec.shared_per_item)):
                is_write = rng.random() < spec.write_fraction
                size = _pick_size(rng, spec, is_write)
                slot = my_lo + _choose_slot(
                    rng, spec, hot, owned_per_thread,
                    bias=_write_bias(spec) if is_write else None,
                )
                address = _slot_address(shared_base, slot, rng, size)
                if is_write:
                    yield Write(address, size, item)
                else:
                    checksum ^= yield Read(address, size)
        yield Output(checksum & 0xFFFFFFFF)
        return checksum & 0xFFFFFFFF

    return _spawn_harness(spec, worker, n_slots, n_threads)


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------

_CELL = 32   # bytes per pipeline buffer cell
_BATCH = 16  # items handed between stages per queue operation
_RING = 2    # batches in flight per inter-stage ring


def _build_pipeline(spec, scale, racy, seed, n_threads):
    total_items = spec.items_at(scale)
    n_stages = n_threads
    rings = n_stages - 1  # ring i connects stage i -> stage i+1
    empty = [Semaphore(_RING, f"{spec.name}-empty{i}") for i in range(rings)]
    full = [Semaphore(0, f"{spec.name}-full{i}") for i in range(rings)]
    stats_lock = Lock(f"{spec.name}-stats")
    n_batches = -(-total_items // _BATCH)

    def cell_addr(buffers_base, ring, batch, j):
        slot = (ring * _RING + batch % _RING) * _BATCH + j
        return buffers_base + slot * _CELL

    def stage(ctx, buffers_base, stats_base, private_base, stage_index):
        rng = _rng_for(spec, racy, seed, stage_index)
        checksum = 0
        for batch in range(n_batches):
            # Queue operations happen per *batch*, as real pipelines do
            # (fine-grained per-item handoff would drown in sync cost).
            if stage_index > 0:
                yield SemWait(full[stage_index - 1])
            if stage_index < n_stages - 1:
                yield SemWait(empty[stage_index])
            for j in range(_BATCH):
                item = batch * _BATCH + j + 1
                if item > total_items:
                    break
                yield Compute(_compute_amount(spec, stage_index + 1, n_stages))
                for op in _private_accesses(rng, spec, private_base, item):
                    yield op
                value = item
                # Byte-granular benchmarks (dedup) move their payload a
                # byte at a time; the byte writes by different stages
                # stamp different epochs into the same 4-byte metadata
                # groups -> hardware line expansion.
                bytewise = spec.byte_granular
                if stage_index > 0:
                    in_addr = cell_addr(buffers_base, stage_index - 1, batch, j)
                    if bytewise:
                        value = 0
                        for i in range(8):
                            value |= (yield Read(in_addr + i, 1)) << (8 * i)
                    else:
                        value = yield Read(in_addr, 8)
                checksum ^= value
                if stage_index < n_stages - 1:
                    out_addr = cell_addr(buffers_base, stage_index, batch, j)
                    if bytewise:
                        for i in range(8):
                            yield Write(out_addr + i, 1, (value >> (8 * i)) & 0xFF)
                    else:
                        yield Write(out_addr, 8, value)
                if racy and rng.random() < spec.race_density:
                    # Unmodified benchmark: a stats counter updated
                    # without the lock.
                    current = yield Read(stats_base, 8)
                    yield Write(stats_base, 8, current + 1)
            if stage_index > 0:
                yield SemPost(empty[stage_index - 1])
            if stage_index < n_stages - 1:
                yield SemPost(full[stage_index])
            if rng.random() < spec.sync_per_item:
                yield Acquire(stats_lock)
                current = yield Read(stats_base, 8)
                yield Write(stats_base, 8, current + 1)
                yield Release(stats_lock)
        yield Output(checksum & 0xFFFFFFFF)
        return checksum & 0xFFFFFFFF

    def main(ctx):
        buffers_base = ctx.alloc(rings * _RING * _BATCH * _CELL, align=64)
        stats_base = ctx.alloc(SLOT, align=8)
        children = []
        for index in range(n_stages):
            private_base = ctx.alloc(_PRIVATE_SLOTS * SLOT, align=64)
            child = yield Spawn(stage, (buffers_base, stats_base, private_base, index))
            children.append(child)
        total = 0
        for child in children:
            result = yield Join(child)  # Quarantined if recovery parked it
            total ^= 0 if isinstance(result, Quarantined) else result
        yield Output(total)
        return total

    return Program(main)


# ---------------------------------------------------------------------------
# lock_free (canneal)
# ---------------------------------------------------------------------------


def _build_lock_free(spec, scale, racy, seed, n_threads):
    items = spec.items_at(scale)
    n_slots = max(n_threads * 16, spec.slots_at(scale))

    def worker(ctx, shared_base, private_base, tid_index):
        rng = _rng_for(spec, racy, seed, tid_index)
        hot: List[int] = []
        checksum = 0
        for item in range(1, items + 1):
            yield Compute(_compute_amount(spec, tid_index + 1, n_threads))
            for op in _private_accesses(rng, spec, private_base, item):
                yield op
            for _ in range(_per_item_counts(rng, spec.shared_per_item)):
                roll = rng.random()
                is_write = 0.2 <= roll < 0.2 + spec.write_fraction
                size = _pick_size(rng, spec, is_write)
                slot = _choose_slot(rng, spec, hot, n_slots)
                address = _slot_address(shared_base, slot, rng, size)
                if roll < 0.2:
                    # Lock-free swap attempt: atomic RMW on a shared
                    # element — a WAW/RAW race under CLEAN's model.
                    old = yield AtomicRMW(address, size, lambda v: (v + 1) & 0xFF)
                    checksum ^= old
                elif is_write:
                    yield Write(address, size, item)
                else:
                    checksum ^= yield Read(address, size)
        yield Output(checksum & 0xFFFFFFFF)
        return checksum & 0xFFFFFFFF

    return _spawn_harness(spec, worker, n_slots, n_threads)


# ---------------------------------------------------------------------------
# common harness
# ---------------------------------------------------------------------------


def _spawn_harness(spec, worker, n_slots, n_threads) -> Program:
    def main(ctx):
        shared_base = ctx.alloc(n_slots * SLOT, align=64)
        children = []
        for index in range(n_threads):
            private_base = ctx.alloc(_PRIVATE_SLOTS * SLOT, align=64)
            child = yield Spawn(worker, (shared_base, private_base, index))
            children.append(child)
        total = 0
        for child in children:
            result = yield Join(child)  # Quarantined if recovery parked it
            total ^= 0 if isinstance(result, Quarantined) else result
        yield Output(total)
        return total

    return Program(main)


_BUILDERS: dict = {
    "barrier_phases": _build_barrier_phases,
    "task_locks": _build_task_locks,
    "pipeline": _build_pipeline,
    "lock_free": _build_lock_free,
}
