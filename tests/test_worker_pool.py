"""The one worker pool: resident workers, owner-controlled termination,
and bounded trace admission."""

import multiprocessing
import os
import signal
import struct
import time
import tracemalloc
import zlib

import pytest

from repro.analysis import analyze_trace
from repro.exec import Job, JobRunner, PersistentPool
from repro.runtime.trace import (
    MAX_ACCESS_BYTES,
    TRACE_MAGIC,
    Trace,
    TraceEvent,
    verify_trace_bytes,
)

needs_processes = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs fork-capable multiprocessing",
)


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


@needs_processes
class TestResidentWorkers:
    def test_runner_reuses_its_workers(self):
        runner = JobRunner(workers=2, retries=0)
        jobs = [
            Job(fn="tests._runner_jobs:worker_pid", config={"i": i})
            for i in range(8)
        ]
        results = runner.run(jobs)
        assert all(r.ok for r in results)
        if runner.stats["degraded"]:
            pytest.skip("process workers unavailable in this sandbox")
        pids = {r.value for r in results}
        assert len(pids) <= 2
        assert os.getpid() not in pids

    def test_timeouts_never_trip_the_storm_guard(self):
        # Each hanging job burns three timed-out workers; four of them
        # outnumber respawn_limit, yet every one must still time out.
        runner = JobRunner(workers=1, timeout=0.2, retries=2)
        jobs = [
            Job(fn="tests._runner_jobs:sleeper",
                config={"seconds": 30, "value": i})
            for i in range(4)
        ]
        results = runner.run(jobs)
        assert runner.stats["degraded"] is False
        assert [r.status for r in results] == ["failed"] * 4
        assert all("Timeout" in r.error for r in results)
        assert runner.stats["timeouts"] == 12

    def test_zero_workers_with_a_timeout_still_runs(self):
        runner = JobRunner(workers=0, timeout=5)
        results = runner.run(
            [Job(fn="tests._runner_jobs:worker_pid", config={"i": 0})]
        )
        assert [r.status for r in results] == ["ok"]

    def test_terminate_beats_an_inherited_sigterm_handler(self):
        # The serve daemon installs a SIGTERM drain handler before its
        # pool forks; a worker must not inherit it and swallow the
        # terminate() that reaps a timed-out job.
        previous = signal.signal(signal.SIGTERM, lambda signum, frame: None)
        try:
            pool = PersistentPool(workers=1, timeout=0.5, retries=0).start()
            try:
                pid = pool._workers[0].process.pid
                start = time.perf_counter()
                result = pool.submit(
                    Job(fn="tests._runner_jobs:sleeper", config={"seconds": 6})
                ).wait(timeout=30)
                elapsed = time.perf_counter() - start
            finally:
                pool.stop()
        finally:
            signal.signal(signal.SIGTERM, previous)
        assert result is not None and "Timeout" in result.error
        assert elapsed < 1.5
        assert not _alive(pid)


class TestTraceAdmissionBounds:
    @staticmethod
    def _bomb(n_events: int, raw_len: int, inflated: int = 64 << 20) -> bytes:
        """A CRC-valid one-chunk upload whose header claims ``n_events``
        events in ``raw_len`` bytes and whose zlib stream inflates to
        ``inflated`` zero bytes."""
        deflater = zlib.compressobj(9)
        block = bytes(1 << 20)
        stored = b"".join(
            deflater.compress(block) for _ in range(inflated // len(block))
        ) + deflater.flush()
        stored += struct.pack("<I", zlib.crc32(stored) & 0xFFFFFFFF)
        header = struct.pack("<HBIII", 1, 0x03, n_events, raw_len, len(stored))
        return TRACE_MAGIC + bytes([1]) + header + stored

    @pytest.mark.parametrize(
        "n_events, raw_len",
        [
            (0, 2),  # header understates the payload
            (1 << 22, 19 << 22),  # header claims an 80 MB chunk
        ],
    )
    def test_decompression_bomb_fails_in_bounded_memory(self, n_events, raw_len):
        data = self._bomb(n_events, raw_len)
        assert len(data) < 128 << 10
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="corrupt trace"):
                verify_trace_bytes(data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20

    @staticmethod
    def wide_write(size: int) -> bytes:
        """A CRC-valid, uncompressed one-chunk trace holding a single
        ``size``-byte write: 49 bytes whatever ``size`` claims."""
        payload = struct.pack("<H", 0) + struct.pack(
            "<BQIIH", 1, 0x1000, size, 0, 0xFFFF
        )
        stored = payload + struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF)
        header = struct.pack("<HBIII", 0, 0x02, 1, len(payload), len(stored))
        return TRACE_MAGIC + bytes([1]) + header + stored

    @pytest.mark.parametrize(
        "size", [0, MAX_ACCESS_BYTES + 1, 100 << 20, (1 << 32) - 1]
    )
    def test_access_size_outside_the_cap_fails_in_bounded_memory(
        self, tmp_path, size
    ):
        data = self.wide_write(size)
        assert len(data) == 49
        with pytest.raises(ValueError, match="corrupt trace.*access size"):
            verify_trace_bytes(data)
        path = tmp_path / "wide.trace"
        path.write_bytes(data)
        tracemalloc.start()
        try:
            for mode in ("scalar", "batch"):
                with pytest.raises(ValueError, match="access size"):
                    analyze_trace(str(path), mode=mode)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20

    def test_the_widest_access_is_admitted(self, tmp_path):
        data = self.wide_write(MAX_ACCESS_BYTES)
        assert verify_trace_bytes(data) == 1
        path = tmp_path / "wide.trace"
        path.write_bytes(data)
        assert analyze_trace(str(path)).accesses == 1

    def test_writer_refuses_accesses_outside_the_cap(self, tmp_path):
        for size in (0, MAX_ACCESS_BYTES + 1):
            trace = Trace(per_thread={0: [TraceEvent("W", 0x1000, size)]})
            with pytest.raises(ValueError, match="access size"):
                trace.save(tmp_path / "wide.trace")
