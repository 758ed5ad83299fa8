"""Hostile bytes against the one trace loader.

Every reader of a trace file — ``Trace.load``, ``open_trace`` followed
by a full ``iter_chunks`` walk, and the service's admission check
``verify_trace_bytes`` — must either return or raise ``ValueError``,
quickly, whatever the bytes: an empty file, JSON text (including a
JSON-lines trace of older recorders), the bare magic, the magic followed
by random bytes, and valid traces with bytes overwritten or cut off.
"""

import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.trace import (
    READ,
    SYNC,
    TRACE_MAGIC,
    WRITE,
    Trace,
    TraceEvent,
    open_trace,
    verify_trace_bytes,
)

#: Seconds any one reader may take on one input (inputs are < 4 KB).
TIME_BOUND = 2.0
HEADER = TRACE_MAGIC + bytes([1])


def _valid_traces(directory):
    events = {
        0: [TraceEvent(WRITE, 0x1000 + 8 * i, 8, gap=i % 3) for i in range(20)]
        + [TraceEvent(SYNC, address=1, sync_name="Release:L")],
        1: [TraceEvent(SYNC, address=2, sync_name="Acquire:L")]
        + [TraceEvent(READ, 0x1000 + 4 * i, 4, private=i % 5 == 0)
           for i in range(20)],
        2: [],
    }
    out = []
    for compress in (True, False):
        for crc in (True, False):
            path = directory / f"valid-{compress}-{crc}.trace"
            Trace(per_thread=events).save(
                path, compress=compress, crc=crc, chunk_events=8
            )
            out.append(path.read_bytes())
    return out


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("hostile")


@pytest.fixture(scope="module")
def valid(workdir):
    return _valid_traces(workdir)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)
mutations = st.lists(
    st.tuples(st.integers(0, 1 << 16), st.integers(0, 255)),
    min_size=1, max_size=8,
)


@st.composite
def hostile(draw, valid):
    shape = draw(st.sampled_from(
        ("empty", "json", "jsonl", "magic", "magic+random", "mutated", "cut")
    ))
    if shape == "empty":
        return b""
    if shape == "json":
        return json.dumps(draw(json_values)).encode()
    if shape == "jsonl":
        line = {"tid": 0, "events": [["W", draw(st.integers(0, 1 << 20)),
                                      8, 0, 0, ""]]}
        return (json.dumps(line) + "\n").encode()
    if shape == "magic":
        return HEADER
    if shape == "magic+random":
        return HEADER + draw(st.binary(min_size=1, max_size=512))
    data = bytearray(draw(st.sampled_from(valid)))
    if shape == "cut":
        return bytes(data[: draw(st.integers(0, len(data) - 1))])
    for position, value in draw(mutations):
        data[position % len(data)] = value
    return bytes(data)


def _bounded(read):
    """Run one reader: it returns or raises ValueError, within bound."""
    start = time.perf_counter()
    try:
        read()
    except ValueError:
        pass
    assert time.perf_counter() - start < TIME_BOUND


class TestHostileBytes:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), salvage=st.booleans())
    def test_every_reader_returns_or_raises_value_error(
        self, workdir, valid, data, salvage
    ):
        raw = data.draw(hostile(valid))
        path = workdir / "input.trace"
        path.write_bytes(raw)

        def walk():
            trace = open_trace(path, salvage=salvage)
            for tid in trace.thread_ids():
                for _chunk in trace.iter_chunks(tid):
                    pass

        _bounded(lambda: Trace.load(path, salvage=salvage))
        _bounded(walk)
        _bounded(lambda: verify_trace_bytes(raw))

    def test_non_trace_inputs_are_rejected(self, workdir):
        for raw in (b"", b"[1]", b'{"tid": 0, "events": []}\n', HEADER[:-1]):
            path = workdir / "reject.trace"
            path.write_bytes(raw)
            for read in (
                lambda: Trace.load(path),
                lambda: open_trace(path),
                lambda: verify_trace_bytes(raw),
            ):
                with pytest.raises(ValueError):
                    read()

    def test_valid_traces_load(self, valid):
        for raw in valid:
            assert verify_trace_bytes(raw) == 42
