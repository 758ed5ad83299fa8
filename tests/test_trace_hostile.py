"""Hostile bytes against the one trace decoder and the frame parser.

Every reader of a trace file — ``Trace.load``, ``open_trace`` followed
by a full ``iter_events`` or ``iter_chunks`` walk, and the service's
admission check ``verify_trace_bytes`` — decodes through the same
columnar decoder, so on any bytes they must agree, quickly: an empty
file, JSON text (including a JSON-lines trace of older recorders), the
bare magic, the magic followed by random bytes, and valid traces with
bytes overwritten or cut off.  ``read_frames``, the parser of the
service's write-ahead journal, gets the same treatment on damaged
``write_frame`` streams.
"""

import io
import json
import struct
import time
import zlib

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
    read_frames,
    verify_trace_bytes,
    write_frame,
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


def _outcome(read):
    """Run one reader within the time bound: its result, or None if it
    raised ValueError (any other exception fails the test)."""
    start = time.perf_counter()
    try:
        result = read()
    except ValueError:
        result = None
    assert time.perf_counter() - start < TIME_BOUND
    return result


def _walks(trace):
    """A streaming trace's events per thread, once through
    ``iter_events`` and once through the concatenated ``iter_chunks``."""
    by_events = {tid: list(trace.iter_events(tid)) for tid in trace.thread_ids()}
    by_chunks = {
        tid: [e for chunk in trace.iter_chunks(tid) for e in chunk.events()]
        for tid in trace.thread_ids()
    }
    return by_events, by_chunks


class TestHostileBytes:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_every_reader_returns_or_raises_value_error(
        self, workdir, valid, data
    ):
        raw = data.draw(hostile(valid))
        path = workdir / "input.trace"
        path.write_bytes(raw)

        # Strict: every reader accepts, with the same events, or every
        # reader raises ValueError.
        loaded = _outcome(lambda: Trace.load(path))
        walked = _outcome(lambda: _walks(open_trace(path)))
        count = _outcome(lambda: verify_trace_bytes(raw))
        assert (loaded is None) == (walked is None) == (count is None)
        if loaded is not None:
            by_events, by_chunks = walked
            assert by_events == by_chunks == loaded.per_thread
            assert count == loaded.total_events

        # Salvage: the streaming open and Trace.load agree on whether
        # the file can be walked at all (its magic and chunk structure);
        # once open, the walk never raises and equals the load.
        salvaged = _outcome(lambda: Trace.load(path, salvage=True))
        opened = _outcome(lambda: open_trace(path, salvage=True))
        assert (salvaged is None) == (opened is None)
        if salvaged is not None:
            start = time.perf_counter()
            by_events, by_chunks = _walks(opened)
            assert time.perf_counter() - start < TIME_BOUND
            assert by_events == by_chunks == salvaged.per_thread
            assert opened.salvaged_chunks == salvaged.salvaged_chunks
            # What strict admission accepts, salvage keeps whole.
            assert (count is not None) == (salvaged.salvaged_chunks == 0)
            if count is not None:
                assert salvaged.per_thread == loaded.per_thread

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

    def test_name_table_past_the_payload_is_rejected(self, workdir):
        # An empty chunk whose one sync name claims 500 bytes of a
        # 6-byte payload: no record is left to expose the overrun.
        payload = struct.pack("<HH", 1, 500) + b"ab"
        stored = payload + struct.pack("<I", zlib.crc32(payload))
        raw = HEADER + struct.pack(
            "<HBIII", 0, 0x02, 0, len(payload), len(stored)
        ) + stored
        path = workdir / "overrun.trace"
        path.write_bytes(raw)
        for read in (
            lambda: Trace.load(path),
            lambda: list(open_trace(path).iter_chunks(0)),
            lambda: verify_trace_bytes(raw),
        ):
            with pytest.raises(ValueError, match="runs past the chunk payload"):
                read()
        assert Trace.load(path, salvage=True).salvaged_chunks == 1

    def test_valid_traces_load(self, valid):
        for raw in valid:
            assert verify_trace_bytes(raw) == 42


def _frame_stream(payloads):
    """The bytes ``write_frame`` writes for ``payloads``, and the offset
    of every frame boundary (0 first, the stream's length last)."""
    buffer = io.BytesIO()
    boundaries = [0]
    for payload in payloads:
        boundaries.append(boundaries[-1] + write_frame(buffer, payload))
    return buffer.getvalue(), boundaries


class TestFrameStream:
    """``read_frames`` on truncated and bit-damaged ``write_frame``
    streams: salvage returns exactly the frames before the first damaged
    byte and cuts on a frame boundary; strict returns the same or raises
    ``ValueError``."""

    @settings(max_examples=300, deadline=None)
    @given(
        payloads=st.lists(st.binary(max_size=48), min_size=1, max_size=8),
        data=st.data(),
    )
    def test_damaged_streams_cut_at_a_frame_boundary(self, payloads, data):
        original, boundaries = _frame_stream(payloads)
        stream = bytearray(
            original[: data.draw(st.integers(0, len(original)), label="cut")]
        )
        if stream:
            # XOR masks are nonzero, so each one changes its byte (two on
            # the same byte may cancel): a CRC32 frame cannot hide the
            # change unless it is forged, which random masks are not.
            for position, mask in data.draw(
                st.lists(st.tuples(st.integers(0, 1 << 16), st.integers(1, 255)),
                         max_size=6),
                label="flips",
            ):
                stream[position % len(stream)] ^= mask
        raw = bytes(stream)
        damaged = next(
            (i for i, (a, b) in enumerate(zip(raw, original)) if a != b),
            len(raw),
        )
        intact = sum(1 for end in boundaries[1:] if end <= damaged)

        start = time.perf_counter()
        got, good = read_frames(raw, salvage=True)
        assert time.perf_counter() - start < TIME_BOUND
        assert got == payloads[:intact]
        assert good == boundaries[intact]

        strict = _outcome(lambda: read_frames(raw))
        if strict is not None:
            assert strict == (got, good)
            assert good == len(raw)
