"""Access traces: the interface between the runtime and the hardware sim.

The paper's hardware evaluation is driven by a Pin-based simulator that
observes every memory access of the running benchmark (Section 6.3.1).
Our equivalent: a :class:`TraceRecorder` monitor captures each thread's
stream of memory and synchronization events while a workload runs on the
cooperative runtime; the resulting :class:`Trace` is then replayed by the
trace-driven multicore simulator in :mod:`repro.hardware`.

Events deliberately carry the same information Pin provides the paper's
simulator: address, size, read/write, a stack/private flag ("potentially
shared" is approximated as non-stack, Section 6.3.1), and an instruction
weight for the non-memory work between accesses.

Persistence
-----------

The one on-disk format is *chunked binary*: a magic header followed by
per-thread chunks of packed records, each chunk optionally
zlib-compressed, CRC-stamped and carrying its own sync-name table.  A
chunk has one decoded form, the column arrays of :class:`TraceChunk`,
and one record-validity rule, :func:`_check_columns`, which the writer
applies before it encodes a chunk and the decoder after it decodes one.
Every reader goes through that decoder: :meth:`Trace.load` materializes
the columns as events, :class:`StreamingTrace` (see :func:`open_trace`)
replays a long trace chunk by chunk without holding it in memory, and
:func:`verify_trace` admits a file only if every chunk decodes.  Every
reader checks the magic bytes first: a file without them (an empty
file, or a JSON-lines trace from an older recorder) raises
``ValueError``.
"""

from __future__ import annotations

import contextlib
import io
import os
import struct
import tempfile
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    BinaryIO, Dict, Iterator, List, NamedTuple, Optional, Tuple, Union
)

import numpy as np

from ..core.events import AccessEvent
from .monitor import ExecutionMonitor

__all__ = [
    "TraceEvent",
    "TraceChunk",
    "Trace",
    "TraceRecorder",
    "StreamingTrace",
    "open_trace",
    "chunked_events",
    "verify_trace",
    "verify_trace_bytes",
    "write_frame",
    "read_frames",
    "READ",
    "WRITE",
    "SYNC",
    "TRACE_MAGIC",
    "ADDRESS_LIMIT",
    "MAX_ACCESS_BYTES",
]

READ = "R"
WRITE = "W"
SYNC = "S"

#: Magic bytes opening every trace file, followed by one format version
#: byte.  Files not starting with these bytes are rejected.
TRACE_MAGIC = b"CLNTRACE"
_TRACE_VERSION = 1

#: Chunk header: tid, flags, event count, payload size uncompressed /
#: as stored.  ``flags`` bit 0 marks a zlib-compressed payload; bit 1
#: marks a CRC32 of the stored bytes appended inside the stored region
#: (``stored_len`` includes the 4 checksum bytes, so readers unaware of
#: the flag still skip the chunk correctly and old files — which never
#: set the bit — keep loading unchanged).
_CHUNK_HEADER = struct.Struct("<HBIII")
_NAME_LEN = struct.Struct("<H")
_CRC = struct.Struct("<I")

_KIND_CODE = {READ: 0, WRITE: 1, SYNC: 2}
_CODE_KIND = {0: READ, 1: WRITE, 2: SYNC}
_PRIVATE_BIT = 0x80
_NO_NAME = 0xFFFF
_FLAG_ZLIB = 0x01
_FLAG_CRC32 = 0x02

#: Events per binary chunk: large enough to amortize headers and
#: compression, small enough that streaming replay stays lightweight.
DEFAULT_CHUNK_EVENTS = 4096
#: Hostile-input bounds on one chunk: its event count, and the bytes its
#: sync-name table may add to the records (``raw_len`` can exceed
#: ``n_events`` records by at most this much).  Together they cap
#: what one chunk header can make a reader inflate.
_MAX_CHUNK_EVENTS = 1 << 20
_MAX_NAME_TABLE = 1 << 20
#: Widest access a trace may record: one 64-byte cache line, the widest
#: single load or store a CPU performs (AVX-512) and 8x the widest access
#: of any bundled workload.  Replay expands every access byte by byte,
#: so an unchecked ``size`` would let one record claim gigabytes.
MAX_ACCESS_BYTES = 64
#: Every byte a trace's access touches lies below this address, so the
#: replay's signed 64-bit address columns hold each one exactly.
ADDRESS_LIMIT = 1 << 63

#: One packed record: kind/private byte, address, size, gap, sync-name
#: index into the chunk's name table (0xFFFF = none); little-endian and
#: unpadded, 19 bytes.  A chunk's records encode with one ``tobytes``
#: and decode to column arrays with one ``frombuffer``.
_RECORD_DTYPE = np.dtype(
    [
        ("code", "u1"),
        ("address", "<u8"),
        ("size", "<u4"),
        ("gap", "<u4"),
        ("name", "<u2"),
    ]
)


@dataclass(frozen=True)
class TraceEvent:
    """One event of one thread's trace.

    ``kind`` is :data:`READ`, :data:`WRITE` or :data:`SYNC`.  ``gap``
    counts the non-memory instructions executed since the thread's
    previous event (the simulator charges them one cycle each).
    """

    kind: str
    address: int = 0
    size: int = 0
    private: bool = False
    gap: int = 0
    sync_name: str = ""


@dataclass
class TraceChunk:
    """One run of a thread's events, decoded to column arrays.

    The one decoded form of a binary chunk: its packed records become
    five numpy columns in one ``frombuffer`` call (no per-event Python
    objects), and the offline analysis engine slices
    synchronization-free runs straight out of them for
    ``check_block``.  ``names`` is the chunk's sync-name table;
    ``name_idx`` holds :data:`_NO_NAME` for non-sync events.
    """

    tid: int
    codes: "np.ndarray"
    addresses: "np.ndarray"
    sizes: "np.ndarray"
    gaps: "np.ndarray"
    name_idx: "np.ndarray"
    names: List[str]

    def __len__(self) -> int:
        return len(self.codes)

    @property
    def kinds(self) -> "np.ndarray":
        """Kind codes (0=read, 1=write, 2=sync) with the private bit off."""
        return self.codes & ~np.uint8(_PRIVATE_BIT)

    @property
    def private(self) -> "np.ndarray":
        """Boolean private flag per event."""
        return (self.codes & np.uint8(_PRIVATE_BIT)) != 0

    def events(self) -> List[TraceEvent]:
        """Materialize the chunk as :class:`TraceEvent` objects."""
        names = self.names
        return [
            TraceEvent(
                _CODE_KIND[code & ~_PRIVATE_BIT],
                address,
                size,
                bool(code & _PRIVATE_BIT),
                gap,
                "" if idx == _NO_NAME else names[idx],
            )
            for code, address, size, gap, idx in zip(
                self.codes.tolist(),
                self.addresses.tolist(),
                self.sizes.tolist(),
                self.gaps.tolist(),
                self.name_idx.tolist(),
            )
        ]

    @classmethod
    def from_events(cls, tid: int, events: List[TraceEvent]) -> "TraceChunk":
        """Column-ize an in-memory event list (the recorder's output).

        Raises ``ValueError`` naming the field for an unknown kind or a
        value its packed record column cannot hold.
        """
        try:
            codes = [
                _KIND_CODE[e.kind] | (_PRIVATE_BIT if e.private else 0)
                for e in events
            ]
        except KeyError as exc:
            raise ValueError(f"unknown event kind {exc.args[0]!r}") from None
        table: Dict[str, int] = {}
        name_idx = [
            table.setdefault(e.sync_name, len(table)) if e.sync_name
            else _NO_NAME
            for e in events
        ]
        if len(table) > _NO_NAME:
            raise ValueError(
                f"sync names: {len(table)} in one chunk, at most {_NO_NAME}"
            )
        return cls(
            tid,
            np.array(codes, dtype=np.uint8),
            _column([e.address for e in events], np.uint64, "address/sync order"),
            _column([e.size for e in events], np.uint32, "size"),
            _column([e.gap for e in events], np.uint32, "gap"),
            np.array(name_idx, dtype=np.uint16),
            list(table),
        )


def _column(values: List[int], dtype: type, field: str) -> "np.ndarray":
    """``values`` as a ``dtype`` column, or ``ValueError`` naming
    ``field`` for a value the column cannot hold (numpy would raise
    ``OverflowError``, or wrap)."""
    if not values:
        return np.zeros(0, dtype=dtype)
    column = np.array(values)
    top = int(np.iinfo(dtype).max)
    if column.dtype.kind not in "iu" or column.min() < 0 or column.max() > top:
        bad = next(
            v for v in values
            if not (isinstance(v, (int, np.integer)) and 0 <= v <= top)
        )
        raise ValueError(f"{field} {bad!r} is not an integer in 0..{top}")
    return column.astype(dtype)


# -- binary chunk encode/decode ---------------------------------------------


class _Header(NamedTuple):
    """One chunk's header fields, with its index and offset in the file."""

    index: int
    offset: int
    tid: int
    flags: int
    n_events: int
    raw_len: int
    stored_len: int


def _check_columns(chunk: TraceChunk) -> None:
    """The one record-validity rule.

    The writer applies it before it encodes a chunk and the decoder
    after it decodes one, so no reader accepts what the writer refuses
    and no writer produces what a reader rejects: every kind code is
    known, every access is 1..:data:`MAX_ACCESS_BYTES` bytes wide and
    ends at or below :data:`ADDRESS_LIMIT`, and every sync-name index
    lies inside the chunk's name table.
    """
    kinds = chunk.kinds
    if len(kinds) and int(kinds.max()) > max(_CODE_KIND):
        raise ValueError(f"unknown event kind code {int(kinds.max())}")
    memory = kinds != _KIND_CODE[SYNC]
    sizes = chunk.sizes[memory]
    if sizes.size:
        low, high = int(sizes.min()), int(sizes.max())
        if low < 1 or high > MAX_ACCESS_BYTES:
            raise ValueError(
                f"access size {low if low < 1 else high} outside "
                f"1..{MAX_ACCESS_BYTES} bytes"
            )
        # Sync records hold small commit orders here, so one max clears
        # the usual chunk.
        addresses = chunk.addresses
        if int(addresses.max()) > ADDRESS_LIMIT - MAX_ACCESS_BYTES:
            latest = np.uint64(ADDRESS_LIMIT) - chunk.sizes
            over = memory & (addresses > latest)
            if over.any():
                first = int(over.argmax())
                raise ValueError(
                    f"access of {int(chunk.sizes[first])} bytes at "
                    f"{int(addresses[first]):#x} reaches past 2**63"
                )
    named = chunk.name_idx[chunk.name_idx != _NO_NAME]
    if named.size and int(named.max()) >= len(chunk.names):
        raise ValueError(f"sync-name index {int(named.max())} out of range")


def _corrupt(path: object, index: int, offset: int, detail: str) -> ValueError:
    """The uniform error for any damaged binary trace data."""
    return ValueError(
        f"truncated/corrupt trace: {path}: chunk {index} at offset "
        f"{offset}: {detail}"
    )


def _note_salvaged(count: int) -> None:
    """Count skipped chunks in the ambient telemetry registry."""
    if not count:
        return
    from ..obs.context import current_registry

    registry = current_registry()
    if registry is not None:
        registry.inc("trace.salvaged_chunks", count)


def _encode_chunk(
    tid: int, events: List[TraceEvent], compress: bool, crc: bool
) -> bytes:
    """One chunk's bytes: header, then the name table and packed
    records, zlib-compressed and CRC-stamped as asked."""
    if not 0 <= tid <= 0xFFFF:
        raise ValueError(f"thread id {tid} outside 0..{0xFFFF}")
    chunk = TraceChunk.from_events(tid, events)
    _check_columns(chunk)
    table = [_NAME_LEN.pack(len(chunk.names))]
    for name in chunk.names:
        raw = name.encode("utf-8")
        if len(raw) > 0xFFFF:
            raise ValueError(f"sync name of {len(raw)} bytes, at most {0xFFFF}")
        table += (_NAME_LEN.pack(len(raw)), raw)
    table_bytes = b"".join(table)
    if len(events) > _MAX_CHUNK_EVENTS or len(table_bytes) > _MAX_NAME_TABLE:
        raise ValueError("trace chunk exceeds the readable size bounds")
    records = np.rec.fromarrays(
        [chunk.codes, chunk.addresses, chunk.sizes, chunk.gaps, chunk.name_idx],
        dtype=_RECORD_DTYPE,
    )
    payload = table_bytes + records.tobytes()
    flags = 0
    stored = payload
    if compress:
        flags |= _FLAG_ZLIB
        stored = zlib.compress(payload)
    if crc:
        flags |= _FLAG_CRC32
        stored = stored + _CRC.pack(zlib.crc32(stored) & 0xFFFFFFFF)
    header = _CHUNK_HEADER.pack(tid, flags, len(events), len(payload), len(stored))
    return header + stored


def _headers(fh: BinaryIO, path: object) -> Iterator[_Header]:
    """Walk an open trace's chunk headers in file order.

    Checks the magic bytes first, and leaves ``fh`` at each chunk's
    stored bytes when it yields the chunk's header.  A cut header, or a
    stored region reaching past the end of the file, raises the wrapped
    ``truncated/corrupt trace`` :class:`ValueError`: the rest of the
    file cannot be walked past it, so this holds in salvage mode too.
    """
    _check_magic(fh, path)
    offset = fh.tell()
    end = fh.seek(0, io.SEEK_END)
    index = 0
    while True:
        fh.seek(offset)
        raw = fh.read(_CHUNK_HEADER.size)
        if not raw:
            return
        if len(raw) != _CHUNK_HEADER.size:
            raise _corrupt(
                path, index, offset,
                f"truncated chunk header ({len(raw)}/{_CHUNK_HEADER.size} bytes)",
            )
        header = _Header(index, offset, *_CHUNK_HEADER.unpack(raw))
        start = offset + _CHUNK_HEADER.size
        if start + header.stored_len > end:
            raise _corrupt(
                path, index, offset,
                f"truncated chunk payload "
                f"({end - start}/{header.stored_len} bytes)",
            )
        yield header
        offset = start + header.stored_len
        index += 1


def _verify_stored(stored: bytes, header: _Header) -> bytes:
    """Checksum-verify and decompress one chunk's stored bytes.

    The header is checked first and the inflate is bounded by its
    ``raw_len``, so a small upload cannot make the reader allocate more
    than the header admits (a decompression bomb fails after
    ``raw_len + 1`` bytes).  Stored bytes cut short fail here too.
    """
    n_events, raw_len = header.n_events, header.raw_len
    if not (
        n_events * _RECORD_DTYPE.itemsize <= raw_len
        <= n_events * _RECORD_DTYPE.itemsize + _MAX_NAME_TABLE
    ) or n_events > _MAX_CHUNK_EVENTS:
        raise ValueError(
            f"implausible chunk header ({n_events} events, "
            f"{raw_len} payload bytes)"
        )
    if header.flags & _FLAG_CRC32:
        if len(stored) < _CRC.size:
            raise ValueError("chunk too short for its checksum")
        (expected,) = _CRC.unpack_from(stored, len(stored) - _CRC.size)
        stored = stored[: -_CRC.size]
        actual = zlib.crc32(stored) & 0xFFFFFFFF
        if actual != expected:
            raise ValueError(
                f"CRC mismatch (stored {expected:#010x}, computed {actual:#010x})"
            )
    payload = stored
    if header.flags & _FLAG_ZLIB:
        inflater = zlib.decompressobj()
        try:
            payload = inflater.decompress(stored, raw_len + 1)
        except zlib.error as exc:
            raise ValueError(f"decompression failed: {exc}") from None
        if len(payload) <= raw_len and not inflater.eof:
            raise ValueError(
                "decompression failed: incomplete or truncated stream"
            )
    if len(payload) != raw_len:
        raise ValueError(f"payload length mismatch ({len(payload)} != {raw_len})")
    return payload


def _decode_chunk(stored: bytes, header: _Header, path: object) -> TraceChunk:
    """Verify, decompress and decode one chunk's stored bytes to columns.

    The one record decoder: the name table is walked in Python (it is
    tiny), every packed record lands in numpy columns via one
    ``frombuffer``, and :func:`_check_columns` validates them.  Every
    failure mode — checksum mismatch, zlib damage, record-level garbage
    — surfaces as the wrapped ``truncated/corrupt trace``
    :class:`ValueError` with file, chunk and offset context.  A failure
    here damages only this chunk; the file remains walkable.
    """
    try:
        payload = _verify_stored(stored, header)
        (n_names,) = _NAME_LEN.unpack_from(payload, 0)
        offset = _NAME_LEN.size
        names: List[str] = []
        for _ in range(n_names):
            (length,) = _NAME_LEN.unpack_from(payload, offset)
            offset += _NAME_LEN.size
            names.append(payload[offset : offset + length].decode("utf-8"))
            offset += length
        if offset > len(payload):
            raise ValueError("sync-name table runs past the chunk payload")
        records = payload[offset:]
        if len(records) != header.n_events * _RECORD_DTYPE.itemsize:
            raise ValueError(
                f"corrupt trace chunk: header says {header.n_events} events, "
                f"payload holds {len(records) // _RECORD_DTYPE.itemsize}"
            )
        arr = np.frombuffer(records, dtype=_RECORD_DTYPE)
        chunk = TraceChunk(
            tid=header.tid,
            codes=arr["code"].copy(),
            addresses=arr["address"].copy(),
            sizes=arr["size"].copy(),
            gaps=arr["gap"].copy(),
            name_idx=arr["name"].copy(),
            names=names,
        )
        _check_columns(chunk)
    except (ValueError, struct.error) as exc:
        raise _corrupt(path, header.index, header.offset, str(exc)) from None
    return chunk


def _walk(
    fh: BinaryIO, path: object, salvage: bool = False
) -> Iterator[Tuple[_Header, Optional[TraceChunk]]]:
    """Decode every chunk of an open trace, in file order.

    Yields each chunk's header with its columns.  With ``salvage=True``
    a chunk whose payload is damaged yields ``None`` instead of raising;
    damage to the chunk structure raises in either mode (see
    :func:`_headers`).
    """
    for header in _headers(fh, path):
        try:
            chunk = _decode_chunk(fh.read(header.stored_len), header, path)
        except ValueError:
            if not salvage:
                raise
            chunk = None
        yield header, chunk


@dataclass
class Trace:
    """Per-thread event streams of one execution, held in memory.

    ``salvaged_chunks`` counts binary chunks that were skipped because
    their payload was damaged — nonzero only after a salvage-mode
    :meth:`load` of a partially corrupted file.
    """

    per_thread: Dict[int, List[TraceEvent]] = field(default_factory=dict)
    salvaged_chunks: int = 0

    def thread_ids(self) -> List[int]:
        """Sorted tids present in the trace."""
        return sorted(self.per_thread)

    def events(self, tid: int) -> List[TraceEvent]:
        """The event list of thread ``tid``."""
        return self.per_thread.get(tid, [])

    def iter_events(self, tid: int) -> Iterator[TraceEvent]:
        """Iterate thread ``tid``'s events (the simulator's protocol)."""
        return iter(self.per_thread.get(tid, ()))

    def iter_chunks(
        self, tid: int, chunk_events: int = DEFAULT_CHUNK_EVENTS
    ) -> Iterator[TraceChunk]:
        """Yield thread ``tid``'s events as column-array chunks.

        In-memory traces have no native chunk structure, so slices of
        ``chunk_events`` events are column-ized on the fly — same
        protocol as :meth:`StreamingTrace.iter_chunks`.
        """
        events = self.per_thread.get(tid, [])
        for start in range(0, len(events), chunk_events):
            yield TraceChunk.from_events(tid, events[start : start + chunk_events])

    def __iter__(self) -> Iterator[TraceEvent]:
        for tid in self.thread_ids():
            yield from self.per_thread[tid]

    @property
    def total_events(self) -> int:
        """Total number of events across all threads."""
        return sum(len(v) for v in self.per_thread.values())

    def shared_accesses(self) -> int:
        """Memory events not marked private."""
        return sum(
            1
            for events in self.per_thread.values()
            for e in events
            if e.kind != SYNC and not e.private
        )

    # -- persistence ---------------------------------------------------------

    def save(
        self,
        path: Union[str, Path],
        compress: bool = True,
        chunk_events: int = DEFAULT_CHUNK_EVENTS,
        crc: bool = True,
    ) -> None:
        """Write the trace to ``path`` in the chunked binary format,
        whatever its extension.

        ``compress`` zlib-compresses each chunk; ``chunk_events`` bounds
        events per chunk; ``crc`` stamps each chunk with a CRC32 of its
        stored bytes so loaders can detect bit damage.  The chunks go to
        a temporary file beside ``path`` that replaces it only once every
        chunk has encoded: a save that raises leaves no file, or the old
        one, never a truncated trace that loads.
        """
        if chunk_events < 1:
            raise ValueError("chunk_events must be positive")
        path = Path(path)
        fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(TRACE_MAGIC + bytes([_TRACE_VERSION]))
                for tid in self.thread_ids():
                    events = self.per_thread[tid]
                    # An empty thread still gets one (empty) chunk, which
                    # keeps it visible to readers.
                    for start in range(0, max(len(events), 1), chunk_events):
                        fh.write(
                            _encode_chunk(
                                tid,
                                events[start : start + chunk_events],
                                compress,
                                crc,
                            )
                        )
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise

    @classmethod
    def load(cls, path: Union[str, Path], salvage: bool = False) -> "Trace":
        """Read a trace written by :meth:`save`.

        A file without the trace magic bytes raises ``ValueError``,
        whatever its name.  With ``salvage=True``, chunks whose payload
        is damaged (bad CRC, zlib damage, garbled records) are skipped
        instead of raising; the skipped count lands in
        :attr:`salvaged_chunks` and the ``trace.salvaged_chunks``
        telemetry counter.  Damage to the chunk *structure* itself — a
        truncated header or short stored region — still raises, because
        the rest of the file cannot be walked past it.
        """
        per_thread: Dict[int, List[TraceEvent]] = {}
        salvaged = 0
        with open(path, "rb") as fh:
            for header, chunk in _walk(fh, path, salvage):
                if chunk is None:
                    salvaged += 1
                else:
                    per_thread.setdefault(header.tid, []).extend(chunk.events())
        _note_salvaged(salvaged)
        return cls(per_thread=per_thread, salvaged_chunks=salvaged)


def _check_magic(fh: BinaryIO, path: Union[str, Path]) -> None:
    head = fh.read(len(TRACE_MAGIC) + 1)
    if len(head) != len(TRACE_MAGIC) + 1:
        raise ValueError(
            f"truncated/corrupt trace: {path}: file shorter than its header"
        )
    if head[: len(TRACE_MAGIC)] != TRACE_MAGIC:
        raise ValueError(f"{path} is not a binary trace")
    version = head[-1]
    if version != _TRACE_VERSION:
        raise ValueError(
            f"unsupported trace version {version} (expected {_TRACE_VERSION})"
        )


class StreamingTrace:
    """A binary trace replayed chunk by chunk, never fully in memory.

    Implements the protocol the simulator and the analysis engine
    consume — :meth:`thread_ids` and re-iterable :meth:`iter_chunks`
    (:meth:`iter_events` yields their events) — by indexing chunk headers at
    open time (one header-hopping scan, no payloads read) and decoding
    one chunk at a time during iteration.  Each :meth:`iter_chunks` call
    opens its own file handle, so the simulator can interleave many
    threads' iterators, and the warmup pass can simply iterate again.

    With ``salvage=True`` every chunk is decoded during the open-time
    scan — the same columnar decode admission and analysis run — and
    damaged ones are dropped from the index and counted in
    :attr:`salvaged_chunks`, so that later iteration can never blow up
    mid-simulation.  The default mode keeps the cheap header-hopping
    scan and raises lazily from :meth:`iter_chunks` if a chunk turns out
    damaged.
    """

    def __init__(self, path: Union[str, Path], salvage: bool = False) -> None:
        self._path = Path(path)
        self.salvaged_chunks = 0
        #: tid -> headers of its chunks, in file order
        self._index: Dict[int, List[_Header]] = {}
        with open(self._path, "rb") as fh:
            if salvage:
                for header, chunk in _walk(fh, path, salvage=True):
                    if chunk is None:
                        self.salvaged_chunks += 1
                    else:
                        self._index.setdefault(header.tid, []).append(header)
            else:
                for header in _headers(fh, path):
                    self._index.setdefault(header.tid, []).append(header)
        _note_salvaged(self.salvaged_chunks)

    def thread_ids(self) -> List[int]:
        """Sorted tids present in the trace."""
        return sorted(self._index)

    def iter_events(self, tid: int) -> Iterator[TraceEvent]:
        """Lazily yield thread ``tid``'s events, one chunk in memory at
        a time.  Fresh iterator per call — safe to replay repeatedly."""
        for chunk in self.iter_chunks(tid):
            yield from chunk.events()

    def iter_chunks(self, tid: int) -> Iterator[TraceChunk]:
        """Yield thread ``tid``'s stored chunks as column arrays.

        Each chunk's packed records decode straight into numpy columns
        (one ``frombuffer``).  Fresh file handle per call, so iterators
        over different threads interleave freely.
        """
        headers = self._index.get(tid, [])
        if not headers:
            return
        with open(self._path, "rb") as fh:
            for header in headers:
                fh.seek(header.offset + _CHUNK_HEADER.size)
                yield _decode_chunk(
                    fh.read(header.stored_len), header, self._path
                )

    @property
    def total_events(self) -> int:
        """Total event count, known from chunk headers alone."""
        return sum(h.n_events for headers in self._index.values() for h in headers)


def open_trace(
    path: Union[str, Path], salvage: bool = False
) -> StreamingTrace:
    """Open a trace file for replay with minimal memory: a
    :class:`StreamingTrace`.  ``salvage=True`` validates and drops
    damaged chunks at open time instead of raising (see
    :class:`StreamingTrace`).
    """
    return StreamingTrace(path, salvage=salvage)


def verify_trace(path: Union[str, Path]) -> int:
    """Validate a binary trace end to end; returns its event count.

    Walks every chunk through the CRC check, decompression and the
    columnar record decode — exactly what replay would hit — and raises
    the usual ``truncated/corrupt trace`` :class:`ValueError` on the
    first damaged chunk.  The ingestion admission check of the
    ``repro serve`` daemon: cheap enough to run on every upload, strict
    enough that an accepted trace cannot later blow up a worker.
    """
    with open(path, "rb") as fh:
        return sum(len(chunk) for _, chunk in _walk(fh, path))


def verify_trace_bytes(data: bytes, name: str = "<upload>") -> int:
    """:func:`verify_trace` for a trace still in memory (e.g. an HTTP
    request body, validated before it is spooled to disk)."""
    return sum(len(chunk) for _, chunk in _walk(io.BytesIO(data), name))


# -- generic CRC-framed record streams ----------------------------------------
#
# The same per-record checksum discipline the binary trace chunks use,
# packaged for append-only logs: each record is a little-endian
# ``(length, crc32(payload))`` header followed by the payload bytes.  A
# writer that dies mid-append leaves a *torn tail* — a partial header,
# a short payload, or a payload whose CRC no longer matches — and the
# salvage read mode recognizes exactly that and cuts the stream at the
# last intact record instead of raising.  The ``repro serve``
# write-ahead submission journal is built on these frames.

_FRAME_HEADER = struct.Struct("<II")


def write_frame(fh: BinaryIO, payload: bytes) -> int:
    """Append one CRC-framed record to ``fh``; returns bytes written."""
    fh.write(
        _FRAME_HEADER.pack(len(payload), zlib.crc32(payload) & 0xFFFFFFFF)
    )
    fh.write(payload)
    return _FRAME_HEADER.size + len(payload)


def read_frames(
    data: bytes, name: str = "<frames>", salvage: bool = False
) -> Tuple[List[bytes], int]:
    """Decode a CRC-framed record stream; returns ``(payloads, good_bytes)``.

    ``good_bytes`` is the offset just past the last intact record — the
    length a salvaging writer should truncate the file to.  With
    ``salvage=False`` any damage (torn header, short payload, CRC
    mismatch) raises ``ValueError``; with ``salvage=True`` the stream is
    cut at the damage point and whatever decoded cleanly before it is
    returned.  A record is either returned intact or not at all — a
    torn tail can lose the final record, never invent one.
    """
    payloads: List[bytes] = []
    offset = 0
    total = len(data)
    while offset < total:
        if offset + _FRAME_HEADER.size > total:
            if salvage:
                break
            raise ValueError(
                f"truncated/corrupt frame stream: {name}: torn header at "
                f"offset {offset} ({total - offset}/{_FRAME_HEADER.size} bytes)"
            )
        length, expected = _FRAME_HEADER.unpack_from(data, offset)
        start = offset + _FRAME_HEADER.size
        end = start + length
        if end > total:
            if salvage:
                break
            raise ValueError(
                f"truncated/corrupt frame stream: {name}: torn payload at "
                f"offset {offset} ({total - start}/{length} bytes)"
            )
        payload = data[start:end]
        actual = zlib.crc32(payload) & 0xFFFFFFFF
        if actual != expected:
            if salvage:
                break
            raise ValueError(
                f"truncated/corrupt frame stream: {name}: CRC mismatch at "
                f"offset {offset} (stored {expected:#010x}, "
                f"computed {actual:#010x})"
            )
        payloads.append(payload)
        offset = end
    return payloads, offset


def chunked_events(
    trace: Union[Trace, StreamingTrace],
    tid: int,
    chunk_events: int = DEFAULT_CHUNK_EVENTS,
) -> Iterator[List[TraceEvent]]:
    """Yield thread ``tid``'s events one chunk-sized list at a time.

    The simulator's refill protocol: instead of pulling events one
    ``next()`` at a time, it buffers a whole chunk's list and walks it
    by index.  In-memory :class:`Trace` objects hand out list slices
    (zero copy decode); :class:`StreamingTrace` decodes each stored
    chunk once.
    """
    if isinstance(trace, Trace):
        events = trace.per_thread.get(tid, [])
        for start in range(0, len(events), chunk_events):
            yield events[start : start + chunk_events]
        return
    for chunk in trace.iter_chunks(tid):
        yield chunk.events()


class TraceRecorder(ExecutionMonitor):
    """Monitor that builds a :class:`Trace` while a program runs.

    Sync events are recorded *replayably*: each carries a descriptor
    naming the operation and its target (``"Acquire:L"``,
    ``"BarrierWait:B@3"``, ``"Spawn:2"``, ...) in ``sync_name``, and the
    global synchronization commit order — the scheduler's deterministic
    sync sequence — in the otherwise-unused ``address`` field (1-based;
    0 marks traces from older recorders).  Offline analysis rebuilds the
    exact happens-before relation from these without re-running the
    program.
    """

    def __init__(self) -> None:
        self.trace = Trace()
        self._gap: Dict[int, int] = {}
        self._sync_seq = 0
        #: Last child tid spawned per parent, captured by :meth:`on_spawn`
        #: so the Spawn commit right after it can name the child.
        self._spawned: Dict[int, int] = {}

    def _emit(self, tid: int, event: TraceEvent) -> None:
        self.trace.per_thread.setdefault(tid, []).append(event)

    def _take_gap(self, tid: int) -> int:
        gap = self._gap.get(tid, 0)
        self._gap[tid] = 0
        return gap

    def on_compute(self, tid: int, amount: int) -> None:
        """Accumulate non-memory instruction work for ``tid``."""
        self._gap[tid] = self._gap.get(tid, 0) + amount

    def on_thread_start(self, tid: int, parent: Optional[int]) -> None:
        self.trace.per_thread.setdefault(tid, [])
        self._gap[tid] = 0

    def after_access(self, event: AccessEvent) -> None:
        tid = event.tid
        self._emit(
            tid,
            TraceEvent(
                WRITE if event.is_write else READ,
                event.address,
                event.size,
                event.private,
                gap=self._take_gap(tid),
            ),
        )

    def on_spawn(self, parent: int, child: int) -> None:
        self._spawned[parent] = child

    def _sync_descriptor(self, tid: int, op: object) -> str:
        """``"Kind:target"`` descriptor for a committed sync operation.

        Targets are the stable sync-object names the detector itself
        keys vector clocks by, so replay applies happens-before edges to
        exactly the objects the live run used.  The barrier generation
        is read *at commit*, before the trip increments it, so every
        arriver of one episode records the same ``B@gen`` key.
        """
        kind = type(op).__name__
        lock = getattr(op, "lock", None)
        cond = getattr(op, "cond", None)
        if kind == "_Reacquire":
            # Waking from a cond wait: reacquire the lock, ordered after
            # the signaller.  Replay must acquire both L and C.
            return f"CondWake:{lock.name}:{cond.name}"
        if kind == "CondWait":
            return f"CondWait:{cond.name}:{lock.name}"
        if lock is not None:
            return f"{kind}:{lock.name}"
        if cond is not None:
            return f"{kind}:{cond.name}"
        barrier = getattr(op, "barrier", None)
        if barrier is not None:
            return f"{kind}:{barrier.name}@{barrier.generation}"
        sem = getattr(op, "sem", None)
        if sem is not None:
            return f"{kind}:{sem.name}"
        if kind == "Spawn":
            return f"Spawn:{self._spawned.get(tid, -1)}"
        if kind == "Join":
            return f"Join:{getattr(op, 'tid', -1)}"
        return kind

    def on_sync_commit(self, tid: int, op: object) -> None:
        self._sync_seq += 1
        self._emit(
            tid,
            TraceEvent(
                SYNC,
                address=self._sync_seq,
                gap=self._take_gap(tid),
                sync_name=self._sync_descriptor(tid, op),
            ),
        )
