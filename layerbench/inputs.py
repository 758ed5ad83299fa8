"""Seeded, cached inputs for the layer ledger, each with its known answer.

Every input is made from ``--seed`` alone: recorded through the public
workload API (a suite spec, optionally scaled with
``dataclasses.replace(spec, work_items=...)``, run under a
:class:`~repro.runtime.trace.TraceRecorder`) and answered by the scalar
reference lane (``analyze_trace(mode="scalar")``) — verdict, event count
and ``clean.*`` counters.  The files and answers are cached under
``.cache/bench_layers/<version>-<seed>/<group>/`` next to this file with
a manifest of SHA-256 digests; a missing file or a digest mismatch
regenerates the group.  The daemon and the CLI only ever see the bytes.

The service workloads need hundreds of *distinct* uploads per run (a
repeat would be answered by the verdict cache).  Recording each one
would cost more than the run, so each upload is a recorded base trace
with the instruction gap before its first event raised by a per-upload
nonce.  Analysis ignores gaps, so the variant keeps the base's answer
while its bytes — and SHA-256 — differ.  Only the first thread's chunks
are re-encoded: a binary trace is a magic header followed by per-thread
chunks in tid order, which :meth:`Uploads.variant` checks on load by
rebuilding the base bytes from their two halves.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import shutil
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

from repro.analysis import analyze_trace
from repro.experiments.traces import record_trace
from repro.runtime.trace import TRACE_MAGIC, Trace, TraceEvent
from repro.workloads.suite import get_benchmark

#: Bump whenever generation changes, so stale caches are never reused.
VERSION = 1

#: (benchmark, scale, work_items multiplier) per input group.  Every
#: trace is the clean variant, except that the small pool alternates
#: racy and clean by position.
GROUPS: Dict[str, Tuple[str, str, int]] = {
    "small": ("dedup", "test", 1),
    "large": ("lu_cb", "simlarge", 1),
    "long_sfr": ("lu_cb", "native", 10),
    "sync_dense": ("fluidanimate", "native", 4),
}
#: ``--smoke`` shrinks the two offline traces to seconds-long work.
SMOKE_GROUPS: Dict[str, Tuple[str, str, int]] = {
    **GROUPS,
    "long_sfr": ("lu_cb", "simsmall", 1),
    "sync_dense": ("fluidanimate", "simsmall", 1),
}
#: Distinct recordings per pool; uploads cycle through them.
POOL_SIZES = {"small": 16, "large": 4, "long_sfr": 1, "sync_dense": 1}

#: The analyze set-up probe: one thread, four accesses, no sync.
_TINY_EVENTS = [
    TraceEvent("W", 0x1000, 8), TraceEvent("R", 0x1000, 8),
    TraceEvent("W", 0x1010, 4), TraceEvent("R", 0x1010, 4),
]


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def reference(path: Path) -> Dict[str, Any]:
    """The scalar reference lane's answer for one trace file."""
    report = analyze_trace(str(path), mode="scalar")
    return {
        "verdict": "racy" if report.racy else "clean",
        "events": report.events,
        "counters": report.counters,
    }


class InputCache:
    """The cached input groups of one seed (``smoke`` keeps its own)."""

    def __init__(self, bench_dir: Path, seed: int, smoke: bool = False) -> None:
        tag = f"{VERSION}-{seed}" + ("-smoke" if smoke else "")
        self.root = bench_dir / ".cache" / "bench_layers" / tag
        self.seed = seed
        self.groups = SMOKE_GROUPS if smoke else GROUPS
        #: seconds spent generating in this process (0 when all cached)
        self.gen_s = 0.0

    def group(self, name: str) -> List[Dict[str, Any]]:
        """The group's manifest entries, generating them if needed; each
        entry carries ``path`` plus the reference answer."""
        folder = self.root / name
        manifest = folder / "manifest.json"
        params = {"group": name, "seed": self.seed,
                  "spec": list(self.groups[name]) if name in self.groups
                  else "tiny"}
        try:
            document = json.loads(manifest.read_text())
            entries = document["inputs"]
            fresh = document["params"] == params and all(
                _sha256(folder / e["file"]) == e["sha256"] for e in entries
            )
        except (OSError, ValueError, KeyError, TypeError):
            fresh = False
        if not fresh:
            start = time.perf_counter()
            shutil.rmtree(folder, ignore_errors=True)
            folder.mkdir(parents=True)
            entries = self._generate(name, folder)
            tmp = manifest.with_suffix(".tmp")
            tmp.write_text(json.dumps({"params": params, "inputs": entries},
                                      indent=1, sort_keys=True))
            tmp.replace(manifest)
            self.gen_s += time.perf_counter() - start
        return [dict(e, path=str(folder / e["file"])) for e in entries]

    def _generate(self, name: str, folder: Path) -> List[Dict[str, Any]]:
        if name == "tiny":
            traces = [("tiny.trace", Trace(per_thread={0: list(_TINY_EVENTS)}))]
        else:
            benchmark, scale, multiplier = self.groups[name]
            spec = get_benchmark(benchmark)
            spec = dataclasses.replace(
                spec, work_items=spec.work_items * multiplier
            )
            rng = random.Random(f"layer-ledger:{self.seed}:{name}")
            traces = []
            for i in range(POOL_SIZES[name]):
                racy = name == "small" and i % 2 == 0
                trace = record_trace(spec, scale=scale,
                                     seed=rng.randrange(1 << 30), racy=racy)
                traces.append((f"{name}-{i:02d}.trace", trace))
        entries = []
        for file, trace in traces:
            path = folder / file
            trace.save(path)
            entries.append({"file": file, "sha256": _sha256(path),
                            "bytes": path.stat().st_size, **reference(path)})
        if name in ("small", "large"):
            # Upload variants must keep their base's answer: check one
            # per base against the reference lane.
            scratch = folder / "check"
            scratch.mkdir()
            listed = [dict(e, path=str(folder / e["file"])) for e in entries]
            uploads = Uploads(listed, scratch)
            probe = scratch / "probe.trace"
            for base, entry in enumerate(entries):
                probe.write_bytes(uploads.variant(base, 1))
                answer = reference(probe)
                if any(answer[k] != entry[k] for k in answer):
                    raise RuntimeError(
                        f"gap variant of {entry['file']} changed its answer"
                    )
            shutil.rmtree(scratch)
        return entries


class Uploads:
    """Distinct upload bodies built from a pool of recorded base traces."""

    def __init__(self, entries: List[Dict[str, Any]], scratch: Path) -> None:
        self.entries = entries
        self._scratch = scratch
        self._parts: List[Tuple[Trace, bytes]] = []
        for entry in entries:
            trace = Trace.load(entry["path"])
            first = min(trace.thread_ids())
            rest = Trace(per_thread={
                tid: events for tid, events in trace.per_thread.items()
                if tid != first
            })
            head = Trace(per_thread={first: trace.per_thread[first]})
            body = self._encode(rest)[len(TRACE_MAGIC) + 1:]
            self._parts.append((head, body))
            if self.variant(len(self._parts) - 1, 0) != Path(
                entry["path"]
            ).read_bytes():
                raise RuntimeError(
                    "trace layout changed: the first thread's chunks no "
                    "longer lead the file; update Uploads.variant"
                )

    def _encode(self, trace: Trace) -> bytes:
        path = self._scratch / "variant.trace"
        trace.save(path)
        return path.read_bytes()

    def variant(self, base: int, nonce: int) -> bytes:
        """Base ``base``'s bytes with its first event's gap raised by
        ``nonce`` (nonce 0 is the base itself)."""
        head, body = self._parts[base]
        if nonce:
            (tid, events), = head.per_thread.items()
            first = dataclasses.replace(events[0], gap=events[0].gap + nonce)
            head = Trace(per_thread={tid: [first] + events[1:]})
        return self._encode(head) + body
