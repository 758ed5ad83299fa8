"""On-disk checkpointing of job results.

One JSON file per job id under the store root (default
``.cache/experiments/``): flat, human-inspectable, and trivially safe
for concurrent writers because files are written to a temporary name
and atomically renamed into place.  Only *successful* results are ever
stored — a failed job must re-run on the next invocation, which is the
resume semantics an interrupted sweep wants.

Records carry the store format version and the library version; a
mismatch in either invalidates the entry (results produced by older
code are recomputed, never trusted).

Damaged records — unreadable files, non-JSON garbage, or records the
runner could not serve (see :func:`_malformed`) — are not silently
dropped: they are *quarantined* to ``<root>/quarantine/`` alongside a
``.reason`` file so a flaky disk or a torn write leaves evidence, and
counted in the ``checkpoint.corrupt`` telemetry counter.
Stale records (version/schema/config mismatches) are ordinary cache
misses, not corruption, and stay in place to be overwritten.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, Optional, Union

from .. import __version__ as _LIBRARY_VERSION
from ..obs.registry import MetricsRegistry
from ..obs.sites import SiteProfiler
from .job import Job

__all__ = ["CheckpointStore", "FORMAT_VERSION", "QUARANTINE_DIR"]

#: Subdirectory of the store root holding quarantined corrupt records.
QUARANTINE_DIR = "quarantine"

#: Bump when the record schema changes; old entries become cache misses.
#: v2: records may carry a ``telemetry`` payload (metrics snapshot,
#: instrument kinds, span records, hot-site profile) so cache-served
#: jobs replay the telemetry of their original execution.
#: v3: telemetry span records are origin-relative and the payload may
#: carry ``timelines`` (execution-timeline payloads for forensics).
FORMAT_VERSION = 3

#: The container type each telemetry entry must have when present.
_TELEMETRY_SHAPE = {"metrics": dict, "kinds": dict, "sites": dict,
                    "spans": list, "timelines": list}


def _finite(value: Any) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def _malformed(record: Dict[str, Any]) -> Optional[str]:
    """Why a current-format record cannot be served, or ``None``.

    Checks what :meth:`~repro.exec.runner.JobRunner.run` reads back: the
    ``value``, the numeric bookkeeping fields, and the telemetry payload
    down to the metric values and span records it merges; the metrics
    (histogram snapshots included) and the hot-site profile must merge
    into a fresh registry and profiler as the runner merges them.
    """
    if "value" not in record:
        return "no value"
    for key in ("attempts", "duration_s", "cpu_s"):
        if key in record and not _finite(record[key]):
            return f"{key} is not a finite number"
    telemetry = record.get("telemetry") or {}
    if not isinstance(telemetry, dict):
        return "telemetry is not an object"
    for key, kind in _TELEMETRY_SHAPE.items():
        if telemetry.get(key) and not isinstance(telemetry[key], kind):
            return f"telemetry {key} is not a {kind.__name__}"
    for name, value in (telemetry.get("metrics") or {}).items():
        if not (isinstance(value, dict) or _finite(value)):
            return f"telemetry metric {name!r} is not a number or histogram"
    for span in telemetry.get("spans") or ():
        if not isinstance(span, dict) or not isinstance(
            span.get("attrs") or {}, dict
        ):
            return "telemetry span record is not an object"
    try:
        MetricsRegistry().merge_snapshot(
            telemetry.get("metrics") or {}, kinds=telemetry.get("kinds")
        )
        SiteProfiler().merge_payload(telemetry.get("sites") or {})
    except (AttributeError, TypeError, ValueError) as exc:
        return f"telemetry does not merge ({exc})"
    return None


class CheckpointStore:
    """One JSON result file per job id under ``root``."""

    def __init__(
        self,
        root: Union[str, Path] = ".cache/experiments",
        fsync: bool = False,
    ) -> None:
        self.root = Path(root)
        #: Flush records to stable storage before renaming them into
        #: place.  Off by default (sweep checkpoints tolerate losing the
        #: last result to a power cut); the service verdict cache turns
        #: it on because a record that vanishes after the client saw a
        #: 202 breaks crash-recovery determinism.
        self.fsync = fsync
        #: Corrupt records hit (and quarantined) by this store instance.
        self.corrupt_records = 0

    def path(self, job_id: str) -> Path:
        """Where ``job_id``'s record lives (whether or not it exists)."""
        return self.root / f"{job_id}.json"

    def quarantine_path(self, job_id: str) -> Path:
        """Where ``job_id``'s record lands if it turns out corrupt."""
        return self.root / QUARANTINE_DIR / f"{job_id}.json"

    def quarantined(self) -> int:
        """How many quarantined records the store currently holds."""
        qdir = self.root / QUARANTINE_DIR
        if not qdir.is_dir():
            return 0
        return sum(1 for _ in qdir.glob("*.json"))

    def _quarantine(self, job: Job, reason: str) -> None:
        """Move ``job``'s damaged record aside and leave a reason file."""
        self.corrupt_records += 1
        src = self.path(job.job_id)
        dst = self.quarantine_path(job.job_id)
        try:
            dst.parent.mkdir(parents=True, exist_ok=True)
            os.replace(src, dst)
            dst.with_suffix(".reason").write_text(reason + "\n", encoding="utf-8")
        except OSError:
            # Quarantine is best-effort forensics; a miss is still a miss.
            pass
        from ..obs.context import current_registry

        registry = current_registry()
        if registry is not None:
            registry.inc("checkpoint.corrupt")

    def load(self, job: Job) -> Optional[Dict[str, Any]]:
        """The stored record for ``job``, or ``None`` on any miss.

        Unreadable, non-JSON or malformed records are quarantined (see
        module docs) and counted in :attr:`corrupt_records`;
        schema/version mismatches and (paranoia) records whose fn/config
        don't match the job are plain misses.
        """
        path = self.path(job.job_id)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                record = json.load(fh)
        except FileNotFoundError:
            return None
        except OSError as exc:
            self._quarantine(job, f"unreadable checkpoint record: {exc}")
            return None
        except ValueError as exc:
            self._quarantine(job, f"invalid JSON in checkpoint record: {exc}")
            return None
        if (
            not isinstance(record, dict)
            or record.get("format") != FORMAT_VERSION
            or record.get("library_version") != _LIBRARY_VERSION
            or record.get("status") != "ok"
            or record.get("fn") != job.fn
            or record.get("config") != job.config
        ):
            return None
        problem = _malformed(record)
        if problem is not None:
            self._quarantine(job, f"malformed checkpoint record: {problem}")
            return None
        return record

    def store(self, job: Job, value: Any, **extra: Any) -> Path:
        """Persist a successful result for ``job`` (atomic write)."""
        record = {
            "format": FORMAT_VERSION,
            "library_version": _LIBRARY_VERSION,
            "job_id": job.job_id,
            "name": job.label,
            "fn": job.fn,
            "config": job.config,
            "status": "ok",
            "value": value,
        }
        record.update(extra)
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path(job.job_id)
        fd, tmp = tempfile.mkstemp(dir=str(self.root), suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(record, fh, sort_keys=True)
                if self.fsync:
                    fh.flush()
                    os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path

    def discard(self, job: Job) -> None:
        """Drop ``job``'s record if present."""
        try:
            os.unlink(self.path(job.job_id))
        except OSError:
            pass

    def clear(self) -> int:
        """Delete every record; returns how many were removed."""
        removed = 0
        if self.root.is_dir():
            for entry in self.root.glob("*.json"):
                try:
                    entry.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed

    def __contains__(self, job: Job) -> bool:
        return self.load(job) is not None
