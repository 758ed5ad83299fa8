"""Full vector-clock precise race detector (the classical scheme, §2.3).

Keeps *two* vector clocks per monitored location — one for reads, one for
writes — and compares them element-wise on every access.  Detects all
three race types (RAW, WAW, WAR) with no false positives or negatives,
at the cost CLEAN is designed to avoid: O(threads) space per location and
O(threads) comparisons per access.

This is the reference oracle for the property tests: CLEAN must raise
exactly when this detector reports a WAW or RAW race on the same
interleaving, and must stay silent on WAR races this detector reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from ..core.epoch import DEFAULT_LAYOUT, EpochLayout
from ..core.exceptions import (
    RawRaceException,
    WarRaceException,
    WawRaceException,
)
from .common import HbEngine

__all__ = ["VcRaceDetector"]


@dataclass
class _LocationMeta:
    """Sparse per-location read/write last-access clocks (tid -> clock)."""

    reads: Dict[int, int] = field(default_factory=dict)
    writes: Dict[int, int] = field(default_factory=dict)


class VcRaceDetector(HbEngine):
    """Element-wise vector-clock detector; reports RAW, WAW and WAR.

    ``record_only=True`` collects races instead of raising, which is how
    the methodology uses it (enumerate the races of an interleaving and
    compare with what CLEAN raised).
    """

    def __init__(
        self,
        max_threads: int = 8,
        layout: EpochLayout = DEFAULT_LAYOUT,
        record_only: bool = False,
    ) -> None:
        super().__init__(max_threads=max_threads, layout=layout)
        self.record_only = record_only
        self._meta: Dict[int, _LocationMeta] = {}
        self.reported: list = []
        self.checks = 0
        self.clock_comparisons = 0

    # -- checks ------------------------------------------------------------

    def check_read(self, tid: int, address: int, size: int = 1) -> None:
        """Check a read against last writes; record the read clocks."""
        vc = self.vc(tid)
        for offset in range(size):
            meta = self._meta.setdefault(address + offset, _LocationMeta())
            self.checks += 1
            for writer, clock in meta.writes.items():
                self.clock_comparisons += 1
                if clock > vc.clock_of(writer):
                    self._report(
                        RawRaceException(address + offset, tid, writer, clock, size)
                    )
            meta.reads[tid] = vc.clock_of(tid)

    def check_write(self, tid: int, address: int, size: int = 1) -> None:
        """Check a write against last writes and last reads; record it."""
        vc = self.vc(tid)
        for offset in range(size):
            meta = self._meta.setdefault(address + offset, _LocationMeta())
            self.checks += 1
            for writer, clock in meta.writes.items():
                self.clock_comparisons += 1
                if clock > vc.clock_of(writer):
                    self._report(
                        WawRaceException(address + offset, tid, writer, clock, size)
                    )
            for reader, clock in meta.reads.items():
                self.clock_comparisons += 1
                if clock > vc.clock_of(reader):
                    self._report(
                        WarRaceException(address + offset, tid, reader, clock, size)
                    )
            meta.writes[tid] = vc.clock_of(tid)

    def _report(self, exc: Exception) -> None:
        self.reported.append(exc)
        if not self.record_only:
            raise exc

    # -- introspection --------------------------------------------------------

    def race_kinds(self) -> Dict[str, int]:
        """Histogram of recorded race kinds (record-only mode)."""
        kinds: Dict[str, int] = {}
        for exc in self.reported:
            kinds[exc.kind] = kinds.get(exc.kind, 0) + 1
        return kinds
