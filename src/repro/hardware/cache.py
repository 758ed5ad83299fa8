"""Set-associative cache arrays with LRU replacement.

Building block of the paper's simulated memory hierarchy (Section 6.3.1):
private L1 (8-way, 64 KB) and L2 (8-way, 256 KB), shared L3 (16-way,
16 MB), all with 64-byte lines.  The arrays track MESI states; protocol
decisions (who to invalidate, where a miss is served from) live in
:mod:`repro.hardware.hierarchy`.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

__all__ = ["Cache", "LINE_SIZE", "MESI_M", "MESI_E", "MESI_S", "MESI_I"]

LINE_SIZE = 64

MESI_M = "M"
MESI_E = "E"
MESI_S = "S"
MESI_I = "I"


class Cache:
    """One set-associative cache array, indexed by line address."""

    def __init__(self, name: str, size_bytes: int, assoc: int,
                 line_size: int = LINE_SIZE) -> None:
        if size_bytes % (assoc * line_size):
            raise ValueError("cache size must be a multiple of assoc * line")
        self.name = name
        self.assoc = assoc
        self.line_size = line_size
        self.n_sets = size_bytes // (assoc * line_size)
        self._sets: List["OrderedDict[int, str]"] = [
            OrderedDict() for _ in range(self.n_sets)
        ]
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def _set_for(self, line: int) -> "OrderedDict[int, str]":
        return self._sets[(line // self.line_size) % self.n_sets]

    def lookup(self, line: int, touch: bool = True) -> Optional[str]:
        """MESI state of ``line`` if cached (counts hit/miss statistics)."""
        entry = self._set_for(line)
        state = entry.get(line)
        if state is None:
            self.misses += 1
            return None
        if touch:
            entry.move_to_end(line)
        self.hits += 1
        return state

    def probe(self, line: int) -> Optional[str]:
        """State of ``line`` without touching LRU or statistics."""
        return self._set_for(line).get(line)

    def insert(self, line: int, state: str) -> Optional[Tuple[int, str]]:
        """Install ``line``; returns the evicted ``(line, state)`` if any."""
        entry = self._set_for(line)
        victim: Optional[Tuple[int, str]] = None
        if line not in entry and len(entry) >= self.assoc:
            victim = entry.popitem(last=False)
            self.evictions += 1
        entry[line] = state
        entry.move_to_end(line)
        return victim

    def set_state(self, line: int, state: str) -> None:
        """Change the MESI state of a cached line (no LRU effect)."""
        entry = self._set_for(line)
        if line in entry:
            entry[line] = state

    def invalidate(self, line: int) -> bool:
        """Drop ``line``; returns whether it was present."""
        entry = self._set_for(line)
        return entry.pop(line, None) is not None

    @property
    def accesses(self) -> int:
        """Total lookups."""
        return self.hits + self.misses

    def resident_lines(self) -> Dict[int, str]:
        """All cached lines and their states (for tests)."""
        out: Dict[int, str] = {}
        for entry in self._sets:
            out.update(entry)
        return out
