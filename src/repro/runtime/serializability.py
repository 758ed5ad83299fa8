"""Region-serializability checking (paper Section 7 positioning).

The paper situates CLEAN among race-exception systems: some guarantee
*region serializability* (RS) — the execution is equivalent to one where
each synchronization-free region runs in isolation, one at a time — and
notes that **RS is a stronger property than SFR isolation plus
write-atomicity**.  This module makes that claim checkable.

:class:`RegionSerializabilityOracle` builds the classical conflict graph
over dynamic regions: whenever two accesses of different regions touch
the same byte and at least one writes, an edge runs from the region of
the earlier access to the region of the later one.  The execution is
region-serializable iff the graph is acyclic (conflict-serializability,
exactly as in database theory).

The demonstrations live in ``tests/test_serializability.py``:

* executions of race-free programs are always region-serializable (their
  conflicts follow happens-before, which is acyclic);
* there are WAR-only executions that CLEAN rightly allows to complete —
  with SFR isolation and write-atomicity fully intact — that are *not*
  region-serializable: the strict gap between the two guarantees.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..core.events import AccessEvent
from .regions import RegionId, SfrTracker
from .scheduler import ExecutionMonitor

__all__ = ["ConflictEdge", "RegionSerializabilityOracle"]


@dataclass(frozen=True)
class ConflictEdge:
    """One conflict-graph edge with its witnessing address."""

    earlier: RegionId
    later: RegionId
    address: int


@dataclass
class _LastAccess:
    readers: Dict[RegionId, None] = field(default_factory=dict)
    writer: Optional[RegionId] = None


class RegionSerializabilityOracle(ExecutionMonitor):
    """Conflict graph over SFRs; cycle <=> not region-serializable."""

    def __init__(self, tracker: SfrTracker) -> None:
        self.tracker = tracker
        self.edges: Set[Tuple[RegionId, RegionId]] = set()
        self.edge_witnesses: List[ConflictEdge] = []
        self._last: Dict[int, _LastAccess] = {}

    # -- building the graph ---------------------------------------------------

    def _note_conflicts(
        self, region: RegionId, address: int, size: int, is_write: bool
    ) -> None:
        for a in range(address, address + size):
            last = self._last.setdefault(a, _LastAccess())
            if is_write:
                for reader in last.readers:
                    self._add_edge(reader, region, a)
                if last.writer is not None:
                    self._add_edge(last.writer, region, a)
                last.writer = region
                last.readers.clear()
            else:
                if last.writer is not None:
                    self._add_edge(last.writer, region, a)
                last.readers[region] = None

    def _add_edge(self, earlier: RegionId, later: RegionId, address: int) -> None:
        if earlier == later:
            return
        if (earlier, later) not in self.edges:
            self.edges.add((earlier, later))
            self.edge_witnesses.append(ConflictEdge(earlier, later, address))

    def before_access(self, event: AccessEvent) -> None:
        if event.is_write and not event.private:
            self._note_conflicts(
                self.tracker.current_region(event.tid),
                event.address, event.size, True,
            )

    def after_access(self, event: AccessEvent) -> None:
        if not event.is_write and not event.private:
            self._note_conflicts(
                self.tracker.current_region(event.tid),
                event.address, event.size, False,
            )

    # -- the verdict -------------------------------------------------------------

    def find_cycle(self) -> Optional[List[RegionId]]:
        """A conflict cycle if one exists (else None): iterative DFS."""
        graph: Dict[RegionId, List[RegionId]] = {}
        for earlier, later in self.edges:
            graph.setdefault(earlier, []).append(later)
        WHITE, GREY, BLACK = 0, 1, 2
        color: Dict[RegionId, int] = {}
        parent: Dict[RegionId, Optional[RegionId]] = {}
        for root in graph:
            if color.get(root, WHITE) != WHITE:
                continue
            stack: List[Tuple[RegionId, int]] = [(root, 0)]
            color[root] = GREY
            parent[root] = None
            while stack:
                node, index = stack[-1]
                children = graph.get(node, [])
                if index < len(children):
                    stack[-1] = (node, index + 1)
                    child = children[index]
                    state = color.get(child, WHITE)
                    if state == GREY:
                        # Found a back edge: reconstruct the cycle.
                        cycle = [child, node]
                        walk = parent.get(node)
                        while walk is not None and walk != child:
                            cycle.append(walk)
                            walk = parent.get(walk)
                        cycle.reverse()
                        return cycle
                    if state == WHITE:
                        color[child] = GREY
                        parent[child] = node
                        stack.append((child, 0))
                else:
                    color[node] = BLACK
                    stack.pop()
        return None

    @property
    def serializable(self) -> bool:
        """Whether the observed execution is region-serializable."""
        return self.find_cycle() is None

    def witnesses_for(self, cycle: List[RegionId]) -> List[ConflictEdge]:
        """The conflict edges along a cycle (for diagnostics)."""
        pairs = {
            (cycle[i], cycle[(i + 1) % len(cycle)]) for i in range(len(cycle))
        }
        return [e for e in self.edge_witnesses if (e.earlier, e.later) in pairs]
