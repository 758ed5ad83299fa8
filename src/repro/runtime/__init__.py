"""Cooperative multithreaded runtime: the substrate CLEAN instruments.

Programs are generator threads yielding operations; the scheduler
interleaves them one operation at a time and reports every event to a
monitor stack (race detectors, Kendo gates, trace recorders, semantic
oracles).  See :mod:`repro.runtime.program` for the entry point.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    ".memory": ["SharedMemory"],
    ".monitor": ["ExecutionMonitor"],
    ".ops": [
        "Acquire", "AtomicRMW", "BarrierWait", "Compute", "CondBroadcast",
        "CondSignal", "CondWait", "Join", "Op", "Output", "Read", "Release",
        "SemPost", "SemWait", "Spawn", "Write",
    ],
    ".explore": ["ExplorationStats", "explore", "explore_results"],
    ".program": ["Program"],
    ".recovery": [
        "Quarantined", "RecoveryError", "RecoveryEvent", "RecoveryPolicy",
        "RecoveryReport",
    ],
    ".replay": ["RecordingPolicy", "ReplayDivergence", "ReplayPolicy"],
    ".regions": [
        "IsolationOracle", "SemanticViolation", "SfrTracker",
        "WriteAtomicityOracle",
    ],
    ".serializability": ["ConflictEdge", "RegionSerializabilityOracle"],
    ".scheduler": [
        "ExecutionResult", "RandomPolicy", "RoundRobinPolicy", "Scheduler",
        "SchedulingPolicy", "ScriptedPolicy", "SyncCommit", "ThreadStatus",
    ],
    ".sync": ["Barrier", "Condition", "Lock", "Semaphore"],
    ".trace": [
        "READ", "SYNC", "WRITE", "StreamingTrace", "Trace", "TraceEvent",
        "TraceRecorder", "open_trace", "verify_trace", "verify_trace_bytes",
    ],
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [name for names in _EXPORTS.values() for name in names]
