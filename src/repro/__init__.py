"""repro - a full reproduction of *CLEAN: A Race Detector with Cleaner
Semantics* (Segulja & Abdelrahman, ISCA 2015).

The package provides:

* :mod:`repro.core` - CLEAN's precise WAW/RAW epoch-based race detection;
* :mod:`repro.determinism` - Kendo deterministic synchronization;
* :mod:`repro.runtime` - the cooperative multithreaded runtime CLEAN
  instruments (the Pthread-program substrate);
* :mod:`repro.baselines` - vector-clock, FastTrack and TSan-like
  reference detectors;
* :mod:`repro.swclean` - the software-only CLEAN cost model (Figures 6-8);
* :mod:`repro.hardware` - the trace-driven multicore simulator with
  CLEAN's hardware race-check unit (Figures 9-11);
* :mod:`repro.workloads` - SPLASH-2/PARSEC synthetic workload models;
* :mod:`repro.experiments` - one harness per paper table/figure;
* :mod:`repro.obs` - the unified telemetry layer: metrics registry,
  span tracer and the runtime :class:`~repro.obs.TelemetryMonitor`.

Quickstart::

    from repro import run_clean
    from repro.runtime import Program, Read, Write, Spawn, Join

    def racer(ctx, addr):
        yield Write(addr, 4, 7)

    def main(ctx):
        addr = ctx.alloc(4)
        child = yield Spawn(racer, (addr,))
        yield Write(addr, 4, 1)       # races with the child's write
        yield Join(child)

    result = run_clean(Program(main))
    print(result.race)                # -> WAW race at ...
"""

from ._lazy import lazy_exports

_EXPORTS = {
    ".clean": ["CleanMonitor", "clean_stack", "run_clean"],
    ".core": [
        "CleanDetector", "CleanError", "RaceException", "RawRaceException",
        "WawRaceException",
    ],
    ".obs": ["MetricsRegistry", "TelemetryMonitor", "Tracer"],
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__version__ = "1.0.0"

__all__ = [name for names in _EXPORTS.values() for name in names]
__all__.append("__version__")
