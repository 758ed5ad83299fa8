"""repro.obs - the unified telemetry layer.

The paper's entire evaluation is built from runtime counters:
instrumented-access rates (Figure 7), epoch-table occupancy and rollover
frequencies (Table 1), check-class breakdowns (Figure 10).  This package
gives every layer of the reproduction one way to expose those numbers:

* :class:`MetricsRegistry` - named counters, gauges and histograms with
  cheap snapshot/diff/JSON-export semantics;
* :class:`Tracer` + :class:`JsonlExporter` - context-manager spans on a
  monotonic clock, exportable as a machine-readable JSONL timeline;
* :class:`TelemetryMonitor` - an :class:`~repro.runtime.scheduler.ExecutionMonitor`
  that records per-thread memory-op counts, instrumented vs. private
  ratios, the synchronization-op mix, SFR lengths and lock contention
  without perturbing detection order;
* :func:`publish_detector_metrics` - mirror any detector's counters
  (CLEAN or the baselines) into a registry;
* :func:`telemetry_scope` + ``current_*`` - the ambient per-process
  context worker jobs publish into (the cross-process pipeline);
* :class:`SiteProfiler` - hot-site attribution of detector work and
  races to addresses/SFRs;
* :class:`TimelineRecorder` + :mod:`repro.obs.forensics` - the execution
  flight recorder (SFRs, sync ops, happens-before edges on a logical
  clock) and its Chrome-trace / HB-graph / HTML exporters;
* :func:`render_prom` / :class:`TelemetryServer` / :class:`StatusFile` -
  Prometheus text exposition, the ``/metrics`` + ``/status`` HTTP
  endpoint, and the atomically rewritten live-progress file;
* :class:`TimeSeriesStore` + :class:`Collector` - bounded ring-buffer
  history of every instrument, sampled on an interval (``/timeseries``);
* :class:`Objective` / :func:`evaluate_slos` - declarative SLOs with
  multi-window burn-rate alerting over those ring buffers
  (``/alerts``, ``repro slo``);
* :func:`render_dashboard` - the zero-dependency single-file HTML fleet
  dashboard (``/dashboard``).

See ``docs/observability.md`` for the metric name glossary, the span
schema, the merge rules and the exposition format.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    ".bridges": ["publish_detector_metrics", "publish_sim_metrics"],
    ".dashboard": ["render_dashboard"],
    ".context": [
        "TelemetryContext", "current_context", "current_registry",
        "current_sites", "current_timeline", "current_tracer",
        "telemetry_scope",
    ],
    ".forensics": [
        "FORENSICS_FORMAT_VERSION", "build_hb_graph", "chrome_trace",
        "hb_graph_dot", "render_html", "validate_chrome_trace",
        "write_forensics",
    ],
    ".monitor": ["TelemetryMonitor"],
    ".prom": ["prom_name", "render_prom"],
    ".registry": [
        "Counter", "Gauge", "Histogram", "MetricsRegistry", "labeled_name",
        "split_labels",
    ],
    ".serve": ["TelemetryServer"],
    ".sites": ["SiteProfiler"],
    ".slo": [
        "SLO_FORMAT_VERSION", "Objective", "default_slos", "evaluate_slos",
        "load_slo_config", "render_slo_text",
    ],
    ".status": ["StatusFile"],
    ".timeseries": [
        "TIMESERIES_FORMAT_VERSION", "Collector", "TimeSeriesStore",
    ],
    ".timeline": [
        "TIMELINE_FORMAT_VERSION", "TimelineRecorder", "TimelineSink",
    ],
    ".tracer": [
        "SPANS_FORMAT_VERSION", "JsonlExporter", "Span", "Timer", "Tracer",
        "read_jsonl",
    ],
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [name for names in _EXPORTS.values() for name in names]
