"""Unified observability: metrics, structured tracing, Chrome export.

The evaluation of the source paper turns on *why* latency moves -- queue
traversal lengths, ALPU occupancy, unexpected-queue growth -- not just on
end-point latency rows.  This subpackage is the cross-layer telemetry
that makes those quantities visible:

* :mod:`repro.obs.metrics` -- a :class:`MetricsRegistry` of named
  counters, gauges and log-scale histograms, plus pull-style collectors;
* :mod:`repro.obs.stream` -- the run's one :class:`EventStream` of flat
  ``array`` columns: every trace record and lifecycle mark is a row, not
  a GC-tracked object; :data:`NULL_SINK` is the one disabled writer;
* :mod:`repro.obs.tracer` -- the stream's component-record writer:
  spans, instants and counter samples, read back as typed
  ``(time_ps, category, name, kind, args)`` records;
* :mod:`repro.obs.chrome` -- the one Chrome trace-event exporter,
  loadable in Perfetto or ``chrome://tracing``;
* :mod:`repro.obs.probe` -- periodic sampling of state quantities (queue
  depths, occupancy) into histograms and counter tracks;
* :mod:`repro.obs.lifecycle` -- the per-message flight recorder, the
  stream's other writer: every MPI message reads back as an ordered
  list of ``(time_ps, stage, detail)`` transition marks from post to
  completion, folded into budgets by :mod:`repro.analysis.attribution`;
* :mod:`repro.obs.timeline` -- windowed timeseries over simulated time
  with bounded memory (ring + downsampling): the *trajectory* of every
  probed quantity, not just its end-of-run total;
* :mod:`repro.obs.health` -- declarative watchdogs (threshold,
  sustained-derivative, stall) over timelines and metrics, folding runs
  into structured :class:`~repro.obs.health.HealthFinding` verdicts;
* :mod:`repro.obs.telemetry` -- the per-run bundle workloads accept.

Telemetry is opt-in and zero-perturbation: disabled (the default) it
costs one attribute read per event site, and enabled it never charges
simulated time, so latencies are bit-identical either way (pinned by
``tests/obs/test_zero_perturbation.py``).

This package depends on nothing else in :mod:`repro` (the sim engine
imports *it*), so any layer may use it without cycles.  It reads no
host clock: the simulator's own host time is measured from outside, by
``perfbench/``.
"""

from repro.obs.chrome import to_chrome, write_chrome_trace
from repro.obs.health import (
    DerivativeWatchdog,
    HealthFinding,
    HealthMonitor,
    ImbalanceWatchdog,
    MetricWatchdog,
    SEVERITIES,
    StallWatchdog,
    ThresholdWatchdog,
    Watchdog,
    default_watchdogs,
    has_finding,
    verdict_of,
)
from repro.obs.lifecycle import (
    LifecycleMark,
    LifecycleRecorder,
    MessageLifecycle,
    TERMINAL_STAGE,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    NULL_REGISTRY,
)
from repro.obs.probe import DEFAULT_INTERVAL_PS, SamplingProbe
from repro.obs.telemetry import REPORT_VERSION, Telemetry
from repro.obs.stream import EventStream, NULL_SINK
from repro.obs.timeline import Series, Timeline
from repro.obs.tracer import Tracer, TraceRecord

__all__ = [
    "DerivativeWatchdog",
    "HealthFinding",
    "HealthMonitor",
    "ImbalanceWatchdog",
    "MetricWatchdog",
    "SEVERITIES",
    "StallWatchdog",
    "ThresholdWatchdog",
    "Watchdog",
    "default_watchdogs",
    "has_finding",
    "verdict_of",
    "Series",
    "Timeline",
    "REPORT_VERSION",
    "LifecycleMark",
    "LifecycleRecorder",
    "MessageLifecycle",
    "TERMINAL_STAGE",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "Tracer",
    "TraceRecord",
    "EventStream",
    "NULL_SINK",
    "SamplingProbe",
    "DEFAULT_INTERVAL_PS",
    "Telemetry",
    "to_chrome",
    "write_chrome_trace",
]
