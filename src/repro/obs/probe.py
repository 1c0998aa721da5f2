"""Periodic sampling probes.

Some quantities are states, not events: queue depths, ALPU occupancy.
A :class:`SamplingProbe` turns them into timeseries by sampling callables
on a fixed simulated-time period, feeding each sample into a log-scale
histogram (for the metrics snapshot), a :class:`~repro.obs.timeline.
Timeline` series (for the windowed time-resolved view), and a Chrome
``counter`` trace record (for the timeline trace view).

Probe ticks are *pure observers*: the sampler callables read state, the
tick schedules only its own successor, and no simulated component ever
waits on a probe -- so enabling a probe cannot perturb simulated
latencies (the zero-perturbation guarantee the regression tests pin).

The probe duck-types its ``engine`` (anything with ``schedule(delay_ps,
action)``) to keep :mod:`repro.obs` dependency-free; tick ``k`` fires at
exactly ``k * interval_ps``, so timeline observations use that product
rather than reading an engine clock.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.obs.metrics import Histogram
from repro.obs.timeline import Timeline
from repro.obs.stream import NULL_SINK

#: default sampling period: 1 us of simulated time (fine enough to catch
#: per-iteration queue churn in the Section V-A benchmarks)
DEFAULT_INTERVAL_PS = 1_000_000


class SamplingProbe:
    """Samples registered callables every ``interval_ps`` of sim time."""

    def __init__(
        self,
        engine,
        interval_ps: int = DEFAULT_INTERVAL_PS,
        tracer=NULL_SINK,
        timeline: Optional[Timeline] = None,
    ) -> None:
        if interval_ps <= 0:
            raise ValueError(f"probe interval must be positive: {interval_ps}")
        self.engine = engine
        self.interval_ps = interval_ps
        self.tracer = tracer
        self.timeline = timeline
        self.ticks = 0
        #: (category, name, fn, histogram, series) per registered quantity
        self._samplers: List[tuple] = []
        self._started = False

    def add(
        self,
        category: str,
        name: str,
        fn: Callable[[], float],
        histogram: Optional[Histogram] = None,
        *,
        series: Optional[str] = None,
        mode: str = "sample",
        window_ps: Optional[int] = None,
    ) -> None:
        """Sample ``fn()`` each tick under ``category``/``name``.

        ``histogram`` (usually ``registry.histogram(f"{name}/...")``)
        accumulates the samples for the metrics snapshot; the tracer gets
        a counter record per tick regardless.  ``series`` names a
        timeline series (created now, in ``mode``, with an optional
        ``window_ps`` width override) the samples also fold into --
        ignored when the probe carries no timeline.
        """
        timeline_series = None
        if self.timeline is not None and series is not None:
            timeline_series = self.timeline.series(
                series, mode=mode, window_ps=window_ps
            )
        self._samplers.append((category, name, fn, histogram, timeline_series))

    def start(self) -> None:
        """Schedule the first tick (idempotent)."""
        if self._started or not self._samplers:
            return
        self._started = True
        self.engine.schedule(self.interval_ps, self._tick)

    def _tick(self) -> None:
        self.ticks += 1
        now_ps = self.ticks * self.interval_ps
        tracer = self.tracer
        counter = tracer.counter if tracer.enabled else None
        for category, name, fn, histogram, series in self._samplers:
            value = fn()
            if histogram is not None:
                histogram.record(value)
            if series is not None:
                series.observe(now_ps, value)
            if counter is not None:
                counter(category, name, value)
        self.engine.schedule(self.interval_ps, self._tick)
