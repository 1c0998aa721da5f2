"""Structured simulation tracing.

A :class:`Tracer` writes typed component records ``(time_ps, category,
name, kind, args)`` from instrumented components into an
:class:`~repro.obs.stream.EventStream`.  Three record shapes cover
everything the evaluation needs:

* **spans** (``begin``/``end`` pairs, or the :meth:`Tracer.span` context
  manager) -- durations: an ALPU match occupying the pipeline, a software
  queue traversal, a DMA transfer;
* **instant events** -- points: a packet injected, an unexpected message
  parked;
* **counter samples** -- timeseries: queue depths from the periodic probe.

Timestamps come from a clock callable the engine attaches
(:meth:`attach_clock`); the tracer itself has no simulator dependency, so
it can be unit-tested with a fake clock and imported from any layer.

Categories are coarse (``"alpu"``, ``"nic"``, ``"network"``, ``"memory"``,
``"host"``); the component instance lives in ``name``/``args``.  The
Chrome exporter (:mod:`repro.obs.chrome`) maps categories to tracks.

Hot paths guard on :attr:`Tracer.enabled` before building ``args`` dicts,
so the disabled default (:data:`~repro.obs.stream.NULL_SINK`) costs one
attribute read.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Dict, List, NamedTuple, Optional

from repro.obs.stream import BEGIN, COUNTER, END, INSTANT, REAL_COUNTER, EventStream

#: record kinds of the :attr:`Tracer.records` view, mirroring the Chrome
#: trace-event phases they export to
KIND_BEGIN = "begin"
KIND_END = "end"
KIND_INSTANT = "instant"
KIND_COUNTER = "counter"

#: the view's kind, indexed by the stream's kind code
_KIND_NAMES = (KIND_BEGIN, KIND_END, KIND_INSTANT, KIND_COUNTER, KIND_COUNTER)


class TraceRecord(NamedTuple):
    """One typed trace record (a row of the :attr:`Tracer.records` view)."""

    time_ps: int
    category: str
    name: str
    kind: str
    args: Optional[Dict[str, object]] = None


class Tracer:
    """Writes component records into ``stream`` (a fresh one if omitted)."""

    enabled = True

    def __init__(self, stream: Optional[EventStream] = None) -> None:
        self.stream = stream if stream is not None else EventStream()
        self._now: Callable[[], int] = lambda: 0

    # ------------------------------------------------------------- plumbing
    def attach_clock(self, now_fn: Callable[[], int]) -> None:
        """Bind the simulated-time source (the engine does this)."""
        self._now = now_fn

    # ------------------------------------------------------------- emission
    def begin(
        self, category: str, name: str, args: Optional[Dict[str, object]] = None
    ) -> None:
        """Open a span (pair with :meth:`end`, same category and name)."""
        self.stream.record(self._now(), BEGIN, category, name, -1, args)

    def end(
        self, category: str, name: str, args: Optional[Dict[str, object]] = None
    ) -> None:
        """Close the innermost open span of this category/name."""
        self.stream.record(self._now(), END, category, name, -1, args)

    def instant(
        self, category: str, name: str, args: Optional[Dict[str, object]] = None
    ) -> None:
        """A zero-duration event."""
        self.stream.record(self._now(), INSTANT, category, name, -1, args)

    def counter(self, category: str, name: str, value) -> None:
        """One sample of a named timeseries (exported as ``{"value": v}``)."""
        self.stream.sample(self._now(), category, name, value)

    @contextlib.contextmanager
    def span(
        self, category: str, name: str, args: Optional[Dict[str, object]] = None
    ):
        """``with tracer.span(...):`` emits a begin/end pair.

        Only usable from plain call stacks -- simulation processes that
        yield mid-span must emit begin/end explicitly, because the
        generator suspends inside the ``with`` block.
        """
        self.begin(category, name, args)
        try:
            yield self
        finally:
            self.end(category, name)

    # -------------------------------------------------------------- queries
    @property
    def records(self) -> List[TraceRecord]:
        """The component records, rebuilt from the stream in order."""
        stream = self.stream
        strings = list(stream.ids)
        payloads = stream.payloads
        records = []
        for time_ps, kind, category, name, mid, arg in zip(
            stream.time_ps, stream.kind, stream.category, stream.name, stream.mid, stream.arg
        ):
            if mid >= 0:
                continue
            if kind == COUNTER:
                args = {"value": int(arg)}
            elif kind == REAL_COUNTER:
                args = {"value": arg}
            else:
                args = payloads[int(arg)] if arg >= 0 else None
            records.append(
                TraceRecord(
                    time_ps, strings[category], strings[name], _KIND_NAMES[kind], args
                )
            )
        return records

    def __len__(self) -> int:
        return self.stream.mid.count(-1)
