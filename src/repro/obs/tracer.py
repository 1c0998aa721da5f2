"""Structured simulation tracing.

A :class:`Tracer` collects typed records ``(time_ps, category, name,
kind, args)`` from instrumented components.  Three record shapes cover
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
so the disabled default (:data:`NULL_TRACER`) costs one attribute read.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Dict, List, NamedTuple, Optional


#: record kinds, mirroring the Chrome trace-event phases they export to
KIND_BEGIN = "begin"
KIND_END = "end"
KIND_INSTANT = "instant"
KIND_COUNTER = "counter"


class TraceRecord(NamedTuple):
    """One typed trace record."""

    time_ps: int
    category: str
    name: str
    kind: str
    args: Optional[Dict[str, object]] = None


#: builds a record from a field tuple in C: the NamedTuple's generated
#: ``__new__`` would cost one Python frame per record
_record = tuple.__new__


class Tracer:
    """Collects :class:`TraceRecord` objects in emission order."""

    enabled = True

    def __init__(self) -> None:
        self.records: List[TraceRecord] = []
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
        self.records.append(
            _record(TraceRecord, (self._now(), category, name, KIND_BEGIN, args))
        )

    def end(
        self, category: str, name: str, args: Optional[Dict[str, object]] = None
    ) -> None:
        """Close the innermost open span of this category/name."""
        self.records.append(
            _record(TraceRecord, (self._now(), category, name, KIND_END, args))
        )

    def instant(
        self, category: str, name: str, args: Optional[Dict[str, object]] = None
    ) -> None:
        """A zero-duration event."""
        self.records.append(
            _record(TraceRecord, (self._now(), category, name, KIND_INSTANT, args))
        )

    def counter(
        self, category: str, name: str, values: Dict[str, object]
    ) -> None:
        """One sample of a named timeseries (``values``: series -> value)."""
        self.records.append(
            _record(TraceRecord, (self._now(), category, name, KIND_COUNTER, values))
        )

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
    def __len__(self) -> int:
        return len(self.records)

    def clear(self) -> None:
        """Drop all collected records."""
        self.records.clear()


class NullTracer:
    """The disabled tracer: every method is a no-op.

    ``records`` is an immutable empty tuple so accidental reads are safe.
    """

    enabled = False
    records = ()

    def attach_clock(self, now_fn: Callable[[], int]) -> None:
        pass

    def begin(self, category, name, args=None) -> None:
        pass

    def end(self, category, name, args=None) -> None:
        pass

    def instant(self, category, name, args=None) -> None:
        pass

    def counter(self, category, name, values) -> None:
        pass

    @contextlib.contextmanager
    def span(self, category, name, args=None):
        yield self

    def __len__(self) -> int:
        return 0

    def clear(self) -> None:
        pass


NULL_TRACER = NullTracer()
