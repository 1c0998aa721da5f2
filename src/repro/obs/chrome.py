"""The one Chrome trace-event exporter.

Renders component trace records (process :data:`PID`) and then message
lifecycles (process :data:`LIFECYCLE_PID`) into the Chrome trace-event
JSON format, loadable in Perfetto (https://ui.perfetto.dev) or
``chrome://tracing``.  It serves live telemetry (the read views of the
run's :class:`~repro.obs.stream.EventStream`) and saved documents alike.

Component spans export as phases ``"B"``/``"E"``, instants as ``"i"``
(thread-scoped) and counter samples as ``"C"``.  Instants and counters
share one track ("thread") per category, while every distinct span name
gets its own -- B/E events nest by time order within a tid, so
concurrent spans from different components (the two ALPU devices, two
NICs' firmware) must not share one.  Each lifecycle gets one track, and
each stage a B/E pair spanning its residency; the terminal stage closes
the last span.  Timestamps are microsecond floats (the format's unit),
so picosecond resolution survives.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List

from repro.obs.lifecycle import TERMINAL_STAGE, MessageLifecycle
from repro.obs.stream import LIFECYCLE_CATEGORY
from repro.obs.tracer import KIND_BEGIN, KIND_COUNTER, KIND_END, KIND_INSTANT, TraceRecord

_PHASES = {KIND_BEGIN: "B", KIND_END: "E", KIND_INSTANT: "i", KIND_COUNTER: "C"}

#: exported process id of the component tracks
PID = 1
#: exported process id of the per-message lifecycle tracks
LIFECYCLE_PID = 2


def _thread_name(pid: int, tid: int, label: str) -> dict:
    return {"name": "thread_name", "ph": "M", "pid": pid, "tid": tid, "args": {"name": label}}


def _event(name: str, category: str, phase: str, time_ps: int, pid: int, tid: int) -> dict:
    return {
        "name": name,
        "cat": category,
        "ph": phase,
        "ts": time_ps / 1_000_000,
        "pid": pid,
        "tid": tid,
    }


def to_chrome(
    records: Iterable[TraceRecord] = (),
    lifecycles: Iterable[MessageLifecycle] = (),
) -> dict:
    """The Chrome trace document: component tracks, then lifecycle tracks."""
    events: List[dict] = []
    tids: Dict[tuple, int] = {}
    for record in records:
        # spans get a track per (category, name); points share the
        # category track -- see the module docstring for why
        if record.kind in (KIND_BEGIN, KIND_END):
            key = (record.category, record.name)
            label = f"{record.category}: {record.name}"
        else:
            key = (record.category, None)
            label = record.category
        tid = tids.get(key)
        if tid is None:
            tid = len(tids) + 1
            tids[key] = tid
            events.append(_thread_name(PID, tid, label))
        event = _event(
            record.name, record.category, _PHASES[record.kind], record.time_ps, PID, tid
        )
        if record.kind == KIND_INSTANT:
            event["s"] = "t"  # thread-scoped instant
        if record.args:
            event["args"] = dict(record.args)
        events.append(event)
    for tid, lifecycle in enumerate(lifecycles, start=1):
        label = lifecycle.label or lifecycle.kind
        name = f"{label} r{lifecycle.rank}#{lifecycle.req_id} ({lifecycle.kind})"
        events.append(_thread_name(LIFECYCLE_PID, tid, name))
        marks = lifecycle.marks
        for index, mark in enumerate(marks):
            if mark.stage == TERMINAL_STAGE:
                continue
            event = _event(
                mark.stage, LIFECYCLE_CATEGORY, "B", mark.time_ps, LIFECYCLE_PID, tid
            )
            if mark.detail:
                event["args"] = dict(mark.detail)
            events.append(event)
            if index + 1 < len(marks):
                end_ps = marks[index + 1].time_ps
                events.append(
                    _event(mark.stage, LIFECYCLE_CATEGORY, "E", end_ps, LIFECYCLE_PID, tid)
                )
    return {"traceEvents": events, "displayTimeUnit": "ns"}


def write_chrome_trace(path, document: dict) -> dict:
    """Write a :func:`to_chrome` document to ``path``; returns it."""
    with open(path, "w") as handle:
        json.dump(document, handle, indent=1)
        handle.write("\n")
    return document
