"""In-memory host-time spans and the self-time arithmetic over them.

A :class:`SpanRecorder` keeps one row per span -- entry id, parent row,
start and end in ``perf_counter_ns`` -- in flat ``array`` columns, so a
few million spans cost tens of megabytes, not Python objects.  Spans are
opened by the wrappers below around calls into the simulator's layers;
nesting is tracked with an explicit stack, so a span's parent is the
span that was open when it began.

A span's *self time* is its duration minus the durations of its direct
children.  Because every child lies inside its parent and siblings do
not overlap, the self times of all spans add up exactly to the summed
durations of the root spans (integer nanoseconds, no rounding).
"""

from __future__ import annotations

import functools
import time
from array import array
from typing import Callable, Dict, List, Sequence

import numpy as np

clock = time.perf_counter_ns


class SpanRecorder:
    """Flat columns of spans: ``entry[i]``, ``parent[i]``, ``start[i]``, ``end[i]``."""

    def __init__(self) -> None:
        self.names: List[str] = []
        #: calls per generator entry id (one per generator, however often
        #: resumed); a plain entry's calls are its span count
        self.calls: List[int] = []
        self.generators: set = set()
        self._ids: Dict[str, int] = {}
        self.entry = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        #: open span rows; -1 is the virtual root
        self.stack: List[int] = [-1]

    def __len__(self) -> int:
        return len(self.entry)

    def entry_id(self, name: str) -> int:
        """The integer id for entry-point ``name`` (allocated on first use)."""
        eid = self._ids.get(name)
        if eid is None:
            eid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
        return eid

    def record(self, name: str, start: int, end: int, parent: int = -1) -> int:
        """Append one finished span (tests and synthetic spans)."""
        row = len(self.entry)
        self.entry.append(self.entry_id(name))
        self.parent.append(parent)
        self.start.append(start)
        self.end.append(end)
        return row

    def call_counts(self) -> Dict[str, int]:
        """Calls per entry point that fired at least once."""
        spans = np.bincount(self.columns()[0], minlength=len(self.names))
        counts = {
            name: self.calls[eid] if eid in self.generators else int(spans[eid])
            for eid, name in enumerate(self.names)
        }
        return {name: count for name, count in counts.items() if count}

    def columns(self):
        """The span columns as numpy arrays ``(entry, parent, start, end)``."""
        if self.stack != [-1]:
            raise RuntimeError(f"{len(self.stack) - 1} span(s) still open")
        return (
            np.frombuffer(self.entry, dtype=np.int32),
            np.frombuffer(self.parent, dtype=np.int32),
            np.frombuffer(self.start, dtype=np.int64),
            np.frombuffer(self.end, dtype=np.int64),
        )

    def save(self, path) -> None:
        """Write the spans (and the entry-name table) as one ``.npz`` file."""
        entry, parent, start, end = self.columns()
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            entry=entry,
            parent=parent,
            start=start,
            end=end,
        )


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Per-span self time: duration minus the durations of direct children.

    Raises ``ValueError`` when a child is not contained in its parent --
    the arithmetic is only meaningful for properly nested spans.
    """
    duration = end - start
    if np.any(duration < 0):
        raise ValueError("span ends before it starts")
    child = np.flatnonzero(parent >= 0)
    owner = parent[child]
    if np.any(start[child] < start[owner]) or np.any(end[child] > end[owner]):
        raise ValueError("child span escapes its parent")
    covered = np.zeros(len(duration), dtype=np.int64)
    np.add.at(covered, owner, duration[child])
    own = duration - covered
    if np.any(own < 0):
        raise ValueError("children overlap inside their parent")
    return own


def inside(start: np.ndarray, end: np.ndarray, windows: Sequence[tuple]) -> np.ndarray:
    """Mask of spans lying within any ``(t0, t1)`` window."""
    mask = np.zeros(len(start), dtype=bool)
    for t0, t1 in windows:
        mask |= (start >= t0) & (end <= t1)
    return mask


# ------------------------------------------------------------------ wrappers
def wrap_call(fn: Callable, name: str, rec: SpanRecorder) -> Callable:
    """``fn`` with one span around each call."""
    eid = rec.entry_id(name)
    end = rec.end
    push_entry, push_parent, push_start, push_end = (
        rec.entry.append,
        rec.parent.append,
        rec.start.append,
        end.append,
    )
    stack = rec.stack
    push, pop = stack.append, stack.pop

    @functools.wraps(fn)
    def spanned(*args, **kwargs):
        row = len(end)
        push_entry(eid)
        push_parent(stack[-1])
        push_end(0)
        push(row)
        push_start(clock())
        try:
            return fn(*args, **kwargs)
        finally:
            end[row] = clock()
            pop()

    return spanned


def wrap_generator(fn: Callable, name: str, rec: SpanRecorder) -> Callable:
    """Generator function ``fn`` with one span around each resume.

    The returned generator forwards every ``send``, ``throw`` and
    ``close`` to the wrapped one, so it can stand anywhere the original
    stood, including under ``yield from``: values, exceptions and the
    return value pass through unchanged.  Time between resumes belongs
    to whoever resumes the generator, not to the generator.
    """
    eid = rec.entry_id(name)
    rec.generators.add(eid)
    end, calls = rec.end, rec.calls
    push_entry, push_parent, push_start, push_end = (
        rec.entry.append,
        rec.parent.append,
        rec.start.append,
        end.append,
    )
    stack = rec.stack
    push, pop = stack.append, stack.pop

    @functools.wraps(fn)
    def spanned(*args, **kwargs):
        calls[eid] += 1
        inner = fn(*args, **kwargs)
        send = inner.send
        value = None
        thrown = None
        while True:
            row = len(end)
            push_entry(eid)
            push_parent(stack[-1])
            push_end(0)
            push(row)
            push_start(clock())
            try:
                if thrown is None:
                    out = send(value)
                else:
                    out = inner.throw(thrown)
            except StopIteration as stop:
                return stop.value
            finally:
                end[row] = clock()
                pop()
            thrown = None
            try:
                value = yield out
            except GeneratorExit:
                inner.close()
                raise
            except BaseException as exc:  # forwarded into the inner generator
                thrown = exc
                value = None

    return spanned
