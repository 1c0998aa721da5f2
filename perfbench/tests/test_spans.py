"""Self-time arithmetic and the span wrappers."""

import numpy as np
import pytest

from spans import SpanRecorder, self_times, wrap_call, wrap_generator


def columns(rec):
    entry, parent, start, end = rec.columns()
    return parent, start, end


def test_self_time_of_nested_spans():
    rec = SpanRecorder()
    root = rec.record("root", 0, 100)
    a = rec.record("a", 10, 40, root)
    rec.record("a1", 12, 20, a)
    rec.record("a2", 25, 35, a)
    rec.record("b", 50, 90, root)
    rec.record("other_root", 120, 130)
    own = self_times(*columns(rec))
    assert own.tolist() == [30, 12, 8, 10, 40, 10]
    # every span's time is counted once: self times add up to the roots
    assert own.sum() == (100 - 0) + (130 - 120)


def test_child_escaping_its_parent_is_rejected():
    rec = SpanRecorder()
    root = rec.record("root", 0, 10)
    rec.record("late", 5, 11, root)
    with pytest.raises(ValueError, match="escapes"):
        self_times(*columns(rec))


def test_overlapping_children_are_rejected():
    rec = SpanRecorder()
    root = rec.record("root", 0, 10)
    rec.record("x", 1, 6, root)
    rec.record("y", 4, 9, root)
    rec.record("z", 2, 8, root)
    with pytest.raises(ValueError, match="overlap"):
        self_times(*columns(rec))


def test_call_wrapper_nests_and_survives_exceptions():
    rec = SpanRecorder()

    def inner(x):
        if x < 0:
            raise KeyError(x)
        return x * 2

    inner_spanned = wrap_call(inner, "inner", rec)
    outer = wrap_call(lambda x: inner_spanned(x) + 1, "outer", rec)
    assert outer(3) == 7
    with pytest.raises(KeyError):
        outer(-1)
    entry, parent, start, end = rec.columns()
    assert [rec.names[e] for e in entry] == ["outer", "inner", "outer", "inner"]
    assert parent.tolist() == [-1, 0, -1, 2]
    assert np.all(end >= start)
    assert rec.call_counts() == {"outer": 2, "inner": 2}


def _echo(log):
    """Yields its received values back; records what was thrown in."""
    received = yield "ready"
    while received != "stop":
        try:
            received = yield f"got {received}"
        except ValueError as err:
            log.append(str(err))
            received = yield "recovered"
    return "done"


def test_generator_wrapper_is_transparent_under_yield_from_send_and_throw():
    rec = SpanRecorder()
    log = []
    echo = wrap_generator(_echo, "echo", rec)

    def delegator():
        result = yield from echo(log)
        return result

    gen = delegator()
    assert next(gen) == "ready"
    assert gen.send(1) == "got 1"
    assert gen.throw(ValueError("boom")) == "recovered"
    assert gen.send(2) == "got 2"
    with pytest.raises(StopIteration) as stop:
        gen.send("stop")
    assert stop.value.value == "done"
    assert log == ["boom"]
    # one span per resume: next, send, throw, send, final send
    assert rec.call_counts() == {"echo": 1}
    assert len(rec) == 5
    assert rec.stack == [-1]


def test_generator_wrapper_propagates_errors_and_close():
    rec = SpanRecorder()
    closed = []

    def body():
        try:
            yield 1
            raise RuntimeError("inner failure")
        finally:
            closed.append(True)

    spanned = wrap_generator(body, "body", rec)
    gen = spanned()
    assert next(gen) == 1
    with pytest.raises(RuntimeError, match="inner failure"):
        next(gen)
    assert closed == [True]

    closed.clear()
    gen = spanned()
    next(gen)
    gen.close()
    assert closed == [True]
    assert rec.stack == [-1]
    self_times(*columns(rec))
