"""Tracer record semantics: spans, instants, counters."""

from repro.obs.lifecycle import LifecycleRecorder
from repro.obs.stream import NULL_SINK, EventStream
from repro.obs.tracer import (
    KIND_BEGIN,
    KIND_COUNTER,
    KIND_END,
    KIND_INSTANT,
    TraceRecord,
    Tracer,
)


def make_clock(times):
    """A fake clock that pops successive timestamps."""
    it = iter(times)
    return lambda: next(it)


def test_records_carry_clock_timestamps():
    t = Tracer()
    t.attach_clock(make_clock([100, 250]))
    t.instant("nic", "a")
    t.instant("nic", "b", {"k": 1})
    assert t.records == [
        TraceRecord(100, "nic", "a", KIND_INSTANT, None),
        TraceRecord(250, "nic", "b", KIND_INSTANT, {"k": 1}),
    ]
    assert len(t) == 2


def test_span_context_manager_emits_balanced_pair():
    t = Tracer()
    t.attach_clock(make_clock([10, 20]))
    with t.span("alpu", "match", {"q": "posted"}):
        pass
    begin, end = t.records
    assert (begin.kind, end.kind) == (KIND_BEGIN, KIND_END)
    assert begin.name == end.name == "match"
    assert begin.args == {"q": "posted"}
    assert (begin.time_ps, end.time_ps) == (10, 20)


def test_span_closes_on_exception():
    t = Tracer()
    try:
        with t.span("nic", "search"):
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    assert [r.kind for r in t.records] == [KIND_BEGIN, KIND_END]


def test_nested_spans_preserve_emission_order():
    t = Tracer()
    t.begin("alpu", "outer")
    t.begin("alpu", "inner")
    t.end("alpu", "inner", {"ok": True})
    t.end("alpu", "outer")
    kinds = [(r.kind, r.name) for r in t.records]
    assert kinds == [
        (KIND_BEGIN, "outer"),
        (KIND_BEGIN, "inner"),
        (KIND_END, "inner"),
        (KIND_END, "outer"),
    ]


def test_counter_records_values_dict():
    t = Tracer()
    t.counter("nic", "depth", 7)
    t.counter("network", "link.utilization", 0.25)
    depth, util = t.records
    assert depth.kind == util.kind == KIND_COUNTER
    # the sample's type survives the stream's numeric column
    assert depth.args == {"value": 7} and type(depth.args["value"]) is int
    assert util.args == {"value": 0.25}


def test_null_tracer_is_inert():
    assert not NULL_SINK.enabled
    NULL_SINK.begin("x", "y")
    NULL_SINK.end("x", "y")
    NULL_SINK.instant("x", "y", {"a": 1})
    NULL_SINK.counter("x", "y", 2)
    with NULL_SINK.span("x", "y"):
        pass
    assert NULL_SINK.records == ()
    assert len(NULL_SINK) == 0


def test_shared_stream_keeps_component_records_apart():
    stream = EventStream()
    t = Tracer(stream)
    recorder = LifecycleRecorder(stream)
    recorder.begin("send", 0, 1, 5)
    t.instant("nic", "a", {"k": 1})
    recorder.mark_request(0, 1, "wire", 9)
    assert t.records == [TraceRecord(0, "nic", "a", KIND_INSTANT, {"k": 1})]
    assert [m.stage for m in recorder.lifecycles[0].marks] == ["api_post", "wire"]
    assert len(t) == 1 and len(stream) == 3
