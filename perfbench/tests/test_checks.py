"""Output checks, traced-run checks and the metric contract, on real runs."""

import dataclasses
import importlib
import json
from pathlib import Path

import pytest

import cases
import layers
from spans import SpanRecorder

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def deepq():
    case = cases.CASES["deepq"]
    return case, cases.run_once(case), cases.load_expected()["deepq"]


def test_untampered_run_passes(deepq):
    case, run, expected = deepq
    assert case.check(run, expected) == []


def test_tampered_latency_sample_is_rejected(deepq):
    case, run, expected = deepq
    tampered = dataclasses.replace(run, result=dataclasses.replace(run.result))
    tampered.result.latencies_ns = list(run.result.latencies_ns)
    tampered.result.latencies_ns[7] += 1.0
    failures = case.check(tampered, expected)
    assert failures and "latency samples" in failures[0]


def test_undelivered_messages_fail_the_check(deepq):
    case, run, expected = deepq
    short = dict(expected, messages=expected["messages"] + 1)
    assert any("messages delivered" in f for f in case.check(run, short))


def test_traced_run_is_bit_identical_and_covers_every_per_layer_metric(deepq):
    case, untraced, expected = deepq
    rec = SpanRecorder()
    with layers.Instrumented(rec):
        traced = cases.run_once(case)
    assert traced.latencies_ns == untraced.latencies_ns
    assert traced.events == untraced.events
    metrics, failures = layers.layer_metrics(traced, rec)
    assert failures == []
    added_by_runner = {"sim.events_per_s", "trace_overhead_x"}
    assert {m["name"] for m in SPEC["per_layer"]} == set(metrics) | added_by_runner


def _entry_point_functions():
    return {
        (module, cls, method): vars(getattr(importlib.import_module(module), cls))[method]
        for specs in layers.ENTRY_POINTS.values()
        for module, cls, methods in specs
        for method in methods
    }


def test_instrumentation_restores_every_entry_point():
    before = _entry_point_functions()
    with layers.Instrumented(SpanRecorder()):
        assert _entry_point_functions() != before
    assert _entry_point_functions() == before


def test_every_entry_point_fires_on_some_workload():
    never = set(layers.entry_names())
    for skipped in layers.SKIPS.values():
        never &= skipped
    assert never == set()
    assert set(layers.SKIPS) == {w["name"] for w in SPEC["workloads"]} == set(cases.CASES)
    known = set(layers.entry_names())
    for skipped in layers.SKIPS.values():
        assert skipped <= known
