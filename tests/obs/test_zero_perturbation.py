"""The flight recorder, timeline and watchdogs never move a latency.

Two layers of pinning:

* the **absolute** pre-PR latencies of four benchmark points are coded
  in (captured before the lifecycle layer existed), so any accidental
  simulated-time charge anywhere in the recording path fails loudly;
* every observability combination (lifecycle, timeline + health,
  everything at once) must reproduce the plain run **bit-identically**.
"""

import pytest

from repro.obs import Telemetry
from repro.workloads.preposted import PrepostedParams, run_preposted
from repro.workloads.sweep import nic_preset
from repro.workloads.unexpected import UnexpectedParams, run_unexpected

FAST = dict(iterations=4, warmup=1)

#: latencies captured at the commit *before* this observability layer
#: landed -- the recorder must not move them by a single picosecond
PINNED = {
    ("preposted", "baseline"): [956.0, 956.0, 956.0, 956.0],
    ("preposted", "alpu128"): [692.0, 692.0, 692.0, 692.0],
    ("unexpected", "baseline"): [634.0, 634.0, 634.0, 634.0],
    ("unexpected", "alpu128"): [692.0, 692.0, 692.0, 692.0],
}


def run_point(workload: str, preset: str, telemetry=None):
    nic = nic_preset(preset)
    if workload == "preposted":
        params = PrepostedParams(queue_length=24, traverse_fraction=1.0, **FAST)
        return run_preposted(nic, params, telemetry=telemetry)
    params = UnexpectedParams(queue_length=16, **FAST)
    return run_unexpected(nic, params, telemetry=telemetry)


@pytest.mark.parametrize("workload,preset", sorted(PINNED))
class TestPinnedLatencies:
    def test_plain_run_matches_pre_recorder_pin(self, workload, preset):
        result = run_point(workload, preset)
        assert result.latencies_ns == PINNED[(workload, preset)]

    def test_lifecycle_recorder_is_zero_perturbation(self, workload, preset):
        bundle = Telemetry(tracing=False, lifecycle=True)
        result = run_point(workload, preset, telemetry=bundle)
        assert result.latencies_ns == PINNED[(workload, preset)]
        # and it genuinely recorded: the timed pings are all complete
        pings = [
            lc
            for lc in bundle.lifecycles()
            if lc.label == "ping" and lc.meta.get("timed")
        ]
        assert len(pings) == FAST["iterations"]
        assert all(lc.complete for lc in pings)

    def test_timeline_and_watchdogs_are_zero_perturbation(
        self, workload, preset
    ):
        bundle = Telemetry(tracing=False, timeline=True, health=True)
        result = run_point(workload, preset, telemetry=bundle)
        assert result.latencies_ns == PINNED[(workload, preset)]
        # and they genuinely ran: the timeline has series, the watchdog
        # battery evaluated the healthy benchmark to zero findings
        assert bundle.timeline.names()
        assert any(
            name.endswith("/depth") for name in bundle.timeline.names()
        )
        assert bundle.health_findings() == []
        assert bundle.health_verdict() == "healthy"

    def test_everything_on_is_zero_perturbation(self, workload, preset):
        bundle = Telemetry(lifecycle=True, timeline=True, health=True)
        result = run_point(workload, preset, telemetry=bundle)
        assert result.latencies_ns == PINNED[(workload, preset)]


class TestLatencyEqualsLifecycleSpan:
    """The recorder's end-to-end span *is* the benchmark's sample."""

    @pytest.mark.parametrize("preset", ["baseline", "alpu128"])
    def test_ping_spans_equal_reported_latencies(self, preset):
        bundle = Telemetry(tracing=False, lifecycle=True)
        result = run_point("preposted", preset, telemetry=bundle)
        pings = [
            lc
            for lc in bundle.lifecycles()
            if lc.label == "ping" and lc.meta.get("timed")
        ]
        pings.sort(key=lambda lc: lc.meta["iteration"])
        spans_ns = [(lc.end_ps - lc.start_ps) / 1000 for lc in pings]
        assert spans_ns == result.latencies_ns
