"""Golden pin: what full telemetry records on a small storm, byte for byte.

A storm on the benchmark's NIC (sharded qdisc, NACK admission at 32,
host priority, reliability on) with every collector on exercises each
record shape the simulator emits: trace spans, instants and probe
counters, lifecycle marks with annotated details, timeline series and
watchdog findings.  The digests below were recorded before the trace and
lifecycle records changed representation; a change to how records are
built or stored must leave both exported documents identical.
"""

import dataclasses
import hashlib
import json

from repro.nic.nic import NicConfig
from repro.nic.qdisc import QdiscConfig
from repro.nic.reliability import ReliabilityConfig
from repro.obs import Telemetry
from repro.obs.health import has_finding
from repro.workloads.storm import StormParams, run_storm

#: sha256 of canonical JSON (``sort_keys=True``) of each exported document
CHROME_TRACE_SHA256 = "e7ef66c3a0d9513221fdf6f8c5b73d8ac45bb3bc8e35dc6435ecff187f0052a9"
REPORT_SHA256 = "641ed43040fb52f3e6b8e39fee19dd064f1d38e89a9e0005315431f0ebf43a9e"


def _digest(document) -> str:
    return hashlib.sha256(json.dumps(document, sort_keys=True).encode()).hexdigest()


def _storm_with_full_telemetry():
    nic = dataclasses.replace(
        NicConfig.baseline(),
        qdisc=QdiscConfig(
            discipline="sharded",
            max_unexpected=32,
            admission_policy="nack",
            host_priority=True,
        ),
        reliability=ReliabilityConfig(enabled=True),
    )
    params = StormParams(
        workers=4, messages_per_worker=50, window=8, service_ns=400.0, sample_every=4
    )
    telemetry = Telemetry(
        metrics=True, tracing=True, lifecycle=True, timeline=True, health=True
    )
    result = run_storm(nic, params, telemetry=telemetry)
    return result, telemetry


def test_full_telemetry_documents_match_the_golden_digests():
    result, telemetry = _storm_with_full_telemetry()
    # the pin covers the refusal/retransmit path, not just clean delivery
    assert result.refused > 0 and result.retransmits > 0
    assert has_finding(telemetry.health_findings(), "unexpected_admission_pressure")
    assert _digest(telemetry.chrome_trace()) == CHROME_TRACE_SHA256
    assert _digest(telemetry.report()) == REPORT_SHA256
