"""Full telemetry must not multiply the cyclic garbage collector's work.

Trace records and lifecycle marks are rows of flat ``array`` columns and
timeline windows are runs of plain numbers, so recording adds no
GC-tracked object per record.  The collector's collection count over a
run is the observable: it grows with the number of container objects a
run leaves alive.  The storm is the golden-digest test's 4x50 storm,
which exercises every record shape.
"""

import dataclasses
import gc

from repro.nic.nic import NicConfig
from repro.nic.qdisc import QdiscConfig
from repro.nic.reliability import ReliabilityConfig
from repro.obs import Telemetry
from repro.workloads.storm import StormParams, run_storm


def _collections_during_storm(telemetry) -> int:
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
    gc.collect()
    before = sum(generation["collections"] for generation in gc.get_stats())
    run_storm(nic, params, telemetry=telemetry)
    return sum(generation["collections"] for generation in gc.get_stats()) - before


def test_full_telemetry_at_most_doubles_gc_collections():
    assert gc.isenabled()
    off = _collections_during_storm(None)
    full = _collections_during_storm(
        Telemetry(metrics=True, tracing=True, lifecycle=True, timeline=True, health=True)
    )
    assert off > 0
    assert full <= 2 * off, f"{full} collections with full telemetry, {off} with it off"
