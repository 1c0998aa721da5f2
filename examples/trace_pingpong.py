#!/usr/bin/env python3
"""Trace a ping-pong: metrics snapshot plus a Chrome/Perfetto trace file.

Runs a zero-byte ping-pong on the ALPU-accelerated NIC with the
telemetry layer on, prints the headline counters, and writes a Chrome
trace-event JSON.  Open the file at https://ui.perfetto.dev (or
chrome://tracing) to see ALPU match spans, firmware search spans, queue
depth counters and fabric packet instants on a shared timeline.

Run:  python examples/trace_pingpong.py [out.trace.json]
      (default output: pingpong.trace.json)
"""

import sys

from repro.nic.nic import NicConfig
from repro.obs import Telemetry
from repro.workloads.pingpong import PingPongParams, run_pingpong


def main(out_path: str = "pingpong.trace.json") -> None:
    telemetry = Telemetry()  # metrics + tracing + sampling probe
    result = run_pingpong(
        NicConfig.with_alpu(256, 16),
        PingPongParams(message_size=0, iterations=10, warmup=3),
        telemetry=telemetry,
    )

    print("zero-byte ping-pong, NIC + 256-entry ALPUs, telemetry on")
    print(f"  half-RTT mean: {result.mean_ns:7.1f} ns")

    snapshot = result.metrics
    print("\nheadline metrics (receiver NIC):")
    for key in (
        "nic1.alpu.posted/matches_attempted",
        "nic1.alpu.posted/match_successes",
        "nic1.alpu.posted/inserts",
        "nic1.fw/headers_matched",
        "nic1.fw/entries_traversed",
        "fabric/packets",
        "fabric/bytes",
    ):
        print(f"  {key:40s} {snapshot[key]}")
    depth = snapshot["nic1.postedRecvQ/depth_samples"]
    print(
        f"  {'nic1.postedRecvQ depth (sampled)':40s} "
        f"mean={depth['mean']:.2f} max={depth['max']} n={depth['count']}"
    )

    telemetry.write_chrome_trace(out_path)
    events = len(telemetry.tracer)
    print(f"\nwrote {out_path} ({events} trace records)")
    print("open it at https://ui.perfetto.dev or chrome://tracing")


if __name__ == "__main__":
    main(*sys.argv[1:2])
