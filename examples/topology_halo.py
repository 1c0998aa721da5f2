#!/usr/bin/env python3
"""Per-link utilization of a halo exchange: crossbar vs. torus.

Runs the same 16-rank, 6-neighbour halo exchange (plus its per-iteration
allreduce) on two physical networks -- the dedicated-wire ``crossbar``
and the routed ``torus3d`` -- with telemetry on, then renders each
fabric's per-link utilization from the unified run report.

The point the numbers make: the crossbar spreads the same traffic over
O(N^2) idle wires (utilization per wire is tiny and uniform), while the
torus concentrates it onto 6 shared channels per node, where store-and-
forward contention -- and any hot spot a bad logical-to-physical mapping
creates -- becomes visible.

Run:  python examples/topology_halo.py          (a few seconds)
      python examples/topology_halo.py --ranks 32
"""

import argparse

from repro.obs.telemetry import Telemetry
from repro.workloads.halo import HaloParams, run_halo
from repro.workloads.sweep import nic_preset


def link_utilizations(report):
    """``[(link name, utilization), ...]`` out of a run-report document."""
    out = []
    for name, value in report["metrics"].items():
        if name.startswith("fabric.wire") and name.endswith("/utilization"):
            link = name[: -len("/utilization")]
            src, _, dst = link[len("fabric.wire"):].partition("->")
            if src != dst:  # self-channels never carry halo traffic
                out.append((link, value))
    return out


def render(title, utils, width=40):
    print(f"\n{title}")
    print(f"  physical channels: {len(utils)}")
    busiest = sorted(utils, key=lambda item: item[1], reverse=True)[:8]
    peak = busiest[0][1] if busiest and busiest[0][1] > 0 else 1.0
    for name, value in busiest:
        bar = "#" * max(1, round(width * value / peak)) if value else ""
        print(f"  {name:<22} {value:7.4f} {bar}")
    mean = sum(value for _, value in utils) / len(utils)
    print(f"  mean utilization {mean:.5f}, peak {busiest[0][1]:.5f}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--ranks", type=int, default=16)
    parser.add_argument("--message-size", type=int, default=2048)
    args = parser.parse_args()

    for topology in ("crossbar", "torus3d"):
        bundle = Telemetry(tracing=False, timeline=True, health=True)
        result = run_halo(
            nic_preset("alpu128"),
            HaloParams(
                ranks=args.ranks,
                topology=topology,
                message_size=args.message_size,
                iterations=3,
                warmup=1,
            ),
            telemetry=bundle,
        )
        report = bundle.report(
            benchmark="halo", topology=topology, ranks=args.ranks
        )
        render(
            f"{result.topology}: median iteration {result.median_ns:.0f} ns "
            f"(health: {report['health']['verdict']})",
            link_utilizations(report),
        )


if __name__ == "__main__":
    main()
