"""The committed benchmark regression baseline (``BENCH_baseline.json``).

A canonical mini-grid -- one Figure-5 point and one Figure-6 point per
matching backend (list, hash, alpu128), plus the deep-queue, topology and
core-stress points -- is run on every CI build and compared against the
committed baseline.  **Simulated latencies must match exactly.**  The
simulator is deterministic; any drift in a latency is a semantic change
and fails the check (update the baseline deliberately with ``--write``).
The simulator's *host* time is not measured here: ``perfbench/`` owns
that measurement.

CLI::

    python -m repro.workloads.bench --check [BENCH_baseline.json]
    python -m repro.workloads.bench --write [BENCH_baseline.json]

Instrumented runs and their report artifacts are the run report's job
(``python -m repro.analysis.report``).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional, Sequence, Tuple

#: committed baseline location, relative to the repository root
DEFAULT_PATH = "BENCH_baseline.json"

#: schema version of the baseline file (3: records carry only the
#: pinned latencies -- no host-time fields)
BASELINE_VERSION = 3

#: the canonical mini-grid: (benchmark, preset, params).  Small iteration
#: counts keep the CI step in seconds; the latencies are deterministic
#: regardless.
GRID: Tuple[Tuple[str, str, Dict[str, object]], ...] = (
    (
        "preposted",
        "baseline",
        {"queue_length": 24, "traverse_fraction": 1.0, "iterations": 4, "warmup": 1},
    ),
    (
        "preposted",
        "hash",
        {"queue_length": 24, "traverse_fraction": 1.0, "iterations": 4, "warmup": 1},
    ),
    (
        "preposted",
        "alpu128",
        {"queue_length": 24, "traverse_fraction": 1.0, "iterations": 4, "warmup": 1},
    ),
    ("unexpected", "baseline", {"queue_length": 16, "iterations": 4, "warmup": 1}),
    ("unexpected", "hash", {"queue_length": 16, "iterations": 4, "warmup": 1}),
    ("unexpected", "alpu128", {"queue_length": 16, "iterations": 4, "warmup": 1}),
    # the deep-queue point: a 512-entry unexpected queue on the software
    # list backend pins the dict-backed NicQueue's O(1) unlink and the
    # traversal cost model at depth (the queue-churn regression anchor)
    ("unexpected", "baseline", {"queue_length": 512, "iterations": 3, "warmup": 1}),
    # the topology axes: the same 16-rank halo exchange on the dedicated-
    # wire crossbar and the routed torus pins both the collective
    # schedules and the dimension-ordered router
    (
        "halo",
        "alpu128",
        {
            "ranks": 16,
            "topology": "crossbar",
            "message_size": 512,
            "iterations": 3,
            "warmup": 1,
        },
    ),
    (
        "halo",
        "alpu128",
        {
            "ranks": 16,
            "topology": "torus3d",
            "message_size": 512,
            "iterations": 3,
            "warmup": 1,
        },
    ),
    # the vectorized-core stress point: a fill/drain op stream against one
    # large ALPU, where nearly every event carries a core operation (see
    # repro.workloads.alpucore)
    (
        "alpucore",
        "alpu1024x512",
        {"cells": 1024, "block_size": 512, "iterations": 4, "warmup": 1},
    ),
)


def _point_id(benchmark: str, preset: str, params: Dict[str, object]) -> str:
    axes = "_".join(
        f"{name}={params[name]}" for name in sorted(params) if name not in
        ("iterations", "warmup")
    )
    return f"{benchmark}/{preset}/{axes}"


def run_grid() -> List[Dict[str, object]]:
    """Run every grid point (no telemetry); returns records."""
    from repro.workloads.alpucore import AlpuCoreParams, run_alpucore
    from repro.workloads.sweep import BENCHMARKS, nic_preset

    records = []
    for benchmark, preset, params in GRID:
        if benchmark == "alpucore":
            # drives one AlpuDevice directly -- no NIC preset involved;
            # the preset column is purely the geometry label
            result = run_alpucore(AlpuCoreParams(**params))
        else:
            workload = BENCHMARKS[benchmark]
            result = workload.run(nic_preset(preset), workload.params_cls(**params))
        records.append(
            {
                "id": _point_id(benchmark, preset, params),
                "benchmark": benchmark,
                "preset": preset,
                "params": dict(params),
                "latencies_ns": list(result.latencies_ns),
                "median_ns": result.median_ns,
            }
        )
    return records


def write_baseline(path: str) -> List[Dict[str, object]]:
    """Run the grid and commit it as the new baseline file."""
    records = run_grid()
    payload = {"version": BASELINE_VERSION, "grid": records}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return records


def check_baseline(
    path: str,
    records: Optional[List[Dict[str, object]]] = None,
) -> Tuple[bool, List[str]]:
    """Compare a fresh grid run against the committed baseline.

    Returns ``(ok, messages)``.  Simulated-latency mismatches and
    structural drift of the grid itself (a missing or a stale point)
    fail.
    """
    with open(path, "r", encoding="utf-8") as handle:
        baseline = json.load(handle)
    if records is None:
        records = run_grid()
    by_id = {record["id"]: record for record in baseline.get("grid", ())}
    ok = True
    messages: List[str] = []
    for record in records:
        reference = by_id.pop(record["id"], None)
        if reference is None:
            ok = False
            messages.append(f"FAIL {record['id']}: not in baseline")
            continue
        if record["latencies_ns"] != reference["latencies_ns"]:
            ok = False
            messages.append(
                f"FAIL {record['id']}: latencies {record['latencies_ns']} "
                f"!= baseline {reference['latencies_ns']}"
            )
        else:
            messages.append(
                f"ok   {record['id']}: median {record['median_ns']:.1f} ns"
            )
    for stale in by_id:
        ok = False
        messages.append(f"FAIL {stale}: in baseline but not in the grid")
    return ok, messages


# --------------------------------------------------------------- the CLI
def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.workloads.bench",
        description="Run / check the committed benchmark regression baseline",
    )
    parser.add_argument(
        "path",
        nargs="?",
        default=DEFAULT_PATH,
        help=f"baseline file (default {DEFAULT_PATH})",
    )
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument(
        "--write", action="store_true", help="run the grid, write the baseline"
    )
    mode.add_argument(
        "--check",
        action="store_true",
        help="run the grid, fail on any simulated-latency mismatch",
    )
    args = parser.parse_args(argv)

    if args.write:
        records = write_baseline(args.path)
        print(f"wrote {args.path} ({len(records)} grid points)")
        for record in records:
            print(f"  {record['id']}: median {record['median_ns']:.1f} ns")
        return 0
    ok, messages = check_baseline(args.path)
    for message in messages:
        print(message)
    print("benchmark baseline check " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1

if __name__ == "__main__":
    sys.exit(main())
