"""The committed benchmark regression baseline (``BENCH_baseline.json``).

A canonical mini-grid -- one Figure-5 point and one Figure-6 point per
matching backend (list, hash, alpu128) -- is run on every CI build and
compared against the committed baseline:

* **Simulated latencies must match exactly.**  The simulator is
  deterministic; any drift in a latency is a semantic change and fails
  the check (update the baseline deliberately with ``--write``).
* **Wall-clock throughput is a gated axis with a per-point tolerance
  band.**  Each point records the simulator's self-profile (events/sec
  via :class:`repro.obs.selfprof.SimProfiler`) and the baseline commits
  an ``events_per_sec_tolerance`` per point.  A slowdown beyond the band
  prints a warning by default -- machines differ -- and fails the check
  under ``--fail-on-wallclock`` (for perf-gating runs on the machine
  that wrote the baseline).

A third file, ``BENCH_before.json``, freezes the grid as measured at the
commit *before* the SWAR core vectorization (plus the core-stress point
back-measured at that commit).  ``--compare`` joins a fresh run against
it and emits the before/after events-per-sec table of the EXPERIMENTS.md
performance model; ``--require-speedup 5.0`` is the vectorization gate:
at least one pinned point must run >=5x faster than it did before.

CLI::

    python -m repro.workloads.bench --check [BENCH_baseline.json]
    python -m repro.workloads.bench --check --fail-on-wallclock
    python -m repro.workloads.bench --write [BENCH_baseline.json]
    python -m repro.workloads.bench --check --artifacts out/
    python -m repro.workloads.bench --check --compare --require-speedup 5.0
    python -m repro.workloads.bench --check --compare --markdown table.md

``--artifacts DIR`` additionally runs one attribution-instrumented
Figure-5 point (list vs. alpu at queue depth 50) and drops the text
report, the JSON report and a per-message Chrome trace there, plus the
unified run report (text/JSON/HTML, :mod:`repro.analysis.report`) of one
fully-instrumented point -- CI uploads the directory as a workflow
artifact.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional, Sequence, Tuple

#: committed baseline location, relative to the repository root
DEFAULT_PATH = "BENCH_baseline.json"

#: schema version of the baseline file (2: per-point
#: ``events_per_sec_tolerance`` bands)
BASELINE_VERSION = 2

#: default per-point wall-clock tolerance band, as a fraction of the
#: baseline events/sec; ``--write`` stamps it onto every record and v1
#: baselines without bands fall back to it
DEFAULT_WALLCLOCK_TOLERANCE = 0.25

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
    # repro.workloads.alpucore).  This is the pinned point the >=5x
    # vectorization gate (--compare --require-speedup) is anchored on.
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
    """Run every grid point with the self-profiler on; returns records."""
    from repro.obs.telemetry import Telemetry
    from repro.workloads.alpucore import AlpuCoreParams, run_alpucore
    from repro.workloads.sweep import BENCHMARKS, nic_preset

    records = []
    for benchmark, preset, params in GRID:
        bundle = Telemetry(tracing=False, profile=True)
        if benchmark == "alpucore":
            # drives one AlpuDevice directly -- no NIC preset involved;
            # the preset column is purely the geometry label
            result = run_alpucore(AlpuCoreParams(**params), telemetry=bundle)
        else:
            workload = BENCHMARKS[benchmark]
            result = workload.run(
                nic_preset(preset), workload.params_cls(**params), telemetry=bundle
            )
        profile = bundle.profiler.snapshot(top=5)
        records.append(
            {
                "id": _point_id(benchmark, preset, params),
                "benchmark": benchmark,
                "preset": preset,
                "params": dict(params),
                "latencies_ns": list(result.latencies_ns),
                "median_ns": result.median_ns,
                "events": profile["events"],
                "events_per_sec": profile["events_per_sec"],
                "events_per_sec_tolerance": DEFAULT_WALLCLOCK_TOLERANCE,
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
    *,
    fail_on_wallclock: bool = False,
) -> Tuple[bool, List[str]]:
    """Compare a fresh grid run against the committed baseline.

    Returns ``(ok, messages)``.  Simulated-latency mismatches (and
    structural drift of the grid itself) always fail.  An events/sec
    rate below a point's committed tolerance band warns by default and
    fails only under ``fail_on_wallclock`` -- CI machines differ from
    the baseline-writing machine, so the gate is opt-in.
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
        base_rate = reference.get("events_per_sec") or 0.0
        rate = record.get("events_per_sec") or 0.0
        # ``events_per_sec_tolerance`` is consumed here and only here: it
        # is the per-point fractional band below the committed events/sec
        # within which a fresh run still passes.  A point recorded at
        # 100k events/s with tolerance 0.25 tolerates anything >= 75k;
        # slower than that warns (or fails under --fail-on-wallclock).
        # Faster never fails -- the band is one-sided.
        tolerance = reference.get(
            "events_per_sec_tolerance", DEFAULT_WALLCLOCK_TOLERANCE
        )
        if base_rate and rate < base_rate * (1.0 - tolerance):
            label = "FAIL" if fail_on_wallclock else "WARN"
            ok = ok and not fail_on_wallclock
            messages.append(
                f"{label} {record['id']}: {rate:,.0f} events/s is "
                f">{tolerance:.0%} below baseline "
                f"{base_rate:,.0f} events/s"
            )
    for stale in by_id:
        ok = False
        messages.append(f"FAIL {stale}: in baseline but not in the grid")
    return ok, messages


# ------------------------------------------------------------ comparison
#: frozen pre-vectorization grid (measured at the commit before the SWAR
#: core landed), the "before" side of the performance-model tables
BEFORE_PATH = "BENCH_before.json"


def compare_records(
    before_path: str, records: List[Dict[str, object]]
) -> List[Dict[str, object]]:
    """Join a grid run against a frozen "before" baseline, point by point.

    Returns one row per current-grid point: before/after events/sec, the
    speedup, and whether the simulated latencies are identical (the
    bit-identity column -- ``None`` when the before grid lacks the
    point).  Points absent from the before file get ``before == None``.
    """
    with open(before_path, "r", encoding="utf-8") as handle:
        before = json.load(handle)
    by_id = {record["id"]: record for record in before.get("grid", ())}
    rows = []
    for record in records:
        reference = by_id.get(record["id"])
        before_rate = reference.get("events_per_sec") if reference else None
        rate = record.get("events_per_sec") or 0.0
        rows.append(
            {
                "id": record["id"],
                "before_events_per_sec": before_rate,
                "events_per_sec": rate,
                "speedup": (rate / before_rate) if before_rate else None,
                "latencies_identical": (
                    record["latencies_ns"] == reference["latencies_ns"]
                    if reference
                    else None
                ),
            }
        )
    return rows


def format_comparison_markdown(rows: List[Dict[str, object]]) -> str:
    """The before/after table as GitHub-flavoured markdown."""
    lines = [
        "| grid point | before (events/s) | after (events/s) | speedup "
        "| simulated latency |",
        "|---|---:|---:|---:|---|",
    ]
    for row in rows:
        before_rate = row["before_events_per_sec"]
        before_text = f"{before_rate:,.0f}" if before_rate else "--"
        speedup = row["speedup"]
        speedup_text = f"{speedup:.2f}x" if speedup else "new point"
        identical = row["latencies_identical"]
        identity_text = (
            "identical" if identical else "new point" if identical is None
            else "**DRIFTED**"
        )
        lines.append(
            f"| `{row['id']}` | {before_text} "
            f"| {row['events_per_sec']:,.0f} | {speedup_text} "
            f"| {identity_text} |"
        )
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------- artifacts
#: the attribution showcase point (the EXPERIMENTS.md budget table)
ARTIFACT_QUEUE_LENGTH = 50


def write_artifacts(directory: str) -> List[str]:
    """The attribution report + per-message Chrome trace for CI upload.

    Runs the list and alpu128 receivers through one Figure-5 point at
    queue depth :data:`ARTIFACT_QUEUE_LENGTH` with the flight recorder
    on; writes ``attribution_<preset>.txt``, ``attribution.json`` and
    ``lifecycle_trace_<preset>.json`` into ``directory``.
    """
    from repro.analysis.attribution import attribute_run, format_report
    from repro.obs.lifecycle import lifecycle_chrome_events
    from repro.obs.telemetry import Telemetry
    from repro.workloads.preposted import PrepostedParams, run_preposted
    from repro.workloads.sweep import nic_preset

    os.makedirs(directory, exist_ok=True)
    written: List[str] = []
    reports: Dict[str, object] = {}
    params = PrepostedParams(
        queue_length=ARTIFACT_QUEUE_LENGTH,
        traverse_fraction=1.0,
        iterations=8,
        warmup=2,
    )
    for preset in ("baseline", "alpu128"):
        bundle = Telemetry(tracing=False, lifecycle=True)
        run_preposted(nic_preset(preset), params, telemetry=bundle)
        lifecycles = bundle.lifecycles()
        report = attribute_run(lifecycles)
        reports[preset] = report
        text_path = os.path.join(directory, f"attribution_{preset}.txt")
        with open(text_path, "w", encoding="utf-8") as handle:
            handle.write(
                format_report(
                    report,
                    title=(
                        f"preposted / {preset}, "
                        f"queue_length={ARTIFACT_QUEUE_LENGTH}"
                    ),
                )
            )
            handle.write("\n")
        written.append(text_path)
        trace_path = os.path.join(
            directory, f"lifecycle_trace_{preset}.json"
        )
        with open(trace_path, "w", encoding="utf-8") as handle:
            json.dump(
                {"traceEvents": lifecycle_chrome_events(lifecycles)}, handle
            )
        written.append(trace_path)
    json_path = os.path.join(directory, "attribution.json")
    with open(json_path, "w", encoding="utf-8") as handle:
        json.dump(reports, handle, indent=1)
    written.append(json_path)
    # the unified run report of one fully-instrumented point (timeline,
    # health, lifecycles, self-profile) -- the CI-browsable artifact
    from repro.analysis.report import write_artifacts as write_run_report

    bundle = Telemetry(
        tracing=False, lifecycle=True, timeline=True, health=True, profile=True
    )
    result = run_preposted(nic_preset("alpu128"), params, telemetry=bundle)
    document = bundle.report(
        benchmark="preposted",
        preset="alpu128",
        queue_length=ARTIFACT_QUEUE_LENGTH,
        median_ns=result.median_ns,
    )
    written.extend(write_run_report(document, directory))
    return written


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
    parser.add_argument(
        "--artifacts",
        metavar="DIR",
        help="also write attribution reports, Chrome traces and the "
        "unified run report into DIR",
    )
    parser.add_argument(
        "--fail-on-wallclock",
        action="store_true",
        help="fail --check when events/sec falls below a point's "
        "committed tolerance band (default: warn only)",
    )
    parser.add_argument(
        "--compare",
        metavar="BEFORE",
        nargs="?",
        const=BEFORE_PATH,
        help="also print a before/after events-per-sec comparison against "
        f"a frozen baseline (default {BEFORE_PATH})",
    )
    parser.add_argument(
        "--markdown",
        metavar="FILE",
        help="with --compare: write the table as GitHub-flavoured "
        "markdown to FILE ('-' for stdout); CI appends it to the job "
        "summary",
    )
    parser.add_argument(
        "--require-speedup",
        type=float,
        metavar="X",
        help="with --compare: fail unless at least one compared point "
        "runs >= X times faster than the before baseline (the "
        "vectorization gate uses 5.0)",
    )
    args = parser.parse_args(argv)

    status = 0
    records = None
    if args.write:
        records = write_baseline(args.path)
        print(f"wrote {args.path} ({len(records)} grid points)")
        for record in records:
            print(
                f"  {record['id']}: median {record['median_ns']:.1f} ns, "
                f"{record['events_per_sec']:,.0f} events/s"
            )
    else:
        records = run_grid()
        ok, messages = check_baseline(
            args.path, records, fail_on_wallclock=args.fail_on_wallclock
        )
        for message in messages:
            print(message)
        if not ok:
            print("benchmark baseline check FAILED")
            status = 1
        else:
            print("benchmark baseline check passed")
    if args.compare:
        rows = compare_records(args.compare, records)
        table = format_comparison_markdown(rows)
        if args.markdown and args.markdown != "-":
            with open(args.markdown, "w", encoding="utf-8") as handle:
                handle.write(table)
            print(f"comparison table: {args.markdown}")
        else:
            print(table, end="")
        if any(row["latencies_identical"] is False for row in rows):
            print("comparison: simulated latencies DRIFTED from the "
                  "before baseline")
            status = 1
        if args.require_speedup is not None:
            speedups = [row["speedup"] for row in rows if row["speedup"]]
            best = max(speedups, default=0.0)
            if best < args.require_speedup:
                print(
                    f"speedup gate FAILED: best point is {best:.2f}x, "
                    f"needed >= {args.require_speedup:.2f}x"
                )
                status = 1
            else:
                print(
                    f"speedup gate passed: best point {best:.2f}x "
                    f">= {args.require_speedup:.2f}x"
                )
    if args.artifacts:
        for path in write_artifacts(args.artifacts):
            print(f"artifact: {path}")
    return status


if __name__ == "__main__":
    sys.exit(main())
