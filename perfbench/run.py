"""The repo benchmark: host time to produce a simulated result, end to end and by layer.

Run one workload (the form the metric contract is written for)::

    python3 perfbench/run.py --workload halo64 --seed 1 --seconds 30 --trace 0

or every workload, each in its own worker processes, untraced then traced::

    python3 perfbench/run.py --trace 1

``--trace 0`` measures the end-to-end metrics with nothing inside the
simulator wrapped; ``--trace 1`` adds a traced pass that wraps every
layer's entry points with spans and reports host time by layer.  Host
times are normalised by the calibration kernel of :mod:`calib`, timed
between blocks of repeats, to a host of fixed speed.  The
metric names and units come from ``BENCHMARK.json``.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  A failed output check prints
``"correct": false`` and exits with status 1.  See ``README.md`` here.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import calib

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: repeats per pass and worker even when the worker's share of ``--seconds`` runs out first
MIN_UNTRACED = 2
MIN_TRACED = 1
#: seconds of workload repeats between two passes of the calibration kernel
CALIBRATE_EVERY_S = 1.0
#: worker processes per workload run, one after another
WORKERS = 3
#: seconds after which a run kills its running worker; the worker counts as failed
RUN_TIMEOUT_S = 170.0


def quartiles(values: List[float]) -> Dict[str, float]:
    """min, q1, median, q3, max (median alone for fewer than two values)."""
    if len(values) < 2:
        v = values[0]
        return {"min": v, "q1": v, "median": v, "q3": v, "max": v}
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"min": min(values), "q1": q1, "median": q2, "q3": q3, "max": max(values)}


def percentile(samples: List[float], q: int) -> float:
    """The ``q``-th percentile, inclusive method (the median for ``q=50``)."""
    if q == 50 or len(samples) < 2:
        return statistics.median(samples)
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


class Tally:
    """Simulated messages attempted and failed over every run of a process."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def add(self, attempted: int, delivered: int, failures: List[str]) -> None:
        """A run whose output check failed counts all its messages as failed."""
        self.attempted += attempted
        self.failed += attempted if failures else max(0, attempted - delivered)
        self.failures.extend(failures)


@dataclasses.dataclass
class Sample:
    """The numbers one run leaves behind once its world is dropped.

    ``wall_s``, ``setup_s`` and ``run_s`` are raw host seconds; ``scale``
    turns them into host seconds at the calibration kernel's nominal
    speed (see :mod:`calib`).
    """

    wall_s: float
    setup_s: float
    run_s: float
    events: int
    delivered: int
    latencies_ns: List[float]
    #: per-layer metrics, traced runs only
    layers: Optional[Dict[str, float]] = None
    #: calibration seconds around this run, and NOMINAL_S over them
    calib_s: float = 0.0
    scale: float = 1.0

    def to_json(self) -> dict:
        """Everything but the latency samples, which the worker sends once."""
        fields = dataclasses.asdict(self)
        del fields["latencies_ns"]
        return fields

    @classmethod
    def from_json(cls, fields: dict) -> "Sample":
        return cls(latencies_ns=[], **fields)


def measure(case, expected: dict, tally: Tally, reference=None, rec=None) -> Optional[Sample]:
    """One checked run, traced into ``rec`` when given.

    Given a ``reference`` sample, the simulated latencies and the event
    count must be bit-identical to it.  Returns ``None`` when the run
    raised (a rank failed or missed its deadline).
    """
    import cases
    import layers

    gc.collect()
    try:
        if rec is None:
            run = cases.run_once(case)
        else:
            with layers.Instrumented(rec):
                run = cases.run_once(case)
    except RuntimeError as err:
        tally.add(expected["messages"], 0, [f"run failed: {err!r}"])
        return None
    failures = case.check(run, expected)
    if reference is not None:
        if run.latencies_ns != reference.latencies_ns:
            failures.append("simulated latencies differ from the first untraced run")
        if run.events != reference.events:
            failures.append(f"{run.events} events, the first untraced run had {reference.events}")
    sample = Sample(
        wall_s=run.wall_ns / 1e9,
        setup_s=run.setup_ns / 1e9,
        run_s=run.run_ns / 1e9,
        events=run.events,
        delivered=run.delivered,
        latencies_ns=run.latencies_ns,
    )
    if rec is not None:
        sample.layers, traced_failures = layers.layer_metrics(run, rec)
        failures.extend(f"traced run: {f}" for f in traced_failures)
    tally.add(expected["messages"], run.delivered, failures)
    return sample


def repeat(once, minimum: int, until: float) -> List[Sample]:
    """Call ``once`` at least ``minimum`` times and until ``until`` passes.

    The calibration kernel runs before the first call and after every
    block of about ``CALIBRATE_EVERY_S`` seconds of calls; each sample of
    a block gets the mean of the two calibration times around it, which
    tracks the host's speed while the block ran.
    """
    samples: List[Sample] = []
    before = calib.calibrate()
    failed = False
    while not failed and (len(samples) < minimum or time.monotonic() < until):
        block: List[Sample] = []
        block_end = time.monotonic() + CALIBRATE_EVERY_S
        while True:
            sample = once()
            if sample is None:
                failed = True
                break
            block.append(sample)
            now = time.monotonic()
            if now >= block_end or (now >= until and len(samples) + len(block) >= minimum):
                break
        if block:
            after = calib.calibrate()
            calib_s = (before + after) / 2
            for sample in block:
                sample.calib_s = calib_s
                sample.scale = calib.NOMINAL_S / calib_s
            samples.extend(block)
            before = after
    return samples


def end_to_end(untraced: List[Sample], latencies_ns: List[float],
               rss_mb: List[float]) -> Dict[str, dict]:
    """Every end-to-end metric over the untraced runs, with its spread.

    Host times are normalised to the calibration kernel's nominal speed;
    the raw ones and the calibration times are kept beside them.
    """
    values = {
        "wall_s": quartiles([s.wall_s * s.scale for s in untraced]),
        "setup_s": quartiles([s.setup_s * s.scale for s in untraced]),
        "run_s": quartiles([s.run_s * s.scale for s in untraced]),
        "msgs_per_s": quartiles([s.delivered / (s.run_s * s.scale) for s in untraced]),
        "raw_wall_s": quartiles([s.wall_s for s in untraced]),
        "raw_setup_s": quartiles([s.setup_s for s in untraced]),
        "raw_msgs_per_s": quartiles([s.delivered / s.run_s for s in untraced]),
        "calib_s": quartiles([s.calib_s for s in untraced]),
        "peak_rss_mb": quartiles(rss_mb),
        "sim_p50_ns": {"median": percentile(latencies_ns, 50), "samples": len(latencies_ns)},
        "sim_p90_ns": {"median": percentile(latencies_ns, 90), "samples": len(latencies_ns)},
    }
    return values


def per_layer(traced: List[Sample], untraced: List[Sample], seconds: set) -> Dict[str, dict]:
    """Every per-layer metric over the traced runs, with its spread.

    The metrics named in ``seconds`` are host times and are normalised
    like the end-to-end ones.
    """
    untraced_run_s = statistics.median(s.run_s * s.scale for s in untraced)
    untraced_wall_s = statistics.median(s.wall_s * s.scale for s in untraced)
    for sample in traced:
        for name in seconds & sample.layers.keys():
            sample.layers[name] *= sample.scale
        sample.layers["sim.events_per_s"] = sample.events / untraced_run_s
        sample.layers["trace_overhead_x"] = sample.wall_s * sample.scale / untraced_wall_s
    return {
        name: quartiles([s.layers[name] for s in traced]) for name in traced[0].layers
    }


def hash_seed(seed: int, worker: int) -> int:
    """``PYTHONHASHSEED`` of one worker of a run with ``seed``, in 1 .. 2**32 - 1."""
    digest = hashlib.sha256(f"{seed}:{worker}".encode()).digest()
    return 1 + int.from_bytes(digest[:4], "big") % (2**32 - 1)


def run_worker(args) -> int:
    """One worker process: repeat the workload, print the samples as JSON.

    Prints one JSON object as the last line: the manifest, the reference
    run's latencies and event count, the untraced and traced samples, the
    tally and the process's peak resident memory.
    """
    sys.path.insert(0, str(SRC))
    import cases
    import provenance
    import spans

    case = cases.CASES[args.workload]
    expected = cases.load_expected()[case.name]
    tally = Tally()
    payload = {"manifest": provenance.manifest(ROOT, case, args.seed)}
    untraced: List[Sample] = []
    traced: List[Sample] = []
    # an untimed first run takes lazy imports and first-call costs, and
    # is the reference every later run must reproduce exactly
    reference = measure(case, expected, tally)
    if reference is not None:
        payload["latencies_ns"] = reference.latencies_ns
        payload["events"] = reference.events
        t0 = time.monotonic()
        share = 0.5 if args.trace else 1.0
        untraced = repeat(
            lambda: measure(case, expected, tally, reference),
            MIN_UNTRACED,
            t0 + share * args.seconds,
        )
        if args.trace and untraced:
            recorders = []

            def traced_once():
                recorders[:] = [spans.SpanRecorder()]
                return measure(case, expected, tally, reference, recorders[0])

            traced = repeat(traced_once, MIN_TRACED, t0 + args.seconds)
            if traced:
                recorders[0].save(Path(args.out) / f"{case.name}.spans.npz")
    payload.update(
        untraced=[s.to_json() for s in untraced],
        traced=[s.to_json() for s in traced],
        attempted=tally.attempted,
        failed=tally.failed,
        failures=tally.failures,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(payload))
    return 0


def spawn_worker(args, worker: int, timeout: float) -> dict:
    """Run worker ``worker`` to the end and return its payload.

    A worker that fails, times out or prints no payload yields one with
    a failure and no samples.
    """
    command = [
        sys.executable, str(HERE / "run.py"), "--worker",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds / WORKERS), "--trace", str(args.trace),
        "--out", args.out,
    ]
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed(args.seed, worker)))
    try:
        done = subprocess.run(command, capture_output=True, text=True, env=env,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        return {"failures": [f"killed after {timeout:.0f} s"]}
    sys.stderr.write(done.stderr)
    try:
        payload = json.loads(done.stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        payload = {}
    if done.returncode != 0 or "untraced" not in payload:
        return {"failures": [f"exited with {done.returncode} and no samples"]}
    return payload


def run_workload(args) -> int:
    """Run ``WORKERS`` worker processes one after another and pool their samples.

    Each worker has its own ``PYTHONHASHSEED`` (from ``--seed``), so the
    pooled medians average over string-hash layouts, and gets an equal
    share of ``--seconds``.
    """
    if not (SRC / "repro").is_dir():
        print(f"error: no simulator sources at {SRC / 'repro'}", file=sys.stderr)
        return 2
    spec = benchmark_spec()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    start = time.monotonic()
    tally = Tally()
    untraced: List[Sample] = []
    traced: List[Sample] = []
    rss_mb: List[float] = []
    record: Dict[str, object] = {"manifest": None, "workers": []}
    first = None
    for worker in range(WORKERS):
        payload = spawn_worker(args, worker, max(1.0, start + RUN_TIMEOUT_S - time.monotonic()))
        tally.attempted += payload.get("attempted", 0)
        tally.failed += payload.get("failed", 0)
        tally.failures.extend(f"worker {worker}: {f}" for f in payload.get("failures", []))
        if "latencies_ns" in payload:
            if first is None:
                first = payload
                record["manifest"] = payload["manifest"]
            elif (payload["latencies_ns"], payload["events"]) != (
                first["latencies_ns"], first["events"]
            ):
                tally.failures.append(
                    f"worker {worker}: simulated latencies or event count differ from worker 0"
                )
        mine = [Sample.from_json(s) for s in payload.get("untraced", [])]
        untraced += mine
        traced += [Sample.from_json(s) for s in payload.get("traced", [])]
        if "peak_rss_mb" in payload:
            rss_mb.append(payload["peak_rss_mb"])
        record["workers"].append({
            "hash_seed": hash_seed(args.seed, worker),
            "untraced_runs": len(mine),
            "traced_runs": len(payload.get("traced", [])),
            "wall_s": statistics.median(s.wall_s * s.scale for s in mine) if mine else None,
            "raw_wall_s": statistics.median(s.wall_s for s in mine) if mine else None,
            "calib_s": statistics.median(s.calib_s for s in mine) if mine else None,
        })
    record["untraced_runs"] = len(untraced)
    record["traced_runs"] = len(traced)

    metrics: Dict[str, dict] = {}
    if untraced and first is not None:
        record["end_to_end"] = end_to_end(untraced, first["latencies_ns"], rss_mb)
        if not args.trace:
            metrics = pick(spec["end_to_end"], record["end_to_end"])
        elif traced and all(s.layers for s in traced):
            seconds = {m["name"] for m in spec["per_layer"] if m["unit"] == "s"}
            record["per_layer"] = per_layer(traced, untraced, seconds)
            metrics = pick(spec["per_layer"], record["per_layer"])
    record["seconds"] = time.monotonic() - start
    record.setdefault("end_to_end", {})["failed_frac"] = {
        "median": tally.failed / max(tally.attempted, 1)
    }
    record["failures"] = tally.failures
    correct = not tally.failures and bool(metrics)

    print_table(args.workload, record, spec)
    with open(out / f"{args.workload}.trace{args.trace}.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
        handle.write("\n")
    print(json.dumps({"manifest": record["manifest"]}))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


def pick(specs: List[dict], values: Dict[str, dict]) -> Dict[str, dict]:
    """The contract's metrics, by name, each as its median with its unit."""
    missing = [s["name"] for s in specs if s["name"] not in values]
    if missing:
        raise KeyError(f"benchmark computes no value for {missing}")
    return {
        s["name"]: {"value": values[s["name"]]["median"], "unit": s["unit"]} for s in specs
    }


def print_table(workload: str, record: dict, spec: dict) -> None:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"== {workload}  (untraced runs: {record.get('untraced_runs', 0)}"
          f", traced runs: {record.get('traced_runs', 0)})")
    for section in ("end_to_end", "per_layer"):
        for name, stats in sorted(record.get(section, {}).items()):
            unit = units.get(name.removeprefix("raw_"), "s" if name.endswith("_s") else "")
            if "q1" in stats:
                line = (f"{stats['median']:.6g}  [min {stats['min']:.6g}  q1 {stats['q1']:.6g}"
                        f"  q3 {stats['q3']:.6g}  max {stats['max']:.6g}]")
            else:
                line = f"{stats['median']:.6g}"
            if "samples" in stats:
                line += f"  (n={stats['samples']} samples)"
            print(f"  {name:<24} {line} {unit}")
    for failure in record["failures"]:
        print(f"  CHECK FAILED: {failure}")


def run_all(args) -> int:
    """Every workload in its own process, untraced then (with --trace 1) traced."""
    spec = benchmark_spec()
    status = 0
    summary = {}
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in sorted({0, args.trace}):
            command = [
                sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(trace), "--out", args.out,
            ]
            done = subprocess.run(command, capture_output=True, text=True, check=False)
            lines = done.stdout.splitlines()
            print("\n".join(lines[:-1]))
            sys.stderr.write(done.stderr)
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
            status = status or done.returncode or (0 if result["correct"] else 1)
            summary[f"{workload}/trace{trace}"] = result
    attempted = sum(r["attempted"] for r in summary.values())
    failed = sum(r["failed"] for r in summary.values())
    print(f"== failed_frac {failed}/{attempted} = {failed / max(attempted, 1):.6g}")
    print(json.dumps({"correct": status == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: r["metrics"] for k, r in summary.items()}}))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0,
                        help="recorded in the manifest; no workload draws random inputs")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per pass (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(ROOT / "perfbench-out"),
                        help="directory for records and span files")
    parser.add_argument("--worker", action="store_true",
                        help="run as one worker process and print its samples as JSON")
    args = parser.parse_args(argv)
    if not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: {ROOT / 'BENCHMARK.json'} not found", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = benchmark_spec()["run_seconds"]
    if args.workload == "all":
        return run_all(args)
    if args.workload not in {w["name"] for w in benchmark_spec()["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    return run_worker(args) if args.worker else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
