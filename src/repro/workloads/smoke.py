"""The CI smoke checks: one declarative table over the workload registry.

Each :class:`Smoke` entry declares its runs and the named checks over
what they produced.  A run is either a direct registry run
(:class:`Run`: benchmark, NIC, params, telemetry, faults) or a sweep
through :func:`~repro.workloads.sweep.run_sweep` (:class:`Sweep`).
:func:`main` runs every entry of :data:`SMOKES`, prints one line per
passing entry, and returns non-zero after naming every failed check (or
raising run)::

    PYTHONPATH=src python -m repro.workloads.smoke

The ``congestion`` entry also writes its run report (text with the
fabric tables, JSON, HTML heatmap) into ``congestion-artifacts/`` for CI
upload.
"""

from __future__ import annotations

import dataclasses
import html
import json
import sys
import traceback
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from repro.analysis.attribution import wire_segments
from repro.analysis.report import write_artifacts
from repro.network.faults import FaultConfig
from repro.nic.nic import NicConfig
from repro.nic.qdisc import QdiscConfig
from repro.nic.reliability import ReliabilityConfig
from repro.obs.health import has_finding
from repro.obs.telemetry import Telemetry
from repro.workloads.faulty import STORM_LOSS_RATE, faulty_spec, total_retransmits
from repro.workloads.result import Result
from repro.workloads.sweep import (
    BENCHMARKS,
    Row,
    SweepCache,
    SweepSpec,
    nic_preset,
    run_sweep,
)


class Ran(NamedTuple):
    """A direct run's result and its telemetry bundle (or None)."""

    result: Result
    telemetry: Optional[Telemetry]


class Swept(NamedTuple):
    """A sweep's rows and, for a cached sweep, the entry's cache."""

    rows: List[Row]
    cache: Optional[SweepCache]


@dataclasses.dataclass(frozen=True)
class Run:
    """One direct registry run: ``BENCHMARKS[benchmark].run(nic, params)``."""

    benchmark: str
    params: Dict[str, object]
    #: preset name (:func:`~repro.workloads.sweep.nic_preset`) or a config
    nic: Union[str, NicConfig] = "alpu128"
    #: :class:`Telemetry` flags to switch on (tracing stays off);
    #: ``None`` runs without a bundle
    telemetry: Optional[Tuple[str, ...]] = None
    faults: Optional[FaultConfig] = None

    def execute(self, cache: SweepCache) -> Ran:
        workload = BENCHMARKS[self.benchmark]
        nic = nic_preset(self.nic) if isinstance(self.nic, str) else self.nic
        bundle = None
        if self.telemetry is not None:
            bundle = Telemetry(tracing=False, **dict.fromkeys(self.telemetry, True))
        result = workload.run(
            nic, workload.params_cls(**self.params), telemetry=bundle, faults=self.faults
        )
        return Ran(result, bundle)


@dataclasses.dataclass(frozen=True)
class Sweep:
    """One :func:`run_sweep` call; cached sweeps share the entry's cache."""

    spec: SweepSpec
    workers: Optional[int] = None
    cached: bool = False

    def execute(self, cache: SweepCache) -> Swept:
        used = cache if self.cached else None
        return Swept(run_sweep(self.spec, workers=self.workers, cache=used), used)


@dataclasses.dataclass(frozen=True)
class Smoke:
    """One table entry: its runs and the named checks over them.

    Each check is ``(description, predicate)``; the predicate gets a
    namespace with one attribute per run label (a :class:`Ran` or
    :class:`Swept`) plus whatever ``derive`` returned.
    """

    name: str
    runs: Dict[str, Union[Run, Sweep]]
    checks: Tuple[Tuple[str, Callable[[SimpleNamespace], bool]], ...]
    #: optional step after the runs whose values join the namespace
    #: (the congestion entry writes its artifacts here)
    derive: Optional[Callable[[Dict[str, object]], Dict[str, object]]] = None


def _medians(outcome: Union[Ran, Swept]) -> str:
    if isinstance(outcome, Ran):
        return f"{outcome.result.median_ns:.1f}"
    return "/".join(f"{row.latency_ns:.1f}" for row in outcome.rows)


def run_entry(smoke: Smoke) -> List[str]:
    """Run one entry; returns its failure messages (empty when it passed).

    A passing entry prints one line with every run's median latency.
    """
    cache = SweepCache()
    try:
        runs = {label: run.execute(cache) for label, run in smoke.runs.items()}
        derived = smoke.derive(runs) if smoke.derive is not None else {}
    except Exception:
        return [f"{smoke.name}: a run raised\n{traceback.format_exc()}"]
    outcomes = SimpleNamespace(**runs, **derived)
    failures = []
    for check, predicate in smoke.checks:
        try:
            ok = bool(predicate(outcomes))
        except Exception as exc:
            ok, check = False, f"{check} ({type(exc).__name__}: {exc})"
        if not ok:
            failures.append(f"{smoke.name}: check failed: {check}")
    if not failures:
        medians = ", ".join(f"{label} {_medians(run)} ns" for label, run in runs.items())
        print(f"{smoke.name} smoke OK ({len(smoke.checks)} checks): {medians}")
    return failures


# ------------------------------------------------------------ the table
#: the shielding NIC of the storm and multijob entries: sharded queues,
#: NACK_BUSY admission at 32 unexpected entries, host-priority
#: scheduling, and the reliability layer that carries the refusals
SHIELDED = dataclasses.replace(
    NicConfig.baseline(),
    qdisc=QdiscConfig(
        discipline="sharded",
        max_unexpected=32,
        admission_policy="nack",
        host_priority=True,
    ),
    reliability=ReliabilityConfig(enabled=True),
)

_ALPU = nic_preset("alpu128")
#: the halo entry's NIC for the lossy run and its zero-fault control
_RELIABLE_ALPU = dataclasses.replace(
    _ALPU, reliability=dataclasses.replace(_ALPU.reliability, enabled=True)
)

_SWEEP_POINT = SweepSpec.preposted(("alpu128",), (8,), (1.0,), iterations=4, warmup=1)
_SWEEP_HALO = SweepSpec.halo(
    ("alpu128",), (8,), ("crossbar", "torus3d"), iterations=2, warmup=1
)
_FAULTY_POINT = dict(presets=("baseline",), queue_lengths=(8,), iterations=40, warmup=2)
_HALO16 = dict(ranks=16, topology="torus3d", iterations=2, warmup=1)
_STORM = dict(workers=4, messages_per_worker=200, window=8, service_ns=400.0)
_ALLTOALL = dict(num_ranks=8, degree=3, rounds=6)

#: the congestion entry's pinned point (``BENCH_baseline.json``) and
#: where its artifacts land
_PINNED_HALO = "halo/alpu128/message_size=512_ranks=16_topology=torus3d"
_PINNED_HALO_PARAMS = dict(
    ranks=16, topology="torus3d", message_size=512, iterations=3, warmup=1
)
_FULL_OBS = ("timeline", "health", "lifecycle", "fabric")
CONGESTION_ARTIFACTS = "congestion-artifacts"


def _pinned_latencies(point_id: str) -> List[float]:
    """A point's latencies in the committed ``BENCH_baseline.json``."""
    path = Path(__file__).resolve().parents[3] / "BENCH_baseline.json"
    with open(path, "r", encoding="utf-8") as handle:
        grid = json.load(handle)["grid"]
    return next(row for row in grid if row["id"] == point_id)["latencies_ns"]


def _congestion_artifacts(runs: Dict[str, object]) -> Dict[str, object]:
    """Write the incast run's report (text, JSON, HTML) and read it back."""
    hot = runs["hot"]
    params = hot.result.params
    document = hot.telemetry.report(
        benchmark="halo",
        scenario="incast",
        ranks=params.ranks,
        topology=params.topology,
        hotspot_rank=params.hotspot_rank,
    )
    text_path, _, html_path = write_artifacts(document, CONGESTION_ARTIFACTS, stem="congestion")
    return {
        "text": Path(text_path).read_text(encoding="utf-8"),
        "html": Path(html_path).read_text(encoding="utf-8"),
        "hottest": max(document["fabric"]["links"], key=lambda link: link["utilization"]),
    }


SMOKES: Tuple[Smoke, ...] = (
    Smoke(
        name="sweep",
        runs={
            "serial": Sweep(_SWEEP_POINT),
            "parallel": Sweep(_SWEEP_POINT, workers=2),
            "cold": Sweep(_SWEEP_POINT, cached=True),
            "warm": Sweep(_SWEEP_POINT, cached=True),
            "halo_serial": Sweep(_SWEEP_HALO),
            "halo_parallel": Sweep(_SWEEP_HALO, workers=2),
        },
        checks=(
            ("serial == parallel", lambda o: o.serial.rows == o.parallel.rows),
            ("cold and warm cached rows == serial",
             lambda o: o.cold.rows == o.serial.rows == o.warm.rows),
            ("cache took one miss then one hit",
             lambda o: (o.warm.cache.hits, o.warm.cache.misses) == (1, 1)),
            ("halo serial == parallel", lambda o: o.halo_serial.rows == o.halo_parallel.rows),
        ),
    ),
    Smoke(
        name="faulty",
        runs={
            "lossy": Sweep(faulty_spec(1e-2, **_FAULTY_POINT)),
            "stormy": Sweep(faulty_spec(STORM_LOSS_RATE, **_FAULTY_POINT)),
            "control": Sweep(faulty_spec(0.0, **_FAULTY_POINT)),
        },
        checks=(
            ("1% loss point completes",
             lambda o: len(o.lossy.rows) == 1 and o.lossy.rows[0].latency_ns > 0),
            ("1% loss retransmits", lambda o: total_retransmits(o.lossy.rows) > 0),
            (f"{STORM_LOSS_RATE:.0%} loss has health findings",
             lambda o: bool(o.stormy.rows[0].health and o.stormy.rows[0].health["findings"])),
            (f"{STORM_LOSS_RATE:.0%} loss raises retransmit_storm",
             lambda o: has_finding(o.stormy.rows[0].health["findings"], "retransmit_storm")),
            ("zero-fault control is healthy with no findings",
             lambda o: o.control.rows[0].health == {"verdict": "healthy", "findings": []}),
        ),
    ),
    Smoke(
        name="halo",
        runs={
            "clean": Run("halo", _HALO16, telemetry=("timeline", "health")),
            "faulty": Run("halo", _HALO16, nic=_RELIABLE_ALPU,
                          faults=FaultConfig(seed=7, drop_rate=0.01)),
            "control": Run("halo", _HALO16, nic=_RELIABLE_ALPU),
        },
        checks=(
            ("clean run verdict is healthy",
             lambda o: o.clean.telemetry.health_verdict() == "healthy"),
            ("clean allreduce == 136", lambda o: o.clean.result.allreduce_value == 136),
            ("fault run retransmits", lambda o: o.faulty.result.retransmits > 0),
            ("control has 0 retransmits", lambda o: o.control.result.retransmits == 0),
            ("control allreduce == clean allreduce",
             lambda o: o.control.result.allreduce_value == o.clean.result.allreduce_value),
        ),
    ),
    Smoke(
        name="storm",
        runs={"storm": Run("storm", _STORM, nic=SHIELDED, telemetry=("timeline", "health"))},
        checks=(
            ("every message delivered",
             lambda o: o.storm.result.total_messages == o.storm.result.params.total_messages),
            ("unexpected queue stays within twice the admission threshold",
             lambda o: o.storm.result.max_unexpected_depth
             <= 2 * SHIELDED.qdisc.max_unexpected),
            ("flood hits the admission threshold", lambda o: o.storm.result.refused > 0),
            ("unexpected_admission_pressure fires",
             lambda o: has_finding(o.storm.telemetry.health_findings(),
                                   "unexpected_admission_pressure")),
        ),
    ),
    Smoke(
        name="multijob",
        runs={
            "exposed": Run("multijob", {}, nic="baseline"),
            "shielded": Run("multijob", {}, nic=SHIELDED),
        },
        checks=(
            ("shielding bounds job B's backlog",
             lambda o: o.exposed.result.max_unexpected_depth
             > o.shielded.result.max_unexpected_depth),
            ("shielded job A is faster than exposed",
             lambda o: o.shielded.result.median_ns < o.exposed.result.median_ns),
        ),
    ),
    Smoke(
        name="alltoall",
        runs={
            "fifo": Run("alltoall", _ALLTOALL, nic="baseline"),
            "sharded": Run("alltoall", _ALLTOALL, nic=dataclasses.replace(
                NicConfig.baseline(), qdisc=QdiscConfig(discipline="sharded", shard_key="flow")
            )),
        },
        checks=(
            ("fifo completes every round",
             lambda o: len(o.fifo.result.latencies_ns) == _ALLTOALL["rounds"]),
            ("sharded completes every round",
             lambda o: len(o.sharded.result.latencies_ns) == _ALLTOALL["rounds"]),
        ),
    ),
    Smoke(
        name="congestion",
        runs={
            "observed": Run("halo", _PINNED_HALO_PARAMS, telemetry=_FULL_OBS),
            "hot": Run("halo", dict(_PINNED_HALO_PARAMS, hotspot_rank=0, hotspot_size=4096),
                       telemetry=_FULL_OBS),
        },
        checks=(
            ("pinned point bit-identical with full observability on",
             lambda o: o.observed.result.latencies_ns == _pinned_latencies(_PINNED_HALO)),
            # wire_segments asserts that every per-hop budget telescopes
            ("wire segments telescope",
             lambda o: sum(len(wire_segments(lc)) for lc in o.observed.telemetry.lifecycles()
                           if lc.complete) > 0),
            ("incast raises hotspot_link",
             lambda o: has_finding(o.hot.telemetry.health_findings(), "hotspot_link")),
            ("incast raises link_contention",
             lambda o: has_finding(o.hot.telemetry.health_findings(), "link_contention")),
            ("heatmap report names the hottest link", lambda o: "hottest link" in o.text),
            ("HTML heatmap shows the hotspot link",
             lambda o: html.escape(o.hottest["name"]) in o.html),
        ),
        derive=_congestion_artifacts,
    ),
)


def main(table: Sequence[Smoke] = SMOKES) -> int:
    """Run every entry; 0 when all pass, 1 (after naming each failure) if not."""
    failures: List[str] = []
    for smoke in table:
        failures.extend(run_entry(smoke))
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
