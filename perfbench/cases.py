"""The benchmark's workloads, how one run of each is timed, and its output checks.

Every workload calls one public workload function of ``repro.workloads``
exactly as a user would.  Two outer timers -- around ``MpiWorld.__init__``
and ``MpiWorld.run``, one call each per run -- split the wall time into
set-up and run phase and keep the world for the checks; nothing inside
the simulation is wrapped unless the traced pass asks for it.
"""

from __future__ import annotations

import dataclasses
import json
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.mpi.world import MpiWorld
from repro.nic.nic import NicConfig
from repro.nic.qdisc import QdiscConfig
from repro.nic.reliability import ReliabilityConfig
from repro.obs.health import has_finding
from repro.obs.telemetry import Telemetry
from repro.workloads import HaloParams, UnexpectedParams, nic_preset, run_halo, run_unexpected
from repro.workloads.storm import StormParams, run_storm

EXPECTED_PATH = Path(__file__).with_name("expected.json")

#: admission threshold of the storm's master NIC
STORM_THRESHOLD = 32


@dataclasses.dataclass(frozen=True)
class Case:
    """One workload: its configuration and how to run and check it."""

    name: str
    nic: NicConfig
    params: object
    #: (nic, params) -> (result, telemetry or None); the timed region
    run: Callable
    #: (run record, expected) -> list of failure messages
    check: Callable


@dataclasses.dataclass
class Run:
    """Everything one run of a workload produced."""

    case: str
    wall_ns: int
    setup_ns: int
    run_ns: int
    world: MpiWorld
    rank_results: Dict[int, object]
    result: object
    telemetry: Optional[Telemetry]

    @property
    def latencies_ns(self) -> List[float]:
        return list(self.result.latencies_ns)

    @property
    def events(self) -> int:
        return self.world.engine.events_fired

    @property
    def delivered(self) -> int:
        """MPI messages matched to a receive, over every NIC."""
        return sum(len(nic.firmware.pairings) for nic in self.world.nics)


class WorldTimer:
    """Times ``MpiWorld.__init__`` and ``MpiWorld.run`` and keeps the world.

    Patches the two methods on the class for the duration of a ``with``
    block and restores whatever stood there before, so it nests outside
    the traced pass's own wrappers.
    """

    def __enter__(self) -> "WorldTimer":
        self.world = None
        self.setup_ns = self.run_ns = 0
        self.rank_results = None
        self._init, self._run = MpiWorld.__init__, MpiWorld.run
        init, run = self._init, self._run
        timer = self

        def timed_init(world, *args, **kwargs):
            t0 = time.perf_counter_ns()
            init(world, *args, **kwargs)
            timer.setup_ns += time.perf_counter_ns() - t0
            timer.world = world

        def timed_run(world, *args, **kwargs):
            t0 = time.perf_counter_ns()
            try:
                timer.rank_results = run(world, *args, **kwargs)
            finally:
                timer.run_ns += time.perf_counter_ns() - t0
            return timer.rank_results

        MpiWorld.__init__, MpiWorld.run = timed_init, timed_run
        return self

    def __exit__(self, *exc) -> None:
        MpiWorld.__init__, MpiWorld.run = self._init, self._run


def run_once(case: Case) -> Run:
    """One timed run: wall = world construction through result in hand."""
    with WorldTimer() as timer:
        t0 = time.perf_counter_ns()
        result, telemetry = case.run(case.nic, case.params)
        wall_ns = time.perf_counter_ns() - t0
    return Run(
        case=case.name,
        wall_ns=wall_ns,
        setup_ns=timer.setup_ns,
        run_ns=timer.run_ns,
        world=timer.world,
        rank_results=timer.rank_results,
        result=result,
        telemetry=telemetry,
    )


def load_expected() -> Dict[str, dict]:
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------- workloads
def _run_halo(nic, params):
    return run_halo(nic, params), None


def _run_deepq(nic, params):
    return run_unexpected(nic, params), None


def _run_storm(nic, params):
    telemetry = Telemetry(
        metrics=True, tracing=True, lifecycle=True, timeline=True, health=True
    )
    result = run_storm(nic, params, telemetry=telemetry)
    # the admission watchdog's verdict is part of the result a user reads
    telemetry.health_findings()
    return result, telemetry


def _pinned_latencies(run: Run, expected: dict) -> List[str]:
    if run.latencies_ns != expected["latencies_ns"]:
        return [
            f"latency samples {run.latencies_ns[:5]}... differ from the committed "
            f"{expected['latencies_ns'][:5]}..."
        ]
    return []


def _delivered_all(run: Run, expected: dict) -> List[str]:
    if run.delivered != expected["messages"]:
        return [f"{run.delivered} of {expected['messages']} messages delivered"]
    return []


def _check_halo(run: Run, expected: dict) -> List[str]:
    ranks = run.result.params.ranks
    want = ranks * (ranks + 1) // 2
    failures = _pinned_latencies(run, expected) + _delivered_all(run, expected)
    seen = run.rank_results or {}
    wrong = {rank: value for rank, value in seen.items() if value != want}
    if len(seen) != ranks or wrong:
        failures.append(f"allreduce: {len(seen)} ranks reported, wrong values {wrong}")
    if run.result.retransmits != 0:
        failures.append(f"{run.result.retransmits} retransmits on a lossless fabric")
    return failures


def _check_deepq(run: Run, expected: dict) -> List[str]:
    return _pinned_latencies(run, expected) + _delivered_all(run, expected)


def _check_storm(run: Run, expected: dict) -> List[str]:
    result = run.result
    failures = _delivered_all(run, expected)
    master = run.world.nics[0].firmware
    if len(master.pairings) != result.total_messages:
        failures.append(
            f"master matched {len(master.pairings)} of {result.total_messages} storm messages"
        )
    if result.max_unexpected_depth > STORM_THRESHOLD:
        failures.append(
            f"unexpected depth reached {result.max_unexpected_depth} > {STORM_THRESHOLD}"
        )
    findings = run.telemetry.health_findings()
    if not has_finding(findings, "unexpected_admission_pressure"):
        failures.append("unexpected_admission_pressure finding did not fire")
    return failures


def _storm_nic() -> NicConfig:
    """The CI storm smoke's NIC: sharded qdisc, nack admission, reliability on."""
    return dataclasses.replace(
        NicConfig.baseline(),
        qdisc=QdiscConfig(
            discipline="sharded",
            max_unexpected=STORM_THRESHOLD,
            admission_policy="nack",
            host_priority=True,
        ),
        reliability=ReliabilityConfig(enabled=True),
    )


CASES: Dict[str, Case] = {
    case.name: case
    for case in (
        Case(
            name="halo64",
            nic=nic_preset("alpu128"),
            params=HaloParams(ranks=64, topology="torus3d", iterations=3, warmup=1),
            run=_run_halo,
            check=_check_halo,
        ),
        Case(
            name="deepq",
            nic=nic_preset("baseline"),
            params=UnexpectedParams(queue_length=512, iterations=100, warmup=1),
            run=_run_deepq,
            check=_check_deepq,
        ),
        Case(
            name="storm",
            nic=_storm_nic(),
            params=StormParams(
                workers=4, messages_per_worker=200, window=8, service_ns=400.0, sample_every=4
            ),
            run=_run_storm,
            check=_check_storm,
        ),
    )
}

