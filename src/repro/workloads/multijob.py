"""Multi-job NIC sharing: a latency job beside an unexpected-queue hog.

Two jobs share the NICs of a two-node system (``ranks_per_node=2``):

* **Job A (latency)**: ranks 0 and 2 run a plain ping-pong and measure
  round-trip latency -- the paper's Section V-A victim traffic.
* **Job B (hog)**: rank 3 floods rank 1 with bursts of eager messages
  that rank 1 services slowly, so node 0's NIC accumulates a deep
  unexpected queue *belonging to another job*.

Job A's pings land on the same NIC and -- under plain FIFO -- every one
of its receive postings walks job B's backlog (the match context differs,
but FIFO traversal does not care).  The qdisc layer is the defence:
``"sharded"`` confines job A's searches to its own shard,
``max_unexpected`` bounds how deep job B's backlog can get, and
``host_priority`` services job A's postings ahead of job B's arrivals.
The result quantifies the isolation: ping-pong latency with and without
the hog, per discipline.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

from repro.mpi.world import MpiWorld, WorldConfig
from repro.network.fabric import FabricConfig
from repro.network.faults import FaultConfig
from repro.nic.nic import NicConfig
from repro.sim.process import delay, now
from repro.sim.units import ns, ps_to_ns
from repro.workloads.result import Result

#: job A's ping/pong tags; job B floods on a disjoint tag
_PING_TAG = 1
_PONG_TAG = 2
_HOG_TAG = 9


@dataclasses.dataclass(frozen=True)
class MultijobParams:
    """One sharing point (4 ranks, 2 nodes, fixed job placement)."""

    #: job A round trips (measured after warmup)
    iterations: int = 50
    warmup: int = 5
    #: job B messages from rank 3 to rank 1
    hog_messages: int = 400
    #: job B sender burst (isends in flight before a waitall)
    hog_burst: int = 64
    #: rank 1's per-message service time -- what makes it a hog
    hog_service_ns: float = 400.0
    message_size: int = 0

    def __post_init__(self) -> None:
        if self.iterations < 1 or self.warmup < 0:
            raise ValueError(f"invalid parameters: {self}")
        if self.hog_messages < 0 or self.hog_burst < 1:
            raise ValueError(f"invalid parameters: {self}")
        if self.hog_service_ns < 0 or self.message_size < 0:
            raise ValueError(f"invalid parameters: {self}")


@dataclasses.dataclass
class MultijobResult(Result):
    """Job A's round-trip latencies (post-warmup) plus job B's queue damage."""

    #: node-0 NIC unexpected-queue high-water mark (job B's backlog)
    max_unexpected_depth: int
    #: admission refusals at node 0 (0 without admission control)
    refused: int

    def columns(self) -> Dict[str, object]:
        return {"max_depth": self.max_unexpected_depth, "refused": self.refused}


def run_multijob(
    nic: NicConfig,
    params: MultijobParams,
    *,
    telemetry=None,
    faults: Optional[FaultConfig] = None,
    topology: Optional[str] = None,
) -> MultijobResult:
    """Run the two jobs side by side; ranks 0/1 on node 0, 2/3 on node 1.

    ``telemetry`` / ``faults`` / ``topology``: as in the other workloads
    (see :func:`repro.workloads.unexpected.run_unexpected`).
    """

    total_iters = params.warmup + params.iterations

    def pinger(mpi):  # rank 0, node 0
        yield from mpi.init()
        latencies: List[float] = []
        for _ in range(total_iters):
            start = yield now()
            yield from mpi.send(2, _PING_TAG, params.message_size)
            yield from mpi.recv(2, _PONG_TAG, params.message_size)
            end = yield now()
            latencies.append(ps_to_ns(end - start))
        yield from mpi.finalize()
        return latencies[params.warmup:]

    def ponger(mpi):  # rank 2, node 1
        yield from mpi.init()
        for _ in range(total_iters):
            yield from mpi.recv(0, _PING_TAG, params.message_size)
            yield from mpi.send(0, _PONG_TAG, params.message_size)
        yield from mpi.finalize()
        return None

    def hog_sink(mpi):  # rank 1, node 0: the slow consumer
        yield from mpi.init()
        service_ps = ns(params.hog_service_ns)
        for _ in range(params.hog_messages):
            yield from mpi.recv(3, _HOG_TAG, params.message_size)
            if service_ps:
                yield delay(service_ps)
        yield from mpi.finalize()
        return None

    def hog_source(mpi):  # rank 3, node 1: the flood
        yield from mpi.init()
        remaining = params.hog_messages
        while remaining:
            chunk = min(params.hog_burst, remaining)
            sends = []
            for _ in range(chunk):
                request = yield from mpi.isend(
                    1, _HOG_TAG, params.message_size
                )
                sends.append(request)
            yield from mpi.waitall(sends)
            remaining -= chunk
        yield from mpi.finalize()
        return None

    world = MpiWorld(
        WorldConfig(
            num_ranks=4,
            ranks_per_node=2,
            nic=nic,
            fabric=FabricConfig.with_topology(topology),
            faults=faults,
        ),
        telemetry=telemetry,
    )
    programs = {0: pinger, 1: hog_sink, 2: ponger, 3: hog_source}
    deadline_us = max(
        1_000_000.0,
        (params.hog_messages * (params.hog_service_ns + 1_000.0)
         + total_iters * 10_000.0) / 1_000.0,
    )
    results = world.run(programs, deadline_us=deadline_us)
    node0 = world.nics[0]
    return MultijobResult(
        params=params,
        latencies_ns=results[0],
        max_unexpected_depth=node0.unexpected_q.max_length,
        refused=node0.admission.refused if node0.admission is not None else 0,
        metrics=telemetry.snapshot() if telemetry is not None else None,
    )
