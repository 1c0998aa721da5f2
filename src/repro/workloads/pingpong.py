"""Classic ping-pong latency.

"The most common (and least useful)" network measure (Section I) -- but a
necessary sanity check, and the zero-length ping-pong is the number the
paper says hash-table schemes regress (Section II).
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

from repro.mpi.world import MpiWorld, WorldConfig
from repro.nic.nic import NicConfig
from repro.sim.process import now
from repro.sim.units import ps_to_ns
from repro.workloads.result import Result


@dataclasses.dataclass(frozen=True)
class PingPongParams:
    """Shape of one ping-pong run."""

    message_size: int = 0
    iterations: int = 20
    warmup: int = 5


@dataclasses.dataclass
class PingPongResult(Result):
    """Half-round-trip latencies, in nanoseconds."""


def run_pingpong(
    nic: NicConfig,
    params: Optional[PingPongParams] = None,
    *,
    telemetry=None,
) -> PingPongResult:
    """Run a 2-rank ping-pong; returns per-iteration half-RTT.

    ``telemetry``: optional :class:`repro.obs.Telemetry`; enables metrics
    and tracing for the run without perturbing its simulated latencies.
    """
    params = params if params is not None else PingPongParams()
    total = params.warmup + params.iterations

    def rank0(mpi):
        yield from mpi.init()
        samples: List[float] = []
        for i in range(total):
            pong = yield from mpi.irecv(source=1, tag=i, size=params.message_size)
            t0 = yield now()
            yield from mpi.send(dest=1, tag=i, size=params.message_size)
            yield from mpi.wait(pong)
            t1 = yield now()
            if i >= params.warmup:
                samples.append(ps_to_ns((t1 - t0) // 2))
        yield from mpi.finalize()
        return samples

    def rank1(mpi):
        yield from mpi.init()
        for i in range(total):
            yield from mpi.recv(source=0, tag=i, size=params.message_size)
            yield from mpi.send(dest=0, tag=i, size=params.message_size)
        yield from mpi.finalize()

    world = MpiWorld(WorldConfig(num_ranks=2, nic=nic), telemetry=telemetry)
    results = world.run({0: rank0, 1: rank1})
    return PingPongResult(
        params=params,
        latencies_ns=results[0],
        metrics=telemetry.snapshot() if telemetry is not None else None,
    )
