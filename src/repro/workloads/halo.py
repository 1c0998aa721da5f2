"""A many-rank halo exchange over the routed fabric.

The workload the topology layer exists for: ranks sit on a *logical*
periodic 3-D grid (auto-factored from the rank count), and each
iteration every rank exchanges a face-sized message with its six
neighbours (pre-posted receives, non-blocking sends, one waitall), then
joins a global ``allreduce`` -- the residual-norm step of every
stencil/CFD code.  Mapping the logical grid onto a physical ``torus3d``
makes every exchange nearest-neighbour; on a ``crossbar`` the same
traffic rides dedicated wires; on ``ring``/``mesh2d`` it shows the
multi-hop contention the crossbar hides.

The logical grid is deliberately decoupled from the physical topology so
every preset runs the *same* communication pattern and the measured
difference is purely the network's.

Per-iteration wall time is sampled at rank 0 (the global simulated clock
needs no round-trip halving), and the allreduce doubles as a whole-world
correctness check: every iteration reduces ``rank + 1`` and every rank
must see ``P * (P + 1) / 2``.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

from repro.mpi.world import MpiWorld, WorldConfig
from repro.network.fabric import FabricConfig
from repro.network.faults import FaultConfig
from repro.network.topology import TOPOLOGY_PRESETS, TopologyConfig, balanced_dims
from repro.nic.nic import NicConfig
from repro.sim.process import now
from repro.sim.units import ps_to_ns
from repro.workloads.result import Result


@dataclasses.dataclass(frozen=True)
class HaloParams:
    """One halo-exchange point."""

    ranks: int = 16
    #: physical topology preset the world is built on
    topology: str = "torus3d"
    #: bytes per face exchange (each rank sends this to each neighbour)
    message_size: int = 512
    iterations: int = 3
    warmup: int = 1
    #: optional incast: every other rank additionally sends
    #: ``hotspot_size`` bytes to this rank per iteration, concentrating
    #: traffic on the channels into it -- the injected-contention
    #: scenario the fabric observability layer exists to attribute.
    #: ``None`` (the default) keeps the pinned benchmark pattern.
    hotspot_rank: Optional[int] = None
    hotspot_size: int = 4096

    def __post_init__(self) -> None:
        if self.ranks < 2:
            raise ValueError(f"halo exchange needs >= 2 ranks, got {self.ranks}")
        if self.topology not in TOPOLOGY_PRESETS:
            raise ValueError(
                f"unknown topology {self.topology!r}; "
                f"expected one of {TOPOLOGY_PRESETS}"
            )
        if self.message_size < 0 or self.iterations < 1 or self.warmup < 0:
            raise ValueError(f"invalid parameters: {self}")
        if self.hotspot_rank is not None and not (
            0 <= self.hotspot_rank < self.ranks
        ):
            raise ValueError(
                f"hotspot_rank {self.hotspot_rank} out of range for "
                f"{self.ranks} ranks"
            )
        if self.hotspot_size < 0:
            raise ValueError(f"invalid hotspot_size: {self.hotspot_size}")


@dataclasses.dataclass
class HaloResult(Result):
    """Per-iteration wall time at rank 0, timed iterations only."""

    #: the physical topology actually built (``describe()`` string)
    topology: str
    #: the allreduce result every rank agreed on (P*(P+1)/2)
    allreduce_value: int
    #: total link-level retransmissions across all NICs (0 without the
    #: reliability layer; > 0 proves recovery did the work under faults)
    retransmits: int = 0


def _neighbors(rank: int, dims) -> List[int]:
    """The six logical face neighbours of ``rank`` on the periodic grid.

    Order is fixed (axis-major, +1 before -1) so the direction index
    doubles as the message tag slot on both sides of every exchange.
    """
    coords = []
    node = rank
    for extent in dims:
        coords.append(node % extent)
        node //= extent
    neighbors = []
    for axis, extent in enumerate(dims):
        for step in (1, -1):
            c = list(coords)
            c[axis] = (coords[axis] + step) % extent
            peer = 0
            stride = 1
            for x, e in zip(c, dims):
                peer += x * stride
                stride *= e
            neighbors.append(peer)
    return neighbors


def run_halo(
    nic: NicConfig,
    params: HaloParams,
    *,
    telemetry=None,
    faults: Optional[FaultConfig] = None,
    topology: Optional[str] = None,
) -> HaloResult:
    """Run one halo-exchange point on a ``params.ranks``-rank system.

    ``telemetry``: optional :class:`repro.obs.Telemetry`; the result's
    ``metrics`` field then carries the run's snapshot.

    ``faults``: optional seeded fabric fault injection (per hop on
    routed presets); pair it with a reliability-enabled ``nic``.

    ``topology``: preset override (sweep plumbing); defaults to
    ``params.topology``.
    """
    preset = topology if topology is not None else params.topology
    dims = balanced_dims(params.ranks, 3)
    total = params.warmup + params.iterations
    samples: List[float] = []
    expected = params.ranks * (params.ranks + 1) // 2

    def program(mpi):
        yield from mpi.init()
        peers = _neighbors(mpi.rank, dims)
        reduced = None
        yield from mpi.barrier()
        for iteration in range(total):
            start = yield now()
            # tags: direction slot within a per-iteration block of 8;
            # the send in direction k matches the receive posted for the
            # opposite direction k^1 (axis-major, +1/-1 interleaved)
            tag_base = (iteration % 2048) * 8
            requests = []
            for k, peer in enumerate(peers):
                if peer == mpi.rank:
                    continue  # extent-1 axis: the face wraps to itself
                requests.append(
                    (
                        yield from mpi.irecv(
                            source=peer,
                            tag=tag_base + (k ^ 1),
                            size=params.message_size,
                        )
                    )
                )
            # incast: tag slot 6 of the block (directions use 0-5, so the
            # hotspot stream cannot collide with a face exchange)
            if params.hotspot_rank is not None:
                if mpi.rank == params.hotspot_rank:
                    for peer in range(params.ranks):
                        if peer == mpi.rank:
                            continue
                        requests.append(
                            (
                                yield from mpi.irecv(
                                    source=peer,
                                    tag=tag_base + 6,
                                    size=params.hotspot_size,
                                )
                            )
                        )
            for k, peer in enumerate(peers):
                if peer == mpi.rank:
                    continue
                requests.append(
                    (
                        yield from mpi.isend(
                            dest=peer,
                            tag=tag_base + k,
                            size=params.message_size,
                        )
                    )
                )
            if (
                params.hotspot_rank is not None
                and mpi.rank != params.hotspot_rank
            ):
                requests.append(
                    (
                        yield from mpi.isend(
                            dest=params.hotspot_rank,
                            tag=tag_base + 6,
                            size=params.hotspot_size,
                        )
                    )
                )
            yield from mpi.waitall(requests)
            reduced = yield from mpi.allreduce(mpi.rank + 1, op="sum", size=8)
            if reduced != expected:
                raise AssertionError(
                    f"rank {mpi.rank}: allreduce gave {reduced}, "
                    f"expected {expected}"
                )
            if mpi.rank == 0 and iteration >= params.warmup:
                end = yield now()
                samples.append(ps_to_ns(end - start))
        yield from mpi.finalize()
        return reduced

    world = MpiWorld(
        WorldConfig(
            num_ranks=params.ranks,
            nic=nic,
            fabric=FabricConfig(topology=TopologyConfig(preset=preset)),
            faults=faults,
        ),
        telemetry=telemetry,
    )
    results = world.run({rank: program for rank in range(params.ranks)})
    assert set(results.values()) == {expected}
    assert not world.collective_board, "collective board left residue"
    return HaloResult(
        params=params,
        latencies_ns=samples,
        topology=world.fabric.topology.describe(),
        allreduce_value=expected,
        retransmits=sum(
            n.reliability.retransmits
            for n in world.nics
            if n.reliability is not None
        ),
        metrics=telemetry.snapshot() if telemetry is not None else None,
    )
