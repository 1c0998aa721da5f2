"""The posted-receive-queue benchmark (Section V-A, from [10]).

Three degrees of freedom: the length of the pre-posted receive queue, the
portion of that queue traversed before the match, and the message size.

Protocol (2 ranks; rank 1 is the receiver under test):

* Rank 1 pre-posts ``queue_length`` receives with distinct tags; the
  *match depth* ``k = round(traverse_fraction * (queue_length - 1))``
  selects which of them each ping will match.
* Per iteration, rank 0 sends a ping carrying the tag of the receive at
  logical depth ``k`` in rank 1's queue, then waits for a zero-byte pong.
  The sample is the *one-way latency*: from rank 0's send call to the
  completion of the matched receive at rank 1 (the simulator's global
  clock plays the role of the perfectly synchronized clocks a testbed
  approximates by halving round trips).  Rank 1, after the matched
  receive completes, re-posts a fresh receive at the *tail*, restoring
  the queue to ``queue_length`` entries (and forcing the entry churn --
  delete at depth k, insert at tail -- that the ALPU's list management
  is built for).
* Both ranks share a static model of the queue order (benchmark
  bookkeeping, not simulated state) so the sender always knows which tag
  sits at depth ``k``.

With a baseline NIC the receiver's processor traverses ``k+1`` entries
per ping; with an ALPU the match is O(1) until the queue outgrows the
ALPU's capacity, after which only the overflow suffix is traversed in
software.  That is exactly the contrast of Figure 5.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Dict, List, Optional

from repro.mpi.world import MpiWorld, WorldConfig
from repro.network.fabric import FabricConfig
from repro.network.faults import FaultConfig
from repro.nic.nic import NicConfig
from repro.sim.process import now
from repro.sim.units import ps_to_ns
from repro.workloads.result import Result


@dataclasses.dataclass(frozen=True)
class PrepostedParams:
    """One benchmark point."""

    queue_length: int = 1
    traverse_fraction: float = 1.0
    message_size: int = 0
    iterations: int = 20
    warmup: int = 4

    def __post_init__(self) -> None:
        if self.queue_length < 1:
            raise ValueError("queue_length must be >= 1")
        if not 0.0 <= self.traverse_fraction <= 1.0:
            raise ValueError("traverse_fraction must be in [0, 1]")
        if self.message_size < 0 or self.iterations < 1 or self.warmup < 0:
            raise ValueError(f"invalid parameters: {self}")

    @property
    def match_depth(self) -> int:
        """0-based index of the matched entry."""
        return round(self.traverse_fraction * (self.queue_length - 1))


@dataclasses.dataclass
class PrepostedResult(Result):
    """Samples for one parameter point."""

    #: receiver-NIC software entries traversed over the timed iterations
    entries_traversed: int


def run_preposted(
    nic: NicConfig,
    params: PrepostedParams,
    *,
    telemetry=None,
    faults: Optional[FaultConfig] = None,
    topology: Optional[str] = None,
) -> PrepostedResult:
    """Run one (queue length, fraction, size) point on a 2-rank system.

    ``telemetry``: optional :class:`repro.obs.Telemetry`; the result's
    ``metrics`` field then carries the run's snapshot.  Telemetry never
    perturbs the measured latencies (pinned by regression test).

    ``faults``: optional seeded fabric fault injection; pair it with a
    reliability-enabled ``nic`` so dropped packets are retransmitted.

    ``topology``: fabric preset name (default ``crossbar``); on two
    nodes every preset routes in one hop, so this is a plumbing check
    more than a performance axis.
    """

    total_iters = params.warmup + params.iterations
    depth = params.match_depth
    tag_stream = itertools.count(0)
    #: logical queue order, oldest first -- shared benchmark bookkeeping
    queue_model: List[int] = [next(tag_stream) for _ in range(params.queue_length)]
    #: per-iteration send timestamps; the receiver reads them to compute
    #: true one-way latency (the simulator's clock is global, so this is
    #: the perfectly-synchronized-clocks measurement the paper's testbed
    #: approximates with round-trip halving)
    send_stamps: List[int] = [0] * total_iters
    PONG_TAG = 1 << 15  # outside the filler tag space of any sane sweep

    def receiver(mpi):
        yield from mpi.init()
        pending: Dict[int, object] = {}
        for tag in queue_model:
            pending[tag] = yield from mpi.irecv(
                source=0, tag=tag, size=params.message_size
            )
        samples: List[float] = []
        traversed_mark = 0
        for iteration in range(total_iters):
            ping_tag = queue_model[depth]
            request = yield from mpi.wait(pending.pop(ping_tag))
            if iteration >= params.warmup:
                samples.append(
                    ps_to_ns(request.completed_at - send_stamps[iteration])
                )
            yield from mpi.send(dest=0, tag=PONG_TAG, size=0)
            # restore the queue: drop the matched entry, repost at the tail
            queue_model.remove(ping_tag)
            fresh = next(tag_stream)
            queue_model.append(fresh)
            pending[fresh] = yield from mpi.irecv(
                source=0, tag=fresh, size=params.message_size
            )
            if iteration == params.warmup - 1:
                traversed_mark = mpi.world.nics[1].firmware.entries_traversed
        # the subset has no MPI_Cancel, so the leftover pre-posted
        # receives are drained by having the sender flush real messages
        # at them after the done marker
        traversed = mpi.world.nics[1].firmware.entries_traversed - traversed_mark
        yield from mpi.send(dest=0, tag=PONG_TAG + 1, size=0)  # done marker
        yield from mpi.waitall(list(pending.values()))
        yield from mpi.finalize()
        return samples, traversed

    def sender_program(mpi):
        yield from mpi.init()
        # pre-post every pong receive outside the timed path, so the
        # sender NIC's receive-posting work never serializes with a ping
        pongs = []
        for _ in range(total_iters):
            pong = yield from mpi.irecv(source=1, tag=PONG_TAG, size=0)
            pongs.append(pong)
        for iteration in range(total_iters):
            ping_tag = queue_model[depth]
            send_stamps[iteration] = yield now()
            ping = yield from mpi.send(
                dest=1, tag=ping_tag, size=params.message_size
            )
            if mpi.lifecycle.enabled:
                mpi.lifecycle.label_request(
                    mpi.rank,
                    ping.req_id,
                    "ping",
                    iteration=iteration,
                    timed=iteration >= params.warmup,
                )
            yield from mpi.wait(pongs[iteration])
        yield from mpi.recv(source=1, tag=PONG_TAG + 1, size=0)
        for tag in list(queue_model):
            yield from mpi.send(dest=1, tag=tag, size=params.message_size)
        yield from mpi.finalize()
        return None

    world = MpiWorld(
        WorldConfig(
            num_ranks=2,
            nic=nic,
            fabric=FabricConfig.with_topology(topology),
            faults=faults,
        ),
        telemetry=telemetry,
    )
    results = world.run({0: sender_program, 1: receiver})
    samples, traversed = results[1]
    return PrepostedResult(
        params=params,
        latencies_ns=samples,
        entries_traversed=traversed,
        metrics=telemetry.snapshot() if telemetry is not None else None,
    )
