"""Sparse all-to-all workload: deterministic peers, discipline-agnostic."""

import dataclasses

import pytest

from repro.nic.nic import NicConfig
from repro.nic.qdisc import QdiscConfig
from repro.workloads.alltoall import AlltoallParams, run_alltoall

FAST = AlltoallParams(num_ranks=6, degree=2, rounds=6)


def test_parameter_validation():
    with pytest.raises(ValueError):
        AlltoallParams(num_ranks=1)
    with pytest.raises(ValueError):
        AlltoallParams(num_ranks=4, degree=4)
    with pytest.raises(ValueError):
        AlltoallParams(rounds=0)


def test_peer_sets_are_seeded_and_self_free():
    params = AlltoallParams(num_ranks=8, degree=3, seed=5)
    first = params.peer_sets()
    second = params.peer_sets()
    assert first == second
    assert first != AlltoallParams(num_ranks=8, degree=3, seed=6).peer_sets()
    for rank, peers in enumerate(first):
        assert len(peers) == 3
        assert rank not in peers
        assert len(set(peers)) == 3


def test_rounds_complete_under_fifo_and_sharded():
    fifo = run_alltoall(NicConfig.baseline(), FAST)
    sharded = run_alltoall(
        dataclasses.replace(
            NicConfig.baseline(),
            qdisc=QdiscConfig(discipline="sharded", shard_key="flow"),
        ),
        FAST,
    )
    assert len(fifo.latencies_ns) == FAST.rounds
    assert len(sharded.latencies_ns) == FAST.rounds
    assert fifo.total_messages == sharded.total_messages == 6 * 2 * 6
    # same traffic, same fabric: the disciplines only reorder searches,
    # so the round times stay within interleaving noise of each other
    assert abs(fifo.median_ns - sharded.median_ns) < 0.25 * fifo.median_ns
