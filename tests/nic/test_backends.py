"""Tests for the pluggable match-backend layer (registry + protocol)."""

import random

import pytest

from repro.core.match import MatchRequest
from repro.mpi.world import MpiWorld, WorldConfig
from repro.nic.backends import (
    AlpuMatchBackend,
    HashTableBackend,
    ListSearchBackend,
    backend_spec,
    create_backend,
    register_backend,
    registered_backends,
    unregister_backend,
)
from repro.nic.firmware import FirmwareConfig
from repro.nic.nic import NicConfig
from repro.nic.queues import ENTRY_BYTES, ENTRY_TOUCH_BYTES, EntryKind
from repro.workloads.pingpong import PingPongParams, run_pingpong


def test_stock_backends_are_registered():
    assert set(registered_backends()) >= {"list", "hash", "alpu"}
    assert backend_spec("list").factory is ListSearchBackend
    assert backend_spec("hash").factory is HashTableBackend
    assert backend_spec("alpu").factory is AlpuMatchBackend
    assert not backend_spec("list").needs_alpu
    assert not backend_spec("hash").needs_alpu
    assert backend_spec("alpu").needs_alpu


def test_unknown_backend_rejected_everywhere():
    with pytest.raises(ValueError, match="unknown matching engine"):
        backend_spec("tcam")
    with pytest.raises(ValueError, match="unknown matching engine"):
        FirmwareConfig(matching="tcam")
    with pytest.raises(ValueError, match="unknown matching engine"):
        create_backend("tcam")


def test_duplicate_registration_rejected_without_replace():
    with pytest.raises(ValueError, match="already registered"):
        register_backend("list", ListSearchBackend)


def test_firmware_config_backcompat():
    # the legacy string values and the use_alpu flag resolve as before
    assert FirmwareConfig(matching="list").backend_name == "list"
    assert FirmwareConfig(matching="hash").backend_name == "hash"
    assert FirmwareConfig(use_alpu=True).backend_name == "alpu"
    assert FirmwareConfig(use_alpu=True, matching="list").backend_name == "alpu"
    with pytest.raises(ValueError, match="conflicts with use_alpu=True"):
        FirmwareConfig(use_alpu=True, matching="hash")


def test_needs_alpu_drives_nic_assembly():
    software = MpiWorld(WorldConfig(num_ranks=2, nic=NicConfig.baseline()))
    assert software.nics[0].alpu_devices == ()
    assert software.nics[0].posted_driver is None

    hardware = MpiWorld(
        WorldConfig(num_ranks=2, nic=NicConfig.with_backend("alpu"))
    )
    assert len(hardware.nics[0].alpu_devices) == 2
    assert hardware.nics[0].posted_driver is not None


class TracingToyBackend(ListSearchBackend):
    """List search that counts protocol calls -- a minimal third engine."""

    name = "toy"
    calls = None  # set per-registration by the test

    def match_arrival(self, request):
        type(self).calls["match_arrival"] += 1
        return (yield from super().match_arrival(request))

    def consume_unexpected(self, request):
        type(self).calls["consume_unexpected"] += 1
        return (yield from super().consume_unexpected(request))


def test_custom_backend_runs_end_to_end():
    TracingToyBackend.calls = {"match_arrival": 0, "consume_unexpected": 0}
    register_backend("toy", TracingToyBackend)
    try:
        nic = NicConfig.with_backend("toy")
        assert nic.firmware.backend_name == "toy"
        result = run_pingpong(nic, PingPongParams(iterations=3, warmup=1))
        assert len(result.latencies_ns) == 3
        assert all(ns > 0 for ns in result.latencies_ns)
        # the firmware routed its matching work through the toy engine
        assert TracingToyBackend.calls["match_arrival"] > 0
        assert TracingToyBackend.calls["consume_unexpected"] > 0
    finally:
        unregister_backend("toy")
    with pytest.raises(ValueError, match="unknown matching engine"):
        FirmwareConfig(matching="toy")


def test_custom_backend_matches_list_timing():
    """A subclass that adds no cost must reproduce list timing exactly."""
    TracingToyBackend.calls = {"match_arrival": 0, "consume_unexpected": 0}
    register_backend("toy", TracingToyBackend)
    try:
        params = PingPongParams(iterations=4, warmup=1)
        baseline = run_pingpong(NicConfig.baseline(), params)
        toy = run_pingpong(NicConfig.with_backend("toy"), params)
        assert toy.latencies_ns == baseline.latencies_ns
    finally:
        unregister_backend("toy")


#: the search tests' queue depth: 64 KB of entries, twice the NIC's L1
SEARCH_DEPTH = 512


def _deep_unexpected_queue():
    """A baseline NIC whose unexpected queue holds ``SEARCH_DEPTH`` entries.

    Each entry is written when enqueued, as the firmware does, so the
    walk evicts dirty lines and pays posted write-backs.
    """
    world = MpiWorld(WorldConfig(num_ranks=2, nic=NicConfig.baseline()))
    firmware = world.nics[0].firmware
    queue = firmware.unexpected_q
    for bits in range(SEARCH_DEPTH):
        entry = queue.allocate_entry(EntryKind.UNEXPECTED_EAGER, bits=bits, mask=0, size=0)
        firmware.proc.touch(entry.addr, ENTRY_BYTES, write=True)
        queue.append(entry)
    return firmware, queue


def _memory_state(proc):
    memory = proc.memory
    return (
        proc.stall_ps,
        proc.busy_ps,
        memory.total_stall_ps,
        memory.l1.hits,
        memory.l1.misses,
        memory.l1.writebacks,
        memory.dram.page_hits,
        memory.dram.page_misses,
        memory.dram.page_conflicts,
        [list(cache_set.items()) for cache_set in memory.l1._sets],
        dict(memory.dram._open_rows),
    )


@pytest.mark.parametrize(
    "target",
    [random.Random(seed).randrange(SEARCH_DEPTH) for seed in range(3)] + [None],
    ids=lambda target: "miss" if target is None else f"hit@{target}",
)
def test_software_search_charges_like_per_entry_touches(target):
    """One batched walk costs what one touch per visited entry costs."""
    bits = SEARCH_DEPTH + 1 if target is None else target
    firmware, queue = _deep_unexpected_queue()
    search = firmware.backend.software_search(queue, MatchRequest(bits))
    delays = []
    with pytest.raises(StopIteration) as stop:
        while True:
            delays.append(next(search))
    found = stop.value.value

    # the reference: the same walk, one touch per visited entry
    ref_fw, ref_queue = _deep_unexpected_queue()
    proc = ref_fw.proc
    visited = list(ref_queue.search_candidates(MatchRequest(bits)))
    if target is not None:
        visited = visited[: target + 1]
    expected = [
        sum(proc.touch(entry.addr, ENTRY_TOUCH_BYTES) for entry in visited)
        + proc.compute(len(visited) * ref_fw.cost.entry_compare_cycles)
    ]
    if target is not None:
        assert found.bits == target
        expected.append(
            proc.compute(ref_fw.cost.dequeue_cycles)
            + proc.touch(visited[-1].addr + 64, 64, write=True)
        )
    else:
        assert found is None
    assert delays == expected
    assert firmware.entries_traversed == len(visited)
    assert _memory_state(firmware.proc) == _memory_state(proc)
