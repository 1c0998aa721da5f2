"""Tests for the composed memory system, including the Table III bands."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.memory.cache import Cache, CacheConfig
from repro.memory.dram import Dram, DramConfig
from repro.memory.system import MemorySystem, MemorySystemConfig
from repro.proc.params import make_host_memory, make_nic_memory
from repro.sim.units import cycles_to_ps


def test_l1_hit_costs_zero_extra():
    memory = make_nic_memory()
    memory.access(0x1000)
    assert memory.access(0x1000) == 0


def test_nic_miss_lands_in_table_iii_band():
    """Load-to-use 30-32 cycles at 500 MHz for the common DRAM paths."""
    memory = make_nic_memory()
    cycle = cycles_to_ps(1, 500e6)
    # cold accesses to addresses in distinct rows: activate path
    stall_activate = memory.access(0x10_0000)
    # second access in the same (now open) row, different line: page hit
    stall_hit = memory.access(0x10_0000 + 64)
    assert 30 <= stall_activate / cycle <= 32
    assert 28 <= stall_hit / cycle <= 30


def test_nic_row_conflicts_exceed_the_band():
    """Open-row contention pushes latency above the nominal band."""
    memory = make_nic_memory()
    row = memory.config.dram.row_bytes
    banks = memory.config.dram.num_banks
    cycle = cycles_to_ps(1, 500e6)
    a, b = 0x20_0000, 0x20_0000 + row * banks  # same bank, different rows
    memory.access(a)
    conflict_stall = memory.access(b)
    assert conflict_stall / cycle > 32


def test_host_miss_lands_in_table_iii_band():
    """Load-to-use 85-93 cycles at 2 GHz for the common DRAM paths."""
    memory = make_host_memory()
    cycle = cycles_to_ps(1, 2e9)
    stall = memory.access(0x30_0000)
    assert 85 <= stall / cycle <= 93


def test_host_l2_absorbs_l1_evictions():
    memory = make_host_memory()
    memory.access(0x40_0000)
    # evict it from L1 by filling its set (2-way L1, 512 sets)
    sets = memory.l1.config.num_sets
    line = memory.l1.config.line_bytes
    memory.access(0x40_0000 + sets * line)
    memory.access(0x40_0000 + 2 * sets * line)
    # back to the original: L1 miss, L2 hit -- far cheaper than DRAM
    stall = memory.access(0x40_0000)
    assert stall == memory.config.l2_hit_ps


def test_dirty_writeback_without_l2_charges_dram():
    memory = make_nic_memory()
    sets = memory.l1.config.num_sets
    line = memory.l1.config.line_bytes
    ways = memory.l1.config.ways
    base = 0x50_0000
    memory.access(base, write=True)  # dirty
    # fill the set to evict the dirty line
    for way in range(ways):
        memory.access(base + (way + 1) * sets * line)
    assert memory.dram.accesses > ways + 1  # the write-back hit DRAM too


def test_multi_line_access_charges_each_line():
    memory = make_nic_memory()
    stall_two_lines = memory.access(0x60_0000, size=128)
    memory2 = make_nic_memory()
    stall_one_line = memory2.access(0x60_0000, size=64)
    assert stall_two_lines > stall_one_line


def test_invalid_access_size_rejected():
    with pytest.raises(ValueError):
        make_nic_memory().access(0, size=0)
    with pytest.raises(ValueError):
        make_nic_memory().access_each([0, 64], 0)


def test_total_stall_accumulates():
    memory = make_nic_memory()
    memory.access(0x100)
    memory.access(0x100)
    assert memory.total_stall_ps > 0
    memory.reset_stats()
    assert memory.total_stall_ps == 0


def test_negative_config_rejected():
    with pytest.raises(ValueError):
        MemorySystemConfig(
            l1=CacheConfig(1024, 2, 64), miss_base_ps=-1
        )


def _resident(cache):
    """Every set's ``(line, dirty)`` pairs, LRU first."""
    sets = cache.config.num_sets
    return [
        [(tag * sets + index, dirty) for tag, dirty in cache_set.items()]
        for index, cache_set in enumerate(cache._sets)
    ]


def test_l2_dirty_victim_is_written_back_to_dram():
    """An L2 eviction's dirty victim goes to DRAM, not back into L2."""
    memory = MemorySystem(
        MemorySystemConfig(
            l1=CacheConfig(size_bytes=2 * 64, ways=1, line_bytes=64),
            l2=CacheConfig(size_bytes=2 * 64, ways=2, line_bytes=64, name="L2"),
        )
    )
    memory.access(0 * 64, write=True)
    memory.access(2 * 64)  # evicts dirty line 0 from L1 into L2
    memory.access(4 * 64)  # L2 evicts dirty line 0: a posted DRAM write
    assert _resident(memory.l2) == [[(2, False), (4, False)]]
    # three fills plus the write-back of line 0
    assert memory.dram.accesses == 4


class _Reference:
    """The hierarchy composed from per-line ``Cache.access``/``Dram.access``."""

    def __init__(self, config):
        self.config = config
        self.l1 = Cache(config.l1)
        self.l2 = Cache(config.l2) if config.l2 is not None else None
        self.dram = Dram(config.dram)
        self.total_stall_ps = 0

    def _post(self, line, line_bytes):
        """A dirty victim's posted write to DRAM: half an access."""
        return self.dram.access(line * line_bytes) // 2

    def access(self, addr, size, write):
        cfg = self.config
        lb = cfg.l1.line_bytes
        stall = 0
        for line in range(addr // lb, (addr + size - 1) // lb + 1):
            result = self.l1.access(line * lb, write=write)
            if result.hit:
                continue
            if result.writeback_line is not None:
                if self.l2 is None:
                    stall += self._post(result.writeback_line, lb)
                else:
                    spill = self.l2.access(result.writeback_line * lb, write=True)
                    if spill.writeback_line is not None:
                        stall += self._post(spill.writeback_line, cfg.l2.line_bytes)
            if self.l2 is not None:
                probe = self.l2.access(line * lb)
                if probe.hit:
                    stall += cfg.l2_hit_ps
                    continue
                if probe.writeback_line is not None:
                    stall += self._post(probe.writeback_line, cfg.l2.line_bytes)
            stall += cfg.miss_base_ps + self.dram.access(line * lb)
        self.total_stall_ps += stall
        return stall


#: small geometries that force evictions, write-backs and row conflicts
_WALK_CONFIGS = {
    "nic": MemorySystemConfig(
        l1=CacheConfig(size_bytes=4 * 2 * 64, ways=2, line_bytes=64),
        dram=DramConfig(num_banks=2, row_bytes=256),
    ),
    "host": MemorySystemConfig(
        l1=CacheConfig(size_bytes=2 * 2 * 64, ways=2, line_bytes=64),
        l2=CacheConfig(size_bytes=4 * 2 * 64, ways=2, line_bytes=64, name="L2"),
        dram=DramConfig(num_banks=2, row_bytes=256),
    ),
}

#: one call: (addresses, size, write, charged through access() when single)
_CALLS = st.tuples(
    st.lists(st.integers(min_value=0, max_value=4096), min_size=1, max_size=8),
    st.integers(min_value=1, max_value=200),
    st.booleans(),
    st.booleans(),
)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(_WALK_CONFIGS)), st.lists(_CALLS, max_size=40))
def test_walk_matches_per_line_component_models(geometry, calls):
    config = _WALK_CONFIGS[geometry]
    memory = MemorySystem(config)
    reference = _Reference(config)
    for addrs, size, write, single in calls:
        if single:
            for addr in addrs:
                assert memory.access(addr, size, write=write) == reference.access(
                    addr, size, write
                )
        else:
            expected = sum(reference.access(addr, size, write) for addr in addrs)
            assert memory.access_each(addrs, size, write=write) == expected
    assert memory.total_stall_ps == reference.total_stall_ps
    caches = [(memory.l1, reference.l1)]
    if memory.l2 is not None:
        caches.append((memory.l2, reference.l2))
    for got, want in caches:
        assert (got.hits, got.misses, got.writebacks) == (
            want.hits,
            want.misses,
            want.writebacks,
        )
        assert _resident(got) == _resident(want)
    got, want = memory.dram, reference.dram
    assert (got.page_hits, got.page_misses, got.page_conflicts) == (
        want.page_hits,
        want.page_misses,
        want.page_conflicts,
    )
    assert got._open_rows == want._open_rows
