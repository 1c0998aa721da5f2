"""The composed memory system: caches over DRAM.

:class:`MemorySystem` turns an address stream into **stall time**.  An
access returns the picoseconds of stall *beyond* the pipelined L1-hit path
(an L1 hit costs 0 extra; the per-instruction cost model already covers
it).  Misses walk the hierarchy: optional L2, then the DRAM path with a
fixed controller/bus overhead plus the DRAM's row-state-dependent latency.
A dirty victim is written back to the next level: into L2 when there is
one, else to DRAM as a posted write charged at half the DRAM access.  A
dirty L2 victim goes to DRAM the same way.  DRAM write-backs also perturb
the open-row state -- this is the "contention for open rows" effect the
paper models.

Every access, single or batched, runs through one line walk
(:meth:`MemorySystem.access_each`).  It applies the same state rules as
the component models :meth:`Cache.access <repro.memory.cache.Cache.access>`
and :meth:`Dram.access <repro.memory.dram.Dram.access>`, with the L1 sets,
the open-row table and the latencies held in locals.  A queue traversal
charges all its entries in one call: nothing runs between its touches,
so the cache, the open rows, every counter and the summed stall are what
per-entry calls would give.

Default calibrations (see :mod:`repro.proc.params`) land the full
load-to-use path in Table III's bands: 30-32 cycles at 500 MHz for the NIC
(60-64 ns) and 85-90 cycles at 2 GHz for the host (42.5-45 ns).
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Optional

from repro.memory.cache import _ABSENT, Cache, CacheConfig
from repro.memory.dram import Dram, DramConfig


@dataclasses.dataclass(frozen=True)
class MemorySystemConfig:
    """Hierarchy shape and fixed latencies (picoseconds)."""

    l1: CacheConfig
    l2: Optional[CacheConfig] = None
    #: stall for an L2 hit (beyond the L1-hit path)
    l2_hit_ps: int = 6_000
    #: fixed bus + controller overhead on the DRAM path
    miss_base_ps: int = 44_000
    dram: DramConfig = dataclasses.field(default_factory=DramConfig)

    def __post_init__(self) -> None:
        if self.l2_hit_ps < 0 or self.miss_base_ps < 0:
            raise ValueError(f"negative latency in {self}")


class MemorySystem:
    """Caches + DRAM for one processor."""

    def __init__(self, config: MemorySystemConfig, name: str = "mem") -> None:
        self.config = config
        self.name = name
        self.l1 = Cache(config.l1)
        self.l2 = Cache(config.l2) if config.l2 is not None else None
        self.dram = Dram(config.dram)
        self.total_stall_ps = 0
        timing = config.dram
        miss_base = config.miss_base_ps
        # the walk's loop invariants, unpacked in one step per call; the
        # set list and the open-row table are never rebound
        self._walk_locals = (
            self.l1._sets,
            self.l1._num_sets,
            self.l1._ways,
            config.l1.line_bytes,
            self.l2,
            config.l2.line_bytes if config.l2 is not None else 0,
            config.l2_hit_ps,
            self.dram._open_rows,
            timing.row_bytes,
            timing.num_banks,
            miss_base + timing.cas_ps,
            miss_base + timing.ras_ps + timing.cas_ps,
            miss_base + timing.precharge_ps + timing.ras_ps + timing.cas_ps,
        )

    # -------------------------------------------------------------- accesses
    def access(self, addr: int, size: int = 8, *, write: bool = False) -> int:
        """Access ``[addr, addr+size)``; returns stall time in ps.

        Every cache line the range overlaps is accessed; stalls add up
        (the models here never overlap misses -- the PowerPC 440-class NIC
        core is in-order with a single memory port, and list traversal is a
        dependent pointer chase anyway).
        """
        return self.access_each((addr,), size, write=write)

    def access_each(
        self, addrs: Iterable[int], size: int, *, write: bool = False
    ) -> int:
        """Access ``[a, a+size)`` for each ``a`` in order; returns the summed stall.

        Identical in state and total to one :meth:`access` per address.
        """
        if size <= 0:
            raise ValueError(f"access size must be positive: {size}")
        (
            sets, num_sets, ways, line_bytes, l2, l2_line_bytes, l2_hit_ps,
            open_rows, row_bytes, banks, page_hit_ps, activate_ps, conflict_ps,
        ) = self._walk_locals
        dram = self.dram
        span = size - 1
        stall = hits = misses = writebacks = 0
        page_hits = page_misses = page_conflicts = 0
        for addr in addrs:
            # the line advances first, so each outcome below can `continue`
            line = addr // line_bytes - 1
            last = (addr + span) // line_bytes
            while line < last:
                line += 1
                index = line % num_sets
                tag = line // num_sets
                cache_set = sets[index]
                dirty = cache_set.pop(tag, _ABSENT)
                if dirty is not _ABSENT:
                    # L1 hit: re-insert at the MRU end, no stall
                    cache_set[tag] = dirty or write
                    hits += 1
                    continue
                misses += 1
                if len(cache_set) >= ways:
                    victim = next(iter(cache_set))
                    if cache_set.pop(victim):
                        writebacks += 1
                        victim_addr = (victim * num_sets + index) * line_bytes
                        if l2 is None:
                            stall += dram.access(victim_addr) // 2
                        else:
                            spill = l2.access(victim_addr, write=True).writeback_line
                            if spill is not None:
                                stall += dram.access(spill * l2_line_bytes) // 2
                cache_set[tag] = write
                if l2 is not None:
                    probe = l2.access(line * line_bytes)
                    if probe.hit:
                        stall += l2_hit_ps
                        continue
                    if probe.writeback_line is not None:
                        stall += dram.access(probe.writeback_line * l2_line_bytes) // 2
                # the DRAM fill (Dram.access, inlined)
                row = line * line_bytes // row_bytes
                bank = row % banks
                open_row = open_rows.get(bank)
                if open_row == row:
                    page_hits += 1
                    stall += page_hit_ps
                    continue
                if open_row is None:
                    page_misses += 1
                    stall += activate_ps
                else:
                    page_conflicts += 1
                    stall += conflict_ps
                open_rows[bank] = row
        l1 = self.l1
        l1.hits += hits
        l1.misses += misses
        l1.writebacks += writebacks
        dram.page_hits += page_hits
        dram.page_misses += page_misses
        dram.page_conflicts += page_conflicts
        self.total_stall_ps += stall
        return stall

    # ------------------------------------------------------------ utilities
    def reset_stats(self) -> None:
        """Zero every level's counters (contents untouched)."""
        self.l1.reset_stats()
        if self.l2 is not None:
            self.l2.reset_stats()
        self.dram.reset_stats()
        self.total_stall_ps = 0

    def register_collectors(self, registry, prefix: str) -> None:
        """Expose the hierarchy's counters as pull-style metrics.

        The caches and DRAM already count hits/misses/row-buffer states on
        their hot paths; collectors sample those at snapshot time instead
        of adding a second increment per access.
        """
        levels = [("l1", self.l1)]
        if self.l2 is not None:
            levels.append(("l2", self.l2))
        for label, cache in levels:
            registry.register_collector(
                f"{prefix}/{label}/hits", lambda c=cache: c.hits
            )
            registry.register_collector(
                f"{prefix}/{label}/misses", lambda c=cache: c.misses
            )
            registry.register_collector(
                f"{prefix}/{label}/writebacks", lambda c=cache: c.writebacks
            )
            registry.register_collector(
                f"{prefix}/{label}/hit_rate", lambda c=cache: c.hit_rate
            )
        registry.register_collector(
            f"{prefix}/dram/page_hits", lambda: self.dram.page_hits
        )
        registry.register_collector(
            f"{prefix}/dram/page_misses", lambda: self.dram.page_misses
        )
        registry.register_collector(
            f"{prefix}/dram/page_conflicts", lambda: self.dram.page_conflicts
        )
        registry.register_collector(
            f"{prefix}/stall_ps", lambda: self.total_stall_ps
        )
