"""Banked DRAM with open-row (page mode) timing.

The paper: "The memory hierarchy was modeled to include contention for open
rows on the DRAM chips."  We model a set of banks, each remembering its
open row.  An access to the open row is a *page hit* (CAS only); a bank
with no open row pays activate + CAS; a bank holding a different row pays
precharge + activate + CAS.

Timing is expressed in **picoseconds** so the same DRAM can sit behind the
2 GHz host CPU and the 500 MHz NIC processor.  The default numbers are
calibrated so that the full load-to-use path (see
:class:`~repro.memory.system.MemorySystem`) lands in Table III's bands:
30-32 NIC cycles (60-64 ns) and 85-90 host cycles (42.5-45 ns), with
row-buffer conflicts pushing past the top of the band exactly as the
paper's "contention for open rows" does.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Tuple


@dataclasses.dataclass(frozen=True)
class DramConfig:
    """DRAM geometry and timing (picoseconds)."""

    num_banks: int = 4
    row_bytes: int = 2048
    #: column access (page hit pays only this)
    cas_ps: int = 12_000
    #: extra for row activation on an idle bank
    ras_ps: int = 4_000
    #: extra for closing a conflicting open row
    precharge_ps: int = 14_000

    def __post_init__(self) -> None:
        if self.num_banks <= 0 or self.row_bytes <= 0:
            raise ValueError(f"invalid DRAM geometry: {self}")
        if min(self.cas_ps, self.ras_ps, self.precharge_ps) < 0:
            raise ValueError(f"negative DRAM timing: {self}")


class Dram:
    """Open-row DRAM state machine.

    ``access`` returns the access latency in picoseconds and updates the
    bank's open row.  Row-buffer *contention* emerges naturally: streams
    that interleave on the same bank but different rows keep closing each
    other's rows and repeatedly pay the precharge + activate + CAS path.
    """

    def __init__(self, config: Optional[DramConfig] = None) -> None:
        self.config = config if config is not None else DramConfig()
        self._open_rows: Dict[int, int] = {}
        self.page_hits = 0
        self.page_misses = 0
        self.page_conflicts = 0

    def _locate(self, addr: int) -> Tuple[int, int]:
        row = addr // self.config.row_bytes
        bank = row % self.config.num_banks
        return bank, row

    def access(self, addr: int) -> int:
        """Access ``addr``; returns latency in picoseconds."""
        bank, row = self._locate(addr)
        open_row = self._open_rows.get(bank)
        cfg = self.config
        if open_row == row:
            self.page_hits += 1
            return cfg.cas_ps
        if open_row is None:
            self.page_misses += 1
            latency = cfg.ras_ps + cfg.cas_ps
        else:
            self.page_conflicts += 1
            latency = cfg.precharge_ps + cfg.ras_ps + cfg.cas_ps
        self._open_rows[bank] = row
        return latency

    @property
    def accesses(self) -> int:
        """Total accesses so far."""
        return self.page_hits + self.page_misses + self.page_conflicts

    def reset_stats(self) -> None:
        """Zero the counters (open rows untouched)."""
        self.page_hits = 0
        self.page_misses = 0
        self.page_conflicts = 0

