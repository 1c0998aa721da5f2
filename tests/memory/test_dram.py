"""Unit tests for the open-row DRAM model."""

from repro.memory.dram import Dram, DramConfig


def test_idle_bank_pays_activate_plus_cas():
    dram = Dram()
    cfg = dram.config
    assert dram.access(0) == cfg.ras_ps + cfg.cas_ps
    assert dram.page_misses == 1


def test_open_row_hit_pays_cas_only():
    dram = Dram()
    cfg = dram.config
    dram.access(0)
    assert dram.access(8) == cfg.cas_ps  # same row
    assert dram.page_hits == 1


def test_row_conflict_pays_full_path():
    dram = Dram(DramConfig(num_banks=1, row_bytes=2048))
    cfg = dram.config
    dram.access(0)
    latency = dram.access(2048)  # same (only) bank, different row
    assert latency == cfg.precharge_ps + cfg.ras_ps + cfg.cas_ps
    assert dram.page_conflicts == 1


def test_banks_hold_independent_open_rows():
    dram = Dram(DramConfig(num_banks=4, row_bytes=2048))
    dram.access(0 * 2048)  # bank 0
    dram.access(1 * 2048)  # bank 1
    # returning to bank 0's open row is still a page hit
    assert dram.access(16) == dram.config.cas_ps


def test_interleaved_conflicting_streams_degrade():
    """Two streams on one bank, different rows: every access conflicts."""
    dram = Dram(DramConfig(num_banks=1, row_bytes=2048))
    dram.access(0)
    for _ in range(5):
        dram.access(2048)
        dram.access(0)
    assert dram.page_conflicts == 10
    assert dram.page_hits == 0


def test_stats_reset():
    dram = Dram()
    dram.access(0)
    dram.access(0)
    dram.reset_stats()
    assert dram.accesses == 0
