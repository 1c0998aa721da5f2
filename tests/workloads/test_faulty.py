"""The faulty sweep preset: completion under loss, health verdicts,
cache-key hygiene."""

from repro.network.faults import FaultConfig
from repro.obs.health import has_finding, verdict_of
from repro.workloads.faulty import (
    LOSS_RATES,
    STORM_LOSS_RATE,
    faulty_spec,
    total_retransmits,
)
from repro.workloads.sweep import SweepCache, SweepSpec, run_sweep


def test_loss_rates_are_the_figure_5_points():
    assert LOSS_RATES == (0.0, 1e-3, 1e-2)


def test_tiny_faulty_sweep_completes_with_retransmits():
    spec = faulty_spec(
        1e-2, presets=("baseline",), queue_lengths=(4,), iterations=30, warmup=2
    )
    rows = run_sweep(spec)
    assert len(rows) == 1
    assert rows[0].latency_ns > 0
    assert total_retransmits(rows) > 0


def test_zero_loss_faulty_sweep_sees_no_retransmits():
    spec = faulty_spec(
        0.0, presets=("baseline",), queue_lengths=(4,), iterations=6, warmup=1
    )
    rows = run_sweep(spec)
    assert rows[0].latency_ns > 0
    assert total_retransmits(rows) == 0


def test_cache_key_distinguishes_fault_configurations():
    base = SweepSpec.preposted(("baseline",), (4,), (1.0,), iterations=6, warmup=1)
    lossy = SweepSpec.preposted(
        ("baseline",),
        (4,),
        (1.0,),
        iterations=6,
        warmup=1,
        faults=FaultConfig(seed=1, drop_rate=1e-2),
    )
    reseeded = SweepSpec.preposted(
        ("baseline",),
        (4,),
        (1.0,),
        iterations=6,
        warmup=1,
        faults=FaultConfig(seed=2, drop_rate=1e-2),
    )
    preset, params = base.points()[0]
    keys = {
        SweepCache.key(spec, preset, params) for spec in (base, lossy, reseeded)
    }
    assert len(keys) == 3, "faults (including the seed) must key the cache"


def test_faulty_sweep_rows_are_reproducible():
    spec = faulty_spec(
        1e-2, presets=("baseline",), queue_lengths=(4,), iterations=10, warmup=1
    )
    assert run_sweep(spec) == run_sweep(spec)


def test_zero_fault_rows_carry_a_clean_health_verdict():
    spec = faulty_spec(
        0.0, presets=("baseline",), queue_lengths=(4,), iterations=6, warmup=1
    )
    (row,) = run_sweep(spec)
    assert row.health == {"verdict": "healthy", "findings": []}
    assert verdict_of(row.health["findings"]) == "healthy"


def test_storm_loss_rate_raises_retransmit_storm_deterministically():
    point = dict(
        presets=("baseline",), queue_lengths=(8,), iterations=40, warmup=2
    )
    (row,) = run_sweep(faulty_spec(STORM_LOSS_RATE, **point))
    assert row.health is not None
    assert row.health["verdict"] == "warning"
    assert has_finding(row.health["findings"], "retransmit_storm")
    # findings are JSON-shaped dicts with the full evidence span
    finding = next(
        f for f in row.health["findings"] if f["code"] == "retransmit_storm"
    )
    assert finding["value"] >= finding["threshold"]
    assert finding["end_ps"] > finding["start_ps"]
    # deterministic under the pinned seed: a rerun reports the same health
    (again,) = run_sweep(faulty_spec(STORM_LOSS_RATE, **point))
    assert again.health == row.health


def test_telemetry_off_means_no_health_field():
    spec = faulty_spec(
        0.0,
        presets=("baseline",),
        queue_lengths=(4,),
        iterations=6,
        warmup=1,
        telemetry=False,
    )
    (row,) = run_sweep(spec)
    assert row.health is None
