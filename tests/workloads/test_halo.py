"""Tests for the many-rank halo-exchange workload and its sweep plumbing."""

import dataclasses

import pytest

from repro.network.faults import FaultConfig
from repro.nic.reliability import ReliabilityConfig
from repro.obs.telemetry import Telemetry
from repro.workloads.halo import HaloParams, run_halo
from repro.workloads.sweep import (
    Row,
    SweepCache,
    SweepSpec,
    nic_preset,
    run_sweep,
)


def small_params(**overrides):
    kwargs = dict(ranks=8, topology="torus3d", iterations=2, warmup=1)
    kwargs.update(overrides)
    return HaloParams(**kwargs)


def test_params_validation():
    with pytest.raises(ValueError, match=">= 2 ranks"):
        HaloParams(ranks=1)
    with pytest.raises(ValueError, match="unknown topology"):
        HaloParams(topology="fat_tree")
    with pytest.raises(ValueError, match="invalid parameters"):
        HaloParams(iterations=0)


@pytest.mark.parametrize("topology", ["crossbar", "ring", "mesh2d", "torus3d"])
def test_halo_runs_on_every_preset(topology):
    result = run_halo(
        nic_preset("alpu128"), small_params(topology=topology)
    )
    assert len(result.latencies_ns) == 2  # the timed (post-warmup) iterations
    assert result.allreduce_value == 8 * 9 // 2
    assert topology in result.topology


def test_halo_deterministic_and_telemetry_free():
    """Two bare runs agree, and telemetry does not perturb latencies."""
    params = small_params()
    bare = run_halo(nic_preset("alpu128"), params)
    again = run_halo(nic_preset("alpu128"), params)
    assert bare.latencies_ns == again.latencies_ns
    bundle = Telemetry(tracing=False, timeline=True, health=True)
    instrumented = run_halo(nic_preset("alpu128"), params, telemetry=bundle)
    assert instrumented.latencies_ns == bare.latencies_ns
    assert instrumented.metrics is not None
    assert bundle.health_verdict() == "healthy"


def test_halo_recovers_under_faults_with_clean_control():
    params = small_params()
    nic = nic_preset("alpu128")
    nic = dataclasses.replace(nic, reliability=ReliabilityConfig(enabled=True))
    faulty = run_halo(
        nic, params, faults=FaultConfig(seed=3, drop_rate=0.02)
    )
    assert faulty.retransmits > 0
    assert faulty.allreduce_value == 8 * 9 // 2
    control = run_halo(nic, params)
    assert control.retransmits == 0
    assert control.allreduce_value == faulty.allreduce_value


def test_16_rank_sweep_serial_vs_parallel_bit_identical():
    """The satellite-3 pin: a 16-rank topology sweep produces identical
    rows serially and fanned out, and the cache round-trips them."""
    spec = SweepSpec.halo(
        ("alpu128",),
        (16,),
        ("crossbar", "torus3d"),
        iterations=2,
        warmup=1,
    )
    cache = SweepCache()
    serial = run_sweep(spec, cache=cache)
    fanned = run_sweep(spec, workers=2)
    assert serial == fanned
    assert all(isinstance(row, Row) for row in serial)
    assert [row.params["topology"] for row in serial] == ["crossbar", "torus3d"]
    # cache round trip
    again = run_sweep(spec, cache=cache)
    assert again == serial
    assert cache.hits == len(serial)


def test_cache_key_covers_topology():
    """Both topology channels -- the halo params axis and the spec-level
    override for the 2-rank benchmarks -- land in the cache key."""
    spec = SweepSpec.halo(("alpu128",), (8,), ("crossbar",))
    preset, params = spec.points()[0]
    base = SweepCache.key(spec, preset, params)
    assert SweepCache.key(spec, preset, {**params, "topology": "ring"}) != base
    pp_spec = SweepSpec.preposted(("alpu128",), (4,), (1.0,))
    pp_preset, pp_params = pp_spec.points()[0]
    pp_base = SweepCache.key(pp_spec, pp_preset, pp_params)
    routed = dataclasses.replace(pp_spec, topology="torus3d")
    assert SweepCache.key(routed, pp_preset, pp_params) != pp_base


def test_two_rank_benchmarks_accept_topology_override():
    """spec.topology reroutes the classic benchmarks' fabric; on two
    nodes every preset is one hop, so latencies match the crossbar."""
    base_spec = SweepSpec.preposted(
        ("alpu128",), (4,), (1.0,), iterations=3, warmup=1
    )
    routed_spec = dataclasses.replace(base_spec, topology="ring")
    base_rows = run_sweep(base_spec)
    routed_rows = run_sweep(routed_spec)
    assert [r.latency_ns for r in base_rows] == [
        r.latency_ns for r in routed_rows
    ]


def test_fabric_sweep_rows_carry_snapshots_and_key_the_cache():
    """fabric=True threads per-hop observability through the executor:
    rows carry the fabric snapshot, latencies stay bit-identical to the
    bare sweep, and the flag lands in the cache key."""
    bare_spec = SweepSpec.halo(
        ("alpu128",), (8,), ("torus3d",), iterations=2, warmup=1
    )
    spec = dataclasses.replace(bare_spec, fabric=True)
    assert SweepSpec.halo(
        ("alpu128",), (8,), ("torus3d",), iterations=2, warmup=1, fabric=True
    ) == spec  # the factory passes the flag through
    (row,) = run_sweep(spec)
    assert row.fabric["packets_injected"] == row.fabric["packets_delivered"]
    assert row.fabric["topology"]["preset"] == "torus3d"
    (bare,) = run_sweep(bare_spec)
    assert bare.fabric is None
    assert bare.latency_ns == row.latency_ns  # zero perturbation
    preset, params = spec.points()[0]
    assert SweepCache.key(spec, preset, params) != SweepCache.key(
        bare_spec, preset, params
    )
