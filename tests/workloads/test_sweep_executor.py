"""Tests for the generic grid-sweep executor (SweepSpec / run_sweep),
the presets, the provenance-keyed cache and the telemetry dump."""

import dataclasses
import json

import pytest

from repro.workloads import sweep
from repro.workloads.sweep import (
    PRESETS,
    Row,
    SweepCache,
    SweepSpec,
    dump_telemetry,
    nic_preset,
    run_sweep,
)


def _small_preposted_spec(**overrides):
    kwargs = dict(iterations=3, warmup=1)
    kwargs.update(overrides)
    return SweepSpec.preposted(
        ("baseline", "alpu128"), (1, 4), (0.0, 1.0), **kwargs
    )


def test_points_expand_in_legacy_order():
    spec = _small_preposted_spec()
    points = spec.points()
    assert [(preset, p["queue_length"], p["traverse_fraction"]) for preset, p in points] == [
        ("baseline", 1, 0.0),
        ("baseline", 1, 1.0),
        ("baseline", 4, 0.0),
        ("baseline", 4, 1.0),
        ("alpu128", 1, 0.0),
        ("alpu128", 1, 1.0),
        ("alpu128", 4, 0.0),
        ("alpu128", 4, 1.0),
    ]
    # fixed parameters ride on every point
    assert all(p["iterations"] == 3 and p["warmup"] == 1 for _, p in points)


def test_unknown_benchmark_rejected():
    with pytest.raises(ValueError, match="unknown benchmark"):
        SweepSpec(benchmark="allreduce", presets=("baseline",), axes=())


def test_parallel_rows_bit_identical_to_serial():
    spec = _small_preposted_spec()
    serial = run_sweep(spec)
    fanned = run_sweep(spec, workers=2)
    assert serial == fanned
    assert all(isinstance(row, Row) for row in fanned)
    assert {row.benchmark for row in fanned} == {"preposted"}


def test_parallel_unexpected_matches_serial():
    spec = SweepSpec.unexpected(
        ("baseline", "alpu128"), (0, 2), iterations=3, warmup=1
    )
    serial = run_sweep(spec)
    fanned = run_sweep(spec, workers=2)
    assert serial == fanned
    assert all(isinstance(row, Row) for row in fanned)
    assert {row.benchmark for row in fanned} == {"unexpected"}


def test_cache_skips_rerun_and_returns_identical_rows():
    spec = _small_preposted_spec()
    cache = SweepCache()
    first = run_sweep(spec, cache=cache)
    assert cache.misses == len(first) and cache.hits == 0
    again = run_sweep(spec, cache=cache)
    assert again == first
    # every point was served from the cache the second time
    assert cache.hits == len(first)
    assert cache.misses == len(first)


def test_cache_key_distinguishes_configurations():
    spec = _small_preposted_spec()
    preset, params = spec.points()[0]
    base = SweepCache.key(spec, preset, params)
    assert SweepCache.key(spec, "alpu256", params) != base
    assert SweepCache.key(spec, preset, {**params, "iterations": 4}) != base
    other = dataclasses.replace(spec, telemetry=True)
    assert SweepCache.key(other, preset, params) != base
    # same content hashes the same, regardless of object identity
    assert SweepCache.key(_small_preposted_spec(), preset, dict(params)) == base


def test_file_backed_cache_round_trips(tmp_path):
    path = tmp_path / "cache" / "sweep.json"
    spec = SweepSpec.preposted(("baseline",), (2,), (1.0,), iterations=3, warmup=1)
    first = run_sweep(spec, cache=SweepCache(str(path)))
    assert path.exists()
    reloaded = SweepCache(str(path))
    assert len(reloaded) == 1
    again = run_sweep(spec, cache=reloaded)
    assert again == first
    assert reloaded.hits == 1 and reloaded.misses == 0


def test_cache_and_workers_compose():
    spec = _small_preposted_spec()
    cache = SweepCache()
    first = run_sweep(spec, workers=2, cache=cache)
    again = run_sweep(spec, workers=2, cache=cache)
    assert again == first and cache.hits == len(first)


def test_presets_build_the_papers_three_receivers():
    baseline = nic_preset("baseline")
    assert not baseline.firmware.use_alpu
    alpu128 = nic_preset("alpu128")
    assert alpu128.alpu_posted.total_cells == 128
    alpu256 = nic_preset("alpu256", block_size=32)
    assert alpu256.alpu_posted.total_cells == 256
    assert alpu256.alpu_posted.block_size == 32
    assert alpu256.alpu_unexpected.total_cells == 256


def test_unknown_preset_rejected():
    with pytest.raises(ValueError, match="unknown preset"):
        nic_preset("alpu512")


def test_presets_tuple_matches_figures():
    assert PRESETS == ("baseline", "alpu128", "alpu256")


def test_sweep_preposted_produces_the_grid():
    rows = run_sweep(
        SweepSpec.preposted(["baseline"], [1, 4], [0.0, 1.0], iterations=3, warmup=1)
    )
    assert len(rows) == 4
    assert {(r.params["queue_length"], r.params["traverse_fraction"]) for r in rows} == {
        (1, 0.0), (1, 1.0), (4, 0.0), (4, 1.0)
    }
    assert all(r.latency_ns > 0 for r in rows)


def test_sweep_unexpected_produces_the_grid():
    rows = run_sweep(
        SweepSpec.unexpected(["baseline", "alpu128"], [0, 2], iterations=3, warmup=1)
    )
    assert len(rows) == 4
    assert [r.preset for r in rows] == ["baseline", "baseline", "alpu128", "alpu128"]


def test_dump_telemetry_creates_parent_directories(tmp_path):
    rows = run_sweep(SweepSpec.unexpected(["baseline"], [0], iterations=3, warmup=1))
    path = tmp_path / "results" / "2026-08" / "fig6.json"
    dump_telemetry(rows, str(path), benchmark="unexpected")
    report = json.loads(path.read_text())
    assert report["version"] == 3
    assert report["meta"] == {"benchmark": "unexpected"}
    assert len(report["rows"]) == 1
    assert report["rows"][0]["params"]["queue_length"] == 0


def _quadrupled_compare(real):
    """A ``nic_preset`` whose NICs pay 4x per queue-entry compare."""

    def preset(name, **kwargs):
        nic = real(name, **kwargs)
        cost = dataclasses.replace(
            nic.cost, entry_compare_cycles=4 * nic.cost.entry_compare_cycles
        )
        return dataclasses.replace(nic, cost=cost)

    return preset


def test_warm_cache_follows_the_resolved_nic(monkeypatch):
    spec = SweepSpec.preposted(("baseline",), (8,), (1.0,), iterations=3, warmup=1)
    cache = SweepCache()
    (cached,) = run_sweep(spec, cache=cache)
    monkeypatch.setattr(sweep, "nic_preset", _quadrupled_compare(sweep.nic_preset))
    (fresh,) = run_sweep(spec)
    assert fresh.latency_ns > cached.latency_ns
    (warm,) = run_sweep(spec, cache=cache)
    assert warm == fresh
    assert cache.hits == 0


def test_pre_change_flat_row_is_a_miss(tmp_path):
    spec = SweepSpec.preposted(("baseline",), (2,), (1.0,), iterations=3, warmup=1)
    preset, params = spec.points()[0]
    key = SweepCache.key(spec, preset, params)
    flat = {
        "preset": preset,
        "queue_length": 2,
        "traverse_fraction": 1.0,
        "message_size": 0,
        "latency_ns": 1.0,
        "metrics": None,
        "attribution": None,
        "health": None,
        "fabric": None,
    }
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({"version": 7, "rows": {key: flat}}))
    cache = SweepCache(str(path))
    (row,) = run_sweep(spec, cache=cache)
    assert (cache.hits, cache.misses) == (0, 1)
    assert [row] == run_sweep(spec)
    # the re-simulated row replaced the stale entry on disk
    assert SweepCache(str(path)).get(key) == row
    assert [p.name for p in tmp_path.iterdir()] == ["sweep.json"]


def test_source_fingerprint_keys_the_cache(monkeypatch):
    spec = _small_preposted_spec()
    preset, params = spec.points()[0]
    base = SweepCache.key(spec, preset, params)
    assert len(sweep.source_fingerprint()) == 64
    monkeypatch.setattr(sweep, "source_fingerprint", lambda: "0" * 64)
    assert SweepCache.key(spec, preset, params) != base
