"""The benchmark regression baseline: write/check round trip and CLI."""

import json

import pytest

from repro.workloads import bench
from repro.workloads.bench import check_baseline, run_grid, write_baseline


@pytest.fixture(scope="module")
def grid_records():
    """One grid run shared by the whole module (the grid is ~seconds)."""
    return run_grid()


@pytest.fixture()
def baseline_path(tmp_path, grid_records):
    path = tmp_path / "baseline.json"
    payload = {"version": bench.BASELINE_VERSION, "grid": grid_records}
    path.write_text(json.dumps(payload))
    return path


class TestGrid:
    def test_grid_records_shape(self, grid_records):
        assert len(grid_records) == len(bench.GRID)
        ids = [record["id"] for record in grid_records]
        assert len(set(ids)) == len(ids)
        for record in grid_records:
            assert record["latencies_ns"], record["id"]

    def test_point_ids_omit_iteration_axes(self):
        point = bench._point_id("preposted", "baseline", bench.GRID[0][2])
        assert "iterations" not in point and "warmup" not in point

    def test_committed_baseline_matches_a_fresh_run(self, grid_records):
        # the repo-root BENCH_baseline.json is the real regression gate
        ok, messages = check_baseline(bench.DEFAULT_PATH, grid_records)
        assert ok, "\n".join(messages)


class TestCheck:
    def test_round_trip_passes(self, tmp_path, grid_records):
        path = tmp_path / "baseline.json"
        write_baseline(str(path))
        ok, messages = check_baseline(str(path), grid_records)
        assert ok
        assert all(m.startswith("ok") for m in messages)

    def test_tampered_latency_fails(self, baseline_path, grid_records):
        payload = json.loads(baseline_path.read_text())
        payload["grid"][0]["latencies_ns"][0] += 1.0
        baseline_path.write_text(json.dumps(payload))
        ok, messages = check_baseline(str(baseline_path), grid_records)
        assert not ok
        assert any(m.startswith("FAIL") and "latencies" in m for m in messages)

    def test_stale_baseline_point_fails(self, baseline_path, grid_records):
        payload = json.loads(baseline_path.read_text())
        extra = dict(payload["grid"][0], id="preposted/retired/q=99")
        payload["grid"].append(extra)
        baseline_path.write_text(json.dumps(payload))
        ok, messages = check_baseline(str(baseline_path), grid_records)
        assert not ok
        assert any("not in the grid" in m for m in messages)

    def test_missing_baseline_point_fails(self, baseline_path, grid_records):
        payload = json.loads(baseline_path.read_text())
        payload["grid"].pop()
        baseline_path.write_text(json.dumps(payload))
        ok, messages = check_baseline(str(baseline_path), grid_records)
        assert not ok
        assert any("not in baseline" in m for m in messages)


class TestCli:
    def test_write_then_check_exit_codes(self, tmp_path, capsys):
        path = str(tmp_path / "baseline.json")
        assert bench.main(["--write", path]) == 0
        assert "wrote" in capsys.readouterr().out
        assert bench.main(["--check", path]) == 0
        assert "check passed" in capsys.readouterr().out

    def test_check_fails_on_drift(self, tmp_path, baseline_path, capsys):
        payload = json.loads(baseline_path.read_text())
        payload["grid"][0]["latencies_ns"] = [1.0]
        baseline_path.write_text(json.dumps(payload))
        assert bench.main(["--check", str(baseline_path)]) == 1
        assert "FAILED" in capsys.readouterr().out
