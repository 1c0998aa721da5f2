"""The one analysis CLI: ``python -m repro.analysis.report``.

Drives :func:`repro.analysis.report.main` in-process with small params:

* a live preposted run renders the latency attribution, and its
  ``--out`` / ``--html`` / ``--chrome`` files are complete -- the JSON
  artifact reloads through ``--input`` to the same text, and a bare
  lifecycle dump to the same attribution;
* a live halo incast prints the full fabric tables: every link, the
  routes and the per-link budgets;
* one ``--row`` of a fabric + lifecycle sweep dump renders that row's
  fabric and attribution;
* bad input exits 2 with one ``error:`` line, never a traceback.
"""

import contextlib
import io
import json

import pytest

from repro.analysis import report
from repro.workloads.sweep import SweepSpec, dump_telemetry, run_sweep

PREPOSTED = [
    "--benchmark", "preposted", "--preset", "alpu128",
    "--param", "queue_length=8", "--param", "iterations=3",
    "--param", "warmup=1",
]
HALO_INCAST = [
    "--benchmark", "halo", "--preset", "alpu128",
    "--param", "ranks=8", "--param", "topology=torus3d",
    "--param", "iterations=1", "--param", "hotspot_rank=0",
]


def run_main(*args):
    """``(exit code, stdout, stderr)`` of one in-process CLI call."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = report.main([str(arg) for arg in args])
    return code, stdout.getvalue(), stderr.getvalue()


def section_rows(text, heading):
    """The table rows under ``heading``: past its header and rule, up to
    the next blank line."""
    lines = text.splitlines()
    start = lines.index(heading) + 3
    end = lines.index("", start)
    return lines[start:end]


@pytest.fixture(scope="module")
def live(tmp_path_factory):
    out = tmp_path_factory.mktemp("live")
    paths = {
        "out": out / "run.json",
        "html": out / "run.html",
        "chrome": out / "trace.json",
    }
    code, text, err = run_main(
        *PREPOSTED,
        "--out", paths["out"], "--html", paths["html"], "--chrome", paths["chrome"],
    )
    assert code == 0, err
    return text, paths


@pytest.fixture(scope="module")
def incast(tmp_path_factory):
    out = tmp_path_factory.mktemp("incast") / "incast.json"
    code, text, err = run_main(*HALO_INCAST, "--out", out)
    assert code == 0, err
    return text, json.loads(out.read_text())


@pytest.fixture(scope="module")
def sweep_dump(tmp_path_factory):
    path = tmp_path_factory.mktemp("sweep") / "dump.json"
    rows = run_sweep(
        SweepSpec.halo(
            ("alpu128",), (8,), ("crossbar", "torus3d"),
            iterations=1, warmup=1, lifecycle=True, fabric=True,
        )
    )
    dump_telemetry(rows, str(path))
    return path, rows


class TestLivePreposted:
    def test_text_carries_the_attribution(self, live):
        text, _ = live
        assert "match_search" in text
        assert "stages sum exactly" in text

    def test_out_artifact_is_a_healthy_v3_report(self, live):
        _, paths = live
        document = json.loads(paths["out"].read_text())
        assert document["version"] == 3
        assert document["health"]["verdict"] == "healthy"
        messages = document["attribution"]["messages"]
        assert messages
        for message in messages:
            assert sum(message["stages_ps"].values()) == message["end_to_end_ps"]

    def test_html_and_chrome_files(self, live):
        _, paths = live
        assert "Run report" in paths["html"].read_text()
        assert json.loads(paths["chrome"].read_text())["traceEvents"]

    def test_input_reprints_the_same_text(self, live):
        text, paths = live
        code, again, err = run_main("--input", paths["out"])
        assert code == 0, err
        assert again == text

    def test_bare_lifecycle_dump_renders_the_attribution(self, live, tmp_path):
        text, paths = live
        lifecycles = json.loads(paths["out"].read_text())["lifecycles"]
        dump = tmp_path / "lifecycles.json"
        dump.write_text(json.dumps({"lifecycles": lifecycles}))
        code, again, err = run_main("--input", dump)
        assert code == 0, err
        section = text[text.index("latency attribution"):text.index("queue high-water")]
        assert section in again


class TestFabricTables:
    def test_every_link_gets_a_table_row(self, incast):
        text, document = incast
        links = document["fabric"]["links"]
        assert len(links) == 24
        rows = section_rows(text, "per-link traffic")
        assert len(rows) == len(links)
        assert {row.split()[0] for row in rows} == {link["name"] for link in links}

    def test_routes_and_per_link_budgets(self, incast):
        text, document = incast
        assert "per-route traffic" in text
        assert "per-link attribution (from per-hop lifecycle marks)" in text
        assert document["link_budgets"]
        budget_rows = section_rows(text, "per-link attribution (from per-hop lifecycle marks)")
        assert len(budget_rows) == len(document["link_budgets"]) + 2  # rule + total


class TestSweepDump:
    def test_row_renders_its_fabric_and_attribution(self, sweep_dump):
        path, rows = sweep_dump
        code, text, err = run_main("--input", path, "--row", 1)
        assert code == 0, err
        assert rows[1].params["topology"] == "torus3d"
        assert f"fabric: {rows[1].fabric['topology']['description']}" in text
        assert len(section_rows(text, "per-link traffic")) == len(rows[1].fabric["links"])
        assert "latency attribution" in text
        summary = f"{rows[1].attribution['aggregate']['count']} messages, end-to-end"
        assert summary in text

    def test_without_row_renders_row_zero(self, sweep_dump):
        path, _ = sweep_dump
        code, text, err = run_main("--input", path)
        assert code == 0, err
        assert (code, text, err) == run_main("--input", path, "--row", 0)


class TestBadInput:
    def assert_one_line_error(self, code, out, err, *needles):
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        for needle in needles:
            assert needle in err

    def test_unrecognised_artifact(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"something": "else"}))
        self.assert_one_line_error(*run_main("--input", path), "not a run report")

    def test_row_out_of_range(self, sweep_dump):
        path, rows = sweep_dump
        self.assert_one_line_error(
            *run_main("--input", path, "--row", len(rows)), "out of range"
        )

    def test_row_for_a_non_dump(self, live):
        _, paths = live
        self.assert_one_line_error(
            *run_main("--input", paths["out"], "--row", 0), "sweep telemetry dump"
        )

    def test_unknown_param_lists_the_valid_fields(self):
        self.assert_one_line_error(
            *run_main("--param", "depth=8"), "'depth'", "queue_length", "traverse_fraction"
        )

    def test_value_the_params_class_rejects(self):
        self.assert_one_line_error(
            *run_main("--param", "queue_length=0"), "queue_length must be >= 1"
        )

    def test_chrome_without_lifecycles(self, sweep_dump, tmp_path):
        path, _ = sweep_dump
        self.assert_one_line_error(
            *run_main("--input", path, "--chrome", tmp_path / "trace.json"),
            "--chrome needs lifecycles",
        )
