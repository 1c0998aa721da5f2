"""Run-report rendering of the fabric section (heatmap + per-link table).

Renders real multi-rank halo runs -- a contended 16-rank torus3d incast
and a 2-rank crossbar -- through every output format and checks that the
three renderings (JSON document, terminal text, HTML) agree on the
fabric totals, that the heatmap names the hotspot, and that fabrics
without a grid shape (crossbar) or without a snapshot at all (legacy
reports) still render, as do older artifacts carrying a since-removed
simulator self-profile section.
"""

import html as html_mod
import json

import pytest

from repro.analysis.report import (
    hottest_links,
    load_report,
    render_html,
    render_text,
)
from repro.obs.telemetry import Telemetry
from repro.workloads.halo import HaloParams, run_halo
from repro.workloads.sweep import nic_preset


def _run_report(**params):
    telemetry = Telemetry(
        tracing=False, lifecycle=True, timeline=True, health=True, fabric=True
    )
    run_halo(nic_preset("alpu128"), HaloParams(**params), telemetry=telemetry)
    return telemetry.report()


@pytest.fixture(scope="module")
def hotspot_report():
    """16-rank torus3d halo with incast contention toward rank 0."""
    return _run_report(
        ranks=16,
        topology="torus3d",
        message_size=512,
        iterations=2,
        warmup=1,
        hotspot_rank=0,
    )


@pytest.fixture(scope="module")
def crossbar_report():
    """The degenerate fabric: 2 ranks, one direct channel each way."""
    return _run_report(
        ranks=2, topology="crossbar", message_size=256, iterations=2, warmup=1
    )


class TestHtmlHeatmap:
    def test_fabric_section_renders_with_svg_heatmap(self, hotspot_report):
        html = render_html(hotspot_report)
        assert "<h2>Fabric</h2>" in html
        assert "<svg" in html

    def test_heatmap_names_the_hotspot_link(self, hotspot_report):
        hottest = hottest_links(hotspot_report["fabric"])[0]
        assert hottest["utilization"] > 0
        assert html_mod.escape(hottest["name"]) in render_html(hotspot_report)

    def test_crossbar_renders_without_a_grid(self, crossbar_report):
        # crossbar has no dims, so no heatmap -- but the fabric section,
        # its totals, and the per-link table must still render
        assert crossbar_report["fabric"]["topology"]["dims"] is None
        html = render_html(crossbar_report)
        assert "<h2>Fabric</h2>" in html
        assert "fabric.wire0-&gt;1" in html


class TestTextRendering:
    def test_names_the_hotspot_link(self, hotspot_report):
        text = render_text(hotspot_report)
        assert "hottest link:" in text
        assert hottest_links(hotspot_report["fabric"])[0]["name"] in text

    def test_glyph_heatmap_renders_grid_planes(self, hotspot_report):
        assert "node heatmap" in render_text(hotspot_report)

    def test_crossbar_text_renders(self, crossbar_report):
        text = render_text(crossbar_report)
        assert "fabric:" in text
        assert "node heatmap" not in text


class TestRenderingsAgree:
    @pytest.mark.parametrize("fixture", ["hotspot_report", "crossbar_report"])
    def test_all_formats_agree_on_totals(self, fixture, request):
        document = request.getfixturevalue(fixture)
        fabric = document["fabric"]
        totals = (
            f"{fabric['packets_injected']} packets injected, "
            f"{fabric['packets_delivered']} delivered"
        )
        assert totals in render_text(document)
        assert totals in render_html(document)
        # and the document itself round-trips through JSON unchanged
        assert json.loads(json.dumps(fabric)) == fabric


class TestLegacyDocuments:
    def test_report_without_fabric_renders_unchanged(self, crossbar_report):
        document = dict(crossbar_report, fabric=None)
        assert "fabric:" not in render_text(document)
        assert "<h2>Fabric</h2>" not in render_html(document)

    def test_load_report_upgrades_older_documents(self, tmp_path):
        path = tmp_path / "v2.report.json"
        path.write_text(
            json.dumps({"version": 2, "meta": {}, "metrics": {}})
        )
        document = load_report(str(path))
        assert document["fabric"] is None
        assert "<h2>Fabric</h2>" not in render_html(document)

    def test_v3_artifact_with_a_self_profile_section_still_renders(
        self, tmp_path
    ):
        """Artifacts written while the report carried a simulator
        self-profile keep loading; the section is no longer rendered."""
        path = tmp_path / "v3-profiled.report.json"
        path.write_text(
            json.dumps(
                {
                    "version": 3,
                    "meta": {"benchmark": "preposted"},
                    "metrics": {},
                    "profile": {
                        "events": 820,
                        "handler_seconds": 0.01,
                        "events_per_sec": 82000.0,
                        "top_handlers": {
                            "Process._resume": {"events": 400, "seconds": 0.005}
                        },
                    },
                }
            )
        )
        document = load_report(str(path))
        text = render_text(document)
        page = render_html(document)
        assert "preposted" in text and "healthy" in text
        assert "events/sec" not in text and "Process._resume" not in text
        assert "Run report" in page and "self-profile" not in page
