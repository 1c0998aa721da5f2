"""The unified run report: one artifact, three renderings, one CLI.

:meth:`repro.obs.telemetry.Telemetry.report` captures everything one run
observed -- metadata, metrics, the windowed timeline, health findings,
raw lifecycles, the fabric snapshot -- as a single versioned JSON
document.  This module folds that artifact into human-facing renderings:

* **text** -- a terminal report: verdict and findings up top, per-series
  timeline sparklines, the fabric tables (totals, every link, routes,
  per-link budgets, glyph heatmap), latency attribution (when
  lifecycles rode along), queue high-water marks;
* **json** -- the artifact enriched with the folded attribution and
  per-link budgets, for downstream tooling;
* **html** -- a self-contained page (inline CSS/SVG, no external assets)
  suitable for a CI artifact.

It is also the one analysis CLI.  Without ``--input`` it runs any
registry workload (:data:`repro.workloads.sweep.BENCHMARKS`) on any NIC
preset with every collector on and reports on that run::

    python -m repro.analysis.report --benchmark preposted --preset alpu128 \
        --param queue_length=50 --param iterations=8 --html run.html
    python -m repro.analysis.report --benchmark halo --preset alpu128 \
        --param topology=torus3d --param hotspot_rank=0

``--input`` reads a saved artifact instead: a run report (``--out``
writes one), one ``--row`` of a sweep telemetry dump (row 0 by
default), or a bare lifecycle dump.  ``--chrome`` writes the
per-message tracks of the document's lifecycles as a Chrome trace.  Attribution folding happens
here, at render time: :mod:`repro.obs` stays import-free of
:mod:`repro.analysis`.
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import html as html_mod
import json
import os
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.attribution import (
    AttributionError,
    attribute_run,
    format_report,
    link_budgets,
)
from repro.obs.chrome import to_chrome, write_chrome_trace
from repro.obs.health import verdict_of
from repro.obs.lifecycle import MessageLifecycle
from repro.obs.telemetry import REPORT_VERSION
from repro.obs.timeline import Timeline

#: sparkline glyphs, lowest to highest
_SPARK_GLYPHS = "▁▂▃▄▅▆▇█"
#: sparkline width (windows are resampled down to this many buckets)
_SPARK_WIDTH = 48


#: the newest sweep telemetry dump schema :func:`load_report` understands
MAX_DUMP_VERSION = 3


class ReportError(ValueError):
    """A run-report artifact was malformed or unrenderable."""


# ------------------------------------------------------------ load / fold
def load_report(path: str, row: Optional[int] = None) -> Dict[str, object]:
    """Load any saved artifact.

    Three shapes load:

    * a sweep telemetry dump (:func:`repro.workloads.sweep.
      dump_telemetry`) -- v1 predates the ``version`` field, which is
      stamped in place.  Without ``row`` the dump comes back whole, so
      its ``rows`` feed the row helpers of :mod:`repro.analysis.
      telemetry`; with ``row``, that row comes back as a run-report
      document that keeps the row's own ``attribution``;
    * a run report -- v1 (``{"meta", "metrics"}``, no version field) and
      v2 upgrade to the v3 shape with the newer sections empty;
    * a bare ``{"lifecycles": [...]}`` lifecycle dump.

    ``row`` is refused for anything but a sweep dump.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, ValueError) as error:
        raise ReportError(f"cannot read {path}: {error}") from None
    if isinstance(document, dict) and "rows" in document:
        version = document.setdefault("version", 1)
        if version > MAX_DUMP_VERSION:
            raise ReportError(
                f"{path} is a v{version} sweep dump; this tool understands "
                f"up to v{MAX_DUMP_VERSION}"
            )
        return document if row is None else _row_document(path, document, row)
    if not isinstance(document, dict) or not (
        "metrics" in document or "lifecycles" in document
    ):
        raise ReportError(
            f"{path} is not a run report, a sweep telemetry dump or a "
            "lifecycle dump"
        )
    if row is not None:
        raise ReportError(f"--row needs a sweep telemetry dump; {path} is not one")
    version = document.get("version", 1)
    if version > REPORT_VERSION:
        raise ReportError(
            f"{path} is a v{version} report; this tool understands "
            f"up to v{REPORT_VERSION}"
        )
    document.setdefault("version", version)
    document.setdefault("meta", {})
    document.setdefault("metrics", {})
    document.setdefault("timeline", None)
    document.setdefault("health", {"verdict": "healthy", "findings": []})
    document.setdefault("lifecycles", None)
    document.setdefault("fabric", None)
    return document


def _row_document(
    path: str, dump: Dict[str, object], index: int
) -> Dict[str, object]:
    """One sweep-dump row reshaped as a run-report document."""
    rows = dump["rows"]
    if not 0 <= index < len(rows):
        raise ReportError(
            f"--row {index} out of range ({len(rows)} rows in {path})"
        )
    entry = rows[index]
    meta = {"row": index}
    meta.update(
        (key, value)
        for key, value in entry.items()
        if isinstance(value, (str, int, float))
    )
    meta.update(entry.get("params") or {})
    return {
        "version": REPORT_VERSION,
        "meta": meta,
        "metrics": entry.get("metrics") or {},
        "timeline": None,
        "health": entry.get("health")
        or {"verdict": "healthy", "findings": []},
        "lifecycles": None,
        "fabric": entry.get("fabric"),
        "attribution": entry.get("attribution"),
        "link_budgets": None,
    }


def fold(document: Dict[str, object]) -> Dict[str, object]:
    """The artifact plus the render-time folds of its lifecycles.

    Adds ``attribution`` (the :func:`~repro.analysis.attribution.
    attribute_run` report) and ``link_budgets`` (the per-link
    :func:`~repro.analysis.attribution.link_budgets`, when the
    lifecycles carry per-hop marks) when lifecycles rode along; a
    document without lifecycles keeps what it carries, else ``None``.
    Leaves the input untouched.
    """
    enriched = dict(document)
    enriched.setdefault("attribution", None)
    enriched.setdefault("link_budgets", None)
    lifecycles_obj = document.get("lifecycles")
    if lifecycles_obj:
        lifecycles = [MessageLifecycle.from_obj(o) for o in lifecycles_obj]
        enriched["link_budgets"] = link_budgets(lifecycles) or None
        try:
            enriched["attribution"] = attribute_run(lifecycles)
        except AttributionError:
            enriched["attribution"] = None  # no complete messages
    return enriched


def _folded(document: Dict[str, object]) -> Dict[str, object]:
    return document if "attribution" in document else fold(document)


# -------------------------------------------------------------- sparklines
def _resample(values: Sequence[float], width: int) -> List[float]:
    """Bucket-maximum resample down to at most ``width`` values."""
    if len(values) <= width:
        return list(values)
    out = []
    for bucket in range(width):
        lo = bucket * len(values) // width
        hi = max(lo + 1, (bucket + 1) * len(values) // width)
        out.append(max(values[lo:hi]))
    return out


def sparkline(values: Sequence[float], width: int = _SPARK_WIDTH) -> str:
    """A unicode block-glyph sparkline of a value sequence."""
    if not values:
        return ""
    values = _resample(values, width)
    low, high = min(values), max(values)
    if high == low:
        return _SPARK_GLYPHS[0] * len(values)
    scale = (len(_SPARK_GLYPHS) - 1) / (high - low)
    return "".join(
        _SPARK_GLYPHS[round((value - low) * scale)] for value in values
    )


def _series_rows(document: Dict[str, object]) -> List[Dict[str, object]]:
    """Per-series summary rows off the artifact's timeline section."""
    timeline_obj = document.get("timeline")
    if not timeline_obj:
        return []
    timeline = Timeline.from_obj(timeline_obj)
    rows = []
    for name in timeline.names():
        series = timeline.get(name)
        stat = series.default_stat
        values = [value for _, value in series.points(stat)]
        if not values:
            continue
        rows.append(
            {
                "name": name,
                "mode": series.mode,
                "stat": stat,
                "windows": len(series),
                "window_us": series.window_ps / 1e6,
                "span_us": series.span_ps() / 1e6,
                "min": min(values),
                "max": max(values),
                "last": values[-1],
                "values": values,
            }
        )
    return rows


# ---------------------------------------------------------- fabric render
def _node_coords(node: int, dims: Sequence[int]) -> Tuple[int, ...]:
    """Grid coordinates of ``node`` (dim 0 fastest, as in Topology)."""
    out = []
    for extent in dims:
        out.append(node % extent)
        node //= extent
    return tuple(out)


def node_heat(fabric: Dict[str, object]) -> Dict[int, float]:
    """Per-node heat: the hottest utilization of any incident channel.

    The quantity both heatmap renderings (text glyph grid, SVG node
    fill) color by, computed once here so they cannot disagree.
    """
    heat: Dict[int, float] = {
        node: 0.0 for node in range(fabric["topology"]["num_nodes"])
    }
    for link in fabric["links"]:
        for node in (link["src"], link["dst"]):
            if link["utilization"] > heat[node]:
                heat[node] = link["utilization"]
    return heat


def hottest_links(
    fabric: Dict[str, object], count: int = 8
) -> List[Dict[str, object]]:
    """The ``count`` busiest channels by utilization (ties: by name)."""
    return sorted(
        fabric["links"],
        key=lambda link: (-link["utilization"], link["name"]),
    )[:count]


def _heat_glyph(value: float, top: float) -> str:
    if top <= 0:
        return _SPARK_GLYPHS[0]
    scale = (len(_SPARK_GLYPHS) - 1) / top
    return _SPARK_GLYPHS[round(value * scale)]


def _heat_color(value: float, top: float) -> str:
    """Cold slate-blue to hot red, linear in ``value / top``."""
    fraction = 0.0 if top <= 0 else min(value / top, 1.0)
    red = round(74 + fraction * (197 - 74))
    green = round(85 + fraction * (48 - 85))
    blue = round(104 + fraction * (48 - 104))
    return f"#{red:02x}{green:02x}{blue:02x}"


def format_links(fabric: Dict[str, object]) -> str:
    """Fixed-width per-link table, hottest channels first."""
    links = sorted(
        fabric["links"],
        key=lambda link: (-link["utilization"], link["name"]),
    )
    if not links:
        return "no inter-node channels (single-node fabric)"
    name_width = max(len(link["name"]) for link in links)
    header = (
        f"{'link':<{name_width}} {'util':>6} {'msgs':>6} {'bytes':>10} "
        f"{'busy ps':>12} {'wait ps':>12} {'peak q':>6} {'faults':>6}"
    )
    lines = [header, "-" * len(header)]
    for link in links:
        faults = sum((link.get("faults") or {}).values())
        lines.append(
            f"{link['name']:<{name_width}} {link['utilization']:>6.1%} "
            f"{link['messages']:>6} {link['bytes']:>10} "
            f"{link['busy_ps']:>12} {link['wait_ps']:>12} "
            f"{link['peak_queue']:>6} {faults:>6}"
        )
    return "\n".join(lines)


def format_routes(fabric: Dict[str, object], limit: int = 24) -> str:
    """Per-pair traffic matrix, busiest routes first."""
    pairs = sorted(
        fabric["pairs"],
        key=lambda pair: (-pair["packets"], pair["src"], pair["dst"]),
    )
    if not pairs:
        return "no traffic"
    shown = pairs[:limit]
    header = f"{'route':<12} {'packets':>8} {'hops':>5}  path"
    lines = [header, "-" * len(header)]
    for pair in shown:
        path = " -> ".join(
            str(node) for node in [pair["src"]] + list(pair["route"])
        )
        lines.append(
            f"{pair['src']:>4} -> {pair['dst']:<4} {pair['packets']:>8} "
            f"{pair['hops']:>5}  {path}"
        )
    if len(pairs) > limit:
        lines.append(f"... {len(pairs) - limit} more pairs")
    return "\n".join(lines)


def format_budgets(budgets: Dict[str, Dict[str, int]]) -> str:
    """Per-link attribution table off the per-hop lifecycle marks."""
    if not budgets:
        return "no per-hop marks recorded (fabric observability off?)"
    name_width = max(len(name) for name in budgets)
    header = (
        f"{'link':<{name_width}} {'pkts':>6} {'bytes':>10} "
        f"{'wait ps':>12} {'serialize ps':>13} {'transit ps':>12} "
        f"{'delay ps':>10}"
    )
    lines = [header, "-" * len(header)]
    for name in sorted(
        budgets, key=lambda n: -budgets[n]["wait_ps"]
    ):
        entry = budgets[name]
        lines.append(
            f"{name:<{name_width}} {entry['packets']:>6} "
            f"{entry['bytes']:>10} {entry['wait_ps']:>12} "
            f"{entry['serialize_ps']:>13} {entry['transit_ps']:>12} "
            f"{entry['fault_delay_ps']:>10}"
        )
    totals = {
        key: sum(entry[key] for entry in budgets.values())
        for key in ("packets", "bytes", "wait_ps", "serialize_ps",
                    "transit_ps", "fault_delay_ps")
    }
    lines.append("-" * len(header))
    lines.append(
        f"{'total':<{name_width}} {totals['packets']:>6} "
        f"{totals['bytes']:>10} {totals['wait_ps']:>12} "
        f"{totals['serialize_ps']:>13} {totals['transit_ps']:>12} "
        f"{totals['fault_delay_ps']:>10}"
    )
    return "\n".join(lines)


def _fabric_text_lines(
    fabric: Dict[str, object],
    budgets: Optional[Dict[str, Dict[str, int]]] = None,
) -> List[str]:
    """The terminal fabric section: totals, faults, the hottest link,
    every link, routes, per-link budgets and the glyph heatmap."""
    topology = fabric["topology"]
    lines = [
        f"fabric: {topology['description']}",
        (
            f"  {fabric['packets_injected']} packets injected, "
            f"{fabric['packets_delivered']} delivered, "
            f"{fabric['hops_forwarded']} forwarded, "
            f"{fabric['wire_bytes']} wire bytes, "
            f"{fabric['in_flight']} in flight"
        ),
    ]
    if any(fabric["fault_totals"].values()):
        lines.append(
            "  faults: "
            + ", ".join(
                f"{kind} {count}"
                for kind, count in sorted(fabric["fault_totals"].items())
                if count
            )
        )
    if fabric["links"]:
        hottest = hottest_links(fabric, 1)[0]
        if hottest["utilization"] > 0:
            lines.append(
                f"  hottest link: {hottest['name']} "
                f"(utilization {hottest['utilization']:.1%}, "
                f"wait {hottest['wait_ps']} ps, "
                f"peak queue {hottest['peak_queue']})"
            )
    lines += ["", "per-link traffic", format_links(fabric)]
    lines += ["", "per-route traffic", format_routes(fabric)]
    if budgets:
        lines += [
            "",
            "per-link attribution (from per-hop lifecycle marks)",
            format_budgets(budgets),
        ]
    dims = topology.get("dims")
    if dims and fabric["links"]:
        heat = node_heat(fabric)
        peak = max(heat.values())
        extent_x = dims[0]
        extent_y = dims[1] if len(dims) > 1 else 1
        planes = 1
        for extent in dims[2:]:
            planes *= extent
        lines.append("")
        lines.append(
            f"node heatmap (glyph = hottest incident link, peak {peak:.1%}):"
        )
        for plane in range(planes):
            if planes > 1:
                lines.append(f"  z={plane}")
            for y in range(extent_y):
                row = []
                for x in range(extent_x):
                    node = x + extent_x * (y + extent_y * plane)
                    row.append(_heat_glyph(heat[node], peak))
                lines.append("    " + " ".join(row))
    return lines


_FABRIC_SVG_CELL = 72
_FABRIC_SVG_PAD = 40


def _fabric_svg(fabric: Dict[str, object]) -> str:
    """An inline-SVG topology heatmap (grid presets only).

    Planes of the (up to 3-D) grid render side by side; intra-plane
    channels draw as lines colored by utilization, nodes as circles
    filled by their hottest incident link; every element carries a
    ``<title>`` tooltip with the exact numbers, so the picture and the
    tables cannot disagree.
    """
    topology = fabric["topology"]
    dims = topology.get("dims")
    if not dims:
        return ""
    extent_x = dims[0]
    extent_y = dims[1] if len(dims) > 1 else 1
    planes = 1
    for extent in dims[2:]:
        planes *= extent
    cell, pad = _FABRIC_SVG_CELL, _FABRIC_SVG_PAD

    def position(node: int) -> Tuple[float, float]:
        coords = _node_coords(node, dims)
        x = coords[0]
        y = coords[1] if len(coords) > 1 else 0
        plane = 0
        stride = 1
        for c, extent in zip(coords[2:], dims[2:]):
            plane += c * stride
            stride *= extent
        return (
            pad + (x + plane * (extent_x + 1)) * cell,
            pad + y * cell,
        )

    width = pad * 2 + cell * (planes * (extent_x + 1) - 1)
    height = pad * 2 + cell * extent_y
    heat = node_heat(fabric)
    peak_util = max((link["utilization"] for link in fabric["links"]), default=0.0)
    parts = [
        f'<svg width="{width}" height="{height}" '
        'font-family="ui-monospace, monospace" font-size="11">'
    ]
    # channels first (under the nodes); wraparound and inter-plane links
    # would cross the picture, so only unit-distance intra-plane pairs
    # draw -- their numbers still appear in the per-link table
    for link in fabric["links"]:
        ax, ay = position(link["src"])
        bx, by = position(link["dst"])
        if abs(ax - bx) > cell or abs(ay - by) > cell or (ax, ay) == (bx, by):
            continue
        # offset the two directions of a pair so both stay visible
        dx, dy = (by - ay) / cell * 3, (bx - ax) / cell * 3
        color = _heat_color(link["utilization"], peak_util)
        stroke = 1.5 + (
            4.5 * link["utilization"] / peak_util if peak_util else 0.0
        )
        title = html_mod.escape(
            f"{link['name']}: utilization {link['utilization']:.1%}, "
            f"{link['messages']} msgs, {link['bytes']} bytes, "
            f"wait {link['wait_ps']} ps, peak queue {link['peak_queue']}"
        )
        parts.append(
            f'<line x1="{ax + dx:.0f}" y1="{ay + dy:.0f}" '
            f'x2="{bx + dx:.0f}" y2="{by + dy:.0f}" '
            f'stroke="{color}" stroke-width="{stroke:.1f}">'
            f"<title>{title}</title></line>"
        )
    peak_heat = max(heat.values(), default=0.0)
    for node in range(topology["num_nodes"]):
        x, y = position(node)
        color = _heat_color(heat[node], peak_heat)
        parts.append(
            f'<circle cx="{x:.0f}" cy="{y:.0f}" r="12" fill="{color}">'
            f"<title>node {node}: hottest incident link "
            f"{heat[node]:.1%}</title></circle>"
        )
        parts.append(
            f'<text x="{x:.0f}" y="{y + 4:.0f}" text-anchor="middle" '
            f'fill="#fff">{node}</text>'
        )
    parts.append("</svg>")
    return "".join(parts)


def _fabric_html_parts(fabric: Dict[str, object]) -> List[str]:
    """The HTML fabric section: totals, SVG heatmap, per-link table."""
    esc = html_mod.escape
    topology = fabric["topology"]
    parts = [
        "<h2>Fabric</h2>",
        f"<p>{esc(topology['description'])}: "
        f"{fabric['packets_injected']} packets injected, "
        f"{fabric['packets_delivered']} delivered, "
        f"{fabric['hops_forwarded']} forwarded, "
        f"{fabric['wire_bytes']} wire bytes.</p>",
    ]
    if any(fabric["fault_totals"].values()):
        parts.append(
            "<p>faults: "
            + ", ".join(
                f"{esc(kind)} {count}"
                for kind, count in sorted(fabric["fault_totals"].items())
                if count
            )
            + "</p>"
        )
    links = fabric["links"]
    if not links:
        return parts
    svg = _fabric_svg(fabric)
    if svg:
        parts.append(svg)
    top = hottest_links(fabric)
    if top[0]["utilization"] > 0:
        parts.append(
            f"<p>hottest link <span class='mono'>{esc(top[0]['name'])}"
            f"</span> at {top[0]['utilization']:.1%} utilization.</p>"
        )
    parts.append(
        "<table><thead><tr><th>link</th><th>util</th><th>msgs</th>"
        "<th>bytes</th><th>wait ps</th><th>peak queue</th><th>faults</th>"
        "</tr></thead><tbody>"
    )
    for link in top:
        faults = sum((link.get("faults") or {}).values())
        parts.append(
            f"<tr><td class='mono'>{esc(link['name'])}</td>"
            f"<td>{link['utilization']:.1%}</td>"
            f"<td>{link['messages']}</td><td>{link['bytes']}</td>"
            f"<td>{link['wait_ps']}</td><td>{link['peak_queue']}</td>"
            f"<td>{faults}</td></tr>"
        )
    parts.append("</tbody></table>")
    return parts


# ------------------------------------------------------------ text render
def queue_high_water(document: Dict[str, object]) -> List[Tuple[str, int]]:
    """Per-queue high-water marks from the metrics snapshot.

    Every NIC queue registers a ``<nic>.<queue>/max_depth`` collector;
    surfacing the marks answers the first capacity question a deep-queue
    run raises -- "how deep did the unexpected queue actually get?" --
    without digging through the raw JSON.
    """
    metrics = document.get("metrics") or {}
    marks = []
    for name, value in metrics.items():
        if name.endswith("/max_depth") and isinstance(value, (int, float)):
            marks.append((name[: -len("/max_depth")], int(value)))
    return sorted(marks)


def render_text(document: Dict[str, object]) -> str:
    """The terminal rendering of one (folded or raw) artifact."""
    document = _folded(document)
    meta = document.get("meta") or {}
    health = document.get("health") or {"verdict": "healthy", "findings": []}
    findings = health.get("findings", [])
    lines: List[str] = []
    title = "run report"
    if meta:
        title += " -- " + ", ".join(f"{k}={v}" for k, v in sorted(meta.items()))
    lines.append(title)
    lines.append("=" * min(len(title), 78))
    verdict = health.get("verdict", verdict_of(findings))
    lines.append(f"health: {verdict} ({len(findings)} finding(s))")
    for finding in findings:
        lines.append(
            f"  [{finding['severity']:>8}] {finding['code']}: "
            f"{finding['message']}"
        )
    rows = _series_rows(document)
    if rows:
        lines.append("")
        lines.append(f"timeline ({len(rows)} series)")
        name_width = max(len(row["name"]) for row in rows)
        for row in rows:
            lines.append(
                f"  {row['name']:<{name_width}} "
                f"{sparkline(row['values']):<{_SPARK_WIDTH}} "
                f"{row['stat']}: min {row['min']:g} max {row['max']:g} "
                f"last {row['last']:g} "
                f"({row['windows']} x {row['window_us']:g} us)"
            )
    fabric = document.get("fabric")
    if fabric:
        lines.append("")
        lines.extend(_fabric_text_lines(fabric, document.get("link_budgets")))
    attribution = document.get("attribution")
    if attribution:
        lines.append("")
        lines.append(format_report(attribution, title="latency attribution"))
    marks = queue_high_water(document)
    if marks:
        lines.append("")
        lines.append(f"queue high-water marks ({len(marks)} queues)")
        name_width = max(len(name) for name, _ in marks)
        for name, value in marks:
            lines.append(f"  {name:<{name_width}} max depth {value}")
    metrics = document.get("metrics") or {}
    lines.append("")
    lines.append(f"metrics snapshot: {len(metrics)} entries (see JSON)")
    return "\n".join(lines)


# ------------------------------------------------------------ html render
_SEVERITY_COLORS = {"info": "#2b6cb0", "warning": "#b7791f", "critical": "#c53030"}
_VERDICT_COLORS = {"healthy": "#2f855a", **_SEVERITY_COLORS}

_HTML_STYLE = """
body { font: 14px/1.5 system-ui, sans-serif; margin: 2em auto; max-width: 70em;
       color: #1a202c; padding: 0 1em; }
h1 { font-size: 1.4em; } h2 { font-size: 1.1em; margin-top: 2em; }
table { border-collapse: collapse; width: 100%; }
th, td { text-align: left; padding: .3em .6em; border-bottom: 1px solid #e2e8f0;
         font-variant-numeric: tabular-nums; }
th { background: #f7fafc; }
.verdict { display: inline-block; padding: .1em .6em; border-radius: 1em;
           color: #fff; font-weight: 600; }
.mono { font-family: ui-monospace, monospace; font-size: .95em; }
svg.spark { vertical-align: middle; }
"""


def _spark_svg(values: Sequence[float], width=160, height=28) -> str:
    """An inline-SVG sparkline polyline (self-contained, no scripts)."""
    values = _resample(values, _SPARK_WIDTH)
    if not values:
        return ""
    low, high = min(values), max(values)
    span = (high - low) or 1.0
    step = width / max(len(values) - 1, 1)
    points = " ".join(
        f"{i * step:.1f},{height - 2 - (v - low) / span * (height - 4):.1f}"
        for i, v in enumerate(values)
    )
    return (
        f'<svg class="spark" width="{width}" height="{height}">'
        f'<polyline fill="none" stroke="#3182ce" stroke-width="1.5" '
        f'points="{points}"/></svg>'
    )


def render_html(document: Dict[str, object]) -> str:
    """A self-contained HTML page for one (folded or raw) artifact."""
    document = _folded(document)
    esc = html_mod.escape
    meta = document.get("meta") or {}
    health = document.get("health") or {"verdict": "healthy", "findings": []}
    findings = health.get("findings", [])
    verdict = health.get("verdict", verdict_of(findings))
    color = _VERDICT_COLORS.get(verdict, "#4a5568")
    parts: List[str] = [
        "<!doctype html><html><head><meta charset='utf-8'>",
        "<title>run report</title>",
        f"<style>{_HTML_STYLE}</style></head><body>",
        "<h1>Run report "
        f"<span class='verdict' style='background:{color}'>{esc(verdict)}"
        "</span></h1>",
    ]
    if meta:
        parts.append("<table><tbody>")
        for key in sorted(meta):
            parts.append(
                f"<tr><th>{esc(str(key))}</th>"
                f"<td class='mono'>{esc(str(meta[key]))}</td></tr>"
            )
        parts.append("</tbody></table>")

    parts.append(f"<h2>Health findings ({len(findings)})</h2>")
    if findings:
        parts.append(
            "<table><thead><tr><th>severity</th><th>code</th><th>series</th>"
            "<th>window</th><th>message</th></tr></thead><tbody>"
        )
        for finding in findings:
            sev = finding["severity"]
            sev_color = _SEVERITY_COLORS.get(sev, "#4a5568")
            window = (
                f"{finding['start_ps'] / 1e6:g}-{finding['end_ps'] / 1e6:g} us"
                if finding.get("end_ps")
                else "end of run"
            )
            parts.append(
                f"<tr><td style='color:{sev_color};font-weight:600'>"
                f"{esc(sev)}</td>"
                f"<td class='mono'>{esc(finding['code'])}</td>"
                f"<td class='mono'>{esc(finding['series'])}</td>"
                f"<td>{esc(window)}</td>"
                f"<td>{esc(finding['message'])}</td></tr>"
            )
        parts.append("</tbody></table>")
    else:
        parts.append("<p>No watchdog fired.</p>")

    rows = _series_rows(document)
    if rows:
        parts.append(f"<h2>Timeline ({len(rows)} series)</h2>")
        parts.append(
            "<table><thead><tr><th>series</th><th>trajectory</th>"
            "<th>stat</th><th>min</th><th>max</th><th>last</th>"
            "<th>windows</th></tr></thead><tbody>"
        )
        for row in rows:
            parts.append(
                f"<tr><td class='mono'>{esc(row['name'])}</td>"
                f"<td>{_spark_svg(row['values'])}</td>"
                f"<td>{esc(row['stat'])}</td>"
                f"<td>{row['min']:g}</td><td>{row['max']:g}</td>"
                f"<td>{row['last']:g}</td>"
                f"<td>{row['windows']} &times; {row['window_us']:g} us</td>"
                "</tr>"
            )
        parts.append("</tbody></table>")

    fabric = document.get("fabric")
    if fabric:
        parts.extend(_fabric_html_parts(fabric))

    attribution = document.get("attribution")
    if attribution:
        agg = attribution["aggregate"]
        parts.append("<h2>Latency attribution</h2>")
        parts.append(
            f"<p>{agg['count']} messages, end-to-end mean "
            f"{agg['end_to_end']['mean_ns']:.1f} ns / p90 "
            f"{agg['end_to_end']['p90_ns']:.1f} ns; dominant stage "
            f"<span class='mono'>{esc(agg['dominant_stage'])}</span>.</p>"
        )
        parts.append(
            "<table><thead><tr><th>stage</th><th>mean ns</th><th>p50 ns</th>"
            "<th>p90 ns</th><th>max ns</th><th>share</th></tr></thead><tbody>"
        )
        for stage, entry in agg["stages"].items():
            parts.append(
                f"<tr><td class='mono'>{esc(stage)}</td>"
                f"<td>{entry['mean_ns']:.1f}</td><td>{entry['p50_ns']:.1f}</td>"
                f"<td>{entry['p90_ns']:.1f}</td><td>{entry['max_ns']:.1f}</td>"
                f"<td>{entry['share']:.1%}</td></tr>"
            )
        parts.append("</tbody></table>")

    marks = queue_high_water(document)
    if marks:
        parts.append(f"<h2>Queue high-water marks ({len(marks)})</h2>")
        parts.append(
            "<table><thead><tr><th>queue</th><th>max depth</th>"
            "</tr></thead><tbody>"
        )
        for name, value in marks:
            parts.append(
                f"<tr><td class='mono'>{esc(name)}</td>"
                f"<td>{value}</td></tr>"
            )
        parts.append("</tbody></table>")

    metrics = document.get("metrics") or {}
    parts.append(
        f"<h2>Metrics</h2><p>{len(metrics)} snapshot entries "
        "(full values in the JSON artifact).</p>"
    )
    parts.append("</body></html>")
    return "\n".join(parts)


def render_json(document: Dict[str, object]) -> str:
    """The folded artifact as indented JSON."""
    document = _folded(document)
    return json.dumps(document, indent=1, sort_keys=True)


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
        handle.write("\n")


def write_artifacts(
    document: Dict[str, object], directory, stem: str = "run_report"
) -> List[str]:
    """Write text/JSON/HTML renderings into ``directory``; returns paths."""
    os.makedirs(directory, exist_ok=True)
    folded = _folded(document)
    written = []
    for suffix, renderer in (
        (".txt", render_text),
        (".json", render_json),
        (".html", render_html),
    ):
        path = os.path.join(directory, stem + suffix)
        _write(path, renderer(folded))
        written.append(path)
    return written


# --------------------------------------------------------------- the CLI
def _params(params_cls: type, assignments: Sequence[str]):
    """``params_cls`` built from ``NAME=VALUE`` strings.

    Each value parses with :func:`ast.literal_eval`, falling back to the
    raw string; the dataclass validates the result.
    """
    fields = [field.name for field in dataclasses.fields(params_cls)]
    overrides: Dict[str, object] = {}
    for assignment in assignments:
        name, _, raw = assignment.partition("=")
        if name not in fields:
            raise ReportError(
                f"unknown --param {name!r} for {params_cls.__name__}; "
                f"valid fields: {', '.join(fields)}"
            )
        try:
            overrides[name] = ast.literal_eval(raw)
        except (ValueError, SyntaxError):
            overrides[name] = raw
    try:
        return params_cls(**overrides)
    except (TypeError, ValueError) as error:
        raise ReportError(
            f"{params_cls.__name__} rejects {overrides}: {error}"
        ) from None


def _run_live(
    benchmark: str, preset: str, assignments: Sequence[str]
) -> Dict[str, object]:
    """One registry run with every collector on; returns its report.

    Fabric observability (per-hop marks and the fabric snapshot) is on
    for workloads whose params carry a ``topology`` field.
    """
    # workloads import repro.analysis consumers; keep the dependency lazy
    from repro.obs.telemetry import Telemetry
    from repro.workloads.sweep import BENCHMARKS, nic_preset

    workload = BENCHMARKS[benchmark]
    params = _params(workload.params_cls, assignments)
    telemetry = Telemetry(
        tracing=False,
        lifecycle=True,
        timeline=True,
        health=True,
        fabric=hasattr(params, "topology"),
    )
    result = workload.run(nic_preset(preset), params, telemetry=telemetry)
    return telemetry.report(
        benchmark=benchmark,
        preset=preset,
        **dataclasses.asdict(params),
        median_ns=round(result.median_ns, 3),
    )


def _chrome_trace(document: Dict[str, object], source: str) -> Dict[str, object]:
    lifecycles_obj = document.get("lifecycles")
    if not lifecycles_obj:
        raise ReportError(f"--chrome needs lifecycles; {source} carries none")
    return to_chrome(
        lifecycles=[MessageLifecycle.from_obj(o) for o in lifecycles_obj]
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    from repro.workloads.sweep import BENCHMARKS, PRESETS

    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.report",
        description="Run one registry workload with every collector on, "
        "or load a saved artifact, and render its run report",
    )
    parser.add_argument(
        "--input",
        metavar="PATH",
        help="a saved run report, sweep telemetry dump or lifecycle dump; "
        "omit to run --benchmark live",
    )
    parser.add_argument(
        "--row",
        type=int,
        metavar="N",
        help="row of a sweep telemetry dump (default 0)",
    )
    parser.add_argument(
        "--benchmark", choices=tuple(BENCHMARKS), default="preposted"
    )
    parser.add_argument(
        "--preset", choices=PRESETS + ("hash",), default="baseline"
    )
    parser.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="set one field of the workload's params (repeatable)",
    )
    parser.add_argument(
        "--json", action="store_true", help="print JSON instead of text"
    )
    parser.add_argument(
        "--out", metavar="PATH", help="also write the JSON artifact"
    )
    parser.add_argument(
        "--html", metavar="PATH", help="also write the HTML rendering"
    )
    parser.add_argument(
        "--chrome",
        metavar="PATH",
        help="also write a per-message-track Chrome trace",
    )
    args = parser.parse_args(argv)

    try:
        if args.input:
            if args.param:
                raise ReportError("--param sets a live run; drop --input")
            document = load_report(args.input, args.row)
            if "rows" in document:  # a sweep dump without --row: row 0
                document = _row_document(args.input, document, 0)
        elif args.row is not None:
            raise ReportError("--row needs --input (a sweep telemetry dump)")
        else:
            document = _run_live(args.benchmark, args.preset, args.param)
        folded = fold(document)
        trace = _chrome_trace(folded, args.input or "the run") if args.chrome else None
    except ReportError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.html:
        _write(args.html, render_html(folded))
    if args.out:
        _write(args.out, render_json(folded))
    if trace is not None:
        write_chrome_trace(args.chrome, trace)
    print(render_json(folded) if args.json else render_text(folded))
    return 0


if __name__ == "__main__":
    sys.exit(main())
