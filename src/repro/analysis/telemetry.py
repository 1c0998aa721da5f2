"""Query the telemetry reports the sweep runner writes.

:func:`repro.workloads.sweep.dump_telemetry` serializes sweep rows plus
their per-run metrics snapshots, and :func:`repro.analysis.report.
load_report` reads that JSON back; these helpers pull out of its
``rows`` the quantities the analysis layer cares about -- a named metric
across the sweep, the mean of a sampled histogram (queue depth, ALPU
occupancy) per row, or the rows with a given watchdog finding.

Snapshot value shapes (see :meth:`repro.obs.MetricsRegistry.snapshot`):
counters flatten to a number; gauges to ``{"value", "high_water"}``;
histograms to ``{"count", "sum", "min", "max", "mean", "buckets"}``.

Dumps are versioned: v1 predates the ``version`` field and carries no
health data, v2 rows also hold ``health`` (``{"verdict", "findings"}``)
from the watchdog battery, and v3 rows are the generic sweep ``Row``
(the point's ``params`` dict plus workload ``columns``).  The helpers
here read only ``metrics``, ``health`` and ``fabric``, which every
vintage shares, so the health helpers (:func:`row_verdict`,
:func:`healthy_rows`, :func:`rows_with_finding`) work on any of them.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.obs.health import has_finding


# ----------------------------------------------------------------- health
def row_verdict(row: Dict[str, object]) -> str:
    """The watchdog verdict of one row (``"healthy"`` when none rode)."""
    health = row.get("health")
    if not health:
        return "healthy"
    return health.get("verdict", "healthy")


def row_findings(row: Dict[str, object]) -> List[Dict[str, object]]:
    """The finding dicts of one row ([] when none rode)."""
    health = row.get("health")
    if not health:
        return []
    return list(health.get("findings", []))


def healthy_rows(rows: List[Dict[str, object]]) -> List[Dict[str, object]]:
    """Rows whose watchdogs stayed silent."""
    return [row for row in rows if row_verdict(row) == "healthy"]


def rows_with_finding(
    rows: List[Dict[str, object]], code: str
) -> List[Dict[str, object]]:
    """Rows carrying a finding with ``code`` (e.g. ``retransmit_storm``)."""
    return [row for row in rows if has_finding(row_findings(row), code)]


def metric_value(snapshot: Optional[Dict[str, object]], name: str):
    """One metric from a snapshot; None when absent or telemetry was off.

    Counters and collectors come back as plain numbers, gauges as their
    current value, histograms as their mean.
    """
    if not snapshot:
        return None
    entry = snapshot.get(name)
    if isinstance(entry, dict):
        if "mean" in entry:
            return entry["mean"]
        return entry.get("value")
    return entry


def metric_across_rows(rows: List[Dict[str, object]], name: str) -> List[object]:
    """The same metric from every row's snapshot, in row order."""
    return [metric_value(row.get("metrics"), name) for row in rows]


def histogram_stats(
    snapshot: Optional[Dict[str, object]], name: str
) -> Optional[Dict[str, object]]:
    """The full histogram entry for ``name``, or None if not a histogram."""
    if not snapshot:
        return None
    entry = snapshot.get(name)
    if isinstance(entry, dict) and "buckets" in entry:
        return entry
    return None


def mean_sampled_depth(
    snapshot: Optional[Dict[str, object]], queue_name: str
) -> Optional[float]:
    """Mean sampled depth of a NIC queue, e.g. ``"nic1.postedRecvQ"``."""
    stats = histogram_stats(snapshot, f"{queue_name}/depth_samples")
    if stats is None or not stats["count"]:
        return None
    return stats["mean"]
