"""The one result shape every workload run returns.

Each workload's ``run_*`` function returns a subclass of :class:`Result`
that adds only its own tallies.  The sweep executor reads nothing but
this base: ``median_ns`` becomes a row's ``latency_ns`` and
:meth:`Result.columns` its extra ``columns``.
"""

from __future__ import annotations

import dataclasses
import statistics
from typing import Dict, List, Optional


@dataclasses.dataclass(kw_only=True)
class Result:
    """The samples of one workload run."""

    #: the workload's params dataclass instance
    params: object
    #: the per-sample latencies the workload measures, in nanoseconds
    latencies_ns: List[float]
    #: metrics snapshot when the run carried a telemetry bundle
    metrics: Optional[Dict[str, object]] = None

    @property
    def median_ns(self) -> float:
        return statistics.median(self.latencies_ns)

    @property
    def mean_ns(self) -> float:
        return statistics.fmean(self.latencies_ns)

    def columns(self) -> Dict[str, object]:
        """Workload-specific sweep-row columns beside the latency."""
        return {}
