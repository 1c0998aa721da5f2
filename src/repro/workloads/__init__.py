"""The benchmarks of Section V-A and the harness that runs them.

* :mod:`repro.workloads.pingpong` -- classic ping-pong latency/bandwidth
  (sanity check and quickstart example).
* :mod:`repro.workloads.preposted` -- the posted-receive-queue benchmark
  of [10]: three degrees of freedom (queue length, portion of the queue
  traversed, message size).  Regenerates Figure 5.
* :mod:`repro.workloads.unexpected` -- the unexpected-message-queue
  benchmark of [10]: queue length and message size, with the time to post
  the measuring receive *included* in the latency.  Regenerates Figure 6.
* :mod:`repro.workloads.halo` -- many-rank nearest-neighbour halo
  exchange plus a per-iteration allreduce, the workload that exercises
  the routed topologies (ring/mesh2d/torus3d) beyond two ranks.
* :mod:`repro.workloads.storm`, :mod:`~repro.workloads.alltoall` and
  :mod:`~repro.workloads.multijob` -- the queue-discipline stressors.
* :mod:`repro.workloads.result` -- the :class:`Result` base every
  workload run returns.
* :mod:`repro.workloads.sweep` -- the workload registry and the generic
  grid-sweep executor: declarative :class:`~repro.workloads.sweep.SweepSpec`
  grids shaped into generic :class:`~repro.workloads.sweep.Row` s,
  optional process fan-out, provenance-keyed result caching, the
  telemetry dump, plus the configuration presets (baseline NIC, 128-entry
  ALPU, 256-entry ALPU).
* :mod:`repro.workloads.smoke` -- the CI smoke checks, one declarative
  table run with ``python -m repro.workloads.smoke``.
"""

from repro.workloads.halo import HaloParams, HaloResult, run_halo
from repro.workloads.pingpong import PingPongParams, run_pingpong
from repro.workloads.preposted import PrepostedParams, PrepostedResult, run_preposted
from repro.workloads.result import Result
from repro.workloads.unexpected import (
    UnexpectedParams,
    UnexpectedResult,
    run_unexpected,
)
from repro.workloads.sweep import (
    dump_telemetry,
    nic_preset,
    PRESETS,
    Row,
    run_sweep,
    SweepCache,
    SweepSpec,
    telemetry_report,
)

__all__ = [
    "HaloParams",
    "HaloResult",
    "run_halo",
    "PingPongParams",
    "run_pingpong",
    "PrepostedParams",
    "PrepostedResult",
    "run_preposted",
    "Result",
    "UnexpectedParams",
    "UnexpectedResult",
    "run_unexpected",
    "dump_telemetry",
    "nic_preset",
    "PRESETS",
    "Row",
    "run_sweep",
    "SweepCache",
    "SweepSpec",
    "telemetry_report",
]
