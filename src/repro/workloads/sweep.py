"""Declarative grid sweeps over the workload registry.

:data:`BENCHMARKS` maps each workload name to its params class and run
function (every run returns a :class:`~repro.workloads.result.Result`).
One :class:`SweepSpec` names a benchmark, the receiver presets, and the
parameter axes; :func:`run_sweep` expands the grid (preset-major, then
axis-major) and runs every point, either serially or fanned out across
worker processes, shaping each into one generic :class:`Row`.

Every point is one self-contained simulation, so points are
embarrassingly parallel *and* deterministic: the same spec produces
bit-identical rows whether ``workers`` is ``None`` or 8 (pinned by
test).  A :class:`SweepCache` keyed on the resolved configuration and
a fingerprint of the simulator source short-circuits repeats without
re-simulating.

The three receiver presets of the paper's comparison live here too
(:data:`PRESETS` / :func:`nic_preset`): the baseline NIC (embedded
processor only, Red Storm-like), and the same NIC with 128- or
256-entry ALPUs.  :func:`dump_telemetry` writes a sweep's rows as the
JSON report :mod:`repro.analysis.telemetry` loads.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import itertools
import json
import multiprocessing
import os
import pathlib
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.attribution import attribute_run
from repro.network.faults import FaultConfig
from repro.nic.nic import NicConfig
from repro.nic.qdisc import QdiscConfig
from repro.nic.reliability import ReliabilityConfig
from repro.obs.telemetry import Telemetry
from repro.workloads.alltoall import AlltoallParams, run_alltoall
from repro.workloads.halo import HaloParams, run_halo
from repro.workloads.multijob import MultijobParams, run_multijob
from repro.workloads.preposted import PrepostedParams, run_preposted
from repro.workloads.result import Result
from repro.workloads.storm import StormParams, run_storm
from repro.workloads.unexpected import UnexpectedParams, run_unexpected

#: the three receiver configurations of Figures 5 and 6
PRESETS = ("baseline", "alpu128", "alpu256")


def nic_preset(name: str, *, block_size: int = 16) -> NicConfig:
    """Build one of the paper's receiver configurations by name.

    Beyond the three Figure 5/6 presets (:data:`PRESETS`), ``"hash"``
    builds the Section II hash-table ablation NIC so sweeps and the
    benchmark baseline can cover it with the same plumbing.
    """
    if name == "baseline":
        return NicConfig.baseline()
    if name == "hash":
        return NicConfig.with_backend("hash")
    if name == "alpu128":
        return NicConfig.with_alpu(total_cells=128, block_size=block_size)
    if name == "alpu256":
        return NicConfig.with_alpu(total_cells=256, block_size=block_size)
    raise ValueError(
        f"unknown preset {name!r}; expected one of {PRESETS + ('hash',)}"
    )


@dataclasses.dataclass(frozen=True)
class Workload:
    """One registry entry: the params class and the run function.

    ``run(nic, params, *, telemetry, faults, topology)`` returns a
    :class:`~repro.workloads.result.Result` subclass.
    """

    params_cls: type
    run: Callable[..., Result]


BENCHMARKS: Dict[str, Workload] = {
    "preposted": Workload(PrepostedParams, run_preposted),
    "unexpected": Workload(UnexpectedParams, run_unexpected),
    "halo": Workload(HaloParams, run_halo),
    "storm": Workload(StormParams, run_storm),
    "alltoall": Workload(AlltoallParams, run_alltoall),
    "multijob": Workload(MultijobParams, run_multijob),
}


@dataclasses.dataclass
class Row:
    """One sweep point: what ran, its median latency, and its extras."""

    benchmark: str
    preset: str
    #: the point's full params kwargs (``params_cls(**params)`` rebuilds it)
    params: Dict[str, object]
    #: the run's ``median_ns``
    latency_ns: float
    #: the run's :meth:`~repro.workloads.result.Result.columns`
    columns: Dict[str, object]
    #: per-run metrics snapshot (sweeps with ``telemetry=True`` only)
    metrics: Optional[Dict[str, object]] = None
    #: per-stage latency attribution (sweeps with ``lifecycle=True`` only)
    attribution: Optional[Dict[str, object]] = None
    #: watchdog verdict+findings (``telemetry=True`` sweeps only):
    #: ``{"verdict": str, "findings": [HealthFinding.to_obj(), ...]}``
    health: Optional[Dict[str, object]] = None
    #: fabric snapshot (sweeps with ``fabric=True`` only): per-link
    #: traffic/contention tallies plus the route table, rendered by
    #: ``python -m repro.analysis.report --input DUMP --row N``
    fabric: Optional[Dict[str, object]] = None


@dataclasses.dataclass(frozen=True)
class SweepSpec:
    """A declarative benchmark grid.

    ``axes`` are ``(name, values)`` pairs swept with :func:`itertools.product`
    (first axis outermost), inside a preset-major outer loop; ``fixed``
    are ``(name, value)`` pairs held constant.  Together they must form a
    valid parameter set for the benchmark's params class.
    """

    benchmark: str
    presets: Tuple[str, ...]
    axes: Tuple[Tuple[str, Tuple], ...]
    fixed: Tuple[Tuple[str, object], ...] = ()
    telemetry: bool = False
    #: record per-message lifecycles and attach the folded stage-budget
    #: report (:func:`repro.analysis.attribution.attribute_run`) to each
    #: row's ``attribution`` field
    lifecycle: bool = False
    #: fabric observability: per-hop lifecycle marks (with
    #: ``lifecycle=True``), per-link queue/wait series (with
    #: ``telemetry=True``), and the fabric snapshot on each row's
    #: ``fabric`` field
    fabric: bool = False
    block_size: int = 16
    #: seeded fabric fault injection; setting it also enables the NIC
    #: reliability layer on every point (retransmission under loss)
    faults: Optional[FaultConfig] = None
    #: fabric topology preset for benchmarks that don't carry one in
    #: their params (``None`` keeps the crossbar default); the halo
    #: benchmark sweeps topology as a normal parameter axis instead
    topology: Optional[str] = None
    #: queue-discipline overlay applied to every point's NIC (``None``
    #: keeps each preset's default FIFO); admission control
    #: (``max_unexpected > 0``) also enables the reliability layer,
    #: which carries the refusal protocol
    qdisc: Optional[QdiscConfig] = None

    def __post_init__(self) -> None:
        if self.benchmark not in BENCHMARKS:
            raise ValueError(
                f"unknown benchmark {self.benchmark!r}; "
                f"expected one of {sorted(BENCHMARKS)}"
            )

    # ---------------------------------------------------------- convenience
    @staticmethod
    def preposted(
        presets: Sequence[str],
        queue_lengths: Iterable[int],
        fractions: Iterable[float],
        *,
        message_size: int = 0,
        iterations: int = 12,
        warmup: int = 3,
        telemetry: bool = False,
        lifecycle: bool = False,
        fabric: bool = False,
        faults: Optional[FaultConfig] = None,
    ) -> "SweepSpec":
        """The Figure 5 grid: preset x queue length x traverse fraction."""
        return SweepSpec(
            benchmark="preposted",
            presets=tuple(presets),
            axes=(
                ("queue_length", tuple(queue_lengths)),
                ("traverse_fraction", tuple(fractions)),
            ),
            fixed=(
                ("message_size", message_size),
                ("iterations", iterations),
                ("warmup", warmup),
            ),
            telemetry=telemetry,
            lifecycle=lifecycle,
            fabric=fabric,
            faults=faults,
        )

    @staticmethod
    def unexpected(
        presets: Sequence[str],
        queue_lengths: Iterable[int],
        *,
        message_size: int = 0,
        iterations: int = 12,
        warmup: int = 3,
        telemetry: bool = False,
        lifecycle: bool = False,
        fabric: bool = False,
        faults: Optional[FaultConfig] = None,
    ) -> "SweepSpec":
        """The Figure 6 grid: preset x queue length."""
        return SweepSpec(
            benchmark="unexpected",
            presets=tuple(presets),
            axes=(("queue_length", tuple(queue_lengths)),),
            fixed=(
                ("message_size", message_size),
                ("iterations", iterations),
                ("warmup", warmup),
            ),
            telemetry=telemetry,
            lifecycle=lifecycle,
            fabric=fabric,
            faults=faults,
        )

    @staticmethod
    def halo(
        presets: Sequence[str],
        ranks: Iterable[int],
        topologies: Iterable[str] = ("crossbar", "torus3d"),
        *,
        message_size: int = 512,
        iterations: int = 3,
        warmup: int = 1,
        telemetry: bool = False,
        lifecycle: bool = False,
        fabric: bool = False,
        faults: Optional[FaultConfig] = None,
    ) -> "SweepSpec":
        """The topology-comparison grid: preset x ranks x topology."""
        return SweepSpec(
            benchmark="halo",
            presets=tuple(presets),
            axes=(
                ("ranks", tuple(ranks)),
                ("topology", tuple(topologies)),
            ),
            fixed=(
                ("message_size", message_size),
                ("iterations", iterations),
                ("warmup", warmup),
            ),
            telemetry=telemetry,
            lifecycle=lifecycle,
            fabric=fabric,
            faults=faults,
        )

    # --------------------------------------------------------------- points
    def points(self) -> List[Tuple[str, Dict[str, object]]]:
        """Expand the grid into ``(preset, params kwargs)`` pairs.

        Deterministic legacy order: presets outermost, then the axes in
        declaration order via :func:`itertools.product`.
        """
        names = [name for name, _ in self.axes]
        value_lists = [values for _, values in self.axes]
        points = []
        for preset in self.presets:
            for combo in itertools.product(*value_lists):
                kwargs = dict(self.fixed)
                kwargs.update(zip(names, combo))
                points.append((preset, kwargs))
        return points


def resolve_nic(spec: SweepSpec, nic: NicConfig) -> NicConfig:
    """The NIC a point of ``spec`` actually runs on.

    Applies the spec's queue-discipline overlay and, for a lossy wire or
    admission control, turns on the link-level retransmission layer.
    Done per point, not on the shared preset NIC, so serial/parallel and
    fault/no-fault sweeps never leak state into each other; one replace,
    because ``NicConfig`` validates the qdisc/reliability combination at
    construction.
    """
    overrides: Dict[str, object] = {}
    if spec.qdisc is not None:
        overrides["qdisc"] = spec.qdisc
    needs_reliability = spec.faults is not None or (
        spec.qdisc is not None and spec.qdisc.max_unexpected > 0
    )
    if needs_reliability and not nic.reliability.enabled:
        overrides["reliability"] = ReliabilityConfig(enabled=True)
    return dataclasses.replace(nic, **overrides) if overrides else nic


@functools.lru_cache(maxsize=None)
def source_fingerprint() -> str:
    """sha256 over every ``repro`` source file, path and contents."""
    root = pathlib.Path(__file__).resolve().parents[1]
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode("utf-8"))
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


class SweepCache:
    """Content-addressed memo of sweep rows.

    Keys are sha256 hashes over what produced a point: the resolved
    :class:`NicConfig`, the spec's observability, fault and topology
    settings, the params, and the :func:`source_fingerprint`, so a
    changed configuration or a changed simulator re-runs the point.
    Backing store is in-memory, optionally mirrored to a JSON file: pass
    ``path`` to load it at construction and have :func:`run_sweep`
    persist after each sweep.
    """

    def __init__(self, path: Optional[str] = None) -> None:
        self.path = path
        self.hits = 0
        self.misses = 0
        self._rows: Dict[str, Dict[str, object]] = {}
        if path is not None and os.path.exists(path):
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
            self._rows = payload.get("rows", {})

    def __len__(self) -> int:
        return len(self._rows)

    @staticmethod
    def key(spec: SweepSpec, preset: str, params: Dict[str, object]) -> str:
        """The content hash of one grid point."""
        nic = resolve_nic(spec, nic_preset(preset, block_size=spec.block_size))
        payload = {
            "benchmark": spec.benchmark,
            "preset": preset,
            "nic": dataclasses.asdict(nic),
            "telemetry": spec.telemetry,
            "lifecycle": spec.lifecycle,
            "fabric": spec.fabric,
            "faults": (
                dataclasses.asdict(spec.faults) if spec.faults is not None else None
            ),
            "topology": spec.topology,
            "params": params,
            "source": source_fingerprint(),
        }
        # enum-valued ALPU settings serialize by name
        canonical = json.dumps(
            payload, sort_keys=True, separators=(",", ":"), default=str
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def get(self, key: str) -> Optional[Row]:
        """The cached row for ``key``, rebuilt, or None.

        An entry that no longer builds a :class:`Row` (a file written by
        an older row shape) counts as a miss and is re-simulated.
        """
        stored = self._rows.get(key)
        try:
            row = Row(**stored) if stored is not None else None
        except TypeError:
            row = None
        if row is None:
            self.misses += 1
        else:
            self.hits += 1
        return row

    def put(self, key: str, row: Row) -> None:
        self._rows[key] = dataclasses.asdict(row)

    def save(self) -> None:
        """Mirror the store to ``path`` atomically (no-op when in-memory)."""
        if self.path is None:
            return
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        tmp = f"{self.path}.{os.getpid()}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump({"rows": self._rows}, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, self.path)


def run_point(
    spec: SweepSpec,
    preset: str,
    params: Dict[str, object],
    *,
    nic: Optional[NicConfig] = None,
) -> Row:
    """Run one grid point through the registry and shape its row."""
    workload = BENCHMARKS[spec.benchmark]
    if nic is None:
        nic = nic_preset(preset, block_size=spec.block_size)
    bundle = (
        # telemetry sweeps also carry the windowed timeline and the
        # default watchdog battery, so every row gets a health verdict
        Telemetry(
            tracing=False,
            lifecycle=spec.lifecycle,
            timeline=spec.telemetry,
            health=spec.telemetry,
            fabric=spec.fabric,
        )
        if (spec.telemetry or spec.lifecycle or spec.fabric)
        else None
    )
    result = workload.run(
        resolve_nic(spec, nic),
        workload.params_cls(**params),
        telemetry=bundle,
        faults=spec.faults,
        topology=spec.topology,
    )
    health = None
    if spec.telemetry:
        health = {
            "verdict": bundle.health_verdict(),
            "findings": [f.to_obj() for f in bundle.health_findings()],
        }
    return Row(
        benchmark=spec.benchmark,
        preset=preset,
        params=dict(params),
        latency_ns=result.median_ns,
        columns=result.columns(),
        # a lifecycle-only bundle still snapshots metrics; keep rows
        # comparable by attaching them only when telemetry was asked for
        metrics=result.metrics if spec.telemetry else None,
        attribution=attribute_run(bundle.lifecycles()) if spec.lifecycle else None,
        health=health,
        fabric=bundle.fabric_snapshot() if spec.fabric else None,
    )


def _pool_entry(job: Tuple[SweepSpec, str, Dict[str, object]]) -> Row:
    """Module-level worker so both fork and spawn start methods pickle it."""
    spec, preset, params = job
    return run_point(spec, preset, params)


def _pool_context() -> multiprocessing.context.BaseContext:
    """Fork when the platform has it (cheap, no re-import); spawn otherwise."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context("spawn")


def run_sweep(
    spec: SweepSpec,
    *,
    workers: Optional[int] = None,
    cache: Optional[SweepCache] = None,
) -> List[Row]:
    """Run every point of the grid; rows come back in grid order.

    ``workers``: None/0/1 runs in-process (building each preset's NIC
    configuration once and reusing it across that preset's points);
    ``workers >= 2`` fans the points out over a process pool.  Either
    way the rows are identical -- each point is an isolated simulation.

    ``cache``: an optional :class:`SweepCache`; cached points are
    never re-simulated, fresh rows are stored back, and a file-backed
    cache is saved before returning.
    """
    points = spec.points()
    rows: List[Optional[Row]] = [None] * len(points)

    pending: List[Tuple[int, str, Dict[str, object], Optional[str]]] = []
    for index, (preset, params) in enumerate(points):
        key = None
        if cache is not None:
            key = SweepCache.key(spec, preset, params)
            rows[index] = cache.get(key)
            if rows[index] is not None:
                continue
        pending.append((index, preset, params, key))

    if pending and workers is not None and workers >= 2:
        jobs = [(spec, preset, params) for _, preset, params, _ in pending]
        with _pool_context().Pool(processes=workers) as pool:
            fresh = pool.map(_pool_entry, jobs)
        for (index, _, _, _), row in zip(pending, fresh):
            rows[index] = row
    elif pending:
        # serial path: one NicConfig per preset, shared across its points
        nics: Dict[str, NicConfig] = {}
        for index, preset, params, _ in pending:
            if preset not in nics:
                nics[preset] = nic_preset(preset, block_size=spec.block_size)
            rows[index] = run_point(spec, preset, params, nic=nics[preset])

    if cache is not None:
        for index, _, _, key in pending:
            cache.put(key, rows[index])
        cache.save()
    return rows


#: schema version of the sweep telemetry dump; v3 rows are the generic
#: :class:`Row` (``params`` dict plus ``columns``)
TELEMETRY_DUMP_VERSION = 3


def telemetry_report(rows: Iterable[Row], **meta: object) -> Dict[str, object]:
    """Bundle sweep rows (with their metrics snapshots) into one report.

    The shape matches what :mod:`repro.analysis.telemetry` loads back:
    ``{"version": 3, "meta": {...}, "rows": [{<row fields>,
    "metrics": {...}, "health": {...}}, ...]}``.
    """
    return {
        "version": TELEMETRY_DUMP_VERSION,
        "meta": dict(meta),
        "rows": [dataclasses.asdict(row) for row in rows],
    }


def dump_telemetry(rows: Iterable[Row], path: str, **meta: object) -> None:
    """Write the sweep's telemetry report as JSON.

    Parent directories are created as needed, so nested report paths
    like ``results/2026-08/fig5.json`` work without preparation.
    """
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(telemetry_report(rows, **meta), fh, indent=2, sort_keys=True)
        fh.write("\n")
