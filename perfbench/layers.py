"""The simulator's layers, their entry points, and host time by layer.

Each layer is a package of ``repro``; its entry points are the methods
other layers (or the engine, as event handlers) call into.  The traced
pass replaces each of them on its class with a span-recording wrapper
(:mod:`spans`) and restores the originals afterwards, so the program
under test is never edited.  Constructors are wrapped too: inside
``MpiWorld.__init__`` their time is the set-up phase, split by layer.

``SKIPS`` names, per workload, the entry points it never reaches; a
traced run fails when any other entry point does not fire, and every
entry point must fire on at least one workload.  That catches a rename
in ``src`` that would otherwise unhook a layer silently.
"""

from __future__ import annotations

import importlib
import inspect
from typing import Dict, Iterable, List, Tuple

import numpy as np

from spans import SpanRecorder, inside, self_times, wrap_call, wrap_generator

#: layer -> [(module, class, methods)]; methods may be plain or generators
ENTRY_POINTS: Dict[str, List[Tuple[str, str, Tuple[str, ...]]]] = {
    "sim": [
        ("repro.sim.engine", "Engine", ("__init__", "step", "run")),
    ],
    "nic": [
        (
            "repro.nic.nic",
            "Nic",
            ("__init__", "deliver_host_command", "inject", "_on_packet_arrival",
             "_on_wire_packet"),
        ),
        ("repro.nic.firmware", "NicFirmware", ("__init__", "run", "record_traversal")),
        (
            "repro.nic.backends.listsearch",
            "ListSearchBackend",
            ("match_arrival", "consume_unexpected"),
        ),
        (
            "repro.nic.backends.alpumatch",
            "AlpuMatchBackend",
            ("match_arrival", "consume_unexpected", "update"),
        ),
        (
            "repro.nic.backends.base",
            "MatchBackend",
            ("post_receive", "note_unexpected", "retire", "software_search"),
        ),
        (
            "repro.nic.driver",
            "AlpuQueueDriver",
            ("__init__", "read_result", "take_matched_entry", "update"),
        ),
        (
            "repro.nic.alpu_device",
            "AlpuDevice",
            ("__init__", "hw_push_header", "bus_write_command", "bus_read_result", "_run"),
        ),
        (
            "repro.nic.queues",
            "NicQueue",
            ("__init__", "allocate_entry", "append", "remove", "search_candidates",
             "peek_software_suffix", "mark_alpu_mirrored"),
        ),
        ("repro.nic.qdisc", "AdmissionControl", ("__init__", "admits", "note_refused")),
        (
            "repro.nic.reliability",
            "ReliabilityLayer",
            ("__init__", "send", "on_wire_arrival", "_on_timeout", "_retransmit"),
        ),
        ("repro.nic.dma", "DmaEngine", ("__init__", "start")),
    ],
    "core": [
        ("repro.core.alpu", "Alpu", ("__init__", "present_header", "submit", "compact_step")),
    ],
    "mpi": [
        ("repro.mpi.world", "MpiWorld", ("__init__", "run")),
        ("repro.mpi.world", "Host", ("__init__", "send_command")),
        (
            "repro.mpi.api",
            "MpiProcess",
            ("init", "finalize", "isend", "irecv", "wait", "waitall", "send", "recv",
             "barrier", "allreduce"),
        ),
    ],
    "network": [
        (
            "repro.network.fabric",
            "Fabric",
            ("__init__", "inject", "_on_hop", "_forward", "_notify"),
        ),
    ],
    "memory": [
        # Cache is reached only through MemorySystem (same layer), so
        # spans on it would add tracing cost and no attribution
        ("repro.memory.system", "MemorySystem", ("__init__", "access")),
    ],
    "proc": [
        ("repro.proc.processor", "Processor", ("__init__", "compute", "touch")),
    ],
    "obs": [
        ("repro.obs.telemetry", "Telemetry", ("__init__", "snapshot", "health_findings")),
        ("repro.obs.tracer", "Tracer", ("begin", "end", "instant", "counter")),
        (
            "repro.obs.lifecycle",
            "LifecycleRecorder",
            ("begin", "mark_request", "label_request", "complete_request", "bind_uid",
             "alias_uid", "mark_uid", "annotate_uid", "watch_completion"),
        ),
        ("repro.obs.metrics", "Counter", ("inc",)),
        ("repro.obs.metrics", "Gauge", ("set",)),
        ("repro.obs.metrics", "Histogram", ("record",)),
        ("repro.obs.metrics", "MetricsRegistry", ("snapshot",)),
        ("repro.obs.timeline", "Series", ("observe",)),
        ("repro.obs.probe", "SamplingProbe", ("__init__", "_tick")),
        ("repro.obs.health", "HealthMonitor", ("evaluate",)),
    ],
}

#: the span that opens the set-up phase
SETUP_ENTRY = "MpiWorld.__init__"
#: the span around every event the engine executes
EVENT_ENTRY = "Engine.step"
#: span name of the workload's own rank programs (wrapped per run)
APP_ENTRY = "rank_program"
APP_LAYER = "app"

LAYER_NAMES = tuple(ENTRY_POINTS) + (APP_LAYER,)

_OBS = {f"{cls}.{m}" for _, cls, methods in ENTRY_POINTS["obs"] for m in methods}
#: reached only by the ALPU NIC and the many-rank collectives of halo64
_HALO_ONLY = {
    "AlpuMatchBackend.match_arrival", "AlpuMatchBackend.consume_unexpected",
    "AlpuMatchBackend.update", "AlpuQueueDriver.__init__", "AlpuQueueDriver.read_result",
    "AlpuQueueDriver.take_matched_entry", "AlpuQueueDriver.update", "AlpuDevice.__init__",
    "AlpuDevice.hw_push_header", "AlpuDevice.bus_write_command", "AlpuDevice.bus_read_result",
    "AlpuDevice._run", "Alpu.__init__", "Alpu.present_header", "Alpu.submit",
    "Alpu.compact_step", "NicQueue.peek_software_suffix", "NicQueue.mark_alpu_mirrored",
    "MpiProcess.barrier", "MpiProcess.allreduce", "Fabric._forward",
}
#: reached only with the reliability layer and admission control on
_STORM_ONLY = {
    "Nic._on_wire_packet", "AdmissionControl.__init__", "AdmissionControl.admits",
    "AdmissionControl.note_refused", "ReliabilityLayer.__init__", "ReliabilityLayer.send",
    "ReliabilityLayer.on_wire_arrival", "ReliabilityLayer._on_timeout",
    "ReliabilityLayer._retransmit",
}
_LIST_ONLY = {"ListSearchBackend.match_arrival", "ListSearchBackend.consume_unexpected"}

#: workload -> entry points it never reaches
SKIPS: Dict[str, set] = {
    "halo64": _OBS | _STORM_ONLY | _LIST_ONLY
    | {"MatchBackend.note_unexpected", "MpiProcess.send", "MpiProcess.recv"},
    "deepq": _OBS | _STORM_ONLY | _HALO_ONLY | {"DmaEngine.start", "MpiProcess.waitall"},
    "storm": _HALO_ONLY | {"DmaEngine.start", "MpiProcess.send", "MpiProcess.recv"},
}


def entry_names() -> List[str]:
    """Every wrapped entry point as ``Class.method``, plus the rank programs."""
    return [
        f"{cls}.{method}"
        for specs in ENTRY_POINTS.values()
        for _, cls, methods in specs
        for method in methods
    ] + [APP_ENTRY]


def expected_entries(workload: str) -> set:
    """Entry points a traced run of ``workload`` must reach."""
    return set(entry_names()) - SKIPS[workload]


#: ``Class.method`` -> layer
LAYER_OF: Dict[str, str] = {
    f"{cls}.{method}": layer
    for layer, specs in ENTRY_POINTS.items()
    for _, cls, methods in specs
    for method in methods
}
LAYER_OF[APP_ENTRY] = APP_LAYER


class Instrumented:
    """Context manager: every entry point wrapped with spans into ``rec``.

    Originals are restored on exit, also when the run raised.
    """

    def __init__(self, rec: SpanRecorder) -> None:
        self.rec = rec
        self._saved: List[Tuple[type, str, object]] = []

    def __enter__(self) -> "Instrumented":
        try:
            for specs in ENTRY_POINTS.values():
                for module, cls_name, methods in specs:
                    cls = getattr(importlib.import_module(module), cls_name)
                    for method in methods:
                        self._wrap(cls, method)
            self._wrap_programs()
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _wrap(self, cls: type, method: str) -> None:
        if method not in cls.__dict__:
            raise AttributeError(f"{cls.__qualname__}.{method} is gone")
        original = cls.__dict__[method]
        name = f"{cls.__qualname__}.{method}"
        wrapper = wrap_generator if inspect.isgeneratorfunction(original) else wrap_call
        self._saved.append((cls, method, original))
        setattr(cls, method, wrapper(original, name, self.rec))

    def _wrap_programs(self) -> None:
        """Span each rank program's resumes as the ``app`` layer."""
        from repro.mpi.world import MpiWorld

        rec = self.rec
        run = MpiWorld.run

        def run_spanned(world, programs, **kwargs):
            wrapped = {
                rank: wrap_generator(program, APP_ENTRY, rec)
                for rank, program in programs.items()
            }
            return run(world, wrapped, **kwargs)

        self._saved.append((MpiWorld, "run", run))
        MpiWorld.run = run_spanned

    def _restore(self) -> None:
        while self._saved:
            cls, method, original = self._saved.pop()
            setattr(cls, method, original)


def attribute(rec: SpanRecorder, wall_ns: int) -> Dict[str, object]:
    """Host time by layer for one traced run of ``wall_ns`` nanoseconds.

    Returns self nanoseconds per layer (run phase), the set-up phase
    total and its split by layer, ``other`` (wall time no span covers)
    and call counts per entry point.  Raises
    ``ValueError`` if the layer self times plus ``other`` do not add up
    to the wall time exactly.
    """
    entry, parent, start, end = rec.columns()
    own = self_times(parent, start, end)
    names = rec.names
    layer_index = {layer: i for i, layer in enumerate(LAYER_NAMES)}
    span_layer = np.array([layer_index[LAYER_OF[n]] for n in names], dtype=np.int64)[entry]
    setup_id = names.index(SETUP_ENTRY) if SETUP_ENTRY in names else -1
    setup_rows = np.flatnonzero(entry == setup_id)
    in_setup = inside(start, end, [(start[r], end[r]) for r in setup_rows])
    run_ns = np.zeros(len(LAYER_NAMES), dtype=np.int64)
    setup_ns = np.zeros(len(LAYER_NAMES), dtype=np.int64)
    np.add.at(run_ns, span_layer[~in_setup], own[~in_setup])
    np.add.at(setup_ns, span_layer[in_setup], own[in_setup])
    roots = parent < 0
    covered = int((end[roots] - start[roots]).sum())
    other = wall_ns - covered
    total = int(run_ns.sum()) + int(setup_ns.sum()) + other
    if other < 0 or total != wall_ns:
        raise ValueError(
            f"layer self times + other = {total} ns, traced wall = {wall_ns} ns"
        )
    return {
        "run_ns": {layer: int(run_ns[i]) for layer, i in layer_index.items()},
        "setup_ns": {layer: int(setup_ns[i]) for layer, i in layer_index.items()},
        "other_ns": other,
        "calls": rec.call_counts(),
    }


def missing(expected: Iterable[str], calls: Dict[str, int]) -> List[str]:
    """Expected entry points that never fired."""
    return sorted(name for name in expected if not calls.get(name))


def counter_checks(world, calls: Dict[str, int]) -> List[str]:
    """Traced call counts must equal the simulator's own counters."""
    nics = world.nics
    pairs = {
        EVENT_ENTRY: world.engine.events_fired,
        "Fabric.inject": world.fabric.packets_injected,
        "AdmissionControl.note_refused": sum(
            n.admission.refused for n in nics if n.admission is not None
        ),
        "ReliabilityLayer._retransmit": sum(
            n.reliability.retransmits for n in nics if n.reliability is not None
        ),
    }
    return [
        f"{name} fired {calls.get(name, 0)} times, the program counted {count}"
        for name, count in pairs.items()
        if calls.get(name, 0) != count
    ]


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def layer_metrics(run, rec: SpanRecorder) -> Tuple[Dict[str, float], List[str]]:
    """Per-layer metrics of one traced run, and the traced-run check failures.

    Self times come from the spans; counts from traced calls, or from the
    simulator's own counters read off the finished world.  Events per
    second and the tracing overhead need the untraced runs and are added
    by the caller.
    """
    try:
        split = attribute(rec, run.wall_ns)
    except ValueError as err:
        return {}, [f"self-time arithmetic: {err}"]
    calls = split["calls"]
    failures = counter_checks(run.world, calls)
    absent = missing(expected_entries(run.case), calls)
    if absent:
        failures.append(f"entry points that never fired: {absent}")
    def layer_calls(layer: str, prefix: str = "") -> int:
        return sum(
            count
            for name, count in calls.items()
            if LAYER_OF[name] == layer and name.startswith(prefix) and not name.endswith("__init__")
        )

    world = run.world
    nics = world.nics
    refused = sum(n.admission.refused for n in nics if n.admission is not None)
    alpus = [device.alpu for n in nics for device in n.alpu_devices]
    l1s = [proc.memory.l1 for proc in [n.proc for n in nics] + [h.proc for h in world.hosts]]
    metrics = {
        "sim.events": run.events,
        "nic.calls": layer_calls("nic"),
        "nic.entries_traversed": sum(n.firmware.entries_traversed for n in nics),
        "nic.unexpected_max_depth": max(n.unexpected_q.max_length for n in nics),
        "nic.refused": refused,
        "nic.admit_ratio": _ratio(run.delivered, run.delivered + refused),
        "nic.retransmits": calls.get("ReliabilityLayer._retransmit", 0),
        "core.headers": calls.get("Alpu.present_header", 0),
        "core.commands": calls.get("Alpu.submit", 0),
        "core.hit_ratio": _ratio(
            sum(a.stats.match_successes for a in alpus),
            sum(a.stats.matches_attempted for a in alpus),
        ),
        "mpi.calls": layer_calls("mpi", "MpiProcess."),
        "network.packets": calls.get("Fabric.inject", 0),
        "memory.accesses": calls.get("MemorySystem.access", 0),
        "memory.hit_rate": _ratio(sum(c.hits for c in l1s), sum(c.accesses for c in l1s)),
        "proc.compute_calls": calls.get("Processor.compute", 0),
        "setup.self_s": sum(split["setup_ns"].values()) / 1e9,
        "other.self_s": split["other_ns"] / 1e9,
    }
    for layer, ns in split["run_ns"].items():
        metrics[f"{layer}.self_s"] = ns / 1e9
    for layer, ns in split["setup_ns"].items():
        if layer != APP_LAYER:  # rank programs start after set-up
            metrics[f"setup.{layer}_s"] = ns / 1e9
    return metrics, failures
