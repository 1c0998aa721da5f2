"""A processor = clock domain + cost model + memory system.

:class:`Processor` is the execution substrate that firmware/host code
charges time against.  It does not fetch instructions; the Python code
*is* the program, and it calls :meth:`compute` / :meth:`touch` to account
for the cycles and memory stalls that the real instruction stream would
have cost.  Charges are accumulated and drawn down inside simulation
processes with ``yield delay(...)``.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.memory.system import MemorySystem
from repro.sim.component import ClockedComponent
from repro.sim.engine import Engine


class Processor(ClockedComponent):
    """Cycle/stall accounting for one processor."""

    def __init__(
        self,
        engine: Engine,
        name: str,
        clock_hz: float,
        memory: Optional[MemorySystem] = None,
    ) -> None:
        super().__init__(engine, name, clock_hz)
        self.memory = memory
        self.busy_ps = 0
        self.stall_ps = 0
        registry = engine.metrics
        if registry.enabled:
            registry.register_collector(f"{name}/busy_ps", lambda: self.busy_ps)
            registry.register_collector(
                f"{name}/stall_ps", lambda: self.stall_ps
            )
            if memory is not None:
                memory.register_collectors(registry, prefix=f"{name}.mem")

    # ------------------------------------------------------------- charging
    def compute(self, cycles: int) -> int:
        """Charge pure compute time; returns ps to be consumed via delay."""
        cost = self.cycles(cycles)
        self.busy_ps += cost
        return cost

    def touch(self, addr: int, size: int = 8, *, write: bool = False) -> int:
        """Charge a memory reference; returns the stall ps (0 on L1 hit)."""
        if self.memory is None:
            return 0
        stall = self.memory.access(addr, size, write=write)
        self.stall_ps += stall
        return stall

    def touch_each(self, addrs: Iterable[int], size: int) -> int:
        """Charge a read of ``size`` bytes at each address, in order.

        The batched :meth:`touch`: one call for a whole queue traversal,
        with the same stall and memory state as one touch per address.
        """
        if self.memory is None:
            return 0
        stall = self.memory.access_each(addrs, size)
        self.stall_ps += stall
        return stall
