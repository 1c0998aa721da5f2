"""How fast the host runs Python right now, from a fixed calibration kernel.

The benchmark runs on a shared host whose speed drifts by a third over
minutes as other tenants come and go; every host-time metric drifts with
it.  The kernel here is a frozen piece of pure Python in the same style
as the simulator -- a heap of objects with a Python ``__lt__``, a small
discrete-event loop of generator processes that fill and search
unexpected queues, over a small and a large working set -- and nothing
under ``src/`` can change how long it takes.  Timing it between workload
repeats measures the host's current speed; :mod:`run` scales each
repeat's host times by ``NOMINAL_S`` over the kernel's time around it.

Never edit the kernel: its time is the unit every normalised figure is
given in, so a change here shifts every metric against older records.
"""

from __future__ import annotations

import gc
import heapq
import time

#: kernel seconds the normalised host times are scaled to (about its
#: median on the 2-vCPU host the bounds were set on)
NOMINAL_S = 0.120

#: what one pass of the kernel returns; anything else means it did other work
CHECKSUM = (49018, 19200, 15360)


class _Event:
    __slots__ = ("t", "k")

    def __init__(self, t: int, k: int) -> None:
        self.t = t
        self.k = k

    def __lt__(self, other: "_Event") -> bool:
        return self.t < other.t


def _heap_churn() -> int:
    heap, counts = [], {}
    for i in range(20000):
        heapq.heappush(heap, _Event((i * 7919) % 10007, i))
        if len(heap) > 64:
            event = heapq.heappop(heap)
            counts[event.k & 255] = counts.get(event.k & 255, 0) + 1
    return sum(k * v for k, v in counts.items()) % 65521


class _Msg:
    __slots__ = ("src", "tag", "size")

    def __init__(self, src: int, tag: int, size: int) -> None:
        self.src = src
        self.tag = tag
        self.size = size


class _Node:
    def __init__(self, rank: int) -> None:
        self.rank = rank
        self.unexpected = []
        self.matched = 0
        self.stats = {}

    def search(self, src: int, tag: int):
        queue = self.unexpected
        for i, msg in enumerate(queue):
            if msg.src == src and msg.tag == tag:
                del queue[i]
                return msg
        return None


def _process(node, nodes, rounds, depth):
    n = len(nodes)
    peer = nodes[(node.rank + 1) % n]
    for r in range(rounds):
        for j in range(depth):
            peer.unexpected.append(_Msg(node.rank, (r * depth + j) & 1023, 64))
        yield 5
        for j in reversed(range(depth)):
            msg = node.search((node.rank - 1) % n, (r * depth + j) & 1023)
            if msg is not None:
                node.matched += 1
                node.stats[msg.tag & 15] = node.stats.get(msg.tag & 15, 0) + msg.size
        yield 3


def _mini_des(n: int, rounds: int, depth: int) -> int:
    nodes = [_Node(i) for i in range(n)]
    heap = [(0, i, _process(nodes[i], nodes, rounds, depth)) for i in range(n)]
    heapq.heapify(heap)
    seq = n
    while heap:
        t, _, proc = heapq.heappop(heap)
        try:
            dt = next(proc)
        except StopIteration:
            continue
        seq += 1
        heapq.heappush(heap, (t + dt, seq, proc))
    return sum(node.matched for node in nodes)


def kernel() -> tuple:
    """One pass: heap churn, then the event loop on 8 and on 320 nodes."""
    return _heap_churn(), _mini_des(8, 100, 24), _mini_des(320, 2, 24)


def calibrate() -> float:
    """Seconds one pass of the kernel takes now, after a full collection."""
    gc.collect()
    t0 = time.perf_counter_ns()
    checksum = kernel()
    elapsed = time.perf_counter_ns() - t0
    if checksum != CHECKSUM:
        raise RuntimeError(f"calibration kernel returned {checksum}, expected {CHECKSUM}")
    return elapsed / 1e9
