"""A host clock scaled to a fixed reference speed.

A shared host runs one process at speeds that change by up to 1.8x
within a second and stay changed for seconds at a time, with CPU time
tracking wall time (the process is slowed, not descheduled).  Timing
the simulator on the raw clock then measures the host more than the
code: the slices of one run, all on one seed, differed by up to 47%
in requests per second.

:func:`start` arms a timer that interrupts the process every
``PERIOD_S`` seconds and times a fixed loop of interpreter work
(:func:`_loop`).  The median of the last ``WINDOW`` samples gives the
host's current speed, and :func:`now` advances at ``speed /
REF_LOOPS_PER_S`` reference seconds per host second: a clock that reads
what a host running the loop at ``REF_LOOPS_PER_S`` iterations per
second would read.  The loop's own time is left out of the clock.  A
change to the simulator moves the scaled timings as it moves the raw
ones; the loop lives here and no change under ``src/`` can move it.

Before :func:`start` and after :func:`stop`, :func:`now` is
``time.perf_counter``.
"""

from __future__ import annotations

import random
import signal
import statistics
import time
from collections import deque
from heapq import heappop, heappush
from typing import Deque, Dict, Optional

#: host seconds between two speed samples
PERIOD_S = 0.025
#: iterations of the reference loop in one sample (about 0.5 ms)
LOOP_N = 400
#: samples whose median is the current speed
WINDOW = 5
#: the reference speed, in loop iterations per second
REF_LOOPS_PER_S = 1.0e6
#: objects the loop walks.  A loop over 64 cached objects tracked the
#: interpreter's speed but missed the cache and memory contention that
#: also slows the simulator, whose slice times moved only 0.5 to 0.75
#: times as much as the loop's.  Over 16,384 objects (about 2 MiB with
#: their table) the two moved 1:1.
NODES = 16384
#: bound on the loop's heap
HEAP = 256


class _Node:
    __slots__ = ("n", "next")

    def __init__(self) -> None:
        self.n = 0
        self.next: Optional[_Node] = None


def _ring(n: int) -> Dict[int, _Node]:
    """``n`` nodes linked into one cycle in a fixed shuffled order,
    keyed by spread-out integers."""
    nodes = [_Node() for _ in range(n)]
    order = list(range(n))
    random.Random(1).shuffle(order)
    for a, b in zip(order, order[1:] + order[:1]):
        nodes[a].next = nodes[b]
    return {i * 7919: node for i, node in enumerate(nodes)}


_TABLE = _ring(NODES)
_FIRST = _TABLE[0]


def _loop(n: int) -> int:
    """Interpreter work of the simulator's kind over a working set of
    its size: a pointer chase, dict lookups, attribute writes and heap
    pushes and pops."""
    heap: list = []
    acc = 0
    node = _FIRST
    for i in range(n):
        node = node.next
        node.n = (node.n + i) & 0xFFFF
        acc = (acc + _TABLE[(i * 37 + acc) % NODES * 7919].n) & 1023
        heappush(heap, (acc, i))
        if len(heap) > HEAP:
            heappop(heap)
    return acc


class _Clock:
    def __init__(self) -> None:
        self.samples: Deque[float] = deque(maxlen=WINDOW)
        #: (offset, factor): the clock reads offset + factor * host time,
        #: one tuple so that a sample cannot land between the two reads
        self.state = (0.0, 1.0)
        self.loop_s = 0.0
        self.factors: list = []
        self.prev_handler = None

    def now(self) -> float:
        offset, factor = self.state
        return offset + factor * time.perf_counter()

    def sample(self, *_args) -> None:
        t0 = time.perf_counter()
        offset, factor = self.state
        at_t0 = offset + factor * t0
        _loop(LOOP_N)
        t1 = time.perf_counter()
        self.loop_s += t1 - t0
        self.samples.append(t1 - t0)
        factor = LOOP_N / statistics.median(self.samples) / REF_LOOPS_PER_S
        self.factors.append(factor)
        # the clock stands still while the loop runs
        self.state = (at_t0 - factor * t1, factor)


_clock: Optional[_Clock] = None


def now() -> float:
    """Reference seconds since an arbitrary origin."""
    return time.perf_counter() if _clock is None else _clock.now()


def start() -> None:
    """Calibrate and arm the sampling timer."""
    global _clock
    if _clock is not None:
        raise RuntimeError("hostspeed already started")
    c = _Clock()
    _loop(LOOP_N)             # warm the loop's code
    for _ in range(WINDOW):
        c.sample()
    c.prev_handler = signal.signal(signal.SIGALRM, c.sample)
    signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
    _clock = c


def stop() -> dict:
    """Disarm the timer; return what the sampling saw."""
    global _clock
    c = _clock
    if c is None:
        return {}
    signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
    signal.signal(signal.SIGALRM, c.prev_handler)
    _clock = None
    q = statistics.quantiles(c.factors, n=4)
    return {
        "speed_samples": len(c.factors),
        "speed_loop_s": round(c.loop_s, 3),
        "speed_quartiles": [round(x, 4) for x in q],
    }
