"""Host speed, measured with a fixed reference workload.

The benchmark's host shares its cores: the same code runs up to two times
slower for minutes at a time, and CPU time slows with wall time, so the
cause is the host's speed, not scheduling. A run therefore interleaves a
fixed amount of reference work with its rounds and reports its timings at
``NOMINAL_UNITS_PER_S``: every time is scaled by the host's measured speed
over that nominal speed, and every rate by the inverse.

The reference is benchmark code of the same kind as the program (small
objects with slots, dicts, sets, tuples, sorting, hashing, ``repr``) and
never calls the program, so a change to the program moves the program's
figures and leaves the reference alone. The cyclic garbage collector is
off while the reference runs, so the live heap the program leaves behind
does not change the reference's cost.
"""

from __future__ import annotations

import gc
import time

# Reference units per second that define the nominal host: about the median
# rate on a shared 2-core Xeon with Python 3.11.7, where measured rates ranged
# from about 560 to 970.
NOMINAL_UNITS_PER_S = 600.0


class _Node:
    __slots__ = ("key", "refs", "clock")

    def __init__(self, key: int):
        self.key = key
        self.refs: set = set()
        self.clock: dict = {}


def reference_unit() -> int:
    """One unit of reference work; the nominal host runs
    ``NOMINAL_UNITS_PER_S`` of them a second."""
    nodes = {i: _Node(i) for i in range(64)}
    x = 12345
    acc = 0
    for step in range(400):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        a, b = nodes[x % 64], nodes[(x >> 8) % 64]
        a.refs.add(b.key)
        if len(a.refs) > 6:
            a.refs.discard(min(a.refs))
        a.clock[b.key] = a.clock.get(b.key, 0) + 1
        if step % 16 == 0:
            acc ^= hash(tuple(sorted((k, tuple(sorted(n.refs))) for k, n in nodes.items() if n.refs)))
            acc ^= len(repr(sorted(a.clock.items())))
    return acc


def units_per_s(units: int) -> float:
    """Run ``units`` reference units and return the rate they ran at."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(units):
            reference_unit()
        return units / (time.perf_counter() - start)
    finally:
        if was_enabled:
            gc.enable()
