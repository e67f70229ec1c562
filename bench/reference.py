"""A fixed pure-Python loop that tracks the machine's speed.

The shared machine the benchmark was tuned on switches between a fast and a
slow speed, about 1.5x apart, for seconds to minutes at a time; a 30 s run
can meet only the slow one. The benchmark times this loop next to every
timed call and reports each time at the speed where the loop takes
REFERENCE_S, which cancels most of that drift. The loop does not touch the
program, so a change to the program moves the reported times and not the
loop.
"""

from __future__ import annotations

import statistics
import time

REFERENCE_S = 0.001  # reported times are at the speed where reference() takes this


class _Cell:
    __slots__ = ("key", "name")

    def __init__(self, key: int, name: str):
        self.key = key
        self.name = name


def reference() -> float:
    """Seconds taken by a loop of the kind of work the analyzer does:
    small objects, tuple-keyed dicts, frozenset hashing and sorting. It takes
    0.6 to 1 ms on the 2-vCPU machine the benchmark was tuned on."""
    start = time.perf_counter()
    cells = [_Cell(i, str(i)) for i in range(600)]
    table = {(cell.key, cell.name): cell for cell in cells}
    digest = 0
    for shift in range(6):
        digest ^= hash(frozenset((cell.name, cell.key + shift) for cell in cells[::3]))
        sorted(table, key=lambda pair: pair[1])
    return time.perf_counter() - start


def at_reference_speed(seconds: list[float], refs: list[float]) -> list[float]:
    """Each time in `seconds` at the speed where reference() takes
    REFERENCE_S. `refs[i]` and `refs[i + 1]` were timed right before and
    after `seconds[i]`; the machine's speed around it is the median of the
    four reference times nearest to it."""
    return [t * REFERENCE_S / statistics.median(refs[max(0, i - 1):i + 3])
            for i, t in enumerate(seconds)]
