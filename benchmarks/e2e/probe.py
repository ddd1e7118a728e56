"""Host-speed probe of the end-to-end benchmark.

A shared host runs the same code at different speeds from minute to minute:
other tenants take the caches, memory bandwidth and sibling hyperthreads,
and on a 2-CPU host that moved every timing of this benchmark by 10% to
2x.  This process measures that speed while the workloads run.  A few
milliseconds every quarter second, on each CPU in turn, it times a fixed
memory-bound pure-Python loop (random reads over a working set of a few
tens of MB; no repro code) by CPU time, so waiting for a CPU the workload
holds does not count, and prints one line per sample::

    <time.monotonic()> <cpu> <reads per CPU-second>

run.py scales each repeat's timings by the median rate during that repeat.
The memory-bound loop slows down in proportion with the workloads (a
log-log slope near 1 on the reference host) where a cache-resident loop
slows down twice as much as they do.  The probe exits when its parent does.

    python3 benchmarks/e2e/probe.py > samples.txt
"""

from __future__ import annotations

import os
import sys
import time

CELLS = 200_000
READS = 3_200  # per sample: a few milliseconds
PERIOD_S = 0.25


class Cell:
    __slots__ = ("a", "b", "c")

    def __init__(self, a: int):
        self.a = a
        self.b = a * 2
        self.c = (a, a + 1)


def main() -> int:
    cells = [Cell(i) for i in range(CELLS)]
    index = {i * 7: i for i in range(CELLS)}
    parent = os.getppid()
    cpus = sorted(os.sched_getaffinity(0))
    x = 12345
    while os.getppid() == parent:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            start = time.thread_time()
            total = 0
            for _ in range(READS):
                x = (x * 1103515245 + 12345) & 0x7FFFFFFF
                cell = cells[x % CELLS]
                total += cell.b + index.get(cell.a * 7, 0) + cell.c[1]
            rate = READS / (time.thread_time() - start)
            print(f"{time.monotonic()} {cpu} {rate}", flush=True)
        time.sleep(PERIOD_S)
    return 0


if __name__ == "__main__":
    sys.exit(main())
