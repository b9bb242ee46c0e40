"""A fixed reference task that tells how fast the machine runs Python right now.

On a shared host the speed of one core drifts by a third or more over
seconds to minutes, as other tenants load the cores and caches next to
it, so a run timed in a slow stretch reads slow although the program did
not change. The worker runs this task before every pass and after the
last, each time for half as long as a pass, so it samples the whole run.
``wall_s`` is the median pass time times ``REFERENCE_S`` over the median
time of this task in the same run: a stretch that slows both cancels
out, while a change to the program moves only the passes.

The task is the program's hot loops restated on fixed data: windows of
letter runs joined and counted in a Counter (as n-gram counting does),
and a scan of every digraph for each letter (as the partition's
involvement totals do). Its inputs come from a constant seed, so it does
the same work on every run, whatever the workload, seed or program
version. Nothing here imports layoutforge: a change to the program
cannot change this task.
"""

from __future__ import annotations

import random
import time
from collections import Counter

LETTERS = [chr(cp) for cp in range(0x0985, 0x09B9)]  # 52 Bangla code points
RUN_LETTERS = 100_000
# The task's wall time on the 2-core VM of the baseline in bench/README.md,
# rounded: wall_s is a pass's time at the speed where the task takes this.
REFERENCE_S = 0.25
# Seconds of reference task per second of pass. One run of the task varies
# by 10-20% from the next, as much as a pass does, so the task gets a good
# share of the run for its median to be as steady as the passes'.
READING_SHARE = 0.5


def _runs() -> list[str]:
    rng = random.Random("layoutforge-bench-calibration")
    weights = [1.0 / (rank + 4) for rank in range(len(LETTERS))]
    stream = "".join(rng.choices(LETTERS, weights=weights, k=RUN_LETTERS))
    runs, pos = [], 0
    while pos < len(stream):
        length = rng.randrange(2, 9)
        runs.append(stream[pos:pos + length])
        pos += length
    return runs


def task() -> int:
    """The reference work; returns a checksum so it cannot be skipped.

    The inputs are rebuilt on every call and dropped after it, so the task
    leaves nothing resident between passes to raise the worker's peak RSS.
    """
    counts: Counter = Counter()
    runs = _runs()
    for n in (1, 2):
        for run in runs:
            for i in range(len(run) - n + 1):
                counts["".join(run[i:i + n])] += 1
    digraphs = {gram: count for gram, count in counts.items() if len(gram) == 2}
    total = 0
    for letter in LETTERS:
        total += sum(c for g, c in digraphs.items() if letter in g)
    return total + len(counts)


def readings(seconds: float) -> list[float]:
    """Wall seconds of each run of the task, run once and then until ``seconds`` pass."""
    times = []
    end = time.perf_counter() + seconds
    while not times or time.perf_counter() < end:
        t0 = time.perf_counter()
        task()
        times.append(time.perf_counter() - t0)
    return times
