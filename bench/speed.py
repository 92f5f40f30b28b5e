"""Correction of the benchmark's timings for the machine's current speed.

The 2-vCPU virtual machine this benchmark was tuned on runs the same code at
speeds that differ by up to 1.6x, in phases that last from a second to more
than a minute; CPU steal stays under 1 %, so the time is not lost but spent
slower. Raw wall times therefore differ more between runs than the changes
the benchmark is meant to resolve.

While a run lasts, a probe process pinned to the same CPU as the benchmark
and its children runs a fixed piece of work every PROBE_INTERVAL_S seconds
and records how long it took. The work is a pure-Python loop of integer and
dict operations plus random reads from a 16 MB array, because the slow phases
slow both computation and memory access, and harmcolor's large instances do
both. Each part counts its fastest of PROBE_REPEATS runs, so that a
preemption does not count. A timed interval is then corrected by the mean
speed the probe saw within it:

    corrected = wall * mean(REFERENCE_S / probe duration, over the interval)

which is the time the interval would have taken at the reference speed.
Corrected times read as seconds on a machine whose probe takes REFERENCE_S,
about the tuning machine in its fast phase. Over 30 rounds of four jobs
there (two solve children, an exact search and greedy_upper, in-process),
this brought the coefficient of variation of a job's time from 0.15-0.21
down to 0.06-0.076. Sampling every 0.05 s lowered it further but slowed the
CLI children by about 4 %. The probe cannot be moved by a change to
harmcolor. It takes under 1 % of the CPU, which every timing includes. Raw
wall times are kept in the full record.

Run as a script, this file is the probe process: it samples until its stdin
closes, then writes the samples to stdout as JSON [[time, duration], ...].
"""

from __future__ import annotations

import bisect
import json
import random
import select
import statistics
import subprocess
import sys
import time
from array import array

PROBE_INTERVAL_S = 0.1
PROBE_REPEATS = 3
PROBE_ITERATIONS = 2000
PROBE_ARRAY = 1 << 22  # 4-byte entries: 16 MB, beyond the last-level cache
PROBE_READS = 3000
REFERENCE_S = 0.0003  # the probe's duration in the tuning machine's fast phase
PAD_S = 1.5 * PROBE_INTERVAL_S  # so that even a short interval sees a few samples


def fastest(fn, *args) -> float:
    best = float("inf")
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - start)
    return best


def compute() -> None:
    total, table = 0, {}
    for i in range(PROBE_ITERATIONS):
        total += i * 3
        table[i & 63] = total


def read_memory(data: array, positions: list[int]) -> None:
    total = 0
    for i in positions:
        total += data[i]


class SpeedProbe:
    """The probe process. Start it before anything is timed; stop() ends it
    and keeps its samples for factor()."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        self.times: list[float] = []
        self.durations: list[float] = []

    def stop(self) -> None:
        if self.proc.poll() is None and not self.proc.stdin.closed:
            self.proc.stdin.close()
            samples = json.loads(self.proc.stdout.read() or "[]")
            self.proc.wait()
            self.times = [t for t, _ in samples]
            self.durations = [d for _, d in samples]

    def factor(self, start: float, end: float) -> float:
        """Mean of REFERENCE_S / probe duration over [start, end], widened by
        PAD_S on each side. Times are time.monotonic() stamps."""
        lo = bisect.bisect_left(self.times, start - PAD_S)
        hi = bisect.bisect_right(self.times, end + PAD_S)
        inside = self.durations[lo:hi]
        if not inside:
            raise RuntimeError(f"no speed samples between {start:.2f} and {end:.2f}")
        return statistics.fmean(REFERENCE_S / d for d in inside)

    def corrected(self, spans: list[tuple[float, float]]) -> float:
        """Sum of the corrected durations of (start, end) spans."""
        return sum((end - start) * self.factor(start, end) for start, end in spans)

    def summary(self) -> dict:
        """The samples' count and duration quartiles, for the full record."""
        if len(self.durations) < 2:
            return {"samples": len(self.durations)}
        q1, median, q3 = statistics.quantiles(self.durations, n=4)
        return {"samples": len(self.durations), "reference_s": REFERENCE_S,
                "duration_min_s": min(self.durations), "duration_q1_s": q1,
                "duration_median_s": median, "duration_q3_s": q3,
                "duration_max_s": max(self.durations)}


def main() -> None:
    rng = random.Random(0)
    data = array("i", bytes(4 * PROBE_ARRAY))
    positions = [rng.randrange(PROBE_ARRAY) for _ in range(PROBE_READS)]
    samples = []
    while not select.select([sys.stdin], [], [], PROBE_INTERVAL_S)[0]:
        stamp = time.monotonic()
        samples.append((stamp, fastest(compute) + fastest(read_memory, data, positions)))
    json.dump(samples, sys.stdout)


if __name__ == "__main__":
    main()
