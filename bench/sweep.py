"""One-off scaling sweep: the layer-by-layer size ladder of the roadmap.

    python3 bench/sweep.py

For k = 3, n = m, max degree 3 and seed 1 it times, in-process:
generate_random_bounded_degree and one deterministic resample step at the
certified palette (m = 1k, 4k, 16k), is_harmonious on the solved colouring
(same sizes), and greedy_upper (m = 50, 100, 200). Generation and greedy run
once; the solves and is_harmonious report the median of five runs. Read the
shape of each row, not its digits. Writes bench/baseline/sweep.json. Not
part of the workloads.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time

import checks
from harness import ROOT, SRC, environment

K, DELTA, SEED = 3, 3, 1
OUTPUT = ROOT / "bench" / "baseline" / "sweep.json"
LADDER = (1000, 4000, 16000)
GREEDY_LADDER = (50, 100, 200)
REPEATS = 5  # solves and verification; a step at m = 1k is below the noise of one run


def timed(fn, *args, repeats: int = 1):
    """(value, median wall time over the repeats)."""
    walls = []
    for _ in range(repeats):
        start = time.perf_counter()
        value = fn(*args)
        walls.append(time.perf_counter() - start)
    return value, statistics.median(walls)


def main() -> int:
    sys.path.insert(0, str(SRC))
    from harmcolor import (GeneratorConfig, SolverConfig, generate_random_bounded_degree,
                           greedy_upper, is_harmonious, resample_solve)

    rows = []
    for m in LADDER:
        cfg = GeneratorConfig(k=K, n=m, m=m, max_degree=DELTA, seed=SEED)
        h, gen_s = timed(generate_random_bounded_degree, cfg)
        t = max(checks.certified_palette(K, max(h.degrees), m), K)
        _, init_s = timed(resample_solve, h, SolverConfig(t=t, seed=SEED, max_resamples=0),
                          repeats=REPEATS)
        report, solve_s = timed(resample_solve, h, SolverConfig(t=t, seed=SEED),
                                repeats=REPEATS)
        ok, verify_s = timed(is_harmonious, h, report.coloring, repeats=REPEATS)
        if not (report.success and ok):
            raise SystemExit(f"m={m}: the solve did not produce a harmonious colouring")
        rows.append({"m": m, "generate_s": gen_s, "t": t, "steps": report.resamples_total,
                     "step_us": (solve_s - init_s) / max(report.resamples_total, 1) * 1e6,
                     "is_harmonious_s": verify_s})
    greedy = []
    for m in GREEDY_LADDER:
        cfg = GeneratorConfig(k=K, n=m, m=m, max_degree=DELTA, seed=SEED)
        h = generate_random_bounded_degree(cfg)
        (_, used), greedy_s = timed(greedy_upper, h)
        greedy.append({"m": m, "greedy_upper_s": greedy_s, "colors_used": used})

    print("| layer | " + " | ".join(f"m = {r['m']}" for r in rows) + " |")
    print("| --- | " + " | ".join("---" for _ in rows) + " |")
    print("| generate_random_bounded_degree | "
          + " | ".join(f"{r['generate_s']:.3g} s" for r in rows) + " |")
    print("| one resample step (deterministic) | "
          + " | ".join(f"{r['step_us']:.0f} us ({r['steps']} steps)" for r in rows) + " |")
    print("| is_harmonious | " + " | ".join(f"{r['is_harmonious_s']:.3g} s" for r in rows) + " |")
    print("| greedy_upper (m = " + " / ".join(str(g["m"]) for g in greedy) + ") | "
          + " | ".join(f"{g['greedy_upper_s']:.3g} s" for g in greedy) + " |")
    record = {"environment": environment("sweep", SEED, len(os.sched_getaffinity(0)), None), "k": K, "max_degree": DELTA,
              "n": "m", "ladder": rows, "greedy": greedy}
    OUTPUT.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {OUTPUT.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
