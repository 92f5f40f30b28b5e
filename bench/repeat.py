"""Run the benchmark once per seed and summarise each metric.

    python3 bench/repeat.py --workload large-solve --seeds 1-10 [--output summary.json]

Each run is a separate untraced `bench/run.py` process with the run_seconds
of BENCHMARK.json, one run after another. For every
metric the summary gives the ten values, their median, the first and third
quartiles (statistics.quantiles, n=4) and the spread, (Q3 - Q1) / median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

from harness import ROOT


def seed_list(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--output", default=None)
    args = parser.parse_args()
    seconds = str(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])

    runs, values = [], {}
    for seed in seed_list(args.seeds):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", args.workload, "--seed", str(seed),
             "--seconds", seconds, "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        result["seed"], result["run_s"] = seed, time.perf_counter() - start
        runs.append(result)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: {result['run_s']:.1f} s, correct={result['correct']}, "
              f"attempted={result['attempted']}, failed={result['failed']}", flush=True)

    summary = {}
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        summary[name] = {"median": med, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / med if med else None, "values": vals}
        print(f"{name:<42} median {med:>14.6g}  spread {summary[name]['spread'] or 0:.4f}")
    if args.output:
        with open(args.output, "w") as handle:
            json.dump({"workload": args.workload, "seconds": seconds, "runs": runs,
                       "summary": summary}, handle, indent=1)
            handle.write("\n")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
