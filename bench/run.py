"""harmcolor benchmark.

    python3 bench/run.py --workload {cli-pipeline,large-solve,small-study}
                         --seed N --seconds S --trace {0,1}

--trace 0 runs the workload untraced and prints the end-to-end metrics;
--trace 1 runs the traced layer suite and prints the per-layer metrics. The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Run from the repository root; the program is
taken from ./src and never installed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

from harness import SRC, WORK, Launcher, environment, run_workload
from speed import SpeedProbe
from workloads import WORKLOADS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "harmcolor" / "cli.py").is_file():
        print(f"error: no harmcolor sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # One CPU for the benchmark, its children and the speed probe, so that
    # the probe measures the CPU the timed work runs on.
    allowed = os.sched_getaffinity(0)
    cpu = min(allowed)
    os.sched_setaffinity(0, {cpu})

    probe, launcher = SpeedProbe(), Launcher()
    try:
        if args.trace:
            from tracing import run_traced
            result = run_traced(args.workload, args.seed, launcher, probe)
        else:
            result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, launcher,
                                  probe)
    finally:
        launcher.close()
        probe.stop()
    result["environment"] = environment(args.workload, args.seed, len(allowed), cpu)

    WORK.mkdir(parents=True, exist_ok=True)
    out = WORK / f"result-{args.workload}-s{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1, default=str))
    shutil.rmtree(WORK / f"{args.workload}-s{args.seed}", ignore_errors=True)

    for key, value in result["environment"].items():
        print(f"env {key}: {value}")
    for key, value in result["detail"].items():
        if key not in ("jobs", "digests", "spans"):
            print(f"{key}: {value}")
    for problem in result["problems"]:
        print(f"PROBLEM {problem}")
    for name, (value, unit) in result["metrics"].items():
        print(f"{name:<40} {value:>16.6f} {unit}")
    print(f"full record: {out.relative_to(WORK.parent.parent)}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
