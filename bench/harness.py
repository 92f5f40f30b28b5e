"""Shared machinery: CLI children, job records, the pass loop and the metrics.

Every program call is timed from outside. CLI children run one at a time as
``python -m harmcolor.cli`` with ``src`` on the path; their wall time comes
from time.monotonic() around spawn and reap, their peak RSS from
``os.wait4``. Every reported time is corrected for the machine's speed at
the time (speed.py).
"""

from __future__ import annotations

import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from speed import SpeedProbe

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "bench" / "_work"
CHILD_TIMEOUT_S = 150.0
MIN_PASSES = 2  # outputs are compared between passes
MAX_PASSES = 3


def derive_seed(seed: int, *parts: object) -> int:
    """A sub-seed that depends only on the workload seed and the labels."""
    text = ":".join(str(p) for p in (seed, *parts))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big")


def digest(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()[:16]


@dataclass
class Child:
    code: int
    start: float
    end: float
    rss_mb: float
    stdout: str
    stderr: str


class Launcher:
    """The launcher process (launcher.py) and the one CLI child it may run.
    Start it before the benchmark allocates its inputs; close() ends it."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen([sys.executable, str(Path(__file__).with_name("launcher.py"))],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def cli(self, args: list[str], log: Path) -> Child:
        """Run ``python -m harmcolor.cli *args`` to completion."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        out_path, err_path = log.with_suffix(".out"), log.with_suffix(".err")
        log.parent.mkdir(parents=True, exist_ok=True)
        request = {"argv": [sys.executable, "-m", "harmcolor.cli", *args], "cwd": str(ROOT),
                   "env": env, "stdout": str(out_path), "stderr": str(err_path),
                   "timeout": CHILD_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher process died")
        reply = json.loads(reply)
        return Child(code=reply["code"], start=reply["start"], end=reply["end"],
                     rss_mb=reply["rss_mb"], stdout=out_path.read_text(),
                     stderr=err_path.read_text())

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S + 5)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


@dataclass
class JobResult:
    """One user task. spans holds the (start, end) monotonic stamps of its
    program work (children and in-process calls); the benchmark's own checks
    run outside them. time_s is their time corrected for the machine's
    speed, filled in once the run ends."""

    name: str
    edges: int
    spans: list[tuple[float, float]] = field(default_factory=list)
    time_s: float = 0.0
    rss_mb: float = 0.0
    problems: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def raw_wall_s(self) -> float:
        return sum(end - start for start, end in self.spans)

    def add_child(self, child: Child) -> Child:
        self.spans.append((child.start, child.end))
        self.rss_mb = max(self.rss_mb, child.rss_mb)
        return child

    def expect(self, condition: bool, message: str) -> bool:
        if not condition:
            self.problems.append(message)
        return condition

    def timed(self, fn: Callable, *args):
        """Call a program function in-process and record its span."""
        start = time.monotonic()
        try:
            return fn(*args)
        finally:
            self.spans.append((start, time.monotonic()))


@dataclass
class Workload:
    """setup() builds the inputs and returns the jobs by name; each job runs
    the program once and checks its outputs. in_process says whether the
    benchmark process itself runs harmcolor code. pass_s is the nominal time
    of one pass, its wall time on the machine the benchmark was tuned on.
    setup_s is the median of setup_repeats set-ups."""

    name: str
    setup: Callable[[int, Path, Launcher], dict[str, Callable[[], JobResult]]]
    in_process: bool
    pass_s: float
    setup_repeats: int


def warm_start(launcher: Launcher, work: Path) -> None:
    """One trivial CLI child: imports harmcolor and numpy, writes bytecode."""
    child = launcher.cli(["bound", "--k", "2", "--delta", "1", "--m", "1"], work / "logs" / "warm")
    if child.code != 0:
        raise RuntimeError(f"warm-up child failed with exit {child.code}: {child.stderr}")


def attempt(name: str, job: Callable[[], JobResult]) -> JobResult:
    """Run one job; an exception fails the job instead of the run."""
    try:
        return job()
    except Exception:  # noqa: BLE001 -- reported as the job's problem
        return JobResult(name, 0, problems=[traceback.format_exc(limit=-3)])


def run_workload(workload: Workload, seed: int, seconds: float, launcher: Launcher,
                 probe: SpeedProbe) -> dict:
    work = WORK / f"{workload.name}-s{seed}"
    shutil.rmtree(work, ignore_errors=True)
    setup_spans, fingerprints = [], set()
    for _ in range(workload.setup_repeats):
        start = time.monotonic()
        jobs = workload.setup(seed, work, launcher)
        warm_start(launcher, work)
        setup_spans.append((start, time.monotonic()))
        fingerprints.add(_tree_digest(work / "inputs"))

    # The pass count follows from --seconds and the nominal pass time, not
    # from the clock, so every run of a workload does the same work.
    count = max(MIN_PASSES, min(MAX_PASSES, int(seconds // workload.pass_s)))
    passes = [[attempt(name, job) for name, job in jobs.items()] for _ in range(count)]
    timed = [job for one_pass in passes for job in one_pass]
    probe.stop()
    setups = [probe.corrected([span]) for span in setup_spans]
    for job in timed:
        job.time_s = probe.corrected(job.spans)

    problems = ["setup: inputs differ between set-up repeats"] if len(fingerprints) > 1 else []
    first = {job.name: job for job in passes[0]}
    for job in timed:
        problems.extend(f"{job.name}: {p}" for p in job.problems)
        if job.digests != first[job.name].digests:
            problems.append(f"{job.name}: outputs differ between passes")
    walls = [j.time_s for j in timed]
    passed = [j for j in timed if j.ok]
    rss = max(j.rss_mb for j in timed)
    if workload.in_process:
        rss = max(rss, self_rss_mb())
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "edges_per_s": (sum(j.edges for j in passed) / (sum(walls) or 1.0), "edges/s"),
        "job_p50_s": (statistics.median(walls), "s"),
        # The highest percentile with ten jobs beyond it needs at least 20
        # jobs to reach the median; a run has at most 18 (three passes of at
        # most six), so the tail is each pass's slowest job, median over passes.
        "job_tail_s": (statistics.median(max(j.time_s for j in p) for p in passes), "s"),
        "pass_ratio": (len(passed) / len(timed), "1"),
        "peak_rss_mb": (rss, "MB"),
    }
    return {
        "workload": workload.name,
        "correct": not problems,
        "attempted": len(timed),
        "failed": len(timed) - len(passed),
        "metrics": metrics,
        "problems": problems,
        "detail": {
            "setup_repeats_s": setups,
            "setup_repeats_raw_s": [end - start for start, end in setup_spans],
            "passes": len(passes),
            "fail_ratio": (len(timed) - len(passed)) / len(timed),
            "job_tail": "median over passes of the slowest job",
            "job_count": len(timed),
            "jobs": [{"name": j.name, "edges": j.edges, "time_s": j.time_s,
                      "raw_wall_s": j.raw_wall_s, "rss_mb": j.rss_mb, "ok": j.ok} for j in timed],
            "speed_probe": probe.summary(),
            "digests": {job.name: job.digests for job in passes[0]},
        },
    }


def _tree_digest(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(f.relative_to(path).as_posix().encode())
        h.update(f.read_bytes())
    return h.hexdigest()[:16]


def environment(workload: str, seed: int, nproc: int, cpu: int | None) -> dict:
    """The record of where a run ran. nproc counts the CPUs the process was
    allowed before the benchmark pinned itself to cpu (None: not pinned)."""
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "absent"
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": nproc,
        "pinned_to_cpu": cpu,
        "cpu_model": cpu_model,
        "children_at_once": 1,
        "machine_settings_changed": False,
    }
