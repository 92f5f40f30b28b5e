"""The three workloads. Each setup() makes its inputs from the workload seed
and returns one closure per job; a job runs the program and then checks what
it produced with checks.py, outside the job's timed wall.

Why each workload exists is in README.md next to this file.
"""

from __future__ import annotations

import csv
import io
import json
from functools import partial
from pathlib import Path

import checks
from harness import JobResult, Launcher, Workload, derive_seed, digest
from instances import bounded_degree_edges, coloring_text, instance_text, uniform_coloring, write

# ------------------------------------------------------------ cli-pipeline

PIPELINE_K = (2, 3, 4)
PIPELINE_M = (1000, 4000)
PIPELINE_DELTA = 3


def pipeline_setup(seed: int, work: Path, launcher: Launcher):
    plan = [{"k": k, "n": 2 * m, "m": m, "seed": derive_seed(seed, "pipeline", k, m)}
            for k in PIPELINE_K for m in PIPELINE_M]
    write(work / "inputs" / "plan.json", json.dumps(plan, indent=1))
    return {f"k{cfg['k']}-m{cfg['m']}": partial(pipeline_job, launcher, cfg, work / "out")
            for cfg in plan}


def pipeline_job(launcher: Launcher, cfg: dict, out: Path) -> JobResult:
    k, n, m, seed = cfg["k"], cfg["n"], cfg["m"], cfg["seed"]
    job = JobResult(f"k{k}-m{m}", m)
    hg, col = out / f"{job.name}.hg", out / f"{job.name}.col"
    for stale in (hg, col):
        stale.unlink(missing_ok=True)
    gen = job.add_child(launcher.cli(
        ["gen", "--k", str(k), "--n", str(n), "--m", str(m),
         "--max-degree", str(PIPELINE_DELTA), "--seed", str(seed), "--output", str(hg)],
        out / "logs" / f"{job.name}-gen"))
    if not job.expect(gen.code == 0, f"gen exit {gen.code}"):
        return job
    solve = job.add_child(launcher.cli(
        ["solve", "--input", str(hg), "--t-policy", "lcl-min", "--seed", str(seed),
         "--output", str(col)], out / "logs" / f"{job.name}-solve"))
    if not job.expect(solve.code == 0, f"solve exit {solve.code}"):
        return job
    verify = job.add_child(launcher.cli(["verify", "--input", str(hg), "--coloring", str(col)],
                                   out / "logs" / f"{job.name}-verify"))
    text_hg, text_col = hg.read_text(), col.read_text()
    job.digests = {"instance": digest(text_hg), "coloring": digest(text_col),
                   "solve": solve.stdout.splitlines()[0]}
    got_k, got_n, edges = checks.read_instance(text_hg)
    job.expect((got_k, got_n, len(edges)) == (k, n, m), "gen wrote other k, n or m")
    job.problems += checks.instance_problems(k, n, edges, PIPELINE_DELTA)
    check_solved(job, k, edges, text_col, verify)
    return job


def check_solved(job: JobResult, k: int, edges, coloring_text_: str, verify) -> None:
    """A certified solve: palette is the certified t, colouring harmonious,
    and verify agrees with exit 0."""
    degree: dict[int, int] = {}
    for e in edges:
        for v in e:
            degree[v] = degree.get(v, 0) + 1
    expected_t = max(checks.certified_palette(k, max(degree.values()), len(edges)), k)
    t, colors = checks.read_coloring(coloring_text_)
    job.expect(t == expected_t, f"solve used t={t}, certified palette is {expected_t}")
    problem = checks.harmonious_problem(edges, colors, t)
    job.expect(problem is None, f"solved colouring fails: {problem}")
    used = len({c for c in colors if c is not None})
    job.expect(verify.code == 0, f"verify exit {verify.code}")
    job.expect(verify.stdout.strip() == f"harmonious: t={t} colors_used={used}",
               f"verify printed {verify.stdout.strip()[:80]!r}")


# ------------------------------------------------------------- large-solve

LARGE_INSTANCES = {  # name: (k, n, m, delta)
    "k3-m100000": (3, 100_000, 100_000, 3),
    "k3-m20000": (3, 20_000, 20_000, 3),
    "k2-m20000": (2, 20_000, 20_000, 2),
    "k4-m50000": (4, 100_000, 50_000, 2),
}
LARGE_SOLVES = (  # job name, instance, --scan
    ("k3-m100000", "k3-m100000", "deterministic"),
    ("k3-m20000", "k3-m20000", "deterministic"),
    ("k2-m20000", "k2-m20000", "deterministic"),
    ("k4-m50000", "k4-m50000", "deterministic"),
    ("k3-m20000-random", "k3-m20000", "random"),
)
RANDOM_COLORING_OF = "k3-m100000"


def large_inputs(seed: int, work: Path) -> dict:
    """Write every large-solve instance and the random colouring; returns
    {name: (k, n, edges, path)} plus the colouring under "coloring"."""
    made = {}
    for name, (k, n, m, delta) in LARGE_INSTANCES.items():
        edges = bounded_degree_edges(derive_seed(seed, "large", name), k, n, m, delta)
        path = work / "inputs" / f"{name}.hg"
        write(path, instance_text(k, n, edges))
        made[name] = (k, n, edges, path)
    k, n, edges, _ = made[RANDOM_COLORING_OF]
    delta = LARGE_INSTANCES[RANDOM_COLORING_OF][3]
    t = max(checks.certified_palette(k, delta, len(edges)), k)
    colors = uniform_coloring(derive_seed(seed, "large", "coloring"), n, t)
    path = work / "inputs" / f"{RANDOM_COLORING_OF}-random.col"
    write(path, coloring_text(t, colors))
    made["coloring"] = (colors, path)
    return made


def large_setup(seed: int, work: Path, launcher: Launcher):
    made = large_inputs(seed, work)
    jobs = {name: partial(large_solve_job, launcher, name, made[inst], scan,
                          derive_seed(seed, "large-solve", name), work / "out")
            for name, inst, scan in LARGE_SOLVES}
    jobs["verify-random"] = partial(verify_random_job, launcher, made[RANDOM_COLORING_OF],
                                    made["coloring"], work / "out", {})
    return jobs


def large_solve_job(launcher: Launcher, name: str, inst, scan: str, seed: int, out: Path) -> JobResult:
    k, n, edges, path = inst
    job = JobResult(name, len(edges))
    col = out / f"{name}.col"
    col.unlink(missing_ok=True)
    solve = job.add_child(launcher.cli(
        ["solve", "--input", str(path), "--t-policy", "lcl-min", "--seed", str(seed),
         "--scan", scan, "--output", str(col)], out / "logs" / f"{name}-solve"))
    if not job.expect(solve.code == 0, f"solve exit {solve.code}"):
        return job
    verify = job.add_child(launcher.cli(["verify", "--input", str(path), "--coloring", str(col)],
                                   out / "logs" / f"{name}-verify"))
    text = col.read_text()
    job.digests = {"coloring": digest(text), "solve": solve.stdout.splitlines()[0]}
    check_solved(job, k, edges, text, verify)
    return job


def verify_random_job(launcher: Launcher, inst, coloring, out: Path, expected: dict) -> JobResult:
    """verify on a uniform random colouring: exit 1 and a correct report."""
    k, n, edges, path = inst
    colors, col_path = coloring
    job = JobResult("verify-random", len(edges))
    verify = job.add_child(launcher.cli(["verify", "--input", str(path), "--coloring", str(col_path)],
                                   out / "logs" / "verify-random"))
    job.digests = {"report": digest(verify.stdout)}
    job.expect(verify.code == 1, f"verify exit {verify.code}, expected 1")
    if expected.get("digest") != job.digests["report"]:  # same report every pass
        expected["digest"] = job.digests["report"]
        expected["problems"] = checks.violation_report_problems(verify.stdout, edges, colors)
    job.problems += expected["problems"]
    return job


# ------------------------------------------------------------- small-study

# The exact search's time on random instances of these sizes ranges from a
# millisecond to beyond any budget with the generator seed, so the settled
# searches (the experiment and the two sandwich instances) use the fixed seed
# of demo 05; the workload seed drives the greedy instance.
STUDY_FIXED_SEED = 2024
STUDY_SPEC = {"k": [2, 3], "n": [24], "m": [8, 12], "max_degree": [3], "trials": 3,
              "t_policy": "lcl-min", "base_seed": STUDY_FIXED_SEED, "exact": True}
SANDWICH = {"sandwich-k2-m16": (2, 24, 16), "sandwich-k3-m12": (3, 24, 12)}
STUDY_DELTA = 3
GREEDY = (3, 300, 100)
CAP_NODES = 10 ** 6
CAP_TRIANGLES = 9
# Nine vertex-disjoint triangles need nine pairwise edge-disjoint triangles of
# colour pairs; K_8 packs at most eight, so h = 9 while the counting bound is
# 8, and refuting t = 8 takes the search far past its node budget.
CAP_H = 9


def study_graphs(seed: int) -> dict[str, tuple[int, int, list[tuple[int, ...]]]]:
    """name -> (k, n, edges) for the in-process small-study jobs."""
    graphs = {name: (k, n, bounded_degree_edges(STUDY_FIXED_SEED, k, n, m, STUDY_DELTA))
              for name, (k, n, m) in SANDWICH.items()}
    k, n, m = GREEDY
    graphs["greedy-k3-m100"] = (k, n, bounded_degree_edges(
        derive_seed(seed, "study", "greedy"), k, n, m, STUDY_DELTA))
    graphs["exact-capped"] = (2, 3 * CAP_TRIANGLES, [
        e for j in range(CAP_TRIANGLES)
        for e in ((3 * j, 3 * j + 1), (3 * j, 3 * j + 2), (3 * j + 1, 3 * j + 2))])
    return graphs


def study_setup(seed: int, work: Path, launcher: Launcher):
    from harmcolor import Hypergraph  # in-process jobs: the import is set-up work

    inputs = work / "inputs"
    write(inputs / "study.json", json.dumps(STUDY_SPEC))
    hypergraphs = {}
    for name, (k, n, edges) in study_graphs(seed).items():
        write(inputs / f"{name}.hg", instance_text(k, n, edges))
        hypergraphs[name] = (Hypergraph(k, n, edges), edges)
    jobs = {"experiment": partial(experiment_job, launcher, inputs / "study.json", work / "out")}
    jobs.update((name, partial(sandwich_job, name, *hypergraphs[name])) for name in SANDWICH)
    jobs["greedy-k3-m100"] = partial(greedy_job, *hypergraphs["greedy-k3-m100"])
    jobs["exact-capped"] = partial(capped_exact_job, hypergraphs["exact-capped"][0])
    return jobs


def experiment_job(launcher: Launcher, spec: Path, out: Path) -> JobResult:
    csv_path = out / "study.csv"
    csv_path.unlink(missing_ok=True)
    job = JobResult("experiment", 0)
    child = job.add_child(launcher.cli(["experiment", "--spec", str(spec), "--output", str(csv_path)],
                                  out / "logs" / "experiment"))
    if not job.expect(child.code == 0, f"experiment exit {child.code}"):
        return job
    text = csv_path.read_text()
    job.digests = {"csv": digest(text)}
    rows = list(csv.DictReader(io.StringIO(text)))
    cells = len(STUDY_SPEC["k"]) * len(STUDY_SPEC["m"]) * len(STUDY_SPEC["n"])
    job.expect(len(rows) == cells * STUDY_SPEC["trials"], f"{len(rows)} CSV rows")
    for row in rows:
        k, m, delta = int(row["k"]), int(row["m"]), int(row["delta"])
        job.edges += m
        lower, certified = checks.counting_bound(k, m), checks.certified_palette(k, delta, m)
        job.expect(row["success"] == "true", f"row seed {row['seed']} did not succeed")
        job.expect(int(row["lower_bound"]) == lower, f"row seed {row['seed']}: lower bound")
        job.expect(int(row["lcl_min_colors"]) == certified, f"row seed {row['seed']}: lcl_min")
        job.expect(int(row["t"]) == max(certified, k), f"row seed {row['seed']}: t")
        job.expect(row["exact_h"] != "" and lower <= int(row["exact_h"]) <= int(row["colors_used"]),
                   f"row seed {row['seed']}: exact_h {row['exact_h']!r} outside "
                   f"[{lower}, {row['colors_used']}]")
    return job


def check_greedy(job: JobResult, edges, coloring, t: int) -> None:
    colors = [coloring.assignment.get(v) for v in range(max(max(e) for e in edges) + 1)]
    problem = checks.harmonious_problem(edges, colors, t)
    job.expect(problem is None, f"greedy colouring fails: {problem}")
    job.expect(len(set(coloring.assignment.values())) == t, "greedy T is not the colours used")


def sandwich_job(name: str, h, edges) -> JobResult:
    from harmcolor import (exact_harmonious_number, greedy_upper, lcl_min_colors,
                           lower_bound_colors, max_degree, remark_bound, tau_grid_search)

    job = JobResult(name, len(edges))
    k, m, delta = h.k, len(edges), max_degree(h)
    exact = job.timed(exact_harmonious_number, h)
    coloring, greedy_t = job.timed(greedy_upper, h)
    lower = job.timed(lower_bound_colors, k, m)
    lcl = job.timed(lcl_min_colors, k, delta, m)
    remark = job.timed(remark_bound, k, delta, m)
    tau, tau_t = job.timed(tau_grid_search, k, delta, m, 64)
    job.digests = {"result": digest(repr((exact, greedy_t, sorted(coloring.assignment.items()),
                                          lower, lcl, remark, tau, tau_t)))}
    job.expect(lower == checks.counting_bound(k, m), f"lower bound {lower}")
    job.expect(lower <= exact <= greedy_t, f"not lower {lower} <= h {exact} <= greedy {greedy_t}")
    check_greedy(job, edges, coloring, greedy_t)
    job.expect(lcl == checks.certified_palette(k, delta, m), f"lcl_min {lcl}")
    job.expect(tau_t <= lcl and checks.certificate_holds(k, delta, m, tau_t, tau)
               and not checks.certificate_holds(k, delta, m, tau_t - 1, tau),
               f"tau grid answer ({tau}, {tau_t}) is not a least certified palette")
    expected_remark = checks.remark_bound(k, delta, m)
    job.expect(abs(remark - expected_remark) <= 1e-9 * expected_remark, f"remark {remark}")
    return job


def greedy_job(h, edges) -> JobResult:
    from harmcolor import greedy_upper

    job = JobResult("greedy-k3-m100", len(edges))
    coloring, t = job.timed(greedy_upper, h)
    job.digests = {"coloring": digest(repr(sorted(coloring.assignment.items())))}
    check_greedy(job, edges, coloring, t)
    return job


def capped_exact_job(h) -> JobResult:
    from harmcolor import NodeBudgetExceeded, exact_harmonious_number

    job = JobResult("exact-capped", h.m)
    try:
        outcome = job.timed(exact_harmonious_number, h, CAP_NODES)
        job.expect(outcome == CAP_H, f"exact returned {outcome}, h is {CAP_H}")
    except NodeBudgetExceeded:
        outcome = "budget exhausted"
    job.digests = {"outcome": digest(str(outcome))}
    return job


# large-solve's set-up takes about 2 s and varies little, so the median of
# three is steady. The others take about 0.25 s and their first set-up runs
# cold, so they take the median of five.
WORKLOADS = {
    "cli-pipeline": Workload("cli-pipeline", pipeline_setup, in_process=False, pass_s=10,
                             setup_repeats=5),
    "large-solve": Workload("large-solve", large_setup, in_process=False, pass_s=20,
                            setup_repeats=3),
    "small-study": Workload("small-study", study_setup, in_process=True, pass_s=6,
                            setup_repeats=5),
}
