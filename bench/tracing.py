"""The traced run: spans around every public call the benchmark makes into
each harmcolor module, on the inputs of all three workloads.

A span records its name (the layer metric it feeds), start, end, parent span
and job id; spans stay in memory and go into the result record at the end.
Span durations are corrected for the machine's speed (speed.py) when the
metrics are computed, after the run.
The small-study group runs once with the tracer off before the traced suite,
and the difference in its wall time is the tracing overhead. End-to-end
figures never come from this run.
"""

from __future__ import annotations

import json
import shutil
import time
from contextlib import contextmanager
from pathlib import Path

import checks
from harness import WORK, Launcher, derive_seed, digest, warm_start
from instances import write
from speed import SpeedProbe
from workloads import (CAP_NODES, LARGE_INSTANCES, LARGE_SOLVES, PIPELINE_DELTA, PIPELINE_K,
                       PIPELINE_M, RANDOM_COLORING_OF, SANDWICH, STUDY_SPEC, large_inputs,
                       study_graphs)

CLI_CONFIG = (3, 4000)  # the cli-pipeline configuration whose children are traced
STEP_GROWTH = ("k3-m100000", "k3-m20000")
EMPTY_SPANS = 10_000


class Tracer:
    def __init__(self, enabled: bool, probe: SpeedProbe | None = None) -> None:
        self.enabled = enabled
        self.probe = probe
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.job: str | None = None

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        record = {"id": len(self.spans), "name": name, "job": self.job,
                  "parent": self.stack[-1] if self.stack else None,
                  "start": time.monotonic(), "end": None}
        self.spans.append(record)
        self.stack.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.monotonic()
            self.stack.pop()

    @contextmanager
    def for_job(self, job: str):
        self.job = job
        with self.span(f"job.{job}"):
            yield

    def call(self, name: str, fn, *args):
        with self.span(name):
            return fn(*args)

    def duration(self, span: dict) -> float:
        """The span's corrected duration; call once the probe has stopped."""
        return self.probe.corrected([(span["start"], span["end"])])

    def total(self, name: str) -> float:
        return sum(self.duration(s) for s in self.spans if s["name"] == name)

    def self_times(self) -> dict[str, float]:
        """Per span name: summed duration minus the time its children cover."""
        out: dict[str, float] = {}
        for s in self.spans:
            out[s["name"]] = out.get(s["name"], 0.0) + self.duration(s)
            if s["parent"] is not None:
                parent = self.spans[s["parent"]]["name"]
                out[parent] -= self.duration(s)
        return out


def suite(tracer: Tracer, inputs: dict, launcher: Launcher, work: Path) -> dict:
    """Every layer probe once; returns the counts, the output digests and
    any problems found."""
    from harmcolor import (GeneratorConfig, Hypergraph, SolverConfig, bad_edges,
                           generate_random_bounded_degree, is_harmonious, parse_coloring,
                           parse_hypergraph, pattern_collisions, resample_solve,
                           serialize_coloring, serialize_hypergraph)

    facts: dict = {"problems": []}
    logs = work / "logs"

    with tracer.for_job("cli"):
        k, m = CLI_CONFIG
        seed = inputs["cli_seed"]
        hg, col = work / "cli.hg", work / "cli.col"
        children = {
            "startup": ["bound", "--k", "2", "--delta", "1", "--m", "1"],
            "gen": ["gen", "--k", str(k), "--n", str(2 * m), "--m", str(m), "--max-degree",
                    str(PIPELINE_DELTA), "--seed", str(seed), "--output", str(hg)],
            "solve": ["solve", "--input", str(hg), "--t-policy", "lcl-min", "--seed", str(seed),
                      "--output", str(col)],
            "verify": ["verify", "--input", str(hg), "--coloring", str(col)],
            "experiment": ["experiment", "--spec", str(inputs["spec"]),
                           "--output", str(work / "study.csv")],
        }
        for cmd, argv in children.items():
            with tracer.span(f"cli.{cmd}_s"):
                child = launcher.cli(argv, logs / f"cli-{cmd}")
            facts[f"cli.{cmd}.peak_rss_mb"] = child.rss_mb
            if child.code != 0:
                facts["problems"].append(f"cli {cmd} exit {child.code}")
        facts["digest.cli"] = digest(col.read_text() + (work / "study.csv").read_text())

    with tracer.for_job("generate"):
        for k in PIPELINE_K:
            for m in PIPELINE_M:
                cfg = GeneratorConfig(k=k, n=2 * m, m=m, max_degree=PIPELINE_DELTA,
                                      seed=derive_seed(inputs["seed"], "pipeline", k, m))
                h = tracer.call("hypergraph.generate_s", generate_random_bounded_degree, cfg)
                facts[f"digest.generate.k{k}-m{m}"] = digest(serialize_hypergraph(h))

    graphs = {}
    for name, (k, n, edges, path) in inputs["large"].items():
        with tracer.for_job(f"hypergraph.{name}"):
            text = path.read_text()
            h = tracer.call("hypergraph.parse_s", parse_hypergraph, text)
            with tracer.span("hypergraph.build_s"):
                built = Hypergraph(k, n, edges)
                built.incidence
            out = tracer.call("hypergraph.serialize_s", serialize_hypergraph, built)
            if out != text or h != built:
                facts["problems"].append(f"{name}: parse/build/serialize do not round-trip")
            graphs[name] = h

    for name, inst, scan in LARGE_SOLVES:
        with tracer.for_job(f"solver.{name}"):
            h = graphs[inst]
            delta = LARGE_INSTANCES[inst][3]
            t = max(checks.certified_palette(h.k, delta, h.m), h.k)
            seed = derive_seed(inputs["seed"], "large-solve", name)
            tracer.call(f"solver.resample_init_s.{name}", resample_solve, h,
                        SolverConfig(t=t, seed=seed, max_resamples=0, event_scan=scan))
            report = tracer.call(f"solver.resample_s.{name}", resample_solve, h,
                                 SolverConfig(t=t, seed=seed, event_scan=scan))
            ok = tracer.call("coloring.verify_s", is_harmonious, h, report.coloring)
            text = tracer.call("coloring.serialize_s", serialize_coloring, report.coloring, h.n)
            parsed, _ = tracer.call("coloring.parse_s", parse_coloring, text)
            colors = [report.coloring.assignment.get(v) for v in range(h.n)]
            problem = checks.harmonious_problem(list(h.edges), colors, t)
            if not (report.success and ok and problem is None and parsed == report.coloring):
                facts["problems"].append(f"{name}: solve, verify or colouring I/O is wrong")
            pattern = sum(report.resamples_same_pattern.values())
            facts[f"steps.{name}"] = report.resamples_total
            facts[f"pattern.{name}"] = pattern
            facts[f"edges.{name}"] = h.m
            facts[f"digest.solve.{name}"] = digest(text)

    with tracer.for_job("coloring.report"):
        colors, path = inputs["coloring"]
        h = graphs[RANDOM_COLORING_OF]
        coloring, _ = tracer.call("coloring.parse_s", parse_coloring, path.read_text())
        with tracer.span("coloring.report_s"):
            bad = bad_edges(h, coloring)
            pairs = pattern_collisions(h, coloring)
        edges = list(h.edges)
        if ([b.edge for b in bad] != checks.bad_edges(edges, colors)
                or [(p.e, p.f, p.i) for p in pairs] != checks.pattern_pairs(edges, colors)):
            facts["problems"].append("bad_edges or pattern_collisions disagree with the definitions")
        facts["digest.report"] = digest(repr((bad, pairs)))

    study_group(tracer, inputs, facts)
    return facts


def study_group(tracer: Tracer, inputs: dict, facts: dict) -> None:
    """The small-study probes: exact search, greedy and the bound calculators."""
    from harmcolor import (NodeBudgetExceeded, exact_harmonious_number, greedy_upper,
                           lcl_min_colors, lower_bound_colors, remark_bound, tau_grid_search,
                           theorem_bound)

    with tracer.for_job("study"):
        for name, (h, edges) in inputs["study"].items():
            k, m = h.k, h.m
            delta = max(h.degrees)
            if name in SANDWICH:
                exact = tracer.call("solver.exact_s", exact_harmonious_number, h)
                lcl = tracer.call("bounds.lcl_min_s", lcl_min_colors, k, delta, m)
                tau_t = tracer.call("bounds.tau_grid_s", tau_grid_search, k, delta, m, 64)[1]
                with tracer.span("bounds.closed_form_s"):
                    lower = lower_bound_colors(k, m)
                    closed = (theorem_bound(k, delta, m), remark_bound(k, delta, m))
                if not (lower <= exact and tau_t <= lcl == checks.certified_palette(k, delta, m)):
                    facts["problems"].append(f"{name}: exact or bounds are inconsistent")
                facts[f"digest.{name}"] = digest(repr((exact, lcl, tau_t, lower, closed)))
            if name != "exact-capped":
                coloring, greedy_t = tracer.call("solver.greedy_s", greedy_upper, h)
                colors = [coloring.assignment.get(v) for v in range(h.n)]
                if checks.harmonious_problem(edges, colors, greedy_t) is not None:
                    facts["problems"].append(f"{name}: greedy colouring is not harmonious")
                facts[f"digest.greedy.{name}"] = digest(repr(sorted(coloring.assignment.items())))
        h = inputs["study"]["exact-capped"][0]
        try:
            with tracer.span("solver.exact_capped_s"):
                exact_harmonious_number(h, CAP_NODES)
            facts["capped_settled"] = True
        except NodeBudgetExceeded:
            facts["capped_settled"] = False


def run_traced(workload: str, seed: int, launcher: Launcher, probe: SpeedProbe) -> dict:
    from harmcolor import Hypergraph

    work = WORK / f"{workload}-s{seed}"
    shutil.rmtree(work, ignore_errors=True)
    large = large_inputs(seed, work)
    coloring = large.pop("coloring")
    write(work / "inputs" / "study.json", json.dumps(STUDY_SPEC))
    study = {name: (Hypergraph(k, n, edges), edges)
             for name, (k, n, edges) in study_graphs(seed).items()}
    inputs = {"seed": seed, "large": large, "coloring": coloring, "study": study,
              "spec": work / "inputs" / "study.json",
              "cli_seed": derive_seed(seed, "pipeline", *CLI_CONFIG)}

    warm_start(launcher, work)
    plain: dict = {"problems": []}
    untraced = time.monotonic()
    study_group(Tracer(False), inputs, plain)
    untraced = (untraced, time.monotonic())
    tracer = Tracer(True, probe)
    traced = suite(tracer, inputs, launcher, work)
    empty_spans = time_empty_spans()
    probe.stop()
    untraced_s = probe.corrected([untraced])
    traced_s = tracer.total("job.study")
    problems = plain["problems"] + traced["problems"]
    for key, value in plain.items():
        if key.startswith("digest.") and traced.get(key) != value:
            problems.append(f"{key} differs between two runs of the same code")

    metrics = layer_metrics(tracer, traced)
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    metrics["trace.study_untraced_s"] = (untraced_s, "s")
    metrics["trace.span_cost_us"] = (probe.corrected([empty_spans]) / EMPTY_SPANS * 1e6, "us")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    self_times = tracer.self_times()
    return {
        "workload": workload,
        "correct": not problems,
        "attempted": 2,
        "failed": sum(1 for facts in (plain, traced) if facts["problems"]),
        "metrics": metrics,
        "problems": problems,
        "detail": {
            "study_traced_s": traced_s,
            "study_untraced_s": untraced_s,
            "speed_probe": probe.summary(),
            "capped_exact_settled": traced["capped_settled"],
            "self_time_s": {name: round(v, 6) for name, v in sorted(self_times.items())},
            "spans": tracer.spans,
        },
    }


def time_empty_spans() -> tuple[float, float]:
    """(start, end) of EMPTY_SPANS empty spans; one span's cost bounds the
    overhead spans add."""
    tracer = Tracer(True)
    start = time.monotonic()
    for _ in range(EMPTY_SPANS):
        with tracer.span("empty"):
            pass
    return start, time.monotonic()


def layer_metrics(tracer: Tracer, facts: dict) -> dict:
    total = tracer.total
    metrics: dict[str, tuple[float, str]] = {}
    for cmd in ("startup", "gen", "solve", "verify", "experiment"):
        metrics[f"cli.{cmd}_s"] = (total(f"cli.{cmd}_s"), "s")
    for cmd in ("gen", "solve", "verify", "experiment"):
        metrics[f"cli.{cmd}.peak_rss_mb"] = (facts[f"cli.{cmd}.peak_rss_mb"], "MB")
    generated = len(PIPELINE_K) * sum(PIPELINE_M)
    metrics["hypergraph.generate_s"] = (total("hypergraph.generate_s"), "s")
    metrics["hypergraph.generate_edges_per_s"] = (generated / total("hypergraph.generate_s"), "edges/s")
    for layer in ("parse", "build", "serialize"):
        metrics[f"hypergraph.{layer}_s"] = (total(f"hypergraph.{layer}_s"), "s")
    step_us = {}
    for name, _, _ in LARGE_SOLVES:
        init, full = total(f"solver.resample_init_s.{name}"), total(f"solver.resample_s.{name}")
        steps, pattern, m = facts[f"steps.{name}"], facts[f"pattern.{name}"], facts[f"edges.{name}"]
        step_us[name] = (full - init) / max(steps, 1) * 1e6
        metrics[f"solver.resample_init_s.{name}"] = (init, "s")
        metrics[f"solver.resample_s.{name}"] = (full, "s")
        metrics[f"solver.resample_steps.{name}"] = (steps, "count")
        metrics[f"solver.steps_per_edge.{name}"] = (steps / m, "1")
        metrics[f"solver.pattern_share.{name}"] = (pattern / max(steps, 1), "1")
        metrics[f"solver.resample_step_us.{name}"] = (step_us[name], "us")
    big, small = STEP_GROWTH
    metrics["solver.step_growth"] = (step_us[big] / step_us[small], "1")
    for layer in ("verify", "report", "parse", "serialize"):
        metrics[f"coloring.{layer}_s"] = (total(f"coloring.{layer}_s"), "s")
    metrics["solver.exact_s"] = (total("solver.exact_s"), "s")
    metrics["solver.exact_nodes_per_s"] = (CAP_NODES / total("solver.exact_capped_s"), "nodes/s")
    metrics["solver.greedy_s"] = (total("solver.greedy_s"), "s")
    for layer in ("lcl_min", "tau_grid", "closed_form"):
        metrics[f"bounds.{layer}_s"] = (total(f"bounds.{layer}_s"), "s")
    return metrics
