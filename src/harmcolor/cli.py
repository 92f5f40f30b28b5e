"""Command-line front end and experiment harness.

Subcommands: ``gen`` (random bounded-degree instance), ``solve`` (resampling
construction), ``verify`` (check a coloring file), ``exact`` (harmonious number
by branch and bound), ``bound`` (the bound calculators side by side), and
``experiment`` (seeded batch runs emitting CSV).

Exit codes are a stable contract: 0 success, 1 negative answer (not
harmonious / no solution within budget / no instance within restarts), 2 usage
or infeasible parameters, 3 I/O or format errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import product
from pathlib import Path
from typing import Iterable, Sequence

from .bounds import (
    bad_edge_prob_bound,
    bad_edge_prob_exact,
    lcl_condition,
    lcl_min_colors,
    lower_bound_colors,
    monte_carlo_event_probs,
    pattern_prob_bound,
    remark_bound,
    tau_grid_search,
    theorem_bound,
    theorem_ceil_colors,
)
from .coloring import (
    bad_edges,
    colors_used,
    is_harmonious,
    parse_coloring,
    pattern_collisions,
    serialize_coloring,
)
from .hypergraph import (
    FormatError,
    GenerationFailure,
    GeneratorConfig,
    Hypergraph,
    InfeasibleConfigError,
    generate_random_bounded_degree,
    max_degree,
    parse_hypergraph,
    serialize_hypergraph,
)
from .solver import (
    DEFAULT_NODE_BUDGET,
    EVENT_SCANS,
    NodeBudgetExceeded,
    SolverConfig,
    exact_harmonious_number,
    resample_solve,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_IO = 3

CSV_COLUMNS = [
    "k", "n", "m", "max_degree_cap", "delta", "trial", "seed", "t_policy", "t",
    "success", "resamples", "colors_used", "exact_h",
    "theorem_bound", "remark_bound", "lower_bound", "lcl_min_colors",
]

T_POLICIES = ("fixed", "lcl-min", "theorem-ceil")


def _fmt(x: float) -> str:
    return f"{x:.12g}"


# field -> (accepted type, whether JSON null is allowed); list fields hold ints
SPEC_TYPES: dict[str, tuple[type | tuple[type, ...], bool]] = {
    "trials": (int, False), "t_policy": (str, False), "t_fixed": (int, True),
    "eps": ((int, float), False), "base_seed": (int, False), "output": (str, False),
    "exact": (bool, False), "exact_node_budget": (int, False),
    "max_resamples": (int, True), "event_scan": (str, False),
}
TYPE_NAMES = {int: "an integer", str: "a string", bool: "true or false", (int, float): "a number"}


def _check_spec_type(key: str, value: object, kind: type | tuple[type, ...],
                     nullable: bool = False) -> None:
    """Raise ValueError unless value has the JSON type the spec key needs;
    true and false are not numbers here, though bool subclasses int."""
    if value is None and nullable:
        return
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, kind):
        raise ValueError(f"experiment spec key {key!r} must be {TYPE_NAMES[kind]}"
                         f"{' or null' if nullable else ''}, got {json.dumps(value)}")


@dataclass(frozen=True)
class ExperimentSpec:
    """A batch plan: the cartesian product of the parameter lists forms the
    cells, each run for ``trials`` trials. Row seeds are base_seed + row index,
    where the row index is the (cell, trial) position in the plan — one integer
    reproduces the whole file bit for bit."""

    k_values: tuple[int, ...]
    n_values: tuple[int, ...]
    m_values: tuple[int, ...]
    max_degree_values: tuple[int, ...]
    trials: int
    t_policy: str
    t_fixed: int | None = None
    eps: float = 0.0
    base_seed: int = 0
    output: str = "experiment.csv"
    exact: bool = False
    exact_node_budget: int = DEFAULT_NODE_BUDGET
    max_resamples: int | None = None
    event_scan: str = "deterministic"

    def __post_init__(self):
        for name in ("k_values", "n_values", "m_values", "max_degree_values"):
            values = getattr(self, name)
            if not values:
                raise ValueError(f"{name} must be a nonempty list")
            if any(v < 1 for v in values):
                raise ValueError(f"{name} must be positive, got {values}")
        if any(k < 2 for k in self.k_values):
            raise ValueError("k must be at least 2")
        if self.trials < 1:
            raise ValueError(f"trials must be at least 1, got {self.trials}")
        if self.t_policy not in T_POLICIES:
            raise ValueError(f"t_policy must be one of {T_POLICIES}, got {self.t_policy!r}")
        if self.t_policy == "fixed" and self.t_fixed is None:
            raise ValueError("t_policy 'fixed' needs a t value")
        if self.t_fixed is not None and self.t_fixed < 1:
            raise ValueError(f"t must be at least 1, got {self.t_fixed}")
        if self.eps < 0:
            raise ValueError("eps must be nonnegative")
        if self.max_resamples is not None and self.max_resamples < 0:
            raise ValueError("max_resamples must be nonnegative")
        if self.event_scan not in EVENT_SCANS:
            raise ValueError(f"event_scan must be one of {EVENT_SCANS}, got {self.event_scan!r}")

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("experiment spec must be a JSON object")
        known = {
            "k": "k_values", "n": "n_values", "m": "m_values",
            "max_degree": "max_degree_values", "trials": "trials",
            "t_policy": "t_policy", "t": "t_fixed", "eps": "eps",
            "base_seed": "base_seed", "output": "output", "exact": "exact",
            "exact_node_budget": "exact_node_budget",
            "max_resamples": "max_resamples", "event_scan": "event_scan",
        }
        unknown = set(data) - set(known)
        if unknown:
            raise ValueError(f"unknown experiment spec keys: {sorted(unknown)}")
        kwargs: dict[str, object] = {}
        for key, field_name in known.items():
            if key not in data:
                continue
            value = data[key]
            if field_name.endswith("_values"):
                value = tuple(value) if isinstance(value, list) else (value,)
                for item in value:
                    _check_spec_type(key, item, int)
            else:
                _check_spec_type(key, value, *SPEC_TYPES[field_name])
            kwargs[field_name] = value
        return cls(**kwargs)  # type: ignore[arg-type]


def _policy_t(policy: str, t_fixed: int | None, eps: float,
              k: int, delta: int, m: int) -> int:
    if policy == "fixed":
        assert t_fixed is not None
        t = t_fixed
    elif policy == "lcl-min":
        t = lcl_min_colors(k, delta, m)
    else:
        t = theorem_ceil_colors(k, delta, m, eps)
    # a single edge already needs k colors; the closed forms can dip below k
    # at tiny m, where their "sufficiently large m" premise fails
    return max(t, k)


def run_experiment(spec: ExperimentSpec) -> list[dict[str, object]]:
    """Run the plan, write the CSV incrementally (header first, rows flushed
    after every cell so a failing cell cannot take earlier results with it),
    and return the rows. A failing cell is reported on stderr and skipped; the
    harness continues with the next cell."""
    cells = list(product(spec.k_values, spec.n_values, spec.m_values,
                         spec.max_degree_values))
    rows: list[dict[str, object]] = []
    with open(spec.output, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=CSV_COLUMNS, lineterminator="\n")
        writer.writeheader()
        for cell_index, (k, n, m, dmax) in enumerate(cells):
            try:
                cell_rows = _run_cell(spec, cell_index, k, n, m, dmax)
            except Exception as exc:  # noqa: BLE001 -- isolate the failing cell
                print(f"warning: cell (k={k}, n={n}, m={m}, max_degree={dmax}) "
                      f"failed: {exc}", file=sys.stderr)
                continue
            for row in cell_rows:
                writer.writerow(row)
            handle.flush()
            rows.extend(cell_rows)
    return rows


def _run_cell(spec: ExperimentSpec, cell_index: int,
              k: int, n: int, m: int, dmax: int) -> list[dict[str, object]]:
    out: list[dict[str, object]] = []
    for trial in range(spec.trials):
        seed = spec.base_seed + cell_index * spec.trials + trial
        cfg = GeneratorConfig(k=k, n=n, m=m, max_degree=dmax, seed=seed)
        instance = generate_random_bounded_degree(cfg)
        delta = max_degree(instance)
        t = _policy_t(spec.t_policy, spec.t_fixed, spec.eps, k, delta, m)
        report = resample_solve(instance, SolverConfig(
            t=t, seed=seed, max_resamples=spec.max_resamples,
            event_scan=spec.event_scan))
        exact_h: object = ""
        if spec.exact:
            try:
                exact_h = exact_harmonious_number(instance, spec.exact_node_budget)
            except NodeBudgetExceeded:
                exact_h = ""
        out.append({
            "k": k, "n": n, "m": m, "max_degree_cap": dmax, "delta": delta,
            "trial": trial, "seed": seed, "t_policy": spec.t_policy, "t": t,
            "success": "true" if report.success else "false",
            "resamples": report.resamples_total,
            "colors_used": report.colors_used,
            "exact_h": exact_h,
            "theorem_bound": _fmt(theorem_bound(k, delta, m, spec.eps)),
            "remark_bound": _fmt(remark_bound(k, delta, m)),
            "lower_bound": lower_bound_colors(k, m),
            "lcl_min_colors": lcl_min_colors(k, delta, m),
        })
    return out


# ----------------------------------------------------------------- commands

def cmd_gen(args: argparse.Namespace) -> int:
    cfg = GeneratorConfig(k=args.k, n=args.n, m=args.m, max_degree=args.max_degree,
                          seed=args.seed, max_restarts=args.max_restarts)
    instance = generate_random_bounded_degree(cfg)
    text = serialize_hypergraph(instance)
    if args.output:
        Path(args.output).write_text(text)
        print(f"wrote {args.output}: k={instance.k} n={instance.n} "
              f"m={instance.m} max_degree={max_degree(instance)}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _load_instance(path: str) -> Hypergraph:
    return parse_hypergraph(Path(path).read_text())


def cmd_solve(args: argparse.Namespace) -> int:
    instance = _load_instance(args.input)
    if args.t_policy == "fixed":
        if args.colors is None:
            print("solve: --t-policy fixed needs --colors", file=sys.stderr)
            return EXIT_USAGE
        t = args.colors
    else:
        if args.colors is not None:
            print("solve: --colors conflicts with --t-policy "
                  f"{args.t_policy}; pick one", file=sys.stderr)
            return EXIT_USAGE
        if instance.m == 0:
            t = instance.k
        else:
            t = _policy_t(args.t_policy, None, args.eps,
                          instance.k, max_degree(instance), instance.m)
    report = resample_solve(instance, SolverConfig(
        t=t, seed=args.seed, max_resamples=args.max_resamples,
        event_scan=args.scan))
    summary = " ".join(f"{key}={value}" for key, value in report.as_record().items())
    info = sys.stdout if args.output else sys.stderr
    print(f"solve: {summary}", file=info)
    if not report.success:
        print(f"solve: budget exhausted after {report.resamples_total} resamples; "
              f"no harmonious coloring with t={t} found", file=info)
        return EXIT_NEGATIVE
    text = serialize_coloring(report.coloring, instance.n)
    if args.output:
        Path(args.output).write_text(text)
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    instance = _load_instance(args.input)
    coloring, declared_n = parse_coloring(Path(args.coloring).read_text())
    if declared_n != instance.n:
        print(f"verify: coloring declares n={declared_n} but the instance "
              f"has n={instance.n}", file=sys.stderr)
        return EXIT_IO
    try:
        ok = is_harmonious(instance, coloring)
    except ValueError as exc:
        print(f"verify: {exc}", file=sys.stderr)
        return EXIT_IO
    if ok:
        print(f"harmonious: t={coloring.t} colors_used={colors_used(coloring)}")
        return EXIT_OK
    for bad in bad_edges(instance, coloring):
        verts = instance.edges[bad.edge]
        cols = tuple(coloring.assignment[v] for v in verts)
        print(f"bad edge {bad.edge}: vertices {verts} colored {cols}")
    for hit in pattern_collisions(instance, coloring):
        print(f"same pattern: edges {hit.e} and {hit.f} (|e\\f| = {hit.i})")
    return EXIT_NEGATIVE


def cmd_exact(args: argparse.Namespace) -> int:
    instance = _load_instance(args.input)
    value = exact_harmonious_number(instance, args.node_budget)
    print(value)
    return EXIT_OK


def _bound_rows(args: argparse.Namespace) -> list[tuple[str, str]]:
    k, delta, m, eps = args.k, args.delta, args.m, args.eps
    rows = [
        ("theorem", _fmt(theorem_bound(k, delta, m, eps))),
        ("remark", _fmt(remark_bound(k, delta, m))),
        ("lower", str(lower_bound_colors(k, m))),
        ("lcl_min", str(lcl_min_colors(k, delta, m))),
    ]
    if args.t is not None:
        tau = Fraction(args.tau) if args.tau else None
        result = lcl_condition(k, delta, m, args.t, tau)
        rows.append((f"lcl_holds_t{args.t}", "true" if result.holds else "false"))
        rows.append((f"lcl_slack_t{args.t}", str(result.slack)))
        rows.append((f"bad_edge_exact_t{args.t}", str(bad_edge_prob_exact(k, args.t))))
        rows.append((f"bad_edge_bound_t{args.t}", str(bad_edge_prob_bound(k, args.t))))
        for i in range(1, k + 1):
            rows.append((f"pattern_bound_i{i}_t{args.t}",
                         str(pattern_prob_bound(i, args.t))))
    if args.tau_grid is not None:
        tau, t = tau_grid_search(k, delta, m, args.tau_grid)
        rows.append(("tau_grid_best_tau", str(tau)))
        rows.append(("tau_grid_best_t", str(t)))
    if args.mc_trials is not None:
        if args.t is None:
            raise ValueError("--mc-trials needs --t to know the palette size")
        i = args.mc_i if args.mc_i is not None else k
        bad_est, pattern_est = monte_carlo_event_probs(
            k, i, args.t, args.mc_trials, args.seed)
        rows.append((f"mc_bad_edge_t{args.t}", _fmt(bad_est)))
        rows.append((f"mc_pattern_i{i}_t{args.t}", _fmt(pattern_est)))
        rows.append((f"mc_bad_edge_exact_t{args.t}",
                     _fmt(float(bad_edge_prob_exact(k, args.t)))))
        rows.append((f"mc_pattern_bound_i{i}_t{args.t}",
                     _fmt(float(pattern_prob_bound(i, args.t)))))
    return rows


def cmd_bound(args: argparse.Namespace) -> int:
    rows = _bound_rows(args)
    if args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow([name for name, _ in rows])
        writer.writerow([value for _, value in rows])
    else:
        width = max(len(name) for name, _ in rows)
        for name, value in rows:
            print(f"{name:<{width}}  {value}")
    return EXIT_OK


def cmd_experiment(args: argparse.Namespace) -> int:
    spec = ExperimentSpec.from_json(Path(args.spec).read_text())
    if args.output:
        spec = replace(spec, output=args.output)
    rows = run_experiment(spec)
    print(f"wrote {spec.output}: {len(rows)} rows")
    return EXIT_OK if rows else EXIT_NEGATIVE


# ------------------------------------------------------------------ parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="harmcolor",
        description="Harmonious colorings of k-uniform hypergraphs: "
                    "verify, solve, bound, generate, experiment.",
        epilog="exit codes: 0 ok; 1 negative answer; 2 usage; 3 I/O or format",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a random bounded-degree instance")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--max-degree", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-restarts", type=int, default=None)
    p.add_argument("--output", default=None, help="instance file (default stdout)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("solve", help="build a harmonious coloring by resampling")
    p.add_argument("--input", required=True, help="instance file")
    p.add_argument("--colors", type=int, default=None, help="palette size t")
    p.add_argument("--t-policy", choices=T_POLICIES, default="fixed")
    p.add_argument("--eps", type=float, default=0.0, help="slack for theorem-ceil")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-resamples", type=int, default=None)
    p.add_argument("--scan", choices=EVENT_SCANS, default="deterministic")
    p.add_argument("--output", default=None, help="coloring file (default stdout)")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="check a coloring file against an instance")
    p.add_argument("--input", required=True, help="instance file")
    p.add_argument("--coloring", required=True, help="coloring file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("exact", help="harmonious number by branch and bound")
    p.add_argument("--input", required=True, help="instance file")
    p.add_argument("--node-budget", type=int, default=DEFAULT_NODE_BUDGET)
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("bound", help="print the bound calculators side by side")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--eps", type=float, default=0.0)
    p.add_argument("--t", type=int, default=None,
                   help="also evaluate the certificate and event bounds at this t")
    p.add_argument("--tau", default=None,
                   help="rational tau like 3/2 (default k/(k-1))")
    p.add_argument("--tau-grid", type=int, nargs="?", const=16, default=None,
                   help="search tau over a rational grid with this denominator")
    p.add_argument("--mc-trials", type=int, default=None)
    p.add_argument("--mc-i", type=int, default=None,
                   help="pattern size for the Monte Carlo check (default k)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("table", "csv"), default="table")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("experiment", help="run a seeded batch and emit CSV")
    p.add_argument("--spec", required=True, help="JSON experiment spec")
    p.add_argument("--output", default=None, help="override the spec's CSV path")
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage or help
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except InfeasibleConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (FormatError, OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except GenerationFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE
    except NodeBudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
