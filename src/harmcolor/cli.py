"""Command-line front end and experiment harness.

Subcommands: ``gen`` (random bounded-degree instance), ``solve`` (resampling
construction), ``verify`` (check a coloring file), ``exact`` (harmonious number
by branch and bound), ``bound`` (the bound calculators side by side), and
``experiment`` (seeded batch runs emitting CSV).

Exit codes are a stable contract: 0 success, 1 negative answer (not
harmonious / no solution within budget / no instance within restarts), 2 usage
or infeasible parameters, 3 I/O or format errors, or out of memory.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import os
import sys
from collections import namedtuple
from itertools import product
from pathlib import Path
from typing import TYPE_CHECKING, Callable, NoReturn, Sequence

# each command imports the other modules, and csv, fractions and json, when it
# runs, so that a CLI child loads only what its command needs
from .hypergraph import (
    DEFAULT_NODE_BUDGET,
    EVENT_SCANS,
    FormatError,
    GenerationFailure,
    GeneratorConfig,
    Hypergraph,
    _Checked,
    generate_random_bounded_degree,
    max_degree,
    parse_hypergraph,
    serialize_hypergraph,
)

if TYPE_CHECKING:
    from fractions import Fraction

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


REQUIRED = object()  # the default of a spec key that must be given

# JSON key -> (ExperimentSpec field, accepted type, default), the required keys
# first since namedtuple gives its defaults to the last fields; a *_values field
# takes one integer or a list of them, and a None default admits JSON null
SPEC_KEYS: dict[str, tuple[str, type | tuple[type, ...], object]] = {
    "k": ("k_values", int, REQUIRED), "n": ("n_values", int, REQUIRED),
    "m": ("m_values", int, REQUIRED), "max_degree": ("max_degree_values", int, REQUIRED),
    "trials": ("trials", int, REQUIRED), "t_policy": ("t_policy", str, REQUIRED),
    "t": ("t_fixed", int, None), "eps": ("eps", (int, float), 0.0),
    "base_seed": ("base_seed", int, 0), "output": ("output", str, "experiment.csv"),
    "exact": ("exact", bool, False),
    "exact_node_budget": ("exact_node_budget", int, DEFAULT_NODE_BUDGET),
    "max_resamples": ("max_resamples", int, None),
    "event_scan": ("event_scan", str, "deterministic"),
}
TYPE_NAMES = {int: "an integer", str: "a string", bool: "true or false", (int, float): "a number"}


def _check_spec_type(key: str, value: object, kind: type | tuple[type, ...],
                     nullable: bool = False) -> None:
    """Raise ValueError unless value has the JSON type the spec key needs;
    true and false are not numbers here, though bool subclasses int."""
    if value is None and nullable:
        return
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, kind):
        import json
        raise ValueError(f"experiment spec key {key!r} must be {TYPE_NAMES[kind]}"
                         f"{' or null' if nullable else ''}, got {json.dumps(value)}")


_SpecFields = namedtuple("_SpecFields", [field for field, _, _ in SPEC_KEYS.values()],
                         defaults=[d for _, _, d in SPEC_KEYS.values() if d is not REQUIRED])


class ExperimentSpec(_Checked, _SpecFields):
    """A batch plan: the cartesian product of the parameter lists forms the
    cells, each run for ``trials`` trials. Row seeds are base_seed + row index,
    where the row index is the (cell, trial) position in the plan — one integer
    reproduces the whole file bit for bit."""

    __slots__ = ()

    def _check(self) -> None:
        from .bounds import check_certificate_k
        for name in ("k_values", "n_values", "m_values", "max_degree_values"):
            values = getattr(self, name)
            if not values:
                raise ValueError(f"{name} must be a nonempty list")
            if any(v < 1 for v in values):
                raise ValueError(f"{name} must be positive, got {values}")
        if any(k < 2 for k in self.k_values):
            raise ValueError("k must be at least 2")
        check_certificate_k(max(self.k_values))  # every row reports lcl_min_colors
        if self.trials < 1:
            raise ValueError(f"trials must be at least 1, got {self.trials}")
        if self.t_policy not in T_POLICIES:
            raise ValueError(f"t_policy must be one of {T_POLICIES}, got {self.t_policy!r}")
        if self.t_policy == "fixed" and self.t_fixed is None:
            raise ValueError("t_policy 'fixed' needs a t value")
        if self.t_fixed is not None and self.t_fixed < max(self.k_values):
            raise ValueError(f"t={self.t_fixed} is below k={max(self.k_values)}: "
                             "no edge can be rainbow")
        if not 0 <= self.eps <= sys.float_info.max:  # also false for NaN
            raise ValueError(f"eps must be a finite nonnegative number, got {self.eps}")
        if self.exact_node_budget < 0:
            raise ValueError("exact_node_budget must be nonnegative")
        if self.max_resamples is not None and self.max_resamples < 0:
            raise ValueError("max_resamples must be nonnegative")
        if self.event_scan not in EVENT_SCANS:
            raise ValueError(f"event_scan must be one of {EVENT_SCANS}, got {self.event_scan!r}")

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        import json
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("experiment spec must be a JSON object")
        unknown = set(data) - set(SPEC_KEYS)
        if unknown:
            raise ValueError(f"unknown experiment spec keys: {sorted(unknown)}")
        missing = [key for key, (_, _, default) in SPEC_KEYS.items()
                   if default is REQUIRED and key not in data]
        if missing:
            raise ValueError(f"experiment spec lacks required keys: {missing}")
        kwargs: dict[str, object] = {}
        for key, (field_name, kind, default) in SPEC_KEYS.items():
            if key not in data:
                continue
            value = data[key]
            if field_name.endswith("_values"):
                value = tuple(value) if isinstance(value, list) else (value,)
                for item in value:
                    _check_spec_type(key, item, kind)
            else:
                _check_spec_type(key, value, kind, default is None)
            kwargs[field_name] = value
        return cls(**kwargs)  # type: ignore[arg-type]


def _policy_t(policy: str, t_fixed: int | None, eps: float, h: Hypergraph) -> int:
    """The palette a policy names for instance h: t_fixed, k for an edgeless
    h, else the policy's closed form at h's k, max degree and m."""
    if policy == "fixed":
        return t_fixed  # type: ignore[return-value]
    if h.m == 0:
        return h.k
    from .bounds import lcl_min_colors, theorem_ceil_colors
    h._incident  # the CSR, built first from the columns: the solver needs it, and the max
    # degree then comes from its offsets instead of another pass over the columns
    delta = max_degree(h)
    t = (lcl_min_colors(h.k, delta, h.m) if policy == "lcl-min"
         else theorem_ceil_colors(h.k, delta, h.m, eps))
    # a single edge already needs k colors; the closed forms can dip below k
    # at tiny m, where their "sufficiently large m" premise fails
    return max(t, h.k)


def run_experiment(spec: ExperimentSpec) -> list[dict[str, object]]:
    """Run the plan, write the CSV incrementally (header first, rows flushed
    after every cell so a failing cell cannot take earlier results with it),
    and return the rows. A failing cell is reported on stderr and skipped; the
    harness continues with the next cell."""
    import csv
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
    from .bounds import lcl_min_colors, lower_bound_colors, remark_bound, theorem_bound
    from .solver import NodeBudgetExceeded, SolverConfig, exact_harmonious_number, resample_solve
    out: list[dict[str, object]] = []
    for trial in range(spec.trials):
        seed = spec.base_seed + cell_index * spec.trials + trial
        cfg = GeneratorConfig(k=k, n=n, m=m, max_degree=dmax, seed=seed)
        instance = generate_random_bounded_degree(cfg)
        t = _policy_t(spec.t_policy, spec.t_fixed, spec.eps, instance)
        delta = max_degree(instance)
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
    from .coloring import serialize_coloring
    from .solver import SolverConfig, resample_solve
    if args.t_policy == "fixed" and args.colors is None:
        print("solve: --t-policy fixed needs --colors", file=sys.stderr)
        return EXIT_USAGE
    if args.t_policy != "fixed" and args.colors is not None:
        print("solve: --colors conflicts with --t-policy "
              f"{args.t_policy}; pick one", file=sys.stderr)
        return EXIT_USAGE
    instance = _load_instance(args.input)
    t = _policy_t(args.t_policy, args.colors, args.eps, instance)
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
    from .coloring import EventIndex, _verdict, colors_used, parse_coloring
    instance = _load_instance(args.input)
    coloring, _ = parse_coloring(Path(args.coloring).read_text())
    try:  # also refuses a coloring of another vertex count
        ok, keyed = _verdict(instance, coloring)
    except ValueError as exc:
        print(f"verify: {exc}", file=sys.stderr)
        return EXIT_IO
    if ok:
        print(f"harmonious: t={coloring.t} colors_used={colors_used(coloring)}")
        return EXIT_OK
    index = EventIndex(instance, coloring.colors, keyed)
    for idx in index.bad:
        verts = instance._row(idx)
        cols = tuple(coloring.colors[v] for v in verts)
        print(f"bad edge {idx}: vertices {verts} colored {cols}")
    for e, f, i in index.pairs:
        print(f"same pattern: edges {e} and {f} (|e\\f| = {i})")
    return EXIT_NEGATIVE


def cmd_exact(args: argparse.Namespace) -> int:
    from .solver import NodeBudgetExceeded, exact_harmonious_number
    instance = _load_instance(args.input)
    try:
        value = exact_harmonious_number(instance, args.node_budget)
    except NodeBudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE
    print(value)
    return EXIT_OK


def _bound_rows(args: argparse.Namespace) -> list[tuple[str, str]]:
    from .bounds import (FloatRangeError, bad_edge_prob_bound, bad_edge_prob_exact,
                         check_certificate_k, lcl_condition, lcl_min_colors,
                         lower_bound_colors, monte_carlo_event_probs, pattern_prob_bound,
                         remark_bound, tau_grid_search, theorem_bound)
    k, delta, m, eps = args.k, args.delta, args.m, args.eps
    check_certificate_k(k)  # first: the closed forms' k! alone takes hours at k = 10**9

    def closed_form(bound: Callable[..., float], *inputs) -> str:
        try:  # a value beyond float range is a row; the exact rows still answer
            return _fmt(bound(k, delta, m, *inputs))
        except FloatRangeError:
            return "beyond float range"

    rows = [
        ("theorem", closed_form(theorem_bound, eps)),
        ("remark", closed_form(remark_bound)),
        ("lower", str(lower_bound_colors(k, m))),
        ("lcl_min", str(lcl_min_colors(k, delta, m))),
    ]
    if args.t is not None:
        result = lcl_condition(k, delta, m, args.t, args.tau)
        rows.append((f"lcl_holds_t{args.t}", "true" if result.holds else "false"))
        exact = [("lcl_slack", result.slack),
                 ("bad_edge_exact", bad_edge_prob_exact(k, args.t)),
                 ("bad_edge_bound", bad_edge_prob_bound(k, args.t))]
        exact += [(f"pattern_bound_i{i}", pattern_prob_bound(i, args.t)) for i in range(1, k + 1)]
        try:  # str refuses an integer beyond the interpreter's digit limit
            rows.extend((f"{name}_t{args.t}", str(value)) for name, value in exact)
        except ValueError:
            inputs = "--t" if args.tau is None else "--t or --tau"
            raise ValueError(f"{inputs} is too large at k={k}: an exact value "
                             "has too many digits to print") from None
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
        import csv
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow([name for name, _ in rows])
        writer.writerow([value for _, value in rows])
    else:
        width = max(len(name) for name, _ in rows)
        for name, value in rows:
            print(f"{name:<{width}}  {value}")
    return EXIT_OK


def cmd_experiment(args: argparse.Namespace) -> int:
    import json
    try:
        spec = ExperimentSpec.from_json(Path(args.spec).read_text())
    except (json.JSONDecodeError, RecursionError) as exc:  # json.loads recurses per nesting level
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    if args.output:
        spec = spec._replace(output=args.output)
    rows = run_experiment(spec)
    print(f"wrote {spec.output}: {len(rows)} rows")
    return EXIT_OK if rows else EXIT_NEGATIVE


# ------------------------------------------------------------------ parser

def _rational(text: str) -> Fraction:
    """argparse type for a rational like 3/2 or 1.5e-3; a zero denominator is
    a usage error like any other malformed number. Fraction computes
    10**exponent exactly, so an exponent beyond the int digit limit (Python's
    default of 4300 when the limit is off) is refused before it is built."""
    from fractions import Fraction
    exponent = text.strip().lower().partition("e")[2].lstrip("+-").replace("_", "").lstrip("0")
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
    if exponent.isdecimal() and (len(exponent) > len(str(limit)) or int(exponent) > limit):
        raise argparse.ArgumentTypeError(f"exponent beyond {limit}: {text!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from None


def _gen_parser(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("gen", help="write a random bounded-degree instance")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--max-degree", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-restarts", type=int, default=None)
    p.add_argument("--output", default=None, help="instance file (default stdout)")
    p.set_defaults(func=cmd_gen)


def _solve_parser(sub: argparse._SubParsersAction) -> None:
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


def _verify_parser(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("verify", help="check a coloring file against an instance")
    p.add_argument("--input", required=True, help="instance file")
    p.add_argument("--coloring", required=True, help="coloring file")
    p.set_defaults(func=cmd_verify)


def _exact_parser(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("exact", help="harmonious number by branch and bound")
    p.add_argument("--input", required=True, help="instance file")
    p.add_argument("--node-budget", type=int, default=DEFAULT_NODE_BUDGET)
    p.set_defaults(func=cmd_exact)


def _bound_parser(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("bound", help="print the bound calculators side by side")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--eps", type=float, default=0.0)
    p.add_argument("--t", type=int, default=None,
                   help="also evaluate the certificate and event bounds at this t")
    p.add_argument("--tau", type=_rational, default=None,
                   help="rational tau like 3/2 (default k/(k-1))")
    p.add_argument("--tau-grid", type=int, nargs="?", const=16, default=None,
                   help="search tau over a rational grid with this denominator")
    p.add_argument("--mc-trials", type=int, default=None)
    p.add_argument("--mc-i", type=int, default=None,
                   help="pattern size for the Monte Carlo check (default k)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("table", "csv"), default="table")
    p.set_defaults(func=cmd_bound)


def _experiment_parser(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("experiment", help="run a seeded batch and emit CSV")
    p.add_argument("--spec", required=True, help="JSON experiment spec")
    p.add_argument("--output", default=None, help="override the spec's CSV path")
    p.set_defaults(func=cmd_experiment)


# each command's subparser, in the order the help lists them
SUBPARSERS = {"gen": _gen_parser, "solve": _solve_parser, "verify": _verify_parser,
              "exact": _exact_parser, "bound": _bound_parser, "experiment": _experiment_parser}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI's parser, with every command's subparser, or only that of
    command. The subparsers' metavar is the one argparse would make from all
    of them, so the top-level usage reads the same either way; it is left
    unset on the full parser, whose invalid-choice error names it."""
    parser = argparse.ArgumentParser(
        prog="harmcolor",
        description="Harmonious colorings of k-uniform hypergraphs: "
                    "verify, solve, bound, generate, experiment.",
        epilog="exit codes: 0 ok; 1 negative answer; 2 usage; 3 I/O or format",
    )
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar=None if command is None
                                else "{" + ",".join(SUBPARSERS) + "}")
    for name in SUBPARSERS if command is None else [command]:
        SUBPARSERS[name](sub)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command with the cyclic garbage collector off, then restore
    the collector's prior state. A command builds only acyclic data, which
    reference counting frees, and the collector's passes over the 10^5-10^6
    young lists and tuples of a large load would find nothing to free."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if collecting:
            gc.enable()


def _run(argv: Sequence[str] | None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a command word first needs only its own subparser; anything else (help,
    # no arguments, an unknown word) gets the full parser and its messages
    parser = build_parser(argv[0] if argv and argv[0] in SUBPARSERS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage or help
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except (FormatError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError:  # e.g. a header or --n declaring more vertices than fit
        print("error: out of memory", file=sys.stderr)
        return EXIT_IO
    except GenerationFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main_and_exit() -> NoReturn:
    """The script entry of every CLI child (``harmcolor``, ``python -m
    harmcolor`` and ``python -m harmcolor.cli``): run main, run the atexit
    handlers (a coverage or profiling hook saves its data there), flush
    stdout and stderr, and end the process with os._exit, skipping the
    interpreter's teardown, whose freeing of every module and object a dying
    process does not need. That is the interpreter's own exit order, except
    that a failed flush is reported as an I/O error, exit 3, where the
    interpreter would print "Exception ignored" and exit 120. An exception
    that escapes main takes the interpreter's usual exit."""
    code = main()
    atexit._run_exitfuncs()
    for stream in (sys.stdout, sys.stderr):
        try:
            if stream is not None:  # None when the process started with the stream closed
                stream.flush()
        except OSError as exc:
            code = EXIT_IO
            try:
                print(f"error: {exc}", file=sys.stderr, flush=True)
            except OSError:  # stderr cannot take the report either
                pass
    os._exit(code)


if __name__ == "__main__":
    main_and_exit()
