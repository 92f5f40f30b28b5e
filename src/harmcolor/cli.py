"""Command-line front end: the parser, dispatch and the script entry.

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
from itertools import chain, islice
from pathlib import Path
from typing import TYPE_CHECKING, NoReturn, Sequence

# each command imports the module that does its work, and csv, fractions and
# json, when it runs, so that a CLI child loads only what its command needs
from ._base import (DEFAULT_NODE_BUDGET, EVENT_SCANS, T_POLICIES, FormatError,
                    GenerationFailure, _report)

if TYPE_CHECKING:
    from fractions import Fraction

    from .hypergraph import Hypergraph

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_IO = 3


# ----------------------------------------------------------------- commands

def cmd_gen(args: argparse.Namespace) -> int:
    from .generate import GeneratorConfig, generate_random_bounded_degree
    from .hypergraph import max_degree, serialize_hypergraph
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
    from .readers import parse_hypergraph
    return parse_hypergraph(Path(path).read_text())


def cmd_solve(args: argparse.Namespace) -> int:
    from .coloring import serialize_coloring
    from .solver import SolverConfig, _policy_t, resample_solve
    if args.t_policy == "fixed" and args.colors is None:
        _report("solve: --t-policy fixed needs --colors")
        return EXIT_USAGE
    if args.t_policy != "fixed" and args.colors is not None:
        _report(f"solve: --colors conflicts with --t-policy {args.t_policy}; pick one")
        return EXIT_USAGE
    instance = _load_instance(args.input)
    t = _policy_t(args.t_policy, args.colors, args.eps, instance)
    report = resample_solve(instance, SolverConfig(
        t=t, seed=args.seed, max_resamples=args.max_resamples,
        event_scan=args.scan))
    summary = " ".join(f"{key}={value}" for key, value in report.as_record().items())
    info = print if args.output else _report  # stdout holds the coloring without --output
    info(f"solve: {summary}")
    if not report.success:
        info(f"solve: budget exhausted after {report.resamples_total} resamples; "
             f"no harmonious coloring with t={t} found")
        return EXIT_NEGATIVE
    text = serialize_coloring(report.coloring, instance.n)
    if args.output:
        Path(args.output).write_text(text)
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    from .coloring import EventIndex, _verdict, colors_used
    from .readers import parse_coloring
    instance = _load_instance(args.input)
    coloring, _ = parse_coloring(Path(args.coloring).read_text())
    try:  # also refuses a coloring of another vertex count
        ok, keyed = _verdict(instance, coloring)
    except ValueError as exc:
        _report(f"verify: {exc}")
        return EXIT_IO
    if ok:
        print(f"harmonious: t={coloring.t} colors_used={colors_used(coloring)}")
        return EXIT_OK
    index, colors = EventIndex(instance, coloring.colors, keyed), coloring.colors
    # the lines are joined 4,096 at a time, as the serialisers do, so that an
    # unbuffered stdout takes a long report in a few writes, not one per line
    report = chain(
        (f"bad edge {idx}: vertices {verts} colored {tuple(map(colors.__getitem__, verts))}\n"
         for idx, verts in zip(index.bad, map(instance._row, index.bad))),
        (f"same pattern: edges {e} and {f} (|e\\f| = {i})\n" for e, f, i in index.pairs))
    while chunk := "".join(islice(report, 4096)):
        sys.stdout.write(chunk)
    return EXIT_NEGATIVE


def cmd_exact(args: argparse.Namespace) -> int:
    from .exact import NodeBudgetExceeded, exact_harmonious_number
    instance = _load_instance(args.input)
    try:
        value = exact_harmonious_number(instance, args.node_budget)
    except NodeBudgetExceeded as exc:
        _report(f"error: {exc}")
        return EXIT_NEGATIVE
    print(value)
    return EXIT_OK


def cmd_bound(args: argparse.Namespace) -> int:
    from .experiment import _bound_rows
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

    from .experiment import ExperimentSpec, run_experiment
    try:
        spec = ExperimentSpec.from_json(Path(args.spec).read_text())
    except (json.JSONDecodeError, RecursionError) as exc:  # json.loads recurses per nesting level
        _report(f"error: {exc}")
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
        _report(f"error: {exc}")
        return EXIT_IO
    except MemoryError:  # e.g. a header or --n declaring more vertices than fit
        _report("error: out of memory")
        return EXIT_IO
    except GenerationFailure as exc:
        _report(f"error: {exc}")
        return EXIT_NEGATIVE
    except ValueError as exc:
        _report(f"error: {exc}")
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
            _report(f"error: {exc}")
    os._exit(code)


if __name__ == "__main__":
    main_and_exit()
