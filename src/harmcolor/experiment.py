"""The experiment harness and the bound table.

run_experiment runs a seeded batch plan (ExperimentSpec) cell by cell and
writes one CSV row per trial; _bound_rows gives the rows of the ``bound``
command. Both print the bounds' floats alike (_fmt). The generator, the
solvers and the bounds are imported when a cell or a table runs, so that
``bound`` loads no instance code.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from itertools import product
from typing import TYPE_CHECKING, Callable

from ._base import DEFAULT_NODE_BUDGET, EVENT_SCANS, T_POLICIES, _Checked, _report

if TYPE_CHECKING:
    import argparse

CSV_COLUMNS = [
    "k", "n", "m", "max_degree_cap", "delta", "trial", "seed", "t_policy", "t",
    "success", "resamples", "colors_used", "exact_h",
    "theorem_bound", "remark_bound", "lower_bound", "lcl_min_colors",
]


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
                _report(f"warning: cell (k={k}, n={n}, m={m}, max_degree={dmax}) "
                        f"failed: {exc}")
                continue
            for row in cell_rows:
                writer.writerow(row)
            handle.flush()
            rows.extend(cell_rows)
    return rows


def _run_cell(spec: ExperimentSpec, cell_index: int,
              k: int, n: int, m: int, dmax: int) -> list[dict[str, object]]:
    from .bounds import lcl_min_colors, lower_bound_colors, remark_bound, theorem_bound
    from .exact import NodeBudgetExceeded, exact_harmonious_number
    from .generate import GeneratorConfig, generate_random_bounded_degree
    from .hypergraph import max_degree
    from .solver import SolverConfig, _policy_t, resample_solve
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
