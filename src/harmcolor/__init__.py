"""Harmonious colorings of k-uniform hypergraphs.

A coloring is harmonious when every edge is rainbow (k distinct colors) and no
two edges receive the same set of colors. The package bundles the exact
verification primitives, a resampling solver with certificate-backed palette
sizes, closed-form upper and lower bounds on the harmonious number, a
branch-and-bound exact solver, and a seeded experiment harness.
"""

__version__ = "0.1.0"

# each export's module, imported on the export's first use: a CLI command
# loads only the modules it runs, and ``python -m harmcolor.cli`` does not
# find the CLI already imported
_EXPORTS = {name: module for module, names in {
    "_base": "FormatError GenerationFailure InfeasibleConfigError",
    "bounds": "LclResult bad_edge_prob_bound bad_edge_prob_exact lcl_condition lcl_min_colors "
              "lower_bound_colors monte_carlo_event_probs pattern_prob_bound remark_bound "
              "tau_grid_search theorem_bound theorem_ceil_colors",
    "cli": "main",
    "coloring": "BadEdge Coloring LocalEvents SamePattern bad_edges colors_used is_harmonious "
                "local_bad_events pattern_collisions serialize_coloring",
    "exact": "NodeBudgetExceeded exact_harmonious_number greedy_upper",
    "experiment": "ExperimentSpec run_experiment",
    "generate": "GeneratorConfig builtin_instance generate_random_bounded_degree",
    "hypergraph": "Hypergraph max_degree serialize_hypergraph",
    "readers": "parse_coloring parse_hypergraph",
    "solver": "SolveReport SolverConfig TraceStep resample_solve sample_uniform_coloring",
}.items() for name in names.split()}
__all__ = [*sorted(_EXPORTS), "__version__"]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = globals()[name] = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

