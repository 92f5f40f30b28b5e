"""Harmonious colorings of k-uniform hypergraphs.

A coloring is harmonious when every edge is rainbow (k distinct colors) and no
two edges receive the same set of colors. The package bundles the exact
verification primitives, a resampling solver with certificate-backed palette
sizes, closed-form upper and lower bounds on the harmonious number, a
branch-and-bound exact solver, and a seeded experiment harness.
"""

from .bounds import (
    LclResult,
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
    BadEdge,
    Coloring,
    LocalEvents,
    SamePattern,
    bad_edges,
    colors_used,
    is_harmonious,
    local_bad_events,
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
    builtin_instance,
    generate_random_bounded_degree,
    max_degree,
    parse_hypergraph,
    serialize_hypergraph,
)
from .solver import (
    NodeBudgetExceeded,
    SolveReport,
    SolverConfig,
    TraceStep,
    exact_harmonious_number,
    greedy_upper,
    resample_solve,
    sample_uniform_coloring,
)

__version__ = "0.1.0"


def __getattr__(name: str):
    # the CLI loads on first use, so ``python -m harmcolor.cli`` does not find
    # the module already imported by the package
    if name in ("ExperimentSpec", "main", "run_experiment"):
        from . import cli
        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BadEdge",
    "Coloring",
    "ExperimentSpec",
    "FormatError",
    "GenerationFailure",
    "GeneratorConfig",
    "Hypergraph",
    "InfeasibleConfigError",
    "LclResult",
    "LocalEvents",
    "NodeBudgetExceeded",
    "SamePattern",
    "SolveReport",
    "SolverConfig",
    "TraceStep",
    "bad_edge_prob_bound",
    "bad_edge_prob_exact",
    "bad_edges",
    "builtin_instance",
    "colors_used",
    "exact_harmonious_number",
    "generate_random_bounded_degree",
    "greedy_upper",
    "is_harmonious",
    "lcl_condition",
    "lcl_min_colors",
    "local_bad_events",
    "lower_bound_colors",
    "main",
    "max_degree",
    "monte_carlo_event_probs",
    "parse_coloring",
    "parse_hypergraph",
    "pattern_collisions",
    "pattern_prob_bound",
    "remark_bound",
    "resample_solve",
    "run_experiment",
    "sample_uniform_coloring",
    "serialize_coloring",
    "serialize_hypergraph",
    "tau_grid_search",
    "theorem_bound",
    "theorem_ceil_colors",
    "__version__",
]
