"""Resampling solver, exact branch and bound, and the greedy upper bound."""

import hashlib
import random
from collections import Counter
from itertools import combinations
from math import sqrt

import pytest
from hypothesis import given, settings, strategies as st

from harmcolor import (
    BadEdge,
    Coloring,
    GeneratorConfig,
    Hypergraph,
    NodeBudgetExceeded,
    SamePattern,
    SolverConfig,
    builtin_instance,
    exact_harmonious_number,
    generate_random_bounded_degree,
    greedy_upper,
    is_harmonious,
    lcl_min_colors,
    lower_bound_colors,
    max_degree,
    resample_solve,
    sample_uniform_coloring,
    serialize_coloring,
)
from harmcolor.solver import EVENT_SCANS, LeastEventIndex, RandomEventIndex
from oracles import naive_bad_edges, naive_h, naive_pattern_pairs

GREEDY_TRAP = Hypergraph(2, 5, [(0, 2), (1, 2), (0, 3), (1, 4)])


# ------------------------------------------------------------ the sampler

def test_sample_uniform_shape_and_determinism():
    h = builtin_instance("path", 6)
    c = sample_uniform_coloring(h, t=3, seed=5)
    assert set(c.assignment) == set(range(6))
    assert all(1 <= col <= 3 for col in c.assignment.values())
    assert c == sample_uniform_coloring(h, t=3, seed=5)
    assert c != sample_uniform_coloring(h, t=3, seed=6)


def test_sample_uniform_single_color():
    h = builtin_instance("path", 4)
    c = sample_uniform_coloring(h, t=1, seed=0)
    assert set(c.assignment.values()) == {1}


def test_sample_uniform_frequencies_within_4_sigma():
    h = Hypergraph(2, 10_000, [(0, 1)])
    c = sample_uniform_coloring(h, t=4, seed=99)
    counts = Counter(c.assignment.values())
    expected = 10_000 / 4
    tol = 4.0 * sqrt(10_000 * 0.25 * 0.75)
    for color in range(1, 5):
        assert abs(counts[color] - expected) <= tol


# ------------------------------------------------------- resampling solver

def test_resample_rejects_small_palette(triangle):
    with pytest.raises(ValueError):
        resample_solve(triangle, SolverConfig(t=1))


def test_resample_single_edge_gets_a_permutation():
    h = builtin_instance("matching", 1, k=3)
    report = resample_solve(h, SolverConfig(t=3, seed=2))
    assert report.success
    assert sorted(report.coloring.assignment.values()) == [1, 2, 3]


def test_resample_triangle(triangle):
    report = resample_solve(triangle, SolverConfig(t=3, seed=0))
    assert report.success
    assert is_harmonious(triangle, report.coloring)
    assert report.colors_used == 3
    assert report.t == 3 and report.seed == 0


def test_resample_failure_is_honest(path4):
    # no 2-coloring of a 3-edge path is harmonious, so the budget must run out
    report = resample_solve(path4, SolverConfig(t=2, seed=1, max_resamples=5000))
    assert not report.success
    assert report.resamples_total == 5000
    # the report keeps the last state for inspection; it is not harmonious
    assert not is_harmonious(path4, report.coloring)


def test_resample_report_bookkeeping(triangle):
    report = resample_solve(triangle, SolverConfig(t=3, seed=11))
    assert report.resamples_total == (report.resamples_bad_edge
                                      + sum(report.resamples_same_pattern.values()))
    assert sorted(report.resamples_same_pattern) == list(range(1, triangle.k + 1))
    record = report.as_record()
    assert record["success"] is True
    assert record["resamples_pattern_i1"] == report.resamples_same_pattern[1]


def test_resample_is_deterministic():
    h = generate_random_bounded_degree(GeneratorConfig(k=3, n=30, m=12,
                                                       max_degree=2, seed=4))
    a = resample_solve(h, SolverConfig(t=8, seed=7))
    b = resample_solve(h, SolverConfig(t=8, seed=7))
    assert a.success and b.success
    assert a.coloring == b.coloring
    assert a.resamples_total == b.resamples_total


def test_resample_soundness_across_seeds_and_instances():
    rng = random.Random(0)
    for trial in range(25):
        k = rng.choice((2, 3))
        n = rng.randint(2 * k, 18)
        dmax = rng.randint(1, 3)
        m = rng.randint(1, max(1, (n * dmax) // k))
        h = generate_random_bounded_degree(
            GeneratorConfig(k=k, n=n, m=m, max_degree=dmax, seed=trial))
        t = max(h.k, lower_bound_colors(k, m) + 2)
        report = resample_solve(h, SolverConfig(t=t, seed=trial))
        if report.success:
            assert is_harmonious(h, report.coloring)
            assert report.colors_used <= t


def test_resample_at_certificate_palette_converges_fast():
    h = generate_random_bounded_degree(GeneratorConfig(k=3, n=60, m=15,
                                                       max_degree=2, seed=3))
    t = lcl_min_colors(3, 2, 15)
    report = resample_solve(h, SolverConfig(t=t, seed=3))
    assert report.success
    assert report.resamples_total <= 50  # certificate palettes leave huge slack


def test_random_scan_mode_also_solves(triangle):
    a = resample_solve(triangle, SolverConfig(t=3, seed=5, event_scan="random"))
    assert a.success and is_harmonious(triangle, a.coloring)
    b = resample_solve(triangle, SolverConfig(t=3, seed=5, event_scan="random"))
    assert a.coloring == b.coloring


def test_trace_starts_at_the_uniform_sample_and_touches_only_scopes():
    h = builtin_instance("cycle", 5)
    cfg = SolverConfig(t=5, seed=3, trace_limit=10_000)  # seed 3: 42 resamples
    report = resample_solve(h, cfg)
    assert report.success and not report.trace_truncated
    assert len(report.trace) == report.resamples_total >= 2
    current = [sample_uniform_coloring(h, 5, seed=3).assignment[v]
               for v in range(h.n)]
    for step in report.trace:
        scope = set(step.scope)
        for v in range(h.n):
            if v not in scope:
                assert step.colors_after[v] == current[v]
        current = list(step.colors_after)
    assert {v: c for v, c in enumerate(current)} == dict(report.coloring.assignment)


def test_trace_truncation_flag():
    report = resample_solve(builtin_instance("cycle", 5),
                            SolverConfig(t=5, seed=3, trace_limit=1))
    assert report.success and report.resamples_total > 1
    assert report.trace_truncated
    assert len(report.trace) == 1


@st.composite
def small_runs(draw):
    """A small instance with a tight palette and a budget that many runs
    exhaust, on either scan, traced in full."""
    k = draw(st.integers(2, 3))
    n = draw(st.integers(k + 1, 8))
    edges = draw(st.lists(st.sampled_from(list(combinations(range(n), k))),
                          min_size=1, max_size=10, unique=True))
    cfg = SolverConfig(t=draw(st.integers(k, k + 4)), seed=draw(st.integers(0, 2 ** 16)),
                       max_resamples=draw(st.integers(0, 60)),
                       event_scan=draw(st.sampled_from(EVENT_SCANS)), trace_limit=100)
    return Hypergraph(k, n, edges), cfg


@given(small_runs())
@settings(max_examples=200, deadline=None)
def test_every_step_takes_an_event_the_oracles_see(run):
    h, cfg = run
    report = resample_solve(h, cfg)
    assert not report.trace_truncated and len(report.trace) == report.resamples_total
    current = sample_uniform_coloring(h, cfg.t, cfg.seed)
    taken = Counter()
    for step in report.trace:
        events = ([BadEdge(idx) for idx in naive_bad_edges(h, current)]
                  + [SamePattern(*pair) for pair in naive_pattern_pairs(h, current)])
        if cfg.event_scan == "deterministic":
            # the least bad edge, else the lexicographically least pair
            assert step.event == events[0]
        else:
            assert step.event in events
        if isinstance(step.event, BadEdge):
            assert step.scope == h.edges[step.event.edge]
            taken["bad"] += 1
        else:
            e, f = set(h.edges[step.event.e]), set(h.edges[step.event.f])
            assert step.scope == tuple(sorted(e ^ f))
            taken[step.event.i] += 1
        after = dict(enumerate(step.colors_after))
        assert all(after[v] == current.assignment[v] for v in range(h.n) if v not in step.scope)
        current = Coloring(t=cfg.t, assignment=after)
    assert current == report.coloring
    assert taken["bad"] == report.resamples_bad_edge
    assert all(taken[i] == count for i, count in report.resamples_same_pattern.items())
    left = naive_bad_edges(h, current) or naive_pattern_pairs(h, current)
    assert report.success == (not left)
    if not report.success:
        assert report.resamples_total == cfg.max_resamples


@st.composite
def recoloring_walks(draw):
    """A small instance, a tight palette, a start coloring and a walk of
    recolorings, each of one to k vertices."""
    k = draw(st.integers(2, 3))
    n = draw(st.integers(k + 1, 7))
    edges = draw(st.lists(st.sampled_from(list(combinations(range(n), k))),
                          min_size=1, max_size=12, unique=True))
    t = draw(st.integers(k, k + 2))
    color = st.integers(1, t)
    start = draw(st.lists(color, min_size=n, max_size=n))
    moves = draw(st.lists(st.dictionaries(st.integers(0, n - 1), color, min_size=1, max_size=k),
                          max_size=25))
    return Hypergraph(k, n, edges), t, start, moves


def walk_event_indexes(h: Hypergraph, t: int, start: list[int], moves: list[dict[int, int]]):
    """Apply each recoloring, refresh the edges it meets, and check both
    indexes against the oracles: the random scan's event lists exactly, the
    deterministic scan's pick as the least event."""
    colors = list(start)
    least = LeastEventIndex(h, colors)
    rand = RandomEventIndex(h, colors, random.Random(0))
    for move in [{}] + moves:
        for v, c in move.items():
            colors[v] = c
        touched = {idx for v in move for idx in h.incidence[v]}
        least.refresh(touched)
        rand.refresh(touched)
        current = Coloring(t=t, assignment=dict(enumerate(colors)))
        bad, pairs = naive_bad_edges(h, current), naive_pattern_pairs(h, current)
        assert rand.bad == bad and rand.pairs == pairs
        if bad:
            assert least.pick() == BadEdge(bad[0])
        elif pairs:
            assert least.pick() == SamePattern(*pairs[0])
        else:
            assert least.pick() is None


@given(recoloring_walks())
@settings(max_examples=300, deadline=None)
def test_event_indexes_track_the_oracles_through_recolorings(walk):
    walk_event_indexes(*walk)


def test_least_pair_survives_its_group_minimum_leaving_and_returning():
    # three disjoint edges share the key (1, 2); edge 0 leaves the group,
    # so its next minimum must surface, then rejoins as the new minimum
    h = builtin_instance("matching", 3, k=2)
    walk_event_indexes(h, 4, [1, 2, 1, 2, 1, 2], [{0: 3, 1: 4}, {0: 1, 1: 2}])


def golden_instance(seed: int, k: int, n: int, m: int) -> Hypergraph:
    """m distinct random k-edges on n vertices, from this file's own stream."""
    rng = random.Random(seed)
    edges = set()
    while len(edges) < m:
        edges.add(tuple(sorted(rng.sample(range(n), k))))
    return Hypergraph(k, n, sorted(edges))


# (k, n, m, palette, budget) -> SHA-256 of the coloring file plus the report
# record, per scan; recorded before the event index replaced the full scans.
# The first four runs succeed in under 700 resamples; the budget only stops
# a broken index from running on.
RUN_GOLDENS = {
    (2, 2000, 2000, "certified", 20_000): (
        "8448b5301e8e864f5ec253bcb3d193e8cca12ffe0f51ae578d0adf685a02bdb4",
        "da4ad55e887697410824c6783b5b57f7ff9e288d445b4aefa482faaeaa60cb9e"),
    (2, 2000, 2000, "3x", 20_000): (
        "225b19e6484c3fb548e74d5d169ddadf813387e67140a62cbcf8410c209020b8",
        "172743d7c00e2899c8407e8c1b630978a324418f9a57a97aa9ee508a307b9a27"),
    (3, 3000, 3000, "certified", 20_000): (
        "234f9d7474e95e1ed25253d8297c5386c32306403a22e1bf34373f72e20e51c4",
        "6b87757c46aa157e37aa7d0a4b8f9694d7c81cb5549e072c6ec67b584ca82b85"),
    (3, 3000, 3000, "3x", 20_000): (
        "98319025b6a841bf4d802d8c8eec19ebb58d353063b0e7a88800f9ecc9819152",
        "3488cf5fdf3e2108275f6a0b04c18153600a0572ffeb1943aa5ff6be701534b7"),
    (3, 40, 40, "1x", 2000): (  # C(8, 3) = 56 keys for 40 edges: the budget runs out
        "0c766d3436fec9e986b9754733e181540305b63b51869004d03bf3e9410ca265",
        "59b81a41546f67cd8a3defb8c12af3496f8f2ad8fb16ccaa1613a784375d1327"),
}


@pytest.mark.parametrize("case", RUN_GOLDENS, ids=lambda c: f"k{c[0]}-m{c[2]}-{c[3]}")
def test_fixed_seed_runs_match_their_goldens(case):
    k, n, m, palette, budget = case
    h = golden_instance(k * 1000 + m, k, n, m)
    if palette == "certified":
        t = lcl_min_colors(k, max_degree(h), m)
    else:
        t = int(palette[0]) * lower_bound_colors(k, m)
    for scan, expected in zip(EVENT_SCANS, RUN_GOLDENS[case]):
        report = resample_solve(h, SolverConfig(t=t, seed=7, max_resamples=budget, event_scan=scan))
        assert report.success == (palette != "1x")
        text = serialize_coloring(report.coloring, h.n) + repr(report.as_record())
        assert hashlib.sha256(text.encode()).hexdigest() == expected, scan


# ----------------------------------------------------------- exact solver

EXACT_GOLDENS = [
    (builtin_instance("cycle", 3), 3),
    (builtin_instance("path", 3), 3),
    (builtin_instance("path", 4), 3),
    (builtin_instance("path", 5), 4),
    (builtin_instance("cycle", 4), 4),
    (builtin_instance("cycle", 5), 5),
    (builtin_instance("matching", 2, k=2), 3),
    (builtin_instance("matching", 2, k=3), 4),
    (builtin_instance("k-star", 3, k=2), 4),
    (builtin_instance("matching", 1, k=2), 2),
    (builtin_instance("matching", 1, k=3), 3),
    (builtin_instance("matching", 1, k=4), 4),
    (GREEDY_TRAP, 4),
]


@pytest.mark.parametrize("h, expected", EXACT_GOLDENS,
                         ids=[f"case{i}" for i in range(len(EXACT_GOLDENS))])
def test_exact_goldens(h, expected):
    assert exact_harmonious_number(h) == expected


def test_exact_matches_brute_force_on_small_instances():
    rng = random.Random(1)
    from itertools import combinations
    for trial in range(12):
        k = rng.choice((2, 3))
        n = rng.randint(k, 6)
        pool = list(combinations(range(n), k))
        m = rng.randint(0, min(len(pool), 4))
        h = Hypergraph(k, n, rng.sample(pool, m))
        assert exact_harmonious_number(h) == naive_h(h)


def test_exact_edgeless_is_zero():
    assert exact_harmonious_number(Hypergraph(3, 7, [])) == 0


def test_exact_respects_node_budget():
    with pytest.raises(NodeBudgetExceeded):
        exact_harmonious_number(builtin_instance("cycle", 5), node_budget=3)


# ----------------------------------------------------------------- greedy

def test_greedy_single_edge_uses_exactly_k_colors():
    for k in (2, 3, 4):
        h = builtin_instance("matching", 1, k=k)
        coloring, t = greedy_upper(h)
        assert t == k and is_harmonious(h, coloring)


def test_greedy_triangle(triangle):
    coloring, t = greedy_upper(triangle)
    assert t == 3 and is_harmonious(triangle, coloring)


def test_greedy_survives_the_deadlock_trap():
    # a feasibility check that ignored pattern collisions on partially shared
    # pairs would paint itself into a corner here
    coloring, t = greedy_upper(GREEDY_TRAP)
    assert is_harmonious(GREEDY_TRAP, coloring)
    assert t == 4


def test_greedy_output_is_always_harmonious_and_compact():
    rng = random.Random(2)
    for trial in range(20):
        k = rng.choice((2, 3))
        n = rng.randint(2 * k, 16)
        dmax = rng.randint(1, 3)
        m = rng.randint(1, max(1, (n * dmax) // k))
        h = generate_random_bounded_degree(
            GeneratorConfig(k=k, n=n, m=m, max_degree=dmax, seed=100 + trial))
        coloring, t = greedy_upper(h)
        assert is_harmonious(h, coloring)
        used = sorted(set(coloring.assignment.values()))
        assert used == list(range(1, t + 1))  # colors are compacted to 1..T


def test_bound_sandwich_lower_exact_greedy():
    for h, expected in EXACT_GOLDENS:
        exact = exact_harmonious_number(h)
        _, greedy_t = greedy_upper(h)
        assert lower_bound_colors(h.k, h.m) <= exact == expected <= greedy_t
