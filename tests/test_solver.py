"""Resampling solver, exact branch and bound, and the greedy upper bound."""

import hashlib
import pickle
import random
import time
from collections import Counter, defaultdict
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
    SolveReport,
    SolverConfig,
    TraceStep,
    builtin_instance,
    exact_harmonious_number,
    generate_random_bounded_degree,
    greedy_upper,
    is_harmonious,
    lcl_min_colors,
    lower_bound_colors,
    main,
    max_degree,
    resample_solve,
    sample_uniform_coloring,
    parse_hypergraph,
    serialize_coloring,
    serialize_hypergraph,
)
from harmcolor.coloring import EventIndex, _edge_keys, _odd_primes, _prime_map, _verdict, edge_key
from harmcolor._base import EVENT_SCANS
from harmcolor.exact import _forbidden, _placement_order
from harmcolor.solver import _uniform_color, _uniform_colors
from oracles import (colored, coloring_of, naive_bad_edges, naive_forbidden, naive_h,
                     naive_pattern_pairs, naive_placement_order)

GREEDY_TRAP = Hypergraph(2, 5, [(0, 2), (1, 2), (0, 3), (1, 4)])


# ------------------------------------------------------------ the sampler

def test_sample_uniform_shape_and_determinism():
    h = builtin_instance("path", 6)
    c = sample_uniform_coloring(h, t=3, seed=5)
    assert len(c.colors) == 6
    assert all(1 <= col <= 3 for col in c.colors)
    assert c == sample_uniform_coloring(h, t=3, seed=5)
    assert c != sample_uniform_coloring(h, t=3, seed=6)


def test_sample_uniform_single_color():
    h = builtin_instance("path", 4)
    c = sample_uniform_coloring(h, t=1, seed=0)
    assert set(c.colors) == {1}
    with pytest.raises(ValueError, match="palette size must be at least 1"):
        sample_uniform_coloring(h, 0)


def test_sample_uniform_frequencies_within_4_sigma():
    h = Hypergraph(2, 10_000, [(0, 1)])
    c = sample_uniform_coloring(h, t=4, seed=99)
    counts = Counter(c.colors)
    expected = 10_000 / 4
    tol = 4.0 * sqrt(10_000 * 0.25 * 0.75)
    for color in range(1, 5):
        assert abs(counts[color] - expected) <= tol


@pytest.mark.parametrize("t", [1, 2, 3, 7, 30, 129, 512, 513, 582, 2**16 + 1, 2**31 + 7, 2**64 + 3])
def test_uniform_draw_is_the_stream_of_randint(t):
    # every golden rests on this: a Python whose randint draws otherwise fails here first
    fast, slow = random.Random(t), random.Random(t)
    assert _uniform_colors(fast, 10**4, t) == [slow.randint(1, t) for _ in range(10**4)]


@pytest.mark.parametrize("n", [0, 1, 1000, 9000])
def test_the_bulk_draw_is_the_per_color_loop(n):
    # the same colors and the same generator state after them, on either
    # side of each power of two and of the 32-bit words the bulk draw reads;
    # 9,000 colors take more than two rounds of at most 4,096 words
    palettes = sorted(set(range(1, 71)) | {2 ** j + d for j in range(1, 40) for d in (-1, 0, 1)})
    for t in palettes:
        bulk, loop = random.Random(t), random.Random(t)
        getrandbits, bits = loop.getrandbits, t.bit_length()
        expected = [_uniform_color(getrandbits, bits, t) for _ in range(n)]
        assert _uniform_colors(bulk, n, t) == expected
        assert bulk.getstate() == loop.getstate()


@given(st.integers(1, 2**70), st.integers(0, 2**32))
@settings(max_examples=100)
def test_uniform_draw_is_the_stream_of_randint_for_any_t(t, seed):
    fast, slow = random.Random(seed), random.Random(seed)
    assert _uniform_colors(fast, 200, t) == [slow.randint(1, t) for _ in range(200)]


# ------------------------------------------------------- resampling solver

def test_resample_rejects_small_palette(triangle):
    with pytest.raises(ValueError):
        resample_solve(triangle, SolverConfig(t=1))


def test_solver_config_checks_every_construction_path():
    for bad in ({"t": 0}, {"max_resamples": -1}, {"event_scan": "sideways"}, {"trace_limit": -1}):
        with pytest.raises(ValueError):
            SolverConfig(**{"t": 3, **bad})
        with pytest.raises(ValueError):
            SolverConfig(t=3)._replace(**bad)  # the records are tuples; _replace checks too
    assert SolverConfig._make((3,)) == SolverConfig(t=3) == (3, 0, None, "deterministic", 0)
    assert repr(SolverConfig(t=3)) == ("SolverConfig(t=3, seed=0, max_resamples=None, "
                                       "event_scan='deterministic', trace_limit=0)")


def test_resample_single_edge_gets_a_permutation():
    h = builtin_instance("matching", 1, k=3)
    report = resample_solve(h, SolverConfig(t=3, seed=2))
    assert report.success
    assert sorted(report.coloring.colors) == [1, 2, 3]


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


def test_resample_set_up_builds_the_incidence():
    # the set-up, not the first step, pays for the CSR; its tuple view is not built
    h = generate_random_bounded_degree(GeneratorConfig(k=3, n=30, m=12,
                                                       max_degree=2, seed=4))
    assert "_csr" not in vars(h)
    report = resample_solve(h, SolverConfig(t=3, seed=7, max_resamples=0))
    assert report.resamples_total == 0 and not report.success
    assert "_csr" in vars(h) and "incidence" not in vars(h)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_solve_and_verify_read_a_parsed_instance_without_its_rows(k):
    # the solve and verify paths read the columns and single rows only
    text = serialize_hypergraph(generate_random_bounded_degree(GeneratorConfig(
        k=k, n=300, m=200, max_degree=k, seed=k)))
    h = parse_hypergraph(text)
    report = resample_solve(h, SolverConfig(t=lcl_min_colors(k, max_degree(h), h.m), seed=1))
    assert report.success and is_harmonious(h, report.coloring)
    serialize_coloring(report.coloring, h.n)
    assert "edges" not in vars(h) and "incidence" not in vars(h)
    assert pickle.loads(pickle.dumps(h)) == h  # the cached row accessor is not pickled
    h = parse_hypergraph(text)
    coloring = sample_uniform_coloring(h, 2 * k, seed=1)
    ok, keyed = _verdict(h, coloring)
    index = EventIndex(h, coloring.colors, keyed)
    assert not ok and index.bad and index.pairs
    assert "edges" not in vars(h) and "incidence" not in vars(h)
    assert index.pairs == naive_pattern_pairs(h, coloring)


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
    assert isinstance(report, SolveReport)
    assert report.success and not report.trace_truncated
    assert len(report.trace) == report.resamples_total >= 2
    current = list(sample_uniform_coloring(h, 5, seed=3).colors)
    for step in report.trace:
        assert isinstance(step, TraceStep)
        assert len(step.colors_after) == len(step.scope)
        for v, c in zip(step.scope, step.colors_after):
            current[v] = c
    assert current == report.coloring.colors


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
        assert len(step.colors_after) == len(step.scope)
        colors = list(current.colors)
        for v, c in zip(step.scope, step.colors_after):
            colors[v] = c
        current = Coloring(t=cfg.t, colors=colors)
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
    recolorings, each of one to k vertices. The palette is 1..t or, shifted,
    a few colors just below 2**40."""
    k = draw(st.integers(2, 3))
    n = draw(st.integers(k + 1, 7))
    edges = draw(st.lists(st.sampled_from(list(combinations(range(n), k))),
                          min_size=1, max_size=12, unique=True))
    t = draw(st.integers(k, k + 2))
    base = draw(st.sampled_from([0, 2 ** 40 - 8]))
    color = st.integers(base + 1, base + t)
    start = draw(st.lists(color, min_size=n, max_size=n))
    moves = draw(st.lists(st.dictionaries(st.integers(0, n - 1), color, min_size=1, max_size=k),
                          max_size=25))
    return Hypergraph(k, n, edges), base + t, start, moves


def walk_event_indexes(h: Hypergraph, t: int, start: list[int], moves: list[dict[int, int]]):
    """Apply each recoloring, refresh the edges it meets, and check the index
    against the oracles after every move: its event lists exactly, its group
    map, the deterministic pick as the least event, and a seeded random pick
    as the event at the rank that seed draws."""
    colors = list(start)
    index = EventIndex(h, colors)
    for seed, move in enumerate([{}] + moves):
        for v, c in move.items():
            colors[v] = c
        index.refresh({idx for v in move for idx in h.incidence[v]})
        check_keys_against_color_sets(h, colors, index.keys)
        holders: dict[tuple[int, ...], list[int]] = {}
        for idx, e in enumerate(h.edges):
            holders.setdefault(color_set(colors, e), []).append(idx)
        # every edge once, in the group of its color set, under its current
        # key: a lone holder as its id, two or more as their ascending list
        assert sorted(index.groups.values(), key=first_id) == sorted(
            [ids[0] if len(ids) == 1 else ids for ids in holders.values()], key=first_id)
        for key, held in index.groups.items():
            assert all(index.keys[idx] == key for idx in ([held] if isinstance(held, int) else held))
        current = Coloring(t=t, colors=list(colors))
        bad, pairs = naive_bad_edges(h, current), naive_pattern_pairs(h, current)
        assert index.bad == bad and index.pairs == pairs
        events = [BadEdge(idx) for idx in bad] + [SamePattern(*pair) for pair in pairs]
        if events:
            assert index.pick() == events[0]
            rank = random.Random(seed).randrange(len(events))
            assert index.pick(random.Random(seed)) == events[rank]
        else:
            assert index.pick() is None and index.pick(random.Random(seed)) is None


def color_set(colors: list[int], edge: tuple[int, ...]) -> tuple[int, ...]:
    """The oracle of an edge's key: its distinct colors, 0 included, sorted."""
    return tuple(sorted({colors[v] for v in edge}))


def first_id(held: int | list[int]) -> int:
    return held if isinstance(held, int) else held[0]


def check_keys_against_color_sets(h: Hypergraph, colors: list[int], keys: list[int]) -> None:
    """Two edges share a key iff they share a color set; a key is negative
    iff its edge repeats a color and even iff its edge has an uncolored
    vertex."""
    sets = [color_set(colors, e) for e in h.edges]
    assert len(keys) == h.m
    for (a, sa), (b, sb) in combinations(zip(keys, sets), 2):
        assert (a == b) == (sa == sb)
    assert [key < 0 for key in keys] == [len(s) < h.k for s in sets]
    assert [key & 1 == 0 for key in keys] == [0 in s for s in sets]


@given(recoloring_walks())
@settings(max_examples=300, deadline=None)
def test_event_indexes_track_the_oracles_through_recolorings(walk):
    walk_event_indexes(*walk)


FIXED_WALKS = {
    # three disjoint edges share the key (1, 2); edge 0 leaves the group,
    # so its next minimum must surface, then rejoins as the new minimum
    "group-minimum-leaves-and-returns": (
        builtin_instance("matching", 3, k=2), 4, [1, 2, 1, 2, 1, 2],
        [{0: 3, 1: 4}, {0: 1, 1: 2}]),
    # both edges are bad with the key (1, 2) throughout; recoloring vertex 3
    # makes them a pair and then breaks it while edge 1 keeps its key
    "kept-key-pair-comes-and-goes": (
        Hypergraph(3, 5, [(0, 1, 2), (0, 3, 4)]), 2, [1, 1, 2, 2, 2],
        [{3: 1}, {3: 2}]),
    # edges 0 and 1 share (1, 2) and edge 2 holds (3, 4) alone; edge 1 moves
    # over to (3, 4), so one group shrinks to an id and the other grows into
    # a list, and then both turn back
    "shared-group-shrinks-to-one-edge-and-grows-back": (
        builtin_instance("matching", 3, k=2), 4, [1, 2, 1, 2, 3, 4],
        [{2: 3, 3: 4}, {2: 1, 3: 2}]),
}


@pytest.mark.parametrize("name", FIXED_WALKS)
def test_fixed_walks_track_the_oracles(name):
    walk_event_indexes(*FIXED_WALKS[name])


@st.composite
def partial_colorings(draw):
    """An instance with k = 2..5 and m >= 0, a small palette and a color
    list with 0s, so that edges repeat colors and hold several 0s. The
    palette is 1..t or, shifted, a few colors just below 2**40."""
    k = draw(st.integers(2, 5))
    n = draw(st.integers(k, 8))
    edges = draw(st.lists(st.sampled_from(list(combinations(range(n), k))),
                          max_size=10, unique=True))
    t = draw(st.integers(1, 4))
    base = draw(st.sampled_from([0, 2 ** 40 - 8]))
    colors = draw(st.lists(st.sampled_from([0, *range(base + 1, base + t + 1)]),
                           min_size=n, max_size=n))
    return Hypergraph(k, n, edges), base + t, colors


# an edge with two 0s and a repeat, one with a 0 alone, a rainbow one, and m = 0
KEY_CASES = [(Hypergraph(3, 6, [(0, 1, 2), (2, 3, 4), (3, 4, 5)]), 2, [0, 0, 1, 1, 0, 2]),
             (Hypergraph(5, 5, []), 1, [0, 1, 0, 1, 0])]


@pytest.mark.parametrize("case", KEY_CASES, ids=["two-zeros", "edgeless"])
def test_bulk_edge_keys_on_fixed_cases(case):
    check_bulk_edge_keys(case)


@given(partial_colorings())
@settings(max_examples=300, deadline=None)
def test_bulk_edge_keys_match_edge_key_and_the_oracles(case):
    check_bulk_edge_keys(case)


def check_bulk_edge_keys(case):
    """The bulk pass gives every edge its edge_key, partitions the edges as
    their color sets do, with the sign marking a repeat and the parity an
    uncolored vertex, and lists exactly the repeat edges; the index built
    on it agrees with the oracles on groups, bad edges and pairs."""
    h, t, colors = case
    keys, repeats, primes = _edge_keys(h, colors)
    assert keys == [edge_key(colors, e, primes) for e in h.edges]
    check_keys_against_color_sets(h, colors, keys)
    assert repeats == [idx for idx, e in enumerate(h.edges) if len(color_set(colors, e)) < h.k]
    walk_event_indexes(h, t, colors, [])


def test_the_prime_map_holds_the_colors_in_use_and_extends_by_the_next_prime():
    odd = [p for p in range(3, 2000, 2) if all(p % d for d in range(3, int(p ** 0.5) + 1, 2))]
    for count in [*range(30), 100, len(odd)]:
        assert _odd_primes(count) == odd[:count]
    # a palette of 2**32 or 2**40 colors maps only the colors in use, 0 to 2
    primes = _prime_map([0, 2 ** 40, 7, 2 ** 32, 7, 0])
    assert primes[0] == 2 and sorted(primes.values()) == [2, 3, 5, 7] and primes.top == 7
    # a color first met after the build takes the least prime above the others
    assert [primes[c] for c in (1, 2 ** 40 + 1, 1, 9)] == [11, 13, 11, 17]
    assert len(primes) == 7 and primes.top == 17


def test_a_palette_of_2_to_the_32_colors_solves_on_a_map_of_the_colors_in_use():
    h = generate_random_bounded_degree(GeneratorConfig(k=3, n=60, m=40, max_degree=3, seed=5))
    report = resample_solve(h, SolverConfig(t=2 ** 32, seed=0))
    assert report.success and is_harmonious(h, report.coloring)
    keys, repeats, primes = _edge_keys(h, report.coloring.colors)
    assert not repeats and len(primes) == len(set(report.coloring.colors)) + 1 <= h.n + 1


def golden_instance(seed: int, k: int, n: int, m: int, dmax: int | None = None) -> Hypergraph:
    """m distinct random k-edges on n vertices, with no vertex in more than
    dmax of them, from this file's own stream."""
    rng = random.Random(seed)
    degree = [0] * n
    edges = set()
    while len(edges) < m:
        e = tuple(sorted(rng.sample(range(n), k)))
        if e not in edges and (dmax is None or all(degree[v] < dmax for v in e)):
            edges.add(e)
            for v in e:
                degree[v] += 1
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


# palette -> SHA-256 of verify's report on a uniform coloring (seed 7) of the
# k=3 m=3000 instance of RUN_GOLDENS, recorded before the detectors were
# routed through EventIndex: 2 bad edges at the certified palette, and 107
# bad edges and 47 pairs at 3x the counting bound
VERIFY_REPORT_GOLDENS = {
    "certified": "faf1de784bbeb714c133f047ac349d4de299ed104c74816714ddfb4c5e832b3c",
    "3x": "31a356f882108d72d633c29a228620a76897b155eca1358a553c202ad6f15541",
}


@pytest.mark.parametrize("palette", VERIFY_REPORT_GOLDENS)
def test_verify_report_at_size_matches_its_golden(palette, tmp_path, capsys):
    h = golden_instance(3 * 1000 + 3000, 3, 3000, 3000)
    t = (lcl_min_colors(3, max_degree(h), h.m) if palette == "certified"
         else 3 * lower_bound_colors(3, h.m))
    instance, coloring = tmp_path / "golden.hg", tmp_path / "uniform.col"
    instance.write_text(serialize_hypergraph(h))
    coloring.write_text(serialize_coloring(sample_uniform_coloring(h, t, seed=7), h.n))
    assert main(["verify", "--input", str(instance), "--coloring", str(coloring)]) == 1
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_REPORT_GOLDENS[palette]


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


def test_exact_edgeless_is_zero():
    assert exact_harmonious_number(Hypergraph(3, 7, [])) == 0


def test_exact_respects_node_budget():
    with pytest.raises(NodeBudgetExceeded):
        exact_harmonious_number(builtin_instance("cycle", 5), node_budget=3)
    for h in (builtin_instance("cycle", 5), Hypergraph(3, 7, [])):  # also where no node is needed
        with pytest.raises(ValueError, match="node budget must be nonnegative"):
            exact_harmonious_number(h, node_budget=-1)


# EXACT_GOLDENS position -> the least node budget that settles the search,
# recorded with the most-constrained-first order and the key-capacity prune
EXACT_NODE_GOLDENS = {5: 19, 8: 11, 12: 13}


@pytest.mark.parametrize("pos", EXACT_NODE_GOLDENS, ids=lambda pos: f"case{pos}")
def test_exact_search_visits_the_recorded_number_of_nodes(pos):
    h, expected = EXACT_GOLDENS[pos]
    nodes = EXACT_NODE_GOLDENS[pos]
    assert exact_harmonious_number(h, node_budget=nodes) == expected
    with pytest.raises(NodeBudgetExceeded):
        exact_harmonious_number(h, node_budget=nodes - 1)


@st.composite
def tiny_instances(draw):
    """k in {2, 3}, at most 6 vertices and 5 edges: small enough for naive_h."""
    k = draw(st.integers(2, 3))
    n = draw(st.integers(k, 6))
    edges = draw(st.lists(st.sampled_from(list(combinations(range(n), k))),
                          max_size=5, unique=True))
    return Hypergraph(k, n, edges)


@given(tiny_instances())
@settings(max_examples=150, deadline=None)
def test_exact_matches_brute_force_on_small_instances(h):
    assert exact_harmonious_number(h) == naive_h(h)


NINE_TRIANGLES = Hypergraph(2, 27, [
    e for j in range(9) for e in ((3 * j, 3 * j + 1), (3 * j, 3 * j + 2), (3 * j + 1, 3 * j + 2))])
MIXED_DEGREES = Hypergraph(3, 11, [(2, 6, 7), (3, 8, 10), (0, 3, 9), (0, 6, 7), (3, 4, 6),
                                   (7, 8, 9), (2, 5, 8), (1, 2, 10), (0, 1, 9), (4, 5, 10)])


# Nine disjoint triangles need nine edge-disjoint triangles of color pairs and
# K_8 packs only eight, so h = 9 above the counting bound of 8; the capacity
# prune refutes t = 8 at the root, as 8 colors with room for 3 degree-2
# vertices each cannot seat 27. On degrees 2 and 3 the node count also pins
# the bookkeeping of the room left as vertices are placed and undone.
@pytest.mark.parametrize("h, expected, nodes",
                         [(NINE_TRIANGLES, 9, 500), (MIXED_DEGREES, 6, 102)],
                         ids=["nine-triangles", "mixed-degrees"])
def test_key_capacity_settles_in_the_recorded_number_of_nodes(h, expected, nodes):
    assert exact_harmonious_number(h, node_budget=nodes) == expected
    with pytest.raises(NodeBudgetExceeded):
        exact_harmonious_number(h, node_budget=nodes - 1)


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
        used = sorted(set(coloring.colors))
        assert used == list(range(1, t + 1))  # colors are compacted to 1..T


def test_bound_sandwich_lower_exact_greedy():
    for h, expected in EXACT_GOLDENS:
        exact = exact_harmonious_number(h)
        _, greedy_t = greedy_upper(h)
        assert lower_bound_colors(h.k, h.m) <= exact == expected <= greedy_t


# SHA-256 of greedy's coloring files: the EXACT_GOLDENS family (it includes
# GREEDY_TRAP) in order, and golden_instance(1000 * k + m, k, n, m, dmax). The
# first five were recorded before greedy stopped rerunning the full verifier
# for every candidate color, the m = 10^4 one before it stopped placing and
# undoing each candidate color in turn (16 s or more there)
GREEDY_GOLDENS = {
    "exact-goldens": "f956b4920a7a482ef839cb1bfb5ee853ef4fa08a88d2beb2313ef800ac0c27bd",
    (2, 400, 300, 3): "70d0c410bb478443bcf93f729745bf8cc2a831b7c6a6f7e0e4fdfe63e5240d2c",
    (3, 300, 200, 3): "f4e840ececd6c6188ee3353ce861a207cb205fbce94b4e4b3ad4643eeb627a4c",
    (4, 600, 200, 2): "0480d5f27d067e23db406c18b7cddfc53923797e36417651b00c0067026fc264",
    (3, 2000, 1000, 3): "958666d5c67f59f930853aaa92d8ad0820f4c3989c23c4e94e0fc24b7631f7e1",
    (3, 20000, 10000, 3): "c024c33169386cce898d2fca329764fdf34de84fdf06eeebc54497170825cddf",
}


@pytest.mark.parametrize("case", GREEDY_GOLDENS, ids=str)
def test_greedy_matches_its_goldens(case):
    if case == "exact-goldens":
        family = [h for h, _ in EXACT_GOLDENS]
    else:
        k, n, m, dmax = case
        family = [golden_instance(1000 * k + m, k, n, m, dmax)]
        assert max_degree(family[0]) == dmax
    start = time.perf_counter()
    text = "".join(serialize_coloring(greedy_upper(h)[0], h.n) for h in family)
    # each vertex reads its barred colors once; a full verifier pass per
    # candidate takes minutes at m = 1000, a trial placement per candidate
    # 16 s or more at m = 10^4
    assert time.perf_counter() - start < 10
    assert hashlib.sha256(text.encode()).hexdigest() == GREEDY_GOLDENS[case]


def oracle_fits(h: Hypergraph, partial: dict[int, int]) -> bool:
    """No edge repeats a color among its colored vertices, and the oracles
    see no bad edge and no same-pattern pair. naive_bad_edges judges complete
    edges only, so the repeat check covers the incomplete ones."""
    for e in h.edges:
        cols = [partial[u] for u in e if u in partial]
        if len(set(cols)) < len(cols):
            return False
    current = coloring_of(max(partial.values()), h.n, partial)
    return not naive_bad_edges(h, current) and not naive_pattern_pairs(h, current)


@st.composite
def small_instances(draw):
    k = draw(st.integers(2, 4))
    n = draw(st.integers(k, 7))
    edges = draw(st.lists(st.sampled_from(list(combinations(range(n), k))),
                          max_size=10, unique=True))
    return Hypergraph(k, n, edges)


@given(small_instances())
@settings(max_examples=200, deadline=None)
def test_greedy_is_first_fit_under_the_oracles(h):
    coloring, t = greedy_upper(h)
    partial: dict[int, int] = {}
    for v in sorted(range(h.n), key=lambda v: (-h.degrees[v], v)):
        c = 1
        while not oracle_fits(h, {**partial, v: c}):
            c += 1
        partial[v] = c
    assert colored(coloring) == partial
    assert t == max(partial.values(), default=1)


@st.composite
def first_fit_partial_colorings(draw):
    """A small instance and a partial coloring of it: a random share of its
    vertices, in a random order, each take the least color that
    naive_forbidden allows, if any."""
    h = draw(small_instances())
    colors = [0] * h.n
    order = draw(st.permutations(range(h.n)))
    for v in order[:draw(st.integers(0, h.n))]:
        allowed = set(range(1, max(colors) + 2)) - naive_forbidden(h, colors, v, max(colors))
        colors[v] = min(allowed, default=0)
    return h, colors


@given(first_fit_partial_colorings())
@settings(max_examples=200, deadline=None)
def test_forbidden_bars_exactly_the_colors_that_break_a_placement(case):
    h, colors = case
    t = max(colors)
    completing = defaultdict(set)
    for e in h.edges:
        key = {colors[u] for u in e}
        if 0 not in key:
            for c in key:
                completing[tuple(sorted(key - {c}))].add(c)
    for v in (v for v in range(h.n) if not colors[v]):
        barred, sides = _forbidden(h, colors, completing, v)
        others = [[colors[u] for u in e if u != v] for e in h.edges if v in e]
        assert sorted(sides) == sorted(tuple(sorted(cs)) for cs in others if all(cs))
        failing = naive_forbidden(h, colors, v, t)
        if barred is None:
            assert failing == set(range(1, t + 2))
        else:
            assert barred == failing and t + 1 not in failing


@given(small_instances())
@settings(max_examples=100, deadline=None)
def test_placement_order_is_the_most_constrained_permutation_of_the_support(h):
    order = _placement_order(h)
    assert sorted(order) == list(h.support)
    assert order == naive_placement_order(h)
