"""Slow, obviously-correct reference implementations used to cross-check the
package. Everything here is brute force on purpose; keep it dumb."""

import random
from fractions import Fraction
from itertools import combinations, product
from math import comb, factorial

from harmcolor import Coloring, GenerationFailure, GeneratorConfig, Hypergraph


def coloring_of(t: int, n: int, assignment: dict[int, int]) -> Coloring:
    """The coloring of vertices 0..n-1 that gives each vertex of assignment
    its color and leaves every other vertex uncolored."""
    colors = [0] * n
    for v, c in assignment.items():
        colors[v] = c
    return Coloring(t=t, colors=colors)


def colored(coloring: Coloring) -> dict[int, int]:
    """Vertex -> color of the colored vertices of coloring."""
    return {v: c for v, c in enumerate(coloring.colors) if c}


def naive_incidence(k: int, n: int, edges: list[tuple[int, ...]]) -> list[list[int]]:
    """For each vertex of 0..n-1, the indices of the edges of the given k-edge
    list that contain it, ascending."""
    return [[idx for idx, edge in enumerate(edges) if v in edge] for v in range(n)]


def naive_bad_edges(h: Hypergraph, coloring: Coloring) -> list[int]:
    """Indices of fully colored edges with a repeated color."""
    out = []
    assignment = colored(coloring)
    for idx, edge in enumerate(h.edges):
        cols = [assignment.get(v) for v in edge]
        if any(c is None for c in cols):
            continue
        if len(set(cols)) < h.k:
            out.append(idx)
    return out


def naive_pattern_pairs(h: Hypergraph, coloring: Coloring) -> list[tuple[int, int, int]]:
    """Unordered pairs (a, b, i) whose symmetric-difference vertices are all
    colored and whose two difference sets carry the same color set; shared
    vertices may stay uncolored."""
    hits = []
    assignment = colored(coloring)
    for a, b in combinations(range(h.m), 2):
        ea, eb = set(h.edges[a]), set(h.edges[b])
        da, db = ea - eb, eb - ea
        if any(v not in assignment for v in da | db):
            continue
        if {assignment[v] for v in da} == {assignment[v] for v in db}:
            hits.append((a, b, len(da)))
    return hits


def naive_is_harmonious(h: Hypergraph, coloring: Coloring) -> bool:
    assignment = colored(coloring)
    for v in h.support:
        if v not in assignment:
            raise ValueError(f"vertex {v} is uncolored")
    return not naive_bad_edges(h, coloring) and not naive_pattern_pairs(h, coloring)


def naive_h(h: Hypergraph) -> int:
    """Harmonious number by exhaustive search over all colorings of the
    support. Exponential; only call on tiny instances."""
    if h.m == 0:
        return 0
    support = h.support
    for t in range(h.k, h.n + 1):
        for combo in product(range(1, t + 1), repeat=len(support)):
            coloring = coloring_of(t, h.n, dict(zip(support, combo)))
            if naive_is_harmonious(h, coloring):
                return t
    raise AssertionError("an injective coloring is always harmonious")


def naive_placement_order(h: Hypergraph) -> tuple[int, ...]:
    """The exact search's order by its definition, recounted at every step:
    most edges completed, then most placed co-members, then highest degree,
    then least id."""
    order: list[int] = []
    while len(order) < len(h.support):
        placed = set(order)

        def rank(v):
            through = [e for e in h.edges if v in e]
            return (-sum(all(u in placed for u in e if u != v) for e in through),
                    -sum(u in placed for e in through for u in e), -h.degrees[v], v)

        order.append(min((v for v in h.support if v not in placed), key=rank))
    return tuple(order)


def naive_forbidden(h: Hypergraph, colors: list[int], v: int, t: int) -> set[int]:
    """The colors c in 1..t+1 with which coloring v repeats a color inside an
    edge or gives two complete edges one color set, checking every edge and
    every pair of complete edges afresh for each c."""
    failing = set()
    for c in range(1, t + 2):
        trial = colors[:v] + [c] + colors[v + 1:]
        cols = [[trial[u] for u in e if trial[u]] for e in h.edges]
        complete = [set(cs) for cs in cols if len(cs) == h.k]
        if (any(len(set(cs)) < len(cs) for cs in cols)
                or any(a == b for a, b in combinations(complete, 2))):
            failing.add(c)
    return failing


def naive_lower_bound_colors(k: int, m: int) -> int:
    """Least r >= k with C(r, k) >= m, by walking r upward from k."""
    r = k
    while comb(r, k) < m:
        r += 1
    return r


def naive_floor_root(x: int, k: int) -> int:
    """Floor k-th root of x >= 0, by doubling and then bisection on integers."""
    lo, hi = 0, 1
    while hi ** k <= x:
        hi *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if mid ** k <= x else (lo, mid)
    return lo


def naive_bad_edge_prob(k: int, t: int) -> Fraction:
    """1 - prod_{j=0}^{k-1} (t-j)/t, one Fraction factor at a time; 1 once a
    factor reaches 0, that is, whenever t < k."""
    rainbow = Fraction(1)
    for j in range(k):
        if t - j <= 0:
            return Fraction(1)
        rainbow *= Fraction(t - j, t)
    return 1 - rainbow


def naive_lcl_slack(k: int, delta: int, m: int, t: int, tau: Fraction) -> Fraction:
    """tau minus the certificate's right side, summed term by term in
    Fractions exactly as the inequality reads."""
    rhs = 1 + delta * Fraction(k * k, t) * tau ** k
    rhs += delta * m * Fraction(factorial(k), t ** k) * tau ** k
    for i in range(1, k):
        rhs += delta * Fraction(k * delta, k - i) * Fraction(factorial(i), t ** i) * tau ** i
    return tau - rhs


def naive_lcl_min_colors(k: int, delta: int, m: int, tau: Fraction) -> int:
    """Least t >= 1 whose certificate slack at tau is nonnegative, by walking
    t upward from 1."""
    t = 1
    while naive_lcl_slack(k, delta, m, t, tau) < 0:
        t += 1
    return t


def naive_tau_grid_search(k: int, delta: int, m: int, denominator: int) -> tuple[Fraction, int]:
    """(tau, t) with the least upward-walk t over tau = 1 + j/denominator,
    j = 1..denominator; ties go to the smaller tau."""
    taus = [1 + Fraction(j, denominator) for j in range(1, denominator + 1)]
    t, tau = min((naive_lcl_min_colors(k, delta, m, tau), tau) for tau in taus)
    return tau, t


def naive_monte_carlo_event_probs(k: int, i: int, t: int, trials: int,
                                  seed: int = 0) -> tuple[float, float]:
    """The Monte Carlo sampler's documented draw order, as one flat draw per
    estimate: k colors for each trial, then 2i (first i-set, then second)."""
    rng = random.Random(seed)
    colors = rng.choices(range(1, t + 1), k=k * trials)
    bad = sum(len(set(colors[j * k:(j + 1) * k])) < k for j in range(trials))
    colors = rng.choices(range(1, t + 1), k=2 * i * trials)
    rainbow = same = 0
    for j in range(0, 2 * i * trials, 2 * i):
        first, second = set(colors[j:j + i]), set(colors[j + i:j + 2 * i])
        if len(first) == i:
            rainbow += 1
            same += first == second
    return bad / trials, same / rainbow if rainbow else 0.0


def naive_generate(cfg: GeneratorConfig) -> Hypergraph:
    """The bounded-degree generator as first written: it rebuilds the list of
    vertices with residual capacity for every edge, O(n*m). The fast
    generator must return the same instance for every config and seed."""
    rng = random.Random(cfg.seed)
    restarts = cfg.max_restarts if cfg.max_restarts is not None else 100 * cfg.m
    attempts = restarts + 1
    for _ in range(max(attempts, 1)):
        capacity = [cfg.max_degree] * cfg.n
        chosen: list[tuple[int, ...]] = []
        taken: set[tuple[int, ...]] = set()
        dead = False
        while len(chosen) < cfg.m:
            eligible = [v for v in range(cfg.n) if capacity[v] > 0]
            if len(eligible) < cfg.k:
                dead = True
                break
            edge: tuple[int, ...] | None = None
            for _draw in range(100):
                cand = tuple(sorted(rng.sample(eligible, cfg.k)))
                if cand not in taken:
                    edge = cand
                    break
            if edge is None:  # only duplicates within the draw budget
                dead = True
                break
            taken.add(edge)
            chosen.append(edge)
            for v in edge:
                capacity[v] -= 1
        if not dead:
            return Hypergraph(cfg.k, cfg.n, chosen)
    raise GenerationFailure(
        f"no valid instance after {attempts} attempts "
        f"(k={cfg.k}, n={cfg.n}, m={cfg.m}, max_degree={cfg.max_degree}, seed={cfg.seed})"
    )
