"""Instances to run on: the random bounded-degree generator and the named
fixture families."""

from __future__ import annotations

import random
import sys
from bisect import bisect_left
from math import ceil, log
from operator import itemgetter
from typing import Callable, NamedTuple

from ._base import GenerationFailure, InfeasibleConfigError, _Checked
from .hypergraph import Hypergraph, _typed

LIVE_BLOCK = 8192  # the id range of each of _LiveVertices's lists, set by measurement


class _GeneratorFields(NamedTuple):
    k: int
    n: int
    m: int
    max_degree: int
    seed: int = 0
    max_restarts: int | None = None


class GeneratorConfig(_Checked, _GeneratorFields):
    """Parameters for bounded-degree random instances.

    Two conditions are necessary for existence and are checked eagerly: the
    handshake k*m <= n*max_degree, and m <= C(n, k), the number of distinct
    k-sets. Failing either raises InfeasibleConfigError rather than burning
    the restart budget. max_restarts=None means the default 100*m.
    """

    __slots__ = ()

    def _check(self) -> None:
        if self.k < 2:
            raise ValueError(f"k must be at least 2, got {self.k}")
        if self.k > self.n:
            raise ValueError(f"k={self.k} exceeds vertex count n={self.n}")
        if self.n > sys.maxsize:
            raise ValueError(f"vertex count must be at most {sys.maxsize}, got {self.n}")
        if self.m < 0:
            raise ValueError(f"m must be nonnegative, got {self.m}")
        if self.max_degree < 1:
            raise ValueError(f"max_degree must be positive, got {self.max_degree}")
        if self.max_restarts is not None and self.max_restarts < 0:
            raise ValueError("max_restarts must be nonnegative")
        if self.k * self.m > self.n * self.max_degree:
            raise InfeasibleConfigError(
                f"infeasible: k*m = {self.k * self.m} exceeds "
                f"n*max_degree = {self.n * self.max_degree}"
            )
        # C(n, j) grows with j up to min(k, n - k) <= n/2, so the running
        # product can stop as soon as it reaches m
        subsets = 1
        for j in range(min(self.k, self.n - self.k)):
            if subsets >= self.m:
                break
            subsets = subsets * (self.n - j) // (j + 1)
        if subsets < self.m:
            raise InfeasibleConfigError(
                f"infeasible: m = {self.m} exceeds C(n, k) = {subsets}, "
                f"the number of distinct {self.k}-sets of {self.n} vertices"
            )


def builtin_instance(name: str, size: int, k: int = 2) -> Hypergraph:
    """Named fixture families.

    path(n) and cycle(n) and complete-graph(n) are k=2 families on n vertices;
    matching(q, k) is q pairwise-disjoint k-edges; k-star(d, k) is d k-edges
    pairwise intersecting in one fixed vertex. The graph families reject k != 2.
    """
    if name in ("path", "cycle", "complete-graph") and k != 2:
        raise ValueError(f"{name} is a k=2 family, got k={k}")
    if name == "path":
        if size < 2:
            raise ValueError(f"path needs at least 2 vertices, got {size}")
        return Hypergraph(2, size, [(v, v + 1) for v in range(size - 1)])
    if name == "cycle":
        if size < 3:
            raise ValueError(f"cycle needs at least 3 vertices, got {size}")
        edges = [(v, v + 1) for v in range(size - 1)] + [(0, size - 1)]
        return Hypergraph(2, size, edges)
    if name == "complete-graph":
        if size < 2:
            raise ValueError(f"complete graph needs at least 2 vertices, got {size}")
        edges = [(u, v) for u in range(size) for v in range(u + 1, size)]
        return Hypergraph(2, size, edges)
    if name == "matching":
        if size < 1:
            raise ValueError(f"matching needs at least 1 edge, got {size}")
        edges = [tuple(range(j * k, (j + 1) * k)) for j in range(size)]
        return Hypergraph(k, size * k, edges)
    if name == "k-star":
        if size < 1:
            raise ValueError(f"k-star needs at least 1 edge, got {size}")
        edges = [
            (0,) + tuple(range(1 + j * (k - 1), 1 + (j + 1) * (k - 1)))
            for j in range(size)
        ]
        return Hypergraph(k, 1 + size * (k - 1), edges)
    raise ValueError(f"unknown fixture {name!r}")


def generate_random_bounded_degree(cfg: GeneratorConfig) -> Hypergraph:
    """Random k-uniform instance with m edges and maximum degree <= cfg.max_degree.

    Strategy: repeatedly draw a uniform k-subset of the vertices that still have
    residual degree capacity, rejecting duplicates (a bounded number of draws
    per edge), and restart from scratch on a dead end. Deterministic for a
    fixed seed. Raises GenerationFailure when the restart budget (default
    100*m) is exhausted — a distinct condition from up-front infeasibility,
    which GeneratorConfig itself rejects.

    The k vertices are drawn as ranks among the vertices with capacity, by
    the RNG calls of ``rng.sample(range(live), k)`` (_sample_ranks), and
    mapped to vertices by _LiveVertices. ``random.sample`` only takes the
    length of its population and indexes it, so these are the RNG calls and
    picks of sampling from the ascending list of those vertices, rebuilt per
    edge: each seed yields that O(n*m) generator's instance (tests/oracles.py
    keeps it as ``naive_generate``). Cost: O(n + m*k*log(n/B)) per attempt,
    B = LIVE_BLOCK.
    """
    rng = random.Random(cfg.seed)
    k, n = cfg.k, cfg.n
    restarts = cfg.max_restarts if cfg.max_restarts is not None else 100 * cfg.m
    attempts = restarts + 1
    for _ in range(attempts):
        capacity = [cfg.max_degree] * n
        live = _LiveVertices(n)
        chosen: dict[tuple[int, ...], None] = {}  # the edges in draw order
        while len(chosen) < cfg.m and live.size >= k:
            for _draw in range(100):
                edge = tuple(sorted(map(live.vertex, _sample_ranks(rng.getrandbits, live.size, k))))
                if edge not in chosen:
                    break
            else:  # only duplicates within the draw budget
                break
            chosen[edge] = None
            for v in edge:
                capacity[v] -= 1
                if not capacity[v]:
                    live.discard(v)
        if len(chosen) == cfg.m:
            del capacity, live  # freed before the columns are built
            # the draws are sorted, in range and distinct: no check is due
            return Hypergraph._of_columns(k, n, _typed(n, (map(itemgetter(j), chosen)
                                                           for j in range(k))))
    raise GenerationFailure(
        f"no valid instance after {attempts} attempts "
        f"(k={cfg.k}, n={cfg.n}, m={cfg.m}, max_degree={cfg.max_degree}, seed={cfg.seed})"
    )


def _sample_ranks(getrandbits: Callable[[int], int], size: int, k: int) -> list[int]:
    """``rng.sample(range(size), k)`` by the same rng.getrandbits calls: its
    pool branch when size is at most its setsize, else its set branch, each
    with its _randbelow inlined, as solver._uniform_color inlines randint."""
    if size <= 21 + (4 ** ceil(log(k * 3, 4)) if k > 5 else 0):
        pool = list(range(size))
        for i in range(size, size - k, -1):  # the pick among pool[:i] goes to pool[i - 1]
            j = getrandbits(i.bit_length())
            while j >= i:
                j = getrandbits(i.bit_length())
            pool[j], pool[i - 1] = pool[i - 1], pool[j]
        return pool[size - k:][::-1]
    bits, picks = size.bit_length(), []
    while len(picks) < k:
        j = getrandbits(bits)
        if j < size and j not in picks:
            picks.append(j)
    return picks


class _LiveVertices:
    """A subset of 0..n-1, initially all of it, as the sorted lists of its
    members in [jB, (j+1)B), B = LIVE_BLOCK, and a Fenwick tree over their
    lengths: O(n) to build, O(log(n/B)) to find the member of a given rank
    or to discard one, plus a list shift. ``size`` is the number of members."""

    __slots__ = ("lists", "tree", "top", "size")

    def __init__(self, n: int):
        self.lists = [list(range(low, min(low + LIVE_BLOCK, n))) for low in range(0, n, LIVE_BLOCK)]
        ends = [min(j * LIVE_BLOCK, n) for j in range(len(self.lists) + 1)]
        self.tree = [end - ends[j - (j & -j)] for j, end in enumerate(ends)]  # (j - lowbit(j), j]
        self.top = (1 << len(self.lists).bit_length()) >> 1  # the largest power of 2 <= #lists
        self.size = n

    def vertex(self, rank: int) -> int:
        """The member with exactly ``rank`` smaller members."""
        tree, last = self.tree, len(self.tree) - 1
        j, step = 0, self.top
        while step:
            if j + step <= last and tree[j + step] <= rank:
                j += step
                rank -= tree[j]
            step >>= 1
        return self.lists[j][rank]  # list j is tree position j + 1

    def discard(self, v: int) -> None:
        """Remove member v."""
        members, tree, j = self.lists[v // LIVE_BLOCK], self.tree, v // LIVE_BLOCK + 1
        del members[bisect_left(members, v)]
        while j < len(tree):
            tree[j] -= 1
            j += j & -j
        self.size -= 1
