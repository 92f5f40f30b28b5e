"""The harmonious number on small instances: an exact branch-and-bound
search, and a greedy first-fit baseline that bounds it from above.
"""

from __future__ import annotations

from collections import defaultdict
from heapq import heapify, heappop, heappush
from itertools import count, filterfalse
from math import comb
from typing import Callable, Mapping

from ._base import DEFAULT_NODE_BUDGET
from .coloring import Coloring
from .hypergraph import Hypergraph


class NodeBudgetExceeded(RuntimeError):
    """The exact search ran out of nodes before settling the answer."""


def exact_harmonious_number(h: Hypergraph, node_budget: int = DEFAULT_NODE_BUDGET) -> int:
    """The minimum t admitting a harmonious coloring, by branch and bound.

    Tries t upward from lower_bound_colors(k, m). For each t it places the
    support vertices in one fixed most-constrained-first order (see
    _placement_order), trying colors up to (max color used so far) + 1 —
    value precedence, so the first vertex placed always gets color 1. A node
    is one candidate color tried for one vertex, and one node budget spans
    every t; raises NodeBudgetExceeded when it runs out (answer unknown).

    A candidate is rejected if it repeats a color inside an edge or completes
    an edge whose color set another complete edge already has (_forbidden
    reads both once per depth), or if it breaks the key capacity of its color.
    The capacity argument: in a harmonious coloring the edges through a vertex
    of color c are rainbow and have pairwise distinct color sets, each a k-set
    containing c, and no edge holds c twice, so the degrees of the vertices
    colored c sum to at most cap = C(t-1, k-1). The search therefore rejects c
    for v when load[c] + deg(v) > cap, and backtracks once the room left, sum
    over c of (cap - load[c]) // d_min with d_min the least degree on the
    support, cannot seat the vertices still unplaced, each of which takes at
    least d_min of some color's room.

    The search runs on an explicit stack, so its depth is not limited by the
    recursion limit. An edgeless instance needs no colors at all: returns 0.
    A negative node_budget raises ValueError.
    """
    if node_budget < 0:
        raise ValueError(f"node budget must be nonnegative, got {node_budget}")
    if h.m == 0:
        return 0
    from .bounds import lower_bound_colors
    order = _placement_order(h)
    remaining = [node_budget]
    for t in range(lower_bound_colors(h.k, h.m), h.n + 1):
        if _search(h, t, order, remaining):
            return t
    raise AssertionError("unreachable: an injective coloring is harmonious")


def _placement_order(h: Hypergraph) -> tuple[int, ...]:
    """The support in the exact search's placement order, most constrained
    first: next comes the vertex that would complete the most edges, then the
    one with the most placed co-members over its edges, then the highest
    degree, then the least id. Both counts only grow, so a lazy heap whose
    stale entries rank below the live one gives the order in
    O((n + m k^2) log n)."""
    incidence, degrees, edges, k = h.incidence, h.degrees, h.edges, h.k  # degrees read the CSR
    placed_in = [0] * h.m  # placed members of each edge
    completes = [0] * h.n
    co_placed = [0] * h.n
    done = [False] * h.n
    heap = [(0, 0, -degrees[v], v) for v in h.support]
    heapify(heap)
    order: list[int] = []
    while heap:
        v = heappop(heap)[3]
        if done[v]:
            continue
        done[v] = True
        order.append(v)
        for idx in incidence[v]:
            placed_in[idx] += 1
            for u in edges[idx]:
                if not done[u]:
                    co_placed[u] += 1
                    if placed_in[idx] == k - 1:
                        completes[u] += 1
                    heappush(heap, (-completes[u], -co_placed[u], -degrees[u], u))
    return tuple(order)


def _forbidden(h: Hypergraph, colors: list[int], completing: Mapping[tuple[int, ...], set[int]],
               v: int) -> tuple[set[int] | None, list[tuple[int, ...]]]:
    """The colors barred for the uncolored vertex v, and the sides of the
    edges v would complete: each side is the sorted colors of such an edge's
    other members. completing maps each key of a complete edge, minus one
    color, to the colors that complete it (see _complete). barred holds
    every color on a co-member of v, which would repeat inside an edge, and
    completing[side] for each side, which would give that edge a used key. It
    is None when two sides are equal: those two edges share a key whatever
    color v takes."""
    barred: set[int] = set()
    sides = []
    for idx in h.incidence[v]:
        key = sorted(map(colors.__getitem__, h.edges[idx]))  # key[0] is v's 0
        barred.update(key)
        if key[1]:
            sides.append(tuple(key[1:]))
    if len(set(sides)) < len(sides):
        return None, sides
    barred.discard(0)
    for side in sides:
        barred.update(completing.get(side, ()))
    return barred, sides


def _complete(completing: defaultdict[tuple[int, ...], set[int]], sides: list[tuple[int, ...]],
              c: int, mark: Callable[[set[int], int], None] = set.add) -> None:
    """Map each key side + {c}, minus each of its colors, to that color in
    completing; with mark=set.remove, take those entries out again."""
    for side in sides:
        key = tuple(sorted((*side, c)))
        for i, x in enumerate(key):
            mark(completing[key[:i] + key[i + 1:]], x)


def _search(h: Hypergraph, t: int, order: tuple[int, ...], remaining: list[int]) -> bool:
    """Whether the vertices of order admit a harmonious coloring from 1..t;
    see exact_harmonious_number. Depth pos of the stack holds the color tried
    at order[pos] (0 before the first), the max color used before it, and
    what _forbidden found for order[pos] on entering the depth, which holds
    until a shallower depth changes."""
    degrees, size = h.degrees, len(order)
    cap = comb(t - 1, h.k - 1)
    d_min = min(degrees[v] for v in order)
    load = [0] * (t + 1)
    free = t * (cap // d_min)
    if free < size:
        return False
    colors = [0] * h.n
    completing: defaultdict[tuple[int, ...], set[int]] = defaultdict(set)
    tried = [0] * size
    top = [0] * (size + 1)
    found: list[tuple[set[int] | None, list[tuple[int, ...]]]] = [(None, [])] * size
    pos = 0
    while pos >= 0:
        if pos == size:
            return True
        v, c = order[pos], tried[pos]
        dv = degrees[v]
        if c:  # undo the placement at this depth before the next color
            colors[v] = 0
            _complete(completing, found[pos][1], c, set.remove)
            load[c] -= dv
            free += (cap - load[c]) // d_min - (cap - load[c] - dv) // d_min
        else:
            found[pos] = _forbidden(h, colors, completing, v)
        barred, sides = found[pos]
        limit = min(t, top[pos] + 1)
        while c < limit:
            c += 1
            remaining[0] -= 1
            if remaining[0] < 0:
                raise NodeBudgetExceeded(
                    f"node budget exhausted at t={t}; the answer is unknown")
            if barred is None or c in barred or load[c] + dv > cap:
                continue
            room = (cap - load[c]) // d_min - (cap - load[c] - dv) // d_min
            if free - room < size - pos - 1:
                continue
            colors[v] = c
            _complete(completing, sides, c)
            free -= room
            load[c] += dv
            tried[pos] = c
            top[pos + 1] = max(top[pos], c)
            pos += 1
            break
        else:
            tried[pos] = 0
            pos -= 1
    return False


def greedy_upper(h: Hypergraph) -> tuple[Coloring, int]:
    """First-fit upper bound: color vertices in degree-descending order with
    the smallest color that creates no repeat inside an edge and no pattern
    collision, also between pairs whose symmetric difference alone is fully
    colored. A brand-new color always passes, so the result is harmonious and
    uses exactly the colors 1..T; returns (coloring, T).

    No collision exists before v is placed, so only pairs through v bar a
    color: _forbidden's repeats and used keys, and, for each edge e that v
    leaves incomplete and each partner f holding e's uncolored vertices but
    not v, the b with colors(e∖f∖{v}) + {b} = colors(f∖e) once f∖e is fully
    colored. A vertex costs O(kΔ) edges and partners plus the completing sets
    that it reads, whatever color it gets."""
    incidence, edges = h.incidence, h.edges
    colors = [0] * h.n
    completing: defaultdict[tuple[int, ...], set[int]] = defaultdict(set)
    highest = 0
    for v in sorted(range(h.n), key=lambda v: (-h.degrees[v], v)):
        barred, sides = _forbidden(h, colors, completing, v)
        assert barred is not None, "two edges through v already show one pattern"
        for idx in incidence[v]:
            edge = edges[idx]
            missing = [u for u in edge if u != v and not colors[u]]
            for partner in map(edges.__getitem__, incidence[missing[0]]) if missing else ():
                ours = {colors[u] for u in edge if u != v and u not in partner}
                theirs = {colors[u] for u in partner if u not in edge}
                extra = theirs - ours
                if v not in partner and 0 not in theirs and len(extra) == 1 and ours <= theirs:
                    barred |= extra
        c = next(filterfalse(barred.__contains__, count(1)))  # the least color not barred
        assert c <= highest + 1, "the fresh color should always fit"
        colors[v] = c
        _complete(completing, sides, c)
        highest = max(highest, c)
    t = max(1, highest)
    return Coloring(t=t, colors=colors), t
