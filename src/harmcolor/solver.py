"""Constructing harmonious colorings.

Three routes: a randomized resampling loop (sample a uniform coloring, then
repeatedly redraw the variables of a violated bad event until none remains), an
exact branch-and-bound search for the harmonious number on small instances, and
a greedy first-fit baseline.
"""

from __future__ import annotations

import random
import sys
from array import array
from collections import defaultdict
from heapq import heapify, heappop, heappush
from itertools import count, filterfalse
from math import comb
from typing import Callable, Mapping, NamedTuple, Union

from .coloring import BadEdge, Coloring, EventIndex, SamePattern, colors_used
from .hypergraph import DEFAULT_NODE_BUDGET, EVENT_SCANS, Hypergraph, _Checked

DEFAULT_RESAMPLES_PER_EDGE = 10 ** 5


class NodeBudgetExceeded(RuntimeError):
    """The exact search ran out of nodes before settling the answer."""


class _SolverFields(NamedTuple):
    t: int
    seed: int = 0
    max_resamples: int | None = None
    event_scan: str = "deterministic"
    trace_limit: int = 0


class SolverConfig(_Checked, _SolverFields):
    """Knobs for resample_solve.

    max_resamples=None means the default budget of 10^5 per edge. event_scan
    is the pick rule over one sorted event list (bad edges by index, then
    pattern pairs in lexicographic edge-index order): "deterministic" takes
    its first event, "random" a uniform one. trace_limit > 0 records up to
    that many steps: the event, its ascending scope, the scope's new colors.
    """

    __slots__ = ()

    def _check(self) -> None:
        if self.t < 1:
            raise ValueError(f"palette size must be at least 1, got {self.t}")
        if self.max_resamples is not None and self.max_resamples < 0:
            raise ValueError("max_resamples must be nonnegative")
        if self.event_scan not in EVENT_SCANS:
            raise ValueError(f"unknown event_scan {self.event_scan!r}")
        if self.trace_limit < 0:
            raise ValueError("trace_limit must be nonnegative")


class TraceStep(NamedTuple):
    event: Union[BadEdge, SamePattern]
    scope: tuple[int, ...]
    colors_after: tuple[int, ...]


class SolveReport(NamedTuple):
    """Outcome of one resampling run. success implies the coloring is
    harmonious; on a blown budget the last coloring and the counts survive."""

    coloring: Coloring
    success: bool
    resamples_total: int
    resamples_bad_edge: int
    resamples_same_pattern: Mapping[int, int]
    colors_used: int
    seed: int
    t: int
    trace: tuple[TraceStep, ...] = ()
    trace_truncated: bool = False

    def as_record(self) -> dict[str, object]:
        """Flat key-value view for text reports and CSV rows."""
        rec: dict[str, object] = {
            "seed": self.seed,
            "t": self.t,
            "success": self.success,
            "resamples_total": self.resamples_total,
            "resamples_bad_edge": self.resamples_bad_edge,
        }
        for i in sorted(self.resamples_same_pattern):
            rec[f"resamples_pattern_i{i}"] = self.resamples_same_pattern[i]
        rec["colors_used"] = self.colors_used
        return rec


def sample_uniform_coloring(h: Hypergraph, t: int, seed: int = 0) -> Coloring:
    """Each vertex gets an independent uniform color from 1..t; deterministic
    per seed (and identical to the initial state of resample_solve run with
    the same seed)."""
    if t < 1:
        raise ValueError(f"palette size must be at least 1, got {t}")
    return Coloring(t=t, colors=_uniform_colors(random.Random(seed), h.n, t))


def _uniform_colors(rng: random.Random, n: int, t: int) -> list[int]:
    """The initial draw of sample_uniform_coloring and resample_solve: the
    colors and end state of one _uniform_color per vertex. For t < 2**32 its
    draws are the top t.bit_length() bits of 32-bit words, so rounds of as
    many words as colors are missing, at most 4,096, keep the words below t."""
    getrandbits, bits = rng.getrandbits, t.bit_length()
    if bits > 32 or sys.byteorder != "little":
        return [_uniform_color(getrandbits, bits, t) for _ in range(n)]
    colors, shift = [], 32 - bits
    top = int.from_bytes((2 ** 32 - 2 ** shift).to_bytes(4, "little") * 4096, "little")
    while missing := min(n - len(colors), 4096):
        words = ((getrandbits(32 * missing) & top) >> shift).to_bytes(4 * missing, "little")
        colors += [w + 1 for w in array("I", words) if w < t]
    return colors


def _uniform_color(getrandbits: Callable[[int], int], bits: int, t: int) -> int:
    """One uniform color from 1..t, given t.bit_length() as bits: the draw
    of CPython's randint(1, t) (its _randbelow_with_getrandbits) without
    the layers of calls around it, so the same seed gives the same stream."""
    r = getrandbits(bits)
    while r >= t:
        r = getrandbits(bits)
    return r + 1


def resample_solve(h: Hypergraph, cfg: SolverConfig) -> SolveReport:
    """Build a harmonious coloring with at most cfg.t colors by resampling.

    Loop: sample all vertices uniformly; while some bad event holds, pick one
    (first in scan order, or uniformly at random per cfg.event_scan) and redraw
    its scope — all k vertices of a bad edge, or the symmetric difference of a
    same-pattern pair, the exact variable set the event depends on. Rejects
    t < k up front: no edge can be rainbow then.

    The events live in one coloring.EventIndex, built by one bulk pass over
    the edge keys, that both scans pick from and that each redraw refreshes
    through the O(kΔ) edges meeting the scope, not all m edges. A refreshed
    edge's pairs are found and re-confirmed within its key group alone. The
    event lists are flat sorted lists, so each insert or delete there also
    shifts O(#events) entries. The instance's CSR incidence, whose slices
    the refreshes read, is built first: a hostile n fails in its build's
    one-piece allocation, the build's transient lists peak on top of the
    parsed instance alone, not the live index, and the set-up, not the first
    step, pays for it.
    """
    if cfg.t < h.k:
        raise ValueError(f"t={cfg.t} < k={h.k}: no edge can be rainbow")
    t = cfg.t
    incident = h._incident  # the CSR, built here, before the index (see above)
    rng = random.Random(cfg.seed)
    getrandbits, bits = rng.getrandbits, t.bit_length()
    colors = _uniform_colors(rng, h.n, t)
    budget = (cfg.max_resamples if cfg.max_resamples is not None
              else DEFAULT_RESAMPLES_PER_EDGE * max(h.m, 1))
    index = EventIndex(h, colors)
    pick_rng = rng if cfg.event_scan == "random" else None

    resamples = 0
    count_bad = 0
    count_pattern = {i: 0 for i in range(1, h.k + 1)}
    trace: list[TraceStep] = []
    trace_truncated = False
    success = True
    while True:
        event = index.pick(pick_rng)
        if event is None:
            break
        if resamples >= budget:
            success = False
            break
        if isinstance(event, BadEdge):
            scope = h._row(event.edge)
            count_bad += 1
        else:
            scope = tuple(sorted(set(h._row(event.e)).symmetric_difference(h._row(event.f))))
            count_pattern[event.i] += 1
        for v in scope:
            colors[v] = _uniform_color(getrandbits, bits, t)
        resamples += 1
        index.refresh({idx for v in scope for idx in incident(v)})
        if cfg.trace_limit:
            if len(trace) < cfg.trace_limit:
                trace.append(TraceStep(event=event, scope=tuple(scope),
                                       colors_after=tuple(colors[v] for v in scope)))
            else:
                trace_truncated = True

    coloring = Coloring(t=t, colors=colors)
    return SolveReport(
        coloring=coloring,
        success=success,
        resamples_total=resamples,
        resamples_bad_edge=count_bad,
        resamples_same_pattern=count_pattern,
        colors_used=colors_used(coloring),
        seed=cfg.seed,
        t=t,
        trace=tuple(trace),
        trace_truncated=trace_truncated,
    )


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
