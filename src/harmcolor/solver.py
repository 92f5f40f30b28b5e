"""Constructing harmonious colorings.

Three routes: a randomized resampling loop (sample a uniform coloring, then
repeatedly redraw the variables of a violated bad event until none remains), an
exact branch-and-bound search for the harmonious number on small instances, and
a greedy first-fit baseline.
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import combinations
from typing import Iterable, Mapping, Union

from .bounds import lower_bound_colors
from .coloring import BadEdge, Coloring, SamePattern, colors_used, pattern_collisions
from .hypergraph import Hypergraph

DEFAULT_RESAMPLES_PER_EDGE = 10 ** 5
DEFAULT_NODE_BUDGET = 5_000_000
EVENT_SCANS = ("deterministic", "random")


class NodeBudgetExceeded(RuntimeError):
    """The exact search ran out of nodes before settling the answer."""


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for resample_solve.

    max_resamples=None means the default budget of 10^5 per edge. event_scan
    picks the violated event deterministically (first in scan order: bad edges
    by index, then pattern pairs in lexicographic edge-index order) or
    uniformly at random among all current events. trace_limit > 0 records up
    to that many steps for debugging/verification.
    """

    t: int
    seed: int = 0
    max_resamples: int | None = None
    event_scan: str = "deterministic"
    trace_limit: int = 0

    def __post_init__(self):
        if self.t < 1:
            raise ValueError(f"palette size must be at least 1, got {self.t}")
        if self.max_resamples is not None and self.max_resamples < 0:
            raise ValueError("max_resamples must be nonnegative")
        if self.event_scan not in EVENT_SCANS:
            raise ValueError(f"unknown event_scan {self.event_scan!r}")
        if self.trace_limit < 0:
            raise ValueError("trace_limit must be nonnegative")


@dataclass(frozen=True)
class TraceStep:
    event: Union[BadEdge, SamePattern]
    scope: tuple[int, ...]
    colors_after: tuple[int, ...]


@dataclass(frozen=True)
class SolveReport:
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
    rng = random.Random(seed)
    return Coloring(t=t, assignment={v: rng.randint(1, t) for v in range(h.n)})


class EdgeKeyIndex:
    """Every edge keyed by the sorted tuple of its distinct colors under the
    list ``colors``, and each key's edges in ascending order. An edge is bad
    iff its key has fewer than k colors. Once no edge is bad, all edges are
    rainbow and two edges show the same pattern iff they share a key, so the
    groups double as an exact collision index. After the colors of some
    vertices change, ``refresh`` the edges through them.
    """

    def __init__(self, h: Hypergraph, colors: list[int]):
        self.h, self.k, self.colors = h, h.k, colors
        self.keys = [tuple(sorted({colors[v] for v in e})) for e in h.edges]
        self.groups: dict[tuple[int, ...], list[int]] = {}
        for idx, key in enumerate(self.keys):  # ascending ids keep groups sorted
            grp = self.groups.get(key)
            if grp is None:
                self.groups[key] = [idx]
            else:
                grp.append(idx)

    def move(self, idx: int, key: tuple[int, ...]) -> tuple[list[int], list[int]]:
        """File edge idx under key; returns the group it left (possibly
        emptied) and the group it joined."""
        old = self.keys[idx]
        self.keys[idx] = key
        left = self.groups[old]
        del left[bisect_left(left, idx)]
        if not left:
            del self.groups[old]
        joined = self.groups.get(key)
        if joined is None:
            joined = self.groups[key] = []
        insort(joined, idx)
        return left, joined


class LeastEventIndex(EdgeKeyIndex):
    """The deterministic scan: the least bad edge, else the least pair of
    edges sharing a key. Two min-heaps with lazy deletion hold the bad edges
    and the minima of the rainbow groups with two or more members; an entry
    that no longer holds is dropped when it reaches the top. Group minima are
    distinct, so the group with the least minimum holds the least pair."""

    def __init__(self, h: Hypergraph, colors: list[int]):
        super().__init__(h, colors)
        k = self.k
        # ascending lists are valid heaps
        self.bad_heap = [idx for idx, key in enumerate(self.keys) if len(key) < k]
        self.pair_heap = sorted(grp[0] for key, grp in self.groups.items()
                                if len(grp) >= 2 and len(key) == k)

    def refresh(self, edge_ids: Iterable[int]) -> None:
        keys, edges, colors, k = self.keys, self.h.edges, self.colors, self.k
        for idx in edge_ids:
            old, key = keys[idx], tuple(sorted({colors[v] for v in edges[idx]}))
            if key == old:
                continue
            left, joined = self.move(idx, key)
            if len(key) < k:
                if len(old) == k:
                    heappush(self.bad_heap, idx)
            elif len(joined) >= 2 and (joined[0] == idx or len(joined) == 2):
                heappush(self.pair_heap, joined[0])
            if len(old) == k and len(left) >= 2 and idx < left[0]:
                heappush(self.pair_heap, left[0])

    def pick(self) -> Union[BadEdge, SamePattern, None]:
        keys, k = self.keys, self.k
        bad_heap, pair_heap = self.bad_heap, self.pair_heap
        while bad_heap:
            if len(keys[bad_heap[0]]) < k:
                return BadEdge(bad_heap[0])
            heappop(bad_heap)
        # no bad edge left: every key has k colors
        while pair_heap:
            a = pair_heap[0]
            grp = self.groups[keys[a]]
            if len(grp) >= 2 and grp[0] == a:
                shared = len(set(self.h.edges[a]).intersection(self.h.edges[grp[1]]))
                return SamePattern(a, grp[1], k - shared)
            heappop(pair_heap)
        return None


class RandomEventIndex(EdgeKeyIndex):
    """The random scan: a uniform pick from the event list, which is the bad
    edges in id order followed by the confirmed pattern pairs (e, f, i) in
    order. Both parts are kept sorted as edges change, and each edge knows its
    pairs, so a refresh re-confirms only the pairs of that edge."""

    def __init__(self, h: Hypergraph, colors: list[int], rng: random.Random):
        super().__init__(h, colors)
        self.rng = rng
        self.bad = [idx for idx, key in enumerate(self.keys) if len(key) < self.k]
        self.pairs: list[tuple[int, int, int]] = []
        self.pairs_of: dict[int, list[tuple[int, int, int]]] = {}
        for grp in self.groups.values():
            for a, b in combinations(grp, 2):
                pair = self._confirmed(a, b)
                if pair:
                    self.pairs.append(pair)
                    self._link(pair)
        self.pairs.sort()

    def _confirmed(self, a: int, b: int) -> tuple[int, int, int] | None:
        # with bad edges present a shared key is necessary but not sufficient,
        # so confirm against the definition
        ea, eb, colors = self.h.edges[a], self.h.edges[b], self.colors
        da = [v for v in ea if v not in eb]
        if {colors[v] for v in da} != {colors[v] for v in eb if v not in ea}:
            return None
        return (a, b, len(da))

    def _link(self, pair: tuple[int, int, int]) -> None:
        self.pairs_of.setdefault(pair[0], []).append(pair)
        self.pairs_of.setdefault(pair[1], []).append(pair)

    def refresh(self, edge_ids: Iterable[int]) -> None:
        keys, edges, colors, k = self.keys, self.h.edges, self.colors, self.k
        pairs, pairs_of = self.pairs, self.pairs_of
        for idx in edge_ids:
            old, key = keys[idx], tuple(sorted({colors[v] for v in edges[idx]}))
            if key == old and len(key) == k:
                continue  # all pairs within a rainbow group hold, whatever the color order
            for pair in pairs_of.pop(idx, ()):
                del pairs[bisect_left(pairs, pair)]
                other = pair[1] if pair[0] == idx else pair[0]
                theirs = pairs_of[other]
                theirs.remove(pair)
                if not theirs:
                    del pairs_of[other]
            if key != old:
                self.move(idx, key)
                if len(key) < k <= len(old):
                    insort(self.bad, idx)
                elif len(old) < k <= len(key):
                    del self.bad[bisect_left(self.bad, idx)]
            for other in self.groups[key]:
                if other != idx:
                    pair = self._confirmed(min(idx, other), max(idx, other))
                    if pair:
                        insort(pairs, pair)
                        self._link(pair)

    def pick(self) -> Union[BadEdge, SamePattern, None]:
        n_bad = len(self.bad)
        total = n_bad + len(self.pairs)
        if not total:
            return None
        pos = self.rng.randrange(total)
        if pos < n_bad:
            return BadEdge(self.bad[pos])
        return SamePattern(*self.pairs[pos - n_bad])


def resample_solve(h: Hypergraph, cfg: SolverConfig) -> SolveReport:
    """Build a harmonious coloring with at most cfg.t colors by resampling.

    Loop: sample all vertices uniformly; while some bad event holds, pick one
    (first in scan order, or uniformly at random per cfg.event_scan) and redraw
    its scope — all k vertices of a bad edge, or the symmetric difference of a
    same-pattern pair, the exact variable set the event depends on. Rejects
    t < k up front: no edge can be rainbow then.

    The events live in an index that each redraw updates through the edges
    meeting the scope, so a pick plus its refresh costs O(kΔ log m) rather
    than a scan of all m edges.
    """
    if cfg.t < h.k:
        raise ValueError(f"t={cfg.t} < k={h.k}: no edge can be rainbow")
    t = cfg.t
    rng = random.Random(cfg.seed)
    colors = [rng.randint(1, t) for _ in range(h.n)]
    budget = (cfg.max_resamples if cfg.max_resamples is not None
              else DEFAULT_RESAMPLES_PER_EDGE * max(h.m, 1))
    index: LeastEventIndex | RandomEventIndex
    if cfg.event_scan == "deterministic":
        index = LeastEventIndex(h, colors)
    else:
        index = RandomEventIndex(h, colors, rng)

    resamples = 0
    count_bad = 0
    count_pattern = {i: 0 for i in range(1, h.k + 1)}
    trace: list[TraceStep] = []
    trace_truncated = False
    success = True
    while True:
        event = index.pick()
        if event is None:
            break
        if resamples >= budget:
            success = False
            break
        if isinstance(event, BadEdge):
            scope = h.edges[event.edge]
            count_bad += 1
        else:
            scope = tuple(sorted(set(h.edges[event.e]).symmetric_difference(h.edges[event.f])))
            count_pattern[event.i] += 1
        for v in scope:
            colors[v] = rng.randint(1, t)
        resamples += 1
        index.refresh({idx for v in scope for idx in h.incidence[v]})
        if cfg.trace_limit:
            if len(trace) < cfg.trace_limit:
                trace.append(TraceStep(event=event, scope=tuple(scope),
                                       colors_after=tuple(colors)))
            else:
                trace_truncated = True

    coloring = Coloring(t=t, assignment={v: colors[v] for v in range(h.n)})
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

    Tries t upward from lower_bound_colors(k, m), backtracking over vertices in
    id order with two prunes: an immediate color repeat inside any edge, and a
    color-set clash between fully colored edges. Symmetry breaking: a vertex
    may only use colors up to (max color used so far) + 1, so the first vertex
    placed — vertex 0 whenever it has positive degree — always gets color 1.
    Raises NodeBudgetExceeded when the budget runs out (answer unknown).
    An edgeless instance needs no colors at all: returns 0.
    """
    if h.m == 0:
        return 0
    support = [v for v in range(h.n) if h.degrees[v] > 0]
    remaining = [node_budget]
    for t in range(lower_bound_colors(h.k, h.m), h.n + 1):
        if _search(h, t, support, remaining):
            return t
    raise AssertionError("unreachable: an injective coloring is harmonious")


def _search(h: Hypergraph, t: int, support: list[int], remaining: list[int]) -> bool:
    colors: dict[int, int] = {}
    used_keys: set[tuple[int, ...]] = set()

    def try_place(v: int, c: int) -> tuple[bool, list[tuple[int, ...]]]:
        added: list[tuple[int, ...]] = []
        for idx in h.incidence[v]:
            edge = h.edges[idx]
            full = True
            for u in edge:
                if u == v:
                    continue
                cu = colors.get(u)
                if cu == c:  # repeat inside the edge can never be repaired
                    for key in added:
                        used_keys.discard(key)
                    return False, []
                if cu is None:
                    full = False
            if full:
                key = tuple(sorted(colors.get(u, c) for u in edge))
                if key in used_keys:
                    for kk in added:
                        used_keys.discard(kk)
                    return False, []
                used_keys.add(key)
                added.append(key)
        return True, added

    def place(pos: int, max_used: int) -> bool:
        if pos == len(support):
            return True
        v = support[pos]
        for c in range(1, min(t, max_used + 1) + 1):
            remaining[0] -= 1
            if remaining[0] < 0:
                raise NodeBudgetExceeded(
                    f"node budget exhausted at t={t}; the answer is unknown")
            ok, added = try_place(v, c)
            if not ok:
                continue
            colors[v] = c
            if place(pos + 1, max(max_used, c)):
                return True
            del colors[v]
            for key in added:
                used_keys.discard(key)
        return False

    return place(0, 0)


def greedy_upper(h: Hypergraph) -> tuple[Coloring, int]:
    """First-fit upper bound: color vertices in degree-descending order with
    the smallest color that creates no repeat inside an edge and no pattern
    collision — including collisions between pairs whose symmetric difference
    is already fully colored, even if the edges themselves are not complete.
    A brand-new color always passes (it can only appear on the new vertex's
    side of any newly eligible pair), so the loop terminates and the result is
    harmonious. The coloring is compacted to colors 1..T before returning;
    returns (coloring, T)."""
    order = sorted(range(h.n), key=lambda v: (-h.degrees[v], v))
    assignment: dict[int, int] = {}
    highest = 0
    for v in order:
        c = 1
        while not _greedy_fits(h, assignment, v, c):
            c += 1
            assert c <= highest + 1, "the fresh color should always fit"
        assignment[v] = c
        highest = max(highest, c)
    distinct = sorted(set(assignment.values()))
    remap = {old: pos + 1 for pos, old in enumerate(distinct)}
    final = {v: remap[c] for v, c in assignment.items()}
    t = max(1, len(distinct))
    return Coloring(t=t, assignment=final), t


def _greedy_fits(h: Hypergraph, assignment: dict[int, int], v: int, c: int) -> bool:
    for idx in h.incidence[v]:
        for u in h.edges[idx]:
            if u != v and assignment.get(u) == c:
                return False
    trial = dict(assignment)
    trial[v] = c
    palette = max(max(trial.values()), 1)
    # no collision existed before this placement, so any hit involves v
    return not pattern_collisions(h, Coloring(t=palette, assignment=trial))
