"""Decision procedures for harmonious colorings.

A coloring is *rainbow* when no edge contains two vertices of the same color;
an edge violating that is *bad*. Two distinct edges e, f show the *same
pattern* when every vertex of e\\f and f\\e is colored and the color set of
e\\f equals the color set of f\\e. A total coloring is *harmonious* when it is
rainbow and no two edges show the same pattern — equivalently, when all edges
receive pairwise-distinct k-sets of colors. A coloring is a list indexed by
vertex, with 0 for an uncolored vertex.

``EventIndex`` is the one place that finds a coloring's bad edges and
same-pattern pairs: its build takes partial colorings, and the detectors
bad_edges, pattern_collisions and local_bad_events read one build each. Its
``refresh`` keeps both lists up to date for the resampler as a total
coloring changes. is_harmonious decides on the edge keys alone, without it.
Both key every edge in one bulk pass (_edge_keys); verify keys them once and
builds the index on the same keys, only for a coloring that fails.
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from functools import cached_property
from itertools import compress, islice
from operator import eq, itemgetter
from typing import Iterable, Iterator, Mapping, NamedTuple, Union

from ._base import _Checked
from .hypergraph import Hypergraph


class _ColoringFields(NamedTuple):
    t: int
    colors: list[int]


class Coloring(_Checked, _ColoringFields):
    """Colors 1..t of the vertices 0..n-1, a list indexed by vertex with 0 for
    an uncolored vertex; ``t`` is the palette size, not the number of colors
    in use. The list is kept, not copied: do not change it afterwards. No
    __slots__: the instance dict holds the cached ``assignment``."""

    def _check(self) -> None:
        if self.t < 1:
            raise ValueError(f"palette size must be at least 1, got {self.t}")
        if self.colors and not 0 <= min(self.colors) <= max(self.colors) <= self.t:
            v, c = next((v, c) for v, c in enumerate(self.colors) if not 0 <= c <= self.t)
            raise ValueError(f"vertex {v} has color {c} outside 1..{self.t} (0 is uncolored)")

    @cached_property
    def assignment(self) -> Mapping[int, int]:
        """Vertex -> color of the colored vertices, built once; the package reads colors."""
        return {v: c for v, c in enumerate(self.colors) if c}


class BadEdge(NamedTuple):
    """A non-rainbow edge, by index."""

    edge: int


class _PatternFields(NamedTuple):
    e: int
    f: int
    i: int


class SamePattern(_Checked, _PatternFields):
    """An unordered pair of distinct edges (by index, e < f) showing the same
    pattern, with i = |e\\f| = k - |e∩f|."""

    __slots__ = ()

    def __new__(cls, e: int, f: int, i: int):
        if e > f:  # canonicalize the unordered pair
            e, f = f, e
        return super().__new__(cls, e, f, i)

    def _check(self) -> None:
        if self.e == self.f:
            raise ValueError("a pattern collision needs two distinct edges")
        if self.i < 1:
            raise ValueError(f"|e\\f| must be at least 1, got {self.i}")


class LocalEvents(NamedTuple):
    """Bad events seen from one vertex: b1 holds the bad edges containing v,
    b2[i] the same-pattern pairs {e, f} with v in e ∪ f and |e\\f| = i, for
    i = 1..k (i = k is the disjoint-pair class)."""

    b1: tuple[BadEdge, ...]
    b2: Mapping[int, tuple[SamePattern, ...]]


def _colors_on(h: Hypergraph, c: Coloring) -> list[int]:
    """The color list of c, which must hold one entry per vertex of h."""
    if len(c.colors) != h.n:
        raise ValueError(f"coloring has n={len(c.colors)} but the instance has n={h.n}")
    return c.colors


def edge_key(colors: list[int], edge: tuple[int, ...]) -> tuple[int, ...]:
    """The sorted distinct colors of an edge under the list ``colors``. It
    starts with 0 iff the edge has an uncolored vertex. Two rainbow edges
    show the same pattern iff their keys are equal; an edge is rainbow iff
    its key has k colors, none of them 0."""
    # map keeps the loop out of a comprehension frame: refresh and _edge_keys' repeats call it
    return tuple(sorted(set(map(colors.__getitem__, edge))))


def _pattern_size(ea: tuple[int, ...], eb: tuple[int, ...], colors: list[int]) -> int | None:
    """|ea\\eb| if edges ea and eb show the same pattern under the list
    ``colors``, else None. This is the one statement of the pattern
    definition; |ea\\eb| = |eb\\ea| since both edges have k vertices."""
    da = [v for v in ea if v not in eb]
    side = {colors[v] for v in da}
    if 0 in side or side != {colors[v] for v in eb if v not in ea}:
        return None  # equal sets without 0 leave both sides fully colored
    return len(da)


def _edge_keys(h: Hypergraph, colors: list[int]) -> tuple[list[tuple[int, ...]], list[int]]:
    """The edge_key of every edge of h, by id, and the ascending ids of the
    edges that repeat a color, 0 included: those keyed with fewer than k
    entries. Each edge's colors are gathered column by column and sorted by
    C-level calls, a repeat shows as equal neighbouring entries, and only a
    repeat's sorted colors are then reduced to its distinct ones."""
    rows = zip(*[map(colors.__getitem__, col) for col in h._cols])
    keys = list(map(tuple, map(sorted, rows)))
    same = zip(*[map(eq, map(itemgetter(j), keys), map(itemgetter(j + 1), keys))
                 for j in range(h.k - 1)])
    repeats = list(compress(range(len(keys)), map(any, same)))
    for idx in repeats:
        keys[idx] = tuple(sorted(set(keys[idx])))
    return keys, repeats


class EventIndex:
    """The bad events of the coloring ``colors``, a list indexed by vertex
    with 0 for uncolored, as one sorted event list: the bad edges in id
    order, then the confirmed same-pattern pairs (e, f, i) in order. It is
    the one analysis behind bad_edges, pattern_collisions, local_bad_events
    and verify's report, and each scan of the resampler is a pick rule over
    this list (see ``pick``).

    The build takes partial colorings. Every edge is keyed by edge_key, the
    sorted tuple of its distinct colors, which starts with 0 iff the edge has
    an uncolored vertex; all come from _edge_keys, or from ``keyed``, its
    result when the caller has it. A fully colored edge is bad iff its key
    has fewer than k colors, so only repeat edges can be bad; an edge with
    an uncolored vertex is never bad. ``groups`` maps a key held by one edge
    to that edge's id, and a key shared by two or more edges to their ids in
    an ascending list; _join holds that rule for the build and refresh.
    For fully colored edges, equal pattern sets force equal full-edge color
    sets (the shared vertices add the same colors to both sides), so a
    shared key is necessary for a pattern pair, and sufficient once both
    edges are rainbow: _pairs takes each pair of a shared group once, as its
    later edge joins, and confirms it by _pattern_size only where the group's
    key is not rainbow. A multiset key would
    miss non-rainbow pairs such as e\\f colored (1,1,2) against f\\e
    colored (1,2,2). An edge with an uncolored vertex pairs only with
    partners that contain all of its uncolored vertices, so its candidates
    come from the CSR incidence.

    ``refresh`` needs a total coloring, which is all the resampler ever has.
    There an edge's pairs all lie in its group: after the colors of some
    vertices change, ``refresh`` of the edges through them re-keys those
    edges, drops each one's pairs found through its old group, and
    re-confirms it against its new group. A group that shrinks to one edge
    turns back into that edge's id.
    """

    def __init__(self, h: Hypergraph, colors: list[int], keyed: tuple[list, list] | None = None):
        keys, repeats = keyed or _edge_keys(h, colors)
        self.h, self.k, self.colors, self.keys = h, h.k, colors, keys
        self.groups = groups = {}
        join, pairs_of, row, found = self._join, self._pairs, h._row, set()
        for idx, key in enumerate(keys):
            held = groups.setdefault(key, idx)
            if held != idx:
                held = join(key, held, idx)
                if key[0]:
                    found.update(pairs_of(idx, held))
            if not key[0]:  # a pair of two such edges is found from both; the set keeps one
                missing = [h._incident(v) for v in row(idx) if not colors[v]]
                found.update(pairs_of(idx, set(missing[0]).intersection(*missing[1:])))
        self.bad = [idx for idx in repeats if keys[idx][0]]
        self.pairs = sorted(found)

    def _join(self, key: tuple[int, ...], held: int | list[int], idx: int) -> list[int]:
        """Enter edge idx into the group of key, which ``held`` (an id or an
        ascending id list) already holds, and return the group's id list."""
        if held.__class__ is int:
            held = self.groups[key] = [held, idx] if held < idx else [idx, held]
        else:
            insort(held, idx)
        return held

    def _pairs(self, idx: int, others: Iterable[int]) -> Iterator[tuple[int, int, int]]:
        """The same-pattern pairs (a, b, i), a < b, of edge idx with each edge
        of ``others`` other than idx itself. Where the key of idx is rainbow,
        ``others`` must share it: two rainbow edges of one key show the same
        pattern with i = k - |e ∩ f|, so only the non-rainbow pairs are
        confirmed by _pattern_size."""
        row, colors, key = self.h._row, self.colors, self.keys[idx]
        edge = row(idx)
        if key[0] and len(key) == self.k:
            members, k = set(edge), self.k
            for other in others:
                if other != idx:
                    i = k - len(members.intersection(row(other)))
                    yield (idx, other, i) if idx < other else (other, idx, i)
            return
        for other in others:
            if other != idx:
                i = _pattern_size(edge, row(other), colors)
                if i is not None:
                    yield (idx, other, i) if idx < other else (other, idx, i)

    def refresh(self, edge_ids: Iterable[int]) -> None:
        keys, groups, row, colors, k = self.keys, self.groups, self.h._row, self.colors, self.k
        bad, pairs = self.bad, self.pairs
        for idx in edge_ids:
            old, key = keys[idx], edge_key(colors, row(idx))
            if key == old and len(key) == k:
                continue  # all pairs within a rainbow group hold, whatever the color order
            held = groups[old]
            if held.__class__ is list:
                for other in held:
                    if other != idx:
                        a, b = (idx, other) if idx < other else (other, idx)
                        pos = bisect_left(pairs, (a, b))  # (a, b) fixes i = k - |e_a ∩ e_b|
                        if pos < len(pairs) and pairs[pos][0] == a and pairs[pos][1] == b:
                            del pairs[pos]
            if key != old:
                keys[idx] = key
                if held.__class__ is int:
                    del groups[old]
                else:
                    del held[bisect_left(held, idx)]
                    if len(held) == 1:
                        groups[old] = held[0]
                if len(key) < k <= len(old):
                    insort(bad, idx)
                elif len(old) < k <= len(key):
                    del bad[bisect_left(bad, idx)]
                held = groups.setdefault(key, idx)
                if held == idx:
                    continue  # the edge holds its new key alone
                held = self._join(key, held, idx)
            elif held.__class__ is int:
                continue
            for pair in self._pairs(idx, held):
                insort(pairs, pair)

    def pick(self, rng: random.Random | None = None) -> Union[BadEdge, SamePattern, None]:
        """The event at position rng.randrange(#events) of the event list, or
        at position 0 (the least bad edge, else the least pair) without rng."""
        n_bad = len(self.bad)
        total = n_bad + len(self.pairs)
        if not total:
            return None
        pos = 0 if rng is None else rng.randrange(total)
        if pos < n_bad:
            return BadEdge(self.bad[pos])
        return SamePattern(*self.pairs[pos - n_bad])


def bad_edges(h: Hypergraph, c: Coloring) -> list[BadEdge]:
    """The fully colored edges containing two vertices of equal color, in
    index order: the bad edges of an EventIndex of c, which may be partial.
    The build also confirms the pattern pairs, so this costs as much as
    pattern_collisions."""
    return [BadEdge(idx) for idx in EventIndex(h, _colors_on(h, c)).bad]


def pattern_collisions(h: Hypergraph, c: Coloring) -> list[SamePattern]:
    """All unordered pairs of distinct edges showing the same pattern, each
    reported once, sorted by edge indices: the pairs of an EventIndex of c,
    which may be partial."""
    return [SamePattern(*pair) for pair in EventIndex(h, _colors_on(h, c)).pairs]


def is_harmonious(h: Hypergraph, c: Coloring) -> bool:
    """True iff c is rainbow and no two edges show the same pattern, that is,
    iff no edge repeats a color and the m edge keys are distinct; no group
    map is built.

    Requires c to be total on the support of h; a partial coloring is rejected
    with ValueError since the question is not yet decided.
    """
    return _verdict(h, c)[0]


def _verdict(h: Hypergraph, c: Coloring) -> tuple[bool, tuple[list[tuple[int, ...]], list[int]]]:
    """is_harmonious(h, c) and the _edge_keys it decided on, for verify to
    build its report's EventIndex on without keying any edge again."""
    colors = _colors_on(h, c)
    keys, repeats = keyed = _edge_keys(h, colors)
    if keys and not min(map(itemgetter(0), keys)):
        v = next(v for v in h.support if not colors[v])
        raise ValueError(f"partial coloring: vertex {v} lies in an edge but has no color")
    return not repeats and len(set(keys)) == h.m, keyed


def local_bad_events(h: Hypergraph, c: Coloring, v: int) -> LocalEvents:
    """The bad events visible at vertex v under the coloring c, which may be
    partial, read from one EventIndex of c.

    b1 collects the bad edges containing v. b2[i] collects the same-pattern
    pairs {e, f} with v in e ∪ f and |e\\f| = i; any pair containing v can be
    written with its first edge through v, so this matches counting pairs by
    an edge through v ( <= max_degree many) times partners sharing k-i >= 1
    vertices with it ( <= k*max_degree/(k-i) many), and <= max_degree*m
    partners in the disjoint class i = k.
    """
    if not 0 <= v < h.n:
        raise ValueError(f"vertex {v} outside 0..{h.n - 1}")
    index, row = EventIndex(h, _colors_on(h, c)), h._row
    b1 = tuple(BadEdge(idx) for idx in index.bad if v in row(idx))
    by_i: dict[int, list[SamePattern]] = {i: [] for i in range(1, h.k + 1)}
    for e, f, i in index.pairs:
        if v in row(e) or v in row(f):
            by_i[i].append(SamePattern(e, f, i))
    return LocalEvents(b1=b1, b2={i: tuple(hits) for i, hits in by_i.items()})


def colors_used(c: Coloring) -> int:
    """Number of distinct color ids actually assigned."""
    return len(set(c.colors) - {0})



def serialize_coloring(c: Coloring, n: int) -> str:
    """Emit the coloring format, colored vertices ascending, LF line endings.
    The lines are joined 4,096 at a time, as in serialize_hypergraph."""
    if n != len(c.colors):
        raise ValueError(f"coloring has n={len(c.colors)}, not n={n}")
    colored, chunks = compress(enumerate(c.colors), c.colors), [f"c {c.t} {n}\n"]
    while chunk := "".join([f"v {v} {color}\n" for v, color in islice(colored, 4096)]):
        chunks.append(chunk)
    return "".join(chunks)
