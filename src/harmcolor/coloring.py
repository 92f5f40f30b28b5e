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
builds the index on the same keys, only for a coloring that fails. An edge's
key is an int, the product of one prime per distinct color (edge_key), so
two keys are equal iff the two edges' color sets are.
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from functools import cached_property, partial, reduce
from itertools import combinations, compress, islice, repeat
from math import isqrt, log, prod
from operator import and_, eq, itemgetter, mul
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


class _Primes(dict):
    """Color -> prime, the factors of the edge keys: 2 for 0 (uncolored) and
    one odd prime for each other color. A color the map was not built with
    takes the least odd prime above every prime handed out so far, on its
    first lookup."""

    __slots__ = ("top",)

    def __missing__(self, color: int) -> int:
        p = self.top + 2
        while not all(p % d for d in range(3, isqrt(p) + 1, 2)):
            p += 2
        self[color] = self.top = p
        return p


def _odd_primes(count: int) -> list[int]:
    """The first count odd primes, from a sieve of the odd numbers up to
    Rosser's bound x(ln x + ln ln x) on the x-th prime, x = count + 1."""
    x = count + 1
    limit = 64 if x < 6 else int(x * (log(x) + log(log(x)))) + 2
    sieve = bytearray([1]) * (limit // 2)  # sieve[i] stands for 2i + 1
    sieve[0] = 0
    for i in range(1, isqrt(limit) // 2 + 1):
        if sieve[i]:
            start = 2 * i * (i + 1)  # the index of (2i + 1)^2
            sieve[start::2 * i + 1] = bytes(len(range(start, len(sieve), 2 * i + 1)))
    return list(islice(compress(range(1, limit, 2), sieve), count))


def _prime_map(colors: list[int]) -> _Primes:
    """A _Primes over the colors in ``colors``: its size follows the number
    of distinct colors, not their values. The map first holds the colors,
    then takes their primes in place, so that no set of them is built."""
    primes = _Primes.fromkeys(colors)
    primes.pop(0, None)
    odd = _odd_primes(len(primes))
    primes.update(zip(primes, odd))  # new values for the keys it iterates: no resize
    primes.top = odd[-1] if odd else 1
    primes[0] = 2
    return primes


def edge_key(colors: list[int], edge: tuple[int, ...], primes: _Primes) -> int:
    """The product of the primes of an edge's distinct colors under the list
    ``colors``, negated iff the edge repeats a color (0 included). It is even
    iff the edge has an uncolored vertex. By unique factorisation two edges'
    keys are equal iff their distinct-color sets are: two rainbow edges show
    the same pattern iff their keys are equal, and an edge is rainbow iff its
    key is positive and odd."""
    # map keeps the loop out of a comprehension frame: refresh calls it per edge
    distinct = set(map(colors.__getitem__, edge))
    key = prod(map(primes.__getitem__, distinct))
    return key if len(distinct) == len(edge) else -key


def _pattern_size(ea: tuple[int, ...], eb: tuple[int, ...], colors: list[int]) -> int | None:
    """|ea\\eb| if edges ea and eb show the same pattern under the list
    ``colors``, else None. This is the one statement of the pattern
    definition; |ea\\eb| = |eb\\ea| since both edges have k vertices."""
    da = [v for v in ea if v not in eb]
    side = {colors[v] for v in da}
    if 0 in side or side != {colors[v] for v in eb if v not in ea}:
        return None  # equal sets without 0 leave both sides fully colored
    return len(da)


def _edge_keys(h: Hypergraph, colors: list[int]) -> tuple[list[int], list[int], _Primes]:
    """The edge_key of every edge of h, by id, the ascending ids of the edges
    that repeat a color, 0 included, and the prime map the keys are made of.
    Each edge's primes are gathered column by column and multiplied by
    C-level calls, a repeat shows as two equal columns, and only a repeat is
    then keyed again from its distinct primes."""
    primes = _prime_map(colors)
    by_vertex = list(map(primes.__getitem__, colors))
    cols = [list(map(by_vertex.__getitem__, col)) for col in h._cols]
    del by_vertex
    keys = list(reduce(partial(map, mul), cols))
    same = zip(*[map(eq, a, b) for a, b in combinations(cols, 2)])
    repeats = list(compress(range(len(keys)), map(any, same)))
    for idx in repeats:
        keys[idx] = -prod(set(map(itemgetter(idx), cols)))
    return keys, repeats, primes


class EventIndex:
    """The bad events of the coloring ``colors``, a list indexed by vertex
    with 0 for uncolored, as one sorted event list: the bad edges in id
    order, then the confirmed same-pattern pairs (e, f, i) in order. It is
    the one analysis behind bad_edges, pattern_collisions, local_bad_events
    and verify's report, and each scan of the resampler is a pick rule over
    this list (see ``pick``).

    The build takes partial colorings. Every edge is keyed by edge_key, the
    product of the primes of its distinct colors, which is even iff the edge
    has an uncolored vertex and negative iff it repeats a color; all come
    from _edge_keys, or from ``keyed``, its result when the caller has it.
    The prime map ``primes`` travels with the keys, and refresh keys the
    changed edges through it. A fully colored edge is bad iff its key is
    negative, so only repeat edges can be bad; an edge with an uncolored
    vertex is never bad. ``groups`` maps a key held by one edge
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

    def __init__(self, h: Hypergraph, colors: list[int],
                 keyed: tuple[list, list, _Primes] | None = None):
        keys, repeats, self.primes = keyed or _edge_keys(h, colors)
        self.h, self.k, self.colors, self.keys = h, h.k, colors, keys
        self.groups = groups = {}
        join, pairs_of, row, found = self._join, self._pairs, h._row, set()
        for idx, key in enumerate(keys):
            held = groups.setdefault(key, idx)
            if held != idx:
                held = join(key, held, idx)
                if key & 1:
                    found.update(pairs_of(idx, held))
            if not key & 1:  # a pair of two such edges is found from both; the set keeps one
                missing = [h._incident(v) for v in row(idx) if not colors[v]]
                found.update(pairs_of(idx, set(missing[0]).intersection(*missing[1:])))
        self.bad = [idx for idx in repeats if keys[idx] & 1]
        self.pairs = sorted(found)

    def _join(self, key: int, held: int | list[int], idx: int) -> list[int]:
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
        if key > 0 and key & 1:
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
        keys, groups, row, colors = self.keys, self.groups, self.h._row, self.colors
        primes, bad, pairs = self.primes, self.bad, self.pairs
        for idx in edge_ids:
            old, key = keys[idx], edge_key(colors, row(idx), primes)
            if key == old and key > 0:
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
                if key < 0 < old:
                    insort(bad, idx)
                elif old < 0 < key:
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


def _verdict(h: Hypergraph, c: Coloring) -> tuple[bool, tuple[list[int], list[int], _Primes]]:
    """is_harmonious(h, c) and the _edge_keys it decided on, for verify to
    build its report's EventIndex on without keying any edge again."""
    colors = _colors_on(h, c)
    keys, repeats, _ = keyed = _edge_keys(h, colors)
    if 0 in colors and not all(map(and_, keys, repeat(1))):
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
