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
import sys
from bisect import bisect_left, insort
from functools import cached_property
from itertools import chain, compress
from operator import eq, itemgetter
from typing import Iterable, Iterator, Mapping, NamedTuple, Union

from .hypergraph import (FormatError, Hypergraph, _block_columns, _Checked, _content_lines,
                         _header_and_blocks)


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
    entries. Each edge's colors are sorted by C-level calls, a repeat shows
    as equal neighbouring columns, and only repeats are keyed by edge_key."""
    rows = zip(*[map(colors.__getitem__, chain.from_iterable(h.edges))] * h.k)
    keys = list(map(tuple, map(sorted, rows)))
    same = zip(*[map(eq, map(itemgetter(j), keys), map(itemgetter(j + 1), keys))
                 for j in range(h.k - 1)])
    repeats = list(compress(range(len(keys)), map(any, same)))
    for idx in repeats:
        keys[idx] = edge_key(colors, h.edges[idx])
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
    edges are rainbow: _pairs confirms each candidate pair, here each pair
    of a shared group once, as its later edge joins. A multiset key would
    miss non-rainbow pairs such as e\\f colored (1,1,2) against f\\e
    colored (1,2,2). An edge with an uncolored vertex pairs only with
    partners that contain all of its uncolored vertices, so its candidates
    come from the incidence lists.

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
        join, pairs_of, edges, found = self._join, self._pairs, h.edges, set()
        for idx, key in enumerate(keys):
            held = groups.setdefault(key, idx)
            if held != idx:
                held = join(key, held, idx)
                if key[0]:
                    found.update(pairs_of(idx, held))
            if not key[0]:  # a pair of two such edges is found from both; the set keeps one
                missing = [h.incidence[v] for v in edges[idx] if not colors[v]]
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
        of ``others`` other than idx itself."""
        edges, colors = self.h.edges, self.colors
        edge = edges[idx]
        for other in others:
            if other != idx:
                i = _pattern_size(edge, edges[other], colors)
                if i is not None:
                    yield (idx, other, i) if idx < other else (other, idx, i)

    def refresh(self, edge_ids: Iterable[int]) -> None:
        keys, groups, edges, colors, k = self.keys, self.groups, self.h.edges, self.colors, self.k
        bad, pairs = self.bad, self.pairs
        for idx in edge_ids:
            old, key = keys[idx], edge_key(colors, edges[idx])
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
    index, edges = EventIndex(h, _colors_on(h, c)), h.edges
    b1 = tuple(BadEdge(idx) for idx in index.bad if v in edges[idx])
    by_i: dict[int, list[SamePattern]] = {i: [] for i in range(1, h.k + 1)}
    for e, f, i in index.pairs:
        if v in edges[e] or v in edges[f]:
            by_i[i].append(SamePattern(e, f, i))
    return LocalEvents(b1=b1, b2={i: tuple(hits) for i, hits in by_i.items()})


def colors_used(c: Coloring) -> int:
    """Number of distinct color ids actually assigned."""
    return len(set(c.colors) - {0})


def parse_coloring(text: str) -> tuple[Coloring, int]:
    """Parse the coloring format: header ``c <t> <n>``, then ``v <vertex>
    <color>`` lines. Returns (coloring, n) with n the declared vertex count.
    Comments (#) and blank lines are skipped, and a line ends at LF. The
    header is read once, and the lines after it in blocks of BLOCK_LINES
    lines, checked a block at a time. On any fault they are read again line
    by line (_coloring_from_lines), which raises a FormatError on the line
    of the first fault."""
    lineno, line, tokens, blocks = _header_and_blocks(text)
    t, n = _coloring_header(lineno, line, tokens)
    try:
        return _coloring_from_blocks(t, n, blocks())
    except ValueError:
        pass  # the line reader names the first fault, once the block reader's colors are freed
    return _coloring_from_lines(t, n, _content_lines(blocks(), lineno))


def _coloring_header(lineno: int, line: str, tokens: list[str]) -> tuple[int, int]:
    """(t, n) of the coloring header ``c <t> <n>``."""
    if len(tokens) != 3 or tokens[0] != "c":
        raise FormatError(f"expected header 'c <t> <n>', got {line!r}", lineno)
    try:
        t, n = int(tokens[1]), int(tokens[2])
    except ValueError:
        raise FormatError(f"non-integer field in header {line!r}", lineno) from None
    if t < 1 or n < 0:
        raise FormatError(f"header out of range: t={t}, n={n}", lineno)
    if n > sys.maxsize:  # no list of n colors can exist
        raise FormatError(f"vertex count must be at most {sys.maxsize}, got {n}", lineno)
    return t, n


def _coloring_from_blocks(t: int, n: int, blocks: Iterable[list[str]]) -> tuple[Coloring, int]:
    """parse_coloring's block reader over the line blocks after the header
    ``c <t> <n>``: raises ValueError, without a line number, on any fault."""
    colors = [0] * n
    for block in blocks:
        columns = _block_columns(block, "v", 2)
        if not columns:
            continue
        vertices, hues = list(map(int, columns[0])), list(map(int, columns[1]))
        if (min(vertices) < 0 or max(vertices) >= n or min(hues) < 1 or max(hues) > t
                or len(set(vertices)) != len(vertices) or any(map(colors.__getitem__, vertices))):
            raise ValueError("a vertex or color out of range, or a vertex colored twice")
        for vertex, color in zip(vertices, hues):
            colors[vertex] = color
    return Coloring(t=t, colors=colors), n


def _coloring_from_lines(t: int, n: int, lines: Iterator[tuple[int, str, list[str]]]
                         ) -> tuple[Coloring, int]:
    """parse_coloring's line reader over the content lines after the header
    ``c <t> <n>``: checks one line at a time and raises a FormatError on the
    line of the first fault."""
    colors = [0] * n
    for lineno, line, tokens in lines:
        if tokens[0] != "v" or len(tokens) != 3:
            raise FormatError(f"expected 'v <vertex> <color>', got {line!r}", lineno)
        try:
            vertex, color = int(tokens[1]), int(tokens[2])
        except ValueError:
            raise FormatError(f"non-integer field in {line!r}", lineno) from None
        if not 0 <= vertex < n:
            raise FormatError(f"vertex {vertex} outside 0..{n - 1}", lineno)
        if not 1 <= color <= t:
            raise FormatError(f"color {color} outside 1..{t}", lineno)
        if colors[vertex]:
            raise FormatError(f"vertex {vertex} colored twice", lineno)
        colors[vertex] = color
    return Coloring(t=t, colors=colors), n


def serialize_coloring(c: Coloring, n: int) -> str:
    """Emit the coloring format, colored vertices ascending, LF line endings."""
    if n != len(c.colors):
        raise ValueError(f"coloring has n={len(c.colors)}, not n={n}")
    lines = [f"c {c.t} {n}"]
    lines.extend(f"v {v} {color}" for v, color in enumerate(c.colors) if color)
    return "\n".join(lines) + "\n"
