"""k-uniform hypergraphs: data model, instance files, fixtures, random generation.

Vertices are dense integer ids 0..n-1. Edges are k-element sets stored as
sorted tuples; edge identity is set identity and duplicate edges are rejected.
Isolated vertices are allowed (n may exceed the support of the edges).

``Hypergraph.__init__`` is the only code that checks and canonicalises an
edge. ``parse_hypergraph`` reads the edge lines in blocks of ``BLOCK_LINES``
lines and hands them to the constructor as one list. On any fault it reads
the text again line by line, streaming the edges into the constructor, which
then checks them one at a time, and puts the line number on the first fault.
"""

from __future__ import annotations

import random
import sys
from functools import cached_property
from itertools import chain, compress
from operator import itemgetter, lt
from typing import Iterable, Iterator, NamedTuple, Sequence

BLOCK_LINES = 1024
"""Lines per block of the block readers. A block's token lists and converted
columns are the readers' only transient besides the result, so this bounds
their memory over the result's."""

# the resampler's pick rules and the exact search's default node budget, kept
# here so that the CLI parser reads them without loading the solver
EVENT_SCANS = ("deterministic", "random")
DEFAULT_NODE_BUDGET = 5_000_000


class FormatError(ValueError):
    """Malformed instance or coloring text; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


class InfeasibleConfigError(ValueError):
    """Generator parameters violate a necessary feasibility condition."""


class GenerationFailure(RuntimeError):
    """The generator's restart budget ran out before a valid instance appeared."""


class Hypergraph:
    """Immutable k-uniform hypergraph on vertices 0..n-1.

    Invariants, checked on construction:
      * every edge has exactly k distinct members, all in range(n);
      * no two edges are equal as sets.
    The degrees and the incidence lists are derived on first use.
    """

    __slots__ = ("k", "n", "edges", "__dict__")

    def __init__(self, k: int, n: int, edges: Iterable[Sequence[int]]):
        if k < 2:
            raise ValueError(f"uniformity k must be at least 2, got {k}")
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        if n > sys.maxsize:  # no list of n degrees can exist
            raise ValueError(f"vertex count must be at most {sys.maxsize}, got {n}")
        # a list is checked at once; a stream, or a list with a fault, edge by edge
        canon = _canonical_edges(k, n, edges) if isinstance(edges, (list, tuple)) else None
        self.k, self.n = k, n
        self.edges: tuple[tuple[int, ...], ...] = tuple(
            _canonical_edges_one_by_one(k, n, edges) if canon is None else canon)

    @property
    def m(self) -> int:
        """Number of edges."""
        return len(self.edges)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        """degrees[v] is the number of edges containing v: the lengths of the
        incidence lists once those are built, else a count over the edges."""
        if "incidence" in self.__dict__:
            return tuple(map(len, self.incidence))
        degrees = [0] * self.n
        for v in chain.from_iterable(self.edges):
            degrees[v] += 1
        return tuple(degrees)

    @cached_property
    def incidence(self) -> tuple[tuple[int, ...], ...]:
        """incidence[v] lists the indices of the edges containing v, ascending."""
        # n slots in one allocation first, so that a hostile n fails at once
        inc: list[list[int]] = [[] for _ in [None] * self.n]
        for idx, e in enumerate(self.edges):
            for v in e:
                inc[v].append(idx)
        return tuple(map(tuple, inc))

    @property
    def support(self) -> tuple[int, ...]:
        """Vertices of positive degree, ascending."""
        return tuple(compress(range(self.n), self.degrees))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return (self.k, self.n, self.edges) == (other.k, other.n, other.edges)

    def __repr__(self) -> str:
        return f"Hypergraph(k={self.k}, n={self.n}, m={self.m})"


def _canonical_edges_one_by_one(k: int, n: int, edges: Iterable[Sequence[int]]
                                ) -> list[tuple[int, ...]]:
    """The sorted edges of a k-uniform hypergraph on n vertices, checking one
    edge at a time as it arrives: the first fault raises ValueError, naming
    the edge as given."""
    canon: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    for edge in edges:
        e = tuple(sorted(edge))
        if len(e) != k:
            raise ValueError(f"edge has {len(e)} vertices, expected {k}")
        if len(set(e)) != k:
            raise ValueError(f"repeated vertex in edge {tuple(edge)}")
        if e[0] < 0 or e[-1] >= n:
            raise ValueError(f"vertex id outside 0..{n - 1} in edge {tuple(edge)}")
        if e in seen:
            raise ValueError(f"duplicate edge {e}")
        seen.add(e)
        canon.append(e)
    return canon


def _canonical_edges(k: int, n: int, edges: Sequence[Sequence[int]]
                     ) -> Sequence[tuple[int, ...]] | None:
    """The edges as sorted tuples, checked all at once, or None when some
    edge has a fault. Edges given as strictly increasing tuples are kept,
    not copied: the generator and the block reader give them so."""
    if not edges:
        return edges
    try:
        if (set(map(type, edges)) != {tuple} or set(map(len, edges)) != {k}
                or not _increasing(edges, k)):
            edges = list(map(tuple, map(sorted, edges)))
            if set(map(len, edges)) != {k} or not _increasing(edges, k):
                return None
        if min(map(itemgetter(0), edges)) < 0 or max(map(itemgetter(k - 1), edges)) >= n:
            return None
        if len(set(edges)) != len(edges):
            return None
    except TypeError:  # vertices that do not compare or hash; the edge-by-edge check names them
        return None
    return edges


def _increasing(edges: Sequence[tuple[int, ...]], k: int) -> bool:
    """Whether each of the k-tuples ``edges`` is strictly increasing, by
    comparing neighbouring columns."""
    return all(all(map(lt, map(itemgetter(j), edges), map(itemgetter(j + 1), edges)))
               for j in range(k - 1))


class _Checked:
    """The base of a record that subclasses a NamedTuple of its fields and
    vets each new instance in ``_check``, also one built by ``_replace``."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self

    @classmethod
    def _make(cls, iterable):  # the NamedTuple one skips __new__
        return cls(*iterable)


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


def _content_lines(text: str) -> Iterator[tuple[int, str, list[str]]]:
    """(line number, stripped line, tokens) for each line of an instance or
    coloring file that is neither blank nor a ``#`` comment. A line ends at
    LF; a CR before it is whitespace. Both formats take their header from the
    first such line; a text without one raises FormatError."""
    headless = True
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            headless = False
            yield lineno, line, line.split()
    if headless:
        raise FormatError("no header line found")


def _line_blocks(text: str) -> Iterator[list[str]]:
    """The lines of text, split at LF as in _content_lines, in lists of
    BLOCK_LINES lines; the last list may be shorter. Each block is split
    from a slice of the text, widened until it holds the block."""
    pos, end, width = 0, len(text), 64 * BLOCK_LINES
    while pos < end:
        chunk = text[pos:pos + width]
        lines = chunk.split("\n", BLOCK_LINES)
        if len(lines) > BLOCK_LINES:  # the last item is the unsplit rest of the chunk
            pos += len(chunk) - len(lines.pop())
            yield lines
        elif pos + width >= end:
            yield lines
            return
        else:
            width *= 2


def _header_and_blocks(text: str) -> tuple[int, str, list[str], Iterator[list[str]]]:
    """The first content line of text as _content_lines gives it, and the
    line blocks after it. Raises ValueError when the first block has no
    content line; the line reader then looks further."""
    blocks = _line_blocks(text)
    first = next(blocks, [])
    for at, raw in enumerate(first):
        tokens = raw.split()
        if tokens and not tokens[0].startswith("#"):
            return at + 1, raw.strip(), tokens, chain([first[at + 1:]], blocks)
    raise ValueError("no header line in the first block")


def _block_columns(block: list[str], tag: str, width: int) -> list[tuple[str, ...]]:
    """The tokens after the tag of a block's content lines, as ``width``
    columns, or [] for a block without content lines. Raises ValueError
    unless every content line is ``tag`` and ``width`` more tokens."""
    rows = list(filter(None, map(str.split, block)))  # blank lines dropped
    if set(map(itemgetter(0), rows)) - {tag}:
        rows = [row for row in rows if not row[0].startswith("#")]
        if set(map(itemgetter(0), rows)) - {tag}:
            raise ValueError(f"a content line without the tag {tag!r}")
    if set(map(len, rows)) - {width + 1}:
        raise ValueError(f"a content line without {width} fields")
    return list(zip(*rows))[1:]


def _hypergraph_header(lineno: int, line: str, tokens: list[str]) -> tuple[int, int, int]:
    """(k, n, m) of the instance header ``p hg <k> <n> <m>``."""
    if len(tokens) != 5 or tokens[0] != "p" or tokens[1] != "hg":
        raise FormatError(f"expected header 'p hg <k> <n> <m>', got {line!r}", lineno)
    try:
        k, n, m = (int(tok) for tok in tokens[2:])
    except ValueError:
        raise FormatError(f"non-integer field in header {line!r}", lineno) from None
    if k < 2 or n < 0 or m < 0:
        raise FormatError(f"header out of range: k={k}, n={n}, m={m}", lineno)
    return k, n, m


def parse_hypergraph(text: str) -> Hypergraph:
    """Parse the line-oriented instance format.

    Line 1 is ``p hg <k> <n> <m>``; each of the next m lines is
    ``e <v1> ... <vk>`` with 0-based vertex ids. ``#`` begins a comment line,
    blank lines are skipped, and a line ends at LF (a CR before it is
    whitespace). The edge lines are read in blocks of BLOCK_LINES lines and
    checked by ``Hypergraph`` all at once. On any fault the text is read
    again line by line (_parse_hypergraph_lines), which raises a FormatError
    on the line of the first offending edge.
    """
    try:
        return _parse_hypergraph_blocks(text)
    except ValueError:  # the line reader names the first fault
        return _parse_hypergraph_lines(text)


def _parse_hypergraph_blocks(text: str) -> Hypergraph:
    """parse_hypergraph's block reader: raises ValueError, without a line
    number, on any fault."""
    lineno, line, tokens, blocks = _header_and_blocks(text)
    k, n, m = _hypergraph_header(lineno, line, tokens)
    edges: list[tuple[int, ...]] = []
    for block in blocks:
        edges.extend(zip(*[map(int, column) for column in _block_columns(block, "e", k)]))
    if len(edges) != m:
        raise ValueError(f"declared {m} edges but found {len(edges)}")
    return Hypergraph(k, n, edges)


def _parse_hypergraph_lines(text: str) -> Hypergraph:
    """parse_hypergraph's line reader: the edges stream into ``Hypergraph``,
    which checks them one at a time; its ValueError comes back as a
    FormatError on the line of the offending edge."""
    lines = _content_lines(text)
    lineno, line, tokens = next(lines)
    k, n, m = _hypergraph_header(lineno, line, tokens)

    def edges() -> Iterator[tuple[int, ...]]:
        nonlocal lineno
        found = 0
        for lineno, line, tokens in lines:
            if tokens[0] != "e":
                raise FormatError(f"expected edge line 'e <v1> ... <v{k}>', got {line!r}", lineno)
            if found == m:
                raise FormatError(f"more than the declared {m} edges", lineno)
            found += 1
            try:
                verts = tuple(map(int, tokens[1:]))
            except ValueError:
                raise FormatError(f"non-integer vertex id in {line!r}", lineno) from None
            yield verts
        if found != m:
            raise FormatError(f"declared {m} edges but found {found}")

    try:
        return Hypergraph(k, n, edges())
    except FormatError:
        raise
    except ValueError as exc:
        raise FormatError(str(exc), lineno) from None


def serialize_hypergraph(h: Hypergraph) -> str:
    """Emit the canonical instance text: LF line endings, ascending vertex
    order within each edge, edges in stored order. Round-trips through
    parse_hypergraph exactly."""
    lines = [f"p hg {h.k} {h.n} {h.m}"]
    lines.extend("e " + " ".join(str(v) for v in e) for e in h.edges)
    return "\n".join(lines) + "\n"


def max_degree(h: Hypergraph) -> int:
    """Largest number of edges meeting any one vertex; 0 for an edgeless instance."""
    return max(h.degrees, default=0)


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
    ``rng.sample(range(live), k)``, and mapped to vertices through a Fenwick
    tree. ``random.sample`` only takes the length of its population and
    indexes it, so this makes the same RNG calls and picks the same vertices
    as sampling from the ascending list of those vertices, rebuilt per edge:
    each seed yields that O(n*m) generator's instance (tests/oracles.py keeps
    it as ``naive_generate``). Cost: O(n + m*k*log n) per attempt.
    """
    rng = random.Random(cfg.seed)
    k, n = cfg.k, cfg.n
    restarts = cfg.max_restarts if cfg.max_restarts is not None else 100 * cfg.m
    attempts = restarts + 1
    for _ in range(attempts):
        capacity = [cfg.max_degree] * n
        live = _LiveVertices(n)
        chosen: list[tuple[int, ...]] = []
        taken: set[tuple[int, ...]] = set()
        dead = False
        while len(chosen) < cfg.m:
            if live.size < k:
                dead = True
                break
            edge: tuple[int, ...] | None = None
            for _draw in range(100):
                cand = tuple(sorted(map(live.vertex, rng.sample(range(live.size), k))))
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
                if not capacity[v]:
                    live.discard(v)
        if not dead:
            return Hypergraph(k, n, chosen)
    raise GenerationFailure(
        f"no valid instance after {attempts} attempts "
        f"(k={cfg.k}, n={cfg.n}, m={cfg.m}, max_degree={cfg.max_degree}, seed={cfg.seed})"
    )


class _LiveVertices:
    """A subset of 0..n-1, initially all of it, as a Fenwick tree over the
    membership flags: O(n) to build, O(log n) to discard a member or to find
    the member of a given rank. ``size`` is the number of members."""

    __slots__ = ("tree", "top", "size")

    def __init__(self, n: int):
        self.tree = [i & -i for i in range(n + 1)]  # tree[i] sums flags (i - lowbit(i), i]
        self.top = (1 << n.bit_length()) >> 1  # the largest power of 2 <= n
        self.size = n

    def vertex(self, rank: int) -> int:
        """The member with exactly ``rank`` smaller members."""
        tree, n = self.tree, len(self.tree) - 1
        pos, step = 0, self.top
        while step:
            nxt = pos + step
            if nxt <= n and tree[nxt] <= rank:
                pos = nxt
                rank -= tree[nxt]
            step >>= 1
        return pos  # the 1-based tree position pos + 1 is vertex pos

    def discard(self, v: int) -> None:
        """Remove member v."""
        tree, i = self.tree, v + 1
        while i < len(tree):
            tree[i] -= 1
            i += i & -i
        self.size -= 1
