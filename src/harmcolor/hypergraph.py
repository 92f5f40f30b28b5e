"""k-uniform hypergraphs: data model, instance files, fixtures, random generation.

Vertices are dense integer ids 0..n-1. Edges are k-element sets with set
identity; duplicate edges are rejected. Isolated vertices are allowed (n may
exceed the support of the edges).

An instance is stored as k typed vertex columns (``Hypergraph._cols``): the
j-th column holds the j-th smallest vertex of every edge, in edge order, as
an ``array('i')``, or an ``array('q')`` when n > 2**31. Only this module
knows that layout. The resampler and the verifier read the columns in bulk
passes and a single edge through ``Hypergraph._row``. ``Hypergraph.edges``,
the edges as sorted tuples, which the exact search and greedy read, exists
only once something asks for it.

The incidence is stored in CSR form (``Hypergraph._csr``): an offsets array
of n + 1 entries and an array of the k*m edge ids, vertex v's ids, ascending,
being ``ids[offsets[v]:offsets[v + 1]]``. Only this module knows that layout:
the resampler and the verifier read the slices through ``Hypergraph._incident``,
and ``Hypergraph.incidence``, the same lists as tuples, which the exact search
and greedy index, is derived from the CSR on first use.

One check vets the rows of an instance's columns (_valid_rows), and one rule
applies it to a source of rows (_sorted_columns): the columns as given, else
with each row sorted. Rows given to ``Hypergraph`` as a list or tuple of
list or tuple rows are columnised and take that rule at once; a stream, or
rows with a fault, go to the edge-by-edge loop (_canonical_rows), which
names the first fault. Both file formats are read in one pass: the header
once, each of its faults named on its line; the lines after it in block
texts of about BLOCK_CHARS characters, a canonical ASCII one split once as
bytes (_block_columns), each block checked at once against the blocks
accepted before it. Only a block that faults is read again, line by line
against that same state, by its format's per-line check, which names the
fault's line. An edge is checked alone by _canonical_edge, whether the
edge-by-edge loop or the instance's per-line check (_edge_lines) reads it,
so both name a fault alike. Columns that skip the check
(``Hypergraph._of_columns``) are vouched for by their maker: the block
reader's check, the pickled instance, or the generator, whose draws are
sorted, in range and distinct by construction.
"""

from __future__ import annotations

import random
import sys
from array import array
from bisect import bisect_left
from collections import deque
from functools import cached_property
from itertools import accumulate, chain, compress, islice
from math import ceil, log
from operator import itemgetter, lt, sub
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

BLOCK_CHARS = 16_384
"""A block of the block readers ends at the first LF this many characters or
more past its start. Its token lists and converted columns are the readers'
only transient besides the result, so this bounds their memory over it."""

LIVE_BLOCK = 8192  # the id range of each of _LiveVertices's lists, set by measurement

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
      * every edge has exactly k distinct integer members, all in range(n);
      * no two edges are equal as sets.
    The only stored form is the columns ``_cols`` (see the module
    docstring): the rows ``edges``, the CSR incidence ``_csr``, the degrees
    and the incidence tuples are derived on first use.
    """

    __slots__ = ("k", "n", "_cols", "__dict__")

    def __init__(self, k: int, n: int, edges: Iterable[Sequence[int]]):
        if k < 2:
            raise ValueError(f"uniformity k must be at least 2, got {k}")
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        if n > sys.maxsize:  # no list of n vertices can exist
            raise ValueError(f"vertex count must be at most {sys.maxsize}, got {n}")
        self.k, self.n = k, n
        self._cols = _canonical_columns(k, n, edges)

    @classmethod
    def _of_columns(cls, k: int, n: int, cols: list[array]) -> Hypergraph:
        """The instance stored as the columns ``cols``, typed for n, unchecked:
        its maker vouches for k, n and the rows, which the block reader's
        check accepted, a pickled instance held, or the generator drew."""
        self = cls.__new__(cls)
        self.k, self.n, self._cols = k, n, cols
        return self

    @cached_property
    def _row(self) -> Callable[[int], tuple[int, ...]]:
        """The row accessor: ``h._row(idx)`` is edge idx as a sorted tuple,
        read from the columns. Unrolled up to k = 4, where it takes a third
        of a comprehension's time per call."""
        cols = self._cols
        if len(cols) == 2:
            a, b = cols
            return lambda idx: (a[idx], b[idx])
        if len(cols) == 3:
            a, b, c = cols
            return lambda idx: (a[idx], b[idx], c[idx])
        if len(cols) == 4:
            a, b, c, d = cols
            return lambda idx: (a[idx], b[idx], c[idx], d[idx])
        return lambda idx: tuple([col[idx] for col in cols])

    @cached_property
    def edges(self) -> tuple[tuple[int, ...], ...]:
        """The edges as sorted tuples, in stored order."""
        return tuple(zip(*self._cols))

    @property
    def m(self) -> int:
        """Number of edges."""
        return len(self._cols[0])

    @cached_property
    def _csr(self) -> tuple[array, array]:
        """The incidence in CSR form (offsets, ids): the ids of the edges
        containing v, ascending, are ids[offsets[v]:offsets[v + 1]]. Built
        through n lists, whose n slots are allocated in one piece first, so
        that a hostile n fails at once."""
        inc: list[list[int]] = [[] for _ in [None] * self.n]
        for idx, e in enumerate(zip(*self._cols)):
            for v in e:
                inc[v].append(idx)
        offsets, ids = _typed(self.k * self.m + 1, [accumulate(map(len, inc), initial=0), ()])
        deque(map(ids.fromlist, inc), 0)
        return offsets, ids

    @cached_property
    def _incident(self) -> Callable[[int], array]:
        """The incidence accessor: ``h._incident(v)`` is the CSR's slice of
        the ids of the edges containing v, ascending."""
        offsets, ids = self._csr
        return lambda v: ids[offsets[v]:offsets[v + 1]]

    def _degree_counts(self) -> Iterable[int]:
        """The degrees in vertex order: the offset differences of the CSR
        once it is built, else a count over the columns."""
        if "_csr" in self.__dict__:
            offsets = self._csr[0]
            return map(sub, offsets[1:], offsets)
        degrees = [0] * self.n
        for v in chain.from_iterable(self._cols):
            degrees[v] += 1
        return degrees

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        """degrees[v] is the number of edges containing v."""
        return tuple(self._degree_counts())

    @cached_property
    def incidence(self) -> tuple[tuple[int, ...], ...]:
        """incidence[v] lists the indices of the edges containing v, ascending:
        the CSR's slices as tuples, which share one int object per edge."""
        offsets, ids = self._csr
        flat = list(map(list(range(self.m)).__getitem__, ids))
        return tuple([tuple(flat[start:stop]) for start, stop in zip(offsets, offsets[1:])])

    @property
    def support(self) -> tuple[int, ...]:
        """Vertices of positive degree, ascending."""
        return tuple(compress(range(self.n), self.degrees))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return (self.k, self.n, self._cols) == (other.k, other.n, other._cols)

    def __repr__(self) -> str:
        return f"Hypergraph(k={self.k}, n={self.n}, m={self.m})"

    def __reduce__(self):
        # pickled as its columns; the caches, the row accessor's closure
        # among them, are rebuilt on use
        return Hypergraph._of_columns, (self.k, self.n, self._cols)


def _typed(n: int, columns: Iterable[Iterable[int]]) -> list[array]:
    """The int columns ``columns``, checked, as arrays typed for values below
    n, such as the ids of n vertices: array('i'), or array('q') when a value
    may reach 2**31."""
    code = "i" if n <= 2 ** 31 else "q"
    return [array(code, column) for column in columns]


def _valid_rows(n: int, columns: Sequence[Sequence[int]], seen: set) -> bool:
    """The one edge check, on all rows at once or a block at a time: whether
    the rows of the equally long, nonempty int columns ``columns`` are
    strictly increasing, within 0..n-1, and distinct from each other and
    from those whose hashes ``seen`` holds, which then holds theirs too.
    Hashes take half the time and a third of the memory of a set of new row
    tuples; two rows of equal hash read as a fault, which the edge-by-edge
    loop or the per-line check then clears."""
    if not (all(all(map(lt, low, high)) for low, high in zip(columns, columns[1:]))
            and min(columns[0]) >= 0 and max(columns[-1]) < n):
        return False
    held = len(seen)
    seen.update(map(hash, zip(*columns)))
    return len(seen) - held == len(columns[0])


def _sorted_columns(n: int, columns: list[list[int]], seen: set) -> list[list[int]] | None:
    """The rule that checks a source of rows: the equally long, nonempty int
    columns ``columns`` if _valid_rows accepts them, else those of their
    rows each sorted, as a row may list its vertices in any order, if it
    accepts those; else None. If the rows were increasing, the first check
    did find a fault, and the second finds it again in the same rows."""
    if _valid_rows(n, columns, seen):
        return columns
    columns = list(map(list, zip(*map(sorted, zip(*columns)))))
    return columns if _valid_rows(n, columns, seen) else None


def _canonical_columns(k: int, n: int, edges: Iterable[Sequence[int]]) -> list[array]:
    """The typed columns of the edges of a k-uniform hypergraph on n
    vertices. A nonempty list or tuple of list or tuple rows of k ints each
    is columnised and checked at once (_sorted_columns); a stream, other
    rows (a dict row indexed by position would give its values, not its
    members), or rows with a fault are checked edge by edge
    (_canonical_rows), which raises on the first fault."""
    if (isinstance(edges, (list, tuple)) and edges and set(map(type, edges)) <= {list, tuple}
            and set(map(len, edges)) == {k}
            and set(map(type, chain.from_iterable(edges))) == {int}):
        columns = _sorted_columns(n, [list(map(itemgetter(j), edges)) for j in range(k)], set())
        if columns is not None:
            return _typed(n, columns)
    rows = _canonical_rows(k, n, edges)
    return _typed(n, (map(itemgetter(j), rows) for j in range(k)))


def _canonical_rows(k: int, n: int, edges: Iterable[Sequence[int]]) -> list[tuple[int, ...]]:
    """The edges as sorted tuples, checked one at a time: the first fault
    raises TypeError for a vertex that is not an int, else ValueError,
    naming the edge as given."""
    canon = []
    seen: set[tuple[int, ...]] = set()
    for edge in edges:
        given = tuple(edge)
        if set(map(type, given)) - {int}:
            raise TypeError(f"non-integer vertex id in edge {given}")
        e = _canonical_edge(k, n, given)
        if e in seen:
            raise ValueError(f"duplicate edge {e}")
        seen.add(e)
        canon.append(e)
    return canon


def _canonical_edge(k: int, n: int, given: tuple[int, ...]) -> tuple[int, ...]:
    """The int edge ``given`` as a sorted tuple, checked alone: ValueError,
    naming the edge as given, unless it has k distinct vertices in 0..n-1."""
    e = tuple(sorted(given))
    if len(e) != k:
        raise ValueError(f"edge has {len(e)} vertices, expected {k}")
    if len(set(e)) != k:
        raise ValueError(f"repeated vertex in edge {given}")
    if e[0] < 0 or e[-1] >= n:
        raise ValueError(f"vertex id outside 0..{n - 1} in edge {given}")
    return e


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


def _content_lines(block: str, lineno: int) -> Iterator[tuple[int, str, list[str]]]:
    """(line number, stripped line, tokens) for each line of the block text
    ``block`` that is neither blank nor a ``#`` comment, its first line
    being line lineno + 1."""
    for lineno, raw in enumerate(block.split("\n"), start=lineno + 1):
        tokens = raw.split()
        if tokens and not tokens[0].startswith("#"):
            yield lineno, raw.strip(), tokens


def _line_blocks(text: str, pos: int = 0) -> Iterator[str]:
    """The text from offset pos on in blocks of whole lines, each as its text:
    a block ends at the end of text or before the first LF at or after
    BLOCK_CHARS characters past its start (a CR before an LF is in its line)."""
    while pos < len(text):
        cut = text.find("\n", pos + BLOCK_CHARS)
        cut = len(text) if cut < 0 else cut
        yield text[pos:cut]
        pos = cut + 1


def _find_header(text: str) -> tuple[int, str, list[str], int]:
    """The line number, stripped line and tokens of the first line of text
    that is neither blank nor a ``#`` comment, which either format takes as
    its header, and the offset of the line after it, where its blocks start
    (_line_blocks). Raises FormatError when text has no such line."""
    lineno = pos = 0
    for block in _line_blocks(text):
        for raw in block.split("\n"):
            lineno, pos = lineno + 1, pos + len(raw) + 1
            tokens = raw.split()
            if tokens and not tokens[0].startswith("#"):
                return lineno, raw.strip(), tokens, pos
    raise FormatError("no header line found")


def _block_columns(block: str, tag: str, width: int) -> list[list[int]]:
    """The int tokens after the tag of the content lines of the block text
    ``block``, as ``width`` columns, or [] if it has none; ValueError unless
    every content line is ``tag`` and ``width`` int tokens. A canonical ASCII
    block (a final LF aside) is split once as bytes and read by stride: its
    lines start with the tag and a space, as many as the tags, one every
    width + 1 tokens, and int() refuses the tag and \\x1c-\\x1f, which only
    str.split() splits at, so they give str.split()'s tokens."""
    data, w = block.encode().rstrip(b"\n") if block.isascii() else b"", width + 1
    tokens, lines, head = data.split(), data.count(b"\n") + 1, tag.encode() + b" "
    if (len(tokens) == w * lines and tokens[::w].count(head[:-1]) == lines
            and data.startswith(head) and data.count(b"\n" + head) == lines - 1):
        return [list(map(int, tokens[j::w])) for j in range(1, w)]
    return _line_columns(block, tag, width)


def _line_columns(block: str, tag: str, width: int) -> list[list[int]]:
    """_block_columns of a block that is not canonical, read line by line."""
    rows = list(filter(None, map(str.split, block.split("\n"))))  # blank lines dropped
    if set(map(itemgetter(0), rows)) - {tag}:
        rows = [row for row in rows if not row[0].startswith("#")]
        if set(map(itemgetter(0), rows)) - {tag}:
            raise ValueError(f"a content line without the tag {tag!r}")
    if set(map(len, rows)) - {width + 1}:
        raise ValueError(f"a content line without {width} fields")
    return [list(map(int, column)) for column in list(zip(*rows))[1:]]


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
    if n > sys.maxsize:  # no list of n vertices can exist
        raise FormatError(f"vertex count must be at most {sys.maxsize}, got {n}", lineno)
    return k, n, m


def parse_hypergraph(text: str) -> Hypergraph:
    """Parse the line-oriented instance format.

    Line 1 is ``p hg <k> <n> <m>``; each of the next m lines is
    ``e <v1> ... <vk>`` with 0-based vertex ids. ``#`` begins a comment line,
    blank lines are skipped, and a line ends at LF (a CR before it is
    whitespace). Each block's converted columns are checked at once by
    _sorted_columns, while their ids are still int objects, and appended to
    the k columns; only a block with a line out of vertex order has its rows
    built, to sort them. A block that faults, or that would hold edge m + 1,
    is read again by _edge_lines, which names the first fault's line.
    """
    lineno, line, tokens, pos = _find_header(text)
    k, n, m = _hypergraph_header(lineno, line, tokens)
    cols, seen = _typed(n, [()] * k), set()
    for block in _line_blocks(text, pos):
        try:
            columns = _block_columns(block, "e", k)
        except ValueError:  # read below, once the traceback and its tokens are freed
            columns = None  # and seen holds no hash of the block
        if columns and ((columns := _sorted_columns(n, columns, seen)) is None
                        or len(cols[0]) + len(columns[0]) > m):
            columns = None
            _rehash(seen, cols)  # the check may have entered the block's hashes
        if columns is None:
            _edge_lines(k, n, m, cols, seen, _content_lines(block, text.count("\n", 0, pos)))
        else:
            for col, column in zip(cols, columns):
                col.fromlist(column)
        pos += len(block) + 1
    if len(cols[0]) != m:
        raise FormatError(f"declared {m} edges but found {len(cols[0])}")
    return Hypergraph._of_columns(k, n, cols)


def _rehash(seen: set, cols: list[array]) -> None:
    """Make ``seen`` hold the row hashes of the columns ``cols`` and no other."""
    seen.clear()
    seen.update(map(hash, zip(*cols)))


def _edge_lines(k: int, n: int, m: int, cols: list[array], seen: set,
                lines: Iterator[tuple[int, str, list[str]]]) -> None:
    """parse_hypergraph's per-line check: appends the edges of the content
    lines ``lines`` one at a time to the columns ``cols`` of the header
    ``p hg <k> <n> <m>``, whose row hashes ``seen`` holds, and raises a
    FormatError on the line of the first fault. A hash already held is a
    duplicate only if an equal row is in the columns; else it is cleared."""
    for lineno, line, tokens in lines:
        if tokens[0] != "e":
            raise FormatError(f"expected edge line 'e <v1> ... <v{k}>', got {line!r}", lineno)
        if len(cols[0]) == m:
            raise FormatError(f"more than the declared {m} edges", lineno)
        try:
            given = tuple(map(int, tokens[1:]))
        except ValueError:
            raise FormatError(f"non-integer vertex id in {line!r}", lineno) from None
        try:
            e = _canonical_edge(k, n, given)
        except ValueError as exc:
            raise FormatError(str(exc), lineno) from None
        if hash(e) in seen and e in zip(*cols):
            raise FormatError(f"duplicate edge {e}", lineno)
        seen.add(hash(e))
        for col, v in zip(cols, e):
            col.append(v)


def serialize_hypergraph(h: Hypergraph) -> str:
    """Emit the canonical instance text: LF line endings, ascending vertex
    order within each edge, edges in stored order. Round-trips through
    parse_hypergraph exactly. The edge lines are joined 4,096 at a time, so
    that no list of m line strings is held beside the text."""
    rows = zip(*h._cols)
    chunks = [f"p hg {h.k} {h.n} {h.m}\n"]
    while chunk := "".join(["e " + " ".join(map(str, e)) + "\n" for e in islice(rows, 4096)]):
        chunks.append(chunk)
    return "".join(chunks)


def max_degree(h: Hypergraph) -> int:
    """Largest number of edges meeting any one vertex; 0 for an edgeless
    instance. Builds neither the degrees tuple nor the CSR."""
    return max(h._degree_counts(), default=0)


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
