"""k-uniform hypergraphs: the data model, its row checks and its text form.

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
names the first fault. An edge is checked alone by _canonical_edge, whether
the edge-by-edge loop or the instance reader's per-line check
(readers._edge_lines) reads it, so both name a fault alike. Columns that skip
the check (``Hypergraph._of_columns``) are vouched for by their maker: the
block reader's check (readers.parse_hypergraph), the pickled instance, or the
generator (generate.generate_random_bounded_degree), whose draws are sorted,
in range and distinct by construction.
"""

from __future__ import annotations

import sys
from array import array
from collections import deque
from functools import cached_property
from itertools import accumulate, chain, compress, islice
from operator import itemgetter, lt, sub
from typing import Callable, Iterable, Sequence


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
