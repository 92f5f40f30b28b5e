"""Instance type, file format, builtin families, the random generator, and
fuzzing of both file parsers."""

import gc
import hashlib
import pickle
import random
import re
import sys
import time
import tracemalloc
from itertools import accumulate, chain, combinations
from math import comb
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from harmcolor import (
    Coloring,
    FormatError,
    GenerationFailure,
    GeneratorConfig,
    Hypergraph,
    InfeasibleConfigError,
    builtin_instance,
    generate_random_bounded_degree,
    max_degree,
    parse_coloring,
    parse_hypergraph,
    serialize_coloring,
    serialize_hypergraph,
)
from harmcolor import generate, hypergraph, readers
from harmcolor.generate import LIVE_BLOCK, _LiveVertices, _sample_ranks
from harmcolor.readers import _find_header, _line_blocks
from oracles import naive_generate, naive_incidence

BENCH = Path(__file__).resolve().parents[1] / "bench"


# ----------------------------------------------------------- construction

def test_validation_rejects_bad_shapes():
    with pytest.raises(ValueError):
        Hypergraph(1, 3, [])
    with pytest.raises(ValueError):
        Hypergraph(2, -1, [])
    with pytest.raises(ValueError):
        Hypergraph(2, 3, [(0, 1, 2)])  # wrong arity
    with pytest.raises(ValueError):
        Hypergraph(2, 3, [(0, 0)])  # repeated vertex
    with pytest.raises(ValueError):
        Hypergraph(2, 3, [(0, 3)])  # out of range
    with pytest.raises(ValueError):
        Hypergraph(2, 3, [(0, 1), (1, 0)])  # duplicate up to order
    for edge in [(0, "a"), (0, 1.5), (0, True)]:  # a vertex that is not an int
        with pytest.raises(TypeError, match=re.escape(f"in edge {edge}")):
            Hypergraph(2, 3, [edge])
        with pytest.raises(TypeError, match=re.escape(f"in edge {edge}")):
            Hypergraph(2, 3, iter([edge]))  # the same, given as a stream


def test_edges_are_normalized_sorted_tuples():
    h = Hypergraph(3, 5, [[4, 0, 2]])
    assert h.edges == ((0, 2, 4),)
    assert h.m == 1
    assert h.degrees == (1, 0, 1, 0, 1)
    assert h.incidence == ((0,), (), (0,), (), (0,))
    assert h.support == (0, 2, 4)


@pytest.mark.parametrize("incidence_first", [False, True])
def test_degrees_are_counted_on_first_use_either_way(incidence_first):
    h = builtin_instance("k-star", 4, k=3)
    assert "degrees" not in vars(h) and "incidence" not in vars(h)
    if incidence_first:
        h.incidence
    assert h.degrees == (4, 1, 1, 1, 1, 1, 1, 1, 1) == tuple(map(len, h.incidence))
    assert h.support == tuple(range(9))


def test_max_degree():
    assert max_degree(Hypergraph(2, 3, [])) == 0
    assert max_degree(builtin_instance("path", 4)) == 2
    assert max_degree(builtin_instance("k-star", 5, k=3)) == 5


# ------------------------------------------------------------ stored form

@st.composite
def edge_lists(draw):
    """(k, n, edges): distinct sorted k-tuples on 0..n-1 in any order, k up
    to 5, past the row accessor's unrolled forms."""
    k = draw(st.integers(2, 5))
    n = draw(st.integers(k, 9))
    pool = list(combinations(range(n), k))
    m = draw(st.integers(0, min(len(pool), 10)))
    return k, n, draw(st.permutations(pool))[:m]


@given(edge_lists())
@example((3, 5, []))
@settings(max_examples=100)
def test_every_way_of_giving_the_edges_builds_the_same_instance(case):
    k, n, edges = case
    text = "".join([f"p hg {k} {n} {len(edges)}\n"] + [f"e {' '.join(map(str, e))}\n"
                                                      for e in edges])
    built = [parse_hypergraph(text), Hypergraph(k, n, edges), Hypergraph(k, n, tuple(edges)),
             Hypergraph(k, n, iter(edges)), Hypergraph(k, n, [e[::-1] for e in edges])]
    built.append(pickle.loads(pickle.dumps(built[0])))
    incidence = naive_incidence(k, n, edges)
    for h in built:
        assert h == built[0]
        assert h.edges == tuple(edges)
        assert tuple(map(h._row, range(h.m))) == tuple(edges)
        assert max_degree(h) == max(map(len, incidence), default=0)  # counted on the columns
        assert [list(h._incident(v)) for v in range(n)] == incidence
        offsets, ids = h._csr
        assert (len(offsets), len(ids)) == (n + 1, k * len(edges))
        assert max_degree(h) == max(map(len, incidence), default=0)  # read from the offsets
        assert h.incidence == tuple(map(tuple, incidence))
        assert h.degrees == tuple(map(len, incidence))
        assert h.support == tuple(v for v in range(n) if incidence[v])
        assert serialize_hypergraph(h) == text


def test_the_csr_is_typed_for_its_values():
    h = builtin_instance("k-star", 4, k=3)
    assert [a.typecode for a in h._csr] == ["i", "i"]
    assert [a.typecode for a in hypergraph._typed(2 ** 31 + 1, [[2 ** 31], ()])] == ["q", "q"]


def test_the_tuple_view_shares_one_int_per_edge():
    # as the lists it replaced did: boxing each of the k ids apart retained
    # about 68 B more per edge at k = 3
    h = Hypergraph(2, 601, [(v, v + 1) for v in range(600)])
    assert h.incidence[300] == (299, 300)
    assert all(h.incidence[v][1] is h.incidence[v + 1][0] for v in range(300, 600))


def test_a_parsed_instance_builds_its_rows_only_when_asked():
    h = parse_hypergraph("p hg 3 6 2\ne 0 1 2\ne 5 3 4\n")
    assert {col.typecode for col in h._cols} == {"i"}
    h.incidence, h.degrees, h.support, h._row(1), serialize_hypergraph(h)
    assert "edges" not in vars(h)
    assert h.edges == ((0, 1, 2), (3, 4, 5))
    # the columns are the only stored form, however the instance was built
    for h in (Hypergraph(3, 6, [(0, 1, 2)]), Hypergraph(3, 6, [[0, 1, 2]]),
              generate_random_bounded_degree(GeneratorConfig(k=3, n=6, m=2, max_degree=1)),
              parse_hypergraph("p hg 3 6 1\ne 0 1 2\n")):
        assert "edges" not in vars(h)


def test_a_parsed_instance_retains_at_most_32_bytes_per_edge(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from instances import bounded_degree_edges, instance_text
    m = 2 * 10 ** 4
    text = instance_text(3, m, bounded_degree_edges(1, 3, m, m, 3))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        h = parse_hypergraph(text)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert h.m == m and retained <= 32 * m


def test_the_csr_retains_at_most_24_bytes_per_edge(monkeypatch):
    # the incidence as tuples of boxed ids retained about 100 B per edge here
    monkeypatch.syspath_prepend(str(BENCH))
    from instances import bounded_degree_edges
    m = 2 * 10 ** 4
    h = Hypergraph(3, m, bounded_degree_edges(1, 3, m, m, 3))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        h._csr
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(h._csr[1]) == 3 * m and retained <= 24 * m


def test_tuples_out_of_vertex_order_are_sorted_and_checked_at_once(monkeypatch):
    # as lists and a mix of both are: only a fault sends rows to the
    # edge-by-edge loop
    edges = [(0, 1, 2), (0, 2, 4), (1, 3, 4), (2, 3, 5)]
    expected = Hypergraph(3, 6, edges)

    def no_loop(*args):
        raise AssertionError("the edge-by-edge loop ran")

    monkeypatch.setattr(hypergraph, "_canonical_rows", no_loop)
    for given_edges in ([e[::-1] for e in edges], tuple(e[::-1] for e in edges),
                        [edges[0], (4, 2, 0)] + edges[2:], [list(e[::-1]) for e in edges],
                        tuple(list(e) for e in edges),
                        [edges[0], [4, 2, 0], (3, 4, 1), [2, 3, 5]]):
        h = Hypergraph(3, 6, given_edges)
        assert h == expected and h.edges == tuple(edges)
    # a parsed block takes the same rule
    assert parse_hypergraph("p hg 3 6 4\ne 2 1 0\ne 4 2 0\ne 1 3 4\ne 5 2 3\n") == expected
    for faulty in ([(2, 1, 0), (0, 2, 1)], [[2, 1, 0], [0, 2, 1]], [(2, 1, 0), [0, 2, 1]]):
        with pytest.raises(AssertionError, match="edge-by-edge loop"):
            Hypergraph(3, 6, faulty)  # a duplicate still goes to the loop


@pytest.mark.parametrize("edges, outcome", [
    ([{2, 0, 1}], ((0, 1, 2),)),
    # read by position, this row would be the edge (3, 4, 5)
    ([{0: 3, 1: 4, 2: 5}], ((0, 1, 2),)),
    ([range(3), (1, 2, 3)], ((0, 1, 2), (1, 2, 3))),
    (["012"], (TypeError, "non-integer vertex id in edge ('0', '1', '2')")),
    ([{0, 1, 2}, {2, 1, 0}], (ValueError, "duplicate edge (0, 1, 2)")),
    ([(0, 1, 2), {0: 3, 1: 4, 2: 5}], (ValueError, "duplicate edge (0, 1, 2)")),
    ([frozenset({0, 1}), (1, 2, 3)], (ValueError, "edge has 2 vertices, expected 3")),
    ([{0, 1, 9}], (ValueError, "vertex id outside 0..5 in edge (0, 1, 9)")),
])
def test_rows_that_are_not_lists_or_tuples_are_checked_edge_by_edge(edges, outcome):
    if isinstance(outcome[0], tuple):
        assert Hypergraph(3, 6, edges).edges == outcome
    else:
        with pytest.raises(outcome[0], match=re.escape(outcome[1])):
            Hypergraph(3, 6, edges)


def count_calls(monkeypatch, module, name, calls):
    """Patch module.name to append its name to the list ``calls`` on each call."""
    original = getattr(module, name)

    def counted(*args):
        calls.append(name)
        return original(*args)

    monkeypatch.setattr(module, name, counted)


def test_rows_of_equal_hash_are_cleared_by_the_edge_by_edge_loop(monkeypatch):
    # the check counts distinct row hashes; with every hash equal, a file of
    # more than one edge goes to the per-line check, which compares rows
    # and still parses, and rows given to the constructor go to its loop
    # and build
    text = serialize_hypergraph(builtin_instance("k-star", 5, k=3))
    expected = parse_hypergraph(text)
    loops = []
    count_calls(monkeypatch, readers, "_edge_lines", loops)
    count_calls(monkeypatch, hypergraph, "_canonical_rows", loops)
    for module in (hypergraph, readers):
        monkeypatch.setattr(module, "hash", lambda row: 0, raising=False)
    assert parse_hypergraph(text) == expected and loops == ["_edge_lines"]
    assert Hypergraph(3, expected.n, list(expected.edges)) == expected
    assert loops == ["_edge_lines", "_canonical_rows"]
    with pytest.raises(FormatError, match=r"duplicate edge \(0, 1, 2\)") as err:
        parse_hypergraph(text.rsplit("e", 1)[0] + "e 0 2 1\n")
    assert err.value.line == 6


def test_ids_beyond_two_to_the_31_are_held_in_wide_columns():
    n = 2 ** 31 + 10
    text = f"p hg 3 {n} 2\ne 0 {2 ** 31} {n - 1}\ne 1 2 {2 ** 31 + 3}\n"
    h = parse_hypergraph(text)
    assert {col.typecode for col in h._cols} == {"q"}
    assert h.edges == ((0, 2 ** 31, n - 1), (1, 2, 2 ** 31 + 3))
    assert serialize_hypergraph(h) == text
    assert Hypergraph(3, n, h.edges) == h == parse_hypergraph(serialize_hypergraph(h))
    # up to n = 2**31 every id fits the narrow column, and one more is out of range
    assert parse_hypergraph(f"p hg 2 {2 ** 31} 1\ne 0 {2 ** 31 - 1}\n")._cols[1][0] == 2 ** 31 - 1
    with pytest.raises(FormatError, match="vertex id outside") as err:
        parse_hypergraph(f"p hg 2 {2 ** 31} 1\ne 0 {2 ** 31}\n")
    assert err.value.line == 2
    with pytest.raises(ValueError, match="vertex id outside"):
        Hypergraph(2, 2 ** 31, [(0, 2 ** 31)])


def test_equality_tracks_edge_enumeration_order():
    # edge indices are semantic (events name edges by index), so two
    # presentations of the same edge set compare unequal
    a = Hypergraph(2, 3, [(0, 1), (1, 2)])
    b = Hypergraph(2, 3, [(2, 1), (0, 1)])
    assert a != b
    assert set(a.edges) == set(b.edges)
    assert a == Hypergraph(2, 3, [(1, 0), (2, 1)])
    assert a != (a.k, a.n, a.edges)  # not a Hypergraph, whatever its fields


# ---------------------------------------------------------------- builtins

def test_builtin_families():
    assert builtin_instance("path", 5).edges == ((0, 1), (1, 2), (2, 3), (3, 4))
    assert builtin_instance("cycle", 4).edges == ((0, 1), (1, 2), (2, 3), (0, 3))
    assert builtin_instance("complete-graph", 4).m == 6
    assert builtin_instance("matching", 2, k=3).edges == ((0, 1, 2), (3, 4, 5))
    star = builtin_instance("k-star", 3, k=3)
    assert star.n == 7 and all(0 in e for e in star.edges)


def test_builtin_rejects_nonsense():
    with pytest.raises(ValueError):
        builtin_instance("path", 3, k=3)  # graph family with k != 2
    with pytest.raises(ValueError):
        builtin_instance("wheel", 3)
    with pytest.raises(ValueError):
        builtin_instance("cycle", 2)
    for family in ("matching", "k-star"):
        with pytest.raises(ValueError):
            builtin_instance(family, 3, k=1)
    for family, size in [("path", 1), ("complete-graph", 1), ("matching", 0), ("k-star", 0)]:
        with pytest.raises(ValueError, match="needs at least"):
            builtin_instance(family, size)


# ------------------------------------------------------------ file format

GOOD = "p hg 2 4 3\ne 0 1\ne 1 2\ne 2 3\n"


def test_parse_basic():
    h = parse_hypergraph(GOOD)
    assert h == builtin_instance("path", 4)


def test_parse_tolerates_comments_blank_lines_and_crlf():
    text = "# a comment\r\np hg 2 3 1\r\n\r\n# another\r\ne 0 2\r\n"
    assert parse_hypergraph(text).edges == ((0, 2),)


@pytest.mark.parametrize("text, line, needle", [
    ("p hg 2 3\ne 0 1\n", 1, "header"),
    ("e 0 1\n", 1, "header"),
    ("p hg 1 3 0\n", 1, "out of range"),
    ("p hg 2 3 1\ne 0 1 2\n", 2, "3 vertices"),
    ("p hg 2 3 1\ne 0 0\n", 2, "repeated vertex"),
    ("p hg 2 3 1\ne 0 5\n", 2, "outside"),
    ("p hg 2 3 1\ne 0 x\n", 2, "non-integer"),
    ("p hg 2 3 2\ne 0 1\ne 0 1\n", 3, "duplicate edge"),
    ("p hg 2 3 1\ne 0 1\ne 1 2\n", 3, "more than the declared"),
    # a vertex count no list can hold is a header fault, named on the header's line
    (f"# a comment\np hg 2 {sys.maxsize + 1} 1\ne 0 1\n", 2, "vertex count must be at most"),
])
def test_parse_errors_carry_line_numbers(text, line, needle):
    with pytest.raises(FormatError) as err:
        parse_hypergraph(text)
    assert err.value.line == line
    assert needle in str(err.value)


def test_parse_missing_edges_reported_without_line():
    with pytest.raises(FormatError, match="declared 2 edges but found 1"):
        parse_hypergraph("p hg 2 3 2\ne 0 1\n")


@pytest.mark.parametrize("parse", [parse_hypergraph, parse_coloring])
def test_text_without_a_header_line(parse):
    for text in ("", "\n  \r\n", "# only a comment\n"):
        with pytest.raises(FormatError, match="^no header line found$"):
            parse(text)


def test_serialize_round_trip_fixed():
    h = builtin_instance("k-star", 3, k=3)
    assert parse_hypergraph(serialize_hypergraph(h)) == h
    assert serialize_hypergraph(h).startswith("p hg 3 7 3\n")
    for q in (4095, 4096, 4097, 8193):  # about the serializer's chunks of 4,096 edge lines
        text = serialize_hypergraph(builtin_instance("matching", q, k=2))
        assert text == "".join([f"p hg 2 {2 * q} {q}\n"] + [f"e {2 * j} {2 * j + 1}\n"
                                                             for j in range(q)])


@st.composite
def hypergraphs(draw):
    k = draw(st.integers(2, 4))
    n = draw(st.integers(k, 10))
    from itertools import combinations
    pool = list(combinations(range(n), k))
    m = draw(st.integers(0, min(len(pool), 8)))
    edges = draw(st.permutations(pool)) [:m]
    return Hypergraph(k, n, edges)


@given(hypergraphs())
@settings(max_examples=60)
def test_serialize_parse_round_trip(h):
    assert parse_hypergraph(serialize_hypergraph(h)) == h


# ------------------------------------------------- one validator, two faces

@st.composite
def raw_edge_files(draw):
    """(k, n, edges, text, edge_lines): raw edge lists, some of wrong arity,
    with repeated or out-of-range vertices, or repeating an earlier edge in
    another order; text declares them all, between comments and blank lines
    under mixed line endings, and edge_lines[j] is the line of edge j."""
    k = draw(st.integers(2, 4))
    n = draw(st.integers(0, 8))
    edges: list[list[int]] = []
    for _ in range(draw(st.integers(0, 8))):
        if edges and draw(st.integers(0, 4)) == 0:
            edges.append(draw(st.permutations(draw(st.sampled_from(edges)))))
        else:
            size = draw(st.sampled_from([k] * 6 + [k - 1, k + 1]))
            edges.append(draw(st.lists(st.integers(-1, n), min_size=size, max_size=size)))
    body = [f"p hg {k} {n} {len(edges)}"] + ["e " + " ".join(map(str, e)) for e in edges]
    lines: list[str] = []
    edge_lines: list[int] = []
    for pos, line in enumerate(body):
        lines += draw(st.lists(st.sampled_from(["", "  ", "# note", " \t# e 0 1"]), max_size=2))
        lines.append(line)
        if pos:
            edge_lines.append(len(lines))
    text = "".join(line + draw(st.sampled_from(["\n", "\r\n"])) for line in lines)
    return k, n, edges, text, edge_lines


def construction_error(k, n, edges):
    try:
        Hypergraph(k, n, edges)
    except ValueError as exc:
        return str(exc)
    return None


def construction_outcome(k, n, edges):
    """The Hypergraph on edges, or the type and message of its exception."""
    try:
        return Hypergraph(k, n, edges)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


@given(raw_edge_files())
@settings(max_examples=300)
def test_the_parser_reports_the_constructors_verdict_on_the_offending_line(case):
    k, n, edges, text, edge_lines = case
    # the bulk check of a list or tuple and the edge-by-edge check of a stream agree
    outcome = construction_outcome(k, n, edges)
    for given_so in (tuple(edges), iter(edges), list(map(tuple, edges))):
        assert construction_outcome(k, n, given_so) == outcome
    message = construction_error(k, n, edges)
    if message is None:
        assert parse_hypergraph(text) == Hypergraph(k, n, edges)
        return
    first_bad = next(j for j in range(len(edges))
                     if construction_error(k, n, edges[:j + 1]) is not None)
    with pytest.raises(FormatError) as err:
        parse_hypergraph(text)
    assert err.value.line == edge_lines[first_bad]
    assert str(err.value) == f"line {edge_lines[first_bad]}: {message}"


# ------------------------------------------- block reader against line reader

def read_outcome(parse, text):
    """What parse makes of text: its result, or the FormatError's message and line."""
    try:
        return parse(text)
    except FormatError as exc:
        return str(exc), exc.line


def no_readers(monkeypatch, kind):
    """Patch the ``kind`` readers of both formats to fail: "lines", the
    per-line checks, or "blocks", the block reader _block_columns."""
    def reader(*args):
        raise AssertionError(f"a {kind} reader ran")

    for name in {"lines": ["_edge_lines", "_color_lines"], "blocks": ["_block_columns"]}[kind]:
        monkeypatch.setattr(readers, name, reader)


def refuse_block(*args):
    raise ValueError("a block read line by line")


def by_readers(parse, kind):
    """parse reading every block by its block reader alone, its per-line
    check patched to fail (kind "blocks"), or by its per-line check alone,
    _block_columns patched to raise (kind "lines")."""
    def read(text):
        with pytest.MonkeyPatch.context() as patch:
            if kind == "blocks":
                no_readers(patch, "lines")
            else:
                patch.setattr(sys.modules[parse.__module__], "_block_columns", refuse_block)
            return parse(text)

    return read


hypergraph_by_blocks = by_readers(parse_hypergraph, "blocks")
hypergraph_by_lines = by_readers(parse_hypergraph, "lines")
coloring_by_blocks = by_readers(parse_coloring, "blocks")
coloring_by_lines = by_readers(parse_coloring, "lines")


@st.composite
def raw_coloring_files(draw):
    """Coloring texts whose ``v`` lines may name a vertex or color out of
    range, color a vertex twice, hold a non-integer, carry the wrong tag or
    be short, between comments and blank lines under mixed line endings."""
    t = draw(st.integers(1, 4))
    n = draw(st.integers(0, 6))
    body = [f"c {t} {n}"]
    for _ in range(draw(st.integers(0, 8))):
        vertex, color = draw(st.integers(-1, n)), draw(st.integers(0, t + 1))
        body.append(draw(st.sampled_from([
            f"v {vertex} {color}", f"v {vertex} {color}", f"v {vertex} {color}",
            f"v {vertex} x", f"v {vertex}", f"e {vertex} {color}", f"v {vertex} {color} 1"])))
    lines: list[str] = []
    for line in body:
        lines += draw(st.lists(st.sampled_from(["", "  ", "# note", " \t# v 0 1"]), max_size=2))
        lines.append(line)
    return "".join(line + draw(st.sampled_from(["\n", "\r\n"])) for line in lines)


@given(raw_coloring_files())
@settings(max_examples=300)
def test_the_coloring_parser_gives_the_line_readers_verdict(text):
    assert read_outcome(parse_coloring, text) == read_outcome(coloring_by_lines, text)


def instance_lines(m: int) -> list[str]:
    """A path on m + 1 vertices as instance lines, with comment and blank
    lines so that the blocks hold more than edge lines."""
    lines = [f"p hg 2 {m + 1} {m}"] + [f"e {v} {v + 1}" for v in range(m)]
    lines[500:500] = ["# a comment", ""]
    return lines


def coloring_lines(n: int) -> list[str]:
    lines = [f"c 3 {n}"] + [f"v {v} {1 + v % 3}" for v in range(n)]
    lines[500:500] = ["# a comment", ""]
    return lines


def body_block_ends(text):
    """The line numbers of the last lines of the blocks after text's header."""
    lineno, _, _, pos = _find_header(text)
    return list(accumulate((len(block.split("\n")) for block in _line_blocks(text, pos)),
                           initial=lineno))[1:]


def end_a_block_on(monkeypatch, text, line):
    """Set BLOCK_CHARS so that the first block after text's header, on
    line 1, ends on line ``line``, and return the blocks' last lines."""
    lfs = [match.start() for match in re.finditer("\n", text)]
    monkeypatch.setattr(readers, "BLOCK_CHARS", lfs[line - 1] - lfs[0] - 1)
    return body_block_ends(text)


@pytest.mark.parametrize("blocks", [1, 2, 4])
@pytest.mark.parametrize("shift", [-1, 0, 1])
def test_the_block_readers_read_every_block(monkeypatch, blocks, shift):
    # each body line padded to w characters with its LF, so that a block of
    # 700w - 1 characters holds 700 lines and the last block searches for its
    # cut from the body's last LF on; the last line, ``shift`` characters
    # longer, puts that LF one character past the search start or one before
    # it, where the text ends first. The block readers themselves must take
    # these texts, without the line readers.
    m = 700 * blocks - 2  # the body holds a comment and a blank line besides
    coloring = (Coloring(3, [1 + v % 3 for v in range(m)]), m)
    for lines, by_blocks, expected in [
            (instance_lines(m), hypergraph_by_blocks, builtin_instance("path", m + 1)),
            (coloring_lines(m), coloring_by_blocks, coloring)]:
        header, *body = lines
        w = max(map(len, body)) + 2
        text = "\n".join([header] + [line.ljust(w - 1) for line in body[:-1]]
                         + [body[-1].ljust(w - 1 + shift)]) + "\n"
        monkeypatch.setattr(readers, "BLOCK_CHARS", 700 * w - 1)
        # without a cut, the last block ends with the empty line after the last LF
        assert body_block_ends(text) == ([1 + 700 * j for j in range(1, blocks)]
                                         + [1 + 700 * blocks + (shift < 0)])
        assert by_blocks(text) == expected


# 1,100 comment and blank lines put the header past the first block of 1,024 characters
PREAMBLE = ["# a comment", ""] * 550


def test_a_long_preamble_is_read_by_the_block_readers(monkeypatch):
    no_readers(monkeypatch, "lines")
    monkeypatch.setattr(readers, "BLOCK_CHARS", 1024)
    coloring = (Coloring(3, [1 + v % 3 for v in range(3000)]), 3000)
    for lines, parse, expected in [
            (instance_lines(3000), parse_hypergraph, builtin_instance("path", 3001)),
            (coloring_lines(3000), parse_coloring, coloring)]:
        text = "\n".join(PREAMBLE + lines) + "\n"
        assert lines[0] not in next(_line_blocks(text)).split("\n")
        assert parse(text) == expected
        # 2,200 comment and blank lines mid-body fill at least one block
        lines[1500:1500] = PREAMBLE * 2
        text = "\n".join(lines) + "\n"
        assert any(set(block.split("\n")) <= set(PREAMBLE) for block in _line_blocks(text))
        assert parse(text) == expected


HUGE = sys.maxsize + 1
TOO_MANY = f"vertex count must be at most {sys.maxsize}, got {HUGE}$"


@pytest.mark.parametrize("parse, header", [(parse_hypergraph, "p hg 2 x 5"),
                                           (parse_hypergraph, f"p hg 2 {HUGE} 1"),
                                           (parse_coloring, "c 3 x"),
                                           (parse_coloring, f"c 3 {HUGE}")])
def test_a_header_is_read_once_and_its_fault_raised_at_once(monkeypatch, parse, header):
    # neither a missing nor a bad header reaches a body reader
    no_readers(monkeypatch, "lines")
    no_readers(monkeypatch, "blocks")
    with pytest.raises(FormatError, match="^no header line found$"):
        parse("\n".join(PREAMBLE))
    needle = TOO_MANY if str(HUGE) in header else "non-integer field in header"
    with pytest.raises(FormatError, match=needle) as err:
        parse("\n".join(PREAMBLE + [header, "e 0 1"]))
    assert err.value.line == len(PREAMBLE) + 1


def last_lines_holding(text, line):
    """The last lines of the blocks of text that hold ``line`` as a line."""
    blocks = [block.split("\n") for block in _line_blocks(text)]
    return [block[-1] for block in blocks if line in block]


def test_a_long_line_ends_its_block(monkeypatch):
    # 97 chars an edge line and up to 87 a coloring line; a comment line
    # longer than a block is the last line of the block it starts in
    monkeypatch.setattr(readers, "BLOCK_CHARS", 4096)
    long_line = "# " + "x" * 70_000
    m = 1500
    h = Hypergraph(12, 10 ** 6 + 12 * m,
                   [tuple(range(10 ** 6 + 12 * j, 10 ** 6 + 12 * (j + 1))) for j in range(m)])
    lines = serialize_hypergraph(h).split("\n")
    lines.insert(500, long_line)
    text = "\n".join(lines)
    assert last_lines_holding(text, long_line) == [long_line]
    assert hypergraph_by_blocks(text) == hypergraph_by_lines(text) == h
    c = Coloring(10 ** 80, [10 ** 79 + v for v in range(m)])
    lines = serialize_coloring(c, m).split("\n")
    lines.insert(500, long_line)
    text = "\n".join(lines)
    assert last_lines_holding(text, long_line) == [long_line]
    assert coloring_by_blocks(text) == coloring_by_lines(text) == (c, m)


@given(st.lists(st.one_of(st.sampled_from(["", "\r", "e 0 1\r", "# note"]),
                          st.text("x \r", max_size=80))),
       st.booleans(), st.integers(1, 64), st.data())
@settings(max_examples=300)
def test_a_block_ends_at_the_first_lf_past_block_chars(lines, final_lf, size, data):
    text = "\n".join(lines) + "\n" * final_lf
    pos = data.draw(st.integers(0, len(text)))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(readers, "BLOCK_CHARS", size)
        blocks = [block.split("\n") for block in _line_blocks(text, pos)]
    # a final LF may end the last block, with no empty line after it
    joined = "\n".join(chain.from_iterable(blocks))
    assert text[pos:] in (joined, joined + "\n")
    # the lines before a block's last take at most size characters with
    # their LFs, and a block but the last reaches past size with its own LF
    assert all(sum(len(line) + 1 for line in block[:-1]) <= size for block in blocks)
    assert all(sum(len(line) + 1 for line in block) > size for block in blocks[:-1])


def assert_a_block_ends_on_1024(ends):
    """Lines 1024, 1025 and 2049 are the last line of a block, the first
    line of the next, and a line of a later block."""
    assert 1024 in ends and ends[ends.index(1024) + 1] < 2049


@pytest.mark.parametrize("line", [1024, 1025, 2049])
@pytest.mark.parametrize("fault, needle", [
    ("e 0 99999", "vertex id outside"),
    ("e 7 7", "repeated vertex"),
    ("e 0 1 2", "3 vertices"),
    ("e 0 x", "non-integer vertex id"),
    ("v 0 1", "expected edge line"),
    ("e 10 11", "duplicate edge"),
])
def test_a_fault_at_a_block_edge_is_named_on_its_line(monkeypatch, line, fault, needle):
    lines = instance_lines(3000)
    lines[line - 1] = fault
    text = "\r\n".join(lines)
    assert_a_block_ends_on_1024(end_a_block_on(monkeypatch, text, 1024))
    assert read_outcome(parse_hypergraph, text) == read_outcome(hypergraph_by_lines, text)
    with pytest.raises(FormatError, match=needle) as err:
        parse_hypergraph(text)
    assert err.value.line == line


@pytest.mark.parametrize("line", [1024, 1025, 2049])
@pytest.mark.parametrize("fault, needle", [
    ("v 5000 1", "vertex 5000 outside"),
    ("v 0 4", "color 4 outside"),
    ("v 5 1", "vertex 5 colored twice"),
    ("v 0 x", "non-integer field"),
    ("e 0 1", "expected 'v <vertex> <color>'"),
    ("v 0", "expected 'v <vertex> <color>'"),
])
def test_a_coloring_fault_at_a_block_edge_is_named_on_its_line(monkeypatch, line, fault, needle):
    lines = coloring_lines(3000)
    del lines[line - 1]  # the vertex of the removed line is left uncolored
    lines.insert(line - 1, fault)
    text = "\n".join(lines)
    assert_a_block_ends_on_1024(end_a_block_on(monkeypatch, text, 1024))
    assert read_outcome(parse_coloring, text) == read_outcome(coloring_by_lines, text)
    with pytest.raises(FormatError, match=needle) as err:
        parse_coloring(text)
    assert err.value.line == line


@pytest.mark.parametrize("parse, reader, lines, fault, needle", [
    (parse_hypergraph, "_edge_lines", instance_lines, "e 0 x", "non-integer vertex id"),
    (parse_coloring, "_color_lines", coloring_lines, "v 0 x", "non-integer field"),
])
def test_the_line_reader_runs_after_the_block_readers_fault_is_handled(
        monkeypatch, parse, reader, lines, fault, needle):
    # inside the except clause, the traceback would keep the faulty block's tokens alive
    module = sys.modules[parse.__module__]
    original = getattr(module, reader)

    def line_reader(*args):
        assert sys.exc_info()[0] is None
        return original(*args)

    monkeypatch.setattr(module, reader, line_reader)
    text = lines(3000)
    text[2048] = fault
    with pytest.raises(FormatError, match=needle) as err:
        parse("\n".join(text))
    assert err.value.line == 2049


def two_blocks_apart(text, first, second):
    """Whether at least two blocks after text's header end from line first
    up to the line before second."""
    return sum(first <= end < second for end in body_block_ends(text)) >= 2


def test_a_repeat_two_blocks_after_its_first_copy_is_named_on_its_line(monkeypatch):
    monkeypatch.setattr(readers, "BLOCK_CHARS", 8192)  # about 750 lines a block
    lines = instance_lines(3000)
    lines[2010] = lines[10]  # the edge of line 11 again, about 2000 lines later
    assert two_blocks_apart("\n".join(lines), 11, 2011)
    with pytest.raises(FormatError, match=r"duplicate edge \(9, 10\)") as err:
        parse_hypergraph("\n".join(lines))
    assert err.value.line == 2011
    lines = coloring_lines(3000)
    lines[2010] = lines[10]  # vertex 9 colored again
    assert two_blocks_apart("\n".join(lines), 11, 2011)
    with pytest.raises(FormatError, match="vertex 9 colored twice") as err:
        parse_coloring("\n".join(lines))
    assert err.value.line == 2011


def peak_of(parse, text):
    """The tracemalloc peak of parse(text), with the cyclic collector off."""
    gc.disable()
    tracemalloc.start()
    try:
        parse_or_format_error(parse, text)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        gc.enable()


def best_time_of(parse, text):
    """The least of three wall times of parse(text)."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        parse_or_format_error(parse, text)
        times.append(time.perf_counter() - start)
    return min(times)


@pytest.mark.parametrize("fault", ["late duplicate", "truncated", "one edge too many",
                                   "colored twice"])
def test_a_fault_costs_its_own_block(monkeypatch, fault):
    # the block reader reads each block once, only the faulty block is read
    # again line by line, and naming the fault takes about the memory and
    # time of a clean parse; the messages and lines are those of the
    # whole-text line reader this replaced. A row hash of the faulty block
    # left in the set would send each of its rows to a scan of the columns,
    # so the set is rebuilt where the block check entered the block's hashes,
    # and only there: a block the block reader refused entered none.
    monkeypatch.syspath_prepend(str(BENCH))
    from instances import bounded_degree_edges
    m = 2 * 10 ** 4
    if fault == "colored twice":
        parse, per_line = parse_coloring, (readers, "_color_lines")
        clean = serialize_coloring(Coloring(400, [1 + v % 400 for v in range(m)]), m)
        lines = clean.split("\n")
        lines[-2] = "v 0 7"  # vertex 0 again, vertex m - 1 left uncolored
        message = "vertex 0 colored twice"
    else:
        parse, per_line = parse_hypergraph, (readers, "_edge_lines")
        h = Hypergraph(3, m, bounded_degree_edges(1, 3, m, m, 3))
        clean = serialize_hypergraph(h)
        lines = clean.split("\n")
        if fault == "late duplicate":
            lines[-2] = lines[1]
            message = f"duplicate edge {h.edges[0]}"
        elif fault == "truncated":  # the last line cut before its last vertex
            lines[-2] = lines[-2].rsplit(" ", 1)[0]
            message = "edge has 2 vertices, expected 3"
        else:  # the header declares one edge fewer than the file holds
            lines[0] = f"p hg 3 {m} {m - 1}"
            message = f"more than the declared {m - 1} edges"
    text = "\n".join(lines)
    assert len(body_block_ends(text)) > 10
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        count_calls(patch, readers, "_block_columns", calls)
        count_calls(patch, *per_line, calls)
        count_calls(patch, readers, "_rehash", calls)
        with pytest.raises(FormatError) as err:
            parse(text)
    assert (str(err.value), err.value.line) == (f"line {m + 1}: {message}", m + 1)
    assert calls.count("_block_columns") == len(body_block_ends(text))
    assert calls.count(per_line[1]) == 1
    assert calls.count("_rehash") == (fault in ("late duplicate", "one edge too many"))
    assert peak_of(parse, text) <= 1.1 * peak_of(parse, clean)
    assert best_time_of(parse, text) <= 3 * best_time_of(parse, clean)


@pytest.mark.parametrize("brk", ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                                 "\u2028", "\u2029"])
def test_a_line_ends_at_lf_only(brk):
    # other line breaks are whitespace inside a line, here inside a comment
    assert parse_hypergraph(f"p hg 2 3 1\n# note{brk}e 0 1\ne 1 2\n").edges == ((1, 2),)
    assert parse_coloring(f"c 2 2\n# note{brk}v 0 1\nv 1 2\n") == (Coloring(2, [0, 2]), 2)


# the ASCII separators of str.split(); bytes.split() does not split at \x1c-\x1f
SEPARATORS = [" ", "  ", "\t", "\v", "\f", "\r", "\x1c", "\x1d", "\x1e", "\x1f"]


@st.composite
def hostile_body(draw, tag: str, rows: list[tuple[int, ...]]) -> list[str]:
    """The body lines of ``rows``, each ``tag`` and the row's ints, mostly
    canonical and otherwise mangled: other separators between, inside,
    before or after its tokens, ints spelled with a sign, leading zeros or
    an underscore, the tag glued to the first int or on a line of its own,
    one int too many or too few, the line split in two or joined to the
    line before, or a blank or comment line before it."""
    lines = []
    for row in rows:
        tokens = [tag] + [draw(st.sampled_from([str(v), str(v), f"+{v}", f"00{v}", f"0_{v}"]))
                          if v >= 0 else str(v) for v in row]
        kind = draw(st.sampled_from(["canonical"] * 8 + [
            "spaced", "inside", "glued", "lone", "extra", "short", "split", "joined", "blank",
            "comment"]))
        if kind == "spaced":
            around = [draw(st.sampled_from(["", *SEPARATORS])) for _ in range(2)]
            between = [draw(st.sampled_from(SEPARATORS)) for _ in tokens[1:]]
            tokens = [around[0] + tokens[0]] + list(map(str.__add__, between, tokens[1:]))
            tokens[-1] += around[1]
            lines.append("".join(tokens))
            continue
        if kind == "inside":
            at = draw(st.integers(1, len(tokens) - 1))
            cut = draw(st.integers(0, len(tokens[at])))
            tokens[at] = tokens[at][:cut] + draw(st.sampled_from(SEPARATORS)) + tokens[at][cut:]
        elif kind == "glued":
            tokens[:2] = [tokens[0] + tokens[1]]
        elif kind == "lone":
            lines.append(tag)
        elif kind == "extra":
            tokens.append(tokens[-1])
        elif kind == "short":
            tokens.pop()
        elif kind == "split":
            at = draw(st.integers(1, len(tokens) - 1))
            lines.append(" ".join(tokens[:at]))
            tokens = tokens[at:]
        elif kind == "joined" and lines:
            tokens = [lines.pop()] + tokens
        elif kind in ("blank", "comment"):
            lines.append(draw(st.sampled_from(["", " ", "\r"] if kind == "blank" else
                                              ["#", "# e 0 1", f"{tag}#"])))
        lines.append(" ".join(tokens))
    return lines


def hostile_text(draw, header: str, lines: list[str]) -> str:
    """header and lines as one text, its last line with or without an LF."""
    return "\n".join([header] + lines) + draw(st.sampled_from(["", "\n"]))


@st.composite
def hostile_instance_files(draw) -> str:
    k, n = draw(st.integers(2, 3)), draw(st.integers(3, 7))
    universe = n + draw(st.sampled_from([0, 0, 0, 1]))  # vertex n is out of range
    edges = draw(st.lists(st.sampled_from(list(combinations(range(universe), k))),
                          unique=True, max_size=40))
    rows = [draw(st.permutations(edge)) if draw(st.booleans()) else edge for edge in edges]
    m = max(0, len(edges) + draw(st.sampled_from([0, 0, 0, -1, 1])))
    return hostile_text(draw, f"p hg {k} {n} {m}", draw(hostile_body("e", rows)))


@st.composite
def hostile_coloring_files(draw) -> str:
    t, n = draw(st.integers(1, 4)), draw(st.integers(1, 40))
    vertices = draw(st.lists(st.integers(0, n - 1 + draw(st.sampled_from([0, 0, 1]))),
                             unique=True, max_size=40))
    rows = [(v, draw(st.integers(1, t + draw(st.sampled_from([0, 0, 1]))))) for v in vertices]
    return hostile_text(draw, f"c {t} {n}", draw(hostile_body("v", rows)))


@pytest.mark.parametrize("parse, by_lines, files", [
    (parse_hypergraph, hypergraph_by_lines, hostile_instance_files()),
    (parse_coloring, coloring_by_lines, hostile_coloring_files()),
], ids=["instance", "coloring"])
@given(data=st.data())
@settings(max_examples=400)
def test_the_byte_path_gives_the_line_readers_verdict(parse, by_lines, files, data):
    # blocks of a few lines each: a text spans many blocks, canonical and not
    text = data.draw(files)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(readers, "BLOCK_CHARS", data.draw(st.integers(1, 48)))
        assert read_outcome(parse, text) == read_outcome(by_lines, text)


@pytest.mark.parametrize("body", [
    "e 0 1 e 1 2\n\ne 2 3",  # a line of two rows, then a blank line: as many tokens as 3 rows
    "e 0 1 e 1 2\ne\n2 3",  # ... then a row split after its tag
    "e 0 1 e 1 2\n2 3 e\n",  # ... then a row with its tag last
    "\ne 0 1 e 1 2\ne 2 3",  # a blank line, then a line of two rows
    " e 0 1\ne\t1 2\ne 2 3\x1f",  # leading space, tab, \x1f: valid, and not canonical
    "e 0 1\ne 1 2\x1c3\ne 2 3",  # \x1c splits a token for str.split() only
])
def test_a_block_with_as_many_tokens_as_rows_is_read_by_lines(body):
    # every block here holds as many tokens as three rows and starts with a tag
    for text, parse, by_lines in [(f"p hg 2 4 3\n{body}", parse_hypergraph, hypergraph_by_lines),
                                  (f"c 4 4\n{body.replace('e', 'v')}", parse_coloring,
                                   coloring_by_lines)]:
        assert read_outcome(parse, text) == read_outcome(by_lines, text)


def test_a_canonical_file_never_reaches_the_per_line_path(monkeypatch):
    no_readers(monkeypatch, "lines")

    def line_columns(*args):
        raise AssertionError("the per-line path ran")

    monkeypatch.setattr(readers, "_line_columns", line_columns)
    h = generate_random_bounded_degree(GeneratorConfig(k=3, n=3000, m=3000, max_degree=3, seed=4))
    c = Coloring(400, [1 + v % 400 for v in range(3000)])
    for size in (readers.BLOCK_CHARS, 64):
        monkeypatch.setattr(readers, "BLOCK_CHARS", size)
        for text, parse, expected in [(serialize_hypergraph(h), parse_hypergraph, h),
                                      (serialize_coloring(c, 3000), parse_coloring, (c, 3000))]:
            for variant in (text, text.rstrip("\n"), text.replace("\n", "\r\n")):
                assert parse(variant) == expected


# ---------------------------------------------------------- parser fuzzing

MAX_FUZZ_N = 10 ** 4


def declares_at_most(text: str, field: int, limit: int) -> bool:
    """False when the first content line has an integer token at position
    ``field`` above ``limit``: a header declaring that many vertices would
    allocate that much."""
    for line in text.splitlines():
        tokens = line.split()
        if tokens and not tokens[0].startswith("#"):
            try:
                return int(tokens[field]) <= limit
            except (IndexError, ValueError):
                return True
    return True


@st.composite
def one_token_mutations(draw, text: str):
    """text with one whitespace-separated token replaced by arbitrary text or
    a small integer, or deleted."""
    parts = re.split(r"(\s+)", text)
    at = draw(st.sampled_from([i for i in range(0, len(parts), 2) if parts[i]]))
    parts[at] = draw(st.one_of(st.text(max_size=6), st.integers(-3, MAX_FUZZ_N).map(str)))
    return "".join(parts)


def parse_or_format_error(parse, text):
    try:
        parse(text)
    except FormatError:
        pass


@given(st.text())
@settings(max_examples=300)
def test_arbitrary_text_gives_an_instance_or_a_format_error(text):
    assume(declares_at_most(text, 3, MAX_FUZZ_N))
    parse_or_format_error(parse_hypergraph, text)


@given(hypergraphs().map(serialize_hypergraph).flatmap(one_token_mutations))
@settings(max_examples=300)
def test_mutated_instances_give_an_instance_or_a_format_error(text):
    assume(declares_at_most(text, 3, MAX_FUZZ_N))
    parse_or_format_error(parse_hypergraph, text)


@given(st.text())
@settings(max_examples=300)
def test_arbitrary_text_gives_a_coloring_or_a_format_error(text):
    parse_or_format_error(parse_coloring, text)


@st.composite
def coloring_files(draw):
    n = draw(st.integers(0, 8))
    t = draw(st.integers(1, 5))
    return serialize_coloring(Coloring(t, draw(st.lists(st.integers(0, t), min_size=n, max_size=n))), n)


@given(coloring_files().flatmap(one_token_mutations))
@settings(max_examples=300)
def test_mutated_colorings_give_a_coloring_or_a_format_error(text):
    parse_or_format_error(parse_coloring, text)


# -------------------------------------------------------------- generator

def test_generator_config_validation():
    with pytest.raises(ValueError):
        GeneratorConfig(k=1, n=3, m=1, max_degree=1)
    with pytest.raises(ValueError):
        GeneratorConfig(k=2, n=3, m=-1, max_degree=1)
    with pytest.raises(ValueError):
        GeneratorConfig(k=2, n=3, m=1, max_degree=0)
    with pytest.raises(ValueError):
        GeneratorConfig(k=4, n=3, m=1, max_degree=4)  # k > n
    with pytest.raises(ValueError):
        GeneratorConfig(k=2, n=4, m=1, max_degree=1, max_restarts=-1)
    with pytest.raises(InfeasibleConfigError, match="infeasible"):
        GeneratorConfig(k=2, n=4, m=7, max_degree=3)  # 14 > 12
    feasible = GeneratorConfig(k=2, n=4, m=6, max_degree=3)
    with pytest.raises(InfeasibleConfigError, match="infeasible"):
        feasible._replace(m=7)  # _replace runs the checks as well
    with pytest.raises(ValueError):
        GeneratorConfig._make((1, 3, 1, 1))
    # m=0 is fine and yields the edgeless instance
    empty = generate_random_bounded_degree(GeneratorConfig(k=2, n=3, m=0, max_degree=1))
    assert empty.m == 0 and empty.n == 3


def test_generator_respects_contract_across_configs():
    checked = 0
    for k in (2, 3):
        for n in (6, 9):
            for dmax in (2, 3):
                max_m = (n * dmax) // k
                for m in {1, max_m // 2 or 1, max_m}:
                    for seed in range(5):
                        cfg = GeneratorConfig(k=k, n=n, m=m, max_degree=dmax,
                                              seed=seed)
                        h = generate_random_bounded_degree(cfg)
                        assert h.k == k and h.n == n and h.m == m
                        assert max_degree(h) <= dmax
                        assert len(set(h.edges)) == m
                        # the constructor's full check vouches for the
                        # generator's unchecked columns
                        rebuilt = Hypergraph(k, n, list(h.edges))
                        assert rebuilt == h
                        assert [c.typecode for c in rebuilt._cols] == [c.typecode for c in h._cols]
                        checked += 1
    assert checked >= 100


def test_generator_is_deterministic_per_seed():
    cfg = GeneratorConfig(k=3, n=12, m=7, max_degree=3, seed=11)
    assert generate_random_bounded_degree(cfg) == generate_random_bounded_degree(cfg)
    other = GeneratorConfig(k=3, n=12, m=7, max_degree=3, seed=12)
    assert generate_random_bounded_degree(other) != generate_random_bounded_degree(cfg)


def test_generator_forced_complete_graph():
    # k=2, n=4, m=6, max_degree=3: the only instance is K4 (up to edge order)
    want = set(builtin_instance("complete-graph", 4).edges)
    for seed in range(5):
        cfg = GeneratorConfig(k=2, n=4, m=6, max_degree=3, seed=seed)
        assert set(generate_random_bounded_degree(cfg).edges) == want


def test_generator_reports_failure_when_no_instance_exists():
    # feasible by the degree handshake (4 <= 4) yet no simple instance has
    # two distinct edges on two vertices: C(2, 2) = 1 < m
    with pytest.raises(InfeasibleConfigError, match="C\\(n, k\\) = 1"):
        GeneratorConfig(k=2, n=2, m=2, max_degree=2, seed=0, max_restarts=50)
    # C(n, j) is never computed beyond m, so a huge n and k cost nothing
    GeneratorConfig(k=10**6, n=2 * 10**6, m=1, max_degree=1)
    # C(10, 9) = 10 though C(10, 5) = 252: the check must not stop at the middle
    GeneratorConfig(k=9, n=10, m=10, max_degree=9)
    with pytest.raises(InfeasibleConfigError):
        GeneratorConfig(k=9, n=10, m=11, max_degree=10)


def test_generator_fails_when_its_restarts_run_out():
    # the only 2-regular graph on 4 vertices is a 4-cycle; seed 1 draws a
    # dead end on the first attempt, and no restart is allowed
    cfg = GeneratorConfig(k=2, n=4, m=4, max_degree=2, seed=1, max_restarts=0)
    with pytest.raises(GenerationFailure):
        generate_random_bounded_degree(cfg)
    assert generate_random_bounded_degree(cfg._replace(max_restarts=None)).m == 4


@st.composite
def generator_configs(draw):
    k = draw(st.integers(2, 5))
    n = draw(st.integers(k, 60))
    dmax = draw(st.integers(1, 4))
    m = draw(st.integers(0, min(n * dmax // k, comb(n, k))))
    return GeneratorConfig(k=k, n=n, m=m, max_degree=dmax,
                           seed=draw(st.integers(0, 2 ** 32)),
                           max_restarts=draw(st.sampled_from([0, 3, None])))


def generate_or_failure(generate, cfg):
    try:
        return generate(cfg)
    except GenerationFailure:
        return GenerationFailure


@given(generator_configs())
@settings(max_examples=300, deadline=None)
def test_generator_matches_the_naive_generator(cfg):
    assert generate_or_failure(generate_random_bounded_degree, cfg) == \
        generate_or_failure(naive_generate, cfg)


@given(generator_configs())
@settings(max_examples=300, deadline=None)
def test_generator_matches_the_naive_generator_over_many_lists(cfg):
    # lists of 4 vertices: n <= 60 spans up to 15 of them
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(generate, "LIVE_BLOCK", 4)
        assert generate_or_failure(generate_random_bounded_degree, cfg) == \
            generate_or_failure(naive_generate, cfg)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 7, 8, 25])
def test_rank_draw_is_the_draw_of_sample(k):
    # every generator golden rests on this: a Python whose sample draws
    # otherwise fails here first. Sizes up to 21 (k <= 5), 85 (k = 6..8) and
    # 277 (k = 25) take sample's pool branch, larger ones its set branch.
    for size in range(k, 301):
        for seed in range(20):
            fast, slow = random.Random(seed), random.Random(seed)
            assert _sample_ranks(fast.getrandbits, size, k) == slow.sample(range(size), k)
            assert fast.getstate() == slow.getstate()


@pytest.mark.parametrize("n", [1, LIVE_BLOCK - 1, LIVE_BLOCK, LIVE_BLOCK + 1, 3 * LIVE_BLOCK + 17])
def test_live_vertices_match_a_sorted_list(n):
    rng = random.Random(n)
    live, members = _LiveVertices(n), list(range(n))
    assert list(map(live.vertex, range(n))) == members
    for v in rng.sample(members, n):
        live.discard(v)
        members.remove(v)
        assert live.size == len(members)
        if members:
            ranks = [0, len(members) - 1] + [rng.randrange(len(members)) for _ in range(3)]
            assert list(map(live.vertex, ranks)) == [members[rank] for rank in ranks]


# SHA-256 of serialize_hypergraph, recorded with the O(n*m) generator:
# (k, m) -> digest at n = 2m, max_degree = 3, seed = 7
GENERATOR_GOLDENS = {
    (2, 1000): "53179942f6af5926da9f2011c65dbe0ea88de5d422f472ab1bdda5c115d3d3cc",
    (2, 4000): "3515979f4165018b62c1da952b3af0adf46c1258e82bb5afd0944cd7e74cd4fe",
    (3, 1000): "a720e6fdab5358bbf4ac7e4df73114e7168fde91e5f2282581672515dce9db43",
    (3, 4000): "e11c09a9178cfbae9080f9735a43f828e81f1dbbd299beeb8b38797b37b9a4a4",
    (4, 1000): "d213f049617421a844305593cb25375926ff9b38136ccb6aa281ad88327a1933",
    (4, 4000): "7bd730daa03ae4ea2687066ada17f32c2998b405309bc83307d00377d4124457",
}


@pytest.mark.parametrize("k, m", sorted(GENERATOR_GOLDENS))
def test_generator_matches_its_goldens(k, m):
    h = generate_random_bounded_degree(GeneratorConfig(k=k, n=2 * m, m=m, max_degree=3, seed=7))
    digest = hashlib.sha256(serialize_hypergraph(h).encode()).hexdigest()
    assert digest == GENERATOR_GOLDENS[(k, m)]


def test_the_generator_hands_over_its_draws_unchecked(monkeypatch):
    def no_check(*args):
        raise AssertionError("a generated instance was checked")

    monkeypatch.setattr(hypergraph, "_valid_rows", no_check)
    monkeypatch.setattr(hypergraph, "_canonical_rows", no_check)
    h = generate_random_bounded_degree(GeneratorConfig(k=3, n=2000, m=1000, max_degree=3, seed=7))
    digest = hashlib.sha256(serialize_hypergraph(h).encode()).hexdigest()
    assert digest == GENERATOR_GOLDENS[(3, 1000)]


def test_a_generated_instance_retains_at_most_32_bytes_per_edge():
    m = 2 * 10 ** 4
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        h = generate_random_bounded_degree(GeneratorConfig(k=3, n=m, m=m, max_degree=3, seed=1))
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert h.m == m and retained <= 32 * m


def test_generator_scales_to_large_instances():
    start = time.perf_counter()
    h = generate_random_bounded_degree(GeneratorConfig(k=3, n=10 ** 5, m=5 * 10 ** 4,
                                                       max_degree=3, seed=1))
    # rebuilding the list of vertices with capacity for every edge takes
    # minutes here
    assert time.perf_counter() - start < 10
    assert h.m == 5 * 10 ** 4 and max_degree(h) <= 3
