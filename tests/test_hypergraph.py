"""Instance type, file format, builtin families, the random generator, and
fuzzing of both file parsers."""

import hashlib
import re
import time
from math import comb

import pytest
from hypothesis import assume, given, settings, strategies as st

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
from harmcolor.coloring import _parse_coloring_blocks, _parse_coloring_lines
from harmcolor.hypergraph import _parse_hypergraph_blocks, _parse_hypergraph_lines
from oracles import naive_generate


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


def test_equality_tracks_edge_enumeration_order():
    # edge indices are semantic (events name edges by index), so two
    # presentations of the same edge set compare unequal
    a = Hypergraph(2, 3, [(0, 1), (1, 2)])
    b = Hypergraph(2, 3, [(2, 1), (0, 1)])
    assert a != b
    assert set(a.edges) == set(b.edges)
    assert a == Hypergraph(2, 3, [(1, 0), (2, 1)])


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


@given(raw_edge_files())
@settings(max_examples=300)
def test_the_parser_reports_the_constructors_verdict_on_the_offending_line(case):
    k, n, edges, text, edge_lines = case
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
    assert read_outcome(parse_coloring, text) == read_outcome(_parse_coloring_lines, text)


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


@pytest.mark.parametrize("m", [1021, 1022, 1023, 2045, 2046, 2047, 3000])
def test_the_block_readers_read_every_block(m):
    # 1024 and 2048 lines hold whole blocks, one more line starts a block;
    # the block readers themselves must take these texts, without the line readers
    text = "\n".join(instance_lines(m)) + "\n"
    assert _parse_hypergraph_blocks(text) == builtin_instance("path", m + 1)
    colors = [1 + v % 3 for v in range(m)]
    text = "\n".join(coloring_lines(m)) + "\n"
    assert _parse_coloring_blocks(text) == (Coloring(3, colors), m)


@pytest.mark.parametrize("line", [1024, 1025, 2049])
@pytest.mark.parametrize("fault, needle", [
    ("e 0 99999", "vertex id outside"),
    ("e 7 7", "repeated vertex"),
    ("e 0 1 2", "3 vertices"),
    ("e 0 x", "non-integer vertex id"),
    ("v 0 1", "expected edge line"),
    ("e 10 11", "duplicate edge"),
])
def test_a_fault_at_a_block_edge_is_named_on_its_line(line, fault, needle):
    lines = instance_lines(3000)
    lines[line - 1] = fault
    text = "\r\n".join(lines)
    assert read_outcome(parse_hypergraph, text) == read_outcome(_parse_hypergraph_lines, text)
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
def test_a_coloring_fault_at_a_block_edge_is_named_on_its_line(line, fault, needle):
    lines = coloring_lines(3000)
    del lines[line - 1]  # the vertex of the removed line is left uncolored
    lines.insert(line - 1, fault)
    text = "\n".join(lines)
    assert read_outcome(parse_coloring, text) == read_outcome(_parse_coloring_lines, text)
    with pytest.raises(FormatError, match=needle) as err:
        parse_coloring(text)
    assert err.value.line == line


def test_a_repeat_two_blocks_after_its_first_copy_is_named_on_its_line():
    lines = instance_lines(3000)
    lines[2010] = lines[10]  # the edge of line 11 again, about 2000 lines later
    with pytest.raises(FormatError, match=r"duplicate edge \(9, 10\)") as err:
        parse_hypergraph("\n".join(lines))
    assert err.value.line == 2011
    lines = coloring_lines(3000)
    lines[2010] = lines[10]  # vertex 9 colored again
    with pytest.raises(FormatError, match="vertex 9 colored twice") as err:
        parse_coloring("\n".join(lines))
    assert err.value.line == 2011


@pytest.mark.parametrize("brk", ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                                 "\u2028", "\u2029"])
def test_a_line_ends_at_lf_only(brk):
    # other line breaks are whitespace inside a line, here inside a comment
    assert parse_hypergraph(f"p hg 2 3 1\n# note{brk}e 0 1\ne 1 2\n").edges == ((1, 2),)
    assert parse_coloring(f"c 2 2\n# note{brk}v 0 1\nv 1 2\n") == (Coloring(2, [0, 2]), 2)


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


def test_generator_scales_to_large_instances():
    start = time.perf_counter()
    h = generate_random_bounded_degree(GeneratorConfig(k=3, n=10 ** 5, m=5 * 10 ** 4,
                                                       max_degree=3, seed=1))
    # rebuilding the list of vertices with capacity for every edge takes
    # minutes here
    assert time.perf_counter() - start < 10
    assert h.m == 5 * 10 ** 4 and max_degree(h) <= 3
