"""Verification primitives: bad edges, pattern collisions, local event views,
and the coloring file format. Cross-checked against the brute-force oracles."""

import random
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from harmcolor import (
    BadEdge,
    Coloring,
    FormatError,
    Hypergraph,
    LocalEvents,
    SamePattern,
    bad_edges,
    builtin_instance,
    colors_used,
    is_harmonious,
    local_bad_events,
    max_degree,
    parse_coloring,
    pattern_collisions,
    serialize_coloring,
)
from harmcolor import coloring
from harmcolor.coloring import _pattern_size
from oracles import naive_bad_edges, naive_is_harmonious, naive_pattern_pairs


def col(t, *colors):
    return Coloring(t=t, colors=list(colors))


# ------------------------------------------------------------- basic types

def test_coloring_validation():
    with pytest.raises(ValueError):
        Coloring(t=0, colors=[])
    with pytest.raises(ValueError, match="vertex 1 has color 3"):
        Coloring(t=2, colors=[2, 3, -1])
    with pytest.raises(ValueError, match="vertex 2 has color -1"):
        Coloring(t=2, colors=[0, 1, -1])
    assert Coloring(t=2, colors=[0, 2, 0]).assignment == {1: 2}  # 0 is uncolored


def test_same_pattern_is_canonicalized():
    assert SamePattern(e=5, f=2, i=1) == SamePattern(e=2, f=5, i=1)
    with pytest.raises(ValueError):
        SamePattern(e=1, f=1, i=1)
    with pytest.raises(ValueError):
        SamePattern(e=0, f=1, i=0)


def test_records_check_every_construction_path():
    # the records are tuples: _make and _replace build through the checks too
    assert SamePattern._make((5, 2, 1)) == SamePattern(2, 5, 1)
    assert type(SamePattern._make((5, 2, 1))) is SamePattern
    with pytest.raises(ValueError):
        SamePattern(2, 5, 1)._replace(f=2)
    with pytest.raises(ValueError, match="vertex 1 has color 3"):
        Coloring(2, [0, 3])
    with pytest.raises(ValueError, match="vertex 1 has color 3"):
        col(2, 0, 1)._replace(colors=[0, 3])
    with pytest.raises(ValueError):
        Coloring._make((0, []))
    assert repr(BadEdge(3)) == "BadEdge(edge=3)"
    assert repr(SamePattern(5, 2, 1)) == "SamePattern(e=2, f=5, i=1)"
    assert repr(col(2, 0, 2)) == "Coloring(t=2, colors=[0, 2])"
    assert sorted([SamePattern(1, 2, 1), SamePattern(0, 3, 2), SamePattern(0, 2, 1)]) == [
        SamePattern(0, 2, 1), SamePattern(0, 3, 2), SamePattern(1, 2, 1)]
    assert BadEdge(2) < BadEdge(3) and hash(BadEdge(3)) == hash((3,))


def test_colors_used():
    assert colors_used(col(9, 1, 5, 1, 5)) == 2
    assert colors_used(col(9, 1, 0, 5, 0)) == 2
    assert colors_used(col(3, 0, 0)) == 0


# ------------------------------------------------------------- bad edges

def test_bad_edge_examples(path3, triangle):
    assert bad_edges(path3, col(2, 1, 1, 2)) == [BadEdge(edge=0)]
    assert bad_edges(path3, col(2, 1, 2, 1)) == []
    assert bad_edges(triangle, col(3, 1, 2, 3)) == []
    assert bad_edges(triangle, col(3, 1, 1, 1)) == [BadEdge(0), BadEdge(1), BadEdge(2)]


def test_bad_edges_skip_partially_colored_edges(path3):
    # vertex 2 uncolored: edge (1,2) is not reported even though edge (0,1) is
    partial = col(2, 1, 1, 0)
    assert bad_edges(path3, partial) == [BadEdge(0)]


# ------------------------------------------------------- pattern collisions

def test_pattern_examples(path3, matching22, triangle):
    assert pattern_collisions(path3, col(2, 1, 2, 1)) == [SamePattern(e=0, f=1, i=1)]
    assert pattern_collisions(matching22, col(2, 1, 2, 1, 2)) == [
        SamePattern(e=0, f=1, i=2)
    ]
    assert pattern_collisions(triangle, col(3, 1, 2, 3)) == []


def test_pattern_needs_only_the_symmetric_difference_colored():
    # e = (0,1,2), f = (1,2,3): their shared vertices 1,2 stay uncolored, yet
    # the pair collides because 0 and 3 carry the same color
    h = Hypergraph(3, 4, [(0, 1, 2), (1, 2, 3)])
    partial = col(2, 1, 0, 0, 1)
    assert pattern_collisions(h, partial) == [SamePattern(e=0, f=1, i=1)]
    # coloring a shared vertex does not change the verdict
    partial2 = col(2, 1, 2, 0, 1)
    assert pattern_collisions(h, partial2) == [SamePattern(e=0, f=1, i=1)]


def test_pattern_collision_on_non_rainbow_edges_with_unequal_multisets():
    # e \ f colored (1,1,2) and f \ e colored (1,2,2): equal color sets,
    # unequal multisets — a multiset prefilter would miss this pair
    h = Hypergraph(4, 7, [(0, 1, 2, 6), (3, 4, 5, 6)])
    c = col(3, 1, 1, 2, 1, 2, 2, 3)
    assert pattern_collisions(h, c) == [SamePattern(e=0, f=1, i=3)]


def test_disjoint_edges_collide_when_color_sets_match():
    h = builtin_instance("matching", 2, k=3)
    assert pattern_collisions(h, col(3, 1, 2, 3, 3, 1, 2)) == [
        SamePattern(e=0, f=1, i=3)
    ]
    assert pattern_collisions(h, col(4, 1, 2, 3, 4, 1, 2)) == []


def test_each_pair_reported_once():
    h = builtin_instance("k-star", 3, k=2)  # edges (0,1),(0,2),(0,3)
    hits = pattern_collisions(h, col(2, 1, 2, 2, 2))
    assert hits == [SamePattern(0, 1, 1), SamePattern(0, 2, 1), SamePattern(1, 2, 1)]
    assert len({(p.e, p.f) for p in hits}) == len(hits)


SHARED_KEY_CASES = {
    # a total coloring giving three edges the key (1, 2, 3); edges 0 and 1
    # overlap in vertex 0, edge 2 is disjoint from both
    "three-edges-share-a-rainbow-key": (
        Hypergraph(3, 9, [(0, 1, 2), (0, 3, 4), (5, 6, 7), (1, 3, 8)]),
        col(4, 1, 2, 3, 2, 3, 1, 2, 3, 4),
        [(0, 1, 2), (0, 2, 3), (1, 2, 3)]),
    # edges 0 and 1 are not rainbow and share the key (1, 2); edge 2 is bad
    # under the key (2, 3) alone
    "two-non-rainbow-edges-share-a-key": (
        Hypergraph(3, 7, [(0, 1, 2), (3, 4, 5), (2, 5, 6)]),
        col(3, 1, 1, 2, 1, 2, 2, 3),
        [(0, 1, 3)]),
}


@pytest.mark.parametrize("name", SHARED_KEY_CASES)
def test_pattern_collisions_within_a_shared_key(name):
    h, c, expected = SHARED_KEY_CASES[name]
    assert naive_pattern_pairs(h, c) == expected
    assert pattern_collisions(h, c) == [SamePattern(*pair) for pair in expected]


def test_the_build_confirms_each_pair_of_a_shared_key_once(monkeypatch):
    # key groups: rainbow (1,2,3) [0,1,2] and (1,2,4) [5,6], non-rainbow (1,2)
    # [3,4] and (3,4) [8,9,10]; edges 7 and 11 hold their keys alone
    h = Hypergraph(3, 30, [(0, 1, 2), (0, 3, 4), (5, 6, 7), (8, 9, 10), (11, 12, 13),
                           (14, 15, 16), (17, 18, 19), (20, 21, 22), (23, 24, 25),
                           (26, 27, 28), (23, 26, 29), (2, 6, 16)])
    c = col(4, 1, 2, 3, 3, 2, 3, 1, 2, 1, 1, 2, 2, 1, 2, 1, 2, 4, 4, 2, 1, 4, 4, 4,
            3, 3, 4, 4, 3, 4, 3)
    calls = []

    def counted(ea, eb, colors):
        calls.append((ea, eb))
        return _pattern_size(ea, eb, colors)

    monkeypatch.setattr(coloring, "_pattern_size", counted)
    index = coloring.EventIndex(h, c.colors)
    shared = {key: held for key, held in index.groups.items() if isinstance(held, list)}
    assert sorted(map(len, shared.values())) == [2, 2, 3, 3]
    # a rainbow group's pairs show one pattern each without a check: only the
    # non-rainbow groups' pairs are confirmed
    assert len(calls) == sum(comb(len(held), 2) for held in shared.values()
                             if len({c.colors[v] for v in h.edges[held[0]]}) < h.k) == 4
    assert index.pairs == naive_pattern_pairs(h, c)


# ----------------------------------------------------------- is_harmonious

def test_is_harmonious_examples(path3, path4, triangle):
    assert is_harmonious(triangle, col(3, 1, 2, 3)) is True
    assert is_harmonious(path3, col(2, 1, 2, 1)) is False  # same pattern
    assert is_harmonious(path3, col(3, 1, 2, 3)) is True
    assert is_harmonious(path4, col(3, 1, 2, 3, 1)) is True
    assert is_harmonious(path4, col(2, 1, 2, 1, 2)) is False


def test_is_harmonious_rejects_partial_colorings(path3):
    with pytest.raises(ValueError, match="vertex 2"):
        is_harmonious(path3, col(2, 1, 2, 0))


def test_isolated_vertices_need_no_color():
    h = Hypergraph(2, 5, [(0, 1)])  # vertices 2..4 isolated
    assert is_harmonious(h, col(2, 1, 2, 0, 0, 0)) is True
    assert "degrees" not in vars(h)  # read only to name an uncolored vertex


def test_relabeling_colors_preserves_the_verdict(triangle, path4):
    rng = random.Random(7)
    for h in (triangle, path4):
        for _ in range(20):
            t = 4
            colors = [rng.randint(1, t) for v in range(h.n)]
            c = Coloring(t=t, colors=colors)
            perm = list(range(1, t + 1))
            rng.shuffle(perm)
            relabeled = Coloring(t=t, colors=[perm[c - 1] for c in colors])
            assert is_harmonious(h, c) == is_harmonious(h, relabeled)


# -------------------------------------------------------- local event views

def test_local_events_path(path3):
    ev = local_bad_events(path3, col(2, 1, 2, 1), 1)
    assert isinstance(ev, LocalEvents)
    assert ev.b1 == ()
    assert ev.b2[1] == (SamePattern(0, 1, 1),)
    assert ev.b2[2] == ()


def test_local_events_star_counts():
    h = builtin_instance("k-star", 3, k=2)
    c = col(2, 1, 2, 2, 2)
    center = local_bad_events(h, c, 0)
    assert len(center.b2[1]) == 3  # every pair touches the center
    leaf = local_bad_events(h, c, 1)
    assert len(leaf.b2[1]) == 2  # pairs (0,1) and (0,2); pair (1,2) misses vertex 1


def test_local_events_validates_vertex(path3):
    with pytest.raises(ValueError):
        local_bad_events(path3, col(2, 1, 2, 1), 3)


def test_local_event_count_bounds_hold_on_random_instances():
    # |B1(v)| <= delta, |B2_i(v)| <= k*delta^2/(k-i) for i<k, |B2_k(v)| <= delta*m
    rng = random.Random(3)
    pool3 = list(combinations(range(7), 3))
    for trial in range(40):
        edges = rng.sample(pool3, rng.randint(1, 8))
        h = Hypergraph(3, 7, edges)
        delta = max_degree(h)
        c = Coloring(t=3, colors=[rng.randint(1, 3) for v in range(7)])
        for v in range(7):
            ev = local_bad_events(h, c, v)
            assert len(ev.b1) <= delta
            for i in range(1, h.k):
                assert len(ev.b2[i]) <= h.k * delta * delta / (h.k - i)
            assert len(ev.b2[h.k]) <= delta * h.m


# --------------------------------------------------- oracle cross-checking

@st.composite
def instance_and_coloring(draw):
    k = draw(st.integers(2, 4))
    n = draw(st.integers(k, 9))
    pool = list(combinations(range(n), k))
    m = draw(st.integers(1, min(len(pool), 7)))
    edges = draw(st.permutations(pool))[:m]
    h = Hypergraph(k, n, edges)
    t = draw(st.integers(1, 4))
    return h, Coloring(t=t, colors=draw(st.lists(st.integers(0, t), min_size=n, max_size=n)))


@given(instance_and_coloring())
@settings(max_examples=150)
def test_detectors_match_the_oracles(case):
    h, c = case
    assert [b.edge for b in bad_edges(h, c)] == naive_bad_edges(h, c)
    got = {(p.e, p.f, p.i) for p in pattern_collisions(h, c)}
    assert got == set(naive_pattern_pairs(h, c))
    if all(c.colors[v] for v in h.support):
        assert is_harmonious(h, c) == naive_is_harmonious(h, c)


# ------------------------------------------------------------- file format

def test_coloring_round_trip():
    c = col(5, 2, 1, 5)
    text = serialize_coloring(c, 3)
    assert text == "c 5 3\nv 0 2\nv 1 1\nv 2 5\n"
    back, n = parse_coloring(text)
    assert back == c and n == 3


def test_coloring_serialization_skips_uncolored_vertices():
    c = col(2, 0, 0, 1, 0)
    assert serialize_coloring(c, 4) == "c 2 4\nv 2 1\n"


@given(st.integers(1, 5).flatmap(
    lambda t: st.tuples(st.just(t), st.lists(st.integers(0, t), max_size=9))))
def test_partial_list_colorings_round_trip(case):
    t, colors = case
    c = Coloring(t=t, colors=colors)
    assert c.assignment == {v: color for v, color in enumerate(colors) if color}
    assert parse_coloring(serialize_coloring(c, len(colors))) == (c, len(colors))


def test_a_color_list_of_another_length_is_refused(path3):
    short, long = col(2, 1, 2), col(3, 1, 2, 3, 1)
    for c in (short, long):
        for check in (bad_edges, pattern_collisions, is_harmonious):
            with pytest.raises(ValueError, match=f"n={len(c.colors)}"):
                check(path3, c)
        with pytest.raises(ValueError, match=f"n={len(c.colors)}"):
            local_bad_events(path3, c, 0)
        with pytest.raises(ValueError, match=f"n={len(c.colors)}"):
            serialize_coloring(c, 3)


@pytest.mark.parametrize("text, line, needle", [
    ("c 2\nv 0 1\n", 1, "header"),
    ("v 0 1\n", 1, "header"),
    ("c 2 3\nv 0 1\nv 0 2\n", 3, "colored twice"),
    ("c 2 3\nv 5 1\n", 2, "outside"),
    ("c 2 3\nv 0 9\n", 2, "outside"),
    ("c 2 3\nx 0 1\n", 2, "expected"),
    (f"c 2 {2 ** 63}\n", 1, "vertex count must be at most"),
])
def test_coloring_parse_errors(text, line, needle):
    with pytest.raises(FormatError) as err:
        parse_coloring(text)
    assert err.value.line == line
    assert needle in str(err.value)
