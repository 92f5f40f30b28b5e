"""Independent output checks, written from the definitions without harmcolor.

A colouring is harmonious when every edge is rainbow and no two edges have
the same pattern: every vertex of e\\f and f\\e is coloured and the colour set
of e\\f equals that of f\\e. For a total colouring that is the same as all m
edge colour sets being distinct k-sets.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import comb, exp, factorial, log


def read_instance(text: str) -> tuple[int, int, list[tuple[int, ...]]]:
    """Parse ``p hg k n m`` / ``e ...`` strictly; raise ValueError on anything odd."""
    lines = [ln.split() for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    head = lines[0]
    if head[:2] != ["p", "hg"] or len(head) != 5:
        raise ValueError(f"bad instance header {head}")
    k, n, m = map(int, head[2:])
    edges = []
    for tokens in lines[1:]:
        if tokens[0] != "e" or len(tokens) != k + 1:
            raise ValueError(f"bad edge line {tokens}")
        edges.append(tuple(sorted(map(int, tokens[1:]))))
    if len(edges) != m:
        raise ValueError(f"header says {m} edges, file has {len(edges)}")
    return k, n, edges


def instance_problems(k: int, n: int, edges: list[tuple[int, ...]],
                      delta_cap: int) -> list[str]:
    problems = []
    degree = [0] * n
    for e in edges:
        if len(set(e)) != k or e[0] < 0 or e[-1] >= n:
            problems.append(f"edge {e} is not {k} distinct vertices of 0..{n - 1}")
            return problems
        for v in e:
            degree[v] += 1
    if len(set(edges)) != len(edges):
        problems.append("duplicate edges")
    if max(degree, default=0) > delta_cap:
        problems.append(f"max degree {max(degree)} exceeds {delta_cap}")
    return problems


def read_coloring(text: str) -> tuple[int, list[int | None]]:
    """Parse ``c t n`` / ``v vertex colour``; uncoloured vertices are None."""
    lines = [ln.split() for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    head = lines[0]
    if head[0] != "c" or len(head) != 3:
        raise ValueError(f"bad colouring header {head}")
    t, n = int(head[1]), int(head[2])
    colors: list[int | None] = [None] * n
    for tokens in lines[1:]:
        if tokens[0] != "v" or len(tokens) != 3:
            raise ValueError(f"bad colouring line {tokens}")
        v, c = int(tokens[1]), int(tokens[2])
        if colors[v] is not None or not 1 <= c <= t:
            raise ValueError(f"vertex {v} coloured twice or colour {c} outside 1..{t}")
        colors[v] = c
    return t, colors


def harmonious_problem(edges: list[tuple[int, ...]], colors, t: int) -> str | None:
    """None when every edge is rainbow in 1..t and the m colour sets are
    distinct; otherwise the first violation. O(mk)."""
    seen: set[frozenset[int]] = set()
    for idx, e in enumerate(edges):
        cs = [colors[v] for v in e]
        if any(c is None or not 1 <= c <= t for c in cs):
            return f"edge {idx} has a vertex without a colour in 1..{t}"
        key = frozenset(cs)
        if len(key) != len(e):
            return f"edge {idx} is not rainbow"
        if key in seen:
            return f"edge {idx} repeats a colour set"
        seen.add(key)
    return None


def bad_edges(edges: list[tuple[int, ...]], colors) -> list[int]:
    return [idx for idx, e in enumerate(edges) if len({colors[v] for v in e}) < len(e)]


def same_pattern(edges, colors, a: int, b: int) -> int | None:
    """|e\\f| when edges a != b show the same pattern, else None."""
    ea, eb = set(edges[a]), set(edges[b])
    da, db = ea - eb, eb - ea
    if a == b or any(colors[v] is None for v in da | db):
        return None
    if {colors[v] for v in da} != {colors[v] for v in db}:
        return None
    return len(da)


def pattern_pairs(edges, colors) -> list[tuple[int, int, int]]:
    """Every same-pattern pair (a < b, i) of a total colouring. Equal pattern
    sets force equal whole-edge colour sets, so grouping by that set finds
    every candidate."""
    groups: dict[frozenset[int], list[int]] = {}
    for idx, e in enumerate(edges):
        groups.setdefault(frozenset(colors[v] for v in e), []).append(idx)
    pairs = []
    for ids in groups.values():
        for x, a in enumerate(ids):
            for b in ids[x + 1:]:
                i = same_pattern(edges, colors, a, b)
                if i is not None:
                    pairs.append((a, b, i))
    return sorted(pairs)


BAD_LINE = re.compile(r"bad edge (\d+): vertices \(([\d, ]+)\) colored \(([\d, ]+)\)$")
PATTERN_LINE = re.compile(r"same pattern: edges (\d+) and (\d+) \(\|e\\f\| = (\d+)\)$")


def violation_report_problems(stdout: str, edges, colors) -> list[str]:
    """Check the verifier's failure report line by line against the
    definitions: the bad-edge lines equal an independent count, and every
    reported same-pattern pair is re-confirmed; their number must match too."""
    problems = []
    bad_seen, pairs_seen = [], []
    for line in stdout.splitlines():
        if (hit := BAD_LINE.match(line)):
            idx = int(hit[1])
            verts = tuple(int(x) for x in hit[2].replace(",", " ").split())
            cols = tuple(int(x) for x in hit[3].replace(",", " ").split())
            if verts != edges[idx] or cols != tuple(colors[v] for v in verts):
                problems.append(f"bad-edge line disagrees with the inputs: {line}")
            bad_seen.append(idx)
        elif (hit := PATTERN_LINE.match(line)):
            a, b, i = int(hit[1]), int(hit[2]), int(hit[3])
            if same_pattern(edges, colors, a, b) != i:
                problems.append(f"reported pair is not a same-pattern pair: {line}")
            pairs_seen.append((a, b, i))
        else:
            problems.append(f"unexpected report line: {line[:80]}")
    if sorted(bad_seen) != bad_edges(edges, colors):
        problems.append(f"{len(bad_seen)} bad-edge lines, expected {len(bad_edges(edges, colors))}")
    if len(set(pairs_seen)) != len(pairs_seen):
        problems.append("a same-pattern pair is reported twice")
    expected = len(pattern_pairs(edges, colors))
    if len(pairs_seen) != expected:
        problems.append(f"{len(pairs_seen)} same-pattern lines, expected {expected}")
    return problems


def counting_bound(k: int, m: int) -> int:
    """Least r >= k with C(r, k) >= m."""
    r = k
    while comb(r, k) < m:
        r += 1
    return r


def certificate_holds(k: int, delta: int, m: int, t: int, tau: Fraction) -> bool:
    """The palette certificate, in exact arithmetic:
    tau >= 1 + D(k^2/t)tau^k + D m (k!/t^k) tau^k
             + sum_{i<k} D (kD/(k-i)) (i!/t^i) tau^i."""
    rhs = 1 + delta * Fraction(k * k, t) * tau ** k
    rhs += delta * m * Fraction(factorial(k), t ** k) * tau ** k
    for i in range(1, k):
        rhs += delta * Fraction(k * delta, k - i) * Fraction(factorial(i), t ** i) * tau ** i
    return tau >= rhs


@lru_cache(maxsize=None)
def certified_palette(k: int, delta: int, m: int, tau: Fraction | None = None) -> int:
    """Least t >= 1 at which the certificate holds, by a plain upward scan."""
    tau = Fraction(k, k - 1) if tau is None else tau
    t = 1
    while not certificate_holds(k, delta, m, t, tau):
        t += 1
    return t


def remark_bound(k: int, delta: int, m: int) -> float:
    """k/(k-1) (D(k-1)k! m)^(1/k) + 1 + D^2 + (k-1)D
    + sum_{i=2}^{k-1} i/(i-1) ((i-1)i(k-1)D^2/(k-i))^(1/i), in floating point."""
    total = k / (k - 1) * exp(log(delta * (k - 1) * factorial(k) * m) / k)
    total += 1 + delta * delta + (k - 1) * delta
    for i in range(2, k):
        total += i / (i - 1) * ((i - 1) * i * (k - 1) * delta * delta / (k - i)) ** (1 / i)
    return total
