"""Benchmark-owned inputs: seeded instances, colourings and their files.

The benchmark makes its own instances so that a change to the library's
generator cannot change what the solver, parser and verifier are measured on.
Nothing here imports harmcolor.
"""

from __future__ import annotations

import random
from pathlib import Path


def bounded_degree_edges(seed: int, k: int, n: int, m: int,
                         delta: int) -> list[tuple[int, ...]]:
    """m distinct k-edges on vertices 0..n-1, every degree at most delta.

    Configuration model: each vertex contributes delta stubs, the shuffled
    stubs are cut into groups of k, and the few groups with a repeated vertex
    or a duplicate edge are repaired by swapping one stub with a random valid
    group. Linear in k*m apart from the repairs, and a pure function of its
    arguments. When k*m == n*delta every vertex ends with degree exactly delta.
    """
    if k < 2 or m < 0 or delta < 1 or k * m > n * delta:
        raise ValueError(f"no instance with k={k} n={n} m={m} delta={delta}")
    rng = random.Random(seed)
    stubs = [v for v in range(n) for _ in range(delta)]
    rng.shuffle(stubs)
    groups = [stubs[i * k:(i + 1) * k] for i in range(m)]
    seen: set[tuple[int, ...]] = set()
    broken: list[int] = []
    for i, group in enumerate(groups):
        key = tuple(sorted(group))
        if len(set(key)) < k or key in seen:
            broken.append(i)
        else:
            seen.add(key)
    if m and len(broken) == m:
        raise ValueError("every group is broken; nothing to repair against")
    valid = [True] * m
    for i in broken:
        valid[i] = False
    for i in broken:
        while not valid[i]:
            j = rng.randrange(m)
            if not valid[j]:
                continue
            a, b = rng.randrange(k), rng.randrange(k)
            gi, gj = groups[i], groups[j]
            seen.discard(tuple(sorted(gj)))
            gi[a], gj[b] = gj[b], gi[a]
            ki, kj = tuple(sorted(gi)), tuple(sorted(gj))
            if (len(set(ki)) == k and len(set(kj)) == k and ki != kj
                    and ki not in seen and kj not in seen):
                seen.add(ki)
                seen.add(kj)
                valid[i] = True
            else:
                gi[a], gj[b] = gj[b], gi[a]
                seen.add(tuple(sorted(gj)))
    return [tuple(sorted(g)) for g in groups]


def uniform_coloring(seed: int, n: int, t: int) -> list[int]:
    """Each of the n vertices gets an independent uniform colour in 1..t."""
    rng = random.Random(seed)
    return [rng.randint(1, t) for _ in range(n)]


def instance_text(k: int, n: int, edges: list[tuple[int, ...]]) -> str:
    """The instance file format: ``p hg <k> <n> <m>``, then ``e <v1> ... <vk>``."""
    lines = [f"p hg {k} {n} {len(edges)}"]
    lines.extend("e " + " ".join(map(str, e)) for e in edges)
    return "\n".join(lines) + "\n"


def coloring_text(t: int, colors: list[int]) -> str:
    """The colouring file format: ``c <t> <n>``, then ``v <vertex> <colour>``."""
    lines = [f"c {t} {len(colors)}"]
    lines.extend(f"v {v} {c}" for v, c in enumerate(colors))
    return "\n".join(lines) + "\n"


def write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
