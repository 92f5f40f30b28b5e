"""The two file readers: instances (parse_hypergraph) and colorings
(parse_coloring).

Both formats are read in one pass: the header once, each of its faults named
on its line; the lines after it in block texts of about BLOCK_CHARS
characters, a canonical ASCII one split once as bytes (_block_columns), each
block checked at once against the blocks accepted before it. Only a block
that faults is read again, line by line against that same state, by its
format's per-line check (_edge_lines, _color_lines), which names the fault's
line. An instance's rows take hypergraph's one check (_sorted_columns), and
an edge line its one edge check (_canonical_edge).
"""

from __future__ import annotations

import sys
from array import array
from collections import deque
from operator import itemgetter
from typing import Iterator

from ._base import FormatError
from .coloring import Coloring
from .hypergraph import Hypergraph, _canonical_edge, _sorted_columns, _typed

BLOCK_CHARS = 16_384
"""A block of the block readers ends at the first LF this many characters or
more past its start. Its token lists and converted columns are the readers'
only transient besides the result, so this bounds their memory over it."""


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


def parse_coloring(text: str) -> tuple[Coloring, int]:
    """Parse the coloring format: header ``c <t> <n>``, then ``v <vertex>
    <color>`` lines. Returns (coloring, n) with n the declared vertex count.
    Comments (#) and blank lines are skipped, and a line ends at LF. Each
    block is checked at once against the vertices colored before it; only a
    block that faults is read again by _color_lines, which names the first
    fault's line."""
    lineno, line, tokens, pos = _find_header(text)
    t, n = _coloring_header(lineno, line, tokens)
    colors = [0] * n
    for block in _line_blocks(text, pos):
        try:
            vertices, hues = _block_columns(block, "v", 2) or ([], [])
        except ValueError:  # read below, once the traceback and its tokens are freed
            vertices = None
        if vertices is None or vertices and (
                min(vertices) < 0 or max(vertices) >= n or min(hues) < 1 or max(hues) > t
                or len(set(vertices)) != len(vertices) or any(map(colors.__getitem__, vertices))):
            _color_lines(t, n, colors, _content_lines(block, text.count("\n", 0, pos)))
        else:
            deque(map(colors.__setitem__, vertices, hues), 0)
        pos += len(block) + 1
    return Coloring(t=t, colors=colors), n


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


def _color_lines(t: int, n: int, colors: list[int],
                 lines: Iterator[tuple[int, str, list[str]]]) -> None:
    """parse_coloring's per-line check: enters the content lines ``lines``
    one at a time into ``colors``, the list of the header ``c <t> <n>``, and
    raises a FormatError on the line of the first fault."""
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
