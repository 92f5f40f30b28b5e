"""Constructing harmonious colorings by resampling: sample a uniform coloring,
then repeatedly redraw the variables of a violated bad event until none
remains. _policy_t names the palette a run gets from its policy.
"""

from __future__ import annotations

import random
import sys
from array import array
from typing import Callable, Mapping, NamedTuple, Union

from ._base import EVENT_SCANS, _Checked
from .coloring import BadEdge, Coloring, EventIndex, SamePattern, colors_used
from .hypergraph import Hypergraph, max_degree

DEFAULT_RESAMPLES_PER_EDGE = 10 ** 5


class _SolverFields(NamedTuple):
    t: int
    seed: int = 0
    max_resamples: int | None = None
    event_scan: str = "deterministic"
    trace_limit: int = 0


class SolverConfig(_Checked, _SolverFields):
    """Knobs for resample_solve.

    max_resamples=None means the default budget of 10^5 per edge. event_scan
    is the pick rule over one sorted event list (bad edges by index, then
    pattern pairs in lexicographic edge-index order): "deterministic" takes
    its first event, "random" a uniform one. trace_limit > 0 records up to
    that many steps: the event, its ascending scope, the scope's new colors.
    """

    __slots__ = ()

    def _check(self) -> None:
        if self.t < 1:
            raise ValueError(f"palette size must be at least 1, got {self.t}")
        if self.max_resamples is not None and self.max_resamples < 0:
            raise ValueError("max_resamples must be nonnegative")
        if self.event_scan not in EVENT_SCANS:
            raise ValueError(f"unknown event_scan {self.event_scan!r}")
        if self.trace_limit < 0:
            raise ValueError("trace_limit must be nonnegative")


class TraceStep(NamedTuple):
    event: Union[BadEdge, SamePattern]
    scope: tuple[int, ...]
    colors_after: tuple[int, ...]


class SolveReport(NamedTuple):
    """Outcome of one resampling run. success implies the coloring is
    harmonious; on a blown budget the last coloring and the counts survive."""

    coloring: Coloring
    success: bool
    resamples_total: int
    resamples_bad_edge: int
    resamples_same_pattern: Mapping[int, int]
    colors_used: int
    seed: int
    t: int
    trace: tuple[TraceStep, ...] = ()
    trace_truncated: bool = False

    def as_record(self) -> dict[str, object]:
        """Flat key-value view for text reports and CSV rows."""
        rec: dict[str, object] = {
            "seed": self.seed,
            "t": self.t,
            "success": self.success,
            "resamples_total": self.resamples_total,
            "resamples_bad_edge": self.resamples_bad_edge,
        }
        for i in sorted(self.resamples_same_pattern):
            rec[f"resamples_pattern_i{i}"] = self.resamples_same_pattern[i]
        rec["colors_used"] = self.colors_used
        return rec


def sample_uniform_coloring(h: Hypergraph, t: int, seed: int = 0) -> Coloring:
    """Each vertex gets an independent uniform color from 1..t; deterministic
    per seed (and identical to the initial state of resample_solve run with
    the same seed)."""
    if t < 1:
        raise ValueError(f"palette size must be at least 1, got {t}")
    return Coloring(t=t, colors=_uniform_colors(random.Random(seed), h.n, t))


def _uniform_colors(rng: random.Random, n: int, t: int) -> list[int]:
    """The initial draw of sample_uniform_coloring and resample_solve: the
    colors and end state of one _uniform_color per vertex. For t < 2**32 its
    draws are the top t.bit_length() bits of 32-bit words, so rounds of as
    many words as colors are missing, at most 4,096, keep the words below t."""
    getrandbits, bits = rng.getrandbits, t.bit_length()
    if bits > 32 or sys.byteorder != "little":
        return [_uniform_color(getrandbits, bits, t) for _ in range(n)]
    colors, shift = [], 32 - bits
    top = int.from_bytes((2 ** 32 - 2 ** shift).to_bytes(4, "little") * 4096, "little")
    while missing := min(n - len(colors), 4096):
        words = ((getrandbits(32 * missing) & top) >> shift).to_bytes(4 * missing, "little")
        colors += [w + 1 for w in array("I", words) if w < t]
    return colors


def _uniform_color(getrandbits: Callable[[int], int], bits: int, t: int) -> int:
    """One uniform color from 1..t, given t.bit_length() as bits: the draw
    of CPython's randint(1, t) (its _randbelow_with_getrandbits) without
    the layers of calls around it, so the same seed gives the same stream."""
    r = getrandbits(bits)
    while r >= t:
        r = getrandbits(bits)
    return r + 1


def resample_solve(h: Hypergraph, cfg: SolverConfig) -> SolveReport:
    """Build a harmonious coloring with at most cfg.t colors by resampling.

    Loop: sample all vertices uniformly; while some bad event holds, pick one
    (first in scan order, or uniformly at random per cfg.event_scan) and redraw
    its scope — all k vertices of a bad edge, or the symmetric difference of a
    same-pattern pair, the exact variable set the event depends on. Rejects
    t < k up front: no edge can be rainbow then.

    The events live in one coloring.EventIndex, built by one bulk pass over
    the edge keys, that both scans pick from and that each redraw refreshes
    through the O(kΔ) edges meeting the scope, not all m edges. A refreshed
    edge's pairs are found and re-confirmed within its key group alone. The
    event lists are flat sorted lists, so each insert or delete there also
    shifts O(#events) entries. The instance's CSR incidence, whose slices
    the refreshes read, is built first: a hostile n fails in its build's
    one-piece allocation, the build's transient lists peak on top of the
    parsed instance alone, not the live index, and the set-up, not the first
    step, pays for it.
    """
    if cfg.t < h.k:
        raise ValueError(f"t={cfg.t} < k={h.k}: no edge can be rainbow")
    t = cfg.t
    incident = h._incident  # the CSR, built here, before the index (see above)
    rng = random.Random(cfg.seed)
    getrandbits, bits = rng.getrandbits, t.bit_length()
    colors = _uniform_colors(rng, h.n, t)
    budget = (cfg.max_resamples if cfg.max_resamples is not None
              else DEFAULT_RESAMPLES_PER_EDGE * max(h.m, 1))
    index = EventIndex(h, colors)
    pick_rng = rng if cfg.event_scan == "random" else None

    resamples = 0
    count_bad = 0
    count_pattern = {i: 0 for i in range(1, h.k + 1)}
    trace: list[TraceStep] = []
    trace_truncated = False
    success = True
    while True:
        event = index.pick(pick_rng)
        if event is None:
            break
        if resamples >= budget:
            success = False
            break
        if isinstance(event, BadEdge):
            scope = h._row(event.edge)
            count_bad += 1
        else:
            scope = tuple(sorted(set(h._row(event.e)).symmetric_difference(h._row(event.f))))
            count_pattern[event.i] += 1
        for v in scope:
            colors[v] = _uniform_color(getrandbits, bits, t)
        resamples += 1
        index.refresh({idx for v in scope for idx in incident(v)})
        if cfg.trace_limit:
            if len(trace) < cfg.trace_limit:
                trace.append(TraceStep(event=event, scope=tuple(scope),
                                       colors_after=tuple(colors[v] for v in scope)))
            else:
                trace_truncated = True

    coloring = Coloring(t=t, colors=colors)
    return SolveReport(
        coloring=coloring,
        success=success,
        resamples_total=resamples,
        resamples_bad_edge=count_bad,
        resamples_same_pattern=count_pattern,
        colors_used=colors_used(coloring),
        seed=cfg.seed,
        t=t,
        trace=tuple(trace),
        trace_truncated=trace_truncated,
    )


def _policy_t(policy: str, t_fixed: int | None, eps: float, h: Hypergraph) -> int:
    """The palette a policy names for instance h: t_fixed, k for an edgeless
    h, else the policy's closed form at h's k, max degree and m."""
    if policy == "fixed":
        return t_fixed  # type: ignore[return-value]
    if h.m == 0:
        return h.k
    from .bounds import lcl_min_colors, theorem_ceil_colors
    h._incident  # the CSR, built first from the columns: the solver needs it, and the max
    # degree then comes from its offsets instead of another pass over the columns
    delta = max_degree(h)
    t = (lcl_min_colors(h.k, delta, h.m) if policy == "lcl-min"
         else theorem_ceil_colors(h.k, delta, h.m, eps))
    # a single edge already needs k colors; the closed forms can dip below k
    # at tiny m, where their "sufficiently large m" premise fails
    return max(t, h.k)
