"""Closed-form bounds for the harmonious number and the certificate inequality.

For a k-uniform hypergraph with m edges and maximum degree D, a uniformly
random t-coloring makes a fixed edge bad with probability at most k^2/t, and
makes two distinct edges with |e\\f| = i show the same pattern with probability
at most i!/t^i. Summing those bounds over the events near one vertex yields the
certificate inequality

    tau >= 1 + D*(k^2/t)*tau^k + D*m*(k!/t^k)*tau^k
             + sum_{i=1}^{k-1} D*(k*D/(k-i))*(i!/t^i)*tau^i

whose truth at some tau > 1 certifies that a harmonious t-coloring exists.
Everything feeding that go/no-go decision is evaluated in exact rational
arithmetic; only the two real-valued closed forms (theorem_bound,
remark_bound) use floating point, to at least 12 significant digits.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from functools import wraps
from math import ceil, comb, exp, factorial, inf, isfinite, log
from typing import Callable, Iterator, NamedTuple


class LclResult(NamedTuple):
    holds: bool
    slack: Fraction


def _check_inputs(k: int, delta: int, m: int, eps: float = 0.0) -> None:
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    if delta < 1:
        raise ValueError(f"delta must be at least 1, got {delta}")
    if m < 1:
        raise ValueError(f"m must be at least 1, got {m}")
    if not 0 <= eps <= sys.float_info.max:  # also false for nan
        raise ValueError(f"eps must be a finite nonnegative number, got {eps}")


def _int_root(x: int, k: int) -> int:
    """Floor k-th root of a nonnegative integer, by Newton iteration on ints."""
    if x < 0:
        raise ValueError("negative radicand")
    if x == 0:
        return 0
    r = 1 << ((x.bit_length() + k - 1) // k)
    while True:
        nr = ((k - 1) * r + x // r ** (k - 1)) // k
        if nr >= r:
            break
        r = nr
    while r ** k > x:
        r -= 1
    while (r + 1) ** k <= x:
        r += 1
    return r


def _float_root(x: int, k: int) -> float:
    """x**(1/k) with an exact fast path for perfect powers; log-space otherwise,
    so huge radicands (k!*m beyond float range) cannot overflow."""
    r = _int_root(x, k)
    if r ** k == x:
        return float(r)
    return exp(log(x) / k)


def _float_range(closed_form: Callable[..., float]) -> Callable[..., float]:
    """Make a closed form whose value leaves float range raise ValueError,
    whether its arithmetic overflowed to inf or raised OverflowError."""

    @wraps(closed_form)
    def checked(*args, **kwargs) -> float:
        try:
            value = closed_form(*args, **kwargs)
        except OverflowError:
            value = inf
        if not isfinite(value):
            raise ValueError(f"{closed_form.__name__} is beyond float range")
        return value

    return checked


@_float_range
def theorem_bound(k: int, delta: int, m: int, eps: float = 0.0) -> float:
    """The existence bound (1+eps) * k/(k-1) * (delta*(k-1)*k!*m)^(1/k).

    Exact on clean inputs: theorem_bound(2, 1, 8, 0) == 8.0, since the radicand
    16 is a perfect square.
    """
    _check_inputs(k, delta, m, eps)
    radicand = delta * (k - 1) * factorial(k) * m
    return (1.0 + eps) * k * _float_root(radicand, k) / (k - 1)


@_float_range
def remark_bound(k: int, delta: int, m: int) -> float:
    """The additive refinement of the existence bound:

        k/(k-1) * (delta*(k-1)*k!*m)^(1/k) + 1 + delta^2 + (k-1)*delta
          + sum_{i=2}^{k-1} i/(i-1) * ((i-1)*i*(k-1)*delta^2/(k-i))^(1/i)

    (empty sum for k = 2). Always >= theorem_bound(k, delta, m, 0) since every
    added term is nonnegative.
    """
    _check_inputs(k, delta, m)
    total = theorem_bound(k, delta, m, 0.0)
    total += 1.0 + delta * delta + (k - 1) * delta
    for i in range(2, k):
        num = (i - 1) * i * (k - 1) * delta * delta
        den = k - i
        if num % den == 0:
            root = _float_root(num // den, i)
        else:
            root = exp((log(num) - log(den)) / i)
        total += i * root / (i - 1)
    return total


def lower_bound_colors(k: int, m: int) -> int:
    """Least r >= k with C(r, k) >= m: any m edges need m distinct k-sets of
    colors, so r colors only suffice when C(r, k) >= m."""
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    if m < 1:
        raise ValueError(f"m must be at least 1, got {m}")
    return _least(lambda r: comb(r, k) >= m)  # comb(r, k) == 0 < m for r < k


def _least(holds: Callable[[int], bool]) -> int:
    """Least t >= 1 with holds(t), for a predicate monotone in t that holds
    somewhere: doubling brackets it, bisection pins it down."""
    hi = 1
    while not holds(hi):
        hi *= 2
    lo = hi // 2  # holds(lo) is false (or lo == 0)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if holds(mid) else (mid, hi)
    return hi


def bad_edge_prob_exact(k: int, t: int) -> Fraction:
    """Exact probability that a uniform t-coloring makes one k-edge bad:
    1 - prod_{j=0}^{k-1} (t-j)/t, which is 1 whenever t < k."""
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    if t < 1:
        raise ValueError(f"t must be at least 1, got {t}")
    rainbow = Fraction(1)
    for j in range(k):
        if t - j <= 0:
            return Fraction(1)
        rainbow *= Fraction(t - j, t)
    return 1 - rainbow


def bad_edge_prob_bound(k: int, t: int) -> Fraction:
    """The k^2/t upper bound on the bad-edge probability (may exceed 1)."""
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    if t < 1:
        raise ValueError(f"t must be at least 1, got {t}")
    return Fraction(k * k, t)


def pattern_prob_bound(i: int, t: int) -> Fraction:
    """The i!/t^i upper bound on two disjoint colored i-sets matching as sets."""
    if i < 1:
        raise ValueError(f"i must be at least 1, got {i}")
    if t < 1:
        raise ValueError(f"t must be at least 1, got {t}")
    return Fraction(factorial(i), t ** i)


def lcl_condition(k: int, delta: int, m: int, t: int,
                  tau: Fraction | None = None) -> LclResult:
    """Evaluate the certificate inequality in exact rational arithmetic.

    Returns (holds, slack) where slack = tau - RHS; holds means slack >= 0.
    tau defaults to k/(k-1). No floating point is involved, so the go/no-go
    answer cannot hinge on rounding.
    """
    _check_inputs(k, delta, m)
    tau = Fraction(k, k - 1) if tau is None else Fraction(tau)
    if tau < 1:
        raise ValueError(f"tau must be at least 1, got {tau}")
    rhs = 1 + delta * bad_edge_prob_bound(k, t) * tau ** k
    rhs += delta * m * pattern_prob_bound(k, t) * tau ** k
    for i in range(1, k):
        rhs += delta * Fraction(k * delta, k - i) * pattern_prob_bound(i, t) * tau ** i
    slack = tau - rhs
    return LclResult(holds=slack >= 0, slack=slack)


def lcl_min_colors(k: int, delta: int, m: int, tau: Fraction | None = None) -> int:
    """Minimal t for which the certificate holds at tau (default k/(k-1)).

    The RHS is strictly decreasing in t and tends to 1 < tau, so a threshold
    exists. Requires tau > 1 — at tau = 1 the inequality is never satisfiable.
    """
    _check_inputs(k, delta, m)
    tau = Fraction(k, k - 1) if tau is None else Fraction(tau)
    if tau <= 1:
        raise ValueError(f"tau must exceed 1, got {tau}")
    return _least(lambda t: lcl_condition(k, delta, m, t, tau).holds)


def tau_grid_search(k: int, delta: int, m: int,
                    denominator: int = 16) -> tuple[Fraction, int]:
    """Search tau over {1 + j/denominator : j = 1..denominator} for the value
    minimizing lcl_min_colors; ties prefer smaller tau. The default k/(k-1) is
    not always optimal — e.g. (k=3, delta=2, m=15) certifies t=141 at tau=3/2
    but t=140 at tau=49/32."""
    _check_inputs(k, delta, m)
    if denominator < 1:
        raise ValueError(f"denominator must be positive, got {denominator}")
    best: tuple[int, Fraction] | None = None
    for j in range(1, denominator + 1):
        tau = 1 + Fraction(j, denominator)
        t = lcl_min_colors(k, delta, m, tau)
        if best is None or (t, tau) < best:
            best = (t, tau)
    assert best is not None
    return best[1], best[0]


def theorem_ceil_colors(k: int, delta: int, m: int, eps: float = 0.0) -> int:
    """ceil(theorem_bound(...)), the palette size the existence bound names."""
    return ceil(theorem_bound(k, delta, m, eps))


def monte_carlo_event_probs(k: int, i: int, t: int, trials: int,
                            seed: int = 0) -> tuple[float, float]:
    """Empirical check of the per-event probabilities.

    Returns (bad_edge_estimate, pattern_estimate): the frequency of a uniform
    t-coloring of k fresh vertices being non-rainbow, and the frequency of two
    disjoint i-sets of fresh vertices receiving equal color sets conditioned on
    the first set being rainbow (for which the conditional probability is
    exactly i!/t^i when t >= i). Returns a 0.0 pattern estimate if the
    conditioning event never occurs.

    Deterministic per seed: ``random.Random(seed)`` draws k colors per trial
    for all trials, then 2i per trial (first i-set, then second). The draws
    come in blocks of bounded size, so memory does not grow with ``trials``.
    """
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    if i < 1:
        raise ValueError(f"i must be at least 1, got {i}")
    if i > k:  # |e\f| <= k, which also keeps every drawn row within k colors
        raise ValueError(f"i must be at most k={k}, got {i}")
    if t < 1:
        raise ValueError(f"t must be at least 1, got {t}")
    if t > sys.maxsize:  # random.choices needs len(range(1, t + 1))
        raise ValueError(f"t must be at most {sys.maxsize} for sampling, got {t}")
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    rng = random.Random(seed)
    bad = sum(len(set(colors)) < k for colors in _color_rows(rng, t, k, trials))
    rainbow = same = 0
    i_sets = map(set, _color_rows(rng, t, i, 2 * trials))
    for first, second in zip(i_sets, i_sets):  # a trial's two i-sets, in draw order
        if len(first) == i:
            rainbow += 1
            same += first == second
    return bad / trials, same / rainbow if rainbow else 0.0


def _color_rows(rng: random.Random, t: int, width: int,
                rows: int) -> Iterator[tuple[int, ...]]:
    """``rows`` tuples of ``width`` colors from 1..t; blocking keeps the stream
    of one flat ``choices`` call, which draws one color at a time."""
    per_block = max(1, 65536 // width)
    for start in range(0, rows, per_block):
        block = rng.choices(range(1, t + 1), k=width * min(per_block, rows - start))
        yield from zip(*[iter(block)] * width)
