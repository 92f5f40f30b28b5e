"""Closed-form bounds for the harmonious number and the certificate inequality.

For a k-uniform hypergraph with m edges and maximum degree D, a uniformly
random t-coloring makes a fixed edge bad with probability at most k^2/t, and
makes two distinct edges with |e\\f| = i show the same pattern with probability
at most i!/t^i. Summing those bounds over the events near one vertex yields the
certificate inequality

    tau >= 1 + D*(k^2/t)*tau^k + D*m*(k!/t^k)*tau^k
             + sum_{i=1}^{k-1} D*(k*D/(k-i))*(i!/t^i)*tau^i

whose truth at some tau > 1 certifies that a harmonious t-coloring exists.
Everything feeding that go/no-go decision is exact: with tau = p/q and
L = lcm(1..k-1), both sides times q^k * L * t^k are integers, so the decision
is one integer comparison and the slack one exact Fraction. Only the two
real-valued closed forms (theorem_bound, remark_bound) use floating point.
They take their k-th roots in log space, so no radicand overflows; a perfect
k-th power gives an exact root (checked up to 10**12), any other radicand a
root good to at least 12 significant digits. The certificate calculators
refuse k above LCL_MAX_K with ValueError, and lcl_condition refuses a t or
tau whose integers would exceed LCL_MAX_BITS bits.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from functools import wraps
from math import ceil, comb, exp, factorial, inf, isfinite, lcm, log, perm
from typing import Callable, Iterator, NamedTuple


# The certificate's integers have about k * log2(q * t) bits, and one search
# evaluates it O(log t) times at O(k) products each: at k = 1000,
# lcl_min_colors answers in well under a second, and tau_grid_search in a few.
LCL_MAX_K = 1000

# lcl_condition takes its t and tau from the caller, so k alone does not bound
# its integers (see _lcl_bits). Its Horner pass and the gcd that reduces its
# slack both take time quadratic in their size. At this cap the slowest shape
# found, k = 1000 with a tau of 75-digit numerator and denominator, answers in
# about 0.7 s on a 2-vCPU VM, and k = 1000 at the default tau in 0.2 s.
LCL_MAX_BITS = 2 ** 18


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


def _float_root(x: int, k: int) -> float:
    """x**(1/k), taken in log space so that no radicand overflows. A perfect
    k-th power with a root up to 10**12 gives that root exactly, as the ceiling
    in theorem_ceil_colors needs: the float root rounds to it, and one integer
    power confirms it. Other roots are good to at least 12 significant digits."""
    root = exp(log(x) / k)
    r = round(root)
    return float(r) if r ** k == x else root


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
    return 1 - Fraction(perm(t, k), t ** k)


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


def _lcl_sides(k: int, delta: int, m: int,
               tau: Fraction) -> Callable[[int], tuple[int, int]]:
    """The certificate inequality at weight tau = p/q as a function of t that
    returns (lhs, rhs): both sides multiplied by D = L * (q*t)^k, where
    L = lcm(1..k-1), so that both are integers and lhs = tau * D. Term by
    term, with a = q*t:

        tau                                -> p * q^(k-1) * L * t^k
        1                                  -> L * a^k
        delta*(k^2/t)*tau^k                -> delta * k^2 * p^k * L * t^(k-1)
        delta*m*(k!/t^k)*tau^k             -> delta * m * k! * p^k * L
        delta*(k*delta/(k-i))*(i!/t^i)*tau^i
                                -> delta^2 * k * (L/(k-i)) * i! * p^i * a^(k-i)

    No coefficient depends on t, so they are built once; each t then costs one
    Horner pass in a over the 1 term and the i-sum, k products of the running
    sum by a, with no gcd and no Fraction."""
    p, q = tau.numerator, tau.denominator
    big_l = lcm(*range(1, k))
    top = p * q ** (k - 1) * big_l
    p_k_l = p ** k * big_l
    bad = delta * k * k * p_k_l
    pattern_k = delta * m * factorial(k) * p_k_l
    horner = [big_l]  # a^k's coefficient, then a^(k-i)'s for i = 1..k-1
    spread = delta * delta * k
    i_factorial_p_i = 1
    for i in range(1, k):
        i_factorial_p_i *= i * p
        horner.append(spread * (big_l // (k - i)) * i_factorial_p_i)

    def sides(t: int) -> tuple[int, int]:
        a = q * t
        total = 0
        for coefficient in horner:
            total = total * a + coefficient
        t_k1 = t ** (k - 1)
        return top * t_k1 * t, total * a + bad * t_k1 + pattern_k

    return sides


def check_certificate_k(k: int) -> None:
    """Raise ValueError for k above LCL_MAX_K, the certificate calculators' cap."""
    if k > LCL_MAX_K:
        raise ValueError(f"the certificate calculators take k up to {LCL_MAX_K}, got {k}")


def _check_certificate_inputs(k: int, delta: int, m: int) -> None:
    _check_inputs(k, delta, m)
    check_certificate_k(k)


def _lcl_bits(k: int, delta: int, m: int, t: int, tau: Fraction) -> int:
    """About the bit length of the largest integer that lcl_condition builds:
    the sides of _lcl_sides are sums of products of a k-th power of p or
    q*t (tau = p/q) with delta^2 or delta*m, and of factors that k bounds."""
    p, q = tau.numerator, tau.denominator
    return k * max(p, q * t).bit_length() + 2 * delta.bit_length() + m.bit_length()


def lcl_condition(k: int, delta: int, m: int, t: int,
                  tau: Fraction | None = None) -> LclResult:
    """Evaluate the certificate inequality exactly.

    Returns (holds, slack) where slack = tau - RHS; holds means slack >= 0.
    tau defaults to k/(k-1). Both sides are scaled to integers (see
    _lcl_sides), so holds is one integer comparison, and slack is the exact
    Fraction (lhs - rhs) / D. No floating point is involved, so the go/no-go
    answer cannot hinge on rounding. Raises ValueError when those integers
    would exceed LCL_MAX_BITS bits (see _lcl_bits).
    """
    _check_certificate_inputs(k, delta, m)
    if t < 1:
        raise ValueError(f"t must be at least 1, got {t}")
    tau = Fraction(k, k - 1) if tau is None else Fraction(tau)
    if tau < 1:
        raise ValueError(f"tau must be at least 1, got {tau}")
    bits = _lcl_bits(k, delta, m, t, tau)
    if bits > LCL_MAX_BITS:
        raise ValueError(f"the exact certificate takes integers up to {LCL_MAX_BITS} bits, "
                         f"about k * log2(max(p, q*t)) for tau = p/q; got {bits}")
    lhs, rhs = _lcl_sides(k, delta, m, tau)(t)
    slack = Fraction(tau.numerator * (lhs - rhs), tau.denominator * lhs)  # D = lhs / tau
    return LclResult(holds=lhs >= rhs, slack=slack)


def lcl_min_colors(k: int, delta: int, m: int, tau: Fraction | None = None) -> int:
    """Minimal t for which the certificate holds at tau (default k/(k-1)).

    The RHS is strictly decreasing in t and tends to 1 < tau, so a threshold
    exists. Requires tau > 1 — at tau = 1 the inequality is never satisfiable.
    """
    _check_certificate_inputs(k, delta, m)
    tau = Fraction(k, k - 1) if tau is None else Fraction(tau)
    if tau <= 1:
        raise ValueError(f"tau must exceed 1, got {tau}")
    return _least(_lcl_holds(k, delta, m, tau))


def _lcl_holds(k: int, delta: int, m: int, tau: Fraction) -> Callable[[int], bool]:
    sides = _lcl_sides(k, delta, m, tau)

    def holds(t: int) -> bool:
        lhs, rhs = sides(t)
        return lhs >= rhs

    return holds


def tau_grid_search(k: int, delta: int, m: int,
                    denominator: int = 16) -> tuple[Fraction, int]:
    """Search tau over {1 + j/denominator : j = 1..denominator} for the value
    minimizing lcl_min_colors; ties prefer smaller tau. The default k/(k-1) is
    not always optimal — e.g. (k=3, delta=2, m=15) certifies t=141 at tau=3/2
    but t=140 at tau=49/32.

    A tau whose certificate fails at the best t so far minus one cannot win
    (the certificate holds for every t from its least one up), so it costs
    one evaluation instead of a search."""
    _check_certificate_inputs(k, delta, m)
    if denominator < 1:
        raise ValueError(f"denominator must be positive, got {denominator}")
    best: tuple[int, Fraction] | None = None
    for j in range(1, denominator + 1):
        tau = 1 + Fraction(j, denominator)
        holds = _lcl_holds(k, delta, m, tau)
        if best is None or (best[0] > 1 and holds(best[0] - 1)):
            best = (_least(holds), tau)
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
