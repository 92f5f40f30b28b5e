"""Closed-form bounds, the exact rational certificate, and the Monte Carlo
cross-checks. Expected values were computed independently ahead of time and
are frozen here; all certificate decisions are exact rational arithmetic."""

import sys
import time
from fractions import Fraction
from math import comb, factorial, sqrt

import pytest
from hypothesis import example, given, settings, strategies as st

from harmcolor import (
    LclResult,
    bad_edge_prob_bound,
    bad_edge_prob_exact,
    lcl_condition,
    lcl_min_colors,
    lower_bound_colors,
    monte_carlo_event_probs,
    pattern_prob_bound,
    remark_bound,
    tau_grid_search,
    theorem_bound,
    theorem_ceil_colors,
)
from harmcolor.bounds import LCL_MAX_BITS, LCL_MAX_K, _float_root
from oracles import (naive_bad_edge_prob, naive_floor_root, naive_lcl_min_colors,
                     naive_lcl_slack, naive_lower_bound_colors, naive_monte_carlo_event_probs)


# ------------------------------------------------------------- input guards

def test_input_validation():
    for bad in [dict(k=1, delta=1, m=1), dict(k=2, delta=0, m=1),
                dict(k=2, delta=1, m=0), dict(k=2, delta=1, m=1, eps=-0.1),
                dict(k=2, delta=1, m=1, eps=float("nan")),
                dict(k=2, delta=1, m=1, eps=float("inf")), dict(k=2, delta=1, m=1, eps=10**400)]:
        with pytest.raises(ValueError):
            theorem_bound(**bad)
    with pytest.raises(ValueError):
        lcl_condition(2, 1, 1, t=0)
    with pytest.raises(ValueError):
        lcl_condition(2, 1, 1, t=10, tau=Fraction(1, 2))
    with pytest.raises(ValueError):
        lcl_min_colors(2, 1, 1, tau=Fraction(1))  # needs tau > 1
    for call in [lambda: lower_bound_colors(1, 1), lambda: lower_bound_colors(2, 0),
                 lambda: bad_edge_prob_exact(1, 2), lambda: bad_edge_prob_exact(2, 0),
                 lambda: bad_edge_prob_bound(1, 2), lambda: bad_edge_prob_bound(2, 0),
                 lambda: pattern_prob_bound(0, 2), lambda: pattern_prob_bound(1, 0),
                 lambda: tau_grid_search(2, 1, 1, denominator=0),
                 lambda: monte_carlo_event_probs(1, 1, 2, 10),
                 lambda: monte_carlo_event_probs(2, 0, 2, 10),
                 lambda: monte_carlo_event_probs(2, 1, 0, 10),
                 lambda: monte_carlo_event_probs(2, 1, 2, 0)]:
        with pytest.raises(ValueError, match="must be at least|must be positive"):
            call()


@pytest.mark.parametrize("call", [
    lambda: theorem_bound(2, 1, 1, 1e308),  # the product overflows to inf
    lambda: theorem_ceil_colors(2, 1, 1, 1e308),
    lambda: theorem_bound(2, 10**700, 1),  # the root leaves float range
    lambda: remark_bound(3, 10**400, 5),  # delta^2 does not fit a float
])
def test_closed_forms_beyond_float_range_are_value_errors(call):
    with pytest.raises(ValueError, match="beyond float range"):
        call()


# ------------------------------------------------------------ closed forms

def test_theorem_bound_frozen_values():
    assert theorem_bound(2, 1, 8, 0.0) == 8.0  # exact: 2 * sqrt(16)
    assert theorem_bound(3, 1, 18, 0.0) == 9.0  # exact: 1.5 * cbrt(216)
    assert theorem_bound(3, 2, 18, 0.0) == pytest.approx(
        11.33928944905386, rel=1e-12)
    assert theorem_bound(2, 3, 1000, 0.1) == pytest.approx(
        170.4112672331263, rel=1e-12)


def test_remark_bound_frozen_values():
    assert remark_bound(2, 1, 8) == 11.0  # 8 + 1 + 1 + 1, empty sum for k=2
    assert remark_bound(3, 1, 36) == pytest.approx(19.33928944905386, rel=1e-12)


def test_remark_dominates_theorem():
    for k in (2, 3, 4):
        for delta in (1, 2, 5):
            for m in (1, 10, 1000):
                assert remark_bound(k, delta, m) > theorem_bound(k, delta, m)


def test_theorem_ceil_is_the_ceiling():
    for k, delta, m, eps in [(2, 1, 8, 0.0), (3, 2, 18, 0.0), (2, 2, 10**6, 0.1),
                             (4, 3, 10**6, 0.1), (2, 3, 1000, 0.1)]:
        t = theorem_ceil_colors(k, delta, m, eps)
        v = theorem_bound(k, delta, m, eps)
        assert t - 1 < v <= t


@given(st.integers(1, 10**12), st.integers(2, 40) | st.integers(10**4, 3 * 10**4))
@example(10**12, 40)
@example(10**12 - 1, 3 * 10**4)
@settings(max_examples=150, deadline=None)
def test_float_root_of_a_perfect_power_is_exact(r, k):
    assert _float_root(r ** k, k) == r


@given(st.integers(1, 10**600) | st.integers(1, 2**64),
       st.integers(2, 40) | st.integers(10**4, 3 * 10**4))
@settings(max_examples=150, deadline=None)
def test_float_root_lies_at_its_floor_root(x, k):
    # 12 significant digits: in log space the error grows with log(root),
    # to about 1.1e-13 relative at roots near 1e298
    r = naive_floor_root(x, k)
    assert r * (1 - 1e-12) <= _float_root(x, k) <= (r + 1) * (1 + 1e-12)


def test_large_k_roots_answer_at_once():
    start = time.perf_counter()
    assert int(_float_root(factorial(20000), 20000)) == 7359
    assert theorem_bound(10**4, 1, 1) == 3684.587332938302
    assert time.perf_counter() - start < 1


def test_theorem_bound_monotone():
    for m1, m2 in [(10, 20), (100, 101)]:
        assert theorem_bound(3, 2, m1) < theorem_bound(3, 2, m2)
    assert theorem_bound(3, 1, 100) < theorem_bound(3, 2, 100)
    assert theorem_bound(3, 2, 100, 0.0) < theorem_bound(3, 2, 100, 0.2)


def test_lower_bound_frozen_values():
    assert lower_bound_colors(3, 1) == 3
    assert lower_bound_colors(2, 3) == 3
    assert lower_bound_colors(2, 7) == 5
    assert lower_bound_colors(2, 8) == 5
    assert lower_bound_colors(2, 10) == 5


@given(st.integers(2, 5), st.integers(1, 5000))
@settings(max_examples=80)
def test_lower_bound_is_tight(k, m):
    r = lower_bound_colors(k, m)
    assert r >= k and comb(r, k) >= m
    if r > k:
        assert comb(r - 1, k) < m


@pytest.mark.parametrize("k", range(2, 7))
def test_lower_bound_matches_the_linear_scan(k):
    for m in [*range(1, 3000), 10**5, 10**6 + 7]:
        assert lower_bound_colors(k, m) == naive_lower_bound_colors(k, m), (k, m)


# ---------------------------------------------------------- event bounds

def test_bad_edge_prob_exact_frozen():
    assert bad_edge_prob_exact(2, 2) == Fraction(1, 2)
    assert bad_edge_prob_exact(3, 3) == Fraction(7, 9)
    assert bad_edge_prob_exact(3, 2) == Fraction(1)  # t < k forces a repeat
    assert bad_edge_prob_exact(3, 10) == Fraction(7, 25)


def test_bad_edge_prob_exact_matches_the_product():
    for k in range(2, 13):
        for t in range(1, 61):
            assert bad_edge_prob_exact(k, t) == naive_bad_edge_prob(k, t), (k, t)


def test_bad_edge_prob_dominance_chain():
    # exact <= k(k-1)/(2t) <= k^2/t on the whole grid
    for k in range(2, 9):
        for t in range(1, 101):
            exact = bad_edge_prob_exact(k, t)
            mid = Fraction(k * (k - 1), 2 * t)
            assert exact <= mid <= bad_edge_prob_bound(k, t)


def test_pattern_prob_bound():
    assert pattern_prob_bound(1, 141) == Fraction(1, 141)
    assert pattern_prob_bound(2, 141) == Fraction(2, 19881)
    assert pattern_prob_bound(3, 141) == Fraction(6, 141**3)


# ------------------------------------------------------------- certificate

def test_lcl_condition_frozen_fractions():
    res = lcl_condition(2, 1, 1, t=30)
    assert isinstance(res, LclResult)
    assert res.holds is True and res.slack == Fraction(73, 225)
    res = lcl_condition(2, 1, 1, t=10)
    assert res.holds is False and res.slack == Fraction(-27, 25)


TAUS = st.none() | st.builds(lambda a, b: 1 + Fraction(a, b), st.integers(0, 200),
                             st.integers(1, 64))


@given(st.integers(2, 9), st.integers(1, 50), st.integers(1, 10**6), st.integers(1, 5000), TAUS)
@example(60, 7, 10**6, 10**9, None)
@example(200, 1, 1, 2 * 10**8, Fraction(201, 200))
@example(20, 10**150, 10**400, 10**350, Fraction(3, 2))
@example(300, 1, 1, 73271554, None)  # the least certified t at k = 300, and one below
@example(300, 1, 1, 73271553, None)
@settings(max_examples=300, deadline=None)
def test_lcl_condition_matches_the_fraction_oracle(k, delta, m, t, tau):
    res = lcl_condition(k, delta, m, t, tau)
    want = naive_lcl_slack(k, delta, m, t, Fraction(k, k - 1) if tau is None else tau)
    assert res.slack == want and res.holds is (want >= 0)


def test_certificate_calculators_cap_k():
    for call in (lambda k: lcl_condition(k, 1, 1, 10**12), lambda k: lcl_min_colors(k, 1, 1),
                 lambda k: tau_grid_search(k, 1, 1, 2)):
        with pytest.raises(ValueError, match=f"k up to {LCL_MAX_K}"):
            call(LCL_MAX_K + 1)
        with pytest.raises(ValueError, match=f"k up to {LCL_MAX_K}"):
            call(10**9)


def test_lcl_condition_caps_the_size_of_its_integers():
    # at k = 1000 and tau = 1000/999 the integers have about 1000 * (999 t).bit_length() bits
    below = (2 ** 262 - 1) // 999
    start = time.perf_counter()
    res = lcl_condition(LCL_MAX_K, 1, 1, below)
    assert time.perf_counter() - start < 5
    assert res.holds and 0 < res.slack < Fraction(1, LCL_MAX_K - 1)
    with pytest.raises(ValueError, match=f"integers up to {LCL_MAX_BITS} bits"):
        lcl_condition(LCL_MAX_K, 1, 1, below + 1)
    # a tau with many digits counts the same way, as does a huge m at small k
    tau = Fraction(10**75 + 1, 10**75)
    start = time.perf_counter()
    assert lcl_condition(LCL_MAX_K, 1, 1, 1, tau).holds is False
    assert time.perf_counter() - start < 5
    with pytest.raises(ValueError, match=f"integers up to {LCL_MAX_BITS} bits"):
        lcl_condition(LCL_MAX_K, 1, 1, 1, Fraction(10**79 + 1, 10**79))
    assert lcl_condition(2, 1, 2 ** 200_000, 2).holds is False
    with pytest.raises(ValueError, match=f"integers up to {LCL_MAX_BITS} bits"):
        lcl_condition(2, 1, 2 ** LCL_MAX_BITS, 2)


def test_lcl_condition_slack_is_monotone_in_t():
    previous = None
    for t in range(5, 200, 7):
        slack = lcl_condition(3, 2, 50, t).slack
        if previous is not None:
            assert slack > previous
        previous = slack


LCL_MIN_FROZEN = {
    (2, 1, 1): 21,
    (2, 2, 15): 53,
    (2, 3, 100): 107,
    (3, 1, 15): 66,
    (3, 2, 15): 141,
    (3, 3, 15): 224,
    (4, 2, 50): 326,
}


@pytest.mark.parametrize("key, expected", sorted(LCL_MIN_FROZEN.items()))
def test_lcl_min_colors_frozen(key, expected):
    k, delta, m = key
    t = lcl_min_colors(k, delta, m)
    assert t == expected
    assert lcl_condition(k, delta, m, t).holds
    assert not lcl_condition(k, delta, m, t - 1).holds


@given(st.integers(2, 4), st.integers(1, 4), st.integers(1, 500))
@settings(max_examples=40, deadline=None)
def test_lcl_min_is_minimal(k, delta, m):
    t = lcl_min_colors(k, delta, m)
    assert lcl_condition(k, delta, m, t).holds
    if t > 1:
        assert not lcl_condition(k, delta, m, t - 1).holds


@given(st.integers(2, 3), st.integers(1, 3), st.integers(1, 200), TAUS.filter(lambda tau: tau != 1))
@settings(max_examples=30, deadline=None)
def test_lcl_min_matches_the_upward_walk(k, delta, m, tau):
    tau = Fraction(k, k - 1) if tau is None else tau
    assert lcl_min_colors(k, delta, m, tau) == naive_lcl_min_colors(k, delta, m, tau)


@given(st.integers(2, 5), st.integers(1, 5), st.integers(1, 10**6), st.integers(1, 40))
@settings(max_examples=40, deadline=None)
def test_tau_grid_search_is_the_least_pair_on_the_grid(k, delta, m, denominator):
    # the search skips a tau whose certificate fails one below the best t so far
    taus = [1 + Fraction(j, denominator) for j in range(1, denominator + 1)]
    t, tau = min((lcl_min_colors(k, delta, m, tau), tau) for tau in taus)
    assert tau_grid_search(k, delta, m, denominator) == (tau, t)


def test_tau_grid_search_beats_the_default():
    tau, t = tau_grid_search(3, 2, 15, denominator=32)
    assert (tau, t) == (Fraction(49, 32), 140)
    assert lcl_min_colors(3, 2, 15) == 141  # default tau = 3/2 needs one more


# ----------------------------------------- certificate at the theorem scale

GRID_AT_MILLION = {
    # (k, delta) -> (t at eps=0.1, holds, slack as float)
    (2, 1): (3112, True, 0.16751475340501318),
    (2, 2): (4400, True, 0.16264462809917354),
    (2, 3): (5389, True, 0.1580040040189632),
    (3, 1): (378, True, 0.03866648070162809),
    (3, 2): (476, False, -0.022292888979615573),
    (3, 3): (545, False, -0.0800480259515424),
    (4, 1): (136, False, -0.2736913507817432),
    (4, 2): (161, False, -0.5659433717915414),
    (4, 3): (178, False, -0.8376100247524955),
}


@pytest.mark.parametrize("cell, expected", sorted(GRID_AT_MILLION.items()))
def test_certificate_at_theorem_palette_m_one_million(cell, expected):
    # The asymptotic palette only certifies once m is large enough; at m = 1e6
    # the k=2 column and (3,1) already work, the rest genuinely do not yet.
    k, delta = cell
    want_t, want_holds, want_slack = expected
    t = theorem_ceil_colors(k, delta, 10**6, 0.1)
    assert t == want_t
    res = lcl_condition(k, delta, 10**6, t)
    assert res.holds is want_holds
    assert float(res.slack) == pytest.approx(want_slack, rel=1e-9)


FIRST_CERTIFYING_M = {
    # eps = 0.1 throughout; the step where the theorem palette starts to certify
    (3, 2): 1_611_535,
    (3, 3): 4_403_521,
    (4, 1): 175_874_238,
    (4, 2): 1_618_111_919,
    (4, 3): 6_266_809_289,
}


@pytest.mark.parametrize("cell, m_star", sorted(FIRST_CERTIFYING_M.items()))
def test_first_certifying_m_boundaries(cell, m_star):
    k, delta = cell
    for m, want in [(m_star - 1, False), (m_star, True)]:
        t = theorem_ceil_colors(k, delta, m, 0.1)
        assert lcl_condition(k, delta, m, t).holds is want


DECADE_FIRST_HOLD = {
    # (k, delta, eps) -> first m in 10^1..10^8 where the theorem palette certifies
    (2, 1, 0.1): 10**4,
    (2, 2, 0.1): 10**4,
    (3, 1, 0.1): 10**6,
    (3, 2, 0.5): 10**5,
    (4, 1, 0.5): 10**7,
    (4, 2, 1.0): 10**7,
}


@pytest.mark.parametrize("key, first_m", sorted(DECADE_FIRST_HOLD.items()))
def test_decade_grid_first_hold(key, first_m):
    k, delta, eps = key
    held = [m for m in (10**p for p in range(1, 9))
            if lcl_condition(k, delta, m, theorem_ceil_colors(k, delta, m, eps)).holds]
    assert held and held[0] == first_m
    # once it certifies it stays certified on the rest of the decade grid
    assert held == [m for m in (10**p for p in range(1, 9)) if m >= first_m]


# recorded with the term-by-term Fraction sum, which took 21-29 s and 4.5-5.7 s
LCL_MIN_HOSTILE = int(
    "2105263157894736842105263157894736842105263157894736842105263157894736842105"
    "2631578947368421052631578947368421052631578947368421052631578947368421073831"
    "8535604919803107377198508085008590814583656403028685144746012597074953025082"
    "92204073777922691355247332418846335509289769937312202522372756224916883466")
GRID_HOSTILE_T = int(
    "1067067991347018841801846386671673475493426074349830987879982249703301112417"
    "64637671090441583180182359154957978696433408430331616208096")


def test_certificate_at_hostile_sizes_keeps_its_values():
    assert lcl_min_colors(20, 10**150, 10**400) == LCL_MIN_HOSTILE
    assert tau_grid_search(3, 3, 10**400, 64) == (Fraction(3, 2), GRID_HOSTILE_T)


# ------------------------------------------------------------- Monte Carlo

MC_ROWS = [
    # k, i, t
    (2, 1, 2),
    (3, 2, 3),
    (3, 2, 10),
    (4, 3, 8),
    (2, 1, 5),
]


@pytest.mark.parametrize("k, i, t", MC_ROWS)
def test_monte_carlo_matches_exact_within_4_sigma(k, i, t):
    trials = 100_000
    bad_est, pattern_est = monte_carlo_event_probs(k, i, t, trials, seed=20_240 + k)
    p = float(bad_edge_prob_exact(k, t))
    tol_bad = 4.0 * sqrt(p * (1.0 - p) / trials) or 1e-12
    assert abs(bad_est - p) <= tol_bad
    # given the first i-set is rainbow, the collision probability is exactly i!/t^i
    q = float(pattern_prob_bound(i, t))
    rainbow = 1.0
    for j in range(i):
        rainbow *= (t - j) / t
    n_eff = trials * rainbow
    tol_pattern = 4.0 * sqrt(q * (1.0 - q) / n_eff)
    assert abs(pattern_est - q) <= tol_pattern


def test_monte_carlo_degenerate_palette():
    bad_est, pattern_est = monte_carlo_event_probs(3, 2, 1, 500, seed=1)
    assert bad_est == 1.0  # one color cannot make a 3-edge rainbow
    assert pattern_est == 0.0  # the rainbow condition never occurs


def test_monte_carlo_keeps_the_stream_of_one_flat_draw():
    # both phases draw more colors than one block holds, so the blocks must join up seamlessly
    assert (monte_carlo_event_probs(3, 2, 7, 25_000, seed=3)
            == naive_monte_carlo_event_probs(3, 2, 7, 25_000, seed=3))


def test_monte_carlo_is_seeded():
    a = monte_carlo_event_probs(3, 2, 5, 2000, seed=9)
    assert a == monte_carlo_event_probs(3, 2, 5, 2000, seed=9)
    assert a != monte_carlo_event_probs(3, 2, 5, 2000, seed=10)


def test_monte_carlo_input_validation():
    assert monte_carlo_event_probs(2, 1, sys.maxsize, 10, seed=1) == (0.0, 0.0)
    with pytest.raises(ValueError, match="t must be at most"):
        monte_carlo_event_probs(2, 1, sys.maxsize + 1, 10)
    # a row holds 2i colors, so i is capped by k like the edge's own k colors
    assert monte_carlo_event_probs(3, 3, 5, 10, seed=1)
    with pytest.raises(ValueError, match="i must be at most k=3"):
        monte_carlo_event_probs(3, 4, 5, 10)


# ---------------------------------------------- documented formula defects

def test_asymptotic_palette_does_not_certify_k4_at_one_million():
    # worked "holds" example elsewhere notwithstanding, the exact certificate
    # fails by a wide margin at this scale; see the m* table above
    t = theorem_ceil_colors(4, 2, 10**6, 0.1)
    res = lcl_condition(4, 2, 10**6, t)
    assert res.holds is False
    assert float(res.slack) == pytest.approx(-0.5659433717915414, rel=1e-9)
