"""Acceptance criteria, one test per criterion.

Each test computes a (passed, detail) verdict, records it in the registry
(see conftest.py — the terminal summary prints one line per criterion), and
then asserts. Criterion 5 is expected to fail on five grid cells: the
asymptotic palette genuinely does not certify at m = 10^6 for those (k, delta)
— the slack is negative in exact arithmetic, not by rounding. See the README's
testing section for the first certifying m per cell.
"""

import random
import time
from itertools import combinations, product

from conftest import record

from harmcolor import (
    GeneratorConfig,
    Hypergraph,
    SolverConfig,
    bad_edge_prob_exact,
    builtin_instance,
    exact_harmonious_number,
    generate_random_bounded_degree,
    is_harmonious,
    lcl_condition,
    lcl_min_colors,
    local_bad_events,
    lower_bound_colors,
    main,
    max_degree,
    monte_carlo_event_probs,
    remark_bound,
    resample_solve,
    theorem_bound,
    theorem_ceil_colors,
)
from oracles import coloring_of, naive_h, naive_is_harmonious


def test_criterion_1_exact_oracle_goldens():
    cases = [
        (builtin_instance("cycle", 3), 3),
        (builtin_instance("path", 3), 3),
        (builtin_instance("matching", 2, k=2), 3),
        (builtin_instance("matching", 1, k=2), 2),
        (builtin_instance("matching", 1, k=3), 3),
        (builtin_instance("matching", 1, k=4), 4),
    ]
    failures = []
    started = time.perf_counter()
    for h, expected in cases:
        t0 = time.perf_counter()
        got = exact_harmonious_number(h)
        elapsed = time.perf_counter() - t0
        confirmed = naive_h(h)
        if got != expected or confirmed != expected or elapsed >= 1.0:
            failures.append((h, got, confirmed, expected, elapsed))
    detail = (f"{len(cases)} goldens, naive enumerator agrees, "
              f"{time.perf_counter() - started:.2f}s total")
    if failures:
        detail = f"mismatches: {failures}"
    record(1, not failures, detail)
    assert not failures, detail


def _small_instances():
    """Exhaustive family for the verifier-equivalence check.

    Bad edges are a per-edge predicate and pattern collisions a per-pair
    predicate, so all instances with m <= 2 over every n <= 6 cover each
    predicate exhaustively; the m = 3 layer over n <= 5 additionally covers
    multi-pair interaction (grouping, dedup, reported-once). The literal
    'every instance on n <= 6' is ~2^20 edge subsets and cannot meet the
    one-minute budget.
    """
    for k in (2, 3):
        for n in range(k, 7):
            pool = list(combinations(range(n), k))
            for m in (1, 2):
                for edges in combinations(pool, m):
                    yield Hypergraph(k, n, edges)
    for k in (2, 3):
        for n in range(k, 6):
            pool = list(combinations(range(n), k))
            for edges in combinations(pool, 3):
                yield Hypergraph(k, n, edges)


def test_criterion_2_verifier_equivalence_exhaustive():
    started = time.perf_counter()
    checked = 0
    disagreements = []
    for h in _small_instances():
        support = h.support
        # palettes t <= 4 are covered by enumerating all value assignments
        # from {1..4}: the verdict depends only on the assignment
        for values in product((1, 2, 3, 4), repeat=len(support)):
            c = coloring_of(4, h.n, dict(zip(support, values)))
            checked += 1
            if is_harmonious(h, c) != naive_is_harmonious(h, c):
                disagreements.append((h, values))
                if len(disagreements) > 3:
                    break
    elapsed = time.perf_counter() - started
    passed = not disagreements and elapsed < 60.0
    detail = f"{checked} colorings across the exhaustive family, {elapsed:.1f}s"
    if disagreements:
        detail = f"disagreements: {disagreements[:3]}"
    record(2, passed, detail)
    assert passed, detail


def test_criterion_3_local_count_bounds():
    rng = random.Random(12)
    violations = []
    checked = 0
    while checked < 500:
        k = rng.randint(2, 4)
        dmax = rng.randint(1, 4)
        n = rng.randint(k, 14)
        m_cap = (n * dmax) // k
        if m_cap < 1:
            continue
        m = rng.randint(1, m_cap)
        try:
            h = generate_random_bounded_degree(
                GeneratorConfig(k=k, n=n, m=m, max_degree=dmax, seed=checked))
        except Exception:
            continue  # rare dead-end configs; the count of checked stays exact
        checked += 1
        delta = max_degree(h)
        t = rng.randint(1, 2 * k)
        assignment = {v: rng.randint(1, t) for v in range(n)
                      if rng.random() < 0.9}  # partial colorings included
        c = coloring_of(t, n, assignment)
        for v in range(n):
            ev = local_bad_events(h, c, v)
            if len(ev.b1) > delta:
                violations.append((h, v, "b1"))
            for i in range(1, k):
                if len(ev.b2[i]) * (k - i) > k * delta * delta:
                    violations.append((h, v, f"b2[{i}]"))
            if len(ev.b2[k]) > delta * h.m:
                violations.append((h, v, "b2[k]"))
    detail = f"500 random instances, all vertices within the three count bounds"
    if violations:
        detail = f"violations: {violations[:5]}"
    record(3, not violations, detail)
    assert not violations, detail


def test_criterion_4_probability_bounds():
    from fractions import Fraction
    from math import sqrt

    grid_bad = [(k, t) for k in range(2, 9) for t in range(1, 101)
                if bad_edge_prob_exact(k, t) > Fraction(k * k, t)]
    mc_bad = []
    for k, t in [(2, 2), (3, 3), (3, 10), (4, 8), (2, 5)]:
        est, _ = monte_carlo_event_probs(k, 1, t, 100_000, seed=7 * k + t)
        p = float(bad_edge_prob_exact(k, t))
        tol = 4.0 * sqrt(p * (1.0 - p) / 100_000) or 1e-12
        if abs(est - p) > tol:
            mc_bad.append((k, t, est, p, tol))
    passed = not grid_bad and not mc_bad
    detail = ("exact dominance on the 7x100 grid; 5 Monte Carlo points "
              "within 4 sigma of the exact probabilities")
    if not passed:
        detail = f"grid violations: {grid_bad[:5]}; MC misses: {mc_bad}"
    record(4, passed, detail)
    assert passed, detail


def test_criterion_5_certificate_instantiation():
    m = 10**6
    eps = 0.1
    failing = []
    for k, delta in product((2, 3, 4), (1, 2, 3)):
        t = theorem_ceil_colors(k, delta, m, eps)
        res = lcl_condition(k, delta, m, t)
        if not res.holds:
            failing.append((k, delta, t, float(res.slack)))
    scan_ok = lcl_min_colors(2, 1, 1) == 21
    passed = not failing and scan_ok
    if passed:
        detail = "all 9 grid cells certify at m = 1e6; lcl_min_colors(2,1,1) = 21"
    else:
        cells = ", ".join(f"(k={k},d={d}) t={t} slack={s:.4f}"
                          for k, d, t, s in failing)
        detail = (f"{9 - len(failing)}/9 cells certify at m = 1e6; "
                  f"exact-arithmetic failures: {cells}; "
                  f"lcl_min_colors(2,1,1)=21 {'ok' if scan_ok else 'WRONG'}")
    record(5, passed, detail)
    assert passed, detail


def test_criterion_6_solver_soundness_and_termination():
    started = time.perf_counter()
    failures = []
    worst = 0
    for seed in range(50):
        h = generate_random_bounded_degree(
            GeneratorConfig(k=3, n=30, m=15, max_degree=3, seed=seed))
        t = lcl_min_colors(3, max_degree(h), 15)
        report = resample_solve(h, SolverConfig(t=t, seed=seed))  # budget 1e5*m
        worst = max(worst, report.resamples_total)
        if not report.success or not is_harmonious(h, report.coloring):
            failures.append(seed)
    elapsed = time.perf_counter() - started
    passed = not failures and elapsed < 300.0
    detail = (f"50/50 solves at the certified palette succeeded and verified; "
              f"worst case {worst} resamples, {elapsed:.1f}s total")
    if failures:
        detail = f"failing seeds: {failures}"
    record(6, passed, detail)
    assert passed, detail


def test_criterion_7_bound_arithmetic_goldens():
    problems = []
    if theorem_bound(2, 1, 8, 0.0) != 8.0:
        problems.append("theorem_bound(2,1,8,0) != 8")
    if remark_bound(2, 1, 8) != 11.0:
        problems.append("remark_bound(2,1,8) != 11")
    if lower_bound_colors(2, 10) != 5:
        problems.append("lower_bound_colors(2,10) != 5")
    rng = random.Random(99)
    for _ in range(100):
        k = rng.randint(2, 5)
        delta = rng.randint(1, 8)
        m = rng.randint(1, 10**6)
        if remark_bound(k, delta, m) < theorem_bound(k, delta, m, 0.0):
            problems.append(f"remark < theorem at {(k, delta, m)}")
    detail = "exact goldens hold; remark >= theorem on the 100-point grid"
    if problems:
        detail = "; ".join(problems)
    record(7, not problems, detail)
    assert not problems, detail


def test_criterion_8_determinism_of_output_files(tmp_path):
    inst = tmp_path / "inst.hg"
    assert main(["gen", "--k", "3", "--n", "18", "--m", "9", "--max-degree", "3",
                 "--seed", "21", "--output", str(inst)]) == 0
    col_a, col_b = tmp_path / "a.col", tmp_path / "b.col"
    assert main(["solve", "--input", str(inst), "--colors", "9", "--seed", "5",
                 "--output", str(col_a)]) == 0
    assert main(["solve", "--input", str(inst), "--colors", "9", "--seed", "5",
                 "--output", str(col_b)]) == 0
    import json
    spec = {"k": 2, "n": 10, "m": 6, "max_degree": 3, "trials": 4,
            "t_policy": "lcl-min", "base_seed": 3, "exact": True,
            "output": str(tmp_path / "x.csv")}
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(spec))
    assert main(["experiment", "--spec", str(spec_file)]) == 0
    first = (tmp_path / "x.csv").read_bytes()
    assert main(["experiment", "--spec", str(spec_file)]) == 0
    second = (tmp_path / "x.csv").read_bytes()
    solve_same = col_a.read_bytes() == col_b.read_bytes()
    exp_same = first == second
    passed = solve_same and exp_same
    detail = "solve and experiment reruns are bitwise-identical"
    if not passed:
        detail = f"solve identical: {solve_same}; experiment identical: {exp_same}"
    record(8, passed, detail)
    assert passed, detail
