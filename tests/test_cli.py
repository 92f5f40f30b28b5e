"""Command-line behaviors: exit codes, file round trips, output formats, and
the experiment harness's reproducibility contract."""

import ast
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import combinations
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import harmcolor
from harmcolor import (
    Coloring,
    ExperimentSpec,
    Hypergraph,
    builtin_instance,
    lcl_condition,
    lcl_min_colors,
    main,
    max_degree,
    parse_coloring,
    parse_hypergraph,
    serialize_coloring,
    serialize_hypergraph,
)
from harmcolor.bounds import LCL_MAX_BITS, LCL_MAX_GRID, LCL_MAX_K, LCL_MAX_WORK
from harmcolor.cli import SUBPARSERS, build_parser
from harmcolor.experiment import CSV_COLUMNS
from oracles import naive_bad_edges, naive_is_harmonious, naive_pattern_pairs


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "triangle.hg"
    path.write_text(serialize_hypergraph(builtin_instance("cycle", 3)))
    return path


def test_gen_round_trips_through_parse(tmp_path, capsys):
    out = tmp_path / "inst.hg"
    code = main(["gen", "--k", "3", "--n", "12", "--m", "6", "--max-degree", "2",
                 "--seed", "5", "--output", str(out)])
    assert code == 0
    assert "wrote" in capsys.readouterr().out
    h = parse_hypergraph(out.read_text())
    assert (h.k, h.n, h.m) == (3, 12, 6)
    # stdout mode emits the same text
    code = main(["gen", "--k", "3", "--n", "12", "--m", "6", "--max-degree", "2",
                 "--seed", "5"])
    assert code == 0
    assert parse_hypergraph(capsys.readouterr().out) == h


def test_gen_infeasible_is_a_usage_error(capsys):
    code = main(["gen", "--k", "2", "--n", "4", "--m", "7", "--max-degree", "3"])
    assert code == 2
    assert "infeasible" in capsys.readouterr().err
    # the degrees fit (400 <= 400), but 20 vertices hold only C(20, 2) = 190 edges
    code = main(["gen", "--k", "2", "--n", "20", "--m", "200", "--max-degree", "20"])
    assert code == 2
    assert "C(n, k) = 190" in capsys.readouterr().err


def test_gen_out_of_restarts_exits_1(capsys):
    # the config of test_generator_fails_when_its_restarts_run_out
    code = main(["gen", "--k", "2", "--n", "4", "--m", "4", "--max-degree", "2",
                 "--seed", "1", "--max-restarts", "0"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: no valid instance after 1 attempts (")


def test_solve_verify_happy_path(tmp_path, triangle_file, capsys):
    coloring_file = tmp_path / "out.col"
    code = main(["solve", "--input", str(triangle_file), "--colors", "3",
                 "--seed", "1", "--output", str(coloring_file)])
    assert code == 0
    out = capsys.readouterr().out
    assert "success=True" in out
    coloring, n = parse_coloring(coloring_file.read_text())
    assert n == 3 and coloring.t == 3
    assert main(["verify", "--input", str(triangle_file),
                 "--coloring", str(coloring_file)]) == 0
    assert "harmonious" in capsys.readouterr().out


def test_solve_writes_coloring_to_stdout_without_output(triangle_file, capsys):
    code = main(["solve", "--input", str(triangle_file), "--colors", "3"])
    assert code == 0
    captured = capsys.readouterr()
    coloring, n = parse_coloring(captured.out)
    assert n == 3
    assert "solve:" in captured.err  # the summary moves to stderr


def test_solve_budget_exhaustion_exits_1(tmp_path, capsys):
    path = tmp_path / "p4.hg"
    path.write_text(serialize_hypergraph(builtin_instance("path", 4)))
    code = main(["solve", "--input", str(path), "--colors", "2",
                 "--max-resamples", "500"])
    assert code == 1
    assert "budget exhausted" in capsys.readouterr().err


def test_solve_t_policy_flags(tmp_path, triangle_file, capsys):
    assert main(["solve", "--input", str(triangle_file),
                 "--t-policy", "lcl-min"]) == 0
    capsys.readouterr()
    # fixed policy without --colors, and --colors with a non-fixed policy
    assert main(["solve", "--input", str(triangle_file)]) == 2
    assert capsys.readouterr().err == "solve: --t-policy fixed needs --colors\n"
    assert main(["solve", "--input", str(triangle_file), "--colors", "3",
                 "--t-policy", "theorem-ceil"]) == 2
    assert capsys.readouterr().err == (
        "solve: --colors conflicts with --t-policy theorem-ceil; pick one\n")
    # the flags are checked before the instance is read
    missing = str(tmp_path / "missing.hg")
    assert main(["solve", "--input", missing]) == 2
    assert capsys.readouterr().err == "solve: --t-policy fixed needs --colors\n"
    assert main(["solve", "--input", missing, "--colors", "3", "--t-policy", "lcl-min"]) == 2
    assert capsys.readouterr().err == (
        "solve: --colors conflicts with --t-policy lcl-min; pick one\n")


@pytest.mark.parametrize("policy", ["lcl-min", "theorem-ceil"])
def test_solve_names_k_colors_for_an_edgeless_instance(tmp_path, capsys, policy):
    path = tmp_path / "empty.hg"
    path.write_text("p hg 3 5 0\n")
    assert main(["solve", "--input", str(path), "--t-policy", policy]) == 0
    captured = capsys.readouterr()
    assert " t=3 " in captured.err
    assert parse_coloring(captured.out)[0].t == 3


@pytest.mark.parametrize("policy, options, solve_argv", [
    ("fixed", {"t": 9}, ["--colors", "9"]),
    ("lcl-min", {}, []),
    ("theorem-ceil", {"eps": 0.1}, ["--eps", "0.1"])])
def test_experiment_and_solve_name_the_same_palette(tmp_path, capsys, policy, options,
                                                    solve_argv):
    """An experiment row and gen + solve at the row's seed report the same t
    and the same resample count: both commands read the palette off the
    instance by one rule."""
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(spec_dict(
        tmp_path, k=3, n=24, m=12, max_degree=3, trials=1, t_policy=policy, exact=False,
        **{"eps": ABSENT, **options})))
    assert main(["experiment", "--spec", str(spec_file)]) == 0
    lines = (tmp_path / "rows.csv").read_text().splitlines()
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    instance = tmp_path / "h.txt"
    assert main(["gen", "--k", "3", "--n", "24", "--m", "12", "--max-degree", "3",
                 "--seed", row["seed"], "--output", str(instance)]) == 0
    capsys.readouterr()
    assert main(["solve", "--input", str(instance), "--t-policy", policy, "--seed", row["seed"],
                 *solve_argv, "--output", str(tmp_path / "c.txt")]) == 0
    summary = capsys.readouterr().out.splitlines()[0].removeprefix("solve: ")
    fields = dict(field.split("=") for field in summary.split())
    assert (fields["t"], fields["resamples_total"]) == (row["t"], row["resamples"])


def test_verify_reports_offenders_and_exits_1(tmp_path, triangle_file, capsys):
    bad = tmp_path / "bad.col"
    bad.write_text("c 3 3\nv 0 1\nv 1 1\nv 2 2\n")
    code = main(["verify", "--input", str(triangle_file), "--coloring", str(bad)])
    assert code == 1
    out = capsys.readouterr().out
    assert "bad edge 0" in out
    pattern = tmp_path / "pattern.col"
    pattern.write_text("c 3 3\nv 0 1\nv 1 2\nv 2 1\n")  # edges (0,1),(1,2) collide
    code = main(["verify", "--input", str(triangle_file),
                 "--coloring", str(pattern)])
    assert code == 1
    assert "same pattern" in capsys.readouterr().out


def test_verify_report_on_shared_key_groups_is_pinned(tmp_path, capsys):
    # edges 0, 1, 2 share the rainbow key (1, 2, 3); the bad edges 3, 4, 6
    # share the key (1, 2), where only 3-4 and 4-6 show the same pattern
    h = Hypergraph(3, 15, [(0, 1, 2), (0, 3, 4), (5, 6, 7), (8, 9, 10), (11, 12, 13),
                           (5, 8, 11), (9, 12, 13), (0, 6, 14)])
    colors = [1, 2, 3, 2, 3, 1, 2, 3, 1, 1, 2, 1, 2, 2, 4]
    instance, coloring = tmp_path / "shared.hg", tmp_path / "shared.col"
    instance.write_text(serialize_hypergraph(h))
    coloring.write_text(serialize_coloring(Coloring(t=4, colors=colors), h.n))
    assert main(["verify", "--input", str(instance), "--coloring", str(coloring)]) == 1
    out = capsys.readouterr().out
    assert out.splitlines()[4:] == [
        "same pattern: edges 0 and 1 (|e\\f| = 2)",
        "same pattern: edges 0 and 2 (|e\\f| = 3)",
        "same pattern: edges 1 and 2 (|e\\f| = 3)",
        "same pattern: edges 3 and 4 (|e\\f| = 3)",
        "same pattern: edges 4 and 6 (|e\\f| = 1)",
    ]
    # the whole report byte for byte, as recorded when every key group was a list
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "a465074e63997ca1ccae405eedba47f4d768da83ce8c3bb02a25ae38544a4ddc")


def test_verify_partial_coloring_is_a_format_problem(tmp_path, triangle_file, capsys):
    partial = tmp_path / "partial.col"
    partial.write_text("c 3 3\nv 0 1\n")
    code = main(["verify", "--input", str(triangle_file),
                 "--coloring", str(partial)])
    assert code == 3
    assert capsys.readouterr() == (
        "", "verify: partial coloring: vertex 1 lies in an edge but has no color\n")


def test_verify_n_mismatch(tmp_path, triangle_file, capsys):
    other = tmp_path / "other.col"
    other.write_text("c 3 5\nv 0 1\nv 1 2\nv 2 3\nv 3 1\nv 4 2\n")
    code = main(["verify", "--input", str(triangle_file), "--coloring", str(other)])
    assert code == 3
    assert capsys.readouterr() == (
        "", "verify: coloring has n=5 but the instance has n=3\n")


def test_missing_and_malformed_files_exit_3(tmp_path, capsys):
    assert main(["exact", "--input", str(tmp_path / "nope.hg")]) == 3
    broken = tmp_path / "broken.hg"
    broken.write_text("p hg 2 3 1\ne 0 9\n")
    assert main(["exact", "--input", str(broken)]) == 3
    assert "line 2" in capsys.readouterr().err


def test_vertex_counts_too_large_for_memory_exit_3(tmp_path, capsys):
    # a list of 2**62 slots is refused at once, before any memory is touched
    huge = str(2 ** 62)
    instance = tmp_path / "huge.hg"
    instance.write_text(f"p hg 2 {huge} 0\n")
    coloring = tmp_path / "huge.col"
    coloring.write_text(f"c 1 {huge}\n")
    assert main(["verify", "--input", str(instance), "--coloring", str(coloring)]) == 3
    assert capsys.readouterr().err == "error: out of memory\n"
    assert main(["gen", "--n", huge, "--m", "1", "--max-degree", "1", "--k", "2"]) == 3
    assert capsys.readouterr().err == "error: out of memory\n"
    # solve's first list of n slots is the incidence's, allocated in one piece
    assert main(["solve", "--input", str(instance), "--t-policy", "lcl-min"]) == 3
    assert capsys.readouterr().err == "error: out of memory\n"
    # the instance itself holds no list of n slots, and an edgeless one needs no colors
    assert main(["exact", "--input", str(instance)]) == 0
    assert capsys.readouterr() == ("0\n", "")


@pytest.mark.parametrize("n, err", [
    (2 ** 63, f"error: line 1: vertex count must be at most {sys.maxsize}, got {2 ** 63}\n"),
    (2 ** 62, "error: out of memory\n"),
])
def test_coloring_headers_too_large_for_memory_exit_3(tmp_path, triangle_file, capsys, n, err):
    # the color list of the header's n is allocated before n meets the instance's
    coloring = tmp_path / "huge.col"
    coloring.write_text(f"c 1 {n}\n")
    assert main(["verify", "--input", str(triangle_file), "--coloring", str(coloring)]) == 3
    assert capsys.readouterr().err == err


@pytest.mark.parametrize("collecting", [True, False])
def test_main_restores_the_collectors_state_on_every_return(tmp_path, triangle_file, capsys,
                                                            collecting):
    # main runs each command with the cyclic collector off; it must hand back
    # the state it found, or every later call in the process runs without it
    broken = tmp_path / "broken.hg"
    broken.write_text("p hg 2 3 1\ne 0 9\n")
    runs = [
        (["exact", "--input", str(triangle_file)], 0),
        (["solve", "--input", str(triangle_file)], 2),  # fixed policy without --colors
        (["exact", "--input", str(broken)], 3),
        (["exact", "--input", str(triangle_file), "--node-budget", "1"], 1),
        (["--help"], 0),  # argparse's SystemExit
    ]
    before = gc.isenabled()
    try:
        (gc.enable if collecting else gc.disable)()
        for argv, code in runs:
            assert main(argv) == code
            assert gc.isenabled() == collecting, argv
    finally:
        (gc.enable if before else gc.disable)()
    capsys.readouterr()

def test_exact_prints_the_harmonious_number(triangle_file, capsys):
    assert main(["exact", "--input", str(triangle_file)]) == 0
    assert capsys.readouterr().out.strip() == "3"


def test_exact_node_budget_exhaustion_exits_1(triangle_file, capsys):
    assert main(["exact", "--input", str(triangle_file), "--node-budget", "1"]) == 1
    assert "budget" in capsys.readouterr().err


def test_exact_negative_node_budget_is_a_usage_error(triangle_file, capsys):
    assert main(["exact", "--input", str(triangle_file), "--node-budget", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: node budget must be nonnegative, got -1\n"


def test_exact_on_a_deep_matching_prints_the_counting_bound(tmp_path, capsys):
    # 2,400 support vertices, more than the recursion limit; h is the counting bound
    path = tmp_path / "matching.hg"
    path.write_text(serialize_hypergraph(builtin_instance("matching", 1200, k=2)))
    assert main(["exact", "--input", str(path)]) == 0
    assert capsys.readouterr().out == "50\n"


def test_exact_on_a_huge_matching_exits_1_on_its_budget(tmp_path, capsys):
    path = tmp_path / "matching.hg"
    path.write_text(serialize_hypergraph(builtin_instance("matching", 10**5, k=2)))
    assert main(["exact", "--input", str(path), "--node-budget", "100000"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: node budget exhausted at t=448; the answer is unknown\n"


def test_bound_table_golden(capsys):
    assert main(["bound", "--k", "2", "--delta", "1", "--m", "8"]) == 0
    lines = capsys.readouterr().out.splitlines()
    table = dict(line.split() for line in lines)
    assert table["theorem"] == "8"
    assert table["remark"] == "11"
    assert table["lower"] == "5"
    assert table["lcl_min"] == "23"  # 1 >= 20/t + 64/t^2 first holds at t = 23


def test_bound_csv_with_certificate_columns(capsys):
    assert main(["bound", "--k", "3", "--delta", "2", "--m", "15",
                 "--t", "141", "--format", "csv"]) == 0
    header, values = capsys.readouterr().out.splitlines()
    row = dict(zip(header.split(","), values.split(",")))
    assert row["lcl_min"] == "141"
    assert row["lcl_holds_t141"] == "true"
    assert row["bad_edge_bound_t141"] == "3/47"
    assert row["pattern_bound_i2_t141"] == "2/19881"


def test_bound_tau_grid_and_monte_carlo(capsys):
    assert main(["bound", "--k", "3", "--delta", "2", "--m", "15",
                 "--tau-grid", "32"]) == 0
    out = capsys.readouterr().out
    assert "49/32" in out and "140" in out
    assert main(["bound", "--k", "2", "--delta", "1", "--m", "8",
                 "--t", "4", "--mc-trials", "2000", "--mc-i", "1"]) == 0
    out = capsys.readouterr().out
    assert "mc_bad_edge_t4" in out and "mc_pattern_i1_t4" in out


def test_bound_mc_without_t_is_a_usage_error(capsys):
    assert main(["bound", "--k", "2", "--delta", "1", "--m", "8",
                 "--mc-trials", "10"]) == 2


def test_usage_errors_exit_2(capsys):
    assert main(["solve"]) == 2  # missing --input
    assert main(["frobnicate"]) == 2  # unknown subcommand
    assert main(["gen", "--k", "1", "--n", "3", "--m", "1",
                 "--max-degree", "1"]) == 2  # k < 2


def test_vertex_counts_beyond_the_index_range_are_rejected(tmp_path, capsys):
    # no list can have 2**63 slots: the size check comes before any allocation
    huge = str(sys.maxsize + 1)
    instance = tmp_path / "huge.hg"
    instance.write_text(f"# too many vertices\np hg 2 {huge} 0\n")
    assert main(["exact", "--input", str(instance)]) == 3
    assert capsys.readouterr().err == (
        f"error: line 2: vertex count must be at most {sys.maxsize}, got {huge}\n")
    assert main(["gen", "--k", "2", "--n", huge, "--m", "1", "--max-degree", "1"]) == 2
    assert capsys.readouterr().err == (
        f"error: vertex count must be at most {sys.maxsize}, got {huge}\n")


def test_bound_refuses_a_huge_tau_exponent_at_once(capsys):
    # Fraction would compute 10**1000000000 before any check could run
    start = time.perf_counter()
    assert main(["bound", "--k", "2", "--delta", "1", "--m", "8", "--tau", "1e1000000000"]) == 2
    assert time.perf_counter() - start < 1
    assert "exponent beyond" in capsys.readouterr().err


def test_bound_answers_a_huge_m_at_once(capsys):
    m = 10**400  # a linear scan for the counting bound would not finish
    assert main(["bound", "--k", "3", "--delta", "3", "--m", str(m)]) == 0
    rows = dict(line.split() for line in capsys.readouterr().out.splitlines())
    assert set(rows) == {"theorem", "remark", "lower", "lcl_min"}
    lower = int(rows["lower"])
    assert comb(lower, 3) >= m > comb(lower - 1, 3)


def test_bound_at_the_certificate_cap_answers_in_seconds(capsys):
    start = time.perf_counter()
    assert main(["bound", "--k", str(LCL_MAX_K), "--delta", "1", "--m", "1"]) == 0
    assert time.perf_counter() - start < 5
    rows = dict(line.split() for line in capsys.readouterr().out.splitlines())
    assert rows["lcl_min"] == "2716923576"


@pytest.mark.parametrize("k", [LCL_MAX_K + 1, 10**9])
def test_bound_above_the_certificate_cap_exits_2_at_once(k, capsys):
    # k = 10**9 would spend hours in factorial(k) if the cap came after the closed forms
    start = time.perf_counter()
    assert main(["bound", "--k", str(k), "--delta", "1", "--m", "1"]) == 2
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == (
        f"error: the certificate calculators take k up to {LCL_MAX_K}, got {k}\n")


@pytest.mark.parametrize("denominator", [10**8, 2**200])
def test_bound_with_a_tau_grid_above_its_cap_exits_2_at_once(denominator, capsys):
    # a grid of 10**8 points ran for more than 10 s, one of 2**200 would never finish
    start = time.perf_counter()
    assert main(["bound", "--k", "2", "--delta", "1", "--m", "1",
                 "--tau-grid", str(denominator)]) == 2
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == (
        f"error: tau_grid_search takes k * denominator up to {LCL_MAX_GRID}, "
        f"got 2 * {denominator}\n")


def work_refusal(search: str, k: int, delta: int | str, m: int) -> str:
    """The start of the work meter's refusal of a search at (k, delta, m),
    where an input beyond 256 bits is named by its bit length."""
    return (f"error: {search} stopped at k={k}, delta={delta}, m={m}: "
            f"the certificate's searches take work up to {LCL_MAX_WORK} ")


def test_bound_with_a_tau_grid_beyond_its_work_cap_exits_2(capsys):
    # the search needs more work than the cap; it is refused once its charged
    # work would pass the cap
    assert main(["bound", "--k", "100", "--delta", str(10**86), "--m", str(10**6),
                 "--tau-grid", "64"]) == 2
    assert capsys.readouterr().err.startswith(work_refusal(  # 10**86 has 286 bits
        "the tau-grid search (tau_grid_search)", 100, "a 286-bit integer", 10**6))


@pytest.mark.parametrize("delta, grid", [(10**60, []), (10**30, ["--tau-grid", "65"])],
                         ids=["lcl-min-delta1e60", "tau-grid-delta1e30"])
def test_bound_with_a_certificate_search_beyond_its_work_cap_exits_2(delta, grid, capsys):
    # without the meter lcl_min_colors ran 51 s at delta = 10**60 and answered,
    # and the two searches at delta = 10**30 took 11.1 s; bound runs the
    # least-palette search first, and here it is the one refused, so the
    # message tells that the grid never ran
    start = time.perf_counter()
    assert main(["bound", "--k", "1000", "--delta", str(delta), "--m", str(10**6)] + grid) == 2
    assert time.perf_counter() - start < 10
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(work_refusal(
        "the least-palette search (lcl_min_colors)", 1000, delta, 10**6))


def test_bound_answers_a_tau_grid_that_improved_at_every_point(capsys):
    # on this grid, which improves on its t at every point, a search of every
    # grid point took 7.1 s and was refused at the work cap
    assert main(["bound", "--k", "2", "--delta", "1", "--m", str(10**400),
                 "--tau-grid", "3200"]) == 0
    row = dict(line.split(None, 1) for line in capsys.readouterr().out.splitlines())
    tau, t = Fraction(row["tau_grid_best_tau"]), int(row["tau_grid_best_t"])
    assert lcl_condition(2, 1, 10**400, t, tau).holds
    assert not lcl_condition(2, 1, 10**400, t - 1, tau).holds


def test_bound_with_a_t_above_the_integer_cap_exits_2_at_once(capsys):
    # the exact slack at this t would take seconds to reduce
    start = time.perf_counter()
    assert main(["bound", "--k", str(LCL_MAX_K), "--delta", "1", "--m", "1",
                 "--t", str(10**400)]) == 2
    assert time.perf_counter() - start < 3
    assert capsys.readouterr().err.startswith(
        f"error: the exact certificate takes integers up to {LCL_MAX_BITS} bits")
    assert main(["bound", "--k", "3", "--delta", "3", "--m", "100", "--t", str(10**20)]) == 0
    assert "lcl_holds_t" in capsys.readouterr().out


@pytest.mark.parametrize("k, t", [(1000, 100_000), (20, 10**300)], ids=["k1000", "t10e300"])
def test_bound_with_exact_values_too_long_to_print_names_t(k, t, capsys):
    # both t pass the integer cap, but rows such as pattern_bound_i{k} have over 4300 digits
    assert main(["bound", "--k", str(k), "--delta", "1", "--m", "1", "--t", str(t)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: --t is too large at k={k}: "
                            "an exact value has too many digits to print\n")


def test_solve_lcl_min_above_the_certificate_cap_exits_2_at_once(tmp_path, capsys):
    k = LCL_MAX_K + 1
    path = tmp_path / "wide.hg"
    path.write_text(serialize_hypergraph(Hypergraph(k, k, [tuple(range(k))])))
    start = time.perf_counter()
    assert main(["solve", "--input", str(path), "--t-policy", "lcl-min"]) == 2
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == (
        f"error: the certificate calculators take k up to {LCL_MAX_K}, got {k}\n")


BOUND = ["bound", "--k", "2", "--delta", "1", "--m", "8"]


@pytest.mark.parametrize("argv, needle", [
    (BOUND + ["--t", "4", "--tau", "1/0"], "not a rational number: '1/0'"),
    (BOUND + ["--tau", "3/0"], "not a rational number: '3/0'"),
    (BOUND + ["--eps", "nan"], "eps must be a finite nonnegative number, got nan"),
    (BOUND + ["--eps", "inf"], "eps must be a finite nonnegative number, got inf"),
    (BOUND + ["--t", str(sys.maxsize + 1), "--mc-trials", "10"], "t must be at most"),
], ids=["tau-1/0", "tau-3/0-without-t", "eps-nan", "eps-inf", "t-2**63-mc"])
def test_non_finite_or_oversized_bound_numbers_exit_2(argv, needle, capsys):
    assert main(argv) == 2
    assert needle in capsys.readouterr().err


@pytest.mark.parametrize("argv, beyond", [
    (["bound", "--k", "3", "--delta", str(10**200), "--m", str(10**6)], {"remark"}),
    (["bound", "--k", "3", "--delta", str(10**400), "--m", "5"], {"remark"}),
    (BOUND + ["--eps", "1e308"], {"theorem"}),
], ids=["delta-1e200", "delta-1e400", "eps-1e308"])
def test_bound_prints_a_closed_form_beyond_float_range_as_a_row(argv, beyond, capsys):
    # the exact rows still answer: lcl_min is the exact certificate's least t
    assert main(argv) == 0
    rows = dict(line.split(None, 1) for line in capsys.readouterr().out.splitlines())
    assert {name for name, value in rows.items() if value == "beyond float range"} == beyond
    k, delta, m = (int(argv[argv.index(flag) + 1]) for flag in ("--k", "--delta", "--m"))
    assert int(rows["lcl_min"]) == lcl_min_colors(k, delta, m)


@pytest.mark.parametrize("eps", ["inf", "1e308"])
def test_theorem_ceil_policy_with_a_non_finite_palette_exits_2(triangle_file, capsys, eps):
    assert main(["solve", "--input", str(triangle_file), "--t-policy", "theorem-ceil",
                 "--eps", eps]) == 2
    assert capsys.readouterr().err.startswith("error: ")


# ------------------------------------------------------------- fuzzing

# a valid bound argv, then hostile numbers in its options
JUNK = ["nan", "inf", "-inf", "3/2", "1/0", "0", "-1", "x", ""]
SMALL = st.sampled_from(JUNK) | st.integers(-3, 10**6).map(str)
NUMBERS = (st.sampled_from(JUNK + [str(10**30), str(sys.maxsize + 1), str(10**400)])
           | st.integers(-3, 10**6).map(str))
NUMBER_FLAGS = ("--delta", "--m", "--t", "--eps", "--tau")
BOUND_BASE = {"--k": "3", "--delta": "2", "--m": "15", "--t": "141", "--eps": "0.1",
              "--tau": "3/2", "--mc-trials": "100"}
# the caps, and small numbers where several options change at once, keep each run
# short: a large k or delta is real work. The grid's cap refuses a huge k * denominator
# at once, and the certificate's work cap ends any search in seconds; at k = 3 a token
# of 10**400 in --delta, where a closed form leaves float range, costs the exact rows
# about 0.2 s, and the largest grid allowed at delta = m = 10**6 a few milliseconds
BOUND_VALUES = {flag: SMALL for flag in NUMBER_FLAGS}
BOUND_VALUES["--k"] = st.integers(-2, 100).map(str) | st.sampled_from(["nan", "3/2", "1/0", "x"])
BOUND_VALUES["--tau-grid"] = NUMBERS
BOUND_VALUES["--mc-trials"] = st.integers(-1, 1000).map(str)


def option_argv(command: str, options: dict) -> list:
    """The argv of a command and an option -> value map; a None value drops the option."""
    return [command] + [token for flag, value in options.items() if value is not None
                        for token in (flag, value)]


@st.composite
def option_edits(draw, values: dict, kept: tuple = ()):
    """One to three options of values, each set to one of its values or,
    unless it is kept, dropped."""
    flags = draw(st.lists(st.sampled_from(sorted(values)), min_size=1, max_size=3, unique=True))
    return {flag: draw(values[flag] if flag in kept else st.none() | values[flag])
            for flag in flags}


@given(NUMBERS, option_edits(BOUND_VALUES))
@settings(max_examples=25, deadline=None)
def test_bound_exits_with_a_contract_code_on_any_numbers(token, edits):
    # the token (up to 10**400) in each number option of a valid argv, then the edits
    argvs = [option_argv("bound", {**BOUND_BASE, flag: token}) for flag in NUMBER_FLAGS]
    for argv in argvs + [option_argv("bound", {**BOUND_BASE, **edits})]:
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in (0, 1, 2, 3)
        if code == 0:  # a success prints finite values only
            values = {line.split()[-1] for line in out.getvalue().splitlines()}
            assert not values & {"nan", "inf"}


# a small instance file (or junk) and a node budget (or junk) for exact
INSTANCE_TEXT = (st.builds(lambda edges: serialize_hypergraph(Hypergraph(2, 7, edges)),
                           st.lists(st.sampled_from(list(combinations(range(7), 2))),
                                    max_size=8, unique=True))
                 | st.builds(lambda edges: serialize_hypergraph(Hypergraph(3, 7, edges)),
                             st.lists(st.sampled_from(list(combinations(range(7), 3))),
                                      max_size=6, unique=True))
                 | st.sampled_from(["", "p hg 2 3 1\ne 0 0\n", "p hg 1 2 0\n", "x\n"]))
BUDGETS = st.sampled_from(JUNK + ["0", str(10**400)]) | st.integers(-3, 10**4).map(str)


@given(INSTANCE_TEXT, st.none() | BUDGETS)
@settings(max_examples=60, deadline=None)
def test_exact_exits_with_a_contract_code_on_any_argv(text, budget):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "instance.hg"
        path.write_text(text)
        argv = ["exact", "--input", str(path)]
        if budget is not None:
            argv += ["--node-budget", budget]
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = main(argv)
    assert code in (0, 1, 2, 3)
    if code == 0:
        assert out.getvalue().strip().isdigit()


def hostile(values: st.SearchStrategy) -> st.SearchStrategy:
    """An option's values as text, or, a third of the time, junk."""
    return values.map(str) | values.map(str) | st.sampled_from(JUNK)


# a valid solve argv, then edits; without a budget cap, an infeasible fixed palette
# would run 10**5 resamples per edge, so --max-resamples is never dropped
SOLVE_BASE = {"--t-policy": "fixed", "--colors": "4", "--eps": "0.1", "--seed": "0",
              "--max-resamples": "200", "--scan": "deterministic"}
SOLVE_VALUES = {
    "--t-policy": st.sampled_from(["fixed", "lcl-min", "theorem-ceil", "magic"]),
    "--colors": hostile(st.integers(-1, 12)),
    "--eps": st.sampled_from(JUNK + ["0.1", "1e308"]) | st.integers(-1, 10**6).map(str),
    "--seed": hostile(st.integers(-3, 10**6)),
    "--max-resamples": hostile(st.integers(-1, 200)),
    "--scan": st.sampled_from(["deterministic", "random", "sideways"]),
}


@st.composite
def coloring_texts(draw):
    """A coloring file for the 7-vertex instances of INSTANCE_TEXT, possibly
    with vertices left out or the wrong vertex count, or junk."""
    t, n = draw(st.integers(1, 8)), draw(st.sampled_from([7, 7, 7, 6]))
    colors = draw(st.lists(st.integers(1, t), min_size=n, max_size=n))
    left_out = draw(st.just(set()) | st.just(set()) | st.sets(st.integers(0, n - 1), max_size=2))
    lines = [f"v {v} {c}" for v, c in enumerate(colors) if v not in left_out]
    return "\n".join([f"c {t} {n}"] + lines) + "\n"


COLORING_TEXT = coloring_texts() | st.sampled_from(["", "c 0 7\n", "c 3 7\nv 9 1\n", "x\n"])


@given(INSTANCE_TEXT, option_edits(SOLVE_VALUES, kept=("--max-resamples",)), COLORING_TEXT)
@settings(max_examples=60, deadline=None)
def test_solve_and_verify_exit_with_a_contract_code_on_any_argv(text, edits, coloring_text):
    with tempfile.TemporaryDirectory() as tmp:
        instance, coloring = Path(tmp) / "instance.hg", Path(tmp) / "out.col"
        instance.write_text(text)
        verify = ["verify", "--input", str(instance), "--coloring", str(coloring)]
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = main(option_argv("solve", {"--input": str(instance), **SOLVE_BASE, **edits,
                                              "--output": str(coloring)}))
            assert code in (0, 1, 2, 3)
            if code == 0:  # a solved coloring passes verify
                assert main(verify) == 0
            coloring.write_text(coloring_text)
        report = io.StringIO()
        with redirect_stdout(report), redirect_stderr(io.StringIO()):
            code = main(verify)
    assert code in (0, 1, 2, 3)
    if code in (0, 1):  # verify judged the coloring: so must the oracle
        h, (judged, _) = parse_hypergraph(text), parse_coloring(coloring_text)
        assert naive_is_harmonious(h, judged) == (code == 0)
    if code == 1:  # the report lists the oracles' bad edges, then their pairs
        colors = judged.colors
        assert report.getvalue().splitlines() == [
            f"bad edge {idx}: vertices {h.edges[idx]} colored "
            f"{tuple(colors[v] for v in h.edges[idx])}" for idx in naive_bad_edges(h, judged)
        ] + [f"same pattern: edges {e} and {f} (|e\\f| = {i})"
             for e, f, i in naive_pattern_pairs(h, judged)]


# a valid gen argv, then edits; sizes stay small enough to allocate, and
# --max-restarts is never dropped, as 100 restarts per edge of a hopeless
# instance would run for minutes
GEN_BASE = {"--k": "3", "--n": "30", "--m": "12", "--max-degree": "2", "--seed": "0",
            "--max-restarts": "20"}
GEN_VALUES = {
    "--k": hostile(st.integers(-1, 5)),
    "--n": hostile(st.integers(-1, 10**4)),
    "--m": hostile(st.integers(-1, 200)),
    "--max-degree": hostile(st.integers(-1, 8)),
    "--seed": hostile(st.integers(-3, 10**6)),
    "--max-restarts": hostile(st.integers(-1, 20)),
}


@given(option_edits(GEN_VALUES, kept=("--max-restarts",)))
@settings(max_examples=60, deadline=None)
def test_gen_exits_with_a_contract_code_on_any_argv(edits):
    options = {**GEN_BASE, **edits}
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(option_argv("gen", options))
    assert code in (0, 1, 2, 3)
    if code == 0:  # the instance has the asked shape and respects the degree cap
        h = parse_hypergraph(out.getvalue())
        assert [h.k, h.n, h.m] == [int(options[flag]) for flag in ("--k", "--n", "--m")]
        assert max_degree(h) <= int(options["--max-degree"])


# ------------------------------------------------------------- experiments

# an override that removes its key from the spec
ABSENT = object()


def spec_dict(tmp_path, **overrides):
    base = {
        "k": 2, "n": [8, 10], "m": 5, "max_degree": 3, "trials": 3,
        "t_policy": "theorem-ceil", "eps": 0.1, "base_seed": 42,
        "output": str(tmp_path / "rows.csv"), "exact": True,
    }
    base.update(overrides)
    return {key: value for key, value in base.items() if value is not ABSENT}


def test_experiment_spec_validation(tmp_path):
    spec = ExperimentSpec.from_json(json.dumps(spec_dict(tmp_path)))
    for bad in [{"trials": 0}, {"k_values": (1,)}, {"event_scan": "sideways"}]:
        with pytest.raises(ValueError):
            spec._replace(**bad)  # the spec is a tuple; _replace checks it too
    for bad in [
        {"k": []},
        {"trials": 0},
        {"t_policy": "magic"},
        {"t_policy": "fixed"},  # fixed without t
        {"bogus_key": 1},
        {"eps": -1},
    ]:
        with pytest.raises(ValueError):
            ExperimentSpec.from_json(json.dumps(spec_dict(tmp_path, **bad)))


def test_experiment_produces_schema_and_reproducible_rows(tmp_path, capsys):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(spec_dict(tmp_path)))
    assert main(["experiment", "--spec", str(spec_file)]) == 0
    first = (tmp_path / "rows.csv").read_text()
    lines = first.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + 2 * 3  # two cells, three trials each
    seeds = [int(line.split(",")[6]) for line in lines[1:]]
    assert seeds == [42, 43, 44, 45, 46, 47]  # base_seed + row index
    # every run of the same spec yields the identical file
    assert main(["experiment", "--spec", str(spec_file),
                 "--output", str(tmp_path / "again.csv")]) == 0
    again = (tmp_path / "again.csv").read_text()
    assert again.replace("again", "rows") == first
    capsys.readouterr()


def test_experiment_rows_carry_bounds_and_exact(tmp_path):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(spec_dict(tmp_path, n=8, trials=2)))
    assert main(["experiment", "--spec", str(spec_file)]) == 0
    lines = (tmp_path / "rows.csv").read_text().splitlines()
    header = lines[0].split(",")
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        assert row["success"] in ("true", "false")
        assert int(row["lower_bound"]) >= 2
        assert row["exact_h"] != ""  # exact requested and tiny instances
        assert float(row["theorem_bound"]) > 0
        assert int(row["t"]) >= int(row["k"])


def test_experiment_fixed_palette_infeasible_cells_and_short_node_budget(tmp_path, capsys):
    # (k, n) = (2, 4) and (3, 4) cannot hold 8 edges; a 3-node budget settles no h
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(spec_dict(
        tmp_path, k=[2, 3], n=[4, 24], m=[8], max_degree=[3], trials=2, t_policy="fixed",
        t=9, eps=ABSENT, base_seed=7, exact_node_budget=3)))
    assert main(["experiment", "--spec", str(spec_file)]) == 0
    assert capsys.readouterr().err.count("warning: cell") == 2
    lines = (tmp_path / "rows.csv").read_text().splitlines()
    rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
    # seeds stay base_seed + cell_index * trials + trial past the skipped cells 0 and 2
    assert [(row["k"], row["n"], row["seed"]) for row in rows] == [
        ("2", "24", "9"), ("2", "24", "10"), ("3", "24", "13"), ("3", "24", "14")]
    assert {(row["t_policy"], row["t"], row["exact_h"]) for row in rows} == {("fixed", "9", "")}


def test_experiment_bad_spec_json_exits_3(tmp_path, capsys):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text("{not json")
    assert main(["experiment", "--spec", str(spec_file)]) == 3
    capsys.readouterr()
    # too deep for json.loads, which recurses once per nesting level
    for text in ('{"k": ' + "[" * 1000 + "2" + "]" * 1000 + "}", "[" * 200000):
        spec_file.write_text(text)
        assert main(["experiment", "--spec", str(spec_file)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


def test_experiment_bad_spec_values_exit_2(tmp_path, capsys):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(spec_dict(tmp_path, trials=0)))
    assert main(["experiment", "--spec", str(spec_file)]) == 2
    spec_file.write_text("[1, 2]")
    assert main(["experiment", "--spec", str(spec_file)]) == 2
    assert capsys.readouterr().err.endswith("error: experiment spec must be a JSON object\n")


@pytest.mark.parametrize("bad", [
    {"k": "3"},
    {"n": [8, "10"]},
    {"m": [5.0]},
    {"m": [5, 0]},  # m_values must be positive
    {"max_degree": True},
    {"trials": 1.5},
    {"t_policy": 3},
    {"t_policy": "fixed", "t": "4"},
    {"t_policy": "fixed", "t": -5},
    {"t_policy": "fixed", "t": 1},
    {"eps": "0.1"},
    {"eps": float("nan")},  # json.loads accepts NaN and Infinity
    {"eps": float("inf")},
    {"base_seed": None},
    {"output": 5},
    {"exact": 1},
    {"exact_node_budget": [10]},
    {"exact_node_budget": -1},
    {"max_resamples": False},
    {"max_resamples": -1},
    {"event_scan": None},
    {"event_scan": "sideways"},
    {"k": [2, LCL_MAX_K + 1]},  # every row reports lcl_min_colors
    {"k": ABSENT},
    {"n": ABSENT},
    {"m": ABSENT},
    {"max_degree": ABSENT},
    {"trials": ABSENT},
    {"t_policy": ABSENT},
    {"trials": ABSENT, "t_policy": ABSENT},
    {"k": ABSENT, "n": ABSENT, "m": ABSENT, "max_degree": ABSENT, "trials": ABSENT,
     "t_policy": ABSENT},
], ids=lambda bad: ",".join(f"no {key}" if value is ABSENT else f"{key}={json.dumps(value)}"
                            for key, value in bad.items()))
def test_experiment_wrongly_typed_or_invalid_spec_exits_2(tmp_path, capsys, bad):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(spec_dict(tmp_path, **bad)))
    assert main(["experiment", "--spec", str(spec_file)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert all(repr(key) in err for key, value in bad.items() if value is ABSENT)
    assert not (tmp_path / "rows.csv").exists()


VALID_SPEC = {"k": 2, "n": 8, "m": 5, "max_degree": 3, "trials": 1, "t_policy": "lcl-min"}
SPEC_KEYS = ["k", "n", "m", "max_degree", "trials", "t_policy", "t", "eps", "base_seed",
             "output", "exact", "exact_node_budget", "max_resamples", "event_scan", "stray"]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10**400, 10**400) | st.floats() | st.text(max_size=4)
    | st.sampled_from([float("nan"), float("inf"), float("-inf"), "fixed", "random"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                 max_size=3),
    max_leaves=6)


@given(st.sampled_from([float("nan"), float("inf")]) | JSON_VALUES,  # NaN and Infinity often
       st.dictionaries(st.sampled_from(SPEC_KEYS) | st.text(max_size=3),
                       JSON_VALUES | st.just(ABSENT), max_size=4))
@settings(max_examples=40)
def test_spec_text_parses_or_raises_value_error(value, edits):
    # the value in every key of a valid spec, then several edits at once, then the edits alone
    specs = [{**VALID_SPEC, key: value} for key in SPEC_KEYS] + [{**VALID_SPEC, **edits}, edits]
    for spec in specs:
        text = json.dumps({key: v for key, v in spec.items() if v is not ABSENT})
        try:
            parsed = ExperimentSpec.from_json(text)  # json.loads accepts NaN and Infinity
        except ValueError:
            continue
        assert 0 <= parsed.eps <= sys.float_info.max


def test_experiment_spec_accepts_null_where_allowed(tmp_path):
    spec = ExperimentSpec.from_json(json.dumps(spec_dict(tmp_path, t=None, max_resamples=None)))
    assert spec.t_fixed is None and spec.max_resamples is None


def run_python(*args: str, stdout=subprocess.PIPE, preexec_fn=None,
               **env: str | None) -> subprocess.CompletedProcess:
    """Run the interpreter on args with this checkout's package on the path,
    preexec_fn run in the child before it starts; each other keyword sets
    that variable in the child's environment, or removes it when None."""
    src = str(Path(harmcolor.__file__).resolve().parents[1])
    child = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]), **env)
    return subprocess.run([sys.executable, *args], stdout=stdout, stderr=subprocess.PIPE,
                          text=True, timeout=120, preexec_fn=preexec_fn,
                          env={key: value for key, value in child.items() if value is not None})


def in_process(argv: list[str], capsys) -> tuple[str, str, int]:
    code = main(argv)
    captured = capsys.readouterr()
    return captured.out, captured.err, code


@pytest.mark.parametrize("code, argv", [
    (0, ["bound", "--k", "2", "--delta", "1", "--m", "1"]),
    (1, ["verify", "--input", "{triangle}", "--coloring", "{bad}"]),
    (2, ["gen", "--k", "1", "--n", "3", "--m", "1", "--max-degree", "1"]),
    (3, ["exact", "--input", "{missing}"]),
], ids=["exit0", "exit1", "exit2", "exit3"])
def test_python_dash_m_runs_the_cli(code, argv, tmp_path, triangle_file, capsys):
    # both module entries, the one the installed script runs too, end the
    # child as in-process main returns
    bad = tmp_path / "bad.col"
    bad.write_text("c 3 3\nv 0 1\nv 1 1\nv 2 2\n")
    argv = [arg.format(triangle=triangle_file, bad=bad, missing=tmp_path / "nope.hg")
            for arg in argv]
    expected = in_process(argv, capsys)
    assert expected[2] == code and expected[0] + expected[1]
    for module in ("harmcolor", "harmcolor.cli"):
        proc = run_python("-m", module, *argv, PYTHONUNBUFFERED=None)
        assert (proc.stdout, proc.stderr, proc.returncode) == expected, module


def test_the_script_entry_runs_the_atexit_handlers_and_flushes_after_them():
    proc = run_python("-c", "import atexit, sys\n"
                      "atexit.register(print, 'atexit ran', end='')\n"
                      "sys.argv[1:] = ['bound', '--k', '2', '--delta', '1', '--m', '1']\n"
                      "from harmcolor.cli import main_and_exit\nmain_and_exit()",
                      PYTHONUNBUFFERED=None)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith("lcl_min  21\natexit ran")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
@pytest.mark.parametrize("command", ["bound", "verify"])
def test_a_failed_flush_of_stdout_exits_3(command, tmp_path, triangle_file):
    # buffered stdout is written when it is flushed at exit; the interpreter's
    # own flush there printed "Exception ignored" and exited 120
    coloring = tmp_path / "c.col"
    coloring.write_text("c 3 3\nv 0 1\nv 1 2\nv 2 3\n")
    argv = {"bound": ["--k", "2", "--delta", "1", "--m", "1"],
            "verify": ["--input", str(triangle_file), "--coloring", str(coloring)]}[command]
    with open("/dev/full", "w") as full:
        proc = run_python("-m", "harmcolor.cli", command, *argv, stdout=full,
                          PYTHONUNBUFFERED=None)
    assert proc.returncode == 3
    assert proc.stderr == "error: [Errno 28] No space left on device\n"


def full_stderr():
    """Make the child's stderr /dev/full: a write there fails."""
    os.dup2(os.open("/dev/full", os.O_WRONLY), 2)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
@pytest.mark.parametrize("stderr", [lambda: os.close(2), full_stderr], ids=["closed", "full"])
@pytest.mark.parametrize("command", ["bound", "verify"])
def test_an_error_report_that_cannot_be_written_keeps_exit_3(command, stderr, tmp_path):
    # stdout fails, so each command ends in an I/O error; its report cannot be
    # written either: with stderr closed, sys.stderr is None and print would
    # write the report to the failing stdout. The report is dropped and the
    # exit code stands, where the report's own OSError escaped the handler
    # and the child exited 1 with a traceback
    argv = {"bound": ["--k", "2", "--delta", "1", "--m", "1"],
            "verify": ["--input", str(tmp_path / "missing"), "--coloring", str(tmp_path / "x")]}
    with open("/dev/full", "w") as full:
        proc = run_python("-m", "harmcolor.cli", command, *argv[command], stdout=full,
                          preexec_fn=stderr, PYTHONUNBUFFERED="1")
    assert (proc.returncode, proc.stderr) == (3, "")


def test_an_error_report_never_goes_to_stdout(tmp_path):
    # with stderr closed, print(..., file=sys.stderr) writes to stdout
    proc = run_python("-m", "harmcolor.cli", "verify", "--input", str(tmp_path / "missing"),
                      "--coloring", str(tmp_path / "x"), preexec_fn=lambda: os.close(2))
    assert (proc.returncode, proc.stdout) == (3, "")


# sha256 of json.dumps([code, stdout, stderr]) of main(argv) at COLUMNS=80,
# recorded when every command built the full parser: a command word first
# now builds only its own subparser, and every text must stay the same
CLI_TEXTS = {
    "--help": "26106f10ecf4bdd8", "bogus": "664cca326053e79e", "": "cd403139c2b8f479",
    "solve --input x extra": "06f48c481d8f5e59",
    "gen --help": "85bdc2238c54082f", "solve --help": "f783dcbddd45d8ae",
    "verify --help": "d0a6ca51cde09bbe", "exact --help": "ede37f2f067c1c5f",
    "bound --help": "3dd23f4766bf56eb", "experiment --help": "01e053f7705b0e06",
}


@pytest.mark.parametrize("line", CLI_TEXTS)
def test_help_and_usage_texts_are_unchanged(line, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    out, err, code = in_process(line.split(), capsys)
    digest = hashlib.sha256(json.dumps([code, out, err]).encode()).hexdigest()[:16]
    assert digest == CLI_TEXTS[line], out + err


def test_a_command_builds_only_its_subparser_with_the_full_usage(monkeypatch, capsys):
    full = build_parser()
    for command in SUBPARSERS:
        one = build_parser(command)
        assert list(one._subparsers._group_actions[0].choices) == [command]
        assert one.format_usage() == full.format_usage()
    built = []
    monkeypatch.setattr(harmcolor.cli, "build_parser",
                        lambda command=None: built.append(command) or build_parser(command))
    for argv in (["bound", "--k", "2", "--delta", "1", "--m", "1"], ["--help"], ["bogus"], []):
        main(argv)
    assert built == ["bound", None, None, None]


def test_a_child_writes_what_main_writes(tmp_path, capsys):
    gen = ["gen", "--k", "3", "--n", "20000", "--m", "20000", "--max-degree", "3", "--seed", "1"]
    proc = run_python("-m", "harmcolor.cli", *gen, PYTHONUNBUFFERED=None)
    assert proc.returncode == 0, proc.stderr
    text = proc.stdout
    assert text == in_process(gen, capsys)[0]
    instance, coloring = tmp_path / "h.txt", tmp_path / "c.txt"
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(spec_dict(tmp_path)))
    for argv, path in [(gen + ["--output", str(instance)], instance),
                       (["solve", "--input", str(instance), "--t-policy", "lcl-min",
                         "--output", str(coloring)], coloring),
                       (["experiment", "--spec", str(spec)], tmp_path / "rows.csv")]:
        proc = run_python("-m", "harmcolor.cli", *argv, PYTHONUNBUFFERED=None)
        assert proc.returncode == 0, proc.stderr
        written = path.read_text()
        assert in_process(argv, capsys)[:2] == (proc.stdout, proc.stderr)
        assert path.read_text() == written, argv[0]
    assert instance.read_text() == text


def test_children_do_not_depend_on_the_hash_seed(tmp_path):
    # a seeded gen and a solve whose random scan resamples 563 times here
    instance, coloring = tmp_path / "h.txt", tmp_path / "c.txt"
    commands = [["gen", "--k", "3", "--n", "1000", "--m", "1000", "--max-degree", "3",
                 "--seed", "7", "--output", str(instance)],
                ["solve", "--input", str(instance), "--colors", "45", "--scan", "random",
                 "--seed", "3", "--output", str(coloring)]]
    runs = []
    for hash_seed in ("0", "12345"):
        run = []
        for argv in commands:
            proc = run_python("-m", "harmcolor.cli", *argv, PYTHONHASHSEED=hash_seed)
            assert proc.returncode == 0, proc.stderr
            run.append((proc.stdout, proc.stderr))
        runs.append((run, instance.read_text(), coloring.read_text()))
    assert runs[0] == runs[1]
    assert "resamples_total=563 " in runs[0][0][1][0]


def test_the_package_runs_without_numpy():
    proc = run_python("-c", "import sys; sys.modules['numpy'] = None\n"
                      "from harmcolor import main\n"
                      "sys.exit(main(['bound', '--k', '2', '--delta', '1', '--m', '8', '--t', '4',"
                      " '--mc-trials', '2000', '--mc-i', '1']))")
    assert proc.returncode == 0, proc.stderr
    assert "mc_bad_edge_t4" in proc.stdout


def test_loading_the_cli_does_not_import_numpy():
    proc = run_python("-c", "import sys, harmcolor.cli; print('numpy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# run one command, then print the package modules and the probed stdlib
# modules it left loaded
LOAD_SET = ("import sys\nfrom harmcolor import main\ncode = main(sys.argv[1:])\n"
            "print(*sorted(name for name in sys.modules if name.startswith('harmcolor.')\n"
            "              or name in ('dataclasses', 'fractions', 'csv')))\nsys.exit(code)")


def test_each_command_loads_only_what_it_runs(tmp_path):
    # -S: a module that site or a .pth file preloads cannot mask an import
    proc = run_python("-S", "-c", "import sys, harmcolor\n"
                      "print([name for name in sys.modules if name.startswith('harmcolor.')])")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    instance, coloring, spec = tmp_path / "h.txt", tmp_path / "c.txt", tmp_path / "spec.json"
    spec.write_text(json.dumps(spec_dict(tmp_path)))
    commands = {
        "gen": ["--k", "2", "--n", "8", "--m", "5", "--max-degree", "3", "--output", str(instance)],
        "solve": ["--input", str(instance), "--t-policy", "lcl-min", "--output", str(coloring)],
        "solve --colors": ["--input", str(instance), "--colors", "8", "--output", str(coloring)],
        "verify": ["--input", str(instance), "--coloring", str(coloring)],
        "exact": ["--input", str(instance)],
        "bound": ["--k", "2", "--delta", "3", "--m", "5", "--t", "5", "--tau", "3/2"],
        "experiment": ["--spec", str(spec)],
    }
    loaded = {}
    for command, args in commands.items():
        proc = run_python("-S", "-c", LOAD_SET, command.split()[0], *args)
        assert proc.returncode == 0, proc.stderr
        loaded[command] = set(proc.stdout.splitlines()[-1].split())
    front = {"harmcolor.cli", "harmcolor._base"}
    assert loaded["gen"] == front | {"harmcolor.generate", "harmcolor.hypergraph"}
    assert loaded["verify"] == front | {"harmcolor.hypergraph", "harmcolor.readers",
                                        "harmcolor.coloring"}
    # the bound table needs no instance code
    assert loaded["bound"] == front | {"harmcolor.experiment", "harmcolor.bounds", "fractions"}
    # a fixed palette needs no bound: the policies import bounds when they run
    assert loaded["solve --colors"] == loaded["verify"] | {"harmcolor.solver"}
    # the certificate at the default tau runs on ints: only a Fraction loads fractions
    assert loaded["solve"] == loaded["solve --colors"] | {"harmcolor.bounds"}
    assert loaded["exact"] == loaded["verify"] | {"harmcolor.exact", "harmcolor.bounds"}
    # an experiment generates its instances: it reads no file
    assert loaded["experiment"] == front | {
        "harmcolor.experiment", "harmcolor.generate", "harmcolor.hypergraph",
        "harmcolor.coloring", "harmcolor.solver", "harmcolor.exact", "harmcolor.bounds", "csv"}
    assert not any("dataclasses" in names for names in loaded.values())


def test_no_module_imports_the_cli():
    # python -m harmcolor.cli runs the front end as __main__, where an import
    # of harmcolor.cli would compile it a second time; the entry of python -m
    # harmcolor, __main__.py, is the one module that imports it
    for path in Path(harmcolor.__file__).parent.glob("*.py"):
        if path.name == "__main__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = "harmcolor" if node.level else ""
                base = ".".join(filter(None, [base, node.module]))
                modules = [base] + [f"{base}.{alias.name}" for alias in node.names]
            else:
                continue
            assert "harmcolor.cli" not in modules, f"{path.name}:{node.lineno}"


def test_each_export_is_read_from_the_module_that_defines_it():
    # a stale entry in the export map, or a name left imported at its old
    # module, reads the export through a module other than its own
    for name in harmcolor.__all__:
        if name != "__version__":
            home = getattr(harmcolor, name).__module__
            assert home == f"harmcolor.{harmcolor._EXPORTS[name]}", name


def test_the_package_loads_the_cli_lazily_and_exports_what_it_lists():
    proc = run_python("-c", "import sys, harmcolor\n"
                      "print('harmcolor.cli' in sys.modules)\n"
                      "print([name for name in harmcolor.__all__ if name not in dir(harmcolor)])\n"
                      "print([name for name in harmcolor.__all__"
                      " if not hasattr(harmcolor, name)])")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:3] == ["False", "[]", "[]"]
    proc = run_python("-W", "error", "-m", "harmcolor.cli", "--help")
    assert proc.returncode == 0, proc.stderr
    assert "experiment" in proc.stdout


ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.stem for demo in DEMOS])
def test_demo_runs(demo):
    proc = run_python(str(demo))
    assert proc.returncode == 0, proc.stderr


def test_no_module_binds_a_top_level_def_or_class_twice():
    """A second def or class of one name silently rebinds the first, so a
    test written for the first one runs the second."""
    twice = []
    modules = [path for part in ("src/harmcolor", "tests", "demos")
               for path in sorted((ROOT / part).rglob("*.py"))]
    for path in modules:
        names = [node.name for node in ast.parse(path.read_text()).body
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
        twice += [f"{path.relative_to(ROOT)}: {name}"
                  for name in sorted(set(names)) if names.count(name) > 1]
    assert twice == []


def test_every_private_top_level_def_or_class_is_named_elsewhere():
    """A private def or class of the package that no code of the package
    names outside its own definition is dead, like a helper left behind
    when its callers were merged."""
    defined, named = [], set()
    for path in sorted((ROOT / "src/harmcolor").rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            own = getattr(node, "name", None)  # set on a def or class only
            if own and own.startswith("_") and not own.startswith("__"):
                defined.append((f"{path.relative_to(ROOT)}: {own}", own))
            named |= {sub.id if isinstance(sub, ast.Name) else sub.attr for sub in ast.walk(node)
                      if isinstance(sub, (ast.Name, ast.Attribute))} - {own}
    assert [where for where, name in defined if name not in named] == []
