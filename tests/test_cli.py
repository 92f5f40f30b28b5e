"""Command-line behaviors: exit codes, file round trips, output formats, and
the experiment harness's reproducibility contract."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import harmcolor
from harmcolor import (
    ExperimentSpec,
    builtin_instance,
    main,
    parse_coloring,
    parse_hypergraph,
    serialize_hypergraph,
)
from harmcolor.cli import CSV_COLUMNS


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
    assert main(["solve", "--input", str(triangle_file), "--colors", "3",
                 "--t-policy", "theorem-ceil"]) == 2


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


def test_verify_partial_coloring_is_a_format_problem(tmp_path, triangle_file, capsys):
    partial = tmp_path / "partial.col"
    partial.write_text("c 3 3\nv 0 1\n")
    code = main(["verify", "--input", str(triangle_file),
                 "--coloring", str(partial)])
    assert code == 3
    assert "has no color" in capsys.readouterr().err


def test_verify_n_mismatch(tmp_path, triangle_file, capsys):
    other = tmp_path / "other.col"
    other.write_text("c 3 5\nv 0 1\nv 1 2\nv 2 3\nv 3 1\nv 4 2\n")
    code = main(["verify", "--input", str(triangle_file), "--coloring", str(other)])
    assert code == 3
    assert "n=5" in capsys.readouterr().err


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


def test_exact_prints_the_harmonious_number(triangle_file, capsys):
    assert main(["exact", "--input", str(triangle_file)]) == 0
    assert capsys.readouterr().out.strip() == "3"


def test_exact_node_budget_exhaustion_exits_1(triangle_file, capsys):
    assert main(["exact", "--input", str(triangle_file), "--node-budget", "1"]) == 1
    assert "budget" in capsys.readouterr().err


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
    ExperimentSpec.from_json(json.dumps(spec_dict(tmp_path)))
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


def test_experiment_bad_spec_json_exits_3(tmp_path, capsys):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text("{not json")
    assert main(["experiment", "--spec", str(spec_file)]) == 3


def test_experiment_bad_spec_values_exit_2(tmp_path, capsys):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(spec_dict(tmp_path, trials=0)))
    assert main(["experiment", "--spec", str(spec_file)]) == 2


@pytest.mark.parametrize("bad", [
    {"k": "3"},
    {"n": [8, "10"]},
    {"m": [5.0]},
    {"max_degree": True},
    {"trials": 1.5},
    {"t_policy": 3},
    {"t_policy": "fixed", "t": "4"},
    {"t_policy": "fixed", "t": -5},
    {"t_policy": "fixed", "t": 1},
    {"eps": "0.1"},
    {"base_seed": None},
    {"output": 5},
    {"exact": 1},
    {"exact_node_budget": [10]},
    {"max_resamples": False},
    {"max_resamples": -1},
    {"event_scan": None},
    {"event_scan": "sideways"},
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


def test_experiment_spec_accepts_null_where_allowed(tmp_path):
    spec = ExperimentSpec.from_json(json.dumps(spec_dict(tmp_path, t=None, max_resamples=None)))
    assert spec.t_fixed is None and spec.max_resamples is None


def run_python(*args: str) -> subprocess.CompletedProcess:
    """Run the interpreter on args with this checkout's package on the path."""
    src = str(Path(harmcolor.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=120)


@pytest.mark.parametrize("module", ["harmcolor", "harmcolor.cli"])
def test_python_dash_m_runs_the_cli(module):
    proc = run_python("-m", module, "bound", "--k", "2", "--delta", "1", "--m", "1")
    assert proc.returncode == 0, proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert proc.stdout.splitlines()[-1].split() == ["lcl_min", "21"]


def test_loading_the_cli_does_not_import_numpy():
    proc = run_python("-c", "import sys, harmcolor.cli; print('numpy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
