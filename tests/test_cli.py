import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from graphlowrank import (FilterSpec, SolverConfig, laplacian,
                          load_edge_list, load_matrix_csv,
                          num_connected_components, save_matrix_csv,
                          solve_gfrpcag)
from graphlowrank import __version__
from graphlowrank.cli import main


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture
def three_points_csv(tmp_path):
    path = tmp_path / "points.csv"
    save_matrix_csv(path, np.array([[0.0, 1.0, 2.0]]))
    return path


class TestGraphBuild:
    def test_collinear_demo(self, tmp_path, three_points_csv):
        out = tmp_path / "g.txt"
        code = run(["graph", "build", "--matrix", three_points_csv,
                    "--axis", "columns", "--k", 1, "--weighting", "binary",
                    "--out", out])
        assert code == 0
        g = load_edge_list(out)
        assert g.num_edges == 2
        assert (tmp_path / "g.txt.manifest.json").exists()

    def test_rerun_is_byte_identical(self, tmp_path, three_points_csv):
        outs = []
        for name in ("g1.txt", "g2.txt"):
            out = tmp_path / name
            assert run(["graph", "build", "--matrix", three_points_csv,
                        "--k", 1, "--out", out]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_spiral_graph_is_connected(self, tmp_path):
        matrix = tmp_path / "spiral.csv"
        assert run(["synth", "manifold", "--kind", "spiral2d", "--n", 500,
                    "--out", matrix]) == 0
        out = tmp_path / "spiral_graph.txt"
        assert run(["graph", "build", "--matrix", matrix, "--k", 3,
                    "--out", out]) == 0
        assert num_connected_components(load_edge_list(out)) == 1

    def test_malformed_csv_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("1.0,2.0\n3.0,x\n")
        code = run(["graph", "build", "--matrix", bad, "--k", 1,
                    "--out", tmp_path / "g.txt"])
        assert code == 3


@pytest.fixture
def solve_setup(tmp_path, rng):
    Y = rng.standard_normal((12, 15))
    matrix = tmp_path / "y.csv"
    save_matrix_csv(matrix, Y)
    row_graph = tmp_path / "rows.txt"
    col_graph = tmp_path / "cols.txt"
    assert run(["graph", "build", "--matrix", matrix, "--axis", "rows",
                "--k", 3, "--out", row_graph]) == 0
    assert run(["graph", "build", "--matrix", matrix, "--axis", "columns",
                "--k", 3, "--out", col_graph]) == 0
    return matrix, row_graph, col_graph, Y


class TestSolve:
    def test_zero_gamma_returns_input(self, tmp_path, solve_setup):
        matrix, row_graph, col_graph, Y = solve_setup
        out_dir = tmp_path / "run"
        code = run(["solve", "--matrix", matrix, "--row-graph", row_graph,
                    "--col-graph", col_graph, "--algo", "frpcag",
                    "--gamma-r", 0, "--gamma-c", 0, "--out-dir", out_dir])
        assert code == 0
        X = load_matrix_csv(out_dir / "X.csv")
        assert np.allclose(X, Y)
        assert (out_dir / "trace.csv").exists()
        assert (out_dir / "report.txt").exists()
        assert (out_dir / "manifest.json").exists()

    def test_tikhonov_matches_frpcag_l2(self, tmp_path, solve_setup):
        matrix, row_graph, col_graph, _ = solve_setup
        closed = tmp_path / "closed"
        iterative = tmp_path / "iterative"
        common = ["--matrix", matrix, "--row-graph", row_graph,
                  "--col-graph", col_graph, "--gamma-r", 0.7, "--gamma-c", 0]
        assert run(["solve", *common, "--algo", "tikhonov",
                    "--out-dir", closed]) == 0
        assert run(["solve", *common, "--algo", "frpcag", "--loss", "l2",
                    "--tol", 1e-14, "--max-iters", 4000,
                    "--out-dir", iterative]) == 0
        a = load_matrix_csv(closed / "X.csv")
        b = load_matrix_csv(iterative / "X.csv")
        assert np.linalg.norm(a - b) <= 1e-4 * np.linalg.norm(a)

    def test_dimension_mismatch_is_data_error(self, tmp_path, solve_setup):
        matrix, row_graph, _, _ = solve_setup
        code = run(["solve", "--matrix", matrix, "--row-graph", row_graph,
                    "--col-graph", row_graph, "--out-dir", tmp_path / "x"])
        assert code == 3

    @pytest.mark.parametrize("algo", ["frpcag", "gfrpcag"])
    def test_manifest_reproduces_run(self, tmp_path, solve_setup, algo):
        matrix, row_graph, col_graph, _ = solve_setup
        first = tmp_path / "first"
        assert run(["solve", "--matrix", matrix, "--row-graph", row_graph,
                    "--col-graph", col_graph, "--algo", algo, "--loss", "l2",
                    "--gamma-r", 0.5, "--gamma-c", 1.0, "--filter-b", 0.8,
                    "--out-dir", first]) == 0
        manifest = json.loads((first / "manifest.json").read_text())
        replay = tmp_path / "replay"
        manifest["params"]["out_dir"] = str(replay)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(manifest))
        assert run(["solve", "--config", config]) == 0
        for name in ("X.csv", "trace.csv"):
            assert (replay / name).read_bytes() == (first / name).read_bytes()

    def test_hitting_iteration_cap_still_succeeds(self, tmp_path, solve_setup):
        matrix, row_graph, col_graph, _ = solve_setup
        out_dir = tmp_path / "capped"
        code = run(["solve", "--matrix", matrix, "--row-graph", row_graph,
                    "--col-graph", col_graph, "--algo", "frpcag",
                    "--gamma-r", 5, "--gamma-c", 5, "--max-iters", 2,
                    "--tol", 1e-16, "--out-dir", out_dir])
        assert code == 0
        report = (out_dir / "report.txt").read_text()
        assert "converged: false" in report
        assert "stop_reason: max_iters" in report

    def test_gfrpcag_runs(self, tmp_path, solve_setup):
        matrix, row_graph, col_graph, _ = solve_setup
        out_dir = tmp_path / "gf"
        code = run(["solve", "--matrix", matrix, "--row-graph", row_graph,
                    "--col-graph", col_graph, "--algo", "gfrpcag",
                    "--loss", "l2", "--gamma-c", 1.0, "--filter-b", 0.8,
                    "--out-dir", out_dir])
        assert code == 0
        assert (out_dir / "X.csv").exists()

    def test_gfrpcag_row_side_writes_the_library_solution(self, tmp_path,
                                                          solve_setup):
        matrix, row_graph, col_graph, _ = solve_setup
        out_dir = tmp_path / "gf_rows"
        code = run(["solve", "--matrix", matrix, "--row-graph", row_graph,
                    "--col-graph", col_graph, "--algo", "gfrpcag",
                    "--filtered-side", "row_graph", "--loss", "l2",
                    "--gamma-r", 1.0, "--gamma-c", 0.5, "--filter-b", 0.8,
                    "--out-dir", out_dir])
        assert code == 0
        Lr = laplacian(load_edge_list(row_graph), "normalized")
        Lc = laplacian(load_edge_list(col_graph), "normalized")
        config = SolverConfig(gamma_r=1.0, gamma_c=0.5, loss="l2",
                              filter_spec=FilterSpec("prox_fb", b=0.8),
                              filtered_side="row_graph")
        result = solve_gfrpcag(load_matrix_csv(matrix), Lr, Lc, config)
        expected = tmp_path / "expected.csv"
        save_matrix_csv(expected, result.X)
        assert (out_dir / "X.csv").read_bytes() == expected.read_bytes()


BUILD = ["graph", "build", "--matrix", "y.csv", "--out", "g.txt"]
SOLVE = ["solve", "--matrix", "y.csv", "--row-graph", "rows.txt",
         "--col-graph", "cols.txt", "--out-dir", "run"]
SPECTRA = ["spectra", "--out", "s.csv", "--graph"]
CURVE = ["spectra", "--out", "c.csv", "--filter-b"]
DIAGNOSE = ["diagnose", "--matrix", "y.csv", "--row-graph", "rows.txt",
            "--col-graph", "cols.txt", "--k", "3", "--out-dir", "diag"]
SYNTH = ["synth", "lowrank", "--p", "8", "--n", "9", "--k-r", "2", "--k-c",
         "2", "--out-dir", "syn"]


@pytest.mark.parametrize("argv, config, code", [
    pytest.param([*BUILD, "--k", "3", "--sigma", "abc"], None, 2,
                 id="flag-sigma-abc"),
    pytest.param([*SOLVE, "--algo", "nuclear"], None, 2,
                 id="flag-unknown-algo"),
    pytest.param([*SOLVE, "--algo", "gfrpcag", "--filter-b", "0.8",
                  "--filter-application", "chebyshev"], None, 2,
                 id="flag-removed-filter-application"),
    pytest.param([*SOLVE, "--algo", "gfrpcag", "--filter-b", "0.8",
                  "--chebyshev-order", "50"], None, 2,
                 id="flag-removed-chebyshev-order"),
    pytest.param(BUILD, {"k": "three"}, 2, id="config-k-three"),
    pytest.param(BUILD, {"k": 2.7}, 2, id="config-k-not-integral"),
    pytest.param(SOLVE, {"gamma_r": "lots"}, 2, id="config-gamma-lots"),
    pytest.param([*BUILD, "--k", "3"], {"neighbours": 3}, 2,
                 id="config-unknown-key"),
    pytest.param(SOLVE, {"laplacian": "weird"}, 2, id="config-bad-choice"),
    pytest.param(SOLVE, {"chebyshev_order": 50}, 2,
                 id="config-removed-chebyshev-order"),
    pytest.param([*SOLVE, "--gamma-c", "nan"], None, 2, id="flag-gamma-nan"),
    pytest.param([*SOLVE, "--gamma-c", "inf"], None, 2, id="flag-gamma-inf"),
    pytest.param(SOLVE, {"gamma_c": float("nan")}, 2, id="config-gamma-nan"),
    pytest.param([*BUILD, "--k", "3", "--sigma", "nan"], None, 2,
                 id="flag-sigma-nan"),
    pytest.param([*SOLVE, "--algo", "gfrpcag", "--filter-b", "inf"], None, 2,
                 id="flag-filter-b-inf"),
    pytest.param([*SYNTH, "--noise", "gaussian", "--sigma", "nan"], None, 2,
                 id="flag-noise-sigma-nan"),
    pytest.param([*CURVE, "0.4", "--filter-gamma", "nan"], None, 2,
                 id="flag-filter-gamma-nan"),
    pytest.param([*CURVE, "-1"], None, 2, id="curve-negative-b"),
    pytest.param([*CURVE, "0.4", "--filter-gamma", "-2"], None, 2,
                 id="curve-negative-gamma"),
    pytest.param([*CURVE, "0.4", "--x-max", "-1"], None, 2,
                 id="curve-negative-x-max"),
    pytest.param([*DIAGNOSE, "--gamma", "nan"], None, 2,
                 id="flag-diagnose-gamma-nan"),
    pytest.param([*SOLVE, "--gamma-c", "1e308"], None, 2,
                 id="frpcag-bound-overflows"),
    pytest.param([*SOLVE, "--algo", "gfrpcag", "--filter-b", "0.8",
                  "--filtered-side", "row_graph", "--gamma-r", "1",
                  "--gamma-c", "1e308"], None, 2, id="gfrpcag-bound-overflows"),
    pytest.param([*SOLVE, "--algo", "gfrpcag", "--filter-b", "0.8",
                  "--gamma-r", "1"], None, 2, id="gfrpcag-zero-filtered-gamma"),
    pytest.param([*SPECTRA, "negative.txt"], None, 3, id="negative-vertex"),
    pytest.param([*SPECTRA, "duplicate.txt"], None, 3, id="duplicate-edge"),
    pytest.param(["graph", "build", "--matrix", "missing.csv", "--k", "3",
                  "--out", "g.txt"], None, 3, id="missing-matrix"),
])
def test_bad_input_exit_code(tmp_path, monkeypatch, solve_setup, argv,
                             config, code):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "negative.txt").write_text("#vertices 3\n-1\t1\t1.0\n")
    (tmp_path / "duplicate.txt").write_text(
        "#vertices 3\n0\t1\t1.0\n0\t1\t1.0\n")
    if config is not None:
        (tmp_path / "config.json").write_text(json.dumps(config))
        argv = [*argv, "--config", "config.json"]
    assert run(argv) == code


class TestSynthCommands:
    def test_lowrank_outputs_and_determinism(self, tmp_path):
        args = ["synth", "lowrank", "--p", 20, "--n", 24, "--k-r", 3,
                "--k-c", 3, "--seed", 9, "--noise", "gaussian",
                "--sigma", 0.05]
        first = tmp_path / "a"
        second = tmp_path / "b"
        assert run([*args, "--out-dir", first]) == 0
        assert run([*args, "--out-dir", second]) == 0
        for name in ("ystar.csv", "y.csv", "row_graph.txt", "col_graph.txt"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_manifest_reproduces_run(self, tmp_path):
        out = tmp_path / "circle.csv"
        assert run(["synth", "manifold", "--kind", "circle2d", "--n", 64,
                    "--noise-sigma", 0.1, "--seed", 4, "--out", out]) == 0
        original = out.read_bytes()
        manifest_path = tmp_path / "circle.csv.manifest.json"
        manifest = json.loads(manifest_path.read_text())
        assert manifest["command"] == "synth manifold"
        replay = tmp_path / "replay.csv"
        manifest["params"]["out"] = str(replay)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(manifest))
        assert run(["synth", "manifold", "--config", config]) == 0
        assert replay.read_bytes() == original

    def test_circle_radius(self, tmp_path):
        out = tmp_path / "circle.csv"
        assert run(["synth", "manifold", "--kind", "circle2d", "--n", 32,
                    "--out", out]) == 0
        values = load_matrix_csv(out)
        assert np.abs(np.linalg.norm(values, axis=0) - 1.0).max() <= 1e-12


class TestDiagnose:
    def test_pipeline_synth_solve_diagnose_bound_holds(self, tmp_path):
        synth_dir = tmp_path / "data"
        assert run(["synth", "lowrank", "--p", 40, "--n", 40, "--k-r", 4,
                    "--k-c", 4, "--seed", 21, "--noise", "gaussian",
                    "--sigma", 0.05, "--out-dir", synth_dir]) == 0
        # the bound assumes gamma_r = gamma / lambda_{k_r+1} and likewise
        # for the columns, so derive the solver weights from the spectra
        import graphlowrank as glr
        row_basis = glr.eigendecompose(
            glr.laplacian(glr.load_edge_list(synth_dir / "row_graph.txt")))
        col_basis = glr.eigendecompose(
            glr.laplacian(glr.load_edge_list(synth_dir / "col_graph.txt")))
        gamma = 1.0
        gamma_r = gamma / row_basis.eigenvalues[4]
        gamma_c = gamma / col_basis.eigenvalues[4]
        solve_dir = tmp_path / "solve"
        assert run(["solve", "--matrix", synth_dir / "y.csv",
                    "--row-graph", synth_dir / "row_graph.txt",
                    "--col-graph", synth_dir / "col_graph.txt",
                    "--algo", "frpcag", "--loss", "l1",
                    "--gamma-r", gamma_r, "--gamma-c", gamma_c,
                    "--tol", 1e-10, "--max-iters", 3000,
                    "--out-dir", solve_dir]) == 0
        diag_dir = tmp_path / "diag"
        assert run(["diagnose", "--matrix", solve_dir / "X.csv",
                    "--row-graph", synth_dir / "row_graph.txt",
                    "--col-graph", synth_dir / "col_graph.txt",
                    "--k", 4, "--ystar", synth_dir / "ystar.csv",
                    "--noisy", synth_dir / "y.csv", "--gamma", gamma,
                    "--loss", "l1", "--out-dir", diag_dir]) == 0
        text = (diag_dir / "diagnostics.txt").read_text()
        assert "bound_holds: true" in text
        for name in ("alignment_rows.txt", "alignment_columns.txt",
                     "gamma_rows_db.csv", "singular_values.csv",
                     "coherence_right.csv", "manifest.json"):
            assert (diag_dir / name).exists()


class TestSpectra:
    def test_eigenvalue_export(self, tmp_path, three_points_csv):
        graph_file = tmp_path / "g.txt"
        assert run(["graph", "build", "--matrix", three_points_csv, "--k", 1,
                    "--out", graph_file]) == 0
        out = tmp_path / "spectrum.csv"
        assert run(["spectra", "--graph", graph_file, "--out", out]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "index,eigenvalue"
        assert len(lines) == 4

    def test_filter_curve_export(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert run(["spectra", "--filter-b", 0.4, "--filter-gamma", 1.0,
                    "--out", out]) == 0
        assert out.read_text().splitlines()[0] == "x,g(x),f(x)"

    def test_missing_mode_is_usage_error(self, tmp_path):
        assert run(["spectra", "--out", tmp_path / "x.csv"]) == 2


def report_items(path, title):
    """The (key, value) pairs of a report, once its first two lines are the
    title and its "=" underline."""
    lines = path.read_text().splitlines()
    assert lines[:2] == [title, "=" * len(title)]
    return [tuple(line.split(": ", 1)) for line in lines[2:]]


def table_rows(path, header):
    """The comma-split rows of a CSV table, once its first line is header."""
    lines = path.read_text().splitlines()
    assert lines[0] == header
    return [line.split(",") for line in lines[1:]]


def is_float_form(text):
    """Whether text is the shortest decimal of a float, as format_float
    writes it."""
    try:
        return repr(float(text)) == text
    except ValueError:
        return False


@pytest.fixture
def fixed_inputs(tmp_path, monkeypatch):
    """A 4 x 5 matrix, a clean copy, a row graph of two components (its
    second eigenvalue is 0, so its gap at k = 1 is undefined) and a
    5-cycle column graph."""
    monkeypatch.chdir(tmp_path)
    Y = np.array([[1.0, 2.0, 0.5, -1.0, 3.0],
                  [0.0, 1.5, -2.0, 1.0, 0.5],
                  [2.0, -1.0, 1.0, 0.0, 1.0],
                  [-0.5, 0.5, 1.5, 2.0, -1.0]])
    save_matrix_csv("y.csv", Y)
    save_matrix_csv("ystar.csv", 0.9 * Y)
    Path("rows.txt").write_text("#vertices 4\n0\t1\t1.0\n2\t3\t1.0\n")
    Path("cols.txt").write_text("#vertices 5\n" + "".join(
        f"{i}\t{j}\t1.0\n" for i, j in ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4))))
    return ["--row-graph", "rows.txt", "--col-graph", "cols.txt"]


class TestArtifactFormats:
    """The layout of every run artifact: key order, headers, index columns
    and value forms (shortest-repr floats, lower-case booleans, undefined
    gaps)."""

    @pytest.mark.parametrize("algo", ["frpcag", "tikhonov"])
    def test_solve_report_and_trace(self, fixed_inputs, algo):
        assert run(["solve", "--matrix", "y.csv", *fixed_inputs,
                    "--algo", algo, "--gamma-r", 0.5, "--gamma-c", 0.7,
                    "--max-iters", 3, "--tol", 1e-16, "--out-dir", "run"]) == 0
        items = report_items(Path("run/report.txt"), "solver report")
        assert [key for key, _ in items] == [
            "algo", "col_graph", "filtered_side", "gamma_c", "gamma_r",
            "laplacian", "loss", "matrix", "max_iters", "orientation",
            "out_dir", "row_graph", "tol", "iterations", "converged",
            "stop_reason",
            *(["final_objective"] if algo == "frpcag" else []),
            "wall_time_s"]
        report = dict(items)
        assert report["gamma_c"] == "0.7" and report["tol"] == "1e-16"
        assert report["max_iters"] == "3" and report["loss"] == "l1"
        assert report["converged"] in ("true", "false")
        assert re.fullmatch(r"\d+\.\d{3}", report["wall_time_s"])
        rows = table_rows(Path("run/trace.csv"),
                          "iter,objective,relative_change")
        if algo == "tikhonov":
            assert report["stop_reason"] == "closed_form"
            assert report["iterations"] == "1" and rows == []
            return
        assert report["stop_reason"] == "max_iters"
        assert report["converged"] == "false"
        assert len(rows) == int(report["iterations"]) == 3
        assert [row[0] for row in rows] == ["1", "2", "3"]
        assert all(is_float_form(v) for row in rows for v in row[1:])
        assert report["final_objective"] == rows[-1][1]

    @pytest.mark.parametrize("bound", [False, True])
    def test_diagnose_reports(self, fixed_inputs, bound):
        extra = (["--ystar", "ystar.csv", "--noisy", "y.csv", "--k-r", 2]
                 if bound else [])
        assert run(["diagnose", "--matrix", "y.csv", *fixed_inputs, "--k", 1,
                    *extra, "--out-dir", "diag"]) == 0
        items = report_items(Path("diag/diagnostics.txt"), "diagnostics report")
        assert [key for key, _ in items] == [
            "k", "spectral_gap_col", "spectral_gap_row",
            "alignment_order_rows", "rank_k_alignment_rows",
            "alignment_order_columns", "rank_k_alignment_columns",
            *(["bound_lhs", "bound_rhs", "bound_holds"] if bound else [])]
        report = dict(items)
        assert report["k"] == "1"
        assert report["spectral_gap_row"] == "undefined"
        floats = [key for key, _ in items
                  if key not in ("k", "spectral_gap_row", "bound_holds")]
        assert all(is_float_form(report[key]) for key in floats)
        if bound:
            assert report["bound_holds"] in ("true", "false")
        for side in ("rows", "columns"):
            items = report_items(Path(f"diag/alignment_{side}.txt"),
                                 "alignment report")
            assert [key for key, _ in items] == [
                "label", "k", "alignment_order", "rank_k_alignment"]
            assert items[0][1] == side and items[1][1] == "1"
            assert is_float_form(items[2][1]) and is_float_form(items[3][1])
        rows = table_rows(Path("diag/singular_values.csv"),
                          "index,singular_value")
        assert [row[0] for row in rows] == ["0", "1", "2", "3"]
        assert all(is_float_form(row[1]) for row in rows)

    @pytest.mark.parametrize("count", [None, 3])
    def test_spectrum(self, fixed_inputs, count):
        extra = [] if count is None else ["--count", count]
        assert run(["spectra", "--graph", "cols.txt", *extra,
                    "--out", "s.csv"]) == 0
        rows = table_rows(Path("s.csv"), "index,eigenvalue")
        assert [row[0] for row in rows] == [str(i) for i in range(count or 5)]
        assert all(is_float_form(row[1]) for row in rows)

    def test_filter_curve(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert run(["spectra", "--filter-b", 0.4, "--filter-gamma", 1.0,
                    "--out", out]) == 0
        rows = table_rows(out, "x,g(x),f(x)")
        assert len(rows) == 1000
        assert rows[0] == ["0.0", "0.0", "1.0"]
        # the grid endpoint sits in the killed band: g infinite, f zero
        assert rows[-1] == ["2.0", "inf", "0.0"]
        assert all(is_float_form(v) for row in rows for v in row)

    @pytest.mark.parametrize("b, gamma, x_max", [
        ("nan", 1.0, 2.0), (-1.0, 1.0, 2.0), (0.4, "nan", 2.0),
        (0.4, "inf", 2.0), (0.4, -2.0, 2.0), (0.4, 1.0, -1.0),
        (0.4, 1.0, 0.0), (0.4, 1.0, "inf")])
    def test_refused_filter_curve_writes_nothing(self, tmp_path, b, gamma,
                                                 x_max):
        out = tmp_path / "curve.csv"
        assert run(["spectra", "--filter-b", b, "--filter-gamma", gamma,
                    "--x-max", x_max, "--out", out]) == 2
        assert list(tmp_path.iterdir()) == []


def test_cli_import_leaves_out_scipy_spatial():
    # cdist is imported inside knn_graph: commands that build no graph do
    # not pay for scipy.spatial and the scipy.special it loads
    code = ("import sys, graphlowrank.cli; "
            "sys.exit('scipy.spatial' in sys.modules)")
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, timeout=60)
    assert done.returncode == 0


def test_cli_import_leaves_out_scipy_linalg():
    # scipy.linalg is imported inside tikhonov_closed_form, the one user
    code = ("import sys, graphlowrank.cli; "
            "sys.exit('scipy.linalg' in sys.modules)")
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, timeout=60)
    assert done.returncode == 0


def test_package_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        declared = tomllib.load(fh)["project"]["version"]
    assert __version__ == declared
