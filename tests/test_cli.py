import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components

from graphlowrank import (FilterSpec, GraphLowRankError, SolverConfig,
                          eigendecompose, laplacian, load_edge_list,
                          load_matrix_csv, save_matrix_csv, solve_gfrpcag,
                          spectral_gap)
from graphlowrank import __version__
from graphlowrank import cli
from graphlowrank.cli import main

from conftest import refuse_dense_eigh


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
        weights = load_edge_list(out).weights
        assert connected_components(weights, directed=False)[0] == 1

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

    @pytest.mark.parametrize("algo, extra", [
        pytest.param("frpcag", ["--loss", "l2"], id="frpcag"),
        pytest.param("gfrpcag", ["--loss", "l2", "--filter-b", 0.8],
                     id="gfrpcag"),
        # the closed form reads neither --loss nor --filter-b; its manifest
        # records them and the other unread parameters as null
        pytest.param("tikhonov", [], id="tikhonov")])
    def test_manifest_reproduces_run(self, tmp_path, solve_setup, algo, extra):
        matrix, row_graph, col_graph, _ = solve_setup
        first = tmp_path / "first"
        assert run(["solve", "--matrix", matrix, "--row-graph", row_graph,
                    "--col-graph", col_graph, "--algo", algo,
                    "--gamma-r", 0.5, "--gamma-c", 1.0, *extra,
                    "--out-dir", first]) == 0
        manifest = json.loads((first / "manifest.json").read_text())
        if algo == "tikhonov":
            assert all(manifest["params"][name] is None for name in
                       ("loss", "max_iters", "tol", "filter_b", "filtered_side"))
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


BAD_EDGE_LISTS = {
    "negative.txt": "#vertices 3\n-1\t1\t1.0\n",
    "duplicate.txt": "#vertices 3\n0\t1\t1.0\n0\t1\t1.0\n",
    "minus_one.txt": "#vertices -1\n",
    "no_vertices.txt": "#vertices 0\n",
    "two_headers.txt": "#vertices 2\n#vertices 3\n0\t2\t1.0\n",
    "count_x.txt": "#vertices x\n",
    "two_fields.txt": "#vertices 3\n0\t1\n",
    "word_weight.txt": "#vertices 3\n0\t1\theavy\n",
    "negative_weight.txt": "#vertices 3\n0\t1\t-1.0\n",
    "inf_weight.txt": "#vertices 3\n0\t1\tinf\n",
    # finite weights whose sums overflow: vertex 1's degree, or (one edge)
    # the unnormalized Laplacian's norm bound d_0 + d_1
    "degree_overflow.txt": "#vertices 3\n0\t1\t1e308\n1\t2\t1e308\n",
    "bound_overflow.txt": "#vertices 3\n0\t1\t1e308\n",
    # its arrays are beyond any address space, so they fail at once
    "huge_count.txt": "#vertices 1000000000000000\n",
}


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
    # "huge.csv" is the input times 1e160: its squared norm overflows
    pytest.param([*SOLVE, "--matrix", "huge.csv", "--gamma-r", "0.3",
                  "--gamma-c", "0.5"], None, 3, id="frpcag-input-norm-overflows"),
    pytest.param([*SOLVE, "--matrix", "huge.csv", "--algo", "gfrpcag",
                  "--filter-b", "0.8", "--gamma-r", "0.3", "--gamma-c", "0.5"],
                 None, 3, id="gfrpcag-input-norm-overflows"),
    pytest.param([*SOLVE, "--matrix", "huge.csv", "--algo", "tikhonov",
                  "--gamma-r", "0.3", "--gamma-c", "0.5"], None, 3,
                 id="tikhonov-input-norm-overflows"),
    # the filtered penalty 1e307 * tr(X g_b(L) X^T) overflows in the trace
    pytest.param([*SOLVE, "--algo", "gfrpcag", "--filter-b", "0.8",
                  "--gamma-r", "0.3", "--gamma-c", "1e307"], None, 4,
                 id="gfrpcag-objective-overflows"),
    # the filtered prox's weight 2 gamma_c / tau_2, tau_2 = 0.6, overflows
    pytest.param([*SOLVE, "--algo", "gfrpcag", "--filter-b", "0.8",
                  "--gamma-r", "0.3", "--gamma-c", "1e308"], None, 2,
                 id="gfrpcag-filtered-weight-overflows"),
    pytest.param([*SOLVE, "--filter-b", "0.4"], None, 2,
                 id="frpcag-reads-no-filter-b"),
    pytest.param([*SOLVE, "--algo", "tikhonov", "--filter-b", "0.4"], None, 2,
                 id="tikhonov-reads-no-filter-b"),
    pytest.param([*SPECTRA, "rows.txt", "--filter-b", "0.4"], None, 2,
                 id="spectra-graph-reads-no-filter-b"),
    pytest.param([*SPECTRA, "rows.txt", "--filter-gamma", "1"], None, 2,
                 id="spectra-graph-reads-no-filter-gamma"),
    pytest.param([*SPECTRA, "rows.txt", "--x-max", "3"], None, 2,
                 id="spectra-graph-reads-no-x-max"),
    pytest.param([*CURVE, "0.4", "--count", "3"], None, 2,
                 id="curve-reads-no-count"),
    pytest.param(["spectra", "--out", "s.csv", "--count", "3"], None, 2,
                 id="spectra-count-without-graph"),
    pytest.param([*SOLVE, "--algo", "tikhonov"], {"loss": "l2"}, 2,
                 id="config-tikhonov-reads-no-loss"),
    # the closed form's gammas pass the iterative solvers' check; unchecked,
    # -0.1 writes an X and -5 ends as a singular matrix (exit 4)
    pytest.param([*SOLVE, "--algo", "tikhonov", "--gamma-r", "-0.1"], None, 2,
                 id="tikhonov-negative-gamma"),
    pytest.param([*SOLVE, "--algo", "tikhonov", "--gamma-r", "-5"], None, 2,
                 id="tikhonov-singular-gamma"),
    pytest.param([*SOLVE, "--algo", "gfrpcag", "--gamma-c", "1"], None, 2,
                 id="gfrpcag-needs-filter-b"),
    pytest.param([*DIAGNOSE, "--ystar", "y.csv", "--gamma", "5", "--loss",
                  "l21", "--k-r", "2"], None, 2, id="ystar-needs-noisy"),
    pytest.param([*SPECTRA, "rows.txt", "--count", "0"], None, 2,
                 id="spectra-count-zero"),
    pytest.param([*SPECTRA, "rows.txt", "--count", "13"], None, 2,
                 id="spectra-count-above-vertices"),
    pytest.param([*SPECTRA, "negative.txt"], None, 3, id="negative-vertex"),
    pytest.param([*SPECTRA, "duplicate.txt"], None, 3, id="duplicate-edge"),
    pytest.param([*SPECTRA, "minus_one.txt"], None, 3,
                 id="negative-vertex-count"),
    pytest.param([*SPECTRA, "no_vertices.txt"], None, 3, id="zero-vertex-count"),
    pytest.param([*SPECTRA, "two_headers.txt"], None, 3, id="second-header"),
    pytest.param([*DIAGNOSE, "--ystar", "y.csv", "--noisy", "one_row.csv"],
                 None, 3, id="noisy-one-row"),
    pytest.param([*DIAGNOSE, "--ystar", "y.csv", "--noisy", "wide.csv"],
                 None, 3, id="noisy-extra-column"),
    pytest.param(["graph", "build", "--matrix", "missing.csv", "--k", "3",
                  "--out", "g.txt"], None, 3, id="missing-matrix"),
    # an output that cannot be written is named, not a traceback
    pytest.param(["graph", "build", "--matrix", "y.csv", "--k", "3",
                  "--out", "missing/g.txt"], None, 3, id="out-in-missing-dir"),
    pytest.param([*SOLVE[:-1], "y.csv"], None, 3, id="out-dir-is-a-file"),
    pytest.param([*DIAGNOSE[:-1], "y.csv"], None, 3,
                 id="diagnose-out-dir-is-a-file"),
    pytest.param([*SYNTH[:-1], "y.csv"], None, 3,
                 id="synth-out-dir-is-a-file"),
    pytest.param([*SYNTH[:2], "--p", "1", "--n", "3", "--k-r", "1", "--k-c",
                  "1", "--out-dir", "syn"], None, 2, id="synth-one-row"),
    pytest.param([*SYNTH[:2], "--p", "3", "--n", "1", "--k-r", "1", "--k-c",
                  "1", "--out-dir", "syn"], None, 2, id="synth-one-column"),
    pytest.param([*BUILD, "--k", "3", "--config", "missing.json"], None, 3,
                 id="config-missing-file"),
    pytest.param([*BUILD, "--k", "3", "--config", "invalid.json"], None, 3,
                 id="config-invalid-json"),
    pytest.param([*BUILD, "--k", "3"], [3], 3, id="config-json-list"),
    pytest.param([*BUILD, "--k", "3"], {"params": 5}, 3,
                 id="config-params-not-object"),
    pytest.param(BUILD, {"k": True}, 2, id="config-k-true"),
    # sigma^2 underflows to 0: nan weights, or a 0-edge graph
    pytest.param([*BUILD, "--k", "3", "--sigma", "1e-200"], None, 2,
                 id="sigma-square-underflows"),
    pytest.param([*DIAGNOSE[:4], "cols.txt", "--col-graph", "rows.txt",
                  *DIAGNOSE[7:]], None, 3, id="diagnose-graphs-swapped"),
    pytest.param([*SPECTRA, "count_x.txt"], None, 3, id="vertex-count-x"),
    pytest.param([*SPECTRA, "two_fields.txt"], None, 3, id="two-field-edge"),
    pytest.param([*SPECTRA, "word_weight.txt"], None, 3, id="word-weight"),
    pytest.param([*SPECTRA, "negative_weight.txt"], None, 3,
                 id="negative-weight"),
    pytest.param([*SPECTRA, "inf_weight.txt"], None, 3, id="inf-weight"),
    pytest.param([*SPECTRA, "degree_overflow.txt"], None, 3,
                 id="degree-overflows-normalized"),
    pytest.param([*SPECTRA, "degree_overflow.txt", "--laplacian",
                  "unnormalized"], None, 3, id="degree-overflows-unnormalized"),
    pytest.param([*SPECTRA, "bound_overflow.txt", "--laplacian",
                  "unnormalized"], None, 3, id="norm-bound-overflows"),
    pytest.param([*SPECTRA, "huge_count.txt"], None, 3,
                 id="vertex-count-out-of-memory"),
    pytest.param(["synth", "manifold", "--kind", "circle2d", "--n",
                  "1000000000000000", "--out", "m.csv"], None, 3,
                 id="manifold-out-of-memory"),
    pytest.param([*SYNTH, "--noise", "column_outliers", "--fraction", "2"],
                 None, 2, id="synth-fraction-above-one"),
    pytest.param([*DIAGNOSE, "--ystar", "y.csv", "--noisy", "y.csv",
                  "--k-r", "40"], None, 2, id="diagnose-k-r-above-rows"),
    # one sample has no covariance: the file's shape is at fault
    pytest.param(["diagnose", "--matrix", "one_column.csv", "--row-graph",
                  "rows.txt", "--col-graph", "one_vertex.txt", "--k", "1",
                  "--out-dir", "diag"], None, 3, id="diagnose-one-column"),
    pytest.param(["diagnose", "--matrix", "one_row.csv", "--row-graph",
                  "one_vertex.txt", "--col-graph", "cols.txt", "--k", "1",
                  "--out-dir", "diag"], None, 3, id="diagnose-one-row"),
])
def test_bad_input_exit_code(tmp_path, monkeypatch, solve_setup, argv,
                             config, code):
    monkeypatch.chdir(tmp_path)
    if "--out-dir" in argv and Path(argv[argv.index("--out-dir") + 1]).is_file():
        # an out dir that is a file is refused before the computation
        def refuse(*args, **kwargs):
            raise AssertionError("the computation ran")
        monkeypatch.setattr(cli.solvers, "solve_frpcag", refuse)
        monkeypatch.setattr(cli.spectral, "eigendecompose", refuse)
        monkeypatch.setattr(cli.synth, "make_lrmg", refuse)
    save_matrix_csv(tmp_path / "huge.csv", 1e160 * solve_setup[3])
    for name, text in BAD_EDGE_LISTS.items():
        (tmp_path / name).write_text(text)
    (tmp_path / "invalid.json").write_text("{\"k\": 3")
    Y = solve_setup[3]
    save_matrix_csv(tmp_path / "one_row.csv", Y[:1])
    save_matrix_csv(tmp_path / "one_column.csv", Y[:, :1])
    (tmp_path / "one_vertex.txt").write_text("#vertices 1\n")
    save_matrix_csv(tmp_path / "wide.csv", np.hstack([Y, Y[:, :1]]))
    if config is not None:
        (tmp_path / "config.json").write_text(json.dumps(config))
        argv = [*argv, "--config", "config.json"]
    assert run(argv) == code


@pytest.mark.parametrize("argv, code", [
    pytest.param([*DIAGNOSE, "--ystar", "y.csv", "--noisy", "y.csv",
                  "--k-r", "12"], 2, id="k-r-at-rows"),
    pytest.param([*DIAGNOSE, "--ystar", "y.csv", "--noisy", "y.csv",
                  "--gamma", "-1"], 2, id="negative-gamma"),
    pytest.param([*DIAGNOSE, "--ystar", "y.csv", "--noisy", "one_row.csv"],
                 3, id="noisy-of-another-shape"),
    pytest.param([*DIAGNOSE, "--ystar", "y.csv", "--noisy", "missing.csv"],
                 3, id="missing-noisy"),
    pytest.param([*DIAGNOSE[:8], "100", *DIAGNOSE[9:]], 2, id="k-above-rows"),
    pytest.param(["diagnose", "--matrix", "one_column.csv", "--row-graph",
                  "rows.txt", "--col-graph", "one_vertex.txt", "--k", "1",
                  "--out-dir", "diag"], 3, id="one-column"),
    pytest.param(["diagnose", "--matrix", "one_row.csv", "--row-graph",
                  "one_vertex.txt", "--col-graph", "cols.txt", "--k", "1",
                  "--out-dir", "diag"], 3, id="one-row"),
    # a zero covariance of the columns used to leave gamma_rows_db.csv, and
    # of the rows an empty out dir
    pytest.param([*DIAGNOSE[:2], "constant_columns.csv", *DIAGNOSE[3:]], 3,
                 id="constant-columns"),
    pytest.param([*DIAGNOSE[:2], "constant_rows.csv", *DIAGNOSE[3:]], 3,
                 id="constant-rows"),
    pytest.param([*DIAGNOSE[:2], "zeros.csv", *DIAGNOSE[3:]], 3, id="zeros"),
    # the column means of a repeated row round, and the alignment of the
    # centred columns' rounding noise used to be written as a result
    pytest.param([*DIAGNOSE[:2], "repeated_row.csv", *DIAGNOSE[3:]], 3,
                 id="repeated-row"),
    # centered entries near 1e-170 square to 0 and the covariance is zero;
    # this used to leave an empty out dir
    pytest.param([*DIAGNOSE[:2], "underflow.csv", *DIAGNOSE[3:]], 3,
                 id="underflowing-covariance"),
    # so large that the covariance overflows: this used to be a traceback
    # under -W error::RuntimeWarning, after the out dir was made
    pytest.param([*DIAGNOSE[:2], "overflow.csv", *DIAGNOSE[3:]], 3,
                 id="overflowing-covariance"),
])
def test_refused_diagnose_writes_nothing(tmp_path, monkeypatch, solve_setup,
                                         argv, code):
    # every check comes before the out dir is made: these runs used to
    # leave the two alignment files, or an empty out dir, behind. Only the
    # bound check's zero (k+1)-th eigenvalue needs the dense bases; the k,
    # data and bound-input checks come before them
    monkeypatch.chdir(tmp_path)
    refuse_dense_eigh(monkeypatch)
    Y = solve_setup[3]
    save_matrix_csv(tmp_path / "one_row.csv", Y[:1])
    save_matrix_csv(tmp_path / "one_column.csv", Y[:, :1])
    (tmp_path / "one_vertex.txt").write_text("#vertices 1\n")
    p, n = Y.shape
    save_matrix_csv(tmp_path / "constant_columns.csv",
                    np.tile(np.arange(n, dtype=float), (p, 1)))
    save_matrix_csv(tmp_path / "constant_rows.csv",
                    np.tile(np.arange(p, dtype=float)[:, None], (1, n)))
    save_matrix_csv(tmp_path / "zeros.csv", np.zeros((p, n)))
    repeated = np.tile(Y[0], (p, 1))
    assert (repeated != repeated.mean(axis=0)).any()
    save_matrix_csv(tmp_path / "repeated_row.csv", repeated)
    save_matrix_csv(tmp_path / "underflow.csv", 1e-170 * Y)
    save_matrix_csv(tmp_path / "overflow.csv", 1e160 * Y)
    assert run(argv) == code
    assert not (tmp_path / "diag").exists()


EXIT_CODES = {"ParameterError": 2, "DataError": 3, "NumericalError": 4}


@pytest.mark.parametrize("error", GraphLowRankError.__subclasses__(),
                         ids=lambda error: error.__name__)
def test_each_error_kind_has_its_exit_code(tmp_path, monkeypatch, error):
    # main maps every kind of package error; a new kind without an exit
    # code fails here, where a fallback would have hidden it
    def fail(*args, **kwargs):
        raise error("raised by the handler")
    monkeypatch.setattr(cli.spectral, "step_penalty_curve", fail)
    assert error.__name__ in EXIT_CODES, f"{error.__name__} has no exit code"
    assert run(["spectra", "--filter-b", "0.4", "--out",
                tmp_path / "c.csv"]) == EXIT_CODES[error.__name__]


@pytest.mark.parametrize("scale", [2.0 ** -300, 2.0 ** 300, 2.0 ** 509],
                         ids=["tiny", "huge", "squares-sum-overflows"])
def test_diagnose_alignment_is_scale_free(tmp_path, monkeypatch, solve_setup,
                                          scale):
    # a power of two scales the covariance and Gamma exactly, and the orders
    # are ratios: they keep their bits. The squares of Gamma's entries used
    # to underflow, a nonzero covariance refused as zero after the out dir
    # was made, or overflow into a RuntimeWarning. At 2^509 the centered
    # squares sum past the float range, though no row's do; the covariances
    # and Gammas are finite, so the matrix is not refused
    if scale == 2.0 ** 509:
        Z = scale * solve_setup[3]
        squares = (Z - Z.mean(axis=1, keepdims=True)) ** 2
        assert squares.sum(axis=1).max() < np.inf
        with np.errstate(over="ignore"):
            assert squares.sum() == np.inf
    monkeypatch.chdir(tmp_path)
    save_matrix_csv(tmp_path / "scaled.csv", scale * solve_setup[3])
    orders = []
    for matrix, out_dir in (("y.csv", "diag"), ("scaled.csv", "scaled")):
        assert run([*DIAGNOSE[:2], matrix, *DIAGNOSE[3:-1], out_dir]) == 0
        items = report_items(tmp_path / out_dir / "diagnostics.txt",
                             "diagnostics report")
        orders.append([(key, value) for key, value in items
                       if "alignment" in key])
    assert len(orders[0]) == 4
    assert orders[1] == orders[0]


def conditional_rows():
    """Every table row that carries a read-when condition."""
    for command, (_, _, table) in cli._COMMANDS.items():
        for row in table:
            if len(row) > 5:
                yield pytest.param(command, table, row,
                                   id=f"{command.replace(' ', '-')}-{row[0]}")


@pytest.mark.parametrize("command, table, row", conditional_rows())
def test_unread_flag_is_refused(capsys, command, table, row):
    # the flag is given in a mode that does not read it: the mode parameter
    # is left out, given, or set to a choice outside the row's values; the
    # refusal comes before any file is read, so the paths need not exist
    name, _, _, choices, _, (param, values) = row
    argv = command.split()
    for other in table:
        if other[2] is cli._REQUIRED and len(other) == 5:
            argv += [cli._flag(other[0]), other[3][0] if other[3] else "1"]
    if values == (None,):
        argv += [cli._flag(param), "x"]
    elif cli._GIVEN not in values:
        param_choices = next(r[3] for r in table if r[0] == param)
        argv += [cli._flag(param),
                 next(c for c in param_choices if c not in values)]
    argv += [cli._flag(name), choices[0] if choices else "1"]
    assert run(argv) == 2
    assert f"{cli._flag(name)} is not read" in capsys.readouterr().err


@pytest.mark.parametrize("argv, name, choices", [
    pytest.param(SOLVE, "loss", "l1, l2, l21", id="loss"),
    pytest.param(SOLVE, "laplacian", "normalized, unnormalized",
                 id="laplacian"),
    pytest.param(SOLVE, "algo", "frpcag, gfrpcag, tikhonov", id="algo"),
    pytest.param([*BUILD, "--k", "3"], "axis", "rows, columns", id="axis"),
])
def test_bad_choice_flag_and_config_share_one_refusal(tmp_path, monkeypatch,
                                                       capsys, argv, name,
                                                       choices):
    # a flag and a config value outside the choices are refused by the same
    # check, in the same words, which list the values allowed; the refusal
    # comes before any file is read, so the paths need not exist
    monkeypatch.chdir(tmp_path)
    Path("config.json").write_text(json.dumps({name: "weird"}))
    errors = []
    for given in ([cli._flag(name), "weird"], ["--config", "config.json"]):
        assert run([*argv, *given]) == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] == (
        f"usage error: unknown {cli._flag(name)} 'weird'; expected one of "
        f"{choices}\n")


@pytest.mark.parametrize("argv, out, unread", [
    pytest.param([*BUILD[:4], "--k", "3", "--weighting", "binary"], "out",
                 ["sigma"], id="graph-build-binary"),
    pytest.param([*SYNTH[:-2], "--noise", "none"], "out_dir",
                 ["sigma", "fraction", "amplitude"], id="synth-lowrank-no-noise"),
    pytest.param(DIAGNOSE[:-2], "out_dir",
                 ["noisy", "gamma", "loss", "k_r", "k_c"],
                 id="diagnose-without-ystar"),
])
def test_manifest_with_unread_parameters_replays(tmp_path, monkeypatch,
                                                 solve_setup, argv, out,
                                                 unread):
    # unread parameters are recorded as null, so the replay gives none of
    # them and writes the same bytes
    monkeypatch.chdir(tmp_path)
    assert run([*argv, cli._flag(out), "first"]) == 0
    manifest = Path("first/manifest.json" if out == "out_dir"
                    else "first.manifest.json")
    params = json.loads(manifest.read_text())["params"]
    assert all(params[name] is None for name in unread)
    params[out] = "replay"
    Path("config.json").write_text(json.dumps(params))
    assert run([*manifest_command(argv), "--config", "config.json"]) == 0
    assert outputs("replay") == outputs("first")


def manifest_command(argv):
    """The command words at the head of argv, up to its first flag."""
    return argv[:next(i for i, a in enumerate(argv) if a.startswith("--"))]


def outputs(path):
    """The bytes a command wrote to an output file, or to each file of an
    output directory but its manifest."""
    path = Path(path)
    if path.is_file():
        return path.read_bytes()
    return {f.name: f.read_bytes() for f in path.iterdir()
            if f.name != "manifest.json"}


@pytest.mark.parametrize("side, gammas, named", [
    ("row_graph", ["--gamma-r", "1", "--gamma-c", "1e308"], "gamma_c=1e+308"),
    ("row_graph", ["--gamma-r", "1", "--gamma-c", "1e154"], "gamma_c=1e+154"),
    ("column_graph", ["--gamma-c", "1", "--gamma-r", "1e154"],
     "gamma_r=1e+154"),
    ("column_graph", ["--gamma-c", "1e308"], "gamma_c=1e+308"),
])
def test_gfrpcag_refusal_names_the_gamma_set(tmp_path, monkeypatch, capsys,
                                             solve_setup, side, gammas,
                                             named):
    # the smooth-side bound overflows, its dual step would overflow the
    # squared norms, or the filtered gamma over that step overflows; the
    # message names the value given, not one derived from it
    monkeypatch.chdir(tmp_path)
    assert run([*SOLVE, "--algo", "gfrpcag", "--filter-b", "0.8",
                "--filtered-side", side, *gammas]) == 2
    err = capsys.readouterr().err
    assert named in err
    assert "=0.0" not in err and "inf" not in err
    assert not Path("run").exists()


@pytest.mark.parametrize("shape", [(6, 6), (6, 9)])
def test_columns_orientation_round_trip(tmp_path, monkeypatch, rng, shape):
    # a sample-major input gives a sample-major X.csv, the transpose of the
    # feature-major run's, and diagnose reads it back with the same flag
    monkeypatch.chdir(tmp_path)
    Y = rng.standard_normal(shape)
    for name, values in (("y.csv", Y), ("ystar.csv", 0.9 * Y)):
        save_matrix_csv(name, values)
        save_matrix_csv("t_" + name, values.T)
    graphs = ["--row-graph", "rows.txt", "--col-graph", "cols.txt"]
    for axis, out in (("rows", "rows.txt"), ("columns", "cols.txt")):
        assert run(["graph", "build", "--matrix", "y.csv", "--axis", axis,
                    "--k", 2, "--out", out]) == 0
    for prefix, orientation in (("", "rows"), ("t_", "columns")):
        assert run(["solve", "--matrix", prefix + "y.csv", *graphs,
                    "--orientation", orientation, "--gamma-r", 0.5,
                    "--gamma-c", 0.7, "--out-dir", prefix + "run"]) == 0
        assert run(["diagnose", "--matrix", prefix + "run/X.csv", *graphs,
                    "--orientation", orientation, "--k", 2,
                    "--ystar", prefix + "ystar.csv", "--noisy", prefix + "y.csv",
                    "--out-dir", prefix + "diag"]) == 0
    X, X_t = load_matrix_csv("run/X.csv"), load_matrix_csv("t_run/X.csv")
    assert X.shape == Y.shape and X_t.shape == Y.T.shape
    assert np.array_equal(X_t, X.T) and not np.array_equal(X_t, X)
    assert (Path("t_diag/diagnostics.txt").read_bytes()
            == Path("diag/diagnostics.txt").read_bytes())


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
        for name in ("gamma_rows_db.csv", "singular_values.csv",
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

    def test_blank_line_between_edges_is_skipped(self, tmp_path):
        spectra = []
        for name, blank in (("plain.txt", ""), ("blank.txt", "\n")):
            graph_file = tmp_path / name
            graph_file.write_text(
                f"#vertices 3\n0\t1\t1.0\n{blank}1\t2\t0.5\n")
            out = tmp_path / f"{name}.csv"
            assert run(["spectra", "--graph", graph_file, "--out", out]) == 0
            spectra.append(out.read_bytes())
        assert spectra[0] == spectra[1]

    def test_missing_mode_is_usage_error(self, tmp_path, capsys):
        assert run(["spectra", "--out", tmp_path / "x.csv"]) == 2
        err = capsys.readouterr().err
        assert "--filter-b" in err and "--graph" in err

    def test_manifest_reproduces_run(self, tmp_path, monkeypatch,
                                     three_points_csv):
        # the manifest of the graph mode records the curve flags as null,
        # so replaying it does not give the flags that mode refuses
        monkeypatch.chdir(tmp_path)
        assert run(["graph", "build", "--matrix", three_points_csv, "--k", 1,
                    "--out", "g.txt"]) == 0
        assert run(["spectra", "--graph", "g.txt", "--out", "a.csv"]) == 0
        params = json.loads(Path("a.csv.manifest.json").read_text())["params"]
        assert params["filter_gamma"] is None and params["x_max"] is None
        params["out"] = "b.csv"
        Path("config.json").write_text(json.dumps(params))
        assert run(["spectra", "--config", "config.json"]) == 0
        assert Path("b.csv").read_bytes() == Path("a.csv").read_bytes()


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


def graph_gap(path, k):
    """The spectral gap at k of a graph file's normalized Laplacian."""
    L = laplacian(load_edge_list(path), "normalized")
    return spectral_gap(eigendecompose(L).eigenvalues, k)


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
        # only the iterative solvers read --max-iters and --tol; the report
        # lists the parameters the run read
        iterative = algo == "frpcag"
        extra = ["--max-iters", 3, "--tol", 1e-16] if iterative else []
        assert run(["solve", "--matrix", "y.csv", *fixed_inputs,
                    "--algo", algo, "--gamma-r", 0.5, "--gamma-c", 0.7,
                    *extra, "--out-dir", "run"]) == 0
        items = report_items(Path("run/report.txt"), "solver report")
        assert [key for key, _ in items] == [
            "algo", "col_graph", "gamma_c", "gamma_r", "laplacian",
            *(["loss"] if iterative else []), "matrix",
            *(["max_iters"] if iterative else []), "orientation",
            "out_dir", "row_graph", *(["tol"] if iterative else []),
            "iterations", "converged", "stop_reason",
            *(["final_objective"] if iterative else []),
            "wall_time_s"]
        report = dict(items)
        assert report["gamma_c"] == "0.7"
        if iterative:
            assert report["tol"] == "1e-16"
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
        # the row graph has two components, so only the column gap exists
        assert report["spectral_gap_col"] == repr(graph_gap("cols.txt", 1))
        assert report["spectral_gap_row"] == "undefined"
        floats = [key for key, _ in items
                  if key not in ("k", "spectral_gap_row", "bound_holds")]
        assert all(is_float_form(report[key]) for key in floats)
        if bound:
            assert report["bound_holds"] in ("true", "false")
        rows = table_rows(Path("diag/singular_values.csv"),
                          "index,singular_value")
        assert [row[0] for row in rows] == ["0", "1", "2", "3"]
        assert all(is_float_form(row[1]) for row in rows)

    def test_diagnose_gaps_are_column_then_row(self, fixed_inputs):
        # at k = 2 both gaps exist and differ: 0 for the two-component row
        # graph, about 1 for the 5-cycle, so a swapped pair reads wrong
        assert run(["diagnose", "--matrix", "y.csv", *fixed_inputs, "--k", 2,
                    "--out-dir", "diag"]) == 0
        report = dict(report_items(Path("diag/diagnostics.txt"),
                                   "diagnostics report"))
        col_gap, row_gap = graph_gap("cols.txt", 2), graph_gap("rows.txt", 2)
        assert row_gap == 0.0 and col_gap > 0.5
        assert report["spectral_gap_col"] == repr(col_gap)
        assert report["spectral_gap_row"] == repr(row_gap)

    @pytest.mark.parametrize("count", [None, 3])
    def test_spectrum(self, fixed_inputs, count):
        extra = [] if count is None else ["--count", count]
        assert run(["spectra", "--graph", "cols.txt", *extra,
                    "--out", "s.csv"]) == 0
        rows = table_rows(Path("s.csv"), "index,eigenvalue")
        assert [row[0] for row in rows] == [str(i) for i in range(count or 5)]
        assert all(is_float_form(row[1]) for row in rows)
        # --count keeps the leading eigenvalues of the full spectrum
        L = laplacian(load_edge_list("cols.txt"), "normalized")
        assert [row[1] for row in rows] == [
            repr(v) for v in eigendecompose(L).eigenvalues[:count].tolist()]

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


def test_help_states_defaults_and_read_when(capsys):
    with pytest.raises(SystemExit) as done:
        main(["solve", "--help"])
    assert done.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "--filter-b FILTER_B required; read only with --algo gfrpcag" in text
    assert ("--loss {l1,l2,l21} default l1; read only with --algo frpcag "
            "or gfrpcag") in text


def _source_env():
    """The environment of a child Python that imports this source tree."""
    src = Path(__file__).resolve().parent.parent / "src"
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), os.environ.get("PYTHONPATH", "")]))


def test_cli_import_leaves_out_scipy_spatial():
    # cdist is imported only by the cityblock KNN graph: other commands do
    # not pay for scipy.spatial and the scipy.special it loads
    code = ("import sys, graphlowrank.cli; "
            "sys.exit('scipy.spatial' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], env=_source_env(),
                          timeout=60)
    assert done.returncode == 0


@pytest.mark.parametrize("metric, imported", [("euclidean", False),
                                              ("cityblock", True)])
def test_graph_build_imports_scipy_spatial_for_cityblock_only(
        tmp_path, rng, metric, imported):
    # the Euclidean graph computes its exact distances with numpy
    matrix = tmp_path / "y.csv"
    save_matrix_csv(matrix, rng.standard_normal((20, 30)))
    code = ("import sys, graphlowrank.cli; "
            "code = graphlowrank.cli.main(sys.argv[1:]); "
            "print('scipy.spatial' in sys.modules); sys.exit(code)")
    done = subprocess.run(
        [sys.executable, "-c", code, "graph", "build", "--matrix", matrix,
         "--axis", "columns", "--k", "5", "--metric", metric,
         "--out", tmp_path / "g.txt"],
        env=_source_env(), capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == str(imported)
    assert load_edge_list(tmp_path / "g.txt").num_vertices == 30


def test_cli_import_leaves_out_scipy_linalg():
    # scipy.linalg is imported inside tikhonov_closed_form, the one user
    code = ("import sys, graphlowrank.cli; "
            "sys.exit('scipy.linalg' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], env=_source_env(),
                          timeout=60)
    assert done.returncode == 0


def test_package_version_matches_pyproject():
    # the version is written once, in the package; pyproject.toml reads it
    tomllib = pytest.importorskip("tomllib")
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert "version" not in project and "version" in project["dynamic"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # setuptools' beta-feature notice
        declared = pyprojecttoml.read_configuration(pyproject)
    assert __version__ == declared["project"]["version"]


def test_readme_quickstart_runs():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"```python\n(.*?)```", readme.read_text(), re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(readme), "exec"), namespace)
    assert namespace["result"].X.shape == (120, 120)
