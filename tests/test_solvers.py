import multiprocessing
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphlowrank import (DataError, DataMatrix, FilterSpec, NumericalError,
                          ParameterError, SolverConfig, SparseGraph,
                          eigendecompose, frpcag_gradient,
                          knn_graph, laplacian, lipschitz_bound, loss_value,
                          solve_frpcag, solve_gfrpcag, tikhonov_closed_form)
from graphlowrank import graph, solvers, spectral
from graphlowrank.spectral import step_penalty_curve

from conftest import apply_filter_exact, build_laplacians, refuse_dense_eigh


def smoothness_objective(X, Lr, Lc, gamma_r, gamma_c):
    return (gamma_c * np.sum(X * ((Lc.dense() @ X.T).T))
            + gamma_r * np.sum(X * (Lr.dense() @ X)))


def random_laplacian(rng, size):
    """Normalized Laplacian of a random weighted graph (edgeless for size 1)."""
    W = np.triu(rng.uniform(0.1, 1.0, (size, size))
                * (rng.random((size, size)) < 0.4), k=1)
    return laplacian(SparseGraph.from_weight_matrix(W + W.T), "normalized")


def prox_loss(X, Y, lam, loss):
    """The solvers' loss prox on whole arrays: the l21 column norms are
    those of the whole X - Y."""
    return solvers._prox_loss(X, Y, lam, loss, np.linalg.norm(X - Y, axis=0))


def use_row_blocks(monkeypatch, n, rows):
    """Make the row-blocked solver passes use blocks of ``rows`` rows for
    width n."""
    monkeypatch.setattr(graph, "BLOCK_BYTES", 8 * n * rows)


def reference_frpcag(Y, Lr, Lc, config):
    """The plain FISTA loop: the gradient at the extrapolated point and the
    objective each take their own full sparse products."""
    gamma_r, gamma_c = config.gamma_r, config.gamma_c

    def gradient(X):
        grad = np.zeros_like(X)
        if gamma_c != 0.0:
            grad += 2.0 * gamma_c * (Lc.matrix.T @ X.T).T
        if gamma_r != 0.0:
            grad += 2.0 * gamma_r * (Lr.matrix @ X)
        return grad

    def objective(X):
        val = loss_value(X, Y, config.loss)
        if gamma_c != 0.0:
            val += gamma_c * float(np.sum(X * (Lc.matrix.T @ X.T).T))
        if gamma_r != 0.0:
            val += gamma_r * float(np.sum(X * (Lr.matrix @ X)))
        return val

    step = 1.0 / lipschitz_bound(Lr, Lc, gamma_r, gamma_c)
    S, X_prev, t = Y.copy(), Y.copy(), 1.0
    trace, changes = [], []
    for iterations in range(1, config.max_iters + 1):
        X = prox_loss(S - step * gradient(S), Y, step, config.loss)
        t_next = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
        S_next = X + ((t - 1.0) / t_next) * (X - X_prev)
        trace.append(objective(X))
        diff = float(np.sum((S_next - S) ** 2))
        ref = float(np.sum(S * S))
        changes.append(diff / (ref + solvers.STOP_DELTA))
        if diff <= config.tol * ref:
            break
        X_prev, S, t = X, S_next, t_next
    return X, iterations, trace, changes


class TestGradient:
    def test_zero_gammas(self, rng):
        Y = rng.standard_normal((6, 8))
        Lr, Lc = build_laplacians(Y, 2, 3)
        assert np.allclose(frpcag_gradient(Y, Lr, Lc, 0.0, 0.0), 0.0)

    def test_zero_matrix(self, rng):
        Y = rng.standard_normal((6, 8))
        Lr, Lc = build_laplacians(Y, 2, 3)
        assert np.allclose(frpcag_gradient(np.zeros((6, 8)), Lr, Lc, 1.0, 2.0), 0.0)

    def test_matches_finite_differences(self, rng):
        h = 1e-5
        for _ in range(3):
            Y = rng.standard_normal((6, 8))
            Lr, Lc = build_laplacians(Y, 2, 3)
            gamma_r, gamma_c = rng.uniform(0.1, 2.0, size=2)
            X = rng.standard_normal((6, 8))
            grad = frpcag_gradient(X, Lr, Lc, gamma_r, gamma_c)
            fd = np.zeros_like(X)
            for i in range(6):
                for j in range(8):
                    up, down = X.copy(), X.copy()
                    up[i, j] += h
                    down[i, j] -= h
                    fd[i, j] = (smoothness_objective(up, Lr, Lc, gamma_r, gamma_c)
                                - smoothness_objective(down, Lr, Lc, gamma_r,
                                                       gamma_c)) / (2 * h)
            tol = 1e-5 * (1.0 + np.abs(grad).max())
            assert np.abs(grad - fd).max() <= tol

    def test_shape_mismatch(self, rng):
        Y = rng.standard_normal((6, 8))
        Lr, Lc = build_laplacians(Y, 2, 3)
        with pytest.raises(DataError):
            frpcag_gradient(Y.T, Lr, Lc, 1.0, 1.0)

    @pytest.mark.parametrize("p, n, block_rows", [
        (1, 9, None), (9, 1, None), (10, 7, 3), (10, 7, 1)])
    def test_matches_dense_formula(self, rng, monkeypatch, p, n, block_rows):
        if block_rows is not None:
            use_row_blocks(monkeypatch, n, block_rows)
        Lr, Lc = random_laplacian(rng, p), random_laplacian(rng, n)
        X = rng.standard_normal((p, n))
        expected = 2.0 * (0.7 * X @ Lc.dense() + 1.3 * Lr.dense() @ X)
        grad = frpcag_gradient(X, Lr, Lc, 1.3, 0.7)
        assert np.allclose(grad, expected, rtol=1e-12, atol=1e-12)

    def test_row_blocks_do_not_change_the_result(self, rng, monkeypatch):
        # X Lc is added in row blocks; each output row accumulates its
        # sparse sums in the same order whatever the block width, so the
        # blocked sum equals the one-block sum bit for bit
        p, n = 10, 7
        Lr, Lc = random_laplacian(rng, p), random_laplacian(rng, n)
        X = rng.standard_normal((p, n))
        whole = frpcag_gradient(X, Lr, Lc, 1.3, 0.7)
        use_row_blocks(monkeypatch, n, 3)
        assert len(solvers._row_blocks(p, n)) == 4
        assert np.array_equal(frpcag_gradient(X, Lr, Lc, 1.3, 0.7), whole)

    @pytest.mark.parametrize("gamma_r, gamma_c", [(1.3, 0.0), (0.0, 0.7)])
    def test_single_term_is_the_blocked_result(self, rng, monkeypatch,
                                               gamma_r, gamma_c):
        # with one term the result is that term alone: Lr X as one whole
        # product, or X Lc added to zeros in row blocks, and each output
        # row holds the same bits as its own block's product
        p, n = 10, 7
        Lr, Lc = random_laplacian(rng, p), random_laplacian(rng, n)
        X = rng.standard_normal((p, n))
        use_row_blocks(monkeypatch, n, 3)
        blocked = np.zeros_like(X)
        for rows in solvers._row_blocks(p, n):
            if gamma_c != 0.0:
                blocked[rows] = 2.0 * gamma_c * (Lc.matrix.T @ X[rows].T).T
            else:
                blocked[rows] = 2.0 * gamma_r * (Lr.matrix[rows] @ X)
        assert np.array_equal(frpcag_gradient(X, Lr, Lc, gamma_r, gamma_c),
                              blocked)


# negative, NaN and infinite graph weights, refused wherever a gamma is read
BAD_GAMMAS = [(-0.1, 0.0), (-5.0, 0.0), (0.0, -1.0), (np.nan, 0.5),
              (0.5, np.inf)]


class TestLipschitzBound:
    def test_zero_gammas(self, rng):
        Lr, Lc = build_laplacians(rng.standard_normal((8, 9)), 2, 2)
        assert lipschitz_bound(Lr, Lc, 0.0, 0.0) == 0.0

    def test_normalized_bound_at_most_eight(self, rng):
        Lr, Lc = build_laplacians(rng.standard_normal((8, 9)), 2, 2,
                                  kind="normalized")
        assert lipschitz_bound(Lr, Lc, 1.0, 1.0) <= 8.0

    @pytest.mark.parametrize("gamma_r, gamma_c", [
        (0.0, 1e308), (1e308, 1e308), (np.float64(1e308), 0.0)])
    def test_overflowing_bound_rejected(self, rng, gamma_r, gamma_c):
        Lr, Lc = build_laplacians(rng.standard_normal((6, 7)), 2, 2)
        with pytest.raises(ParameterError, match="overflow"):
            lipschitz_bound(Lr, Lc, gamma_r, gamma_c)

    @pytest.mark.parametrize("solve, spec", [
        (solve_frpcag, None), (solve_gfrpcag, FilterSpec("prox_fb", b=0.5))])
    def test_solvers_refuse_an_overflowing_bound(self, rng, solve, spec):
        # without the refusal the step is 1/inf = 0 and 0 * inf makes X NaN;
        # gFRPCAG filters the row side here, so 1e308 weighs its smooth term
        Y = rng.standard_normal((6, 7))
        Lr, Lc = build_laplacians(Y, 2, 2)
        config = SolverConfig(gamma_r=1.0, gamma_c=1e308, filter_spec=spec,
                              filtered_side="row_graph")
        with pytest.raises(ParameterError, match="overflow"):
            solve(Y, Lr, Lc, config)

    @pytest.mark.parametrize("gamma_r, gamma_c", BAD_GAMMAS)
    def test_bad_gamma_rejected(self, rng, gamma_r, gamma_c):
        # unchecked, (-1, 0) gives the bound -4.0
        Lr, Lc = build_laplacians(rng.standard_normal((6, 7)), 2, 2)
        with pytest.raises(ParameterError, match="finite and >= 0"):
            lipschitz_bound(Lr, Lc, gamma_r, gamma_c)

    def test_sampled_lipschitz_inequality(self, rng):
        Y = rng.standard_normal((7, 9))
        Lr, Lc = build_laplacians(Y, 2, 3, kind="unnormalized")
        gamma_r, gamma_c = 0.7, 1.4
        bound = lipschitz_bound(Lr, Lc, gamma_r, gamma_c)
        for _ in range(100):
            X1 = rng.standard_normal((7, 9))
            X2 = rng.standard_normal((7, 9))
            lhs = np.linalg.norm(frpcag_gradient(X1, Lr, Lc, gamma_r, gamma_c)
                                 - frpcag_gradient(X2, Lr, Lc, gamma_r, gamma_c))
            assert lhs <= bound * np.linalg.norm(X1 - X2) * (1 + 1e-12)


class TestProxLoss:
    @pytest.mark.parametrize("loss", ["l1", "l2", "l21"])
    def test_zero_step_is_identity(self, rng, loss):
        X = rng.standard_normal((5, 6))
        Y = rng.standard_normal((5, 6))
        assert np.allclose(prox_loss(X, Y, 0.0, loss), X)

    @pytest.mark.parametrize("loss", ["l1", "l2", "l21"])
    def test_anchor_is_fixed_point(self, rng, loss):
        Y = rng.standard_normal((5, 6))
        assert np.allclose(prox_loss(Y, Y, 0.8, loss), Y)

    def test_l1_scalar_cases_with_grid_oracle(self):
        y = 0.3
        for delta, expected in [(0.7, y), (1.5, y + 0.5)]:
            x = y + delta
            out = prox_loss(np.array([[x]]), np.array([[y]]), 1.0, "l1")
            assert np.isclose(out[0, 0], expected)
            grid = np.linspace(x - 3, x + 3, 20001)
            obj = 0.5 * (grid - x) ** 2 + 1.0 * np.abs(grid - y)
            best = grid[np.argmin(obj)]
            assert abs(best - expected) <= 5e-4

    def test_l2_formula(self, rng):
        X = rng.standard_normal((4, 4))
        Y = rng.standard_normal((4, 4))
        lam = 0.6
        assert np.allclose(prox_loss(X, Y, lam, "l2"),
                           (X + 2 * lam * Y) / (1 + 2 * lam))

    def test_l21_zero_column_maps_to_anchor(self, rng):
        Y = rng.standard_normal((4, 3))
        X = Y.copy()
        X[:, 1] += np.array([0.1, -0.2, 0.3, 0.05])
        out = prox_loss(X, Y, 10.0, "l21")
        assert np.allclose(out[:, 0], Y[:, 0])
        assert np.allclose(out[:, 1], Y[:, 1])  # fully shrunk

    @pytest.mark.parametrize("loss", ["l1", "l2", "l21"])
    def test_prox_optimality_against_perturbations(self, rng, loss):
        X = rng.standard_normal((5, 7))
        Y = rng.standard_normal((5, 7))
        lam = 0.7
        out = prox_loss(X, Y, lam, loss)

        def prox_objective(S):
            return 0.5 * np.sum((S - X) ** 2) + lam * loss_value(S, Y, loss)

        base = prox_objective(out)
        for _ in range(100):
            probe = out + rng.standard_normal((5, 7)) * rng.uniform(1e-4, 1.0)
            assert base <= prox_objective(probe) + 1e-12

    def test_l1_clip_form_equals_soft_threshold(self, rng):
        X = rng.standard_normal((7, 9))
        Y = rng.standard_normal((7, 9))
        X[0, :3] = Y[0, :3] + np.array([0.6, -0.6, 0.0])  # |R| = lam and 0
        R = X - Y
        expected = Y + np.sign(R) * np.maximum(np.abs(R) - 0.6, 0.0)
        assert np.array_equal(prox_loss(X, Y, 0.6, "l1"), expected)

    def test_unknown_loss_rejected(self, rng):
        X = rng.standard_normal((3, 4))
        with pytest.raises(ParameterError, match="l3"):
            loss_value(X, X, "l3")

    @settings(max_examples=60, deadline=None)
    @given(x=st.floats(-5.0, 5.0), y=st.floats(-5.0, 5.0),
           lam=st.floats(0.0, 3.0), step=st.floats(1e-4, 0.5))
    def test_l1_prox_scalar_is_a_minimizer(self, x, y, lam, step):
        out = float(prox_loss(np.array([[x]]), np.array([[y]]), lam, "l1")[0, 0])

        def objective(s):
            return 0.5 * (s - x) ** 2 + lam * abs(s - y)

        base = objective(out)
        for probe in (out - step, out + step, x, y):
            assert base <= objective(probe) + 1e-12


class TestSolveFrpcag:
    @pytest.mark.parametrize("loss", ["l1", "l2", "l21"])
    def test_zero_gamma_returns_input_after_one_iteration(self, rng, loss):
        Y = rng.standard_normal((8, 10))
        Lr, Lc = build_laplacians(Y, 3, 3)
        result = solve_frpcag(Y, Lr, Lc, SolverConfig(loss=loss))
        assert result.iterations == 1
        assert result.converged
        assert np.allclose(result.X, Y)

    def test_edgeless_graphs_return_input(self, rng):
        Y = rng.standard_normal((5, 6))
        empty_r = laplacian(SparseGraph.from_weight_matrix(np.zeros((5, 5))),
                            "unnormalized")
        empty_c = laplacian(SparseGraph.from_weight_matrix(np.zeros((6, 6))),
                            "unnormalized")
        result = solve_frpcag(Y, empty_r, empty_c,
                              SolverConfig(gamma_r=1.0, gamma_c=1.0))
        assert np.allclose(result.X, Y)

    @pytest.mark.parametrize("loss", ["l1", "l2", "l21"])
    @pytest.mark.parametrize("graphs", ["zero_gammas", "edgeless"])
    def test_zero_bound_takes_one_unit_step(self, rng, loss, graphs):
        # the gradient is identically 0, so FISTA's loop stops after its
        # first iterate, the loss prox of Y at Y
        Y = rng.standard_normal((5, 6))
        if graphs == "zero_gammas":
            Lr, Lc = build_laplacians(Y, 2, 2)
            config = SolverConfig(loss=loss)
        else:
            Lr, Lc = (laplacian(SparseGraph.from_weight_matrix(np.zeros((m, m))),
                                "unnormalized") for m in Y.shape)
            config = SolverConfig(gamma_r=1.0, gamma_c=1.0, loss=loss)
        assert lipschitz_bound(Lr, Lc, config.gamma_r, config.gamma_c) == 0.0
        result = solve_frpcag(Y, Lr, Lc, config)
        X = prox_loss(Y, Y, 1.0, loss)
        assert np.array_equal(result.X, X)
        assert result.iterations == 1
        assert result.converged
        assert result.objective_trace == [loss_value(X, Y, loss)]
        assert result.stop_reason == "tolerance"

    def test_l2_single_graph_matches_closed_form(self, rng):
        Y = rng.standard_normal((20, 30))
        Lr, Lc = build_laplacians(Y, 4, 4)
        for gamma_r, gamma_c in [(0.5, 0.0), (0.0, 0.5)]:
            config = SolverConfig(gamma_r=gamma_r, gamma_c=gamma_c, loss="l2",
                                  max_iters=4000, tol=1e-14)
            result = solve_frpcag(Y, Lr, Lc, config)
            oracle = tikhonov_closed_form(Y, Lr, Lc, gamma_r, gamma_c)
            assert (np.linalg.norm(result.X - oracle)
                    <= 1e-4 * np.linalg.norm(oracle))

    def test_l2_sequential_solves_match_closed_form(self, rng):
        # the two-sided closed form is the composition of the two
        # single-graph smoothing problems, solved here back to back
        Y = rng.standard_normal((20, 30))
        Lr, Lc = build_laplacians(Y, 4, 4)
        gamma = 0.5
        first = solve_frpcag(Y, Lr, Lc,
                             SolverConfig(gamma_r=gamma, loss="l2",
                                          max_iters=4000, tol=1e-14))
        second = solve_frpcag(first.X, Lr, Lc,
                              SolverConfig(gamma_c=gamma, loss="l2",
                                           max_iters=4000, tol=1e-14))
        oracle = tikhonov_closed_form(Y, Lr, Lc, gamma, gamma)
        assert np.linalg.norm(second.X - oracle) <= 1e-4 * np.linalg.norm(oracle)

    def test_l2_joint_solution_matches_spectral_oracle(self, rng):
        # with both graphs active the stationarity condition divides each
        # doubly-spectral coefficient by (1 + gamma_r*lam_ri + gamma_c*lam_cj)
        Y = rng.standard_normal((15, 18))
        Lr, Lc = build_laplacians(Y, 3, 3)
        gamma_r, gamma_c = 0.8, 1.3
        config = SolverConfig(gamma_r=gamma_r, gamma_c=gamma_c, loss="l2",
                              max_iters=6000, tol=1e-15)
        result = solve_frpcag(Y, Lr, Lc, config)
        rbasis, cbasis = eigendecompose(Lr), eigendecompose(Lc)
        coeffs = rbasis.eigenvectors.T @ Y @ cbasis.eigenvectors
        denom = (1.0 + gamma_r * rbasis.eigenvalues[:, None]
                 + gamma_c * cbasis.eigenvalues[None, :])
        oracle = rbasis.eigenvectors @ (coeffs / denom) @ cbasis.eigenvectors.T
        assert np.linalg.norm(result.X - oracle) <= 1e-4 * np.linalg.norm(oracle)

    @pytest.mark.parametrize("loss", ["l1", "l2"])
    def test_objective_no_worse_than_at_input(self, rng, loss):
        Y = rng.standard_normal((12, 14))
        Lr, Lc = build_laplacians(Y, 3, 3)
        gamma_r, gamma_c = 0.4, 0.9
        config = SolverConfig(gamma_r=gamma_r, gamma_c=gamma_c, loss=loss,
                              max_iters=2000, tol=1e-12)
        result = solve_frpcag(Y, Lr, Lc, config)
        at_input = (loss_value(Y, Y, loss)
                    + smoothness_objective(Y, Lr, Lc, gamma_r, gamma_c))
        assert result.objective_trace[-1] <= at_input + 1e-10

    def test_objective_trace_nonincreasing_after_warmup(self, rng):
        Y = rng.standard_normal((10, 12))
        Lr, Lc = build_laplacians(Y, 3, 3)
        config = SolverConfig(gamma_r=1.0, gamma_c=1.0, loss="l1",
                              max_iters=300, tol=1e-14)
        trace = solve_frpcag(Y, Lr, Lc, config).objective_trace
        for prev, curr in zip(trace[5:], trace[6:]):
            assert curr <= prev * 1.01

    def test_rejects_non_finite_input(self, rng):
        Y = rng.standard_normal((5, 5))
        Lr, Lc = build_laplacians(Y, 2, 2)
        bad = Y.copy()
        bad[0, 0] = np.nan
        with pytest.raises(DataError):
            solve_frpcag(bad, Lr, Lc, SolverConfig())

    def test_filter_spec_rejected(self, rng):
        Y = rng.standard_normal((5, 5))
        Lr, Lc = build_laplacians(Y, 2, 2)
        config = SolverConfig(filter_spec=FilterSpec("prox_fb", b=1.0))
        with pytest.raises(ParameterError):
            solve_frpcag(Y, Lr, Lc, config)

    def test_zero_input_converges(self, rng):
        # ||S_2 - S_1||^2 = ||S_1||^2 = 0 meets the tolerance
        Lr, Lc = build_laplacians(rng.standard_normal((12, 15)), 3, 3)
        result = solve_frpcag(np.zeros((12, 15)), Lr, Lc,
                              SolverConfig(gamma_r=1.0, gamma_c=1.0,
                                           max_iters=500))
        assert result.iterations == 1
        assert result.converged and result.stop_reason == "tolerance"
        assert np.array_equal(result.X, np.zeros((12, 15)))

    @pytest.mark.parametrize("loss", ["l1", "l2", "l21"])
    def test_final_objective_matches_recomputed(self, rng, loss):
        Y = rng.standard_normal((12, 14))
        Lr, Lc = build_laplacians(Y, 3, 3)
        config = SolverConfig(gamma_r=0.6, gamma_c=1.1, loss=loss,
                              max_iters=2000, tol=1e-10)
        result = solve_frpcag(Y, Lr, Lc, config)
        assert result.converged
        recomputed = (loss_value(result.X, Y, loss)
                      + smoothness_objective(result.X, Lr, Lc, 0.6, 1.1))
        assert result.objective_trace[-1] == pytest.approx(recomputed,
                                                           rel=1e-12)


def reference_gfrpcag(Y, Lr, Lc, config):
    """The primal-dual loop with its own smooth-term product, step sizes,
    energy and filtered prox, the latter built per call from the public
    eigenbasis and filter functions."""
    if config.filtered_side == "column_graph":
        L_tik, L_filtered = Lr, Lc
        gamma_filtered, gamma_tik = config.gamma_c, config.gamma_r
        filtered_axis, tik_axis = "right", "left"
    else:
        L_tik, L_filtered = Lc, Lr
        gamma_filtered, gamma_tik = config.gamma_r, config.gamma_c
        filtered_axis, tik_axis = "left", "right"
    b = config.filter_spec.b
    basis = eigendecompose(L_filtered)
    curve = step_penalty_curve(basis.eigenvalues, b)
    finite = np.isfinite(curve)

    def prox_filtered(Z, scale):
        return apply_filter_exact(basis, b, scale * gamma_filtered, Z,
                                  side=filtered_axis)

    def penalty(X):
        # the finite part of gamma tr(X g_b(L) X^T)
        Q = basis.eigenvectors
        if filtered_axis == "right":
            energy = ((X @ Q) ** 2).sum(axis=0)
        else:
            energy = ((Q.T @ X) ** 2).sum(axis=1)
        return gamma_filtered * float(np.sum(curve[finite] * energy[finite]))

    def smooth_product(X):
        if tik_axis == "left":
            return L_tik.matrix @ X
        return (L_tik.matrix.T @ X.T).T

    beta = 2.0 * gamma_tik * L_tik.spectral_norm_bound
    tau1, tau2 = (1.0 / beta, beta / 2.0) if beta > 0.0 else (1.0, 0.5)
    tau3 = 0.99
    X, V = Y.copy(), Y.copy()
    product = smooth_product(X) if gamma_tik != 0.0 else 0.0
    trace, changes = [], []
    for iterations in range(1, config.max_iters + 1):
        P = prox_loss(X - tau1 * (2.0 * gamma_tik * product + V), Y, tau1,
                      config.loss)
        T = V + tau2 * (2.0 * P - X)
        # Moreau's identity with the prox of penalty / tau_2 under the
        # (1/2) ||.||^2 fidelity: f_b at weight 2 gamma / tau_2
        Q = T - tau2 * prox_filtered(T / tau2, 2.0 / tau2)
        X_next = X + tau3 * (P - X)
        V_next = V + tau3 * (Q - V)
        energy = 0.0
        if gamma_tik != 0.0:
            product = smooth_product(X_next)
            energy = gamma_tik * float(np.sum(X_next * product))
        trace.append(loss_value(X_next, Y, config.loss) + energy
                     + penalty(X_next))
        dx = float(np.sum((X_next - X) ** 2)) / (float(np.sum(X * X))
                                                 + solvers.STOP_DELTA)
        dv = float(np.sum((V_next - V) ** 2)) / (float(np.sum(V * V))
                                                 + solvers.STOP_DELTA)
        changes.append(max(dx, dv))
        X, V = X_next, V_next
        if dx < config.tol and dv < config.tol:
            break
    return X, iterations, trace, changes


class TestFistaMatchesReference:
    """The product-reusing loop against the plain one it replaces."""

    @pytest.mark.parametrize("block_rows", [None, 3])
    @pytest.mark.parametrize("gamma_r, gamma_c", [(0.7, 1.3), (0.0, 1.3),
                                                  (0.7, 0.0)])
    @pytest.mark.parametrize("loss", ["l1", "l2", "l21"])
    def test_same_iterates_and_traces(self, rng, monkeypatch, loss, gamma_r,
                                      gamma_c, block_rows):
        p, n = 20, 26
        Y = rng.standard_normal((p, n))
        Lr, Lc = build_laplacians(Y, 4, 4)
        if block_rows is None:
            assert len(solvers._row_blocks(p, n)) == 1
        else:
            use_row_blocks(monkeypatch, n, block_rows)
            assert len(solvers._row_blocks(p, n)) == 7  # the last has 2 rows
        config = SolverConfig(gamma_r=gamma_r, gamma_c=gamma_c, loss=loss,
                              max_iters=500, tol=1e-8)
        result = solve_frpcag(Y, Lr, Lc, config)
        X, iterations, trace, changes = reference_frpcag(Y, Lr, Lc, config)
        assert result.converged
        assert result.iterations == iterations
        assert np.linalg.norm(result.X - X) <= 1e-12 * np.linalg.norm(X)
        np.testing.assert_allclose(result.objective_trace, trace, rtol=1e-12,
                                   atol=0)
        # a relative change is the squared norm of S_{j+1} - S_j over that
        # of S_j: rounding at the scale of S_j moves it relative to its
        # square root, so its square roots are compared to 1e-12
        np.testing.assert_allclose(np.sqrt(result.change_trace),
                                   np.sqrt(changes), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("gamma_r, gamma_c", [(0.7, 1.3), (0.0, 1.3),
                                                  (0.7, 0.0)])
    @pytest.mark.parametrize("loss", ["l1", "l2"])
    def test_row_blocks_do_not_change_the_iterates(self, rng, monkeypatch,
                                                   loss, gamma_r, gamma_c):
        # the l1 and l2 proxes are elementwise and each gradient row sums
        # in the same order whatever the block height, so X holds the same
        # bits; l21 sums its column norms per block (checked to 1e-12 above)
        p, n = 20, 26
        Y = rng.standard_normal((p, n))
        Lr, Lc = build_laplacians(Y, 4, 4)
        config = SolverConfig(gamma_r=gamma_r, gamma_c=gamma_c, loss=loss,
                              max_iters=500, tol=1e-8)
        whole = solve_frpcag(Y, Lr, Lc, config)
        use_row_blocks(monkeypatch, n, 3)
        assert len(solvers._row_blocks(p, n)) == 7
        blocked = solve_frpcag(Y, Lr, Lc, config)
        assert blocked.iterations == whole.iterations
        assert np.array_equal(blocked.X, whole.X)


class TestTikhonovClosedForm:
    def test_zero_gammas(self, rng):
        Y = rng.standard_normal((7, 9))
        Lr, Lc = build_laplacians(Y, 2, 3)
        assert np.allclose(tikhonov_closed_form(Y, Lr, Lc, 0.0, 0.0), Y)

    def test_kernel_outer_product_unchanged(self, rng):
        Y = rng.standard_normal((8, 10))
        Lr, Lc = build_laplacians(Y, 3, 3)
        p0 = eigendecompose(Lr).eigenvectors[:, 0]
        q0 = eigendecompose(Lc).eigenvectors[:, 0]
        Y0 = np.outer(p0, q0)
        out = tikhonov_closed_form(Y0, Lr, Lc, 2.0, 3.0)
        assert np.linalg.norm(out - Y0) <= 1e-10

    @pytest.mark.parametrize("gamma_r, gamma_c", BAD_GAMMAS)
    def test_bad_gamma_rejected(self, rng, gamma_r, gamma_c):
        # unchecked, -0.1 gives a result, -5 a LinAlgError and NaN a
        # ValueError with a RuntimeWarning
        Y = rng.standard_normal((7, 9))
        Lr, Lc = build_laplacians(Y, 2, 3)
        with pytest.raises(ParameterError, match="finite and >= 0"):
            tikhonov_closed_form(Y, Lr, Lc, gamma_r, gamma_c)

    def test_direct_solve_matches_spectral_formula(self, rng):
        Y = rng.standard_normal((12, 15))
        Lr, Lc = build_laplacians(Y, 3, 3)
        gamma_r, gamma_c = 0.9, 2.2
        direct = tikhonov_closed_form(Y, Lr, Lc, gamma_r, gamma_c)
        rbasis, cbasis = eigendecompose(Lr), eigendecompose(Lc)
        coeffs = rbasis.eigenvectors.T @ Y @ cbasis.eigenvectors
        denom = ((1.0 + gamma_r * rbasis.eigenvalues)[:, None]
                 * (1.0 + gamma_c * cbasis.eigenvalues)[None, :])
        spectral = rbasis.eigenvectors @ (coeffs / denom) @ cbasis.eigenvectors.T
        assert np.linalg.norm(direct - spectral) <= 1e-8 * np.linalg.norm(spectral)


class TestSolveGfrpcag:
    @pytest.mark.parametrize("side, gamma_r, gamma_c", [
        ("column_graph", 0.0, 0.0), ("column_graph", 1.0, 0.0),
        ("row_graph", 0.0, 1.0)])
    def test_zero_filtered_gamma_rejected(self, rng, side, gamma_r, gamma_c):
        # f_b is then 1, the identity: the problem is solve_frpcag's
        Y = rng.standard_normal((8, 12))
        Lr, Lc = build_laplacians(Y, 3, 3)
        config = SolverConfig(gamma_r=gamma_r, gamma_c=gamma_c,
                              filter_spec=FilterSpec("prox_fb", b=0.5),
                              filtered_side=side)
        field = "gamma_c" if side == "column_graph" else "gamma_r"
        with pytest.raises(ParameterError,
                           match=f"config.{field} is 0.*solve_frpcag"):
            solve_gfrpcag(Y, Lr, Lc, config)

    def test_wide_band_filter_returns_input(self, rng):
        Y = rng.standard_normal((8, 12))
        Lr, Lc = build_laplacians(Y, 3, 3)
        lam_max = eigendecompose(Lc).eigenvalues.max()
        config = SolverConfig(gamma_c=2.0,
                              filter_spec=FilterSpec("prox_fb",
                                                     b=2.0 * lam_max + 1.0),
                              max_iters=2000, tol=1e-14)
        result = solve_gfrpcag(Y, Lr, Lc, config)
        assert np.linalg.norm(result.X - Y) <= 1e-4 * np.linalg.norm(Y)

    def test_missing_filter_rejected(self, rng):
        Y = rng.standard_normal((6, 6))
        Lr, Lc = build_laplacians(Y, 2, 2)
        with pytest.raises(ParameterError):
            solve_gfrpcag(Y, Lr, Lc, SolverConfig())

    def test_step_filter_rejected(self):
        # g_b is the penalty curve; the solver applies its prox f_b
        with pytest.raises(ParameterError, match="step_gb"):
            FilterSpec("step_gb", b=0.5)

    @pytest.mark.parametrize("side, field", [("column_graph", "gamma_c"),
                                             ("row_graph", "gamma_r")])
    def test_filter_gamma_rejected(self, rng, side, field):
        # the filtered side's gamma weighs the penalty; the spec has none
        with pytest.raises(TypeError, match="gamma"):
            FilterSpec("prox_fb", b=0.5, gamma=3.0)
        Y = rng.standard_normal((6, 6))
        Lr, Lc = build_laplacians(Y, 2, 2)
        outs = []
        for gamma in (1.0, 3.0):
            gammas = {"gamma_r": 1.0, "gamma_c": 1.0, field: gamma}
            config = SolverConfig(**gammas, filtered_side=side,
                                  filter_spec=FilterSpec("prox_fb", b=0.5),
                                  max_iters=50)
            outs.append(solve_gfrpcag(Y, Lr, Lc, config).X)
        assert np.linalg.norm(outs[0] - outs[1]) > 1e-6 * np.linalg.norm(Y)

    @pytest.mark.parametrize("side, gamma_r, gamma_c, field", [
        # the smooth term's Lipschitz bound overflows
        ("row_graph", 1.0, 1e308, "gamma_c"),
        # tau_2 = beta / 2 would overflow the squared norms of the pass
        ("row_graph", 1.0, 1e154, "gamma_c"),
        ("column_graph", 1e154, 1.0, "gamma_r"),
        # the filtered gamma over tau_2 overflows (tau_2 = 1/2 at a zero
        # smooth gamma, about 2e-300 at a tiny one)
        ("column_graph", 0.0, 1e308, "gamma_c"),
        ("row_graph", 1e10, 1e-300, "gamma_r"),
    ])
    def test_overflowing_steps_name_the_config_field(self, rng, side,
                                                      gamma_r, gamma_c,
                                                      field):
        Y = rng.standard_normal((8, 12))
        Lr, Lc = build_laplacians(Y, 3, 3)
        config = SolverConfig(gamma_r=gamma_r, gamma_c=gamma_c,
                              filter_spec=FilterSpec("prox_fb", b=0.5),
                              filtered_side=side)
        named = f"config.{field}={getattr(config, field)}"
        with pytest.raises(ParameterError, match="overflow") as refused:
            solve_gfrpcag(Y, Lr, Lc, config)
        assert named in str(refused.value)

    @pytest.mark.parametrize("side", ["row_graph", "column_graph"])
    @pytest.mark.parametrize("scale", [1.0, 1e3])
    def test_largest_accepted_smooth_gamma_stays_finite(self, rng, side,
                                                        scale):
        # just inside the refusal, 4 tau_2 max(1, max|Y|) sqrt(p n) below
        # sqrt(float max), every norm and trace value of the pass is finite
        Y = scale * rng.standard_normal((8, 12))
        Lr, Lc = build_laplacians(Y, 3, 3)
        L_smooth = Lc if side == "row_graph" else Lr
        limit = np.sqrt(np.finfo(np.float64).max) / (
            4.0 * max(1.0, np.abs(Y).max()) * np.sqrt(Y.size))
        gamma = 0.99 * limit / L_smooth.spectral_norm_bound
        smooth = {"gamma_c" if side == "row_graph" else "gamma_r": gamma}
        config = SolverConfig(**{"gamma_r": 1.0, "gamma_c": 1.0, **smooth},
                              filter_spec=FilterSpec("prox_fb", b=0.5),
                              filtered_side=side, max_iters=50)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = solve_gfrpcag(Y, Lr, Lc, config)
        assert np.isfinite(result.X).all()
        assert np.isfinite(result.objective_trace).all()
        assert np.isfinite(result.change_trace).all()
        with pytest.raises(ParameterError, match="overflow"):
            solve_gfrpcag(Y, Lr, Lc, SolverConfig(
                **{"gamma_r": 1.0, "gamma_c": 1.0,
                   **{key: 1.02 * value for key, value in smooth.items()}},
                filter_spec=config.filter_spec, filtered_side=side))

    def test_l2_fixed_point_matches_spectral_filtering(self, rng):
        # smooth term off: the minimizer of ||X - Y||^2 + gamma tr(X g_b X^T)
        # scales each of the input's column-graph coefficients by
        # 1 / (1 + gamma g_b), the prox response at gamma; neither term is
        # halved
        Y = rng.standard_normal((10, 16))
        Lr, Lc = build_laplacians(Y, 3, 3)
        gamma_c, b = 3.0, 0.8
        config = SolverConfig(gamma_c=gamma_c, loss="l2",
                              filter_spec=FilterSpec("prox_fb", b=b),
                              max_iters=5000, tol=1e-16)
        result = solve_gfrpcag(Y, Lr, Lc, config)
        basis = eigendecompose(Lc)
        oracle = apply_filter_exact(basis, b, gamma_c, Y, side="right")
        assert np.linalg.norm(result.X - oracle) <= 1e-6 * np.linalg.norm(oracle)

    def test_row_side_filtering(self, rng):
        Y = rng.standard_normal((16, 10))
        Lr, Lc = build_laplacians(Y, 3, 3)
        gamma_r, b = 3.0, 0.8
        config = SolverConfig(gamma_r=gamma_r, loss="l2",
                              filter_spec=FilterSpec("prox_fb", b=b),
                              filtered_side="row_graph",
                              max_iters=5000, tol=1e-16)
        result = solve_gfrpcag(Y, Lr, Lc, config)
        basis = eigendecompose(Lr)
        oracle = apply_filter_exact(basis, b, gamma_r, Y, side="left")
        assert np.linalg.norm(result.X - oracle) <= 1e-6 * np.linalg.norm(oracle)


# (gamma_r, gamma_c, filtered side): the filtered side's gamma is non-zero,
# the other side's smooth term is on or off
FILTERED_GAMMAS = [(0.7, 1.3, "column_graph"), (0.0, 1.3, "column_graph"),
                   (0.7, 1.3, "row_graph"), (0.7, 0.0, "row_graph")]


class TestGfrpcagMatchesReference:
    """The primal-dual loop on FISTA's gradient and Lipschitz bound against
    the loop with its own smooth-term product."""

    @pytest.mark.parametrize("gamma_r, gamma_c, side", FILTERED_GAMMAS)
    @pytest.mark.parametrize("loss", ["l1", "l2", "l21"])
    def test_same_iterates_and_traces(self, rng, loss, gamma_r, gamma_c, side):
        Y = rng.standard_normal((14, 18))
        Lr, Lc = build_laplacians(Y, 3, 4)
        config = SolverConfig(gamma_r=gamma_r, gamma_c=gamma_c, loss=loss,
                              filter_spec=FilterSpec("prox_fb", b=0.6),
                              filtered_side=side, max_iters=300, tol=1e-8)
        result = solve_gfrpcag(Y, Lr, Lc, config)
        X, iterations, trace, changes = reference_gfrpcag(Y, Lr, Lc, config)
        assert result.iterations == iterations
        np.testing.assert_allclose(result.objective_trace, trace, rtol=1e-12,
                                   atol=0)
        if side == "column_graph":
            assert np.array_equal(result.X, X)
            assert result.change_trace == changes
        else:
            # the row side runs on the transpose, whose products round
            # differently from the reference's left-side GEMMs
            assert np.linalg.norm(result.X - X) <= 1e-12 * np.linalg.norm(X)
            np.testing.assert_allclose(np.sqrt(result.change_trace),
                                       np.sqrt(changes), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("gamma_r, gamma_c, side", FILTERED_GAMMAS)
    @pytest.mark.parametrize("loss", ["l1", "l2", "l21"])
    def test_same_iterates_and_traces_in_row_blocks(self, rng, monkeypatch,
                                                    loss, gamma_r, gamma_c,
                                                    side):
        # blocks of 3 rows sum the reductions (l21 column norms, row-side
        # coefficients, energies, change norms) block by block, so the
        # results agree to rounding rather than bit for bit
        p, n = 14, 18
        Y = rng.standard_normal((p, n))
        Lr, Lc = build_laplacians(Y, 3, 4)
        use_row_blocks(monkeypatch, n, 3)
        assert len(solvers._row_blocks(p, n)) == 5  # the last has 2 rows
        config = SolverConfig(gamma_r=gamma_r, gamma_c=gamma_c, loss=loss,
                              filter_spec=FilterSpec("prox_fb", b=0.6),
                              filtered_side=side, max_iters=300, tol=1e-8)
        result = solve_gfrpcag(Y, Lr, Lc, config)
        X, iterations, trace, changes = reference_gfrpcag(Y, Lr, Lc, config)
        assert result.iterations == iterations
        assert np.linalg.norm(result.X - X) <= 1e-12 * np.linalg.norm(X)
        np.testing.assert_allclose(result.objective_trace, trace, rtol=1e-12,
                                   atol=0)
        np.testing.assert_allclose(np.sqrt(result.change_trace),
                                   np.sqrt(changes), rtol=0, atol=1e-12)

    # l21 sums column norms, so it does not commute with transposition
    @pytest.mark.parametrize("loss", ["l1", "l2"])
    def test_row_side_is_column_side_of_the_transpose(self, rng, loss):
        Y = rng.standard_normal((12, 17))
        Lr, Lc = build_laplacians(Y, 3, 4)
        spec = FilterSpec("prox_fb", b=0.6)
        rows = solve_gfrpcag(Y, Lr, Lc, SolverConfig(
            gamma_r=1.5, gamma_c=0.4, loss=loss, filter_spec=spec,
            filtered_side="row_graph", max_iters=400, tol=1e-10))
        cols = solve_gfrpcag(Y.T, Lc, Lr, SolverConfig(
            gamma_r=0.4, gamma_c=1.5, loss=loss, filter_spec=spec,
            filtered_side="column_graph", max_iters=400, tol=1e-10))
        # the row side is the column-side pass on the transpose
        assert rows.iterations == cols.iterations
        assert np.array_equal(rows.X, cols.X.T)
        assert rows.objective_trace == cols.objective_trace
        assert rows.change_trace == cols.change_trace

    @pytest.mark.parametrize("side", ["column_graph", "row_graph"])
    @pytest.mark.parametrize("loss", ["l1", "l2", "l21"])
    def test_one_loss_prox_per_block_and_iteration(self, rng, monkeypatch,
                                                   loss, side):
        p, n = 14, 18
        Y = rng.standard_normal((p, n))
        Lr, Lc = build_laplacians(Y, 3, 4)
        # the row side walks the blocks of the 18 x 14 transpose
        shape = (p, n) if side == "column_graph" else (n, p)
        use_row_blocks(monkeypatch, shape[1], 3)
        blocks = len(solvers._row_blocks(*shape))
        assert blocks > 1
        calls = []
        prox_loss = solvers._prox_loss

        def spy(*args):
            calls.append(None)
            return prox_loss(*args)
        monkeypatch.setattr(solvers, "_prox_loss", spy)
        config = SolverConfig(gamma_r=0.7, gamma_c=1.3, loss=loss,
                              filter_spec=FilterSpec("prox_fb", b=0.6),
                              filtered_side=side, max_iters=20, tol=1e-12)
        result = solve_gfrpcag(Y, Lr, Lc, config)
        assert result.iterations == 20
        assert len(calls) == blocks * result.iterations


class SerialPool:
    """Stands in for the solver's ``ThreadPoolExecutor``: its ``map`` runs
    every task in order on the calling thread."""

    def __init__(self, **kwargs):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    map = staticmethod(map)


class TestGfrpcagPool:
    """The row blocks of the primal-dual pass run on a pool of two worker
    threads that lives for one solve; each task returns its parts of the
    sums, added in block order."""

    @pytest.mark.parametrize("side", ["column_graph", "row_graph"])
    @pytest.mark.parametrize("loss", ["l1", "l2", "l21"])
    def test_pooled_walk_is_the_serial_walk(self, rng, monkeypatch, loss,
                                            side):
        p, n = 14, 18
        Y = rng.standard_normal((p, n))
        Lr, Lc = build_laplacians(Y, 3, 4)
        use_row_blocks(monkeypatch, n, 3)
        assert len(solvers._row_blocks(p, n)) == 5
        config = SolverConfig(gamma_r=0.7, gamma_c=1.3, loss=loss,
                              filter_spec=FilterSpec("prox_fb", b=0.6),
                              filtered_side=side, max_iters=300, tol=1e-8)
        threads, products = set(), []
        loss_sums = solvers._loss_sums
        smooth_product = solvers._smooth_product

        def spy(R, loss):
            threads.add(threading.current_thread().name)
            return loss_sums(R, loss)

        def product_spy(L, X, gamma):
            G = smooth_product(L, X, gamma)
            products.append((threading.current_thread().name, L, X.copy(), G))
            return G
        with monkeypatch.context() as patch:
            patch.setattr(solvers, "_loss_sums", spy)
            patch.setattr(solvers, "_smooth_product", product_spy)
            pooled = solve_gfrpcag(Y, Lr, Lc, config)
        assert threads and all(name.startswith("graphlowrank")
                               for name in threads)
        # the smooth term's product, of the rows of Lr or, on the transpose,
        # of Lc: one task per worker at X_0 and after each pass, none on
        # the calling thread. Its row ranges, joined in row order, have the
        # bits of the whole product
        L, gamma = (Lr, 0.7) if side == "column_graph" else (Lc, 1.3)
        starts = {}

        def start(part):
            # the row of L where a range's rows begin
            if id(part) not in starts:
                starts[id(part)] = next(
                    row for row in range(L.shape[0] - part.shape[0] + 1)
                    if (L.matrix[row:row + part.shape[0]] != part).nnz == 0)
            return starts[id(part)]
        assert len(products) == solvers.WORKERS * (pooled.iterations + 1)
        for first in range(0, len(products), solvers.WORKERS):
            chunk = sorted(products[first:first + solvers.WORKERS],
                           key=lambda product: start(product[1]))
            assert all(name.startswith("graphlowrank") for name, *_ in chunk)
            X = chunk[0][2]
            assert all(np.array_equal(x, X) for _, _, x, _ in chunk)
            joined = np.vstack([G for *_, G in chunk])
            assert np.array_equal(joined, smooth_product(L.matrix, X, gamma))
        monkeypatch.setattr(solvers, "ThreadPoolExecutor", SerialPool)
        serial = solve_gfrpcag(Y, Lr, Lc, config)
        assert pooled.iterations == serial.iterations
        assert np.array_equal(pooled.X, serial.X)
        assert pooled.objective_trace == serial.objective_trace
        assert pooled.change_trace == serial.change_trace

    def test_pooled_walk_under_thread_switches(self, rng, monkeypatch):
        # one-row blocks on four workers, more than the cores, switching
        # threads every microsecond: a lost or misplaced row write or an
        # out-of-order sum would change X or a trace
        p, n = 14, 18
        Y = rng.standard_normal((p, n))
        Lr, Lc = build_laplacians(Y, 3, 4)
        use_row_blocks(monkeypatch, n, 1)
        config = SolverConfig(gamma_r=1.3, gamma_c=0.7, loss="l21",
                              filter_spec=FilterSpec("prox_fb", b=0.6),
                              filtered_side="row_graph", max_iters=40,
                              tol=1e-12)
        with monkeypatch.context() as patch:
            patch.setattr(solvers, "ThreadPoolExecutor", SerialPool)
            serial = solve_gfrpcag(Y, Lr, Lc, config)
        monkeypatch.setattr(
            solvers, "ThreadPoolExecutor",
            lambda **kwargs: ThreadPoolExecutor(**{**kwargs, "max_workers": 4}))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pooled = solve_gfrpcag(Y, Lr, Lc, config)
        finally:
            sys.setswitchinterval(interval)
        assert pooled.iterations == serial.iterations == 40
        assert np.array_equal(pooled.X, serial.X)
        assert pooled.objective_trace == serial.objective_trace
        assert pooled.change_trace == serial.change_trace

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="needs fork")
    def test_forked_child_gets_its_own_pool(self, rng, monkeypatch):
        # the parent's workers do not survive a fork: the child's solve
        # must start its own
        p, n = 14, 18
        Y = rng.standard_normal((p, n))
        Lr, Lc = build_laplacians(Y, 3, 4)
        use_row_blocks(monkeypatch, n, 3)
        config = SolverConfig(gamma_r=0.7, gamma_c=1.3,
                              filter_spec=FilterSpec("prox_fb", b=0.6),
                              max_iters=20)
        solve_gfrpcag(Y, Lr, Lc, config)  # starts the parent's workers
        child = multiprocessing.get_context("fork").Process(
            target=solve_gfrpcag, args=(Y, Lr, Lc, config))
        child.start()
        child.join(timeout=60)
        hung = child.is_alive()
        if hung:
            child.kill()
            child.join()
        assert not hung
        assert child.exitcode == 0

    # True: the second block's loss prox of the second iteration raises;
    # "product": the first smooth-term product after the first pass
    @pytest.mark.parametrize("fails", [False, True, "product"])
    def test_no_worker_thread_outlives_the_solve(self, rng, monkeypatch,
                                                 fails):
        p, n = 14, 18
        Y = rng.standard_normal((p, n))
        Lr, Lc = build_laplacians(Y, 3, 4)
        use_row_blocks(monkeypatch, n, 3)
        config = SolverConfig(gamma_r=0.7, gamma_c=1.3,
                              filter_spec=FilterSpec("prox_fb", b=0.6),
                              max_iters=20)
        threads = []
        failing = {True: ("_prox_loss", 7), "product": ("_smooth_product", 3)}

        def spy(name):
            function, calls = getattr(solvers, name), []

            def call(*args):
                threads.append(threading.current_thread().name)
                calls.append(None)
                if failing.get(fails) == (name, len(calls)):
                    raise NumericalError("failed in a worker")
                return function(*args)
            monkeypatch.setattr(solvers, name, call)
        spy("_prox_loss")
        spy("_smooth_product")
        if fails:
            with pytest.raises(NumericalError, match="failed in a worker"):
                solve_gfrpcag(Y, Lr, Lc, config)
        else:
            assert solve_gfrpcag(Y, Lr, Lc, config).iterations == 20
        assert all(name.startswith("graphlowrank") for name in threads)
        assert not [thread for thread in threading.enumerate()
                    if thread.name.startswith("graphlowrank")]

    @pytest.mark.parametrize("seed", range(25))
    def test_block_height_keeps_the_objective_trace(self, monkeypatch,
                                                     seed):
        # the set-up of TestGfrpcagMatchesReference over 25 seeds. The
        # traced penalty leaves out frequencies where g_b exceeds 1/eps:
        # with them, values up to 1.95e53 multiplied rounding and the trace
        # moved by up to 1.6e-10 between block heights. Below 1/eps, g_b
        # (up to 2.7e13 here) still magnifies the rounding-level changes of
        # X that the block-ordered sums make, so the bound is 1e-10
        # a serial walk: the same bits, faster
        monkeypatch.setattr(solvers, "ThreadPoolExecutor", SerialPool)
        p, n = 14, 18
        rng = np.random.default_rng(seed)
        Y = rng.standard_normal((p, n))
        Lr, Lc = build_laplacians(Y, 3, 4)
        for loss in ("l1", "l2", "l21"):
            for gamma_r, gamma_c, side in FILTERED_GAMMAS:
                config = SolverConfig(
                    gamma_r=gamma_r, gamma_c=gamma_c, loss=loss,
                    filter_spec=FilterSpec("prox_fb", b=0.6),
                    filtered_side=side, max_iters=300, tol=1e-8)
                with monkeypatch.context() as patch:
                    one = solve_gfrpcag(Y, Lr, Lc, config)
                    use_row_blocks(patch, n, 3)
                    blocked = solve_gfrpcag(Y, Lr, Lc, config)
                assert one.iterations == blocked.iterations
                np.testing.assert_allclose(blocked.objective_trace,
                                           one.objective_trace, rtol=1e-10,
                                           atol=0)


class TestGfrpcagPartialBasis:
    """The filtered side's eigenpairs below 3b/2 come from Lanczos on the
    sparse Laplacian: the solve matches the one on the cut dense basis to
    rounding, and repeats bit for bit."""

    @pytest.mark.parametrize("side", ["column_graph", "row_graph"])
    def test_sparse_basis_matches_dense_basis(self, rng, monkeypatch, side):
        p, n = 20, 400
        centers = rng.standard_normal((p, 4))
        Y = (centers[:, np.repeat(np.arange(4), n // 4)]
             + 0.5 * rng.standard_normal((p, n)))
        Lr, Lc = build_laplacians(Y, 4, 10)
        b = eigendecompose(Lc).eigenvalues[4] / 2.0
        gamma_r, gamma_c = 0.1, 2.0
        if side == "row_graph":
            Y, Lr, Lc = Y.T, Lc, Lr
            gamma_r, gamma_c = gamma_c, gamma_r
        config = SolverConfig(gamma_r=gamma_r, gamma_c=gamma_c, loss="l2",
                              filter_spec=FilterSpec("prox_fb", b=b),
                              filtered_side=side, max_iters=500, tol=1e-8)
        with monkeypatch.context() as patch:
            # without a sparse result eigendecompose cuts the dense basis
            patch.setattr(spectral, "_sparse_eigenpairs_below",
                          lambda *args: None)
            dense = solve_gfrpcag(Y, Lr, Lc, config)

        refuse_dense_eigh(monkeypatch)
        first = solve_gfrpcag(Y, Lr, Lc, config)
        second = solve_gfrpcag(Y, Lr, Lc, config)
        assert first.converged
        assert first.iterations == dense.iterations
        assert (np.linalg.norm(first.X - dense.X)
                <= 1e-12 * np.linalg.norm(dense.X))
        np.testing.assert_allclose(first.objective_trace,
                                   dense.objective_trace, rtol=1e-10)
        # the seeded Lanczos start vector makes reruns bit-identical
        assert np.array_equal(second.X, first.X)
        assert second.objective_trace == first.objective_trace


class TestInputCheck:
    """Both solvers check Y and the Laplacian shapes before any work."""

    @pytest.mark.parametrize("solve, spec", [
        (solve_frpcag, None), (solve_gfrpcag, FilterSpec("prox_fb", b=0.5))])
    @pytest.mark.parametrize("gammas", [(0.0, 0.0), (0.5, 0.5)])
    def test_wrong_laplacian_shapes_rejected(self, rng, solve, spec, gammas):
        Y = rng.standard_normal((4, 5))
        L3 = random_laplacian(rng, 3)
        config = SolverConfig(gamma_r=gammas[0], gamma_c=gammas[1],
                              filter_spec=spec)
        with pytest.raises(DataError, match="row Laplacian"):
            solve(Y, L3, L3, config)
        Lr = random_laplacian(rng, 4)
        with pytest.raises(DataError, match="column Laplacian"):
            solve(Y, Lr, L3, config)

    def test_laplacians_in_swapped_order_rejected(self, rng):
        Y = rng.standard_normal((16, 10))
        Lr, Lc = build_laplacians(Y, 3, 3)
        config = SolverConfig(gamma_r=3.0, filtered_side="row_graph",
                              filter_spec=FilterSpec("prox_fb", b=0.8))
        with pytest.raises(DataError):
            solve_gfrpcag(Y, Lc, Lr, config)

    def test_gfrpcag_rejects_non_finite_input(self, rng):
        Y = rng.standard_normal((6, 7))
        Lr, Lc = build_laplacians(Y, 2, 2)
        Y[2, 3] = np.inf
        with pytest.raises(DataError):
            solve_gfrpcag(Y, Lr, Lc, SolverConfig(
                gamma_c=1.0, filter_spec=FilterSpec("prox_fb", b=0.5)))


class TestRunTraces:
    def test_non_finite_objective_or_change_names_the_iteration(self):
        X = np.zeros((2, 2))
        for bad in ((X, np.inf, 0.5, False), (X, 1.0, np.nan, True)):
            steps = iter([(X, 1.0, 0.5, False), bad])
            with pytest.raises(NumericalError, match="^iteration 2: "):
                solvers._run(steps, 10)


class TestSolverConfigValidation:
    def test_bad_values(self):
        with pytest.raises(ParameterError):
            SolverConfig(loss="huber")
        with pytest.raises(ParameterError):
            SolverConfig(gamma_r=-1.0)
        with pytest.raises(ParameterError):
            SolverConfig(max_iters=0)
        with pytest.raises(ParameterError):
            SolverConfig(tol=0.0)
        with pytest.raises(ParameterError):
            SolverConfig(filtered_side="diagonal")
        with pytest.raises(ParameterError, match="always exact"):
            SolverConfig(filter_application="chebyshev")

    @pytest.mark.parametrize("field", ["gamma_r", "gamma_c", "tol"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_values(self, field, value):
        with pytest.raises(ParameterError, match="finite"):
            SolverConfig(**{field: value})

    @pytest.mark.parametrize("value", [2.5, np.nan, np.inf])
    def test_max_iters_not_integral(self, value):
        # no iteration count equals such a cap: a solve ran on past it
        with pytest.raises(ParameterError, match="max_iters must be an "
                                                 "integer"):
            SolverConfig(max_iters=value)

    def test_integral_float_max_iters(self, rng):
        Y = rng.standard_normal((12, 14))
        Lr, Lc = build_laplacians(Y)
        config = SolverConfig(gamma_r=0.5, gamma_c=0.5, max_iters=3.0,
                              tol=1e-300)
        assert solve_frpcag(Y, Lr, Lc, config).iterations == 3
