"""First-order optimality of the documented objectives, checked from
scratch at the solvers' outputs.

``solve_frpcag`` minimizes phi(X - Y) + gamma_c tr(X Lc X^T)
+ gamma_r tr(X^T Lr X), and ``solve_gfrpcag`` the same with the filtered
side's term replaced by gamma tr(X g_b(L) X^T), where g_b is infinite, a
hard constraint, from 3b/2 on. The checks below share no code with the
solvers: dense Laplacians, numpy's ``eigh``, g_b from its formula, and the
loss's subdifferential written out, with no prox, step size or partial
eigenbasis.

- l2 with gFRPCAG: X* = sum_j c_j q_j^T over the filtered graph's
  eigenpairs (lambda_j, q_j) with finite g_j, where
  ((1 + gamma g_j) I + gamma_r Lr) c_j = Y q_j (the row side on the
  transpose).
- Every other case: X meets the constraint, and -grad f(X) lies in the
  subdifferential of phi at X - Y plus the constraint's normal cone, so
  the residual is measured along the eigenvectors with finite g_b only.
  For l2 the subgradient is the gradient 2 (X - Y); for l1 it is the sign,
  or any value in [-1, 1] where X - Y is zero; for l21 each column of
  X - Y over its norm.
"""

import numpy as np
import pytest
from scipy.optimize import lsq_linear

from graphlowrank import (DataMatrix, FilterSpec, SolverConfig, knn_graph,
                          laplacian, solve_frpcag, solve_gfrpcag)

# on the KNN graphs of the seeded 9 x 12 input below, B_CUT leaves either
# filtered side a few eigenpairs below 3b/2, with a moderate g_b, and puts
# the rest under the constraint; B_WIDE keeps every pair (3b/2 exceeds 2,
# the normalized Laplacian's largest eigenvalue) and penalizes those above
# b/2
B_CUT, B_WIDE = 0.5, 1.5
SIDES = ["column_graph", "row_graph"]


@pytest.fixture(scope="module")
def problem():
    Y = np.random.default_rng(5).standard_normal((9, 12))
    data = DataMatrix(Y)
    Lr = laplacian(knn_graph(data, "rows", 3), "normalized")
    Lc = laplacian(knn_graph(data, "columns", 3), "normalized")
    return Y, Lr, Lc


def penalty_curve(x, b):
    """g_b(x) = h_b(x) / h_b(2b - x), h_b(t) = exp(-b / (t - b/2)) above
    b/2: zero up to b/2, infinite from 3b/2, exp(b / (3b/2 - x)
    - b / (x - b/2)) between."""
    g = np.zeros_like(x)
    g[x >= 1.5 * b] = np.inf
    band = (x > b / 2) & (x < 1.5 * b)
    g[band] = np.exp(b / (1.5 * b - x[band]) - b / (x[band] - b / 2))
    return g


def filtered_split(L, b):
    """The eigenvectors of dense L with finite g_b, their g_b, and the
    eigenvectors of the constraint (g_b infinite)."""
    eigenvalues, Q = np.linalg.eigh(L.dense())
    g = penalty_curve(eigenvalues, b)
    finite = np.isfinite(g)
    # a moderate g keeps the gradient's rounding small
    assert g[finite].max() < 1e3
    return Q[:, finite], g[finite], Q[:, ~finite]


def solve_config(side, gamma_smooth, gamma, loss, b):
    """A gFRPCAG config: gamma weighs the filtered side's penalty."""
    smooth, filtered = (("gamma_r", "gamma_c") if side == "column_graph"
                        else ("gamma_c", "gamma_r"))
    return SolverConfig(**{smooth: gamma_smooth, filtered: gamma}, loss=loss,
                        filter_spec=FilterSpec("prox_fb", b=b),
                        filtered_side=side, max_iters=5000, tol=1e-28)


def column_side(Y, Lr, Lc, X, side):
    """The problem with its filtered side on the columns: the transpose,
    graphs swapped, for the row side."""
    if side == "column_graph":
        return Y, Lr, Lc, X
    return Y.T, Lc, Lr, X.T


def subgradient_residual(R, G, loss, groups=0, basis=None):
    """How far -G lies from the subdifferential of phi at R, along the
    columns of ``basis`` (all directions when None): the largest entry of
    (S + G) basis for the S of the subdifferential that minimizes it. The
    directions left out are the constraint's normal cone. l21's groups are
    the columns (``groups`` 0) or the rows (1) of R."""
    if basis is None:
        basis = np.eye(R.shape[1])
    if loss == "l2":
        return np.abs((2.0 * R + G) @ basis).max()
    if loss == "l21":
        norms = np.linalg.norm(R, axis=groups, keepdims=True)
        # a zero group's ball couples the rows; none occurs here
        assert norms.min() > 0
        return np.abs((R / norms + G) @ basis).max()
    # l1: the sign where R is non-zero, [-1, 1] where it is zero; each row
    # of S is a bounded least-squares problem in its free entries
    worst = 0.0
    for r, g in zip(R, G):
        free = r == 0
        shortfall = (np.sign(r) + g) @ basis
        if free.any():
            shortfall = lsq_linear(basis[free].T, -shortfall,
                                   bounds=(-1.0, 1.0), method="bvls").fun
        worst = max(worst, np.abs(shortfall).max())
    return worst


@pytest.mark.parametrize("gamma_r, gamma_c", [(0.4, 0.7), (0.0, 0.7),
                                              (0.4, 0.0)])
@pytest.mark.parametrize("loss", ["l2", "l1", "l21"])
def test_frpcag_is_stationary(problem, loss, gamma_r, gamma_c):
    Y, Lr, Lc = problem
    config = SolverConfig(gamma_r=gamma_r, gamma_c=gamma_c, loss=loss,
                          max_iters=5000, tol=1e-28)
    X = solve_frpcag(Y, Lr, Lc, config).X
    G = 2.0 * gamma_r * Lr.dense() @ X + 2.0 * gamma_c * X @ Lc.dense()
    assert subgradient_residual(X - Y, G, loss) <= 1e-9


@pytest.mark.parametrize("b", [B_CUT, B_WIDE], ids=["cut", "wide"])
@pytest.mark.parametrize("gamma_smooth", [0.4, 0.0])
@pytest.mark.parametrize("side", SIDES)
def test_gfrpcag_l2_is_the_closed_form(problem, side, gamma_smooth, b):
    Y, Lr, Lc = problem
    gamma = 1.3
    result = solve_gfrpcag(Y, Lr, Lc,
                           solve_config(side, gamma_smooth, gamma, "l2", b))
    Y, L_smooth, L_filtered, X = column_side(Y, Lr, Lc, result.X, side)
    Q, g, _ = filtered_split(L_filtered, b)
    p = Y.shape[0]
    C = np.column_stack([
        np.linalg.solve((1.0 + gamma * g_j) * np.eye(p)
                        + gamma_smooth * L_smooth.dense(), Y @ q_j)
        for q_j, g_j in zip(Q.T, g)])
    X_star = C @ Q.T
    assert np.linalg.norm(X - X_star) <= 1e-10 * np.linalg.norm(X_star)


@pytest.mark.parametrize("b", [B_CUT, B_WIDE], ids=["cut", "wide"])
@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize("loss", ["l1", "l21"])
def test_gfrpcag_is_stationary(problem, loss, side, b):
    Y, Lr, Lc = problem
    gamma_smooth, gamma = 0.4, 1.3
    result = solve_gfrpcag(Y, Lr, Lc,
                           solve_config(side, gamma_smooth, gamma, loss, b))
    Y, L_smooth, L_filtered, X = column_side(Y, Lr, Lc, result.X, side)
    Q, g, cut = filtered_split(L_filtered, b)
    G = (2.0 * gamma_smooth * L_smooth.dense() @ X
         + 2.0 * gamma * X @ (Q * g) @ Q.T)
    # X meets the constraint: no energy where g_b is infinite
    assert np.abs(X @ cut).max(initial=0.0) <= 1e-11
    # on the transpose, l21's groups, the user's columns, are rows
    groups = 1 if side == "row_graph" else 0
    assert subgradient_residual(X - Y, G, loss, groups, Q) <= 1e-9
