"""Quantitative checks of the spectral structure behind the solvers.

Covariance/Laplacian alignment orders measure how close a dataset is to
being simultaneously diagonalizable with its graph, spectral gaps measure
cluster separation, and the recovery-bound bookkeeping verifies that a
solver output respects the band-limited error bound it is guaranteed to
satisfy at the matched regularization weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, ParameterError, _check_integer, _check_number
from .solvers import loss_value
from .spectral import EigenBasis, _column_signs

# eigenvalues below this threshold count as zero when validating gaps
ZERO_EIGENVALUE_TOL = 1e-12
FLOOR_DB = -200.0  # gamma_to_db's value for zero entries and its floor


@dataclass(frozen=True)
class AlignmentReport:
    """Alignment of a covariance matrix with a Laplacian eigenbasis.

    Gamma = Q^T C Q; the alignment order s = ||diag(Gamma)||_2 / ||Gamma||_F
    reaches 1 exactly when the two are simultaneously diagonalizable, and
    the rank-k alignment is the fraction of squared diagonal energy carried
    by the first k entries.
    """

    Gamma: np.ndarray
    alignment_order: float
    rank_k_alignment: float


def covariance(Y: np.ndarray) -> np.ndarray:
    """Centered experimental covariance of the rows of Y.

    Each feature is centered by its mean over samples and C = Yc Yc^T / n.
    The covariance of the columns is ``covariance(Y.T)``.
    """
    Y = _samples(Y)
    centered = _centered(Y)
    return (centered @ centered.T) / Y.shape[1]


def _samples(Y):
    """Y as a float matrix with a covariance: 2-D, with at least 2 samples
    (columns)."""
    Y = np.asarray(Y, dtype=np.float64)
    if Y.ndim != 2:
        raise DataError(f"expected a 2-D matrix, got shape {Y.shape}")
    if Y.shape[1] < 2:
        raise DataError(f"a covariance needs at least 2 samples, got "
                        f"{Y.shape[1]}")
    return Y


def _centered(Y):
    return Y - Y.mean(axis=1, keepdims=True)


def check_covariance_range(Y: np.ndarray) -> None:
    """The rule for data whose ``covariance`` of the rows can be aligned,
    checked without forming it. Y needs at least 2 samples, and not every
    row may be constant, where the covariance is zero: compared exactly,
    since centering a constant may round. Centered as ``covariance``
    centers them, each row's squares sum to n times its variance, which
    bounds its row of n C, the product ``covariance`` forms; the variances
    sum to trace(C), which bounds every entry of C and of its Gamma. Both
    must be finite: a bound, so a matrix whose Gamma would just fit may be
    refused. The squares must not all fall below the smallest normal
    float, where the covariance is zero or subnormal and keeps too few
    bits for an alignment."""
    Y = _samples(Y)
    if (Y == Y[:, :1]).all():
        raise DataError("covariance matrix is zero; alignment is undefined")
    with np.errstate(over="ignore", invalid="ignore"):
        squares = _centered(Y)
        squares *= squares
        trace = (squares.sum(axis=1) / squares.shape[1]).sum()
    if not trace < np.inf:
        raise DataError("the covariance overflows; rescale the matrix")
    if (squares < np.finfo(np.float64).tiny).all():
        raise DataError("the covariance underflows; rescale the matrix")


def alignment_report(basis: EigenBasis, C: np.ndarray, k: int) -> AlignmentReport:
    """Alignment orders of a covariance matrix against an eigenbasis."""
    C = np.asarray(C, dtype=np.float64)
    if C.shape != (basis.size, basis.size):
        raise DataError(f"covariance is {C.shape}, basis expects "
                        f"({basis.size}, {basis.size})")
    _check_integer("k", k, 1, basis.count)
    Q = basis.eigenvectors
    Gamma = Q.T @ C @ Q
    largest = np.abs(Gamma).max()
    if largest == 0:
        raise DataError("covariance matrix is zero; alignment is undefined")
    # the orders are ratios, taken of Gamma scaled by a power of two to
    # below 1: exact, so normal entries keep the ratios' bits, while the
    # squares of tiny or huge entries no longer underflow or overflow
    unit = np.ldexp(Gamma, -np.frexp(largest)[1])
    diag = np.diag(unit)
    s = float(np.linalg.norm(diag) / np.linalg.norm(unit))
    diag_sq = diag ** 2
    diag_total = diag_sq.sum()
    s_k = float(diag_sq[:k].sum() / diag_total) if diag_total > 0 else 0.0
    return AlignmentReport(Gamma=Gamma, alignment_order=s, rank_k_alignment=s_k)


def spectral_gap(eigenvalues: np.ndarray, k: int) -> float:
    """Ratio of the k-th to the (k+1)-th smallest eigenvalue (1-indexed).

    Small values signal k well-separated clusters. Undefined when the
    (k+1)-th eigenvalue is zero.
    """
    eigenvalues = np.asarray(eigenvalues, dtype=np.float64)
    _check_integer("k", k, 1, eigenvalues.size - 1)
    upper = eigenvalues[k]
    if upper <= ZERO_EIGENVALUE_TOL:
        raise ParameterError(f"eigenvalue {k + 1} is zero; the gap is undefined")
    return float(eigenvalues[k - 1] / upper)


def recovery_bound_check(Y_star: np.ndarray, Y: np.ndarray, X_star: np.ndarray,
                         row_basis: EigenBasis, col_basis: EigenBasis,
                         k_r: int, k_c: int, gamma: float,
                         loss: str) -> tuple[float, float, bool]:
    """Evaluate both sides of the band-limited recovery bound.

    With gamma_c = gamma / lambda_{k_c+1} and gamma_r = gamma / lambda_{k_r+1},
    any minimizer X* of the dual-graph objective on the noisy Y = Y* + E
    satisfies

        phi(X* - Y) + gamma_c ||X* Qbar||_F^2 + gamma_r ||Pbar^T X*||_F^2
            <= phi(E) + gamma ||Y*||_F^2 (gap_c + gap_r)

    where the gaps are the 1-indexed eigenvalue ratios at k_c and k_r and
    phi is ``loss``, one of ``solvers.LOSSES``. Returns (lhs, rhs, holds)
    with a 1e-3 relative slack on the comparison.
    """
    Y_star, Y, X_star = _bound_inputs(Y_star, Y, X_star, k_r, k_c, gamma)
    if (row_basis.size, col_basis.size) != Y_star.shape:
        raise DataError("bases do not match the matrix shape")
    gap_sum = (spectral_gap(col_basis.eigenvalues, k_c)
               + spectral_gap(row_basis.eigenvalues, k_r))
    gamma_r = gamma / row_basis.eigenvalues[k_r]
    gamma_c = gamma / col_basis.eigenvalues[k_c]
    out_cols = X_star @ col_basis.eigenvectors[:, k_c:]
    out_rows = row_basis.eigenvectors[:, k_r:].T @ X_star
    lhs = (loss_value(X_star, Y, loss)
           + gamma_c * float(np.sum(out_cols ** 2))
           + gamma_r * float(np.sum(out_rows ** 2)))
    rhs = loss_value(Y, Y_star, loss) + gamma * float(np.sum(Y_star ** 2)) * gap_sum
    holds = lhs <= rhs * (1.0 + 1e-3)
    return lhs, rhs, holds


def _bound_inputs(Y_star, Y, X_star, k_r, k_c, gamma):
    """(Y_star, Y, X_star) as float arrays, once ``recovery_bound_check``'s
    rules that need no basis hold: one shape p x n, k_c in 1..n-1, k_r in
    1..p-1 and gamma finite and >= 0."""
    Y_star, Y, X_star = (np.asarray(M, dtype=np.float64)
                         for M in (Y_star, Y, X_star))
    for name, matrix in (("Y", Y), ("X_star", X_star)):
        if matrix.shape != Y_star.shape:
            raise DataError(f"{name} is {matrix.shape}, Y_star is {Y_star.shape}")
    p, n = Y_star.shape
    _check_integer("k_c", k_c, 1, n - 1)
    _check_integer("k_r", k_r, 1, p - 1)
    _check_number("gamma", gamma)
    return Y_star, Y, X_star


def subspace_coherence(X: np.ndarray, row_basis: EigenBasis,
                       col_basis: EigenBasis):
    """Singular-value-weighted coherence of X with the graph eigenvectors.

    Returns (Sigma V^T Q, Sigma U^T P, sigma) from the SVD X = U Sigma V^T
    with descending singular values; columns of the coherence matrices
    correspond to graph frequencies, so energy piling up on the left means
    the dominant singular vectors live on the low frequencies.
    """
    X = np.asarray(X, dtype=np.float64)
    if not np.any(X):
        raise DataError("coherence of the zero matrix is undefined")
    U, sigma, Vt = np.linalg.svd(X, full_matrices=False)
    signs = _column_signs(U)
    U *= signs
    Vt *= signs[:, None]
    weighted_vq = sigma[:, None] * (Vt @ col_basis.eigenvectors)
    weighted_up = sigma[:, None] * (U.T @ row_basis.eigenvectors)
    return weighted_vq, weighted_up, sigma


def gamma_to_db(Gamma: np.ndarray) -> np.ndarray:
    """20 * log10 |Gamma|, floored at FLOOR_DB so zero entries stay plottable."""
    mag = np.abs(Gamma)
    out = np.full_like(mag, FLOOR_DB)
    positive = mag > 0
    out[positive] = np.maximum(20.0 * np.log10(mag[positive]), FLOOR_DB)
    return out

