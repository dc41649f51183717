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

from .errors import DataError, ParameterError
from .spectral import EigenBasis, _column_signs, _frequency_energy

# eigenvalues below this threshold count as zero when validating gaps
ZERO_EIGENVALUE_TOL = 1e-12


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
    k: int


@dataclass
class DiagnosticsReport:
    """Singular values, spectral gaps, bound sides, and coherence matrices."""

    singular_values: np.ndarray
    spectral_gaps: tuple
    bound_lhs: float | None = None
    bound_rhs: float | None = None
    bound_holds: bool | None = None
    coherence_right: np.ndarray | None = None
    coherence_left: np.ndarray | None = None


def covariance(Y: np.ndarray, axis: str = "rows") -> np.ndarray:
    """Centered experimental covariance of the rows or columns of Y.

    rows: each feature is centered by its mean over samples and
    C = Yc Yc^T / n. columns mirrors this with column means over features
    and C = Yc^T Yc / p.
    """
    Y = np.asarray(Y, dtype=np.float64)
    if Y.ndim != 2:
        raise DataError(f"expected a 2-D matrix, got shape {Y.shape}")
    p, n = Y.shape
    if axis == "rows":
        if n < 2:
            raise ParameterError("row covariance needs at least 2 samples")
        centered = Y - Y.mean(axis=1, keepdims=True)
        return (centered @ centered.T) / n
    if axis == "columns":
        if p < 2:
            raise ParameterError("column covariance needs at least 2 features")
        centered = Y - Y.mean(axis=0, keepdims=True)
        return (centered.T @ centered) / p
    raise ParameterError(f"unknown axis {axis!r}")


def alignment_report(basis: EigenBasis, C: np.ndarray, k: int) -> AlignmentReport:
    """Alignment orders of a covariance matrix against an eigenbasis."""
    C = np.asarray(C, dtype=np.float64)
    if C.shape != (basis.size, basis.size):
        raise DataError(f"covariance is {C.shape}, basis expects "
                        f"({basis.size}, {basis.size})")
    if not 1 <= k <= basis.count:
        raise ParameterError(f"k={k} out of range for basis of {basis.count}")
    Q = basis.eigenvectors
    Gamma = Q.T @ C @ Q
    diag = np.diag(Gamma)
    total = np.linalg.norm(Gamma)
    if total == 0:
        raise DataError("covariance matrix is zero; alignment is undefined")
    s = float(np.linalg.norm(diag) / total)
    diag_sq = diag ** 2
    diag_total = diag_sq.sum()
    s_k = float(diag_sq[:k].sum() / diag_total) if diag_total > 0 else 0.0
    return AlignmentReport(Gamma=Gamma, alignment_order=s,
                           rank_k_alignment=s_k, k=k)


def spectral_gap(eigenvalues: np.ndarray, k: int) -> float:
    """Ratio of the k-th to the (k+1)-th smallest eigenvalue (1-indexed).

    Small values signal k well-separated clusters. Undefined when the
    (k+1)-th eigenvalue is zero.
    """
    eigenvalues = np.asarray(eigenvalues, dtype=np.float64)
    if k < 1 or k + 1 > eigenvalues.size:
        raise ParameterError(f"k={k} out of range for {eigenvalues.size} eigenvalues")
    upper = eigenvalues[k]
    if upper <= ZERO_EIGENVALUE_TOL:
        raise ParameterError(f"eigenvalue {k + 1} is zero; the gap is undefined")
    return float(eigenvalues[k - 1] / upper)


def recovery_bound_check(Y_star: np.ndarray, E: np.ndarray, X_star: np.ndarray,
                         row_basis: EigenBasis, col_basis: EigenBasis,
                         k_r: int, k_c: int, gamma: float,
                         loss_fn) -> tuple[float, float, bool]:
    """Evaluate both sides of the band-limited recovery bound.

    With gamma_c = gamma / lambda_{k_c+1} and gamma_r = gamma / lambda_{k_r+1},
    any minimizer X* of the dual-graph objective on Y = Y* + E satisfies

        phi(X* - Y) + gamma_c ||X* Qbar||_F^2 + gamma_r ||Pbar^T X*||_F^2
            <= phi(E) + gamma ||Y*||_F^2 (gap_c + gap_r)

    where the gaps are the 1-indexed eigenvalue ratios at k_c and k_r.
    ``loss_fn`` maps a residual matrix to phi(residual). Returns
    (lhs, rhs, holds) with a 1e-3 relative slack on the comparison.
    """
    Y_star = np.asarray(Y_star, dtype=np.float64)
    E = np.asarray(E, dtype=np.float64)
    X_star = np.asarray(X_star, dtype=np.float64)
    p, n = Y_star.shape
    if row_basis.size != p or col_basis.size != n:
        raise DataError("bases do not match the matrix shape")
    if not (1 <= k_r < row_basis.count and 1 <= k_c < col_basis.count):
        raise ParameterError("k_r and k_c must leave at least one eigenvalue above")
    if not 0 <= gamma < np.inf:
        raise ParameterError(f"gamma must be finite and nonnegative, got {gamma}")
    lam_r = row_basis.eigenvalues
    lam_c = col_basis.eigenvalues
    if lam_r[k_r] <= ZERO_EIGENVALUE_TOL or lam_c[k_c] <= ZERO_EIGENVALUE_TOL:
        raise ParameterError("the (k+1)-th eigenvalue is zero; weights are undefined")
    gamma_r = gamma / lam_r[k_r]
    gamma_c = gamma / lam_c[k_c]
    Y = Y_star + E
    out_cols = X_star @ col_basis.trailing(k_c)
    out_rows = row_basis.trailing(k_r).T @ X_star
    lhs = (loss_fn(X_star - Y)
           + gamma_c * float(np.sum(out_cols ** 2))
           + gamma_r * float(np.sum(out_rows ** 2)))
    gap_sum = lam_c[k_c - 1] / lam_c[k_c] + lam_r[k_r - 1] / lam_r[k_r]
    rhs = loss_fn(E) + gamma * float(np.sum(Y_star ** 2)) * gap_sum
    holds = lhs <= rhs * (1.0 + 1e-3)
    return lhs, rhs, holds


def build_diagnostics_report(X: np.ndarray, row_basis: EigenBasis,
                             col_basis: EigenBasis, k: int,
                             bound: tuple[float, float, bool] | None = None
                             ) -> DiagnosticsReport:
    """Assemble the spectral summary of a matrix against its two bases.

    Gaps are (column, row) at position k; either may be None when the
    (k+1)-th eigenvalue vanishes. ``bound`` carries (lhs, rhs, holds) from
    ``recovery_bound_check`` when the clean and noisy matrices are known.
    """
    coh_right, coh_left, sigma = subspace_coherence(X, row_basis, col_basis)

    def gap_or_none(eigenvalues):
        try:
            return spectral_gap(eigenvalues, k)
        except ParameterError:
            return None

    lhs, rhs, holds = bound if bound is not None else (None, None, None)
    return DiagnosticsReport(
        singular_values=sigma,
        spectral_gaps=(gap_or_none(col_basis.eigenvalues),
                       gap_or_none(row_basis.eigenvalues)),
        bound_lhs=lhs, bound_rhs=rhs, bound_holds=holds,
        coherence_right=coh_right, coherence_left=coh_left)


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


def weighted_alignment_objective(X: np.ndarray, row_basis: EigenBasis,
                                 col_basis: EigenBasis,
                                 gamma_r: float, gamma_c: float) -> float:
    """Eigenvalue-weighted diagonal of the uncentered alignment matrices.

    Expanding the SVD of X shows gamma_c tr(X Lc X^T) + gamma_r tr(X^T Lr X)
    equals gamma_c sum_j lambda_cj Gamma_c[j,j] + gamma_r sum_i lambda_ri
    Gamma_r[i,i], with Gamma built from the raw second moments of X
    (X^T X and X X^T, uncentered). This computes the right-hand side.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.shape[0] != row_basis.size or X.shape[1] != col_basis.size:
        raise DataError(f"X is {X.shape}, bases expect "
                        f"({row_basis.size}, {col_basis.size})")
    col_diag = _frequency_energy(col_basis, X, "right")   # diag(Q^T X^T X Q)
    row_diag = _frequency_energy(row_basis, X, "left")    # diag(P^T X X^T P)
    return (gamma_c * float(col_basis.eigenvalues @ col_diag)
            + gamma_r * float(row_basis.eigenvalues @ row_diag))


def gamma_to_db(Gamma: np.ndarray, floor_db: float = -200.0) -> np.ndarray:
    """20 * log10 |Gamma|, floored so zero entries stay plottable."""
    mag = np.abs(Gamma)
    out = np.full_like(mag, floor_db)
    positive = mag > 0
    out[positive] = np.maximum(20.0 * np.log10(mag[positive]), floor_db)
    return out

