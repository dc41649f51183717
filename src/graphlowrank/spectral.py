"""Laplacian eigenbases and spectral filters.

The filter family is built from a bump function h_b that vanishes below
b/2: the penalty curve g_b(x) = h_b(x) / h_b(2b - x) is zero below b/2 and
infinite above 3b/2, and its proximal counterpart f_b(x, gamma) =
1 / (1 + gamma * g_b(x)) is a smooth low-pass response in [0, 1]. Filters
are applied either exactly through an eigenbasis or approximately with a
Chebyshev polynomial of the Laplacian.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .errors import DataError, ParameterError
from .graph import LaplacianMatrix

FILTER_FAMILIES = ("step_gb", "prox_fb")


@dataclass(frozen=True)
class EigenBasis:
    """Ordered eigenpairs of a Laplacian; the graph Fourier basis.

    Eigenvalues are ascending with the leading one clipped at zero;
    eigenvector signs are fixed so the first significant entry of each
    column is positive, for deterministic comparisons.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def size(self) -> int:
        return self.eigenvectors.shape[0]

    @property
    def count(self) -> int:
        return self.eigenvectors.shape[1]


@dataclass(frozen=True)
class FilterSpec:
    """Spectral filter description.

    b is the bandwidth of both families, the penalty curve g_b
    ("step_gb") and its prox response f_b ("prox_fb"); gamma is the penalty
    weight of the prox form.
    """

    family: str
    b: float = 0.0
    gamma: float = 0.0

    def __post_init__(self):
        if self.family not in FILTER_FAMILIES:
            raise ParameterError(f"unknown filter family {self.family!r}")
        if not (np.isfinite(self.b) and np.isfinite(self.gamma)):
            raise ParameterError(f"b and gamma must be finite, got b={self.b}, "
                                 f"gamma={self.gamma}")
        if not self.b > 0:
            raise ParameterError(f"family {self.family!r} requires b > 0")
        if self.gamma < 0:
            raise ParameterError(f"gamma must be nonnegative, got {self.gamma}")


def eigendecompose(L: LaplacianMatrix, below: float | None = None) -> EigenBasis:
    """Full eigendecomposition of a Laplacian.

    With ``below=theta`` the basis holds only the eigenpairs with eigenvalue
    below theta. They come from Lanczos rounds on the sparse matrix, with
    the zero eigenvalue's exact multiplicity taken from the graph's
    connected components; any other pair is missed only with small
    probability (see ``_sparse_eigenpairs_below``). Whenever that route
    fails, the dense basis is computed and cut. A NaN theta is refused.
    """
    if below is not None and np.isnan(below):
        raise ParameterError(f"below must not be NaN, got {below}")
    scale = _symmetric_scale(L)
    if below is not None:
        basis = _sparse_eigenpairs_below(L, below, scale)
        if basis is not None:
            return basis
    eigenvalues, eigenvectors = _normalized_pairs(*np.linalg.eigh(L.dense()),
                                                  scale)
    if below is not None:
        count = int(np.searchsorted(eigenvalues, below, side="left"))
        eigenvalues = eigenvalues[:count]
        eigenvectors = eigenvectors[:, :count]
    return EigenBasis(eigenvalues=eigenvalues, eigenvectors=eigenvectors)


def _symmetric_scale(L: LaplacianMatrix) -> float:
    """max(1, largest |entry|) of L, once L is symmetric to 1e-10 of it."""
    matrix = L.matrix
    scale = max(1.0, float(np.abs(matrix.data).max(initial=0.0)))
    asymmetry = (matrix - matrix.T).data
    if np.abs(asymmetry).max(initial=0.0) > 1e-10 * scale:
        raise DataError("Laplacian matrix is not symmetric")
    return scale


def _normalized_pairs(eigenvalues, eigenvectors, scale):
    """Eigenpairs in the EigenBasis convention: tiny negative eigenvalues
    (above -1e-8 scale) clipped to zero, column signs fixed in place."""
    eigenvalues = np.where(
        (eigenvalues < 0) & (eigenvalues > -1e-8 * scale), 0.0, eigenvalues)
    eigenvectors *= _column_signs(eigenvectors)
    return eigenvalues, eigenvectors


def _sparse_eigenpairs_below(L: LaplacianMatrix, theta: float,
                             scale: float) -> EigenBasis | None:
    """The eigenpairs of L below theta from sparse products only, or None
    when the dense basis should be cut instead.

    Lanczos (ARPACK) finds the largest eigenvalues of beta I - L, beta the
    Laplacian's norm bound, which are the smallest of L. From one start
    vector it may find fewer copies of a repeated eigenvalue than its
    multiplicity, so each further round runs on the complement of the
    eigenvectors found so far, until a round finds nothing new below
    theta. The one eigenvalue known to repeat is 0, once per connected
    component (an isolated vertex is a component of its own), and that
    multiplicity comes exactly from ``connected_components``. Any other
    eigenpair below theta is missed only when the seeded random start is
    nearly orthogonal to it, which happens with small probability
    (Kuczynski and Wozniakowski, SIAM J. Matrix Anal. Appl. 13(4), 1992).
    No factorization is made, so the memory stays of the order of the
    non-zeros and the pairs found.

    theta <= 0 gives an empty basis. None, for the dense cut, when more
    than a quarter of the vertices lie below theta (where the dense eigh
    is the cheaper route; known in advance when the components alone are
    that many or theta reaches beta), when the rounds end with fewer pairs
    than components, or when ARPACK does not converge.
    """
    from scipy.sparse.csgraph import connected_components
    from scipy.sparse.linalg import (ArpackNoConvergence, LinearOperator,
                                     eigsh)

    n = L.shape[0]
    eigenvalues, eigenvectors = np.empty(0), np.empty((n, 0))
    if theta <= 0:
        return EigenBasis(eigenvalues=eigenvalues, eigenvectors=eigenvectors)
    components = connected_components(L.matrix, directed=False,
                                      return_labels=False)
    beta = L.spectral_norm_bound
    if not 0 < components <= n // 4 or theta >= beta:
        return None
    shifted = beta * sparse.identity(n, format="csr") - L.matrix
    # a fixed start vector makes repeated calls return the same bits
    start = np.random.default_rng(0).standard_normal(n)

    def complement(x):
        # x less its components along the eigenvectors found so far
        return x - eigenvectors @ (eigenvectors.T @ x)

    operator = LinearOperator((n, n), dtype=np.float64,
                              matvec=lambda x: complement(shifted @ complement(x)))
    while True:
        # found eigenvectors sit at 0 in the operator, at beta >= theta in
        # L, so no round finds them again
        try:
            values, vectors = eigsh(
                operator, k=max(components, eigenvalues.size) + 2,
                which="LA", v0=complement(start))
        except ArpackNoConvergence:
            return None
        found = beta - values
        new = found < theta
        if not new.any():
            break
        eigenvalues = np.concatenate([eigenvalues, found[new]])
        eigenvectors = np.hstack([eigenvectors, vectors[:, new]])
        if eigenvalues.size > n // 4:
            return None
    if eigenvalues.size < components:
        return None
    order = np.argsort(eigenvalues, kind="stable")
    eigenvalues, eigenvectors = _normalized_pairs(
        eigenvalues[order], eigenvectors[:, order], scale)
    return EigenBasis(eigenvalues=eigenvalues, eigenvectors=eigenvectors)


def _column_signs(Q: np.ndarray) -> np.ndarray:
    """The sign convention for eigen- and singular vectors: -1 for each
    column of Q whose first significant entry (above 1e-12 of the column's
    largest magnitude) is negative, +1 for every other column. Columns
    with no entries, as of a Laplacian with no vertices, keep +1."""
    if not Q.shape[0]:
        return np.ones(Q.shape[1])
    magnitude = np.abs(Q)
    largest = np.maximum(magnitude.max(axis=0, initial=0.0), 1e-300)
    significant = magnitude > 1e-12 * largest
    first = np.argmax(significant, axis=0)
    cols = np.arange(Q.shape[1])
    flip = significant[first, cols] & (Q[first, cols] < 0)
    return np.where(flip, -1.0, 1.0)


def dirichlet_energy(L: LaplacianMatrix, X: np.ndarray) -> float:
    """Graph smoothness energy tr(X^T L X) of the column signals of X."""
    X = np.asarray(X, dtype=np.float64)
    if X.shape[0] != L.shape[0]:
        raise DataError(f"X has {X.shape[0]} rows, Laplacian is {L.shape[0]} wide")
    return float(np.sum(X * (L.matrix @ X)))


# ---------------------------------------------------------------------------
# the filter family
# ---------------------------------------------------------------------------

def _bump(x: np.ndarray, b: float) -> np.ndarray:
    """h_b(x) = exp(-b / (x - b/2)) for x > b/2, else 0. Smooth everywhere."""
    out = np.zeros_like(x)
    m = x > b / 2
    out[m] = np.exp(-b / (x[m] - b / 2))
    return out


def step_penalty_curve(x, b: float) -> np.ndarray:
    """g_b: zero up to b/2, rising through 1 at x = b, infinite from 3b/2."""
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    num = _bump(x, b)
    den = _bump(2 * b - x, b)
    out = np.full_like(x, np.inf)
    ok = den > 0
    out[ok] = num[ok] / den[ok]
    return out


def prox_filter_curve(x, b: float, gamma: float) -> np.ndarray:
    """f_b(x, gamma) = 1 / (1 + gamma * g_b(x)), in the division-safe form
    h_b(2b - x) / (h_b(2b - x) + gamma * h_b(x)); always in [0, 1]."""
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if gamma == 0:
        return np.ones_like(x)
    keep = _bump(2 * b - x, b)
    kill = _bump(x, b)
    den = keep + gamma * kill
    out = np.empty_like(x)
    ok = den > 0
    out[ok] = keep[ok] / den[ok]
    # both terms underflow only deep inside one of the flat regions
    out[~ok] = np.where(x[~ok] >= b, 0.0, 1.0)
    return out


def eval_filter(spec: FilterSpec, x):
    """Evaluate a filter response on nonnegative frequencies.

    step_gb may return +inf (it is a penalty curve, not an applicable
    response); prox_fb is finite with values in [0, 1].
    Scalar input yields a float, array input an array.
    """
    scalar = np.ndim(x) == 0
    arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if (arr < 0).any():
        raise ParameterError("filter argument must be nonnegative")
    if spec.family == "step_gb":
        out = step_penalty_curve(arr, spec.b)
    else:
        out = prox_filter_curve(arr, spec.b, spec.gamma)
    return float(out[0]) if scalar else out


def apply_filter_exact(basis: EigenBasis, spec: FilterSpec, X: np.ndarray,
                       side: str = "left") -> np.ndarray:
    """Apply Q g(Lambda) Q^T to X from the given side via the eigenbasis."""
    response = eval_filter(spec, basis.eigenvalues)
    if not np.isfinite(response).all():
        raise ParameterError(
            "filter is infinite on part of the spectrum; apply the prox form")
    X = np.asarray(X, dtype=np.float64)
    Q = basis.eigenvectors
    if side == "left":
        if X.shape[0] != basis.size:
            raise DataError(f"X has {X.shape[0]} rows, basis has {basis.size}")
        return Q @ (response[:, None] * (Q.T @ X))
    if side == "right":
        if X.shape[-1] != basis.size:
            raise DataError(f"X has {X.shape[-1]} columns, basis has {basis.size}")
        return ((X @ Q) * response[None, :]) @ Q.T
    raise ParameterError(f"unknown side {side!r}")


def chebyshev_coefficients(func, order: int, upper: float) -> np.ndarray:
    """Interpolation coefficients of ``func`` on [0, upper], degree ``order``."""
    n_pts = order + 1
    theta = np.pi * (np.arange(n_pts) + 0.5) / n_pts
    x = (upper / 2.0) * (np.cos(theta) + 1.0)
    fx = func(x)
    if not np.isfinite(fx).all():
        raise ParameterError("filter is infinite inside the Chebyshev interval")
    k = np.arange(n_pts)
    return (2.0 / n_pts) * np.cos(np.outer(k, theta)) @ fx


def apply_filter_chebyshev(L: LaplacianMatrix, spec: FilterSpec, order: int,
                           X: np.ndarray, side: str = "left") -> np.ndarray:
    """Apply a filter through a Chebyshev polynomial of the Laplacian.

    The expansion lives on [0, spectral_norm_bound] and is evaluated with
    the three-term recurrence, so only sparse matrix products are needed.
    """
    if not isinstance(order, (int, np.integer)) or order < 1:
        raise ParameterError(f"order must be a positive integer, got {order!r}")
    if side not in ("left", "right"):
        raise ParameterError(f"unknown side {side!r}")
    X = np.asarray(X, dtype=np.float64)
    work = X if side == "left" else X.T
    if work.shape[0] != L.shape[0]:
        raise DataError(f"operand has {work.shape[0]} rows, Laplacian is {L.shape[0]}")

    upper = L.spectral_norm_bound
    if upper <= 0:
        # zero operator: the filter reduces to its value at the origin
        value = float(eval_filter(spec, np.zeros(1))[0])
        result = value * work
    else:
        coeffs = chebyshev_coefficients(lambda x: eval_filter(spec, x), order, upper)
        half = upper / 2.0

        def shifted(v):
            return (L.matrix @ v) / half - v

        t_prev = work
        t_curr = shifted(work)
        result = 0.5 * coeffs[0] * t_prev + coeffs[1] * t_curr
        for c in coeffs[2:]:
            t_next = 2.0 * shifted(t_curr) - t_prev
            result = result + c * t_next
            t_prev, t_curr = t_curr, t_next
    return result if side == "left" else result.T

