"""Laplacian eigenbases and the spectral filter family.

The filter family is built from a bump function h_b that vanishes below
b/2: the penalty curve g_b(x) = h_b(x) / h_b(2b - x) is zero below b/2 and
infinite above 3b/2, and its proximal counterpart f_b(x, gamma) =
1 / (1 + gamma * g_b(x)) is a smooth low-pass response in [0, 1]. The
filtered solver applies f_b exactly, through the eigenpairs below 3b/2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .errors import DataError, ParameterError, _check_choice, _check_number
from .graph import LaplacianMatrix

FILTER_FAMILIES = ("prox_fb",)


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
    """The filtered penalty's filter: the prox response f_b ("prox_fb") of
    bandwidth b. Its weight is the filtered side's gamma of SolverConfig.
    """

    family: str
    b: float = 0.0

    def __post_init__(self):
        _check_choice("filter family", self.family, FILTER_FAMILIES)
        _check_number("b", self.b, exclusive=True)


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
    """g_b: zero up to b/2, rising through 1 at x = b, infinite from 3b/2.
    b must be finite and positive."""
    _check_number("b", b, exclusive=True)
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    num = _bump(x, b)
    den = _bump(2 * b - x, b)
    out = np.full_like(x, np.inf)
    ok = den > 0
    out[ok] = num[ok] / den[ok]
    return out


def prox_filter_curve(x, b: float, gamma: float) -> np.ndarray:
    """f_b(x, gamma) = 1 / (1 + gamma * g_b(x)), in the division-safe form
    h_b(2b - x) / (h_b(2b - x) + gamma * h_b(x)); always in [0, 1].
    b must be finite and positive, gamma finite and nonnegative."""
    _check_number("b", b, exclusive=True)
    _check_number("gamma", gamma)
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
