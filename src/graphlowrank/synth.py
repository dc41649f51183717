"""Reproducible generators: band-limited matrices, noise models, manifolds.

Every generator draws from a single numpy Generator (PCG64) seeded by the
caller, so outputs are deterministic given the seed and CSV exports are
byte-identical across runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (NumericalError, _check_choice, _check_fraction,
                     _check_integer, _check_number)
from .graph import DataMatrix, LaplacianMatrix, SparseGraph, knn_graph, laplacian
from .spectral import eigendecompose

NOISE_MODELS = ("gaussian", "sparse", "column_outliers")
MANIFOLD_KINDS = ("circle2d", "spiral2d", "swissroll3d")
NOISE_DIMS = ("ambient", "extra_dim")


@dataclass(frozen=True)
class LrmgInstance:
    """A band-limited matrix with the graphs that define it.

    Y_star = P_kr C Q_kc^T lives in the span of the first k_r row-graph
    eigenvectors (columns) and the first k_c column-graph eigenvectors
    (rows), so its energy beyond either band is zero up to roundoff.
    ``eigendecompose`` of each Laplacian gives its basis, bit for bit.
    """

    Y_star: np.ndarray
    row_graph: SparseGraph
    col_graph: SparseGraph
    row_laplacian: LaplacianMatrix
    col_laplacian: LaplacianMatrix


def make_lrmg(p: int, n: int, k_r: int, k_c: int, seed: int,
              k_neighbors: int = 10,
              laplacian_kind: str = "normalized") -> LrmgInstance:
    """Generate a matrix that is exactly band-limited on a pair of graphs.

    The graphs are K-nearest-neighbor graphs of an auxiliary random matrix
    of rank max(k_r, k_c), so their leading spectra reflect a genuine
    low-dimensional structure. The coefficient block is standard normal.
    """
    _check_integer("p", p, 2)
    _check_integer("n", n, 2)
    _check_integer("k_r", k_r, 1, p)
    _check_integer("k_c", k_c, 1, n)
    rng = np.random.default_rng(seed)
    aux_rank = max(k_r, k_c)
    aux = rng.standard_normal((p, aux_rank)) @ rng.standard_normal((aux_rank, n))
    aux_data = DataMatrix(aux)
    row_graph = knn_graph(aux_data, axis="rows", k=min(k_neighbors, p - 1))
    col_graph = knn_graph(aux_data, axis="columns", k=min(k_neighbors, n - 1))

    row_laplacian = laplacian(row_graph, laplacian_kind)
    col_laplacian = laplacian(col_graph, laplacian_kind)
    row_basis = eigendecompose(row_laplacian)
    col_basis = eigendecompose(col_laplacian)

    C = rng.standard_normal((k_r, k_c))
    sigma = np.linalg.svd(C, compute_uv=False)
    if sigma[-1] <= 1e-8 * sigma[0]:
        raise NumericalError("coefficient block is numerically rank deficient")
    Y_star = row_basis.eigenvectors[:, :k_r] @ C @ col_basis.eigenvectors[:, :k_c].T
    return LrmgInstance(Y_star=Y_star, row_graph=row_graph, col_graph=col_graph,
                        row_laplacian=row_laplacian, col_laplacian=col_laplacian)


def add_noise(Y: np.ndarray, model: str, seed: int, sigma: float = 0.0,
              fraction: float = 0.0, amplitude: float = 1.0) -> np.ndarray:
    """Corrupt a matrix with one of three noise models.

    gaussian adds i.i.d. N(0, sigma^2); sparse overwrites a uniformly
    chosen fraction of the entries with +/- amplitude; column_outliers
    replaces a fraction of the columns with N(0, var(Y)) noise.
    """
    _check_choice("noise model", model, NOISE_MODELS)
    Y = np.asarray(Y, dtype=np.float64)
    rng = np.random.default_rng(seed)
    if model == "gaussian":
        _check_number("sigma", sigma)
        if sigma == 0:
            return Y.copy()
        return Y + sigma * rng.standard_normal(Y.shape)
    _check_fraction("fraction", fraction)
    if model == "sparse":
        _check_number("amplitude", amplitude, -np.inf, exclusive=True)
    # the fraction of the entries, or of the columns, that is replaced
    total = Y.size if model == "sparse" else Y.shape[1]
    count = int(round(fraction * total))
    out = Y.copy()
    if count == 0:
        return out
    picked = rng.choice(total, size=count, replace=False)
    if model == "sparse":
        out.flat[picked] = rng.choice([-1.0, 1.0], size=count) * amplitude
    else:
        out[:, picked] = np.sqrt(Y.var()) * rng.standard_normal((Y.shape[0], count))
    return out


def make_manifold(kind: str, n: int, noise_sigma: float = 0.0,
                  noise_dims: str = "ambient", seed: int = 0) -> DataMatrix:
    """Sample a parametric manifold, optionally corrupted by noise.

    noise_dims="ambient" perturbs every coordinate; "extra_dim" leaves the
    clean coordinates alone and appends one extra noisy dimension, turning
    a flat manifold into a noisy embedding one dimension up.
    """
    _check_integer("n", n, 10)
    _check_number("noise_sigma", noise_sigma)
    _check_choice("noise_dims", noise_dims, NOISE_DIMS)
    _check_choice("manifold kind", kind, MANIFOLD_KINDS)
    rng = np.random.default_rng(seed)
    if kind == "circle2d":
        t = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
        points = np.vstack([np.cos(t), np.sin(t)])
    elif kind == "spiral2d":
        t = np.linspace(0.5 * np.pi, 3.0 * np.pi, n)
        points = np.vstack([t * np.cos(t), t * np.sin(t)])
    else:  # swissroll3d
        t = 1.5 * np.pi * (1.0 + 2.0 * rng.random(n))
        height = 10.0 * rng.random(n)
        points = np.vstack([t * np.cos(t), height, t * np.sin(t)])
    if noise_sigma > 0.0:
        if noise_dims == "ambient":
            points = points + noise_sigma * rng.standard_normal(points.shape)
        else:
            extra = noise_sigma * rng.standard_normal((1, n))
            points = np.vstack([points, extra])
    elif noise_dims == "extra_dim":
        points = np.vstack([points, np.zeros((1, n))])
    return DataMatrix(points)
