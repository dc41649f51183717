"""Reproducible generators: band-limited matrices, noise models, manifolds.

Every generator draws from a single numpy Generator (PCG64) seeded by the
caller, so outputs are deterministic given the seed and CSV exports are
byte-identical across runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ParameterError
from .graph import DataMatrix, LaplacianMatrix, SparseGraph, knn_graph, laplacian
from .spectral import EigenBasis, eigendecompose

NOISE_MODELS = ("gaussian", "sparse", "column_outliers")
MANIFOLD_KINDS = ("circle2d", "spiral2d", "swissroll3d")


@dataclass(frozen=True)
class LrmgInstance:
    """A band-limited matrix with the graphs and bases that define it.

    Y_star = P_kr C Q_kc^T lives in the span of the first k_r row-graph
    eigenvectors (columns) and the first k_c column-graph eigenvectors
    (rows), so its energy beyond either band is zero up to roundoff.
    """

    Y_star: np.ndarray
    row_graph: SparseGraph
    col_graph: SparseGraph
    row_laplacian: LaplacianMatrix
    col_laplacian: LaplacianMatrix
    row_basis: EigenBasis
    col_basis: EigenBasis
    coefficients: np.ndarray
    k_r: int
    k_c: int
    seed: int


def make_lrmg(p: int, n: int, k_r: int, k_c: int, seed: int,
              graphs: tuple[SparseGraph, SparseGraph] | None = None,
              k_neighbors: int = 10,
              laplacian_kind: str = "normalized") -> LrmgInstance:
    """Generate a matrix that is exactly band-limited on a pair of graphs.

    Without ``graphs`` the graphs are K-nearest-neighbor graphs of an
    auxiliary random matrix of rank max(k_r, k_c), so their leading spectra
    reflect a genuine low-dimensional structure. Given (row_graph,
    col_graph) on p and n vertices, the caller controls the spectrum
    directly. The coefficient block is standard normal.
    """
    if not (1 <= k_r <= p and 1 <= k_c <= n):
        raise ParameterError(f"k_r={k_r}, k_c={k_c} out of range for {p}x{n}")
    rng = np.random.default_rng(seed)
    if graphs is None:
        aux_rank = max(k_r, k_c)
        aux = rng.standard_normal((p, aux_rank)) @ rng.standard_normal((aux_rank, n))
        aux_data = DataMatrix(aux)
        row_graph = knn_graph(aux_data, axis="rows", k=min(k_neighbors, p - 1))
        col_graph = knn_graph(aux_data, axis="columns", k=min(k_neighbors, n - 1))
    else:
        row_graph, col_graph = graphs
        if (row_graph.num_vertices, col_graph.num_vertices) != (p, n):
            raise ParameterError(f"graphs have {row_graph.num_vertices} and "
                                 f"{col_graph.num_vertices} vertices, not {p} and {n}")

    row_laplacian = laplacian(row_graph, laplacian_kind)
    col_laplacian = laplacian(col_graph, laplacian_kind)
    row_basis = eigendecompose(row_laplacian)
    col_basis = eigendecompose(col_laplacian)

    C = rng.standard_normal((k_r, k_c))
    sigma = np.linalg.svd(C, compute_uv=False)
    if sigma[-1] <= 1e-8 * sigma[0]:
        raise NumericalError("coefficient block is numerically rank deficient")
    Y_star = row_basis.leading(k_r) @ C @ col_basis.leading(k_c).T
    return LrmgInstance(Y_star=Y_star, row_graph=row_graph, col_graph=col_graph,
                        row_laplacian=row_laplacian, col_laplacian=col_laplacian,
                        row_basis=row_basis, col_basis=col_basis,
                        coefficients=C, k_r=k_r, k_c=k_c, seed=seed)


def add_noise(Y: np.ndarray, model: str, seed: int, sigma: float = 0.0,
              fraction: float = 0.0, amplitude: float = 1.0) -> np.ndarray:
    """Corrupt a matrix with one of three noise models.

    gaussian adds i.i.d. N(0, sigma^2); sparse overwrites a uniformly
    chosen fraction of the entries with +/- amplitude; column_outliers
    replaces a fraction of the columns with N(0, var(Y)) noise.
    """
    Y = np.asarray(Y, dtype=np.float64)
    rng = np.random.default_rng(seed)
    if model == "gaussian":
        if not 0 <= sigma < np.inf:
            raise ParameterError("sigma must be finite and nonnegative, "
                                 f"got {sigma}")
        if sigma == 0:
            return Y.copy()
        return Y + sigma * rng.standard_normal(Y.shape)
    if model == "sparse":
        if not 0.0 <= fraction <= 1.0:
            raise ParameterError("fraction must lie in [0, 1]")
        if not np.isfinite(amplitude):
            raise ParameterError(f"amplitude must be finite, got {amplitude}")
        out = Y.copy()
        count = int(round(fraction * Y.size))
        if count == 0:
            return out
        flat_idx = rng.choice(Y.size, size=count, replace=False)
        signs = rng.choice([-1.0, 1.0], size=count)
        out.flat[flat_idx] = signs * amplitude
        return out
    if model == "column_outliers":
        if not 0.0 <= fraction <= 1.0:
            raise ParameterError("fraction must lie in [0, 1]")
        out = Y.copy()
        count = int(round(fraction * Y.shape[1]))
        if count == 0:
            return out
        cols = rng.choice(Y.shape[1], size=count, replace=False)
        out[:, cols] = np.sqrt(Y.var()) * rng.standard_normal((Y.shape[0], count))
        return out
    raise ParameterError(f"unknown noise model {model!r}")


def make_manifold(kind: str, n: int, noise_sigma: float = 0.0,
                  noise_dims: str = "ambient", seed: int = 0) -> DataMatrix:
    """Sample a parametric manifold, optionally corrupted by noise.

    noise_dims="ambient" perturbs every coordinate; "extra_dim" leaves the
    clean coordinates alone and appends one extra noisy dimension, turning
    a flat manifold into a noisy embedding one dimension up.
    """
    if n < 10:
        raise ParameterError(f"need at least 10 samples, got {n}")
    if not 0 <= noise_sigma < np.inf:
        raise ParameterError("noise_sigma must be finite and nonnegative, "
                             f"got {noise_sigma}")
    if noise_dims not in ("ambient", "extra_dim"):
        raise ParameterError(f"unknown noise_dims {noise_dims!r}")
    rng = np.random.default_rng(seed)
    if kind == "circle2d":
        t = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
        points = np.vstack([np.cos(t), np.sin(t)])
    elif kind == "spiral2d":
        t = np.linspace(0.5 * np.pi, 3.0 * np.pi, n)
        points = np.vstack([t * np.cos(t), t * np.sin(t)])
    elif kind == "swissroll3d":
        t = 1.5 * np.pi * (1.0 + 2.0 * rng.random(n))
        height = 10.0 * rng.random(n)
        points = np.vstack([t * np.cos(t), height, t * np.sin(t)])
    else:
        raise ParameterError(f"unknown manifold kind {kind!r}")
    if noise_sigma > 0.0:
        if noise_dims == "ambient":
            points = points + noise_sigma * rng.standard_normal(points.shape)
        else:
            extra = noise_sigma * rng.standard_normal((1, n))
            points = np.vstack([points, extra])
    elif noise_dims == "extra_dim":
        points = np.vstack([points, np.zeros((1, n))])
    return DataMatrix(points)
