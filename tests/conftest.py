import numpy as np
import pytest

from graphlowrank import DataMatrix, eigendecompose, knn_graph, laplacian
from graphlowrank.spectral import prox_filter_curve


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)


def random_graph(rng, n=12, k=3, dim=2):
    """Connected-ish random KNN graph for property tests."""
    points = DataMatrix(rng.standard_normal((dim, n)))
    return knn_graph(points, axis="columns", k=k)


def path_graph_weights(n):
    W = np.zeros((n, n))
    for i in range(n - 1):
        W[i, i + 1] = W[i + 1, i] = 1.0
    return W


def two_blob_data(rng, per_cluster=30, separation=6.0, spread=0.5):
    """Two Gaussian blobs in the plane, columns as samples."""
    a = rng.normal(0.0, spread, size=(2, per_cluster))
    b = rng.normal(0.0, spread, size=(2, per_cluster))
    b[0] += separation
    return DataMatrix(np.hstack([a, b]))


def build_laplacians(Y, k_row=4, k_col=4, kind="normalized"):
    data = DataMatrix(Y)
    Lr = laplacian(knn_graph(data, "rows", k_row), kind)
    Lc = laplacian(knn_graph(data, "columns", k_col), kind)
    return Lr, Lc


def refuse_dense_eigh(monkeypatch):
    """Make any call of the dense eigh fail the test."""
    def refuse(*args, **kwargs):
        raise AssertionError("the dense eigh was called")
    monkeypatch.setattr(np.linalg, "eigh", refuse)


def apply_filter_exact(basis, b, gamma, X, side="left"):
    """Q f_b(Lambda, gamma) Q^T applied to X from the given side, through a
    whole eigenbasis: the oracle for the solver's filtered prox."""
    response = prox_filter_curve(basis.eigenvalues, b, gamma)
    Q = basis.eigenvectors
    if side == "left":
        return Q @ (response[:, None] * (Q.T @ X))
    return ((X @ Q) * response[None, :]) @ Q.T


def lrmg_bases(instance):
    """The row and column eigenbases from which make_lrmg built the
    instance's Y_star, with the same bits."""
    return (eigendecompose(instance.row_laplacian),
            eigendecompose(instance.col_laplacian))
