import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sparse
import scipy.sparse.csgraph
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from graphlowrank import (DataError, DataMatrix, FilterSpec, ParameterError,
                          SparseGraph, eigendecompose, knn_graph, laplacian)
from graphlowrank import spectral
from graphlowrank.spectral import prox_filter_curve, step_penalty_curve
from scipy.sparse.linalg import ArpackNoConvergence

from conftest import (apply_filter_exact, path_graph_weights, random_graph,
                      refuse_dense_eigh)


def two_vertex_laplacian():
    g = SparseGraph.from_weight_matrix([[0.0, 1.0], [1.0, 0.0]])
    return laplacian(g, "unnormalized")


class TestEigendecompose:
    def test_two_vertex(self):
        basis = eigendecompose(two_vertex_laplacian())
        assert np.allclose(basis.eigenvalues, [0.0, 2.0])
        assert np.allclose(basis.eigenvectors[:, 0], [1, 1] / np.sqrt(2))
        # sign convention: first significant entry positive
        assert basis.eigenvectors[0, 1] > 0

    def test_disconnected_two_components(self):
        W = sparse.block_diag([path_graph_weights(3), path_graph_weights(3)])
        basis = eigendecompose(laplacian(SparseGraph.from_weight_matrix(W),
                                         "unnormalized"))
        assert basis.eigenvalues[0] <= 1e-12
        assert basis.eigenvalues[1] <= 1e-12
        assert basis.eigenvalues[2] > 1e-8

    def test_path4_closed_form(self):
        g = SparseGraph.from_weight_matrix(path_graph_weights(4))
        basis = eigendecompose(laplacian(g, "unnormalized"))
        expected = np.sort(2.0 - 2.0 * np.cos(np.arange(4) * np.pi / 4))
        assert np.allclose(basis.eigenvalues, expected)

    def test_orthonormal_and_reconstructs(self, rng):
        g = random_graph(rng, n=14, k=3)
        L = laplacian(g, "normalized")
        basis = eigendecompose(L)
        Q = basis.eigenvectors
        assert np.abs(Q.T @ Q - np.eye(14)).max() <= 1e-8
        rebuilt = Q @ np.diag(basis.eigenvalues) @ Q.T
        dense = L.dense()
        assert np.linalg.norm(rebuilt - dense) <= 1e-8 * np.linalg.norm(dense)
        assert basis.eigenvalues[0] <= 1e-8

    @pytest.mark.parametrize("below", [None, 0.5])
    def test_laplacian_with_no_vertices_gives_an_empty_basis(self, below):
        # the dense route and the partial one, which falls back to it
        L = laplacian(SparseGraph.from_weight_matrix(np.zeros((0, 0))))
        basis = eigendecompose(L, below=below)
        assert basis.eigenvalues.shape == (0,)
        assert basis.eigenvectors.shape == (0, 0)
        assert basis.size == basis.count == 0

    def test_signs_are_fixed_in_place(self, rng):
        Q = -np.linalg.qr(rng.standard_normal((6, 6)))[0]
        expected = Q * spectral._column_signs(Q)
        _, flipped = spectral._normalized_pairs(np.arange(6.0), Q, 1.0)
        assert flipped is Q
        assert np.array_equal(Q, expected)

    def test_rejects_asymmetric_matrix(self):
        from graphlowrank.graph import LaplacianMatrix
        bad = LaplacianMatrix(matrix=sparse.csr_matrix(np.array([[1.0, 2.0],
                                                                 [0.0, 1.0]])),
                              spectral_norm_bound=3.0)
        with pytest.raises(DataError):
            eigendecompose(bad)


def column_signs_loop(Q):
    """The sign convention one column at a time, the oracle of
    ``spectral._column_signs``."""
    signs = np.ones(Q.shape[1])
    for col in range(Q.shape[1]):
        v = Q[:, col]
        significant = np.abs(v) > 1e-12 * max(np.abs(v).max(initial=0.0), 1e-300)
        idx = np.argmax(significant)
        if significant[idx] and v[idx] < 0:
            signs[col] = -1.0
    return signs


@settings(max_examples=200, deadline=None)
@given(data=st.data(), rows=st.integers(1, 8), cols=st.integers(0, 8),
       scale=st.integers(-320, 300))
def test_column_signs_match_the_loop(data, rows, cols, scale):
    # small integers give zero columns and leading zeros; exponents up to
    # 15 below the scale put entries on both sides of the 1e-12 cut-off,
    # and the scale runs from subnormals to near the float maximum
    size = rows * cols
    mantissas = data.draw(st.lists(st.integers(-3, 3), min_size=size,
                                   max_size=size))
    shifts = data.draw(st.lists(st.integers(-15, 0), min_size=size,
                                max_size=size))
    exponents = scale + np.array(shifts, dtype=np.float64)
    Q = (np.array(mantissas) * 10.0 ** exponents).reshape(rows, cols)
    assert np.array_equal(spectral._column_signs(Q), column_signs_loop(Q))


def blob_laplacian(rng, clusters=5, per_cluster=80):
    """Normalized 5-NN Laplacian of well-separated planar blobs: one
    component per blob."""
    angles = 2.0 * np.pi * np.arange(clusters) / clusters
    centers = 20.0 * np.vstack([np.cos(angles), np.sin(angles)])
    points = (np.repeat(centers, per_cluster, axis=1)
              + rng.standard_normal((2, clusters * per_cluster)))
    return laplacian(knn_graph(DataMatrix(points), "columns", 5), "normalized")


def dense_below(L, theta):
    full = eigendecompose(L)
    keep = full.eigenvalues < theta
    return full.eigenvalues[keep], full.eigenvectors[:, keep]


class TestPartialEigenbasis:
    """eigendecompose(L, below=theta): Lanczos rounds on the sparse
    Laplacian, with the zero eigenvalue's multiplicity taken from the
    connected components and the dense basis as the fallback."""

    def test_null_space_of_separated_blobs(self, rng, monkeypatch):
        L = blob_laplacian(rng)
        refuse_dense_eigh(monkeypatch)
        basis = eigendecompose(L, below=1e-9)
        Q = basis.eigenvectors
        assert basis.count == 5
        assert np.abs(basis.eigenvalues).max() <= 1e-12
        assert np.abs(Q.T @ Q - np.eye(5)).max() <= 1e-10
        assert np.abs(L.matrix @ Q).max() <= 1e-10

    def test_sparse_pairs_match_dense_pairs(self, rng, monkeypatch):
        L = blob_laplacian(rng)
        eigenvalues, eigenvectors = dense_below(L, 0.1)
        refuse_dense_eigh(monkeypatch)
        basis = eigendecompose(L, below=0.1)
        assert basis.count == eigenvalues.size == 27
        np.testing.assert_allclose(basis.eigenvalues, eigenvalues, rtol=0,
                                   atol=1e-12)
        # eigenvectors of the repeated eigenvalue 0 are fixed only up to a
        # rotation, so the spanned spaces are compared
        Q = basis.eigenvectors
        assert (np.abs(Q @ Q.T - eigenvectors @ eigenvectors.T).max()
                <= 1e-9)
        # the seeded start vector makes the basis reproducible
        again = eigendecompose(L, below=0.1)
        assert np.array_equal(again.eigenvalues, basis.eigenvalues)
        assert np.array_equal(again.eigenvectors, Q)

    @pytest.mark.parametrize("theta", [1e-9, 0.1, 0.3])
    def test_small_graph_takes_the_sparse_route(self, rng, monkeypatch,
                                                theta):
        # n = 60: any size takes the sparse route, here with 3 to 9
        # eigenvalues below theta, at most a quarter of the vertices
        L = blob_laplacian(rng, clusters=3, per_cluster=20)
        eigenvalues, eigenvectors = dense_below(L, theta)
        assert 1 <= eigenvalues.size <= L.shape[0] // 4
        refuse_dense_eigh(monkeypatch)
        basis = eigendecompose(L, below=theta)
        np.testing.assert_allclose(basis.eigenvalues, eigenvalues, rtol=0,
                                   atol=1e-12)
        Q = basis.eigenvectors
        assert (np.abs(Q @ Q.T - eigenvectors @ eigenvectors.T).max()
                <= 1e-9)

    # at 1.2 the rounds find more than a quarter of the 400 vertices (223
    # eigenvalues lie below it)
    @pytest.mark.parametrize("theta", [1.2])
    def test_dense_fallback_is_the_cut_dense_basis(self, rng, theta):
        L = blob_laplacian(rng)
        eigenvalues, eigenvectors = dense_below(L, theta)
        basis = eigendecompose(L, below=theta)
        assert np.array_equal(basis.eigenvalues, eigenvalues)
        assert np.array_equal(basis.eigenvectors, eigenvectors)

    def test_arpack_failure_falls_back_to_dense(self, rng, monkeypatch):
        L = blob_laplacian(rng)
        eigenvalues, eigenvectors = dense_below(L, 0.1)

        def no_convergence(*args, **kwargs):
            raise ArpackNoConvergence("no convergence", np.empty(0),
                                      np.empty((L.shape[0], 0)))
        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
        basis = eigendecompose(L, below=0.1)
        assert np.array_equal(basis.eigenvalues, eigenvalues)
        assert np.array_equal(basis.eigenvectors, eigenvectors)

    def test_lanczos_disagreeing_with_the_count_falls_back(self, rng,
                                                           monkeypatch):
        # one component more than the 5 blobs: the rounds find the 5 null
        # vectors and nothing else below theta, fewer pairs than components
        L = blob_laplacian(rng)
        eigenvalues, eigenvectors = dense_below(L, 1e-9)
        count = scipy.sparse.csgraph.connected_components
        monkeypatch.setattr(
            scipy.sparse.csgraph, "connected_components",
            lambda *args, **kwargs: count(*args, **kwargs) + 1)
        basis = eigendecompose(L, below=1e-9)
        assert np.array_equal(basis.eigenvalues, eigenvalues)
        assert np.array_equal(basis.eigenvectors, eigenvectors)

    @pytest.mark.parametrize("theta, count", [(np.inf, 400), (-np.inf, 0)])
    def test_infinite_thresholds(self, rng, theta, count):
        assert eigendecompose(blob_laplacian(rng), below=theta).count == count

    def test_nan_threshold_rejected(self, rng, monkeypatch):
        # no Lanczos round finds a pair below NaN, and the dense cut's
        # searchsorted would place NaN above every eigenvalue; the refusal
        # comes before either
        L = blob_laplacian(rng)

        def refuse(*args, **kwargs):
            raise AssertionError("Lanczos was called")
        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", refuse)
        refuse_dense_eigh(monkeypatch)
        with pytest.raises(ParameterError, match="below"):
            eigendecompose(L, below=np.nan)

    def test_rejects_asymmetric_matrix_above_dense_cutoff(self):
        from graphlowrank.graph import LaplacianMatrix
        W = path_graph_weights(300)
        matrix = sparse.csr_matrix(np.diag(W.sum(axis=1)) - W)
        matrix[0, 1] = -2.0
        bad = LaplacianMatrix(matrix=matrix, spectral_norm_bound=5.0)
        with pytest.raises(DataError):
            eigendecompose(bad, below=0.5)

    @pytest.mark.parametrize("theta", [0.0, -1.0])
    def test_non_positive_threshold_gives_an_empty_basis(self, rng,
                                                         monkeypatch, theta):
        L = blob_laplacian(rng)
        refuse_dense_eigh(monkeypatch)
        basis = eigendecompose(L, below=theta)
        assert basis.eigenvalues.shape == (0,)
        assert basis.eigenvectors.shape == (L.shape[0], 0)

    def test_basis_never_factors(self, rng, monkeypatch):
        # sparse products only: no LU factor of L - theta I, no dense eigh
        L = blob_laplacian(rng)

        def refuse(*args, **kwargs):
            raise AssertionError("a sparse LU factor was made")
        monkeypatch.setattr(scipy.sparse.linalg, "splu", refuse)
        refuse_dense_eigh(monkeypatch)
        assert eigendecompose(L, below=0.1).count == 27

    def test_memory_stays_far_below_a_dense_matrix(self):
        # rank-10 data fills an LU factor of L - theta I to about a third
        # of a dense matrix; the basis holds O(n m) and the sparse matrix
        n = 3000
        rng = np.random.default_rng(0)
        Y = rng.standard_normal((30, 10)) @ rng.standard_normal((10, n))
        L = laplacian(knn_graph(DataMatrix(Y), "columns", 10), "normalized")
        tracemalloc.start()
        try:
            basis = eigendecompose(L, below=0.075)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert basis.count >= 1
        assert peak < n * n * 8 / 4

    @settings(max_examples=25, deadline=None)
    @given(sizes=st.lists(st.integers(8, 40), min_size=1, max_size=6),
           seed=st.integers(0, 2**32 - 1))
    def test_null_space_of_disconnected_graphs(self, sizes, seed):
        # rings with random chords and weights, one per component
        rng = np.random.default_rng(seed)
        blocks = []
        for size in sizes:
            W = np.triu(rng.uniform(0.1, 1.0, (size, size))
                        * (rng.random((size, size)) < 0.2), k=1)
            ring = np.arange(size)
            W[ring, (ring + 1) % size] = rng.uniform(0.1, 1.0, size)
            W = np.triu(W + W.T, k=1)
            blocks.append(W + W.T)
        L = laplacian(SparseGraph.from_weight_matrix(sparse.block_diag(blocks)),
                      "normalized")
        basis = eigendecompose(L, below=1e-9)
        Q = basis.eigenvectors
        assert basis.count == len(sizes)
        assert np.abs(Q.T @ Q - np.eye(len(sizes))).max() <= 1e-10
        assert np.abs(L.matrix @ Q).max() <= 1e-10


def dirichlet_energy(L, X):
    """tr(X^T L X), the graph smoothness energy of the columns of X."""
    return float(np.sum(X * (L.matrix @ X)))


class TestDirichletEnergy:
    def test_constant_columns_zero_on_connected_graph(self, rng):
        g = random_graph(rng, n=12, k=4)
        L = laplacian(g, "unnormalized")
        X = np.outer(np.ones(12), rng.standard_normal(3))
        assert abs(dirichlet_energy(L, X)) <= 1e-10

    def test_eigenvector_gives_eigenvalue(self, rng):
        g = random_graph(rng, n=10, k=3)
        L = laplacian(g, "normalized")
        basis = eigendecompose(L)
        for j in (1, 4, 7):
            assert np.isclose(dirichlet_energy(L, basis.eigenvectors[:, j]),
                              basis.eigenvalues[j], atol=1e-10)

    def test_matches_spectral_formula(self, rng):
        g = random_graph(rng, n=13, k=3)
        L = laplacian(g, "normalized")
        basis = eigendecompose(L)
        X = rng.standard_normal((13, 5))
        coefficients = basis.eigenvectors.T @ X
        spectral = np.sum(basis.eigenvalues[:, None] * coefficients ** 2)
        direct = dirichlet_energy(L, X)
        assert np.isclose(direct, spectral, rtol=1e-8)


class TestFilterFamily:
    def test_penalty_curve_identities(self):
        for b in (0.1, 0.4, 2.5):
            g = step_penalty_curve([b, b / 2, 0.0, 1.5 * b, 2.0 * b], b)
            assert g.tolist() == [1.0, 0.0, 0.0, np.inf, np.inf]

    def test_prox_curve_identities(self):
        for b in (0.1, 0.4, 2.5):
            for gamma in (0.5, 1.0, 7.0):
                assert prox_filter_curve(0.0, b, gamma).tolist() == [1.0]
            assert prox_filter_curve(b, b, 1.0).tolist() == [0.5]

    @settings(max_examples=40, deadline=None)
    @given(b=st.floats(0.05, 5.0), gamma=st.floats(0.0, 50.0))
    def test_prox_curve_bounded_and_nonincreasing(self, b, gamma):
        grid = np.linspace(0.0, 3.0 * b, 200)
        vals = prox_filter_curve(grid, b, gamma)
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
        assert np.all(np.diff(vals) <= 1e-12)

    def test_invalid_specs(self):
        with pytest.raises(ParameterError):
            FilterSpec("prox_fb", b=0.0)
        with pytest.raises(ParameterError):
            FilterSpec("nope")
        with pytest.raises(ParameterError):
            FilterSpec("identity")
        with pytest.raises(ParameterError, match="finite and >= 0"):
            prox_filter_curve(0.5, 0.5, -1.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_b(self, value):
        with pytest.raises(ParameterError, match="finite"):
            FilterSpec("prox_fb", b=value)

    @pytest.mark.parametrize("b", [0.0, -1.0, np.nan, np.inf])
    @pytest.mark.parametrize("curve", [
        step_penalty_curve, lambda x, b: prox_filter_curve(x, b, 1.0)],
        ids=["penalty", "prox"])
    def test_curves_refuse_bad_b(self, curve, b):
        # FilterSpec's rule: unchecked, the penalty curve was inf
        # everywhere and the prox curve all 0 or all 1
        with pytest.raises(ParameterError, match="finite and > 0"):
            curve(np.linspace(0.0, 2.0, 5), b)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_prox_gamma(self, value):
        with pytest.raises(ParameterError, match="finite"):
            prox_filter_curve(0.5, 0.5, value)


class TestApplyFilterExact:
    """The test-local oracle of the filtered prox, on its own."""

    def test_identity_filter_is_noop(self, rng):
        g = random_graph(rng, n=10, k=3)
        basis = eigendecompose(laplacian(g, "normalized"))
        X = rng.standard_normal((10, 4))
        # f_b at gamma = 0 is 1 on the whole spectrum
        assert np.allclose(apply_filter_exact(basis, 0.5, 0.0, X), X)

    def test_wide_band_prox_filter_is_near_noop(self, rng):
        g = random_graph(rng, n=12, k=3)
        basis = eigendecompose(laplacian(g, "normalized"))
        # bandwidth far above the spectrum keeps f at exactly 1 everywhere
        b = 2.0 * basis.eigenvalues.max() + 1.0
        X = rng.standard_normal((12, 4))
        out = apply_filter_exact(basis, b, 1.0, X)
        assert np.linalg.norm(out - X) <= 1e-6 * np.linalg.norm(X)

    def test_right_side_application(self, rng):
        g = random_graph(rng, n=9, k=3)
        basis = eigendecompose(laplacian(g, "normalized"))
        X = rng.standard_normal((4, 9))
        out = apply_filter_exact(basis, 0.6, 1.5, X, side="right")
        assert np.allclose(out.T,
                           apply_filter_exact(basis, 0.6, 1.5, X.T, side="left"))
