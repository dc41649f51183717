import numpy as np
import pytest
import scipy.sparse as sparse
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from graphlowrank import (DataError, DataMatrix, FilterSpec, ParameterError,
                          SparseGraph, apply_filter_chebyshev,
                          apply_filter_exact, dirichlet_energy, eigendecompose,
                          eval_filter, gft, igft, knn_graph, laplacian)
from graphlowrank import spectral
from scipy.sparse.linalg import ArpackNoConvergence

from conftest import path_graph_weights, random_graph, refuse_dense_eigh


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

    def test_count_slices_leading_pairs(self, rng):
        g = random_graph(rng, n=10, k=3)
        L = laplacian(g, "normalized")
        full = eigendecompose(L)
        partial = eigendecompose(L, count=4)
        assert partial.count == 4
        assert np.allclose(partial.eigenvalues, full.eigenvalues[:4])
        assert np.allclose(partial.eigenvectors, full.eigenvectors[:, :4])

    def test_rejects_asymmetric_matrix(self):
        from graphlowrank.graph import LaplacianMatrix
        bad = LaplacianMatrix(kind="unnormalized",
                              matrix=sparse.csr_matrix(np.array([[1.0, 2.0],
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
    component per blob, and n = 400 is above the dense cutoff."""
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
    """eigendecompose(L, below=theta): Lanczos on the sparse Laplacian,
    certified by an inertia count, with the dense basis as the fallback."""

    def test_null_space_of_separated_blobs(self, rng, monkeypatch):
        L = blob_laplacian(rng)
        assert L.shape[0] >= spectral.DENSE_EIGH_BELOW
        assert spectral._count_below(L, 1e-9) == 5
        refuse_dense_eigh(monkeypatch)
        basis = eigendecompose(L, below=1e-9)
        Q = basis.eigenvectors
        assert basis.count == 5
        assert np.abs(basis.eigenvalues).max() <= 1e-12
        assert np.abs(Q.T @ Q - np.eye(5)).max() <= 1e-10
        assert np.abs(L.matrix @ Q).max() <= 1e-10

    @pytest.mark.parametrize("theta", [1e-9, 0.05, 0.3, 0.6, 1.2])
    def test_inertia_count_matches_dense_spectrum(self, rng, theta):
        L = blob_laplacian(rng)
        eigenvalues, _ = dense_below(L, theta)
        assert spectral._count_below(L, theta) == eigenvalues.size

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

    # at 1.0 SuperLU pivots off the diagonal, so the count is uncertified;
    # at 1.2 the count (223) exceeds a quarter of the 400 vertices
    @pytest.mark.parametrize("theta", [1.0, 1.2])
    def test_dense_fallback_is_the_cut_dense_basis(self, rng, theta):
        L = blob_laplacian(rng)
        if theta == 1.0:
            assert spectral._count_below(L, theta) is None
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
        L = blob_laplacian(rng)
        eigenvalues, eigenvectors = dense_below(L, 0.1)
        count_below = spectral._count_below
        monkeypatch.setattr(spectral, "_count_below",
                            lambda L, theta: count_below(L, theta) + 1)
        basis = eigendecompose(L, below=0.1)
        assert np.array_equal(basis.eigenvalues, eigenvalues)
        assert np.array_equal(basis.eigenvectors, eigenvectors)

    def test_rejects_asymmetric_matrix_above_dense_cutoff(self):
        from graphlowrank.graph import LaplacianMatrix
        W = path_graph_weights(300)
        matrix = sparse.csr_matrix(np.diag(W.sum(axis=1)) - W)
        matrix[0, 1] = -2.0
        bad = LaplacianMatrix(kind="unnormalized", matrix=matrix,
                              spectral_norm_bound=5.0)
        with pytest.raises(DataError):
            eigendecompose(bad, below=0.5)

    def test_count_and_below_are_exclusive(self, rng):
        L = laplacian(random_graph(rng, n=10, k=3), "normalized")
        with pytest.raises(ParameterError):
            eigendecompose(L, count=2, below=0.5)

    @settings(max_examples=25, deadline=None)
    @given(sizes=st.lists(st.integers(8, 40), min_size=1, max_size=6),
           seed=st.integers(0, 2**32 - 1))
    def test_null_space_of_disconnected_graphs(self, sizes, seed):
        # rings with random chords and weights, one per component; the
        # cutoff is lowered so that these small graphs take the sparse path
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
        assert spectral._count_below(L, 1e-9) in (None, len(sizes))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(spectral, "DENSE_EIGH_BELOW", 0)
            basis = eigendecompose(L, below=1e-9)
        Q = basis.eigenvectors
        assert basis.count == len(sizes)
        assert np.abs(Q.T @ Q - np.eye(len(sizes))).max() <= 1e-10
        assert np.abs(L.matrix @ Q).max() <= 1e-10


class TestFourierTransform:
    def test_constant_signal_energy_in_dc(self, rng):
        g = random_graph(rng, n=12, k=4)
        basis = eigendecompose(laplacian(g, "unnormalized"))
        xhat = gft(basis, np.ones(12))
        assert abs(xhat[0]) > 1.0
        assert np.abs(xhat[1:]).max() <= 1e-10

    def test_eigenvector_maps_to_impulse(self, rng):
        g = random_graph(rng, n=10, k=3)
        basis = eigendecompose(laplacian(g, "normalized"))
        xhat = gft(basis, basis.eigenvectors[:, 3])
        expected = np.zeros(10)
        expected[3] = 1.0
        assert np.allclose(xhat, expected, atol=1e-10)

    def test_parseval_and_inversion(self, rng):
        g = random_graph(rng, n=15, k=3)
        basis = eigendecompose(laplacian(g, "normalized"))
        for _ in range(5):
            x = rng.standard_normal(15)
            xhat = gft(basis, x)
            assert abs(np.linalg.norm(xhat) - np.linalg.norm(x)) <= 1e-10
            assert np.linalg.norm(igft(basis, xhat) - x) <= 1e-10

    def test_dimension_mismatch(self, rng):
        g = random_graph(rng, n=8, k=2)
        basis = eigendecompose(laplacian(g, "normalized"))
        with pytest.raises(DataError):
            gft(basis, np.ones(9))
        with pytest.raises(DataError):
            igft(basis, np.ones(9))


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
        spectral = np.sum(basis.eigenvalues[:, None] * (gft(basis, X) ** 2))
        direct = dirichlet_energy(L, X)
        assert np.isclose(direct, spectral, rtol=1e-8)

    def test_shape_mismatch(self, rng):
        L = laplacian(random_graph(rng, n=9, k=2), "normalized")
        with pytest.raises(DataError):
            dirichlet_energy(L, np.ones((8, 2)))


class TestFilterFamily:
    def test_penalty_curve_identities(self):
        for b in (0.1, 0.4, 2.5):
            spec = FilterSpec("step_gb", b=b)
            assert eval_filter(spec, b) == 1.0
            assert eval_filter(spec, b / 2) == 0.0
            assert eval_filter(spec, 0.0) == 0.0
            assert eval_filter(spec, 1.5 * b) == np.inf
            assert eval_filter(spec, 2.0 * b) == np.inf

    def test_prox_curve_identities(self):
        for b in (0.1, 0.4, 2.5):
            for gamma in (0.5, 1.0, 7.0):
                assert eval_filter(FilterSpec("prox_fb", b=b, gamma=gamma), 0.0) == 1.0
            assert eval_filter(FilterSpec("prox_fb", b=b, gamma=1.0), b) == 0.5

    @settings(max_examples=40, deadline=None)
    @given(b=st.floats(0.05, 5.0), gamma=st.floats(0.0, 50.0))
    def test_prox_curve_bounded_and_nonincreasing(self, b, gamma):
        spec = FilterSpec("prox_fb", b=b, gamma=gamma)
        grid = np.linspace(0.0, 3.0 * b, 200)
        vals = eval_filter(spec, grid)
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
        assert np.all(np.diff(vals) <= 1e-12)

    def test_tikhonov_and_identity(self):
        assert eval_filter(FilterSpec("identity"), 1.7) == 1.0
        assert eval_filter(FilterSpec("tikhonov", gamma=2.0), 1.0) == pytest.approx(1 / 3)

    def test_invalid_specs(self):
        with pytest.raises(ParameterError):
            FilterSpec("prox_fb", b=0.0)
        with pytest.raises(ParameterError):
            FilterSpec("nope")
        with pytest.raises(ParameterError):
            FilterSpec("tikhonov", gamma=-1.0)
        with pytest.raises(ParameterError):
            eval_filter(FilterSpec("identity"), -0.5)

    @pytest.mark.parametrize("family", ["tikhonov", "prox_fb"])
    @pytest.mark.parametrize("field", ["b", "gamma"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_specs(self, family, field, value):
        with pytest.raises(ParameterError, match="finite"):
            FilterSpec(family, **{"b": 0.5, "gamma": 1.0, field: value})


class TestApplyFilterExact:
    def test_identity_filter_is_noop(self, rng):
        g = random_graph(rng, n=10, k=3)
        basis = eigendecompose(laplacian(g, "normalized"))
        X = rng.standard_normal((10, 4))
        assert np.allclose(apply_filter_exact(basis, FilterSpec("identity"), X), X)

    def test_wide_band_prox_filter_is_near_noop(self, rng):
        g = random_graph(rng, n=12, k=3)
        basis = eigendecompose(laplacian(g, "normalized"))
        # bandwidth far above the spectrum keeps f at exactly 1 everywhere
        spec = FilterSpec("prox_fb", b=2.0 * basis.eigenvalues.max() + 1.0,
                          gamma=1.0)
        X = rng.standard_normal((12, 4))
        out = apply_filter_exact(basis, spec, X)
        assert np.linalg.norm(out - X) <= 1e-6 * np.linalg.norm(X)

    def test_right_side_application(self, rng):
        g = random_graph(rng, n=9, k=3)
        basis = eigendecompose(laplacian(g, "normalized"))
        spec = FilterSpec("tikhonov", gamma=1.5)
        X = rng.standard_normal((4, 9))
        out = apply_filter_exact(basis, spec, X, side="right")
        assert np.allclose(out.T, apply_filter_exact(basis, spec, X.T, side="left"))

    def test_tikhonov_filter_matches_closed_form(self, rng):
        from graphlowrank import tikhonov_closed_form
        Y = rng.standard_normal((10, 12))
        data = DataMatrix(Y)
        Lr = laplacian(knn_graph(data, "rows", 3), "normalized")
        Lc = laplacian(knn_graph(data, "columns", 3), "normalized")
        gamma_r, gamma_c = 0.8, 1.7
        filtered = apply_filter_exact(
            eigendecompose(Lc), FilterSpec("tikhonov", gamma=gamma_c),
            apply_filter_exact(eigendecompose(Lr),
                               FilterSpec("tikhonov", gamma=gamma_r), Y,
                               side="left"),
            side="right")
        oracle = tikhonov_closed_form(Y, Lr, Lc, gamma_r, gamma_c)
        assert np.linalg.norm(filtered - oracle) <= 1e-8 * np.linalg.norm(oracle)

    def test_infinite_filter_rejected(self, rng):
        g = random_graph(rng, n=10, k=3)
        basis = eigendecompose(laplacian(g, "normalized"))
        spec = FilterSpec("step_gb", b=0.1)  # infinite beyond 0.15
        with pytest.raises(ParameterError):
            apply_filter_exact(basis, spec, np.ones((10, 2)))


class TestApplyFilterChebyshev:
    @pytest.fixture
    def graph100(self, rng):
        data = DataMatrix(rng.standard_normal((3, 100)))
        return laplacian(knn_graph(data, "columns", 5), "normalized")

    def test_constant_filter_exact_at_any_order(self, rng, graph100):
        X = rng.standard_normal((100, 3))
        for order in (1, 2, 7):
            out = apply_filter_chebyshev(graph100, FilterSpec("identity"),
                                         order, X)
            assert np.linalg.norm(out - X) <= 1e-10 * np.linalg.norm(X)

    def test_order_50_close_to_exact(self, rng, graph100):
        basis = eigendecompose(graph100)
        spec = FilterSpec("prox_fb", b=0.7, gamma=2.0)
        X = rng.standard_normal((100, 4))
        exact = apply_filter_exact(basis, spec, X)
        approx = apply_filter_chebyshev(graph100, spec, 50, X)
        assert np.linalg.norm(approx - exact) <= 1e-3 * np.linalg.norm(exact)

    def test_error_decreases_as_order_doubles(self, rng, graph100):
        basis = eigendecompose(graph100)
        spec = FilterSpec("prox_fb", b=0.7, gamma=2.0)
        X = rng.standard_normal((100, 2))
        exact = apply_filter_exact(basis, spec, X)
        errors = []
        for order in (1, 2, 4, 8, 16, 32, 64, 128):
            approx = apply_filter_chebyshev(graph100, spec, order, X)
            errors.append(np.linalg.norm(approx - exact))
        for prev, curr in zip(errors, errors[1:]):
            assert curr <= prev * 1.1 + 1e-12
        assert errors[-1] < errors[0]

    def test_bad_order_rejected(self, rng, graph100):
        with pytest.raises(ParameterError):
            apply_filter_chebyshev(graph100, FilterSpec("identity"), 0,
                                   np.ones((100, 1)))

    def test_right_side(self, rng, graph100):
        basis = eigendecompose(graph100)
        spec = FilterSpec("prox_fb", b=0.9, gamma=1.0)
        X = rng.standard_normal((2, 100))
        exact = apply_filter_exact(basis, spec, X, side="right")
        approx = apply_filter_chebyshev(graph100, spec, 60, X, side="right")
        assert np.linalg.norm(approx - exact) <= 1e-3 * np.linalg.norm(exact)

