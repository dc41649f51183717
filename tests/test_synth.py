import numpy as np
import pytest

from graphlowrank import (ParameterError, add_noise, knn_graph, make_lrmg,
                          make_manifold, save_matrix_csv)

from conftest import lrmg_bases


class TestMakeLrmg:
    def test_band_limit_invariants(self):
        instance = make_lrmg(25, 30, 4, 3, seed=1)
        row_basis, col_basis = lrmg_bases(instance)
        Y = instance.Y_star
        out_rows = row_basis.eigenvectors[:, 4:].T @ Y
        out_cols = Y @ col_basis.eigenvectors[:, 3:]
        scale = np.linalg.norm(Y)
        assert np.linalg.norm(out_rows) <= 1e-8 * scale
        assert np.linalg.norm(out_cols) <= 1e-8 * scale

    def test_rank_one_outer_product(self):
        instance = make_lrmg(10, 12, 1, 1, seed=2)
        assert np.linalg.matrix_rank(instance.Y_star, tol=1e-10) == 1

    def test_rank_k_cutoff(self):
        instance = make_lrmg(120, 120, 10, 10, seed=3)
        sigma = np.linalg.svd(instance.Y_star, compute_uv=False)
        assert sigma[10] <= 1e-8 * sigma[0]
        assert sigma[9] > 1e-8 * sigma[0]

    def test_k_out_of_range(self):
        with pytest.raises(ParameterError):
            make_lrmg(5, 5, 6, 2, seed=0)
        with pytest.raises(ParameterError):
            make_lrmg(5, 5, 2, 0, seed=0)

    def test_deterministic_given_seed(self, tmp_path):
        paths = []
        for name in ("a.csv", "b.csv"):
            instance = make_lrmg(15, 18, 3, 3, seed=42)
            p = tmp_path / name
            save_matrix_csv(p, instance.Y_star)
            paths.append(p.read_bytes())
        assert paths[0] == paths[1]


class TestAddNoise:
    def test_zero_noise_is_identity(self, rng):
        Y = rng.standard_normal((6, 8))
        assert np.array_equal(add_noise(Y, "gaussian", seed=0, sigma=0.0), Y)
        assert np.array_equal(add_noise(Y, "sparse", seed=0, fraction=0.0), Y)
        assert np.array_equal(
            add_noise(Y, "column_outliers", seed=0, fraction=0.0), Y)

    def test_sparse_full_fraction_sets_everything(self, rng):
        Y = rng.standard_normal((5, 7))
        noisy = add_noise(Y, "sparse", seed=1, fraction=1.0, amplitude=2.5)
        assert np.all(np.abs(noisy) == 2.5)

    def test_sparse_cardinality_exact(self, rng):
        Y = rng.standard_normal((20, 30))
        fraction = 0.13
        noisy = add_noise(Y, "sparse", seed=2, fraction=fraction, amplitude=9.0)
        changed = int((noisy != Y).sum())
        assert changed == round(fraction * Y.size)

    def test_gaussian_norm_matches_expectation(self, rng):
        Y = rng.standard_normal((40, 50))
        Y /= np.linalg.norm(Y, axis=0, keepdims=True)  # unit-norm columns
        sigma = 0.1
        noisy = add_noise(Y, "gaussian", seed=3, sigma=sigma)
        observed = np.linalg.norm(noisy - Y)
        expected = sigma * np.sqrt(Y.size)
        assert abs(observed - expected) <= 0.1 * expected

    def test_column_outliers_replaces_whole_columns(self, rng):
        Y = rng.standard_normal((10, 20))
        noisy = add_noise(Y, "column_outliers", seed=4, fraction=0.25)
        changed_cols = np.any(noisy != Y, axis=0)
        assert changed_cols.sum() == 5
        assert np.all(np.all(noisy[:, changed_cols] != Y[:, changed_cols],
                             axis=0))

    def test_determinism(self, rng):
        Y = rng.standard_normal((8, 8))
        a = add_noise(Y, "sparse", seed=5, fraction=0.3, amplitude=1.0)
        b = add_noise(Y, "sparse", seed=5, fraction=0.3, amplitude=1.0)
        assert np.array_equal(a, b)

    def test_bad_parameters(self, rng):
        Y = rng.standard_normal((4, 4))
        with pytest.raises(ParameterError):
            add_noise(Y, "sparse", seed=0, fraction=1.5)
        with pytest.raises(ParameterError):
            add_noise(Y, "gaussian", seed=0, sigma=-0.1)
        with pytest.raises(ParameterError):
            add_noise(Y, "salt", seed=0)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_parameters(self, rng, value):
        Y = rng.standard_normal((4, 4))
        with pytest.raises(ParameterError):
            add_noise(Y, "gaussian", seed=0, sigma=value)
        with pytest.raises(ParameterError):
            add_noise(Y, "sparse", seed=0, fraction=0.5, amplitude=value)


class TestMakeManifold:
    def test_clean_circle_has_unit_radius(self):
        data = make_manifold("circle2d", n=100)
        radii = np.linalg.norm(data.values, axis=0)
        assert np.abs(radii - 1.0).max() <= 1e-12

    def test_extra_dim_noise_statistics(self):
        sigma = 0.2
        data = make_manifold("circle2d", n=5000, noise_sigma=sigma,
                             noise_dims="extra_dim", seed=12)
        assert data.values.shape[0] == 3
        extra = data.values[2]
        assert abs(extra.mean()) <= 0.02
        assert abs(extra.std() - sigma) <= 0.1 * sigma
        # the clean coordinates are untouched
        assert np.abs(np.linalg.norm(data.values[:2], axis=0) - 1.0).max() <= 1e-12

    @pytest.mark.parametrize("kind", ["circle2d", "swissroll3d"])
    def test_noiseless_extra_dim_is_a_zero_row(self, kind):
        plain = make_manifold(kind, n=40, seed=4).values
        data = make_manifold(kind, n=40, noise_sigma=0.0,
                             noise_dims="extra_dim", seed=4).values
        assert np.array_equal(data, np.vstack([plain, np.zeros((1, 40))]))

    def test_spiral_consecutive_points_are_neighbors(self):
        data = make_manifold("spiral2d", n=500)
        g = knn_graph(data, "columns", k=2)
        W = g.weights
        hits = 0
        for i in range(1, 499):
            row = W.getrow(i).indices
            if (i - 1) in row and (i + 1) in row:
                hits += 1
        assert hits / 498 >= 0.95

    def test_swissroll_shape_and_determinism(self):
        a = make_manifold("swissroll3d", n=50, noise_sigma=0.1, seed=3)
        b = make_manifold("swissroll3d", n=50, noise_sigma=0.1, seed=3)
        assert a.values.shape == (3, 50)
        assert np.array_equal(a.values, b.values)

    def test_bad_parameters(self):
        with pytest.raises(ParameterError):
            make_manifold("torus", n=100)
        with pytest.raises(ParameterError):
            make_manifold("circle2d", n=5)
        with pytest.raises(ParameterError):
            make_manifold("circle2d", n=100, noise_dims="everywhere")

    @pytest.mark.parametrize("sigma", [np.nan, np.inf])
    def test_non_finite_noise_sigma(self, sigma):
        with pytest.raises(ParameterError):
            make_manifold("circle2d", n=100, noise_sigma=sigma)
