import numpy as np
import pytest

from graphlowrank import (DataError, ParameterError, SolverConfig, SparseGraph,
                          alignment_report, covariance, dirichlet_energy,
                          eigendecompose, knn_graph, laplacian, loss_value,
                          make_lrmg, recovery_bound_check, solve_frpcag,
                          spectral_gap, subspace_coherence,
                          weighted_alignment_objective)
from graphlowrank import build_diagnostics_report as glr_build_report
from graphlowrank.diagnostics import gamma_to_db

from conftest import path_graph_weights, random_graph, two_blob_data


def l1(residual):
    return float(np.abs(residual).sum())


class TestCovariance:
    def test_identical_columns_center_to_zero(self):
        Y = np.tile(np.array([[1.0], [2.0], [-0.5]]), (1, 6))
        assert np.allclose(covariance(Y, "rows"), 0.0)

    def test_hand_computed_2x2(self):
        Y = np.array([[1.0, -1.0], [1.0, -1.0]])
        assert np.allclose(covariance(Y, "rows"), [[1.0, 1.0], [1.0, 1.0]])

    def test_positive_semidefinite(self, rng):
        Y = rng.standard_normal((10, 25))
        for axis in ("rows", "columns"):
            eigs = np.linalg.eigvalsh(covariance(Y, axis))
            assert eigs.min() >= -1e-10

    def test_columns_axis_shape(self, rng):
        Y = rng.standard_normal((7, 12))
        assert covariance(Y, "columns").shape == (12, 12)

    def test_single_vector_rejected(self):
        with pytest.raises(ParameterError):
            covariance(np.ones((3, 1)), "rows")
        with pytest.raises(ParameterError):
            covariance(np.ones((1, 3)), "columns")


class TestAlignmentReport:
    def test_identity_covariance_fully_aligned(self, rng):
        basis = eigendecompose(laplacian(random_graph(rng, n=9, k=3),
                                         "normalized"))
        report = alignment_report(basis, np.eye(9), k=3)
        assert report.alignment_order == pytest.approx(1.0)

    def test_basis_built_covariance_fully_aligned(self, rng):
        basis = eigendecompose(laplacian(random_graph(rng, n=8, k=3),
                                         "normalized"))
        D = np.diag(rng.uniform(0.5, 3.0, size=8))
        C = basis.eigenvectors @ D @ basis.eigenvectors.T
        report = alignment_report(basis, C, k=4)
        assert report.alignment_order == pytest.approx(1.0, abs=1e-10)

    def test_dense_random_covariance_not_aligned(self, rng):
        basis = eigendecompose(laplacian(random_graph(rng, n=10, k=3),
                                         "normalized"))
        A = rng.standard_normal((10, 10))
        report = alignment_report(basis, A @ A.T, k=3)
        assert 0.0 < report.alignment_order < 1.0

    def test_rank_k_alignment_nondecreasing_to_one(self, rng):
        basis = eigendecompose(laplacian(random_graph(rng, n=10, k=3),
                                         "normalized"))
        A = rng.standard_normal((10, 10))
        C = A @ A.T
        values = [alignment_report(basis, C, k).rank_k_alignment
                  for k in range(1, 11)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(1.0)

    def test_k_out_of_range(self, rng):
        basis = eigendecompose(laplacian(random_graph(rng, n=6, k=2),
                                         "normalized"))
        with pytest.raises(ParameterError):
            alignment_report(basis, np.eye(6), k=7)


class TestSpectralGap:
    def test_two_disconnected_cliques(self):
        clique = np.ones((4, 4)) - np.eye(4)
        W = np.zeros((8, 8))
        W[:4, :4] = clique
        W[4:, 4:] = clique
        basis = eigendecompose(laplacian(SparseGraph.from_weight_matrix(W),
                                         "unnormalized"))
        assert spectral_gap(basis.eigenvalues, 2) == pytest.approx(0.0, abs=1e-12)

    def test_path4_ratio(self):
        basis = eigendecompose(laplacian(
            SparseGraph.from_weight_matrix(path_graph_weights(4)),
            "unnormalized"))
        expected = (2 - 2 * np.cos(np.pi / 4)) / (2 - 2 * np.cos(2 * np.pi / 4))
        assert spectral_gap(basis.eigenvalues, 2) == pytest.approx(expected)
        assert spectral_gap(basis.eigenvalues, 1) == pytest.approx(0.0, abs=1e-12)

    def test_two_blobs_have_small_gap(self, rng):
        data = two_blob_data(rng, per_cluster=25)
        basis = eigendecompose(laplacian(knn_graph(data, "columns", 5),
                                         "normalized"))
        assert spectral_gap(basis.eigenvalues, 2) < 0.1

    def test_zero_denominator_rejected(self):
        with pytest.raises(ParameterError):
            spectral_gap(np.array([0.0, 0.0, 1.0]), 1)
        with pytest.raises(ParameterError):
            spectral_gap(np.array([0.0, 1.0]), 2)


class TestRecoveryBound:
    def test_noiseless_bandlimited_input(self):
        instance = make_lrmg(20, 24, 3, 3, seed=5)
        lhs, rhs, holds = recovery_bound_check(
            instance.Y_star, np.zeros_like(instance.Y_star), instance.Y_star,
            instance.row_basis, instance.col_basis, 3, 3, gamma=1.0, loss_fn=l1)
        assert lhs == pytest.approx(0.0, abs=1e-12)
        assert holds

    def test_zero_matrix_negative_control(self, rng):
        instance = make_lrmg(18, 18, 3, 3, seed=6)
        E = 0.05 * rng.standard_normal(instance.Y_star.shape)
        Y = instance.Y_star + E
        lhs, rhs, _ = recovery_bound_check(
            instance.Y_star, E, np.zeros_like(Y), instance.row_basis,
            instance.col_basis, 3, 3, gamma=1.0, loss_fn=l1)
        assert lhs == pytest.approx(l1(Y))
        assert rhs > 0

    @pytest.mark.parametrize("gamma", [np.nan, np.inf, -1.0])
    def test_bad_gamma_rejected(self, gamma):
        instance = make_lrmg(12, 12, 3, 3, seed=5)
        with pytest.raises(ParameterError):
            recovery_bound_check(
                instance.Y_star, np.zeros_like(instance.Y_star),
                instance.Y_star, instance.row_basis, instance.col_basis, 3, 3,
                gamma=gamma, loss_fn=l1)

    def test_solver_output_satisfies_bound(self):
        instance = make_lrmg(60, 60, 5, 5, seed=11)
        rng = np.random.default_rng(11)
        E = 0.1 * rng.standard_normal((60, 60))
        Y = instance.Y_star + E
        gamma = 1.0
        lam_r = instance.row_basis.eigenvalues
        lam_c = instance.col_basis.eigenvalues
        config = SolverConfig(gamma_r=gamma / lam_r[5], gamma_c=gamma / lam_c[5],
                              loss="l1", max_iters=3000, tol=1e-10)
        result = solve_frpcag(Y, instance.row_laplacian, instance.col_laplacian,
                              config)
        lhs, rhs, holds = recovery_bound_check(
            instance.Y_star, E, result.X, instance.row_basis,
            instance.col_basis, 5, 5, gamma=gamma, loss_fn=l1)
        assert holds, f"lhs={lhs} rhs={rhs}"


class TestSubspaceCoherence:
    def test_rank_one_concentrates_at_origin(self, rng):
        instance = make_lrmg(12, 14, 1, 1, seed=3)
        sigma_val = 2.5
        X = sigma_val * np.outer(instance.row_basis.eigenvectors[:, 0],
                                 instance.col_basis.eigenvectors[:, 0])
        coh_right, coh_left, sigma = subspace_coherence(
            X, instance.row_basis, instance.col_basis)
        assert sigma[0] == pytest.approx(sigma_val)
        assert abs(coh_left[0, 0]) == pytest.approx(sigma_val)
        assert np.abs(coh_left[0, 1:]).max() <= 1e-8
        assert abs(coh_right[0, 0]) == pytest.approx(sigma_val)

    def test_random_matrix_is_unconcentrated(self):
        rng = np.random.default_rng(17)
        instance = make_lrmg(60, 60, 5, 5, seed=17)
        fractions = []
        for _ in range(10):
            X = rng.standard_normal((60, 60))
            coh_right, _, _ = subspace_coherence(X, instance.row_basis,
                                                 instance.col_basis)
            mass = np.sum(coh_right ** 2, axis=0)
            fractions.append(mass[:5].sum() / mass.sum())
        mean_fraction = np.mean(fractions)
        assert 0.5 * (5 / 60) <= mean_fraction <= 1.5 * (5 / 60)

    def test_total_mass_preserved(self, rng):
        instance = make_lrmg(10, 12, 2, 2, seed=9)
        X = rng.standard_normal((10, 12))
        coh_right, _, sigma = subspace_coherence(X, instance.row_basis,
                                                 instance.col_basis)
        assert np.linalg.norm(coh_right) == pytest.approx(np.linalg.norm(sigma))

    def test_zero_matrix_rejected(self, rng):
        instance = make_lrmg(6, 6, 1, 1, seed=2)
        with pytest.raises(DataError):
            subspace_coherence(np.zeros((6, 6)), instance.row_basis,
                               instance.col_basis)


class TestWeightedAlignmentObjective:
    def test_zero_matrix(self, rng):
        instance = make_lrmg(8, 9, 2, 2, seed=4)
        assert weighted_alignment_objective(np.zeros((8, 9)),
                                            instance.row_basis,
                                            instance.col_basis, 1.0, 1.0) == 0.0

    def test_eigenvector_outer_product(self):
        instance = make_lrmg(8, 9, 2, 2, seed=4)
        p = instance.row_basis.eigenvectors[:, 2]
        q = instance.col_basis.eigenvectors[:, 3]
        value = weighted_alignment_objective(np.outer(p, q),
                                             instance.row_basis,
                                             instance.col_basis, 0.7, 1.3)
        expected = (1.3 * instance.col_basis.eigenvalues[3]
                    + 0.7 * instance.row_basis.eigenvalues[2])
        assert value == pytest.approx(expected)

    def test_matches_dirichlet_energies(self, rng):
        instance = make_lrmg(10, 12, 3, 3, seed=8)
        X = rng.standard_normal((10, 12))
        gamma_r, gamma_c = 0.6, 1.9
        value = weighted_alignment_objective(X, instance.row_basis,
                                             instance.col_basis,
                                             gamma_r, gamma_c)
        direct = (gamma_c * dirichlet_energy(instance.col_laplacian, X.T)
                  + gamma_r * dirichlet_energy(instance.row_laplacian, X))
        assert value == pytest.approx(direct, rel=1e-8)


class TestDiagnosticsReport:
    def test_fields_and_gap_ordering(self, rng):
        instance = make_lrmg(14, 18, 3, 3, seed=13)
        X = rng.standard_normal((14, 18))
        report = glr_build_report(X, instance.row_basis, instance.col_basis, 3)
        assert report.singular_values.shape == (14,)
        col_gap, row_gap = report.spectral_gaps
        assert col_gap == pytest.approx(
            spectral_gap(instance.col_basis.eigenvalues, 3))
        assert row_gap == pytest.approx(
            spectral_gap(instance.row_basis.eigenvalues, 3))
        assert report.bound_lhs is None and report.bound_holds is None

    def test_bound_invariant_for_solver_output(self):
        instance = make_lrmg(40, 40, 4, 4, seed=19)
        noise_rng = np.random.default_rng(19)
        E = 0.1 * noise_rng.standard_normal((40, 40))
        Y = instance.Y_star + E
        gamma = 1.0
        config = SolverConfig(
            gamma_r=gamma / instance.row_basis.eigenvalues[4],
            gamma_c=gamma / instance.col_basis.eigenvalues[4],
            loss="l1", max_iters=3000, tol=1e-10)
        result = solve_frpcag(Y, instance.row_laplacian,
                              instance.col_laplacian, config)
        bound = recovery_bound_check(instance.Y_star, E, result.X,
                                     instance.row_basis, instance.col_basis,
                                     4, 4, gamma=gamma, loss_fn=l1)
        report = glr_build_report(result.X, instance.row_basis,
                                  instance.col_basis, 4, bound=bound)
        assert report.bound_holds
        assert report.bound_lhs <= report.bound_rhs * (1 + 1e-3)

    def test_undefined_gap_becomes_none(self, rng):
        # sample graph with two components: the k=1 gap has a zero above it
        W = np.zeros((6, 6))
        W[0, 1] = W[1, 0] = 1.0
        W[2, 3] = W[3, 2] = 1.0
        W[4, 5] = W[5, 4] = 1.0
        basis = eigendecompose(laplacian(SparseGraph.from_weight_matrix(W),
                                         "unnormalized"))
        instance = make_lrmg(6, 6, 1, 1, seed=23)
        report = glr_build_report(rng.standard_normal((6, 6)),
                                  instance.row_basis, basis, 1)
        assert report.spectral_gaps[0] is None


def test_gamma_db_export_uses_20_log10():
    Gamma = np.array([[10.0, 0.0], [-0.1, 1.0]])
    db = gamma_to_db(Gamma)
    assert db[0, 0] == pytest.approx(20.0)
    assert db[1, 1] == pytest.approx(0.0)
    assert db[1, 0] == pytest.approx(-20.0)
    assert db[0, 1] == -200.0  # floored zero
