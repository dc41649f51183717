import numpy as np
import pytest

from graphlowrank import (DataError, EigenBasis, ParameterError, SolverConfig,
                          SparseGraph, alignment_report, covariance,
                          eigendecompose, knn_graph, laplacian, make_lrmg,
                          recovery_bound_check, solve_frpcag, spectral_gap,
                          subspace_coherence)
from graphlowrank.diagnostics import check_covariance_range, gamma_to_db

from conftest import (lrmg_bases, path_graph_weights, random_graph,
                      two_blob_data)


def l1(residual):
    return float(np.abs(residual).sum())


class TestCovariance:
    def test_identical_columns_center_to_zero(self):
        Y = np.tile(np.array([[1.0], [2.0], [-0.5]]), (1, 6))
        assert np.allclose(covariance(Y), 0.0)

    def test_hand_computed_2x2(self):
        Y = np.array([[1.0, -1.0], [1.0, -1.0]])
        assert np.allclose(covariance(Y), [[1.0, 1.0], [1.0, 1.0]])

    def test_positive_semidefinite(self, rng):
        Y = rng.standard_normal((10, 25))
        for matrix in (Y, Y.T):
            eigs = np.linalg.eigvalsh(covariance(matrix))
            assert eigs.min() >= -1e-10

    def test_columns_axis_shape(self, rng):
        Y = rng.standard_normal((7, 12))
        assert covariance(Y.T).shape == (12, 12)

    @pytest.mark.parametrize("rows", [15, 16])
    def test_range_check_at_the_trace_bound(self, rows):
        # each row (a, -a) has variance a^2 = 2^1020 and its squares sum to
        # 2^1021; C is a^2 everywhere, so its norm, Gamma's largest entry,
        # is its trace rows * 2^1020, which overflows from 16 rows on
        Y = np.tile([2.0 ** 510, -2.0 ** 510], (rows, 1))
        if rows == 15:
            check_covariance_range(Y)
            assert np.linalg.eigvalsh(covariance(Y)).max() < np.inf
        else:
            with pytest.raises(DataError, match="overflows"):
                check_covariance_range(Y)

    def test_range_check_needs_two_samples(self):
        with pytest.raises(DataError, match="at least 2 samples"):
            check_covariance_range(np.arange(3.0)[:, None])

    @pytest.mark.parametrize("Y", [
        pytest.param(np.zeros((3, 4)), id="zeros"),
        pytest.param(np.tile([[1.0], [2.0], [-0.5]], (1, 4)),
                     id="constant-rows"),
        # the mean of three 0.1s rounds, so the centred rows are not zero
        # although each row is constant
        pytest.param(np.full((2, 3), 0.1), id="rounding-mean"),
    ])
    def test_range_check_refuses_constant_rows(self, Y):
        with pytest.raises(DataError, match="covariance matrix is zero"):
            check_covariance_range(Y)

    def test_single_vector_rejected(self):
        # one sample is the input's shape, a data error
        with pytest.raises(DataError):
            covariance(np.ones((3, 1)))
        with pytest.raises(DataError):
            covariance(np.ones((1, 3)).T)
        with pytest.raises(DataError):
            covariance(np.ones(3))


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

    @pytest.mark.parametrize("scale", [2.0 ** -600, 2.0 ** 600],
                             ids=["tiny", "huge"])
    def test_orders_are_scale_free(self, rng, scale):
        # the squares of the scaled Gamma's entries underflow or overflow;
        # scaled by a power of two, the orders keep their bits
        basis = eigendecompose(laplacian(random_graph(rng, n=10, k=3),
                                         "normalized"))
        A = rng.standard_normal((10, 10))
        C = A @ A.T
        report = alignment_report(basis, C, k=3)
        scaled = alignment_report(basis, scale * C, k=3)
        assert 0.0 < report.alignment_order < 1.0
        assert scaled.alignment_order == report.alignment_order
        assert scaled.rank_k_alignment == report.rank_k_alignment

    def test_k_out_of_range(self, rng):
        basis = eigendecompose(laplacian(random_graph(rng, n=6, k=2),
                                         "normalized"))
        with pytest.raises(ParameterError):
            alignment_report(basis, np.eye(6), k=7)

    @pytest.mark.parametrize("C", [np.eye(5), np.zeros((6, 6))],
                             ids=["mis-sized", "zero"])
    def test_bad_covariance_rejected(self, rng, C):
        basis = eigendecompose(laplacian(random_graph(rng, n=6, k=2),
                                         "normalized"))
        with pytest.raises(DataError):
            alignment_report(basis, C, k=2)


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
        row_basis, col_basis = lrmg_bases(instance)
        lhs, rhs, holds = recovery_bound_check(
            instance.Y_star, instance.Y_star, instance.Y_star,
            row_basis, col_basis, 3, 3, gamma=1.0, loss="l1")
        assert lhs == pytest.approx(0.0, abs=1e-12)
        assert holds

    def test_zero_matrix_negative_control(self, rng):
        instance = make_lrmg(18, 18, 3, 3, seed=6)
        row_basis, col_basis = lrmg_bases(instance)
        Y = instance.Y_star + 0.05 * rng.standard_normal(instance.Y_star.shape)
        lhs, rhs, _ = recovery_bound_check(
            instance.Y_star, Y, np.zeros_like(Y), row_basis, col_basis, 3,
            3, gamma=1.0, loss="l1")
        assert lhs == pytest.approx(l1(Y))
        assert rhs > 0

    @pytest.mark.parametrize("gamma", [np.nan, np.inf, -1.0])
    def test_bad_gamma_rejected(self, gamma):
        instance = make_lrmg(12, 12, 3, 3, seed=5)
        row_basis, col_basis = lrmg_bases(instance)
        with pytest.raises(ParameterError):
            recovery_bound_check(
                instance.Y_star, instance.Y_star, instance.Y_star,
                row_basis, col_basis, 3, 3, gamma=gamma, loss="l1")

    @pytest.mark.parametrize("which", ["Y", "X_star"])
    @pytest.mark.parametrize("shape", [(1, 24), (20, 25), (24, 20)])
    def test_shape_other_than_y_star_rejected(self, which, shape):
        instance = make_lrmg(20, 24, 3, 3, seed=5)
        row_basis, col_basis = lrmg_bases(instance)
        matrices = {"Y": instance.Y_star, "X_star": instance.Y_star,
                    which: np.zeros(shape)}
        with pytest.raises(DataError, match=f"^{which} is"):
            recovery_bound_check(
                instance.Y_star, matrices["Y"], matrices["X_star"],
                row_basis, col_basis, 3, 3, gamma=1.0, loss="l1")

    @pytest.mark.parametrize("which", ["row_basis", "col_basis"])
    def test_basis_of_another_size_rejected(self, which):
        instance = make_lrmg(20, 24, 3, 3, seed=5)
        row_basis, col_basis = lrmg_bases(instance)
        bases = {"row_basis": row_basis, "col_basis": col_basis}
        bases[which] = col_basis if which == "row_basis" else row_basis
        with pytest.raises(DataError):
            recovery_bound_check(
                instance.Y_star, instance.Y_star, instance.Y_star,
                bases["row_basis"], bases["col_basis"], 3, 3, gamma=1.0,
                loss="l1")

    # the weights gamma / lambda_{k+1} need a (k+1)-th eigenvalue above 0
    @pytest.mark.parametrize("k_r, zero_rows", [(0, False), (20, False),
                                                (3, True)])
    def test_no_gap_at_k_rejected(self, k_r, zero_rows):
        instance = make_lrmg(20, 24, 3, 3, seed=5)
        row_basis, col_basis = lrmg_bases(instance)
        if zero_rows:
            row_basis = EigenBasis(np.zeros(20), row_basis.eigenvectors)
        with pytest.raises(ParameterError):
            recovery_bound_check(
                instance.Y_star, instance.Y_star, instance.Y_star,
                row_basis, col_basis, k_r, 3, gamma=1.0, loss="l1")

    def test_solver_output_satisfies_bound(self):
        instance = make_lrmg(60, 60, 5, 5, seed=11)
        row_basis, col_basis = lrmg_bases(instance)
        rng = np.random.default_rng(11)
        Y = instance.Y_star + 0.1 * rng.standard_normal((60, 60))
        gamma = 1.0
        lam_r = row_basis.eigenvalues
        lam_c = col_basis.eigenvalues
        config = SolverConfig(gamma_r=gamma / lam_r[5], gamma_c=gamma / lam_c[5],
                              loss="l1", max_iters=3000, tol=1e-10)
        result = solve_frpcag(Y, instance.row_laplacian, instance.col_laplacian,
                              config)
        lhs, rhs, holds = recovery_bound_check(
            instance.Y_star, Y, result.X, row_basis, col_basis, 5, 5,
            gamma=gamma, loss="l1")
        assert holds, f"lhs={lhs} rhs={rhs}"


class TestSubspaceCoherence:
    def test_rank_one_concentrates_at_origin(self, rng):
        instance = make_lrmg(12, 14, 1, 1, seed=3)
        row_basis, col_basis = lrmg_bases(instance)
        sigma_val = 2.5
        X = sigma_val * np.outer(row_basis.eigenvectors[:, 0],
                                 col_basis.eigenvectors[:, 0])
        coh_right, coh_left, sigma = subspace_coherence(
            X, row_basis, col_basis)
        assert sigma[0] == pytest.approx(sigma_val)
        assert abs(coh_left[0, 0]) == pytest.approx(sigma_val)
        assert np.abs(coh_left[0, 1:]).max() <= 1e-8
        assert abs(coh_right[0, 0]) == pytest.approx(sigma_val)

    def test_random_matrix_is_unconcentrated(self):
        rng = np.random.default_rng(17)
        instance = make_lrmg(60, 60, 5, 5, seed=17)
        row_basis, col_basis = lrmg_bases(instance)
        fractions = []
        for _ in range(10):
            X = rng.standard_normal((60, 60))
            coh_right, _, _ = subspace_coherence(X, row_basis, col_basis)
            mass = np.sum(coh_right ** 2, axis=0)
            fractions.append(mass[:5].sum() / mass.sum())
        mean_fraction = np.mean(fractions)
        assert 0.5 * (5 / 60) <= mean_fraction <= 1.5 * (5 / 60)

    def test_total_mass_preserved(self, rng):
        instance = make_lrmg(10, 12, 2, 2, seed=9)
        row_basis, col_basis = lrmg_bases(instance)
        X = rng.standard_normal((10, 12))
        coh_right, _, sigma = subspace_coherence(X, row_basis, col_basis)
        assert np.linalg.norm(coh_right) == pytest.approx(np.linalg.norm(sigma))

    def test_zero_matrix_rejected(self, rng):
        instance = make_lrmg(6, 6, 1, 1, seed=2)
        row_basis, col_basis = lrmg_bases(instance)
        with pytest.raises(DataError):
            subspace_coherence(np.zeros((6, 6)), row_basis, col_basis)


class TestDiagnosticsReport:
    def test_bound_invariant_for_solver_output(self):
        instance = make_lrmg(40, 40, 4, 4, seed=19)
        row_basis, col_basis = lrmg_bases(instance)
        noise_rng = np.random.default_rng(19)
        Y = instance.Y_star + 0.1 * noise_rng.standard_normal((40, 40))
        gamma = 1.0
        config = SolverConfig(
            gamma_r=gamma / row_basis.eigenvalues[4],
            gamma_c=gamma / col_basis.eigenvalues[4],
            loss="l1", max_iters=3000, tol=1e-10)
        result = solve_frpcag(Y, instance.row_laplacian,
                              instance.col_laplacian, config)
        lhs, rhs, holds = recovery_bound_check(
            instance.Y_star, Y, result.X, row_basis, col_basis, 4, 4,
            gamma=gamma, loss="l1")
        assert holds
        assert lhs <= rhs * (1 + 1e-3)


def test_gamma_db_export_uses_20_log10():
    Gamma = np.array([[10.0, 0.0], [-0.1, 1.0]])
    db = gamma_to_db(Gamma)
    assert db[0, 0] == pytest.approx(20.0)
    assert db[1, 1] == pytest.approx(0.0)
    assert db[1, 0] == pytest.approx(-20.0)
    assert db[0, 1] == -200.0  # floored zero
