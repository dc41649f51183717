"""Acceptance suite: every criterion prints one pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute. Criterion 7 needs user-supplied datasets (see README);
it is skipped, not failed, when they are absent.
"""

import os
import time

import numpy as np
import pytest

import graphlowrank as glr
from graphlowrank.spectral import (FilterSpec, eigendecompose,
                                   prox_filter_curve, step_penalty_curve)

from conftest import lrmg_bases


def _report(number, name, ok, details=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {number} ({name}): {status} {details}")
    assert ok, f"criterion {number} ({name}) failed: {details}"


# shared 300 x 300 rank-10 study (criteria 4 and 8)
@pytest.fixture(scope="module")
def rank10_study():
    instance = glr.make_lrmg(300, 300, 10, 10, seed=81)
    Y = glr.add_noise(instance.Y_star, "gaussian", seed=82, sigma=0.015)
    started = time.perf_counter()
    solutions = {}
    for gamma in (0.01, 1.0, 100.0):
        config = glr.SolverConfig(gamma_r=gamma, gamma_c=gamma, loss="l2",
                                  max_iters=2000, tol=1e-12)
        solutions[gamma] = glr.solve_frpcag(Y, instance.row_laplacian,
                                            instance.col_laplacian, config).X
    elapsed = time.perf_counter() - started
    return instance, Y, solutions, elapsed


def test_criterion_1_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(99)
    worst = 0.0
    for trial in range(20):
        p = int(rng.integers(15, 41))
        n = int(rng.integers(15, 41))
        Y = rng.standard_normal((p, n))
        data = glr.DataMatrix(Y)
        Lr = glr.laplacian(glr.knn_graph(data, "rows", min(4, p - 1)))
        Lc = glr.laplacian(glr.knn_graph(data, "columns", min(4, n - 1)))
        gamma = (0.1, 1.0, 10.0)[trial % 3]
        # the closed form is the exact minimizer only with one graph active
        # at a time, so each instance regularizes a single side; both-sided
        # runs are covered by the sequential composition below
        gamma_r, gamma_c = (gamma, 0.0) if trial % 2 == 0 else (0.0, gamma)
        config = glr.SolverConfig(gamma_r=gamma_r, gamma_c=gamma_c, loss="l2",
                                  max_iters=6000, tol=1e-14)
        result = glr.solve_frpcag(Y, Lr, Lc, config)
        oracle = glr.tikhonov_closed_form(Y, Lr, Lc, gamma_r, gamma_c)
        worst = max(worst, np.linalg.norm(result.X - oracle)
                    / np.linalg.norm(oracle))

    # both-sided coverage: composing the two single-graph solves reproduces
    # the product closed form
    Y = np.random.default_rng(7).standard_normal((20, 30))
    data = glr.DataMatrix(Y)
    Lr = glr.laplacian(glr.knn_graph(data, "rows", 4))
    Lc = glr.laplacian(glr.knn_graph(data, "columns", 4))
    first = glr.solve_frpcag(Y, Lr, Lc,
                             glr.SolverConfig(gamma_r=0.5, loss="l2",
                                              max_iters=6000, tol=1e-14))
    second = glr.solve_frpcag(first.X, Lr, Lc,
                              glr.SolverConfig(gamma_c=0.5, loss="l2",
                                               max_iters=6000, tol=1e-14))
    oracle = glr.tikhonov_closed_form(Y, Lr, Lc, 0.5, 0.5)
    seq_rel = np.linalg.norm(second.X - oracle) / np.linalg.norm(oracle)
    worst = max(worst, seq_rel)
    elapsed = time.perf_counter() - started
    _report(1, "oracle equivalence",
            worst <= 1e-4 and elapsed < 10.0,
            f"worst rel err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_gradient_finite_differences():
    rng = np.random.default_rng(12)
    h = 1e-5
    worst_excess = -np.inf
    for _ in range(10):
        Y = rng.standard_normal((6, 8))
        data = glr.DataMatrix(Y)
        Lr = glr.laplacian(glr.knn_graph(data, "rows", 2))
        Lc = glr.laplacian(glr.knn_graph(data, "columns", 3))
        gamma_r, gamma_c = rng.uniform(0.1, 3.0, size=2)
        X = rng.standard_normal((6, 8))
        grad = glr.frpcag_gradient(X, Lr, Lc, gamma_r, gamma_c)

        def smoothness(Z):
            # gamma_c tr(Z Lc Z^T) + gamma_r tr(Z^T Lr Z)
            return (gamma_c * np.sum(Z.T * (Lc.matrix @ Z.T))
                    + gamma_r * np.sum(Z * (Lr.matrix @ Z)))

        fd = np.zeros_like(X)
        for i in range(6):
            for j in range(8):
                up, down = X.copy(), X.copy()
                up[i, j] += h
                down[i, j] -= h
                fd[i, j] = (smoothness(up) - smoothness(down)) / (2 * h)
        tol = 1e-5 * (1.0 + np.abs(grad).max())
        worst_excess = max(worst_excess, np.abs(grad - fd).max() - tol)
    _report(2, "gradient vs finite differences", worst_excess <= 0.0,
            f"worst error minus tolerance {worst_excess:.2e}")


def test_criterion_3_recovery_bound_100_instances():
    gammas = (0.1, 1.0, 10.0)
    failures = []
    worst_margin = np.inf
    for trial in range(100):
        seed = 1000 + trial
        instance = glr.make_lrmg(60, 60, 5, 5, seed=seed)
        row_basis, col_basis = lrmg_bases(instance)
        noise_rng = np.random.default_rng(seed + 50_000)
        Y = instance.Y_star + 0.1 * noise_rng.standard_normal((60, 60))
        gamma = gammas[trial % 3]
        lam_r = row_basis.eigenvalues
        lam_c = col_basis.eigenvalues
        config = glr.SolverConfig(gamma_r=gamma / lam_r[5],
                                  gamma_c=gamma / lam_c[5], loss="l1",
                                  max_iters=3000, tol=1e-10)
        result = glr.solve_frpcag(Y, instance.row_laplacian,
                                  instance.col_laplacian, config)
        lhs, rhs, holds = glr.recovery_bound_check(
            instance.Y_star, Y, result.X, row_basis, col_basis, 5, 5,
            gamma=gamma, loss="l1")
        if not holds:
            failures.append((seed, gamma, lhs, rhs))
        if lhs > 0:
            worst_margin = min(worst_margin, rhs / lhs)
    _report(3, "recovery bound on 100 instances", not failures,
            f"failures={len(failures)}, worst rhs/lhs margin "
            f"{worst_margin:.3f}")


def test_criterion_4_synthetic_rank10_reproduction(rank10_study):
    instance, _, solutions, elapsed = rank10_study
    Y0 = instance.Y_star
    errors = {gamma: np.linalg.norm(Y0 - X) / np.linalg.norm(Y0)
              for gamma, X in solutions.items()}
    sigma = np.linalg.svd(solutions[1.0], compute_uv=False)
    sigma_ratio = sigma[10] / sigma[0]
    mid_wins = errors[1.0] < errors[0.01] and errors[1.0] < errors[100.0]
    ok = sigma_ratio <= 0.05 and mid_wins and elapsed < 60.0
    _report(4, "rank-10 synthetic reproduction", ok,
            f"sigma11/sigma1={sigma_ratio:.4f}, errors="
            f"{{0.01: {errors[0.01]:.3f}, 1: {errors[1.0]:.3f}, "
            f"100: {errors[100.0]:.3f}}}, {elapsed:.1f}s")


def test_criterion_5_filter_identities():
    checks = []
    for b in (0.1, 0.4, 2.0):
        checks.append(step_penalty_curve(b, b).tolist() == [1.0])
        for gamma in (0.3, 1.0, 5.0):
            checks.append(prox_filter_curve(0.0, b, gamma).tolist() == [1.0])
        checks.append(prox_filter_curve(b, b, 1.0).tolist() == [0.5])
    _report(5, "filter identities", all(checks),
            f"{sum(checks)} of {len(checks)} identities hold")


def test_criterion_6_anti_shrinking_on_two_clusters():
    rng = np.random.default_rng(5)
    per = 60
    a = rng.normal(0.0, 0.5, size=(2, per))
    b = rng.normal(0.0, 0.5, size=(2, per))
    b[0] += 3.0
    Y = np.hstack([a, b])
    data = glr.DataMatrix(Y)
    Lc = glr.laplacian(glr.knn_graph(data, "columns", 8))
    Lr = glr.laplacian(glr.knn_graph(data, "rows", 1))
    col_basis = eigendecompose(Lc)
    lam = col_basis.eigenvalues
    k = 2
    assert lam[2] > 3.0 * lam[1], "toy construction lost its spectral gap"
    b_filter = lam[2] / 2.0

    config = glr.SolverConfig(gamma_c=2.0, loss="l2",
                              filter_spec=FilterSpec("prox_fb", b=b_filter),
                              max_iters=8000, tol=1e-16)
    filtered = glr.solve_gfrpcag(Y, Lr, Lc, config)
    fid_filtered = np.linalg.norm(filtered.X - Y)

    Q_low = col_basis.eigenvectors[:, :k]
    Q_high = col_basis.eigenvectors[:, k:]

    def energies(X):
        return (np.linalg.norm(X @ Q_high) / np.linalg.norm(X),
                np.linalg.norm(X @ Q_low))

    # match the plain solver's data fidelity by bisecting its weight
    lo, hi = 1e-4, 1e6
    for _ in range(200):
        mid = np.sqrt(lo * hi)
        fid = np.linalg.norm(glr.tikhonov_closed_form(Y, Lr, Lc, 0.0, mid) - Y)
        if fid < fid_filtered:
            lo = mid
        else:
            hi = mid
    gamma_matched = np.sqrt(lo * hi)
    plain = glr.solve_frpcag(Y, Lr, Lc,
                             glr.SolverConfig(gamma_c=gamma_matched, loss="l2",
                                              max_iters=20000, tol=1e-16))
    fid_plain = np.linalg.norm(plain.X - Y)

    out_filtered, in_filtered = energies(filtered.X)
    out_plain, in_plain = energies(plain.X)
    fidelity_matched = abs(fid_plain - fid_filtered) <= 0.05 * fid_filtered
    ok = (fidelity_matched and out_filtered <= out_plain
          and in_filtered >= 0.95 * in_plain)
    _report(6, "anti-shrinking at matched fidelity", ok,
            f"out-of-band {out_filtered:.2e} vs {out_plain:.2e}, "
            f"in-band retention {in_filtered / in_plain:.3f}, "
            f"fidelity {fid_filtered:.3f} vs {fid_plain:.3f}")


def _usps_alignment(csv_path, k):
    data = glr.DataMatrix.from_csv(csv_path, "rows")
    feature_graph = glr.knn_graph(data, "rows", 10)
    basis = eigendecompose(glr.laplacian(feature_graph, "normalized"))
    C = glr.covariance(data.values)
    return glr.alignment_report(basis, C, k)


def test_criterion_7_usps_alignment_numbers():
    digit3 = os.environ.get("GRAPHLOWRANK_USPS_DIGIT3")
    full = os.environ.get("GRAPHLOWRANK_USPS_FULL")
    if not digit3:
        print("[acceptance] criterion 7 (usps alignment): SKIP "
              "(set GRAPHLOWRANK_USPS_DIGIT3 to a features-by-samples CSV)")
        pytest.skip("USPS digit-3 dataset not supplied")
    report = _usps_alignment(digit3, k=10)
    ok = (abs(report.alignment_order - 0.97) <= 0.02
          and abs(report.rank_k_alignment - 0.99) <= 0.01)
    details = (f"digit-3 s={report.alignment_order:.3f}, "
               f"rank-10 s={report.rank_k_alignment:.3f}")
    if full:
        full_report = _usps_alignment(full, k=10)
        ok = ok and abs(full_report.alignment_order - 0.82) <= 0.03
        details += f", full s={full_report.alignment_order:.3f}"
    _report(7, "usps alignment", ok, details)


def test_criterion_8_coherence_concentration(rank10_study):
    instance, _, solutions, _ = rank10_study
    row_basis, col_basis = lrmg_bases(instance)
    coh_right, _, _ = glr.subspace_coherence(solutions[1.0], row_basis,
                                             col_basis)
    mass = np.sum(coh_right ** 2, axis=0)
    fraction = mass[:10].sum() / mass.sum()
    _report(8, "coherence concentration", fraction >= 0.90,
            f"first-10-column mass fraction {fraction:.3f}")
