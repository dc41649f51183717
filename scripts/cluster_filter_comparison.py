#!/usr/bin/env python3
"""Shrinking comparison: plain smoothing vs a step filter inside a gap.

Builds a two-cluster point cloud whose sample graph has a clear spectral
gap after the second eigenvalue, denoises it once with the plain
dual-graph solver and once with the filtered solver (bandwidth placed
inside the gap), with the plain solver's weight bisected until the data
fidelities match. Reports how much out-of-band energy each solution keeps
and how much in-band energy it retains; the step filter removes the high
band without shrinking the band that carries the clusters.
"""

import argparse
from pathlib import Path

import numpy as np

import graphlowrank as glr
from graphlowrank.spectral import FilterSpec, eigendecompose


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--per-cluster", type=int, default=60)
    parser.add_argument("--separation", type=float, default=3.0)
    parser.add_argument("--spread", type=float, default=0.5)
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--out-dir", default="out/cluster_filter")
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    a = rng.normal(0.0, args.spread, size=(2, args.per_cluster))
    b = rng.normal(0.0, args.spread, size=(2, args.per_cluster))
    b[0] += args.separation
    Y = np.hstack([a, b])
    data = glr.DataMatrix(Y)

    Lc = glr.laplacian(glr.knn_graph(data, "columns", 8))
    Lr = glr.laplacian(glr.knn_graph(data, "rows", 1))
    basis = eigendecompose(Lc)
    lam = basis.eigenvalues
    print(f"sample-graph eigenvalues: {np.round(lam[:5], 5)} "
          f"(gap ratio {lam[1] / lam[2]:.4f})")
    bandwidth = lam[2] / 2.0

    config = glr.SolverConfig(gamma_c=2.0, loss="l2",
                              filter_spec=FilterSpec("prox_fb", b=bandwidth),
                              max_iters=8000, tol=1e-16)
    filtered = glr.solve_gfrpcag(Y, Lr, Lc, config)
    fid_filtered = np.linalg.norm(filtered.X - Y)

    lo, hi = 1e-4, 1e6
    for _ in range(200):
        mid = np.sqrt(lo * hi)
        fid = np.linalg.norm(glr.tikhonov_closed_form(Y, Lr, Lc, 0.0, mid) - Y)
        lo, hi = (mid, hi) if fid < fid_filtered else (lo, mid)
    gamma_matched = np.sqrt(lo * hi)
    plain = glr.solve_frpcag(Y, Lr, Lc,
                             glr.SolverConfig(gamma_c=gamma_matched, loss="l2",
                                              max_iters=20000, tol=1e-16))

    Q_low, Q_high = basis.eigenvectors[:, :2], basis.eigenvectors[:, 2:]
    for name, X in (("filtered", filtered.X), ("plain", plain.X)):
        out_ratio = np.linalg.norm(X @ Q_high) / np.linalg.norm(X)
        in_energy = np.linalg.norm(X @ Q_low)
        fid = np.linalg.norm(X - Y)
        print(f"{name:<9} fidelity={fid:.4f} out-of-band={out_ratio:.3e} "
              f"in-band={in_energy:.4f}")

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    glr.save_matrix_csv(out_dir / "noisy.csv", Y)
    glr.save_matrix_csv(out_dir / "filtered.csv", filtered.X)
    glr.save_matrix_csv(out_dir / "plain.csv", plain.X)
    print(f"wrote {out_dir}/{{noisy,filtered,plain}}.csv "
          f"(matched gamma {gamma_matched:.2f})")


if __name__ == "__main__":
    main()
