"""Low-rank matrix denoising via dual-graph spectral regularization."""

__version__ = "0.9.0"

from .diagnostics import (AlignmentReport, alignment_report, covariance,
                          recovery_bound_check, spectral_gap,
                          subspace_coherence)
from .errors import (DataError, GraphLowRankError, NumericalError,
                     ParameterError)
from .graph import (DataMatrix, LaplacianMatrix, SparseGraph, knn_graph,
                    laplacian, load_edge_list, load_matrix_csv,
                    save_edge_list, save_matrix_csv)
from .solvers import (SolverConfig, SolverResult, frpcag_gradient,
                      lipschitz_bound, loss_value, solve_frpcag,
                      solve_gfrpcag, tikhonov_closed_form)
from .spectral import EigenBasis, FilterSpec, eigendecompose
from .synth import LrmgInstance, add_noise, make_lrmg, make_manifold

__all__ = [
    "AlignmentReport", "DataError", "DataMatrix", "EigenBasis", "FilterSpec",
    "GraphLowRankError", "LaplacianMatrix", "LrmgInstance", "NumericalError",
    "ParameterError", "SolverConfig", "SolverResult", "SparseGraph",
    "add_noise", "alignment_report", "covariance", "eigendecompose",
    "frpcag_gradient", "knn_graph", "laplacian",
    "lipschitz_bound", "load_edge_list", "load_matrix_csv", "loss_value",
    "make_lrmg", "make_manifold", "recovery_bound_check",
    "save_edge_list", "save_matrix_csv", "solve_frpcag", "solve_gfrpcag",
    "spectral_gap", "subspace_coherence", "tikhonov_closed_form",
]
