"""Low-rank matrix denoising via dual-graph spectral regularization."""

__version__ = "0.2.0"

from .diagnostics import (AlignmentReport, DiagnosticsReport, alignment_report,
                          build_diagnostics_report, covariance,
                          recovery_bound_check, spectral_gap,
                          subspace_coherence, weighted_alignment_objective)
from .errors import (DataError, DegenerateGraphError, GraphLowRankError,
                     NumericalError, ParameterError)
from .graph import (DataMatrix, LaplacianMatrix, SparseGraph, graph_divergence,
                    graph_gradient, knn_graph, laplacian, load_edge_list,
                    load_matrix_csv, num_connected_components, save_edge_list,
                    save_matrix_csv)
from .solvers import (SolverConfig, SolverResult, frpcag_gradient,
                      lipschitz_bound, loss_value, prox_loss, solve_frpcag,
                      solve_gfrpcag, tikhonov_closed_form)
from .spectral import (EigenBasis, FilterSpec, apply_filter_chebyshev,
                       apply_filter_exact, dirichlet_energy, eigendecompose,
                       eval_filter, gft, igft)
from .synth import LrmgInstance, add_noise, make_lrmg, make_manifold

__all__ = [
    "AlignmentReport", "DataError", "DataMatrix", "DegenerateGraphError",
    "DiagnosticsReport", "EigenBasis", "FilterSpec", "GraphLowRankError",
    "LaplacianMatrix", "LrmgInstance", "NumericalError", "ParameterError",
    "SolverConfig", "SolverResult", "SparseGraph", "add_noise",
    "alignment_report", "apply_filter_chebyshev", "apply_filter_exact",
    "build_diagnostics_report", "covariance", "dirichlet_energy",
    "eigendecompose", "eval_filter",
    "frpcag_gradient", "gft", "graph_divergence", "graph_gradient", "igft",
    "knn_graph", "laplacian", "lipschitz_bound", "load_edge_list",
    "load_matrix_csv", "loss_value", "make_lrmg", "make_manifold",
    "num_connected_components", "prox_loss", "recovery_bound_check",
    "save_edge_list", "save_matrix_csv", "solve_frpcag", "solve_gfrpcag",
    "spectral_gap", "subspace_coherence", "tikhonov_closed_form",
]
