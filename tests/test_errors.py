"""The parameter rules: every site that states one refuses NaN, +-inf and
a value outside its range, or a name outside its choices, with a
ParameterError that names the parameter and the value given."""

import numpy as np
import pytest

from graphlowrank import (DataMatrix, FilterSpec, ParameterError,
                          SolverConfig, add_noise, eigendecompose, knn_graph,
                          laplacian, loss_value, make_lrmg, make_manifold,
                          recovery_bound_check)
from graphlowrank import cli
from graphlowrank.spectral import prox_filter_curve, step_penalty_curve

DATA = DataMatrix(np.arange(24.0).reshape(4, 6) ** 1.5)
Y = DATA.values
GRID = np.linspace(0.0, 2.0, 5)


def bound_check(gamma):
    instance = make_lrmg(8, 9, 2, 2, seed=3)
    rows = eigendecompose(instance.row_laplacian)
    cols = eigendecompose(instance.col_laplacian)
    Y_star = instance.Y_star
    return recovery_bound_check(Y_star, Y_star, Y_star, rows, cols, 2, 2,
                                gamma, "l2")


def curve(x_max):
    cli._cmd_spectra({"graph": None, "filter_b": 0.4, "filter_gamma": 1.0,
                      "x_max": x_max, "out": "unwritten.csv"})


# (site, name in the message, call with the value, value outside the
# rule: a number out of range, a name outside the choices, or None for a
# number with no bound)
SITES = [
    ("SolverConfig.gamma_r", "gamma_r", lambda v: SolverConfig(gamma_r=v),
     -1.0),
    ("SolverConfig.gamma_c", "gamma_c", lambda v: SolverConfig(gamma_c=v),
     -1.0),
    ("SolverConfig.loss", "loss", lambda v: SolverConfig(loss=v), "l3"),
    ("SolverConfig.tol", "tol", lambda v: SolverConfig(tol=v), 0.0),
    ("SolverConfig.filtered_side", "filtered_side",
     lambda v: SolverConfig(filtered_side=v), "diagonal"),
    ("loss_value.loss", "loss", lambda v: loss_value(Y, Y, v), "l3"),
    ("FilterSpec.b", "b", lambda v: FilterSpec("prox_fb", b=v), 0.0),
    ("FilterSpec.family", "filter family", lambda v: FilterSpec(v, b=0.5),
     "identity"),
    ("step_penalty_curve.b", "b", lambda v: step_penalty_curve(GRID, v),
     -1.0),
    ("prox_filter_curve.b", "b", lambda v: prox_filter_curve(GRID, v, 1.0),
     0.0),
    ("prox_filter_curve.gamma", "gamma",
     lambda v: prox_filter_curve(GRID, 0.5, v), -1.0),
    ("DataMatrix.from_csv.orientation", "orientation",
     lambda v: DataMatrix.from_csv("unread.csv", v), "diagonal"),
    ("knn_graph.axis", "axis", lambda v: knn_graph(DATA, v, 2), "diagonal"),
    ("knn_graph.weighting", "weighting",
     lambda v: knn_graph(DATA, "rows", 2, weighting=v), "cosine"),
    ("knn_graph.metric", "metric",
     lambda v: knn_graph(DATA, "rows", 2, metric=v), "chebyshev"),
    ("knn_graph.sigma", "sigma",
     lambda v: knn_graph(DATA, "rows", 2, sigma=v), 0.0),
    ("laplacian.kind", "Laplacian kind",
     lambda v: laplacian(knn_graph(DATA, "rows", 2), v), "weird"),
    ("add_noise.sigma", "sigma", lambda v: add_noise(Y, "gaussian", 0, v),
     -1.0),
    ("add_noise.sparse.fraction", "fraction",
     lambda v: add_noise(Y, "sparse", 0, fraction=v), 1.5),
    ("add_noise.column_outliers.fraction", "fraction",
     lambda v: add_noise(Y, "column_outliers", 0, fraction=v), -0.5),
    ("add_noise.amplitude", "amplitude",
     lambda v: add_noise(Y, "sparse", 0, fraction=0.5, amplitude=v), None),
    ("add_noise.model", "noise model", lambda v: add_noise(Y, v, 0), "salt"),
    ("make_manifold.noise_sigma", "noise_sigma",
     lambda v: make_manifold("circle2d", 20, noise_sigma=v), -1.0),
    ("make_manifold.noise_dims", "noise_dims",
     lambda v: make_manifold("circle2d", 20, noise_dims=v), "inner"),
    ("make_manifold.kind", "manifold kind", lambda v: make_manifold(v, 20),
     "torus"),
    ("recovery_bound_check.gamma", "gamma", bound_check, -1.0),
    ("spectra.x_max", "x_max", curve, -1.0),
]

CASES = [pytest.param(name, call, value, id=f"{site}-{value}")
         for site, name, call, outside in SITES
         for value in (np.nan, np.inf, -np.inf, outside)
         if value is not None]


@pytest.mark.parametrize("name, call, value", CASES)
def test_refusal_names_parameter_and_value(name, call, value):
    given = repr(value) if isinstance(value, str) else str(value)
    with pytest.raises(ParameterError) as refused:
        call(value)
    message = str(refused.value)
    assert name in message and given in message, message
    if isinstance(value, str):  # a name outside the choices lists them
        assert "; expected one of " in message, message


@pytest.mark.parametrize("call", [
    lambda: make_manifold("circle2d", 12.5),
    lambda: make_lrmg(20.5, 30, 3, 3, 0),
    lambda: make_lrmg(20, 30, 3.0, 3, 0),
    lambda: knn_graph(DATA, "columns", True),
], ids=["manifold-n-float", "lrmg-p-float", "lrmg-k_r-float", "knn-k-bool"])
def test_non_integer_size_is_parameter_error(call):
    # these used to end in a TypeError from numpy
    with pytest.raises(ParameterError, match="must be an integer"):
        call()


def test_numpy_integer_size_is_accepted():
    graph = knn_graph(DATA, "columns", np.int64(2))
    assert graph.num_vertices == 6
    assert make_manifold("circle2d", np.int32(12)).values.shape == (2, 12)
