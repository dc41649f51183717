"""Command-line interface: build graphs, run solvers, emit reports.

Each command declares its parameters once, in a table that generates its
flags and checks its ``--config`` values: a config value must pass the same
converter and choices as the flag, and a config key that names no parameter
is a usage error. Flags win over config values, which win over defaults.
Every command writes one JSON manifest with the resolved parameters, the
seed, the tool version and the wall time of the whole command; re-running a
deterministic command with ``--config manifest.json`` reproduces its outputs
byte for byte. Exit codes: 0 success, 2 usage error, 3 data error, 4
numerical failure. Hitting the iteration cap is not a failure; it is
reported in the run report with converged=false.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from . import diagnostics as diag
from . import graph as graphmod
from . import solvers, spectral, synth
from .errors import (DataError, DegenerateGraphError, GraphLowRankError,
                     NumericalError, ParameterError)

_REQUIRED = object()  # default of a parameter that has none

# parameters naming input files, recorded under "inputs" in the manifest
_INPUT_FILES = ("matrix", "row_graph", "col_graph", "ystar", "noisy", "graph")


def _int(value):
    """An integer from a flag string or a JSON number with no fraction."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def _float(value):
    """A finite float from a flag string or a JSON number; NaN and +-inf
    are usage errors."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{value!r} is not finite")
    return value


def _sigma(value):
    return value if value == "auto" else _float(value)


def _flag(name):
    return "--" + name.replace("_", "-")


def _load_config(path):
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot read config {path}: {exc}")
    if not isinstance(raw, dict):
        raise DataError(f"config {path} must hold a JSON object")
    params = raw.get("params", raw)
    if not isinstance(params, dict):
        raise DataError(f"config {path}: 'params' must be an object")
    return params


def _resolve(table, flags, config):
    """Typed parameters from flags, then config values, then defaults.

    A value given either way passes through the parameter's converter and
    choices; a null config value counts as not given.
    """
    unknown = sorted(set(config) - {row[0] for row in table})
    if unknown:
        raise ParameterError(f"unknown config key(s): {', '.join(unknown)}")
    params = {}
    for name, convert, default, choices, _ in table:
        value = flags[name] if flags[name] is not None else config.get(name)
        if value is None:
            if default is _REQUIRED:
                raise ParameterError(f"missing required parameter {_flag(name)}")
            params[name] = default
            continue
        try:
            # JSON booleans, lists and objects fit no parameter, even where
            # the converter would accept them
            if isinstance(value, bool) or not isinstance(value, (str, int, float)):
                raise ValueError
            value = convert(value)
        except ValueError:
            raise ParameterError(f"{_flag(name)}: invalid value {value!r}") from None
        if choices is not None and value not in choices:
            raise ParameterError(f"{_flag(name)}: {value!r} is not one of "
                                 f"{', '.join(choices)}")
        params[name] = value
    return params


def _write_manifest(command, params, wall_time_s):
    """Write ``<out_dir>/manifest.json`` or ``<out>.manifest.json``."""
    if "out_dir" in params:
        path = Path(params["out_dir"]) / "manifest.json"
    else:
        out = Path(params["out"])
        path = out.with_name(out.name + ".manifest.json")
    manifest = {
        "command": command,
        "inputs": {name: params[name] for name in _INPUT_FILES if name in params},
        "params": params,
        "seed": params.get("seed"),
        "version": __version__,
        "wall_time_s": wall_time_s,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_table(path, header, *columns):
    """A CSV table: the header line, then one row per entry of the columns.
    ``tolist()`` gives Python ints and floats, whose repr keeps an index an
    int and writes a float as ``format_float`` does."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row in zip(*(np.asarray(column).tolist() for column in columns)):
            fh.write(",".join(map(repr, row)) + "\n")


def _write_report(path, title, items):
    """A plain-text report: the title, a "=" underline, then a "key: value"
    line per item of the dict. None reads "undefined", a boolean true or
    false, and a float (np.float64 included) its ``format_float``."""
    def shown(value):
        if value is None:
            return "undefined"
        if isinstance(value, (bool, np.bool_)):
            return str(bool(value)).lower()
        return graphmod.format_float(value) if isinstance(value, float) else str(value)

    lines = [title, "=" * len(title),
             *(f"{key}: {shown(value)}" for key, value in items.items())]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_graph_build(params):
    data = graphmod.DataMatrix.from_csv(params["matrix"], params["orientation"])
    g = graphmod.knn_graph(data, axis=params["axis"], k=params["k"],
                           weighting=params["weighting"], sigma=params["sigma"],
                           metric=params["metric"])
    graphmod.save_edge_list(g, params["out"])
    print(f"wrote {params['out']} ({g.num_vertices} vertices, {g.num_edges} edges)")


def _load_laplacians(params):
    kind = params["laplacian"]
    row_graph = graphmod.load_edge_list(params["row_graph"])
    col_graph = graphmod.load_edge_list(params["col_graph"])
    return graphmod.laplacian(row_graph, kind), graphmod.laplacian(col_graph, kind)


def _cmd_solve(params):
    started = time.perf_counter()
    Y = graphmod.DataMatrix.from_csv(params["matrix"], params["orientation"]).values
    Lr, Lc = _load_laplacians(params)

    algo = params["algo"]
    if algo == "tikhonov":
        X = solvers.tikhonov_closed_form(Y, Lr, Lc, params["gamma_r"],
                                         params["gamma_c"])
        result = solvers.SolverResult(X=X, iterations=1, objective_trace=[],
                                      converged=True, stop_reason="closed_form",
                                      change_trace=[])
    else:
        filter_spec = None
        if algo == "gfrpcag":
            if params["filter_b"] is None:
                raise ParameterError("gfrpcag requires --filter-b")
            filter_spec = spectral.FilterSpec(family="prox_fb", b=params["filter_b"])
        solver_config = solvers.SolverConfig(
            gamma_r=params["gamma_r"], gamma_c=params["gamma_c"],
            loss=params["loss"], max_iters=params["max_iters"],
            tol=params["tol"], filter_spec=filter_spec,
            filtered_side=params["filtered_side"])
        solve = solvers.solve_frpcag if algo == "frpcag" else solvers.solve_gfrpcag
        result = solve(Y, Lr, Lc, solver_config)

    out_dir = Path(params["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    wall = time.perf_counter() - started
    graphmod.save_matrix_csv(out_dir / "X.csv", result.X)
    trace = np.asarray(result.objective_trace, dtype=np.float64)
    _write_table(out_dir / "trace.csv", "iter,objective,relative_change",
                 np.arange(1, trace.size + 1), trace,
                 np.asarray(result.change_trace, dtype=np.float64))
    report = {k: params[k] for k in sorted(params) if params[k] is not None}
    report.update(iterations=result.iterations, converged=result.converged,
                  stop_reason=result.stop_reason)
    if trace.size:
        report["final_objective"] = trace[-1]
    report["wall_time_s"] = f"{wall:.3f}"
    _write_report(out_dir / "report.txt", "solver report", report)
    print(f"wrote {out_dir}/X.csv ({result.iterations} iterations, "
          f"converged={str(result.converged).lower()})")


def _cmd_diagnose(params):
    k = params["k"]
    X = graphmod.DataMatrix.from_csv(params["matrix"], params["orientation"]).values
    Lr, Lc = _load_laplacians(params)
    if Lr.shape[0] != X.shape[0] or Lc.shape[0] != X.shape[1]:
        raise DataError(f"matrix is {X.shape} but graphs have "
                        f"{Lr.shape[0]} and {Lc.shape[0]} vertices")
    row_basis = spectral.eigendecompose(Lr)
    col_basis = spectral.eigendecompose(Lc)

    out_dir = Path(params["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)

    row_report = diag.alignment_report(row_basis, diag.covariance(X, "rows"), k)
    col_report = diag.alignment_report(col_basis, diag.covariance(X, "columns"), k)
    for side, aligned in (("rows", row_report), ("columns", col_report)):
        _write_report(out_dir / f"alignment_{side}.txt", "alignment report", {
            "label": side, "k": aligned.k,
            "alignment_order": aligned.alignment_order,
            "rank_k_alignment": aligned.rank_k_alignment})
        graphmod.save_matrix_csv(out_dir / f"gamma_{side}_db.csv",
                                 diag.gamma_to_db(aligned.Gamma))

    bound = None
    if params["ystar"] is not None and params["noisy"] is not None:
        Y_star = graphmod.DataMatrix.from_csv(params["ystar"],
                                              params["orientation"]).values
        Y = graphmod.DataMatrix.from_csv(params["noisy"],
                                         params["orientation"]).values
        k_r = params["k_r"] if params["k_r"] is not None else k
        k_c = params["k_c"] if params["k_c"] is not None else k
        bound = diag.recovery_bound_check(
            Y_star, Y - Y_star, X, row_basis, col_basis, k_r, k_c,
            params["gamma"],
            lambda R: solvers.loss_value(R, np.zeros_like(R), params["loss"]))

    report = diag.build_diagnostics_report(X, row_basis, col_basis, k,
                                           bound=bound)
    sigma = report.singular_values
    _write_table(out_dir / "singular_values.csv", "index,singular_value",
                 np.arange(sigma.size), sigma)
    graphmod.save_matrix_csv(out_dir / "coherence_right.csv",
                             report.coherence_right)
    graphmod.save_matrix_csv(out_dir / "coherence_left.csv",
                             report.coherence_left)
    items = {"k": k,
             "spectral_gap_col": report.spectral_gaps[0],
             "spectral_gap_row": report.spectral_gaps[1],
             "alignment_order_rows": row_report.alignment_order,
             "rank_k_alignment_rows": row_report.rank_k_alignment,
             "alignment_order_columns": col_report.alignment_order,
             "rank_k_alignment_columns": col_report.rank_k_alignment}
    if bound is not None:
        items.update(zip(("bound_lhs", "bound_rhs", "bound_holds"), bound))
    _write_report(out_dir / "diagnostics.txt", "diagnostics report", items)
    print(f"wrote {out_dir}/diagnostics.txt")


def _cmd_synth_lowrank(params):
    seed = params["seed"]
    instance = synth.make_lrmg(params["p"], params["n"], params["k_r"],
                               params["k_c"], seed,
                               k_neighbors=params["k_neighbors"],
                               laplacian_kind=params["laplacian"])
    if params["noise"] == "none":
        Y = instance.Y_star.copy()
    else:
        Y = synth.add_noise(instance.Y_star, params["noise"], seed + 1,
                            sigma=params["sigma"], fraction=params["fraction"],
                            amplitude=params["amplitude"])

    out_dir = Path(params["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    graphmod.save_matrix_csv(out_dir / "ystar.csv", instance.Y_star)
    graphmod.save_matrix_csv(out_dir / "y.csv", Y)
    graphmod.save_edge_list(instance.row_graph, out_dir / "row_graph.txt")
    graphmod.save_edge_list(instance.col_graph, out_dir / "col_graph.txt")
    print(f"wrote {out_dir}/ystar.csv, y.csv, row_graph.txt, col_graph.txt")


def _cmd_synth_manifold(params):
    data = synth.make_manifold(params["kind"], params["n"],
                               noise_sigma=params["noise_sigma"],
                               noise_dims=params["noise_dims"], seed=params["seed"])
    data.to_csv(params["out"])
    print(f"wrote {params['out']} ({data.num_features} x {data.num_samples})")


def _cmd_spectra(params):
    out = params["out"]
    if params["graph"] is not None:
        g = graphmod.load_edge_list(params["graph"])
        L = graphmod.laplacian(g, params["laplacian"])
        eigenvalues = spectral.eigendecompose(L, params["count"]).eigenvalues
        _write_table(out, "index,eigenvalue", np.arange(eigenvalues.size),
                     eigenvalues)
    elif params["filter_b"] is not None:
        b, x_max = params["filter_b"], params["x_max"]
        spec = spectral.FilterSpec("prox_fb", b=b, gamma=params["filter_gamma"])
        if not x_max > 0:
            raise ParameterError(f"x_max must be positive, got {x_max}")
        grid = np.linspace(0.0, x_max, 1000)
        _write_table(out, "x,g(x),f(x)", grid,
                     spectral.eval_filter(spectral.FilterSpec("step_gb", b=b),
                                          grid),
                     spectral.eval_filter(spec, grid))
    else:
        raise ParameterError("spectra needs either --graph or --filter-b")
    print(f"wrote {out}")


# parameter tables, one row per flag: (name, converter, default or _REQUIRED,
# choices, help)

_ORIENTATION = ("orientation", str, "rows", ("rows", "columns"), None)
_GRAPHS = (("row_graph", str, _REQUIRED, None, None),
           ("col_graph", str, _REQUIRED, None, None))
_LAPLACIAN = ("laplacian", str, "normalized", graphmod.LAPLACIAN_KINDS, None)
_LOSS = ("loss", str, "l1", solvers.LOSSES, None)
_OUT_DIR = ("out_dir", str, _REQUIRED, None, None)

_COMMANDS = {
    "graph build": ("build a KNN graph from a matrix", _cmd_graph_build, (
        ("matrix", str, _REQUIRED, None, "input matrix CSV"),
        _ORIENTATION,
        ("axis", str, "columns", ("rows", "columns"),
         "which vectors become vertices (default columns)"),
        ("k", _int, _REQUIRED, None, "number of nearest neighbors"),
        ("weighting", str, "gaussian", graphmod.WEIGHTINGS, None),
        ("sigma", _sigma, "auto", None, "gaussian width, or 'auto'"),
        ("metric", str, "euclidean", ("euclidean", "cityblock"), None),
        ("out", str, _REQUIRED, None, "output edge-list file"),
    )),
    "solve": ("run a recovery solver", _cmd_solve, (
        ("matrix", str, _REQUIRED, None, None),
        _ORIENTATION,
        *_GRAPHS,
        ("algo", str, "frpcag", ("frpcag", "gfrpcag", "tikhonov"), None),
        _LOSS,
        ("gamma_r", _float, 0.0, None, None),
        ("gamma_c", _float, 0.0, None, None),
        _LAPLACIAN,
        ("max_iters", _int, 1000, None, None),
        ("tol", _float, 1e-6, None, None),
        ("filter_b", _float, None, None, None),
        ("filtered_side", str, "column_graph", solvers.FILTERED_SIDES, None),
        _OUT_DIR,
    )),
    "diagnose": ("alignment and bound diagnostics", _cmd_diagnose, (
        ("matrix", str, _REQUIRED, None, None),
        _ORIENTATION,
        *_GRAPHS,
        ("k", _int, _REQUIRED, None, None),
        _LAPLACIAN,
        ("ystar", str, None, None, "clean matrix CSV for the bound check"),
        ("noisy", str, None, None, "noisy matrix CSV for the bound check"),
        ("gamma", _float, 1.0, None, None),
        _LOSS,
        ("k_r", _int, None, None, None),
        ("k_c", _int, None, None, None),
        _OUT_DIR,
    )),
    "synth lowrank": ("band-limited matrix plus graphs", _cmd_synth_lowrank, (
        ("p", _int, _REQUIRED, None, None),
        ("n", _int, _REQUIRED, None, None),
        ("k_r", _int, _REQUIRED, None, None),
        ("k_c", _int, _REQUIRED, None, None),
        ("seed", _int, 0, None, None),
        ("k_neighbors", _int, 10, None, None),
        _LAPLACIAN,
        ("noise", str, "none", ("none", *synth.NOISE_MODELS), None),
        ("sigma", _float, 0.1, None, None),
        ("fraction", _float, 0.1, None, None),
        ("amplitude", _float, 1.0, None, None),
        _OUT_DIR,
    )),
    "synth manifold": ("parametric manifold samples", _cmd_synth_manifold, (
        ("kind", str, _REQUIRED, synth.MANIFOLD_KINDS, None),
        ("n", _int, _REQUIRED, None, None),
        ("noise_sigma", _float, 0.0, None, None),
        ("noise_dims", str, "ambient", ("ambient", "extra_dim"), None),
        ("seed", _int, 0, None, None),
        ("out", str, _REQUIRED, None, None),
    )),
    "spectra": ("export eigenvalues or filter curves", _cmd_spectra, (
        ("graph", str, None, None, "edge-list file to decompose"),
        _LAPLACIAN,
        ("count", _int, None, None, None),
        ("filter_b", _float, None, None, None),
        ("filter_gamma", _float, 1.0, None, None),
        ("x_max", _float, 2.0, None, None),
        ("out", str, _REQUIRED, None, None),
    )),
}

_GROUP_HELP = {"graph": "graph construction", "synth": "synthetic data generators"}


class _Parser(argparse.ArgumentParser):
    """An argument parser that reports a bad command line (an unknown flag,
    a missing one, a value outside its choices) as a ParameterError, so
    that ``main`` returns 2 for it as for every other usage error."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ParameterError(f"{self.prog}: {message}")


def _build_parser():
    parser = _Parser(
        prog="graphlowrank",
        description="Low-rank matrix denoising via dual-graph regularization")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    groups = {}
    for command, (help_text, handler, table) in _COMMANDS.items():
        *group, name = command.split()
        parent = sub
        if group:
            if group[0] not in groups:
                group_parser = sub.add_parser(group[0], help=_GROUP_HELP[group[0]])
                groups[group[0]] = group_parser.add_subparsers(
                    dest=f"{group[0]}_command", required=True)
            parent = groups[group[0]]
        cmd = parent.add_parser(name, help=help_text)
        for param, _, _, choices, param_help in table:
            cmd.add_argument(_flag(param), choices=choices, help=param_help)
        cmd.add_argument("--config", help="JSON parameter file (flags win)")
        cmd.set_defaults(spec=(command, handler, table))
    return parser


def main(argv=None) -> int:
    started = time.perf_counter()
    try:
        args = _build_parser().parse_args(argv)
        command, handler, table = args.spec
        params = _resolve(table, vars(args), _load_config(args.config))
        handler(params)
        _write_manifest(command, params, time.perf_counter() - started)
    except ParameterError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (DataError, DegenerateGraphError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except GraphLowRankError as exc:  # fallback for new error kinds
        print(f"error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
