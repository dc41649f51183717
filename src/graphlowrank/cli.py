"""Command-line interface: build graphs, run solvers, emit reports.

Each command declares its parameters once, in a table that generates its
flags and checks its ``--config`` values: a config value must pass the same
converter and choices as the flag, and a config key that names no parameter
is a usage error. Flags win over config values, which win over defaults.
A parameter that only some modes read is null in the others, and giving it
there, as a flag or a non-null config value, is a usage error.
Every command writes one JSON manifest with the resolved parameters (the
seed among them), the tool version and the wall time of the whole command;
``--help`` shows each flag's default and read-when condition. Re-running a
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
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__
from . import diagnostics as diag
from . import graph as graphmod
from . import solvers, spectral, synth
from .errors import (DataError, NumericalError, ParameterError, _check_choice,
                     _check_integer, _check_number)

_REQUIRED = object()  # default of a parameter that has none
_GIVEN = object()  # read-when value: the earlier parameter has a value


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
    choices; a null config value counts as not given. Outside its read-when
    condition (an earlier parameter's values, None for not given and _GIVEN
    for any) a row resolves to None, and a value given for it is refused.
    """
    unknown = sorted(set(config) - {row[0] for row in table})
    if unknown:
        raise ParameterError(f"unknown config key(s): {', '.join(unknown)}")
    params = {}
    for name, convert, default, choices, _, *when in table:
        value = flags[name] if flags[name] is not None else config.get(name)
        mode = ""
        if when:
            (param, values), = when
            setting = params[param]
            mode = (f" with {_flag(param)} {setting}" if setting is not None
                    else f" without {_flag(param)}")
            if not (setting in values or (setting is not None and _GIVEN in values)):
                if value is not None:
                    raise ParameterError(f"{_flag(name)} is not read{mode}")
                params[name] = None
                continue
        if value is None:
            if default is _REQUIRED:
                raise ParameterError(f"missing required parameter {_flag(name)}{mode}")
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
        if choices is not None:
            _check_choice(_flag(name), value, choices)
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
        "params": params,
        "version": __version__,
        "wall_time_s": wall_time_s,
    }
    with graphmod._open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _check_out_dir(params):
    """An out dir that exists and is not a directory is a DataError."""
    out_dir = Path(params["out_dir"])
    if out_dir.exists() and not out_dir.is_dir():
        raise DataError(f"cannot write {out_dir}: not a directory")


def _make_out_dir(params):
    """The out dir, made with its parents; a path that cannot be made a
    directory is a DataError, as ``graph._open`` makes a file's."""
    out_dir = Path(params["out_dir"])
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DataError(f"cannot write {out_dir}: {exc}") from None
    return out_dir


def _write_table(path, header, *columns):
    """A CSV table: the header line, then one row per entry of the columns.
    ``tolist()`` gives Python ints and floats, whose repr keeps an index an
    int and writes a float as ``format_float`` does."""
    with graphmod._open(path, "w") as fh:
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
    with graphmod._open(path, "w") as fh:
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

    # the read-when rows leave null every parameter the algo does not read
    settings = {f.name: params[f.name] for f in fields(solvers.SolverConfig)
                if params.get(f.name) is not None}
    if params["filter_b"] is not None:
        settings["filter_spec"] = spectral.FilterSpec("prox_fb", b=params["filter_b"])
    config = solvers.SolverConfig(**settings)
    algo = params["algo"]
    if algo == "tikhonov":
        X = solvers.tikhonov_closed_form(Y, Lr, Lc, config.gamma_r, config.gamma_c)
        result = solvers.SolverResult(X=X, iterations=1, objective_trace=[],
                                      stop_reason="closed_form", change_trace=[])
    else:
        solve = solvers.solve_frpcag if algo == "frpcag" else solvers.solve_gfrpcag
        result = solve(Y, Lr, Lc, config)

    out_dir = _make_out_dir(params)
    wall = time.perf_counter() - started
    # X.csv takes the orientation the matrix was read in
    X = result.X.T if params["orientation"] == "columns" else result.X
    graphmod.save_matrix_csv(out_dir / "X.csv", X)
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


def _alignment(out_dir, side, basis, data, k):
    """Write gamma_<side>_db.csv for the covariance of the rows of data and
    return the two alignment scalars; Gamma is dropped on return."""
    aligned = diag.alignment_report(basis, diag.covariance(data), k)
    graphmod.save_matrix_csv(out_dir / f"gamma_{side}_db.csv",
                             diag.gamma_to_db(aligned.Gamma))
    return {f"alignment_order_{side}": aligned.alignment_order,
            f"rank_k_alignment_{side}": aligned.rank_k_alignment}


def _cmd_diagnose(params):
    k = params["k"]

    def read(key):
        return graphmod.DataMatrix.from_csv(params[key],
                                            params["orientation"]).values

    X = read("matrix")
    Lr, Lc = _load_laplacians(params)
    solvers._check_laplacians(X, Lr, Lc)
    # every check comes before the out dir is made, so a refused run writes
    # nothing, and all but the bound check's zero (k+1)-th eigenvalue come
    # before the dense bases. Each alignment needs k within its basis, whose
    # full count is the matrix's side. Y* and Y, then each Gamma and its dB
    # image, are dropped once used, before the coherence step's SVD.
    _check_integer("k", k, 1, min(X.shape))
    diag.check_covariance_range(X)
    diag.check_covariance_range(X.T)
    bound = None
    if params["ystar"] is not None:
        k_r = params["k_r"] if params["k_r"] is not None else k
        k_c = params["k_c"] if params["k_c"] is not None else k
        # the bound check's matrices, until its result replaces them
        bound = diag._bound_inputs(read("ystar"), read("noisy"), X, k_r, k_c,
                                   params["gamma"])
    row_basis = spectral.eigendecompose(Lr)
    col_basis = spectral.eigendecompose(Lc)
    if bound is not None:
        bound = diag.recovery_bound_check(*bound, row_basis, col_basis, k_r,
                                          k_c, params["gamma"], params["loss"])

    out_dir = _make_out_dir(params)
    alignment = {**_alignment(out_dir, "rows", row_basis, X, k),
                 **_alignment(out_dir, "columns", col_basis, X.T, k)}

    coherence_right, coherence_left, sigma = diag.subspace_coherence(
        X, row_basis, col_basis)
    _write_table(out_dir / "singular_values.csv", "index,singular_value",
                 np.arange(sigma.size), sigma)
    graphmod.save_matrix_csv(out_dir / "coherence_right.csv", coherence_right)
    graphmod.save_matrix_csv(out_dir / "coherence_left.csv", coherence_left)

    def gap(basis):
        # None, written "undefined", when the (k+1)-th eigenvalue is zero
        try:
            return diag.spectral_gap(basis.eigenvalues, k)
        except ParameterError:
            return None

    items = {"k": k,
             "spectral_gap_col": gap(col_basis),
             "spectral_gap_row": gap(row_basis),
             **alignment}
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

    out_dir = _make_out_dir(params)
    graphmod.save_matrix_csv(out_dir / "ystar.csv", instance.Y_star)
    graphmod.save_matrix_csv(out_dir / "y.csv", Y)
    graphmod.save_edge_list(instance.row_graph, out_dir / "row_graph.txt")
    graphmod.save_edge_list(instance.col_graph, out_dir / "col_graph.txt")
    print(f"wrote {out_dir}/ystar.csv, y.csv, row_graph.txt, col_graph.txt")


def _cmd_synth_manifold(params):
    data = synth.make_manifold(params["kind"], params["n"],
                               noise_sigma=params["noise_sigma"],
                               noise_dims=params["noise_dims"], seed=params["seed"])
    graphmod.save_matrix_csv(params["out"], data.values)
    print(f"wrote {params['out']} ({data.values.shape[0]} x {data.values.shape[1]})")


def _cmd_spectra(params):
    out = params["out"]
    if params["graph"] is not None:
        g = graphmod.load_edge_list(params["graph"])
        L = graphmod.laplacian(g, params["laplacian"])
        count = params["count"]
        if count is not None:
            _check_integer("--count", count, 1, L.shape[0])
        eigenvalues = spectral.eigendecompose(L).eigenvalues[:count]
        _write_table(out, "index,eigenvalue", np.arange(eigenvalues.size), eigenvalues)
    else:
        b, x_max = params["filter_b"], params["x_max"]
        _check_number("x_max", x_max, exclusive=True)
        grid = np.linspace(0.0, x_max, 1000)
        _write_table(out, "x,g(x),f(x)", grid,
                     spectral.step_penalty_curve(grid, b),
                     spectral.prox_filter_curve(grid, b,
                                                params["filter_gamma"]))
    print(f"wrote {out}")


# parameter tables, one row per flag: (name, converter, default or _REQUIRED,
# choices, help[, read-when condition])

_ORIENTATION = ("orientation", str, "rows", graphmod.AXES, None)
_GRAPHS = (("row_graph", str, _REQUIRED, None, None),
           ("col_graph", str, _REQUIRED, None, None))
_LAPLACIAN = ("laplacian", str, "normalized", graphmod.LAPLACIAN_KINDS, None)
_LOSS = ("loss", str, "l1", solvers.LOSSES, None)
_ITERATIVE = ("algo", ("frpcag", "gfrpcag"))
_FILTERED = ("algo", ("gfrpcag",))
_BOUND = ("ystar", (_GIVEN,))
_SPECTRUM = ("graph", (_GIVEN,))
_CURVE = ("graph", (None,))
_OUT_DIR = ("out_dir", str, _REQUIRED, None, None)

_COMMANDS = {
    "graph build": ("build a KNN graph from a matrix", _cmd_graph_build, (
        ("matrix", str, _REQUIRED, None, "input matrix CSV"),
        _ORIENTATION,
        ("axis", str, "columns", graphmod.AXES,
         "which vectors become vertices"),
        ("k", _int, _REQUIRED, None, "number of nearest neighbors"),
        ("weighting", str, "gaussian", graphmod.WEIGHTINGS, None),
        ("sigma", _sigma, "auto", None, "gaussian width, or 'auto'",
         ("weighting", ("gaussian",))),
        ("metric", str, "euclidean", graphmod.METRICS, None),
        ("out", str, _REQUIRED, None, "output edge-list file"),
    )),
    "solve": ("run a recovery solver", _cmd_solve, (
        ("matrix", str, _REQUIRED, None, None),
        _ORIENTATION,
        *_GRAPHS,
        ("algo", str, "frpcag", ("frpcag", "gfrpcag", "tikhonov"), None),
        (*_LOSS, _ITERATIVE),
        ("gamma_r", _float, 0.0, None, None),
        ("gamma_c", _float, 0.0, None, None),
        _LAPLACIAN,
        ("max_iters", _int, 1000, None, None, _ITERATIVE),
        ("tol", _float, 1e-6, None, None, _ITERATIVE),
        ("filter_b", _float, _REQUIRED, None, None, _FILTERED),
        ("filtered_side", str, "column_graph", solvers.FILTERED_SIDES, None,
         _FILTERED),
        _OUT_DIR,
    )),
    "diagnose": ("alignment and bound diagnostics", _cmd_diagnose, (
        ("matrix", str, _REQUIRED, None, None),
        _ORIENTATION,
        *_GRAPHS,
        ("k", _int, _REQUIRED, None, None),
        _LAPLACIAN,
        ("ystar", str, None, None, "clean matrix CSV for the bound check"),
        ("noisy", str, _REQUIRED, None, "noisy matrix CSV for the bound check",
         _BOUND),
        ("gamma", _float, 1.0, None, None, _BOUND),
        (*_LOSS, _BOUND),
        ("k_r", _int, None, None, "default --k", _BOUND),
        ("k_c", _int, None, None, "default --k", _BOUND),
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
        ("sigma", _float, 0.1, None, None, ("noise", ("gaussian",))),
        ("fraction", _float, 0.1, None, None,
         ("noise", ("sparse", "column_outliers"))),
        ("amplitude", _float, 1.0, None, None, ("noise", ("sparse",))),
        _OUT_DIR,
    )),
    "synth manifold": ("parametric manifold samples", _cmd_synth_manifold, (
        ("kind", str, _REQUIRED, synth.MANIFOLD_KINDS, None),
        ("n", _int, _REQUIRED, None, None),
        ("noise_sigma", _float, 0.0, None, None),
        ("noise_dims", str, "ambient", synth.NOISE_DIMS, None),
        ("seed", _int, 0, None, None),
        ("out", str, _REQUIRED, None, None),
    )),
    "spectra": ("export eigenvalues or filter curves", _cmd_spectra, (
        ("graph", str, None, None, "edge-list file to decompose"),
        (*_LAPLACIAN, _SPECTRUM),
        ("count", _int, None, None, "leading eigenvalues, default all", _SPECTRUM),
        ("filter_b", _float, _REQUIRED, None, None, _CURVE),
        ("filter_gamma", _float, 1.0, None, None, _CURVE),
        ("x_max", _float, 2.0, None, None, _CURVE),
        ("out", str, _REQUIRED, None, None),
    )),
}

_GROUP_HELP = {"graph": "graph construction", "synth": "synthetic data generators"}


class _Parser(argparse.ArgumentParser):
    """Only tokenizes (``_resolve`` checks the choices); a bad command line,
    such as an unknown flag or a missing one, is a ParameterError (exit 2)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ParameterError(f"{self.prog}: {message}")


def _help(text, default, when):
    """A flag's help from its table row: the row's text, then its default or
    "required", then its read-when condition."""
    parts = [text] if text else []
    if default is not None:
        parts.append("required" if default is _REQUIRED else f"default {default}")
    if when:
        (param, values), = when
        named = " or ".join(value for value in values if isinstance(value, str))
        parts.append(f"read only {'without' if values == (None,) else 'with'} "
                     f"{_flag(param)} {named}".rstrip())
    return "; ".join(parts)


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
        for param, _, default, choices, text, *when in table:
            cmd.add_argument(_flag(param), help=_help(text, default, when),
                             metavar="{" + ",".join(choices) + "}" if choices else None)
        cmd.add_argument("--config", help="JSON parameter file (flags win)")
        cmd.set_defaults(spec=(command, handler, table))
    return parser


def main(argv=None) -> int:
    started = time.perf_counter()
    try:
        args = _build_parser().parse_args(argv)
        command, handler, table = args.spec
        params = _resolve(table, vars(args), _load_config(args.config))
        if "out_dir" in params:  # refused before the command's work
            _check_out_dir(params)
        handler(params)
        _write_manifest(command, params, time.perf_counter() - started)
    except ParameterError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"data error: the arrays do not fit in memory: {exc}",
              file=sys.stderr)
        return 3
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
