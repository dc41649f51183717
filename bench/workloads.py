"""The three benchmark workloads: inputs, timed operations, output checks.

Each workload builds its inputs from the run's seed in ``setup()``, then
``run_pass()`` performs the timed operations once and returns one
``OpResult`` per operation, which ``check_pass()`` checks after the timing. Passes are identical, so every pass of a run
must give bit-identical outputs. The package is reached only through its
public names (module attributes looked up at call time), which lets the
tracer wrap them.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import graphlowrank as glr

BENCH_DIR = Path(__file__).resolve().parent

# Ceilings on the relative error of each workload's primary output, set
# above every value seen over the seeds in bench/README.md. At full size the noisy input
# itself sits far above them (2.0, 3.9 and 3.4 at seed 1), so a solver that
# stops doing its job fails the check. At smoke size the solvers do not
# beat the noisy input, and the ceilings only catch a changed result.
REL_ERR_CEILING = {
    "full": {"cli_pipeline": 0.7, "fista_sweep": 0.35, "gfrpcag_clusters": 0.65},
    "smoke": {"cli_pipeline": 0.95, "fista_sweep": 0.9, "gfrpcag_clusters": 1.1},
}

SIZES = {
    "full": {
        "cli_pipeline": {"p": 600, "n": 600, "rank": 10, "k": 10},
        "fista_sweep": {"p": 1200, "n": 1200, "rank": 10},
        "gfrpcag_clusters": {"p": 200, "n": 1500, "clusters": 4, "k": 10},
    },
    "smoke": {
        "cli_pipeline": {"p": 60, "n": 60, "rank": 10, "k": 10},
        "fista_sweep": {"p": 60, "n": 60, "rank": 10},
        "gfrpcag_clusters": {"p": 20, "n": 60, "clusters": 4, "k": 10},
    },
}

# sparse noise of the two synthetic workloads
NOISE_FRACTION = 0.1
NOISE_AMPLITUDE = 0.1

FISTA_GAMMAS = (10.0, 30.0, 100.0)
COMMAND_TIMEOUT_S = 30
TOL = 1e-8


@dataclass
class OpResult:
    """One timed operation: a CLI command or a solver call."""

    name: str
    error: str | None = None
    X: np.ndarray | None = None
    iterations: int = 0
    digest: str = ""
    checks: list = field(default_factory=list)


def digest(*arrays_or_bytes) -> str:
    h = hashlib.sha256()
    for item in arrays_or_bytes:
        h.update(item if isinstance(item, bytes) else np.ascontiguousarray(item).tobytes())
    return h.hexdigest()


def rel_err(X, X_clean) -> float:
    return float(np.linalg.norm(X - X_clean) / np.linalg.norm(X_clean))


def check_matrix(op: OpResult, shape) -> None:
    """Record a failure when X is missing, misshapen or not finite."""
    if op.X is None:
        op.checks.append("no output matrix")
    elif op.X.shape != shape:
        op.checks.append(f"shape {op.X.shape}, expected {shape}")
    elif not np.isfinite(op.X).all():
        op.checks.append("non-finite entries")


class Workload:
    name = ""

    def __init__(self, seed: int, size: str, workdir: Path):
        self.seed = seed
        self.size = size
        self.dims = SIZES[size][self.name]
        self.workdir = workdir
        self.clean = None

    def seeds(self) -> dict:
        raise NotImplementedError

    def setup(self) -> str:
        """Build the inputs; returns a digest so repeats can be compared."""
        raise NotImplementedError

    def run_pass(self, tracer=None) -> list[OpResult]:
        """The timed work of one pass."""
        raise NotImplementedError

    def check_pass(self, ops: list[OpResult]) -> None:
        """Digest and check the outputs of a pass, outside its timing."""
        for op in ops:
            if op.error is None:
                op.digest = digest(op.X)
                check_matrix(op, self.clean.shape)

    def primary(self, ops: list[OpResult]) -> OpResult | None:
        """The operation whose X is the workload's primary output."""
        raise NotImplementedError


# The clean signal of each workload is drawn from a fixed seed and only the
# noise follows --seed. With a fresh signal per seed, rel_err moved by 14%
# and the iteration count by 15% between seeds (IQR over median, seeds
# 11-15): spreads of the input, not of the code, that would swamp the
# bounds. Fresh noise per seed still gives every run its own input.
LRMG_SEED = 1
CENTERS_SEED = 5


class _Lrmg(Workload):
    """Shared input of the two synthetic workloads: a rank-r band-limited
    matrix from make_lrmg plus sparse +-0.1 noise on 10% of the entries."""

    def seeds(self):
        return {"make_lrmg": LRMG_SEED, "add_noise": self.seed + 1}

    def make_input(self):
        self.instance = self.clean = self.Y = None  # peak memory of one set-up
        d = self.dims
        self.instance = glr.make_lrmg(d["p"], d["n"], d["rank"], d["rank"],
                                      self.seeds()["make_lrmg"])
        self.clean = self.instance.Y_star
        self.Y = glr.add_noise(self.clean, "sparse", self.seeds()["add_noise"],
                               fraction=NOISE_FRACTION, amplitude=NOISE_AMPLITUDE)


class CliPipeline(_Lrmg):
    """The path from a CSV to a report, one Python process per command."""

    name = "cli_pipeline"

    def setup(self):
        self.make_input()
        self.workdir.mkdir(parents=True, exist_ok=True)
        glr.save_matrix_csv(self.workdir / "ystar.csv", self.clean)
        glr.save_matrix_csv(self.workdir / "y.csv", self.Y)
        return digest((self.workdir / "ystar.csv").read_bytes(),
                      (self.workdir / "y.csv").read_bytes())

    def commands(self):
        w = str(self.workdir)
        k = str(self.dims["k"])
        graphs = ["--row-graph", f"{w}/rows.txt", "--col-graph", f"{w}/cols.txt"]
        return [
            ("graph_build", ["graph", "build", "--matrix", f"{w}/y.csv",
                             "--axis", "rows", "--k", k, "--out", f"{w}/rows.txt"]),
            ("graph_build", ["graph", "build", "--matrix", f"{w}/y.csv",
                             "--axis", "columns", "--k", k, "--out", f"{w}/cols.txt"]),
            ("solve", ["solve", "--matrix", f"{w}/y.csv", *graphs,
                       "--algo", "frpcag", "--loss", "l1", "--gamma-r", "30",
                       "--gamma-c", "30", "--tol", repr(TOL),
                       "--out-dir", f"{w}/solve"]),
            ("diagnose", ["diagnose", "--matrix", f"{w}/solve/X.csv", *graphs,
                          "--k", k, "--ystar", f"{w}/ystar.csv",
                          "--noisy", f"{w}/y.csv", "--out-dir", f"{w}/diag"]),
        ]

    # byte-reproducible artifacts of each command (manifests and report.txt
    # carry wall time and are left out)
    ARTIFACTS = {"solve": ("solve/X.csv", "solve/trace.csv"),
                 "diagnose": ("diag/diagnostics.txt",)}

    def run_pass(self, tracer=None):
        ops = []
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [glr_src()] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        spans_path = self.workdir / "child_spans.json"
        for cmd, argv in self.commands():
            op = OpResult(cmd)
            child = [sys.executable, str(BENCH_DIR / "cli_child.py"),
                     str(spans_path) if tracer else "-", *argv]
            try:
                if tracer is None:
                    proc = self._spawn(child, env)
                else:
                    with tracer.span(f"cli.{cmd}") as index:
                        proc = self._spawn(child, env)
                    if spans_path.exists():
                        tracer.merge(json.loads(spans_path.read_text()),
                                     parent=index)
                        spans_path.unlink()
            except subprocess.TimeoutExpired:
                op.error = f"no exit within {COMMAND_TIMEOUT_S} s"
            else:
                if proc.returncode != 0:
                    op.error = f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
            ops.append(op)
        return ops

    @staticmethod
    def _spawn(child, env):
        return subprocess.run(child, env=env, capture_output=True, text=True,
                              timeout=COMMAND_TIMEOUT_S)

    def check_pass(self, ops):
        for op, (cmd, argv) in zip(ops, self.commands()):
            if op.error is None:
                try:
                    self._check(op, cmd, argv)
                except (OSError, ValueError, AttributeError) as exc:
                    op.checks.append(f"unreadable output: {exc}")

    def _check(self, op, cmd, argv):
        """Digest the command's artifacts; read X and the iteration count."""
        if cmd == "graph_build":
            op.digest = digest(Path(argv[argv.index("--out") + 1]).read_bytes())
            return
        op.digest = digest(*(Path(self.workdir, a).read_bytes()
                             for a in self.ARTIFACTS[cmd]))
        if cmd == "solve":
            op.X = np.loadtxt(self.workdir / "solve" / "X.csv", delimiter=",",
                              ndmin=2)
            report = (self.workdir / "solve" / "report.txt").read_text()
            op.iterations = int(re.search(r"^iterations: (\d+)$", report,
                                          re.M).group(1))
            check_matrix(op, self.clean.shape)
        else:
            text = (self.workdir / "diag" / "diagnostics.txt").read_text()
            if not re.search(r"^bound_holds: (true|false)$", text, re.M):
                op.checks.append("diagnostics.txt lacks the bound check")

    def primary(self, ops):
        return next((op for op in ops if op.name == "solve"), None)


class FistaSweep(_Lrmg):
    """In-memory gamma sweep of solve_frpcag, as in the synthetic study."""

    name = "fista_sweep"

    def setup(self):
        self.make_input()
        return digest(self.clean, self.Y)

    def run_pass(self, tracer=None):
        ops = []
        inst = self.instance
        for gamma in FISTA_GAMMAS:
            op = OpResult(f"solve_frpcag[gamma={gamma:g}]")
            config = glr.SolverConfig(gamma_r=gamma, gamma_c=gamma, loss="l1",
                                      tol=TOL, max_iters=2000)
            try:
                result = glr.solve_frpcag(self.Y, inst.row_laplacian,
                                          inst.col_laplacian, config)
            except Exception as exc:  # any failure of the call counts as failed
                op.error = f"{type(exc).__name__}: {exc}"
            else:
                op.X, op.iterations = result.X, result.iterations
            ops.append(op)
        return ops

    def primary(self, ops):
        done = [op for op in ops if op.X is not None and not op.checks]
        return min(done, key=lambda op: rel_err(op.X, self.clean), default=None)


class GfrpcagClusters(Workload):
    """solve_gfrpcag in exact mode on a wide matrix of 4 equal clusters."""

    name = "gfrpcag_clusters"

    def seeds(self):
        return {"centers": CENTERS_SEED, "add_noise": self.seed + 4}

    def setup(self):
        d = self.dims
        rng = np.random.default_rng(self.seeds()["centers"])
        centers = 0.3 * rng.standard_normal((d["p"], d["clusters"]))
        labels = np.repeat(np.arange(d["clusters"]), d["n"] // d["clusters"])
        self.clean = centers[:, labels]
        self.Y = glr.add_noise(self.clean, "gaussian", self.seeds()["add_noise"],
                               sigma=1.0)
        data = glr.DataMatrix(self.Y)
        self.Lr = glr.laplacian(glr.knn_graph(data, "rows", d["k"]), "normalized")
        self.Lc = glr.laplacian(glr.knn_graph(data, "columns", d["k"]), "normalized")
        # b = lambda_5(Lc) / 2, the convention of the two-cluster study
        self.b = float(glr.eigendecompose(self.Lc).eigenvalues[4]) / 2.0
        return digest(self.Y, self.Lr.matrix.data, self.Lc.matrix.data,
                      np.array([self.b]))

    def run_pass(self, tracer=None):
        op = OpResult("solve_gfrpcag")
        config = glr.SolverConfig(
            gamma_r=0.1, gamma_c=2.0, loss="l2", tol=TOL,
            filter_spec=glr.FilterSpec(family="prox_fb", b=self.b),
            filtered_side="column_graph", filter_application="exact")
        try:
            result = glr.solve_gfrpcag(self.Y, self.Lr, self.Lc, config)
        except Exception as exc:  # any failure of the call counts as failed
            op.error = f"{type(exc).__name__}: {exc}"
        else:
            op.X, op.iterations = result.X, result.iterations
        return [op]

    def primary(self, ops):
        return ops[0] if ops[0].X is not None else None


WORKLOADS = {w.name: w for w in (CliPipeline, FistaSweep, GfrpcagClusters)}


def glr_src() -> str:
    """The src directory the package was imported from."""
    return str(Path(glr.__file__).resolve().parent.parent)

