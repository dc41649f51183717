"""Recovery solvers for dual-graph regularized low-rank denoising.

Two iterative methods are provided. ``solve_frpcag`` minimizes

    phi(X - Y) + gamma_c * tr(X Lc X^T) + gamma_r * tr(X^T Lr X)

with FISTA, splitting the smooth graph terms (handled by gradient steps)
from the loss phi (handled by its proximal operator). ``solve_gfrpcag``
replaces one graph term with a filtered penalty gamma * tr(X g_b(L) X^T)
and runs a forward-backward primal-dual iteration whose filtered prox is a
multiplication by f_b in the graph spectral domain.

``tikhonov_closed_form`` is the direct two-sided smoother
(I + gamma_r Lr)^{-1} Y (I + gamma_c Lc)^{-1}, used as an oracle for the
iterative solvers. Penalty terms follow the same convention as the l2 loss:
squared Frobenius norms without a 1/2 factor.
"""

from __future__ import annotations

import functools
import operator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import (DataError, NumericalError, ParameterError, _check_choice,
                     _check_number, _is_real)
from .graph import LaplacianMatrix, _row_blocks
from .spectral import (FilterSpec, eigendecompose, prox_filter_curve,
                       step_penalty_curve)

LOSSES = ("l1", "l2", "l21")
FILTERED_SIDES = ("row_graph", "column_graph")

# guard against division by zero in the relative-change stopping rule
STOP_DELTA = 1e-12
# the worker threads of each solve_gfrpcag
WORKERS = 2


@dataclass
class SolverConfig:
    """Hyperparameters shared by both solvers.

    Both solvers take (Y, Lr, Lc, config). gamma_r weighs the row-graph
    penalty (Lr is p x p), gamma_c the column-graph penalty (Lc is n x n).
    For the filtered solver, ``filter_spec`` gives the bandwidth b of the
    step-like filter and ``filtered_side`` names the graph it acts on: Lr
    for "row_graph", Lc for "column_graph". That side's gamma weighs the
    filtered penalty; the other graph keeps its plain smoothness term. The
    filtered prox is always applied exactly through the eigenbasis, and
    ``filter_application`` accepts only "exact". ``max_iters`` caps the
    iterations: an integer of at least 1, as an int or an integral float
    such as 3.0.
    """

    gamma_r: float = 0.0
    gamma_c: float = 0.0
    loss: str = "l1"
    max_iters: int = 1000
    tol: float = 1e-6
    filter_spec: FilterSpec | None = None
    filtered_side: str = "column_graph"
    # kept only while bench/workloads.py passes filter_application="exact"
    filter_application: str = "exact"

    def __post_init__(self):
        _check_choice("loss", self.loss, LOSSES)
        _check_number("gamma_r", self.gamma_r)
        _check_number("gamma_c", self.gamma_c)
        # a fraction, NaN or inf never equals an iteration count, and the
        # run would not stop
        if not (_is_real(self.max_iters) and self.max_iters >= 1
                and self.max_iters % 1 == 0):
            raise ParameterError(f"max_iters must be an integer of at least "
                                 f"1, got {self.max_iters!r}")
        _check_number("tol", self.tol, exclusive=True)
        _check_choice("filtered_side", self.filtered_side, FILTERED_SIDES)
        if self.filter_application != "exact":
            raise ParameterError(
                f"unknown filter_application {self.filter_application!r}: the "
                "filtered prox is always exact")


@dataclass
class SolverResult:
    """Recovered matrix plus the convergence trace of the run; it
    converged unless it stopped at max_iters."""

    X: np.ndarray
    iterations: int
    objective_trace: list = field(default_factory=list)
    stop_reason: str = "max_iters"
    change_trace: list = field(default_factory=list)

    @property
    def converged(self) -> bool:
        return self.stop_reason != "max_iters"


# ---------------------------------------------------------------------------
# losses and proximal operators
# ---------------------------------------------------------------------------

def loss_value(X: np.ndarray, Y: np.ndarray, loss: str) -> float:
    """phi(X - Y) for the supported losses."""
    _check_choice("loss", loss, LOSSES)
    return _loss_total(_loss_sums(X - Y, loss), loss)


def _loss_sums(R: np.ndarray, loss: str):
    """The sums of phi(R) that row blocks of R add up: the l1 or squared l2
    sum, and for l21 the squared norm of each column. Overwrites R."""
    if loss == "l1":
        return float(np.abs(R, out=R).sum())
    R *= R
    if loss == "l2":
        return float(np.sum(R))
    return np.add.reduce(R, axis=0)


def _loss_total(sums, loss: str) -> float:
    """phi from the summed ``_loss_sums`` of all row blocks."""
    return float(np.sqrt(sums).sum()) if loss == "l21" else sums


def _prox_loss(X, Y, lam, loss, norms):
    """Proximal operator of lam * phi(. - Y) evaluated at X, a row block.

    l1 is the shifted soft threshold, l2 the shrinkage toward Y of the squared
    Frobenius loss (no 1/2 factor), and l21 a block shrinkage of each group,
    which stays at the anchor if exactly there. ``norms`` (ignored by l1 and
    l2) gives l21's group norms of X - Y, shaped to broadcast: (n,) for
    columns, which a row block cannot compute alone, or (rows, 1) for rows.
    """
    if loss == "l2":
        return (X + 2.0 * lam * Y) / (1.0 + 2.0 * lam)
    R = X - Y
    if loss == "l1":
        # Y + (R - clip(R, -lam, lam))
        R -= np.clip(R, -lam, lam)
        R += Y
        return R
    scale = np.zeros_like(norms)
    nonzero = norms > 0
    scale[nonzero] = np.maximum(0.0, 1.0 - lam / norms[nonzero])
    return Y + R * scale


def _block_sums(walk, task, blocks):
    """The tuples ``task(rows)`` returns for the row blocks, added element
    by element from 0.0 in block order: the one sum of every row-block pass.
    ``walk`` is the builtin ``map`` or a pool's, which yields in task order,
    so the sums have a serial walk's bits. An empty matrix walks one empty
    block, whose parts are zeros."""
    columns = zip(*walk(task, blocks or [slice(0, 0)]))
    return [functools.reduce(operator.add, column, 0.0) for column in columns]


def _column_norms(loss, blocks, block, walk=map):
    """For l21, the column norms of the matrix whose rows ``block(rows)``
    returns as a fresh array for each row block, their squares summed by
    ``_block_sums``; None for l1 and l2, whose prox needs none."""
    if loss == "l21":
        squares, = _block_sums(
            walk, lambda rows: (_loss_sums(block(rows), loss),), blocks)
        return np.sqrt(squares)


def _check_laplacians(X, Lr, Lc):
    """X's shape (p, n), once Lr is p x p and Lc is n x n."""
    p, n = X.shape
    if Lr.shape != (p, p):
        raise DataError(f"row Laplacian is {Lr.shape}, expected {(p, p)}")
    if Lc.shape != (n, n):
        raise DataError(f"column Laplacian is {Lc.shape}, expected {(n, n)}")
    return p, n


def frpcag_gradient(X: np.ndarray, Lr: LaplacianMatrix, Lc: LaplacianMatrix,
                    gamma_r: float, gamma_c: float) -> np.ndarray:
    """Gradient of the two smoothness terms: 2 (gamma_r Lr X + gamma_c X Lc).

    Lr X is one whole sparse product (zeros when gamma_r is 0), and X Lc is
    added to it in the row blocks of ``_row_blocks``, the faster form of
    each. Each output row sums its sparse products in the same order
    whatever the block width, so the result does not depend on it.
    """
    X = np.asarray(X, dtype=np.float64)
    p, n = _check_laplacians(X, Lr, Lc)
    if gamma_r != 0.0:
        G = _smooth_product(Lr.matrix, X, gamma_r)
    else:
        G = np.zeros_like(X)
    if gamma_c != 0.0:
        LcT = Lc.matrix.T
        for rows in _row_blocks(p, n):
            col_part = (LcT @ X[rows].T).T
            col_part *= 2.0 * gamma_c
            G[rows] += col_part
    return G


def _smooth_product(L, X, gamma):
    """2 gamma L X for a sparse L: the gradient of gamma tr(X^T L X), or the
    rows of it that L holds. Each row of the result sums its row's non-zeros
    in order, so rows computed apart have the bits of the whole product."""
    G = L @ X
    G *= 2.0 * gamma
    return G


def lipschitz_bound(Lr: LaplacianMatrix, Lc: LaplacianMatrix,
                    gamma_r: float, gamma_c: float) -> float:
    """Upper bound 2 gamma_c ||Lc|| + 2 gamma_r ||Lr|| on the gradient's
    Lipschitz constant. A bound that overflows is refused: its step 1/beta
    would be 0, and 0 times the infinite gradient is NaN."""
    _check_number("gamma_r", gamma_r)
    _check_number("gamma_c", gamma_c)
    with np.errstate(over="ignore"):
        beta = (2.0 * gamma_c * Lc.spectral_norm_bound
                + 2.0 * gamma_r * Lr.spectral_norm_bound)
    if not np.isfinite(beta):
        raise ParameterError(f"gamma_r={gamma_r} and gamma_c={gamma_c} make "
                             "the Lipschitz bound overflow")
    return beta


# ---------------------------------------------------------------------------
# FISTA
# ---------------------------------------------------------------------------

def _dot(a, b):
    # einsum sums in one thread without a temporary array, so the result
    # does not depend on the BLAS thread count
    return float(np.einsum("ij,ij->", a, b))


def _checked_input(Y: np.ndarray, Lr: LaplacianMatrix,
                   Lc: LaplacianMatrix) -> np.ndarray:
    """Y as a C-ordered float64 array, once it and its squared norm, which
    the traces and stopping rules sum, are finite, Lr is p x p and Lc is
    n x n. ``_dot`` overflows to inf without a RuntimeWarning."""
    Y = np.ascontiguousarray(Y, dtype=np.float64)
    if not np.isfinite(Y).all():
        raise DataError("input matrix contains NaN or Inf entries")
    if not np.isfinite(_dot(Y, Y)):
        raise DataError("the squared Frobenius norm of the input matrix "
                        "overflows; rescale the input")
    _check_laplacians(Y, Lr, Lc)
    return Y


def _run(steps, max_iters: int) -> SolverResult:
    """Drive a solver's iterations and collect its traces.

    ``steps`` yields (X, objective, change, converged) once per iteration.
    A yielded X stays valid only until the next step is taken, because
    FISTA writes later iterates into the same buffers, so the loop stops
    without advancing ``steps`` once it converges or reaches max_iters.
    A non-finite objective or change is a NumericalError: a comparison with
    it could not tell whether the run converged.
    """
    trace, changes = [], []
    for X, objective, change, converged in steps:
        if not (np.isfinite(objective) and np.isfinite(change)):
            raise NumericalError(
                f"iteration {len(trace) + 1}: the objective ({objective}) or "
                f"the relative change ({change}) is not finite")
        trace.append(objective)
        changes.append(change)
        if converged or len(trace) == max_iters:
            break
    return SolverResult(X=X, iterations=len(trace), objective_trace=trace,
                        stop_reason="tolerance" if converged else "max_iters",
                        change_trace=changes)


def solve_frpcag(Y: np.ndarray, Lr: LaplacianMatrix, Lc: LaplacianMatrix,
                 config: SolverConfig) -> SolverResult:
    """FISTA on the dual-graph objective with step 1/beta.

    Starts from S_1 = X_0 = Y with momentum t_1 = 1 and stops once
    ||S_{j+1} - S_j||_F^2 <= tol * ||S_j||_F^2 or max_iters is reached.
    A zero Lipschitz bound gets a unit step. The gradient is then 0, so the
    first iterate is the loss prox of Y at Y with a unit step, and the loop
    stops there unless tol is below the rounding error of that prox.

    The graph products are computed once per iteration, at the new iterate
    X_j, and serve three uses. The extrapolation S_{j+1} = X_j
    + m (X_j - X_{j-1}) is linear, so grad f(S_{j+1}) = grad f(X_j)
    + m (grad f(X_j) - grad f(X_{j-1})) needs no product of its own; only
    the first step takes the gradient at Y. Because grad f(X) =
    2 (gamma_c X Lc + gamma_r Lr X), the smooth energy gamma_c tr(X Lc X^T)
    + gamma_r tr(X^T Lr X) equals <X, grad f(X)> / 2, which gives the
    objective trace without further products. The loss prox and the loss
    value run per row block, summed by ``_block_sums`` as in solve_gfrpcag.
    """
    Y = _checked_input(Y, Lr, Lc)
    if config.filter_spec is not None:
        raise ParameterError("filter_spec is only used by solve_gfrpcag")
    return _run(_fista_steps(Y, Lr, Lc, config), config.max_iters)


def _fista_steps(Y, Lr, Lc, config):
    """The iterations of solve_frpcag, in the form ``_run`` takes."""
    gamma_r, gamma_c = config.gamma_r, config.gamma_c
    beta = lipschitz_bound(Lr, Lc, gamma_r, gamma_c)
    step = 1.0 / beta if beta > 0.0 else 1.0
    # S_1 = X_0 = Y; G_prev = grad f(X_0) and Z is the first prox input.
    # The loop keeps four p x n buffers besides Y and the prox output: the
    # post-prox pass turns X_prev into S_next and G_prev into the next Z,
    # and the spent Z is released before the gradient of each iterate is
    # built, so that the new gradient can take its memory.
    S, X_prev = Y, Y.copy()
    G_prev = frpcag_gradient(Y, Lr, Lc, gamma_r, gamma_c)
    Z = Y - step * G_prev
    t, loss, blocks = 1.0, config.loss, _row_blocks(*Y.shape)

    def prox(rows):
        # X = the loss prox of Z, and its part of the loss
        X[rows] = _prox_loss(Z[rows], Y[rows], step, loss, norms)
        return (_loss_sums(X[rows] - Y[rows], loss),)

    def extrapolate(rows):
        # X_prev becomes S_next = X + m (X - X_prev) and G_prev the next Z =
        # S_next - step grad f(S_next), as grad f(S_next) = G + m (G - G_prev);
        # returns the parts of ||S_next - S||_F^2, ||S||_F^2 and <X, G>
        x, g, s, z = X[rows], G[rows], X_prev[rows], G_prev[rows]
        np.subtract(x, s, out=s)
        s *= m
        s += x
        np.subtract(g, z, out=z)
        z *= m
        z += g
        z *= step
        np.subtract(s, z, out=z)
        step_rows = s - S[rows]
        return (_dot(step_rows, step_rows), _dot(S[rows], S[rows]),
                _dot(x, g))

    while True:
        norms = _column_norms(loss, blocks, lambda rows: Z[rows] - Y[rows])
        X = np.empty_like(Y)
        loss_sums, = _block_sums(map, prox, blocks)
        del Z
        G = frpcag_gradient(X, Lr, Lc, gamma_r, gamma_c)
        t_next = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
        m = (t - 1.0) / t_next
        diff, ref, inner = _block_sums(map, extrapolate, blocks)
        S, Z, X_prev, G_prev, t = X_prev, G_prev, X, G, t_next
        yield (X, _loss_total(loss_sums, loss) + 0.5 * inner,
               diff / (ref + STOP_DELTA), diff <= config.tol * ref)


def tikhonov_closed_form(Y: np.ndarray, Lr: LaplacianMatrix, Lc: LaplacianMatrix,
                         gamma_r: float, gamma_c: float) -> np.ndarray:
    """Two-sided smoother (I + gamma_r Lr)^{-1} Y (I + gamma_c Lc)^{-1}.

    Equals the composition of the two single-graph quadratic proxes; in the
    eigenbases it divides each coefficient by
    (1 + gamma_r lambda_ri) * (1 + gamma_c lambda_cj).
    """
    # imported here: scipy.linalg is about 0.14 s of every import of the
    # package, paid by each CLI process; only this needs it
    import scipy.linalg
    _check_number("gamma_r", gamma_r)
    _check_number("gamma_c", gamma_c)
    Y = _checked_input(Y, Lr, Lc)
    p, n = Y.shape
    X = Y
    if gamma_r != 0.0:
        A = np.eye(p) + gamma_r * Lr.dense()
        X = scipy.linalg.solve(A, X, assume_a="pos")
    if gamma_c != 0.0:
        B = np.eye(n) + gamma_c * Lc.dense()
        X = scipy.linalg.solve(B, X.T, assume_a="pos").T
    return X


# ---------------------------------------------------------------------------
# forward-backward primal-dual with a filtered penalty
# ---------------------------------------------------------------------------

def solve_gfrpcag(Y: np.ndarray, Lr: LaplacianMatrix, Lc: LaplacianMatrix,
                  config: SolverConfig) -> SolverResult:
    """Forward-backward primal-dual iteration with one filtered graph.

    Takes the same arguments as ``solve_frpcag``. The graph named by
    ``config.filtered_side`` carries the step-filter penalty, with b from
    ``config.filter_spec`` and that side's gamma as its weight, applied through
    its spectral prox f_b; the other graph keeps its plain smoothness term,
    whose gradient is ``frpcag_gradient`` with the filtered side's gamma set to
    0; the row side is solved as the column side of the transpose. The prox
    needs only the filtered graph's eigenpairs below 3b/2, which
    ``eigendecompose`` finds once per solve with Lanczos on the sparse
    Laplacian (dense ``eigh`` when that route fails). The row blocks of each
    iteration, and then the smooth term's product, run on two worker
    threads, with the bits of a serial walk; the threads live for one solve
    and are joined before it returns or raises.
    Time steps are tau_1 = 1/beta, tau_2 = beta/2, tau_3 = 0.99, with beta
    the ``lipschitz_bound`` of that smooth term, and tau_1 = 1, tau_2 = 1/2
    when it vanishes. Stops once the relative changes of both the primal
    and the dual iterate fall below tol.

    Refused before the first iteration, naming the config field: a smooth
    side's gamma for which 4 tau_2 max(1, max|Y|) sqrt(p n) is not below
    sqrt(float max), an overflowing bound included, and a filtered side's
    gamma whose 2 gamma / tau_2, the weight of the filtered prox, overflows.
    The dual iterate grows with tau_2 and the pass sums its squares. On a
    30 x 40 ``make_lrmg`` input the first overflow came at 120-160 times
    the largest accepted tau_2, and at 50-70 times with Y scaled by 1e50.
    """
    Y = _checked_input(Y, Lr, Lc)
    if config.filter_spec is None:
        raise ParameterError("solve_gfrpcag requires config.filter_spec")
    # numpy's kernels release the GIL; the threads start with the first task
    with ThreadPoolExecutor(max_workers=WORKERS,
                            thread_name_prefix="graphlowrank") as pool:
        return _run(_primal_dual_steps(Y, Lr, Lc, config, pool.map),
                    config.max_iters)


def _primal_dual_steps(Y, Lr, Lc, config, pool_map):
    """The iterations of solve_gfrpcag, in the form ``_run`` takes.

    The filtered penalty is gamma * tr(X g_b(L) X^T) on the column side.
    Transposing the problem swaps its row and column terms and nothing else,
    so the row side is the column side of the transpose: a C-ordered copy of
    Y^T, the two graphs and their gammas swapped, and X^T yielded. The dual
    step is Moreau's identity D = T - tau_2 prox_{h/tau_2}(T / tau_2) with
    the (1/2) ||.||^2 fidelity: for h(X) = gamma sum_j g_b(lambda_j)
    ||X q_j||^2 that prox scales the coefficients by f_b(lambda, 2 gamma /
    tau_2), applied exactly through an eigenbasis of L built once per
    solve. Frequencies where g_b is infinite act as a hard constraint that
    the prox drives to zero; they are left out of the traced penalty so
    that it stays finite. Since f_b vanishes from 3b/2 on, the basis holds
    only the eigenpairs below 3b/2 (``eigendecompose`` with ``below``), an
    n x m matrix with m often far below n, so the prox and the penalty cost
    O(p n m) per iteration. g_b is also infinite on a band about b/745 wide
    just below 3b/2, where the bump in its denominator underflows, and
    finite up to about 1e53 below that band. The trace also leaves out the
    frequencies where g_b exceeds 1/eps (g_b is 1 at b): the prox scales
    them by f_b < tau_2 eps / (2 gamma), and g_b would multiply the
    rounding of their energy (with them, the trace moved by up to 1.6e-10
    between block heights on 14 x 18 test graphs).

    Each iteration walks X, V, G and Y once, in the row blocks of
    ``_row_blocks``, and finishes a block while its rows are in cache: the
    loss prox P, the dual input T = V + tau_2 (2P - X) and its filtered
    prox, X_next and V_next, written over X and V, and the block's parts
    of the change norms, the loss and the frequency energy of X_next. The
    l21 prox needs the norms of the user's columns: on the column side a
    pre-sweep over the same blocks recomputes the prox input and keeps
    only those norms; on the transpose each block takes its own row norms.
    With more than one block, the blocks of the pass and of the pre-sweep
    run as tasks through ``pool_map``, the map of the solve's two worker
    threads; each task returns its block's parts to ``_block_sums``, so X
    and the traces have the same bits as in a serial walk. After
    the pass the smooth term's gradient 2 gamma_r Lr X_next, which serves
    the objective and the next iteration's step, is walked the same way:
    one task per worker, each the product of a range of Lr's rows, whose
    rows have the bits of the whole product. One block runs every task on
    the calling thread, in the same order.
    """
    transposed = config.filtered_side == "row_graph"
    smooth, filtered = "gamma_r", "gamma_c"
    if transposed:
        Y, Lr, Lc = Y.T.copy(), Lc, Lr
        smooth, filtered = filtered, smooth
    # the weights of the smooth row term and of the filtered column term
    gamma_r, gamma = getattr(config, smooth), getattr(config, filtered)
    if gamma == 0.0:
        raise ParameterError(
            f"config.{filtered} is 0, so the filtered penalty on the "
            f"{config.filtered_side} vanishes; solve_frpcag solves the same "
            "problem without the filter")
    try:
        beta = lipschitz_bound(Lr, Lc, gamma_r, 0.0)
    except ParameterError:  # refused below, by the config field
        beta = np.inf
    if beta > 0.0:
        tau1, tau2 = 1.0 / beta, beta / 2.0
    else:
        tau1, tau2 = 1.0, 0.5
    tau3 = 0.99
    scale = max(1.0, float(np.abs(Y).max(initial=0.0)))
    with np.errstate(over="ignore"):
        reach = 4.0 * tau2 * scale * np.sqrt(Y.size)
        filter_gamma = (2.0 / tau2) * gamma
    if not reach < np.sqrt(np.finfo(np.float64).max):
        raise ParameterError(
            f"config.{smooth}={gamma_r} with max(1, max|Y|) "
            f"= {scale} is too large: the dual step tau_2 it sets would "
            "overflow the squared norms of the iteration")
    if not np.isfinite(filter_gamma):
        raise ParameterError(
            f"twice config.{filtered}={gamma} over the dual step tau_2 = "
            f"{tau2} (config.{smooth}) overflows the filtered prox's weight")
    b = config.filter_spec.b
    basis = eigendecompose(Lc, below=1.5 * b)
    Q = basis.eigenvectors
    response = prox_filter_curve(basis.eigenvalues, b, filter_gamma)
    curve = step_penalty_curve(basis.eigenvalues, b)
    traced = curve <= 1.0 / np.finfo(np.float64).eps
    traced_curve = curve[traced]
    loss, blocks = config.loss, _row_blocks(*Y.shape)
    # l21's groups, the columns of the user's X, are rows of the transpose
    group_rows = transposed and loss == "l21"
    # one task gains nothing from the pool but its hand-offs
    walk = pool_map if len(blocks) > 1 else map

    X = Y.copy()
    V = Y.copy()
    # one gradient per iterate: the energy of X_next and the gradient step
    # of the next iteration share it. It is walked as the pass is: one row
    # range per worker, written over G once the pass has read it. Its rows
    # are independent and none need fit in cache, so the ranges are not the
    # pass's blocks, which two workers share unevenly when their count is
    # odd. With gamma_r = 0 there are no ranges and G stays zero
    G = np.zeros_like(Y)
    p = Y.shape[0]
    ranges = [] if gamma_r == 0.0 else [
        slice(k * p // WORKERS, (k + 1) * p // WORKERS) for k in range(WORKERS)]
    Lr_ranges = [Lr.matrix[rows] for rows in ranges]

    def product(rows, Lr_rows):
        G[rows] = _smooth_product(Lr_rows, X, gamma_r)

    def update_gradient():
        for _ in walk(product, ranges, Lr_ranges):
            pass
    update_gradient()

    def prox_input(rows):
        # X - tau_1 (G + V)
        z = G[rows] + V[rows]
        z *= tau1
        return np.subtract(X[rows], z, out=z)

    def step(rows):
        # one block of the pass: writes X_next and V_next over its rows of
        # X and V; returns its parts of the energy, loss and change norms
        x, v, y = X[rows], V[rows], Y[rows]
        P = prox_input(rows)
        block_norms = (np.sqrt(_loss_sums((P - y).T, loss))[:, None]
                       if group_rows else norms)
        P = _prox_loss(P, y, tau1, loss, block_norms)
        # T = V + tau_2 (2P - X)
        T = 2.0 * P
        T -= x
        T *= tau2
        T += v
        # D = T - tau_2 prox(T / tau_2), then V_next = V + tau_3 (D - V)
        D = ((T / tau2) @ Q * response[None, :]) @ Q.T
        D *= tau2
        np.subtract(T, D, out=D)
        D -= v
        D *= tau3
        D += v
        # P becomes X_next = X + tau_3 (P - X)
        P -= x
        P *= tau3
        P += x
        R = P - y
        # on the transpose, a block's l21 groups are whole: its part is final
        loss_part = (_loss_total(_loss_sums(R.T, loss), loss) if group_rows
                     else _loss_sums(R, loss))
        parts = (((P @ Q) ** 2).sum(axis=0), loss_part, _squared_change(P, x),
                 float(np.sum(x * x)), _squared_change(D, v),
                 float(np.sum(v * v)))
        x[...] = P
        v[...] = D
        return parts

    while True:
        norms = None if group_rows else _column_norms(
            loss, blocks, lambda rows: prox_input(rows) - Y[rows], walk)
        energy, loss_sums, dx, x_ref, dv, v_ref = _block_sums(walk, step,
                                                              blocks)
        update_gradient()
        loss_total = loss_sums if group_rows else _loss_total(loss_sums, loss)
        objective = (loss_total + 0.5 * _dot(X, G)
                     + gamma * float(np.sum(traced_curve * energy[traced])))
        dx /= x_ref + STOP_DELTA
        dv /= v_ref + STOP_DELTA
        yield (X.T if transposed else X, objective, max(dx, dv),
               dx < config.tol and dv < config.tol)


def _squared_change(new, old):
    d = new - old
    d *= d
    return float(np.sum(d))

