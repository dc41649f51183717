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

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, ParameterError
from .graph import LaplacianMatrix, _row_blocks
from .spectral import FilterSpec, eigendecompose, eval_filter

LOSSES = ("l1", "l2", "l21")
FILTERED_SIDES = ("row_graph", "column_graph")

# guard against division by zero in the relative-change stopping rule
STOP_DELTA = 1e-12


@dataclass
class SolverConfig:
    """Hyperparameters shared by both solvers.

    Both solvers take (Y, Lr, Lc, config). gamma_r weighs the row-graph
    penalty (Lr is p x p), gamma_c the column-graph penalty (Lc is n x n).
    For the filtered solver, ``filter_spec`` describes the step-like filter
    and ``filtered_side`` names the graph it acts on: Lr for "row_graph",
    Lc for "column_graph". That side's gamma weighs the filtered penalty,
    so ``filter_spec.gamma`` must be 0; the other graph keeps its plain
    smoothness term. The filtered prox is always applied exactly through
    the eigenbasis, and ``filter_application`` accepts only "exact".
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
        if self.loss not in LOSSES:
            raise ParameterError(f"unknown loss {self.loss!r}")
        if not (0 <= self.gamma_r < np.inf and 0 <= self.gamma_c < np.inf):
            raise ParameterError("gamma_r and gamma_c must be finite and "
                                 "nonnegative")
        if self.max_iters < 1:
            raise ParameterError("max_iters must be at least 1")
        if not 0 < self.tol < np.inf:
            raise ParameterError("tolerance must be finite and positive")
        if self.filtered_side not in FILTERED_SIDES:
            raise ParameterError(f"unknown filtered_side {self.filtered_side!r}")
        if self.filter_application != "exact":
            raise ParameterError(
                f"unknown filter_application {self.filter_application!r}: the "
                "filtered prox is always exact; for a Chebyshev approximation "
                "of a filter call spectral.apply_filter_chebyshev")


@dataclass
class SolverResult:
    """Recovered matrix plus the convergence trace of the run."""

    X: np.ndarray
    iterations: int
    objective_trace: list = field(default_factory=list)
    converged: bool = False
    stop_reason: str = "max_iters"
    change_trace: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# losses and proximal operators
# ---------------------------------------------------------------------------

def loss_value(X: np.ndarray, Y: np.ndarray, loss: str) -> float:
    """phi(X - Y) for the supported losses."""
    if loss not in LOSSES:
        raise ParameterError(f"unknown loss {loss!r}")
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


def prox_loss(X: np.ndarray, Y: np.ndarray, lam: float, loss: str) -> np.ndarray:
    """Proximal operator of lam * phi(. - Y) evaluated at X.

    l1 is the shifted soft threshold, l2 the shrinkage toward Y of the
    squared Frobenius loss (no 1/2 factor), and l21 a per-column block
    shrinkage; a column exactly at the anchor stays at the anchor.
    """
    if lam < 0:
        raise ParameterError(f"prox step must be nonnegative, got {lam}")
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if X.shape != Y.shape:
        raise DataError(f"shape mismatch {X.shape} vs {Y.shape}")
    return _prox_loss(X, Y, lam, loss)


def _prox_loss(X, Y, lam, loss, norms=None):
    """``prox_loss`` without its checks. For l21, ``norms`` may give the
    column norms of X - Y, which a row block of X cannot compute alone."""
    if loss == "l2":
        return (X + 2.0 * lam * Y) / (1.0 + 2.0 * lam)
    R = X - Y
    if loss == "l1":
        # Y + (R - clip(R, -lam, lam)), in row blocks so that the clipped
        # copy stays block-sized
        R2, Y2 = np.atleast_2d(R, Y)
        for rows in _row_blocks(*R2.shape):
            block = R2[rows]
            block -= np.clip(block, -lam, lam)
            block += Y2[rows]
        return R
    if loss == "l21":
        if norms is None:
            norms = np.linalg.norm(np.atleast_2d(R), axis=0)
        scale = np.zeros_like(norms)
        nonzero = norms > 0
        scale[nonzero] = np.maximum(0.0, 1.0 - lam / norms[nonzero])
        return Y + R * scale[None, :]
    raise ParameterError(f"unknown loss {loss!r}")


def frpcag_gradient(X: np.ndarray, Lr: LaplacianMatrix, Lc: LaplacianMatrix,
                    gamma_r: float, gamma_c: float,
                    out: np.ndarray | None = None) -> np.ndarray:
    """Gradient of the two smoothness terms: 2 (gamma_c X Lc + gamma_r Lr X).

    With both terms active, X is walked in row blocks of about BLOCK_BYTES:
    block b of the result needs X[b] Lc and Lr[b] X, which are scaled and
    summed into it while they are still in cache. With one term there is
    nothing to combine, and one whole sparse product is cheaper than a
    sliced one per block. Each output row accumulates its sparse sums in
    the same order whatever the block width, so both ways give the same
    bits. The result is written into
    ``out`` when given (a float64 array of X's shape that does not overlap
    X) and returned.
    """
    X = np.asarray(X, dtype=np.float64)
    p, n = X.shape
    if Lr.shape != (p, p):
        raise DataError(f"row Laplacian is {Lr.shape}, expected {(p, p)}")
    if Lc.shape != (n, n):
        raise DataError(f"column Laplacian is {Lc.shape}, expected {(n, n)}")
    if out is None:
        out = np.empty_like(X)
    elif (out.shape != X.shape or out.dtype != np.float64
          or np.may_share_memory(out, X)):
        raise DataError("out must be a float64 array of X's shape that does "
                        "not overlap X")
    LcT = Lc.matrix.T
    if gamma_r == 0.0 or gamma_c == 0.0:
        if gamma_c != 0.0:
            np.multiply(2.0 * gamma_c, (LcT @ X.T).T, out=out)
        elif gamma_r != 0.0:
            np.multiply(2.0 * gamma_r, Lr.matrix @ X, out=out)
        else:
            out.fill(0.0)
        return out
    for rows in _row_blocks(p, n):
        block = out[rows]
        np.multiply(2.0 * gamma_c, (LcT @ X[rows].T).T, out=block)
        row_part = Lr.matrix[rows] @ X
        row_part *= 2.0 * gamma_r
        block += row_part
    return out


def lipschitz_bound(Lr: LaplacianMatrix, Lc: LaplacianMatrix,
                    gamma_r: float, gamma_c: float) -> float:
    """Upper bound 2 gamma_c ||Lc|| + 2 gamma_r ||Lr|| on the gradient's
    Lipschitz constant. A bound that overflows is refused: its step 1/beta
    would be 0, and 0 times the infinite gradient is NaN."""
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

def _extrapolate(X, X_prev, G, G_prev, S, m, step):
    """The post-prox pass of one FISTA iteration, in row blocks.

    Overwrites X_prev with the extrapolated point S_next = X + m (X - X_prev)
    and G_prev with the next prox input Z = S_next - step * grad f(S_next),
    where the gradient comes from G = grad f(X) and G_prev = grad f(X_prev)
    by linearity: grad f(S_next) = G + m (G - G_prev). Returns
    ||S_next - S||_F^2, ||S||_F^2 and <X, G>.
    """
    diff = ref = inner = 0.0
    for rows in _row_blocks(*X.shape):
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
        diff += _dot(step_rows, step_rows)
        ref += _dot(S[rows], S[rows])
        inner += _dot(x, g)
    return diff, ref, inner


def _dot(a, b):
    # einsum sums in one thread without a temporary array, so the result
    # does not depend on the BLAS thread count
    return float(np.einsum("ij,ij->", a, b))


def _checked_input(Y: np.ndarray, Lr: LaplacianMatrix,
                   Lc: LaplacianMatrix) -> np.ndarray:
    """Y as a C-ordered float64 array, once it is finite and Lr is p x p
    and Lc is n x n."""
    Y = np.ascontiguousarray(Y, dtype=np.float64)
    if not np.isfinite(Y).all():
        raise DataError("input matrix contains NaN or Inf entries")
    p, n = Y.shape
    if Lr.shape != (p, p):
        raise DataError(f"row Laplacian is {Lr.shape}, expected {(p, p)}")
    if Lc.shape != (n, n):
        raise DataError(f"column Laplacian is {Lc.shape}, expected {(n, n)}")
    return Y


def _run(steps, max_iters: int) -> SolverResult:
    """Drive a solver's iterations and collect its traces.

    ``steps`` yields (X, objective, change, converged) once per iteration.
    A yielded X stays valid only until the next step is taken, because
    FISTA writes later iterates into the same buffers, so the loop stops
    without advancing ``steps`` once it converges or reaches max_iters.
    """
    trace, changes = [], []
    for X, objective, change, converged in steps:
        trace.append(objective)
        changes.append(change)
        if converged or len(trace) == max_iters:
            break
    return SolverResult(X=X, iterations=len(trace), objective_trace=trace,
                        converged=converged,
                        stop_reason="tolerance" if converged else "max_iters",
                        change_trace=changes)


def solve_frpcag(Y: np.ndarray, Lr: LaplacianMatrix, Lc: LaplacianMatrix,
                 config: SolverConfig) -> SolverResult:
    """FISTA on the dual-graph objective with step 1/beta.

    Starts from S_1 = X_0 = Y with momentum t_1 = 1 and stops once
    ||S_{j+1} - S_j||_F^2 <= tol * ||S_j||_F^2 or max_iters is reached.
    A zero Lipschitz bound gets a unit step. The gradient is then 0, so the
    first iterate is prox_loss(Y, Y, 1, loss), and the loop stops there
    unless tol is below the rounding error of that prox.

    The graph products are computed once per iteration, at the new iterate
    X_j, and serve three uses. The extrapolation S_{j+1} = X_j
    + m (X_j - X_{j-1}) is linear, so grad f(S_{j+1}) = grad f(X_j)
    + m (grad f(X_j) - grad f(X_{j-1})) needs no product of its own; only
    the first step takes the gradient at Y. Because grad f(X) =
    2 (gamma_c X Lc + gamma_r Lr X), the smooth energy gamma_c tr(X Lc X^T)
    + gamma_r tr(X^T Lr X) equals <X, grad f(X)> / 2, which gives the
    objective trace without further products.
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
    # and the gradient of each iterate is written over the spent Z.
    S, X_prev = Y, Y.copy()
    G_prev = frpcag_gradient(Y, Lr, Lc, gamma_r, gamma_c)
    Z = Y - step * G_prev
    t = 1.0
    while True:
        X = prox_loss(Z, Y, step, config.loss)
        G = frpcag_gradient(X, Lr, Lc, gamma_r, gamma_c, out=Z)
        t_next = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
        diff, ref, inner = _extrapolate(X, X_prev, G, G_prev, S,
                                        (t - 1.0) / t_next, step)
        S, Z, X_prev, G_prev, t = X_prev, G_prev, X, G, t_next
        yield (X, loss_value(X, Y, config.loss) + 0.5 * inner,
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
    ``config.filtered_side`` carries the step-filter penalty, applied
    through its spectral prox; the other graph keeps its plain smoothness
    term, whose gradient is ``frpcag_gradient`` with the filtered side's
    gamma set to 0. The prox needs only the filtered graph's eigenpairs
    below 3b/2, which ``eigendecompose`` finds once per solve with Lanczos
    on the sparse Laplacian (dense ``eigh`` below
    ``spectral.DENSE_EIGH_BELOW`` vertices or when the sparse result cannot
    be certified). Time steps are tau_1 = 1/beta, tau_2 = beta/2,
    tau_3 = 0.99, with beta the ``lipschitz_bound`` of that smooth term,
    and tau_1 = 1, tau_2 = 1/2 when it vanishes. Stops once the relative
    changes of both the primal and the dual iterate fall below tol.
    """
    Y = _checked_input(Y, Lr, Lc)
    if config.filter_spec is None:
        raise ParameterError("solve_gfrpcag requires config.filter_spec")
    if config.filter_spec.family != "prox_fb":
        raise ParameterError("the filtered penalty must use the prox_fb family")
    side = "gamma_c" if config.filtered_side == "column_graph" else "gamma_r"
    if config.filter_spec.gamma != 0.0:
        raise ParameterError(
            "filter_spec.gamma is not used: the filtered penalty on the "
            f"{config.filtered_side} is weighed by config.{side}; set that "
            "and leave filter_spec.gamma at 0")
    if getattr(config, side) == 0.0:
        raise ParameterError(
            f"config.{side} is 0, so the filtered penalty on the "
            f"{config.filtered_side} vanishes; solve_frpcag solves the same "
            "problem without the filter")
    return _run(_primal_dual_steps(Y, Lr, Lc, config), config.max_iters)


def _primal_dual_steps(Y, Lr, Lc, config):
    """The iterations of solve_gfrpcag, in the form ``_run`` takes.

    The filtered penalty is gamma * tr(X g_b(L) X^T) on the filtered side.
    Its prox at the fixed scale 1/tau_2 multiplies the spectral coefficients
    by f_b(lambda, gamma / tau_2), matching the squared-norm fidelity
    convention of the losses, and is applied exactly through an eigenbasis
    of L built once per solve. Frequencies where g_b is infinite act as a
    hard constraint that the prox drives to zero; they are left out of the
    traced penalty so that it stays finite. Since f_b vanishes from 3b/2 on,
    the basis holds only the eigenpairs below 3b/2 (``eigendecompose`` with
    ``below``), an n x m matrix with m often far below n, so the prox and
    the penalty cost O(p n m) per iteration. g_b is also infinite on a
    band about b/745 wide just below 3b/2, where the bump in its
    denominator underflows, so the penalty still masks non-finite values.

    Each iteration walks X, V, G and Y once, in the row blocks of
    ``_row_blocks``, and finishes a block while its rows are in cache: the
    loss prox P, the dual input T = V + tau_2 (2P - X) and its filtered
    prox, X_next and V_next, written over X and V, and the block's parts
    of the change norms, the loss and the frequency energy of X_next. Two
    steps need every row, and each gets a pre-sweep over the same blocks
    that recomputes the row-local values and keeps only the reduction: the
    column norms of the l21 prox input, and on the row side the m x n
    coefficients Q^T (T / tau_2) of the filtered prox. The column side
    with l1 or l2 needs neither. After the pass one ``frpcag_gradient``
    at X_next serves the objective and the next iteration's step. With
    one block every operation is the whole-array one, in the same order.
    """
    if config.filtered_side == "column_graph":
        L, gamma, axis = Lc, config.gamma_c, "right"
        gamma_r, gamma_c = config.gamma_r, 0.0
    else:
        L, gamma, axis = Lr, config.gamma_r, "left"
        gamma_r, gamma_c = 0.0, config.gamma_c
    beta = lipschitz_bound(Lr, Lc, gamma_r, gamma_c)
    if beta > 0.0:
        tau1, tau2 = 1.0 / beta, beta / 2.0
    else:
        tau1, tau2 = 1.0, 0.5
    tau3 = 0.99
    b = config.filter_spec.b
    basis = eigendecompose(L, below=1.5 * b)
    Q = basis.eigenvectors
    m, n = Q.shape[1], Y.shape[1]
    response = eval_filter(FilterSpec(family="prox_fb", b=b,
                                      gamma=(1.0 / tau2) * gamma),
                           basis.eigenvalues)
    curve = eval_filter(FilterSpec(family="step_gb", b=b), basis.eigenvalues)
    finite = np.isfinite(curve)
    finite_curve = curve[finite]
    loss, blocks = config.loss, _row_blocks(*Y.shape)

    X = Y.copy()
    V = Y.copy()
    # one gradient per iterate: the energy of X_next and the gradient step
    # of the next iteration share it
    G = frpcag_gradient(X, Lr, Lc, gamma_r, gamma_c)

    def prox_input(rows):
        # X - tau_1 (G + V)
        z = G[rows] + V[rows]
        z *= tau1
        return np.subtract(X[rows], z, out=z)

    def primal_dual(rows, norms):
        # P and T = V + tau_2 (2P - X)
        P = _prox_loss(prox_input(rows), Y[rows], tau1, loss, norms)
        T = 2.0 * P
        T -= X[rows]
        T *= tau2
        T += V[rows]
        return P, T

    while True:
        norms = coeffs = None
        if loss == "l21":
            squares = np.zeros(n)
            for rows in blocks:
                R = prox_input(rows)
                R -= Y[rows]
                squares += _loss_sums(R, loss)
            norms = np.sqrt(squares)
        if axis == "left":
            coeffs = np.zeros((m, n))
            for rows in blocks:
                coeffs += Q[rows].T @ (primal_dual(rows, norms)[1] / tau2)
            coeffs = response[:, None] * coeffs
        loss_sums = dx = x_ref = dv = v_ref = 0.0
        # the energy of each frequency; on the row side the coefficients
        # Q^T X_next, squared once every block is in
        energy = np.zeros(m if axis == "right" else (m, n))
        for rows in blocks:
            x, v = X[rows], V[rows]
            P, T = primal_dual(rows, norms)
            if axis == "right":
                D = ((T / tau2) @ Q * response[None, :]) @ Q.T
            else:
                D = Q[rows] @ coeffs
            # D = T - tau_2 prox(T / tau_2), then V_next = V + tau_3 (D - V)
            D *= tau2
            np.subtract(T, D, out=D)
            D -= v
            D *= tau3
            D += v
            # P becomes X_next = X + tau_3 (P - X)
            P -= x
            P *= tau3
            P += x
            if axis == "right":
                energy += ((P @ Q) ** 2).sum(axis=0)
            else:
                energy += Q[rows].T @ P
            loss_sums = loss_sums + _loss_sums(P - Y[rows], loss)
            dx += _squared_change(P, x)
            x_ref += float(np.sum(x * x))
            dv += _squared_change(D, v)
            v_ref += float(np.sum(v * v))
            x[...] = P
            v[...] = D
        if axis == "left":
            energy = (energy ** 2).sum(axis=1)
        frpcag_gradient(X, Lr, Lc, gamma_r, gamma_c, out=G)
        objective = (_loss_total(loss_sums, loss) + 0.5 * _dot(X, G)
                     + gamma * float(np.sum(finite_curve * energy[finite])))
        dx /= x_ref + STOP_DELTA
        dv /= v_ref + STOP_DELTA
        yield X, objective, max(dx, dv), dx < config.tol and dv < config.tol


def _squared_change(new, old):
    d = new - old
    return float(np.sum(d * d))

