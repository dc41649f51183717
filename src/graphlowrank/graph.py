"""Exact K-nearest-neighbor similarity graphs and their Laplacian operators.

A graph is built between the rows (features) or the columns (samples) of a
data matrix. All graphs are undirected with symmetric nonnegative weights
and a zero diagonal; directed KNN selections are symmetrized by taking the
elementwise maximum of the weight matrix and its transpose, which preserves
every selected weight.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sparse

from .errors import (DataError, ParameterError, _check_choice, _check_integer,
                     _check_number)

AXES = ("rows", "columns")
METRICS = ("euclidean", "cityblock")
WEIGHTINGS = ("gaussian", "binary", "correlation")
LAPLACIAN_KINDS = ("normalized", "unnormalized")

# Row blocks of the KNN pass and of the solvers' passes hold about this
# many bytes per operand: a KNN block's N-wide rows cap its memory at
# O(block * N), and a solver block stays in L2 cache while it is combined.
BLOCK_BYTES = 512 * 1024


def _row_blocks(count: int, width: int) -> list:
    """Row slices of a count x width float64 array, about BLOCK_BYTES each.

    Rows wider than 2048 get the height of 2048-wide ones, 32 rows at
    512 KiB: a block's GEMM streams the whole other operand, which a few
    rows at a time make memory-bound, and each operand stays O(width).
    """
    rows = max(1, BLOCK_BYTES // (8 * min(max(width, 1), 2048)))
    return [slice(start, min(start + rows, count))
            for start in range(0, count, rows)]


@dataclass(frozen=True)
class DataMatrix:
    """A p x n real matrix with rows as features and columns as samples."""

    values: np.ndarray

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise DataError(f"data matrix must be 2-D, got shape {values.shape}")
        if not np.isfinite(values).all():
            raise DataError("data matrix contains NaN or Inf entries")
        object.__setattr__(self, "values", values)

    @classmethod
    def from_csv(cls, path, orientation: str = "rows") -> "DataMatrix":
        """Load a matrix from CSV, one row per feature by default.

        With orientation="columns" the file stores one row per sample and
        the result is transposed back to feature-major form.
        """
        _check_choice("orientation", orientation, AXES)
        values = load_matrix_csv(path)
        return cls(values.T if orientation == "columns" else values)


@dataclass(frozen=True)
class SparseGraph:
    """Undirected weighted graph: symmetric nonnegative weights, no loops."""

    num_vertices: int
    weights: sparse.csr_matrix = field(repr=False)

    @classmethod
    def from_weight_matrix(cls, weights) -> "SparseGraph":
        weights = sparse.csr_matrix(weights, dtype=np.float64)
        weights.eliminate_zeros()
        weights.sort_indices()
        if weights.shape[0] != weights.shape[1]:
            raise DataError(f"weight matrix must be square, got {weights.shape}")
        if weights.diagonal().any():
            raise DataError("weight matrix has nonzero diagonal entries")
        if (weights.data < 0).any():
            raise DataError("weight matrix has negative entries")
        asym = abs(weights - weights.T)
        if asym.nnz and asym.max() > 1e-12:
            raise DataError("weight matrix is not symmetric")
        return cls(num_vertices=weights.shape[0], weights=weights)

    def degrees(self) -> np.ndarray:
        return np.asarray(self.weights.sum(axis=1)).ravel()

    def edge_arrays(self):
        """Canonical edge list (i, j, w) with i < j, sorted lexicographically."""
        coo = sparse.triu(self.weights, k=1).tocoo()
        order = np.lexsort((coo.col, coo.row))
        return coo.row[order], coo.col[order], coo.data[order]

    @property
    def num_edges(self) -> int:
        return sparse.triu(self.weights, k=1).nnz


@dataclass(frozen=True)
class LaplacianMatrix:
    """Symmetric PSD graph Laplacian with a cached spectral-norm bound."""

    matrix: sparse.csr_matrix = field(repr=False)
    spectral_norm_bound: float

    @property
    def shape(self):
        return self.matrix.shape

    def dense(self) -> np.ndarray:
        return self.matrix.toarray()


def knn_graph(data: DataMatrix, axis: str, k: int, weighting: str = "gaussian",
              sigma="auto", metric: str = "euclidean") -> SparseGraph:
    """Build the exact K-nearest-neighbor graph of the rows or columns.

    Each vector is connected to its k closest peers (Euclidean by default,
    "cityblock" optionally); ties are broken toward the smaller index. The
    selected pairs are weighted by the chosen scheme:

    * gaussian: exp(-d(i,j)^2 / sigma^2); sigma="auto" sets sigma^2 to the
      mean squared distance over the retained pairs.
    * binary: every selected edge has weight 1.
    * correlation: cosine of the two vectors, clamped below at 0 so weights
      stay nonnegative.
    """
    _check_choice("axis", axis, AXES)
    # the GEMM, the cityblock cdist and the pair gathers below all read
    # whole vectors; for columns a contiguous copy keeps them fast
    vectors = (data.values if axis == "rows"
               else np.ascontiguousarray(data.values.T))
    count = vectors.shape[0]
    if count < 2:
        raise DataError(f"need at least 2 vectors along {axis}, got {count}")
    _check_integer("k", k, 1, count - 1)
    _check_choice("weighting", weighting, WEIGHTINGS)
    _check_choice("metric", metric, METRICS)

    if metric == "euclidean":
        screen = _GramScreen(vectors)
    else:
        # imported here: scipy.spatial loads scipy.special with it, about
        # 0.15 s and 14 MiB of every process that would import it
        from scipy.spatial.distance import cdist
    neighbors = np.empty((count, k), dtype=np.intp)
    pair_dist = np.empty((count, k))
    for block in _row_blocks(count, count):
        start = block.start
        local = np.arange(block.stop - start)
        if metric == "euclidean":
            approx, lower, slack = screen.block(block)
        else:  # cityblock distances are cheap to get exactly
            approx = lower = cdist(vectors[block], vectors, metric="cityblock")
            slack = 0.0
        approx[local, local + start] = np.inf
        kth = np.partition(approx, k - 1, axis=1)[:, k - 1]
        # candidates: every j whose distance may be at or below the k-th
        # exact one; the vector itself stays in at distance inf, as on
        # the diagonal of a full distance matrix
        keep = lower <= (kth + slack)[:, None]
        keep[local, local + start] = True
        # row-major: rows ascending, and each row's candidates ascending
        rows, cand = np.nonzero(keep)
        if metric == "euclidean":
            dist = np.full(rows.size, np.inf)
            other = cand != rows + start
            dist[other] = _euclidean_distances(vectors, rows[other] + start,
                                               cand[other])
        else:  # the screen is exact, inf on the diagonal included
            dist = approx[rows, cand]
        # a stable sort by distance within each row breaks ties toward the
        # smaller index, which makes the result deterministic; every row
        # has at least k + 1 candidates
        order = np.lexsort((dist, rows))
        pick = order[np.searchsorted(rows, local)[:, None] + np.arange(k)]
        neighbors[block] = cand[pick]
        pair_dist[block] = dist[pick]

    rows = np.repeat(np.arange(count), k)
    cols = neighbors.ravel()
    pair_dist = pair_dist.ravel()

    if weighting == "gaussian":
        if sigma == "auto":
            sigma_sq = float(np.mean(pair_dist ** 2))
            if sigma_sq == 0.0:
                sigma_sq = 1.0  # all selected pairs coincide; exp(0) = 1
        else:
            sigma = float(sigma)
            _check_number("sigma", sigma, exclusive=True)
            sigma_sq = sigma * sigma
            if sigma_sq == 0.0:
                raise ParameterError(f"sigma={sigma} is too small: its "
                                     "square underflows to 0")
        scaled = pair_dist ** 2
        # a subnormal sigma^2 sends d^2 / sigma^2 to inf, and the weight to
        # 0, as the underflow of exp does for a larger sigma
        with np.errstate(over="ignore"):
            scaled /= sigma_sq
        vals = np.exp(-scaled)
    elif weighting == "binary":
        vals = np.ones_like(pair_dist)
    else:  # correlation
        norms = np.linalg.norm(vectors, axis=1)
        if (norms == 0).any():
            raise DataError("correlation weighting is undefined for zero-norm vectors")
        inner = np.einsum("ij,ij->i", vectors[rows], vectors[cols])
        vals = inner / (norms[rows] * norms[cols])
        vals = np.maximum(vals, 0.0)  # negative correlations carry no edge

    directed = sparse.coo_matrix((vals, (rows, cols)), shape=(count, count)).tocsr()
    symmetric = directed.maximum(directed.T)
    return SparseGraph.from_weight_matrix(symmetric)


def _euclidean_distances(vectors: np.ndarray, rows: np.ndarray,
                         cols: np.ndarray) -> np.ndarray:
    """The Euclidean distance of each pair (rows[t], cols[t]) of vectors.

    np.cumsum adds the squared differences in feature order, the order of
    cdist's per-pair loop, so the bits are cdist's; the oracle tests check
    them on the pinned numpy and scipy. A sum past the float range is inf,
    as in cdist, and raises no warning.
    """
    sums = np.zeros(rows.size)
    if vectors.shape[1]:
        with np.errstate(over="ignore"):
            for chunk in _row_blocks(rows.size, vectors.shape[1]):
                diff = vectors[cols[chunk]]
                diff -= vectors[rows[chunk]]
                diff *= diff
                sums[chunk] = np.cumsum(diff, axis=1, out=diff)[:, -1]
    return np.sqrt(sums, out=sums)


class _GramScreen:
    """Squared Euclidean distances in Gram form, with a certified error.

    The vectors are scaled by 2^e, which puts the largest entry in
    [1/2, 1) without rounding, and centred, which leaves the distances
    alone and shrinks the norms the rounding error grows with. For these
    vectors c a block's screen s_ij = max(|c_i|^2 + |c_j|^2 - 2 c_i.c_j, 0)
    is one GEMM, and with D_ij the exact distance of
    ``_euclidean_distances``,

        |s_ij - 4^e D_ij^2| <= m_ij = K u (|c_i|^2 + |c_j|^2) + floor,

    u the unit roundoff and K = 8 (d + 4), twice the sum of the bounds for
    the dot products, the centring and the exact stage's sum (Higham,
    Accuracy and Stability of Numerical Algorithms, ch. 3). That sum is
    np.cumsum's, in feature order like cdist's, whose bits the oracle
    tests check on the pinned numpy and scipy. ``floor`` bounds what
    underflow adds. With t the k-th smallest s_ij of a row, at least k
    vectors have 4^e D^2 <= t + max_j m_ij, so each of the k nearest has
    s_ij - m_ij <= t + max_j m_ij.
    """

    def __init__(self, vectors: np.ndarray):
        d = vectors.shape[1]
        big = float(np.abs(vectors).max(initial=0.0))
        e = -math.frexp(big)[1]
        self.centred = np.ldexp(vectors, e)
        self.centred -= self.centred.mean(axis=0)
        self.sq_norms = np.einsum("ij,ij->i", self.centred, self.centred)
        K = 8 * (d + 4)
        self.rel = K * np.finfo(np.float64).eps / 2
        # the exact sum's underflow is absolute in the unscaled units, so
        # 4^e times larger here. A squared distance past the float range
        # makes the exact distance inf, which no screen value bounds:
        # every j is kept then.
        floor_exp = max(2 * e, 0) - 1069
        if floor_exp > 1000 or math.log2(4 * max(d, 1)) - 2 * e > 1020:
            self.floor = np.inf
        else:
            self.floor = K * math.ldexp(1.0, floor_exp)
        self.max_norm = self.sq_norms.max()

    def block(self, rows: slice):
        """The screen, the screen minus m_ij, and max_j m_ij per row."""
        norm_sum = self.sq_norms[rows, None] + self.sq_norms
        approx = self.centred[rows] @ self.centred.T
        approx *= -2.0
        approx += norm_sum
        np.maximum(approx, 0.0, out=approx)
        norm_sum *= self.rel
        norm_sum += self.floor
        lower = np.subtract(approx, norm_sum, out=norm_sum)
        slack = self.rel * (self.sq_norms[rows] + self.max_norm) + self.floor
        return approx, lower, slack


def laplacian(g: SparseGraph, kind: str = "normalized") -> LaplacianMatrix:
    """Graph Laplacian: D - W, or I - D^{-1/2} W D^{-1/2} when normalized.

    Isolated vertices contribute a zero row and column under both kinds;
    the normalized form treats their D^{-1/2} entry as 0, which keeps the
    operator PSD. Weights whose sums overflow a degree or the norm bound
    are a DataError.
    """
    _check_choice("Laplacian kind", kind, LAPLACIAN_KINDS)
    with np.errstate(over="ignore"):
        d = g.degrees()
    if not np.isfinite(d).all():
        raise DataError("edge weights overflow a vertex degree")
    if kind == "unnormalized":
        mat = sparse.diags(d) - g.weights
        # Anderson-Morley: lambda_max(D - W) <= max over edges {i, j} of
        # d_i + d_j, a certified upper bound (0 for an edgeless graph)
        coo = g.weights.tocoo()
        with np.errstate(over="ignore"):
            bound = float(np.max(d[coo.row] + d[coo.col], initial=0.0))
        if not np.isfinite(bound):
            raise DataError("edge weights overflow the Laplacian's norm bound")
    else:
        inv_sqrt = _inv_sqrt_degrees(d)
        scaling = sparse.diags(inv_sqrt)
        mat = sparse.diags((d > 0).astype(np.float64)) - scaling @ g.weights @ scaling
        bound = 2.0
    mat = mat.tocsr()
    mat.eliminate_zeros()
    return LaplacianMatrix(matrix=mat, spectral_norm_bound=bound)


def _inv_sqrt_degrees(d: np.ndarray) -> np.ndarray:
    """1/sqrt(d) for positive degrees and 0 for isolated vertices."""
    inv_sqrt = np.zeros_like(d)
    positive = d > 0
    inv_sqrt[positive] = 1.0 / np.sqrt(d[positive])
    return inv_sqrt


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def format_float(x) -> str:
    """Shortest decimal that round-trips the float, locale independent."""
    return repr(float(x))


def save_matrix_csv(path, values) -> None:
    values = np.atleast_2d(np.asarray(values, dtype=np.float64))
    with _open(path, "w") as fh:
        # repr of the Python floats of tolist() is format_float; one row of
        # them at a time, not 32 bytes per entry of the whole matrix
        for row in values:
            fh.write(",".join(map(repr, row.tolist())))
            fh.write("\n")


def _open(path, mode):
    """path opened to read ("r") or to write ("w"); an OSError, such as a
    missing file or directory, is a DataError that names the path."""
    try:
        return open(path, mode, encoding="utf-8")
    except OSError as exc:
        verb = "read" if mode == "r" else "write"
        raise DataError(f"cannot {verb} {path}: {exc}") from None


def load_matrix_csv(path) -> np.ndarray:
    with _open(path, "r") as fh:
        try:
            with warnings.catch_warnings():
                # an empty file warns here; the line parser reports it
                warnings.simplefilter("ignore", UserWarning)
                values = np.loadtxt(fh, delimiter=",", ndmin=2, comments=None)
        except ValueError:
            values = None
        if values is None or values.shape[0] == 0:
            # what loadtxt does not take, the line parser accepts (blank
            # lines, "1_0") or rejects with the line number in its message
            fh.seek(0)
            values = _parse_csv_lines(path, fh)
    if not np.isfinite(values).all():
        raise DataError(f"{path}: matrix contains NaN or Inf entries")
    return values


def _parse_csv_lines(path, fh) -> np.ndarray:
    rows = []
    width = None
    for lineno, line in enumerate(fh, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            row = [float(tok) for tok in stripped.split(",")]
        except ValueError as exc:
            raise DataError(f"{path}: malformed CSV row at line {lineno}: {exc}")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise DataError(
                f"{path}: line {lineno} has {len(row)} fields, expected {width}")
        rows.append(row)
    if not rows:
        raise DataError(f"{path}: no data rows")
    return np.asarray(rows, dtype=np.float64)


def save_edge_list(g: SparseGraph, path) -> None:
    """Write "i<TAB>j<TAB>w" lines with i < j under a "#vertices N" header."""
    ei, ej, ew = g.edge_arrays()
    with _open(path, "w") as fh:
        fh.write(f"#vertices {g.num_vertices}\n")
        for i, j, w in zip(ei, ej, ew):
            fh.write(f"{int(i)}\t{int(j)}\t{format_float(w)}\n")


def load_edge_list(path) -> SparseGraph:
    num_vertices = None
    rows, cols, vals = [], [], []
    first_line = {}  # (i, j) -> line number, to reject duplicate edges
    with _open(path, "r") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            if stripped.startswith("#vertices"):
                if num_vertices is not None:
                    raise DataError(f"{path}: line {lineno}: second '#vertices' header")
                try:
                    num_vertices = int(stripped.split()[1])
                except (IndexError, ValueError):
                    raise DataError(f"{path}: bad header at line {lineno}")
                if num_vertices < 1:
                    raise DataError(f"{path}: line {lineno}: vertex count "
                                    f"{num_vertices} is below 1")
                continue
            parts = stripped.split("\t")
            if len(parts) != 3:
                raise DataError(f"{path}: line {lineno}: expected i<TAB>j<TAB>w")
            try:
                i, j, w = int(parts[0]), int(parts[1]), float(parts[2])
            except ValueError as exc:
                raise DataError(f"{path}: line {lineno}: {exc}")
            if i >= j:
                raise DataError(f"{path}: line {lineno}: edges must satisfy i < j")
            if w < 0 or not np.isfinite(w):
                raise DataError(f"{path}: line {lineno}: weight must be finite and >= 0")
            if (i, j) in first_line:
                raise DataError(f"{path}: line {lineno}: duplicate edge {i} {j} "
                                f"(first at line {first_line[i, j]})")
            first_line[i, j] = lineno
            rows.append(i)
            cols.append(j)
            vals.append(w)
    if num_vertices is None:
        raise DataError(f"{path}: missing '#vertices N' header")
    # every line has i < j, so min(rows) and max(cols) bound all endpoints
    if rows and (min(rows) < 0 or max(cols) >= num_vertices):
        raise DataError(f"{path}: edge endpoint out of range")
    upper = sparse.coo_matrix((vals, (rows, cols)),
                              shape=(num_vertices, num_vertices))
    return SparseGraph.from_weight_matrix(upper + upper.T)
