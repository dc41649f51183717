import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sparse
import scipy.sparse.csgraph as csgraph
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from graphlowrank import graph

from graphlowrank import (DataError, DataMatrix, DegenerateGraphError,
                          ParameterError, SparseGraph, graph_divergence,
                          graph_gradient, knn_graph, laplacian, load_edge_list,
                          load_matrix_csv, num_connected_components,
                          save_edge_list, save_matrix_csv)
from graphlowrank.graph import WEIGHTINGS, format_float
from graphlowrank.spectral import eigendecompose

from conftest import path_graph_weights, random_graph


def brute_force_knn_pairs(points, k):
    """Independent KNN oracle: sort all pair distances per vertex."""
    pairs = set()
    n = len(points)
    for i in range(n):
        dists = sorted((np.linalg.norm(points[i] - points[j]), j)
                       for j in range(n) if j != i)
        for _, j in dists[:k]:
            pairs.add((min(i, j), max(i, j)))
    return pairs


class TestKnnGraph:
    def test_collinear_points_binary(self):
        data = DataMatrix(np.array([[0.0, 1.0, 2.0]]))
        g = knn_graph(data, axis="columns", k=1, weighting="binary")
        ei, ej, ew = g.edge_arrays()
        assert list(zip(ei.tolist(), ej.tolist())) == [(0, 1), (1, 2)]
        assert np.allclose(ew, 1.0)

    def test_identical_points_gaussian(self):
        data = DataMatrix(np.zeros((3, 2)))
        for sigma in ("auto", 0.5, 2.0):
            g = knn_graph(data, axis="columns", k=1, weighting="gaussian",
                          sigma=sigma)
            _, _, ew = g.edge_arrays()
            assert g.num_edges == 1
            assert ew[0] == 1.0

    def test_gaussian_auto_matches_brute_force(self, rng):
        points = rng.standard_normal((10, 2))
        data = DataMatrix(points.T)
        g = knn_graph(data, axis="columns", k=3, weighting="gaussian")
        ei, ej, ew = g.edge_arrays()
        assert np.all(ew > 0) and np.all(ew <= 1.0)
        W = g.weights.toarray()
        assert np.allclose(W, W.T)
        assert set(zip(ei.tolist(), ej.tolist())) == brute_force_knn_pairs(points, 3)

    def test_each_vertex_has_at_least_k_neighbors(self, rng):
        data = DataMatrix(rng.standard_normal((3, 25)))
        for k in (1, 3, 6):
            g = knn_graph(data, axis="columns", k=k)
            neighbor_counts = np.diff(g.weights.indptr)
            assert (neighbor_counts >= k).all()

    def test_rows_axis(self, rng):
        values = rng.standard_normal((8, 5))
        g = knn_graph(DataMatrix(values), axis="rows", k=2)
        assert g.num_vertices == 8

    def test_correlation_weighting(self, rng):
        values = np.abs(rng.standard_normal((4, 12))) + 0.1
        g = knn_graph(DataMatrix(values), axis="columns", k=3,
                      weighting="correlation")
        _, _, ew = g.edge_arrays()
        assert np.all(ew >= 0) and np.all(ew <= 1.0 + 1e-12)

    def test_correlation_weights_are_clamped_cosines(self, rng):
        values = rng.standard_normal((6, 30))
        g = knn_graph(DataMatrix(values), axis="columns", k=4,
                      weighting="correlation")
        points = values.T
        unit = points / np.linalg.norm(points, axis=1)[:, None]
        expected = {(i, j): max(float(unit[i] @ unit[j]), 0.0)
                    for i, j in brute_force_knn_pairs(points, 4)}
        ei, ej, ew = g.edge_arrays()
        # a negative correlation is clamped to 0, which leaves no edge
        assert set(zip(ei.tolist(), ej.tolist())) == {
            pair for pair, w in expected.items() if w > 0}
        np.testing.assert_allclose(
            ew, [expected[pair] for pair in zip(ei.tolist(), ej.tolist())],
            rtol=1e-13, atol=0)

    def test_correlation_zero_vector_rejected(self):
        values = np.array([[1.0, 0.0, 2.0], [1.0, 0.0, 1.0]])
        with pytest.raises(DegenerateGraphError):
            knn_graph(DataMatrix(values), axis="columns", k=1,
                      weighting="correlation")

    def test_k_too_large_rejected(self, rng):
        data = DataMatrix(rng.standard_normal((2, 5)))
        with pytest.raises(ParameterError):
            knn_graph(data, axis="columns", k=5)
        with pytest.raises(ParameterError):
            knn_graph(data, axis="columns", k=0)

    @pytest.mark.parametrize("weighting", WEIGHTINGS)
    def test_columns_are_the_rows_of_the_transpose(self, rng, weighting):
        # the column graph runs on a contiguous copy of the transpose
        D = DataMatrix(rng.standard_normal((7, 30)))
        by_columns = knn_graph(D, "columns", 4, weighting=weighting)
        by_rows = knn_graph(DataMatrix(D.values.T), "rows", 4,
                            weighting=weighting)
        for got, expected in zip(by_columns.edge_arrays(),
                                 by_rows.edge_arrays()):
            assert np.array_equal(got, expected)

    def test_cityblock_metric(self, rng):
        data = DataMatrix(rng.standard_normal((2, 10)))
        g = knn_graph(data, axis="columns", k=2, metric="cityblock")
        assert g.num_edges >= 10

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(5, 20), k=st.integers(1, 4))
    def test_structure_invariants(self, seed, n, k):
        rng = np.random.default_rng(seed)
        g = knn_graph(DataMatrix(rng.standard_normal((3, n))), "columns",
                      k=min(k, n - 1))
        W = g.weights
        assert W.diagonal().sum() == 0.0
        assert (W.data >= 0).all()
        assert abs(W - W.T).max() <= 1e-15


def full_matrix_knn_graph(data, axis, k, weighting="gaussian", sigma="auto",
                          metric="euclidean"):
    """Oracle: the whole N x N cdist matrix and a stable argsort per row."""
    vectors = np.ascontiguousarray(data.values if axis == "rows" else data.values.T)
    count = vectors.shape[0]
    dist = cdist(vectors, vectors, metric=metric)
    np.fill_diagonal(dist, np.inf)
    neighbors = np.argsort(dist, axis=1, kind="stable")[:, :k]
    rows = np.repeat(np.arange(count), k)
    cols = neighbors.ravel()
    pair_dist = dist[rows, cols]
    if weighting == "gaussian":
        if sigma == "auto":
            sigma_sq = float(np.mean(pair_dist ** 2)) or 1.0
        else:
            sigma_sq = float(sigma) ** 2
        vals = np.exp(-(pair_dist ** 2) / sigma_sq)
    elif weighting == "binary":
        vals = np.ones_like(pair_dist)
    else:
        norms = np.linalg.norm(vectors, axis=1)
        if (norms == 0).any():
            raise DegenerateGraphError(
                "correlation weighting is undefined for zero-norm vectors")
        inner = np.einsum("ij,ij->i", vectors[rows], vectors[cols])
        vals = np.maximum(inner / (norms[rows] * norms[cols]), 0.0)
    directed = sparse.coo_matrix((vals, (rows, cols)), shape=(count, count)).tocsr()
    return SparseGraph.from_weight_matrix(directed.maximum(directed.T))


def assert_same_as_full_matrix(data, axis, k, **kwargs):
    """knn_graph gives the oracle's edges and weights bit for bit, or fails
    with the same error."""
    outcomes = []
    for build in (knn_graph, full_matrix_knn_graph):
        with warnings.catch_warnings():
            # distances past the float range give inf and nan weights
            warnings.simplefilter("ignore", RuntimeWarning)
            try:
                outcomes.append(build(data, axis, k, **kwargs).edge_arrays())
            except (DataError, DegenerateGraphError) as exc:
                outcomes.append((type(exc), str(exc)))
    got, expected = outcomes
    if isinstance(expected[0], type):
        assert got == expected
    else:
        for a, b in zip(got, expected):
            assert np.array_equal(a, b, equal_nan=True)


class TestKnnMatchesFullMatrix:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), count=st.integers(2, 14), dim=st.integers(1, 4),
           distinct=st.integers(1, 14), block=st.integers(1, 5),
           scale=st.sampled_from([1.0, 0.1, 1e-150, 1e-160, 1e150, 1e160]),
           offset=st.sampled_from([0.0, 1e6]),
           axis=st.sampled_from(["rows", "columns"]),
           weighting=st.sampled_from(WEIGHTINGS),
           metric=st.sampled_from(["euclidean", "cityblock"]))
    def test_ties_and_lattices(self, data, count, dim, distinct, block, scale,
                               offset, axis, weighting, metric):
        # a few distinct points of a small integer lattice, each repeated,
        # so that most distances tie exactly; scale 0.1 makes near ties,
        # 1e-160 squares that underflow and 1e160 distances past the float
        # range
        lattice = data.draw(st.lists(
            st.lists(st.integers(-2, 2), min_size=dim, max_size=dim),
            min_size=min(distinct, count), max_size=min(distinct, count)))
        picks = data.draw(st.lists(st.integers(0, len(lattice) - 1),
                                   min_size=count, max_size=count))
        vectors = offset + scale * np.array([lattice[i] for i in picks], float)
        values = vectors if axis == "rows" else vectors.T
        k = data.draw(st.integers(1, count - 1))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph, "BLOCK_BYTES", 8 * count * block)  # block rows
            assert_same_as_full_matrix(DataMatrix(values), axis, k,
                                       weighting=weighting, metric=metric)

    @pytest.mark.parametrize("weighting", WEIGHTINGS)
    def test_large_common_offset(self, rng, weighting):
        # the Gram form cancels about 12 of 16 digits at 1e6 without centring
        values = 1e6 + rng.standard_normal((5, 300))
        assert_same_as_full_matrix(DataMatrix(values), "columns", 7,
                                   weighting=weighting)
        assert_same_as_full_matrix(DataMatrix(values.T), "rows", 7,
                                   weighting=weighting)

    @pytest.mark.parametrize("scale", [1e-150, 1e-160, 1e-310])
    def test_tiny_scale(self, rng, scale):
        # squared entries near and below the smallest normal float
        values = scale * rng.standard_normal((4, 200))
        for weighting in WEIGHTINGS:
            assert_same_as_full_matrix(DataMatrix(values), "columns", 5,
                                       weighting=weighting)

    @pytest.mark.parametrize("metric", ["euclidean", "cityblock"])
    def test_several_row_blocks(self, rng, metric):
        count = 600
        assert count // max(1, graph.BLOCK_BYTES // (8 * count)) >= 4
        values = rng.standard_normal((count, 3))
        values[::7] = values[1::7][:len(values[::7])]  # exact duplicates
        for weighting in WEIGHTINGS:
            assert_same_as_full_matrix(DataMatrix(values), "rows", 10,
                                       weighting=weighting, metric=metric)

    @pytest.mark.parametrize("weighting", WEIGHTINGS)
    @pytest.mark.parametrize("metric", ["euclidean", "cityblock"])
    def test_distances_past_the_float_range(self, weighting, metric):
        # cdist returns inf between the three groups, and the full matrix
        # breaks those ties by index: the far vector 6 takes 0 and 1, though
        # 3 and 4 are nearer
        b, c = (1.4e155, 1.5e155) if metric == "euclidean" else (1e308, 1.1e308)
        line = [b, b * (1 + 1e-10), b * (1 + 2e-10), 0.0, 1.0, 2.0, -c]
        values = np.array([line, line if metric == "cityblock" else [1.0] * 7])
        oracle = full_matrix_knn_graph(DataMatrix(values), "columns", 2,
                                       weighting="binary", metric=metric)
        assert oracle.weights[6, 0] == oracle.weights[6, 1] == 1.0
        assert_same_as_full_matrix(DataMatrix(values), "columns", 2,
                                   weighting=weighting, metric=metric)

    def test_fixed_sigma(self, rng):
        data = DataMatrix(np.round(rng.standard_normal((3, 80)), 1))
        assert_same_as_full_matrix(data, "columns", 6, sigma=0.7)

    @pytest.mark.parametrize("sigma", [np.nan, np.inf, 0.0, -1.0])
    def test_bad_sigma_rejected(self, rng, sigma):
        data = DataMatrix(rng.standard_normal((3, 20)))
        with pytest.raises(ParameterError):
            knn_graph(data, "columns", 3, sigma=sigma)

    def test_memory_stays_below_the_distance_matrix(self, rng):
        count = 3000
        data = DataMatrix(rng.standard_normal((count, 5)))
        tracemalloc.start()
        try:
            knn_graph(data, "rows", 10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < count * count * 8 / 4


@pytest.mark.parametrize("width, rows", [(1, 65536), (1500, 43), (2048, 32),
                                         (20000, 32)])
def test_rows_per_block(width, rows):
    # 512 KiB per block operand up to width 2048, 32 rows beyond it
    blocks = graph._row_blocks(100000, width)
    assert {b.stop - b.start for b in blocks[:-1]} == {rows}
    assert blocks[0].start == 0 and blocks[-1].stop == 100000
    assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))


class TestLaplacian:
    def test_two_vertex_unnormalized(self):
        g = SparseGraph.from_weight_matrix([[0.0, 1.0], [1.0, 0.0]])
        L = laplacian(g, "unnormalized")
        assert np.allclose(L.dense(), [[1.0, -1.0], [-1.0, 1.0]])
        assert np.allclose(np.linalg.eigvalsh(L.dense()), [0.0, 2.0])

    def test_two_vertex_normalized_same(self):
        g = SparseGraph.from_weight_matrix([[0.0, 1.0], [1.0, 0.0]])
        L = laplacian(g, "normalized")
        assert np.allclose(L.dense(), [[1.0, -1.0], [-1.0, 1.0]])

    def test_path4_spectrum_closed_form(self):
        g = SparseGraph.from_weight_matrix(path_graph_weights(4))
        L = laplacian(g, "unnormalized")
        expected = 2.0 - 2.0 * np.cos(np.arange(4) * np.pi / 4)
        assert np.allclose(np.sort(np.linalg.eigvalsh(L.dense())),
                           np.sort(expected))

    def test_unnormalized_rows_sum_to_zero(self, rng):
        g = random_graph(rng, n=15, k=3)
        L = laplacian(g, "unnormalized")
        assert np.abs(L.dense().sum(axis=1)).max() <= 1e-12

    def test_normalized_eigenvalues_in_0_2(self, rng):
        for _ in range(3):
            g = random_graph(rng, n=14, k=3)
            L = laplacian(g, "normalized")
            eigs = np.linalg.eigvalsh(L.dense())
            assert eigs.min() >= -1e-10
            assert eigs.max() <= 2.0 + 1e-10

    def test_psd_on_random_vectors(self, rng):
        g = random_graph(rng, n=12, k=3)
        for kind in ("normalized", "unnormalized"):
            L = laplacian(g, kind).dense()
            for _ in range(20):
                x = rng.standard_normal(12)
                assert x @ L @ x >= -1e-10

    def test_zero_eigenvalue_multiplicity_counts_components(self, rng):
        blocks = [path_graph_weights(3), path_graph_weights(4), [[0.0]]]
        W = sparse.block_diag([np.asarray(b) for b in blocks]).toarray()
        g = SparseGraph.from_weight_matrix(W)
        assert num_connected_components(g) == 3
        scipy_count, _ = csgraph.connected_components(g.weights, directed=False)
        assert scipy_count == 3
        for kind in ("normalized", "unnormalized"):
            eigs = np.linalg.eigvalsh(laplacian(g, kind).dense())
            assert int((eigs < 1e-8).sum()) == 3

    def test_isolated_vertex_zero_row(self):
        W = np.zeros((3, 3))
        W[0, 1] = W[1, 0] = 2.0
        g = SparseGraph.from_weight_matrix(W)
        for kind in ("normalized", "unnormalized"):
            dense = laplacian(g, kind).dense()
            assert np.all(dense[2, :] == 0) and np.all(dense[:, 2] == 0)

    def test_spectral_norm_bound_is_upper_bound(self, rng):
        g = random_graph(rng, n=20, k=4)
        for kind in ("normalized", "unnormalized"):
            L = laplacian(g, kind)
            top = np.linalg.eigvalsh(L.dense()).max()
            assert L.spectral_norm_bound >= top - 1e-9

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 30),
           extra_edges=st.floats(0.0, 1.0), unit_weights=st.booleans())
    @example(seed=0, n=200, extra_edges=0.0, unit_weights=True)  # path graph
    def test_unnormalized_norm_bound_is_certified(self, seed, n, extra_edges,
                                                  unit_weights):
        # FISTA's step 1/beta needs beta >= the true lambda_max; on a long
        # path an iterative estimate undershoots it
        rng = np.random.default_rng(seed)
        W = np.diag(np.ones(n - 1), 1)
        W += np.triu(rng.random((n, n)) < extra_edges, 2)
        if not unit_weights:
            W *= rng.uniform(0.01, 10.0, (n, n))
        L = laplacian(SparseGraph.from_weight_matrix(W + W.T), "unnormalized")
        top = np.linalg.eigvalsh(L.dense())[-1]
        # slack for eigvalsh rounding, where the bound is tight
        assert top <= L.spectral_norm_bound * (1 + 1e-12)

    def test_unknown_kind_rejected(self, rng):
        with pytest.raises(ParameterError):
            laplacian(random_graph(rng), "rw")


class TestGradientDivergence:
    def test_constant_signal_regular_graph(self):
        # a 4-cycle is 2-regular, so normalized differences cancel exactly
        W = np.zeros((4, 4))
        for i in range(4):
            W[i, (i + 1) % 4] = W[(i + 1) % 4, i] = 1.0
        g = SparseGraph.from_weight_matrix(W)
        assert np.allclose(graph_gradient(g, np.ones(4)), 0.0)

    def test_two_vertex_gradient(self):
        g = SparseGraph.from_weight_matrix([[0.0, 1.0], [1.0, 0.0]])
        assert np.allclose(graph_gradient(g, np.array([0.0, 1.0])), [1.0])

    def test_two_vertex_divergence(self):
        g = SparseGraph.from_weight_matrix([[0.0, 1.0], [1.0, 0.0]])
        assert np.allclose(graph_divergence(g, np.array([1.0])), [-1.0, 1.0])

    def test_zero_edge_signal(self, rng):
        g = random_graph(rng)
        assert np.allclose(graph_divergence(g, np.zeros(g.num_edges)), 0.0)

    def test_gradient_norm_equals_normalized_dirichlet(self, rng):
        for _ in range(5):
            g = random_graph(rng, n=15, k=3)
            s = rng.standard_normal(15)
            Ln = laplacian(g, "normalized").dense()
            assert np.isclose(np.sum(graph_gradient(g, s) ** 2), s @ Ln @ s,
                              rtol=1e-10, atol=1e-12)

    def test_adjointness(self, rng):
        for _ in range(10):
            g = random_graph(rng, n=13, k=3)
            s = rng.standard_normal(g.num_vertices)
            c = rng.standard_normal(g.num_edges)
            lhs = graph_gradient(g, s) @ c
            rhs = s @ graph_divergence(g, c)
            assert abs(lhs - rhs) <= 1e-10 * np.linalg.norm(s) * np.linalg.norm(c)

    def test_degree_zero_vertex_with_mass_rejected(self):
        W = np.zeros((3, 3))
        W[0, 1] = W[1, 0] = 1.0
        g = SparseGraph.from_weight_matrix(W)
        with pytest.raises(DegenerateGraphError):
            graph_gradient(g, np.array([1.0, 2.0, 3.0]))
        # zero mass on the isolated vertex is fine
        out = graph_gradient(g, np.array([1.0, 2.0, 0.0]))
        assert out.shape == (1,)


class TestEigendecomposeNormalizedIdentity:
    def test_gradient_composes_to_normalized_laplacian(self, rng):
        # applying divergence after gradient reproduces the normalized
        # Laplacian action, not the unnormalized one
        g = random_graph(rng, n=10, k=3)
        Ln = laplacian(g, "normalized").dense()
        s = rng.standard_normal(10)
        composed = graph_divergence(g, graph_gradient(g, s))
        assert np.allclose(composed, Ln @ s, atol=1e-10)


class TestFileFormats:
    def test_edge_list_round_trip(self, tmp_path, rng):
        g = random_graph(rng, n=11, k=3)
        path = tmp_path / "g.txt"
        save_edge_list(g, path)
        loaded = load_edge_list(path)
        assert loaded.num_vertices == g.num_vertices
        assert abs(loaded.weights - g.weights).max() <= 1e-15
        first = path.read_text()
        assert first.startswith("#vertices 11\n")

    def test_edge_list_deterministic_bytes(self, tmp_path, rng):
        data = DataMatrix(rng.standard_normal((2, 20)))
        paths = []
        for name in ("a.txt", "b.txt"):
            g = knn_graph(data, axis="columns", k=3)
            p = tmp_path / name
            save_edge_list(g, p)
            paths.append(p.read_bytes())
        assert paths[0] == paths[1]

    def test_edge_list_errors_carry_line_numbers(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("#vertices 3\n1\t0\t0.5\n")
        with pytest.raises(DataError, match="line 2"):
            load_edge_list(bad)
        bad.write_text("0\t1\t0.5\n")
        with pytest.raises(DataError, match="header"):
            load_edge_list(bad)

    def test_matrix_csv_round_trip(self, tmp_path, rng):
        values = rng.standard_normal((4, 6))
        path = tmp_path / "m.csv"
        save_matrix_csv(path, values)
        assert np.array_equal(load_matrix_csv(path), values)

    def test_matrix_csv_bytes_are_format_float(self, tmp_path):
        values = np.array([[-0.0, 5e-324, 1e-05],
                           [1e16, 0.1 + 0.2, 2.0 ** 53 + 2]])
        path = tmp_path / "m.csv"
        save_matrix_csv(path, values)
        expected = "".join(",".join(format_float(v) for v in row) + "\n"
                           for row in values)
        assert path.read_text(encoding="utf-8") == expected
        assert np.array_equal(load_matrix_csv(path), values)

    def test_matrix_csv_malformed_row(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1.0,2.0\n3.0,oops\n")
        with pytest.raises(DataError, match="line 2"):
            load_matrix_csv(path)
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(DataError, match="line 2"):
            load_matrix_csv(path)

    @pytest.mark.parametrize("text, expected", [
        # loadtxt rejects these two and the line parser accepts them
        ("1.0,2.0\n  \t\n3.0,4.0\n", [[1.0, 2.0], [3.0, 4.0]]),
        ("1_0,2.5\n", [[10.0, 2.5]]),
        # both reject these
        ("1.0,2.0,\n", "malformed CSV row at line 1: could not convert "
                       "string to float: ''"),
        ("1.0,2.0\n# note\n", "malformed CSV row at line 2: could not "
                              "convert string to float: '# note'"),
        ("1.0,2.0\n3.0\n", "line 2 has 1 fields, expected 2"),
        # loadtxt returns no rows; the line parser has no data rows
        ("", "no data rows"),
        ("\n\n", "no data rows"),
        # both parse nan and inf, which the finite check rejects
        ("nan,1.0\n", "matrix contains NaN or Inf entries"),
        ("1.0,-inf\n", "matrix contains NaN or Inf entries"),
        ("1\n2\n", [[1.0], [2.0]]),
    ])
    def test_matrix_csv_accepts_and_rejects_as_the_line_parser(
            self, tmp_path, text, expected):
        path = tmp_path / "m.csv"
        path.write_text(text, encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if isinstance(expected, str):
                with pytest.raises(DataError) as info:
                    load_matrix_csv(path)
                assert str(info.value) == f"{path}: {expected}"
            else:
                values = load_matrix_csv(path)
                assert values.dtype == np.float64
                assert np.array_equal(values, expected)

    def test_data_matrix_rejects_non_finite(self):
        with pytest.raises(DataError):
            DataMatrix(np.array([[1.0, np.nan]]))
        with pytest.raises(DataError):
            DataMatrix(np.array([[np.inf, 1.0]]))

    def test_orientation_flag(self, tmp_path):
        path = tmp_path / "m.csv"
        save_matrix_csv(path, np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]))
        rows = DataMatrix.from_csv(path, "rows")
        cols = DataMatrix.from_csv(path, "columns")
        assert rows.values.shape == (2, 3)
        assert cols.values.shape == (3, 2)
        assert np.array_equal(rows.values.T, cols.values)


def test_eigendecompose_agrees_with_components(rng):
    g = random_graph(rng, n=16, k=2)
    basis = eigendecompose(laplacian(g, "unnormalized"))
    zero_count = int((basis.eigenvalues < 1e-8).sum())
    assert zero_count == num_connected_components(g)
