import numpy as np

from walkrank import _kernels
from walkrank.datasets import karate
from walkrank.generators import erdos_renyi, strongly_connected_digraph
from walkrank.graph import Graph, degrees
from walkrank.measures import (
    eigenvector_centrality,
    katz,
    total_communicability,
)
from walkrank.pagerank import (
    build_model,
    heat_kernel_rowsums,
    pagerank_power,
    small_alpha_limit,
)
from walkrank.ranking import limit_sweep


def random_csr(rng, n=None, directed=True):
    g = erdos_renyi(n or int(rng.integers(2, 50)),
                    float(rng.uniform(0.1, 0.6)),
                    int(rng.integers(0, 2 ** 31)), directed=directed)
    indptr, indices, data = g.adjacency()
    return indptr, indices, rng.uniform(0.1, 2.0, data.shape[0])


def test_matvec_numpy_matches_dense():
    rng = np.random.default_rng(30)
    for _ in range(10):
        n = int(rng.integers(2, 40))
        indptr, indices, data = random_csr(rng, n)
        dense = np.zeros((n, n))
        rows = np.repeat(np.arange(n), np.diff(indptr))
        dense[rows, indices] = data
        x = rng.standard_normal(n)
        assert np.allclose(
            _kernels.csr_matvec(indptr, indices, data, x, rows), dense @ x)


def test_neumann_matches_dense_solve():
    rng = np.random.default_rng(32)
    for _ in range(10):
        indptr, indices, data = random_csr(rng)
        n = indptr.shape[0] - 1
        rowsum = np.add.reduceat(data, indptr[:-1]) if data.size else np.zeros(n)
        alpha = 0.5 / max(float(rowsum.max(initial=0.0)), 1.0)
        v = rng.uniform(0.5, 1.5, n)
        x, _, _ = _kernels.neumann(indptr, indices, data, v, alpha, 1e-12,
                                   100_000)
        # solves (I - alpha A) x = v
        dense = np.zeros((n, n))
        rows = np.repeat(np.arange(n), np.diff(indptr))
        dense[rows, indices] = data
        expected = np.linalg.solve(np.eye(n) - alpha * dense, v)
        assert np.allclose(x, expected, rtol=1e-9)


def test_neumann_reports_iterations_and_step():
    indptr = np.array([0, 1, 2], dtype=np.int64)
    indices = np.array([1, 0], dtype=np.int64)
    data = np.ones(2)
    v = np.ones(2)
    x, iterations, diff = _kernels.neumann(indptr, indices, data, v,
                                           0.5, 1e-12, 10_000)
    assert np.allclose(x, 2.0, rtol=1e-10)  # (I - A/2)^{-1} 1 on a 2-cycle
    assert iterations > 1
    assert diff <= 1e-12 * np.abs(x).sum()


def test_neumann_stops_at_max_iter_without_converging():
    indptr = np.array([0, 1, 2], dtype=np.int64)
    indices = np.array([1, 0], dtype=np.int64)
    data = np.ones(2)
    v = np.ones(2)
    x, iterations, diff = _kernels.neumann(indptr, indices, data, v,
                                           0.9, 1e-14, 3)
    assert iterations == 3
    assert diff > 1e-14 * np.abs(x).sum()


def test_warmup_runs_on_selected_backend():
    _kernels.warmup()


# ---------------------------------------------------------------------------
# the graph's adjacency operator
# ---------------------------------------------------------------------------

def reference_matvec(indptr, indices, data, x):
    """``A @ x`` with the row index expanded on the spot."""
    n = indptr.shape[0] - 1
    if data.shape[0] == 0:
        return np.zeros(n)
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    return np.bincount(rows, weights=data * x[indices], minlength=n)


def operator_graphs():
    """Seeded graphs of every shape the operator must handle: directed and
    undirected, weighted or not, with self-loops and with an isolated node
    (an empty row and a dangling node), plus ``n = 1`` and ``m = 0``."""
    yield Graph.from_edges(1, [], directed=True)
    yield Graph.from_edges(1, [(0, 0, 2.5)], allow_loops=True)
    yield Graph.from_edges(4, [], directed=False)
    yield karate()
    yield strongly_connected_digraph(30, 0.1, 5)
    rng = np.random.default_rng(41)
    for case in range(40):
        n = int(rng.integers(2, 30))
        m = int(rng.integers(1, 3 * n))
        pairs = rng.integers(0, n - 1, size=(m, 2)).tolist()
        weights = (rng.uniform(0.1, 3.0, m) if case % 4 < 2
                   else np.ones(m)).tolist()
        yield Graph.from_edges(
            n, [(u, v, w) for (u, v), w in zip(pairs, weights)],
            directed=case % 2 == 0, allow_loops=True)


def test_graph_and_model_matvecs_are_bitwise_unchanged():
    """The graph's products against an explicit CSR sum, bitwise; ``H x``
    and ``H 1`` against the formulas of a model that stored ``H`` as the
    transposed CSR with data divided by the source's out-degree: bitwise on
    unweighted graphs, within 1e-15 relative on weighted ones."""
    rng = np.random.default_rng(42)
    for g in operator_graphs():
        x = rng.standard_normal(g.n)
        assert np.array_equal(g.matvec(x), reference_matvec(*g.adjacency(), x))
        assert np.array_equal(g.matvec_t(x),
                              reference_matvec(*g.adjacency_t(), x))

        model = build_model(g, 0.85)
        out, _ = degrees(g)
        denom = np.where(out == 0.0, 1.0, out)
        indptr_t, indices_t, data_t = g.adjacency_t()
        h_data = data_t / denom[indices_t]
        expected_hx = reference_matvec(indptr_t, indices_t, h_data, x)
        indptr, indices, data = g.adjacency()
        rows = np.repeat(np.arange(g.n, dtype=np.int64), np.diff(indptr))
        expected_h1 = np.zeros(g.n)
        np.add.at(expected_h1, indices, data / denom[rows])
        if g.weighted:
            # |H| |x| bounds the rounding of each sum in either form
            scale = reference_matvec(indptr_t, indices_t, h_data, np.abs(x))
            assert np.all(np.abs(model.h_matvec(x) - expected_hx)
                          <= 1e-15 * scale), g
            assert np.allclose(small_alpha_limit(g), expected_h1,
                               rtol=1e-15, atol=0.0), g
        else:
            assert np.array_equal(model.h_matvec(x), expected_hx), g
            assert np.array_equal(small_alpha_limit(g), expected_h1), g

        dense_h = g.to_dense().T / denom
        assert np.allclose(model.ht_matvec(x), dense_h.T @ x,
                           rtol=1e-12, atol=1e-12), g


def test_build_model_builds_no_csr_and_pagerank_only_the_transposed_side(
        monkeypatch):
    builds = []
    build_csr = Graph._build_csr

    def counting_build(self, transpose):
        builds.append(transpose)
        return build_csr(self, transpose)

    monkeypatch.setattr(Graph, "_build_csr", counting_build)
    h = strongly_connected_digraph(40, 0.1, 7)
    for run, sides in ((build_model, []),
                       (lambda g: pagerank_power(build_model(g)), [True]),
                       (lambda g: heat_kernel_rowsums(build_model(g), 2.0),
                        [True]),
                       (lambda g: limit_sweep(g, "pagerank"), [True])):
        builds.clear()
        run(Graph(h.n, h.src, h.dst, h.weight, h.directed, h.node_labels))
        assert builds == sides


def test_row_index_is_built_once_per_side_and_reaches_every_matvec(
        monkeypatch):
    h = strongly_connected_digraph(40, 0.1, 7)
    g = Graph(h.n, h.src, h.dst, h.weight, h.directed, h.node_labels)
    builds = []
    build_csr = Graph._build_csr

    def counting_build(self, transpose):
        builds.append(transpose)
        return build_csr(self, transpose)

    monkeypatch.setattr(Graph, "_build_csr", counting_build)
    rows_seen = []
    csr_matvec = _kernels.csr_matvec

    def traced(*args, **kwargs):  # reads its arguments as the tracer does
        assert len(args) == 5 and not kwargs
        rows_seen.append(args[4])
        return csr_matvec(*args, **kwargs)

    monkeypatch.setattr(_kernels, "csr_matvec", traced)
    katz(g, side="receive")
    total_communicability(g)
    total_communicability(g, side="receive")
    eigenvector_centrality(g)
    eigenvector_centrality(g, side="receive")
    pagerank_power(build_model(g))
    limit_sweep(g, "pagerank")

    assert sorted(builds) == [False, True]
    cached = (g._csr()[3], g._csr(transpose=True)[3])
    assert all(rows is cached[0] or rows is cached[1] for rows in rows_seen)
    assert any(rows is cached[0] for rows in rows_seen)
    assert any(rows is cached[1] for rows in rows_seen)
