from fractions import Fraction

import numpy as np
import pytest

from walkrank import (
    DomainError,
    Graph,
    ValidationError,
    build_model,
    heat_kernel_rowsums,
    pagerank_linear,
    pagerank_power,
    rank,
    small_alpha_limit,
)
from walkrank.datasets import (
    SIX_NODE_ALPHAS,
    SIX_NODE_H_ROWSUMS,
    SIX_NODE_PAGERANK_EXACT_09,
    SIX_NODE_PAGERANK_TABLE,
    SIX_NODE_PAGERANK_TOL,
    SIX_NODE_RANKING_LABELS,
    six_node_digraph,
)
from walkrank.generators import erdos_renyi, strongly_connected_digraph

from oracles import dense_google, dense_pagerank


# ---------------------------------------------------------------------------
# model assembly
# ---------------------------------------------------------------------------

def columns(matvec, n):
    """The matrix behind ``matvec``, read one column at a time."""
    return np.column_stack([matvec(e) for e in np.eye(n)])


def test_model_h_matches_hand_computed_rationals():
    g = six_node_digraph()
    model = build_model(g, 0.85)
    h = columns(model.h_matvec, 6)
    # column j of H spreads node j's unit mass across its out-neighbors
    expected = np.zeros((6, 6))
    out_neighbors = {0: [1, 2], 2: [0, 1, 4], 3: [4, 5], 4: [3, 5], 5: [3]}
    for j, targets in out_neighbors.items():
        for i in targets:
            expected[i, j] = 1.0 / len(targets)
    assert np.array_equal(h, expected)
    a = g.to_dense()
    assert np.array_equal(h, a.T / np.maximum(a.sum(axis=1), 1.0))
    assert list(model.dangling) == [0, 1, 0, 0, 0, 0]


def test_model_h_shares_the_graph_transposed_csr():
    rng = np.random.default_rng(19)
    for case in range(40):
        n = int(rng.integers(1, 25))
        directed = case % 2 == 0
        edges = [(int(u), int(v), float(rng.choice([1.0, 0.5, 2.5])))
                 for u, v in rng.integers(0, n, size=(2 * n, 2))]
        g = Graph.from_edges(n, edges, directed=directed, allow_loops=True)
        model = build_model(g, 0.85)
        assert model.graph is g and model.n == n
        a = g.to_dense()
        out = a.sum(axis=1)
        expected_h = a.T / np.where(out == 0.0, 1.0, out)
        assert np.allclose(columns(model.h_matvec, n), expected_h,
                           rtol=1e-15, atol=0.0)
        assert np.allclose(columns(model.ht_matvec, n), expected_h.T,
                           rtol=1e-15, atol=0.0)
        x = rng.standard_normal(n)
        assert np.allclose(model.ht_matvec(x), expected_h.T @ x,
                           rtol=1e-12, atol=1e-12)
        assert np.array_equal(model.dangling, (out == 0.0).astype(float))
        assert np.array_equal(model.inv_out,
                              1.0 / np.where(out == 0.0, 1.0, out))
        for name in ("preference", "dangling", "inv_out"):
            assert not getattr(model, name).flags.writeable, name
        for arr in (*g._csr(), *g._csr(transpose=True)):
            assert not arr.flags.writeable


def test_model_apply_matches_dense_google_matrix():
    rng = np.random.default_rng(17)
    for _ in range(8):
        n = int(rng.integers(2, 40))
        g = erdos_renyi(n, 0.2, int(rng.integers(0, 2 ** 31)), directed=True)
        alpha = float(rng.uniform(0.0, 0.95))
        model = build_model(g, alpha)
        p_dense = dense_google(g, alpha)
        x = rng.uniform(0.0, 1.0, n)
        assert np.allclose(model.apply(x), p_dense @ x, rtol=1e-12, atol=1e-14)
        assert np.allclose(model.apply_t(x), p_dense.T @ x, rtol=1e-12,
                           atol=1e-14)


def test_model_validation():
    g = six_node_digraph()
    with pytest.raises(ValidationError):
        build_model(Graph.from_edges(0, []))
    for alpha in (-0.1, 1.0, 1.5, float("nan")):
        with pytest.raises(DomainError):
            build_model(g, alpha)
    with pytest.raises(ValidationError):
        build_model(g, 0.85, preference=np.ones(6))  # sums to 6
    with pytest.raises(ValidationError):
        build_model(g, 0.85, preference=np.full(5, 0.2))  # wrong length
    bad = np.array([0.5, 0.5, 0.2, -0.2, 0.0, 0.0])
    with pytest.raises(ValidationError):
        build_model(g, 0.85, preference=bad)


def test_alpha_above_cap_clamps_with_warning():
    g = six_node_digraph()
    with pytest.warns(RuntimeWarning, match="clamped"):
        model = build_model(g, 0.9999)
    assert model.alpha == 0.999


def test_column_sums_of_google_matrix_are_one():
    g = six_node_digraph()
    model = build_model(g, 0.85)
    # column sums of P via P^T @ 1
    assert np.allclose(model.apply_t(np.ones(6)), 1.0, atol=1e-14)


# ---------------------------------------------------------------------------
# solvers on the six-node fixture
# ---------------------------------------------------------------------------

def test_pagerank_matches_published_table():
    g = six_node_digraph()
    for alpha in SIX_NODE_ALPHAS:
        model = build_model(g, alpha)
        p = pagerank_power(model)
        expected = SIX_NODE_PAGERANK_TABLE[alpha]
        tolerances = SIX_NODE_PAGERANK_TOL[alpha]
        for i, (value, target, tol) in enumerate(zip(p, expected, tolerances)):
            assert abs(value - target) <= tol, (alpha, i, value, target)
        labels = [int(g.node_labels[i]) for i in rank(p).order]
        assert tuple(labels) == SIX_NODE_RANKING_LABELS


def test_pagerank_alpha_09_matches_exact_rationals():
    g = six_node_digraph()
    p = pagerank_power(build_model(g, 0.9), tol=1e-14)
    exact = [float(Fraction(f)) for f in SIX_NODE_PAGERANK_EXACT_09]
    assert np.allclose(p, exact, atol=1e-12)


def test_small_alpha_limit_rowsums():
    g = six_node_digraph()
    rowsums = small_alpha_limit(g)
    exact = [float(Fraction(f)) for f in SIX_NODE_H_ROWSUMS]
    assert np.allclose(rowsums, exact, atol=1e-12)
    # the ranking of p(0.001) refines the rowsum ranking: nodes 2 and 5 are
    # exactly tied at 5/6 in H1 and only split at second order in alpha
    from walkrank import equal_modulo_ties

    p = pagerank_power(build_model(g, 0.001))
    assert equal_modulo_ties(rank(p), rank(rowsums))


def test_pagerank_is_probability_vector():
    rng = np.random.default_rng(18)
    for _ in range(10):
        n = int(rng.integers(2, 60))
        g = erdos_renyi(n, 0.15, int(rng.integers(0, 2 ** 31)), directed=True)
        alpha = float(rng.uniform(0.0, 0.99))
        p = pagerank_power(build_model(g, alpha))
        assert p.min() >= 0.0
        assert abs(p.sum() - 1.0) <= 1e-12


def test_power_and_linear_agree():
    rng = np.random.default_rng(19)
    tol = 1e-10
    for alpha in (0.1, 0.5, 0.85, 0.99):
        n = int(rng.integers(10, 201))
        g = erdos_renyi(n, 3.0 / n, int(rng.integers(0, 2 ** 31)),
                        directed=True)
        model = build_model(g, alpha)
        p_power = pagerank_power(model, tol=tol)
        p_linear = pagerank_linear(model, tol=tol)
        assert np.abs(p_power - p_linear).sum() <= 10 * tol


def test_pagerank_matches_dense_solve():
    rng = np.random.default_rng(20)
    for _ in range(10):
        n = int(rng.integers(2, 50))
        g = erdos_renyi(n, 0.2, int(rng.integers(0, 2 ** 31)), directed=True)
        alpha = float(rng.uniform(0.1, 0.95))
        expected = dense_pagerank(g, alpha)
        model = build_model(g, alpha)
        assert np.allclose(pagerank_power(model, tol=1e-13), expected,
                           atol=1e-11)
        assert np.allclose(pagerank_linear(model, tol=1e-13), expected,
                           atol=1e-11)


def test_alpha_zero_returns_preference():
    g = six_node_digraph()
    v = np.array([0.4, 0.1, 0.1, 0.1, 0.1, 0.2])
    model = build_model(g, 0.0, preference=v)
    assert np.allclose(pagerank_power(model), v, atol=1e-14)


def test_edgeless_graph_is_all_dangling():
    g = Graph.from_edges(3, [])
    model = build_model(g, 0.85)
    assert list(model.dangling) == [1.0, 1.0, 1.0]
    # p = alpha/n + (1-alpha)/n = 1/n exactly
    assert np.allclose(pagerank_power(model), 1.0 / 3.0, atol=1e-14)


def test_nonuniform_preference_changes_ranking():
    g = six_node_digraph()
    v = np.zeros(6)
    v[0] = 1.0  # all teleportation lands on node 1
    model = build_model(g, 0.5, preference=v)
    p = pagerank_power(model)
    expected = dense_pagerank(g, 0.5, v)
    assert np.allclose(p, expected, atol=1e-11)
    assert p[0] > p.min()


def test_small_alpha_ranking_matches_rowsums_on_random_digraphs():
    rng = np.random.default_rng(21)
    found = 0
    while found < 8:
        n = int(rng.integers(4, 30))
        g = strongly_connected_digraph(n, 0.25, int(rng.integers(0, 2 ** 31)))
        rowsums = small_alpha_limit(g)
        gaps = np.diff(np.sort(rowsums))
        if gaps.min(initial=np.inf) < 2e-2:
            # the limit pins the ranking only where row sums are separated
            # well enough that the O(alpha^2) term cannot reorder them
            continue
        found += 1
        p = pagerank_power(build_model(g, 1e-3), tol=1e-13)
        assert list(rank(p).order) == list(rank(rowsums).order)


def test_small_alpha_limit_of_directed_cycle_is_uniform():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)], directed=True)
    assert np.allclose(small_alpha_limit(g), 1.0, atol=1e-15)


# ---------------------------------------------------------------------------
# heat kernel
# ---------------------------------------------------------------------------

def test_heat_kernel_at_zero_is_ones():
    model = build_model(six_node_digraph(), 0.85)
    assert np.array_equal(heat_kernel_rowsums(model, 0.0), np.ones(6))


def test_heat_kernel_column_sums_are_exp_t():
    # column sums of exp(tP) equal e^t exactly because P is column-stochastic
    from walkrank.series import _scaled_taylor

    model = build_model(six_node_digraph(), 0.85)
    colsums = _scaled_taylor(model.apply_t, 1.0, 1.0, np.ones(6), 1e-12)
    assert np.allclose(colsums, np.e, rtol=1e-8)


def test_heat_kernel_validation():
    g = six_node_digraph()
    model = build_model(g, 0.85)
    with pytest.raises(DomainError):
        heat_kernel_rowsums(model, -1.0)
    with pytest.raises(DomainError):
        heat_kernel_rowsums(model, 701.0)
    v = np.array([0.5, 0.5, 0.0, 0.0, 0.0, 0.0])
    zero_pref = build_model(g, 0.85, preference=v)
    with pytest.raises(ValidationError, match="positive"):
        heat_kernel_rowsums(zero_pref, 1.0)


def test_heat_kernel_ranking_approaches_pagerank():
    g = six_node_digraph()
    for alpha in (0.85, 0.9):
        model = build_model(g, alpha)
        p = pagerank_power(model, tol=1e-12)
        distances = []
        for t in (1.0, 5.0, 20.0, 50.0):
            r = heat_kernel_rowsums(model, t)
            r = r / r.sum()
            distances.append(float(np.abs(r - p).sum()))
        assert all(d2 < d1 for d1, d2 in zip(distances, distances[1:]))
        r50 = heat_kernel_rowsums(model, 50.0)
        assert list(rank(r50).order) == list(rank(p).order)
        labels = [int(g.node_labels[i]) for i in rank(r50).order]
        assert tuple(labels) == SIX_NODE_RANKING_LABELS
