import math

import numpy as np
import pytest

from walkrank import (
    ConvergenceError,
    DomainError,
    Graph,
    UnsupportedOperationError,
    ValidationError,
    degree_centrality,
    dominant_eigenpair,
    eigenvector_centrality,
    exp_subgraph,
    hits,
    katz,
    limit_sweep,
    rank,
    resolvent_subgraph,
    total_communicability,
)
from walkrank.datasets import karate, six_node_digraph
from walkrank.generators import connected_erdos_renyi, strongly_connected_digraph

from oracles import dense_dominant, expm_taylor


def k3():
    return Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])


def path3():
    return Graph.from_edges(3, [(0, 1), (1, 2)])


# ---------------------------------------------------------------------------
# individual measures
# ---------------------------------------------------------------------------

def test_degree_centrality_sides():
    g = six_node_digraph()
    assert list(degree_centrality(g, side="broadcast").scores) == [2, 0, 3, 2, 2, 1]
    assert list(degree_centrality(g, side="receive").scores) == [1, 2, 1, 2, 2, 2]
    with pytest.raises(ValidationError):
        degree_centrality(g, side="sideways")


def test_degree_centrality_weighted():
    g = Graph.from_edges(3, [(0, 1, 0.5)])
    cv = degree_centrality(g)
    assert cv.side == "symmetric"
    assert list(cv.scores) == [0.5, 0.5, 0.0]


def test_eigenvector_centrality_matches_dense():
    g = karate()
    cv = eigenvector_centrality(g)
    lam, vec = dense_dominant(g.to_dense())
    assert np.allclose(cv.scores, vec, atol=1e-8)
    assert cv.solver_meta["lambda1"] == pytest.approx(lam, rel=1e-10)
    assert cv.measure == "eigenvector" and cv.parameter is None


def test_eigenvector_top_node_stable_across_tolerances():
    g = karate()
    loose = eigenvector_centrality(g, tol=1e-8)
    tight = eigenvector_centrality(g, tol=1e-12)
    assert np.argmax(loose.scores) == np.argmax(tight.scores)


def test_katz_path_example():
    cv = katz(path3(), 0.5)
    assert np.allclose(cv.scores, [3.0, 4.0, 3.0], atol=1e-8)
    assert cv.parameter == 0.5
    assert cv.solver_meta["alpha_max"] == pytest.approx(1 / math.sqrt(2))


def test_resolvent_measures_on_one_isolated_node_have_no_endpoint():
    g = Graph.from_edges(1, [])  # lambda1 = 0, so every alpha is feasible
    for cv in (katz(g, 0.5), resolvent_subgraph(g, 0.5)):
        assert cv.scores.tolist() == [1.0]
        assert cv.solver_meta["alpha_max"] == math.inf


def test_relative_defaults_on_one_isolated_node_name_lambda1_and_the_flag():
    g = Graph.from_edges(1, [])  # 1/lambda1 = inf: no fraction of it exists
    for call, flag in ((lambda: katz(g), "--alpha"),
                       (lambda: resolvent_subgraph(g), "--alpha"),
                       (lambda: limit_sweep(g, "katz"), "--grid"),
                       (lambda: limit_sweep(g, "resolvent-subgraph"),
                        "--grid")):
        with pytest.raises(DomainError, match=f"lambda1 = 0.*pass {flag}$"):
            call()


def test_resolvent_subgraph_names_the_undirected_rule_first():
    # one directed node (lambda1 = 0) and a digraph that is not strongly
    # connected: the diagonal's own rule is the cause, not the eigenpair's
    for g in (Graph.from_edges(1, [], directed=True),
              Graph.from_edges(3, [(0, 1), (1, 2)], directed=True)):
        with pytest.raises(UnsupportedOperationError,
                           match="need an undirected graph"):
            resolvent_subgraph(g)


def test_katz_default_alpha_is_085_over_lambda1():
    g = karate()
    cv = katz(g)
    lam1 = dominant_eigenpair(g).lambda1
    assert cv.parameter == pytest.approx(0.85 / lam1)


def test_katz_directed_sides():
    g = six_node_digraph()
    sub, _ = __import__("walkrank").largest_scc(g)
    a = sub.to_dense()
    lam1 = dominant_eigenpair(sub).lambda1
    alpha = 0.5 / lam1
    broadcast = katz(sub, alpha, side="broadcast").scores
    receive = katz(sub, alpha, side="receive").scores
    n = sub.n
    assert np.allclose(broadcast,
                       np.linalg.solve(np.eye(n) - alpha * a, np.ones(n)),
                       rtol=1e-9)
    assert np.allclose(receive,
                       np.linalg.solve(np.eye(n) - alpha * a.T, np.ones(n)),
                       rtol=1e-9)


def test_total_communicability_triangle():
    cv = total_communicability(k3(), 1.0)
    assert np.allclose(cv.scores, math.e ** 2, rtol=1e-10)
    assert cv.parameter == 1.0


def test_subgraph_measures_on_triangle():
    assert np.allclose(exp_subgraph(k3(), 1.0).scores,
                       (math.e ** 2 + 2 / math.e) / 3, atol=1e-10)
    assert np.allclose(resolvent_subgraph(k3(), 0.25).scores, 1.2, atol=1e-12)


def test_subgraph_measures_reject_directed():
    g = Graph.from_edges(3, [(0, 1), (1, 2), (2, 0)], directed=True)
    with pytest.raises(UnsupportedOperationError):
        exp_subgraph(g, 1.0)
    with pytest.raises(UnsupportedOperationError):
        resolvent_subgraph(g, 0.1)


# ---------------------------------------------------------------------------
# HITS
# ---------------------------------------------------------------------------

def test_hits_on_directed_star():
    g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)], directed=True)
    hubs, authorities = hits(g)
    assert np.allclose(hubs.scores, [1.0, 0.0, 0.0, 0.0], atol=1e-8)
    assert np.allclose(authorities.scores,
                       [0.0, 1 / math.sqrt(3), 1 / math.sqrt(3), 1 / math.sqrt(3)],
                       atol=1e-8)
    assert hubs.measure == "hits-hub" and hubs.side == "broadcast"
    assert authorities.measure == "hits-authority" and authorities.side == "receive"


def test_hits_matches_dense_gram_eigenvectors():
    g = six_node_digraph()
    hubs, authorities = hits(g, tol=1e-13)
    a = g.to_dense()
    _, hub_vec = dense_dominant(a @ a.T)
    _, auth_vec = dense_dominant(a.T @ a)
    assert np.allclose(hubs.scores, np.abs(hub_vec), atol=1e-8)
    assert np.allclose(authorities.scores, np.abs(auth_vec), atol=1e-8)


def test_hits_undirected_equals_eigenvector_ranking():
    g = karate()
    hubs, authorities = hits(g)
    ev = eigenvector_centrality(g)
    assert list(rank(hubs.scores).order) == list(rank(ev.scores).order)
    assert np.allclose(hubs.scores, authorities.scores, atol=1e-8)


def test_hits_validation():
    with pytest.raises(ValidationError):
        hits(Graph.from_edges(3, []))
    with pytest.raises(ValidationError):
        hits(Graph.from_edges(4, [(0, 1), (2, 3)]))
    with pytest.raises(ConvergenceError):
        hits(karate(), max_iter=1)


def test_hits_is_invariant_to_weight_scale():
    g = karate()
    edges = [(int(u), int(v), 1e-8 * float(w))
             for u, v, w in zip(g.src, g.dst, g.weight)]
    hubs, authorities = hits(g)
    small_hubs, small_authorities = hits(Graph.from_edges(g.n, edges))
    assert np.allclose(small_hubs.scores, hubs.scores, atol=1e-9)
    assert np.allclose(small_authorities.scores, authorities.scores, atol=1e-9)
    assert small_hubs.solver_meta["sigma"] == pytest.approx(
        1e-16 * hubs.solver_meta["sigma"], rel=1e-9)


def test_hits_takes_two_products_per_iteration(monkeypatch):
    calls = []
    for name in ("matvec", "matvec_t"):
        product = getattr(Graph, name)
        monkeypatch.setattr(
            Graph, name,
            lambda g, x, product=product: calls.append(1) or product(g, x))
    hubs, _ = hits(karate())
    assert len(calls) <= 2 * hubs.solver_meta["iterations"] + 1


# ---------------------------------------------------------------------------
# structural invariants shared by all measures
# ---------------------------------------------------------------------------

def _all_measures(g, lam1):
    yield degree_centrality(g)
    yield eigenvector_centrality(g)
    yield katz(g, 0.7 / lam1)
    yield total_communicability(g, 1.2)
    if not g.directed:
        yield exp_subgraph(g, 1.2)
        yield resolvent_subgraph(g, 0.7 / lam1)


def test_undirected_broadcast_equals_receive():
    g = karate()
    for make in (degree_centrality, eigenvector_centrality):
        b = make(g, side="broadcast")
        r = make(g, side="receive")
        assert np.array_equal(b.scores, r.scores)
        assert b.side == r.side == "symmetric"
    assert np.array_equal(katz(g, 0.1, side="broadcast").scores,
                          katz(g, 0.1, side="receive").scores)
    assert np.array_equal(total_communicability(g, 1.0, side="broadcast").scores,
                          total_communicability(g, 1.0, side="receive").scores)


def test_measures_positive_on_connected_graphs():
    rng = np.random.default_rng(15)
    for _ in range(5):
        g = connected_erdos_renyi(int(rng.integers(3, 25)), 0.4,
                                  int(rng.integers(0, 2 ** 31)))
        lam1 = dominant_eigenpair(g).lambda1
        for cv in _all_measures(g, lam1):
            assert cv.scores.min() > 0, cv.measure


def test_measures_equivariant_under_relabeling():
    rng = np.random.default_rng(16)
    g = strongly_connected_digraph(12, 0.3, 77)
    perm = rng.permutation(12)
    permuted = Graph.from_edges(
        12, [(perm[u], perm[v], w) for u, v, w in g.edge_tuples()],
        directed=True)
    lam1 = dominant_eigenpair(g).lambda1
    for make in (
        lambda h: degree_centrality(h, side="receive").scores,
        lambda h: eigenvector_centrality(h).scores,
        lambda h: katz(h, 0.6 / lam1, side="broadcast").scores,
        lambda h: total_communicability(h, 0.9, side="receive").scores,
    ):
        base = make(g)
        moved = make(permuted)
        assert np.allclose(moved[perm], base, rtol=1e-8)


def test_weight_scaling_equals_parameter_scaling():
    # multiplying every weight by s is the same walk-weight change as t -> s*t
    g = karate()
    s = 0.35
    scaled = Graph.from_edges(
        g.n, [(u, v, w * s) for u, v, w in g.edge_tuples()])
    lam1 = dominant_eigenpair(g).lambda1
    alpha = 0.6 / lam1
    pairs = [
        (total_communicability(g, s * 1.4).scores,
         total_communicability(scaled, 1.4).scores),
        (exp_subgraph(g, s * 1.4).scores, exp_subgraph(scaled, 1.4).scores),
        (katz(g, s * alpha).scores, katz(scaled, alpha).scores),
        (resolvent_subgraph(g, s * alpha).scores,
         resolvent_subgraph(scaled, alpha).scores),
    ]
    for base, rescaled in pairs:
        assert np.abs(base - rescaled).max() <= 1e-9 * np.abs(base).max()


def test_subgraph_rankings_approach_eigenvector_as_beta_grows():
    from walkrank.ranking import (
        _align_to,
        _positions,
        intersection_distance,
    )

    g = karate()
    # entries of the karate eigenvector cluster tightly near the bottom, so
    # compare modulo near-ties instead of demanding one exact permutation
    reference = rank(eigenvector_centrality(g).scores, tie_tol=1e-3)
    for scores in (exp_subgraph(g, 30.0).scores,
                   total_communicability(g, 30.0).scores):
        candidate = rank(scores)
        aligned = _align_to(reference, _positions(candidate.order))
        assert intersection_distance(aligned, candidate) == 0.0


def test_total_communicability_matches_dense_on_digraph():
    g = strongly_connected_digraph(9, 0.35, 5)
    a = g.to_dense()
    assert np.allclose(total_communicability(g, 1.3, side="broadcast").scores,
                       expm_taylor(1.3 * a) @ np.ones(9), rtol=1e-9)
    assert np.allclose(total_communicability(g, 1.3, side="receive").scores,
                       expm_taylor(1.3 * a.T) @ np.ones(9), rtol=1e-9)
