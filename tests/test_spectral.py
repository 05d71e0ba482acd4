import math

import numpy as np
import pytest

from walkrank import (
    ConvergenceError,
    Graph,
    UnsupportedOperationError,
    ValidationError,
    dominant_eigenpair,
    limit_sweep,
    second_eigenvalue,
    spectral_gap,
)
from walkrank import _kernels
from walkrank import graph as graph_module
from walkrank import spectral as spectral_module
from walkrank.datasets import karate
from walkrank.generators import (
    connected_erdos_renyi,
    ring,
    star,
    strongly_connected_digraph,
)

from oracles import dense_dominant


def path3():
    return Graph.from_edges(3, [(0, 1), (1, 2)])


def k3():
    return Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])


def test_path_graph_eigenpair():
    info = dominant_eigenpair(path3())
    assert info.lambda1 == pytest.approx(math.sqrt(2), abs=1e-9)
    expected = np.array([0.5, math.sqrt(2) / 2, 0.5])
    assert np.allclose(info.dominant_vector, expected, atol=1e-8)
    assert info.residual <= 1e-10 * info.lambda1


def test_triangle_spectrum():
    info = dominant_eigenpair(k3())
    assert info.lambda1 == pytest.approx(2.0, abs=1e-9)
    assert second_eigenvalue(k3()) == pytest.approx(-1.0, abs=1e-8)
    assert spectral_gap(k3()) == pytest.approx(3.0, abs=1e-8)


def test_karate_spectrum():
    g = karate()
    info = dominant_eigenpair(g)
    lam2 = second_eigenvalue(g)
    assert info.lambda1 == pytest.approx(6.726, abs=1e-3)
    assert lam2 == pytest.approx(4.977, abs=1e-3)
    assert info.lambda1 - lam2 == pytest.approx(1.749, abs=2e-3)


def test_star_second_eigenvalue_is_zero():
    assert second_eigenvalue(star(5)) == pytest.approx(0.0, abs=1e-8)


def test_single_edge_second_eigenvalue_is_minus_lambda1():
    g = Graph.from_edges(2, [(0, 1)])
    assert second_eigenvalue(g) == pytest.approx(-1.0, abs=1e-12)


def test_bipartite_graphs_converge():
    # plain power iteration oscillates on bipartite graphs; the unit shift
    # must not
    for g in (path3(), ring(4), ring(6)):
        info = dominant_eigenpair(g)
        lam, vec = dense_dominant(g.to_dense())
        assert info.lambda1 == pytest.approx(lam, abs=1e-9)
        assert np.allclose(info.dominant_vector, vec, atol=1e-7)


def test_dominant_vector_normalization():
    rng = np.random.default_rng(8)
    for _ in range(10):
        g = connected_erdos_renyi(int(rng.integers(3, 40)),
                                  float(rng.uniform(0.2, 0.7)),
                                  int(rng.integers(0, 2 ** 31)))
        info = dominant_eigenpair(g)
        assert np.linalg.norm(info.dominant_vector) == pytest.approx(1.0)
        assert info.dominant_vector.min() > 0
        assert info.residual <= 1e-10 * info.lambda1


def test_left_right_agree_on_digraphs():
    rng = np.random.default_rng(9)
    for _ in range(10):
        g = strongly_connected_digraph(int(rng.integers(4, 40)),
                                       float(rng.uniform(0.1, 0.4)),
                                       int(rng.integers(0, 2 ** 31)))
        right = dominant_eigenpair(g, side="right")
        left = dominant_eigenpair(g, side="left")
        assert abs(right.lambda1 - left.lambda1) <= 2e-10 * right.lambda1
        lam, vec = dense_dominant(g.to_dense())
        assert right.lambda1 == pytest.approx(lam, rel=1e-9)
        assert np.allclose(right.dominant_vector, vec, atol=1e-7)
        lam_t, vec_t = dense_dominant(g.to_dense().T)
        assert np.allclose(left.dominant_vector, vec_t, atol=1e-7)


def test_disconnected_graph_rejected():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(ValidationError, match="connected"):
        dominant_eigenpair(g)


def test_not_strongly_connected_rejected():
    g = Graph.from_edges(3, [(0, 1), (1, 2)], directed=True)
    with pytest.raises(ValidationError, match="strongly connected"):
        dominant_eigenpair(g)


def test_empty_and_edgeless_rejected():
    with pytest.raises(ValidationError):
        dominant_eigenpair(Graph.from_edges(0, []))
    with pytest.raises(ValidationError):
        dominant_eigenpair(Graph.from_edges(3, []))


def test_single_node_graph():
    info = dominant_eigenpair(Graph.from_edges(1, []))
    assert info.lambda1 == 0.0
    assert list(info.dominant_vector) == [1.0]


def test_convergence_error_carries_best_iterate():
    g = karate()
    with pytest.raises(ConvergenceError) as exc_info:
        dominant_eigenpair(g, max_iter=1)
    best = exc_info.value.best
    assert best is not None
    assert best.iterations == 1
    assert best.residual > 0
    # the best iterate should still be a plausible (positive, normalized)
    # direction
    assert best.dominant_vector.min() > 0
    assert np.linalg.norm(best.dominant_vector) == pytest.approx(1.0)


def test_second_eigenvalue_rejects_directed_and_tiny():
    g = Graph.from_edges(3, [(0, 1), (1, 2), (2, 0)], directed=True)
    with pytest.raises(UnsupportedOperationError):
        second_eigenvalue(g)
    with pytest.raises(ValidationError):
        second_eigenvalue(Graph.from_edges(1, []))


def test_spectral_gap_names_the_undirected_rule_before_any_iteration(
        monkeypatch):
    def no_iteration(*args):
        raise AssertionError("iterated before checking undirectedness")

    monkeypatch.setattr(_kernels, "csr_matvec", no_iteration)
    for g in (Graph.from_edges(3, [(0, 1), (1, 2)], directed=True),
              strongly_connected_digraph(20, 0.2, 3)):
        with pytest.raises(UnsupportedOperationError,
                           match="^spectral_gap requires an undirected"):
            spectral_gap(g)


def test_second_eigenvalue_matches_dense_spectrum():
    rng = np.random.default_rng(10)
    graphs = [connected_erdos_renyi(int(rng.integers(3, 30)),
                                    float(rng.uniform(0.3, 0.8)),
                                    int(rng.integers(0, 2 ** 31)))
              for _ in range(10)]
    # complete graphs with weights 1 +- 0.01 have lambda2 < 0 close to
    # lambda3, where a deflation that lets q1 back in drifts to lambda2 ~ 0
    graphs += [Graph.from_edges(n, [(u, v, 1.0 + rng.uniform(-0.01, 0.01))
                                    for u in range(n)
                                    for v in range(u + 1, n)])
               for n in (8, 10, 12)]
    for g in graphs:
        vals = np.linalg.eigvalsh(g.to_dense())
        assert second_eigenvalue(g) == pytest.approx(vals[-2], abs=1e-7)
    assert all(np.linalg.eigvalsh(g.to_dense())[-2] < 0 for g in graphs[10:])


def test_invalid_side_rejected():
    with pytest.raises(ValidationError):
        dominant_eigenpair(k3(), side="middle")


def test_katz_sweep_runs_one_power_iteration_per_side(monkeypatch):
    sides = []
    reach_passes = []
    power_iteration = spectral_module._power_iteration
    reach_count = graph_module._reach_count

    def counting_power_iteration(g, side, *args):
        sides.append(side)
        return power_iteration(g, side, *args)

    def counting_reach(g, csr_sides):
        reach_passes.append(csr_sides)
        return reach_count(g, csr_sides)

    monkeypatch.setattr(spectral_module, "_power_iteration",
                        counting_power_iteration)
    monkeypatch.setattr(graph_module, "_reach_count", counting_reach)
    g = strongly_connected_digraph(40, 0.1, 5)
    limit_sweep(g, "katz", side="receive")
    assert sorted(sides) == ["left", "right"]
    # strong connectivity: one forward and one backward pass per graph
    assert reach_passes == [(False,), (True,)]


def test_cached_eigenpair_is_shared_and_read_only():
    g = karate()
    info = dominant_eigenpair(g)
    assert dominant_eigenpair(g) is info
    assert dominant_eigenpair(g, tol=1e-8) is not info
    with pytest.raises(ValueError):
        info.dominant_vector[0] = 0.0


def test_failed_eigenpair_is_not_cached():
    g = karate()
    with pytest.raises(ConvergenceError):
        dominant_eigenpair(g, max_iter=1)
    with pytest.raises(ConvergenceError):
        dominant_eigenpair(g, max_iter=1)
