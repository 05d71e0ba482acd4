import math

import numpy as np
import pytest

from walkrank import (
    EXPONENTIAL,
    RESOLVENT,
    CapacityError,
    DomainError,
    Graph,
    SeriesFunction,
    TruncationError,
    UnsupportedOperationError,
    ValidationError,
    apply_series,
    dense_limit,
    dominant_eigenpair,
    exp_action,
    fa_diagonal,
    feasible_interval,
    resolvent_solve,
)
from walkrank.datasets import karate
from walkrank.generators import connected_erdos_renyi, strongly_connected_digraph

from oracles import expm_taylor


def k3():
    return Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])


def path3():
    return Graph.from_edges(3, [(0, 1), (1, 2)])


# ---------------------------------------------------------------------------
# series descriptors and the feasible interval
# ---------------------------------------------------------------------------

def test_series_descriptors():
    assert EXPONENTIAL.coefficient(3) == pytest.approx(1.0 / 6.0)
    assert EXPONENTIAL.term_ratio(3) == pytest.approx(0.25)
    assert EXPONENTIAL.class_tag == "entire"
    assert RESOLVENT.term_ratio(17) == 1.0
    assert RESOLVENT.radius == 1.0


def test_feasible_interval():
    assert feasible_interval(EXPONENTIAL, 5.0) == (0.0, math.inf)
    assert feasible_interval(RESOLVENT, 2.0) == (0.0, 0.5)
    assert feasible_interval(RESOLVENT, 0.0) == (0.0, math.inf)
    with pytest.raises(ValidationError):
        feasible_interval(RESOLVENT, -1.0)


def test_feasible_interval_karate():
    lam1 = dominant_eigenpair(karate()).lambda1
    _, t_star = feasible_interval(RESOLVENT, lam1)
    assert t_star == pytest.approx(0.148683, abs=1e-4)


# ---------------------------------------------------------------------------
# apply_series
# ---------------------------------------------------------------------------

def test_resolvent_series_on_triangle():
    out = apply_series(k3(), RESOLVENT, 0.25, np.ones(3))
    assert np.allclose(out, 2.0, atol=1e-9)


def test_series_at_zero_returns_constant_term():
    v = np.array([1.0, -2.0, 3.0])
    assert np.array_equal(apply_series(k3(), EXPONENTIAL, 0.0, v), v)
    assert np.array_equal(apply_series(k3(), RESOLVENT, 0.0, v), v)


def test_series_domain_errors():
    with pytest.raises(DomainError):
        apply_series(k3(), EXPONENTIAL, -0.1, np.ones(3))
    with pytest.raises(DomainError, match="t_star"):
        apply_series(k3(), RESOLVENT, 0.5, np.ones(3))  # t* = 1/2
    with pytest.raises(DomainError, match="0.5"):
        apply_series(k3(), RESOLVENT, 0.7, np.ones(3))


def test_series_vector_validation():
    with pytest.raises(ValidationError):
        apply_series(k3(), RESOLVENT, 0.1, np.ones(4))
    with pytest.raises(ValidationError):
        apply_series(k3(), RESOLVENT, 0.1, np.array([1.0, np.nan, 1.0]))


def test_series_truncation_error_reports_tail():
    with pytest.raises(TruncationError) as exc_info:
        apply_series(k3(), RESOLVENT, 0.45, np.ones(3), max_terms=5)
    err = exc_info.value
    assert err.best is not None
    assert err.bound is not None and err.bound > 0


def test_exponential_series_matches_dense_taylor():
    g = path3()
    expected = expm_taylor(g.to_dense()) @ np.ones(3)
    out = apply_series(g, EXPONENTIAL, 1.0, np.ones(3))
    assert np.allclose(out, expected, rtol=1e-10)


def test_series_transpose_applies_to_adjoint():
    g = strongly_connected_digraph(8, 0.3, 4)
    a = g.to_dense()
    v = np.arange(1.0, 9.0)
    out = apply_series(g, EXPONENTIAL, 0.7, v, transpose=True)
    assert np.allclose(out, expm_taylor(0.7 * a.T) @ v, rtol=1e-9)


def test_resolvent_series_agrees_with_neumann_solver():
    rng = np.random.default_rng(6)
    for _ in range(8):
        g = connected_erdos_renyi(int(rng.integers(4, 51)),
                                  float(rng.uniform(0.2, 0.6)),
                                  int(rng.integers(0, 2 ** 31)))
        lam1 = dominant_eigenpair(g).lambda1
        alpha = float(rng.uniform(0.0, 0.95)) / lam1
        v = rng.uniform(0.5, 2.0, g.n)
        a = apply_series(g, RESOLVENT, alpha, v, lambda1=lam1)
        b = resolvent_solve(g, alpha, v, lambda1=lam1)
        assert np.abs(a - b).sum() <= 10 * 1e-10 * np.abs(b).sum()


# ---------------------------------------------------------------------------
# exp_action
# ---------------------------------------------------------------------------

def test_exp_action_on_triangle():
    out = exp_action(k3(), 1.0, np.ones(3))
    assert np.allclose(out, math.e ** 2, rtol=1e-10)


def test_exp_action_zero_and_edgeless():
    v = np.array([2.0, 3.0, 4.0])
    assert np.array_equal(exp_action(k3(), 0.0, v), v)
    g = Graph.from_edges(3, [])
    assert np.array_equal(exp_action(g, 5.0, v), v)


def test_exp_action_negative_beta_rejected():
    with pytest.raises(DomainError):
        exp_action(k3(), -1.0, np.ones(3))


def test_exponential_overflow_names_its_cause():
    # lambda1 = 2, so beta * lambda1 = 800 is past float64's exp range
    with pytest.raises(DomainError, match="overflows float64 at beta = 400"):
        exp_action(k3(), 400.0, np.ones(3))
    with pytest.raises(DomainError, match="overflows float64 at beta = 400"):
        fa_diagonal(k3(), EXPONENTIAL, 400.0)


def test_exp_action_matches_dense_exponential():
    rng = np.random.default_rng(12)
    for directed in (False, True):
        for _ in range(5):
            n = int(rng.integers(3, 25))
            make = (strongly_connected_digraph if directed
                    else connected_erdos_renyi)
            g = make(n, 0.4, int(rng.integers(0, 2 ** 31)))
            beta = float(rng.uniform(0.1, 3.0))
            v = rng.uniform(0.1, 1.0, n)
            a = g.to_dense()
            assert np.allclose(exp_action(g, beta, v),
                               expm_taylor(beta * a) @ v, rtol=1e-9)
            assert np.allclose(exp_action(g, beta, v, transpose=True),
                               expm_taylor(beta * a.T) @ v, rtol=1e-9)


def test_exp_action_is_deterministic():
    g = karate()
    v = np.linspace(0.5, 2.0, g.n)
    first = exp_action(g, 2.5, v)
    second = exp_action(g, 2.5, v)
    assert np.array_equal(first, second)


def test_exp_action_semigroup_property():
    g = karate()
    v = np.linspace(1.0, 2.0, g.n)
    combined = exp_action(g, 1.9, v)
    chained = exp_action(g, 0.7, exp_action(g, 1.2, v))
    assert np.abs(combined - chained).max() <= 1e-8 * np.abs(combined).max()


# ---------------------------------------------------------------------------
# resolvent_solve
# ---------------------------------------------------------------------------

def test_resolvent_solve_on_triangle():
    out = resolvent_solve(k3(), 0.25, np.ones(3))
    assert np.allclose(out, 2.0, atol=1e-9)


def test_resolvent_solve_boundary_alpha_zero():
    v = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(resolvent_solve(k3(), 0.0, v), v)


def test_resolvent_solve_karate_matches_dense_solve():
    g = karate()
    lam1 = dominant_eigenpair(g).lambda1
    alpha = 0.9 / lam1
    expected = np.linalg.solve(np.eye(g.n) - alpha * g.to_dense(),
                               np.ones(g.n))
    out = resolvent_solve(g, alpha, np.ones(g.n))
    assert np.abs(out - expected).max() <= 1e-8 * np.abs(expected).max()


def test_resolvent_solve_names_the_bound():
    lam1 = dominant_eigenpair(k3()).lambda1
    with pytest.raises(DomainError, match="1/lambda1 = 0.5"):
        resolvent_solve(k3(), 0.5, np.ones(3), lambda1=lam1)
    with pytest.raises(DomainError):
        resolvent_solve(k3(), -0.1, np.ones(3))


def test_resolvent_solve_transpose():
    g = strongly_connected_digraph(10, 0.3, 21)
    lam1 = dominant_eigenpair(g).lambda1
    alpha = 0.6 / lam1
    v = np.linspace(1.0, 2.0, 10)
    expected = np.linalg.solve(np.eye(10) - alpha * g.to_dense().T, v)
    out = resolvent_solve(g, alpha, v, transpose=True)
    assert np.allclose(out, expected, rtol=1e-8)


# ---------------------------------------------------------------------------
# fa_diagonal
# ---------------------------------------------------------------------------

def test_diagonal_exponential_on_triangle():
    expected = (math.e ** 2 + 2.0 / math.e) / 3.0
    out = fa_diagonal(k3(), EXPONENTIAL, 1.0)
    assert np.allclose(out, expected, atol=1e-10)


def test_diagonal_resolvent_on_triangle():
    out = fa_diagonal(k3(), RESOLVENT, 0.25)
    assert np.allclose(out, 1.2, atol=1e-12)


def test_diagonal_rejects_directed_and_bad_t():
    g = Graph.from_edges(3, [(0, 1), (1, 2), (2, 0)], directed=True)
    with pytest.raises(UnsupportedOperationError):
        fa_diagonal(g, EXPONENTIAL, 1.0)
    with pytest.raises(DomainError):
        fa_diagonal(k3(), EXPONENTIAL, -1.0)
    with pytest.raises(DomainError, match="t_star"):
        fa_diagonal(k3(), RESOLVENT, 0.5)


def test_diagonal_positive_inside_feasible_interval():
    rng = np.random.default_rng(13)
    for _ in range(5):
        g = connected_erdos_renyi(int(rng.integers(3, 30)), 0.4,
                                  int(rng.integers(0, 2 ** 31)))
        lam1 = dominant_eigenpair(g).lambda1
        assert fa_diagonal(g, EXPONENTIAL, 1.5).min() > 0
        assert fa_diagonal(g, RESOLVENT, 0.8 / lam1).min() > 0


def test_diagonal_trace_identity():
    g = karate()
    mu = np.linalg.eigvalsh(g.to_dense())
    for f, t in ((EXPONENTIAL, 1.3), (RESOLVENT, 0.07)):
        diag = fa_diagonal(g, f, t)
        if f is EXPONENTIAL:
            trace = np.exp(t * mu).sum()
        else:
            trace = (1.0 / (1.0 - t * mu)).sum()
        assert diag.sum() == pytest.approx(trace, rel=1e-8)


def test_diagonal_cross_checks_exp_action():
    rng = np.random.default_rng(14)
    g = connected_erdos_renyi(15, 0.4, int(rng.integers(0, 2 ** 31)))
    beta = 1.1
    diag = fa_diagonal(g, EXPONENTIAL, beta)
    for i in range(g.n):
        e_i = np.zeros(g.n)
        e_i[i] = 1.0
        assert exp_action(g, beta, e_i)[i] == pytest.approx(diag[i], rel=1e-8)


def test_dense_limit_env_override(monkeypatch):
    assert dense_limit() == 3000
    monkeypatch.setenv("CENTRALITY_DENSE_LIMIT", "10")
    assert dense_limit() == 10
    g = connected_erdos_renyi(12, 0.4, 3)
    with pytest.raises(CapacityError, match="total_communicability"):
        fa_diagonal(g, EXPONENTIAL, 1.0)
    monkeypatch.setenv("CENTRALITY_DENSE_LIMIT", "12")
    assert fa_diagonal(g, EXPONENTIAL, 1.0).min() > 0
    monkeypatch.setenv("CENTRALITY_DENSE_LIMIT", "many")
    with pytest.raises(ValidationError):
        dense_limit()


def test_custom_series_function():
    # cosh: even part of the exponential, still entire with positive
    # coefficients after reparameterization x -> x (odd terms zero would be
    # invalid, so use (exp + shifted) style: here take f with c_k = 1/2^k,
    # a geometric series with radius 2
    geometric_half = SeriesFunction(
        kind="geometric-half",
        coefficient=lambda k: 0.5 ** k,
        radius=2.0,
        class_tag="divergent_at_radius",
    )
    g = k3()
    # f(tA) v with f = sum (x/2)^k = (I - tA/2)^{-1} v
    out = apply_series(g, geometric_half, 0.5, np.ones(3))
    expected = np.linalg.solve(np.eye(3) - 0.25 * g.to_dense(), np.ones(3))
    assert np.allclose(out, expected, rtol=1e-9)
    diag = fa_diagonal(g, geometric_half, 0.5)
    expected_diag = np.diag(np.linalg.inv(np.eye(3) - 0.25 * g.to_dense()))
    assert np.allclose(diag, expected_diag, rtol=1e-9)
    # t* = radius / lambda1 = 2 / 2 = 1
    with pytest.raises(DomainError):
        apply_series(g, geometric_half, 1.0, np.ones(3))
