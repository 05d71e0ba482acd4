import dataclasses
import math
import re
import time

import numpy as np
import pytest

from walkrank import (
    EXPONENTIAL,
    RESOLVENT,
    CapacityError,
    ConvergenceError,
    DomainError,
    Graph,
    SeriesFunction,
    UnsupportedOperationError,
    ValidationError,
    dense_limit,
    dominant_eigenpair,
    exp_action,
    fa_diagonal,
    feasible_interval,
    hits,
    katz,
    limit_sweep,
    resolvent_solve,
    second_eigenvalue,
)
from walkrank import _kernels
from walkrank.datasets import karate
from walkrank.generators import (
    connected_erdos_renyi,
    ring,
    strongly_connected_digraph,
)
from walkrank.pagerank import (
    build_model,
    heat_kernel_rowsums,
    pagerank_linear,
    pagerank_power,
)

from oracles import expm_taylor


def k3():
    return Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])


def path3():
    return Graph.from_edges(3, [(0, 1), (1, 2)])


# ---------------------------------------------------------------------------
# series descriptors and the feasible interval
# ---------------------------------------------------------------------------

def test_series_descriptors():
    assert [f.name for f in dataclasses.fields(SeriesFunction)] == [
        "kind", "radius"]
    assert EXPONENTIAL.radius == math.inf
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
# shared validation and the Taylor sum
# ---------------------------------------------------------------------------

def test_series_at_zero_returns_constant_term():
    v = np.array([1.0, -2.0, 3.0])
    assert np.array_equal(exp_action(k3(), 0.0, v), v)
    assert np.array_equal(resolvent_solve(k3(), 0.0, v), v)


def test_exponential_series_matches_dense_taylor():
    g = path3()
    expected = expm_taylor(g.to_dense()) @ np.ones(3)
    out = exp_action(g, 1.0, np.ones(3), tol=1e-10)
    assert np.allclose(out, expected, rtol=1e-10)


def test_series_transpose_applies_to_adjoint():
    g = strongly_connected_digraph(8, 0.3, 4)
    a = g.to_dense()
    v = np.arange(1.0, 9.0)
    out = exp_action(g, 0.7, v, tol=1e-10, transpose=True)
    assert np.allclose(out, expm_taylor(0.7 * a.T) @ v, rtol=1e-9)


def test_series_vector_validation():
    for call in (lambda v: exp_action(k3(), 0.1, v),
                 lambda v: resolvent_solve(k3(), 0.1, v)):
        with pytest.raises(ValidationError, match="length 3"):
            call(np.ones(4))
        with pytest.raises(ValidationError, match="finite"):
            call(np.array([1.0, np.nan, 1.0]))


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


def test_nan_taylor_sum_names_overflow_at_once():
    # every entry of v is finite, but the terms overflow to +-inf and the
    # running sum turns NaN: a float64 overflow, named at once
    g = connected_erdos_renyi(7, 0.6, 0)
    v = 1.7e308 * (-1.0) ** np.arange(7)
    start = time.perf_counter()
    with pytest.raises(DomainError, match="overflows float64"):
        exp_action(g, 1.0, v)
    assert time.perf_counter() - start < 0.5



def test_step_count_past_float64_names_overflow_before_any_step():
    # beta * ||A|| = 3.4e308 would need more than 2**1023 scaling steps
    start = time.perf_counter()
    with pytest.raises(DomainError,
                       match=r"overflows float64 at beta = 1\.7e\+308"):
        exp_action(k3(), 1.7e308, np.ones(3))
    assert time.perf_counter() - start < 0.5


def test_taylor_sum_with_an_overflowing_norm_keeps_its_stopping_test():
    # at beta = 105.2 every entry of exp(beta A) 1 on karate is finite but
    # their 1-norm is past float64's range; a stopping test against that
    # inf norm ended every step after two terms, 1.6 % off
    g = karate()
    mu, q = np.linalg.eigh(g.to_dense())
    beta = 105.2
    shift = beta * mu.max()
    want = q @ (np.exp(beta * mu - shift) * (q.T @ np.ones(g.n)))
    got = exp_action(g, beta, np.ones(g.n))
    with np.errstate(over="ignore"):
        assert np.isinf(np.abs(got).sum())
    assert np.allclose(got / np.exp(shift), want, rtol=1e-10, atol=0.0)

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


def test_diagonal_rejects_a_function_without_a_closed_form():
    halved = SeriesFunction(kind="geometric-half", radius=2.0)
    with pytest.raises(ValidationError, match="'geometric-half'"):
        fa_diagonal(k3(), halved, 0.5)


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


def test_sweep_runs_one_eigh_per_graph(monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(a):
        calls.append(a.shape)
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    g = karate()
    limit_sweep(g, "exp-subgraph")
    limit_sweep(g, "resolvent-subgraph")
    assert calls == [(g.n, g.n)]


def test_cached_diagonal_is_bitwise_fresh_and_read_only():
    g = karate()
    fa_diagonal(g, EXPONENTIAL, 1.0)  # fills the cache
    fresh = karate()
    for f, t in ((EXPONENTIAL, 2.0), (RESOLVENT, 0.05)):
        assert np.array_equal(fa_diagonal(g, f, t), fa_diagonal(fresh, f, t))
    # the unsquared route: diag(f(tA)) = (Q * Q) @ f(t mu)
    mu, q = np.linalg.eigh(g.to_dense())
    assert np.array_equal(fa_diagonal(g, EXPONENTIAL, 2.0),
                          (q * q) @ np.exp(2.0 * mu))
    mu, w = g.memo("eigh", pytest.fail)  # already stored: not recomputed
    for arr in (mu, w):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_dense_limit_env_override(monkeypatch):
    assert dense_limit() == 3000
    monkeypatch.setenv("CENTRALITY_DENSE_LIMIT", "10")
    assert dense_limit() == 10
    g = connected_erdos_renyi(12, 0.4, 3)
    with pytest.raises(CapacityError, match="total_communicability"):
        fa_diagonal(g, EXPONENTIAL, 1.0)
    monkeypatch.setenv("CENTRALITY_DENSE_LIMIT", "12")
    assert fa_diagonal(g, EXPONENTIAL, 1.0).min() > 0
    # the limit is checked before the cached decomposition is looked up
    monkeypatch.setenv("CENTRALITY_DENSE_LIMIT", "10")
    with pytest.raises(CapacityError):
        fa_diagonal(g, EXPONENTIAL, 1.0)
    monkeypatch.setenv("CENTRALITY_DENSE_LIMIT", "many")
    with pytest.raises(ValidationError):
        dense_limit()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1.0])
def test_parameter_outside_its_range_is_named(value):
    g = k3()
    ones = np.ones(g.n)
    calls = [("beta", lambda: exp_action(g, value, ones)),
             ("alpha", lambda: resolvent_solve(g, value, ones)),
             ("beta", lambda: fa_diagonal(g, EXPONENTIAL, value)),
             ("alpha", lambda: fa_diagonal(g, RESOLVENT, value)),
             ("t", lambda: heat_kernel_rowsums(build_model(g), value))]
    for name, call in calls:
        with pytest.raises(DomainError,
                           match=f"^{name} must be finite and non-negative"):
            call()


def test_parameter_beyond_the_feasible_endpoint_is_named():
    g = k3()  # lambda1 = 2, t_star = 1/2 for the resolvent
    ones = np.ones(g.n)
    bound = r"must lie in \[0, t_star\) with t_star = 1/lambda1 = 0\.5; got"
    calls = [("alpha", lambda: resolvent_solve(g, 0.6, ones)),
             ("alpha", lambda: fa_diagonal(g, RESOLVENT, 0.6))]
    for name, call in calls:
        with pytest.raises(DomainError,
                           match=f"^{name} {bound} {name} = 0\\.6$"):
            call()


@pytest.mark.parametrize("tol", [0.0, -1e-10, math.nan, math.inf])
def test_tolerance_outside_its_range_is_named_before_any_iteration(
        monkeypatch, tol):
    def no_iteration(*args):
        raise AssertionError("iterated before checking tol")

    monkeypatch.setattr(_kernels, "csr_matvec", no_iteration)
    monkeypatch.setattr(_kernels, "neumann", no_iteration)
    g = karate()
    model = build_model(g)
    ones = np.ones(g.n)
    calls = [lambda: dominant_eigenpair(g, tol=tol),
             lambda: resolvent_solve(g, 0.01, ones, tol=tol),
             lambda: exp_action(g, 0.1, ones, tol=tol),
             lambda: pagerank_power(model, tol=tol),
             lambda: pagerank_linear(model, tol=tol),
             lambda: heat_kernel_rowsums(model, 1.0, tol=tol),
             lambda: hits(g, tol=tol),
             lambda: katz(g, tol=tol)]
    for call in calls:
        with pytest.raises(DomainError,
                           match="^tol must be positive and finite, got"):
            call()


@pytest.mark.parametrize("method, call", [
    ("power iteration on A \\+ I",
     lambda: dominant_eigenpair(karate(), max_iter=1)),
    # ring(9) is regular, so its dominant pair converges in one step
    ("power iteration on the deflated A \\+ lambda1 I",
     lambda: second_eigenvalue(ring(9), max_iter=1)),
    ("power iteration on A A\\^T", lambda: hits(karate(), max_iter=1)),
    ("Neumann iteration",
     lambda: resolvent_solve(karate(), 0.1, np.ones(34), max_iter=1)),
    ("Neumann iteration",
     lambda: pagerank_linear(build_model(karate()), max_iter=1)),
    ("PageRank power iteration",
     lambda: pagerank_power(build_model(karate()), max_iter=1)),
], ids=["dominant_eigenpair", "second_eigenvalue", "hits", "resolvent_solve",
        "pagerank_linear", "pagerank_power"])
def test_step_limit_errors_share_one_wording(method, call):
    with pytest.raises(ConvergenceError) as exc_info:
        call()
    number = r"\d\.\d{3}e[+-]\d\d"
    assert re.fullmatch(
        rf"{method} did not reach tol=1e-10 within 1 steps \(last "
        rf"(residual {number}|step {number} in 1-norm)\)",
        str(exc_info.value))
    assert exc_info.value.residual > 0
    assert exc_info.value.best is not None
