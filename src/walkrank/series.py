"""Matrix functions of the adjacency matrix, evaluated through power series.

A :class:`SeriesFunction` describes ``f(x) = sum_k c_k x^k`` with positive
coefficients and a radius of convergence ``R``. Applied to a graph with
spectral radius ``lambda1``, the matrix version ``f(t A)`` is defined for
``t`` in the feasible interval ``[0, R / lambda1)``.

Three evaluation strategies live here:

* :func:`apply_series` — generic term-by-term evaluation of ``f(tA) v``;
* :func:`exp_action` / :func:`resolvent_solve` — specialized fast paths for
  the two workhorse functions (scaled Taylor stepping, Neumann iteration);
* :func:`fa_diagonal` — dense-eigendecomposition route to ``diag(f(tA))``
  for undirected graphs up to a configurable size limit.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _kernels
from .errors import (
    CapacityError,
    ConvergenceError,
    DomainError,
    TruncationError,
    UnsupportedOperationError,
    ValidationError,
)
from .graph import Graph, degrees
from .spectral import dominant_eigenpair

__all__ = [
    "SeriesFunction",
    "EXPONENTIAL",
    "RESOLVENT",
    "feasible_interval",
    "apply_series",
    "exp_action",
    "resolvent_solve",
    "fa_diagonal",
    "dense_limit",
]

DEFAULT_TOL = 1e-10
DEFAULT_MAX_TERMS = 500_000
DEFAULT_DENSE_LIMIT = 3000


@dataclass(frozen=True)
class SeriesFunction:
    """A power series ``sum_k c_k x^k`` with positive coefficients.

    ``coefficient(k)`` returns ``c_k``; ``ratio(k)``, when provided, returns
    ``c_{k+1} / c_k`` and should be preferred for deep series where the
    coefficients themselves under- or overflow (e.g. ``1/k!``). ``radius``
    is the series' radius of convergence (``inf`` for entire functions).
    ``class_tag`` records the qualitative behavior at the radius:
    ``"entire"``, ``"divergent_at_radius"``, or ``"general"``.
    """

    kind: str
    coefficient: Callable[[int], float]
    radius: float
    class_tag: str
    ratio: Callable[[int], float] | None = None

    def term_ratio(self, k: int) -> float:
        if self.ratio is not None:
            return self.ratio(k)
        ck = self.coefficient(k)
        ck1 = self.coefficient(k + 1)
        if ck <= 0.0 or ck1 <= 0.0:
            raise ValidationError(
                f"series coefficients must be positive; got c_{k}={ck}, "
                f"c_{k + 1}={ck1}")
        return ck1 / ck


EXPONENTIAL = SeriesFunction(
    kind="exponential",
    coefficient=lambda k: 1.0 / math.factorial(k) if k < 171 else 0.0,
    radius=math.inf,
    class_tag="entire",
    ratio=lambda k: 1.0 / (k + 1.0),
)

RESOLVENT = SeriesFunction(
    kind="resolvent",
    coefficient=lambda k: 1.0,
    radius=1.0,
    class_tag="divergent_at_radius",
    ratio=lambda k: 1.0,
)


def feasible_interval(f: SeriesFunction, lambda1: float) -> tuple[float, float]:
    """``(0, t_star)`` with ``t_star = radius / lambda1``.

    ``t_star`` is ``inf`` for entire functions or when ``lambda1 == 0``.
    """
    if lambda1 < 0:
        raise ValidationError(f"lambda1 must be non-negative, got {lambda1}")
    if not math.isfinite(f.radius):
        return (0.0, math.inf)
    if lambda1 == 0.0:
        return (0.0, math.inf)
    return (0.0, f.radius / lambda1)


def _norm_bound(g: Graph) -> float:
    """Cheap upper bound on the spectral radius: min of max row/col sums."""
    out, in_ = degrees(g)
    if g.n == 0:
        return 0.0
    return float(min(out.max(initial=0.0), in_.max(initial=0.0)))


def _series_action(matvec, f: SeriesFunction, t: float, v: np.ndarray,
                   tol: float, max_terms: int,
                   rho_hint: float) -> tuple[np.ndarray, int]:
    """Evaluate ``f(tA) v`` term by term.

    Stops after two consecutive terms satisfy
    ``||term||_1 <= tol * ||accumulated||_1``. ``rho_hint`` is an estimate of
    the asymptotic term-to-term growth factor, used only to report a tail
    bound if the term cap is hit.
    """
    c0 = f.coefficient(0)
    if c0 <= 0.0:
        raise ValidationError(f"series constant term must be positive, got {c0}")
    acc = c0 * v.astype(np.float64, copy=True)
    if t == 0.0:
        return acc, 0
    term = acc.copy()
    consecutive_small = 0
    k = 0
    while True:
        if k >= max_terms:
            rho = f.term_ratio(k) * rho_hint
            tail = (float(np.abs(term).sum()) * rho / (1.0 - rho)
                    if rho < 1.0 else math.inf)
            raise TruncationError(
                f"series did not converge within {max_terms} terms; "
                f"estimated neglected tail {tail:.3e} in 1-norm",
                best=acc, bound=tail)
        term = (f.term_ratio(k) * t) * matvec(term)
        k += 1
        acc += term
        if float(np.abs(term).sum()) <= tol * float(np.abs(acc).sum()):
            consecutive_small += 1
            if consecutive_small >= 2:
                return acc, k
        else:
            consecutive_small = 0


def _validate_vector(g: Graph, v) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (g.n,):
        raise ValidationError(
            f"vector must have length {g.n}, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValidationError("vector entries must be finite")
    return v


def apply_series(g: Graph, f: SeriesFunction, t: float, v,
                 *, tol: float = DEFAULT_TOL,
                 max_terms: int = DEFAULT_MAX_TERMS,
                 transpose: bool = False,
                 lambda1: float | None = None) -> np.ndarray:
    """``f(tA) v`` by direct summation of the power series.

    ``t`` must lie in ``[0, t_star)``; for functions with a finite radius
    the dominant eigenvalue is computed on demand (or passed via
    ``lambda1``) to locate ``t_star``. ``transpose=True`` applies
    ``f(t A^T)`` instead. Exceeding ``max_terms`` raises
    :class:`TruncationError` with a tail-size estimate.
    """
    v = _validate_vector(g, v)
    if t < 0.0:
        raise DomainError(f"t must be non-negative, got {t}")
    if math.isfinite(f.radius) and t > 0.0:
        if lambda1 is None:
            lambda1 = dominant_eigenpair(g).lambda1
        lo, t_star = feasible_interval(f, lambda1)
        if t >= t_star:
            raise DomainError(
                f"t must lie in [0, t_star) with t_star = "
                f"radius/lambda1 = {t_star:.12g}; got t = {t}")
    indptr, indices, data = g.adjacency_t() if transpose else g.adjacency()

    def matvec(x):
        return _kernels.csr_matvec(indptr, indices, data, x)

    rho_hint = t * _norm_bound(g)
    result, _ = _series_action(matvec, f, t, v, tol, max_terms, rho_hint)
    return result


def exp_action(g: Graph, beta: float, v, *, tol: float = DEFAULT_TOL,
               max_terms: int = DEFAULT_MAX_TERMS,
               transpose: bool = False) -> np.ndarray:
    """``exp(beta * A) v`` by scaled Taylor stepping.

    The step count ``s`` is the smallest power of two with
    ``beta * norm_bound / s <= 1``; the vector is then advanced ``s`` times
    through a Taylor evaluation of ``exp((beta/s) A)`` at tolerance
    ``tol/s``. Fixed summation order makes the result bitwise reproducible
    for identical inputs. Raises :class:`DomainError` when the result
    overflows float64.
    """
    v = _validate_vector(g, v)
    if beta < 0.0:
        raise DomainError(f"beta must be non-negative, got {beta}")
    if beta == 0.0 or g.m == 0:
        return v.copy()
    indptr, indices, data = g.adjacency_t() if transpose else g.adjacency()

    def matvec(x):
        return _kernels.csr_matvec(indptr, indices, data, x)

    with np.errstate(over="ignore", invalid="ignore"):
        w = _scaled_taylor(matvec, beta, _norm_bound(g), v, tol, max_terms)
    return _check_exp_finite(w, beta)


def _scaled_taylor(matvec, beta: float, norm_bound: float, v: np.ndarray,
                   tol: float, max_terms: int) -> np.ndarray:
    """``exp(beta * M) v`` for the operator ``matvec`` with ``||M|| <=
    norm_bound``: ``s`` Taylor steps of ``exp((beta/s) M)`` at tolerance
    ``tol/s``, ``s`` the smallest power of two with ``beta * norm_bound / s
    <= 1``."""
    s = 1
    while beta * norm_bound / s > 1.0:
        s *= 2
    step = beta / s
    inner_tol = tol / s
    rho_hint = step * norm_bound
    w = v
    for _ in range(s):
        w, _ = _series_action(matvec, EXPONENTIAL, step, w, inner_tol,
                              max_terms, rho_hint)
    return w


def _check_exp_finite(scores: np.ndarray, beta: float) -> np.ndarray:
    """Name float64 overflow of ``exp(beta * A)`` as the cause of inf/NaN."""
    if not np.all(np.isfinite(scores)):
        raise DomainError(
            f"exp(beta*A) overflows float64 at beta = {beta:.12g}: its "
            "entries grow like exp(beta*lambda1), past the float64 range "
            "once beta*lambda1 exceeds ~709; use a smaller beta")
    return scores


def resolvent_solve(g: Graph, alpha: float, v, *, tol: float = DEFAULT_TOL,
                    max_iter: int = 2_000_000, transpose: bool = False,
                    lambda1: float | None = None) -> np.ndarray:
    """``(I - alpha A)^{-1} v`` by Neumann iteration ``x <- v + alpha A x``.

    Requires ``0 <= alpha < 1/lambda1`` (the boundary ``alpha = 0`` returns
    ``v``). Iterates until ``||x_{m+1} - x_m||_1 <= tol * ||x_{m+1}||_1``.
    """
    v = _validate_vector(g, v)
    if alpha < 0.0:
        raise DomainError(f"alpha must be non-negative, got {alpha}")
    if alpha == 0.0 or g.m == 0:
        return v.copy()
    if lambda1 is None:
        lambda1 = dominant_eigenpair(g).lambda1
    if lambda1 > 0.0 and alpha >= 1.0 / lambda1:
        raise DomainError(
            f"alpha must be < 1/lambda1 = {1.0 / lambda1:.12g}; "
            f"got alpha = {alpha}")
    indptr, indices, data = g.adjacency_t() if transpose else g.adjacency()
    x, iterations, diff = _kernels.neumann(indptr, indices, data, v,
                                           alpha, tol, max_iter)
    if diff > tol * float(np.abs(x).sum()):
        raise ConvergenceError(
            f"Neumann iteration did not reach tol={tol} within {max_iter} "
            f"steps (last step {diff:.3e} in 1-norm)", best=x, residual=diff)
    return x


def dense_limit() -> int:
    """Size cap for dense eigendecompositions.

    Defaults to 3000 nodes; override with the ``CENTRALITY_DENSE_LIMIT``
    environment variable (checked on every call).
    """
    raw = os.environ.get("CENTRALITY_DENSE_LIMIT", "")
    if not raw.strip():
        return DEFAULT_DENSE_LIMIT
    try:
        return int(raw)
    except ValueError:
        raise ValidationError(
            f"CENTRALITY_DENSE_LIMIT must be an integer, got {raw!r}") from None


def _scalar_series(f: SeriesFunction, xs: np.ndarray, tol: float,
                   max_terms: int) -> np.ndarray:
    """Evaluate the scalar series elementwise over ``xs`` (|x| < radius)."""
    acc = np.full(xs.shape, f.coefficient(0), dtype=np.float64)
    term = acc.copy()
    consecutive_small = 0
    k = 0
    while True:
        if k >= max_terms:
            rho = f.term_ratio(k) * float(np.abs(xs).max(initial=0.0))
            tail = (float(np.abs(term).sum()) * rho / (1.0 - rho)
                    if rho < 1.0 else math.inf)
            raise TruncationError(
                f"scalar series did not converge within {max_terms} terms; "
                f"estimated neglected tail {tail:.3e}", best=acc, bound=tail)
        term = term * (f.term_ratio(k) * xs)
        k += 1
        acc += term
        if float(np.abs(term).sum()) <= tol * float(np.abs(acc).sum()):
            consecutive_small += 1
            if consecutive_small >= 2:
                return acc
        else:
            consecutive_small = 0


def fa_diagonal(g: Graph, f: SeriesFunction, t: float,
                *, tol: float = DEFAULT_TOL,
                max_terms: int = DEFAULT_MAX_TERMS) -> np.ndarray:
    """``diag(f(tA))`` through a dense symmetric eigendecomposition.

    With ``A = Q diag(mu) Q^T``, entry ``i`` is ``sum_k f(t mu_k) Q_ik^2``.
    Exponential and resolvent use closed scalar forms; other series are
    summed scalar-wise. Undirected graphs only, and ``n`` must not exceed
    :func:`dense_limit`. Raises :class:`DomainError` when the exponential
    overflows float64.
    """
    if g.directed:
        raise UnsupportedOperationError(
            "diagonal measures need an undirected graph: a walk-return "
            "diagonal cannot separate in- from out-roles")
    limit = dense_limit()
    if g.n > limit:
        raise CapacityError(
            f"dense eigendecomposition limited to {limit} nodes (graph has "
            f"{g.n}); raise CENTRALITY_DENSE_LIMIT or use "
            "total_communicability, which needs no dense factorization")
    if t < 0.0:
        raise DomainError(f"t must be non-negative, got {t}")
    if g.n == 0:
        return np.zeros(0)

    mu, q = np.linalg.eigh(g.to_dense())
    lambda1 = float(mu[-1])
    if math.isfinite(f.radius) and t > 0.0:
        _, t_star = feasible_interval(f, lambda1)
        if t >= t_star:
            raise DomainError(
                f"t must lie in [0, t_star) with t_star = "
                f"radius/lambda1 = {t_star:.12g}; got t = {t}")

    x = t * mu
    if f.kind == "exponential":
        with np.errstate(over="ignore", invalid="ignore"):
            return _check_exp_finite((q * q) @ np.exp(x), t)
    if f.kind == "resolvent":
        vals = 1.0 / (1.0 - x)
    else:
        vals = _scalar_series(f, x, tol, max_terms)
    return (q * q) @ vals
