"""Matrix functions of the adjacency matrix: the exponential and the resolvent.

A :class:`SeriesFunction` names one of the two, ``exp(x)`` or
``1 / (1 - x)``, with its radius of convergence ``R``. Applied to a graph
with spectral radius ``lambda1``, the matrix version ``f(t A)`` is defined
for ``t`` in the feasible interval ``[0, R / lambda1)``. Each of
:data:`EXPONENTIAL` and :data:`RESOLVENT` has one route for ``f(tA) v`` and
one for ``diag(f(tA))``:

* :func:`exp_action` / :func:`resolvent_solve` — ``f(tA) v`` by scaled
  Taylor stepping and by Neumann iteration;
* :func:`fa_diagonal` — ``diag(f(tA))`` in closed form from a dense
  eigendecomposition, for undirected graphs up to a configurable size
  limit; the decomposition is computed once per graph.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import (
    CapacityError,
    DomainError,
    UnsupportedOperationError,
    ValidationError,
)
from .graph import Graph, degrees
from .spectral import DEFAULT_TOL, _check_tol, dominant_eigenpair

__all__ = [
    "SeriesFunction",
    "EXPONENTIAL",
    "RESOLVENT",
    "feasible_interval",
    "exp_action",
    "resolvent_solve",
    "fa_diagonal",
    "dense_limit",
]

DEFAULT_DENSE_LIMIT = 3000

# Scaled Taylor steps allowed per product: one step costs at least ~33 us
# even on 3 nodes, so 2**32 of them would run for more than a day.
_MAX_TAYLOR_STEPS = 2 ** 32


@dataclass(frozen=True)
class SeriesFunction:
    """A matrix function by name (``kind``) and radius of convergence
    (``radius``, ``inf`` for entire functions)."""

    kind: str
    radius: float


EXPONENTIAL = SeriesFunction(kind="exponential", radius=math.inf)

RESOLVENT = SeriesFunction(kind="resolvent", radius=1.0)


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


def _check_parameter(name: str, t: float, f: SeriesFunction | None = None,
                     lambda1: float | None = None) -> None:
    """Raise :class:`DomainError` naming ``name`` unless ``t`` is finite and
    non-negative and, when ``f`` is given, below the endpoint of
    :func:`feasible_interval` for ``f`` and ``lambda1``."""
    if not 0.0 <= t < math.inf:
        raise DomainError(f"{name} must be finite and non-negative, got {t}")
    if f is not None:
        _, t_star = feasible_interval(f, lambda1)
        if t >= t_star:
            raise DomainError(
                f"{name} must lie in [0, t_star) with t_star = "
                f"{f.radius:g}/lambda1 = {t_star:.12g}; got {name} = {t}")


def _norm_bound(g: Graph) -> float:
    """Cheap upper bound on the spectral radius: min of max row/col sums."""
    out, in_ = degrees(g)
    if g.n == 0:
        return 0.0
    return float(min(out.max(initial=0.0), in_.max(initial=0.0)))


def _validate_vector(g: Graph, v) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (g.n,):
        raise ValidationError(
            f"vector must have length {g.n}, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValidationError("vector entries must be finite")
    return v


def exp_action(g: Graph, beta: float, v, *, tol: float = DEFAULT_TOL,
               transpose: bool = False) -> np.ndarray:
    """``exp(beta * A) v`` by scaled Taylor stepping.

    The step count ``s`` is the smallest power of two with
    ``beta * norm_bound / s <= 1``; the vector is then advanced ``s`` times
    through a Taylor evaluation of ``exp((beta/s) A)`` at tolerance
    ``tol/s``. Fixed summation order makes the result bitwise reproducible
    for identical inputs. Raises :class:`DomainError` when the result
    overflows float64 or ``s`` exceeds ``2**32``.
    """
    v = _validate_vector(g, v)
    _check_parameter("beta", beta)
    _check_tol(tol)
    if beta == 0.0 or g.m == 0:
        return v.copy()
    matvec = g.matvec_t if transpose else g.matvec
    return _scaled_taylor(matvec, beta, _norm_bound(g), v, tol)


@np.errstate(over="ignore", invalid="ignore")
def _scaled_taylor(matvec, beta: float, norm_bound: float, v: np.ndarray,
                   tol: float, name: str = "beta",
                   op: str = "A") -> np.ndarray:
    """``exp(beta * M) v`` for the operator ``matvec`` with ``||M|| <=
    norm_bound``: ``s`` Taylor steps of ``exp((beta/s) M)``, ``s`` the
    smallest power of two with ``beta * norm_bound / s <= 1``.

    Each step sums ``term_{k+1} = (step / (k+1)) M term_k`` from ``term_0 =
    w`` and stops after two consecutive terms with ``||term||_1 <= (tol/s)
    ||sum||_1``. Since ``step * ||M|| <= 1`` the terms decay like ``1/k!``
    and the test is met unless the sum overflows float64. A sum with an
    entry that is not finite raises :class:`DomainError` at once, naming
    the parameter ``name`` and the operator ``op``. A sum whose entries
    are finite but whose 1-norm overflows goes on, with both norms of the
    test taken after dividing by its largest entry. A step count past
    ``_MAX_TAYLOR_STEPS`` raises :class:`DomainError` naming ``name``
    before any step: such a loop cannot finish, and on a nilpotent ``M``
    its sum would never overflow either.
    """
    s = 1
    while beta * norm_bound / s > 1.0:
        if s == _MAX_TAYLOR_STEPS:
            x = beta * norm_bound
            mantissa, exponent = math.frexp(x)
            steps = (f"2**{exponent - (mantissa == 0.5)}"
                     if math.isfinite(x) else "over 2**1023")
            raise DomainError(
                f"exp({name}*{op}) at {name} = {beta:.12g} needs {steps} "
                f"Taylor steps, past the 2**32 that a run can finish; use a "
                f"smaller {name}")
        s *= 2
    step = beta / s
    inner_tol = tol / s
    w = np.array(v, dtype=np.float64)
    for _ in range(s):
        term = w
        small = k = 0
        while small < 2:
            term = ((1.0 / (k + 1.0)) * step) * matvec(term)
            k += 1
            w += term
            total = float(np.abs(w).sum())
            size = float(np.abs(term).sum())
            if not math.isfinite(total):
                _check_exp_finite(w, beta, name, op)
                scale = float(np.abs(w).max())
                total = float(np.abs(w / scale).sum())
                size = float(np.abs(term / scale).sum())
            if size <= inner_tol * total:
                small += 1
            else:
                small = 0
    return w


def _overflow(t: float, name: str = "beta", op: str = "A") -> DomainError:
    """The error naming float64 overflow of ``exp(name * op)``."""
    return DomainError(
        f"exp({name}*{op}) overflows float64 at {name} = {t:.12g}: its "
        f"entries grow like exp({name}*lambda1), past the float64 range "
        f"once {name}*lambda1 exceeds ~709; use a smaller {name}")


def _check_exp_finite(scores: np.ndarray, t: float, name: str = "beta",
                      op: str = "A") -> np.ndarray:
    """Name float64 overflow of ``exp(name * op)`` as the cause of inf/NaN."""
    if not np.all(np.isfinite(scores)):
        raise _overflow(t, name, op)
    return scores


def resolvent_solve(g: Graph, alpha: float, v, *, tol: float = DEFAULT_TOL,
                    max_iter: int = 2_000_000, transpose: bool = False,
                    lambda1: float | None = None) -> np.ndarray:
    """``(I - alpha A)^{-1} v`` by Neumann iteration ``x <- v + alpha A x``.

    Requires ``alpha`` in the feasible interval ``[0, 1/lambda1)`` of
    :data:`RESOLVENT`, with ``lambda1`` computed unless passed; ``alpha = 0``
    and a graph without edges return ``v``. Iterates until
    ``||x_{m+1} - x_m||_1 <= tol * ||x_{m+1}||_1``; the loop raises
    :class:`~walkrank.errors.ConvergenceError` after ``max_iter`` steps.
    """
    v = _validate_vector(g, v)
    _check_parameter("alpha", alpha)
    _check_tol(tol)
    if alpha == 0.0 or g.m == 0:
        return v.copy()
    if lambda1 is None:
        lambda1 = dominant_eigenpair(g).lambda1
    _check_parameter("alpha", alpha, RESOLVENT, lambda1)
    indptr, indices, data = g.adjacency_t() if transpose else g.adjacency()
    return _kernels.neumann(indptr, indices, data, v, alpha, tol,
                            max_iter)[0]


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


def _require_undirected(g: Graph) -> None:
    """Raise :class:`UnsupportedOperationError` for a directed graph."""
    if g.directed:
        raise UnsupportedOperationError(
            "diagonal measures need an undirected graph: a walk-return "
            "diagonal cannot separate in- from out-roles")


def fa_diagonal(g: Graph, f: SeriesFunction, t: float) -> np.ndarray:
    """``diag(f(tA))`` through a dense symmetric eigendecomposition.

    With ``A = Q diag(mu) Q^T``, entry ``i`` is ``sum_k f(t mu_k) Q_ik^2``,
    with ``f`` in closed form: ``exp`` for :data:`EXPONENTIAL` (parameter
    ``beta``), ``1/(1 - x)`` for :data:`RESOLVENT` (parameter ``alpha``).
    Undirected graphs only, and ``n`` must not exceed :func:`dense_limit`.
    Raises :class:`DomainError` when the exponential overflows float64.

    The pair ``(mu, Q * Q)`` does not depend on ``f`` or ``t``: it is
    computed once per graph (see :meth:`Graph.memo`), kept read-only, and
    reused by every later call, so a sweep pays for one ``eigh``. It holds
    ``n**2`` floats for the graph's lifetime. The checks above run before
    the lookup, on every call.
    """
    name = {"exponential": "beta", "resolvent": "alpha"}.get(f.kind)
    if name is None:
        raise ValidationError(
            f"fa_diagonal evaluates the exponential and the resolvent, got "
            f"{f.kind!r}")
    _require_undirected(g)
    limit = dense_limit()
    if g.n > limit:
        raise CapacityError(
            f"dense eigendecomposition limited to {limit} nodes (graph has "
            f"{g.n}); raise CENTRALITY_DENSE_LIMIT or use "
            "total_communicability, which needs no dense factorization")
    _check_parameter(name, t)
    if g.n == 0:
        return np.zeros(0)

    mu, w = g.memo("eigh", lambda: _squared_eigh(g))
    _check_parameter(name, t, f, float(mu[-1]))

    x = t * mu
    if f.kind == "exponential":
        with np.errstate(over="ignore", invalid="ignore"):
            return _check_exp_finite(w @ np.exp(x), t)
    return w @ (1.0 / (1.0 - x))


def _squared_eigh(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """``(mu, Q * Q)`` for ``A = Q diag(mu) Q^T``, both read-only; ``Q`` is
    squared in place so that no second ``n x n`` array is made."""
    mu, q = np.linalg.eigh(g.to_dense())
    np.multiply(q, q, out=q)
    mu.setflags(write=False)
    q.setflags(write=False)
    return mu, q
