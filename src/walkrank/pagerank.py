"""PageRank family: the Google matrix model, solvers, and limit objects.

The model follows the standard column-stochastic construction. With ``A``
the adjacency matrix and ``D`` the diagonal of out-degrees (with ``D_jj = 1``
for dangling nodes so the inverse exists):

* ``H = A^T D^{-1}`` — column ``j`` spreads node ``j``'s mass over its
  out-neighbors; dangling columns are zero;
* ``S = H + (1/n) 1 a^T`` — dangling mass redistributed uniformly (``a`` is
  the dangling indicator);
* ``P = alpha S + (1 - alpha) v 1^T`` — teleportation to the preference
  vector ``v``.

``P`` is never materialized: :meth:`GoogleModel.apply` evaluates ``P @ x``
with one sparse matvec plus two rank-one corrections.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, ValidationError
from .graph import Graph, degrees
from .series import _check_parameter, _neumann_solve, _scaled_taylor
from .spectral import DEFAULT_TOL, _check_tol

__all__ = [
    "GoogleModel",
    "build_model",
    "pagerank_power",
    "pagerank_linear",
    "small_alpha_limit",
    "heat_kernel_rowsums",
]

DEFAULT_ALPHA = 0.85
ALPHA_CAP = 0.999  # values of alpha closer to 1 are numerically treacherous


@dataclass(frozen=True)
class GoogleModel:
    """Immutable matvec-oriented representation of ``P``.

    ``H`` and ``H^T`` are the graph's own operator scaled by ``inv_out``:
    ``H x = A^T (D^{-1} x)`` and ``H^T x = D^{-1} (A x)``. The model keeps
    no CSR arrays of its own, and building it builds none.
    """

    graph: Graph
    alpha: float
    preference: np.ndarray  # v, entrywise >= 0, sums to 1
    dangling: np.ndarray  # indicator a, 1.0 at nodes without out-edges
    inv_out: np.ndarray  # 1 / out-degree, 1.0 at dangling nodes

    @property
    def n(self) -> int:
        return self.graph.n

    def h_matvec(self, x: np.ndarray) -> np.ndarray:
        """``H @ x``."""
        return self.graph.matvec_t(x * self.inv_out)

    def ht_matvec(self, x: np.ndarray) -> np.ndarray:
        """``H.T @ x``."""
        return self.graph.matvec(x) * self.inv_out

    def apply(self, x: np.ndarray) -> np.ndarray:
        """``P @ x`` without forming ``P``."""
        y = self.alpha * self.h_matvec(x)
        y += (self.alpha / self.n) * float(self.dangling @ x)
        y += (1.0 - self.alpha) * float(x.sum()) * self.preference
        return y

    def apply_t(self, x: np.ndarray) -> np.ndarray:
        """``P.T @ x``."""
        y = self.alpha * self.ht_matvec(x)
        y += (self.alpha / self.n) * float(x.sum()) * self.dangling
        y += (1.0 - self.alpha) * float(self.preference @ x)
        return y


def _inv_out(out: np.ndarray) -> np.ndarray:
    """``1 / out-degree``, 1.0 at dangling nodes. Products multiply by it,
    never divide by the degree: an unweighted column of ``H`` then holds
    exactly ``1/d``."""
    return 1.0 / np.where(out == 0.0, 1.0, out)


def _check_preference_entries(v: np.ndarray) -> None:
    """Raise :class:`ValidationError` unless every weight is finite, >= 0."""
    if not np.all(np.isfinite(v)) or np.any(v < 0.0):
        raise ValidationError(
            "preference entries must be finite and non-negative")


def build_model(g: Graph, alpha: float = DEFAULT_ALPHA,
                preference=None) -> GoogleModel:
    """Assemble the Google matrix model for a graph.

    ``alpha`` must lie in ``[0, 1)``; values above 0.999 are clamped to
    0.999 with a warning (the resolvent conditioning degrades like
    ``1/(1-alpha)``). ``preference=None`` means uniform; an explicit vector
    must be non-negative and sum to 1 within 1e-12.
    """
    if g.n == 0:
        raise ValidationError("PageRank needs at least one node")
    if not math.isfinite(alpha) or alpha < 0.0 or alpha >= 1.0:
        raise DomainError(f"alpha must lie in [0, 1), got {alpha}")
    if alpha > ALPHA_CAP:
        warnings.warn(
            f"alpha={alpha} clamped to {ALPHA_CAP}: conditioning scales like "
            "1/(1-alpha) and rankings this close to the limit are unstable",
            RuntimeWarning,
            stacklevel=2,
        )
        alpha = ALPHA_CAP

    n = g.n
    if preference is None:
        v = np.full(n, 1.0 / n)
    else:
        v = np.asarray(preference, dtype=np.float64).copy()
        if v.shape != (n,):
            raise ValidationError(
                f"preference must have length {n}, got shape {v.shape}")
        _check_preference_entries(v)
        if abs(float(v.sum()) - 1.0) > 1e-12:
            raise ValidationError(
                f"preference must sum to 1 within 1e-12, got {v.sum()!r}")

    out, _ = degrees(g)
    dangling = (out == 0.0).astype(np.float64)
    inv_out = _inv_out(out)
    for arr in (v, dangling, inv_out):
        arr.setflags(write=False)
    return GoogleModel(g, float(alpha), v, dangling, inv_out)


def pagerank_power(model: GoogleModel, *, tol: float = DEFAULT_TOL,
                   max_iter: int = 100_000) -> np.ndarray:
    """PageRank by power iteration ``p <- P p`` from ``p_0 = v``.

    Stops when the 1-norm step falls to ``tol``; the result is normalized to
    a probability vector (the iteration preserves the sum up to roundoff).
    """
    _check_tol(tol)
    p = model.preference.copy()
    delta = math.inf
    for _ in range(max_iter):
        q = model.apply(p)
        delta = float(np.abs(q - p).sum())
        p = q
        if delta <= tol:
            return p / p.sum()
    raise ConvergenceError(
        f"PageRank power iteration did not reach tol={tol} within "
        f"{max_iter} steps (last step {delta:.3e})", best=p / p.sum(),
        residual=delta)


def pagerank_linear(model: GoogleModel, *, tol: float = DEFAULT_TOL,
                    max_iter: int = 2_000_000) -> np.ndarray:
    """PageRank via the linear system ``(I - alpha H) x = v``.

    Runs the Neumann iteration ``x <- v + alpha H x`` and normalizes the
    solution to sum 1. Equivalent to :func:`pagerank_power` whenever the
    dangling correction is proportional to the preference — in particular
    for the uniform preference (any graph) and for graphs without dangling
    nodes.
    """
    _check_tol(tol)
    indptr, indices, data = model.graph.adjacency_t()
    x = _neumann_solve(indptr, indices, data * model.inv_out[indices],
                       model.preference, model.alpha, tol, max_iter)
    return x / x.sum()


def small_alpha_limit(g: Graph) -> np.ndarray:
    """Row sums ``H 1``: the alpha -> 0+ ranking limit for uniform preference.

    The limit statement holds for the uniform preference vector only; for
    non-uniform preferences the small-alpha ranking is not characterized by
    ``H 1``.
    """
    if g.n == 0:
        raise ValidationError("PageRank needs at least one node")
    return g.matvec_t(_inv_out(degrees(g).out_degree))


def heat_kernel_rowsums(model: GoogleModel, t: float,
                        *, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Row sums ``exp(t P) 1``, computed scaled and matvec-only.

    Requires a strictly positive preference vector (so ``P`` is positive and
    the kernel mixes). The result is returned unscaled; divide by ``e^t``
    for a bounded quantity. Since the column sums of ``P`` are exactly 1,
    the scaling step count is the smallest power of two at or above ``t``.
    """
    if np.any(model.preference <= 0.0):
        raise ValidationError(
            "heat kernel requires a strictly positive preference vector")
    _check_parameter("t", t)
    _check_tol(tol)
    if t > 700.0:
        raise DomainError(
            f"t={t} overflows float64 (row sums grow like e^t; keep t <= 700)")
    ones = np.ones(model.n)
    if t == 0.0:
        return ones
    return _scaled_taylor(model.apply, t, 1.0, ones, tol)
