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

PageRank is the resolvent family on the Google matrix, ``p = (1 - alpha)
(I - alpha S)^{-1} v``: both solvers run the fixed-point loop of Katz,
:func:`walkrank._kernels.fixed_point`, :func:`pagerank_power` on ``S`` and
:func:`pagerank_linear` on ``H``. The loop raises
:class:`~walkrank.errors.ConvergenceError` at its step limit.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import DomainError, ValidationError
from .graph import Graph, degrees
from .series import _check_parameter, _scaled_taylor
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

    On probability vectors ``P p = alpha S p + (1 - alpha) v``: the
    fixed-point loop of :func:`pagerank_linear` on ``S``, stopping at
    ``||p_{m+1} - p_m||_1 <= tol * ||p_{m+1}||_1``. The result is normalized
    to a probability vector (the loop preserves the sum up to roundoff).
    """
    _check_tol(tol)
    p = _kernels.fixed_point(model.apply, model.preference.copy(), tol,
                             max_iter, "PageRank power iteration")[0]
    return p / p.sum()


def pagerank_linear(model: GoogleModel, *, tol: float = DEFAULT_TOL,
                    max_iter: int = 2_000_000) -> np.ndarray:
    """PageRank via the linear system ``(I - alpha H) x = v``.

    The fixed-point loop of :func:`pagerank_power` on ``H`` instead of
    ``S``, ``x <- v + alpha H x``, normalized to sum 1. The two agree when
    the dangling mass that ``S`` returns is proportional to ``v``: for the
    uniform preference, or a graph without dangling nodes.
    """
    _check_tol(tol)
    v = model.preference
    x = _kernels.fixed_point(lambda x: v + model.alpha * model.h_matvec(x),
                             v.copy(), tol, max_iter, "Neumann iteration")[0]
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


_LOG_FLOAT_MAX = math.log(np.finfo(np.float64).max)


def heat_kernel_rowsums(model: GoogleModel, t: float,
                        *, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Row sums ``exp(t P) 1``, computed scaled and matvec-only.

    Requires a strictly positive preference vector (so ``P`` is positive and
    the kernel mixes). The result is returned unscaled; divide by ``e^t``
    for a bounded quantity. Since the column sums of ``P`` are exactly 1,
    the scaling step count is the smallest power of two at or above ``t``.

    Raises :class:`DomainError` naming ``t`` when the sum overflows
    float64: at once for ``t > log(float64 max) = 709.78``, since the row
    sums average ``e^t``, and from the Taylor sum below that (entry ``i``
    grows like ``n pi_i e^t``, so a large graph overflows earlier).
    """
    if np.any(model.preference <= 0.0):
        raise ValidationError(
            "heat kernel requires a strictly positive preference vector")
    _check_parameter("t", t)
    _check_tol(tol)
    if t > _LOG_FLOAT_MAX:
        raise DomainError(
            f"exp(t*P) overflows float64 at t = {t:.12g}: its row sums "
            f"average e^t, past the float64 range once t exceeds "
            f"{_LOG_FLOAT_MAX:.5g}; use a smaller t")
    ones = np.ones(model.n)
    if t == 0.0:
        return ones
    return _scaled_taylor(model.apply, t, 1.0, ones, tol, "t", "P")
