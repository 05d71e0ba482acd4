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
(I - alpha S)^{-1} v``, and has two solvers:

* :func:`pagerank_power` runs the fixed-point loop of Katz,
  :func:`walkrank._kernels.fixed_point`, on ``p <- P p``; the loop raises
  :class:`~walkrank.errors.ConvergenceError` at its step limit;
* :func:`_shifted_fom`, restarted shifted FOM, solves ``(I - alpha S) x =
  v`` for several ``alpha`` at once from one Krylov basis of the
  alpha-free ``S``, and returns each vector only with a checked bound on
  its 1-norm error. :func:`pagerank_linear` is its one-shift call, and a
  PageRank sweep solves its grid and the damping cap in one call.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import _kernels
from .errors import ConvergenceError, DomainError, ValidationError
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
# Arnoldi steps between restarts of the shifted solver; its basis holds
# _RESTART + 1 vectors of n floats (8.4 MB at n = 50 000).
_RESTART = 20


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

    def s_matvec(self, x: np.ndarray) -> np.ndarray:
        """``S @ x``: ``H @ x`` plus the dangling mass, spread uniformly."""
        y = self.h_matvec(x)
        y += float(self.dangling @ x) / self.n
        return y

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


def _preference_faults(v: np.ndarray) -> np.ndarray:
    """Mask of the weights that are not finite and non-negative."""
    return ~(np.isfinite(v) & (v >= 0.0))


def _damping(alpha: float) -> float:
    """``alpha`` checked to lie in ``[0, 1)``, and clamped to
    :data:`ALPHA_CAP` with a :class:`RuntimeWarning` above it."""
    if not math.isfinite(alpha) or alpha < 0.0 or alpha >= 1.0:
        raise DomainError(f"alpha must lie in [0, 1), got {alpha}")
    if alpha > ALPHA_CAP:
        warnings.warn(
            f"alpha={alpha} clamped to {ALPHA_CAP}: conditioning scales like "
            "1/(1-alpha) and rankings this close to the limit are unstable",
            RuntimeWarning,
            stacklevel=3,
        )
        alpha = ALPHA_CAP
    return float(alpha)


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
    alpha = _damping(alpha)

    n = g.n
    if preference is None:
        v = np.full(n, 1.0 / n)
    else:
        v = np.asarray(preference, dtype=np.float64).copy()
        if v.shape != (n,):
            raise ValidationError(
                f"preference must have length {n}, got shape {v.shape}")
        if _preference_faults(v).any():
            raise ValidationError(
                "preference entries must be finite and non-negative")
        if abs(float(v.sum()) - 1.0) > 1e-12:
            raise ValidationError(
                f"preference must sum to 1 within 1e-12, got {v.sum()!r}")

    out, _ = degrees(g)
    dangling = (out == 0.0).astype(np.float64)
    inv_out = _inv_out(out)
    for arr in (v, dangling, inv_out):
        arr.setflags(write=False)
    return GoogleModel(g, alpha, v, dangling, inv_out)


def pagerank_power(model: GoogleModel, *, tol: float = DEFAULT_TOL,
                   max_iter: int = 100_000) -> np.ndarray:
    """PageRank by power iteration ``p <- P p`` from ``p_0 = v``.

    On probability vectors ``P p = alpha S p + (1 - alpha) v``: the
    fixed-point loop of Katz on ``S``, stopping at ``||p_{m+1} - p_m||_1 <=
    tol * ||p_{m+1}||_1``. The result is normalized to a probability vector
    (the loop preserves the sum up to roundoff).
    """
    _check_tol(tol)
    p = _kernels.fixed_point(model.apply, model.preference.copy(), tol,
                             max_iter, "PageRank power iteration")[0]
    return p / p.sum()


def pagerank_linear(model: GoogleModel, *, tol: float = DEFAULT_TOL,
                    max_iter: int = 100_000) -> np.ndarray:
    """PageRank via the linear system ``(I - alpha S) x = v``, normalized to
    sum 1: :func:`_shifted_fom` with the model's ``alpha`` alone. Its
    1-norm error is at most ``tol``; ``max_iter`` caps the products with
    ``S``."""
    _check_tol(tol)
    return _shifted_fom(model, [model.alpha], tol, max_iter)[0][0]


def _shifted_fom(model: GoogleModel, alphas, tol: float, max_iter: int):
    """PageRank for every damping factor of ``alphas`` by restarted shifted
    FOM (Simoncini, BIT 43, 2003) on ``(I - alpha S) x = v``; returns
    ``(p, bounds, steps, products)``: one normalized vector per row of
    ``p``, its checked error bound, the products with ``S``, and those with
    ``S`` or ``P``.

    Every shift shares one Arnoldi basis of ``S``, started from ``v`` and
    restarted after :data:`_RESTART` steps. The FOM residual of shift
    ``alpha`` is ``alpha h_{k+1,k} (e_k^T y_alpha)`` times the next basis
    vector, the same vector for every shift, so each cycle restarts all of
    them from it. The cycles stop once each residual is at most ``tol / 2``
    in 1-norm, which bounds the error of the normalized vector by ``tol``.
    Each vector is then checked with one product of its own ``P``: since
    ``||(I - alpha S)^{-1}||_1 = 1 / (1 - alpha)``, ``||P p - p||_1 / (1 -
    alpha)`` bounds ``||p - p*||_1``. A shift whose bound exceeds ``tol``
    gets a smaller target and the cycles go on, unless its bound failed to
    halve since the last check: then roundoff in ``P p - p``, about
    ``eps / (1 - alpha)``, keeps it above ``tol``, and a
    :class:`ConvergenceError` names that shift at once. After ``max_iter``
    products with ``S`` raises :class:`ConvergenceError` as well. Either
    error carries the normalized iterates in ``best``.
    """
    n = model.n
    alphas = np.asarray(alphas, dtype=np.float64)
    m = min(_RESTART, n)
    basis = np.empty((m + 1, n))
    hess = np.zeros((m + 1, m))
    eye = np.eye(m)
    x = np.zeros((alphas.shape[0], n))
    basis[0] = model.preference
    scale = np.full(alphas.shape, np.linalg.norm(basis[0]))
    basis[0] /= scale[0]
    target = np.full(alphas.shape, tol / 2.0)
    last = np.full(alphas.shape, np.inf)  # bounds of the last check
    steps = checks = 0
    while True:
        hess[:] = 0.0
        for k in range(1, m + 1):
            w = model.s_matvec(basis[k - 1])
            steps += 1
            for _ in range(2):  # classical Gram-Schmidt, repeated once
                h = basis[:k] @ w
                w -= h @ basis[:k]
                hess[:k, k - 1] += h
            hess[k, k - 1] = norm = float(np.linalg.norm(w))
            if norm > 0.0:
                basis[k] = w / norm
            # FOM coefficients: (I - alpha H_k) y = scale e_1, every shift
            y = scale[:, None] * np.linalg.solve(
                eye[:k, :k] - alphas[:, None, None] * hess[:k, :k],
                np.broadcast_to(eye[:k, :1], (alphas.shape[0], k, 1)))[..., 0]
            residual = alphas * norm * y[:, -1]
            estimate = np.abs(residual) * (float(np.abs(basis[k]).sum())
                                           if norm > 0.0 else 0.0)
            done = bool(np.all(estimate <= target))
            if done or steps >= max_iter:
                break
        x += y @ basis[:k]
        if done:
            bounds = np.array([_checked_bound(model, a, q / q.sum())
                               for a, q in zip(alphas.tolist(), x)])
            checks += alphas.shape[0]
            if np.all(bounds <= tol):
                for q in x:  # the vectors checked, bit for bit
                    q /= q.sum()
                return x, bounds, steps, steps + checks
            late = bounds > tol
            stalled = np.flatnonzero(late & (bounds > last / 2.0))
            if stalled.size:
                i = stalled[0]
                raise ConvergenceError(
                    f"shifted FOM on S cannot certify tol={tol} at alpha = "
                    f"{alphas[i]:.12g}: its checked error bound stays at "
                    f"{bounds[i]:.3e}, the float64 roundoff of P p - p over "
                    f"1 - alpha; use a larger tol",
                    best=x / x.sum(axis=1, keepdims=True),
                    residual=float(bounds[i]))
            last = bounds
            target[late] *= tol / (2.0 * bounds[late])
        if steps >= max_iter:
            worst = float(estimate.max())
            raise ConvergenceError(
                f"shifted FOM on S did not reach tol={tol} within {steps} "
                f"steps (last residual {worst:.3e})",
                best=x / x.sum(axis=1, keepdims=True), residual=worst)
        scale = residual
        basis[0] = basis[k]


def _checked_bound(model: GoogleModel, alpha: float, p: np.ndarray) -> float:
    """``||P p - p||_1 / (1 - alpha)`` for the Google matrix ``P`` of
    ``alpha``: a bound on the 1-norm error of the probability vector ``p``.
    """
    return float(np.abs(replace(model, alpha=alpha).apply(p) - p).sum()) / (
        1.0 - alpha)


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
