"""Dominant eigenpairs, second eigenvalues, and spectral gaps.

One matrix-free power loop, over :meth:`~walkrank.graph.Graph.matvec` and
its transpose, finds all three dominant vectors of this package. It steps
with ``M + shift I`` and stops on the residual of ``M``'s Rayleigh quotient:

* ``A + I`` (``A^T + I`` on the left side) gives the dominant eigenpair,
  entrywise positive on a connected graph (Perron-Frobenius); the unit
  shift stops the sign oscillation of bipartite graphs.
* the deflated ``A + lambda1 I`` gives the signed second eigenvalue: on the
  complement of the dominant vector its spectrum ``lambda_k + lambda1`` is
  ``>= 0``, so the algebraically largest eigenvalue is also the largest in
  magnitude. A step that annihilates the iterate gives ``-lambda1`` (as on
  a single edge).
* ``A A^T`` gives the HITS hubs (:func:`walkrank.measures.hits`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceError,
    DomainError,
    UnsupportedOperationError,
    ValidationError,
)
from .graph import Graph, is_connected, is_strongly_connected

__all__ = ["SpectralInfo", "dominant_eigenpair", "second_eigenvalue",
           "spectral_gap"]

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 100_000


@dataclass(frozen=True)
class SpectralInfo:
    """Dominant eigenpair of :func:`dominant_eigenpair`: the eigenvalue
    ``lambda1``, the read-only, entrywise positive unit eigenvector
    ``dominant_vector``, the steps taken and the residual ``||A v - lambda1
    v||_2`` (``A^T`` on the left side).
    """

    lambda1: float
    dominant_vector: np.ndarray
    iterations: int
    residual: float

    def __post_init__(self):
        self.dominant_vector.setflags(write=False)


def _check_tol(tol: float, name: str = "tol") -> None:
    """Raise :class:`DomainError` naming ``name`` unless ``tol`` is positive
    and finite."""
    if not 0.0 < tol < math.inf:
        raise DomainError(f"{name} must be positive and finite, got {tol}")


def _require_irreducible(g: Graph) -> None:
    if g.n == 0:
        raise ValidationError("graph has no nodes")
    if g.m == 0 and g.n > 1:
        raise ValidationError("graph has no edges; dominant pair undefined")
    if g.directed:
        if not is_strongly_connected(g):
            raise ValidationError(
                "directed graph must be strongly connected for a positive "
                "dominant eigenpair (in Python, walkrank.largest_scc extracts "
                "its largest strongly connected component)")
    elif not is_connected(g):
        raise ValidationError(
            "graph must be connected for a positive dominant eigenpair")


def dominant_eigenpair(g: Graph, *, side: str = "right",
                       tol: float = DEFAULT_TOL,
                       max_iter: int = DEFAULT_MAX_ITER) -> SpectralInfo:
    """Largest eigenvalue and positive unit eigenvector by power iteration.

    ``side="left"`` computes the left eigenpair (the right pair of ``A.T``).
    Raises :class:`ConvergenceError` (carrying the best iterate in ``best``)
    if ``max_iter`` steps do not reach ``||A v - lambda1 v||_2 <= tol *
    lambda1``.

    The iteration starts from the uniform unit vector. The pair is computed
    once per graph and ``(side, tol, max_iter)`` (see :meth:`Graph.memo`),
    and every such call returns the same :class:`SpectralInfo`; its
    ``dominant_vector`` is read-only. A call that raises stores nothing.
    """
    if side not in ("right", "left"):
        raise ValidationError(f"side must be 'right' or 'left', got {side!r}")
    _check_tol(tol)
    return g.memo(("dominant_eigenpair", side, tol, max_iter),
                  lambda: _power_iteration(g, side, tol, max_iter))


def _power_loop(op, x: np.ndarray, shift: float, tol: float, max_iter: int,
                label: str, scale: float | None = None):
    """Power iteration on ``M + shift I``, ``op(x) = M x``, from the unit
    vector ``x``; returns ``(theta, x, iterations, residual)``.

    Stops once the Rayleigh quotient ``theta = x^T M x`` has ``||M x - theta
    x||_2 <= tol * scale`` (``scale`` defaults to ``theta``), or when a step
    annihilates ``x`` (``||z||_2 <= 1e-12 * max(shift, |theta|)``): then
    ``x`` is an eigenvector for ``-shift``. At the step limit raises
    :class:`ConvergenceError` naming the operator ``label``, with the last
    ``(theta, x, max_iter, residual)`` in ``best``.
    """
    theta = 0.0
    residual = math.inf
    for it in range(1, max_iter + 1):
        mx = op(x)
        theta = float(x @ mx)
        residual = float(np.linalg.norm(mx - theta * x))
        bound = theta if scale is None else scale
        if residual <= tol * max(bound, np.finfo(float).tiny):
            return theta, x, it, residual
        mx += shift * x  # the step, in place; bitwise mx + x at shift 1
        nrm = float(np.linalg.norm(mx))
        if nrm <= 1e-12 * max(shift, abs(theta)):
            return -shift, x, it, nrm
        x = mx / nrm
    raise ConvergenceError(
        f"power iteration on {label} did not reach tol={tol} within "
        f"{max_iter} steps (last residual {residual:.3e})",
        best=(theta, x, max_iter, residual), residual=residual)


def _power_iteration(g: Graph, side: str, tol: float,
                     max_iter: int) -> SpectralInfo:
    _require_irreducible(g)
    n = g.n
    if n == 1:
        # single node: eigenvalue is the loop weight (0 without loops)
        lam = float(g.weight.sum()) if g.m else 0.0
        return SpectralInfo(lam, np.ones(1), 0, 0.0)
    right = side == "right"
    try:
        # the unit shift keeps bipartite graphs convergent
        return SpectralInfo(*_power_loop(
            g.matvec if right else g.matvec_t, np.full(n, 1.0 / np.sqrt(n)),
            1.0, tol, max_iter, "A + I" if right else "A^T + I"))
    except ConvergenceError as exc:
        exc.best = SpectralInfo(*exc.best)
        raise


def _require_symmetric(g: Graph, name: str) -> None:
    if g.directed:
        raise UnsupportedOperationError(
            f"{name} requires an undirected graph (the deflation step "
            "relies on an orthogonal eigenbasis)")


def second_eigenvalue(g: Graph, *, tol: float = DEFAULT_TOL,
                      max_iter: int = DEFAULT_MAX_ITER) -> float:
    """Signed second-largest eigenvalue of an undirected graph.

    Deflates the dominant pair, then power-iterates the shifted operator
    ``A + lambda1 I`` on the orthogonal complement (see module docstring),
    stopping at ``||A x - lambda2 x||_2 <= tol * lambda1``.
    """
    _require_symmetric(g, "second_eigenvalue")
    if g.n < 2:
        raise ValidationError("second eigenvalue needs at least 2 nodes")
    dominant = dominant_eigenpair(g, tol=tol, max_iter=max_iter)
    lam1 = dominant.lambda1
    q1 = dominant.dominant_vector

    def deflated(x):
        # keep x (in place, for the loop's step) and A x in the complement
        # of q1: roundoff along q1 would grow whenever lambda2 < 0
        x -= (q1 @ x) * q1
        ax = g.matvec(x)
        ax -= (q1 @ ax) * q1
        return ax

    # deterministic start: the axis least aligned with q1, projected onto
    # the complement (nonzero, as q1 is a positive unit vector and n >= 2)
    k = int(np.argmin(q1))
    x = -q1 * q1[k]
    x[k] += 1.0
    x /= np.linalg.norm(x)
    return _power_loop(deflated, x, lam1, tol, max_iter,
                       "the deflated A + lambda1 I", scale=lam1)[0]


def spectral_gap(g: Graph, *, tol: float = DEFAULT_TOL,
                 max_iter: int = DEFAULT_MAX_ITER) -> float:
    """``lambda1 - lambda2`` for an undirected connected graph."""
    _require_symmetric(g, "spectral_gap")
    lam2 = second_eigenvalue(g, tol=tol, max_iter=max_iter)
    return dominant_eigenpair(g, tol=tol, max_iter=max_iter).lambda1 - lam2
