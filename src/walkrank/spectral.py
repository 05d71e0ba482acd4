"""Dominant eigenpairs, second eigenvalues, and spectral gaps.

All routines are matrix-free power iterations over
:meth:`~walkrank.graph.Graph.matvec` and its transpose. For a connected
graph with non-negative weights the dominant eigenvector is entrywise
positive (Perron-Frobenius); iterating on ``A + I`` instead of ``A``
removes the sign oscillation that plain power iteration suffers on
bipartite graphs, without changing the eigenvectors.

The second eigenvalue is the *algebraic* (signed) one: the largest
eigenvalue of ``A`` restricted to the complement of the dominant
eigenvector. After deflating the dominant pair we again iterate on a shifted
operator, ``A + lambda1 * I``, whose spectrum on the complement is
``lambda_k + lambda1 >= 0``; the shift makes the algebraically largest
eigenvalue also the largest in magnitude, so the iteration is monotone and a
Rayleigh quotient recovers the signed value. If the shifted operator
annihilates the complement (e.g. a single edge, where the spectrum is
``{lambda1, -lambda1}``), the second eigenvalue is ``-lambda1``.
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
    """Result of a dominant-eigenpair computation.

    ``dominant_vector`` is entrywise positive with unit 2-norm, and
    read-only.
    """

    lambda1: float
    dominant_vector: np.ndarray
    side: str  # "right" or "left"
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


def _power_iteration(g: Graph, side: str, tol: float,
                     max_iter: int) -> SpectralInfo:
    _require_irreducible(g)
    n = g.n
    if n == 1:
        # single node: eigenvalue is the loop weight (0 without loops)
        lam = float(g.weight.sum()) if g.m else 0.0
        return SpectralInfo(lam, np.ones(1), side, 0, 0.0)

    matvec = g.matvec if side == "right" else g.matvec_t
    x = np.full(n, 1.0 / np.sqrt(n))

    lam = 0.0
    residual = np.inf
    for it in range(1, max_iter + 1):
        ax = matvec(x)
        lam = float(x @ ax)
        residual = float(np.linalg.norm(ax - lam * x))
        if residual <= tol * max(lam, np.finfo(float).tiny):
            return SpectralInfo(lam, x, side, it, residual)
        z = ax + x  # power step on A + I keeps bipartite graphs convergent
        x = z / np.linalg.norm(z)
    best = SpectralInfo(lam, x, side, max_iter, residual)
    raise ConvergenceError(
        f"power iteration did not reach tol={tol} within {max_iter} steps "
        f"(last residual {residual:.3e})", best=best, residual=residual)


def second_eigenvalue(g: Graph, *, tol: float = DEFAULT_TOL,
                      max_iter: int = DEFAULT_MAX_ITER,
                      dominant: SpectralInfo | None = None) -> float:
    """Signed second-largest eigenvalue of an undirected graph.

    Deflates the dominant pair, then power-iterates the shifted operator
    ``A + lambda1 I`` on the orthogonal complement (see module docstring).
    Pass a precomputed ``dominant`` to skip the first power iteration.
    """
    if g.directed:
        raise UnsupportedOperationError(
            "second_eigenvalue requires an undirected graph (the deflation "
            "step relies on an orthogonal eigenbasis)")
    if g.n < 2:
        raise ValidationError("second eigenvalue needs at least 2 nodes")
    if dominant is None:
        dominant = dominant_eigenpair(g, tol=tol, max_iter=max_iter)
    lam1 = dominant.lambda1
    q1 = dominant.dominant_vector

    # deterministic start: the coordinate axis least aligned with q1,
    # projected onto the complement
    k = int(np.argmin(q1))
    x = -q1 * q1[k]
    x[k] += 1.0
    nrm = np.linalg.norm(x)
    if nrm < 1e-13:  # cannot happen for n >= 2 with unit q1, but be safe
        raise ValidationError("degenerate start vector in deflation")
    x /= nrm

    annihilation_floor = 1e-12 * max(lam1, 1.0)
    lam2 = 0.0
    residual = np.inf
    for it in range(1, max_iter + 1):
        ax = g.matvec(x)
        # re-orthogonalize A x against q1 to stop roundoff drift
        ax -= (q1 @ ax) * q1
        lam2 = float(x @ ax)
        residual = float(np.linalg.norm(ax - lam2 * x))
        if residual <= tol * max(lam1, np.finfo(float).tiny):
            return lam2
        z = ax + lam1 * x  # shifted step: spectrum on the complement is >= 0
        z -= (q1 @ z) * q1
        nrm = np.linalg.norm(z)
        if nrm <= annihilation_floor:
            # A + lambda1 I vanishes on the complement: lambda2 = -lambda1
            return -lam1
        x = z / nrm
    raise ConvergenceError(
        f"second-eigenvalue iteration did not reach tol={tol} within "
        f"{max_iter} steps (last residual {residual:.3e})",
        best=lam2, residual=residual)


def spectral_gap(g: Graph, *, tol: float = DEFAULT_TOL,
                 max_iter: int = DEFAULT_MAX_ITER) -> float:
    """``lambda1 - lambda2`` for an undirected connected graph."""
    info = dominant_eigenpair(g, tol=tol, max_iter=max_iter)
    lam2 = second_eigenvalue(g, tol=tol, max_iter=max_iter, dominant=info)
    return info.lambda1 - lam2
