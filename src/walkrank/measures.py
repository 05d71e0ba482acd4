"""Walk-based centrality measures.

Every function returns a :class:`CentralityVector` whose ``scores`` are
indexed by internal node id. For directed graphs the ``side`` argument picks
the role being scored: ``"broadcast"`` ranks nodes as originators of walks
(rows of ``A``, out-edges), ``"receive"`` as targets (columns of ``A``).
Undirected graphs report ``side="symmetric"`` since both roles coincide.

Parameterized measures record the parameter value actually used, including
resolved defaults, so results are self-describing.

:data:`MEASURES` is the one table of measures: for each name the command
line accepts, its family, its parameter flag and default, the call that
computes it and, for sweepable measures, how
:func:`walkrank.ranking.limit_sweep` traces it between its two limits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, ValidationError
from .graph import Graph, degrees, is_connected
from .pagerank import (
    ALPHA_CAP,
    DEFAULT_ALPHA as DEFAULT_DAMPING,
    build_model,
    heat_kernel_rowsums,
    pagerank_power,
    small_alpha_limit,
)
from .series import (
    EXPONENTIAL,
    RESOLVENT,
    SeriesFunction,
    _require_undirected,
    exp_action,
    fa_diagonal,
    feasible_interval,
    resolvent_solve,
)
from .spectral import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    _check_tol,
    _power_loop,
    dominant_eigenpair,
)

__all__ = [
    "CentralityVector",
    "degree_centrality",
    "eigenvector_centrality",
    "katz",
    "resolvent_subgraph",
    "exp_subgraph",
    "total_communicability",
    "hits",
    "Measure",
    "MEASURES",
    "SWEEPABLE",
]

DEFAULT_ALPHA_FRACTION = 0.85  # default alpha = 0.85 / lambda1
DEFAULT_BETA = 1.0


@dataclass(frozen=True)
class CentralityVector:
    """A named, parameterized score vector over the nodes of one graph."""

    measure: str
    side: str  # "broadcast" | "receive" | "symmetric"
    parameter: float | None
    scores: np.ndarray
    solver_meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.scores.setflags(write=False)


def _fraction_of_endpoint(fraction, t_star: float, name: str):
    """``fraction`` (a number or an array) of the feasible endpoint
    ``t_star``, the form of every relative default; a :class:`DomainError`
    naming ``name`` when the endpoint ``1/lambda1`` is infinite."""
    if math.isinf(t_star):
        raise DomainError(
            f"the default {name} is set relative to the feasible endpoint "
            f"1/lambda1, which is infinite at lambda1 = 0 (a graph without "
            f"edges); pass --{name}")
    return fraction * t_star


def _resolve_side(g: Graph, side: str) -> tuple[str, bool]:
    """The side label a result reports, and whether the measure reads
    ``A.T``: only the receive side of a directed graph does."""
    if side not in ("broadcast", "receive"):
        raise ValidationError(
            f"side must be 'broadcast' or 'receive', got {side!r}")
    return (side, side == "receive") if g.directed else ("symmetric", False)


def degree_centrality(g: Graph, *, side: str = "broadcast") -> CentralityVector:
    """Weighted out-degree (broadcast) or in-degree (receive)."""
    resolved, transpose = _resolve_side(g, side)
    out, in_ = degrees(g)
    scores = in_ if transpose else out
    return CentralityVector("degree", resolved, None, scores.copy())


def eigenvector_centrality(g: Graph, *, side: str = "broadcast",
                           tol: float = DEFAULT_TOL,
                           max_iter: int = DEFAULT_MAX_ITER) -> CentralityVector:
    """Entries of the dominant eigenvector (right for broadcast, left for
    receive), normalized to unit 2-norm."""
    resolved, transpose = _resolve_side(g, side)
    info = dominant_eigenpair(g, side="left" if transpose else "right",
                              tol=tol, max_iter=max_iter)
    meta = {"lambda1": info.lambda1, "iterations": info.iterations,
            "residual": info.residual}
    return CentralityVector("eigenvector", resolved, None,
                            info.dominant_vector, meta)


def katz(g: Graph, alpha: float | None = None, *, side: str = "broadcast",
         tol: float = DEFAULT_TOL) -> CentralityVector:
    """Katz scores ``(I - alpha A)^{-1} 1`` (transposed for receive).

    ``alpha`` defaults to ``0.85 / lambda1``, which has no value at
    ``lambda1 = 0`` (:class:`DomainError`), and must stay below
    ``1 / lambda1``.
    """
    resolved, transpose = _resolve_side(g, side)
    info = dominant_eigenpair(g, tol=tol)
    alpha_max = feasible_interval(RESOLVENT, info.lambda1)[1]
    if alpha is None:
        alpha = _fraction_of_endpoint(DEFAULT_ALPHA_FRACTION, alpha_max,
                                      "alpha")
    ones = np.ones(g.n)
    scores = resolvent_solve(g, alpha, ones, tol=tol, transpose=transpose,
                             lambda1=info.lambda1)
    meta = {"lambda1": info.lambda1, "alpha_max": alpha_max}
    return CentralityVector("katz", resolved, float(alpha), scores, meta)


def resolvent_subgraph(g: Graph, alpha: float | None = None,
                       *, tol: float = DEFAULT_TOL) -> CentralityVector:
    """Diagonal resolvent scores ``[(I - alpha A)^{-1}]_ii`` (undirected).

    ``alpha`` defaults to ``0.85 / lambda1`` as in :func:`katz`."""
    _require_undirected(g)
    info = dominant_eigenpair(g, tol=tol)
    alpha_max = feasible_interval(RESOLVENT, info.lambda1)[1]
    if alpha is None:
        alpha = _fraction_of_endpoint(DEFAULT_ALPHA_FRACTION, alpha_max,
                                      "alpha")
    scores = fa_diagonal(g, RESOLVENT, alpha)
    meta = {"lambda1": info.lambda1, "alpha_max": alpha_max}
    return CentralityVector("resolvent-subgraph", "symmetric", float(alpha),
                            scores, meta)


def exp_subgraph(g: Graph, beta: float = DEFAULT_BETA) -> CentralityVector:
    """Diagonal exponential scores ``[exp(beta A)]_ii`` (undirected)."""
    scores = fa_diagonal(g, EXPONENTIAL, beta)
    return CentralityVector("exp-subgraph", "symmetric", float(beta), scores)


def total_communicability(g: Graph, beta: float = DEFAULT_BETA,
                          *, side: str = "broadcast",
                          tol: float = DEFAULT_TOL) -> CentralityVector:
    """Row sums ``exp(beta A) 1`` (broadcast) or column sums (receive)."""
    resolved, transpose = _resolve_side(g, side)
    scores = exp_action(g, beta, np.ones(g.n), tol=tol, transpose=transpose)
    return CentralityVector("total-communicability", resolved, float(beta),
                            scores)


def hits(g: Graph, *, tol: float = DEFAULT_TOL,
         max_iter: int = DEFAULT_MAX_ITER) -> tuple[CentralityVector,
                                                    CentralityVector]:
    """Hub and authority scores.

    Hubs are the dominant eigenvector of ``A A^T``, found by the power loop
    of :mod:`walkrank.spectral` and declared converged when the residual of
    its Rayleigh quotient ``sigma`` falls to ``tol * sigma``; authorities
    are ``A^T h`` normalized in 2-norm. Requires a (weakly) connected graph
    with at least one edge; entries can be zero for nodes that play only one
    of the two roles.
    """
    _check_tol(tol)
    if g.m == 0:
        raise ValidationError("HITS requires at least one edge")
    if not is_connected(g):
        raise ValidationError(
            "HITS requires a connected graph (hub/authority scores decouple "
            "across components)")
    sigma, h, it, residual = _power_loop(
        lambda x: g.matvec(g.matvec_t(x)), np.full(g.n, 1.0 / np.sqrt(g.n)),
        0.0, tol, max_iter, "A A^T")
    a = g.matvec_t(h)
    a /= np.linalg.norm(a)
    meta = {"sigma": sigma, "iterations": it, "residual": residual}
    hubs = CentralityVector("hits-hub", _resolve_side(g, "broadcast")[0],
                            None, h, dict(meta))
    authorities = CentralityVector(
        "hits-authority", _resolve_side(g, "receive")[0], None, a, dict(meta))
    return hubs, authorities


# ---------------------------------------------------------------------------
# the measure table
# ---------------------------------------------------------------------------

EXP_FAMILY_GRID = (0.1, 0.5, 1.0, 2.0, 5.0, 8.0, 10.0)
RESOLVENT_FAMILY_FRACTIONS = (0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95,
                              0.99)


def _walk_limits(f: SeriesFunction):
    """Limits of ``f(tA)``: degree as ``t -> 0``, the dominant eigenvector
    at the feasible endpoint ``radius / lambda1``."""

    def limits(g: Graph, receive: bool, tol: float):
        info = dominant_eigenpair(
            g, side="left" if receive else "right", tol=tol)
        _, t_star = feasible_interval(f, info.lambda1)
        out_deg, in_deg = degrees(g)
        return t_star, (in_deg if receive else out_deg), info.dominant_vector

    return limits


def _pagerank_limits(g: Graph, receive: bool, tol: float):
    """Limits of PageRank in its damping factor: the row sums ``H 1`` as
    ``alpha -> 0``, the PageRank vector at the damping cap near the
    endpoint 1."""
    return (1.0, small_alpha_limit(g),
            pagerank_power(build_model(g, ALPHA_CAP), tol=tol))


@dataclass(frozen=True)
class Sweep:
    """How a family is swept.

    ``grid`` is the default grid, in fractions of the feasible endpoint when
    ``relative``. ``limits(g, receive, tol)`` returns the endpoint
    ``t_star`` and the degree-like and eigenvector-like reference scores.
    """

    grid: tuple[float, ...]
    relative: bool
    limits: Callable

    def default_grid(self, t_star: float) -> np.ndarray:
        grid = np.asarray(self.grid, dtype=np.float64)
        if self.relative:
            return _fraction_of_endpoint(grid, t_star, "grid")
        return grid


SWEEPS = {
    "exponential": Sweep(EXP_FAMILY_GRID, False, _walk_limits(EXPONENTIAL)),
    "resolvent": Sweep(RESOLVENT_FAMILY_FRACTIONS, True,
                       _walk_limits(RESOLVENT)),
    "pagerank": Sweep(RESOLVENT_FAMILY_FRACTIONS, True, _pagerank_limits),
}


@dataclass(frozen=True)
class Measure:
    """One row of :data:`MEASURES`.

    ``compute(g, t, side=..., tol=..., preference=None, damping=None)``
    returns the scores as a :class:`CentralityVector`. ``t`` is the value of
    the command-line ``flag``, else ``default``; ``None`` lets the measure
    resolve it (Katz: ``0.85 / lambda1``), and a ``required`` flag has no
    default. ``preference`` (a vector, ``None`` for uniform) and
    ``damping`` (the heat kernel's ``alpha``) are read by the PageRank
    family only. ``diagonal`` measures score walk returns and need an
    undirected graph.
    """

    name: str
    family: str  # "exponential" | "resolvent" | "pagerank" | "none"
    compute: Callable[..., CentralityVector]
    flag: str | None = None
    default: float | None = None
    required: bool = False
    sweepable: bool = False
    diagonal: bool = False

    @property
    def sweep(self) -> Sweep | None:
        return SWEEPS[self.family] if self.sweepable else None


# The table calls each measure through its module-global name at call time,
# so replacing that name (e.g. with a tracing wrapper) reaches every caller.

def _hits(g, t, side, tol, **_):
    _, authority = _resolve_side(g, side)
    hubs, authorities = hits(g, tol=tol)
    return authorities if authority else hubs


def _pagerank(g, alpha, side, tol, preference=None, **_):
    model = build_model(g, alpha, preference)  # alpha as clamped
    return CentralityVector("pagerank", "broadcast", model.alpha,
                            pagerank_power(model, tol=tol))


def _heat_kernel(g, t, side, tol, preference=None, damping=None):
    model = build_model(g, DEFAULT_DAMPING if damping is None else damping,
                        preference)
    return CentralityVector("heat-kernel", "broadcast", t,
                            heat_kernel_rowsums(model, t, tol=tol))


MEASURES: dict[str, Measure] = {m.name: m for m in (
    Measure("degree", "none",
            lambda g, t, side, tol, **_: degree_centrality(g, side=side)),
    Measure("eigenvector", "none",
            lambda g, t, side, tol, **_: eigenvector_centrality(
                g, side=side, tol=tol)),
    Measure("katz", "resolvent",
            lambda g, t, side, tol, **_: katz(g, t, side=side, tol=tol),
            flag="--alpha", sweepable=True),
    Measure("resolvent-subgraph", "resolvent",
            lambda g, t, side, tol, **_: resolvent_subgraph(g, t, tol=tol),
            flag="--alpha", sweepable=True, diagonal=True),
    Measure("exp-subgraph", "exponential",
            lambda g, t, side, tol, **_: exp_subgraph(g, t),
            flag="--beta", default=DEFAULT_BETA, sweepable=True,
            diagonal=True),
    Measure("total-communicability", "exponential",
            lambda g, t, side, tol, **_: total_communicability(
                g, t, side=side, tol=tol),
            flag="--beta", default=DEFAULT_BETA, sweepable=True),
    Measure("hits", "none", _hits),
    Measure("pagerank", "pagerank", _pagerank, flag="--alpha",
            default=DEFAULT_DAMPING, sweepable=True),
    Measure("heat-kernel", "pagerank", _heat_kernel, flag="--t",
            required=True),
)}

SWEEPABLE = tuple(name for name, m in MEASURES.items() if m.sweepable)
