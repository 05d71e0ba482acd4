"""Rankings, the top-k intersection distance, and parameter sweeps.

A :class:`Ranking` is a deterministic ordering of node ids — descending
score, ascending id on exact ties — together with the start positions of
its tie groups (maximal runs whose scores agree within a relative
tolerance). Rankings derived from parameterized measures are compared with
the intersection distance; :func:`limit_sweep` traces a measure across a
parameter grid and scores each point against its two limiting references
(degree-like at small parameters, eigenvector-like near the feasible
endpoint), and :func:`convergence_report` condenses a sweep into the
parameter band where the measure is genuinely informative.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UnsupportedOperationError, ValidationError
from .graph import Graph
from .measures import MEASURES, SWEEPABLE, _resolve_side
from .spectral import DEFAULT_TOL

__all__ = [
    "Ranking",
    "SweepResult",
    "ConvergenceReport",
    "rank",
    "intersection_distance",
    "equal_modulo_ties",
    "limit_sweep",
    "convergence_report",
]

DEFAULT_TIE_TOL = 1e-9
DEFAULT_BAND_THRESHOLD = 0.05


@dataclass(frozen=True)
class Ranking:
    """Total order over node ids with its tie groups.

    ``order[p]`` is the node at position ``p`` (best first). Tie groups are
    runs of positions, stored as ``tie_starts``: the first position of each
    group, ascending (empty when ``n == 0``). Both arrays are read-only.
    """

    order: np.ndarray
    tie_starts: np.ndarray

    def __post_init__(self):
        self.order.setflags(write=False)
        self.tie_starts.setflags(write=False)

    @property
    def n(self) -> int:
        return int(self.order.shape[0])

    @property
    def tie_groups(self) -> tuple[tuple[int, ...], ...]:
        """Tie groups as tuples of positions."""
        bounds = [*self.tie_starts.tolist(), self.n]
        return tuple(tuple(range(a, b)) for a, b in zip(bounds, bounds[1:]))

    def group_ids(self) -> tuple[tuple[int, ...], ...]:
        """Tie groups as node ids instead of positions."""
        return tuple(tuple(self.order[list(grp)].tolist())
                     for grp in self.tie_groups)


def _group_at(r: Ranking) -> np.ndarray:
    """Index of the tie group holding each position of ``r``."""
    sizes = np.diff(r.tie_starts, append=r.n)
    return np.repeat(np.arange(sizes.shape[0]), sizes)


def rank(scores, *, tie_tol: float = DEFAULT_TIE_TOL) -> Ranking:
    """Order nodes by descending score, ascending id on exact ties.

    A tie group starts at every position whose score ``b`` differs from
    the previous score ``a`` by more than ``tie_tol * max(|a|, |b|)``.
    One fast sort orders the scores; only when two are exactly equal does
    one sort of the unique keys ``run * n + id`` order each run by id.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1:
        raise ValidationError("scores must be a 1-d vector")
    if not np.all(np.isfinite(scores)):
        raise ValidationError("scores must be finite to be ranked")
    n = scores.shape[0]
    order = np.argsort(-scores).astype(np.int64, copy=False)
    s = scores[order]
    new_run = s[:-1] != s[1:]
    if not np.all(new_run):
        run = np.concatenate([[0], np.cumsum(new_run)])
        order = np.sort(run * n + order) % n
    breaks = np.abs(s[:-1] - s[1:]) > tie_tol * np.maximum(np.abs(s[:-1]),
                                                             np.abs(s[1:]))
    starts = np.flatnonzero(np.concatenate([[n > 0], breaks]))
    return Ranking(order, starts.astype(np.int64))


def _as_order(x) -> np.ndarray:
    if isinstance(x, Ranking):
        return x.order
    arr = np.asarray(x)
    if arr.ndim != 1:
        raise ValidationError("a ranking must be a 1-d sequence of node ids")
    return arr


def _resolve_depth(k: int | None, n: int) -> int:
    """The depth ``k``, ``n`` when it is ``None``; it must lie in ``1..n``."""
    k = n if k is None else k
    if not 1 <= k <= n:
        raise ValidationError(f"k must lie in 1..{n}, got {k}")
    return k


def intersection_distance(a, b, k: int | None = None) -> float:
    """Top-k intersection distance between two rankings.

    ``isim_k = (1/k) * sum_{i=1..k} |A_i symdiff B_i| / (2 i)`` where
    ``A_i``/``B_i`` are the top-``i`` prefix sets. 0 means the prefixes
    agree as sets at every depth; 1 means the top-``k`` lists are disjoint.
    Both arguments must rank the same set of node ids, each once; one
    ``np.unique`` checks this and labels them ``0..n-1`` for :func:`_isim`.
    """
    a = _as_order(a)
    b = _as_order(b)
    n = a.shape[0]
    if b.shape[0] != n:
        raise ValidationError(
            f"rankings have different lengths: {n} vs {b.shape[0]}")
    uniq, inv = np.unique(np.concatenate([a, b]), return_inverse=True)
    for which, ids in (("first", inv[:n]), ("second", inv[n:])):
        repeated = np.bincount(ids, minlength=uniq.shape[0]) > 1
        if repeated.any():
            raise ValidationError(
                f"the {which} ranking repeats node id "
                f"{uniq[repeated.argmax()].item()!r}")
    if uniq.shape[0] != n:
        raise ValidationError("rankings must cover the same set of node ids")
    k = _resolve_depth(k, n)
    return _isim(np.maximum(_positions(inv[:n]), _positions(inv[n:])), k)


def _positions(order: np.ndarray) -> np.ndarray:
    """Inverse permutation: ``pos[order[p]] = p``."""
    pos = np.empty(order.shape[0], dtype=np.int64)
    pos[order] = np.arange(order.shape[0])
    return pos


def _isim(later: np.ndarray, k: int) -> float:
    """isim_k from ``later[v]``, the later of node ``v``'s two positions:
    ``|A_i & B_i|`` counts the nodes with ``later < i``."""
    overlap = np.cumsum(np.bincount(later, minlength=later.shape[0])[:k])
    terms = 1.0 - overlap / np.arange(1.0, k + 1.0)
    return float(np.cumsum(terms)[-1] / k)


def equal_modulo_ties(candidate, reference: Ranking) -> bool:
    """Does ``candidate`` order equal ``reference`` up to reference ties?

    True iff the candidate lists the reference's tie groups as contiguous
    blocks, in group order (any order within a block): it is a permutation
    of ``0..n-1`` whose node at each position is in that position's group.
    """
    cand = _as_order(candidate)
    n = reference.n
    if cand.shape[0] != n:
        raise ValidationError(
            f"rankings have different lengths: {cand.shape[0]} vs {n}")
    if not np.all((cand >= 0) & (cand < n) & (cand % 1 == 0)):
        return False
    ids = cand.astype(np.int64)
    group = _group_at(reference)
    group_of_node = np.empty_like(group)
    group_of_node[reference.order] = group
    return bool(np.all(np.bincount(ids, minlength=n) == 1)
                and np.array_equal(group_of_node[ids], group))


def _align_to(reference: Ranking, pos: np.ndarray,
              group: np.ndarray | None = None) -> np.ndarray:
    """Reference order with each tie group re-sorted to the relative order
    of a candidate whose position of node ``v`` is ``pos[v]``.

    The aligned order is the member of the reference's tie-equivalence class
    closest to the candidate, so its intersection distance to the candidate
    is 0 exactly when the candidate matches the reference modulo its ties.
    One sort of the unique keys ``group * n + pos``, ``group`` being
    :func:`_group_at` of the reference; none when it has no ties.
    """
    ref = reference.order
    if reference.tie_starts.shape[0] == reference.n:
        return ref
    group = _group_at(reference) if group is None else group
    return ref[np.argsort(group * reference.n + pos[ref])]


# ---------------------------------------------------------------------------
# parameter sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepResult:
    """Per-grid-point ranking distances for one measure on one graph.

    ``isim_to_degree`` / ``isim_to_eigenvector`` compare each grid point's
    ranking against the measure's two limiting references, aligned modulo
    reference ties; ``isim_successive[i]`` compares point ``i`` with point
    ``i-1`` (NaN at the first point). ``side`` is the side of the scores
    computed at the grid points, as ``compute`` reports it.
    """

    measure: str
    side: str
    parameters: np.ndarray
    isim_to_degree: np.ndarray
    isim_to_eigenvector: np.ndarray
    isim_successive: np.ndarray
    k: int
    t_star: float

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("parameter,isim_degree,isim_eigenvector,isim_successive\n")
        for i, t in enumerate(self.parameters):
            succ = ("" if math.isnan(self.isim_successive[i])
                    else f"{self.isim_successive[i]:.12g}")
            buf.write(f"{t:.12g},{self.isim_to_degree[i]:.12g},"
                      f"{self.isim_to_eigenvector[i]:.12g},{succ}\n")
        return buf.getvalue()

    def to_json_dict(self) -> dict:
        return {
            "measure": self.measure,
            "side": self.side,
            "k": self.k,
            "t_star": None if math.isinf(self.t_star) else self.t_star,
            "rows": [
                {
                    "parameter": float(self.parameters[i]),
                    "isim_degree": float(self.isim_to_degree[i]),
                    "isim_eigenvector": float(self.isim_to_eigenvector[i]),
                    "isim_successive": (
                        None if math.isnan(self.isim_successive[i])
                        else float(self.isim_successive[i])),
                }
                for i in range(self.parameters.shape[0])
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


def limit_sweep(g: Graph, measure: str, *, side: str = "broadcast",
                grid=None, k: int | None = None, tol: float = DEFAULT_TOL,
                tie_tol: float = DEFAULT_TIE_TOL) -> SweepResult:
    """Trace a measure's ranking across its feasible parameter interval.

    ``measure`` is a sweepable entry of :data:`walkrank.measures.MEASURES`:
    ``katz``, ``resolvent-subgraph``, ``exp-subgraph``,
    ``total-communicability`` or ``pagerank``. The default grid is
    ``(0.1, 0.5, 1, 2, 5, 8, 10)`` for the exponential family and the
    fractions ``(0.01, ..., 0.99)`` of the feasible endpoint for the
    resolvent family and for pagerank's damping factor. A custom grid must
    be strictly increasing and lie inside the feasible interval.

    References: the degree-like limit is the weighted out-/in-degree; for
    pagerank it is the row sums ``H 1``, and for the two diagonal measures
    the sums of squared weights ``sum_j w_ij^2``, since their entries are
    ``1 + c t^2 sum_j w_ij^2 + ...`` (the degree when every weight is 1; a
    self-loop would lead with ``t A_ii``, so it is rejected). The
    eigenvector-like limit is the dominant right/left eigenvector (for
    pagerank: the ranking at the damping cap 0.999). Reference rankings
    are tie-aligned before the distance is taken, so a column reads 0
    exactly when the candidate matches that limit modulo reference ties.
    """
    spec = MEASURES.get(measure)
    if spec is None or spec.sweep is None:
        raise ValidationError(
            f"measure must be one of {', '.join(SWEEPABLE)}; "
            f"got {measure!r}")
    _, receive = _resolve_side(g, side)
    if spec.diagonal and g.directed:
        raise UnsupportedOperationError(
            f"{measure} is a walk-return diagonal and needs an undirected "
            "graph")
    if spec.diagonal and np.any(g.src == g.dst):
        raise UnsupportedOperationError(
            f"{measure} sweep on a graph with a self-loop: the loop weight, "
            "not a degree, leads its small-parameter limit")

    if grid is not None:
        grid = np.asarray(list(grid), dtype=np.float64)
        if grid.ndim != 1 or grid.shape[0] == 0:
            raise ValidationError("grid must be a non-empty 1-d sequence")
        if np.isnan(grid).any():  # NaN passes every comparison below
            raise ValidationError("grid points must be numbers, got nan")
        if np.any(np.diff(grid) <= 0.0):
            raise ValidationError("grid must be strictly increasing")

    t_star, deg_scores, eig_scores = spec.sweep.limits(g, receive, tol)
    if spec.diagonal:
        squared = g.weight * g.weight
        deg_scores = (np.bincount(g.src, squared, g.n)
                      + np.bincount(g.dst, squared, g.n))

    if grid is None:
        grid = spec.sweep.default_grid(t_star)
    if grid[0] <= 0.0 or grid[-1] >= t_star:
        raise DomainError(
            f"grid points must lie inside the feasible interval "
            f"(0, {t_star:.12g}); got [{grid[0]:.12g}, {grid[-1]:.12g}]")

    k = _resolve_depth(k, g.n)

    references = [(r, _group_at(r)) for r in
                  (rank(deg_scores, tie_tol=tie_tol),
                   rank(eig_scores, tie_tol=tie_tol))]
    columns = np.full((3, grid.shape[0]), np.nan)
    previous = None
    for i, t in enumerate(grid):
        cv = spec.compute(g, float(t), side=side, tol=tol)
        pos = _positions(rank(cv.scores, tie_tol=tie_tol).order)
        for column, (ref, group) in zip(columns, references):
            aligned = _positions(_align_to(ref, pos, group))
            column[i] = _isim(np.maximum(pos, aligned), k)
        if previous is not None:
            columns[2, i] = _isim(np.maximum(pos, previous), k)
        previous = pos

    return SweepResult(
        measure=measure,
        side=cv.side,
        parameters=grid,
        isim_to_degree=columns[0],
        isim_to_eigenvector=columns[1],
        isim_successive=columns[2],
        k=k,
        t_star=t_star,
    )


@dataclass(frozen=True)
class ConvergenceReport:
    """Summary of a sweep: where is the measure informative?

    The informative band is the longest contiguous run of grid points whose
    rankings stay further than ``threshold`` from *both* limiting
    references. Outside it the measure reproduces a limit and the parameter
    value barely matters. Monotonicity violations flag grid indices where
    the distance to a reference moves the wrong way (distance to degree
    should grow with the parameter; distance to the eigenvector should
    shrink).
    """

    measure: str
    threshold: float
    band: tuple[float, float] | None
    band_indices: tuple[int, ...]
    degree_violations: tuple[int, ...]
    eigenvector_violations: tuple[int, ...]
    t_star: float
    recommendation: str

    def render(self) -> str:
        lines = [f"measure: {self.measure}"]
        if math.isfinite(self.t_star):
            lines.append(f"feasible interval: (0, {self.t_star:.12g})")
        lines.append(f"informative band (isim > {self.threshold:g} to both "
                     "references):")
        if self.band is None:
            lines.append("  none")
        else:
            lo, hi = self.band
            span = f"  [{lo:.12g}, {hi:.12g}]"
            if math.isfinite(self.t_star) and self.t_star > 0:
                span += (f"  (fractions {lo / self.t_star:.3g}"
                         f"..{hi / self.t_star:.3g} of the endpoint)")
            lines.append(span)
        if self.degree_violations:
            lines.append("non-monotone vs degree reference at grid indices: "
                         + ", ".join(map(str, self.degree_violations)))
        if self.eigenvector_violations:
            lines.append("non-monotone vs eigenvector reference at grid "
                         "indices: "
                         + ", ".join(map(str, self.eigenvector_violations)))
        lines.append(f"recommendation: {self.recommendation}")
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return {
            "measure": self.measure,
            "threshold": self.threshold,
            "band": None if self.band is None else list(self.band),
            "band_indices": list(self.band_indices),
            "degree_violations": list(self.degree_violations),
            "eigenvector_violations": list(self.eigenvector_violations),
            "t_star": None if math.isinf(self.t_star) else self.t_star,
            "recommendation": self.recommendation,
        }


def convergence_report(sweep: SweepResult,
                       threshold: float = DEFAULT_BAND_THRESHOLD,
                       ) -> ConvergenceReport:
    """Condense a sweep into its informative parameter band."""
    npts = sweep.parameters.shape[0]
    informative = ((sweep.isim_to_degree > threshold)
                   & (sweep.isim_to_eigenvector > threshold))
    band = None
    band_indices: tuple[int, ...] = ()
    if npts >= 2 and informative.any():
        # longest contiguous run, earliest on ties (argmax takes the first)
        edges = np.diff(informative, prepend=False, append=False)
        start, stop = np.flatnonzero(edges).reshape(-1, 2).T
        best = int(np.argmax(stop - start))
        band_indices = tuple(range(start[best], stop[best]))
        band = (float(sweep.parameters[band_indices[0]]),
                float(sweep.parameters[band_indices[-1]]))

    eps = 1e-12
    deg, eig = sweep.isim_to_degree, sweep.isim_to_eigenvector
    deg_viol = tuple((np.flatnonzero(deg[1:] < deg[:-1] - eps) + 1).tolist())
    eig_viol = tuple((np.flatnonzero(eig[1:] > eig[:-1] + eps) + 1).tolist())

    if npts < 2:
        recommendation = (
            "single-point sweep: no transition can be located; rerun with a "
            "grid spanning the feasible interval")
    elif band is None:
        recommendation = (
            "every grid point ranks within the threshold of a limiting "
            "reference; the parameter adds little here — report the degree "
            "and eigenvector rankings directly, or refine the grid between "
            "the first and last points")
    else:
        recommendation = (
            f"report rankings for parameters in [{band[0]:.12g}, "
            f"{band[1]:.12g}]: below the band the ranking collapses to the "
            "degree reference, above it to the eigenvector reference, and "
            "inside it the parameter meaningfully changes the order — "
            "quote the whole trajectory rather than a single value")

    return ConvergenceReport(
        measure=sweep.measure,
        threshold=threshold,
        band=band,
        band_indices=band_indices,
        degree_violations=deg_viol,
        eigenvector_violations=eig_viol,
        t_star=sweep.t_star,
        recommendation=recommendation,
    )
