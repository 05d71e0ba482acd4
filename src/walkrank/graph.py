"""Sparse graph container, file loaders, and structural statistics.

The :class:`Graph` stores an edge list in canonical form (deduplicated,
sorted, positive weights) together with a dense 0-based internal node
numbering. External node names live in ``node_labels`` and are only used at
the I/O boundary; every algorithm in the package works on internal ids.

Adjacency convention: ``A[i, j]`` is the weight of edge ``i -> j``, so row
sums are out-degrees and column sums are in-degrees. Undirected graphs store
each edge once and expose a symmetrized adjacency.
"""

from __future__ import annotations

import io
from typing import Iterable, NamedTuple, TextIO

import numpy as np

from . import _kernels
from .errors import (
    FormatError,
    GraphParseError,
    UnsupportedOperationError,
    ValidationError,
)

__all__ = [
    "Graph",
    "Degrees",
    "ClusteringCoefficients",
    "load_edge_list",
    "load_matrix_market",
    "dump_edge_list",
    "dumps_edge_list",
    "degrees",
    "largest_scc",
    "triangle_counts",
    "clustering_coefficient",
    "is_connected",
    "is_strongly_connected",
]


class Degrees(NamedTuple):
    out_degree: np.ndarray
    in_degree: np.ndarray


class ClusteringCoefficients(NamedTuple):
    per_node: np.ndarray
    average: float


class Graph:
    """Immutable sparse graph over nodes ``0 .. n-1``.

    Use :meth:`from_edges` (or the loaders in this module) rather than the
    raw constructor; the factory validates, merges duplicates, and
    canonicalizes edge order.
    """

    __slots__ = ("n", "directed", "src", "dst", "weight", "node_labels",
                 "_csr", "_csr_t")

    def __init__(self, n: int, src: np.ndarray, dst: np.ndarray,
                 weight: np.ndarray, directed: bool,
                 node_labels: np.ndarray):
        self.n = int(n)
        self.directed = bool(directed)
        self.src = src
        self.dst = dst
        self.weight = weight
        self.node_labels = node_labels
        for arr in (self.src, self.dst, self.weight, self.node_labels):
            arr.setflags(write=False)
        self._csr = None
        self._csr_t = None

    # -- construction -----------------------------------------------------

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple], *,
                   directed: bool = False, node_labels=None,
                   allow_loops: bool = False) -> "Graph":
        """Build a graph from ``(u, v)`` or ``(u, v, weight)`` tuples.

        Duplicate edges (including ``(v, u)`` duplicates of ``(u, v)`` in the
        undirected case) have their weights summed. Weights must be positive
        and finite; self-loops are rejected unless ``allow_loops`` is set.
        """
        n = int(n)
        if n < 0:
            raise ValidationError("node count must be non-negative")
        us, vs, ws = [], [], []
        for edge in edges:
            if len(edge) == 3:
                u, v, w = edge
            else:
                u, v = edge
                w = 1.0
            u, v, w = int(u), int(v), float(w)
            if not (0 <= u < n and 0 <= v < n):
                raise ValidationError(
                    f"edge ({u}, {v}) references a node outside 0..{n - 1}")
            if u == v and not allow_loops:
                raise ValidationError(
                    f"self-loop at node {u} (pass allow_loops=True to accept)")
            if not np.isfinite(w) or w <= 0.0:
                raise ValidationError(
                    f"edge ({u}, {v}) has non-positive weight {w!r}")
            if not directed and u > v:
                u, v = v, u
            us.append(u)
            vs.append(v)
            ws.append(w)

        src = np.asarray(us, dtype=np.int64)
        dst = np.asarray(vs, dtype=np.int64)
        weight = np.asarray(ws, dtype=np.float64)

        # merge duplicates by summing weights, then sort lexicographically
        if src.shape[0]:
            key = src * n + dst
            order = np.argsort(key, kind="stable")
            key = key[order]
            weight = weight[order]
            uniq, start = np.unique(key, return_index=True)
            weight = np.add.reduceat(weight, start)
            src = (uniq // n).astype(np.int64)
            dst = (uniq % n).astype(np.int64)

        if node_labels is None:
            node_labels = np.arange(n, dtype=np.int64)
        else:
            node_labels = np.asarray(node_labels, dtype=np.int64).copy()
            if node_labels.shape != (n,):
                raise ValidationError(
                    f"node_labels must have length {n}, got {node_labels.shape}")
        return cls(n, src, dst, weight, directed, node_labels)

    # -- basic properties ---------------------------------------------------

    @property
    def m(self) -> int:
        """Number of stored edges (each undirected edge counted once)."""
        return int(self.src.shape[0])

    @property
    def weighted(self) -> bool:
        return bool(np.any(self.weight != 1.0))

    def edge_tuples(self) -> list[tuple[int, int, float]]:
        return [(int(u), int(v), float(w))
                for u, v, w in zip(self.src, self.dst, self.weight)]

    def __repr__(self):  # pragma: no cover - debugging aid
        kind = "digraph" if self.directed else "graph"
        return f"<Graph {kind} n={self.n} m={self.m}>"

    # -- adjacency ----------------------------------------------------------

    def _build_csr(self, transpose: bool):
        if self.directed:
            rows = self.dst if transpose else self.src
            cols = self.src if transpose else self.dst
            vals = self.weight
        else:
            loops = self.src == self.dst
            rows = np.concatenate([self.src, self.dst[~loops]])
            cols = np.concatenate([self.dst, self.src[~loops]])
            vals = np.concatenate([self.weight, self.weight[~loops]])
        order = np.lexsort((cols, rows))
        rows = rows[order]
        indices = cols[order].astype(np.int64)
        data = vals[order].astype(np.float64)
        counts = np.bincount(rows, minlength=self.n)
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return indptr, indices, data

    def adjacency(self):
        """CSR triple ``(indptr, indices, data)`` of the adjacency matrix."""
        if self._csr is None:
            self._csr = self._build_csr(transpose=False)
        return self._csr

    def adjacency_t(self):
        """CSR triple of the transposed adjacency matrix."""
        if not self.directed:
            return self.adjacency()
        if self._csr_t is None:
            self._csr_t = self._build_csr(transpose=True)
        return self._csr_t

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``A @ x``."""
        indptr, indices, data = self.adjacency()
        return _kernels.csr_matvec(indptr, indices, data, x)

    def matvec_t(self, x: np.ndarray) -> np.ndarray:
        """``A.T @ x``."""
        indptr, indices, data = self.adjacency_t()
        return _kernels.csr_matvec(indptr, indices, data, x)

    def to_dense(self) -> np.ndarray:
        """Dense adjacency matrix (symmetrized for undirected graphs)."""
        indptr, indices, data = self.adjacency()
        dense = np.zeros((self.n, self.n))
        rows = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(indptr))
        dense[rows, indices] = data
        return dense


# ---------------------------------------------------------------------------
# loaders / serializers
# ---------------------------------------------------------------------------

def _open_text(path_or_file, mode="r"):
    if hasattr(path_or_file, "read") or hasattr(path_or_file, "write"):
        return path_or_file, False
    return open(path_or_file, mode, encoding="utf-8"), True


def load_edge_list(path_or_file, *, directed: bool = False,
                   weighted: bool | None = None,
                   index_base: int | None = None,
                   allow_loops: bool = False) -> Graph:
    """Parse a whitespace-separated edge list.

    Each data line is ``u v`` or ``u v weight``; lines starting with ``#`` or
    ``%`` and blank lines are skipped. ``weighted=None`` infers the column
    count from the first data line and then enforces it. Node ids are shifted
    down by ``index_base``; the resulting graph has ``n = 1 + max(id)`` nodes
    and keeps the original ids as ``node_labels``. ``index_base=None`` reads
    the ids 0-based if some id is 0 and 1-based otherwise, so the output of
    :func:`dump_edge_list` loads back unchanged; ids below the base (under
    ``None``: negative ids) are rejected.

    Duplicate edges sum their weights. Malformed lines raise
    :class:`GraphParseError` carrying the 1-based line number.
    """
    fh, should_close = _open_text(path_or_file)
    try:
        edges = []
        ncols = 3 if weighted is True else (2 if weighted is False else None)
        inferred = weighted is None
        lowest = 0 if index_base is None else index_base
        max_id = -1
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#") or line.startswith("%"):
                continue
            parts = line.split()
            if ncols is None:
                if len(parts) not in (2, 3):
                    raise GraphParseError(
                        f"expected 2 or 3 columns, got {len(parts)}", lineno)
                ncols = len(parts)
            elif len(parts) != ncols:
                what = ("inferred from the first data line" if inferred
                        else "requested")
                raise GraphParseError(
                    f"expected {ncols} columns ({what}), got {len(parts)}",
                    lineno)
            try:
                u = int(parts[0])
                v = int(parts[1])
            except ValueError:
                raise GraphParseError(
                    f"node ids must be integers, got {parts[0]!r} {parts[1]!r}",
                    lineno) from None
            if u < lowest or v < lowest:
                raise GraphParseError(
                    f"node id below index base {lowest}", lineno)
            if u == v and not allow_loops:
                raise GraphParseError(
                    f"self-loop at node {parts[0]} "
                    "(pass allow_loops=True to accept)", lineno)
            if ncols == 3:
                try:
                    w = float(parts[2])
                except ValueError:
                    raise GraphParseError(
                        f"weight must be a number, got {parts[2]!r}",
                        lineno) from None
                if not np.isfinite(w) or w <= 0.0:
                    raise GraphParseError(
                        f"weight must be positive and finite, got {parts[2]}",
                        lineno)
            else:
                w = 1.0
            edges.append((u, v, w))
            max_id = max(max_id, u, v)
        if index_base is None:
            has_zero = any(u == 0 or v == 0 for u, v, _ in edges)
            index_base = 0 if has_zero else 1
        if index_base:
            edges = [(u - index_base, v - index_base, w)
                     for u, v, w in edges]
        n = max_id - index_base + 1 if edges else 0
        labels = np.arange(n, dtype=np.int64) + index_base
        return Graph.from_edges(n, edges, directed=directed,
                                node_labels=labels, allow_loops=allow_loops)
    finally:
        if should_close:
            fh.close()


def load_matrix_market(path_or_file, *, allow_loops: bool = False) -> Graph:
    """Parse a Matrix Market coordinate file into a graph.

    Supported variants: ``coordinate`` × {``pattern``, ``real``, ``integer``}
    × {``general``, ``symmetric``}. ``symmetric`` yields an undirected graph,
    ``general`` a directed one. Explicitly stored zero entries are dropped;
    negative weights are rejected; ``array`` and ``complex`` files raise
    :class:`FormatError`. Node labels are the file's 1-based indices.
    """
    fh, should_close = _open_text(path_or_file)
    try:
        header = fh.readline()
        if not header.startswith("%%MatrixMarket"):
            raise FormatError("missing %%MatrixMarket header")
        tokens = header.split()
        if len(tokens) < 5:
            raise FormatError(f"malformed header: {header.strip()!r}")
        _, obj, fmt, field, symmetry = (t.lower() for t in tokens[:5])
        if obj != "matrix":
            raise FormatError(f"unsupported object {obj!r}")
        if fmt != "coordinate":
            raise FormatError(
                f"unsupported format {fmt!r} (only 'coordinate' is supported)")
        if field not in ("pattern", "real", "integer"):
            raise FormatError(
                f"unsupported field {field!r} "
                "(only 'pattern', 'real', 'integer' are supported)")
        if symmetry not in ("general", "symmetric"):
            raise FormatError(
                f"unsupported symmetry {symmetry!r} "
                "(only 'general' and 'symmetric' are supported)")

        lineno = 1
        size_line = None
        while True:
            raw = fh.readline()
            lineno += 1
            if not raw:
                raise GraphParseError("missing size line", lineno)
            line = raw.strip()
            if not line or line.startswith("%"):
                continue
            size_line = line
            break
        parts = size_line.split()
        if len(parts) != 3:
            raise GraphParseError(
                f"size line must have 3 fields, got {len(parts)}", lineno)
        try:
            nrows, ncols, nnz = (int(p) for p in parts)
        except ValueError:
            raise GraphParseError(
                f"size line must be integers: {size_line!r}", lineno) from None
        if nrows != ncols:
            raise ValidationError(
                f"adjacency matrix must be square, got {nrows}x{ncols}")

        pattern = field == "pattern"
        want = 2 if pattern else 3
        edges = []
        seen = 0
        for raw in fh:
            lineno += 1
            line = raw.strip()
            if not line or line.startswith("%"):
                continue
            parts = line.split()
            if len(parts) != want:
                raise GraphParseError(
                    f"expected {want} fields, got {len(parts)}", lineno)
            try:
                i = int(parts[0])
                j = int(parts[1])
            except ValueError:
                raise GraphParseError(
                    f"indices must be integers: {line!r}", lineno) from None
            if not (1 <= i <= nrows and 1 <= j <= ncols):
                raise GraphParseError(
                    f"entry ({i}, {j}) outside declared {nrows}x{ncols} shape",
                    lineno)
            if pattern:
                w = 1.0
            else:
                try:
                    w = float(parts[2])
                except ValueError:
                    raise GraphParseError(
                        f"value must be a number, got {parts[2]!r}",
                        lineno) from None
                if w < 0.0 or not np.isfinite(w):
                    raise ValidationError(
                        f"line {lineno}: negative or non-finite weight {w}")
            seen += 1
            if w == 0.0:
                continue  # explicitly stored zero: not an edge
            edges.append((i - 1, j - 1, w))
        if seen != nnz:
            raise GraphParseError(
                f"declared {nnz} entries but found {seen}", lineno)
        labels = np.arange(nrows, dtype=np.int64) + 1
        return Graph.from_edges(nrows, edges,
                                directed=(symmetry == "general"),
                                node_labels=labels, allow_loops=allow_loops)
    finally:
        if should_close:
            fh.close()


def dump_edge_list(g: Graph, path_or_file) -> None:
    """Write the canonical edge list using the graph's external labels.

    Weights are emitted only when some edge weight differs from 1. Note that
    nodes without any incident edge are not representable in this format.
    """
    fh, should_close = _open_text(path_or_file, "w")
    try:
        labels = g.node_labels
        if g.weighted:
            for u, v, w in zip(g.src, g.dst, g.weight):
                fh.write(f"{labels[u]} {labels[v]} {float(w)!r}\n")
        else:
            for u, v in zip(g.src, g.dst):
                fh.write(f"{labels[u]} {labels[v]}\n")
    finally:
        if should_close:
            fh.close()


def dumps_edge_list(g: Graph) -> str:
    buf = io.StringIO()
    dump_edge_list(g, buf)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# structural statistics
# ---------------------------------------------------------------------------

def degrees(g: Graph) -> Degrees:
    """Weighted out-degrees (row sums) and in-degrees (column sums)."""
    out = np.zeros(g.n)
    in_ = np.zeros(g.n)
    np.add.at(out, g.src, g.weight)
    np.add.at(in_, g.dst, g.weight)
    if not g.directed:
        loops = g.src == g.dst
        np.add.at(out, g.dst[~loops], g.weight[~loops])
        np.add.at(in_, g.src[~loops], g.weight[~loops])
    return Degrees(out, in_)


def _tarjan_components(g: Graph) -> list[np.ndarray]:
    """Strongly connected components (iterative Tarjan), as id arrays."""
    n = g.n
    indptr, indices, _ = g.adjacency()
    index = np.full(n, -1, dtype=np.int64)
    lowlink = np.zeros(n, dtype=np.int64)
    on_stack = np.zeros(n, dtype=bool)
    stack: list[int] = []
    components: list[np.ndarray] = []
    counter = 0

    for root in range(n):
        if index[root] != -1:
            continue
        # each frame is [node, next edge pointer]
        work = [[root, indptr[root]]]
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            v, ptr = work[-1]
            if ptr < indptr[v + 1]:
                work[-1][1] = ptr + 1
                w = int(indices[ptr])
                if index[w] == -1:
                    index[w] = lowlink[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append([w, indptr[w]])
                elif on_stack[w]:
                    lowlink[v] = min(lowlink[v], index[w])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[v])
                if lowlink[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp.append(w)
                        if w == v:
                            break
                    components.append(np.sort(np.asarray(comp,
                                                         dtype=np.int64)))
    return components


def largest_scc(g: Graph) -> tuple[Graph, np.ndarray]:
    """Induced subgraph on the largest strongly connected component.

    Returns ``(subgraph, mapping)`` where ``mapping[new_id]`` is the original
    internal id. Ties on size go to the component containing the smallest
    original id. The subgraph keeps the parent's external labels.
    """
    if g.n == 0:
        raise ValidationError("largest_scc is undefined for an empty graph")
    components = _tarjan_components(g)
    best = max(components, key=lambda c: (len(c), -int(c[0])))
    mapping = best  # sorted ascending already
    in_comp = np.zeros(g.n, dtype=bool)
    in_comp[mapping] = True
    new_id = np.full(g.n, -1, dtype=np.int64)
    new_id[mapping] = np.arange(len(mapping), dtype=np.int64)

    keep = in_comp[g.src] & in_comp[g.dst]
    edges = zip(new_id[g.src[keep]], new_id[g.dst[keep]], g.weight[keep])
    sub = Graph.from_edges(len(mapping),
                           [(int(u), int(v), float(w)) for u, v, w in edges],
                           directed=g.directed,
                           node_labels=g.node_labels[mapping],
                           allow_loops=True)
    return sub, mapping.copy()


def is_connected(g: Graph) -> bool:
    """Connectivity of the undirected skeleton (BFS)."""
    if g.n == 0:
        return False
    if g.n == 1:
        return True
    indptr, indices, _ = g.adjacency()
    if g.directed:
        indptr_t, indices_t, _ = g.adjacency_t()
    seen = np.zeros(g.n, dtype=bool)
    seen[0] = True
    frontier = [0]
    count = 1
    while frontier:
        nxt = []
        for v in frontier:
            for p in range(indptr[v], indptr[v + 1]):
                w = int(indices[p])
                if not seen[w]:
                    seen[w] = True
                    count += 1
                    nxt.append(w)
            if g.directed:
                for p in range(indptr_t[v], indptr_t[v + 1]):
                    w = int(indices_t[p])
                    if not seen[w]:
                        seen[w] = True
                        count += 1
                        nxt.append(w)
        frontier = nxt
    return count == g.n


def is_strongly_connected(g: Graph) -> bool:
    if g.n == 0:
        return False
    if not g.directed:
        return is_connected(g)
    return max(len(c) for c in _tarjan_components(g)) == g.n


def triangle_counts(g: Graph) -> np.ndarray:
    """Per-node triangle counts ``diag(A^3) / 2`` (weighted if the graph is).

    Only defined for undirected graphs; directed input raises
    :class:`UnsupportedOperationError`.
    """
    if g.directed:
        raise UnsupportedOperationError(
            "triangle counts are only defined for undirected graphs")
    indptr, indices, data = g.adjacency()
    return _kernels.triangle_diag(indptr, indices, data) / 2.0


def clustering_coefficient(g: Graph) -> ClusteringCoefficients:
    """Local clustering ``2 T_i / (d_i (d_i - 1))`` and its average.

    Uses the binary structure (distinct neighbors, unweighted triangle
    counts; self-loops ignored). Nodes with degree < 2 have an undefined
    coefficient, reported as NaN and excluded from the average; if no node
    has degree >= 2 the average itself is NaN.
    """
    if g.directed:
        raise UnsupportedOperationError(
            "clustering coefficients are only defined for undirected graphs")
    indptr, indices, data = g.adjacency()
    rows = np.repeat(np.arange(g.n, dtype=np.int64), np.diff(indptr))
    keep = rows != indices  # drop self-loops from the binary structure
    if not np.all(keep):
        rows = rows[keep]
        indices = indices[keep]
        counts = np.bincount(rows, minlength=g.n)
        indptr = np.zeros(g.n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        indices = indices.astype(np.int64)
    tri = _kernels.triangle_diag(indptr, indices,
                                 np.ones(indices.shape[0])) / 2.0
    deg = np.diff(indptr).astype(np.float64)
    values = np.full(g.n, np.nan)
    eligible = deg >= 2
    denom = deg[eligible] * (deg[eligible] - 1.0)
    values[eligible] = 2.0 * tri[eligible] / denom
    average = float(values[eligible].mean()) if eligible.any() else float("nan")
    return ClusteringCoefficients(values, average)
