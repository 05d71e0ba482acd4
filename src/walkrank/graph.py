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
from functools import partial
from itertools import compress, repeat
from typing import Iterable, NamedTuple

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
    raw constructor; the factory validates, merges duplicates (their
    weights sum left to right in input order), and canonicalizes edge
    order with one unstable sort, redone stably only when an edge has
    copies to merge (see :meth:`_from_arrays`). Its graphs keep the
    invariant that ``src``/``dst`` (int64) and ``weight`` (float64) hold
    distinct edges sorted by ``(src, dst)``, undirected ones as ``(min,
    max)``. So the stored edges are the CSR of a directed ``A`` as they
    stand, and the other sides need one ``argsort`` of ``(row, col)`` keys.
    A raw constructor call that breaks the invariant costs that sort on
    every side; its duplicate edges stay separate CSR entries, in no set
    order.

    Data derived from the graph is computed once and kept in :meth:`memo`
    for the graph's lifetime: the CSR adjacency and its transpose, each
    with the row of every stored entry (8 bytes per entry per side), the
    connectivity booleans, the dominant eigenpair per ``(side, tol,
    max_iter)`` and, for undirected graphs, the dense eigendecomposition
    behind :func:`walkrank.series.fa_diagonal`. The CSR arrays, the
    eigendecomposition and the dominant vectors are returned read-only,
    since every caller (PageRank models included) shares them. Products
    with ``A`` and ``A.T`` go through :meth:`matvec` and :meth:`matvec_t`.
    """

    __slots__ = ("n", "directed", "src", "dst", "weight", "node_labels",
                 "_memo")

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
        self._memo = {}

    # -- construction -----------------------------------------------------

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple], *,
                   directed: bool = False, node_labels=None,
                   allow_loops: bool = False) -> "Graph":
        """Build a graph from ``(u, v)`` or ``(u, v, weight)`` tuples.

        Duplicate edges (including ``(v, u)`` duplicates of ``(u, v)`` in the
        undirected case) have their weights summed. Weights must be positive
        and finite; self-loops are rejected unless ``allow_loops`` is set.
        Ids go through ``int()`` and weights through ``float()``, then the
        arrays through :meth:`_from_arrays`.
        """
        us, vs, ws = [], [], []
        for edge in edges:
            u, v, w = edge if len(edge) == 3 else (*edge, 1.0)
            us.append(int(u))
            vs.append(int(v))
            ws.append(float(w))
        return cls._from_arrays(
            n, np.asarray(us, dtype=np.int64), np.asarray(vs, dtype=np.int64),
            np.asarray(ws, dtype=np.float64), directed=directed,
            node_labels=node_labels, allow_loops=allow_loops)

    @classmethod
    def _from_arrays(cls, n: int, src: np.ndarray, dst: np.ndarray,
                     weight: np.ndarray, *, directed: bool,
                     node_labels=None, allow_loops: bool = False,
                     report=None) -> "Graph":
        """Build a graph from parallel edge arrays: the one place where
        edges are checked, oriented and merged.

        Every edge must have both ends in ``0..n-1``, no self-loop unless
        ``allow_loops`` is set, and a positive finite weight. The first bad
        edge in array order and its first failing check go to ``report(k,
        check)`` (see :func:`_check_edges`), which returns the exception to
        raise, so that a file loader can name the line; without ``report``
        it is a :class:`ValidationError` naming the edge. Undirected edges
        are stored as ``(min, max)`` and sorted by ``(src, dst)`` with one
        unstable ``argsort`` of the ``src * n + dst`` keys, which orders
        distinct edges fully. Only when the sorted keys hold a duplicate is
        the sort redone stably, so that the copies of an edge sum their
        weights left to right in array order. ``node_labels`` defaults to
        ``0..n-1``; it is built after the edge checks.
        """
        n = int(n)
        if n < 0:
            raise ValidationError("node count must be non-negative")
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        weight = np.asarray(weight, dtype=np.float64)
        _check_edges(n, src, dst, weight, allow_loops,
                     report or partial(_edge_error, src, dst, weight, n))
        if not directed:
            src, dst = np.minimum(src, dst), np.maximum(src, dst)
        if src.shape[0]:
            key = src * n + dst
            order = np.argsort(key)
            sorted_key = key[order]
            first = np.empty(key.shape[0], dtype=bool)
            first[0] = True
            np.not_equal(sorted_key[1:], sorted_key[:-1], out=first[1:])
            if first.all():
                weight = weight[order]
            else:
                # the copies of an edge sum left to right in array order,
                # one step per copy of the most repeated edge
                weight = weight[np.argsort(key, kind="stable")]
                start = np.flatnonzero(first)
                count = np.diff(start, append=key.shape[0])
                total = weight[start]
                k, more = 1, np.flatnonzero(count > 1)
                while more.size:
                    total[more] += weight[start[more] + k]
                    k += 1
                    more = more[count[more] > k]
                weight = total
                sorted_key = sorted_key[first]
            src = sorted_key // n
            dst = sorted_key % n
        else:
            src, dst, weight = src.copy(), dst.copy(), weight.copy()

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

    def memo(self, key, compute):
        """``compute()``, evaluated on the first call for ``key`` only.

        Later calls with the same key return the stored value. A
        ``compute`` that raises stores nothing, so the next call raises
        again.
        """
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    # -- adjacency ----------------------------------------------------------

    def _build_csr(self, transpose: bool):
        if self.directed:
            rows = self.dst if transpose else self.src
            cols = self.src if transpose else self.dst
            vals = self.weight
        else:
            loops = self.src == self.dst
            rows = np.concatenate([self.dst[~loops], self.src])
            cols = np.concatenate([self.src[~loops], self.dst])
            vals = np.concatenate([self.weight[~loops], self.weight])
        key = rows * self.n + cols
        # edges kept in the class invariant are already sorted for a
        # digraph's A; distinct edges have unique (row, col) keys, so any
        # sort gives the lexsort order
        if not np.all(key[1:] > key[:-1]):
            order = np.argsort(key)
            rows, cols, vals = rows[order], cols[order], vals[order]
        indices = cols.astype(np.int64, copy=False)
        data = vals.astype(np.float64, copy=False)
        indptr = np.searchsorted(rows, np.arange(self.n + 1))
        for arr in (indptr, indices, data, rows):
            arr.setflags(write=False)
        return indptr, indices, data, rows

    def _csr(self, transpose: bool = False):
        """Cached ``(indptr, indices, data, rows)`` of ``A`` or ``A.T``;
        ``rows[p]`` is the row of stored entry ``p``."""
        if transpose and self.directed:
            return self.memo("csr_t", lambda: self._build_csr(transpose=True))
        return self.memo("csr", lambda: self._build_csr(transpose=False))

    def adjacency(self):
        """CSR triple ``(indptr, indices, data)`` of the adjacency matrix."""
        return self._csr()[:3]

    def adjacency_t(self):
        """CSR triple of the transposed adjacency matrix."""
        return self._csr(transpose=True)[:3]

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``A @ x``."""
        indptr, indices, data, rows = self._csr()
        return _kernels.csr_matvec(indptr, indices, data, x, rows)

    def matvec_t(self, x: np.ndarray) -> np.ndarray:
        """``A.T @ x``."""
        indptr, indices, data, rows = self._csr(transpose=True)
        return _kernels.csr_matvec(indptr, indices, data, x, rows)

    def to_dense(self) -> np.ndarray:
        """Dense adjacency matrix (symmetrized for undirected graphs)."""
        _, indices, data, rows = self._csr()
        dense = np.zeros((self.n, self.n))
        dense[rows, indices] = data
        return dense


def _check_edges(n: int, src: np.ndarray, dst: np.ndarray,
                 weight: np.ndarray, allow_loops: bool, report) -> None:
    """Raise ``report(k, check)`` for the first edge ``k`` that has an end
    outside ``0..n-1`` (``"range"``), is a self-loop while loops are not
    allowed (``"loop"``) or has a weight that is not positive and finite
    (``"weight"``); ``check`` is the first of these that fails."""
    bad_range = (src < 0) | (src >= n) | (dst < 0) | (dst >= n)
    bad_loop = (src == dst) & (not allow_loops)
    bad_weight = ~(np.isfinite(weight) & (weight > 0.0))
    bad = np.flatnonzero(bad_range | bad_loop | bad_weight)
    if bad.size:
        k = int(bad[0])
        raise report(k, "range" if bad_range[k] else
                     "loop" if bad_loop[k] else "weight")


def _edge_error(src, dst, weight, n, k, check):
    """The :class:`ValidationError` of :meth:`Graph.from_edges` for edge
    ``k`` failing ``check``."""
    u, v = int(src[k]), int(dst[k])
    if check == "range":
        return ValidationError(
            f"edge ({u}, {v}) references a node outside 0..{n - 1}")
    if check == "loop":
        return ValidationError(
            f"self-loop at node {u} (pass allow_loops=True to accept)")
    return ValidationError(
        f"edge ({u}, {v}) has non-positive weight {float(weight[k])!r}")


# ---------------------------------------------------------------------------
# loaders / serializers
# ---------------------------------------------------------------------------
#
# Token grammar, shared by the edge-list, MatrixMarket and score-file
# readers: a line is stripped and split on whitespace; blank lines and lines
# whose first character is a comment marker are skipped. Node ids are
# int64: an optional sign and ASCII digits. Weights and scores are float64:
# ASCII decimal or exponent notation, ``inf`` and ``nan`` in any case, an
# optional sign. Both are read by ``np.loadtxt``, so ``1_000``, non-ASCII
# digits and ids outside int64 are malformed tokens.

def _open_text(path_or_file, mode="r"):
    if hasattr(path_or_file, "read") or hasattr(path_or_file, "write"):
        return path_or_file, False
    return open(path_or_file, mode, encoding="utf-8"), True


class _Lines(NamedTuple):
    """The data lines of a text file. A numbered view holds them stripped,
    without blank and comment lines, and ``number`` their 1-based line
    numbers. A raw view (``number`` is None) holds the lines as read from
    the first data line on, blank lines included. ``start`` is the index of
    the first data line, ``count`` lines were read and ``first`` is line 1
    as read."""
    text: list[str]
    number: np.ndarray | None
    start: int
    count: int
    first: str


class _Renumber(Exception):
    """A raw view cannot name a line: load the numbered view instead."""


def _numbered(lines: _Lines) -> _Lines:
    """``lines`` if it is numbered; raises :class:`_Renumber` otherwise."""
    if lines.number is None:
        raise _Renumber
    return lines


def _read_lines(path_or_file, comments: tuple[str, ...], load):
    """``load(lines)`` for the lines of a text file, read once.

    The text is split at ``\\n``, the line break of a file opened in text
    mode with the default newline handling and of an ``io.StringIO``, and
    then dropped, so that one copy of the file is held. Lines that are
    blank or start with one of ``comments`` (after stripping) are not data.
    When no comment marker follows the first data line, ``load`` first gets
    the raw view: ``np.loadtxt`` skips blank lines and surrounding
    whitespace itself, and a raw line that it reads differently from the
    stripped one is rejected. A ``load`` that needs line numbers (to name a
    bad line) raises :class:`_Renumber` through :func:`_numbered`; it then
    runs again on the numbered view, which is built only in that case and
    when a comment marker follows the first data line.
    """
    fh, should_close = _open_text(path_or_file)
    try:
        text = fh.read()
    finally:
        if should_close:
            fh.close()
    markers = sum(map(text.count, comments))
    raw = text.split("\n")
    del text
    if raw[-1] == "":
        raw.pop()  # the text ends with a line break, or is empty
    count, first = len(raw), raw[0] if raw else ""
    start = next((i for i, line in enumerate(raw)
                  if (s := line.strip()) and not s.startswith(comments)),
                 count)
    head = raw[:start]
    if markers == sum(line.count(c) for line in head for c in comments):
        del raw[:start]
        try:
            return load(_Lines(raw, None, start, count, first))
        except _Renumber:
            raw[:0] = head
    stripped = list(map(str.strip, raw))
    keep = np.fromiter(map(bool, stripped), dtype=bool, count=count)
    keep &= ~np.fromiter(map(str.startswith, stripped, repeat(comments)),
                         dtype=bool, count=count)
    return load(_Lines(list(compress(stripped, keep)),
                       np.flatnonzero(keep) + 1, start, count, first))


def _loadtxt(lines: list[str], dtype, usecols=None) -> np.ndarray:
    """Columns of non-empty ``lines`` as a 2-D array; ``ValueError`` on a
    malformed token or a column count that changes."""
    return np.loadtxt(lines, dtype=dtype, comments=None, ndmin=2,
                      usecols=usecols)


def _parse_columns(lines: list[str], ncols: int):
    """Ids (the first two columns, int64) and weights (the third column,
    float64, or ones when ``ncols == 2``) of the non-blank lines, which all
    have ``ncols`` columns; ``ValueError`` otherwise."""
    if not any(map(str.strip, lines)):
        return np.empty((0, 2), dtype=np.int64), np.empty(0)
    if ncols == 2:
        cols = ids = _loadtxt(lines, np.int64)
    else:
        cols = _loadtxt(lines, np.float64)
        ids = _loadtxt(lines, np.int64, usecols=(0, 1))
    if cols.shape[1] != ncols:
        raise ValueError(f"expected {ncols} columns, got {cols.shape[1]}")
    return ids, (cols[:, 2] if ncols == 3 else np.ones(ids.shape[0]))


def _accepts(parse, lines: list[str]) -> bool:
    try:
        parse(lines)
    except ValueError:
        return False
    return True


_CHUNK = 1024


def _first_rejected(lines: list[str], parse) -> int:
    """Index of the first line ``parse`` rejects, found chunk by chunk and
    then line by line inside the first rejected chunk. Only a failed parse
    of the whole file calls this, to name the line."""
    for start in range(0, len(lines), _CHUNK):
        chunk = lines[start:start + _CHUNK]
        if not _accepts(parse, chunk):
            return start + next(i for i, line in enumerate(chunk)
                                if not _accepts(parse, [line]))
    raise AssertionError("no line rejected")


class _Malformed(NamedTuple):
    """The first line that :func:`_parse_columns` rejects (index ``at``),
    its tokens and its first malformed part: ``"columns"``, ``"ids"``,
    ``"weight"`` or ``"line"`` (a line break inside the line).
    ``ids``/``weights`` hold the lines before it and, when only the weight
    is malformed, the line's own ids with weight 1.0, so that the checks a
    line makes before reading its weight still apply to it."""
    at: int
    tokens: list[str]
    fault: str
    ids: np.ndarray
    weights: np.ndarray


def _malformed(lines: list[str], ncols: int) -> _Malformed:
    at = _first_rejected(lines, partial(_parse_columns, ncols=ncols))
    tokens = lines[at].split()
    ids, weights = _parse_columns(lines[:at], ncols)
    id_line = [" ".join(tokens[:2])]
    if len(tokens) != ncols:
        fault = "columns"
    elif not _accepts(partial(_parse_columns, ncols=2), id_line):
        fault = "ids"
    elif ncols == 3 and not _accepts(partial(_loadtxt, dtype=np.float64),
                                     tokens[2:]):
        fault = "weight"
        ids = np.concatenate([ids, _parse_columns(id_line, 2)[0]])
        weights = np.append(weights, 1.0)
    else:
        fault = "line"
    return _Malformed(at, tokens, fault, ids, weights)


def load_edge_list(path_or_file, *, directed: bool = False,
                   weighted: bool | None = None,
                   index_base: int | None = None,
                   allow_loops: bool = False) -> Graph:
    """Parse a whitespace-separated edge list.

    Each data line is ``u v`` or ``u v weight``, with int64 ids and a
    float64 weight (see the token grammar above); lines starting with ``#``
    or ``%`` and blank lines are skipped. ``weighted=None`` infers the
    column count from the first data line and then enforces it. Node ids
    are shifted down by ``index_base``; the resulting graph has ``n = 1 +
    max(id)`` nodes and keeps the original ids as ``node_labels``.
    ``index_base=None`` reads the ids 0-based if some id is 0 and 1-based
    otherwise, so the output of :func:`dump_edge_list` loads back
    unchanged; ids below the base (under ``None``: negative ids) are
    rejected.

    Duplicate edges sum their weights. Malformed lines raise
    :class:`GraphParseError` carrying the 1-based line number of the first
    one; on that line the checks run in the order column count, ids, ids
    below the base, self-loop, weight token, weight value.
    """
    return _read_lines(path_or_file, ("#", "%"), partial(
        _edge_list, directed=directed, weighted=weighted,
        index_base=index_base, allow_loops=allow_loops))


def _edge_list(lines: _Lines, *, directed: bool, weighted: bool | None,
               index_base: int | None, allow_loops: bool) -> Graph:
    inferred = weighted is None
    if not inferred:
        ncols = 3 if weighted else 2
    elif lines.text:
        ncols = len(lines.text[0].split())
        if ncols not in (2, 3):
            raise GraphParseError(f"expected 2 or 3 columns, got {ncols}",
                                  lines.start + 1)
    else:
        ncols = 2
    try:
        ids, weights = _parse_columns(lines.text, ncols)
        bad = None
    except ValueError:
        bad = _malformed(_numbered(lines).text, ncols)
        ids, weights = bad.ids, bad.weights
    lowest = 0 if index_base is None else index_base
    base = index_base
    if base is None:
        base = 0 if (ids == 0).any() else 1
    n = max(int(ids.max()) - base + 1, 0) if ids.size else 0

    def report(k, check):
        text, number = _numbered(lines)[:2]
        parts = text[k].split()
        if check == "range":
            message = f"node id below index base {lowest}"
        elif check == "loop":
            message = (f"self-loop at node {parts[0]} "
                       "(pass allow_loops=True to accept)")
        else:
            message = f"weight must be positive and finite, got {parts[2]}"
        return GraphParseError(message, int(number[k]))

    if bad is not None:
        _check_edges(n, ids[:, 0] - base, ids[:, 1] - base, weights,
                     allow_loops, report)
        parts, lineno = bad.tokens, int(lines.number[bad.at])
        if bad.fault == "columns":
            what = ("inferred from the first data line" if inferred
                    else "requested")
            raise GraphParseError(
                f"expected {ncols} columns ({what}), got {len(parts)}",
                lineno)
        if bad.fault == "ids":
            raise GraphParseError(
                f"node ids must be integers, got {parts[0]!r} {parts[1]!r}",
                lineno)
        if bad.fault == "weight":
            raise GraphParseError(
                f"weight must be a number, got {parts[2]!r}", lineno)
        raise GraphParseError("line break inside the line", lineno)
    g = Graph._from_arrays(n, ids[:, 0] - base, ids[:, 1] - base, weights,
                           directed=directed, allow_loops=allow_loops,
                           report=report)
    # labels after the checks: a malformed file with a huge id reports its
    # line instead of allocating 0..max(id) first
    if base:
        g = Graph(g.n, g.src, g.dst, g.weight, g.directed,
                  g.node_labels + base)
    return g


def load_matrix_market(path_or_file, *, allow_loops: bool = False) -> Graph:
    """Parse a Matrix Market coordinate file into a graph.

    Supported variants: ``coordinate`` × {``pattern``, ``real``, ``integer``}
    × {``general``, ``symmetric``}. ``symmetric`` yields an undirected graph,
    ``general`` a directed one. Indices are int64 and values float64 (see
    the token grammar above). Explicitly stored zero entries are dropped;
    negative weights are rejected; ``array`` and ``complex`` files raise
    :class:`FormatError`. Node labels are the file's 1-based indices.

    The first malformed entry line raises :class:`GraphParseError` with its
    line number, its checks in the order field count, indices, declared
    shape, value token, value sign; then the entry count is checked against
    the size line, then self-loops.
    """
    return _read_lines(path_or_file, ("%",),
                       partial(_matrix_market, allow_loops=allow_loops))


def _matrix_market(lines: _Lines, *, allow_loops: bool) -> Graph:
    header = lines.first
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

    if not lines.text:
        raise GraphParseError("missing size line", lines.count + 1)
    size_line, lineno = lines.text[0].strip(), lines.start + 1
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

    body = lines.text[1:]
    want = 2 if field == "pattern" else 3
    try:
        ids, values = _parse_columns(body, want)
        bad = None
    except ValueError:
        body = _numbered(lines).text[1:]
        bad = _malformed(body, want)
        ids, values = bad.ids, bad.weights
    outside = ((ids < 1) | (ids > nrows)).any(axis=1)
    negative = ~(np.isfinite(values) & (values >= 0.0))
    wrong = np.flatnonzero(outside | negative)
    if wrong.size:
        k = int(wrong[0])
        lineno = int(_numbered(lines).number[k + 1])
        if outside[k]:
            i, j = ids[k].tolist()
            raise GraphParseError(
                f"entry ({i}, {j}) outside declared {nrows}x{ncols} shape",
                lineno)
        raise GraphParseError(
            f"negative or non-finite weight {float(values[k])}", lineno)
    if bad is not None:
        lineno = int(lines.number[bad.at + 1])
        if bad.fault == "columns":
            raise GraphParseError(
                f"expected {want} fields, got {len(bad.tokens)}", lineno)
        if bad.fault == "ids":
            raise GraphParseError(
                f"indices must be integers: {body[bad.at]!r}", lineno)
        if bad.fault == "weight":
            raise GraphParseError(
                f"value must be a number, got {bad.tokens[2]!r}", lineno)
        raise GraphParseError("line break inside the line", lineno)
    if ids.shape[0] != nnz:
        raise GraphParseError(
            f"declared {nnz} entries but found {ids.shape[0]}", lines.count)
    stored = values != 0.0  # explicitly stored zeros are not edges

    def report(k, check):
        # entries and values are checked above, so only a loop is left;
        # stored edge k is entry np.flatnonzero(stored)[k] of the file
        at = int(np.flatnonzero(stored)[k])
        return GraphParseError(
            f"self-loop at node {int(ids[at, 0])} "
            "(pass allow_loops=True to accept)",
            int(_numbered(lines).number[at + 1]))

    return Graph._from_arrays(nrows, ids[stored, 0] - 1, ids[stored, 1] - 1,
                              values[stored],
                              directed=(symmetry == "general"),
                              node_labels=np.arange(nrows, dtype=np.int64) + 1,
                              allow_loops=allow_loops, report=report)


def dump_edge_list(g: Graph, path_or_file) -> None:
    """Write the canonical edge list using the graph's external labels.

    Weights are emitted only when some edge weight differs from 1. Note that
    nodes without any incident edge are not representable in this format.
    """
    us = g.node_labels[g.src].tolist()
    vs = g.node_labels[g.dst].tolist()
    if g.weighted:
        lines = map("{} {} {!r}\n".format, us, vs, g.weight.tolist())
    else:
        lines = map("{} {}\n".format, us, vs)
    fh, should_close = _open_text(path_or_file, "w")
    try:
        fh.writelines(lines)
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
    indptr, indices = (a.tolist() for a in g.adjacency()[:2])
    index = [-1] * n
    lowlink = [0] * n
    on_stack = bytearray(n)
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
        on_stack[root] = 1
        while work:
            v, ptr = work[-1]
            if ptr < indptr[v + 1]:
                work[-1][1] = ptr + 1
                w = indices[ptr]
                if index[w] == -1:
                    index[w] = lowlink[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = 1
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
                        on_stack[w] = 0
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
    sub = Graph._from_arrays(len(mapping), new_id[g.src[keep]],
                             new_id[g.dst[keep]], g.weight[keep],
                             directed=g.directed,
                             node_labels=g.node_labels[mapping],
                             allow_loops=True)
    return sub, mapping.copy()


def _reach_count(g: Graph, sides: tuple[bool, ...]) -> int:
    """Number of nodes reachable from node 0 along the edges of every CSR
    side in ``sides`` (``False`` for ``A``, ``True`` for ``A.T``).

    A stack DFS over memoryviews of the sides' CSR: its cost is O(n + m)
    whatever the graph's diameter. A view makes each id a Python int only
    while it is read, where ``tolist`` would hold one int object per stored
    entry for the whole pass.
    """
    adjacency = [tuple(map(memoryview, g._csr(side)[:2])) for side in sides]
    seen = bytearray(g.n)
    seen[0] = 1
    stack = [0]
    while stack:
        v = stack.pop()
        for indptr, indices in adjacency:
            for w in indices[indptr[v]:indptr[v + 1]]:
                if not seen[w]:
                    seen[w] = 1
                    stack.append(w)
    return seen.count(1)


def is_connected(g: Graph) -> bool:
    """Connectivity of the undirected skeleton (one reachability pass over
    both sides, once per graph)."""
    sides = (False, True) if g.directed else (False,)
    return g.n > 0 and g.memo("connected",
                              lambda: _reach_count(g, sides) == g.n)


def is_strongly_connected(g: Graph) -> bool:
    """Strong connectivity (once per graph): every node is reachable from
    node 0 along ``A`` and along ``A.T``. For an undirected graph,
    :func:`is_connected`."""
    if g.n == 0:
        return False
    if not g.directed:
        return is_connected(g)
    return g.memo("strongly_connected",
                  lambda: all(_reach_count(g, (side,)) == g.n
                              for side in (False, True)))


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
    _, indices, _, rows = g._csr()
    keep = rows != indices  # drop self-loops from the binary structure
    indices = indices[keep]
    indptr = np.searchsorted(rows[keep], np.arange(g.n + 1))
    tri = _kernels.triangle_diag(indptr, indices,
                                 np.ones(indices.shape[0])) / 2.0
    deg = np.diff(indptr).astype(np.float64)
    values = np.full(g.n, np.nan)
    eligible = deg >= 2
    denom = deg[eligible] * (deg[eligible] - 1.0)
    values[eligible] = 2.0 * tri[eligible] / denom
    average = float(values[eligible].mean()) if eligible.any() else float("nan")
    return ClusteringCoefficients(values, average)
