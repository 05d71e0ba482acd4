"""Checks of each invocation's output files against independent references.

Every check returns ``None`` when the output is right and a one-line reason
when it is not. A failed check counts the invocation as failed.
"""

from __future__ import annotations

import csv
import math

import numpy as np
import scipy.sparse as sp

SCORE_RTOL = 1e-6  # any solver honouring --tol 1e-10 is far inside this
ISIM_ATOL = 1e-9  # compare prints 12 significant digits


def read_scores(path: str) -> tuple[np.ndarray, np.ndarray]:
    """``(node labels, scores)`` of a ``node,score,rank`` file, in file
    order (best first)."""
    with open(path, encoding="utf-8") as fh:
        if fh.readline().strip() != "node,score,rank":
            raise ValueError(f"{path}: missing node,score,rank header")
        body = np.loadtxt(fh, delimiter=",", ndmin=2)
    if body.shape[1] != 3:
        raise ValueError(f"{path}: expected 3 columns")
    return body[:, 0].astype(np.int64), body[:, 1]


def _by_node(path: str, n: int) -> tuple[np.ndarray | None, str | None]:
    """Scores indexed by 0-based node id (labels are 1-based)."""
    labels, scores = read_scores(path)
    if labels.shape[0] != n or np.unique(labels).shape[0] != n \
            or labels.min() != 1 or labels.max() != n:
        return None, f"{path}: expected each of nodes 1..{n} once"
    if np.any(np.diff(scores) > 0):
        return None, f"{path}: rows are not sorted best first"
    out = np.empty(n)
    out[labels - 1] = scores
    return out, None


def check_scores(path: str, ref: np.ndarray) -> str | None:
    x, err = _by_node(path, ref.shape[0])
    if err:
        return err
    rel = float(np.max(np.abs(x - ref) / np.abs(ref)))
    if not rel <= SCORE_RTOL:
        return f"{path}: max relative error {rel:.3e} > {SCORE_RTOL:g}"
    return None


def check_pagerank(path: str, a: sp.csr_array, alpha: float) -> str | None:
    """PageRank through its residual: for ``P`` column stochastic,
    ``||p - p*||_1 <= ||P p - p||_1 / (1 - alpha)``."""
    n = a.shape[0]
    p, err = _by_node(path, n)
    if err:
        return err
    if np.any(p <= 0) or abs(p.sum() - 1.0) > 1e-9:
        return f"{path}: not a positive probability vector"
    out_degree = np.asarray(a.sum(axis=1)).ravel()
    pp = alpha * (a.T @ (p / out_degree)) + (1.0 - alpha) * p.sum() / n
    bound = float(np.abs(pp - p).sum()) / (1.0 - alpha)
    if not bound <= SCORE_RTOL:
        return f"{path}: residual error bound {bound:.3e} > {SCORE_RTOL:g}"
    return None


def check_sweep(path: str, grid: list) -> str | None:
    """One row per grid point, every isim in [0, 1], ``isim_successive``
    empty in the first row only."""
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header = ["parameter", "isim_degree", "isim_eigenvector",
              "isim_successive"]
    if not rows or rows[0] != header:
        return f"{path}: unexpected header {rows[:1]}"
    rows = rows[1:]
    if len(rows) != len(grid):
        return f"{path}: {len(rows)} rows for {len(grid)} grid points"
    for i, (row, t) in enumerate(zip(rows, grid)):
        if len(row) != 4 or not math.isclose(float(row[0]), t,
                                             rel_tol=1e-9):
            return f"{path}: row {i} is {row}, expected parameter {t!r}"
        if (row[3] == "") != (i == 0):
            return f"{path}: row {i} isim_successive {row[3]!r}"
        values = [float(v) for v in row[1:] if v != ""]
        if not all(0.0 <= v <= 1.0 for v in values):
            return f"{path}: row {i} has an isim outside [0, 1]: {row}"
    return None


def isim(order_a: np.ndarray, order_b: np.ndarray, k: int) -> float:
    """Top-k intersection distance, vectorised.

    ``|A_d symdiff B_d| / (2d) = 1 - |A_d & B_d| / d``, and a node is in
    both top-d prefixes iff the later of its two positions is below d.
    """
    n = order_a.shape[0]
    pos_a = np.empty(n, dtype=np.int64)
    pos_b = np.empty(n, dtype=np.int64)
    pos_a[order_a] = np.arange(n)
    pos_b[order_b] = np.arange(n)
    overlap = np.cumsum(np.bincount(np.maximum(pos_a, pos_b), minlength=n))
    depth = np.arange(1, k + 1)
    return float(np.mean(1.0 - overlap[:k] / depth))


def _order(path: str) -> np.ndarray:
    """0-based node ids ranked by descending score, file order on ties
    (``compare`` ranks a file's rows the same way)."""
    labels, scores = read_scores(path)
    return labels[np.lexsort((np.arange(scores.shape[0]), -scores))] - 1


def check_compare(stdout_path: str, a: str, b: str,
                  k: int | None) -> str | None:
    with open(stdout_path, encoding="utf-8") as fh:
        text = fh.read().strip()
    try:
        value = float(text)
    except ValueError:
        return f"{stdout_path}: expected one number, got {text[:80]!r}"
    order_a, order_b = _order(a), _order(b)
    expected = isim(order_a, order_b, order_a.shape[0] if k is None else k)
    if not abs(value - expected) <= ISIM_ATOL:
        return f"{stdout_path}: isim {value!r}, expected {expected!r}"
    return None


def check_invocation(inv: dict, prepared, matrix) -> str | None:
    """Dispatch one invocation's check; ``matrix`` is a callable returning
    the graph's scipy adjacency (built on first use)."""
    c = inv["check"]
    kind = c["type"]
    try:
        if kind == "scores":
            return check_scores(c["file"], prepared.refs[c["ref"]])
        if kind == "pagerank":
            return check_pagerank(c["file"], matrix(), c["alpha"])
        if kind == "sweep":
            return check_sweep(c["file"], c["grid"])
        if kind == "compare":
            return check_compare(inv["stdout"], c["a"], c["b"], c["k"])
    except (OSError, ValueError) as exc:
        return f"{inv['argv'][0]}: unreadable output ({exc})"
    raise ValueError(f"unknown check {kind!r}")
