"""Low-level numeric kernels on CSR arrays (``indptr``, ``indices``, ``data``).

Everything hot in this package funnels through three vectorized numpy
primitives:

* ``csr_matvec``   -- ``y = A @ x``, given the row of each stored entry
  (``Graph.matvec`` passes the one its graph caches)
* ``neumann``      -- the full fixed-point loop ``x <- v + alpha * A @ x``
* ``triangle_diag``-- ``diag(A^3)`` via sorted-row merge intersection

Callers look them up as attributes of this module at each call, so they can
be replaced (for instance by a tracing wrapper) in one place.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "get_backend",
    "csr_matvec",
    "neumann",
    "triangle_diag",
    "warmup",
]


def _row_index(indptr: np.ndarray) -> np.ndarray:
    """Expand a CSR pointer array to one row id per stored entry."""
    n = indptr.shape[0] - 1
    return np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))


def csr_matvec(indptr, indices, data, x, rows):
    """``A @ x``; ``rows[p]`` is the row of stored entry ``p``."""
    n = indptr.shape[0] - 1
    if data.shape[0] == 0:
        return np.zeros(n)
    return np.bincount(rows, weights=data * x[indices], minlength=n)


def neumann(indptr, indices, data, v, alpha, tol, max_iter):
    """Iterate ``x <- v + alpha * A @ x`` until the l1 step is small.

    Returns ``(x, iterations, last_step_l1)``; the caller decides whether the
    final step size actually met tolerance.
    """
    n = indptr.shape[0] - 1
    rows = _row_index(indptr) if data.shape[0] else None
    x = v.copy()
    diff = np.inf
    it = 0
    while it < max_iter:
        if rows is None:
            y = v.copy()
        else:
            y = v + alpha * np.bincount(rows, weights=data * x[indices],
                                        minlength=n)
        diff = float(np.abs(y - x).sum())
        x = y
        it += 1
        if diff <= tol * float(np.abs(x).sum()):
            break
    return x, it, diff


def triangle_diag(indptr, indices, data):
    """diag(A @ A @ A) for a symmetric CSR matrix with sorted row indices."""
    n = indptr.shape[0] - 1
    out = np.zeros(n)
    rows_idx = [indices[indptr[i]:indptr[i + 1]] for i in range(n)]
    rows_dat = [data[indptr[i]:indptr[i + 1]] for i in range(n)]
    for i in range(n):
        idx_i = rows_idx[i]
        dat_i = rows_dat[i]
        acc = 0.0
        for j, w_ij in zip(idx_i, dat_i):
            j = int(j)
            _, ia, ib = np.intersect1d(idx_i, rows_idx[j],
                                       assume_unique=True,
                                       return_indices=True)
            acc += w_ij * float(np.dot(dat_i[ia], rows_dat[j][ib]))
        out[i] = acc
    return out


def get_backend() -> str:
    """Name of the kernel implementation: always ``"numpy"``."""
    return "numpy"


def warmup() -> None:
    """Run every kernel once on a tiny input, so that first-call costs
    (imports, allocator warm-up) stay out of any timed section."""
    indptr = np.array([0, 2, 4, 6], dtype=np.int64)
    indices = np.array([1, 2, 0, 2, 0, 1], dtype=np.int64)
    data = np.ones(6)
    v = np.ones(3)
    csr_matvec(indptr, indices, data, v, _row_index(indptr))
    neumann(indptr, indices, data, v, 0.1, 1e-10, 1000)
    triangle_diag(indptr, indices, data)
