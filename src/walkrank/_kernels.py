"""Low-level numeric kernels on CSR arrays (``indptr``, ``indices``, ``data``).

Everything hot in this package funnels through these vectorized numpy
primitives:

* ``csr_matvec``   -- ``y = A @ x``, given the row of each stored entry
  (``Graph.matvec`` passes the one its graph caches)
* ``fixed_point``  -- the loop ``x <- step(x)`` of every Neumann series,
  which raises :class:`~walkrank.errors.ConvergenceError` at its step limit
* ``neumann``      -- ``fixed_point`` on ``x <- v + alpha * A @ x``
* ``triangle_diag``-- ``diag(A^3)`` via sorted-row merge intersection

Callers look them up as attributes of this module at each call, so they can
be replaced (for instance by a tracing wrapper) in one place.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError

__all__ = [
    "get_backend",
    "csr_matvec",
    "fixed_point",
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


def fixed_point(step, x, tol, max_iter, label):
    """Iterate ``x <- step(x)`` until ``||x_{m+1} - x_m||_1 <= tol *
    ||x_{m+1}||_1``; returns ``(x, iterations, last_step_l1)``. After
    ``max_iter`` steps without that raises :class:`ConvergenceError` naming
    the loop ``label``, with the last iterate in ``best`` and its step in
    ``residual``."""
    diff, it = np.inf, 0
    for it in range(1, max_iter + 1):
        y = step(x)
        diff = float(np.abs(y - x).sum())
        x = y
        if diff <= tol * float(np.abs(x).sum()):
            return x, it, diff
    raise ConvergenceError(
        f"{label} did not reach tol={tol} within {it} steps "
        f"(last step {diff:.3e} in 1-norm)", best=x, residual=diff)


def neumann(indptr, indices, data, v, alpha, tol, max_iter):
    """:func:`fixed_point` on ``x <- v + alpha * A @ x`` from ``x = v``."""
    rows = _row_index(indptr)
    return fixed_point(lambda x: v + alpha * np.bincount(
        rows, weights=data * x[indices], minlength=v.shape[0]),
        v.copy(), tol, max_iter, "Neumann iteration")


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
