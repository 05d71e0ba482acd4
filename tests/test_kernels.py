import numpy as np

from walkrank import _kernels
from walkrank.generators import erdos_renyi


def random_csr(rng, n=None, directed=True):
    g = erdos_renyi(n or int(rng.integers(2, 50)),
                    float(rng.uniform(0.1, 0.6)),
                    int(rng.integers(0, 2 ** 31)), directed=directed)
    indptr, indices, data = g.adjacency()
    return indptr, indices, rng.uniform(0.1, 2.0, data.shape[0])


def test_matvec_numpy_matches_dense():
    rng = np.random.default_rng(30)
    for _ in range(10):
        n = int(rng.integers(2, 40))
        indptr, indices, data = random_csr(rng, n)
        dense = np.zeros((n, n))
        rows = np.repeat(np.arange(n), np.diff(indptr))
        dense[rows, indices] = data
        x = rng.standard_normal(n)
        assert np.allclose(_kernels.csr_matvec(indptr, indices, data, x),
                           dense @ x)


def test_neumann_matches_dense_solve():
    rng = np.random.default_rng(32)
    for _ in range(10):
        indptr, indices, data = random_csr(rng)
        n = indptr.shape[0] - 1
        rowsum = np.add.reduceat(data, indptr[:-1]) if data.size else np.zeros(n)
        alpha = 0.5 / max(float(rowsum.max(initial=0.0)), 1.0)
        v = rng.uniform(0.5, 1.5, n)
        x, _, _ = _kernels.neumann(indptr, indices, data, v, alpha, 1e-12,
                                   100_000)
        # solves (I - alpha A) x = v
        dense = np.zeros((n, n))
        rows = np.repeat(np.arange(n), np.diff(indptr))
        dense[rows, indices] = data
        expected = np.linalg.solve(np.eye(n) - alpha * dense, v)
        assert np.allclose(x, expected, rtol=1e-9)


def test_neumann_reports_iterations_and_step():
    indptr = np.array([0, 1, 2], dtype=np.int64)
    indices = np.array([1, 0], dtype=np.int64)
    data = np.ones(2)
    v = np.ones(2)
    x, iterations, diff = _kernels.neumann(indptr, indices, data, v,
                                           0.5, 1e-12, 10_000)
    assert np.allclose(x, 2.0, rtol=1e-10)  # (I - A/2)^{-1} 1 on a 2-cycle
    assert iterations > 1
    assert diff <= 1e-12 * np.abs(x).sum()


def test_neumann_stops_at_max_iter_without_converging():
    indptr = np.array([0, 1, 2], dtype=np.int64)
    indices = np.array([1, 0], dtype=np.int64)
    data = np.ones(2)
    v = np.ones(2)
    x, iterations, diff = _kernels.neumann(indptr, indices, data, v,
                                           0.9, 1e-14, 3)
    assert iterations == 3
    assert diff > 1e-14 * np.abs(x).sum()


def test_warmup_runs_on_selected_backend():
    _kernels.warmup()
