"""Seeded input graphs, reference answers and the command sequence of each
workload.

The graphs are generated with numpy and written as text files; the program
under test only ever sees those files, through its command line. References are computed
here with scipy, independently of walkrank, and cached next to the graph so
that a seed pays for them once.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as sla

# Bump when generation, a reference or a command sequence changes, so stale
# caches are rebuilt and trace counts are not compared across versions.
CACHE_VERSION = 4

REF_RTOL = 1e-13  # solver tolerance of the references, far below the check


# ---------------------------------------------------------------------------
# graph generation
# ---------------------------------------------------------------------------

def sample_pairs(n: int, m: int, rng: np.random.Generator, *,
                 directed: bool) -> np.ndarray:
    """``m`` distinct pairs ``u != v`` as keys ``u * n + v``, in O(m) memory.

    Undirected pairs are canonical (``u < v``). Rejection sampling: draw
    twice the missing count, drop loops and repeats, repeat until enough.
    """
    keys = np.empty(0, dtype=np.int64)
    while keys.shape[0] < m:
        k = (m - keys.shape[0]) * 2 + 16
        i = rng.integers(0, n, size=k)
        j = rng.integers(0, n, size=k)
        ok = i != j
        i, j = i[ok], j[ok]
        if not directed:
            i, j = np.minimum(i, j), np.maximum(i, j)
        keys = np.unique(np.concatenate([keys, i * n + j]))
    return keys[rng.permutation(keys.shape[0])[:m]]


def random_graph(n: int, m: int, seed: int, *,
                 directed: bool) -> tuple[np.ndarray, np.ndarray]:
    """Uniform random graph with ``m`` edges plus a random spanning path
    (undirected) or Hamiltonian cycle (directed), in random line order.

    The overlay makes the graph connected (strongly connected when
    directed), which the library's dominant-eigenpair check requires.
    Returns 0-based ``(src, dst)`` with duplicates merged.
    """
    rng = np.random.default_rng(seed)
    keys = sample_pairs(n, m, rng, directed=directed)
    perm = rng.permutation(n)
    if directed:
        a, b = perm, np.roll(perm, -1)
    else:
        a, b = np.minimum(perm[:-1], perm[1:]), np.maximum(perm[:-1], perm[1:])
    keys = np.unique(np.concatenate([keys, a * n + b]))
    keys = keys[rng.permutation(keys.shape[0])]
    return keys // n, keys % n


def _edge_lines(src: np.ndarray, dst: np.ndarray) -> str:
    """1-based ``u v`` lines."""
    return "".join(f"{u} {v}\n" for u, v in zip((src + 1).tolist(),
                                                 (dst + 1).tolist()))


def write_edge_list(path: Path, src: np.ndarray, dst: np.ndarray) -> None:
    path.write_text(_edge_lines(src, dst))


def write_matrix_market(path: Path, n: int, src: np.ndarray,
                        dst: np.ndarray) -> None:
    path.write_text("%%MatrixMarket matrix coordinate pattern general\n"
                    f"{n} {n} {src.shape[0]}\n" + _edge_lines(src, dst))


def adjacency(n: int, src, dst, directed: bool) -> sp.csr_array:
    a = sp.csr_array((np.ones(src.shape[0]), (src, dst)), shape=(n, n))
    return a if directed else (a + a.T).tocsr()


# ---------------------------------------------------------------------------
# references (scipy only)
# ---------------------------------------------------------------------------

def dominant_eigenvalue(a: sp.csr_array, directed: bool) -> float:
    v0 = np.ones(a.shape[0])
    if directed:
        vals = sla.eigs(a, k=1, which="LR", v0=v0, tol=1e-14,
                        return_eigenvectors=False)
        return float(vals.real.max())
    vals = sla.eigsh(a, k=1, which="LA", v0=v0, tol=1e-14,
                     return_eigenvectors=False)
    return float(vals.max())


def _checked(x: np.ndarray, info: int, op, b: np.ndarray, what: str):
    residual = np.linalg.norm(op @ x - b) / np.linalg.norm(b)
    if info != 0 or residual > 1e-11:
        raise RuntimeError(f"reference {what} failed: info={info}, "
                           f"relative residual {residual:.2e}")
    return x


def katz_reference(a: sp.csr_array, alpha: float, *, transpose: bool,
                   symmetric: bool) -> np.ndarray:
    """``(I - alpha A)^{-1} 1`` (``A.T`` when ``transpose``): CG when the
    system is symmetric positive definite, GMRES otherwise."""
    n = a.shape[0]
    m = sp.identity(n, format="csr") - alpha * (a.T if transpose else a)
    b = np.ones(n)
    if symmetric:
        x, info = sla.cg(m, b, rtol=REF_RTOL, atol=0.0, maxiter=10 * n)
    else:
        x, info = sla.gmres(m, b, rtol=REF_RTOL, atol=0.0, restart=60,
                            maxiter=10 * n)
    return _checked(x, info, m, b, "Katz solve")


def google_operator(a: sp.csr_array, alpha: float):
    """``P = alpha H + (1 - alpha) v 1^T`` with ``H = A^T D^-1`` and uniform
    ``v``, as a LinearOperator. The generated digraphs have no dangling
    nodes (every node lies on the Hamiltonian cycle), so ``P`` needs no
    dangling correction."""
    n = a.shape[0]
    out = np.asarray(a.sum(axis=1)).ravel()
    if np.any(out == 0):
        raise ValueError("google_operator expects no dangling nodes")
    h = (sp.diags_array(1.0 / out) @ a).T.tocsr()
    v = np.full(n, 1.0 / n)

    def matvec(x):
        x = np.ravel(x)
        return alpha * (h @ x) + (1.0 - alpha) * x.sum() * v

    def rmatvec(x):
        x = np.ravel(x)
        return alpha * (h.T @ x) + (1.0 - alpha) * (v @ x)

    return sla.LinearOperator((n, n), matvec=matvec, rmatvec=rmatvec,
                              dtype=np.float64)


def heat_kernel_reference(a: sp.csr_array, alpha: float,
                          t: float) -> np.ndarray:
    """Row sums ``exp(t P) 1`` by scipy's ``expm_multiply``."""
    p = google_operator(a, alpha)
    # trace(t P) = t (alpha trace(H) + (1 - alpha) sum(v)); H has no diagonal
    return sla.expm_multiply(t * p, np.ones(a.shape[0]),
                             traceA=t * (1.0 - alpha))


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

@dataclass
class Prepared:
    """One workload's inputs for one seed: the graph, its file, and the
    reference vectors indexed by 0-based node."""

    name: str
    seed: int
    n: int
    directed: bool
    src: np.ndarray
    dst: np.ndarray
    graph_path: Path
    refs: dict
    lambda1: float

    def matrix(self) -> sp.csr_array:
        return adjacency(self.n, self.src, self.dst, self.directed)


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    m: int
    directed: bool
    filename: str
    references: Callable  # (Prepared, csr_array) -> dict of vectors
    commands: Callable  # (Prepared, workdir) -> list of invocations


def invocation(kind: str, argv: list, stdout: Path, check: dict) -> dict:
    """One CLI call: ``walkrank <argv>`` with stdout captured to a file.

    ``check`` names the reference check applied to its output files.
    """
    return {"kind": kind, "argv": [str(a) for a in argv],
            "stdout": str(stdout), "check": check}


def compute(p: Prepared, wd: Path, tag: str, flags: list, check: dict):
    out = wd / f"{tag}.csv"
    check = dict(check, file=str(out))
    return invocation("compute", ["compute", "--input", p.graph_path, *flags,
                                  "--out", out], wd / f"{tag}.stdout", check)


def sweep(p: Prepared, wd: Path, tag: str, flags: list, grid: list):
    out = wd / f"{tag}.csv"
    return invocation("sweep", ["sweep", "--input", p.graph_path, *flags,
                                "--out", out], wd / f"{tag}.stdout",
                      {"type": "sweep", "file": str(out), "grid": grid})


def compare(wd: Path, tag: str, a: str, b: str, k: int | None):
    flags = [] if k is None else ["--k", k]
    fa, fb = wd / f"{a}.csv", wd / f"{b}.csv"
    return invocation("compare", ["compare", fa, fb, *flags],
                      wd / f"{tag}.stdout",
                      {"type": "compare", "a": str(fa), "b": str(fb), "k": k})


# Default sweep grids, as documented in walkrank.ranking.limit_sweep.
EXP_GRID = [0.1, 0.5, 1.0, 2.0, 5.0, 8.0, 10.0]
FRACTIONS = [0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99]


def _er100k_refs(p: Prepared, a: sp.csr_array) -> dict:
    return {
        "katz": katz_reference(a, 0.85 / p.lambda1, transpose=False,
                               symmetric=True),
        "tc": sla.expm_multiply(a, np.ones(p.n)),
    }


def _er100k_commands(p: Prepared, wd: Path) -> list:
    grid = [f * (1.0 / p.lambda1) for f in (0.25, 0.5, 0.85)]
    return [
        compute(p, wd, "katz", ["--measure", "katz"],
                {"type": "scores", "ref": "katz"}),
        compute(p, wd, "tc", ["--measure", "total-communicability",
                              "--beta", "1"],
                {"type": "scores", "ref": "tc"}),
        sweep(p, wd, "sweep_katz",
              ["--measure", "katz", "--k", "1000",
               "--grid", ",".join(repr(x) for x in grid)], grid),
        compare(wd, "compare_full", "katz", "tc", None),
        compare(wd, "compare_k1000", "katz", "tc", 1000),
    ]


def _er2k_refs(p: Prepared, a: sp.csr_array) -> dict:
    mu, q = np.linalg.eigh(a.toarray())
    return {
        "exp2": (q * q) @ np.exp(2.0 * mu),  # diag(f(A)) = (Q * Q) @ f(mu)
        "tc": sla.expm_multiply(a, np.ones(p.n)),
        "katz": katz_reference(a, 0.85 / p.lambda1, transpose=False,
                               symmetric=True),
    }


def _er2k_commands(p: Prepared, wd: Path) -> list:
    resolvent_grid = [f / p.lambda1 for f in FRACTIONS]
    # Total communicability is here because no other workload in
    # BENCHMARK.json reaches the scaled Taylor stepping.
    return [
        compute(p, wd, "katz", ["--measure", "katz"],
                {"type": "scores", "ref": "katz"}),
        compute(p, wd, "exp2", ["--measure", "exp-subgraph", "--beta", "2"],
                {"type": "scores", "ref": "exp2"}),
        compute(p, wd, "tc", ["--measure", "total-communicability",
                              "--beta", "1"],
                {"type": "scores", "ref": "tc"}),
        sweep(p, wd, "sweep_exp", ["--measure", "exp-subgraph"], EXP_GRID),
        sweep(p, wd, "sweep_resolvent", ["--measure", "resolvent-subgraph"],
              resolvent_grid),
        sweep(p, wd, "sweep_katz", ["--measure", "katz"], resolvent_grid),
    ]


def _digraph_refs(p: Prepared, a: sp.csr_array) -> dict:
    return {
        "heat": heat_kernel_reference(a, 0.85, 5.0),
        "katz_receive": katz_reference(a, 0.85 / p.lambda1, transpose=True,
                                       symmetric=False),
    }


def _digraph_commands(p: Prepared, wd: Path) -> list:
    return [
        compute(p, wd, "pagerank", ["--measure", "pagerank"],
                {"type": "pagerank", "alpha": 0.85}),
        compute(p, wd, "heat", ["--measure", "heat-kernel", "--t", "5"],
                {"type": "scores", "ref": "heat"}),
        compute(p, wd, "katz_receive", ["--measure", "katz", "--side",
                                        "receive"],
                {"type": "scores", "ref": "katz_receive"}),
        sweep(p, wd, "sweep_pagerank", ["--measure", "pagerank"], FRACTIONS),
        compare(wd, "compare_k500", "pagerank", "katz_receive", 500),
    ]


# Why each workload exists is recorded in README.md and BENCHMARK.json.
WORKLOADS = {
    w.name: w for w in (
        Workload("er-100k", 100_000, 500_000, False, "graph.txt",
                 _er100k_refs, _er100k_commands),
        Workload("er-2k-sweep", 2_000, 10_000, False, "graph.txt",
                 _er2k_refs, _er2k_commands),
        Workload("digraph-50k-pagerank", 50_000, 250_000, True, "graph.mtx",
                 _digraph_refs, _digraph_commands),
    )
}


# Seeds kept on disk per workload, so a second set of runs over the same
# seeds reuses its inputs.
KEEP_SEEDS = 12


def prepare(name: str, seed: int, cache_root: Path) -> Prepared:
    """Generate (or reload) the graph file and references for one seed.

    Only the ``KEEP_SEEDS`` most recently generated seeds of each workload
    are kept on disk.
    """
    w = WORKLOADS[name]
    tag = f"{name}-{seed}-v{CACHE_VERSION}"
    cache = cache_root / tag
    meta_path = cache / "meta.json"
    arrays_path = cache / "arrays.npz"
    graph_path = cache / w.filename
    if meta_path.exists():
        meta = json.loads(meta_path.read_text())
        arrays = np.load(arrays_path)
        refs = {k[4:]: arrays[k] for k in arrays.files if k.startswith("ref_")}
        return Prepared(name, seed, w.n, w.directed, arrays["src"],
                        arrays["dst"], graph_path, refs, meta["lambda1"])

    kept = sorted(cache_root.glob(f"{name}-*"), key=lambda d: d.stat().st_mtime)
    for stale in kept[:max(0, len(kept) - KEEP_SEEDS + 1)]:
        shutil.rmtree(stale, ignore_errors=True)
    shutil.rmtree(cache, ignore_errors=True)  # an interrupted earlier attempt
    cache.mkdir(parents=True)
    src, dst = random_graph(w.n, w.m, seed, directed=w.directed)
    if w.directed:
        write_matrix_market(graph_path, w.n, src, dst)
    else:
        write_edge_list(graph_path, src, dst)
    p = Prepared(name, seed, w.n, w.directed, src, dst, graph_path, {}, 0.0)
    a = p.matrix()
    p.lambda1 = dominant_eigenvalue(a, w.directed)
    p.refs = w.references(p, a)
    np.savez(arrays_path, src=src.astype(np.int32), dst=dst.astype(np.int32),
             **{f"ref_{k}": v for k, v in p.refs.items()})
    meta_path.write_text(json.dumps({"lambda1": p.lambda1}))
    return p
