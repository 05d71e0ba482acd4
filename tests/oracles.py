"""Independent reference implementations used to cross-check the package.

Everything here favours obviousness over speed: dense linear algebra,
explicit loops, and no shared code paths with the library under test.
"""

import numpy as np


def dense_dominant(a):
    """Dominant eigenvalue and positive unit eigenvector of a dense matrix."""
    a = np.asarray(a, dtype=float)
    if np.array_equal(a, a.T):
        vals, vecs = np.linalg.eigh(a)
        lam = vals[-1]
        vec = vecs[:, -1]
    else:
        vals, vecs = np.linalg.eig(a)
        idx = int(np.argmax(vals.real))
        lam = vals[idx].real
        vec = vecs[:, idx].real
    if vec.sum() < 0:
        vec = -vec
    return float(lam), vec / np.linalg.norm(vec)


def expm_taylor(a):
    """Dense matrix exponential by scaled Taylor summation.

    Scaling keeps the 1-norm of the summed matrix below 1/2, so the plain
    Taylor series reaches machine precision in well under 60 terms; repeated
    squaring undoes the scaling.
    """
    a = np.asarray(a, dtype=float)
    s = 0
    while np.linalg.norm(a, 1) / 2.0 ** s > 0.5:
        s += 1
    b = a / 2.0 ** s
    result = np.eye(a.shape[0])
    term = np.eye(a.shape[0])
    for k in range(1, 60):
        term = term @ b / k
        result = result + term
        if np.linalg.norm(term, 1) <= 1e-18 * np.linalg.norm(result, 1):
            break
    for _ in range(s):
        result = result @ result
    return result


def brute_triangles(g):
    """O(n^3) per-node triangle counts over the binary adjacency structure."""
    a = (g.to_dense() > 0).astype(np.int64)
    np.fill_diagonal(a, 0)
    n = a.shape[0]
    counts = np.zeros(n)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if a[i, j] and a[j, k] and a[k, i]:
                    counts[i] += 1
    return counts / 2.0


def brute_isim(a, b, k):
    """Intersection distance straight from its defining prefix-set sum."""
    total = 0.0
    for depth in range(1, k + 1):
        top_a = set(a[:depth])
        top_b = set(b[:depth])
        total += 1.0 - len(top_a & top_b) / depth
    return total / k


def brute_tie_partition(scores, tie_tol):
    """Tie groups of the ranking of ``scores``, as sets of positions.

    Positions sort by descending score, then ascending id. Positions ``p <
    q`` share a group iff every adjacent pair of sorted scores between them
    agrees within ``tie_tol`` relative.
    """
    ordered = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    s = [float(scores[i]) for i in ordered]

    def tied(p):
        return abs(s[p] - s[p + 1]) <= tie_tol * max(abs(s[p]), abs(s[p + 1]))

    return {frozenset(q for q in range(len(s))
                      if all(tied(r) for r in range(min(p, q), max(p, q))))
            for p in range(len(s))}


def brute_align(groups, candidate):
    """The ordering of the tie groups (node-id sets, best group first) that
    lists each group's members in their candidate order."""
    return [x for group in groups for x in candidate if x in group]


def brute_equal_modulo_ties(candidate, groups):
    """Is ``candidate`` a permutation of the groups' ids that lists each
    group as one block, in group order?"""
    ids = set().union(*groups)
    return (len(candidate) == len(set(candidate)) == len(ids)
            and set(candidate) == ids
            and list(candidate) == brute_align(groups, candidate))


def dense_stochastic(g, alpha, v=None):
    """Materialized (S, v) pair for the teleportation model of a digraph."""
    a = g.to_dense()
    n = a.shape[0]
    out = a.sum(axis=1)
    dangling = out == 0
    denom = np.where(dangling, 1.0, out)
    h = a.T / denom
    s = h + np.outer(np.ones(n), dangling.astype(float)) / n
    if v is None:
        v = np.ones(n) / n
    return s, np.asarray(v, dtype=float)


def dense_google(g, alpha, v=None):
    """Fully materialized Google matrix alpha*S + (1-alpha)*v*1^T."""
    s, v = dense_stochastic(g, alpha, v)
    n = s.shape[0]
    return alpha * s + (1.0 - alpha) * np.outer(v, np.ones(n))


def dense_pagerank(g, alpha, v=None):
    """PageRank through a dense linear solve against the materialized S."""
    s, v = dense_stochastic(g, alpha, v)
    n = s.shape[0]
    p = np.linalg.solve(np.eye(n) - alpha * s, (1.0 - alpha) * v)
    return p / p.sum()
