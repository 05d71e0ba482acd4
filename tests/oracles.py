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


def recursive_tarjan(n, successors):
    """Strongly connected components by textbook recursive Tarjan, roots
    taken in id order and ``successors[v]`` in list order; each component
    sorted, the components in the order they complete."""
    index, low, on_stack, stack, out = {}, {}, set(), [], []

    def visit(v):
        index[v] = low[v] = len(index)
        stack.append(v)
        on_stack.add(v)
        for w in successors[v]:
            if w not in index:
                visit(w)
                low[v] = min(low[v], low[w])
            elif w in on_stack:
                low[v] = min(low[v], index[w])
        if low[v] == index[v]:
            comp = []
            while True:
                w = stack.pop()
                on_stack.discard(w)
                comp.append(w)
                if w == v:
                    break
            out.append(sorted(comp))

    for v in range(n):
        if v not in index:
            visit(v)
    return out


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


def _data_rows(text, comments):
    """Tokens of each line that is neither blank nor starts with a comment
    marker once stripped; every line break is ``\\n``, optionally preceded
    by ``\\r``."""
    lines = (line.strip() for line in text.split("\n"))
    return [line.split() for line in lines
            if line and not line.startswith(comments)]


def _canonical_graph(n, entries, directed):
    """(n, src, dst, weight) with each undirected pair as (min, max),
    duplicate pairs summed in file order, and pairs sorted."""
    merged = {}
    for u, v, w in entries:
        key = (u, v) if directed else (min(u, v), max(u, v))
        merged[key] = merged.get(key, 0.0) + w
    pairs = sorted(merged)
    return (n, [u for u, _ in pairs], [v for _, v in pairs],
            [merged[p] for p in pairs])


def oracle_edge_list(text, directed=False, index_base=None):
    """A valid edge list read straight from its definition: ``u v [w]``
    rows, ``#`` and ``%`` comments; ids shifted down by the index base,
    which by default is 0 when some id is 0 and 1 otherwise; ``n`` is one
    more than the largest shifted id. Returns ``(n, src, dst, weight,
    labels)`` as lists."""
    rows = _data_rows(text, ("#", "%"))
    ids = [int(t) for tokens in rows for t in tokens[:2]]
    if index_base is None:
        index_base = 0 if 0 in ids else 1
    n = max(ids) - index_base + 1 if ids else 0
    entries = [(int(t[0]) - index_base, int(t[1]) - index_base,
                float(t[2]) if len(t) == 3 else 1.0) for t in rows]
    n, src, dst, weight = _canonical_graph(n, entries, directed)
    return n, src, dst, weight, [i + index_base for i in range(n)]


def oracle_matrix_market(text):
    """A valid coordinate MatrixMarket file read straight from its
    definition: a ``%%MatrixMarket matrix coordinate <field> <symmetry>``
    header, ``%`` comments, a ``rows cols entries`` size line, then 1-based
    ``i j [value]`` entries; stored zeros are not edges, ``general`` is
    directed and ``symmetric`` undirected. Returns ``(n, src, dst, weight,
    labels, directed)`` as lists."""
    header = text.split("\n", 1)[0].split()
    field, symmetry = header[3].lower(), header[4].lower()
    rows = _data_rows(text, ("%",))
    n = int(rows[0][0])
    entries = []
    for t in rows[1:]:
        w = 1.0 if field == "pattern" else float(t[2])
        if w != 0.0:
            entries.append((int(t[0]) - 1, int(t[1]) - 1, w))
    directed = symmetry == "general"
    n, src, dst, weight = _canonical_graph(n, entries, directed)
    return n, src, dst, weight, [i + 1 for i in range(n)], directed


def one_shot_erdos_renyi(n, p, seed, directed=False):
    """Sorted ``(src, dst)`` of a seeded G(n, p): one uniform draw per
    candidate pair, all pairs listed at once in row-major order."""
    rng = np.random.default_rng(seed)
    if directed:
        ii, jj = np.where(~np.eye(n, dtype=bool))
    else:
        ii, jj = np.triu_indices(n, k=1)
    mask = rng.random(ii.shape[0]) < p
    return ii[mask], jj[mask]


def one_shot_strongly_connected_digraph(n, p, seed):
    """Sorted ``(src, dst)`` of a seeded directed G(n, p) with a cycle
    through a random permutation laid over it, drawn as in
    :func:`one_shot_erdos_renyi`."""
    rng = np.random.default_rng(seed)
    ii, jj = np.where(~np.eye(n, dtype=bool))
    mask = rng.random(ii.shape[0]) < p
    perm = rng.permutation(n)
    pairs = np.unique(np.concatenate([ii[mask] * n + jj[mask],
                                      perm * n + np.roll(perm, -1)]))
    return pairs // n, pairs % n
