"""Seeded synthetic graphs for experiments and randomized test suites.

Random generators take a mandatory seed so that every run of a suite sees
the same graphs; the deterministic shapes (ring, star) need none.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .graph import Graph, is_connected, is_strongly_connected

__all__ = [
    "erdos_renyi",
    "ring",
    "star",
    "connected_erdos_renyi",
    "strongly_connected_digraph",
]


_PAIR_BLOCK = 1 << 20  # candidate pairs drawn per block


def _random_pairs(rng: np.random.Generator, n: int, p: float,
                  directed: bool) -> tuple[np.ndarray, np.ndarray]:
    """Ends of the node pairs that pass an independent ``p`` draw each.

    Pairs ``(i, j)``, ``j > i`` (undirected) or ``j != i`` (directed), are
    drawn in row-major order, a block of rows at a time, so that memory is
    O(block + accepted pairs) rather than O(n**2). The ``rng`` stream is
    used as by one ``rng.random`` call over all pairs in that order.
    """
    ii = [np.empty(0, dtype=np.int64)]
    jj = [np.empty(0, dtype=np.int64)]
    step = max(1, _PAIR_BLOCK // n)
    for r0 in range(0, n, step):
        rows = np.arange(r0, min(r0 + step, n), dtype=np.int64)
        lengths = np.full(rows.shape[0], n - 1) if directed else n - 1 - rows
        starts = np.cumsum(lengths) - lengths
        total = int(lengths.sum())
        if total == 0:
            continue
        k = np.flatnonzero(rng.random(total) < p)
        at = np.searchsorted(starts, k, side="right") - 1
        i = rows[at]
        j = k - starts[at]
        # the column is the offset past the diagonal (undirected) or with
        # the diagonal skipped (directed)
        j += (j >= i) if directed else i + 1
        ii.append(i)
        jj.append(j)
    return np.concatenate(ii), np.concatenate(jj)


def erdos_renyi(n: int, p: float, seed: int, *, directed: bool = False) -> Graph:
    """G(n, p) with independent edge draws; reproducible for a fixed seed."""
    if n < 1:
        raise ValidationError("erdos_renyi requires n >= 1")
    if not (0.0 <= p <= 1.0):
        raise ValidationError(f"edge probability must be in [0, 1], got {p}")
    ii, jj = _random_pairs(np.random.default_rng(seed), n, p, directed)
    return Graph._from_arrays(n, ii, jj, np.ones(ii.shape[0]),
                              directed=directed)


def ring(n: int, *, directed: bool = False) -> Graph:
    """Cycle 0-1-...-(n-1)-0."""
    if n < 3:
        raise ValidationError("ring requires n >= 3")
    src = np.arange(n)
    return Graph._from_arrays(n, src, (src + 1) % n, np.ones(n),
                              directed=directed)


def star(n: int, *, directed: bool = False) -> Graph:
    """Hub node 0 joined to nodes 1..n-1 (hub -> leaf when directed)."""
    if n < 2:
        raise ValidationError("star requires n >= 2")
    return Graph._from_arrays(n, np.zeros(n - 1, dtype=np.int64),
                              np.arange(1, n), np.ones(n - 1),
                              directed=directed)


def connected_erdos_renyi(n: int, p: float, seed: int,
                          max_tries: int = 200) -> Graph:
    """First connected G(n, p) sample along the seed sequence seed, seed+1, ..."""
    for attempt in range(max_tries):
        g = erdos_renyi(n, p, seed + attempt)
        if is_connected(g):
            return g
    raise ValidationError(
        f"no connected G({n}, {p}) sample found in {max_tries} attempts "
        f"starting at seed {seed}")


def strongly_connected_digraph(n: int, p: float, seed: int) -> Graph:
    """Random digraph guaranteed strongly connected.

    Draws directed G(n, p) and overlays a Hamiltonian cycle through a random
    node permutation, which makes every node reachable from every other while
    keeping edge weights binary.
    """
    if n < 2:
        raise ValidationError("strongly_connected_digraph requires n >= 2")
    if not (0.0 <= p <= 1.0):
        raise ValidationError(f"edge probability must be in [0, 1], got {p}")
    rng = np.random.default_rng(seed)
    ii, jj = _random_pairs(rng, n, p, directed=True)
    perm = rng.permutation(n)
    pairs = np.unique(np.concatenate([ii * n + jj,
                                      perm * n + np.roll(perm, -1)]))
    g = Graph._from_arrays(n, pairs // n, pairs % n, np.ones(pairs.shape[0]),
                           directed=True)
    assert is_strongly_connected(g)
    return g
