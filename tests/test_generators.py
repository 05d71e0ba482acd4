import numpy as np

from walkrank import generators
from walkrank.generators import erdos_renyi, strongly_connected_digraph

from oracles import one_shot_erdos_renyi, one_shot_strongly_connected_digraph


def assert_edges(g, expected):
    src, dst = expected
    assert np.array_equal(g.src, src) and np.array_equal(g.dst, dst)
    assert np.array_equal(g.weight, np.ones(src.shape[0]))


def test_block_draws_equal_one_shot_draws(monkeypatch):
    # a block of 50 pairs holds 1 to 25 rows of these graphs, so every
    # graph but the smallest is drawn in several blocks
    monkeypatch.setattr(generators, "_PAIR_BLOCK", 50)
    rng = np.random.default_rng(8)
    cases = [(1, 0.5), (2, 0.0), (2, 1.0), (60, 1.0), (60, 0.0)]
    cases += [(int(rng.integers(2, 45)), float(rng.uniform(0.0, 1.0)))
              for _ in range(20)]
    for n, p in cases:
        seed = int(rng.integers(0, 2 ** 31))
        for directed in (False, True):
            assert_edges(erdos_renyi(n, p, seed, directed=directed),
                         one_shot_erdos_renyi(n, p, seed, directed))
        if n >= 2:
            assert_edges(strongly_connected_digraph(n, p, seed),
                         one_shot_strongly_connected_digraph(n, p, seed))
