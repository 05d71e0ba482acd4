import io

import numpy as np
import pytest

from walkrank import (
    FormatError,
    Graph,
    GraphParseError,
    UnsupportedOperationError,
    ValidationError,
    clustering_coefficient,
    degrees,
    dump_edge_list,
    dumps_edge_list,
    is_connected,
    is_strongly_connected,
    largest_scc,
    load_edge_list,
    load_matrix_market,
    triangle_counts,
)
from walkrank.datasets import karate, six_node_digraph
from walkrank.generators import erdos_renyi

from oracles import brute_triangles


def parse(text, **kw):
    return load_edge_list(io.StringIO(text), **kw)


# ---------------------------------------------------------------------------
# construction and canonicalization
# ---------------------------------------------------------------------------

def test_from_edges_merges_duplicates_and_sorts():
    g = Graph.from_edges(3, [(2, 0, 1.5), (0, 1), (0, 2, 0.5)])
    # (2, 0) canonicalizes to (0, 2) and merges with the explicit (0, 2)
    assert g.edge_tuples() == [(0, 1, 1.0), (0, 2, 2.0)]
    assert g.m == 2
    assert g.weighted


def test_from_edges_rejects_bad_input():
    with pytest.raises(ValidationError):
        Graph.from_edges(2, [(0, 2)])
    with pytest.raises(ValidationError):
        Graph.from_edges(2, [(0, -1)])
    with pytest.raises(ValidationError):
        Graph.from_edges(2, [(1, 1)])
    with pytest.raises(ValidationError):
        Graph.from_edges(2, [(0, 1, 0.0)])
    with pytest.raises(ValidationError):
        Graph.from_edges(2, [(0, 1, -3.0)])
    with pytest.raises(ValidationError):
        Graph.from_edges(2, [(0, 1, float("nan"))])
    with pytest.raises(ValidationError):
        Graph.from_edges(2, [(0, 1)], node_labels=[7])


def test_from_edges_loops_only_when_allowed():
    g = Graph.from_edges(2, [(0, 0), (0, 1)], allow_loops=True)
    assert (0, 0, 1.0) in g.edge_tuples()


def test_arrays_are_write_locked():
    g = Graph.from_edges(2, [(0, 1)])
    with pytest.raises(ValueError):
        g.weight[0] = 2.0


def test_dense_and_matvec_agree():
    rng = np.random.default_rng(7)
    for directed in (False, True):
        g = erdos_renyi(12, 0.4, 99, directed=directed)
        a = g.to_dense()
        x = rng.standard_normal(12)
        assert np.allclose(g.matvec(x), a @ x)
        assert np.allclose(g.matvec_t(x), a.T @ x)
        if not directed:
            assert np.array_equal(a, a.T)


def test_undirected_dense_does_not_double_loops():
    g = Graph.from_edges(2, [(0, 0, 2.0), (0, 1)], allow_loops=True)
    a = g.to_dense()
    assert a[0, 0] == 2.0
    assert a[0, 1] == a[1, 0] == 1.0


# ---------------------------------------------------------------------------
# edge-list parsing
# ---------------------------------------------------------------------------

def test_parse_path_graph():
    g = parse("1 2\n2 3\n")
    assert g.n == 3 and g.m == 2 and not g.directed
    assert list(g.node_labels) == [1, 2, 3]
    out, in_ = degrees(g)
    assert list(out) == [1.0, 2.0, 1.0]
    assert list(in_) == [1.0, 2.0, 1.0]


def test_parse_skips_comments_and_blanks():
    g = parse("# header\n\n% also a comment\n1 2\n")
    assert g.m == 1


def test_parse_duplicate_edges_sum_weights():
    g = parse("1 2 0.5\n2 1 0.5\n")
    assert g.edge_tuples() == [(0, 1, 1.0)]


def test_parse_reports_line_numbers():
    with pytest.raises(GraphParseError, match="line 2"):
        parse("1 2\n1\n")
    with pytest.raises(GraphParseError, match="line 1"):
        parse("a b\n")
    with pytest.raises(GraphParseError, match="line 3"):
        parse("# c\n1 2\n1 2 0.5\n")  # column count changes mid-file
    with pytest.raises(GraphParseError, match="line 1"):
        parse("1 1\n")  # self-loop
    with pytest.raises(GraphParseError, match="line 2"):
        parse("1 2 1.0\n1 3 zero\n")
    with pytest.raises(GraphParseError, match="line 1"):
        parse("1 2 -1\n")
    with pytest.raises(GraphParseError, match="line 1"):
        parse("0 1\n", index_base=1)  # below an explicit index base of 1


def test_parse_explicit_weighted_flag_is_enforced():
    with pytest.raises(GraphParseError, match="requested"):
        parse("1 2\n", weighted=True)
    with pytest.raises(GraphParseError, match="requested"):
        parse("1 2 0.5\n", weighted=False)


def test_parse_index_base_zero():
    g = parse("0 1\n1 2\n", index_base=0)
    assert g.n == 3
    assert list(g.node_labels) == [0, 1, 2]


def test_parse_default_index_base_follows_id_zero():
    assert list(parse("1 2\n2 3\n").node_labels) == [1, 2, 3]
    assert list(parse("1 2\n0 1\n").node_labels) == [0, 1, 2]
    with pytest.raises(GraphParseError, match="line 1: node id below"):
        parse("-1 2\n")


def test_parse_loops_when_allowed():
    g = parse("1 1\n1 2\n", allow_loops=True)
    assert (0, 0, 1.0) in g.edge_tuples()


def test_parse_directed_keeps_orientation():
    g = parse("2 1\n", directed=True)
    assert g.edge_tuples() == [(1, 0, 1.0)]


def test_roundtrip_unweighted_and_weighted(tmp_path):
    texts = {
        "plain": "1 2\n2 3\n3 4\n",
        "weighted": "1 2 0.125\n2 3 3.7500000000000004\n",
    }
    for name, text in texts.items():
        path = tmp_path / f"{name}.txt"
        g = parse(text, directed=True)
        dump_edge_list(g, path)
        h = load_edge_list(path, directed=True)
        assert g.edge_tuples() == h.edge_tuples()
        assert list(g.node_labels) == list(h.node_labels)


def test_roundtrip_random_graphs():
    rng = np.random.default_rng(42)
    for directed in (False, True):
        for _ in range(10):
            n = int(rng.integers(2, 15))
            g = erdos_renyi(n, 0.5, int(rng.integers(0, 2 ** 31)),
                            directed=directed)
            if g.m == 0:
                continue
            h = load_edge_list(io.StringIO(dumps_edge_list(g)),
                               directed=directed)
            assert g.edge_tuples() == h.edge_tuples()
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    h = load_edge_list(io.StringIO(dumps_edge_list(g)))
    assert h.edge_tuples() == g.edge_tuples()


# ---------------------------------------------------------------------------
# matrix market parsing
# ---------------------------------------------------------------------------

MM_PATTERN_SYM = """%%MatrixMarket matrix coordinate pattern symmetric
3 3 2
2 1
3 2
"""

MM_REAL_GENERAL = """%%MatrixMarket matrix coordinate real general
% a comment inside the body
3 3 3
1 2 0.5
2 3 1.5
3 1 0.0
"""


def test_mtx_pattern_symmetric_is_undirected_path():
    g = load_matrix_market(io.StringIO(MM_PATTERN_SYM))
    assert not g.directed
    assert g.edge_tuples() == [(0, 1, 1.0), (1, 2, 1.0)]
    assert list(g.node_labels) == [1, 2, 3]


def test_mtx_real_general_drops_explicit_zeros():
    g = load_matrix_market(io.StringIO(MM_REAL_GENERAL))
    assert g.directed
    assert g.edge_tuples() == [(0, 1, 0.5), (1, 2, 1.5)]


def test_mtx_integer_field():
    text = "%%MatrixMarket matrix coordinate integer general\n2 2 1\n1 2 3\n"
    g = load_matrix_market(io.StringIO(text))
    assert g.edge_tuples() == [(0, 1, 3.0)]


def test_mtx_rejects_unsupported_flavours():
    bad = [
        "%%MatrixMarket matrix array real general\n",
        "%%MatrixMarket matrix coordinate complex general\n",
        "%%MatrixMarket matrix coordinate real skew-symmetric\n",
        "%%MatrixMarket vector coordinate real general\n",
        "not a header\n",
        "%%MatrixMarket matrix coordinate\n",
    ]
    for text in bad:
        with pytest.raises(FormatError):
            load_matrix_market(io.StringIO(text + "1 1 0\n"))


def test_mtx_rejects_bad_shapes_and_values():
    with pytest.raises(ValidationError, match="square"):
        load_matrix_market(io.StringIO(
            "%%MatrixMarket matrix coordinate real general\n2 3 0\n"))
    with pytest.raises(ValidationError):
        load_matrix_market(io.StringIO(
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2 -1\n"))


def test_mtx_entry_count_must_match():
    text = "%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 2\n"
    with pytest.raises(GraphParseError, match="declared 2"):
        load_matrix_market(io.StringIO(text))


def test_mtx_reports_out_of_range_entries():
    text = "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 3\n"
    with pytest.raises(GraphParseError):
        load_matrix_market(io.StringIO(text))


# ---------------------------------------------------------------------------
# degrees
# ---------------------------------------------------------------------------

def test_six_node_degrees():
    g = six_node_digraph()
    out, in_ = degrees(g)
    assert list(out) == [2, 0, 3, 2, 2, 1]
    assert list(in_) == [1, 2, 1, 2, 2, 2]


def test_degrees_are_weighted():
    g = parse("1 2 0.25\n2 3 0.5\n")
    out, _ = degrees(g)
    assert list(out) == [0.25, 0.75, 0.5]


def test_degree_sum_matches_edge_weight():
    rng = np.random.default_rng(5)
    for directed in (False, True):
        for _ in range(10):
            g = erdos_renyi(int(rng.integers(2, 30)), 0.3,
                            int(rng.integers(0, 2 ** 31)), directed=directed)
            out, in_ = degrees(g)
            total = g.weight.sum()
            factor = 1.0 if directed else 2.0
            assert np.isclose(out.sum(), factor * total)
            assert np.isclose(in_.sum(), factor * total)


# ---------------------------------------------------------------------------
# components
# ---------------------------------------------------------------------------

def test_largest_scc_of_six_node_fixture():
    g = six_node_digraph()
    sub, mapping = largest_scc(g)
    assert list(mapping) == [3, 4, 5]
    assert list(sub.node_labels) == [4, 5, 6]
    assert sub.m == 5
    assert is_strongly_connected(sub)


def test_largest_scc_tie_prefers_smallest_id():
    g = parse("1 2\n2 3\n", directed=True)  # three singleton components
    sub, mapping = largest_scc(g)
    assert list(mapping) == [0]
    assert sub.n == 1 and sub.m == 0


def test_largest_scc_rejects_empty_graph():
    with pytest.raises(ValidationError):
        largest_scc(Graph.from_edges(0, []))


def test_largest_scc_undirected_picks_bigger_component():
    g = parse("1 2\n2 3\n4 5\n")
    sub, mapping = largest_scc(g)
    assert list(mapping) == [0, 1, 2]


def test_largest_scc_is_strongly_connected_and_maximal():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(2, 25))
        g = erdos_renyi(n, 0.15, int(rng.integers(0, 2 ** 31)), directed=True)
        sub, mapping = largest_scc(g)
        assert is_strongly_connected(sub) or sub.n == 1
        # maximality: no outside node both reaches and is reached by the
        # component (checked on the dense reachability closure)
        a = g.to_dense() > 0
        reach = a | np.eye(g.n, dtype=bool)
        for _ in range(g.n):
            reach = reach | (reach @ reach)
        inside = np.zeros(g.n, dtype=bool)
        inside[mapping] = True
        rep = mapping[0]
        for v in range(g.n):
            if not inside[v]:
                assert not (reach[rep, v] and reach[v, rep])


def test_connectivity_predicates():
    assert is_connected(parse("1 2\n2 3\n"))
    assert not is_connected(parse("1 2\n3 4\n"))
    chain = parse("1 2\n2 3\n", directed=True)
    assert is_connected(chain)  # weakly
    assert not is_strongly_connected(chain)
    cycle = parse("1 2\n2 3\n3 1\n", directed=True)
    assert is_strongly_connected(cycle)
    assert not is_connected(Graph.from_edges(0, []))
    assert is_connected(Graph.from_edges(1, []))


# ---------------------------------------------------------------------------
# triangles and clustering
# ---------------------------------------------------------------------------

def test_triangle_counts_k3():
    g = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    assert list(triangle_counts(g)) == [1.0, 1.0, 1.0]


def test_triangle_counts_karate_matches_brute_force():
    g = karate()
    assert np.array_equal(triangle_counts(g), brute_triangles(g))


def test_triangle_counts_random_graphs_match_brute_force():
    rng = np.random.default_rng(2)
    for _ in range(15):
        n = int(rng.integers(3, 31))
        g = erdos_renyi(n, 0.4, int(rng.integers(0, 2 ** 31)))
        assert np.array_equal(triangle_counts(g), brute_triangles(g))


def test_triangle_counts_weighted_is_weighted_cube_diagonal():
    rng = np.random.default_rng(3)
    edges = [(0, 1, 0.5), (1, 2, 2.0), (0, 2, 3.0), (2, 3, 1.0)]
    g = Graph.from_edges(4, edges)
    a = g.to_dense()
    assert np.allclose(triangle_counts(g), np.diag(a @ a @ a) / 2.0)
    del rng


def test_triangle_counts_rejects_directed():
    g = parse("1 2\n", directed=True)
    with pytest.raises(UnsupportedOperationError):
        triangle_counts(g)


def test_clustering_k3_and_star_and_path():
    k3 = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    values, avg = clustering_coefficient(k3)
    assert np.allclose(values, 1.0) and avg == 1.0

    star = parse("1 2\n1 3\n1 4\n")
    values, avg = clustering_coefficient(star)
    assert values[0] == 0.0 and np.isnan(values[1:]).all()
    assert avg == 0.0

    p3 = parse("1 2\n2 3\n")
    values, avg = clustering_coefficient(p3)
    assert np.isnan(values[0]) and values[1] == 0.0 and np.isnan(values[2])
    assert avg == 0.0


def test_clustering_single_edge_average_is_nan():
    g = parse("1 2\n")
    values, avg = clustering_coefficient(g)
    assert np.isnan(values).all() and np.isnan(avg)


def test_clustering_uses_binary_structure():
    weighted = Graph.from_edges(3, [(0, 1, 9.0), (0, 2, 0.1), (1, 2, 2.0)])
    values, avg = clustering_coefficient(weighted)
    assert np.allclose(values, 1.0) and avg == 1.0


def test_clustering_ignores_self_loops():
    g = Graph.from_edges(3, [(0, 0), (0, 1), (0, 2), (1, 2)],
                         allow_loops=True)
    values, _ = clustering_coefficient(g)
    assert np.allclose(values, 1.0)


def test_clustering_rejects_directed():
    with pytest.raises(UnsupportedOperationError):
        clustering_coefficient(parse("1 2\n", directed=True))
