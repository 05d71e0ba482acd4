import io
import warnings

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
from walkrank import graph as graph_module
from walkrank.datasets import karate, six_node_digraph
from walkrank.generators import erdos_renyi

from oracles import (
    add_at_degrees,
    brute_triangles,
    loop_merged_edges,
    oracle_edge_list,
    oracle_matrix_market,
    recursive_tarjan,
)


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


def merge_cases():
    """Seeded ``(n, src, dst, weight, directed)`` edge arrays with self-loops
    and edges repeated 3 to 6 times in shuffled positions, weights spanning
    16 decades or all 1; plus ``n = 0``, ``n = 1`` and ``m = 0``."""
    empty = np.empty(0, dtype=np.int64)
    for directed in (False, True):
        yield 0, empty, empty, np.empty(0), directed
        yield 1, empty, empty, np.empty(0), directed
        yield 5, empty, empty, np.empty(0), directed
        yield 1, np.zeros(4, np.int64), np.zeros(4, np.int64), \
            np.array([1e-8, 3.0, 1e8, 0.1]), directed
    rng = np.random.default_rng(61)
    for case in range(120):
        n = int(rng.integers(1, 25))
        m = int(rng.integers(1, 3 * n))
        src, dst = rng.integers(0, n, m), rng.integers(0, n, m)
        repeat = rng.integers(0, m, int(rng.integers(1, 4)))
        copies = rng.integers(3, 7, repeat.shape[0])
        src = np.concatenate([src, np.repeat(src[repeat], copies)])
        dst = np.concatenate([dst, np.repeat(dst[repeat], copies)])
        shuffle = rng.permutation(src.shape[0])
        src, dst = src[shuffle], dst[shuffle]
        if case % 3 == 0:
            src, dst = dst, src  # undirected copies in both orientations
        weight = (10.0 ** rng.uniform(-8.0, 8.0, src.shape[0]) if case % 4
                  else np.ones(src.shape[0]))
        yield n, src, dst, weight, case % 2 == 0


def test_merge_and_degrees_equal_the_loop_and_add_at_oracles():
    merged = 0
    for n, src, dst, weight, directed in merge_cases():
        g = Graph._from_arrays(n, src, dst, weight, directed=directed,
                               allow_loops=True)
        want = loop_merged_edges(n, src, dst, weight, directed)
        for have, expected in zip((g.src, g.dst, g.weight), want):
            assert have.dtype == expected.dtype, (n, directed)
            assert np.array_equal(have, expected), (n, directed)
        merged += g.m < src.shape[0]
        raw = Graph(n, np.asarray(src, dtype=np.int64),
                    np.asarray(dst, dtype=np.int64), weight, directed,
                    np.arange(n))  # duplicates kept, in array order
        for h in (g, raw):
            for have, expected in zip(degrees(h), add_at_degrees(h)):
                assert have.dtype == expected.dtype, (n, directed)
                assert np.array_equal(have, expected), (n, directed)
    assert merged > 100


def test_from_edges_equals_array_constructor_and_canonical_form():
    rng = np.random.default_rng(17)
    for _ in range(300):
        n = int(rng.integers(0, 8))
        m = int(rng.integers(0, 12))
        directed = bool(rng.integers(0, 2))
        allow_loops = bool(rng.integers(0, 2))
        src = rng.integers(-1, n + 1, m) if rng.random() < 0.2 else \
            rng.integers(0, max(n, 1), m)
        dst = rng.integers(0, max(n, 1), m)
        weight = rng.choice([0.25, 0.5, 1.0, 2.0, 3.5, 0.0, -1.0, np.nan],
                            m, p=[.2, .2, .2, .2, .1, .04, .03, .03])
        tuples = [(np.int64(u), int(v)) if w == 1.0 else (int(u), v, w)
                  for u, v, w in zip(src, dst, weight)]
        kw = dict(directed=directed, allow_loops=allow_loops)
        try:
            g = Graph.from_edges(n, tuples, **kw)
        except ValidationError as exc:
            with pytest.raises(ValidationError) as again:
                Graph._from_arrays(n, src, dst, weight, **kw)
            assert str(again.value) == str(exc)
            continue
        h = Graph._from_arrays(n, src, dst, weight, **kw)
        for a, b in ((g.src, h.src), (g.dst, h.dst), (g.weight, h.weight),
                     (g.node_labels, h.node_labels)):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        merged = {}
        for u, v, w in zip(src.tolist(), dst.tolist(), weight.tolist()):
            key = (u, v) if directed else (min(u, v), max(u, v))
            merged[key] = merged.get(key, 0.0) + w
        assert g.edge_tuples() == [(u, v, merged[(u, v)])
                                   for u, v in sorted(merged)]


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
    with pytest.raises(GraphParseError, match="^line 3: negative") as info:
        load_matrix_market(io.StringIO(
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2 -1\n"))
    assert info.value.line_number == 3


def test_mtx_entry_count_must_match():
    text = "%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 2\n"
    with pytest.raises(GraphParseError, match="declared 2"):
        load_matrix_market(io.StringIO(text))


def test_mtx_reports_out_of_range_entries():
    text = "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 3\n"
    with pytest.raises(GraphParseError):
        load_matrix_market(io.StringIO(text))


# ---------------------------------------------------------------------------
# file grammar: random valid files against the oracles, malformed corpus
# ---------------------------------------------------------------------------

def _dress(rng, rows, comment):
    """Data rows with comment lines, blank lines, padding and a random line
    ending mixed in, with or without a final line break."""
    lines = []
    for row in rows:
        roll = rng.random()
        if roll < 0.1:
            lines.append(f"{comment} a comment")
        elif roll < 0.15:
            lines.append(" \t")
        elif roll < 0.2:
            lines.append("")
        pad = " " * int(rng.integers(0, 3))
        lines.append(pad + rng.choice([" ", "\t", "  "]).join(row) + pad)
    eol = rng.choice(["\n", "\r\n"])
    return eol.join(lines) + (eol if rng.random() < 0.7 else "")


def _assert_graph(g, n, src, dst, weight, labels):
    assert g.n == n
    for arr, dtype, want in ((g.src, np.int64, src), (g.dst, np.int64, dst),
                             (g.weight, np.float64, weight),
                             (g.node_labels, np.int64, labels)):
        assert arr.dtype == dtype
        assert arr.tolist() == want


def _load(loader, text, tmp_path, as_file, **kw):
    if not as_file:
        return loader(io.StringIO(text), **kw)
    path = tmp_path / "graph.txt"
    path.write_bytes(text.encode("utf-8"))
    return loader(path, **kw)


WEIGHTS = ("0.25", "0.5", "1", "2.0", "3.5", "1e0")


def test_random_edge_lists_match_oracle(tmp_path):
    rng = np.random.default_rng(20240)
    for case in range(200):
        base = int(rng.integers(0, 2))
        n = int(rng.integers(1, 10))
        m = int(rng.integers(1, 25))
        weighted = bool(rng.integers(0, 2))
        directed = bool(rng.integers(0, 2))
        allow_loops = bool(rng.integers(0, 2))
        u = rng.integers(0, n, m)
        v = rng.integers(0, n, m)
        if not allow_loops:
            v = np.where(u == v, (v + 1) % n, v)
            if n == 1:
                n, v = 2, np.ones(m, dtype=np.int64)
        rows = [[str(a + base), str(b + base)]
                + ([str(rng.choice(WEIGHTS))] if weighted else [])
                for a, b in zip(u.tolist(), v.tolist())]
        text = _dress(rng, rows, rng.choice(["#", "%"]))
        index_base = rng.choice([None, base])
        g = _load(load_edge_list, text, tmp_path, case % 10 == 0,
                  directed=directed, index_base=index_base,
                  allow_loops=allow_loops)
        _assert_graph(g, *oracle_edge_list(text, directed, index_base))
        assert g.directed == directed


def test_random_matrix_market_files_match_oracle(tmp_path):
    rng = np.random.default_rng(20241)
    for case in range(200):
        field = rng.choice(["pattern", "real", "integer"])
        symmetry = rng.choice(["general", "symmetric"])
        n = int(rng.integers(2, 10))
        m = int(rng.integers(0, 25))
        i = rng.integers(1, n + 1, m)
        j = rng.integers(1, n + 1, m)
        j = np.where(i == j, j % n + 1, j)
        values = {"pattern": [], "real": list(WEIGHTS) + ["0", "0.0"],
                  "integer": ["1", "2", "3", "0"]}[field]
        rows = [[str(a), str(b)] + ([str(rng.choice(values))] if values
                                    else [])
                for a, b in zip(i.tolist(), j.tolist())]
        body = _dress(rng, [[str(n), str(n), str(m)]] + rows, "%")
        head = f"%%MatrixMarket matrix coordinate {field} {symmetry}\n"
        if rng.random() < 0.5:
            head += "% generated\n\n"
        text = head + body
        g = _load(load_matrix_market, text, tmp_path, case % 10 == 0)
        *arrays, directed = oracle_matrix_market(text)
        _assert_graph(g, *arrays)
        assert g.directed == directed


# (loader, text, keyword arguments, error class, exact message)
MM = "%%MatrixMarket matrix coordinate real general\n"
MM_PATTERN = "%%MatrixMarket matrix coordinate pattern general\n"
MALFORMED = {
    "el-columns-first": (load_edge_list, "# c\n1\n1 2\n", {},
                         GraphParseError,
                         "line 2: expected 2 or 3 columns, got 1"),
    "el-columns-inferred": (
        load_edge_list, "1 2 0.5\n2 3\n", {}, GraphParseError,
        "line 2: expected 3 columns (inferred from the first data line), "
        "got 2"),
    "el-columns-requested": (
        load_edge_list, "1 2\n", {"weighted": True}, GraphParseError,
        "line 1: expected 3 columns (requested), got 2"),
    "el-ids": (load_edge_list, "1 2\n1 b\n", {}, GraphParseError,
               "line 2: node ids must be integers, got '1' 'b'"),
    "el-below-base": (load_edge_list, "1 2\n0 2\n", {"index_base": 1},
                      GraphParseError, "line 2: node id below index base 1"),
    "el-self-loop": (load_edge_list, "1 2\n% c\n03 3\n", {}, GraphParseError,
                     "line 3: self-loop at node 03 "
                     "(pass allow_loops=True to accept)"),
    "el-weight-token": (load_edge_list, "1 2 1\n2 3 x\n", {},
                        GraphParseError,
                        "line 2: weight must be a number, got 'x'"),
    "el-weight-value": (load_edge_list, "1 2 1\n2 3 -inf\n", {},
                        GraphParseError,
                        "line 2: weight must be positive and finite, "
                        "got -inf"),
    "el-value-before-columns": (
        load_edge_list, "1 2 -1\n1 2\n", {}, GraphParseError,
        "line 1: weight must be positive and finite, got -1"),
    "el-loop-before-weight-token": (
        load_edge_list, "1 2 1\n2 2 x\n", {}, GraphParseError,
        "line 2: self-loop at node 2 (pass allow_loops=True to accept)"),
    "el-last-line": (
        load_edge_list, "".join(f"{k} {k + 1}\n" for k in range(1, 3000))
        + "3000 3000 1", {}, GraphParseError,
        "line 3000: expected 2 columns (inferred from the first data line), "
        "got 3"),
    "el-deep-value": (
        load_edge_list, "".join(f"{k} {k + 1}\n" for k in range(1, 2500))
        + "7 7\n" + "1 2 3\n", {}, GraphParseError,
        "line 2500: self-loop at node 7 (pass allow_loops=True to accept)"),
    "mm-missing-size": (load_matrix_market, MM + "% c\n\n", {},
                        GraphParseError, "line 4: missing size line"),
    "mm-size-fields": (load_matrix_market, MM + "2 2\n", {}, GraphParseError,
                       "line 2: size line must have 3 fields, got 2"),
    "mm-size-integers": (load_matrix_market, MM + "2 x 1\n", {},
                         GraphParseError,
                         "line 2: size line must be integers: '2 x 1'"),
    "mm-square": (load_matrix_market, MM + "2 3 0\n", {}, ValidationError,
                  "adjacency matrix must be square, got 2x3"),
    "mm-fields": (load_matrix_market, MM + "2 2 2\n1 2 1\n2 1\n", {},
                  GraphParseError, "line 4: expected 3 fields, got 2"),
    "mm-indices": (load_matrix_market, MM + "2 2 1\n1 a 1\n", {},
                   GraphParseError,
                   "line 3: indices must be integers: '1 a 1'"),
    "mm-shape": (load_matrix_market, MM_PATTERN + "2 2 2\n1 2\n\n3 1\n", {},
                 GraphParseError,
                 "line 5: entry (3, 1) outside declared 2x2 shape"),
    "mm-value-token": (load_matrix_market, MM + "2 2 1\n1 2 abc\n", {},
                       GraphParseError,
                       "line 3: value must be a number, got 'abc'"),
    "mm-value-sign": (load_matrix_market, MM + "2 2 2\n1 2 0\n2 1 -2\n", {},
                      GraphParseError,
                      "line 4: negative or non-finite weight -2.0"),
    "mm-entry-count": (load_matrix_market, MM + "2 2 3\n1 2 1\n2 1 1\n\n",
                       {}, GraphParseError,
                       "line 5: declared 3 entries but found 2"),
    "mm-self-loop": (load_matrix_market, MM + "2 2 2\n2 2 1\n1 2 1\n", {},
                     GraphParseError,
                     "line 3: self-loop at node 2 "
                     "(pass allow_loops=True to accept)"),
    "mm-self-loop-after-zero": (
        load_matrix_market, MM + "3 3 3\n1 2 0\n% c\n1 3 1\n3 3 1\n", {},
        GraphParseError,
        "line 6: self-loop at node 3 (pass allow_loops=True to accept)"),
    "mm-count-before-loop": (load_matrix_market, MM + "2 2 3\n2 2 1\n", {},
                             GraphParseError,
                             "line 3: declared 3 entries but found 1"),
    "mm-shape-before-fields": (
        load_matrix_market, MM + "2 2 2\n5 1 1\n1 2\n", {}, GraphParseError,
        "line 3: entry (5, 1) outside declared 2x2 shape"),
    "mm-shape-before-value-token": (
        load_matrix_market, MM + "2 2 1\n1 9 x\n", {}, GraphParseError,
        "line 3: entry (1, 9) outside declared 2x2 shape"),
    "mm-sign-before-count": (
        load_matrix_market, MM + "2 2 5\n1 2 nan\n", {}, GraphParseError,
        "line 3: negative or non-finite weight nan"),
    "mm-last-line": (
        load_matrix_market, MM_PATTERN + "3000 3000 3000\n"
        + "".join(f"{k} {k + 1}\n" for k in range(1, 3000)) + "1 1.5", {},
        GraphParseError, "line 3002: indices must be integers: '1 1.5'"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_file_names_first_bad_line_and_check(case):
    loader, text, kw, error, message = MALFORMED[case]
    with pytest.raises(error) as info:
        loader(io.StringIO(text), **kw)
    assert str(info.value) == message
    if error is GraphParseError:  # the number in the message, as a field
        assert message.startswith(f"line {info.value.line_number}: ")


@pytest.mark.parametrize("token", ["1_000", "\u0661", "9223372036854775808"])
def test_ids_outside_the_int64_grammar_are_parse_errors(token):
    # int() accepts all three; np.loadtxt, the one token grammar, does not
    with pytest.raises(GraphParseError) as info:
        parse(f"1 2\n2 {token}\n")
    assert str(info.value) == (
        f"line 2: node ids must be integers, got '2' {token!r}")
    with pytest.raises(GraphParseError) as info:
        load_matrix_market(io.StringIO(
            MM_PATTERN + f"3 3 2\n1 2\n{token} 1\n"))
    assert str(info.value) == f"line 4: indices must be integers: '{token} 1'"


@pytest.mark.parametrize("token", ["1_0", "\u0661"])
def test_weights_outside_the_float64_grammar_are_parse_errors(token):
    with pytest.raises(GraphParseError) as info:
        parse(f"1 2 1\n2 3 {token}\n")
    assert str(info.value) == f"line 2: weight must be a number, got {token!r}"


# ---------------------------------------------------------------------------
# parse-first path: raw lines of a comment-free file against the numbered view
# ---------------------------------------------------------------------------

def _with_view(monkeypatch, module, check):
    """Make ``module``'s loaders pass every view of the lines through
    ``check`` before loading it."""
    read = module._read_lines

    def read_checked(path_or_file, comments):
        return check(read(path_or_file, comments))

    monkeypatch.setattr(module, "_read_lines", read_checked)


def _raw_only(lines):
    assert lines.number is None, "a clean file built the numbered view"
    return lines


def _outcome(loader, text, **kw):
    """The graph's arrays and dtypes, or the error's class, message and
    line number."""
    try:
        g = loader(io.StringIO(text), **kw)
    except (GraphParseError, FormatError, ValidationError) as exc:
        return type(exc), str(exc), getattr(exc, "line_number", None)
    return g.n, g.directed, [(a.dtype, a.tobytes()) for a in
                             (g.src, g.dst, g.weight, g.node_labels)]


PAD = (" ", "\t", "\x0c", "\xa0", "\x1c", "\x0b", "\r", "\u3000")
BAD_TOKENS = ("x", "1_0", "1.5", "-1", "0", "nan", "-inf", "\u0661", "1e0",
              "9223372036854775808")


def _raw_text(rng, rows):
    """Comment-free lines: padding, whitespace-only lines, and ``\\n``,
    ``\\r\\n`` or (rarely) ``\\r`` line ends."""
    lines = []
    for row in rows:
        if rng.random() < 0.05:
            lines.append("".join(rng.choice(PAD, int(rng.integers(0, 3)))))
        pads = ["".join(rng.choice(PAD, int(rng.integers(0, 2))))
                if rng.random() < 0.2 else "" for _ in range(2)]
        lines.append(pads[0] + " ".join(row) + pads[1])
    eol = rng.choice(["\n", "\r\n", "\r"], p=[0.6, 0.35, 0.05])
    return eol.join(lines) + (eol if rng.random() < 0.7 else "")


def _spoil(rng, rows):
    """Put a bad token, or a column too many or too few, on the first row,
    the last row or a row past the first 1024-line chunk."""
    at = rng.choice([0, len(rows) - 1, min(len(rows) - 1, 1030)])
    row = list(rows[at])
    roll = rng.random()
    if roll < 0.15:
        row.append("1")
    elif roll < 0.3:
        row.pop()
    else:
        row[int(rng.integers(0, len(row)))] = str(rng.choice(BAD_TOKENS))
    rows[at] = row


def _random_rows(rng, n, m, ncols):
    """``m`` rows of 1-based ids in ``1..n`` without self-loops, with a
    weight column when ``ncols`` is 3."""
    u = rng.integers(1, n + 1, m)
    v = (u - 1 + rng.integers(1, n, m)) % n + 1
    rows = [[str(a), str(b)] for a, b in zip(u.tolist(), v.tolist())]
    if ncols == 3:
        for row in rows:
            row.append(str(rng.choice(WEIGHTS)))
    return rows


def test_parse_first_path_matches_the_numbered_view(monkeypatch):
    rng = np.random.default_rng(20250)
    cases = []
    for case in range(160):
        big = case % 8 == 0
        n = int(rng.integers(2, 12))
        m = int(rng.integers(1040, 1300)) if big else int(rng.integers(1, 30))
        if case % 2:
            ncols = int(rng.integers(2, 4))
            rows = _random_rows(rng, n, m, ncols)
            if rng.random() < 0.4:
                _spoil(rng, rows)
            kw = dict(directed=bool(rng.integers(0, 2)),
                      weighted=rng.choice([None, None, None, ncols == 3]),
                      index_base=rng.choice([None, 0, 1]),
                      allow_loops=bool(rng.integers(0, 2)))
            cases.append((load_edge_list, _raw_text(rng, rows), kw))
        else:
            field = rng.choice(["pattern", "real", "integer"])
            rows = _random_rows(rng, n, m, 2 if field == "pattern" else 3)
            if rng.random() < 0.4:
                _spoil(rng, rows)
            declared = m + int(rng.choice([0] * 8 + [1, -1]))
            head = (f"%%MatrixMarket matrix coordinate {field} "
                    f"{rng.choice(['general', 'symmetric'])}\n")
            if rng.random() < 0.3:
                head += "% generated\n\n"
            text = head + _raw_text(rng, [[str(n), str(n), str(declared)]]
                                    + rows)
            cases.append((load_matrix_market, text,
                          dict(allow_loops=bool(rng.integers(0, 2)))))

    with monkeypatch.context() as patch:
        _with_view(patch, graph_module, graph_module._numbered)
        numbered = [_outcome(loader, text, **kw)
                    for loader, text, kw in cases]
    assert sum(isinstance(o[0], type) for o in numbered) > 40  # errors
    assert sum(isinstance(o[0], int) for o in numbered) > 40  # graphs
    for (loader, text, kw), want in zip(cases, numbered):
        assert _outcome(loader, text, **kw) == want, (loader, text[:200], kw)


def test_clean_file_loads_from_the_raw_lines(monkeypatch):
    _with_view(monkeypatch, graph_module, _raw_only)
    rows = [[str(k), str(k + 1), "0.5"] for k in range(1, 3000)]
    text = "# a leading comment\n\n" + "\n".join(" ".join(r) for r in rows)
    assert load_edge_list(io.StringIO(text)).m == 2999
    text = ("%%MatrixMarket matrix coordinate real general\n% c\n"
            "3000 3000 2999\n" + "\n".join(" ".join(r) for r in rows))
    assert load_matrix_market(io.StringIO(text)).m == 2999
    with warnings.catch_warnings():  # np.loadtxt warns on a blank body
        warnings.simplefilter("error")
        assert load_matrix_market(io.StringIO(
            MM + "2 2 0\n\n \n")).m == 0
    with pytest.raises(AssertionError, match="numbered view"):
        load_edge_list(io.StringIO("1 2\n# c\n2 3\n"))


def test_non_ascii_comment_loads_like_its_ascii_twin():
    body = "1 2 0.5\n2 3 1.5\n3 1 2\n"
    assert (_outcome(load_edge_list, "# caf\u00e9 \u2014 r\u00e9seau\n" + body)
            == _outcome(load_edge_list, "# cafe - reseau\n" + body))


# ---------------------------------------------------------------------------
# duplicate edges
# ---------------------------------------------------------------------------

def test_duplicate_weights_sum_left_to_right_in_file_order():
    # among enough other edges that an unstable sort would reorder the
    # copies; np.add.reduceat would not sum them left to right
    rng = np.random.default_rng(20251)
    values = [0.1, 0.2, 0.3, 1e16, 0.7, 3.3, 1e-3, 2.5, 1e15, 0.25, 7.0]
    others = [(u, u + 1, 1.0) for u in range(3, 300)]
    sums = set()
    for directed in (False, True):
        for _ in range(40):
            copies = rng.permutation(values[:int(rng.integers(3, 12))])
            edges = [(1, 2, w) for w in copies.tolist()] + others
            edges = [edges[k] for k in rng.permutation(len(edges))]
            if not directed:  # either orientation is one undirected edge
                edges = [(2, 1, w) if u == 1 and rng.random() < 0.5
                         else (u, v, w) for u, v, w in edges]
            want = 0.0
            for u, v, w in edges:
                if {u, v} == {1, 2}:
                    want += w
            sums.add(want)
            text = "".join(f"{u} {v} {w!r}\n" for u, v, w in edges)
            for g in (parse(text, directed=directed),
                      Graph.from_edges(301, edges, directed=directed)):
                first = g.node_labels[g.src] == 1
                assert g.weight[first & (g.node_labels[g.dst] == 2)] == [want]
    assert len(sums) > 10  # the order of the copies changes their sum


# ---------------------------------------------------------------------------
# dump
# ---------------------------------------------------------------------------

def _dump_per_edge(g):
    """The edge list written one edge at a time from numpy labels."""
    labels = g.node_labels
    if g.weighted:
        return "".join(f"{labels[u]} {labels[v]} {float(w)!r}\n"
                       for u, v, w in zip(g.src, g.dst, g.weight))
    return "".join(f"{labels[u]} {labels[v]}\n" for u, v in zip(g.src, g.dst))


def test_dump_is_byte_identical_to_the_per_edge_formula(tmp_path):
    rng = np.random.default_rng(20252)
    g = erdos_renyi(60, 0.2, 5)
    weighted = Graph._from_arrays(g.n, g.src, g.dst,
                                  rng.uniform(1e-3, 1e3, g.m), directed=False,
                                  node_labels=np.arange(g.n) * 7 - 3)
    for graph in (karate(), weighted, six_node_digraph(),
                  erdos_renyi(50, 0.1, 6, directed=True)):
        want = _dump_per_edge(graph)
        assert dumps_edge_list(graph) == want
        dump_edge_list(graph, tmp_path / "g.txt")
        assert (tmp_path / "g.txt").read_bytes() == want.encode()


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

def test_strong_components_match_recursive_tarjan():
    rng = np.random.default_rng(47)
    for _ in range(40):
        n = int(rng.integers(1, 40))
        m = int(rng.integers(0, 3 * n))
        g = Graph._from_arrays(n, rng.integers(0, n, m),
                               rng.integers(0, n, m), np.ones(m),
                               directed=True, allow_loops=True)
        indptr, indices, _ = g.adjacency()
        successors = [indices[indptr[v]:indptr[v + 1]].tolist()
                      for v in range(n)]
        component = graph_module._strong_components(g)
        got = [np.flatnonzero(component == c).tolist()
               for c in range(1, component.max() + 1)]
        assert sorted(got) == sorted(recursive_tarjan(n, successors))


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


def test_largest_scc_of_a_long_path_needs_no_recursion():
    n = 100_000  # n one-node components; a recursive walk would overflow
    g = Graph._from_arrays(n, np.arange(n - 1), np.arange(1, n),
                           np.ones(n - 1), directed=True)
    sub, mapping = largest_scc(g)
    assert mapping.tolist() == [0]
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


def _connectivity_cases():
    rng = np.random.default_rng(41)
    for k in range(50):
        n = int(rng.integers(2, 30))
        m = int(rng.integers(0, 3 * n))
        yield Graph._from_arrays(n, rng.integers(0, n, m),
                                 rng.integers(0, n, m), np.ones(m),
                                 directed=k % 2 == 0, allow_loops=True)
    yield parse("1 2\n2 3\n3 4\n", directed=True)  # chain
    yield parse("1 2\n2 3\n3 1\n3 4\n", directed=True)  # sink node 4
    yield parse("1 2\n2 1\n3 4\n4 3\n2 3\n", directed=True)  # one arc
    yield Graph.from_edges(4, [(0, 1), (1, 2), (2, 0)])  # isolated node 3
    yield Graph.from_edges(4, [(1, 2), (2, 3)])  # isolated node 0
    yield Graph.from_edges(0, [], directed=True)
    yield Graph.from_edges(1, [], directed=True)
    yield Graph.from_edges(1, [])


def test_connectivity_matches_scipy_components():
    import scipy.sparse as sp
    from scipy.sparse.csgraph import connected_components

    for g in _connectivity_cases():
        a = sp.csr_array((g.weight, (g.src, g.dst)), shape=(g.n, g.n))
        weak = connected_components(a, directed=True, connection="weak")[0]
        strong = connected_components(a, directed=True,
                                      connection="strong")[0]
        assert is_connected(g) == (g.n > 0 and weak == 1), g
        expected = weak if not g.directed else strong
        assert is_strongly_connected(g) == (g.n > 0 and expected == 1), g


def test_long_directed_ring_connectivity():
    n = 50_000
    src = np.arange(n)
    ring = Graph._from_arrays(n, src, (src + 1) % n, np.ones(n),
                              directed=True)
    assert is_strongly_connected(ring)
    cut = Graph._from_arrays(n, src[1:], (src[1:] + 1) % n, np.ones(n - 1),
                             directed=True)
    assert is_connected(cut)
    assert not is_strongly_connected(cut)


def _lexsort_csr(g, transpose):
    """The CSR of ``A`` or ``A.T`` by a two-key lexsort of all entries."""
    if g.directed:
        rows = g.dst if transpose else g.src
        cols = g.src if transpose else g.dst
        vals = g.weight
    else:
        loops = g.src == g.dst
        rows = np.concatenate([g.src, g.dst[~loops]])
        cols = np.concatenate([g.dst, g.src[~loops]])
        vals = np.concatenate([g.weight, g.weight[~loops]])
    order = np.lexsort((cols, rows))
    rows = rows[order]
    return (np.searchsorted(rows, np.arange(g.n + 1)),
            cols[order].astype(np.int64), vals[order].astype(np.float64),
            rows)


def test_csr_is_bitwise_the_lexsort_csr():
    rng = np.random.default_rng(43)
    graphs = [karate(), six_node_digraph(), Graph.from_edges(5, []),
              Graph.from_edges(5, [], directed=True)]
    for k in range(24):
        n = int(rng.integers(1, 40))
        m = int(rng.integers(0, 4 * n))
        src, dst = rng.integers(0, n, m), rng.integers(0, n, m)
        weight = rng.uniform(0.1, 3.0, m) if k % 2 else np.ones(m)
        loops = k % 3 == 0
        if not loops:
            keep = src != dst
            src, dst, weight = src[keep], dst[keep], weight[keep]
        graphs.append(Graph._from_arrays(n, src, dst, weight,
                                         directed=k % 4 < 2,
                                         allow_loops=loops))
    for h in graphs[:]:  # raw constructor, stored order and shuffled
        for order in (np.arange(h.m), rng.permutation(h.m)):
            graphs.append(Graph(h.n, h.src[order], h.dst[order],
                                h.weight[order], h.directed,
                                h.node_labels.copy()))
    for g in graphs:
        for transpose in (False, True):
            got = g._csr(transpose)
            for have, want in zip(got, _lexsort_csr(g, transpose)):
                assert have.dtype == want.dtype, g
                assert np.array_equal(have, want), g
                assert not have.flags.writeable


def test_raw_constructor_with_unsorted_duplicate_edges_keeps_them_all():
    from scipy.sparse.csgraph import connected_components

    rng = np.random.default_rng(59)
    for directed in (True, False):
        n, m = 12, 60
        src, dst = rng.integers(0, n, m), rng.integers(0, n, m)
        src = np.concatenate([src, src[:9]])
        dst = np.concatenate([dst, dst[:9]])
        weight = rng.uniform(0.1, 3.0, src.shape[0])
        g = Graph(n, src, dst, weight, directed, np.arange(n))
        dense = np.zeros((n, n))
        np.add.at(dense, (src, dst), weight)
        if not directed:
            loops = src == dst
            np.add.at(dense, (dst[~loops], src[~loops]), weight[~loops])
        x = rng.uniform(size=n)
        for transpose in (False, True):
            a = dense.T if transpose else dense
            want = _lexsort_csr(g, transpose)
            got = g._csr(transpose)
            for k in (0, 1, 3):  # indptr, indices, rows
                assert np.array_equal(got[k], want[k])
            assert np.allclose((g.matvec_t if transpose else g.matvec)(x),
                               a @ x, rtol=1e-12, atol=0.0)
        strong = connected_components(dense, directed=True,
                                      connection="strong")[0]
        assert is_strongly_connected(g) == (strong == 1)


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
