import json
import math

import numpy as np
import pytest

from walkrank.cli import main
from walkrank.datasets import (
    SIX_NODE_PAGERANK_TABLE,
    SIX_NODE_PAGERANK_TOL,
)

K3 = "1 2\n1 3\n2 3\n"


@pytest.fixture
def k3_file(tmp_path):
    path = tmp_path / "k3.txt"
    path.write_text(K3)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# compute
# ---------------------------------------------------------------------------

def test_compute_katz_on_triangle(capsys, k3_file):
    code, out, _ = run(capsys, "compute", "--input", k3_file,
                       "--measure", "katz", "--alpha", "0.25")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "node,score,rank"
    assert len(lines) == 4
    for line in lines[1:]:
        node, score, position = line.split(",")
        assert float(score) == pytest.approx(2.0, abs=1e-9)
    assert [line.split(",")[0] for line in lines[1:]] == ["1", "2", "3"]


def test_compute_pagerank_six_node_digits(capsys):
    code, out, _ = run(capsys, "compute", "--input", "builtin:six-node",
                       "--measure", "pagerank", "--alpha", "0.9")
    assert code == 0
    rows = out.strip().split("\n")[1:]
    scores = {int(r.split(",")[0]): float(r.split(",")[1]) for r in rows}
    table = SIX_NODE_PAGERANK_TABLE[0.9]
    tolerances = SIX_NODE_PAGERANK_TOL[0.9]
    for node in range(1, 7):
        assert abs(scores[node] - table[node - 1]) <= tolerances[node - 1]
    assert [int(r.split(",")[0]) for r in rows] == [4, 6, 5, 2, 3, 1]


def test_compute_out_of_range_alpha_exits_2(capsys, k3_file):
    code, _, err = run(capsys, "compute", "--input", k3_file,
                       "--measure", "resolvent-subgraph", "--alpha", "99")
    assert code == 2
    assert "t_star" in err or "1/lambda1" in err


def test_compute_scores_print_12_significant_digits(capsys, k3_file):
    code, out, _ = run(capsys, "compute", "--input", k3_file,
                       "--measure", "total-communicability", "--beta", "1")
    assert code == 0
    score = out.strip().split("\n")[1].split(",")[1]
    assert score == f"{math.e ** 2:.12g}"


def test_compute_json_payload(capsys, k3_file):
    code, out, _ = run(capsys, "compute", "--input", k3_file,
                       "--measure", "degree", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["measure"] == "degree"
    assert doc["side"] == "symmetric"
    assert [row["node"] for row in doc["scores"]] == [1, 2, 3]
    assert all(row["score"] == 2.0 for row in doc["scores"])


def test_compute_hits_sides(capsys, tmp_path):
    path = tmp_path / "star.txt"
    path.write_text("1 2\n1 3\n1 4\n")
    code, out, _ = run(capsys, "compute", "--input", str(path), "--directed",
                       "--measure", "hits", "--side", "broadcast")
    assert code == 0
    top = out.strip().split("\n")[1].split(",")
    assert top[0] == "1" and float(top[1]) == pytest.approx(1.0)
    code, out, _ = run(capsys, "compute", "--input", str(path), "--directed",
                       "--measure", "hits", "--side", "receive")
    assert code == 0
    rows = out.strip().split("\n")[1:]
    authority_of_hub = [r for r in rows if r.split(",")[0] == "1"][0]
    assert float(authority_of_hub.split(",")[1]) == pytest.approx(0.0, abs=1e-9)


def test_compute_heat_kernel_requires_t(capsys):
    code, _, err = run(capsys, "compute", "--input", "builtin:six-node",
                       "--measure", "heat-kernel")
    assert code == 2
    assert "--t" in err
    code, out, _ = run(capsys, "compute", "--input", "builtin:six-node",
                       "--measure", "heat-kernel", "--t", "50")
    assert code == 0
    rows = out.strip().split("\n")[1:]
    assert [int(r.split(",")[0]) for r in rows] == [4, 6, 5, 2, 3, 1]


def test_compute_pagerank_preference_file(capsys, tmp_path):
    pref = tmp_path / "pref.txt"
    pref.write_text("4\n1\n1\n1\n1\n1\n")  # rescaled with a stderr note
    code, out, err = run(capsys, "compute", "--input", "builtin:six-node",
                         "--measure", "pagerank", "--alpha", "0.5",
                         "--preference", str(pref))
    assert code == 0
    assert "rescaled" in err
    from oracles import dense_pagerank
    from walkrank.datasets import six_node_digraph

    v = np.array([4, 1, 1, 1, 1, 1], dtype=float)
    expected = dense_pagerank(six_node_digraph(), 0.5, v / v.sum())
    rows = out.strip().split("\n")[1:]
    scores = {int(r.split(",")[0]): float(r.split(",")[1]) for r in rows}
    for node in range(1, 7):
        assert scores[node] == pytest.approx(expected[node - 1], abs=1e-9)


def test_compute_preference_file_validation(capsys, tmp_path):
    pref = tmp_path / "pref.txt"
    pref.write_text("1\n1\n")  # wrong length
    code, _, err = run(capsys, "compute", "--input", "builtin:six-node",
                       "--measure", "pagerank", "--preference", str(pref))
    assert code == 2
    assert "6 nodes" in err


def test_compute_writes_output_file(capsys, tmp_path, k3_file):
    out_path = tmp_path / "scores.csv"
    code, out, _ = run(capsys, "compute", "--input", k3_file,
                       "--measure", "degree", "--out", str(out_path))
    assert code == 0
    assert out == ""
    assert out_path.read_text().startswith("node,score,rank\n")


# ---------------------------------------------------------------------------
# input plumbing
# ---------------------------------------------------------------------------

def test_zero_based_edge_list_detected(capsys, tmp_path):
    path = tmp_path / "zero.txt"
    path.write_text("0 1\n1 2\n")
    code, out, err = run(capsys, "compute", "--input", str(path),
                         "--measure", "degree")
    assert code == 0
    assert "0-based" in err
    assert [r.split(",")[0] for r in out.strip().split("\n")[1:]] == \
        ["1", "0", "2"]


def test_mtx_input_inferred_from_extension(capsys, tmp_path):
    path = tmp_path / "graph.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 3\n"
        "2 1\n3 1\n3 2\n")
    code, out, _ = run(capsys, "compute", "--input", str(path),
                       "--measure", "degree")
    assert code == 0
    assert all(r.split(",")[1] == "2" for r in out.strip().split("\n")[1:])


def test_mtx_directed_flag_warns(capsys, tmp_path):
    path = tmp_path / "graph.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate pattern symmetric\n2 2 1\n2 1\n")
    code, _, err = run(capsys, "compute", "--input", str(path), "--directed",
                       "--measure", "degree")
    assert code == 0
    assert "symmetry governs" in err


def test_synth_graphs(capsys):
    code, out_first, _ = run(capsys, "compute", "--synth", "er", "--n", "20",
                             "--p", "0.3", "--seed", "7",
                             "--measure", "degree")
    assert code == 0
    code, out_second, _ = run(capsys, "compute", "--synth", "er", "--n", "20",
                              "--p", "0.3", "--seed", "7",
                              "--measure", "degree")
    assert out_first == out_second  # same seed, same graph

    code, _, err = run(capsys, "compute", "--synth", "er", "--n", "20",
                       "--p", "0.3", "--measure", "degree")
    assert code == 2
    assert "--seed" in err

    code, out, _ = run(capsys, "compute", "--synth", "ring", "--n", "5",
                       "--measure", "degree")
    assert code == 0
    assert all(r.split(",")[1] == "2" for r in out.strip().split("\n")[1:])


def test_missing_input_exits_2(capsys):
    code, _, err = run(capsys, "compute", "--measure", "degree")
    assert code == 2
    assert "--input" in err or "--synth" in err


def test_unknown_builtin_exits_2(capsys):
    code, _, err = run(capsys, "compute", "--input", "builtin:petersen",
                       "--measure", "degree")
    assert code == 2
    assert "builtin" in err


def test_malformed_edge_list_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1 2\nbroken\n")
    code, _, err = run(capsys, "compute", "--input", str(path),
                       "--measure", "degree")
    assert code == 2
    assert "line 2" in err


def test_nonconvergence_exits_3(capsys):
    code, _, err = run(capsys, "compute", "--input", "builtin:karate",
                       "--measure", "eigenvector", "--tol", "0")
    assert code == 3
    assert "did not reach" in err


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_karate_exponential_default_grid(capsys):
    code, out, _ = run(capsys, "sweep", "--input", "builtin:karate",
                       "--measure", "exp-subgraph")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "parameter,isim_degree,isim_eigenvector,isim_successive"
    assert len([l for l in lines if l and l[0].isdigit()]) == 7
    assert "informative band" in out
    assert "recommendation" in out


def test_sweep_karate_resolvent_default_grid(capsys):
    code, out, _ = run(capsys, "sweep", "--input", "builtin:karate",
                       "--measure", "resolvent-subgraph")
    assert code == 0
    lines = out.strip().split("\n")
    data_rows = [l for l in lines if l and l[0].isdigit()]
    assert len(data_rows) == 9


def test_sweep_grid_beyond_feasible_interval_exits_2(capsys):
    code, _, err = run(capsys, "sweep", "--input", "builtin:karate",
                       "--measure", "resolvent-subgraph", "--grid",
                       "0.01,0.2")
    assert code == 2
    assert "feasible" in err


def test_sweep_exponential_overflow_exits_2(capsys):
    code, _, err = run(capsys, "sweep", "--synth", "ring", "--n", "3",
                       "--measure", "total-communicability", "--grid",
                       "1,400")
    assert code == 2
    assert "overflows float64 at beta = 400" in err


def test_sweep_bad_grid_string_exits_2(capsys):
    code, _, err = run(capsys, "sweep", "--input", "builtin:karate",
                       "--measure", "katz", "--grid", "0.01,zap")
    assert code == 2
    assert "comma-separated" in err


def test_sweep_writes_csv_and_prints_report(capsys, tmp_path):
    out_path = tmp_path / "sweep.csv"
    code, out, _ = run(capsys, "sweep", "--input", "builtin:karate",
                       "--measure", "exp-subgraph", "--grid", "0.5,1,2",
                       "--out", str(out_path))
    assert code == 0
    csv_text = out_path.read_text()
    assert csv_text.startswith("parameter,")
    assert len(csv_text.strip().split("\n")) == 4
    assert "recommendation" in out  # report still on stdout


def test_sweep_json_document(capsys):
    code, out, _ = run(capsys, "sweep", "--input", "builtin:karate",
                       "--measure", "exp-subgraph", "--grid", "0.5,1", "--json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["sweep"]["rows"]) == 2
    assert doc["report"]["threshold"] == 0.05


def test_sweep_pagerank_six_node(capsys):
    code, out, _ = run(capsys, "sweep", "--input", "builtin:six-node",
                       "--measure", "pagerank", "--grid", "0.001,0.5,0.99")
    assert code == 0
    first_row = [l for l in out.strip().split("\n") if l[0].isdigit()][0]
    assert float(first_row.split(",")[1]) == 0.0  # H1 ranking at tiny alpha


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def _write_scores(path, rows):
    path.write_text("node,score\n" + "\n".join(f"{n},{s}" for n, s in rows)
                    + "\n")


def test_compare_identical_files(capsys, tmp_path):
    a = tmp_path / "a.csv"
    _write_scores(a, [(1, 3.0), (2, 2.0), (3, 1.0)])
    code, out, _ = run(capsys, "compare", str(a), str(a))
    assert code == 0
    assert float(out.strip()) == 0.0


def test_compare_reversed_pair_at_k1(capsys, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    _write_scores(a, [(1, 2.0), (2, 1.0)])
    _write_scores(b, [(1, 1.0), (2, 2.0)])
    code, out, _ = run(capsys, "compare", str(a), str(b), "--k", "1")
    assert code == 0
    assert float(out.strip()) == 1.0


def test_compare_top_swap_half(capsys, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    _write_scores(a, [(1, 3.0), (2, 2.0), (3, 1.0)])
    _write_scores(b, [(1, 2.0), (2, 3.0), (3, 1.0)])
    code, out, _ = run(capsys, "compare", str(a), str(b), "--k", "2")
    assert code == 0
    assert float(out.strip()) == 0.5


def test_compare_node_set_mismatch_exits_2(capsys, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    _write_scores(a, [(1, 3.0), (2, 2.0)])
    _write_scores(b, [(1, 3.0), (7, 2.0)])
    code, _, err = run(capsys, "compare", str(a), str(b))
    assert code == 2
    assert "same set" in err


def test_compare_json(capsys, tmp_path):
    a = tmp_path / "a.csv"
    _write_scores(a, [(1, 3.0), (2, 2.0), (3, 1.0)])
    code, out, _ = run(capsys, "compare", str(a), str(a), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"isim": 0.0, "k": 3}


def test_compute_output_roundtrips_through_compare(capsys, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for path, beta in ((a, "1"), (b, "8")):
        code, _, _ = run(capsys, "compute", "--input", "builtin:karate",
                         "--measure", "total-communicability",
                         "--beta", beta, "--out", str(path))
        assert code == 0
    code, out, _ = run(capsys, "compare", str(a), str(a))
    assert code == 0 and float(out.strip()) == 0.0
    code, out, _ = run(capsys, "compare", str(a), str(b))
    assert code == 0
    assert 0.0 <= float(out.strip()) <= 1.0


def test_compare_rejects_empty_file(capsys, tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("node,score\n")
    code, _, err = run(capsys, "compare", str(empty), str(empty))
    assert code == 2
    assert "no score rows" in err


# ---------------------------------------------------------------------------
# pagerank demo
# ---------------------------------------------------------------------------

def test_pagerank_demo_passes_and_prints_rankings(capsys):
    code, out, _ = run(capsys, "pagerank-demo")
    assert code == 0
    assert out.count("ranking: 4 6 5 2 3 1") == 4
    assert "H row sums" in out
    assert "limit ranking: 4 6 2 5 3 1" in out  # tie order: 2 before 5 by id
    assert "all values match" in out
    for alpha in ("0.9", "0.1", "0.01", "0.001"):
        assert f"alpha = {alpha}" in out
