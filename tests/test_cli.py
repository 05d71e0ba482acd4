import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import walkrank
from walkrank import ValidationError, cli
from walkrank.cli import main
from walkrank.datasets import (
    SIX_NODE_PAGERANK_TABLE,
    SIX_NODE_PAGERANK_TOL,
    six_node_digraph,
)
from walkrank.measures import MEASURES
from walkrank.pagerank import build_model

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


def test_cli_import_loads_no_scipy():
    # scipy is a test dependency only; importing it would add a few tenths
    # of a second to every command
    src = str(Path(walkrank.__file__).resolve().parents[1])
    probe = (f"import sys; sys.path.insert(0, {src!r}); import walkrank.cli; "
             "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, check=True)
    assert done.stdout == "[]\n"


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


CLAMP_NOTE = ("note: alpha=0.9995 clamped to 0.999: conditioning scales "
              "like 1/(1-alpha) and rankings this close to the limit are "
              "unstable\n")


def test_compute_pagerank_reports_the_clamped_alpha(capsys):
    code, out, _ = run(capsys, "compute", "--input", "builtin:six-node",
                       "--measure", "pagerank", "--alpha", "0.9995", "--json")
    assert code == 0
    assert json.loads(out)["parameter"] == 0.999
    _, expected, _ = run(capsys, "compute", "--input", "builtin:six-node",
                         "--measure", "pagerank", "--alpha", "0.999",
                         "--json")
    assert out == expected


@pytest.mark.parametrize("argv", [
    ("compute", "--measure", "pagerank", "--alpha", "0.9995"),
    ("sweep", "--measure", "pagerank", "--grid", "0.5,0.9995"),
    ("compute", "--measure", "heat-kernel", "--t", "1", "--alpha", "0.9995"),
], ids=["compute", "sweep", "heat-kernel"])
def test_library_warnings_print_once_as_notes(capsys, argv):
    for _ in range(2):  # a second run in one process notes it again
        code, _, err = run(capsys, *argv, "--input", "builtin:six-node")
        assert code == 0
        assert err == CLAMP_NOTE


def test_compute_out_of_range_alpha_exits_2(capsys, k3_file):
    code, _, err = run(capsys, "compute", "--input", k3_file,
                       "--measure", "resolvent-subgraph", "--alpha", "99")
    assert code == 2
    assert "t_star" in err or "1/lambda1" in err


@pytest.mark.parametrize(
    "measure", [name for name, m in MEASURES.items() if m.family == "resolvent"])
def test_compute_infeasible_alpha_names_alpha(capsys, measure):
    code, out, err = run(capsys, "compute", "--input", "builtin:karate",
                         "--measure", measure, "--alpha", "0.2")
    assert code == 2
    assert out == ""
    assert err == ("error: alpha must lie in [0, t_star) with t_star = "
                   "1/lambda1 = 0.148683458653; got alpha = 0.2\n")


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


def test_compute_preference_file_rejects_non_number(capsys, tmp_path):
    pref = tmp_path / "pref.txt"
    pref.write_text("0.5\n\nabc\n")
    code, _, err = run(capsys, "compute", "--input", "builtin:six-node",
                       "--measure", "pagerank", "--preference", str(pref))
    assert code == 2
    assert f"{pref}:3:" in err and "'abc'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("weights", [[4, 1, 1, -1, 1, 1],
                                     [4, 1, 1, float("nan"), 1, 1]])
def test_compute_preference_sign_rule_matches_the_library(capsys, tmp_path,
                                                          weights):
    pref = tmp_path / "pref.txt"
    pref.write_text("".join(f"{w}\n" for w in weights))
    code, out, err = run(capsys, "compute", "--input", "builtin:six-node",
                         "--measure", "pagerank", "--preference", str(pref))
    with pytest.raises(ValidationError) as exc_info:
        build_model(six_node_digraph(), 0.85,
                    np.array(weights) / sum(weights))
    assert code == 2 and out == ""
    assert err == f"error: {exc_info.value}\n"  # no rescaling note first


@pytest.mark.parametrize("token", ["1_0", "\u0661", "0.5 0.5"])
def test_compute_preference_file_uses_the_loaders_grammar(capsys, tmp_path,
                                                          token):
    pref = tmp_path / "pref.txt"
    pref.write_text(f"1\n1\n\n{token}\n1\n1\n1\n")
    code, _, err = run(capsys, "compute", "--input", "builtin:six-node",
                       "--measure", "pagerank", "--preference", str(pref))
    assert code == 2
    assert (f"{pref}:4: preference weight must be a number, got {token!r}"
            in err)
    assert "Traceback" not in err


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

def test_missing_input_file_exits_2(capsys, tmp_path):
    missing = tmp_path / "missing.txt"
    code, _, err = run(capsys, "compute", "--input", str(missing),
                       "--measure", "degree")
    assert code == 2
    assert err.startswith("error: ") and str(missing) in err
    assert "Traceback" not in err


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


def test_katz_on_digraph_not_strongly_connected_names_the_remedy(capsys,
                                                                  tmp_path):
    path = tmp_path / "chain.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate pattern general\n3 3 2\n1 2\n2 3\n")
    code, out, err = run(capsys, "compute", "--input", str(path),
                         "--measure", "katz")
    assert code == 2
    assert out == ""
    assert err == (
        "error: directed graph must be strongly connected for a positive "
        "dominant eigenpair (in Python, walkrank.largest_scc extracts its "
        "largest strongly connected component)\n")


@pytest.mark.parametrize("body, message", [
    ("2 2 2\n1 2 0\n2 1 -2\n", "line 4: negative or non-finite weight -2.0"),
    ("2 2 2\n2 2 1\n1 2 1\n",
     "line 3: self-loop at node 2 (pass allow_loops=True to accept)"),
])
def test_mtx_line_fault_exits_2_with_its_line(capsys, tmp_path, body,
                                              message):
    path = tmp_path / "bad.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n" + body)
    code, out, err = run(capsys, "compute", "--input", str(path),
                         "--measure", "degree")
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


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


@pytest.mark.parametrize("argv, message", [
    (("compute", "--measure", "total-communicability", "--beta", "inf"),
     "beta must be finite and non-negative, got inf"),
    (("compute", "--measure", "total-communicability", "--beta", "nan"),
     "beta must be finite and non-negative, got nan"),
    (("compute", "--measure", "heat-kernel", "--t", "nan"),
     "t must be finite and non-negative, got nan"),
    (("compute", "--measure", "katz", "--alpha", "nan"),
     "alpha must be finite and non-negative, got nan"),
    (("compute", "--measure", "exp-subgraph", "--beta", "nan"),
     "beta must be finite and non-negative, got nan"),
    (("compute", "--measure", "resolvent-subgraph", "--alpha=-inf"),
     "alpha must be finite and non-negative, got -inf"),
    (("compute", "--measure", "eigenvector", "--tol", "0"),
     "--tol must be positive and finite, got 0.0"),
    (("compute", "--measure", "eigenvector", "--tol", "nan"),
     "--tol must be positive and finite, got nan"),
    (("compute", "--measure", "katz", "--tol=-1e-10"),
     "--tol must be positive and finite, got -1e-10"),
    (("sweep", "--measure", "katz", "--tol", "inf"),
     "--tol must be positive and finite, got inf"),
])
def test_non_finite_parameter_exits_2_naming_it(capsys, argv, message):
    start = time.perf_counter()
    code, out, err = run(capsys, argv[0], "--input", "builtin:karate",
                         *argv[1:])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_nonconvergence_exits_3(capsys):
    code, _, err = run(capsys, "compute", "--input", "builtin:karate",
                       "--measure", "eigenvector", "--tol", "1e-300")
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


def test_compute_exponential_overflow_stops_at_the_first_inf_entry(capsys):
    # beta * ||A|| needs 2^21 scaling steps; the sum overflows after a few
    # thousand, and the run must stop there
    start = time.perf_counter()
    code, _, err = run(capsys, "compute", "--input", "builtin:karate",
                       "--measure", "total-communicability", "--beta", "1e5")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert "overflows float64 at beta = 100000" in err


def test_compute_beta_past_the_taylor_step_range_exits_2(capsys):
    code, out, err = run(capsys, "compute", "--synth", "ring", "--n", "3",
                         "--measure", "total-communicability", "--beta",
                         "1.7e308")
    assert (code, out) == (2, "")
    assert err.startswith("error: exp(beta*A) at beta = 1.7e+308 needs "
                          "over 2**1023 Taylor steps")
    assert "Traceback" not in err


@pytest.mark.parametrize("beta, steps", [("1e300", 997), ("1e100", 333)])
def test_compute_nilpotent_beta_past_the_step_budget_exits_2_at_once(
        capsys, tmp_path, beta, steps):
    # the directed path is nilpotent: its Taylor sum never overflows, and
    # the 2**997 planned steps ran until a timeout stopped them
    path = tmp_path / "path.mtx"
    path.write_text("%%MatrixMarket matrix coordinate pattern general\n"
                    "3 3 2\n1 2\n2 3\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "compute", "--input", str(path),
                         "--measure", "total-communicability", "--beta", beta)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == (f"error: exp(beta*A) at beta = {float(beta):.12g} needs "
                   f"2**{steps} Taylor steps, past the 2**32 that a run can "
                   "finish; use a smaller beta\n")


def test_sweep_bad_grid_string_exits_2(capsys):
    code, _, err = run(capsys, "sweep", "--input", "builtin:karate",
                       "--measure", "katz", "--grid", "0.01,zap")
    assert code == 2
    assert "comma-separated" in err


@pytest.mark.parametrize("grid", ["nan,0.01,0.02", "0.01,nan,0.02",
                                  "0.01,nan", "nan"])
def test_sweep_nan_grid_point_exits_2_before_any_solve(capsys, monkeypatch,
                                                        grid):
    def no_solve(*args):
        raise AssertionError("solved before checking the grid")

    monkeypatch.setattr(walkrank._kernels, "csr_matvec", no_solve)
    code, out, err = run(capsys, "sweep", "--input", "builtin:karate",
                         "--measure", "katz", "--grid", grid)
    assert (code, out, err) == (
        2, "", "error: grid points must be numbers, got nan\n")


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


def test_sweep_side_is_the_side_compute_reports(capsys, tmp_path):
    from walkrank.generators import strongly_connected_digraph
    from walkrank.graph import dump_edge_list
    from walkrank.measures import MEASURES, SWEEPABLE

    digraph = tmp_path / "digraph.txt"
    dump_edge_list(strongly_connected_digraph(12, 0.3, 9), str(digraph))
    for graph in (("--input", str(digraph), "--directed"),
                  ("--input", "builtin:karate")):
        for measure in SWEEPABLE:
            if MEASURES[measure].diagonal and "--directed" in graph:
                continue
            for side in ("broadcast", "receive"):
                argv = (*graph, "--measure", measure, "--side", side,
                        "--json")
                code, out, _ = run(capsys, "compute", *argv)
                assert code == 0
                computed = json.loads(out)["side"]
                code, out, _ = run(capsys, "sweep", *argv)
                assert code == 0
                assert json.loads(out)["sweep"]["side"] == computed, argv


def test_side_receive_is_noted_where_the_measure_scores_one_side(capsys,
                                                                 tmp_path):
    from walkrank.generators import strongly_connected_digraph
    from walkrank.graph import dump_edge_list

    digraph = tmp_path / "digraph.txt"
    dump_edge_list(strongly_connected_digraph(12, 0.3, 9), str(digraph))
    for graph in (("--input", str(digraph), "--directed"),
                  ("--input", "builtin:karate")):
        for name, spec in MEASURES.items():
            if spec.diagonal and "--directed" in graph:
                continue
            argv = (*graph, "--measure", name, "--side", "receive")
            if spec.required:
                argv += (spec.flag, "1")
            noted = ("--directed" in graph
                     and name in ("pagerank", "heat-kernel"))
            expected = ([f"note: --side receive ignored: {name} scores the "
                         "broadcast side only"] if noted else [])
            commands = ("compute", "sweep") if spec.sweepable else ("compute",)
            for command in commands:
                code, _, err = run(capsys, command, *argv)
                assert code == 0
                notes = [line for line in err.splitlines() if "--side" in line]
                assert notes == expected, (command, argv)


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


def test_compare_missing_file_exits_2(capsys, tmp_path):
    present = tmp_path / "a.csv"
    present.write_text("1,0.5\n")
    missing = tmp_path / "b.csv"
    code, _, err = run(capsys, "compare", str(present), str(missing))
    assert code == 2
    assert err.startswith("error: ") and str(missing) in err
    assert "Traceback" not in err


def test_compare_rejects_empty_file(capsys, tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("node,score\n")
    code, _, err = run(capsys, "compare", str(empty), str(empty))
    assert code == 2
    assert "no score rows" in err


# score-file text -> (exit code, stderr after "<path>"); None: compare runs
SCORE_FILES = {
    "header-and-separators": ("node,score,rank\n# c\n\n1, 0.5,2\n2\t1.5 1\n",
                              None),
    "one-column": ("node,score\n1,0.5\n2\n",
                   ":3: expected 'node score' columns"),
    "separators-only": ("1,0.5\n , \n2,1\n",
                        ":2: expected 'node score' columns"),
    "one-column-on-line-1": ("node\n1,0.5\n",
                             ":1: expected 'node score' columns"),
    "header-below-line-1": ("# c\nnode,score\n1,0.5\n",
                            ":2: expected 'node score' columns, got "
                            "'node,score'"),
    "bad-score": ("1,0.5\n2,high\n",
                  ":2: expected 'node score' columns, got '2,high'"),
    "nan-score": ("node,score\n1,0.5\n2,nan\n3,1\n",
                  ":3: score must be finite, got '2,nan'"),
    "inf-score": ("1 0.5\n2 1\n# c\n3 -inf\n",
                  ":4: score must be finite, got '3 -inf'"),
    "bad-node-last-line": ("".join(f"{k},{k}.5\n" for k in range(3000))
                           + "1.5,2",
                           ":3001: expected 'node score' columns, got "
                           "'1.5,2'"),
    "node-beyond-int64": ("1,0.5\n9223372036854775808,1\n",
                          ":2: expected 'node score' columns, got "
                          "'9223372036854775808,1'"),
    "no-rows": ("node,score\n# c\n", ": no score rows found"),
    "repeated-node": ("node,score\n1,0.5\n2,1\n# c\n1,3\n2,2\n",
                      ":5: node 1 appears twice, first on line 2"),
}


@pytest.mark.parametrize("case", sorted(SCORE_FILES))
def test_compare_score_file_rules(capsys, tmp_path, case):
    text, message = SCORE_FILES[case]
    path = tmp_path / "scores.csv"
    path.write_text(text)
    code, out, err = run(capsys, "compare", str(path), str(path))
    if message is None:
        assert (code, out, err) == (0, "0\n", "")
    else:
        assert (code, out, err) == (2, "", f"error: {path}{message}\n")


def _reader_outcome(read, *args):
    try:
        arrays = read(*args)
    except walkrank.ValidationError as exc:
        return str(exc)
    if not isinstance(arrays, tuple):
        arrays = (arrays,)
    return [(a.dtype, a.tobytes()) for a in arrays]


def test_score_and_preference_readers_parse_first_like_the_numbered_view(
        monkeypatch, tmp_path):
    # comment-free files take the raw lines; the numbered view must agree
    rng = np.random.default_rng(20253)
    pads = [" ", "\t", "\x0c", "\xa0", "\x1c", "\x0b"]
    tokens = ["x", "1.5", "1_0", "", "nan", "-0.5", "1e3"]
    cases = []
    for case in range(60):
        m = int(rng.integers(1040, 1200)) if case % 6 == 0 else \
            int(rng.integers(1, 20))
        score = case % 2 == 0
        rows = [[str(k), f"{rng.uniform(0, 5):.6g}"] if score
                else [f"{rng.uniform(0, 5):.6g}"] for k in range(1, m + 1)]
        if rng.random() < 0.5:
            at = rng.choice([0, m - 1, min(m - 1, 1030)])
            rows[at][int(rng.integers(0, len(rows[at])))] = str(
                rng.choice(tokens))
        lines = []
        for row in rows:
            if rng.random() < 0.05:
                lines.append(str(rng.choice(pads)))
            pad = "".join(rng.choice(pads, int(rng.integers(0, 2))))
            lines.append(pad + str(rng.choice([",", " ", ", "])).join(row)
                         + pad)
        if score and rng.random() < 0.5:
            lines.insert(0, "node,score,rank")
        path = tmp_path / f"{case}.txt"
        path.write_text("\n".join(lines) + "\n" * int(rng.integers(0, 2)),
                        encoding="utf-8")
        cases.append((cli._read_score_file, str(path)) if score
                     else (cli._load_preference, str(path), m))
    with monkeypatch.context() as patch:
        read = cli._read_lines
        patch.setattr(cli, "_read_lines", lambda path, comments:
                      cli._numbered(read(path, comments)))
        numbered = [_reader_outcome(*case) for case in cases]
    assert 10 < sum(isinstance(o, str) for o in numbered) < 50
    for case, want in zip(cases, numbered):
        assert _reader_outcome(*case) == want, case


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


# ---------------------------------------------------------------------------
# graphs with no edges
# ---------------------------------------------------------------------------

TINY_GRAPHS = {
    "zero-nodes": "%%MatrixMarket matrix coordinate pattern symmetric\n0 0 0\n",
    "one-node": "%%MatrixMarket matrix coordinate pattern symmetric\n1 1 0\n",
    "one-node-directed":
        "%%MatrixMarket matrix coordinate pattern general\n1 1 0\n",
}


@pytest.mark.parametrize("graph", sorted(TINY_GRAPHS))
@pytest.mark.parametrize("measure", sorted(MEASURES))
def test_graphs_without_edges_exit_0_or_2_with_one_error_line(
        capsys, tmp_path, measure, graph):
    path = tmp_path / f"{graph}.mtx"
    path.write_text(TINY_GRAPHS[graph])
    runs = [("compute", "--input", str(path), "--measure", measure)]
    if measure == "heat-kernel":
        runs[0] += ("--t", "1")
    if MEASURES[measure].sweepable:
        runs.append(("sweep", "--input", str(path), "--measure", measure))
    for argv in runs:
        code, _, err = run(capsys, *argv)
        assert code in (0, 2), argv
        assert err == "" or (err.startswith("error: ")
                             and err.count("\n") == 1), (argv, err)
