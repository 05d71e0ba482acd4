"""Tests of the benchmark harness itself: trace, checks and generator.

    python3 -m pytest perfbench/tests -q
"""

import numpy as np
import pytest
import scipy.sparse.csgraph as csgraph

from perfbench import checks, layertrace, workloads
from perfbench.session import run_invocations
from walkrank import _kernels
from walkrank.datasets import karate
from walkrank.ranking import intersection_distance
from walkrank.spectral import dominant_eigenpair


def _compute(tmp_path, tag, *flags, graph="builtin:karate"):
    out = tmp_path / f"{tag}.csv"
    return workloads.invocation(
        "compute", ["compute", "--input", graph, *flags, "--out", out],
        tmp_path / f"{tag}.stdout", {"type": "scores", "ref": tag,
                                     "file": str(out)})


def _karate_matrix():
    g = karate()
    return workloads.adjacency(g.n, g.src, g.dst, directed=False)


def test_traced_katz_counts_one_eigenpair_and_one_neumann(tmp_path):
    tracer = layertrace.Tracer()
    result = run_invocations([_compute(tmp_path, "katz", "--measure",
                                       "katz")], tracer)
    (run,) = result["invocations"][0]["runs"]
    assert run["exit"] == 0
    snap = tracer.snapshot()
    assert snap["calls"]["spectral.eigenpair"] == 1
    assert snap["calls"]["kernels.neumann"] == 1

    g = karate()
    info = dominant_eigenpair(g, tol=1e-10)
    indptr, indices, data = g.adjacency()
    _, neumann_iters, _ = _kernels.neumann(
        indptr, indices, data, np.ones(g.n), 0.85 / info.lambda1, 1e-10,
        2_000_000)
    assert snap["counts"]["spectral.eigenpair_iters"] == info.iterations
    assert snap["counts"]["kernels.neumann_iters"] == neumann_iters
    # connectivity is reached through spectral's own binding of is_connected
    assert snap["calls"]["graph.connectivity"] == 1
    assert layertrace.covered_s(snap) <= run["seconds"]


def test_tracer_patches_every_binding_and_restores_it():
    import walkrank.graph
    import walkrank.measures
    import walkrank.spectral

    original = walkrank.graph.is_connected
    tracer = layertrace.Tracer()
    with tracer:
        patched = tracer._patched[:]
        assert walkrank.spectral.is_connected is not original
        assert walkrank.measures.is_connected is not original
        assert walkrank.spectral.is_connected is walkrank.graph.is_connected
    assert patched
    for owner, attr, value in patched:
        assert owner.__dict__[attr] is value


def test_tracing_off_leaves_every_attribute_original(tmp_path):
    tracer = layertrace.Tracer()
    with tracer:
        patched = tracer._patched[:]
    result = run_invocations([_compute(tmp_path, "katz", "--measure",
                                       "katz")])
    assert result["invocations"][0]["runs"][0]["exit"] == 0
    for owner, attr, value in patched:
        assert owner.__dict__[attr] is value


def test_counts_repeat_exactly(tmp_path):
    def counts():
        tracer = layertrace.Tracer()
        run_invocations([
            _compute(tmp_path, "tc", "--measure", "total-communicability"),
            workloads.invocation(
                "sweep", ["sweep", "--input", "builtin:six-node",
                          "--measure", "pagerank"],
                tmp_path / "sweep.stdout", {}),
        ], tracer)
        return layertrace.counters(tracer.snapshot())

    first = counts()
    assert first["calls.pagerank.apply"] > 0
    assert first["series.exp_action_matvecs"] > 0
    assert counts() == first


def test_rounds_repeat_the_sequence_within_the_budget(tmp_path):
    invocations = [_compute(tmp_path, "katz", "--measure", "katz"),
                   _compute(tmp_path, "deg", "--measure", "degree")]
    once = run_invocations(invocations)["invocations"]
    assert [len(res["runs"]) for res in once] == [1, 1]

    result = run_invocations(invocations, budget_s=0.5)["invocations"]
    assert min(len(res["runs"]) for res in result) > 1
    for res in result:
        assert {run["exit"] for run in res["runs"]} == {0}
        assert len({run["digest"] for run in res["runs"]}) == 1


def test_perturbed_score_file_counts_as_failed(tmp_path):
    inv = _compute(tmp_path, "katz", "--measure", "katz")
    assert run_invocations([inv])["invocations"][0]["runs"][0]["exit"] == 0
    a = _karate_matrix()
    lam = workloads.dominant_eigenvalue(a, directed=False)
    prepared = workloads.Prepared("karate", 0, 34, False, None, None, None,
                                  {}, lam)
    prepared.refs["katz"] = workloads.katz_reference(
        a, 0.85 / lam, transpose=False, symmetric=True)
    assert checks.check_invocation(inv, prepared, None) is None

    path = tmp_path / "katz.csv"
    lines = path.read_text().splitlines()
    node, score, position = lines[5].split(",")
    lines[5] = f"{node},{float(score) * (1 + 1e-5):.12g},{position}"
    path.write_text("\n".join(lines) + "\n")
    reason = checks.check_invocation(inv, prepared, None)
    assert reason is not None and "relative error" in reason


def test_pagerank_residual_check(tmp_path):
    src, dst = workloads.random_graph(200, 800, 3, directed=True)
    graph = tmp_path / "g.mtx"
    workloads.write_matrix_market(graph, 200, src, dst)
    inv = _compute(tmp_path, "pr", "--measure", "pagerank",
                   graph=str(graph))
    assert run_invocations([inv])["invocations"][0]["runs"][0]["exit"] == 0
    a = workloads.adjacency(200, src, dst, directed=True)
    out = tmp_path / "pr.csv"
    assert checks.check_pagerank(str(out), a, 0.85) is None
    labels, scores = checks.read_scores(str(out))
    scores[[0, 1]] = scores[[1, 0]] * [1.05, 0.95]
    rows = [f"{u},{float(s)!r},{i + 1}"
            for i, (u, s) in enumerate(zip(labels, scores))]
    out.write_text("\n".join(["node,score,rank", *rows]) + "\n")
    assert checks.check_pagerank(str(out), a, 0.85) is not None


def test_isim_matches_library():
    rng = np.random.default_rng(0)
    for n, k in ((1, 1), (7, 3), (50, 50), (200, 17)):
        a, b = rng.permutation(n), rng.permutation(n)
        assert checks.isim(a, b, k) == pytest.approx(
            intersection_distance(a, b, k), abs=1e-12)


@pytest.mark.parametrize("directed", [False, True])
def test_generator_is_seeded_and_connected(directed):
    n, m = 500, 1500
    src, dst = workloads.random_graph(n, m, 7, directed=directed)
    again = workloads.random_graph(n, m, 7, directed=directed)
    assert np.array_equal(src, again[0]) and np.array_equal(dst, again[1])
    assert not np.array_equal(src, workloads.random_graph(
        n, m, 8, directed=directed)[0])
    keys = src * n + dst
    assert np.unique(keys).shape[0] == keys.shape[0]
    assert np.all(src != dst)
    assert m <= keys.shape[0] <= m + n
    a = workloads.adjacency(n, src, dst, directed)
    count, _ = csgraph.connected_components(
        a, directed=directed, connection="strong")
    assert count == 1


def test_edges_parsed_counts_data_lines(tmp_path):
    src, dst = workloads.random_graph(100, 300, 1, directed=True)
    workloads.write_matrix_market(tmp_path / "g.mtx", 100, src, dst)
    workloads.write_edge_list(tmp_path / "g.txt", src, dst)
    for name in ("g.mtx", "g.txt"):
        tracer = layertrace.Tracer()
        out = tmp_path / f"{name}.csv"
        run_invocations([workloads.invocation(
            "compute", ["compute", "--input", tmp_path / name, "--directed",
                        "--measure", "degree", "--out", out],
            tmp_path / "deg.stdout", {})], tracer)
        assert tracer.counts["graph.edges_parsed"] == src.shape[0]
