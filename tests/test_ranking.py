import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walkrank import (
    DomainError,
    UnsupportedOperationError,
    ValidationError,
    convergence_report,
    dominant_eigenpair,
    equal_modulo_ties,
    intersection_distance,
    limit_sweep,
    rank,
)
from walkrank.datasets import karate, six_node_digraph
from walkrank.generators import strongly_connected_digraph
from walkrank.measures import EXP_FAMILY_GRID, RESOLVENT_FAMILY_FRACTIONS
from walkrank.ranking import _align_to

from oracles import brute_isim


# ---------------------------------------------------------------------------
# rank
# ---------------------------------------------------------------------------

def test_rank_orders_descending_with_id_tiebreak():
    r = rank([1.0, 2.0, 1.0])
    assert list(r.order) == [1, 0, 2]
    assert r.tie_groups == ((0,), (1, 2))
    assert r.group_ids() == ((1,), (0, 2))
    assert r.n == 3


def test_rank_tie_tolerance_is_relative_and_chained():
    scores = [1.0, 1.0 + 5e-10, 2.0]
    r = rank(scores)
    assert r.tie_groups == ((0,), (1, 2))
    tight = rank(scores, tie_tol=1e-12)
    assert tight.tie_groups == ((0,), (1,), (2,))


def test_rank_validation():
    with pytest.raises(ValidationError):
        rank([1.0, float("nan")])
    with pytest.raises(ValidationError):
        rank([[1.0, 2.0]])


def test_rank_affine_invariance():
    rng = np.random.default_rng(23)
    for _ in range(20):
        scores = rng.standard_normal(int(rng.integers(1, 30)))
        a = float(rng.uniform(0.1, 10.0))
        b = float(rng.uniform(-5.0, 5.0))
        assert list(rank(a * scores + b).order) == list(rank(scores).order)


@given(st.lists(st.integers(min_value=-100, max_value=100), min_size=1,
                max_size=25),
       st.floats(min_value=0.01, max_value=100.0),
       st.floats(min_value=-100.0, max_value=100.0))
def test_rank_affine_invariance_property(values, a, b):
    scores = np.array(values, dtype=float)
    assert list(rank(a * scores + b).order) == list(rank(scores).order)


# ---------------------------------------------------------------------------
# intersection distance
# ---------------------------------------------------------------------------

def test_isim_identical_is_zero():
    assert intersection_distance([3, 1, 2], [3, 1, 2]) == 0.0


def test_isim_reversed_pair_at_k1():
    assert intersection_distance([0, 1], [1, 0], k=1) == 1.0


def test_isim_top_swap_is_half_at_k2():
    # depth 1 prefixes disagree, depth 2 prefixes agree as sets
    assert intersection_distance([0, 1, 2], [1, 0, 2], k=2) == 0.5


def test_isim_disjoint_prefixes():
    assert intersection_distance([0, 1, 2, 3], [3, 2, 1, 0], k=2) == 1.0


def test_isim_accepts_rankings():
    a = rank([3.0, 2.0, 1.0])
    b = rank([1.0, 2.0, 3.0])
    assert intersection_distance(a, b) == intersection_distance(a.order,
                                                                b.order)


def test_isim_validation():
    with pytest.raises(ValidationError):
        intersection_distance([0, 1], [0, 1, 2])
    with pytest.raises(ValidationError):
        intersection_distance([0, 1, 2], [0, 0, 1])
    with pytest.raises(ValidationError):
        intersection_distance([0, 0, 1], [0, 1, 2])
    with pytest.raises(ValidationError):
        intersection_distance([0, 1, 2], [4, 5, 6])
    with pytest.raises(ValidationError):
        intersection_distance([0, 1], [1, 0], k=0)
    with pytest.raises(ValidationError):
        intersection_distance([0, 1], [1, 0], k=3)


@st.composite
def _two_permutations(draw):
    n = draw(st.integers(min_value=1, max_value=10))
    perm = np.arange(n)
    a = draw(st.permutations(perm))
    b = draw(st.permutations(perm))
    k = draw(st.integers(min_value=1, max_value=n))
    return np.array(a), np.array(b), k


@settings(max_examples=200)
@given(_two_permutations())
def test_isim_matches_brute_force_and_is_symmetric(case):
    a, b, k = case
    d = intersection_distance(a, b, k)
    assert d == pytest.approx(brute_isim(list(a), list(b), k), abs=1e-12)
    assert d == pytest.approx(intersection_distance(b, a, k), abs=1e-12)
    assert 0.0 <= d <= 1.0


# ---------------------------------------------------------------------------
# tie-aware comparison helpers
# ---------------------------------------------------------------------------

def test_equal_modulo_ties():
    reference = rank([2.0, 1.0, 1.0, 0.5])  # ties 1 and 2
    assert equal_modulo_ties([0, 1, 2, 3], reference)
    assert equal_modulo_ties([0, 2, 1, 3], reference)
    assert not equal_modulo_ties([0, 1, 3, 2], reference)
    assert not equal_modulo_ties([1, 0, 2, 3], reference)
    with pytest.raises(ValidationError):
        equal_modulo_ties([0, 1], reference)


def test_align_to_reorders_within_reference_ties_only():
    reference = rank([2.0, 1.0, 1.0, 0.5])
    aligned = _align_to(reference, np.array([0, 2, 1, 3]))
    assert list(aligned) == [0, 2, 1, 3]
    aligned = _align_to(reference, np.array([2, 3, 1, 0]))
    # group {1, 2} follows the candidate's relative order (2 before 1)
    assert list(aligned) == [0, 2, 1, 3]


# ---------------------------------------------------------------------------
# limit_sweep
# ---------------------------------------------------------------------------

def test_sweep_default_grids():
    g = karate()
    exp = limit_sweep(g, "exp-subgraph")
    assert list(exp.parameters) == list(EXP_FAMILY_GRID)
    assert exp.side == "symmetric"
    res = limit_sweep(g, "resolvent-subgraph")
    assert res.parameters.shape[0] == len(RESOLVENT_FAMILY_FRACTIONS)
    lam1 = dominant_eigenpair(g).lambda1
    assert res.t_star == pytest.approx(1.0 / lam1)
    assert np.allclose(res.parameters,
                       np.array(RESOLVENT_FAMILY_FRACTIONS) * res.t_star)


def test_sweep_small_parameter_restores_degree_ranking():
    g = karate()
    sweep = limit_sweep(g, "exp-subgraph", grid=[1e-6])
    assert sweep.isim_to_degree[0] == 0.0
    assert math.isnan(sweep.isim_successive[0])


def test_sweep_endpoint_restores_eigenvector_ranking():
    g = karate()
    sweep = limit_sweep(g, "total-communicability", grid=[0.1, 30.0],
                        tie_tol=1e-3)
    assert sweep.isim_to_eigenvector[-1] == 0.0


def test_sweep_successive_distances_shrink_on_karate():
    sweep = limit_sweep(karate(), "total-communicability")
    assert sweep.isim_successive[-1] < sweep.isim_successive[1]
    assert sweep.isim_successive[-1] == 0.0


def test_sweep_grid_validation():
    g = karate()
    with pytest.raises(DomainError, match="feasible"):
        limit_sweep(g, "resolvent-subgraph", grid=[0.2])  # t* ~ 0.1487
    with pytest.raises(ValidationError):
        limit_sweep(g, "katz", grid=[0.05, 0.05])
    with pytest.raises(ValidationError):
        limit_sweep(g, "katz", grid=[])
    with pytest.raises(DomainError):
        limit_sweep(g, "exp-subgraph", grid=[0.0, 1.0])
    with pytest.raises(ValidationError):
        limit_sweep(g, "betweenness")
    with pytest.raises(ValidationError):
        limit_sweep(g, "katz", k=0)
    with pytest.raises(ValidationError):
        limit_sweep(g, "katz", side="middle")


def test_sweep_rejects_directed_diagonals():
    g = strongly_connected_digraph(8, 0.3, 1)
    with pytest.raises(UnsupportedOperationError):
        limit_sweep(g, "exp-subgraph")
    with pytest.raises(UnsupportedOperationError):
        limit_sweep(g, "resolvent-subgraph")


def test_sweep_directed_sides_use_matching_references():
    g = strongly_connected_digraph(12, 0.3, 9)
    from walkrank.graph import degrees as graph_degrees

    out_deg, in_deg = graph_degrees(g)
    broadcast = limit_sweep(g, "katz", side="broadcast", grid=[1e-6],
                            tol=1e-12)
    receive = limit_sweep(g, "katz", side="receive", grid=[1e-6], tol=1e-12)
    assert list(broadcast.reference_degree.order) == list(rank(out_deg).order)
    assert list(receive.reference_degree.order) == list(rank(in_deg).order)
    assert broadcast.isim_to_degree[0] == 0.0
    assert receive.isim_to_degree[0] == 0.0
    assert broadcast.side == "broadcast" and receive.side == "receive"


def test_sweep_pagerank_uses_rowsum_and_endpoint_references():
    g = six_node_digraph()
    sweep = limit_sweep(g, "pagerank", grid=[0.001, 0.5, 0.99])
    assert sweep.t_star == 1.0
    assert sweep.isim_to_degree[0] == 0.0  # alpha -> 0 recovers H1 ranking
    assert sweep.isim_to_eigenvector[-1] == 0.0  # alpha -> cap ranking
    assert sweep.measure == "pagerank"


def test_sweep_csv_shape():
    sweep = limit_sweep(karate(), "exp-subgraph")
    lines = sweep.to_csv().strip().split("\n")
    assert lines[0] == "parameter,isim_degree,isim_eigenvector,isim_successive"
    assert len(lines) == 1 + len(EXP_FAMILY_GRID)
    assert lines[1].endswith(",")  # no successive distance at the first point
    assert len(lines[2].split(",")) == 4


def test_sweep_json_roundtrip():
    sweep = limit_sweep(karate(), "katz", grid=[0.01, 0.05])
    doc = json.loads(sweep.to_json())
    assert doc["measure"] == "katz"
    assert len(doc["rows"]) == 2
    assert doc["rows"][0]["isim_successive"] is None
    assert doc["rows"][1]["parameter"] == 0.05
    assert doc["t_star"] == pytest.approx(sweep.t_star)


def test_sweep_k_prefix():
    sweep = limit_sweep(karate(), "exp-subgraph", grid=[0.5, 1.0], k=5)
    assert sweep.k == 5
    assert np.all(sweep.isim_to_degree >= 0.0)


# ---------------------------------------------------------------------------
# convergence_report
# ---------------------------------------------------------------------------

def test_report_band_on_karate_resolvent():
    sweep = limit_sweep(karate(), "resolvent-subgraph")
    report = convergence_report(sweep)
    assert report.band is not None
    lo, hi = report.band
    assert 0.5 * sweep.t_star <= lo <= hi <= 0.9 * sweep.t_star
    assert report.band_indices  # contiguous run of grid indices
    assert "report rankings" in report.recommendation
    text = report.render()
    assert "informative band" in text and "resolvent-subgraph" in text


def test_report_no_band_when_every_point_tracks_a_limit():
    sweep = limit_sweep(karate(), "exp-subgraph")
    report = convergence_report(sweep)
    assert report.band is None
    assert "refine the grid" in report.recommendation
    assert report.degree_violations == ()
    assert report.eigenvector_violations == ()


def test_report_single_point_sweep_degenerates():
    sweep = limit_sweep(karate(), "exp-subgraph", grid=[1.0])
    report = convergence_report(sweep)
    assert report.band is None
    assert "single-point" in report.recommendation


def test_report_json():
    sweep = limit_sweep(karate(), "resolvent-subgraph")
    doc = convergence_report(sweep).to_json_dict()
    assert doc["measure"] == "resolvent-subgraph"
    assert isinstance(doc["band"], list) and len(doc["band"]) == 2
    assert doc["threshold"] == 0.05
