import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walkrank import (
    DomainError,
    Graph,
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
from walkrank.generators import (
    connected_erdos_renyi,
    ring,
    star,
    strongly_connected_digraph,
)
from walkrank.measures import (
    EXP_FAMILY_GRID,
    MEASURES,
    RESOLVENT_FAMILY_FRACTIONS,
)
from walkrank.ranking import SweepResult, _align_to, _positions

from oracles import (
    brute_align,
    brute_equal_modulo_ties,
    brute_isim,
    brute_tie_partition,
    scanned_report_indices,
)


# ---------------------------------------------------------------------------
# rank
# ---------------------------------------------------------------------------

def test_rank_orders_descending_with_id_tiebreak():
    r = rank([1.0, 2.0, 1.0])
    assert list(r.order) == [1, 0, 2]
    assert r.tie_groups == ((0,), (1, 2))
    assert r.group_ids() == ((1,), (0, 2))
    assert r.n == 3
    assert r.tie_starts.dtype == np.int64
    assert list(r.tie_starts) == [0, 1]
    with pytest.raises(ValueError):
        r.tie_starts[0] = 1
    with pytest.raises(ValueError):
        r.order[0] = 1


def test_rank_tie_tolerance_is_relative_and_chained():
    scores = [1.0, 1.0 + 5e-10, 2.0]
    r = rank(scores)
    assert r.tie_groups == ((0,), (1, 2))
    tight = rank(scores, tie_tol=1e-12)
    assert tight.tie_groups == ((0,), (1,), (2,))


def test_rank_of_nothing_is_empty():
    r = rank([])
    assert r.n == 0 and r.order.shape == (0,)
    assert r.tie_starts.shape == (0,)
    assert r.tie_groups == () and r.group_ids() == ()
    assert equal_modulo_ties([], r)


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


# values that make exact ties, signed zeros and subnormals common
_TIE_PRONE = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1.0,
                              -1.0, 1.0 + 2.0 ** -52, 3.5, -3.5, 1e300])


@settings(max_examples=300)
@given(st.lists(_TIE_PRONE, min_size=0, max_size=40))
def test_rank_order_is_the_stable_descending_sort(values):
    scores = np.array(values, dtype=np.float64)
    expected = np.lexsort((np.arange(scores.shape[0]), -scores))
    assert np.array_equal(rank(scores).order, expected)


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
    # each case fails two checks when k is also out of range; the message
    # names the one checked first
    cases = [
        ([[0, 1]], [0, 1], None, "a ranking must be a 1-d sequence"),
        ([0, 1], [0, 1, 2], 5, "different lengths: 2 vs 3"),
        ([0, 1, 2], [0, 0, 1], 9, "the second ranking repeats node id 0"),
        ([0, 0, 1], [0, 1, 2], 9, "the first ranking repeats node id 0"),
        ([0, 0, 1], [0, 1, 1], 9, "the first ranking repeats node id 0"),
        ([5, 7, 9], [7, 7, 5], 9, "the second ranking repeats node id 7$"),
        ([0, 1, 2], [4, 5, 6], 9, "same set of node ids"),
        ([0, 1], [1, 0], 0, r"k must lie in 1\.\.2, got 0"),
        ([0, 1], [1, 0], 3, r"k must lie in 1\.\.2, got 3"),
        ([], [], None, r"k must lie in 1\.\.0, got 0"),
    ]
    for a, b, k, message in cases:
        with pytest.raises(ValidationError, match=message):
            intersection_distance(a, b, k)


def test_isim_accepts_any_node_labels():
    # compare passes node labels, which need not be 0..n-1 or integers
    assert intersection_distance([5, 7, 9], [7, 5, 9], k=2) == 0.5
    assert intersection_distance([5, 7, 9], [9, 7, 5]) == (1 + 0.5 + 0) / 3
    assert intersection_distance([0.5, -2.0], [-2.0, 0.5], k=1) == 1.0
    with pytest.raises(ValidationError, match="same set"):
        intersection_distance([5, 7, 9], [5, 7, 8])


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
    assert d == brute_isim(list(a), list(b), k)
    assert d == intersection_distance(b, a, k)
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
    # ids outside 0..3, repeated or not integral are a mismatch, not an error
    assert not equal_modulo_ties([0, 1, 2, 4], reference)
    assert not equal_modulo_ties([-1, 1, 2, 3], reference)
    assert not equal_modulo_ties([0, 1, 1, 3], reference)
    assert not equal_modulo_ties([0, 2, 2, 3], reference)
    assert not equal_modulo_ties([0.0, 1.5, 2.0, 3.0], reference)
    assert not equal_modulo_ties([0.0, float("nan"), 2.0, 3.0], reference)
    assert equal_modulo_ties([0.0, 2.0, 1.0, 3.0], reference)
    assert equal_modulo_ties(np.array([0, 2, 1, 3], dtype=np.int32),
                             reference)


def test_align_to_reorders_within_reference_ties_only():
    reference = rank([2.0, 1.0, 1.0, 0.5])
    aligned = _align_to(reference, _positions(np.array([0, 2, 1, 3])))
    assert list(aligned) == [0, 2, 1, 3]
    aligned = _align_to(reference, _positions(np.array([2, 3, 1, 0])))
    # group {1, 2} follows the candidate's relative order (2 before 1)
    assert list(aligned) == [0, 2, 1, 3]


def test_align_to_without_reference_ties_returns_the_reference_order():
    reference = rank([3.0, 1.0, 2.0, 0.5])
    assert reference.tie_starts.shape[0] == reference.n
    aligned = _align_to(reference, _positions(np.array([3, 2, 1, 0])))
    assert aligned is reference.order


def _tie_heavy_scores(rng, n, tie_tol):
    """Scores drawn from a few values, each nudged by a relative amount
    below or above ``tie_tol`` (or not at all)."""
    values = rng.choice([-3.0, 0.0, 0.5, 1.0, 2.0], size=n)
    nudge = rng.choice([0.0, 0.1, 0.9, 3.0, 30.0], size=n) * tie_tol
    return values * (1.0 + rng.choice([-1.0, 1.0], size=n) * nudge)


def test_tie_groups_alignment_and_isim_match_oracles_under_heavy_ties():
    rng = np.random.default_rng(41)
    for case in range(300):
        n = case % 61
        tie_tol = float(rng.choice([1e-9, 1e-6, 1e-3]))
        scores = _tie_heavy_scores(rng, n, tie_tol)
        r = rank(scores, tie_tol=tie_tol)
        assert list(r.order) == sorted(range(n), key=lambda i: (-scores[i], i))
        assert {frozenset(grp) for grp in r.tie_groups} == \
            brute_tie_partition(scores, tie_tol)
        groups = [set(grp) for grp in r.group_ids()]
        assert sorted(x for grp in groups for x in grp) == list(range(n))
        if n == 0:
            continue

        candidates = [rng.permutation(n), r.order.copy()]
        aligned = _align_to(r, _positions(candidates[0]))
        swapped = aligned.copy()
        i, j = rng.choice(n, size=2)
        swapped[[i, j]] = swapped[[j, i]]
        candidates += [aligned, swapped]
        for cand in candidates:
            cand_list = [int(x) for x in cand]
            expected = brute_align(groups, cand_list)
            assert list(_align_to(r, _positions(cand))) == expected
            assert equal_modulo_ties(cand, r) == \
                brute_equal_modulo_ties(cand_list, groups)
            assert equal_modulo_ties(expected, r)
            k = int(rng.integers(1, n + 1))
            assert intersection_distance(cand, r, k) == \
                brute_isim(cand_list, list(r.order), k)
            assert intersection_distance(cand, expected, k) == \
                brute_isim(cand_list, expected, k)


# ---------------------------------------------------------------------------
# limit_sweep
# ---------------------------------------------------------------------------

def _oracle_sweep(g, measure, grid, tie_tol=1e-9):
    """The three isim columns of a sweep from ``brute_isim`` and
    ``brute_align`` alone: candidates and references are sorted by
    ``(-score, id)`` and grouped by ``brute_tie_partition``."""
    spec = MEASURES[measure]
    _, deg, eig = spec.sweep.limits(g, False, 1e-10)

    def ordered(scores):
        return sorted(range(g.n), key=lambda i: (-scores[i], i))

    def groups(scores):
        order = ordered(scores)
        parts = sorted(brute_tie_partition(scores, tie_tol), key=min)
        return [{order[p] for p in part} for part in parts]

    references = [groups(deg), groups(eig)]
    columns = ([], [], [math.nan])
    previous = None
    for t in grid:
        cand = ordered(spec.compute(g, t, side="broadcast", tol=1e-10).scores)
        for column, ref in zip(columns, references):
            column.append(brute_isim(cand, brute_align(ref, cand), g.n))
        if previous is not None:
            columns[2].append(brute_isim(cand, previous, g.n))
        previous = cand
    return columns


def test_sweep_columns_match_the_oracle_composition():
    cases = [(ring(12), "katz"), (star(9), "katz"), (karate(), "katz"),
             (karate(), "total-communicability")]
    cases += [(strongly_connected_digraph(60, 0.1, s), "pagerank")
              for s in range(3)]
    for g, measure in cases:
        sweep = limit_sweep(g, measure, tol=1e-10)
        want = _oracle_sweep(g, measure, sweep.parameters)
        got = (sweep.isim_to_degree, sweep.isim_to_eigenvector,
               sweep.isim_successive)
        for column, expected in zip(got, want):
            assert np.array_equal(column, expected, equal_nan=True), measure


def test_sweep_points_skip_the_validating_isim(monkeypatch):
    # grid points compare positions with the private kernel; the public,
    # validating path (one np.unique per call) is for caller-given rankings
    def refuse(*args, **kwargs):
        raise AssertionError("a grid point called intersection_distance")

    expected = limit_sweep(karate(), "katz").to_csv()
    monkeypatch.setattr("walkrank.ranking.intersection_distance", refuse)
    assert limit_sweep(karate(), "katz").to_csv() == expected


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


def _reweighted(g, seed):
    weight = np.random.default_rng(seed).uniform(0.1, 3.0, g.m)
    return Graph(g.n, g.src, g.dst, weight, g.directed, g.node_labels)


def test_weighted_diagonal_sweeps_start_at_the_squared_weights():
    # [f(tA)]_ii = 1 + c t^2 sum_j w_ij^2 + ...: at a small parameter the
    # diagonal measures rank by the squared weights, not by the degree
    graphs = [_reweighted(karate(), 1)] + [
        _reweighted(connected_erdos_renyi(30, 0.2, s), s) for s in range(20)]
    for g in graphs:
        lambda1 = dominant_eigenpair(g).lambda1
        for measure, t in (("exp-subgraph", 1e-4),
                           ("resolvent-subgraph", 1e-4 / lambda1)):
            sweep = limit_sweep(g, measure, grid=[t])
            assert sweep.isim_to_degree[0] == 0.0, (measure, g.n)


def test_diagonal_sweep_rejects_a_self_loop():
    g = Graph.from_edges(3, [(0, 0), (0, 1), (1, 2)], allow_loops=True)
    for measure in ("exp-subgraph", "resolvent-subgraph"):
        with pytest.raises(UnsupportedOperationError, match="self-loop"):
            limit_sweep(g, measure)


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
    limits = MEASURES["katz"].sweep.limits
    for receive, deg in ((False, out_deg), (True, in_deg)):
        assert np.array_equal(limits(g, receive, 1e-12)[1], deg)
    broadcast = limit_sweep(g, "katz", side="broadcast", grid=[1e-6],
                            tol=1e-12)
    receive = limit_sweep(g, "katz", side="receive", grid=[1e-6], tol=1e-12)
    # the two degree rankings are far apart here, so a distance of 0 to the
    # degree reference pins the matching side
    by_out, by_in = rank(out_deg), rank(in_deg)
    assert intersection_distance(
        by_out.order, _align_to(by_in, _positions(by_out.order)),
        broadcast.k) > 0.4
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


def report_columns():
    """Seeded distance columns with runs of equal length, no informative
    point, every point informative, one point, and steps within and just
    past the 1e-12 monotonicity slack."""
    yield np.array([0.3, 0.3, 0.0, 0.3, 0.3]), np.full(5, 0.3)  # tied runs
    yield np.zeros(4), np.full(4, 0.3)  # nothing informative
    yield np.full(4, 0.3), np.full(4, 0.3)  # everything informative
    yield np.array([0.3]), np.array([0.3])  # one point
    values = np.array([0.0, 0.04, 0.05, 0.06, 0.3, 0.3 - 5e-13, 0.3 - 2e-12,
                       0.3 + 2e-12, 0.7])
    rng = np.random.default_rng(71)
    for _ in range(300):
        npts = int(rng.integers(1, 13))
        yield rng.choice(values, npts), rng.choice(values, npts)


def test_report_equals_the_index_scan():
    for deg, eig in report_columns():
        grid = np.cumsum(np.full(deg.shape[0], 0.5))
        sweep = SweepResult("katz", "broadcast", grid, deg, eig,
                            np.full(deg.shape[0], np.nan), 5, 10.0)
        report = convergence_report(sweep, threshold=0.05)
        band, deg_viol, eig_viol = scanned_report_indices(grid, deg, eig,
                                                          0.05)
        assert report.band_indices == band, (deg, eig)
        assert report.band == (None if not band else
                               (grid[band[0]], grid[band[-1]]))
        assert report.degree_violations == deg_viol, (deg, eig)
        assert report.eigenvector_violations == eig_viol, (deg, eig)
        for index in (*report.band_indices, *report.degree_violations,
                      *report.eigenvector_violations):
            assert type(index) is int
        json.dumps(report.to_json_dict())


def test_report_json():
    sweep = limit_sweep(karate(), "resolvent-subgraph")
    doc = convergence_report(sweep).to_json_dict()
    assert doc["measure"] == "resolvent-subgraph"
    assert isinstance(doc["band"], list) and len(doc["band"]) == 2
    assert doc["threshold"] == 0.05
