"""Command-line interface.

Subcommands:

* ``compute``       — one measure on one graph, scores as CSV/JSON
* ``sweep``         — parameter sweep with intersection-distance columns
                      and a convergence report
* ``compare``       — intersection distance between two score files
* ``pagerank-demo`` — self-checking reproduction of the bundled six-node
                      PageRank example

Exit codes: 0 success; 1 demo mismatch; 2 invalid input or parameters
(message names the violated bound) or a file that cannot be read or
written (message names the path); 3 an iteration failed to converge
within its cap.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from fractions import Fraction
from itertools import repeat

import numpy as np

from . import __version__
from .datasets import (
    SIX_NODE_ALPHAS,
    SIX_NODE_H_ROWSUMS,
    SIX_NODE_PAGERANK_TABLE,
    SIX_NODE_PAGERANK_TOL,
    SIX_NODE_RANKING_LABELS,
    karate,
    six_node_digraph,
)
from .errors import (
    ConvergenceError,
    ValidationError,
    WalkrankError,
)
from .generators import erdos_renyi, ring, star
from .graph import (
    Graph,
    _accepts,
    _first_rejected,
    _loadtxt,
    _numbered,
    _read_lines,
    load_edge_list,
    load_matrix_market,
)
from .measures import MEASURES, SWEEPABLE
from .pagerank import (_check_preference_entries, build_model,
                       pagerank_power, small_alpha_limit)
from .ranking import (_resolve_depth, convergence_report,
                      intersection_distance, limit_sweep, rank)
from .spectral import DEFAULT_TOL, _check_tol


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="walkrank",
        description="Walk-based centrality, PageRank, and ranking sweeps "
                    "for sparse graphs.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input_flags(p):
        p.add_argument("--input",
                       help="edge-list or Matrix Market file; "
                            "'builtin:karate' and 'builtin:six-node' load "
                            "the bundled graphs")
        p.add_argument("--format", choices=("edgelist", "mtx"),
                       help="input format (default: inferred from the file "
                            "extension)")
        p.add_argument("--directed", action="store_true",
                       help="treat an edge list as directed (Matrix Market "
                            "symmetry is taken from the header)")
        p.add_argument("--synth", choices=("er", "ring", "star"),
                       help="generate a graph instead of reading one")
        p.add_argument("--n", type=int, help="node count for --synth")
        p.add_argument("--p", type=float,
                       help="edge probability for --synth er")
        p.add_argument("--seed", type=int,
                       help="RNG seed, required for --synth er")

    pc = sub.add_parser("compute", help="compute one centrality measure")
    add_input_flags(pc)
    pc.add_argument("--measure", required=True, choices=MEASURES)
    pc.add_argument("--side", choices=("broadcast", "receive"),
                    default="broadcast",
                    help="role to score on directed graphs (hits: broadcast "
                         "prints hubs, receive prints authorities)")
    pc.add_argument("--alpha", type=float,
                    help="resolvent/Katz/PageRank parameter")
    pc.add_argument("--beta", type=float,
                    help="exponential-family inverse temperature")
    pc.add_argument("--t", type=float, help="heat-kernel time")
    pc.add_argument("--preference", default="uniform",
                    help="PageRank preference: 'uniform' or a file with one "
                         "weight per line")
    pc.add_argument("--tol", type=float, default=DEFAULT_TOL)
    pc.add_argument("--out", help="write output here instead of stdout")
    pc.add_argument("--json", action="store_true")
    pc.set_defaults(func=cmd_compute)

    ps = sub.add_parser("sweep",
                        help="trace a measure across its parameter grid")
    add_input_flags(ps)
    ps.add_argument("--measure", required=True, choices=SWEEPABLE)
    ps.add_argument("--side", choices=("broadcast", "receive"),
                    default="broadcast")
    ps.add_argument("--grid",
                    help="comma-separated parameter values (default: a "
                         "family-specific grid inside the feasible interval)")
    ps.add_argument("--k", type=int,
                    help="intersection-distance depth (default: all nodes)")
    ps.add_argument("--tol", type=float, default=DEFAULT_TOL)
    ps.add_argument("--out",
                    help="write the sweep CSV here (report still goes to "
                         "stdout)")
    ps.add_argument("--json", action="store_true",
                    help="emit sweep rows and report as one JSON document")
    ps.set_defaults(func=cmd_sweep)

    pp = sub.add_parser("compare",
                        help="intersection distance between two score files")
    pp.add_argument("file_a")
    pp.add_argument("file_b")
    pp.add_argument("--k", type=int,
                    help="comparison depth (default: all nodes)")
    pp.add_argument("--json", action="store_true")
    pp.set_defaults(func=cmd_compare)

    pd = sub.add_parser("pagerank-demo",
                        help="reproduce and verify the bundled six-node "
                             "PageRank example")
    pd.set_defaults(func=cmd_demo_pagerank)

    return parser


# ---------------------------------------------------------------------------
# input plumbing
# ---------------------------------------------------------------------------

def _load_graph(args) -> Graph:
    if args.synth:
        if args.n is None:
            raise ValidationError("--synth requires --n")
        if args.synth == "er":
            if args.p is None:
                raise ValidationError("--synth er requires --p")
            if args.seed is None:
                raise ValidationError("--synth er requires --seed (runs "
                                      "must be reproducible)")
            return erdos_renyi(args.n, args.p, args.seed,
                               directed=args.directed)
        if args.synth == "ring":
            return ring(args.n, directed=args.directed)
        return star(args.n, directed=args.directed)

    if not args.input:
        raise ValidationError("either --input or --synth is required")
    if args.input == "builtin:karate":
        return karate()
    if args.input == "builtin:six-node":
        return six_node_digraph()
    if args.input.startswith("builtin:"):
        raise ValidationError(
            f"unknown builtin graph {args.input!r} (have builtin:karate, "
            "builtin:six-node)")

    fmt = args.format
    if fmt is None:
        fmt = "mtx" if args.input.lower().endswith((".mtx", ".mm")) else \
            "edgelist"
    if fmt == "mtx":
        if args.directed:
            print("note: --directed ignored for Matrix Market input; the "
                  "header symmetry governs", file=sys.stderr)
        return load_matrix_market(args.input)
    g = load_edge_list(args.input, directed=args.directed)
    if g.n and g.node_labels[0] == 0:
        print("note: node id 0 found, reading ids as 0-based",
              file=sys.stderr)
    return g


def _preference_column(lines: list[str]) -> np.ndarray:
    cols = _loadtxt(lines, np.float64)
    if cols.shape[1] != 1:
        raise ValueError(f"expected 1 column, got {cols.shape[1]}")
    return cols[:, 0]


def _load_preference(spec: str, n: int) -> np.ndarray | None:
    """The weights of a preference file, one number per non-blank line in
    the loaders' grammar (:mod:`walkrank.graph`), rescaled to sum 1."""
    if spec == "uniform":
        return None
    lines = _read_lines(spec, ())
    try:
        v = _preference_column(lines.text) if lines.text else np.empty(0)
    except ValueError:
        text, number = _numbered(lines)[:2]
        at = _first_rejected(text, _preference_column)
        raise ValidationError(
            f"{spec}:{number[at]}: preference weight must be a number, got "
            f"{text[at]!r}") from None
    if v.shape[0] != n:
        raise ValidationError(
            f"preference file has {v.shape[0]} entries for a graph with "
            f"{n} nodes")
    _check_preference_entries(v)
    total = float(v.sum())
    if total <= 0:
        raise ValidationError("preference must have positive total mass")
    if abs(total - 1.0) > 1e-12:
        print(f"note: preference rescaled by 1/{total:.12g} to sum to 1",
              file=sys.stderr)
        v = v / total
    return v


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _parameter(args, spec):
    """Value of the measure's parameter flag, else the table default."""
    if spec.flag is None:
        return None
    value = getattr(args, spec.flag.lstrip("-"))
    if value is None and spec.required:
        raise ValidationError(f"--measure {spec.name} requires {spec.flag}")
    return spec.default if value is None else value


def _note_side(g: Graph, args, side: str) -> None:
    """Note on stderr that a directed graph's measure ignored ``--side``."""
    if g.directed and side != args.side:
        print(f"note: --side {args.side} ignored: {args.measure} scores the "
              f"{side} side only", file=sys.stderr)


def cmd_compute(args) -> int:
    spec = MEASURES[args.measure]
    g = _load_graph(args)
    t = _parameter(args, spec)
    pagerank = spec.family == "pagerank"
    v = _load_preference(args.preference, g.n) if pagerank else None
    cv = spec.compute(g, t, side=args.side, tol=args.tol, preference=v,
                      damping=args.alpha)
    _note_side(g, args, cv.side)

    order = rank(cv.scores).order
    rows = list(zip(g.node_labels[order].tolist(),
                    cv.scores[order].tolist(), range(1, g.n + 1)))

    if args.json:
        payload = {
            "measure": cv.measure,
            "side": cv.side,
            "parameter": cv.parameter,
            "preference": args.preference if pagerank else None,
            "scores": [{"node": node, "score": score, "rank": r}
                       for node, score, r in rows],
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        lines = ["node,score,rank"]
        lines += [f"{node},{score:.12g},{r}" for node, score, r in rows]
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_sweep(args) -> int:
    g = _load_graph(args)
    grid = None
    if args.grid:
        try:
            grid = [float(x) for x in args.grid.split(",") if x.strip()]
        except ValueError:
            raise ValidationError(
                f"--grid must be comma-separated numbers, got {args.grid!r}"
            ) from None
    sweep = limit_sweep(g, args.measure, side=args.side, grid=grid,
                        k=args.k, tol=args.tol)
    _note_side(g, args, sweep.side)
    report = convergence_report(sweep)
    if args.json:
        payload = {"sweep": sweep.to_json_dict(),
                   "report": report.to_json_dict()}
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
        return 0
    _emit(sweep.to_csv(), args.out)
    if args.out:
        print(f"sweep CSV written to {args.out}")
    print(report.render())
    return 0


def _score_columns(cells: list[str]) -> tuple[np.ndarray, np.ndarray]:
    if any(map(str.isspace, cells)):  # np.loadtxt would skip the line
        raise ValueError("a line of separators only")
    return (_loadtxt(cells, np.int64, usecols=(0,))[:, 0],
            _loadtxt(cells, np.float64, usecols=(1,))[:, 0])


def _read_score_file(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Node ids (int64) and scores (float64) of the first two columns of a
    score file, such as the CSV that ``compute`` writes.

    Columns are separated by commas or whitespace, ``#`` lines and blank
    lines are skipped, later columns are ignored, and line 1 is skipped as
    a header when its node or score does not parse. Tokens follow the
    loaders' grammar (:mod:`walkrank.graph`). A node listed twice is named
    at its second line. The lines are numbered before the parse: a line of
    commas is blank once its commas are spaces, so only the numbered view,
    which holds no blank line, tells it apart.
    """
    lines = _numbered(_read_lines(path, ("#",)))
    text, number = lines.text, lines.number
    cells = list(map(str.replace, text, repeat(","), repeat(" ")))
    if (cells and lines.start == 0 and len(cells[0].split()) >= 2
            and not _accepts(_score_columns, cells[:1])):
        text, number, cells = text[1:], number[1:], cells[1:]  # header row
    if not cells:
        raise ValidationError(f"{path}: no score rows found")
    try:
        nodes, scores = _score_columns(cells)
    except ValueError:
        at = _first_rejected(cells, _score_columns)
    else:
        ids = np.sort(nodes)
        if np.all(ids[1:] != ids[:-1]):
            return nodes, scores
        first: dict[int, int] = {}
        at = next(i for i, node in enumerate(nodes.tolist())
                  if first.setdefault(node, i) != i)
        node = int(nodes[at])
        raise ValidationError(f"{path}:{number[at]}: node {node} appears "
                              f"twice, first on line {number[first[node]]}")
    where = f"{path}:{number[at]}: expected 'node score' columns"
    if len(cells[at].split()) < 2:
        raise ValidationError(where)
    raise ValidationError(f"{where}, got {text[at]!r}")


def cmd_compare(args) -> int:
    nodes_a, scores_a = _read_score_file(args.file_a)
    nodes_b, scores_b = _read_score_file(args.file_b)
    order_a = nodes_a[rank(scores_a).order]
    order_b = nodes_b[rank(scores_b).order]
    value = intersection_distance(order_a, order_b, args.k)
    if args.json:
        print(json.dumps({"isim": value,
                          "k": _resolve_depth(args.k, len(order_a))}))
    else:
        print(f"{value:.12g}")
    return 0


def cmd_demo_pagerank(args) -> int:
    g = six_node_digraph()
    model = build_model(g, 0.85)
    n = g.n
    failures: list[str] = []

    print("six-node digraph: edges "
          + ", ".join(f"{int(g.node_labels[u])}->{int(g.node_labels[v])}"
                      for u, v, _ in g.edge_tuples()))
    print()
    print("H (column j spreads node j's mass over its out-neighbors):")
    h_dense = g.to_dense().T * model.inv_out
    for i in range(n):
        cells = []
        for j in range(n):
            frac = Fraction(h_dense[i, j]).limit_denominator(1000)
            cells.append(f"{str(frac):>4s}")
        print("  [" + " ".join(cells) + "]")

    rowsums = small_alpha_limit(g)
    expected_rowsums = np.array([float(f) for f in SIX_NODE_H_ROWSUMS])
    print("\nH row sums (alpha -> 0 limit): "
          + "  ".join(f"{x:.12g}" for x in rowsums))
    if np.max(np.abs(rowsums - expected_rowsums)) > 1e-12:
        failures.append("H row sums deviate from the reference rationals")
    limit_order = tuple(int(g.node_labels[i])
                        for i in rank(rowsums).order)
    print(f"limit ranking: {' '.join(map(str, limit_order))} "
          "(nodes 2 and 5 tied for third place)")

    for alpha in SIX_NODE_ALPHAS:
        p = pagerank_power(build_model(g, alpha))
        table = SIX_NODE_PAGERANK_TABLE[alpha]
        tolerances = SIX_NODE_PAGERANK_TOL[alpha]
        print(f"\nalpha = {alpha}")
        print("  p        = " + "  ".join(f"{x:.7f}" for x in p))
        print("  expected = " + "  ".join(f"{x:.7f}" for x in table))
        diffs = np.abs(p - table)
        for j in range(n):
            if diffs[j] > tolerances[j]:
                failures.append(
                    f"alpha={alpha}: node {j + 1} expected {table[j]!r} got "
                    f"{p[j]:.9f} (|diff| {diffs[j]:.2e} > tol "
                    f"{tolerances[j]:.0e})")
        order = tuple(int(g.node_labels[i]) for i in rank(p).order)
        print("  ranking: " + " ".join(map(str, order)))
        if order != SIX_NODE_RANKING_LABELS:
            failures.append(
                f"alpha={alpha}: ranking {order} != "
                f"{SIX_NODE_RANKING_LABELS}")

    print()
    if failures:
        print(f"MISMATCH ({len(failures)} divergent entries):")
        for f in failures:
            print(f"  - {f}")
        return 1
    print("all values match the reference tables")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    seen = set()

    def note(message, *_):  # each library warning once, as a note
        if str(message) not in seen:
            seen.add(str(message))
            print(f"note: {message}", file=sys.stderr)

    with warnings.catch_warnings():
        warnings.showwarning = note
        try:
            if hasattr(args, "tol"):  # before the graph is read
                _check_tol(args.tol, "--tol")
            return args.func(args)
        except ConvergenceError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
        except (WalkrankError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
