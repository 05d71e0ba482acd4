"""Per-layer self time and counts, recorded from outside the library.

:class:`Tracer` replaces the public functions of each walkrank module with
timing wrappers, at every name they are looked up by: a function bound into
another module with ``from .graph import is_connected`` is a second name for
the same object, and is patched too. ``_kernels.csr_matvec`` and
``_kernels.neumann`` are read as module attributes at each call, so
patching the attribute catches every call. :meth:`Tracer.uninstall` puts
every original object back.

Each wrapped call is a span. A span's self time is its duration minus the
time of the spans it encloses; a call nested in a span of the same layer
key is folded into it (``is_strongly_connected`` calling ``is_connected``
is one connectivity call). Targets the library no longer has are skipped,
so their metrics read 0 instead of failing the run.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

# Measures whose inclusive time is reported as ``measures.<name>_s``: the
# ones the workloads call. The other entry points are traced too, so that
# their time stays covered.
REPORTED_MEASURES = ("katz", "total_communicability", "exp_subgraph",
                     "resolvent_subgraph")
MEASURES = REPORTED_MEASURES + ("eigenvector_centrality",
                                "degree_centrality", "hits")


@dataclass(frozen=True)
class Target:
    module: str  # walkrank submodule that defines the object
    name: str  # attribute, or "Class.attribute" for a method
    key: str  # layer key that receives the span's self time
    after: Callable | None = None  # (tracer, args, result) -> None
    nested: tuple[str, str] | None = None  # (counted key, counter name)
    span: bool = True  # False: count calls only, charge time to the caller


def _count_lines(tracer, args, result) -> None:
    """Data lines of a parsed edge list or MatrixMarket body."""
    src = args[0]
    if hasattr(src, "getvalue"):
        text = src.getvalue()
    else:
        with open(src, encoding="utf-8") as fh:
            text = fh.read()
    lines = text.count("\n") + (0 if text.endswith("\n") or not text else 1)
    comments = sum(text.startswith(c) + text.count("\n" + c)
                   for c in ("%", "#"))
    size_line = 1 if text.startswith("%%MatrixMarket") else 0
    tracer.counts["graph.edges_parsed"] += lines - comments - size_line


def _count_matvec(tracer, args, result) -> None:
    indptr, indices, data, x = args[:4]
    nnz = data.shape[0]
    tracer.counts["kernels.matvec_nnz"] += nnz
    # indptr, indices and data read once, x gathered per nonzero, y written
    tracer.counts["kernels.matvec_bytes"] += (
        indptr.nbytes + indices.nbytes + data.nbytes
        + nnz * x.itemsize + result.nbytes)


def _count_neumann(tracer, args, result) -> None:
    tracer.counts["kernels.neumann_iters"] += int(result[1])


def _count_eigenpair(tracer, args, result) -> None:
    tracer.counts["spectral.eigenpair_iters"] += int(result.iterations)


def _count_sweep(tracer, args, result) -> None:
    tracer.counts["ranking.sweep_points"] += int(result.parameters.shape[0])


TARGETS = (
    Target("graph", "load_edge_list", "graph.parse", _count_lines),
    Target("graph", "load_matrix_market", "graph.parse", _count_lines),
    Target("graph", "Graph.from_edges", "graph.from_edges"),
    Target("graph", "Graph._build_csr", "graph.csr"),
    Target("graph", "is_connected", "graph.connectivity"),
    Target("graph", "is_strongly_connected", "graph.connectivity"),
    Target("_kernels", "csr_matvec", "kernels.matvec", _count_matvec),
    Target("_kernels", "neumann", "kernels.neumann", _count_neumann),
    Target("spectral", "dominant_eigenpair", "spectral.eigenpair",
           _count_eigenpair),
    Target("series", "exp_action", "series.exp_action",
           nested=("kernels.matvec", "series.exp_action_matvecs")),
    Target("series", "resolvent_solve", "series.resolvent"),
    Target("series", "fa_diagonal", "series.dense_eigh"),
    *(Target("measures", m, "measures") for m in MEASURES),
    Target("pagerank", "build_model", "pagerank.build_model"),
    Target("pagerank", "pagerank_power", "pagerank.power",
           nested=("pagerank.apply", "pagerank.power_iters")),
    Target("pagerank", "heat_kernel_rowsums", "pagerank.heat_kernel",
           nested=("pagerank.apply", "pagerank.heat_kernel_applies")),
    Target("pagerank", "GoogleModel.apply", "pagerank.apply", span=False),
    Target("ranking", "rank", "ranking.rank"),
    Target("ranking", "intersection_distance", "ranking.isim"),
    Target("ranking", "limit_sweep", "ranking.sweep", _count_sweep),
    Target("cli", "main", "cli"),
)


class Tracer:
    """Spans and counters for one traced session."""

    def __init__(self):
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.inclusive_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # [key, seconds covered by children]
        self._patched: list[tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------------

    def _span(self, fn, target: Target):
        tracer = self
        key = target.key
        label = f"{target.module}.{target.name}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if stack and stack[-1][0] == key:
                return fn(*args, **kwargs)
            nested_before = (tracer.calls[target.nested[0]]
                             if target.nested else 0)
            frame = [key, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                tracer.self_s[key] += elapsed - frame[1]
                tracer.inclusive_s[label] += elapsed
                tracer.calls[key] += 1
            if target.nested:
                counted, name = target.nested
                tracer.counts[name] += tracer.calls[counted] - nested_before
            if target.after is not None:
                target.after(tracer, args, result)
            return result

        return wrapper

    def _counter(self, fn, key: str):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap(self, fn, target: Target):
        if target.span:
            return self._span(fn, target)
        return self._counter(fn, target.key)

    # -- install / uninstall ------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Patch every target at every name bound to it in walkrank."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "walkrank" or name.startswith("walkrank."))
                   and m is not None]
        for target in TARGETS:
            home = sys.modules.get(f"walkrank.{target.module}")
            if home is None:
                continue
            if "." in target.name:
                cls_name, attr = target.name.split(".")
                cls = getattr(home, cls_name, None)
                raw = None if cls is None else cls.__dict__.get(attr)
                if raw is None:
                    continue
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, target))
                else:
                    wrapped = self._wrap(raw, target)
                self._set(cls, attr, wrapped)
                continue
            original = home.__dict__.get(target.name)
            if original is None:
                continue
            wrapped = self._wrap(original, target)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results ------------------------------------------------------------

    def snapshot(self) -> dict:
        """Plain-data copy of everything recorded, for :func:`counters` and
        :func:`layer_metrics`."""
        return {"self_s": dict(self.self_s),
                "inclusive_s": dict(self.inclusive_s),
                "calls": dict(self.calls), "counts": dict(self.counts)}


def counters(snap: dict) -> dict:
    """Every count the trace took (no times); these must repeat exactly
    between two traced runs of the same inputs."""
    out = {f"calls.{k}": v for k, v in sorted(snap["calls"].items())}
    out.update(sorted(snap["counts"].items()))
    return out


def covered_s(snap: dict) -> float:
    """Sum of self times over every layer key."""
    return sum(snap["self_s"].values())


def layer_metrics(snap: dict, bytes_out: int) -> dict:
    """Per-layer metrics as ``name -> (value, unit)``."""
    s = defaultdict(float, snap["self_s"])
    c = Counter(snap["calls"])
    n = Counter(snap["counts"])
    inclusive = defaultdict(float, snap["inclusive_s"])
    matvec_gb = n["kernels.matvec_bytes"] / 1e9
    metrics = {
        "graph.parse_s": (s["graph.parse"], "s"),
        "graph.edges_parsed": (n["graph.edges_parsed"], "count"),
        "graph.from_edges_s": (s["graph.from_edges"], "s"),
        "graph.csr_s": (s["graph.csr"], "s"),
        "graph.csr_builds": (c["graph.csr"], "count"),
        "graph.connectivity_s": (s["graph.connectivity"], "s"),
        "graph.connectivity_calls": (c["graph.connectivity"], "count"),
        "kernels.matvec_calls": (c["kernels.matvec"], "count"),
        "kernels.matvec_s": (s["kernels.matvec"], "s"),
        "kernels.matvec_nnz": (n["kernels.matvec_nnz"], "count"),
        "kernels.matvec_gbytes_computed": (matvec_gb, "GB"),
        "kernels.matvec_gbps_computed": (
            matvec_gb / s["kernels.matvec"] if s["kernels.matvec"] else 0.0,
            "GB/s"),
        "kernels.neumann_calls": (c["kernels.neumann"], "count"),
        "kernels.neumann_iters": (n["kernels.neumann_iters"], "count"),
        "kernels.neumann_s": (s["kernels.neumann"], "s"),
        "spectral.eigenpair_calls": (c["spectral.eigenpair"], "count"),
        "spectral.eigenpair_iters": (n["spectral.eigenpair_iters"], "count"),
        "spectral.eigenpair_s": (s["spectral.eigenpair"], "s"),
        "series.exp_action_calls": (c["series.exp_action"], "count"),
        "series.exp_action_matvecs": (n["series.exp_action_matvecs"],
                                      "count"),
        "series.exp_action_s": (s["series.exp_action"], "s"),
        "series.resolvent_calls": (c["series.resolvent"], "count"),
        "series.resolvent_s": (s["series.resolvent"], "s"),
        "series.dense_eigh_calls": (c["series.dense_eigh"], "count"),
        "series.dense_eigh_s": (s["series.dense_eigh"], "s"),
        "measures.calls": (c["measures"], "count"),
        "pagerank.build_model_calls": (c["pagerank.build_model"], "count"),
        "pagerank.build_model_s": (s["pagerank.build_model"], "s"),
        "pagerank.power_calls": (c["pagerank.power"], "count"),
        "pagerank.power_iters": (n["pagerank.power_iters"], "count"),
        "pagerank.power_s": (s["pagerank.power"], "s"),
        "pagerank.heat_kernel_s": (s["pagerank.heat_kernel"], "s"),
        "pagerank.heat_kernel_applies": (n["pagerank.heat_kernel_applies"],
                                         "count"),
        "ranking.rank_calls": (c["ranking.rank"], "count"),
        "ranking.rank_s": (s["ranking.rank"], "s"),
        "ranking.isim_calls": (c["ranking.isim"], "count"),
        "ranking.isim_s": (s["ranking.isim"], "s"),
        "ranking.sweep_self_s": (s["ranking.sweep"], "s"),
        "ranking.sweep_points": (n["ranking.sweep_points"], "count"),
        "cli.self_s": (s["cli"], "s"),
        "cli.bytes_out": (bytes_out, "bytes"),
    }
    for m in REPORTED_MEASURES:
        metrics[f"measures.{m}_s"] = (inclusive[f"measures.{m}"], "s")
    return metrics
