#!/usr/bin/env python3
"""Seeded end-to-end benchmark of walkrank's compute, sweep and compare.

    python3 perfbench/run.py --workload er-2k-sweep --seed 1 --seconds 60 --trace 0

Run from anywhere; paths are taken relative to this file. The graph for a
seed is generated once, with its references, outside every timed region.
``--trace 0`` runs one session with tracing off, repeating the workload's
command sequence in rounds for ``--seconds``, and reports the end-to-end
metrics as sums of per-invocation medians over their runs; ``--trace 1``
runs one untraced and one traced round and reports the per-layer metrics. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CACHE = ROOT / ".perfbench_cache"
SETUP_STARTS = 7
SESSION_TIMEOUT_S = 170

# One BLAS thread, here and in every child: with two threads on two cores,
# any other load on the machine made a 2000-node dense eigh 5-6x slower
# (11-13 s instead of 2 s), which no bound could absorb.
BLAS_THREADS = "1"
os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
os.environ["OMP_NUM_THREADS"] = BLAS_THREADS

sys.path.insert(0, str(ROOT))

from perfbench import checks, layertrace, session  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    CACHE_VERSION, WORKLOADS, prepare)

SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "import walkrank.cli, walkrank._kernels; "
              "walkrank._kernels.warmup()")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="time budget of set-up and rounds (at least one "
                         "round runs)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# environment stamp
# ---------------------------------------------------------------------------

def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    import numpy

    for lib in sorted((Path(numpy.__file__).parent.parent
                       / "numpy.libs").glob("*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                return int(fn())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        if os.environ.get(var, "").isdigit():
            return int(os.environ[var])
    return None


def environment() -> dict:
    import numpy
    import scipy
    from walkrank import _kernels

    nproc = len(os.sched_getaffinity(0))
    threads = blas_threads()
    return {
        "backend": _kernels.get_backend(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
        "nproc": nproc,
        "blas_threads": None if threads is None else min(threads, nproc),
    }


def source_digest() -> str:
    """Hash of the library sources; trace counts are compared only between
    runs of the same code."""
    h = hashlib.sha256()
    for path in sorted((SRC / "walkrank").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# measurements
# ---------------------------------------------------------------------------

def setup_seconds() -> list[float]:
    """Wall time of fresh interpreters that import the CLI and warm up.

    ``Popen.wait`` with a timeout polls the child with sleeps of up to
    50 ms, which would round each start up to that grain; the wait here
    blocks, and a timer kills a child that hangs."""
    times = []
    for _ in range(SETUP_STARTS):
        argv = [sys.executable, "-c", SETUP_CODE, str(SRC)]
        t0 = perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.DEVNULL) as proc:
            timer = threading.Timer(SESSION_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                code = proc.wait()
            finally:
                timer.cancel()
        times.append(perf_counter() - t0)
        if code != 0:
            raise subprocess.CalledProcessError(code, argv)
    return times


def run_session(prepared, workdir: Path, trace: bool,
                budget_s: float) -> dict:
    """One workload session in a fresh interpreter, repeating the command
    sequence for ``budget_s`` (one round at least), with every run of every
    invocation checked.

    The files of an invocation's last run are checked against the
    references; an earlier run passes when its files are identical to them.
    Adds ``failed`` (one reason per failed run), ``attempted`` (runs) and
    ``bytes_out`` (the output of one round) to the session's own result."""
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    invocations = WORKLOADS[prepared.name].commands(prepared, workdir)
    spec = workdir / "spec.json"
    result_path = workdir / "result.json"
    spec.write_text(json.dumps({
        "root": str(ROOT), "trace": trace, "invocations": invocations,
        "budget_s": budget_s, "result": str(result_path)}))
    try:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "session.py"),
             str(spec)],
            timeout=SESSION_TIMEOUT_S, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        reason = f"session timed out after {SESSION_TIMEOUT_S} s"
        return {"failed": [reason] * len(invocations),
                "attempted": len(invocations)}
    if proc.returncode != 0 or not result_path.exists():
        sys.stderr.write(proc.stderr)
        reason = f"session exited with {proc.returncode}"
        return {"failed": [reason] * len(invocations),
                "attempted": len(invocations)}

    result = json.loads(result_path.read_text())
    matrix_cache = []

    def matrix():
        if not matrix_cache:
            matrix_cache.append(prepared.matrix())
        return matrix_cache[0]

    failed = []
    for inv, res in zip(invocations, result["invocations"]):
        what = " ".join(inv["argv"][:3])
        last = res["runs"][-1]
        if last["exit"] != 0:
            reason = f"{what}: exit {last['exit']}"
        else:
            reason = checks.check_invocation(inv, prepared, matrix)
        for i, run in enumerate(res["runs"]):
            if run["exit"] != 0:
                failed.append(f"{what}: exit {run['exit']} in run {i}")
            elif run["digest"] != last["digest"]:
                failed.append(f"{what}: run {i} output differs from the "
                              "checked run")
            elif reason:
                failed.append(reason)
    if failed:
        sys.stderr.write(proc.stderr)
    bytes_out = sum(os.path.getsize(p) for inv in invocations
                    for p in session.output_files(inv) if os.path.exists(p))
    result.update(failed=failed,
                  attempted=sum(len(r["runs"])
                                for r in result["invocations"]),
                  bytes_out=bytes_out)
    return result


def invocation_medians(result: dict) -> list[float]:
    """Each invocation's median time over its runs in the session."""
    return [statistics.median(r["seconds"] for r in res["runs"])
            for res in result["invocations"]]


def first_round_s(result: dict) -> float:
    """Time of the session's first round: the whole sequence, run once."""
    return sum(res["runs"][0]["seconds"] for res in result["invocations"])


def kind_seconds(result: dict) -> dict:
    """Sum of per-invocation medians for each kind of invocation."""
    sums = dict.fromkeys(("compute", "sweep", "compare"), 0.0)
    for t, res in zip(invocation_medians(result), result["invocations"]):
        sums[res["kind"]] += t
    return sums


def end_to_end(result: dict, setup: list) -> dict:
    """The end-to-end metrics in BENCHMARK.json, for one session. Every time
    but ``setup_s`` is a sum of per-invocation medians over the session's
    runs. ``compare_s`` is printed by ``main`` but not bounded (see
    README.md)."""
    sums = kind_seconds(result)
    return {
        "session_s": (sum(sums.values()), "s"),
        "compute_s": (sums["compute"], "s"),
        "sweep_s": (sums["sweep"], "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }


def repeat_counts(prepared, counts: dict) -> str | None:
    """Compare trace counts with an earlier traced run of the same seed and
    the same library code; the first run records them."""
    path = (CACHE / "counts"
            / f"{prepared.name}-{prepared.seed}-v{CACHE_VERSION}-"
              f"{source_digest()}.json")
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(counts, sort_keys=True))
        return None
    earlier = json.loads(path.read_text())
    diff = sorted(k for k in set(earlier) | set(counts)
                  if earlier.get(k) != counts.get(k))
    if diff:
        return "trace counts differ from an earlier run: " + ", ".join(
            f"{k} {earlier.get(k)} -> {counts.get(k)}" for k in diff)
    return None


def traced(prepared, workdir: Path) -> tuple[list, dict, list]:
    """One round untraced, then one round traced; per-layer metrics of the
    second."""
    plain = run_session(prepared, workdir, trace=False, budget_s=0.0)
    sessions = [plain]
    if plain["failed"]:
        return sessions, {}, []
    tr = run_session(prepared, workdir, trace=True, budget_s=0.0)
    sessions.append(tr)
    if tr["failed"]:
        return sessions, {}, []
    snap = tr["trace"]
    traced_s = first_round_s(tr)
    metrics = layertrace.layer_metrics(snap, tr["bytes_out"])
    metrics["trace.overhead_s"] = (traced_s - first_round_s(plain), "s")
    metrics["trace.coverage"] = (layertrace.covered_s(snap) / traced_s,
                                 "ratio")
    problem = repeat_counts(prepared, layertrace.counters(snap))
    return sessions, metrics, [problem] if problem else []


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "walkrank" / "cli.py").is_file():
        print(f"error: no walkrank sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = environment()

    prepared = prepare(args.workload, args.seed, CACHE)
    workdir = CACHE / f"run-{os.getpid()}"
    problems: list[str] = []
    try:
        if args.trace:
            sessions, metrics, problems = traced(prepared, workdir)
        else:
            t0 = perf_counter()
            setup = setup_seconds()
            budget = args.seconds - (perf_counter() - t0)
            sessions = [run_session(prepared, workdir, trace=False,
                                    budget_s=budget)]
            ok = not sessions[0]["failed"]
            metrics = end_to_end(sessions[0], setup) if ok else {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(s["attempted"] for s in sessions)
    failed = sum(len(s["failed"]) for s in sessions)
    for s in sessions:
        for reason in s["failed"]:
            print(f"FAILED: {reason}", file=sys.stderr)
    for reason in problems:
        print(f"TRACE CHECK FAILED: {reason}", file=sys.stderr)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<34} {value:>14.6g} {unit}")
    if metrics and not args.trace:
        compare_s = kind_seconds(sessions[0])["compare"]
        print(f"  {'compare_s (not bounded)':<34} {compare_s:>14.6g} s")
        print("  invocation seconds (median of runs) and runs:")
        medians = invocation_medians(sessions[0])
        for t, res, inv in zip(medians, sessions[0]["invocations"],
                               WORKLOADS[args.workload].commands(
                                   prepared, workdir)):
            words = (Path(a).name if "/" in a else a for a in inv["argv"])
            print(f"    {t:9.4f} {len(res['runs']):3d}  {' '.join(words)}")
    print(f"  {'ops_failed_frac':<34} {failed / attempted:>14.6g} ratio "
          f"({failed} of {attempted} runs of invocations)")
    print(json.dumps({
        "correct": failed == 0 and not problems and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
