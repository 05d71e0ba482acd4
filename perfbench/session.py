"""Run one workload's command sequence in this interpreter, in rounds.

Usage: ``python3 session.py SPEC.json``. The spec names the source tree,
the invocations, a time budget and where to write the result. Each
invocation calls ``walkrank.cli.main(argv)`` in-process with stdout
redirected to a file, so the session times the commands themselves, not
interpreter start-up (``setup_s`` measures that). The whole sequence runs
once, then again while the budget lasts (see :func:`run_invocations`).
Every run of an invocation writes the same output files; a digest of them
is kept per run, so that the caller can check every run's output. With
``"trace": true`` the layer trace is installed for the whole session.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter


def output_files(inv: dict) -> list[str]:
    """The files an invocation writes: its stdout and its ``--out``."""
    argv = inv["argv"]
    files = [inv["stdout"]]
    if "--out" in argv:
        files.append(argv[argv.index("--out") + 1])
    return files


def digest(files: list[str]) -> str:
    h = hashlib.sha256()
    for path in files:
        try:
            h.update(Path(path).read_bytes())
        except OSError:
            h.update(b"<missing>")
    return h.hexdigest()


def run_once(inv: dict) -> dict:
    import walkrank.cli

    t0 = perf_counter()
    with open(inv["stdout"], "w", encoding="utf-8") as fh, \
            contextlib.redirect_stdout(fh):
        try:
            code = walkrank.cli.main(inv["argv"])
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash counts as a failed invocation
            traceback.print_exc()
            code = -1
    seconds = perf_counter() - t0
    return {"exit": code, "seconds": seconds,
            "digest": digest(output_files(inv))}


def run_invocations(invocations: list, tracer=None,
                    budget_s: float = 0.0) -> dict:
    """Time each invocation, in rounds over the sequence; ``walkrank`` must
    already be importable. The first round runs whole. A later round skips
    each invocation whose longest time so far would overrun ``budget_s``,
    and the session ends with the first round that runs nothing, so cheap
    invocations are timed more often than dear ones."""
    import walkrank.cli  # noqa: F401  (imported before any timing)

    runs = [[] for _ in invocations]

    def fits(done, t_start):
        return not done or (perf_counter() - t_start
                            + max(r["seconds"] for r in done)) <= budget_s

    with tracer if tracer is not None else contextlib.nullcontext():
        t_start = perf_counter()
        ran = True
        while ran:
            ran = False
            for inv, done in zip(invocations, runs):
                if fits(done, t_start):
                    done.append(run_once(inv))
                    ran = True
    return {"invocations": [{"kind": inv["kind"], "runs": done}
                            for inv, done in zip(invocations, runs)]}


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    src = Path(spec["root"]) / "src"
    sys.path.insert(0, str(src))
    import walkrank

    if Path(walkrank.__file__).resolve().parent.parent != src.resolve():
        print(f"walkrank imported from {walkrank.__file__}, not {src}",
              file=sys.stderr)
        return 2
    tracer = None
    if spec["trace"]:
        sys.path.insert(0, spec["root"])
        from perfbench.layertrace import Tracer
        tracer = Tracer()
    result = run_invocations(spec["invocations"], tracer, spec["budget_s"])
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if tracer is not None:
        result["trace"] = tracer.snapshot()
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
