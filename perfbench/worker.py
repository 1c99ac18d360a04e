"""One benchmark process: set up slly in a fresh interpreter, then run timed passes.

Started by run.py from the root of a checkout:

    python3 perfbench/worker.py --workload W --seed S --seconds R --mode M --out DIR

Set-up imports slly from ``src/`` (with numpy and scipy), generates the task
list twice to confirm it is deterministic, and runs the first task of each
command kind once, untimed, so lazy imports and caches are warm.  Mode
``probe`` stops there; ``measure`` then runs untraced passes over the task
list until the next pass would overrun R seconds; ``trace`` alternates
untraced and traced passes.  The speed reference (``speed.py``) is sampled
right after set-up and around every task.  The last line of stdout is one
JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import checks
import speed
import tracing
import workloads

MODULES = ("piecewise", "bethe", "fock", "susy", "lattice", "cli")


def load_slly(root: Path):
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import importlib

    import numpy
    import scipy
    import scipy.sparse.linalg  # noqa: F401  (part of the set-up the program pays)

    mods = {m: importlib.import_module(f"slly.{m}") for m in MODULES}
    where = Path(mods["cli"].__file__).resolve().parent.parent
    if where != src:
        raise SystemExit(f"slly was imported from {where}, not from {src}")
    versions = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "slly": importlib.import_module("slly").__version__,
    }
    return mods, versions


def run_task(cli, task):
    """(exit code or None on an exception, stdout, stderr, seconds) of one task."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(task.argv)
    except Exception:  # a crashing task counts as failed; the run goes on
        rc = None
        err.write(traceback.format_exc())
    return rc, out.getvalue(), err.getvalue(), time.perf_counter() - t0


def failure_reason(task, rc, text, err) -> str | None:
    if rc is None:
        return "exception: " + err.strip().splitlines()[-1]
    return checks.check(task, rc, text)


def run_pass(cli, tasks, kernel: str, tracer=None):
    """Run every task once, sampling the speed reference before each and after the last."""
    gc.collect()
    outcomes, kernel_s = [], []
    c0 = time.process_time()
    t0 = time.perf_counter()
    for i, task in enumerate(tasks):
        kernel_s.append(speed.sample(kernel))
        if tracer is not None:
            tracer.new_task(i)
        outcomes.append(run_task(cli, task))
    kernel_s.append(speed.sample(kernel))
    return time.perf_counter() - t0, time.process_time() - c0, outcomes, kernel_s


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", required=True, choices=("probe", "measure", "trace"))
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args()

    mods, versions = load_slly(Path.cwd())
    cli = mods["cli"]
    tasks = workloads.generate(args.workload, args.seed)
    kernel = workloads.REFERENCE[args.workload]
    if tasks != workloads.generate(args.workload, args.seed):
        raise SystemExit(f"the {args.workload} task generator is not deterministic")
    failures = []
    warm = workloads.warmup(tasks)
    for task in warm:
        rc, text, err, _ = run_task(cli, task)
        reason = failure_reason(task, rc, text, err)
        if reason:
            failures.append({"pass": "warm-up", "argv": task.argv, "reason": reason})
    setup_end = time.monotonic()
    setup_kernel_s = [speed.sample(workloads.SETUP_REFERENCE) for _ in range(speed.SETUP_SAMPLES)]
    result = {"setup_end": setup_end, "versions": versions, "attempted": len(warm),
              "setup_kernel_s": setup_kernel_s}
    if args.mode == "probe":
        result["failures"] = failures
        print(json.dumps(result))
        return

    tracer = tracing.Tracer() if args.mode == "trace" else None
    passes, layer_passes, digests = [], [], None
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.new_pass()
            tracing.install(tracer, mods)
        try:
            wall, cpu, outcomes, kernel_s = run_pass(cli, tasks, kernel, tracer if traced else None)
        finally:
            if traced:
                tracer.remove()
        pass_digests = [hashlib.sha256(text.encode()).hexdigest() for _, text, _, _ in outcomes]
        digests = digests or pass_digests
        for i, (task, (rc, text, err, _)) in enumerate(zip(tasks, outcomes)):
            reason = failure_reason(task, rc, text, err)
            if reason is None and pass_digests[i] != digests[i]:
                reason = "report differs from the first pass's (not byte-identical)"
            if reason:
                failures.append({"pass": len(passes), "argv": task.argv, "reason": reason})
        seconds = [s for _, _, _, s in outcomes]
        passes.append({
            "traced": traced,
            "wall_s": wall,
            "cpu_s": cpu,
            "tasks_s": sum(seconds),
            "largest_n_s": sum(s for t, s in zip(tasks, seconds) if t.largest),
            "task_seconds": seconds,
            "kernel_seconds": kernel_s,
        })
        if traced:
            cmd = {}
            for task, s in zip(tasks, seconds):
                cmd[task.kind] = cmd.get(task.kind, 0.0) + s
            report_bytes = sum(len(text.encode()) for _, text, _, _ in outcomes)
            layer_passes.append(tracing.pass_metrics(tracer, cmd, report_bytes))
        result["attempted"] += len(tasks)
        elapsed = time.perf_counter() - start
        need_more = tracer is not None and len(passes) < 2
        if not need_more and elapsed + wall > args.seconds:
            break

    result.update({
        "failures": failures,
        "passes": passes,
        "tasks": [
            {"argv": t.argv, "kind": t.kind, "n": t.n, "largest": t.largest,
             "sha256": d, "report_bytes": len(text.encode())}
            for t, d, (_, text, _, _) in zip(tasks, digests, outcomes)
        ],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    if tracer is not None:
        result["layers"] = tracing.median_metrics(layer_passes)
        result["layers_with_spans"] = sorted({n for p in layer_passes for n in p["layers_with_spans"]})
        spans_file = args.out / f"spans-{args.workload}-seed{args.seed}.json.gz"
        result["spans"] = tracer.write_spans(spans_file)
        result["spans_file"] = str(spans_file)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
