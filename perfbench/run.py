"""slly verification benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload chamber-calculus --seed 1 --seconds 60 --trace 0

One client runs the workload's seeded task list of CLI commands back to
back, in process, through ``slly.cli.main(argv)`` (a closed loop), with
single-threaded BLAS.  ``--trace 0`` reports the end-to-end metrics: the
time of one pass and of its largest-N tasks, each task scaled to the nominal
speed of a fixed reference kernel sampled around every task of its pass
(``speed.py``, because the speed of a shared machine swings) and taken at
its lower quartile over the run's passes; the median scaled set-up time
over several fresh processes; and the peak resident memory.  ``--trace 1``
reports the per-layer metrics from traced passes.
Every report is checked; the last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  A full record (task
argv, report SHA-256s, per-pass samples, versions, thread settings, commit)
is written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
OUT_DIR = ".perfbench_out"
PROBES = 4  # set-up-only processes per untraced run, besides the measuring one
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "SLLY_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
END_TO_END = {"wall_s": "s", "largest_n_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

sys.path.insert(0, str(HERE))
import speed  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402
from workloads import REFERENCE, SETUP_REFERENCE, WORKLOADS  # noqa: E402


def spawn(args, mode: str, out: Path, timeout: float) -> tuple[dict, float, float]:
    """Run one worker; returns its result and its set-up time from process start, raw and scaled."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode, "--out", str(out)]
    kernel_s = [speed.sample(SETUP_REFERENCE) for _ in range(speed.SETUP_SAMPLES)]
    started = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          text=True, timeout=timeout, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"benchmark worker ({mode}) exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    setup = result["setup_end"] - started
    return result, setup, speed.scale(setup, SETUP_REFERENCE, kernel_s + result["setup_kernel_s"])


def source_digest(root: Path) -> str:
    """SHA-256 over the program's source files, so results name the code without git."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                          text=True, timeout=30, check=False)
    return proc.stdout.strip() or None


def scaled(passes: list[dict], tasks: list[dict], kernel: str) -> tuple[float, float]:
    """(pass seconds, largest-N seconds) at the speed reference's nominal speed.

    Each task time is scaled by the mean of its pass's reference samples and
    taken at its lower quartile (the n//4-th lowest) over ``passes``; the
    sums follow.
    """
    low = []
    for i in range(len(tasks)):
        times = sorted(speed.scale(p["task_seconds"][i], kernel, p["kernel_seconds"]) for p in passes)
        low.append(times[len(times) // 4])
    return sum(low), sum(v for v, t in zip(low, tasks) if t["largest"])


def summary(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"min": min(values), "q1": q[0], "median": statistics.median(values), "q3": q[2],
            "max": max(values), "samples": len(values)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    os.environ.update(THREAD_ENV)  # for the workers and for the speed reference run here

    root = Path.cwd()
    if not (root / "src" / "slly" / "cli.py").is_file():
        sys.stderr.write("perfbench: run from the root of a slly checkout (no src/slly/cli.py here)\n")
        return 2
    compileall.compile_dir(root / "src", quiet=1)  # the build: bytecode for every module
    out = root / OUT_DIR
    out.mkdir(exist_ok=True)

    raw_setups, setups = [], []
    for _ in range(0 if args.trace else PROBES):
        _, raw, setup = spawn(args, "probe", out, timeout=60)
        raw_setups.append(raw)
        setups.append(setup)
    mode = "trace" if args.trace else "measure"
    result, raw, setup = spawn(args, mode, out, timeout=args.seconds + 120)
    raw_setups.append(raw)
    setups.append(setup)

    failures = result["failures"]
    attempted = result["attempted"]
    untraced = [p for p in result["passes"] if not p["traced"]]
    wall, largest = scaled(untraced, result["tasks"], REFERENCE[args.workload])
    end_to_end = {
        "wall_s": wall,
        "largest_n_s": largest,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    samples = {
        "setup_s": summary(setups),
        "raw_pass_tasks_s": summary([p["tasks_s"] for p in untraced]),
        "raw_pass_largest_n_s": summary([p["largest_n_s"] for p in untraced]),
        "raw_setup_s": summary(raw_setups),
        "kernel_s": summary([k for p in untraced for k in p["kernel_seconds"]]),
    }
    if args.trace:
        units = {name: unit for name, unit, _ in LAYER_METRICS}
        traced = [p for p in result["passes"] if p["traced"]]
        traced_wall, _ = scaled(traced, result["tasks"], REFERENCE[args.workload])
        values = dict(result["layers"], failed_frac=len(failures) / attempted,
                      trace_overhead_frac=traced_wall / wall - 1.0)
    else:
        units = END_TO_END
        values = end_to_end
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    record = {
        "stamp": {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "git_commit": git_commit(root),
            "source_sha256": source_digest(root),
            "nproc": os.cpu_count(),
            "cpu_affinity": len(os.sched_getaffinity(0)),
            "platform": platform.platform(),
            "versions": result["versions"],
            "thread_env": THREAD_ENV,
            "loop": "closed, one client, tasks back to back in one process",
        },
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "end_to_end": end_to_end,
        "samples": samples,
        "metrics": metrics,
        "passes": result["passes"],
        "tasks": result["tasks"],
    }
    for key in ("layers_with_spans", "spans", "spans_file"):
        if key in result:
            record[key] = result[key]
    path = out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:>14.6g} {m['unit']}")
    print(f"passes {len(untraced)} untraced, set-up samples {len(setups)}; record: {path}")
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
