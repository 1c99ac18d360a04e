"""Print the SHA-256 of every benchmark task's report for one checkout.

    python3 tools/report_digests.py --root DIR --seeds 1-6 [--workload NAME]

The task lists come from ``DIR/perfbench/workloads.py`` (imported, never
modified) and every task runs in process through ``slly.cli.main`` with slly
imported from ``DIR/src``.  Without ``--workload`` every workload in
``workloads.WORKLOADS`` runs, one after the other.  Each output line is

    <workload> <seed> <task index> <exit code> <sha256 of stdout> <argv>

so two checkouts give byte-identical reports exactly when

    diff <(python3 tools/report_digests.py --root A --seeds 1-6) \\
         <(python3 tools/report_digests.py --root B --seeds 1-6)

prints nothing.  BLAS runs single-threaded, as in the benchmark.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import os
import sys
from pathlib import Path

THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS")


def _seed_range(text: str) -> range:
    first, sep, last = text.partition("-")
    lo, hi = int(first), int(last) if sep else int(first)
    if hi < lo:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return range(lo, hi + 1)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=Path, required=True, help="root of the checkout to run")
    ap.add_argument("--seeds", type=_seed_range, required=True, help="seed or range A-B")
    ap.add_argument("--workload", help="run this workload only (default: every one)")
    args = ap.parse_args(argv)

    root = args.root.resolve()
    for var in THREAD_ENV:
        os.environ.setdefault(var, "1")
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    workloads = importlib.import_module("workloads")
    cli = importlib.import_module("slly.cli")
    if Path(cli.__file__).resolve().parents[1] != root / "src":
        raise SystemExit(f"slly was imported from {cli.__file__}, not from {root / 'src'}")
    if args.workload not in (None, *workloads.WORKLOADS):
        raise SystemExit(f"unknown workload {args.workload!r}; one of {workloads.WORKLOADS}")

    for name in workloads.WORKLOADS if args.workload is None else (args.workload,):
        for seed in args.seeds:
            for i, task in enumerate(workloads.generate(name, seed)):
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    rc = cli.main(task.argv)
                digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
                print(name, seed, i, rc, digest, " ".join(task.argv), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
