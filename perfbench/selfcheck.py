"""Self-check of the benchmark harness; times nothing.

Run from the root of a checkout:

    python3 perfbench/selfcheck.py

For every workload and seeds 0..9 it checks that the task generator is
deterministic under a fixed seed and differs between seeds, and that every
generated argv parses with the slly command-line parser (no exit code 2).
It also checks that BENCHMARK.json names exactly the workloads and metrics
the harness reports.  Exits 1 with one line per problem, else 0.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import workloads
from run import END_TO_END
from tracing import LAYER_METRICS

SEEDS = range(10)


def parse_exit_code(parser, argv: list[str]) -> int:
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    return 0


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    from slly import cli

    problems = []
    for name in workloads.WORKLOADS:
        lists = []
        for seed in SEEDS:
            tasks = workloads.generate(name, seed)
            if tasks != workloads.generate(name, seed):
                problems.append(f"{name} seed {seed}: generator is not deterministic")
            for task in tasks:
                # the CLI has no public parse-only entry point; a timed run would
                # still catch exit code 2, only later
                code = parse_exit_code(cli._build_parser(), task.argv)
                if code != 0:
                    problems.append(f"{name} seed {seed}: {task.argv} exits {code} while parsing")
            lists.append(tasks)
        if any(a == b for i, a in enumerate(lists) for b in lists[i + 1:]):
            problems.append(f"{name}: two seeds give the same task list")

    bench = json.loads((root / "BENCHMARK.json").read_text())
    declared = {
        "workloads": [w["name"] for w in bench["workloads"]],
        "end_to_end": {m["name"]: m["unit"] for m in bench["end_to_end"]},
        "per_layer": [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]],
    }
    reported = {
        "workloads": list(workloads.WORKLOADS),
        "end_to_end": END_TO_END,
        "per_layer": [tuple(m) for m in LAYER_METRICS],
    }
    for key, want in reported.items():
        if declared[key] != want:
            problems.append(f"BENCHMARK.json {key} differ from what the harness reports")

    for line in problems:
        print(line)
    print(f"self-check: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
