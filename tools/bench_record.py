"""Fold the records of alternating parent/change benchmark runs into one BENCH file.

    python3 tools/bench_record.py --parent DIR --change DIR --label NAME [--out PATH]
        [--parent-n-sweep FILE --change-n-sweep FILE]

Each DIR is a checkout on which ``perfbench/run.py`` was run once per seed,
parent and change taking turns, or its ``.perfbench_out/`` directory
itself.  Records are paired by (workload, seed, trace); a record without a
partner is an error, and so is a pair whose task argv lists differ.  The
output (by default ``BENCH_<label>.json`` at the root of this checkout)
holds, per workload and trace mode:

- the seeds and the commit and source digest of each side;
- the failed task counts of each side;
- how many of the paired tasks' reports differ (their SHA-256 digests);
- per metric: unit, direction (from ``BENCHMARK.json``), min, q1, median,
  q3 and max of each side, the change's pair wins (strictly better than the
  parent on the same seed), the ratio of medians, and whether the median
  moved by more than the parent's interquartile range.

With ``--parent-n-sweep`` and ``--change-n-sweep`` (each the printed JSON
lines of one or more ``tools/n_sweep.py`` runs on that side, the runs taking
turns with the other side's) the file also holds ``n_sweep``: per particle
count, the pairs (the k-th row of that N on each side) and, per time column
(``*_s``) and page-fault column (``*_faults``), lower being better for both,
the same summary as a metric's.  A row that did not pass, or a particle
count or column without a partner, is an error.

Quartiles are those of ``statistics.quantiles(n=4)``, as in perfbench's own
summaries.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ".perfbench_out"


def _records(where: Path) -> dict[tuple[str, int, int], dict]:
    folder = where / OUT_DIR if (where / OUT_DIR).is_dir() else where
    found = {}
    for path in sorted(folder.glob("*-seed*-trace*.json")):
        rec = json.loads(path.read_text())
        stamp = rec["stamp"]
        found[(stamp["workload"], stamp["seed"], stamp["trace"])] = rec
    if not found:
        raise SystemExit(f"bench_record: no benchmark records under {folder}")
    return found


def _directions() -> dict[str, str]:
    """Each metric's better direction, as ``BENCHMARK.json`` declares it."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}


def _summary(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"min": min(values), "q1": q[0], "median": statistics.median(values), "q3": q[2],
            "max": max(values)}


def _only(values: set, what: str):
    if len(values) != 1:
        raise SystemExit(f"bench_record: records of one side disagree on {what}: {sorted(values)}")
    return values.pop()


def _side(recs: list[dict]) -> dict:
    return {
        "git_commit": _only({r["stamp"]["git_commit"] for r in recs}, "git_commit"),
        "source_sha256": _only({r["stamp"]["source_sha256"] for r in recs}, "source_sha256"),
        "failed": sum(r["failed"] for r in recs),
        "attempted": sum(r["attempted"] for r in recs),
    }


def _metric(name: str, parent: list[dict], change: list[dict], better: str | None) -> dict:
    old = [r["metrics"][name]["value"] for r in parent]
    new = [r["metrics"][name]["value"] for r in change]
    return {"unit": parent[0]["metrics"][name]["unit"], "better": better,
            **_compare(old, new, better)}


def _compare(old: list[float], new: list[float], better: str | None) -> dict:
    """The summaries of both sides' values, their median ratio and, with a
    direction, the change's pair wins and whether its median gain exceeds the
    parent's interquartile range."""
    out = {"parent": _summary(old), "change": _summary(new)}
    p, c = out["parent"], out["change"]
    out["median_ratio"] = c["median"] / p["median"] if p["median"] else None
    if better in ("lower", "higher"):
        sign = 1.0 if better == "lower" else -1.0
        out["change_wins"] = sum(sign * (a - b) > 0 for a, b in zip(old, new))
        gain = sign * (p["median"] - c["median"])
        out["median_gain_exceeds_parent_iqr"] = gain > p["q3"] - p["q1"]
    return out


def _sweep_rows(path: Path) -> dict[int, list[dict]]:
    """The ``n_sweep`` rows of one side by particle count, in run order."""
    rows: dict[int, list[dict]] = {}
    for line in path.read_text().splitlines():
        if line.strip():
            row = json.loads(line)
            if not row.get("passed"):
                raise SystemExit(f"bench_record: {path}: a row that did not pass: {line}")
            rows.setdefault(row["n"], []).append(row)
    if not rows:
        raise SystemExit(f"bench_record: no n_sweep rows in {path}")
    return rows


def fold_n_sweep(parent_path: Path, change_path: Path) -> list[dict]:
    """Pair the ``n_sweep`` rows of both sides per particle count (see the module doc)."""
    parent, change = _sweep_rows(parent_path), _sweep_rows(change_path)
    out = []
    for n in sorted(parent.keys() | change.keys()):
        old, new = parent.get(n, []), change.get(n, [])
        if len(old) != len(new):
            raise SystemExit(f"bench_record: n_sweep N={n}: {len(old)} parent rows, "
                             f"{len(new)} change rows")
        columns = {}
        for name in sorted(k for k in old[0] if k.endswith(("_s", "_faults"))):
            a, b = [r[name] for r in old], [r[name] for r in new]
            if (None in a) != (None in b) or len(set(map(type, a + b))) > 1:
                raise SystemExit(f"bench_record: n_sweep N={n}: {name} lacks a partner")
            if None not in a:
                unit = "s" if name.endswith("_s") else "faults"
                columns[name] = {"unit": unit, "better": "lower", **_compare(a, b, "lower")}
        out.append({"n": n, "pairs": len(old), "metrics": columns})
    return out


def fold(parent_dir: Path, change_dir: Path, label: str) -> dict:
    parent, change = _records(parent_dir), _records(change_dir)
    if parent.keys() != change.keys():
        missing = sorted(parent.keys() ^ change.keys())
        raise SystemExit(f"bench_record: runs without a partner (workload, seed, trace): {missing}")
    directions = _directions()
    groups: dict[tuple[str, int], list[int]] = {}
    for workload, seed, trace in sorted(parent):
        groups.setdefault((workload, trace), []).append(seed)
    runs = []
    for (workload, trace), seeds in groups.items():
        old = [parent[(workload, seed, trace)] for seed in seeds]
        new = [change[(workload, seed, trace)] for seed in seeds]
        changed = 0
        for a, b in zip(old, new):
            if [t["argv"] for t in a["tasks"]] != [t["argv"] for t in b["tasks"]]:
                seed = a["stamp"]["seed"]
                raise SystemExit(f"bench_record: {workload} seed {seed}: task lists differ")
            changed += sum(ta["sha256"] != tb["sha256"] for ta, tb in zip(a["tasks"], b["tasks"]))
        names = [n for n in old[0]["metrics"] if all(n in r["metrics"] for r in old + new)]
        runs.append({
            "workload": workload,
            "trace": trace,
            "seeds": seeds,
            "pairs": len(seeds),
            "reports_changed": changed,
            "parent": _side(old),
            "change": _side(new),
            "metrics": {n: _metric(n, old, new, directions.get(n)) for n in names},
        })
    return {"label": label, "runs": runs}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="parent checkout or its records")
    ap.add_argument("--change", type=Path, required=True, help="change checkout or its records")
    ap.add_argument("--label", required=True, help="names the output BENCH_<label>.json")
    ap.add_argument("--out", type=Path,
                    help="output path (default: BENCH_<label>.json at the root)")
    ap.add_argument("--parent-n-sweep", type=Path, help="the parent's n_sweep JSON lines")
    ap.add_argument("--change-n-sweep", type=Path, help="the change's n_sweep JSON lines")
    args = ap.parse_args(argv)
    if (args.parent_n_sweep is None) != (args.change_n_sweep is None):
        ap.error("--parent-n-sweep and --change-n-sweep go together")
    bench = fold(args.parent, args.change, args.label)
    if args.parent_n_sweep is not None:
        bench["n_sweep"] = fold_n_sweep(args.parent_n_sweep, args.change_n_sweep)
    out = args.out or ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n")
    for run in bench["runs"]:
        for name in ("wall_s", "largest_n_s", "setup_s", "peak_rss_mb"):
            m = run["metrics"].get(name)
            if m:
                print(f"{run['workload']:18s} {name:12s} {m['parent']['median']:10.4g} -> "
                      f"{m['change']['median']:10.4g}  wins {m.get('change_wins')}/{run['pairs']}",
                      file=sys.stderr)
    for row in bench.get("n_sweep", ()):
        for name, m in row["metrics"].items():
            print(f"n_sweep N={row['n']:<11d} {name:18s} {m['parent']['median']:10.4g} -> "
                  f"{m['change']['median']:10.4g}  wins {m['change_wins']}/{row['pairs']}",
                  file=sys.stderr)
    print(out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
