"""Measurement tools under tools/: they run and print what they document."""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_n_sweep_prints_one_row_per_particle_count():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "n_sweep.py"), "--max-n", "3", "--seed", "4"],
        capture_output=True, text=True, timeout=60, check=True,
    )
    rows = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [row["n"] for row in rows] == [2, 3]
    assert [row["walls"] for row in rows] == [1, 6]
    assert [row["collision_terms"] for row in rows] == [2 * 2, 6 * 6]
    assert all(row["passed"] for row in rows)
    assert all(row["matching_report_s"] >= 0.0 for row in rows)


def test_n_sweep_rejects_out_of_range_n():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "n_sweep.py"), "--max-n", "11"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert "--max-n must be in 2..10" in proc.stderr


def _write_record(folder, seed, commit, wall, rss, report="same"):
    folder.mkdir(parents=True, exist_ok=True)
    record = {
        "stamp": {"workload": "lattice-oracle", "seed": seed, "trace": 0,
                  "git_commit": commit, "source_sha256": commit * 8},
        "failed": 0,
        "attempted": 12,
        "tasks": [
            {"argv": ["lattice", "spectrum", f"--seed={seed}"], "sha256": report},
            {"argv": ["lattice", "diagnostic", f"--seed={seed}"], "sha256": "same"},
        ],
        "metrics": {"wall_s": {"value": wall, "unit": "s"},
                    "peak_rss_mb": {"value": rss, "unit": "MB"}},
    }
    (folder / f"lattice-oracle-seed{seed}-trace0.json").write_text(json.dumps(record))


def _bench_record(*args):
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bench_record.py"), *map(str, args)],
        capture_output=True, text=True, timeout=60,
    )


def test_bench_record_folds_alternating_pairs(tmp_path):
    parent_walls = [4.0, 4.2, 3.9, 4.1]
    change_walls = [1.5, 1.4, 4.5, 1.6]  # the third pair goes the parent's way
    for seed, (old, new) in enumerate(zip(parent_walls, change_walls), start=1):
        _write_record(tmp_path / "parent" / ".perfbench_out", seed, "aaaa", old, 200.0)
        _write_record(tmp_path / "change" / ".perfbench_out", seed, "bbbb", new, 150.0 + seed,
                      report="moved" if seed == 2 else "same")
    out = tmp_path / "BENCH_test.json"
    proc = _bench_record("--parent", tmp_path / "parent", "--change",
                         tmp_path / "change" / ".perfbench_out", "--label", "test", "--out", out)
    assert proc.returncode == 0, proc.stderr
    bench = json.loads(out.read_text())
    assert bench["label"] == "test"
    (run,) = bench["runs"]
    assert (run["workload"], run["trace"], run["seeds"]) == ("lattice-oracle", 0, [1, 2, 3, 4])
    assert run["pairs"] == 4
    assert run["reports_changed"] == 1
    assert run["parent"] == {
        "git_commit": "aaaa", "source_sha256": "aaaa" * 8, "failed": 0, "attempted": 48,
    }
    assert run["change"]["git_commit"] == "bbbb"
    wall = run["metrics"]["wall_s"]
    assert (wall["unit"], wall["better"]) == ("s", "lower")
    assert wall["parent"]["median"] == 4.05
    assert wall["change"]["median"] == 1.55
    assert wall["change"]["min"] == 1.4 and wall["change"]["max"] == 4.5
    assert wall["change_wins"] == 3
    assert wall["median_gain_exceeds_parent_iqr"] is True
    assert wall["median_ratio"] == 1.55 / 4.05
    rss = run["metrics"]["peak_rss_mb"]
    assert rss["change_wins"] == 4
    assert rss["parent"]["q1"] == rss["parent"]["q3"] == 200.0


def test_bench_record_rejects_a_run_without_partner(tmp_path):
    _write_record(tmp_path / "parent", 1, "aaaa", 4.0, 200.0)
    _write_record(tmp_path / "parent", 2, "aaaa", 4.0, 200.0)
    _write_record(tmp_path / "change", 1, "bbbb", 1.5, 150.0)
    proc = _bench_record("--parent", tmp_path / "parent", "--change", tmp_path / "change",
                         "--label", "x", "--out", tmp_path / "x.json")
    assert proc.returncode == 1
    assert "without a partner" in proc.stderr
    assert not (tmp_path / "x.json").exists()


def test_benchmark_tracer_wraps_every_traced_name(monkeypatch):
    """``perfbench/tracing.py`` finds every function it wraps by name, and restores it."""
    import importlib

    from slly import bethe, cli, fock, lattice, susy
    from slly import piecewise as pw

    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    fresh = [name for name in ("tracing", "workloads") if name not in sys.modules]
    modules = {"piecewise": pw, "bethe": bethe, "susy": susy, "fock": fock,
               "lattice": lattice, "cli": cli}
    try:
        tracing = importlib.import_module("tracing")
        tracer = tracing.Tracer()
        try:
            tracing.install(tracer, modules)
            wrapped = list(tracer._undo)
            assert all(getattr(owner, attr) is not fn for owner, attr, fn in wrapped)
        finally:
            tracer.remove()
    finally:
        for name in fresh:
            sys.modules.pop(name, None)
    assert len(wrapped) == 25
    assert {attr for owner, attr, _ in wrapped if owner is pw} >= {
        "restrict_to_interface", "continuity_residual", "jump_residual",
    }
    for owner, attr, original in wrapped:
        assert getattr(owner, attr) is original
