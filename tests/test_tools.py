"""Measurement tools under tools/: they run and print what they document."""

import importlib.util
import json
import pathlib
import subprocess
import sys

import pytest

from slly import bethe, piecewise as pw, susy

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
    assert all(row["annihilation_s"] >= 0.0 for row in rows)
    assert all(row["algebra_s"] >= 0.0 for row in rows)
    # each timed column has its minor page faults beside it
    timed = ("collision_state", "matching_report", "zero_modes", "annihilation", "algebra")
    assert all(isinstance(row[f"{col}_faults"], int) and row[f"{col}_faults"] >= 0
               for row in rows for col in timed)
    assert [key for key in rows[0] if key.endswith("_faults")] == [f"{c}_faults" for c in timed]


def test_n_sweep_times_zero_modes_without_collisions_above_six(monkeypatch, capsys):
    """From N=7 the collision columns are null and the collision state is never built."""
    spec = importlib.util.spec_from_file_location("n_sweep", ROOT / "tools" / "n_sweep.py")
    n_sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(n_sweep)
    verified = []

    def collision_state(ks, c):
        if len(ks) >= 7:
            raise AssertionError("collision state built at N >= 7")
        return pw.constant_function(len(ks))

    def verify_eigenstate(mode, e, sp):
        verified.append((sp.n, mode.pure_grade()))
        return susy.EigenstateReport(mode.pure_grade(), e, 0.0, 0.0, susy.EIGENSTATE_TOL)

    # stand-ins keep the run short; only the N=7 zero modes are built for real
    monkeypatch.setattr(bethe, "collision_state", collision_state)
    monkeypatch.setattr(bethe, "matching_report", lambda *args: bethe.MatchingReport(0, 0, 0))
    monkeypatch.setattr(susy, "verify_eigenstate", verify_eigenstate)
    monkeypatch.setattr(susy, "annihilation_residuals", lambda mode, sp: (0.0, 0.0))
    checked = []

    def algebra_residuals(s, sp):
        checked.append(sp.n)
        return susy.AlgebraResiduals(0.0, 0.0, 0.0)

    monkeypatch.setattr(susy, "algebra_residuals", algebra_residuals)
    assert n_sweep.main(["--max-n", "7", "--root", str(ROOT)]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [row["n"] for row in rows] == [2, 3, 4, 5, 6, 7]
    columns = ("collision_terms", "collision_state_s", "collision_state_faults",
               "matching_report_s", "matching_report_faults")
    assert all(row[key] is not None for row in rows[:-1] for key in columns)
    assert [rows[-1][key] for key in columns] == [None] * 5
    assert rows[-1]["zero_mode_terms"] == 8 * 5040 and rows[-1]["zero_modes_s"] >= 0.0
    assert rows[-1]["passed"] is True
    assert verified[-2:] == [(7, 7), (7, 6)]
    # the algebra is checked up to N=5, as the symbolic susy commands are
    assert checked == [2, 3, 4, 5]
    assert [row["algebra_s"] is None for row in rows] == [False] * 4 + [True] * 2
    assert [row["algebra_faults"] is None for row in rows] == [False] * 4 + [True] * 2


def test_n_sweep_warms_each_row_before_timing_it(monkeypatch, capsys):
    """Row N's cached tables are built untimed, before the row's first timed call."""
    spec = importlib.util.spec_from_file_location("n_sweep", ROOT / "tools" / "n_sweep.py")
    n_sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(n_sweep)
    events = []
    warm, timed = n_sweep._warm, n_sweep._timed

    def warm_logged(pw_module, susy_module, sp):
        events.append(("warm", sp.n))
        warm(pw_module, susy_module, sp)

    def timed_logged(fn, *args):
        events.append(("timed", fn.__name__))
        return timed(fn, *args)

    monkeypatch.setattr(n_sweep, "_warm", warm_logged)
    monkeypatch.setattr(n_sweep, "_timed", timed_logged)
    assert n_sweep.main(["--max-n", "3", "--root", str(ROOT)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 2
    warms = [i for i, event in enumerate(events) if event[0] == "warm"]
    assert [events[i] for i in warms] == [("warm", 2), ("warm", 3)]
    assert warms[0] == 0 and warms[1] - warms[0] == len(events) - warms[1]
    assert pw._interface_table.cache_info().currsize >= 2


@pytest.mark.parametrize(
    "failing", ["matching", "zero-mode", "zero-mode-nan", "algebra", "algebra-nan"]
)
def test_n_sweep_exits_1_when_a_row_fails(failing, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("n_sweep", ROOT / "tools" / "n_sweep.py")
    n_sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(n_sweep)
    if failing == "matching":
        monkeypatch.setattr(bethe, "matching_report",
                            lambda *args: bethe.MatchingReport(0.0, float("nan"), 0.0))
    elif failing.startswith("zero-mode"):  # a NaN after a zero fails too
        bad = 1.0 if failing == "zero-mode" else float("nan")
        monkeypatch.setattr(susy, "annihilation_residuals", lambda mode, sp: (0.0, bad))
    else:  # one residual just at the tolerance, or a NaN after a zero, fails
        bad = 1e-12 if failing == "algebra" else float("nan")
        monkeypatch.setattr(susy, "algebra_residuals",
                            lambda s, sp: susy.AlgebraResiduals(0.0, bad, 0.0))
    assert n_sweep.main(["--max-n", "3", "--root", str(ROOT)]) == 1
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [row["n"] for row in rows] == [2, 3]
    assert [row["passed"] for row in rows] == [False, False]


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


def _sweep_row(n, match, zero, passed=True):
    return json.dumps({"n": n, "walls": 1, "collision_terms": 4, "collision_state_s": 0.001,
                       "matching_report_s": match, "matching_report_faults": round(match * 1e4),
                       "zero_mode_terms": 6, "zero_modes_s": zero,
                       "annihilation_s": 0.002, "algebra_s": None if n > 5 else 0.003,
                       "passed": passed})


def test_bench_record_folds_n_sweep_pairs(tmp_path):
    _write_record(tmp_path / "parent", 1, "aaaa", 4.0, 200.0)
    _write_record(tmp_path / "change", 1, "bbbb", 1.5, 150.0)
    # two runs per side, one row per N each
    parent = [_sweep_row(5, 0.1, 0.06), _sweep_row(6, 5.0, 0.3),
              _sweep_row(5, 0.12, 0.07), _sweep_row(6, 5.2, 0.32)]
    change = [_sweep_row(5, 0.05, 0.02), _sweep_row(6, 2.0, 0.1),
              _sweep_row(5, 0.04, 0.08), _sweep_row(6, 2.2, 0.12)]
    (tmp_path / "parent.jsonl").write_text("\n".join(parent) + "\n")
    (tmp_path / "change.jsonl").write_text("\n".join(change) + "\n")
    out = tmp_path / "BENCH_n.json"
    proc = _bench_record("--parent", tmp_path / "parent", "--change", tmp_path / "change",
                         "--label", "n", "--out", out,
                         "--parent-n-sweep", tmp_path / "parent.jsonl",
                         "--change-n-sweep", tmp_path / "change.jsonl")
    assert proc.returncode == 0, proc.stderr
    five, six = json.loads(out.read_text())["n_sweep"]
    assert (five["n"], five["pairs"], six["n"], six["pairs"]) == (5, 2, 6, 2)
    assert "algebra_s" in five["metrics"] and "algebra_s" not in six["metrics"]
    match = six["metrics"]["matching_report_s"]
    assert (match["unit"], match["better"]) == ("s", "lower")
    assert match["parent"]["median"] == 5.1 and match["change"]["median"] == 2.1
    assert match["change_wins"] == 2 and match["median_ratio"] == 2.1 / 5.1
    zero = five["metrics"]["zero_modes_s"]
    assert zero["change_wins"] == 1  # the second pair goes the parent's way
    faults = six["metrics"]["matching_report_faults"]
    assert (faults["unit"], faults["better"]) == ("faults", "lower")
    assert faults["parent"]["median"] == 51000 and faults["change"]["median"] == 21000
    assert "n_sweep N=6" in proc.stderr

    (tmp_path / "change.jsonl").write_text("\n".join(change[:3]) + "\n")
    proc = _bench_record("--parent", tmp_path / "parent", "--change", tmp_path / "change",
                         "--label", "n", "--out", out,
                         "--parent-n-sweep", tmp_path / "parent.jsonl",
                         "--change-n-sweep", tmp_path / "change.jsonl")
    assert proc.returncode == 1 and "N=6" in proc.stderr
    (tmp_path / "change.jsonl").write_text(_sweep_row(5, 0.05, 0.02, passed=False) + "\n")
    proc = _bench_record("--parent", tmp_path / "parent", "--change", tmp_path / "change",
                         "--label", "n", "--out", out,
                         "--parent-n-sweep", tmp_path / "parent.jsonl",
                         "--change-n-sweep", tmp_path / "change.jsonl")
    assert proc.returncode == 1 and "did not pass" in proc.stderr
    proc = _bench_record("--parent", tmp_path / "parent", "--change", tmp_path / "change",
                         "--label", "n", "--parent-n-sweep", tmp_path / "parent.jsonl")
    assert proc.returncode == 2 and "go together" in proc.stderr


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


def _bench_workloads(monkeypatch):
    """``perfbench/workloads.py``, imported read-only."""
    spec = importlib.util.spec_from_file_location(
        "_bench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # dataclasses look it up
    spec.loader.exec_module(workloads)
    return workloads


def test_every_benchmark_argv_passes_the_option_check(monkeypatch, capsys):
    """Each workload argv (seeds 0-9) parses and reads only options its command reads.

    The runners are stubbed, so nothing is computed: this checks the command
    table against ``perfbench/workloads.py`` (imported read-only), which the
    benchmark's self-check covers only as far as parsing.
    """
    from slly import cli

    workloads = _bench_workloads(monkeypatch)
    ran = []

    def stub(args):
        ran.append(args)
        return {}, True, None

    stubbed = {group: {name: (stub, reads) for name, (_, reads) in commands.items()}
               for group, commands in cli._COMMANDS.items()}
    monkeypatch.setattr(cli, "_COMMANDS", stubbed)
    tasks = [task for name in workloads.WORKLOADS for seed in range(10)
             for task in workloads.generate(name, seed)]
    for task in tasks:
        code = cli.main(task.argv)
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, ""), task.argv
        config = json.loads(captured.out)["config"]
        assert set(task.params) - {"emit_state"} <= set(config), task.argv
    assert len(ran) == len(tasks) > 0


def test_fresh_parser_parses_every_benchmark_argv(monkeypatch):
    """``cli._build_parser()`` with no argument, as the benchmark's self-check calls it."""
    from slly import cli

    workloads = _bench_workloads(monkeypatch)
    for name in workloads.WORKLOADS:
        for task in workloads.generate(name, 0):
            args = cli._build_parser().parse_args(task.argv)
            assert (args.group, args.config) == (task.group, None), task.argv


def test_report_digests_runs_every_workload_by_default(monkeypatch):
    """One line per task of every workload, led by its name, every task exiting 0."""
    workloads = _bench_workloads(monkeypatch)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "report_digests.py"), "--root", str(ROOT),
         "--seeds", "1"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    rows = [line.split(" ", 5) for line in proc.stdout.splitlines()]
    expected = [(name, str(i), " ".join(task.argv)) for name in workloads.WORKLOADS
                for i, task in enumerate(workloads.generate(name, 1))]
    assert [(name, i, argv) for name, _, i, _, _, argv in rows] == expected
    assert all(seed == "1" and rc == "0" and len(digest) == 64
               for _, seed, _, rc, digest, _ in rows)


def _golden_module(monkeypatch):
    """``tests/test_golden.py``, imported as a module of its own."""
    spec = importlib.util.spec_from_file_location("_golden", ROOT / "tests" / "test_golden.py")
    golden = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, golden)
    spec.loader.exec_module(golden)
    return golden


def test_golden_value_changes_list_every_changed_leaf(monkeypatch):
    golden = _golden_module(monkeypatch)
    old = '{"a": {"x": [1.0, 2.5000000000000001], "n": 60, "s": "keep"}, "b": 0.0}'
    new = '{"a": {"x": [1.0, 2.5000000000000009], "n": 60, "s": "keep"}, "b": 0.0, "c": 3.0}'
    rows = golden.value_changes(old, new, ".json")
    assert [(path, str(a), str(b)) for path, a, b, _ in rows] == [
        ("a.x[1]", "2.5000000000000001", "2.5000000000000009"), ("c", "None", "3.0"),
    ]
    assert rows[0][3] == pytest.approx(8e-16 / 2.5, rel=1e-12)
    assert rows[1][3] == float("inf")
    old_csv = "h,lambda_1\n0.5,1.0\n0.25,2.0\n"
    new_csv = "h,lambda_1\n0.5,1.0\n0.25,2.0000000000000004\n"
    rows = golden.value_changes(old_csv, new_csv, ".csv")
    assert [(path, str(a), str(b)) for path, a, b, _ in rows] == [
        ("[2].lambda_1", "2.0", "2.0000000000000004"),
    ]
    assert golden.value_changes(old, old, ".json") == []


def test_golden_rewrite_prints_the_change_table(monkeypatch, tmp_path):
    golden = _golden_module(monkeypatch)
    (tmp_path / "one.json").write_text('{"e": [4.0, 8.0]}\n')
    (tmp_path / "two.json").write_text('{"e": 1.0}\n')
    (tmp_path / "two.csv").write_text("h,e\n0.5,1.0\n0.25,3.0000000000000001e-14\n")
    monkeypatch.setattr(golden, "GOLDEN", tmp_path)
    monkeypatch.setattr(golden, "CASES", {"one": ["x"], "two": ["y", golden.CSV]})
    reports = {"x": '{"e": [4.000000000000001, 8.0]}\n', "y": '{"e": 1.0}\n'}

    def stdout(argv, csv_path=None):
        if golden.CSV in argv:
            csv_path.write_text("h,e\n0.5,1.0000000000000002\n0.25,3.3000000000000001e-14\n")
        return 0, reports[argv[0]]

    monkeypatch.setattr(golden, "_stdout", stdout)
    table = golden.rewrite_goldens().splitlines()
    assert table[:2] == ["| file | path | old | new | relative change |", "|---|---|---|---|---|"]
    assert table[2:] == [
        "| one.json | e[0] | 4.0 | 4.000000000000001 | 2.5e-16 |",
        "| one.json | largest | | | 2.5e-16 |",
        "| two.csv | [1].e | 1.0 | 1.0000000000000002 | 2e-16 |",
        "| two.csv | [2].e | 3.0000000000000001e-14 | 3.3000000000000001e-14 | 0.1 |",
        "| two.csv | largest | | | 0.1 |",
    ]
    assert (tmp_path / "one.json").read_text() == reports["x"]
    monkeypatch.setattr(golden, "_stdout", lambda argv, csv_path=None: (0, reports[argv[0]]))
    assert golden.rewrite_goldens() == "no golden value changed"
