"""Command-line driver: exit codes, report shape, determinism, config files."""

import json
import os
import pathlib
import stat
import subprocess
import sys

import pytest

from slly import cli


#: a quick two-grid convergence study that writes a CSV table
SMALL_CONVERGE = ["lattice", "converge", "--n", "2", "--sector", "2", "--c", "2", "--box", "8",
                  "--points-list", "19,39", "--seed", "1"]


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


class TestBetheCommands:
    def test_collision_passes_with_expected_energy(self, capsys):
        code, out = run(
            ["bethe", "collision", "--n", "3", "--k", "1.5,0.2,-0.9", "--c", "2"], capsys
        )
        assert code == 0
        report = json.loads(out)
        assert report["pass"] is True
        assert report["results"]["energy"] == pytest.approx(3.10)

    def test_trimer_ground_energy(self, capsys):
        code, out = run(["bethe", "trimer", "--p", "0", "--c", "-1"], capsys)
        assert code == 0
        assert json.loads(out)["results"]["energy"] == pytest.approx(-2.0)

    def test_missing_coupling_is_config_error(self, capsys):
        code, _ = run(["bethe", "collision", "--n", "2", "--k", "1.0,-1.0"], capsys)
        assert code == 2

    def test_unknown_command_is_config_error(self, capsys):
        code, _ = run(["bethe", "pentamer", "--c", "-1"], capsys)
        assert code == 2

    def test_too_many_particles_exits_before_enumerating(self):
        # 11! orderings would take hours; the particle-count guard must come first
        src = pathlib.Path(cli.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        argv = ["bethe", "collision", "--n", "11", "--k=11,10,9,8,7,6,5,4,3,2,1", "--c", "1"]
        proc = subprocess.run(
            [sys.executable, "-m", "slly.cli", *argv],
            capture_output=True, text=True, env=env, timeout=10,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "particle count 11" in proc.stderr


class TestSusyCommands:
    def test_census(self, capsys):
        code, out = run(["susy", "census", "--n", "3", "--c", "1"], capsys)
        assert code == 0
        results = json.loads(out)["results"]
        assert (results["n_b"], results["n_f"], results["index"]) == (1, 1, 0)

    def test_algebra_requires_seed(self, capsys):
        code, _ = run(["susy", "algebra", "--n", "2", "--c", "0.7", "--trials", "3"], capsys)
        assert code == 2

    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_algebra_needs_a_trial(self, capsys, trials):
        code = cli.main(
            ["susy", "algebra", "--n", "2", "--c", "0.7", f"--trials={trials}", "--seed", "7"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "--trials must be at least 1" in captured.err

    def test_algebra_fuzz_passes(self, capsys):
        code, out = run(
            ["susy", "algebra", "--n", "3", "--c", "0.7", "--trials", "5", "--seed", "7"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["results"]["max_anticommutator_residual"] < 1e-12

    def test_sector_blocks_emitted(self, capsys):
        code, out = run(["susy", "sector", "--n", "3", "--grade", "1", "--c", "1"], capsys)
        assert code == 0
        results = json.loads(out)["results"]
        assert results["couplings"]["1,2"] == [[0.0, 2.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.0, 2.0]]

    def test_zero_modes(self, capsys):
        code, out = run(["susy", "zero-modes", "--n", "3", "--c", "1.2"], capsys)
        assert code == 0
        results = json.loads(out)["results"]
        assert results["top"]["q_residual"] == 0.0

    def test_partner_roundtrip(self, capsys):
        code, out = run(
            ["susy", "partner", "--n", "2", "--c", "1.0", "--k", "1.3,-0.4"], capsys
        )
        assert code == 0
        assert json.loads(out)["results"]["partner_grade"] == 1


class TestLatticeCommands:
    def test_spectrum(self, capsys):
        code, out = run(
            [
                "lattice", "spectrum", "--n", "2", "--sector", "2", "--c", "2",
                "--box", "8", "--points", "24", "--eigs", "3", "--seed", "1",
            ],
            capsys,
        )
        assert code == 0
        spec = json.loads(out)["results"]["spectrum"]
        assert spec["eigenvalues"] == sorted(spec["eigenvalues"])
        assert max(spec["residuals"]) < 1e-8

    def test_unsupported_particle_count(self, capsys):
        code, _ = run(
            [
                "lattice", "spectrum", "--n", "4", "--sector", "0", "--c", "2",
                "--box", "8", "--points", "20", "--eigs", "2", "--seed", "1",
            ],
            capsys,
        )
        assert code == 2

    def test_converge_writes_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "table.csv"
        code, out = run(
            [
                "lattice", "converge", "--n", "2", "--sector", "2", "--c", "2",
                "--box", "12", "--points-list", "59,119", "--seed", "1",
                "--csv", str(csv_path),
            ],
            capsys,
        )
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "h,L,sector,lambda_1,res_1"
        assert len(lines) == 3

    @pytest.mark.parametrize("points_list", ["39,39", "39", "79,39"])
    def test_converge_needs_two_increasing_sizes(self, capsys, tmp_path, points_list):
        csv_path = tmp_path / "table.csv"
        code = cli.main(
            ["lattice", "converge", "--n", "2", "--c", "2", "--sector", "2", "--box", "12",
             "--points-list", points_list, "--seed", "1", "--csv", str(csv_path)]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == "" and not csv_path.exists()
        assert captured.err.startswith("slly: points_list needs at least two strictly")
        assert captured.err.count("\n") == 1

    def test_diagnostic(self, capsys):
        code, out = run(
            [
                "lattice", "diagnostic", "--n", "2", "--c", "2",
                "--box", "8", "--points", "24", "--seed", "3",
            ],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["results"]["band_width"] <= 1


class TestReportPlumbing:
    def test_byte_identical_reports(self, capsys):
        argv = ["susy", "algebra", "--n", "2", "--c", "0.9", "--trials", "4", "--seed", "11"]
        _, first = run(argv, capsys)
        _, second = run(argv, capsys)
        assert first == second

    def test_byte_identical_lattice_reports(self, capsys):
        argv = [
            "lattice", "spectrum", "--n", "2", "--sector", "1", "--c", "1.5",
            "--box", "8", "--points", "20", "--eigs", "3", "--seed", "5",
        ]
        _, first = run(argv, capsys)
        _, second = run(argv, capsys)
        assert first == second

    def test_output_file_written_atomically(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, out = run(
            ["bethe", "dimer", "--p", "0.5", "--c", "-2", "--output", str(out_path)], capsys
        )
        assert code == 0
        assert out_path.read_text() == out

    def test_config_file_supplies_defaults_and_flags_win(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# sweep defaults\nc = -1\np = 0.25\n")
        code, out = run(["bethe", "trimer", "--config", str(cfg)], capsys)
        assert code == 0
        assert json.loads(out)["config"]["p"] == 0.25
        code, out = run(["bethe", "trimer", "--config", str(cfg), "--p", "0"], capsys)
        assert code == 0
        assert json.loads(out)["results"]["energy"] == pytest.approx(-2.0)

    def test_verification_failure_exit_code(self, capsys):
        # rounding noise in the fuzz residuals sits far above 1e-18, so an
        # impossibly tight (but valid) tolerance flips the pass flag
        code, out = run(
            ["susy", "algebra", "--n", "3", "--c", "0.7", "--trials", "3",
             "--seed", "1", "--tol", "1e-18"],
            capsys,
        )
        assert code == 1
        assert json.loads(out)["pass"] is False

    def test_nonpositive_tolerance_is_config_error(self, capsys):
        code, _ = run(
            ["bethe", "collision", "--n", "2", "--k", "1.0,-0.25", "--c", "1.5",
             "--tol", "-1"],
            capsys,
        )
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["bethe", "collision", "--n", "2", "--k", "1.0,-0.25", "--c", "nan"],
            ["bethe", "collision", "--n", "2", "--k", "1.0,-0.25", "--c", "inf"],
            ["bethe", "collision", "--n", "2", "--k=1,nan", "--c", "1.5"],
            ["bethe", "collision", "--n", "2", "--k", "1.0,-0.25", "--c", "1.5", "--tol", "nan"],
            ["bethe", "collision", "--n", "2", "--k", "1.0,-0.25", "--c", "1.5", "--tol", "inf"],
            ["bethe", "dimer", "--p", "inf", "--c=-2"],
            ["bethe", "monomer-dimer", "--p", "0.8", "--q=-inf", "--c=-1.5"],
            ["susy", "zero-modes", "--n", "3", "--c", "nan"],
            ["lattice", "converge", "--n", "2", "--sector", "2", "--c", "2", "--box", "inf",
             "--seed", "1"],
        ],
    )
    def test_non_finite_number_is_config_error(self, capsys, argv):
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("slly: --") and captured.err.count("\n") == 1
        assert "finite" in captured.err

    @pytest.mark.parametrize(
        "spaced, joined",
        [
            (["bethe", "collision", "--n", "2", "--k", "-0.9,-1.2", "--c", "1"],
             ["bethe", "collision", "--n", "2", "--k=-0.9,-1.2", "--c", "1"]),
            (["bethe", "collision", "--n", "2", "--k", "0.9,-1.2", "--c", "-1e-1"],
             ["bethe", "collision", "--n", "2", "--k", "0.9,-1.2", "--c=-1e-1"]),
            (["susy", "partner", "--n", "2", "--c", "1", "--k", "-0.4,-1.3"],
             ["susy", "partner", "--n", "2", "--c", "1", "--k=-0.4,-1.3"]),
            (SMALL_CONVERGE[:-4] + ["--points-list", "-19,39", "--seed", "1"],
             SMALL_CONVERGE[:-4] + ["--points-list=-19,39", "--seed", "1"]),
            (["bethe", "collision", "--n", "2", "--k", "-inf,-1", "--c", "1"],
             ["bethe", "collision", "--n", "2", "--k=-inf,-1", "--c", "1"]),
        ],
    )
    def test_negative_value_as_its_own_argument(self, capsys, spaced, joined):
        """A value starting with "-" after a numeric option reads as with "=" (same bytes)."""
        first = (cli.main(spaced), *capsys.readouterr())
        second = (cli.main(joined), *capsys.readouterr())
        assert first == second
        assert "expected one argument" not in first[2]

    def test_option_after_numeric_option_is_not_a_value(self, capsys):
        code = cli.main(["bethe", "collision", "--n", "2", "--k", "--c", "1"])
        assert code == 2
        assert "argument --k: expected one argument" in capsys.readouterr().err

    def test_non_finite_config_value_is_config_error(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("c = nan\np = 0.25\n")
        code = cli.main(["bethe", "trimer", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "slly: --c must be a finite number, got nan\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["bethe", "collision", "--n", "2", "--k=1e200,-1e200", "--c", "1"],
            ["bethe", "dimer", "--p", "1e200", "--c=-1"],
        ],
    )
    def test_non_finite_result_is_config_error(self, capsys, tmp_path, argv):
        out_path = tmp_path / "report.json"
        code = cli.main([*argv, "--output", str(out_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "slly: reports must not contain NaN or infinities\n"
        assert not out_path.exists()

    def test_unwritable_output_is_config_error(self, capsys, tmp_path):
        out_path = tmp_path / "missing-dir" / "report.json"
        code = cli.main(["bethe", "dimer", "--p", "0.5", "--c=-2", "--output", str(out_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("slly: ") and captured.err.count("\n") == 1

    def test_unwritable_output_error_names_the_given_path(self, capsys, tmp_path):
        out_path = tmp_path / "missing-dir" / "report.json"
        code = cli.main(["bethe", "dimer", "--p", "0.5", "--c=-2", "--output", str(out_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == f"slly: [Errno 2] No such file or directory: '{out_path}'\n"

    @pytest.mark.parametrize("target", ["missing-dir/report.json", "."])
    def test_failing_output_leaves_no_csv_behind(self, capsys, tmp_path, target):
        # "." is a directory: the report's temporary file is written, the move fails
        out_path = tmp_path / target
        code = cli.main([*SMALL_CONVERGE, "--csv", str(tmp_path / "t.csv"),
                         "--output", str(out_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and str(out_path) in captured.err
        assert list(tmp_path.iterdir()) == []

    def test_written_files_get_the_umask_mode(self, capsys, tmp_path):
        old = os.umask(0o027)
        try:
            code = cli.main([*SMALL_CONVERGE, "--csv", str(tmp_path / "t.csv"),
                             "--output", str(tmp_path / "r.json")])
        finally:
            os.umask(old)
        capsys.readouterr()
        assert code == 0
        for name in ("t.csv", "r.json"):
            assert stat.S_IMODE((tmp_path / name).stat().st_mode) == 0o640

    @pytest.mark.parametrize(
        "argv",
        [
            ["lattice", "diagnostic", "--n", "2", "--c", "2", "--box", "8", "--points", "24",
             "--seed", "3"],
            ["lattice", "spectrum", "--n", "2", "--sector", "0", "--c", "1", "--box", "8",
             "--points", "20", "--seed", "1"],
            ["lattice", "converge", "--n", "2", "--sector", "2", "--c", "2", "--seed", "1"],
            ["susy", "zero-modes", "--n", "3", "--c", "1"],
            ["susy", "census", "--n", "3", "--c", "1"],
            ["susy", "partner", "--n", "2", "--c", "1", "--k", "1.3,-0.4"],
            ["susy", "sector", "--n", "3", "--grade", "1", "--c", "1"],
        ],
    )
    def test_tol_is_rejected_where_unused(self, capsys, argv):
        command = " ".join(argv[:2])
        for extra in (["--tol", "5"], ["--tol", "1e-300"]):
            code = cli.main([*argv, *extra])
            captured = capsys.readouterr()
            assert code == 2
            assert captured.out == ""
            assert captured.err == f"slly: --tol is not used by {command}\n"

    def test_tol_in_config_is_rejected_where_unused(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 3\nc = 1\ntol = 1e-5\n")
        code = cli.main(["susy", "census", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == "slly: --tol is not used by susy census\n"

    def test_tol_defaults_are_echoed(self, capsys):
        _, out = run(["bethe", "dimer", "--p", "0.5", "--c=-2"], capsys)
        assert json.loads(out)["config"]["tol"] == 1e-10
        _, out = run(["susy", "algebra", "--n", "2", "--c", "1", "--trials", "1", "--seed", "1"],
                     capsys)
        assert json.loads(out)["config"]["tol"] == 1e-12

    @pytest.mark.parametrize("value, emitted", [("true", True), ("false", False)])
    def test_emit_state_from_config(self, capsys, tmp_path, value, emitted):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"c = -2\np = 0.5\nemit_state = {value}\n")
        code, out = run(["bethe", "dimer", "--config", str(cfg)], capsys)
        assert code == 0
        assert ("state" in json.loads(out)["results"]) is emitted

    @pytest.mark.parametrize("value", ["yes", "1", "True", ""])
    def test_bad_boolean_config_value_is_config_error(self, capsys, tmp_path, value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"c = -2\np = 0.5\nemit_state = {value}\n")
        code = cli.main(["bethe", "dimer", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "emit_state must be true or false" in captured.err

    def test_config_choice_is_validated(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 2\nc = 1\nk = 1.3,-0.4\ndirection = sideways\n")
        code = cli.main(["susy", "partner", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "direction must be one of raise, lower" in captured.err

    def test_unknown_config_key_is_config_error(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("c = -1\np = 0.25\ntypo = 5\n")
        code = cli.main(["bethe", "trimer", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "unknown config key 'typo'" in captured.err

    def test_discontinuous_state_is_config_error(self, capsys, monkeypatch):
        from slly import piecewise as pw
        from slly import susy

        original = susy.zero_mode_top

        def broken_top(sp):
            mode = original(sp)
            (mask, f), = mode.components.items()
            kink = pw.build(sp.n, {pw.Region((2, 1, 3)): [(0.5, (0j,) * sp.n)]})
            return susy.spinor_from_scalar(pw.add(f, kink), mask)

        monkeypatch.setattr(susy, "zero_mode_top", broken_top)
        code = cli.main(["susy", "zero-modes", "--n", "3", "--c", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert "discontinuous" in captured.err

    def test_report_carries_version_and_config_echo(self, capsys):
        _, out = run(["susy", "census", "--n", "2", "--c", "1"], capsys)
        report = json.loads(out)
        assert report["artifact"] == "slly"
        assert report["version"]
        assert report["config"]["n"] == 2

    def test_solver_non_convergence_exit_code(self, capsys, monkeypatch):
        import numpy as np

        from slly import lattice
        from slly.errors import ConvergenceError

        def explode(*args, **kwargs):
            raise ConvergenceError("stalled", {"converged": 0})

        monkeypatch.setattr(lattice, "lowest_eigenvalues", explode)
        code = cli.main(
            [
                "lattice", "spectrum", "--n", "2", "--sector", "0", "--c", "1",
                "--box", "8", "--points", "20", "--eigs", "2", "--seed", "1",
            ]
        )
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert 'slly: diagnostics: {"converged": 0}\n' in captured.err

        # the supercharge diagnostic's own solve maps ARPACK failure the same way
        def no_convergence(*args, **kwargs):
            raise lattice.spla.ArpackNoConvergence("no convergence", np.zeros(0), None)

        monkeypatch.setattr(lattice.spla, "eigsh", no_convergence)
        code = cli.main(
            [
                "lattice", "diagnostic", "--n", "2", "--c", "2",
                "--box", "8", "--points", "24", "--seed", "3",
            ]
        )
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert 'slly: diagnostics: {"converged": 0, "requested": 1}\n' in captured.err

    def test_uncertified_shift_exit_code(self, capsys, monkeypatch):
        from slly import lattice

        monkeypatch.setattr(lattice, "_shift_invert", lambda a_mat, sigma: (None, False))
        code = cli.main(
            [
                "lattice", "spectrum", "--n", "2", "--sector", "1", "--c", "2",
                "--box", "8", "--points", "20", "--eigs", "2", "--seed", "1",
            ]
        )
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        diagnostics = json.loads(captured.err.split("slly: diagnostics: ")[1])
        assert set(diagnostics) == {"gershgorin", "sigma"}
        # sector 1 couples at -2c/h on the coincidence line, so the Gershgorin
        # bound is negative and the fallback shift sits one below it
        assert diagnostics["sigma"] == diagnostics["gershgorin"] - 1.0 < -1.0
