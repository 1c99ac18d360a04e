"""Command-line driver: exit codes, report shape, determinism, config files."""

import json
import math
import os
import pathlib
import stat
import subprocess
import sys
import warnings

import pytest

from slly import cli, susy

GOLDEN = pathlib.Path(__file__).parent / "golden"


#: a quick two-grid convergence study that writes a CSV table
SMALL_CONVERGE = ["lattice", "converge", "--n", "2", "--sector", "2", "--c", "2", "--box", "8",
                  "--points-list", "19,39", "--seed", "1"]

#: one argv per command with an option that command does not read, and that option
UNREAD_OPTIONS = [
    (["bethe", "collision", "--n", "2", "--k", "1.0,-0.25", "--c", "1", "--p", "0.3"], "--p"),
    (["bethe", "dimer", "--c", "-1", "--p", "0.2", "--k", "1,2", "--q", "3"], "--k"),
    (["bethe", "trimer", "--p", "0", "--c", "-1", "--n", "5"], "--n"),
    (["bethe", "monomer-dimer", "--p", "0.8", "--q=-0.4", "--c=-1.5", "--n", "3"], "--n"),
    (["susy", "algebra", "--n", "2", "--c", "0.7", "--trials", "3", "--seed", "7",
      "--direction", "lower"], "--direction"),
    (["susy", "zero-modes", "--n", "3", "--c", "1", "--seed", "4"], "--seed"),
    (["susy", "census", "--n", "3", "--c", "1", "--trials", "5"], "--trials"),
    (["susy", "partner", "--n", "2", "--c", "1", "--k", "1.3,-0.4", "--p", "5", "--q", "2",
      "--grade", "1"], "--p"),
    (["susy", "partner", "--n", "3", "--c", "1", "--state-family", "trimer", "--p", "0.1",
      "--k", "1,0,-1"], "--k"),
    (["susy", "sector", "--n", "3", "--grade", "1", "--c", "1", "--k", "1,0"], "--k"),
    (["lattice", "spectrum", "--n", "2", "--sector", "2", "--c", "2", "--box", "8",
      "--points", "24", "--seed", "1", "--csv", "{csv}"], "--csv"),
    (["lattice", "converge", "--n", "2", "--sector", "2", "--c", "2", "--seed", "1",
      "--points", "60"], "--points"),
    (["lattice", "diagnostic", "--n", "2", "--c", "2", "--box", "8", "--points", "24",
      "--seed", "3", "--sector", "0"], "--sector"),
]


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

    def test_seven_particle_collision_refused_at_once(self):
        # (7!)^2 = 25.4 M raw terms: refused with one line before any is built
        src = pathlib.Path(cli.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        argv = ["bethe", "collision", "--n", "7", "--k=7,6,5,4,3,2,1", "--c", "1"]
        proc = subprocess.run(
            [sys.executable, "-m", "slly.cli", *argv],
            capture_output=True, text=True, env=env, timeout=10,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == (
            "slly: a collision state of 7 particles holds 25401600 terms, "
            "above the budget of 518400 (6 particles)\n"
        )

    @pytest.mark.parametrize("argv", [
        ["susy", "zero-modes", "--n", "3", "--c", "1e-9"],
        ["susy", "census", "--n", "2", "--c", "1e-9"],
        ["bethe", "dimer", "--p", "0", "--c", "-1e-9"],
        ["bethe", "trimer", "--p", "0.1", "--c", "-1e-12"],
        ["bethe", "monomer-dimer", "--p", "0.3", "--q", "-0.2", "--c", "-1e-10"],
    ])
    def test_string_of_small_coupling_is_not_read_as_real_momenta(self, argv, capsys):
        # the string's imaginary parts are at most |c| (N - 1)/2, far below any
        # momentum tolerance; the set is still a string, not N equal real momenta
        code, out = run(argv, capsys)
        assert code == 0
        assert json.loads(out)["pass"] is True


class TestSusyCommands:
    @pytest.mark.parametrize("argv, c", [
        (["susy", "sector", "--n", "2", "--grade", "1", "--c", "1e308"], "1e+308"),
        (["susy", "zero-modes", "--n", "3", "--c", "9e307"], "9e+307"),
    ])
    def test_overflowing_coupling_is_one_stderr_line(self, argv, c):
        # 2c overflows too: c is refused before a coupling block is scaled by it,
        # so no numpy RuntimeWarning precedes the error line
        src = pathlib.Path(cli.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.run(
            [sys.executable, "-m", "slly.cli", *argv],
            capture_output=True, text=True, env=env, timeout=30,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == f"slly: superpotential strength {c} is too large: c^2 overflows\n"

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

    @pytest.mark.parametrize(
        "argv",
        [["zero-modes", "--n", "2"], ["zero-modes", "--n", "5"], ["census", "--n", "3"]],
        ids=["zero-modes-n2", "zero-modes-n5", "census"],
    )
    def test_zero_modes_need_positive_coupling(self, capsys, argv):
        # these used to name the internal N-mer constructor ("N-mer needs c != 0")
        code = cli.main(["susy", *argv, "--c", "0"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            "slly: zero modes need c > 0: at c = 0 exp(-W) is constant, not normalisable\n"
        )

    def test_partner_roundtrip(self, capsys):
        code, out = run(
            ["susy", "partner", "--n", "2", "--c", "1.0", "--k", "1.3,-0.4"], capsys
        )
        assert code == 0
        assert json.loads(out)["results"]["partner_grade"] == 1

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["--state-family", "trimer", "--p", "0.1"],
             "Q^dag vanishes on the top grade 3; use direction 'lower'"),
            (["--state-family", "monomer-dimer", "--p", "0.8", "--q=-0.5"],
             "Q^dag vanishes on the top grade 3; use direction 'lower'"),
        ],
        ids=["trimer", "monomer-dimer"],
    )
    def test_partner_in_a_vanishing_direction_is_config_error(self, capsys, argv, message):
        # these used to print "singlet": true at positive energy and exit 0
        code = cli.main(["susy", "partner", "--n", "3", "--c", "1", "--direction", "raise", *argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"slly: {message}\n"

    @pytest.mark.parametrize(
        "family", [["trimer", "--p", "0.1"], ["monomer-dimer", "--p", "0.8", "--q=-0.5"]]
    )
    def test_partner_bound_states_lower_by_default(self, capsys, family):
        # the bound states sit at the top grade, so only lowering can succeed
        argv = ["susy", "partner", "--n", "3", "--c", "1", "--state-family", *family]
        default = (cli.main(argv), *capsys.readouterr())
        lowered = (cli.main([*argv, "--direction", "lower"]), *capsys.readouterr())
        assert default == lowered
        assert default[0] == 0
        report = json.loads(default[1])
        assert report["config"]["direction"] == "lower"
        assert report["results"]["partner_grade"] == 2

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["--n", "3", "--k", "1.0,0.2"], "--n 3 does not match 2 momenta"),
            (["--n", "2", "--k", "1.0,0.2,-0.5"], "--n 2 does not match 3 momenta"),
            (["--n", "2", "--state-family", "trimer", "--p", "0.1"],
             "--state-family trimer needs --n 3, got 2"),
        ],
        ids=["too-few-momenta", "too-many-momenta", "trimer-n2"],
    )
    def test_partner_particle_count_checked_against_state(self, capsys, argv, message):
        code = cli.main(["susy", "partner", "--c", "1", *argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"slly: {message}\n"


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

    def test_thread_variables_are_left_to_the_caller(self, monkeypatch, capsys):
        # the CLI sets no BLAS/OpenMP variable; SLLY_THREADS is not read
        blas = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
        for var in blas:
            monkeypatch.delenv(var, raising=False)
        monkeypatch.setenv("SLLY_THREADS", "3")
        code, _ = run(["susy", "sector", "--n", "2", "--grade", "1", "--c", "1"], capsys)
        assert code == 0
        assert [var for var in blas if var in os.environ] == []

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

    @pytest.mark.parametrize(
        "argv, message",
        [
            *[
                (["susy", *cmd, "--n", "3", "--c", "1e300"], "superpotential strength 1e+300")
                for cmd in (
                    ["sector", "--grade", "1"],
                    ["algebra", "--trials", "1", "--seed", "1"],
                    ["partner", "--k", "1,0,-1"],
                    ["zero-modes"],
                )
            ],
            (
                ["lattice", "spectrum", "--n", "2", "--sector", "0", "--c", "1e300", "--box", "8",
                 "--points", "16", "--seed", "1"],
                "superpotential strength 1e+300",
            ),
            *[
                (["lattice", "spectrum", "--n", n, "--sector", sector, "--c", "1", "--box", box,
                  "--points", "16", "--seed", "1"], f"box edge length {box}")
                for n, sector, box in (("2", "0", "1e+300"), ("3", "1", "1e-200"))
            ],
        ],
    )
    def test_huge_finite_input_is_config_error(self, capsys, argv, message):
        # c^2 or h^2 overflows (or h^2 underflows to zero): one line, no traceback
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"slly: {message}") and captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "c, box, message",
        [
            # c^2 is finite, the shift c^2 N(N^2 - 1)/12 is not
            ("1e154", "8", "superpotential strength 1e+154 is too large: the shift"),
            # h^2 is subnormal and 2N/h^2 overflows
            ("1", "1e-160", "box edge length 1e-160"),
        ],
    )
    def test_non_finite_sector_matrix_is_config_error(self, capsys, c, box, message):
        argv = ["lattice", "spectrum", "--n", "2", "--sector", "0", "--c", c, "--box", box,
                "--points", "16", "--seed", "1"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"slly: {message}") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("sector", ["0", "1"])
    def test_overflowing_row_sum_is_config_error(self, capsys, sector):
        # every entry is finite (2N/h^2 is about 1.3e308), the sum of a row is not
        argv = ["lattice", "spectrum", "--n", "2", "--sector", sector, "--c", "1e153",
                "--box", "3e-153", "--points", "16", "--seed", "1"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            "slly: box edge length 3e-153 and superpotential strength 1e+153 give matrix rows"
            " whose absolute sum overflows\n")

    @pytest.mark.parametrize("c, box", [("1e154", "16"), ("1", "1e-160")])
    def test_non_finite_supercharge_diagnostic_is_config_error(self, capsys, monkeypatch, c, box):
        from slly import lattice

        def no_factor(*args):
            raise AssertionError("factorised a non-finite operator")

        monkeypatch.setattr(lattice, "_shift_invert", no_factor)
        argv = ["lattice", "diagnostic", "--n", "2", "--c", c, "--box", box, "--points", "20",
                "--seed", "1"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"slly: box edge length {float(box)} and superpotential")
        assert captured.err.endswith("make (1/2){Q, Q^T} overflow\n")
        assert captured.err.count("\n") == 1

    def test_non_finite_diagnostics_are_json(self, capsys, monkeypatch):
        from slly import lattice
        from slly.errors import ConvergenceError

        def explode(*args, **kwargs):
            raise ConvergenceError("stalled", {"sigma": math.nan, "residuals": [1.0, -math.inf]})

        monkeypatch.setattr(lattice, "lowest_eigenvalues", explode)
        code = cli.main(["lattice", "spectrum", "--n", "2", "--sector", "0", "--c", "1",
                         "--box", "8", "--points", "20", "--eigs", "2", "--seed", "1"])
        captured = capsys.readouterr()
        assert code == 3
        line = captured.err.split("slly: diagnostics: ")[1]

        def refuse(name):
            raise AssertionError(f"bare {name} is not JSON")

        diagnostics = json.loads(line, parse_constant=refuse)
        assert diagnostics["sigma"] == "nan"
        assert diagnostics["residuals"] == [1.0, "-inf"]

    def test_census_failure_is_a_verdict(self, capsys):
        # at c=1e152 the alternating mode's Q^dag image no longer cancels to
        # ZERO_MODE_TOL: it is listed, not counted, and the census fails
        code = cli.main(["susy", "census", "--n", "5", "--c", "1e152"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == ""
        report = json.loads(captured.out)
        assert report["pass"] is False
        results = report["results"]
        assert (results["n_b"], results["n_f"], results["index"]) == (0, 1, -1)
        assert results["modes"][1]["q_dagger_residual"] > susy.ZERO_MODE_TOL

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

    @pytest.mark.parametrize("argv, option", UNREAD_OPTIONS)
    def test_option_the_command_does_not_read_is_refused(self, capsys, tmp_path, argv, option):
        csv_path, out_path = tmp_path / "t.csv", tmp_path / "r.json"
        argv = [str(csv_path) if arg == "{csv}" else arg for arg in argv]
        code = cli.main([*argv, "--output", str(out_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"slly: {option} is not used by {' '.join(argv[:2])}\n"
        assert list(tmp_path.iterdir()) == []

    def test_refused_options_cover_every_command(self):
        covered = {tuple(argv[:2]) for argv, _ in UNREAD_OPTIONS}
        assert covered == {(g, c) for g, commands in cli._COMMANDS.items() for c in commands}

    def test_option_in_config_the_command_does_not_read_is_refused(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 3\nc = 1\ntrials = 5\n")
        code = cli.main(["susy", "census", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "slly: --trials is not used by susy census\n"

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

        original = susy.zero_modes

        def broken_top(sp):
            mode, alternating = original(sp)
            (mask, f), = mode.components.items()
            kink = pw.build(sp.n, {pw.Region((2, 1, 3)): [(0.5, (0j,) * sp.n)]})
            return susy.spinor_from_scalar(pw.add(f, kink), mask), alternating

        monkeypatch.setattr(susy, "zero_modes", broken_top)
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
        # a scalar sector is the one-block case, so its diagnostics name the block
        block = '"block": {"parity": "symmetric", "t_f": 1}'
        assert f'slly: diagnostics: {{{block}, "converged": 0}}\n' in captured.err

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
        assert set(diagnostics) == {"block", "gershgorin", "sigma"}
        # sector 1 solves its attractive block first, which couples at -2c/h
        # on the coincidence line, so the Gershgorin bound is negative and the
        # fallback shift sits one below it
        assert diagnostics["block"] == {"t_f": -1, "parity": "symmetric"}
        assert diagnostics["sigma"] == diagnostics["gershgorin"] - 1.0 < -1.0

    @pytest.mark.parametrize("eigs, code", [("0", 2), ("511", 0), ("512", 2)])
    def test_multi_component_sector_contract(self, capsys, eigs, code):
        # 2 x 16^2 = 512 unknowns; at 511 levels every block is solved densely
        argv = ["lattice", "spectrum", "--n", "2", "--sector", "1", "--c", "1", "--box", "6",
                "--points", "16", "--eigs", eigs, "--seed", "1"]
        assert cli.main(argv) == code
        captured = capsys.readouterr()
        if code == 2:
            assert f"k must satisfy 1 <= k <= dim-1 = 511, got {eigs}" in captured.err
        else:
            assert len(json.loads(captured.out)["results"]["spectrum"]["eigenvalues"]) == 511


def reference_render_json(obj, indent: int = 0) -> str:
    """The recursive emitter ``cli.render_json`` replaced: one string per level."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return cli._fmt_float(obj)
    if isinstance(obj, complex):
        return reference_render_json({"re": obj.real, "im": obj.imag}, indent)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        keys = sorted(obj, key=str)
        rows = [f"{inner}{reference_render_json(str(k))}: {reference_render_json(obj[k], indent + 1)}"
                for k in keys]
        return "{\n" + ",\n".join(rows) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        rows = [f"{inner}{reference_render_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(rows) + f"\n{pad}]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def nested(depth: int):
    obj = {"leaf": [1.5, (), {}]}
    for level in range(depth):
        obj = {"level": level, "down": [obj, (level, -0.0)]}
    return obj


#: objects whose rendering has a corner case each
EDGE_OBJECTS = [
    None, True, 0, -0.0, 0.0, 1.0, 1e16, 1e-300, 5e-324, -1.7976931348623157e308, 0.1, 2**70,
    complex(-0.0, 0.0), complex(1.5, -2.25), [complex(0.0, -0.0), 1j],
    {10: "ten", 2: "two", -1: "minus", "a": 1, 1.5: "float key"},
    {True: 1, "False": 2, None: 3},
    "plain", "", "caf\u00e9 \u2028 \U0001f600", "\x00\x1f\t\n\r\"\\/\x7f",
    {"\u00e9": "\u00e9", "ctrl\x01": ["\x02"]},
    {}, [], (), [[], {}, ()], {"e": {}, "l": [], "t": ()},
    [True, 1, False, 0, 1.0, None], {"b": True, "i": 1, "f": 1.0},
    (1, (2, (3, ()))), nested(60),
]


class TestRenderJson:
    """``cli.render_json`` writes what the recursive emitter wrote, byte for byte."""

    @pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.glob("*.json")))
    def test_golden_reports(self, name):
        text = (GOLDEN / name).read_text()
        report = json.loads(text)
        assert cli.render_json(report) + "\n" == reference_render_json(report) + "\n" == text

    @pytest.mark.parametrize("obj", EDGE_OBJECTS)
    def test_edge_objects(self, obj):
        assert cli.render_json(obj) == reference_render_json(obj)
        assert cli.render_json({"x": [obj]}) == reference_render_json({"x": [obj]})

    def test_numpy_scalars(self):
        import numpy as np

        obj = {"f": np.float64(0.1), "c": [np.complex128(1 - 2j)]}
        assert cli.render_json(obj) == reference_render_json(obj)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(math.nan, 0.0),
                                     complex(0.0, -math.inf)])
    def test_non_finite_raises(self, bad):
        for obj in (bad, [1, bad], {"a": {"b": (bad,)}}):
            with pytest.raises(ValueError, match="NaN or infinities"):
                cli.render_json(obj)

    @pytest.mark.parametrize("bad", [{1, 2}, b"bytes", object()])
    def test_unknown_type_raises(self, bad):
        with pytest.raises(TypeError, match="cannot serialize"):
            cli.render_json({"a": [bad]})


#: argvs ending in help, a usage error or a quick report
PARSER_ARGVS = [
    [], ["--help"], ["-h"], ["nosuch"], ["nosuch", "--help"], ["--help", "susy"],
    *([group, "--help"] for group in cli._COMMANDS),
    ["susy"], ["susy", "nosuch"], ["bethe", "dimer", "--bogus", "1"], ["lattice", "spectrum"],
    ["susy", "sector", "--n", "2", "--c", "1", "--grade", "1"],
]

DIMER = ["bethe", "dimer", "--p", "0.5", "--c=-2"]


def outcome(argv, capsys):
    return (cli.main(argv), *capsys.readouterr())


class TestParserPerGroup:
    """Per group, the process's one parser gives what a fresh parser gives."""

    @pytest.mark.parametrize("argv", PARSER_ARGVS)
    def test_same_outcome_as_the_all_groups_parser(self, argv, capsys, monkeypatch):
        got = outcome(argv, capsys)
        monkeypatch.setattr(cli, "_shared_parser", cli._build_parser)
        want = outcome(argv, capsys)
        assert got == want
        assert want[1] or want[2]


class TestSharedParser:
    """One parser serves every call; a call with --config parses with its own."""

    def test_sequence_equals_a_fresh_parser_per_call(self, capsys, monkeypatch, tmp_path):
        state = tmp_path / "state.cfg"
        state.write_text("emit_state = true\nc = -2\np = 0.5\n")
        typo = tmp_path / "typo.cfg"
        typo.write_text("c = -1\np = 0.25\ntypo = 5\n")
        bad_choice = tmp_path / "choice.cfg"
        bad_choice.write_text("n = 3\nc = 1\nk = 1,0,-1\ndirection = sideways\n")
        sequence = [
            ["--help"], ["susy", "--help"], DIMER, ["nosuch"], ["bethe", "dimer", "--bogus", "1"],
            ["bethe", "dimer", "--p", "0.5", "--c=-2", "--k", "1,2"],
            ["bethe", "trimer", "--config", str(typo)],
            ["susy", "partner", "--config", str(bad_choice)],
            ["bethe", "dimer", "--config", str(state)], DIMER, ["bethe", "dimer", "--p", "0.5"],
            ["bethe", "dimer", "--config", str(state), "--c=-1"], ["bethe", "dimer"],
            ["susy", "sector", "--n", "2", "--c", "1", "--grade", "1"],
            ["lattice", "spectrum", "--n", "2"], DIMER,
        ]
        shared = [outcome(argv, capsys) for argv in sequence]
        monkeypatch.setattr(cli, "_shared_parser", cli._build_parser)
        fresh = [outcome(argv, capsys) for argv in sequence]
        assert shared == fresh
        assert [code for code, _, _ in shared] == [0, 0, 0, 2, 2, 2, 2, 2, 0, 0, 2, 0, 2, 0, 2, 0]

    def test_config_values_reach_no_later_call(self, capsys, tmp_path):
        before = outcome(DIMER, capsys)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("emit_state = true\nc = -2\np = 0.5\n")
        code, out, _ = outcome(["bethe", "dimer", "--config", str(cfg)], capsys)
        assert code == 0 and "state" in json.loads(out)["results"]
        assert outcome(DIMER, capsys) == before
        assert "state" not in json.loads(before[1])["results"]
        code, out, err = outcome(["bethe", "dimer", "--p", "0.5"], capsys)
        assert (code, out, err) == (2, "", "slly: missing required option --c\n")
        args = cli._shared_parser().parse_args(["bethe", "dimer"])
        assert (args.c, args.p, args.emit_state) == (None, None, None)

    def test_build_parser_returns_a_fresh_parser(self):
        assert cli._build_parser() is not cli._build_parser()
        assert cli._build_parser() is not cli._shared_parser()
        assert cli._shared_parser() is cli._shared_parser()
