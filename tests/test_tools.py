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
