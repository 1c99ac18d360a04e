"""Golden reports: the CLI's stdout must match the committed bytes exactly.

Each ``.json`` file under ``tests/golden/`` holds the stdout of one
invocation of ``slly.cli.main``; a case whose argv writes a CSV table also
has a ``.csv`` file with the table's bytes.  Reports are deterministic
(sorted keys, floats at 17 significant digits), so a refactor that keeps
every float operation in the same order must leave these bytes unchanged.
``CONFIG_CASES`` feed the options of a flag-driven case through
``--config`` instead and must reproduce its golden report.

After a deliberate change of a report, rewrite the files with

    PYTHONPATH=src python tests/test_golden.py

which prints every value it changed (file, JSON path or CSV cell, old value,
new value, relative change) and the largest relative change of each file,
as a Markdown table.
"""

import contextlib
import csv
import decimal
import io
import json
import math
import pathlib

import pytest

from slly import cli

GOLDEN = pathlib.Path(__file__).parent / "golden"

CASES = {
    # README examples (bethe and susy)
    "bethe_collision_n3": ["bethe", "collision", "--n", "3", "--k", "1.5,0.2,-0.9", "--c", "2"],
    "bethe_trimer": ["bethe", "trimer", "--p", "0", "--c", "-1"],
    "susy_census_n3": ["susy", "census", "--n", "3", "--c", "1"],
    "susy_algebra_n4": ["susy", "algebra", "--n", "4", "--c", "0.7", "--trials", "50", "--seed", "7"],
    "susy_sector_n3_g1": ["susy", "sector", "--n", "3", "--grade", "1", "--c", "1"],
    "susy_partner_n2": ["susy", "partner", "--n", "2", "--c", "1", "--k", "1.3,-0.4"],
    # largest-N matching and multi-component jumps
    "bethe_collision_n4": ["bethe", "collision", "--n", "4", "--k=1.7,0.6,-0.3,-1.2", "--c=-1.3"],
    "bethe_dimer_state": ["bethe", "dimer", "--p", "0.5", "--c=-2", "--emit-state"],
    "bethe_monomer_dimer_state": [
        "bethe", "monomer-dimer", "--p", "0.8", "--q=-0.4", "--c=-1.5", "--emit-state",
    ],
    # a collision state's whole kappa table: 6 kappas on each of 6 chambers
    "bethe_collision_n3_state": [
        "bethe", "collision", "--k=1.1,0.2,-0.7", "--c", "1.3", "--emit-state",
    ],
    "susy_zero_modes_n5": ["susy", "zero-modes", "--n", "5", "--c", "1.2"],
    "susy_partner_n3_lower": [
        "susy", "partner", "--n", "3", "--c", "0.9", "--k=1.1,0.3,-0.8", "--direction", "lower",
    ],
    # non-zero residuals, so reordered coefficient arithmetic changes the bytes
    "susy_algebra_n4_residuals": [
        "susy", "algebra", "--n", "4", "--c", "1.9", "--trials", "4", "--seed", "11",
    ],
    "susy_partner_n3_raise": [
        "susy", "partner", "--n", "3", "--c", "1.4", "--k=1.1,0.3,-0.8", "--direction", "raise",
    ],
    # lattice examples (README diagnostic; spectrum and converge on smaller grids)
    "lattice_diagnostic_n2": [
        "lattice", "diagnostic", "--n", "2", "--c", "2", "--box", "16", "--points", "60",
        "--seed", "1",
    ],
    "lattice_spectrum_n2_s2": [
        "lattice", "spectrum", "--n", "2", "--sector", "2", "--c", "2", "--box", "12",
        "--points", "60", "--eigs", "4", "--seed", "1",
    ],
    "lattice_converge_n2_s2": [
        "lattice", "converge", "--n", "2", "--sector", "2", "--c", "2", "--box", "12",
        "--points-list", "59,119", "--seed", "1", "--csv", "{csv}",
    ],
    # a multi-component sector (two T_F blocks and the shared antisymmetric
    # half) and an N=3 scalar sector
    "lattice_spectrum_n2_s1": [
        "lattice", "spectrum", "--n", "2", "--sector", "1", "--c", "2", "--box", "12",
        "--points", "60", "--eigs", "4", "--seed", "1",
    ],
    "lattice_spectrum_n3_s0": [
        "lattice", "spectrum", "--n", "3", "--sector", "0", "--c", "2", "--box", "8",
        "--points", "16", "--eigs", "2", "--seed", "1",
    ],
}

#: name of a flag-driven case -> (command, config file text) giving the same options
CONFIG_CASES = {
    "bethe_collision_n4": (["bethe", "collision"], "n = 4\nk = 1.7,0.6,-0.3,-1.2\nc = -1.3\n"),
    "susy_partner_n3_lower": (
        ["susy", "partner"],
        "# same options as the flags\nn = 3\nc = 0.9\nk = 1.1,0.3,-0.8\ndirection = lower\n",
    ),
}

CSV = "{csv}"


def _stdout(argv, csv_path=None) -> tuple[int, str]:
    argv = [str(csv_path) if arg == CSV else arg for arg in argv]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden_bytes(name, tmp_path):
    csv_path = tmp_path / "table.csv"
    code, out = _stdout(CASES[name], csv_path)
    assert code == 0
    assert out == (GOLDEN / f"{name}.json").read_text()
    if CSV in CASES[name]:
        assert csv_path.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()


@pytest.mark.parametrize("name", sorted(CONFIG_CASES))
def test_config_file_reproduces_golden_bytes(name, tmp_path):
    command, text = CONFIG_CASES[name]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    code, out = _stdout([*command, "--config", str(cfg)])
    assert code == 0
    assert out == (GOLDEN / f"{name}.json").read_text()


def _leaves(text: str, suffix: str) -> dict:
    """Path -> value of every leaf of a golden file; numbers keep their digits as Decimals.

    JSON paths join keys with "." and list indices in brackets; a CSV cell's
    path is its data row (from 1) and column header.
    """
    if not text:
        return {}
    if suffix == ".csv":
        header, *rows = csv.reader(io.StringIO(text))
        out = {}
        for i, row in enumerate(rows, 1):
            for col, cell in zip(header, row):
                try:
                    out[f"[{i}].{col}"] = decimal.Decimal(cell)
                except decimal.InvalidOperation:
                    out[f"[{i}].{col}"] = cell
        return out
    out = {}

    def walk(obj, path):
        if isinstance(obj, dict):
            for key, value in obj.items():
                walk(value, f"{path}.{key}" if path else key)
        elif isinstance(obj, list):
            for i, value in enumerate(obj):
                walk(value, f"{path}[{i}]")
        else:
            out[path] = obj

    walk(json.loads(text, parse_float=decimal.Decimal), "")
    return out


def value_changes(old: str, new: str, suffix: str) -> list[tuple[str, object, object, float]]:
    """(path, old, new, relative change) for every leaf that differs between two golden texts.

    The relative change is |new - old| / |old| for two numbers and inf for
    anything else (a string, a leaf that appears or goes, a zero old value).
    """
    before, after = _leaves(old, suffix), _leaves(new, suffix)
    rows = []
    for path in [*before, *(p for p in after if p not in before)]:
        a, b = before.get(path), after.get(path)
        if a == b and type(a) is type(b):
            continue
        numbers = all(isinstance(v, (int, decimal.Decimal)) and not isinstance(v, bool)
                      for v in (a, b))
        rel = float(abs(b - a) / abs(a)) if numbers and a != 0 else math.inf
        rows.append((path, a, b, rel))
    return rows


def _shown(value) -> str:
    """A leaf as the golden file writes it (a Decimal prints its exponent as "E")."""
    return str(value).lower() if isinstance(value, decimal.Decimal) else str(value)


def change_table(changes: dict[str, list]) -> str:
    """A Markdown table of ``value_changes`` per file, each file closed by its largest change."""
    lines = ["| file | path | old | new | relative change |", "|---|---|---|---|---|"]
    for name, rows in changes.items():
        for path, a, b, rel in rows:
            lines.append(f"| {name} | {path} | {_shown(a)} | {_shown(b)} | {rel:.2g} |")
        lines.append(f"| {name} | largest | | | {max(r[3] for r in rows):.2g} |")
    return "\n".join(lines)


def rewrite_goldens() -> str:
    """Rewrite every golden file from the current code; return the table of what changed."""
    GOLDEN.mkdir(exist_ok=True)
    changes = {}
    for name, argv in sorted(CASES.items()):
        paths = [GOLDEN / f"{name}.json"] + ([GOLDEN / f"{name}.csv"] if CSV in argv else [])
        old = {path: path.read_text() if path.exists() else "" for path in paths}
        code, out = _stdout(argv, GOLDEN / f"{name}.csv")
        if code != 0:
            raise SystemExit(f"{name}: exit {code}")
        (GOLDEN / f"{name}.json").write_text(out)
        for path in paths:
            rows = value_changes(old[path], path.read_text(), path.suffix)
            if rows:
                changes[path.name] = rows
    return change_table(changes) if changes else "no golden value changed"


if __name__ == "__main__":
    print(rewrite_goldens())
