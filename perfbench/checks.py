"""Correctness checks on the JSON reports of the benchmark tasks.

A task fails on a non-zero exit code, on a report whose ``"pass"`` is not
true, or when a value the harness can recompute from the generated inputs
(energies, shift constants, S-matrix entries, grades, basis sizes) or a
documented bound (residual tolerances, the lattice eigenvalue windows)
does not hold.  Each check returns ``None`` or a one-line reason.
"""

from __future__ import annotations

import json
import math

RESIDUAL_TOL = 1e-10
ALGEBRA_TOL = 1e-12
LATTICE_RESIDUAL_TOL = 1e-8


def _close(x: float, y: float, tol: float = 1e-12) -> bool:
    return abs(x - y) <= tol * max(1.0, abs(y))


def _shift(n: int, c: float) -> float:
    return c * c * n * (n * n - 1) / 12.0


def _s_matrix(ki: float, kj: float, c: float) -> complex:
    return (1j * (kj - ki) - c) / (1j * (kj - ki) + c)


def _matching(res: dict) -> str | None:
    worst = max(res["max_continuity_residual"], res["max_jump_residual"], res["max_bulk_residual"])
    return None if worst <= RESIDUAL_TOL else f"matching residual {worst:.3e}"


def _bethe(p: dict, res: dict, energy: float) -> str | None:
    if not _close(res["energy"], energy):
        return f"energy {res['energy']!r} != {energy!r}"
    if p.get("emit_state") and not res.get("state", {}).get("regions"):
        return "--emit-state report carries no state"
    return _matching(res)


def _bethe_collision(p, res):
    ks, c, n = p["k"], p["c"], p["n"]
    table = res["s_matrix"]
    if len(table) != n * (n - 1) // 2:
        return "S-matrix table has the wrong size"
    for row in table:
        want = _s_matrix(ks[row["i"] - 1], ks[row["j"] - 1], c)
        if abs(complex(row["s"]["re"], row["s"]["im"]) - want) > 1e-12:
            return f"S({row['i']},{row['j']}) differs from the exchange factor"
    return _bethe(p, res, sum(k * k for k in ks))


def _bethe_dimer(p, res):
    return _bethe(p, res, 2 * p["p"] ** 2 - p["c"] ** 2 / 2)


def _bethe_trimer(p, res):
    return _bethe(p, res, 3 * p["p"] ** 2 - 2 * p["c"] ** 2)


def _bethe_monomer_dimer(p, res):
    return _bethe(p, res, p["q"] ** 2 + 2 * p["p"] ** 2 - p["c"] ** 2 / 2)


def _susy_algebra(p, res):
    worst = max(res.values())
    return None if worst <= ALGEBRA_TOL else f"algebra residual {worst:.3e}"


def _susy_zero_modes(p, res):
    n = p["n"]
    for name, grade in (("top", n), ("alternating", n - 1)):
        mode = res[name]
        if mode["grade"] != grade:
            return f"{name} zero mode has grade {mode['grade']}, expected {grade}"
        worst = max(v for k, v in mode.items() if k.endswith("residual"))
        if worst > RESIDUAL_TOL:
            return f"{name} zero mode residual {worst:.3e}"
    return None


def _susy_census(p, res):
    if (res["n_b"], res["n_f"], res["index"], len(res["modes"])) != (1, 1, 0, 2):
        return "census is not one bosonic and one fermionic zero mode"
    return None


def _susy_sector(p, res):
    n, grade = p["n"], p["grade"]
    size = math.comb(n, grade)
    if not _close(res["shift"], _shift(n, p["c"])):
        return "sector shift differs from c^2 N(N^2-1)/12"
    masks = res["basis_masks"]
    if len(masks) != size or any(m.bit_count() != grade for m in masks):
        return "sector basis is not the grade's occupation masks"
    blocks = res["couplings"]
    if len(blocks) != n * (n - 1) // 2 or any(
        len(b) != size or any(len(row) != size for row in b) for b in blocks.values()
    ):
        return "coupling blocks have the wrong shape"
    return None


def _susy_partner(p, res):
    n = p["n"]
    energy = sum(k * k for k in p["k"]) + _shift(n, p["c"])
    if not _close(res["energy"], energy, 1e-10):
        return f"partner energy {res['energy']!r} != {energy!r}"
    grade = 1 if p["direction"] == "raise" else n - 1
    if res["singlet"] or res["partner_grade"] != grade:
        return f"partner grade {res['partner_grade']}, expected {grade}"
    worst = max(res["bulk_residual"], res["interface_residual"])
    return None if worst <= RESIDUAL_TOL else f"partner residual {worst:.3e}"


def _lattice_spectrum(p, res):
    spec = res["spectrum"]
    vals, c, box, n = spec["eigenvalues"], p["c"], p["box"], p["n"]
    h = box / (p["points"] + 1)
    if len(vals) != p["eigs"] or vals != sorted(vals):
        return "eigenvalues missing or not ascending"
    if max(spec["residuals"]) >= LATTICE_RESIDUAL_TOL:
        return f"eigenpair residual {max(spec['residuals']):.3e}"
    if p["sector"] == 0 and vals[0] < _shift(n, c) - 1e-8:
        return "repulsive sector ground state below the shift constant"
    if n == 2 and p["sector"] > 0 and vals[0] > c**4 * h / 8 + 6 * math.pi**2 / box**2:
        return "bound sector ground state is not near zero"
    if vals[0] < -(c**3 * h + 4 * math.pi**2 / box**2):
        return "spectrum below the discretisation floor"
    return None


def _lattice_converge(p, res):
    if len(res["rows"]) != len(p["points_list"]) or not res["monotone_decreasing"]:
        return "convergence rows missing or not monotone"
    if not all(math.isfinite(v) for v in res["orders"]):
        return "non-finite convergence order"
    return None


def _lattice_diagnostic(p, res):
    return None if res["min_eigenvalue"] >= -1e-10 else "lattice (1/2){Q,Q^T} is not PSD"


_CHECKS = {
    "bethe_collision": _bethe_collision,
    "bethe_dimer": _bethe_dimer,
    "bethe_trimer": _bethe_trimer,
    "bethe_monomer-dimer": _bethe_monomer_dimer,
    "susy_algebra": _susy_algebra,
    "susy_zero-modes": _susy_zero_modes,
    "susy_census": _susy_census,
    "susy_sector": _susy_sector,
    "susy_partner": _susy_partner,
    "lattice_spectrum": _lattice_spectrum,
    "lattice_converge": _lattice_converge,
    "lattice_diagnostic": _lattice_diagnostic,
}


def check(task, rc: int, text: str) -> str | None:
    """None when the task's report is correct, else the reason it is not."""
    if rc != 0:
        return f"exit code {rc}"
    try:
        report = json.loads(text)
    except ValueError:
        return "stdout is not one JSON report"
    if report.get("pass") is not True:
        return '"pass" is not true'
    if report.get("command") != f"{task.group} {task.sub}":
        return f"report is for command {report.get('command')!r}"
    try:
        return _CHECKS[task.kind](task.params, report["results"])
    except (KeyError, TypeError, ValueError) as exc:
        return f"report lacks an expected field: {exc!r}"
