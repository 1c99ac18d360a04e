"""Command-line driver.

Three command families mirror the library layout:

* ``slly bethe``   -- build exact eigenstates and run their matching residuals
* ``slly susy``    -- supersymmetry algebra checks, zero modes, census, partners
* ``slly lattice`` -- finite-difference spectra, convergence studies, diagnostics

Reports are JSON on stdout (optionally written atomically to ``--output``),
with floats printed to 17 significant digits so identical configurations and
seeds produce byte-identical bytes.  Exit codes: 0 all checks passed,
1 verification failure, 2 configuration error, 3 eigensolver non-convergence.

A key=value config file (``--config``) may replace flags; flags win on
conflict.  The environment variable ``SLLY_THREADS`` caps BLAS/OpenMP
parallelism for the whole process.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile


def _apply_thread_cap() -> None:
    cap = os.environ.get("SLLY_THREADS")
    if cap:
        for var in (
            "OMP_NUM_THREADS",
            "OPENBLAS_NUM_THREADS",
            "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS",
        ):
            os.environ.setdefault(var, cap)


# ---------------------------------------------------------------------------
# deterministic JSON
# ---------------------------------------------------------------------------

def _fmt_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError("reports must not contain NaN or infinities")
    s = format(float(x), ".17g")
    if "e" not in s and "." not in s and "inf" not in s and "nan" not in s:
        s += ".0"
    return s


def render_json(obj, indent: int = 0) -> str:
    """Recursive JSON emitter with sorted keys and fixed float formatting."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, complex):
        return render_json({"re": obj.real, "im": obj.imag}, indent)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        keys = sorted(obj, key=str)
        rows = [f"{inner}{render_json(str(k))}: {render_json(obj[k], indent + 1)}" for k in keys]
        return "{\n" + ",\n".join(rows) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        rows = [f"{inner}{render_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(rows) + f"\n{pad}]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".slly-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

def _read_config(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = stripped.partition("=")
            values[key.strip().replace("-", "_")] = value.strip()
    return values


def _merge_config(args: argparse.Namespace) -> None:
    """Fill unset options from the config file; explicit flags win."""
    if not getattr(args, "config", None):
        return
    file_values = _read_config(args.config)
    for key, raw in file_values.items():
        if not hasattr(args, key):
            raise ValueError(f"{args.config}: unknown config key {key!r}")
        if getattr(args, key) is None:
            setattr(args, key, raw)


def _finite(value, name: str) -> float:
    x = float(value)
    if not math.isfinite(x):
        raise ValueError(f"--{name.replace('_', '-')} must be a finite number, got {value}")
    return x


def _float(value, name: str) -> float:
    if value is None:
        raise ValueError(f"missing required option --{name.replace('_', '-')}")
    return _finite(value, name)


def _tolerance(args, default: float) -> float:
    tol = _finite(args.tol, "tol") if args.tol is not None else default
    if not tol > 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    return tol


def _int(value, name: str) -> int:
    if value is None:
        raise ValueError(f"missing required option --{name.replace('_', '-')}")
    return int(value)


def _float_list(value, name: str) -> tuple[float, ...]:
    if value is None:
        raise ValueError(f"missing required option --{name.replace('_', '-')}")
    if isinstance(value, (list, tuple)):
        return tuple(_finite(v, name) for v in value)
    return tuple(_finite(v, name) for v in str(value).split(","))


def _int_list(value, name: str) -> tuple[int, ...]:
    if value is None:
        raise ValueError(f"missing required option --{name.replace('_', '-')}")
    if isinstance(value, (list, tuple)):
        return tuple(int(v) for v in value)
    return tuple(int(v) for v in str(value).split(","))


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------

def _emit(command: str, config: dict, results: dict, passed: bool, output: str | None) -> None:
    from . import __version__

    report = {
        "artifact": "slly",
        "version": __version__,
        "command": command,
        "config": config,
        "results": results,
        "pass": passed,
    }
    text = render_json(report) + "\n"
    sys.stdout.write(text)
    if output:
        _atomic_write(output, text)


def _spectrum_dict(rep) -> dict:
    return {
        "sector": rep.sector,
        "eigenvalues": list(rep.eigenvalues),
        "residuals": list(rep.residuals),
        "box": rep.box,
        "points": rep.points,
        "h": rep.h,
        "seed": rep.seed,
    }


# ---------------------------------------------------------------------------
# bethe commands
# ---------------------------------------------------------------------------

def _cmd_bethe(args) -> tuple[dict, dict, bool]:
    from . import bethe

    tol = _tolerance(args, 1e-10)
    c = _float(args.c, "c")
    family = args.family
    config: dict = {"family": family, "c": c, "tol": tol}

    if family == "collision":
        ks = _float_list(args.k, "k")
        n = _int(args.n, "n") if args.n is not None else len(ks)
        if n != len(ks):
            raise ValueError(f"--n {n} does not match {len(ks)} momenta")
        config.update({"n": n, "k": list(ks)})
        state = bethe.collision_state(ks, c)
        e = bethe.energy(ks)
        s_table = [
            {"i": i + 1, "j": j + 1, "s": bethe.s_matrix(ks[i], ks[j], c)}
            for i in range(n)
            for j in range(i + 1, n)
        ]
        extra = {"s_matrix": s_table}
    elif family == "dimer":
        p = _float(args.p, "p")
        config.update({"p": p})
        state = bethe.dimer_state(p, c)
        e = bethe.energy(bethe.dimer_momenta(p, c))
        extra = {}
    elif family == "trimer":
        p = _float(args.p, "p")
        config.update({"p": p})
        state = bethe.trimer_state(p, c)
        e = bethe.energy(bethe.trimer_momenta(p, c))
        extra = {}
    else:  # monomer-dimer
        p = _float(args.p, "p")
        q = _float(args.q, "q")
        config.update({"p": p, "q": q})
        state = bethe.monomer_dimer_state(p, q, c)
        e = bethe.energy(bethe.monomer_dimer_momenta(p, q, c))
        extra = {}

    report = bethe.matching_report(state, c, e)
    results = {
        "energy": e,
        "max_continuity_residual": report.max_continuity,
        "max_jump_residual": report.max_jump,
        "max_bulk_residual": report.max_bulk,
        **extra,
    }
    if args.emit_state:
        from . import piecewise

        results["state"] = piecewise.to_json_obj(state)
    return config, results, report.passed(tol)


# ---------------------------------------------------------------------------
# susy commands
# ---------------------------------------------------------------------------

def _susy_setup(args):
    from . import susy

    n = _int(args.n, "n")
    c = _float(args.c, "c")
    if n > 5 and args.subcommand in ("algebra", "zero-modes", "census", "partner"):
        raise ValueError("symbolic SUSY commands are limited to N <= 5")
    return susy.Superpotential(n=n, c=c)


def _cmd_susy(args) -> tuple[dict, dict, bool]:
    import numpy as np

    from . import bethe, susy

    sub = args.subcommand
    sp = _susy_setup(args)
    config: dict = {"subcommand": sub, "n": sp.n, "c": sp.c}

    if sub == "algebra":
        trials = _int(args.trials, "trials")
        if args.seed is None:
            raise ValueError("--seed is mandatory for stochastic commands")
        seed = _int(args.seed, "seed")
        tol = _tolerance(args, 1e-12)
        config.update({"trials": trials, "seed": seed, "tol": tol})
        rng = np.random.default_rng(seed)
        worst_nil = worst_nil_dag = worst_anti = 0.0
        for _ in range(trials):
            s = susy.random_spinor(sp, rng)
            worst_nil = max(worst_nil, susy.q_nilpotency_residual(s, sp))
            worst_nil_dag = max(worst_nil_dag, susy.q_nilpotency_residual(s, sp, dagger=True))
            worst_anti = max(worst_anti, susy.anticommutator_bulk_residual(s, sp))
        results = {
            "max_q_squared": worst_nil,
            "max_q_dagger_squared": worst_nil_dag,
            "max_anticommutator_residual": worst_anti,
        }
        return config, results, max(worst_nil, worst_nil_dag, worst_anti) <= tol

    if sub == "zero-modes":
        results = {}
        passed = True
        for name, mode in (
            ("top", susy.zero_mode_top(sp)),
            ("alternating", susy.zero_mode_alternating(sp)),
        ):
            rq, rqd = susy.annihilation_residuals(mode, sp)
            rep = susy.verify_eigenstate(mode, 0.0, sp)
            results[name] = {
                "grade": mode.pure_grade(),
                "q_residual": rq,
                "q_dagger_residual": rqd,
                "bulk_residual": rep.bulk_residual,
                "interface_residual": rep.interface_residual,
            }
            passed = passed and max(rq, rqd) < susy.ZERO_MODE_TOL and rep.accepted
        return config, results, passed

    if sub == "census":
        census = susy.witten_census(sp)
        results = {
            "n_b": census.n_b,
            "n_f": census.n_f,
            "index": census.index,
            "completeness": census.completeness,
            "modes": [
                {
                    "grade": m.grade,
                    "q_residual": m.q_residual,
                    "q_dagger_residual": m.q_dagger_residual,
                    "klein_parity": m.klein_parity,
                }
                for m in census.modes
            ],
        }
        return config, results, census.index == 0 and census.n_b == 1 and census.n_f == 1

    if sub == "partner":
        direction = args.direction or "raise"
        family = args.state_family or "collision"
        config.update({"direction": direction, "state_family": family})
        if family == "collision":
            ks = _float_list(args.k, "k")
            config["k"] = list(ks)
            if direction == "raise":
                state = susy.spinor_from_scalar(bethe.collision_state(ks, sp.c), 0)
            else:
                state = susy.spinor_from_scalar(
                    bethe.collision_state(ks, -sp.c), (1 << sp.n) - 1
                )
        elif family == "trimer":
            p = _float(args.p, "p")
            config["p"] = p
            state = susy.spinor_from_scalar(bethe.trimer_state(p, -sp.c), (1 << sp.n) - 1)
        else:  # monomer-dimer
            p, q = _float(args.p, "p"), _float(args.q, "q")
            config.update({"p": p, "q": q})
            state = susy.spinor_from_scalar(
                bethe.monomer_dimer_state(p, q, -sp.c), (1 << sp.n) - 1
            )
        result = susy.susy_partner(state, direction, sp)
        results = {
            "energy": result.energy,
            "singlet": result.singlet,
            "partner_grade": None if result.singlet else result.state.pure_grade(),
            "bulk_residual": result.report.bulk_residual,
            "interface_residual": result.report.interface_residual,
        }
        return config, results, result.report.accepted

    if sub == "sector":
        grade = _int(args.grade, "grade")
        config["grade"] = grade
        sector = susy.sector_hamiltonian(grade, sp)
        results = {
            "grade": grade,
            "shift": sector.shift,
            "basis_masks": list(sector.masks),
            "couplings": {
                f"{a},{b}": [[float(v.real) for v in row] for row in block]
                for (a, b), block in sector.couplings.items()
            },
        }
        return config, results, True

    raise ValueError(f"unknown susy subcommand {sub!r}")


# ---------------------------------------------------------------------------
# lattice commands
# ---------------------------------------------------------------------------

def _cmd_lattice(args) -> tuple[dict, dict, bool, str | None]:
    from . import lattice, susy

    sub = args.subcommand
    n = _int(args.n, "n")
    c = _float(args.c, "c")
    if args.seed is None:
        raise ValueError("--seed is mandatory for stochastic commands")
    seed = _int(args.seed, "seed")
    sp = susy.Superpotential(n=n, c=c)
    config: dict = {"subcommand": sub, "n": n, "c": c, "seed": seed}

    if sub == "spectrum":
        sector = _int(args.sector, "sector")
        box = _float(args.box, "box")
        points = _int(args.points, "points")
        k = _int(args.eigs, "eigs") if args.eigs is not None else 6
        config.update({"sector": sector, "box": box, "points": points, "eigs": k})
        grid = lattice.Grid(box=box, points=points, n=n)
        rep = lattice.sector_spectrum(sector, grid, sp, k, seed=seed)
        results = {"spectrum": _spectrum_dict(rep)}
        return config, results, max(rep.residuals) < lattice.RESIDUAL_TOL, None

    if sub == "converge":
        sector = _int(args.sector, "sector")
        box = _float(args.box, "box") if args.box is not None else 24.0
        points_list = (
            _int_list(args.points_list, "points_list")
            if args.points_list is not None
            else (119, 239, 479)
        )
        k = _int(args.eigs, "eigs") if args.eigs is not None else 1
        config.update(
            {"sector": sector, "box": box, "points_list": list(points_list), "eigs": k}
        )
        rep = lattice.convergence_study(sector, sp, box, points_list, k=k, seed=seed)
        results = {
            "rows": [
                {
                    "h": row.h,
                    "points": row.points,
                    "eigenvalues": list(row.eigenvalues),
                    "residuals": list(row.residuals),
                }
                for row in rep.rows
            ],
            "orders": list(rep.orders),
            "monotone_decreasing": rep.monotone_decreasing,
        }
        csv_text = None
        if args.csv:
            lines = [
                "h,L,sector,"
                + ",".join(f"lambda_{i+1}" for i in range(k))
                + ","
                + ",".join(f"res_{i+1}" for i in range(k))
            ]
            for row in rep.rows:
                cells = [_fmt_float(row.h), _fmt_float(box), str(sector)]
                cells += [_fmt_float(v) for v in row.eigenvalues]
                cells += [_fmt_float(v) for v in row.residuals]
                lines.append(",".join(cells))
            csv_text = "\n".join(lines) + "\n"
        return config, results, rep.monotone_decreasing, csv_text

    if sub == "diagnostic":
        box = _float(args.box, "box")
        points = _int(args.points, "points")
        config.update({"box": box, "points": points})
        grid = lattice.Grid(box=box, points=points, n=n)
        rep = lattice.lattice_q_diagnostic(grid, sp, seed=seed)
        results = {
            "min_eigenvalue": rep.min_eigenvalue,
            "q_squared_max": rep.q_squared_max,
            "q_squared_nnz": rep.q_squared_nnz,
            "band_width": rep.band_width,
        }
        return config, results, rep.positive_semidefinite, None

    raise ValueError(f"unknown lattice subcommand {sub!r}")


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key = value file; flags win on conflict")
    p.add_argument("--output", "-o", help="write the JSON report here (atomically)")
    p.add_argument("--tol", help="residual tolerance override")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slly",
        description="exact and numerical verification of the contact-boson "
        "system and its N=2 supersymmetric extension",
    )
    sub = parser.add_subparsers(dest="group", required=True)

    b = sub.add_parser("bethe", help="exact eigenstates and matching residuals")
    b.add_argument("family", choices=["collision", "dimer", "trimer", "monomer-dimer"])
    b.add_argument("--n")
    b.add_argument("--k", help="comma-separated momenta, strictly decreasing")
    b.add_argument("--c", help="coupling strength (negative = attractive)")
    b.add_argument("--p", help="pair/string momentum")
    b.add_argument("--q", help="monomer momentum")
    b.add_argument(
        "--emit-state",
        action="store_true",
        dest="emit_state",
        help="include the chamber-by-chamber exponential data in the report",
    )
    _add_common(b)

    s = sub.add_parser("susy", help="supersymmetry algebra and ground-state checks")
    s.add_argument(
        "subcommand", choices=["algebra", "zero-modes", "census", "partner", "sector"]
    )
    s.add_argument("--n")
    s.add_argument("--c")
    s.add_argument("--grade")
    s.add_argument("--trials")
    s.add_argument("--seed")
    s.add_argument("--k", help="collision momenta for partner states")
    s.add_argument("--p")
    s.add_argument("--q")
    s.add_argument("--direction", choices=["raise", "lower"])
    s.add_argument(
        "--state-family", choices=["collision", "trimer", "monomer-dimer"], dest="state_family"
    )
    _add_common(s)

    l = sub.add_parser("lattice", help="finite-difference oracle on a Dirichlet box")
    l.add_argument("subcommand", choices=["spectrum", "converge", "diagnostic"])
    l.add_argument("--n")
    l.add_argument("--c")
    l.add_argument("--sector")
    l.add_argument("--box")
    l.add_argument("--points")
    l.add_argument("--points-list", dest="points_list")
    l.add_argument("--eigs")
    l.add_argument("--seed")
    l.add_argument("--csv", help="write the convergence table here")
    _add_common(l)

    return parser


def main(argv=None) -> int:
    _apply_thread_cap()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    from .errors import ConvergenceError

    try:
        _merge_config(args)
        if args.group == "bethe":
            config, results, passed = _cmd_bethe(args)
            command = f"bethe {args.family}"
            csv_text = None
        elif args.group == "susy":
            config, results, passed = _cmd_susy(args)
            command = f"susy {args.subcommand}"
            csv_text = None
        else:
            config, results, passed, csv_text = _cmd_lattice(args)
            command = f"lattice {args.subcommand}"
    except ConvergenceError as exc:
        sys.stderr.write(f"slly: eigensolver did not converge: {exc}\n")
        diagnostics = json.dumps(exc.diagnostics, sort_keys=True, default=str)
        sys.stderr.write(f"slly: diagnostics: {diagnostics}\n")
        return 3
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"slly: {exc}\n")
        return 2

    if csv_text is not None and args.csv:
        _atomic_write(args.csv, csv_text)
    _emit(command, config, results, passed, args.output)
    return 0 if passed else 1


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
