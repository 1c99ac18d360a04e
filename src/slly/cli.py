"""Command-line driver.

Three command families mirror the library layout:

* ``slly bethe``   -- build exact eigenstates and run their matching residuals
* ``slly susy``    -- supersymmetry algebra checks, zero modes, census, partners
* ``slly lattice`` -- finite-difference spectra, convergence studies, diagnostics

Reports are JSON on stdout (optionally written atomically to ``--output``),
with floats printed to 17 significant digits so identical configurations and
seeds produce byte-identical bytes.  Exit codes: 0 all checks passed,
1 verification failure, 2 configuration error, 3 eigensolver non-convergence.

Options are typed: argparse converts every number, and a key=value config
file (``--config``) becomes the command's defaults, so its values pass
through the same conversions as flags and flags win on conflict.  The
environment variable ``SLLY_THREADS`` caps BLAS/OpenMP parallelism for the
whole process.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from dataclasses import asdict


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


def _atomic_write(files: list[tuple[str, str]]) -> None:
    """Write each (path, text) atomically, all of them or none.

    Every text first goes to a temporary file beside its path, with the mode
    a plain ``open`` would create (0o666 less the umask); only when all are
    written are they moved into place.  If any step fails, no file of this
    call is left behind and the error names the path as given.
    """
    umask = os.umask(0)
    os.umask(umask)
    staged: list[tuple[str, str]] = []
    placed: list[str] = []
    try:
        for path, text in files:
            directory = os.path.dirname(os.path.abspath(path))
            try:
                fd, tmp = tempfile.mkstemp(dir=directory, prefix=".slly-")
            except OSError as exc:
                raise OSError(exc.errno, exc.strerror, path) from exc
            staged.append((tmp, path))
            with os.fdopen(fd, "w") as fh:
                os.fchmod(fh.fileno(), 0o666 & ~umask)
                fh.write(text)
        for tmp, path in staged:
            try:
                os.replace(tmp, path)
            except OSError as exc:
                raise OSError(exc.errno, exc.strerror, path) from exc
            placed.append(path)
    except BaseException:
        for tmp, _ in staged:
            if os.path.exists(tmp):
                os.unlink(tmp)
        for path in placed:
            os.unlink(path)
        raise


# ---------------------------------------------------------------------------
# typed options and config files
# ---------------------------------------------------------------------------

def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(","))


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that also reads a negative value given as its own argument.

    argparse takes an argument that starts with "-" and is not a plain
    negative number (``-0.9,-1.2``, ``-1e-3``) for an option, so ``--k
    -0.9,-1.2`` fails with "expected one argument".  Every option with a
    numeric type keeps its converter here, and an argument after such an
    option that the converter accepts is joined to it (``--k=-0.9,-1.2``)
    before argparse sees it.  Subparsers are made of this class too, and
    each joins its own options.
    """

    def __init__(self, *args, **kwargs):
        self.numeric_options: dict[str, object] = {}
        super().__init__(*args, **kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        if action.type in (int, float, _ints, _floats):
            self.numeric_options.update(dict.fromkeys(action.option_strings, action.type))
        return action

    def parse_known_args(self, args=None, namespace=None):
        args = list(sys.argv[1:] if args is None else args)
        joined: list[str] = []
        i = 0
        while i < len(args):
            arg = args[i]
            if arg == "--":
                joined += args[i:]
                break
            convert = self.numeric_options.get(arg)
            if convert is not None and i + 1 < len(args) and args[i + 1].startswith("-"):
                try:
                    convert(args[i + 1])
                except ValueError:
                    pass
                else:
                    joined.append(f"{arg}={args[i + 1]}")
                    i += 2
                    continue
            joined.append(arg)
            i += 1
        return super().parse_known_args(joined, namespace)


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


def _load_config(parser: argparse.ArgumentParser, path: str) -> None:
    """Make the config file's values the defaults of the command's parser.

    argparse converts a string default through the option's ``type=`` and
    lets an explicit flag win; it checks neither ``choices`` nor the
    ``true``/``false`` of a flag option for defaults, so those are checked here.
    """
    options = {a.dest: a for a in parser._actions if a.option_strings and a.dest != "help"}
    defaults: dict[str, object] = {}
    for key, raw in _read_config(path).items():
        action = options.get(key)
        if action is None:
            raise ValueError(f"{path}: unknown config key {key!r}")
        if action.nargs == 0:
            if raw not in ("true", "false"):
                raise ValueError(f"{path}: {key} must be true or false, got {raw!r}")
            defaults[key] = raw == "true"
        elif action.choices is not None and raw not in action.choices:
            allowed = ", ".join(action.choices)
            raise ValueError(f"{path}: {key} must be one of {allowed}, got {raw!r}")
        else:
            defaults[key] = raw
    parser.set_defaults(**defaults)


#: options a command cannot run without, keyed by group, by command and by
#: the state family (the bethe family or the susy partner --state-family)
_REQUIRED = {
    "bethe": ("c",),
    "susy": ("n", "c"),
    "lattice": ("n", "c", "seed"),
    "susy algebra": ("trials", "seed"),
    "susy sector": ("grade",),
    "lattice spectrum": ("sector", "box", "points"),
    "lattice converge": ("sector",),
    "lattice diagnostic": ("box", "points"),
    "collision": ("k",),
    "dimer": ("p",),
    "trimer": ("p",),
    "monomer-dimer": ("p", "q"),
}


#: default --tol of the commands that read it (by group or command); every
#: other command rejects the option rather than ignore it
_TOL_DEFAULTS = {"bethe": 1e-10, "susy algebra": 1e-12}


def _check_options(args, command: str) -> None:
    """Reject non-finite numbers, missing options and an unused --tol before any work starts.

    Fills in the default --tol of the commands that read it.
    """
    for dest, value in vars(args).items():
        for v in value if isinstance(value, tuple) else (value,):
            if isinstance(v, float) and not math.isfinite(v):
                raise ValueError(f"--{dest.replace('_', '-')} must be a finite number, got {v}")
    tol = _TOL_DEFAULTS.get(args.group, _TOL_DEFAULTS.get(command))
    if tol is None and args.tol is not None:
        raise ValueError(f"--tol is not used by {command}")
    if args.tol is None:
        args.tol = tol
    keys = [args.group, command]
    if args.group == "bethe":
        keys.append(args.family)
    elif command == "susy partner":
        keys.append(args.state_family)
    for key in keys:
        for name in _REQUIRED.get(key, ()):
            if getattr(args, name) is None:
                raise ValueError(f"missing required option --{name.replace('_', '-')}")


def _tolerance(tol: float) -> float:
    if not tol > 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    return tol


# ---------------------------------------------------------------------------
# bethe commands
# ---------------------------------------------------------------------------

def _cmd_bethe(args) -> tuple[dict, dict, bool, None]:
    from . import bethe

    tol = _tolerance(args.tol)
    c, family = args.c, args.family
    config: dict = {"family": family, "c": c, "tol": tol}
    extra = {}

    if family == "collision":
        ks = args.k
        n = len(ks) if args.n is None else args.n
        if n != len(ks):
            raise ValueError(f"--n {n} does not match {len(ks)} momenta")
        config.update({"n": n, "k": list(ks)})
        state = bethe.collision_state(ks, c)
        e = bethe.energy(ks)
        extra["s_matrix"] = [
            {"i": i + 1, "j": j + 1, "s": bethe.s_matrix(ks[i], ks[j], c)}
            for i in range(n)
            for j in range(i + 1, n)
        ]
    elif family == "dimer":
        config["p"] = args.p
        state = bethe.dimer_state(args.p, c)
        e = bethe.energy(bethe.dimer_momenta(args.p, c))
    elif family == "trimer":
        config["p"] = args.p
        state = bethe.trimer_state(args.p, c)
        e = bethe.energy(bethe.trimer_momenta(args.p, c))
    else:  # monomer-dimer
        config.update({"p": args.p, "q": args.q})
        state = bethe.monomer_dimer_state(args.p, args.q, c)
        e = bethe.energy(bethe.monomer_dimer_momenta(args.p, args.q, c))

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
    return config, results, report.passed(tol), None


# ---------------------------------------------------------------------------
# susy commands
# ---------------------------------------------------------------------------

def _cmd_susy(args) -> tuple[dict, dict, bool, None]:
    import numpy as np

    from . import bethe, susy

    sub = args.subcommand
    if args.n > 5 and sub != "sector":
        raise ValueError("symbolic SUSY commands are limited to N <= 5")
    sp = susy.Superpotential(n=args.n, c=args.c)
    config: dict = {"subcommand": sub, "n": sp.n, "c": sp.c}

    if sub == "algebra":
        if args.trials < 1:
            raise ValueError(f"--trials must be at least 1, got {args.trials}")
        tol = _tolerance(args.tol)
        config.update({"trials": args.trials, "seed": args.seed, "tol": tol})
        rng = np.random.default_rng(args.seed)
        worst_nil = worst_nil_dag = worst_anti = 0.0
        for _ in range(args.trials):
            res = susy.algebra_residuals(susy.random_spinor(sp, rng), sp)
            worst_nil = max(worst_nil, res.q_squared)
            worst_nil_dag = max(worst_nil_dag, res.q_dagger_squared)
            worst_anti = max(worst_anti, res.anticommutator)
        results = {
            "max_q_squared": worst_nil,
            "max_q_dagger_squared": worst_nil_dag,
            "max_anticommutator_residual": worst_anti,
        }
        return config, results, max(worst_nil, worst_nil_dag, worst_anti) <= tol, None

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
        return config, results, passed, None

    if sub == "census":
        census = susy.witten_census(sp)
        passed = census.index == 0 and census.n_b == 1 and census.n_f == 1
        return config, asdict(census), passed, None

    if sub == "partner":
        direction, family = args.direction, args.state_family
        config.update({"direction": direction, "state_family": family})
        top = (1 << sp.n) - 1
        if family == "collision":
            if sp.n != len(args.k):
                raise ValueError(f"--n {sp.n} does not match {len(args.k)} momenta")
            config["k"] = list(args.k)
            c, mask = (sp.c, 0) if direction == "raise" else (-sp.c, top)
            f = bethe.collision_state(args.k, c)
        elif sp.n != 3:
            raise ValueError(f"--state-family {family} needs --n 3, got {sp.n}")
        elif family == "trimer":
            config["p"] = args.p
            f, mask = bethe.trimer_state(args.p, -sp.c), top
        else:  # monomer-dimer
            config.update({"p": args.p, "q": args.q})
            f, mask = bethe.monomer_dimer_state(args.p, args.q, -sp.c), top
        result = susy.susy_partner(susy.spinor_from_scalar(f, mask), direction, sp)
        results = {
            "energy": result.energy,
            "singlet": result.singlet,
            "partner_grade": None if result.singlet else result.state.pure_grade(),
            "bulk_residual": result.report.bulk_residual,
            "interface_residual": result.report.interface_residual,
        }
        return config, results, result.report.accepted, None

    # sector
    config["grade"] = args.grade
    sector = susy.sector_hamiltonian(args.grade, sp)
    results = {
        "grade": args.grade,
        "shift": sector.shift,
        "basis_masks": list(sector.masks),
        "couplings": {
            f"{a},{b}": [[float(v.real) for v in row] for row in block]
            for (a, b), block in sector.couplings.items()
        },
    }
    return config, results, True, None


# ---------------------------------------------------------------------------
# lattice commands
# ---------------------------------------------------------------------------

def _cmd_lattice(args) -> tuple[dict, dict, bool, str | None]:
    from . import lattice, susy

    sub, n, seed = args.subcommand, args.n, args.seed
    sp = susy.Superpotential(n=n, c=args.c)
    config: dict = {"subcommand": sub, "n": n, "c": args.c, "seed": seed}

    if sub == "spectrum":
        k = 6 if args.eigs is None else args.eigs
        config.update({"sector": args.sector, "box": args.box, "points": args.points, "eigs": k})
        grid = lattice.Grid(box=args.box, points=args.points, n=n)
        rep = lattice.sector_spectrum(args.sector, grid, sp, k, seed=seed)
        return config, {"spectrum": asdict(rep)}, max(rep.residuals) < lattice.RESIDUAL_TOL, None

    if sub == "converge":
        box = 24.0 if args.box is None else args.box
        k = 1 if args.eigs is None else args.eigs
        config.update(
            {"sector": args.sector, "box": box, "points_list": list(args.points_list), "eigs": k}
        )
        rep = lattice.convergence_study(args.sector, sp, box, args.points_list, k=k, seed=seed)
        results = {
            "rows": [asdict(row) for row in rep.rows],
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
                cells = [_fmt_float(row.h), _fmt_float(box), str(args.sector)]
                cells += [_fmt_float(v) for v in row.eigenvalues]
                cells += [_fmt_float(v) for v in row.residuals]
                lines.append(",".join(cells))
            csv_text = "\n".join(lines) + "\n"
        return config, results, rep.monotone_decreasing, csv_text

    # diagnostic
    config.update({"box": args.box, "points": args.points})
    grid = lattice.Grid(box=args.box, points=args.points, n=n)
    rep = lattice.lattice_q_diagnostic(grid, sp, seed=seed)
    return config, asdict(rep), rep.positive_semidefinite, None


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key = value file; flags win on conflict")
    p.add_argument("--output", "-o", help="write the JSON report here (atomically)")
    p.add_argument(
        "--tol", type=float, help="residual tolerance (bethe commands and susy algebra only)"
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="slly",
        description="exact and numerical verification of the contact-boson "
        "system and its N=2 supersymmetric extension",
    )
    sub = parser.add_subparsers(dest="group", required=True)

    b = sub.add_parser("bethe", help="exact eigenstates and matching residuals")
    b.add_argument("family", choices=["collision", "dimer", "trimer", "monomer-dimer"])
    b.add_argument("--n", type=int)
    b.add_argument("--k", type=_floats, help="comma-separated momenta, strictly decreasing")
    b.add_argument("--c", type=float, help="coupling strength (negative = attractive)")
    b.add_argument("--p", type=float, help="pair/string momentum")
    b.add_argument("--q", type=float, help="monomer momentum")
    b.add_argument(
        "--emit-state",
        action="store_true",
        dest="emit_state",
        help="include the chamber-by-chamber exponential data in the report",
    )
    _add_common(b)
    b.set_defaults(run=_cmd_bethe, group_parser=b)

    s = sub.add_parser("susy", help="supersymmetry algebra and ground-state checks")
    s.add_argument(
        "subcommand", choices=["algebra", "zero-modes", "census", "partner", "sector"]
    )
    s.add_argument("--n", type=int)
    s.add_argument("--c", type=float)
    s.add_argument("--grade", type=int)
    s.add_argument("--trials", type=int)
    s.add_argument("--seed", type=int)
    s.add_argument("--k", type=_floats, help="collision momenta for partner states")
    s.add_argument("--p", type=float)
    s.add_argument("--q", type=float)
    s.add_argument("--direction", choices=["raise", "lower"], default="raise")
    s.add_argument(
        "--state-family",
        choices=["collision", "trimer", "monomer-dimer"],
        dest="state_family",
        default="collision",
    )
    _add_common(s)
    s.set_defaults(run=_cmd_susy, group_parser=s)

    l = sub.add_parser("lattice", help="finite-difference oracle on a Dirichlet box")
    l.add_argument("subcommand", choices=["spectrum", "converge", "diagnostic"])
    l.add_argument("--n", type=int)
    l.add_argument("--c", type=float)
    l.add_argument("--sector", type=int)
    l.add_argument("--box", type=float)
    l.add_argument("--points", type=int)
    l.add_argument("--points-list", type=_ints, dest="points_list", default=(119, 239, 479))
    l.add_argument("--eigs", type=int)
    l.add_argument("--seed", type=int)
    l.add_argument("--csv", help="write the convergence table here")
    _add_common(l)
    l.set_defaults(run=_cmd_lattice, group_parser=l)

    return parser


def main(argv=None) -> int:
    _apply_thread_cap()
    from . import __version__
    from .errors import ConvergenceError

    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            _load_config(args.group_parser, args.config)
            args = parser.parse_args(argv)
        command = f"{args.group} {args.family if args.group == 'bethe' else args.subcommand}"
        _check_options(args, command)
        config, results, passed, csv_text = args.run(args)
        report = {
            "artifact": "slly",
            "version": __version__,
            "command": command,
            "config": config,
            "results": results,
            "pass": passed,
        }
        text = render_json(report) + "\n"
        files = [] if csv_text is None else [(args.csv, csv_text)]
        if args.output:
            files.append((args.output, text))
        _atomic_write(files)
    except SystemExit as exc:  # argparse usage errors and --help
        return int(exc.code or 0)
    except ConvergenceError as exc:
        sys.stderr.write(f"slly: eigensolver did not converge: {exc}\n")
        diagnostics = json.dumps(exc.diagnostics, sort_keys=True, default=str)
        sys.stderr.write(f"slly: diagnostics: {diagnostics}\n")
        return 3
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"slly: {exc}\n")
        return 2

    sys.stdout.write(text)
    return 0 if passed else 1


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
