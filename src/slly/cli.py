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
through the same conversions as flags and flags win on conflict.  One
command table (``_COMMANDS``) names the options each command reads, with
their defaults; every other option, flag or config value, is refused (exit 2),
and the report's ``config`` echoes each option read.

One parser of every group serves all calls of a process: it is built on
the first call and parsing leaves it as it was.  A call with ``--config``
builds a parser of its own, because the config's values become that
parser's defaults and must not reach a later call.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile
from dataclasses import asdict
from json.encoder import encode_basestring_ascii as _quote


# ---------------------------------------------------------------------------
# deterministic JSON
# ---------------------------------------------------------------------------

def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError("reports must not contain NaN or infinities")
    s = format(float(x), ".17g")
    if "e" not in s and "." not in s:
        s += ".0"
    return s


def render_json(obj) -> str:
    """JSON with keys sorted by ``str``, two-space indents and 17-digit floats.

    One pass writes the whole document into a list of parts.  A complex
    number is the object ``{"im", "re"}``; a string, a key included, is
    quoted as ``json.dumps`` quotes it (ASCII only).  NaN and infinities
    raise ``ValueError``, any other type ``TypeError``.
    """
    parts: list[str] = []
    put = parts.append

    def emit(obj, nl: str) -> None:
        if obj is None:
            put("null")
        elif isinstance(obj, bool):
            put("true" if obj else "false")
        elif isinstance(obj, int):
            put(str(obj))
        elif isinstance(obj, float):
            put(_fmt_float(obj))
        elif isinstance(obj, complex):
            emit({"re": obj.real, "im": obj.imag}, nl)
        elif isinstance(obj, str):
            put(_quote(obj))
        elif isinstance(obj, dict):
            if not obj:
                put("{}")
                return
            inner = nl + "  "
            sep = "{" + inner
            for key in sorted(obj, key=str):
                put(sep)
                put(_quote(str(key)))
                put(": ")
                emit(obj[key], inner)
                sep = "," + inner
            put(nl + "}")
        elif isinstance(obj, (list, tuple)):
            if not obj:
                put("[]")
                return
            inner = nl + "  "
            sep = "[" + inner
            for value in obj:
                put(sep)
                emit(value, inner)
                sep = "," + inner
            put(nl + "]")
        else:
            raise TypeError(f"cannot serialize {type(obj)!r}")

    emit(obj, "\n")
    return "".join(parts)


def _finite(obj):
    """``obj`` with every non-finite float spelled as a string ("nan", "inf", "-inf").

    Bare NaN and Infinity are not JSON; exit-3 diagnostics may hold them.
    """
    if isinstance(obj, float) and not math.isfinite(obj):
        return str(obj)
    if isinstance(obj, dict):
        return {key: _finite(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(value) for value in obj]
    return obj


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


def _family_state(family: str, args, c: float, n: int | None):
    """The exact state of a family at coupling c, and its momenta.

    Shared by ``bethe <family>`` and ``susy partner``: a collision state takes
    ``--k`` and must have n momenta; the bound states take ``--p`` (``--q``).
    """
    from . import bethe

    if family == "collision":
        if n != len(args.k):
            raise ValueError(f"--n {n} does not match {len(args.k)} momenta")
        return bethe.collision_state(args.k, c), args.k
    if family == "dimer":
        return bethe.dimer_state(args.p, c), bethe.dimer_momenta(args.p, c)
    if family == "trimer":
        return bethe.trimer_state(args.p, c), bethe.trimer_momenta(args.p, c)
    p, q = args.p, args.q
    return bethe.monomer_dimer_state(p, q, c), bethe.monomer_dimer_momenta(p, q, c)


# ---------------------------------------------------------------------------
# bethe commands
# ---------------------------------------------------------------------------

def _bethe(args) -> tuple[dict, bool, None]:
    from . import bethe

    if args.family == "collision" and args.n is None:
        args.n = len(args.k)
    state, momenta = _family_state(args.family, args, args.c, args.n)
    results = {"energy": bethe.energy(momenta)}
    if args.family == "collision":
        ks = args.k
        results["s_matrix"] = [
            {"i": i + 1, "j": j + 1, "s": bethe.s_matrix(ks[i], ks[j], args.c)}
            for i in range(len(ks))
            for j in range(i + 1, len(ks))
        ]
    report = bethe.matching_report(state, args.c, results["energy"])
    results["max_continuity_residual"] = report.max_continuity
    results["max_jump_residual"] = report.max_jump
    results["max_bulk_residual"] = report.max_bulk
    if args.emit_state:
        from . import piecewise

        results["state"] = piecewise.to_json_obj(state)
    return results, report.passed(args.tol), None


# ---------------------------------------------------------------------------
# susy commands
# ---------------------------------------------------------------------------

def _symbolic(args):
    """The superpotential of a symbolic susy command, which handles N <= 5."""
    from . import susy

    if args.n > 5:
        raise ValueError("symbolic SUSY commands are limited to N <= 5")
    return susy.Superpotential(n=args.n, c=args.c)


def _susy_algebra(args) -> tuple[dict, bool, None]:
    import numpy as np

    from . import piecewise, susy

    sp = _symbolic(args)
    if args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    rng = np.random.default_rng(args.seed)
    # the worst of each susy.AlgebraResiduals field, in field order
    names = ("max_q_squared", "max_q_dagger_squared", "max_anticommutator_residual")
    trials = [susy.algebra_residuals(susy.random_spinor(sp, rng), sp) for _ in range(args.trials)]
    worst = {key: piecewise.nan_max(values) for key, values in zip(names, zip(*trials))}
    return worst, all(value <= args.tol for value in worst.values()), None


def _susy_zero_modes(args) -> tuple[dict, bool, None]:
    from . import susy

    sp = _symbolic(args)
    results = {}
    passed = True
    for name, mode in zip(("top", "alternating"), susy.zero_modes(sp)):
        rq, rqd = susy.annihilation_residuals(mode, sp)
        rep = susy.verify_eigenstate(mode, 0.0, sp)
        results[name] = {
            "grade": mode.pure_grade(),
            "q_residual": rq,
            "q_dagger_residual": rqd,
            "bulk_residual": rep.bulk_residual,
            "interface_residual": rep.interface_residual,
        }
        passed = passed and rq < susy.ZERO_MODE_TOL and rqd < susy.ZERO_MODE_TOL and rep.accepted
    return results, passed, None


def _susy_census(args) -> tuple[dict, bool, None]:
    from . import susy

    census = susy.witten_census(_symbolic(args))
    return asdict(census), census.passed, None


def _susy_partner(args) -> tuple[dict, bool, None]:
    from . import susy

    sp = _symbolic(args)
    family, top = args.state_family, (1 << sp.n) - 1
    if family != "collision" and sp.n != 3:
        raise ValueError(f"--state-family {family} needs --n 3, got {sp.n}")
    # a collision state is raised from grade 0 at coupling c or lowered from
    # the top grade at -c; the bound states need attraction, so sit at the top
    c, mask = (sp.c, 0) if family == "collision" and args.direction == "raise" else (-sp.c, top)
    f, _ = _family_state(family, args, c, sp.n)
    result = susy.susy_partner(susy.spinor_from_scalar(f, mask), args.direction, sp)
    results = {
        "energy": result.energy,
        "singlet": result.singlet,
        "partner_grade": None if result.singlet else result.state.pure_grade(),
        "bulk_residual": result.report.bulk_residual,
        "interface_residual": result.report.interface_residual,
    }
    return results, result.report.accepted, None


def _susy_sector(args) -> tuple[dict, bool, None]:
    from . import susy

    sector = susy.sector_hamiltonian(args.grade, susy.Superpotential(n=args.n, c=args.c))
    results = {
        "grade": args.grade,
        "shift": sector.shift,
        "basis_masks": list(sector.masks),
        "couplings": {
            f"{a},{b}": [[float(v.real) for v in row] for row in block]
            for (a, b), block in sector.couplings.items()
        },
    }
    return results, True, None


# ---------------------------------------------------------------------------
# lattice commands
# ---------------------------------------------------------------------------

def _lattice_spectrum(args) -> tuple[dict, bool, None]:
    from . import lattice, susy

    sp = susy.Superpotential(n=args.n, c=args.c)
    grid = lattice.Grid(box=args.box, points=args.points, n=args.n)
    rep = lattice.sector_spectrum(args.sector, grid, sp, args.eigs, seed=args.seed)
    return {"spectrum": asdict(rep)}, max(rep.residuals) < lattice.RESIDUAL_TOL, None


def _lattice_converge(args) -> tuple[dict, bool, str | None]:
    from . import lattice, susy

    sp = susy.Superpotential(n=args.n, c=args.c)
    k, box = args.eigs, args.box
    rep = lattice.convergence_study(args.sector, sp, box, args.points_list, k=k, seed=args.seed)
    results = {
        "rows": [asdict(row) for row in rep.rows],
        "orders": list(rep.orders),
        "monotone_decreasing": rep.monotone_decreasing,
    }
    csv_text = None
    if args.csv:
        names = [f"{x}_{i+1}" for x in ("lambda", "res") for i in range(k)]
        lines = [",".join(["h", "L", "sector", *names])]
        for row in rep.rows:
            cells = [_fmt_float(row.h), _fmt_float(box), str(args.sector)]
            cells += [_fmt_float(v) for v in (*row.eigenvalues, *row.residuals)]
            lines.append(",".join(cells))
        csv_text = "\n".join(lines) + "\n"
    return results, rep.monotone_decreasing, csv_text


def _lattice_diagnostic(args) -> tuple[dict, bool, None]:
    from . import lattice, susy

    sp = susy.Superpotential(n=args.n, c=args.c)
    grid = lattice.Grid(box=args.box, points=args.points, n=args.n)
    rep = lattice.lattice_q_diagnostic(grid, sp, seed=args.seed)
    return asdict(rep), rep.positive_semidefinite, None


# ---------------------------------------------------------------------------
# the command table
# ---------------------------------------------------------------------------

#: marks an option a command cannot run without
REQUIRED = object()

#: the options ``susy partner`` adds for its --state-family, with the direction
#: the state can move in: a collision state is raised from grade 0, the bound
#: states sit at the top grade and can only be lowered
_PARTNER_FAMILIES = {
    "collision": {"k": REQUIRED, "direction": "raise"},
    "trimer": {"p": REQUIRED, "direction": "lower"},
    "monomer-dimer": {"p": REQUIRED, "q": REQUIRED, "direction": "lower"},
}

#: every option a command can read, declared once (``--name``, dashes for
#: underscores); none has an argparse default, so ``None`` means "not given"
_OPTIONS = {
    "n": {"type": int, "help": "particle count N"},
    "k": {"type": _floats, "help": "comma-separated momenta, strictly decreasing"},
    "c": {"type": float, "help": "coupling (bethe: negative = attractive; susy, lattice: >= 0)"},
    "p": {"type": float, "help": "pair/string momentum"},
    "q": {"type": float, "help": "monomer momentum"},
    "grade": {"type": int, "help": "fermion number of the sector"},
    "trials": {"type": int, "help": "number of random spinors"},
    "seed": {"type": int, "help": "random seed"},
    "direction": {"choices": ["raise", "lower"], "help": "raise with Q^dag or lower with Q"},
    "state_family": {"choices": list(_PARTNER_FAMILIES), "help": "exact state of the partner"},
    "sector": {"type": int, "help": "lattice sector (fermion number)"},
    "box": {"type": float, "help": "Dirichlet box edge L"},
    "points": {"type": int, "help": "grid points per axis"},
    "points_list": {"type": _ints, "help": "comma-separated grid sizes, strictly increasing"},
    "eigs": {"type": int, "help": "number of eigenvalues"},
    "csv": {"help": "write the convergence table here"},
    "emit_state": {"action": "store_true", "default": None,
                   "help": "include the chamber-by-chamber exponential data in the report"},
    "tol": {"type": float, "help": "residual tolerance (bethe commands and susy algebra only)"},
}

_BETHE = {"c": REQUIRED, "tol": 1e-10, "emit_state": False}
_SUSY = {"n": REQUIRED, "c": REQUIRED}
_LATTICE = {"n": REQUIRED, "c": REQUIRED, "seed": REQUIRED}
_GRID = {"box": REQUIRED, "points": REQUIRED}

#: group -> command -> (runner, {option dest: default or REQUIRED}); a command
#: reads exactly these options and refuses every other one.  ``bethe
#: collision`` takes ``--n`` from the number of momenta when it is not given.
_COMMANDS = {
    "bethe": {
        "collision": (_bethe, {**_BETHE, "n": None, "k": REQUIRED}),
        "dimer": (_bethe, {**_BETHE, "p": REQUIRED}),
        "trimer": (_bethe, {**_BETHE, "p": REQUIRED}),
        "monomer-dimer": (_bethe, {**_BETHE, "p": REQUIRED, "q": REQUIRED}),
    },
    "susy": {
        "algebra": (_susy_algebra, {**_SUSY, "trials": REQUIRED, "seed": REQUIRED, "tol": 1e-12}),
        "zero-modes": (_susy_zero_modes, _SUSY),
        "census": (_susy_census, _SUSY),
        "partner": (_susy_partner, {**_SUSY, "state_family": "collision"}),
        "sector": (_susy_sector, {**_SUSY, "grade": REQUIRED}),
    },
    "lattice": {
        "spectrum": (_lattice_spectrum, {**_LATTICE, "sector": REQUIRED, **_GRID, "eigs": 6}),
        "converge": (_lattice_converge, {**_LATTICE, "sector": REQUIRED, "box": 24.0,
                                         "points_list": (119, 239, 479), "eigs": 1, "csv": None}),
        "diagnostic": (_lattice_diagnostic, {**_LATTICE, **_GRID}),
    },
}

#: each group's positional argument (echoed in the report's config) and help line
_GROUPS = {
    "bethe": ("family", "exact eigenstates and matching residuals"),
    "susy": ("subcommand", "supersymmetry algebra and ground-state checks"),
    "lattice": ("subcommand", "finite-difference oracle on a Dirichlet box"),
}


def _check_options(args, command: str, reads: dict) -> None:
    """Refuse non-finite numbers, unread and missing options before any work starts.

    An option the command does not read is refused whether it came as a flag
    or a config value; the defaults of the options it reads are filled in.
    """
    for dest, value in vars(args).items():
        for v in value if isinstance(value, tuple) else (value,):
            if isinstance(v, float) and not math.isfinite(v):
                raise ValueError(f"--{dest.replace('_', '-')} must be a finite number, got {v}")
    for dest in _OPTIONS:
        if dest not in reads and getattr(args, dest, None) is not None:
            raise ValueError(f"--{dest.replace('_', '-')} is not used by {command}")
    for dest, default in reads.items():
        if getattr(args, dest) is None:
            if default is REQUIRED:
                raise ValueError(f"missing required option --{dest.replace('_', '-')}")
            setattr(args, dest, default)
    if "tol" in reads and not args.tol > 0:
        raise ValueError(f"tolerance must be positive, got {args.tol}")


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    """A fresh parser of every group, command and option."""
    parser = _Parser(
        prog="slly",
        description="exact and numerical verification of the contact-boson "
        "system and its N=2 supersymmetric extension",
    )
    sub = parser.add_subparsers(dest="group", required=True)
    for group, commands in _COMMANDS.items():
        positional, help_text = _GROUPS[group]
        g = sub.add_parser(group, help=help_text)
        g.add_argument(positional, choices=list(commands))
        # --tol stays on every group, so that a command refuses it by name
        read = {"tol"}.union(*(reads for _, reads in commands.values()))
        if "state_family" in read:
            read = read.union(*_PARTNER_FAMILIES.values())
        for dest, kwargs in _OPTIONS.items():
            if dest in read:
                g.add_argument("--" + dest.replace("_", "-"), **kwargs)
        g.add_argument("--config", help="key = value file; flags win on conflict")
        g.add_argument("--output", "-o", help="write the JSON report here (atomically)")
        g.set_defaults(group_parser=g)
    return parser


#: the parser of every call without ``--config``, built on first use; parsing
#: leaves a parser as it was, so one serves the whole process
_shared_parser = functools.cache(_build_parser)


def main(argv=None) -> int:
    from . import __version__
    from .errors import ConvergenceError

    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _shared_parser().parse_args(argv)
        if args.config:
            # the config becomes a parser's defaults, so only this call's own
            # parser may hold them
            parser = _build_parser()
            _load_config(parser.parse_args(argv).group_parser, args.config)
            args = parser.parse_args(argv)
        positional = _GROUPS[args.group][0]
        name = getattr(args, positional)
        command = f"{args.group} {name}"
        runner, reads = _COMMANDS[args.group][name]
        if "state_family" in reads:
            family = args.state_family or reads["state_family"]
            reads = {**reads, **_PARTNER_FAMILIES[family]}
        _check_options(args, command, reads)
        results, passed, csv_text = runner(args)
        config = {dest: getattr(args, dest) for dest in reads if dest not in ("emit_state", "csv")}
        config[positional] = name
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
        diagnostics = json.dumps(
            _finite(exc.diagnostics), sort_keys=True, default=str, allow_nan=False
        )
        sys.stderr.write(f"slly: diagnostics: {diagnostics}\n")
        return 3
    except (ValueError, OverflowError, OSError) as exc:
        sys.stderr.write(f"slly: {exc}\n")
        return 2

    sys.stdout.write(text)
    return 0 if passed else 1


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
