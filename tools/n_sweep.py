"""Time the exact wall verification along the particle-count axis.

    python3 tools/n_sweep.py --max-n 6 [--seed 0] [--root DIR]

For N = 2 .. K it builds one collision state on seeded momenta (strictly
decreasing reals in [-2, 2], at least 0.05 apart, and a coupling in
[0.5, 2.5]), runs ``bethe.matching_report`` on it, and runs
``susy.verify_eigenstate`` and ``susy.annihilation_residuals`` (Q and Q^dag
applied in one pass) on both zero modes of the superpotential with the same
coupling.  Up to N = 5 (``ALGEBRA_MAX_N``, the limit of the symbolic susy
commands) it also runs ``susy.algebra_residuals`` on one seeded random
spinor.  Each N prints one JSON line:

    {"n", "walls", "collision_terms", "collision_state_s", "collision_state_faults",
     "matching_report_s", "matching_report_faults", "zero_mode_terms",
     "zero_modes_s", "zero_modes_faults", "annihilation_s", "annihilation_faults",
     "algebra_s", "algebra_faults", "passed"}

``walls`` is N!(N-1)/2, ``*_terms`` count the exponential terms over all
chambers (and components), ``zero_modes_s`` and ``annihilation_s`` cover
both modes, ``algebra_s`` and ``algebra_faults`` are null above N = 5, and
``passed`` says every check met its tolerance (both annihilation residuals
below ``susy.ZERO_MODE_TOL``, the three algebra residuals below
``ALGEBRA_TOL``, the default ``--tol`` of ``slly susy algebra``).  A
collision state holds N! terms on each of N! chambers, and
``bethe.collision_state`` refuses more than ``bethe.COLLISION_MAX_TERMS`` of
them (above N = 6; 25 M at N = 7), so there the collision columns are null
and the state is never built; the zero modes, one term per chamber, are
still timed there.  Every time is a single run with ``time.perf_counter``,
and each ``*_faults`` column beside it counts the minor page faults of the
same calls (the change in ``ru_minflt`` of ``resource.getrusage``): pages
the process touched for the first time, so a time that moves with them
moves with the heap, not only with the work.  Before row N is timed, the
tables that the first call at N would build are built untimed (``_warm``):
the N! chambers, the wall table of a sweep and the zero modes' sector
couplings.  So a row times the work it names, not first-use costs.  slly
is imported from ``DIR/src`` (by default the checkout holding this
script), so two checkouts compare directly.  The exit status is 0 when
every row passed and 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import resource
import sys
import time
from pathlib import Path

#: largest N whose supersymmetry algebra is checked, and its tolerance
ALGEBRA_MAX_N = 5
ALGEBRA_TOL = 1e-12


def _momenta(rng: random.Random, n: int) -> list[float]:
    while True:
        ks = sorted((round(rng.uniform(-2.0, 2.0), 4) for _ in range(n)), reverse=True)
        if all(ks[i] - ks[i + 1] >= 0.05 for i in range(n - 1)):
            return ks


def _warm(pw, susy, sp) -> None:
    """Build N's cached tables untimed: the chambers and walls with one sweep of
    the constant function, and the coupling blocks of both zero-mode grades."""
    n = sp.n
    pw.matching_residuals([pw.constant_function(n)], {i.pair: [[1.0]] for i in pw.interfaces(n)})
    for grade in (n - 1, n):
        susy.sector_hamiltonian(grade, sp)


def _timed(fn, *args):
    """``fn(*args)``, its wall time and its minor page faults."""
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    t0 = time.perf_counter()
    result = fn(*args)
    seconds = time.perf_counter() - t0
    return result, seconds, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-n", type=int, required=True, help="largest particle count K (2..10)")
    ap.add_argument("--seed", type=int, default=0, help="seed of the momenta and couplings")
    ap.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1],
                    help="root of the checkout to run (default: this one)")
    args = ap.parse_args(argv)
    if not 2 <= args.max_n <= 10:
        ap.error("--max-n must be in 2..10")

    sys.path.insert(0, str(args.root.resolve() / "src"))
    import numpy as np
    from slly import bethe, susy
    from slly import piecewise as pw

    rng = random.Random(args.seed)
    spinor_rng = np.random.default_rng(args.seed)
    all_passed = True
    for n in range(2, args.max_n + 1):
        ks, c = _momenta(rng, n), round(rng.uniform(0.5, 2.5), 4)
        collision_terms = build_s = match_s = build_faults = match_faults = None
        passed = True
        sp = susy.Superpotential(n=n, c=c)
        _warm(pw, susy, sp)
        if math.factorial(n) ** 2 <= bethe.COLLISION_MAX_TERMS:
            state, build_s, build_faults = _timed(bethe.collision_state, ks, c)
            report, match_s, match_faults = _timed(
                bethe.matching_report, state, c, bethe.energy(ks))
            collision_terms = sum(len(ts) for ts in state.terms.values())
            passed = report.passed()
        modes = susy.zero_modes(sp)
        zero_s = annihilation_s = 0.0
        zero_faults = annihilation_faults = 0
        for mode in modes:
            verdict, seconds, faults = _timed(susy.verify_eigenstate, mode, 0.0, sp)
            zero_s += seconds
            zero_faults += faults
            residuals, seconds, faults = _timed(susy.annihilation_residuals, mode, sp)
            annihilation_s += seconds
            annihilation_faults += faults
            passed = passed and verdict.accepted and all(r < susy.ZERO_MODE_TOL for r in residuals)
        algebra_s = algebra_faults = None
        if n <= ALGEBRA_MAX_N:
            spinor = susy.random_spinor(sp, spinor_rng)
            residuals, algebra_s, algebra_faults = _timed(susy.algebra_residuals, spinor, sp)
            passed = passed and all(r < ALGEBRA_TOL for r in residuals)
        row = {
            "n": n,
            "walls": math.factorial(n) * (n - 1) // 2,
            "collision_terms": collision_terms,
            "collision_state_s": None if build_s is None else round(build_s, 4),
            "collision_state_faults": build_faults,
            "matching_report_s": None if match_s is None else round(match_s, 4),
            "matching_report_faults": match_faults,
            "zero_mode_terms": sum(
                len(ts) for mode in modes for f in mode.components.values()
                for ts in f.terms.values()
            ),
            "zero_modes_s": round(zero_s, 4),
            "zero_modes_faults": zero_faults,
            "annihilation_s": round(annihilation_s, 4),
            "annihilation_faults": annihilation_faults,
            "algebra_s": None if algebra_s is None else round(algebra_s, 4),
            "algebra_faults": algebra_faults,
            "passed": passed,
        }
        print(json.dumps(row), flush=True)
        all_passed = all_passed and passed
    return 0 if all_passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
