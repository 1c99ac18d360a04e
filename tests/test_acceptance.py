"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here and nothing is deferred to later
calibration.
"""

import cmath
import math
import time

import numpy as np
import pytest

from slly import bethe, fock, lattice, susy
from slly import piecewise as pw


def _line(num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {status} {name}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_01_s_matrix_contract():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_mod = worst_unit = worst_phase = 0.0
    for _ in range(10_000):
        ki, kj = rng.uniform(-25, 25, size=2)
        c = rng.uniform(-10, 10)
        if abs(c) < 1e-3:
            c = 1e-3 if c >= 0 else -1e-3
        s = bethe.s_matrix(ki, kj, c)
        worst_mod = max(worst_mod, abs(abs(s) - 1.0))
        worst_unit = max(worst_unit, abs(s * bethe.s_matrix(kj, ki, c) - 1.0))
        worst_phase = max(
            worst_phase, abs(cmath.exp(1j * bethe.phase_shift(kj - ki, c)) - s)
        )
    diag_ok = all(bethe.s_matrix(k, k, 2.0) == -1.0 for k in (-3.0, 0.0, 1.7))
    elapsed = time.perf_counter() - t0
    ok = worst_mod < 1e-13 and worst_unit < 1e-13 and worst_phase < 1e-12 and diag_ok
    ok = ok and elapsed < 1.0
    _line(
        1,
        "s-matrix contract",
        ok,
        f"|S|-1 {worst_mod:.2e}, unitarity {worst_unit:.2e}, "
        f"exp(i theta) {worst_phase:.2e}, S(k,k)=-1 {diag_ok}, {elapsed:.2f}s",
    )


def test_criterion_02_coefficient_path_independence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for n in (3, 4, 5):
        for _ in range(100):
            ks = np.sort(rng.uniform(-6, 6, size=n))[::-1]
            while np.min(-np.diff(ks)) < 1e-3:
                ks = np.sort(rng.uniform(-6, 6, size=n))[::-1]
            c = rng.uniform(0.2, 5.0)
            coeffs = bethe.bethe_coefficients(tuple(ks), c)
            ident = tuple(range(1, n + 1))
            ratios: dict[tuple[int, ...], list[complex]] = {}
            for _path in range(2):
                path = [int(rng.integers(0, n - 1)) for _ in range(int(rng.integers(4, 12)))]
                target, ratio = bethe.coefficient_along_path(tuple(ks), c, path)
                ratios.setdefault(target, []).append(ratio)
                worst = max(worst, abs(ratio - coeffs[target] / coeffs[ident]))
            for vals in ratios.values():
                if len(vals) == 2:
                    worst = max(worst, abs(vals[0] - vals[1]))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-12 and elapsed < 10.0
    _line(2, "coefficient path independence", ok, f"max deviation {worst:.2e}, {elapsed:.2f}s")


def test_criterion_03_matching_conditions():
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    worst = 0.0
    for n in (2, 3, 4):
        ks = tuple(sorted(rng.uniform(-3, 3, size=n), reverse=True))
        c = 2.0
        state = bethe.collision_state(ks, c)
        rep = bethe.matching_report(state, c, bethe.energy(ks))
        worst = max(worst, rep.max_continuity, rep.max_jump)

    # two-body state against the displayed chamber forms, up to a global phase
    c, k1, k2 = 2.0, 1.4, -0.6
    amp = cmath.exp(0.5j * bethe.phase_shift(k1 - k2, c))
    eith = cmath.exp(1j * bethe.phase_shift(k2 - k1, c))
    st = bethe.collision_state([k1, k2], c)
    r12, r21 = pw.Region((1, 2)), pw.Region((2, 1))
    ka, kb = (1j * k1, 1j * k2), (1j * k2, 1j * k1)
    cur = {st.kappas[i]: c for i, c in st.terms[r12]}
    scaled = pw.scale(st, amp / cur[ka])
    expect = pw.build(
        2,
        {
            r12: [(amp, ka), (amp * eith, kb)],
            r21: [(amp, kb), (amp * eith, ka)],
        },
    )
    display_dev = pw.coefficient_distance(scaled, expect)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and display_dev < 1e-12 and elapsed < 10.0
    _line(
        3,
        "matching conditions",
        ok,
        f"max interface residual {worst:.2e}, two-body display dev {display_dev:.2e}, "
        f"{elapsed:.2f}s",
    )


def test_criterion_04_bound_state_energies():
    c = -1.7
    p, q = 0.9, -1.4
    checks = {
        "dimer ground": (bethe.energy(bethe.dimer_momenta(0.0, c)), -c * c / 2),
        "dimer moving": (bethe.energy(bethe.dimer_momenta(p, c)), 2 * p * p - c * c / 2),
        "trimer ground": (bethe.energy(bethe.trimer_momenta(0.0, c)), -2 * c * c),
        "trimer moving": (bethe.energy(bethe.trimer_momenta(p, c)), 3 * p * p - 2 * c * c),
        "monomer-dimer": (
            bethe.energy(bethe.monomer_dimer_momenta(p, q, c)),
            q * q + 2 * p * p - c * c / 2,
        ),
    }
    energy_dev = max(abs(got - want) for got, want in checks.values())
    states = {
        "dimer": (bethe.dimer_state(p, c), 2 * p * p - c * c / 2),
        "trimer": (bethe.trimer_state(p, c), 3 * p * p - 2 * c * c),
        "monomer-dimer": (
            bethe.monomer_dimer_state(p, q, c),
            q * q + 2 * p * p - c * c / 2,
        ),
        "nmer(n=4)": (bethe.nmer_ground(4, c), -(c * c) * 4 * 15 / 12),
    }
    worst = 0.0
    for state, e in states.values():
        rep = bethe.matching_report(state, c, e)
        worst = max(worst, rep.max_continuity, rep.max_jump, rep.max_bulk)
    # "exact" at machine precision: the power sum is evaluated in complex
    # arithmetic, so the closed forms agree to rounding only
    ok = energy_dev < 1e-13 and worst < 1e-10
    _line(
        4,
        "bound-state energies",
        ok,
        f"energy deviation {energy_dev:.2e}, max residual {worst:.2e}",
    )


def test_criterion_05_fock_algebra_exact():
    t0 = time.perf_counter()
    failures = []
    for n in (2, 3, 8):
        bs = [fock.annihilation(j, n) for j in range(1, n + 1)]
        eye = fock.identity(n)
        for j in range(n):
            for k in range(n):
                if not fock.anticommutator(bs[j], bs[k]).is_zero():
                    failures.append(f"CAR bb n={n}")
                mixed = fock.anticommutator(bs[j], bs[k].adjoint())
                target = eye if j == k else fock.zero_operator(n)
                if not mixed.is_exactly(target):
                    failures.append(f"CAR b bdag n={n}")
        gs = fock.gamma_matrices(n)
        for i, gi in enumerate(gs):
            if not gi.is_exactly(gi.adjoint()):
                failures.append(f"gamma hermiticity n={n}")
            for jj, gj in enumerate(gs):
                anti = fock.anticommutator(gi, gj)
                target = 2.0 * eye if i == jj else fock.zero_operator(n)
                if not anti.is_exactly(target):
                    failures.append(f"clifford n={n}")

        def spin(k, l):
            if k == l:
                return fock.zero_operator(n)
            return fock.spin_operator(k, l, n) if k < l else -fock.spin_operator(l, k, n)

        pairs = [(k, l) for k in range(1, n + 1) for l in range(k + 1, n + 1)]
        spins = {pr: spin(*pr) for pr in pairs}
        for (k, l) in pairs:
            for (i, j) in pairs:
                rhs = fock.zero_operator(n)
                if k == i:
                    rhs = rhs + 1j * spin(l, j)
                if l == j:
                    rhs = rhs + 1j * spin(k, i)
                if k == j:
                    rhs = rhs - 1j * spin(l, i)
                if l == i:
                    rhs = rhs - 1j * spin(k, j)
                if not fock.commutator(spins[(k, l)], spins[(i, j)]).is_exactly(rhs):
                    failures.append(f"so({n}) bracket {(k, l, i, j)}")
        c = 1.25
        f_op = fock.fermi_number(n)
        for (a, b) in pairs:
            lam = fock.delta_coupling(a, b, c, n)
            if not lam.is_exactly(lam.adjoint()):
                failures.append(f"lambda hermiticity n={n}")
            if not fock.commutator(lam, f_op).is_zero():
                failures.append(f"lambda grading n={n}")
            if not (lam @ lam).is_exactly((2 * c) ** 2 * eye):
                failures.append(f"lambda square n={n}")
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 30.0
    _line(
        5,
        "fock algebra exactness",
        ok,
        f"{'no violations' if not failures else failures[:3]}, N up to 8, {elapsed:.2f}s",
    )


def test_criterion_06_sector_hamiltonian_reproduction():
    dev = 0.0
    c = 1.0
    sp2 = susy.Superpotential(n=2, c=c)
    sec21 = susy.sector_hamiltonian(1, sp2)
    dev = max(dev, np.abs(sec21.block(1, 2).real - 2 * c * np.array([[0, 1], [1, 0.0]])).max())
    dev = max(dev, abs(sec21.shift - c * c / 2))

    sp3 = susy.Superpotential(n=3, c=c)
    one = susy.sector_hamiltonian(1, sp3)
    two = susy.sector_hamiltonian(2, sp3)
    dev = max(dev, abs(one.shift - 2 * c * c))
    pinned_one = {
        (1, 2): [[0, 1, 0], [1, 0, 0], [0, 0, 1]],
        (1, 3): [[0, 0, 1], [0, 1, 0], [1, 0, 0]],
        (2, 3): [[1, 0, 0], [0, 0, 1], [0, 1, 0]],
    }
    pinned_two = {
        (1, 2): [[-1, 0, 0], [0, 0, 1], [0, 1, 0]],
        (1, 3): [[0, 0, -1], [0, -1, 0], [-1, 0, 0]],
        (2, 3): [[0, 1, 0], [1, 0, 0], [0, 0, -1]],
    }
    for pair, pattern in pinned_one.items():
        dev = max(dev, np.abs(one.block(*pair).real - 2 * c * np.array(pattern, float)).max())
    for pair, pattern in pinned_two.items():
        dev = max(dev, np.abs(two.block(*pair).real - 2 * c * np.array(pattern, float)).max())

    scalar_ok = True
    for n in range(2, 7):
        sp = susy.Superpotential(n=n, c=0.8)
        bottom = susy.sector_hamiltonian(0, sp)
        top = susy.sector_hamiltonian(n, sp)
        shift_ok = bottom.shift == pytest.approx(0.8**2 * n * (n * n - 1) / 12, rel=1e-14)
        blocks_ok = all(
            np.array_equal(bottom.block(*pr).real, [[1.6]])
            and np.array_equal(top.block(*pr).real, [[-1.6]])
            for pr in bottom.couplings
        )
        scalar_ok = scalar_ok and shift_ok and blocks_ok
    ok = dev == 0.0 and scalar_ok
    _line(
        6,
        "sector-hamiltonian reproduction",
        ok,
        f"pinned-matrix deviation {dev:.2e}, scalar sectors uniform +-2c for N<=6: {scalar_ok}",
    )


def test_criterion_07_susy_algebra():
    worst = 0.0
    for n in (2, 3, 4):
        sp = susy.Superpotential(n=n, c=0.85)
        rng = np.random.default_rng(700 + n)
        for _ in range(100):
            s = susy.random_spinor(sp, rng, terms_per_region=1)
            worst = max(worst, *susy.algebra_residuals(s, sp))
    ok = worst < 1e-12
    _line(7, "susy algebra", ok, f"max residual over 300 random spinors {worst:.2e}")


def test_criterion_08_zero_modes_and_census():
    t0 = time.perf_counter()
    worst = 0.0
    census_ok = True
    for n in (2, 3, 4, 5):
        sp = susy.Superpotential(n=n, c=1.05)
        for mode in susy.zero_modes(sp):
            rq, rqd = susy.annihilation_residuals(mode, sp)
            rep = susy.verify_eigenstate(mode, 0.0, sp)
            worst = max(worst, rq, rqd, rep.bulk_residual, rep.interface_residual)
        census = susy.witten_census(sp)
        census_ok = census_ok and (census.n_b, census.n_f, census.index) == (1, 1, 0)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-12 and census_ok and elapsed < 60.0
    _line(
        8,
        "zero modes and witten census",
        ok,
        f"max residual {worst:.2e}, census n_b=n_f=1 index=0: {census_ok}, {elapsed:.2f}s",
    )


def test_criterion_09_susy_partners():
    # two-particle raising against the four displayed component formulas
    c, k1, k2 = 2.0, 1.4, -0.6
    sp = susy.Superpotential(n=2, c=c)
    amp = cmath.exp(0.5j * bethe.phase_shift(k1 - k2, c))
    eith = cmath.exp(1j * bethe.phase_shift(k2 - k1, c))
    st = bethe.collision_state([k1, k2], c)
    r12, r21 = pw.Region((1, 2)), pw.Region((2, 1))
    ka, kb = (1j * k1, 1j * k2), (1j * k2, 1j * k1)
    cur = {st.kappas[i]: c for i, c in st.terms[r12]}
    st = pw.scale(st, amp / cur[ka])
    raised = susy.apply_q_dagger(susy.spinor_from_scalar(st, 0), sp)
    sq2 = math.sqrt(2.0)
    expected = {
        1: pw.build(2, {
            r12: [(-sq2 * amp * (k1 - 0.5j * c), ka), (-sq2 * amp * (k2 - 0.5j * c) * eith, kb)],
            r21: [(-sq2 * amp * (k2 + 0.5j * c), kb), (-sq2 * amp * (k1 + 0.5j * c) * eith, ka)],
        }),
        2: pw.build(2, {
            r12: [(-sq2 * amp * (k2 + 0.5j * c), ka), (-sq2 * amp * (k1 + 0.5j * c) * eith, kb)],
            r21: [(-sq2 * amp * (k1 - 0.5j * c), kb), (-sq2 * amp * (k2 - 0.5j * c) * eith, ka)],
        }),
    }
    display_dev = max(
        pw.coefficient_distance(raised.component(mask), want) for mask, want in expected.items()
    )

    # partner energies preserved on random scattering states
    energy_dev = 0.0
    for n in (2, 3):
        spn = susy.Superpotential(n=n, c=0.9)
        rng = np.random.default_rng(900 + n)
        for _ in range(25):
            ks = np.sort(rng.uniform(-2.5, 2.5, size=n))[::-1]
            while np.min(-np.diff(ks)) < 5e-2:
                ks = np.sort(rng.uniform(-2.5, 2.5, size=n))[::-1]
            s = susy.spinor_from_scalar(bethe.collision_state(tuple(ks), spn.c), 0)
            result = susy.susy_partner(s, "raise", spn)
            want = bethe.energy(tuple(ks)) + susy.shift_constant(spn)
            energy_dev = max(energy_dev, abs(result.energy - want))
            energy_dev = max(
                energy_dev, result.report.bulk_residual, result.report.interface_residual
            )
    ok = display_dev < 1e-12 and energy_dev < 1e-10
    _line(
        9,
        "susy partners",
        ok,
        f"component-formula deviation {display_dev:.2e}, "
        f"partner energy/residual deviation {energy_dev:.2e} over 50 states",
    )


def test_criterion_10_lattice_oracle():
    t0 = time.perf_counter()
    sp = susy.Superpotential(n=2, c=2.0)
    grid = lattice.Grid(box=24.0, points=240, n=2)
    spectra = lattice.susy_spectrum_check(grid, sp, k=6, seed=1)

    conv = lattice.convergence_study(2, sp, 24.0, (119, 239, 479), k=1, seed=1)
    logs_h = [math.log(r.h) for r in conv.rows]
    logs_e = [math.log(abs(r.eigenvalues[0])) for r in conv.rows]
    mh, me = sum(logs_h) / 3, sum(logs_e) / 3
    fitted_order = sum((a - mh) * (b - me) for a, b in zip(logs_h, logs_e)) / sum(
        (a - mh) ** 2 for a in logs_h
    )

    diag = lattice.lattice_q_diagnostic(lattice.Grid(box=24.0, points=80, n=2), sp, seed=1)
    elapsed = time.perf_counter() - t0
    ok = (
        spectra.passed
        and conv.monotone_decreasing
        and 0.7 <= fitted_order <= 1.3
        and diag.min_eigenvalue >= -1e-10
        and elapsed < 300.0
    )
    _line(
        10,
        "lattice oracle",
        ok,
        f"sector checks {spectra.checks}, fitted order {fitted_order:.3f} "
        f"(intervals {[f'{o:.2f}' for o in conv.orders]}), "
        f"min 0.5{{Q,Qdag}} eig {diag.min_eigenvalue:.2e}, {elapsed:.0f}s",
    )
