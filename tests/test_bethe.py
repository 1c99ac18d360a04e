"""Exchange factors, coefficients, collision and bound states, charges."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slly import bethe
from slly import piecewise as pw
from slly.errors import PoleError

finite_floats = st.floats(min_value=-20.0, max_value=20.0, allow_nan=False)
couplings = st.floats(min_value=0.1, max_value=10.0)


def old_bulk_energy_residual(state: pw.RegionFunction, e: float) -> float:
    """The per-term formula ``bethe.bulk_energy_residual`` replaced."""
    worst = 0.0
    for ts in state.terms.values():
        for t in ts:
            worst = max(worst, abs(-sum(kk * kk for kk in t.kappa) - e))
    return worst


class TestSMatrix:
    def test_equal_momenta(self):
        assert bethe.s_matrix(0.37, 0.37, 2.5) == -1.0

    def test_hand_value(self):
        assert bethe.s_matrix(1.0, 2.0, 2.0) == pytest.approx((-3 + 4j) / 5, abs=1e-15)

    @settings(max_examples=200, deadline=None)
    @given(ki=finite_floats, kj=finite_floats, c=couplings)
    def test_unimodular_and_unitary(self, ki, kj, c):
        s = bethe.s_matrix(ki, kj, c)
        assert abs(abs(s) - 1.0) < 1e-13
        assert abs(s * bethe.s_matrix(kj, ki, c) - 1.0) < 1e-13

    def test_pole_raises(self):
        with pytest.raises(PoleError):
            bethe.s_matrix(0.5 - 1j, 0.5 + 1j, 2.0)


class TestPhaseShift:
    def test_zero_momentum(self):
        assert bethe.phase_shift(0.0, 3.0) == pytest.approx(math.pi)

    def test_hand_value(self):
        assert bethe.phase_shift(2.0, 2.0) == pytest.approx(math.pi / 2)

    def test_large_momentum_limit(self):
        assert bethe.phase_shift(1e12, 1.0) == pytest.approx(0.0, abs=1e-10)

    def test_zero_coupling_rejected(self):
        with pytest.raises(ValueError):
            bethe.phase_shift(1.0, 0.0)

    @settings(max_examples=200, deadline=None)
    @given(ki=finite_floats, kj=finite_floats, c=couplings)
    def test_exponentiated_matches_s(self, ki, kj, c):
        s = bethe.s_matrix(ki, kj, c)
        assert abs(cmath.exp(1j * bethe.phase_shift(kj - ki, c)) - s) < 1e-12

    @settings(max_examples=100, deadline=None)
    @given(k=finite_floats, c=couplings)
    def test_exponentiated_antisymmetry(self, k, c):
        # theta(k) + theta(-k) = 2*pi exactly, so the phases cancel on the circle
        val = cmath.exp(1j * bethe.phase_shift(k, c)) * cmath.exp(1j * bethe.phase_shift(-k, c))
        assert abs(val - 1.0) < 1e-12


class TestYangBaxter:
    def test_hand_triple(self):
        assert bethe.yang_baxter_residual(1.0, 0.5, -0.3, 2.0) < 1e-14

    def test_fuzz(self):
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(1000):
            ka, kb, kc = rng.uniform(-10, 10, size=3)
            c = rng.uniform(0.1, 10.0)
            worst = max(worst, bethe.yang_baxter_residual(ka, kb, kc, c))
        assert worst < 1e-13

    def test_string_pair_rejected(self):
        with pytest.raises(PoleError):
            bethe.yang_baxter_residual(0.2 - 1j, 0.2 + 1j, 0.5, 2.0)


class TestMomentumSet:
    def test_collision_requires_decreasing(self):
        with pytest.raises(ValueError):
            bethe.MomentumSet((0.2, 0.9))

    def test_string_requires_conjugate_closure(self):
        with pytest.raises(ValueError):
            bethe.MomentumSet((1.0 + 0.5j, 0.2))

    def test_valid_trimer_string(self):
        kset = bethe.trimer_momenta(0.4, -1.1)
        assert kset.n == 3


class TestCoefficients:
    def test_two_body_ratio(self):
        ks = (1.4, -0.2)
        c = 2.1
        coeffs = bethe.bethe_coefficients(ks, c)
        ratio = coeffs[(2, 1)] / coeffs[(1, 2)]
        assert ratio == pytest.approx(bethe.s_matrix(*ks, c), abs=1e-14)

    def test_three_body_ratio_pattern(self):
        ks = (1.5, 0.2, -0.9)
        c = 2.0
        a = bethe.bethe_coefficients(ks, c)
        s12 = bethe.s_matrix(ks[0], ks[1], c)
        s13 = bethe.s_matrix(ks[0], ks[2], c)
        s23 = bethe.s_matrix(ks[1], ks[2], c)
        assert a[(2, 1, 3)] / a[(1, 2, 3)] == pytest.approx(s12, abs=1e-13)
        assert a[(3, 2, 1)] / a[(3, 1, 2)] == pytest.approx(s12, abs=1e-13)
        assert a[(3, 1, 2)] / a[(1, 3, 2)] == pytest.approx(s13, abs=1e-13)
        assert a[(2, 3, 1)] / a[(2, 1, 3)] == pytest.approx(s13, abs=1e-13)
        assert a[(3, 2, 1)] / a[(2, 3, 1)] == pytest.approx(s23, abs=1e-13)
        assert a[(1, 3, 2)] / a[(1, 2, 3)] == pytest.approx(s23, abs=1e-13)

    def test_recurrence_everywhere(self):
        ks = (2.0, 0.7, -0.4, -1.6)
        coeffs = bethe.bethe_coefficients(ks, 1.3)
        assert bethe.max_recurrence_violation(coeffs) < 1e-12

    def test_path_independence_random_paths(self):
        rng = np.random.default_rng(23)
        ks = tuple(sorted(rng.uniform(-5, 5, size=4), reverse=True))
        c = 1.3
        coeffs = bethe.bethe_coefficients(ks, c)
        for _ in range(50):
            path = [int(rng.integers(0, 3)) for _ in range(int(rng.integers(0, 7)))]
            target, ratio = bethe.coefficient_along_path(ks, c, path)
            expected = coeffs[target] / coeffs[tuple(range(1, 5))]
            assert abs(ratio - expected) < 1e-12

    def test_path_independence_all_short_paths(self):
        # brute force over every adjacent-transposition path of length <= 6
        import itertools

        rng = np.random.default_rng(29)
        ks = tuple(sorted(rng.uniform(-5, 5, size=4), reverse=True))
        c = 1.3
        coeffs = bethe.bethe_coefficients(ks, c)
        ident = tuple(range(1, 5))
        for length in range(7):
            for path in itertools.product(range(3), repeat=length):
                target, ratio = bethe.coefficient_along_path(ks, c, path)
                assert abs(ratio - coeffs[target] / coeffs[ident]) < 1e-12

    def test_pole_redirects_to_bound_states(self):
        kset = bethe.dimer_momenta(0.3, -2.0)
        with pytest.raises(PoleError):
            bethe.bethe_coefficients(kset, -2.0)


class TestCollisionState:
    def test_two_body_matches_displayed_form_up_to_phase(self):
        k1, k2, c = 1.4, -0.6, 2.0
        st = bethe.collision_state([k1, k2], c)
        r12 = pw.Region((1, 2))
        ka, kb = (1j * k1, 1j * k2), (1j * k2, 1j * k1)
        # displayed normalization: exp(i theta(k1-k2)/2) on the direct wave
        amp = cmath.exp(0.5j * bethe.phase_shift(k1 - k2, c))
        cur = {t.kappa: t.coef for t in st.terms[r12]}
        scaled = pw.scale(st, amp / cur[ka])
        expect = pw.build(
            2,
            {
                r12: [(amp, ka), (amp * cmath.exp(1j * bethe.phase_shift(k2 - k1, c)), kb)],
                pw.Region((2, 1)): [
                    (amp, kb),
                    (amp * cmath.exp(1j * bethe.phase_shift(k2 - k1, c)), ka),
                ],
            },
        )
        assert pw.coefficient_distance(scaled, expect) < 1e-13

    def test_three_body_two_region_display(self):
        ks = (1.5, 0.2, -0.9)
        c = 2.0
        st = bethe.collision_state(ks, c)
        r123, r213 = pw.Region((1, 2, 3)), pw.Region((2, 1, 3))
        direct = (1j * ks[0], 1j * ks[1], 1j * ks[2])
        swapped = (1j * ks[1], 1j * ks[0], 1j * ks[2])
        c123 = {t.kappa: t.coef for t in st.terms[r123]}
        c213 = {t.kappa: t.coef for t in st.terms[r213]}
        phase = cmath.exp(1j * bethe.phase_shift(ks[1] - ks[0], c))
        assert c123[swapped] / c123[direct] == pytest.approx(phase, abs=1e-13)
        assert c213[direct] / c213[swapped] == pytest.approx(phase, abs=1e-13)
        assert c213[swapped] == pytest.approx(c123[direct], abs=1e-13)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matching_conditions(self, n):
        rng = np.random.default_rng(n)
        ks = tuple(sorted(rng.uniform(-3, 3, size=n), reverse=True))
        c = 1.7
        st = bethe.collision_state(ks, c)
        rep = bethe.matching_report(st, c, bethe.energy(ks))
        assert rep.max_continuity < 1e-10
        assert rep.max_jump < 1e-10
        assert rep.max_bulk < 1e-10

    def test_attractive_collision_state(self):
        ks = (1.2, -0.3, -1.4)
        c = -1.9
        st = bethe.collision_state(ks, c)
        assert bethe.matching_report(st, c, bethe.energy(ks)).passed()

    def test_rejects_unsorterd_momenta(self):
        with pytest.raises(ValueError):
            bethe.collision_state([0.1, 0.5], 1.0)


class TestBoundStates:
    def test_dimer_energy_values(self):
        assert bethe.energy(bethe.dimer_momenta(0.0, -2.0)) == pytest.approx(-2.0)
        assert bethe.energy(bethe.dimer_momenta(1.0, -2.0)) == pytest.approx(0.0)

    def test_dimer_matching(self):
        c = -2.0
        st = bethe.dimer_state(0.7, c)
        rep = bethe.matching_report(st, c, bethe.energy(bethe.dimer_momenta(0.7, c)))
        assert rep.passed(1e-12)

    def test_dimer_rejects_repulsive(self):
        with pytest.raises(ValueError):
            bethe.dimer_state(0.0, 2.0)

    def test_trimer_energies(self):
        assert bethe.energy(bethe.trimer_momenta(0.0, -1.0)) == pytest.approx(-2.0)
        assert bethe.energy(bethe.trimer_momenta(1.0, -1.0)) == pytest.approx(1.0)

    def test_trimer_matching_and_region_profile(self):
        c = -1.0
        p = 0.5
        st = bethe.trimer_state(p, c)
        assert bethe.matching_report(st, c, 3 * p**2 - 2.0).passed(1e-12)
        terms = st.terms[pw.Region((1, 2, 3))]
        assert len(terms) == 1
        # exponent -|c|(x3 - x1) + 3iP X on the ordered chamber
        kappa = terms[0].kappa
        assert kappa[0] == pytest.approx(abs(c) + 1j * p)
        assert kappa[1] == pytest.approx(1j * p)
        assert kappa[2] == pytest.approx(-abs(c) + 1j * p)

    def test_monomer_dimer_energy_and_matching(self):
        p, q, c = 1.0, 2.0, -1.0
        assert bethe.energy(bethe.monomer_dimer_momenta(p, q, c)) == pytest.approx(5.5)
        st = bethe.monomer_dimer_state(p, q, c)
        rep = bethe.matching_report(st, c, 5.5)
        assert rep.passed(1e-12)

    def test_monomer_dimer_three_terms_per_chamber(self):
        st = bethe.monomer_dimer_state(0.4, -0.9, -1.3)
        assert all(len(ts) == 3 for ts in st.terms.values())

    def test_monomer_dimer_rejects_degenerate_string(self):
        with pytest.raises(ValueError):
            bethe.monomer_dimer_momenta(0.0, 0.0, -1.0)

    def test_nmer_two_particles_is_dimer_at_rest(self):
        assert pw.coefficient_distance(bethe.nmer_ground(2, -2.0), bethe.dimer_state(0.0, -2.0)) == 0.0

    def test_nmer_three_matches_pair_distance_profile(self):
        c = -1.6
        st = bethe.nmer_ground(3, c)
        terms = st.terms[pw.Region((1, 2, 3))]
        assert len(terms) == 1
        assert terms[0].coef == pytest.approx(1.0)
        beta = abs(c)
        assert terms[0].kappa == pytest.approx((beta, 0.0, -beta))

    def test_nmer_five_continuity_everywhere(self):
        st = bethe.nmer_ground(5, -1.0)
        assert len(pw.interfaces(5)) == 240
        couplings = {ifc.pair: [[-2.0]] for ifc in pw.interfaces(5)}
        assert pw.matching_residuals([st], couplings)[0] == 0.0


class TestCharges:
    def test_two_body_values(self):
        assert bethe.conserved_charge(1, (1.0, -1.0)) == pytest.approx(0.0)
        assert bethe.conserved_charge(2, (1.0, -1.0)) == pytest.approx(2.0)

    def test_trimer_string_charges(self):
        p, c = 0.7, -1.3
        kset = bethe.trimer_momenta(p, c)
        assert bethe.conserved_charge(1, kset) == pytest.approx(3 * p)
        assert bethe.conserved_charge(2, kset) == pytest.approx(3 * p**2 - 2 * c**2)

    def test_dimer_dispersion(self):
        p, c = 1.2, -0.8
        assert bethe.energy(bethe.dimer_momenta(p, c)) == pytest.approx(2 * p**2 - c**2 / 2)

    def test_non_real_energy_rejected(self):
        with pytest.raises(ValueError):
            bethe.energy((1.0 + 0.5j, 0.3))

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        pool=st.integers(1, 4),
        e=st.floats(min_value=-30.0, max_value=30.0),
    )
    def test_bulk_energy_residual_equals_per_term_formula(self, n, seed, pool, e):
        # chambers draw their kappas from a small shared pool, so kappas repeat
        # across chambers as in a Bethe state, plus one kappa of their own
        rng = np.random.default_rng(seed)
        kappas = [tuple(complex(*rng.normal(size=2)) for _ in range(n)) for _ in range(pool)]
        data = {
            region: [(1.0, kappas[i]) for i in rng.permutation(pool)[: rng.integers(1, pool + 1)]]
            + [(2.0, tuple(complex(x) for x in rng.normal(size=n)))]
            for region in pw.regions(n)
        }
        state = pw.build(n, data)
        assert bethe.bulk_energy_residual(state, e) == old_bulk_energy_residual(state, e)

    def test_bulk_energy_residual_on_bethe_states(self):
        c, ks = -1.3, (1.7, 0.6, -0.3, -1.2)
        states = [
            (bethe.collision_state(ks, c), bethe.energy(ks)),
            (bethe.trimer_state(0.4, c), bethe.energy(bethe.trimer_momenta(0.4, c))),
        ]
        for state, e in states:
            for shift in (0.0, 0.25, -3.0):
                got = bethe.bulk_energy_residual(state, e + shift)
                assert got == old_bulk_energy_residual(state, e + shift)

    def test_bulk_charge_residual_on_collision_state(self):
        ks = (1.5, 0.2, -0.9)
        st = bethe.collision_state(ks, 2.0)
        for order in (1, 2, 3):
            assert bethe.charge_residual(st, ks, order) < 1e-12
