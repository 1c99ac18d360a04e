"""Supercharges, sector Hamiltonians, zero modes, partners, algebra fuzz."""

import cmath
import itertools
import math

import numpy as np
import pytest

from slly import bethe, fock, susy
from slly import piecewise as pw
from slly.errors import SingletError


def grade0_collision(ks, sp):
    return susy.spinor_from_scalar(bethe.collision_state(ks, sp.c), 0)


def gradeN_state(f, n):
    return susy.spinor_from_scalar(f, (1 << n) - 1)


class TestSuperpotentialGradient:
    def test_two_particle_values(self):
        sp = susy.Superpotential(n=2, c=2.0)
        r12 = pw.Region((1, 2))
        assert susy.grad_w(r12, 1, sp) == -1.0
        assert susy.grad_w(r12, 2, sp) == 1.0

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_gradient_sums_to_zero(self, n):
        sp = susy.Superpotential(n=n, c=1.3)
        for region in pw.regions(n):
            assert abs(sum(susy.grad_w(region, j, sp) for j in range(1, n + 1))) < 1e-13

    def test_eight_particle_square_sum_over_all_regions(self):
        # enumerate all 8! chambers and compare against c^2 * 8 * 63 / 12 = 42 c^2
        c = 0.7
        sp = susy.Superpotential(n=8, c=c)
        target = 42.0 * c * c
        for perm in itertools.permutations(range(1, 9)):
            region = pw.Region(perm)
            val = sum(susy.grad_w(region, j, sp) ** 2 for j in range(1, 9))
            assert val == pytest.approx(target, rel=1e-12)

    def test_shift_constant_values(self):
        assert susy.shift_constant(susy.Superpotential(n=2, c=2.0)) == pytest.approx(2.0)
        assert susy.shift_constant(susy.Superpotential(n=3, c=1.0)) == pytest.approx(2.0)
        assert susy.shift_constant(susy.Superpotential(n=1, c=5.0)) == 0.0

    def test_negative_coupling_rejected(self):
        with pytest.raises(ValueError):
            susy.Superpotential(n=2, c=-1.0)

    @pytest.mark.parametrize("c", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_coupling_rejected(self, c):
        with pytest.raises(ValueError, match="finite"):
            susy.Superpotential(n=2, c=c)


class TestSupercharges:
    def test_q_kills_grade_zero(self):
        sp = susy.Superpotential(n=3, c=1.0)
        s = grade0_collision((1.0, 0.3, -0.8), sp)
        assert susy.spinor_max_coefficient(susy.apply_q(s, sp)) == 0.0

    def test_q_kills_dimer_top_state(self):
        sp = susy.Superpotential(n=2, c=2.0)
        s = gradeN_state(bethe.dimer_state(0.0, -sp.c), 2)
        assert susy.spinor_max_coefficient(susy.apply_q(s, sp)) == 0.0

    def test_raised_collision_matches_displayed_components(self):
        # raising the two-particle scattering state out of grade 0 reproduces
        # the explicit spin-up/spin-down component formulas, coefficientwise
        c, k1, k2 = 2.0, 1.4, -0.6
        sp = susy.Superpotential(n=2, c=c)
        th = bethe.phase_shift
        amp = cmath.exp(0.5j * th(k1 - k2, c))
        eith = cmath.exp(1j * th(k2 - k1, c))
        st = bethe.collision_state([k1, k2], c)
        r12, r21 = pw.Region((1, 2)), pw.Region((2, 1))
        ka, kb = (1j * k1, 1j * k2), (1j * k2, 1j * k1)
        cur = {t.kappa: t.coef for t in st.terms[r12]}
        st = pw.scale(st, amp / cur[ka])
        raised = susy.apply_q_dagger(susy.spinor_from_scalar(st, 0), sp)

        sq2 = math.sqrt(2.0)
        expected = {
            1: pw.build(2, {
                r12: [(-sq2 * amp * (k1 - 0.5j * c), ka),
                      (-sq2 * amp * (k2 - 0.5j * c) * eith, kb)],
                r21: [(-sq2 * amp * (k2 + 0.5j * c), kb),
                      (-sq2 * amp * (k1 + 0.5j * c) * eith, ka)],
            }),
            2: pw.build(2, {
                r12: [(-sq2 * amp * (k2 + 0.5j * c), ka),
                      (-sq2 * amp * (k1 + 0.5j * c) * eith, kb)],
                r21: [(-sq2 * amp * (k1 - 0.5j * c), kb),
                      (-sq2 * amp * (k2 - 0.5j * c) * eith, ka)],
            }),
        }
        for mask, want in expected.items():
            assert pw.coefficient_distance(raised.component(mask), want) < 1e-12

    def test_grading_moves_by_one(self):
        sp = susy.Superpotential(n=3, c=0.8)
        rng = np.random.default_rng(1)
        s = susy.random_spinor(sp, rng, grade=1)
        assert susy.apply_q_dagger(s, sp).pure_grade() == 2
        assert susy.apply_q(s, sp).pure_grade() == 0


class TestSectorHamiltonian:
    def test_two_particle_middle_sector(self):
        sp = susy.Superpotential(n=2, c=1.7)
        sector = susy.sector_hamiltonian(1, sp)
        assert sector.shift == pytest.approx(1.7**2 / 2)
        assert np.array_equal(sector.block(1, 2).real, 2 * 1.7 * np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_three_particle_sectors_match_pinned_matrices(self):
        c = 1.0
        sp = susy.Superpotential(n=3, c=c)
        one = susy.sector_hamiltonian(1, sp)
        two = susy.sector_hamiltonian(2, sp)
        assert np.array_equal(one.block(1, 2).real, 2 * c * np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1.0]]))
        assert np.array_equal(one.block(2, 3).real, 2 * c * np.array([[1, 0, 0], [0, 0, 1], [0, 1, 0.0]]))
        assert np.array_equal(two.block(1, 3).real, 2 * c * np.array([[0, 0, -1], [0, -1, 0], [-1, 0, 0.0]]))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_scalar_sectors_uniform(self, n):
        sp = susy.Superpotential(n=n, c=0.9)
        bottom = susy.sector_hamiltonian(0, sp)
        top = susy.sector_hamiltonian(n, sp)
        for pair in bottom.couplings:
            assert np.array_equal(bottom.block(*pair).real, [[2 * 0.9]])
            assert np.array_equal(top.block(*pair).real, [[-2 * 0.9]])

    def test_grade_out_of_range(self):
        sp = susy.Superpotential(n=2, c=1.0)
        with pytest.raises(ValueError):
            susy.sector_hamiltonian(3, sp)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_couplings_equal_sparse_projection_exactly(self, n):
        """Cached blocks times 2c carry the bytes of the sparse product, signed zeros included."""
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for c in (0.0, 0.7, 2.3):
            sp = susy.Superpotential(n=n, c=c)
            for grade in range(n + 1):
                sector = susy.sector_hamiltonian(grade, sp)
                assert list(sector.couplings) == pairs
                for (a, b), block in sector.couplings.items():
                    ref = fock.grade_project(fock.delta_coupling(a, b, c, n), grade)
                    assert block.dtype == ref.dtype and block.shape == ref.shape
                    assert block.tobytes() == ref.tobytes()

    def test_mutating_a_block_leaves_the_next_call_alone(self):
        sp = susy.Superpotential(n=3, c=1.3)
        first = susy.sector_hamiltonian(1, sp)
        expected = {pair: block.copy() for pair, block in first.couplings.items()}
        for block in first.couplings.values():
            block[...] = 99.0
        second = susy.sector_hamiltonian(1, sp)
        for pair, block in second.couplings.items():
            assert block is not first.couplings[pair]
            assert block.tobytes() == expected[pair].tobytes()


class TestVerifyEigenstate:
    def test_grade0_collision_accepts(self):
        sp = susy.Superpotential(n=3, c=1.2)
        ks = (1.1, 0.2, -0.7)
        s = grade0_collision(ks, sp)
        e = bethe.energy(ks) + susy.shift_constant(sp)
        rep = susy.verify_eigenstate(s, e, sp)
        assert rep.accepted

    def test_trimer_at_rest_is_zero_energy(self):
        sp = susy.Superpotential(n=3, c=1.0)
        s = gradeN_state(bethe.trimer_state(0.0, -sp.c), 3)
        rep = susy.verify_eigenstate(s, 0.0, sp)
        assert rep.accepted

    def test_wrong_energy_rejected_with_bulk_residual(self):
        sp = susy.Superpotential(n=2, c=1.0)
        ks = (0.9, -0.4)
        s = grade0_collision(ks, sp)
        e = bethe.energy(ks) + susy.shift_constant(sp)
        rep = susy.verify_eigenstate(s, e + 0.1, sp)
        assert not rep.accepted
        assert rep.bulk_residual == pytest.approx(0.1)


class TestZeroModes:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_both_modes_annihilated_and_zero_energy(self, n):
        sp = susy.Superpotential(n=n, c=1.1)
        for mode in (susy.zero_mode_top(sp), susy.zero_mode_alternating(sp)):
            rq, rqd = susy.annihilation_residuals(mode, sp)
            assert rq < 1e-12 and rqd < 1e-12
            assert susy.verify_eigenstate(mode, 0.0, sp).accepted

    def test_three_particle_alternating_pattern(self):
        sp = susy.Superpotential(n=3, c=1.0)
        mode = susy.zero_mode_alternating(sp)
        sector = susy.sector_hamiltonian(2, sp)
        psi = bethe.nmer_ground(3, sp.c)
        signs = []
        for mask in sector.masks:
            comp = mode.component(mask)
            ratio = comp.terms[pw.Region((1, 2, 3))][0].coef / psi.terms[pw.Region((1, 2, 3))][0].coef
            signs.append(ratio.real)
        assert signs == [1.0, -1.0, 1.0]

    def test_two_particle_top_mode_is_dimer(self):
        sp = susy.Superpotential(n=2, c=2.0)
        top = susy.zero_mode_top(sp)
        assert top.pure_grade() == 2
        assert pw.coefficient_distance(top.component(3), bethe.dimer_state(0.0, -2.0)) == 0.0

    def test_uniform_one_hole_vector_is_not_a_zero_mode(self):
        sp = susy.Superpotential(n=3, c=1.0)
        psi = bethe.nmer_ground(3, sp.c)
        full = 0b111
        uniform = susy.SpinorFunction(3, {full ^ (1 << j): psi for j in range(3)})
        _, rqd = susy.annihilation_residuals(uniform, sp)
        assert rqd > 0.1


class TestWittenCensus:
    @pytest.mark.parametrize(
        "n,grades", [(2, {2: 1, 1: -1}), (3, {3: -1, 2: 1}), (4, {4: 1, 3: -1})]
    )
    def test_census(self, n, grades):
        census = susy.witten_census(susy.Superpotential(n=n, c=1.0))
        assert census.n_b == 1 and census.n_f == 1 and census.index == 0
        assert {m.grade: m.klein_parity for m in census.modes} == grades
        assert census.completeness == "lower_bound"


class TestPartners:
    def test_raise_then_lower_scales_by_twice_energy(self):
        sp = susy.Superpotential(n=2, c=1.4)
        ks = (1.0, -0.5)
        s = grade0_collision(ks, sp)
        e = bethe.energy(ks) + susy.shift_constant(sp)
        back = susy.apply_q(susy.apply_q_dagger(s, sp), sp)
        assert susy.spinor_distance(back, susy.spinor_scale(s, 2 * e)) < 1e-12

    def test_monomer_dimer_lowered_to_middle_sector(self):
        sp = susy.Superpotential(n=3, c=1.1)
        p, q = 0.8, -0.5
        state = gradeN_state(bethe.monomer_dimer_state(p, q, -sp.c), 3)
        result = susy.susy_partner(state, "lower", sp)
        assert not result.singlet
        assert result.state.pure_grade() == 2
        assert result.energy == pytest.approx(q**2 + 2 * p**2 + 1.5 * sp.c**2)
        assert result.report.accepted

    @pytest.mark.parametrize("n", [2, 3])
    def test_partner_preserves_energy_random_states(self, n):
        sp = susy.Superpotential(n=n, c=0.9)
        rng = np.random.default_rng(n + 10)
        for _ in range(10):
            ks = tuple(sorted(rng.uniform(-2.0, 2.0, size=n), reverse=True))
            s = grade0_collision(ks, sp)
            result = susy.susy_partner(s, "raise", sp)
            want = bethe.energy(ks) + susy.shift_constant(sp)
            assert result.energy == pytest.approx(want, abs=1e-10)
            assert result.report.accepted

    def test_zero_mode_input_rejected(self):
        sp = susy.Superpotential(n=2, c=1.0)
        with pytest.raises(SingletError):
            susy.susy_partner(susy.zero_mode_top(sp), "lower", sp)


class TestAlgebraChecks:
    def test_nilpotency_fuzz(self):
        sp = susy.Superpotential(n=3, c=0.7)
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(100):
            s = susy.random_spinor(sp, rng)
            worst = max(worst, susy.q_nilpotency_residual(s, sp))
            worst = max(worst, susy.q_nilpotency_residual(s, sp, dagger=True))
        assert worst < 1e-12

    def test_anticommutator_on_plane_wave_grade_one(self):
        sp = susy.Superpotential(n=2, c=1.3)
        ks = (0.9, -0.4)
        wave = pw.build(
            2,
            {r: [(1.0, (1j * ks[0], 1j * ks[1]))] for r in pw.regions(2)},
        )
        s = susy.spinor_from_scalar(wave, 0b01)
        lhs = susy.spinor_add(
            susy.apply_q(susy.apply_q_dagger(s, sp), sp),
            susy.apply_q_dagger(susy.apply_q(s, sp), sp),
        )
        e = ks[0] ** 2 + ks[1] ** 2 + susy.shift_constant(sp)
        assert susy.spinor_distance(susy.spinor_scale(lhs, 0.5), susy.spinor_scale(s, e)) < 1e-12

    def test_anticommutator_fuzz(self):
        sp = susy.Superpotential(n=3, c=1.1)
        rng = np.random.default_rng(17)
        worst = 0.0
        for _ in range(50):
            s = susy.random_spinor(sp, rng)
            worst = max(worst, susy.anticommutator_bulk_residual(s, sp))
        assert worst < 1e-12


class TestSigmaCheck:
    @pytest.mark.parametrize("n", [2, 3])
    def test_alternating_mode_has_eigenvalue_minus_one(self, n):
        rep = susy.exchange_sigma_check(n)
        assert rep.passed
        assert rep.residual < 1e-12

    def test_unsupported_n(self):
        with pytest.raises(ValueError):
            susy.exchange_sigma_check(4)
