"""Exact operator algebra on the finite fermionic Fock space."""

import itertools
import math

import numpy as np
import pytest

from slly import fock
from slly.errors import GradingError


def test_basis_is_grade_major_and_dims_are_binomials():
    for n in (2, 3, 5):
        basis = fock.fock_basis(n)
        grades = [m.bit_count() for m in basis]
        assert grades == sorted(grades)
        assert len(basis) == 2**n
        for g in range(n + 1):
            assert grades.count(g) == math.comb(n, g)


class TestLadderOperators:
    def test_single_mode(self):
        b = fock.annihilation(1, 1)
        assert b.dense()[0, 1] == 1.0  # b|1> = |0>
        assert np.all(b.dense()[:, 0] == 0)  # b|0> = 0

    def test_creation_order_antisymmetry(self):
        b1d = fock.creation(1, 2)
        b2d = fock.creation(2, 2)
        assert (b1d @ b2d + b2d @ b1d).is_zero()

    def test_disjoint_modes_anticommute_to_zero(self):
        lhs = fock.anticommutator(fock.annihilation(1, 3), fock.creation(3, 3))
        assert lhs.is_zero()

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
    def test_exact_car(self, n):
        bs = [fock.annihilation(j, n) for j in range(1, n + 1)]
        eye = fock.identity(n)
        for j in range(n):
            for k in range(n):
                assert fock.anticommutator(bs[j], bs[k]).is_zero()
                assert fock.anticommutator(bs[j].adjoint(), bs[k].adjoint()).is_zero()
                mixed = fock.anticommutator(bs[j], bs[k].adjoint())
                if j == k:
                    assert mixed.is_exactly(eye)
                else:
                    assert mixed.is_zero()

    def test_index_guard(self):
        with pytest.raises(ValueError):
            fock.annihilation(4, 3)


class TestNumberAndKlein:
    def test_fermi_diagonal_two_modes(self):
        assert np.array_equal(fock.fermi_number(2).dense().real.diagonal(), [0, 1, 1, 2])

    def test_bose_dual(self):
        n = 4
        f = fock.fermi_number(n).dense().diagonal()
        b = fock.bose_number(n).dense().diagonal()
        assert np.array_equal(f + b, np.full(2**n, n))

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_klein_product(self, n):
        prod = fock.klein_f(n) @ fock.klein_b(n)
        assert prod.is_exactly(fock.identity(n) * ((-1.0) ** n))


class TestGammaMatrices:
    def test_single_mode_squares(self):
        g1, g2 = fock.gamma_matrices(1)
        eye = fock.identity(1)
        assert (g1 @ g1).is_exactly(eye)
        assert (g2 @ g2).is_exactly(eye)

    def test_two_modes_pairwise_anticommute(self):
        gs = fock.gamma_matrices(2)
        for i in range(4):
            for j in range(i + 1, 4):
                assert fock.anticommutator(gs[i], gs[j]).is_zero()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_clifford_relations_and_hermiticity(self, n):
        gs = fock.gamma_matrices(n)
        eye = fock.identity(n)
        for i, gi in enumerate(gs):
            assert gi.is_exactly(gi.adjoint())
            for j, gj in enumerate(gs):
                anti = fock.anticommutator(gi, gj)
                if i == j:
                    assert anti.is_exactly(2.0 * eye)
                else:
                    assert anti.is_zero()


class TestSpinOperators:
    def test_mode_bracket(self):
        n = 3
        s12 = fock.spin_operator(1, 2, n)
        for j in range(1, n + 1):
            b = fock.annihilation(j, n)
            expected = fock.zero_operator(n)
            if j == 1:
                expected = 1j * fock.annihilation(2, n)
            elif j == 2:
                expected = -1j * fock.annihilation(1, n)
            assert fock.commutator(s12, b).is_exactly(expected)

    def test_annihilates_vacuum_and_full(self):
        n = 3
        s = fock.spin_operator(1, 3, n).dense()
        assert np.all(s[:, 0] == 0)
        assert np.all(s[:, -1] == 0)

    @pytest.mark.parametrize("n", [3, 4])
    def test_so_n_closure(self, n):
        def spin(k, l):
            if k == l:
                return fock.zero_operator(n)
            return fock.spin_operator(k, l, n) if k < l else -fock.spin_operator(l, k, n)

        pairs = [(k, l) for k in range(1, n + 1) for l in range(k + 1, n + 1)]
        for (k, l) in pairs:
            for (i, j) in pairs:
                lhs = fock.commutator(spin(k, l), spin(i, j))
                rhs = (
                    1j * spin(l, j) * (1 if k == i else 0)
                    + 1j * spin(k, i) * (1 if l == j else 0)
                    - 1j * spin(l, i) * (1 if k == j else 0)
                    - 1j * spin(k, j) * (1 if l == i else 0)
                )
                assert fock.commutator(spin(k, l), spin(i, j)).is_exactly(rhs), (k, l, i, j)

    def test_equal_indices_rejected(self):
        with pytest.raises(ValueError):
            fock.spin_operator(2, 2, 3)


class TestDeltaCoupling:
    def test_two_mode_middle_block(self):
        c = 1.7
        lam = fock.delta_coupling(1, 2, c, 2)
        block = fock.grade_project(lam, 1).real
        assert np.array_equal(block, 2 * c * np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_three_mode_grade_one_blocks(self):
        c = 0.9
        expected = {
            (1, 2): [[0, 1, 0], [1, 0, 0], [0, 0, 1]],
            (1, 3): [[0, 0, 1], [0, 1, 0], [1, 0, 0]],
            (2, 3): [[1, 0, 0], [0, 0, 1], [0, 1, 0]],
        }
        for (a, b), pattern in expected.items():
            block = fock.grade_project(fock.delta_coupling(a, b, c, 3), 1).real
            assert np.array_equal(block, 2 * c * np.array(pattern, dtype=float))

    def test_three_mode_grade_two_blocks_signs(self):
        # two-hole sector in basis order {1,2}, {1,3}, {2,3}: sign flips on the
        # diagonal and on the (1,3) hop, matching the displayed matrix sector
        c = 0.9
        expected = {
            (1, 2): [[-1, 0, 0], [0, 0, 1], [0, 1, 0]],
            (1, 3): [[0, 0, -1], [0, -1, 0], [-1, 0, 0]],
            (2, 3): [[0, 1, 0], [1, 0, 0], [0, 0, -1]],
        }
        for (a, b), pattern in expected.items():
            block = fock.grade_project(fock.delta_coupling(a, b, c, 3), 2).real
            assert np.array_equal(block, 2 * c * np.array(pattern, dtype=float))

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_scalar_sector_blocks(self, n):
        c = 1.1
        for a in range(1, n + 1):
            for b in range(a + 1, n + 1):
                lam = fock.delta_coupling(a, b, c, n)
                assert np.array_equal(fock.grade_project(lam, 0).real, [[2 * c]])
                assert np.array_equal(fock.grade_project(lam, n).real, [[-2 * c]])

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_structure_invariants(self, n):
        c = 1.3
        f = fock.fermi_number(n)
        eye = fock.identity(n)
        for a in range(1, n + 1):
            for b in range(a + 1, n + 1):
                lam = fock.delta_coupling(a, b, c, n)
                assert lam.is_exactly(lam.adjoint())
                assert fock.commutator(lam, f).is_zero()
                # squares to (2c)^2, so the spectrum is exactly {+2c, -2c}
                assert (lam @ lam).is_exactly((2 * c) ** 2 * eye)
                # diagonal balances exactly: both eigenvalues have multiplicity 2^{N-1}
                diag = lam.mat.diagonal()
                assert (diag == 2 * c).sum() == (diag == -2 * c).sum() == 2 ** (n - 2)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_unit_coupling_is_one_minus_twice_the_difference_mode_number(self, n):
        # Lambda_ab/(2c) = I - 2 f^dag f with f = (b_a - b_b)/sqrt(2), written
        # without the sqrt(2) so the identity holds exactly
        eye = fock.identity(n)
        for a, b in itertools.combinations(range(1, n + 1), 2):
            d = fock.annihilation(a, n) - fock.annihilation(b, n)
            assert fock.delta_coupling_unit(a, b, n).is_exactly(eye - d.adjoint() @ d)

    def test_eigenvalue_multiplicities_two_modes(self):
        lam = fock.delta_coupling(1, 2, 2.0, 2)
        vals = np.sort(np.linalg.eigvalsh(lam.dense()))
        assert vals == pytest.approx([-4.0, -4.0, 4.0, 4.0])

    def test_unordered_pair_rejected(self):
        with pytest.raises(ValueError):
            fock.delta_coupling(2, 1, 1.0, 3)


class TestFermionicSwap:
    """U = Lambda_cd/(2c) swaps modes c and d: it relabels every ladder and coupling operator."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_swap_relabels_modes_and_couplings(self, n):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for c, d in pairs:
            u = fock.delta_coupling_unit(c, d, n)
            tau = {c: d, d: c}
            for j in range(1, n + 1):
                image = fock.annihilation(tau.get(j, j), n)
                assert (u @ fock.annihilation(j, n) @ u).is_exactly(image)
            for a, b in pairs:
                image = fock.delta_coupling(*sorted((tau.get(a, a), tau.get(b, b))), 1.7, n)
                assert (u @ fock.delta_coupling(a, b, 1.7, n) @ u).is_exactly(image)


class TestGradeProject:
    def test_fermi_block_is_grade_identity(self):
        for n in (2, 4):
            for g in range(n + 1):
                block = fock.grade_project(fock.fermi_number(n), g)
                assert np.array_equal(block.real, g * np.eye(math.comb(n, g)))

    def test_non_grading_operator_rejected(self):
        with pytest.raises(GradingError):
            fock.grade_project(fock.annihilation(1, 2), 0)
