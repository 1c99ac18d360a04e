"""Finite-difference oracle: assembly, eigensolver, SUSY lattice checks."""

import math

import numpy as np
import pytest
import scipy.sparse as sparse
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slly import lattice, susy
from slly.errors import BudgetError, ConvergenceError


def discrete_free_ground(points: int, box: float, dims: int) -> float:
    """Exact lowest eigenvalue of the discrete Dirichlet Laplacian."""
    h = box / (points + 1)
    lam1 = 4.0 / h**2 * math.sin(math.pi * h / (2 * box)) ** 2
    return dims * lam1


class TestAssembly:
    def test_one_dimensional_laplacian_ground(self):
        mat = lattice.laplacian_1d(199, 1.0 / 200)
        rep = lattice.lowest_eigenvalues(mat, 1, seed=0)
        assert rep.eigenvalues[0] == pytest.approx(math.pi**2, rel=1e-3)

    @pytest.mark.parametrize("grade", [0, 1, 2])
    def test_exact_symmetry(self, grade):
        sp = susy.Superpotential(n=2, c=2.0)
        grid = lattice.Grid(box=8.0, points=24, n=2)
        mat = lattice.build_sector_matrix(grade, grid, sp)
        diff = (mat - mat.T).tocsr()
        diff.eliminate_zeros()
        assert diff.nnz == 0

    def test_free_limit_matches_discrete_box_ground(self):
        sp = susy.Superpotential(n=2, c=0.0)
        grid = lattice.Grid(box=8.0, points=40, n=2)
        rep = lattice.sector_spectrum(0, grid, sp, 1, seed=1)
        assert rep.eigenvalues[0] == pytest.approx(discrete_free_ground(40, 8.0, 2), abs=1e-11)

    def test_middle_sector_block_structure(self):
        c = 2.0
        sp = susy.Superpotential(n=2, c=c)
        grid = lattice.Grid(box=8.0, points=20, n=2)
        mat = lattice.build_sector_matrix(1, grid, sp).tocoo()
        m = grid.points
        off = [
            (r, col) for r, col in zip(mat.row, mat.col) if (r < m * m) != (col < m * m)
        ]
        # hops connect equal grid points on the coincidence line, weight 2c/h
        for r, col in off:
            gr, gc = r % (m * m), col % (m * m)
            assert gr == gc
            assert gr // m == gr % m
        vals = [v for r, col, v in zip(mat.row, mat.col, mat.data) if (r < m * m) != (col < m * m)]
        assert np.allclose(vals, 2 * c / grid.h)

    def test_three_particle_assembly_small(self):
        sp = susy.Superpotential(n=3, c=1.0)
        grid = lattice.Grid(box=6.0, points=16, n=3)
        mat = lattice.build_sector_matrix(1, grid, sp)
        assert mat.shape == (3 * 16**3, 3 * 16**3)
        diff = (mat - mat.T).tocsr()
        diff.eliminate_zeros()
        assert diff.nnz == 0

    def test_unsupported_particle_count(self):
        sp = susy.Superpotential(n=4, c=1.0)
        grid = lattice.Grid(box=8.0, points=16, n=4)
        with pytest.raises(ValueError):
            lattice.build_sector_matrix(0, grid, sp)

    def test_three_particle_point_cap(self):
        sp = susy.Superpotential(n=3, c=1.0)
        grid = lattice.Grid(box=8.0, points=64, n=3)
        with pytest.raises(BudgetError):
            lattice.build_sector_matrix(1, grid, sp)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            lattice.Grid(box=8.0, points=8, n=2)


class TestEigensolver:
    def test_k_out_of_range(self):
        mat = lattice.laplacian_1d(20, 0.1)
        with pytest.raises(ValueError):
            lattice.lowest_eigenvalues(mat, 20, seed=0)

    def test_deterministic_under_seed(self):
        sp = susy.Superpotential(n=2, c=2.0)
        grid = lattice.Grid(box=8.0, points=24, n=2)
        a = lattice.sector_spectrum(2, grid, sp, 4, seed=9)
        b = lattice.sector_spectrum(2, grid, sp, 4, seed=9)
        assert a == b

    def test_residuals_reported(self):
        mat = lattice.laplacian_1d(50, 0.05)
        rep = lattice.lowest_eigenvalues(mat, 3, seed=2)
        assert all(r < lattice.RESIDUAL_TOL for r in rep.residuals)
        assert list(rep.eigenvalues) == sorted(rep.eigenvalues)


def old_lowest_eigenvalues(a_mat, k: int, seed: int) -> np.ndarray:
    """The solver before the certified shift: Gershgorin shift, default-ordered eigsh."""
    diag = a_mat.diagonal()
    row_abs = np.asarray(abs(a_mat).sum(axis=1)).ravel()
    sigma = float((diag - (row_abs - np.abs(diag))).min()) - 1.0
    v0 = np.random.default_rng(seed).standard_normal(a_mat.shape[0])
    vals = spla.eigsh(
        a_mat, k=k, sigma=sigma, which="LM", v0=v0, tol=0, return_eigenvectors=False
    )
    return np.sort(vals)


@st.composite
def shifted_symmetric(draw):
    """A small sparse symmetric integer matrix and an integer shift.

    Half the shifts are diagonal entries, which often make A - sI exactly
    singular.
    """
    n = draw(st.integers(1, 6))
    entries = draw(
        st.lists(st.sampled_from([0, 0, 0, -2, -1, 1, 2]), min_size=n * n, max_size=n * n)
    )
    upper = np.triu(np.array(entries, dtype=float).reshape(n, n))
    dense = upper + np.triu(upper, 1).T
    shift = draw(st.one_of(st.integers(-6, 6), st.sampled_from(sorted(set(np.diag(dense))))))
    return dense, float(shift)


class TestShiftInvert:
    @settings(max_examples=300, deadline=None)
    @given(case=shifted_symmetric())
    @example(case=(np.array([[0.0, 1.0], [1.0, 0.0]]), 0.0))  # pivots off the diagonal
    @example(case=(np.array([[0.0, 0.0], [0.0, 1.0]]), 0.0))  # zero column: singular
    @example(case=(np.array([[1.0, 1.0], [1.0, 1.0]]), 1.0))  # singular, indefinite
    def test_certificate_matches_dense_spectrum(self, case):
        dense, shift = case
        op, positive = lattice._shift_invert(sparse.csr_matrix(dense), shift)
        lowest = np.linalg.eigvalsh(dense).min()
        # integer data and shift: the eigenvalues other than the shift
        # multiply to a non-zero integer, and none is more than 18 away from
        # it, so lowest != shift means a gap above 18**-5 (5e-7); only an
        # exactly singular PSD A - sI, where rounding may go either way, is
        # left unchecked
        if abs(lowest - shift) > 1e-9:
            assert positive == (lowest > shift)
        if positive:
            rhs = np.arange(1.0, dense.shape[0] + 1.0)
            np.testing.assert_allclose(
                (dense - shift * np.eye(len(rhs))) @ op.matvec(rhs), rhs, atol=1e-9
            )

    def test_pivot_off_the_diagonal_is_not_certified(self):
        # [[0, 1], [1, 0]] factors with positive pivots after a row swap
        op, positive = lattice._shift_invert(sparse.csr_matrix([[0.0, 1.0], [1.0, 0.0]]), 0.0)
        assert op is not None
        assert not positive

    def test_certificate_brackets_the_lowest_eigenvalue(self):
        mat = lattice.laplacian_1d(20, 1.0)
        lowest = np.linalg.eigvalsh(mat.toarray()).min()
        assert not lattice._shift_invert(mat, 2.0)[1]  # zero main diagonal
        assert lattice._shift_invert(mat, lowest - 1e-6)[1]
        assert not lattice._shift_invert(mat, lowest + 1e-6)[1]

    def test_spectrum_below_minus_one_falls_back_to_gershgorin_shift(self):
        mat = (lattice.laplacian_1d(40, 0.1) - 500.0 * sparse.identity(40)).tocsr()
        assert not lattice._shift_invert(mat, -1.0)[1]
        rep = lattice.lowest_eigenvalues(mat, 3, seed=3)
        dense = np.linalg.eigvalsh(mat.toarray())[:3]
        np.testing.assert_allclose(rep.eigenvalues, dense, rtol=1e-12)
        assert max(rep.residuals) < lattice.RESIDUAL_TOL

    def test_uncertified_diagnostic_raises(self, monkeypatch):
        monkeypatch.setattr(lattice, "_shift_invert", lambda a_mat, sigma: (None, False))
        sp = susy.Superpotential(n=2, c=2.0)
        with pytest.raises(ConvergenceError):
            lattice.lattice_q_diagnostic(lattice.Grid(box=8.0, points=24, n=2), sp)

    @pytest.mark.parametrize(
        "n, grade, points, k",
        [(2, 0, 40, 4), (2, 1, 40, 4), (2, 2, 40, 4), (3, 0, 16, 2)],
    )
    def test_agrees_with_gershgorin_shift_and_default_ordering(self, n, grade, points, k):
        sp = susy.Superpotential(n=n, c=2.0)
        grid = lattice.Grid(box=8.0 if n == 2 else 6.0, points=points, n=n)
        mat = lattice.build_sector_matrix(grade, grid, sp)
        rep = lattice.lowest_eigenvalues(mat, k, seed=5)
        np.testing.assert_allclose(
            rep.eigenvalues, old_lowest_eigenvalues(mat, k, seed=5), rtol=1e-10, atol=0
        )
        assert max(rep.residuals) < lattice.RESIDUAL_TOL


class TestSusySpectrum:
    def test_two_particle_checks_pass(self):
        sp = susy.Superpotential(n=2, c=2.0)
        grid = lattice.Grid(box=12.0, points=96, n=2)
        rep = lattice.susy_spectrum_check(grid, sp, k=6, seed=1)
        assert rep.passed, rep.checks
        assert rep.sectors[2].ground < rep.sectors[0].ground

    def test_free_case_sector_degeneracy(self):
        # with c = 0 the couplings vanish; the middle sector is two decoupled
        # copies of the scalar one, so the spectra coincide after doubling
        sp = susy.Superpotential(n=2, c=0.0)
        grid = lattice.Grid(box=8.0, points=32, n=2)
        s0 = lattice.sector_spectrum(0, grid, sp, 3, seed=4)
        s1 = lattice.sector_spectrum(1, grid, sp, 6, seed=4)
        s2 = lattice.sector_spectrum(2, grid, sp, 3, seed=4)
        doubled = sorted(list(s0.eigenvalues) + list(s2.eigenvalues))
        assert np.allclose(s1.eigenvalues, doubled, atol=1e-9)

    def test_requires_two_particles(self):
        sp = susy.Superpotential(n=3, c=1.0)
        grid = lattice.Grid(box=6.0, points=16, n=3)
        with pytest.raises(ValueError):
            lattice.susy_spectrum_check(grid, sp)


class TestConvergence:
    def test_ground_energy_decreases_under_refinement(self):
        sp = susy.Superpotential(n=2, c=2.0)
        rep = lattice.convergence_study(2, sp, 24.0, (59, 119), k=1, seed=1)
        assert rep.monotone_decreasing
        assert len(rep.orders) == 1

    def test_bound_sector_ground_decreases_with_box_at_fixed_spacing(self):
        # at fixed h the box floor shrinks as the box opens, so the bound
        # sector approaches its discretization-limited zero mode from above
        sp = susy.Superpotential(n=2, c=2.0)
        grounds = []
        for box, points in ((8.0, 39), (12.0, 59), (16.0, 79)):
            grid = lattice.Grid(box=box, points=points, n=2)
            grounds.append(lattice.sector_spectrum(2, grid, sp, 1, seed=5).ground)
        assert grounds[0] > grounds[1] > grounds[2] > 0


class TestQDiagnostic:
    def test_free_supercharge_is_exactly_nilpotent(self):
        sp = susy.Superpotential(n=2, c=0.0)
        grid = lattice.Grid(box=8.0, points=24, n=2)
        rep = lattice.lattice_q_diagnostic(grid, sp, seed=0)
        assert rep.q_squared_nnz == 0
        assert rep.q_squared_max == 0.0

    def test_interacting_diagnostic(self):
        sp = susy.Superpotential(n=2, c=2.0)
        grid = lattice.Grid(box=8.0, points=40, n=2)
        rep = lattice.lattice_q_diagnostic(grid, sp, seed=0)
        assert rep.positive_semidefinite
        assert rep.q_squared_nnz > 0
        assert rep.band_width <= 1
