"""Finite-difference oracle: assembly, eigensolver, SUSY lattice checks."""

import itertools
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


#: (N, grade, box, points): the one-component sectors on small grids; at
#: (3, 3, 12.0, 17) the product P^T (A P) is not exactly symmetric
SCALAR_SECTORS = [(2, 0, 8.0, 20), (2, 2, 8.0, 20), (3, 0, 6.0, 16), (3, 3, 12.0, 17)]


def _restricted(n, grade, box, points, c=2.0):
    grid = lattice.Grid(box=box, points=points, n=n)
    a_mat = lattice.build_sector_matrix(grade, grid, susy.Superpotential(n=n, c=c))
    return grid, a_mat, lattice.symmetric_isometry(grid), lattice.symmetric_restriction(a_mat, grid)


class TestBosonicProjection:
    """Scalar sectors are solved on the exchange-symmetric grid functions."""

    @pytest.mark.parametrize("n, points", [(2, 16), (2, 21), (3, 16), (3, 17)])
    def test_isometry_has_one_orthonormal_column_per_sorted_multi_index(self, n, points):
        grid = lattice.Grid(box=5.0, points=points, n=n)
        p_mat = lattice.symmetric_isometry(grid)
        assert p_mat.shape == (points**n, math.comb(points + n - 1, n))
        assert (np.diff(p_mat.indptr) == 1).all()  # each grid point sits in one orbit
        gram = (p_mat.T @ p_mat - sparse.identity(p_mat.shape[1])).tocsr()
        assert abs(gram).max() <= 1e-15
        # the column of a grid point is fixed by its sorted multi-index
        idx = np.indices((points,) * n).reshape(n, -1)
        cols = p_mat.indices
        for perm in itertools.permutations(range(n)):
            moved = np.ravel_multi_index(idx[list(perm)], (points,) * n)
            assert np.array_equal(cols[moved], cols)

    @pytest.mark.parametrize("n, grade, box, points", SCALAR_SECTORS)
    def test_restriction_is_invariant_and_exactly_symmetric(self, n, grade, box, points):
        _, a_mat, p_mat, b_mat = _restricted(n, grade, box, points)
        scale = abs(a_mat).max()
        assert abs(a_mat @ p_mat - p_mat @ b_mat).max() <= 1e-14 * scale
        diff = (b_mat - b_mat.T).tocsr()
        diff.eliminate_zeros()
        assert diff.nnz == 0

    def test_symmetrisation_is_needed(self):
        _, a_mat, p_mat, _ = _restricted(3, 3, 12.0, 17)
        raw = p_mat.T @ (a_mat @ p_mat)
        diff = (raw - raw.T).tocsr()
        diff.eliminate_zeros()
        assert diff.nnz > 0

    @pytest.mark.parametrize("n, grade, box, points", SCALAR_SECTORS)
    def test_bosonic_spectrum_is_a_sub_multiset_of_the_full_box(self, n, grade, box, points):
        grid = lattice.Grid(box=box, points=points, n=n)
        sp = susy.Superpotential(n=n, c=2.0)
        bosonic = lattice.sector_spectrum(grade, grid, sp, 3, seed=2).eigenvalues
        full = list(lattice.lowest_eigenvalues(
            lattice.build_sector_matrix(grade, grid, sp), 12, seed=2).eigenvalues)
        assert bosonic[0] == pytest.approx(full[0], rel=1e-12)
        for level in bosonic:
            match = min(full, key=lambda v: abs(v - level))
            assert match == pytest.approx(level, rel=1e-9)
            full.remove(match)

    @pytest.mark.parametrize("n, grade, box, points", SCALAR_SECTORS)
    def test_lifted_eigenvectors_are_symmetric_box_eigenvectors(self, n, grade, box, points):
        _, a_mat, p_mat, b_mat = _restricted(n, grade, box, points)
        vals, vecs = np.linalg.eigh(b_mat.toarray())
        for i in range(3):
            lifted = p_mat @ vecs[:, i]
            assert np.linalg.norm(a_mat @ lifted - vals[i] * lifted) <= lattice.RESIDUAL_TOL
            cube = lifted.reshape((points,) * n)
            for perm in itertools.permutations(range(n)):
                assert np.array_equal(cube.transpose(perm), cube)

    def test_antisymmetric_two_particle_level_is_gone(self):
        sp = susy.Superpotential(n=2, c=2.0)
        grid = lattice.Grid(box=12.0, points=59, n=2)
        full = lattice.lowest_eigenvalues(lattice.build_sector_matrix(0, grid, sp), 3, seed=1)
        bosonic = lattice.sector_spectrum(0, grid, sp, 3, seed=1)
        np.testing.assert_allclose(full.eigenvalues, [2.29354, 2.34243, 2.58865], rtol=2e-6)
        np.testing.assert_allclose(bosonic.eigenvalues, [2.29354, 2.58865, 2.76992], rtol=2e-6)

    def test_mixed_symmetry_three_particle_pair_is_gone(self):
        sp = susy.Superpotential(n=3, c=2.0)
        grid = lattice.Grid(box=8.0, points=16, n=3)
        full = lattice.lowest_eigenvalues(lattice.build_sector_matrix(0, grid, sp), 3, seed=1)
        bosonic = lattice.sector_spectrum(0, grid, sp, 2, seed=1)
        np.testing.assert_allclose(full.eigenvalues, [9.44018, 9.59117, 9.59117], rtol=2e-6)
        np.testing.assert_allclose(bosonic.eigenvalues, [9.44018, 10.17956], rtol=2e-6)

    def test_multi_component_sector_stays_on_the_full_box(self):
        sp = susy.Superpotential(n=2, c=2.0)
        grid = lattice.Grid(box=8.0, points=20, n=2)
        rep = lattice.sector_spectrum(1, grid, sp, 3, seed=3)
        full = lattice.lowest_eigenvalues(lattice.build_sector_matrix(1, grid, sp), 3, seed=3)
        assert rep.eigenvalues == full.eigenvalues
        assert rep.residuals == full.residuals


class TestSusySpectrum:
    def test_two_particle_checks_pass(self):
        sp = susy.Superpotential(n=2, c=2.0)
        grid = lattice.Grid(box=12.0, points=96, n=2)
        rep = lattice.susy_spectrum_check(grid, sp, k=6, seed=1)
        assert rep.passed, rep.checks
        assert rep.sectors[2].ground < rep.sectors[0].ground

    def test_free_case_sector_degeneracy(self):
        # with c = 0 the couplings vanish; the middle sector is two decoupled
        # copies of the scalar full-box matrix, so the spectra coincide after
        # doubling (sector_spectrum reports only the bosonic scalar levels)
        sp = susy.Superpotential(n=2, c=0.0)
        grid = lattice.Grid(box=8.0, points=32, n=2)
        s0 = lattice.lowest_eigenvalues(lattice.build_sector_matrix(0, grid, sp), 3, seed=4)
        s1 = lattice.sector_spectrum(1, grid, sp, 6, seed=4)
        doubled = sorted(2 * list(s0.eigenvalues))
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
