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

    @pytest.mark.parametrize("n, points, box", [(2, 16, 6.0), (2, 140, 12.3), (3, 17, 1.3),
                                                (3, 24, 8.1), (3, 48, 7.7)])
    def test_laplacian_is_the_kron_sum_bit_for_bit(self, n, points, box):
        grid = lattice.Grid(box=box, points=points, n=n)
        lap = lattice.laplacian_1d(points, grid.h)
        eye = sparse.identity(points, format="csr")
        kron_sum = None
        for axis in range(n):
            term = lap if axis == 0 else eye
            for ax in range(1, n):
                term = sparse.kron(term, lap if ax == axis else eye, format="csr")
            kron_sum = term if kron_sum is None else kron_sum + term
        kron_sum = kron_sum.tocsr()
        assembled = lattice._laplacian_nd(grid)
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(assembled, name), getattr(kron_sum, name))

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

    def test_nan_residual_fails(self):
        mat = lattice.laplacian_1d(20, 0.1)
        with pytest.raises(ConvergenceError, match="residual"):
            lattice._checked(mat, np.array([1.0]), np.full((20, 1), np.nan))

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

    def test_exactly_singular_factor_is_not_certified(self):
        # lowest eigenvalue exactly -4: the last pivot of A + 4I rounds to
        # +4.4e-16, far below dim * eps * max|pivot|
        dense = np.array([[0, 0, -1, -1, 1], [0, 0, -2, -2, 0], [-1, -2, -1, 1, 1],
                          [-1, -2, 1, -2, 1], [1, 0, 1, 1, 0]], dtype=float)
        assert np.linalg.eigvalsh(dense).min() == pytest.approx(-4.0, abs=1e-12)
        assert not lattice._shift_invert(sparse.csr_matrix(dense), -4.0)[1]
        assert lattice._shift_invert(sparse.csr_matrix(dense), -4.0 - 1e-6)[1]

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


def orbit_isometry(grid, parity: str) -> sparse.csr_matrix:
    """Orbit-sum isometry P onto the "symmetric" or "antisymmetric" grid functions.

    The reference for ``lattice._orbit_block``.  One column per orbit of the
    axis exchanges, ascending in the C-order flat index of its sorted
    multi-index; it holds sgn/sqrt(orbit size) on every point of the orbit,
    so P^T P = I.  sgn is 1 on the symmetric side and the sign of the sorting
    permutation on the antisymmetric side, which keeps only the orbits of
    distinct indices: a coincidence point is in no column.
    """
    shape = (grid.points,) * grid.n
    idx = np.indices(shape).reshape(grid.n, -1)
    rows = np.arange(idx.shape[1])
    signs = 1.0
    if parity == "antisymmetric":
        pairs = list(itertools.combinations(range(grid.n), 2))
        rows = np.flatnonzero(np.all([idx[a] != idx[b] for a, b in pairs], axis=0))
        inversions = np.sum([idx[a, rows] > idx[b, rows] for a, b in pairs], axis=0)
        signs = np.where(inversions % 2, -1.0, 1.0)
    key = np.ravel_multi_index(np.sort(idx[:, rows], axis=0), shape)
    _, col, counts = np.unique(key, return_inverse=True, return_counts=True)
    return sparse.csr_matrix(
        (signs / np.sqrt(counts[col]), (rows, col)), shape=(idx.shape[1], counts.size)
    )


def orbit_restriction(a_mat, grid, parity: str) -> sparse.csr_matrix:
    """The reference orbit block: P^T A P for ``orbit_isometry``'s P, made exactly symmetric."""
    p_mat = orbit_isometry(grid, parity)
    reduced = p_mat.T @ (a_mat @ p_mat)
    return (0.5 * (reduced + reduced.T)).tocsr()


#: entries of a direct orbit block lie this many ulp of max|A| from the reference
ORBIT_ULPS = 4


def assert_is_the_reference_block(b_mat, a_mat, grid, parity):
    """b_mat is P^T A P to a few ulp of max|A|, on the same pattern, and exactly symmetric."""
    reference = orbit_restriction(a_mat, grid, parity)
    patterns = []
    for mat in (b_mat, reference):
        mat = mat.tocsr(copy=True)
        mat.eliminate_zeros()
        mat.sort_indices()
        patterns.append((mat.indptr, mat.indices))
    assert np.array_equal(patterns[0][0], patterns[1][0])
    assert np.array_equal(patterns[0][1], patterns[1][1])
    scale = abs(a_mat).max()
    assert abs(b_mat - reference).max() <= ORBIT_ULPS * np.finfo(float).eps * scale
    assert (b_mat - b_mat.T).count_nonzero() == 0


#: (N, grade, box, points): the one-component sectors on small grids; at
#: (3, 3, 12.0, 17) the product P^T (A P) is not exactly symmetric
SCALAR_SECTORS = [(2, 0, 8.0, 20), (2, 2, 8.0, 20), (3, 0, 6.0, 16), (3, 3, 12.0, 17)]


def _restricted(n, grade, box, points, c=2.0):
    """The grid, the box matrix A, the reference P and the assembled symmetric block."""
    grid = lattice.Grid(box=box, points=points, n=n)
    sp = susy.Superpotential(n=n, c=c)
    a_mat = lattice.build_sector_matrix(grade, grid, sp)
    p_mat = orbit_isometry(grid, "symmetric")
    return grid, a_mat, p_mat, lattice.build_sector_matrix(grade, grid, sp, parity="symmetric")


class TestBosonicProjection:
    """Scalar sectors are solved on the exchange-symmetric grid functions."""

    @pytest.mark.parametrize("n, points", [(2, 16), (2, 21), (3, 16), (3, 17)])
    def test_isometry_has_one_orthonormal_column_per_sorted_multi_index(self, n, points):
        grid = lattice.Grid(box=5.0, points=points, n=n)
        p_mat = orbit_isometry(grid, "symmetric")
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

    @pytest.mark.parametrize("n, points", [(2, 16), (2, 21), (3, 16), (3, 17)])
    def test_antisymmetric_isometry_spans_the_odd_grid_functions(self, n, points):
        grid = lattice.Grid(box=5.0, points=points, n=n)
        q_mat = orbit_isometry(grid, "antisymmetric")
        assert q_mat.shape == (points**n, math.comb(points, n))
        gram = (q_mat.T @ q_mat - sparse.identity(q_mat.shape[1])).tocsr()
        assert abs(gram).max() <= 1e-15
        # no column touches a coincidence set; every other point lies in one
        idx = np.indices((points,) * n).reshape(n, -1)
        distinct = np.all([idx[a] != idx[b] for a, b in itertools.combinations(range(n), 2)], axis=0)
        assert np.array_equal(np.diff(q_mat.indptr), distinct.astype(int))
        lifted = (q_mat @ np.random.default_rng(1).standard_normal(q_mat.shape[1])).reshape(
            (points,) * n)
        for perm in itertools.permutations(range(n)):
            inversions = sum(perm[a] > perm[b] for a, b in itertools.combinations(range(n), 2))
            assert np.array_equal(lifted.transpose(perm), (-1) ** inversions * lifted)

    @pytest.mark.parametrize("n, grade, box, points", SCALAR_SECTORS)
    def test_restriction_is_invariant_and_exactly_symmetric(self, n, grade, box, points):
        _, a_mat, p_mat, b_mat = _restricted(n, grade, box, points)
        scale = abs(a_mat).max()
        assert abs(a_mat @ p_mat - p_mat @ b_mat).max() <= 1e-14 * scale
        diff = (b_mat - b_mat.T).tocsr()
        diff.eliminate_zeros()
        assert diff.nnz == 0

    def test_symmetrisation_is_needed(self):
        # of the reference product; the assembled block's orbit weights
        # sqrt(|I|/|J|) are not exactly reciprocal either
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



@st.composite
def orbit_cases(draw):
    """A scalar sector, a parity, a strength c >= 0 and a random box.

    The sector carries the sign of the contact coupling: +2c at grade 0,
    -2c at grade N, and none at c = 0.
    """
    n = draw(st.sampled_from([2, 3]))
    grade = draw(st.sampled_from([0, n]))
    parity = draw(st.sampled_from(["symmetric", "antisymmetric"]))
    c = draw(st.one_of(st.just(0.0), st.floats(0.01, 3.0)))
    points = draw(st.integers(16, 20))
    box = draw(st.floats(0.5, 30.0))
    return n, grade, parity, c, points, box


class TestOrbitAssembly:
    """A block with a parity is assembled on the orbit representatives, not reduced from the box."""

    @settings(max_examples=40, deadline=None)
    @given(case=orbit_cases())
    @example(case=(3, 3, "symmetric", 2.0, 17, 12.0))
    @example(case=(3, 3, "antisymmetric", 2.0, 16, 6.0))
    @example(case=(2, 0, "symmetric", 0.0, 20, 8.0))
    def test_direct_assembly_is_the_reference_restriction(self, case):
        n, grade, parity, c, points, box = case
        grid = lattice.Grid(box=box, points=points, n=n)
        sp = susy.Superpotential(n=n, c=c)
        a_mat = lattice.build_sector_matrix(grade, grid, sp)
        b_mat = lattice.build_sector_matrix(grade, grid, sp, parity=parity)
        assert_is_the_reference_block(b_mat, a_mat, grid, parity)
        p_mat = orbit_isometry(grid, parity)
        assert abs(a_mat @ p_mat - p_mat @ b_mat).max() <= 1e-14 * abs(a_mat).max()
        # the diagonal is A's at each orbit's representative, its first point
        reps = np.minimum.reduceat(p_mat.tocsc().indices, p_mat.tocsc().indptr[:-1])
        assert np.array_equal(b_mat.diagonal(), a_mat.diagonal()[reps])
        if parity == "antisymmetric":
            # no coincidence set in any orbit, so no contact coupling reaches it
            idx = np.array(np.unravel_index(reps, (points,) * n))
            assert (np.diff(idx, axis=0) > 0).all()
            free = lattice._orbit_block(grid, susy.shift_constant(sp), {}, parity)
            assert (b_mat != free).nnz == 0

    def test_parity_needs_a_scalar_sector(self):
        sp = susy.Superpotential(n=3, c=1.0)
        grid = lattice.Grid(box=6.0, points=16, n=3)
        with pytest.raises(ValueError, match="one Fock component"):
            lattice.build_sector_matrix(1, grid, sp, parity="symmetric")

    @pytest.mark.parametrize("n, points", [(2, 140), (3, 24)])
    def test_benchmark_sized_blocks_match_the_reference(self, n, points):
        sp = susy.Superpotential(n=n, c=2.0)
        grid = lattice.Grid(box=12.0 if n == 2 else 8.0, points=points, n=n)
        (block,) = lattice.sector_blocks(0, grid, sp)
        assert block.matrix().shape == (math.comb(points + n - 1, n),) * 2
        assert_is_the_reference_block(
            block.matrix(), lattice.build_sector_matrix(0, grid, sp), grid, "symmetric")


def small_grid(box: float, points: int, n: int) -> lattice.Grid:
    """A grid below the 16-point floor, small enough for a dense full-box solve.

    The floor guards the accuracy of the discretisation; the T_F split is
    exact at every M, so these tests step over it.
    """
    grid = object.__new__(lattice.Grid)
    for name, value in (("box", box), ("points", points), ("n", n)):
        object.__setattr__(grid, name, value)
    return grid


def hook_content_sum(n: int, j: int) -> int:
    """Sum of the contents (column - row) of the hook (n - j, 1^j)."""
    return sum(range(n - j)) - sum(range(1, j + 1))


def block_named(grade, grid, sp, **label):
    (block,) = [b for b in lattice.sector_blocks(grade, grid, sp) if b.label == label]
    return block


class TestTfStructure:
    """T_F = sum_{a<b} Lambda_ab/(2c) on each grade, exactly."""

    GRADES = [(n, g) for n in range(2, 6) for g in range(n + 1)]

    @pytest.mark.parametrize("n, grade", GRADES)
    def test_commutes_with_every_coupling_block_exactly(self, n, grade):
        units = [block.real for _, block in susy._unit_blocks(n, grade)]
        t_f = sum(units)
        for block in units:
            assert np.array_equal(t_f @ block, block @ t_f)

    @pytest.mark.parametrize("n, grade", GRADES)
    def test_eigenvalues_are_the_hook_content_sums(self, n, grade):
        hooks = [j for j in (grade - 1, grade) if 0 <= j <= n - 1]
        expected = {hook_content_sum(n, j): math.comb(n - 1, j) for j in hooks}
        blocks = lattice._tf_blocks(n, grade)
        assert {b.t_f: b.dim for b in blocks} == expected
        assert [b.t_f for b in blocks] == sorted(expected)
        t_f = sum(block.real for _, block in susy._unit_blocks(n, grade))
        vals = np.linalg.eigvalsh(t_f)
        assert np.abs(vals - np.rint(vals)).max() <= 1e-12

    @pytest.mark.parametrize("n, grade", GRADES)
    def test_block_couplings_are_symmetric_and_commute(self, n, grade):
        for block in lattice._tf_blocks(n, grade):
            units = [unit for _, unit in block.units]
            assert np.trace(sum(units)) == pytest.approx(block.t_f * block.dim, abs=1e-12)
            for unit in units:
                assert np.array_equal(unit, unit.T)
                # a mode swap squares to the identity on its eigenspace too
                np.testing.assert_allclose(unit @ unit, np.eye(block.dim), atol=1e-14)

    @pytest.mark.parametrize("n, grade", GRADES)
    def test_one_dimensional_eigenspaces_are_the_scalar_couplings(self, n, grade):
        for block in lattice._tf_blocks(n, grade):
            if block.dim != 1:
                continue
            sign = 1.0 if block.t_f > 0 else -1.0
            assert block.t_f == sign * math.comb(n, 2)
            for _, unit in block.units:
                assert unit[0, 0] == pytest.approx(sign, abs=1e-15)

    @pytest.mark.parametrize("n, grade", [(2, 1), (3, 1), (3, 2)])
    def test_one_dimensional_blocks_reuse_the_scalar_assembly(self, n, grade):
        sp = susy.Superpotential(n=n, c=1.3)
        grid = lattice.Grid(box=6.0, points=16, n=n)
        for block in lattice.sector_blocks(grade, grid, sp):
            if block.tf_block.dim != 1:
                continue
            scalar = lattice.build_sector_matrix(0 if block.tf_block.t_f > 0 else n, grid, sp)
            if block.parity is None:
                diff = (block.matrix() - scalar).tocsr()
                diff.eliminate_zeros()
                assert diff.nnz == 0
            else:
                assert_is_the_reference_block(block.matrix(), scalar, grid, block.parity)


class TestHookBlocks:
    """Multi-component sectors are solved one T_F block at a time."""

    @pytest.mark.parametrize("c", [0.0, 0.3, 1.0, 2.0])
    @pytest.mark.parametrize("k", [1, 5, 24, 160, 511])
    def test_two_particle_split_is_the_full_box_multiset(self, c, k):
        sp = susy.Superpotential(n=2, c=c)
        grid = lattice.Grid(box=6.0, points=16, n=2)
        full = np.linalg.eigvalsh(lattice.build_sector_matrix(1, grid, sp).toarray())
        rep = lattice.sector_spectrum(1, grid, sp, k, seed=3)
        # the dense solve rounds to about eps |A| sqrt(dim) in absolute terms,
        # so the tolerance is relative to the spectral radius
        np.testing.assert_allclose(rep.eigenvalues, full[:k], rtol=0, atol=1e-12 * full[-1])
        assert max(rep.residuals) < lattice.RESIDUAL_TOL

    @pytest.mark.parametrize("grade", [1, 2])
    @pytest.mark.parametrize("c", [0.0, 0.7, 2.0])
    @pytest.mark.parametrize("k", [1, 4, 30, 647])
    def test_three_particle_split_is_the_full_box_multiset(self, grade, c, k):
        sp = susy.Superpotential(n=3, c=c)
        grid = small_grid(4.0, 6, 3)
        full = np.linalg.eigvalsh(lattice.build_sector_matrix(grade, grid, sp).toarray())
        rep = lattice.sector_spectrum(grade, grid, sp, k, seed=3)
        np.testing.assert_allclose(rep.eigenvalues, full[:k], rtol=0, atol=1e-12 * full[-1])

    def test_antisymmetric_levels_enter_twice(self):
        sp = susy.Superpotential(n=2, c=2.0)
        grid = lattice.Grid(box=6.0, points=16, n=2)
        anti = block_named(1, grid, sp, t_f=-1, parity="antisymmetric")
        anti_levels = np.linalg.eigvalsh(anti.matrix().toarray())
        rep = lattice.sector_spectrum(1, grid, sp, 12, seed=3)
        entered = [v for v in rep.eigenvalues if np.isclose(v, anti_levels, rtol=1e-12).any()]
        assert len(entered) >= 4
        # solved once and counted twice: the copies are equal bit for bit
        assert all(rep.eigenvalues.count(v) == 2 for v in entered)

    def test_free_blocks_are_degenerate_bit_for_bit(self):
        sp = susy.Superpotential(n=2, c=0.0)
        grid = lattice.Grid(box=6.0, points=16, n=2)
        levels = lattice.sector_spectrum(1, grid, sp, 10, seed=3).eigenvalues
        assert levels[0::2] == levels[1::2]

    # symmetric halves have 136 unknowns, the antisymmetric half 120
    @pytest.mark.parametrize("k, lanczos", [(119, [136, 120, 136]), (135, [136, 136]), (136, [])])
    def test_block_within_k_is_solved_densely(self, monkeypatch, k, lanczos):
        sp = susy.Superpotential(n=2, c=1.0)
        grid = lattice.Grid(box=6.0, points=16, n=2)
        sizes = []
        solve = lattice.lowest_eigenvalues
        monkeypatch.setattr(
            lattice, "lowest_eigenvalues",
            lambda a_mat, k, seed=0, sigma=None: (
                sizes.append(a_mat.shape[0]) or solve(a_mat, k, seed, sigma)),
        )
        rep = lattice.sector_spectrum(1, grid, sp, k, seed=3)
        assert sizes == lanczos
        full = np.linalg.eigvalsh(lattice.build_sector_matrix(1, grid, sp).toarray())
        np.testing.assert_allclose(rep.eigenvalues, full[:k], rtol=0, atol=1e-12 * full[-1])

    @pytest.mark.parametrize("k", [0, 512])
    def test_sector_contract_is_unchanged(self, k):
        sp = susy.Superpotential(n=2, c=1.0)
        grid = lattice.Grid(box=6.0, points=16, n=2)
        with pytest.raises(ValueError, match=r"dim-1 = 511, got"):
            lattice.sector_spectrum(1, grid, sp, k, seed=3)

    @pytest.mark.parametrize("n, grade", [(2, 0), (2, 2), (3, 0), (3, 3)])
    def test_scalar_sector_is_one_symmetric_block(self, n, grade):
        sp = susy.Superpotential(n=n, c=1.3)
        grid = lattice.Grid(box=6.0, points=16, n=n)
        (block,) = lattice.sector_blocks(grade, grid, sp)
        t_f = math.comb(n, 2) if grade == 0 else -math.comb(n, 2)
        assert (block.label, block.times) == ({"t_f": t_f, "parity": "symmetric"}, 1)
        box = lattice.build_sector_matrix(grade, grid, sp)
        assert_is_the_reference_block(block.matrix(), box, grid, "symmetric")

    @pytest.mark.parametrize("k", [0, 136])
    def test_scalar_contract_counts_the_symmetric_levels(self, k):
        # C(16 + 1, 2) = 136 symmetric levels at N=2, M=16, not 16^2
        sp = susy.Superpotential(n=2, c=1.0)
        grid = lattice.Grid(box=6.0, points=16, n=2)
        with pytest.raises(ValueError, match=r"dim-1 = 135, got"):
            lattice.sector_spectrum(0, grid, sp, k, seed=3)
        assert len(lattice.sector_spectrum(0, grid, sp, 135, seed=3).eigenvalues) == 135

    @pytest.mark.parametrize("n, grade, c", [(2, 1, 0.0), (2, 1, 2.0), (3, 1, 0.0), (3, 2, 1.5)])
    def test_floors_bound_their_blocks(self, n, grade, c):
        sp = susy.Superpotential(n=n, c=c)
        grid = small_grid(5.0, 9 if n == 2 else 6, n)
        floors = 0
        for block in lattice.sector_blocks(grade, grid, sp):
            if block.floor == -math.inf:
                continue
            floors += 1
            lowest = np.linalg.eigvalsh(block.matrix().toarray())[0]
            assert block.floor <= lowest + 1e-12 * abs(lowest)
            if c == 0.0 and block.parity != "antisymmetric":  # the free ground itself
                assert block.floor == pytest.approx(lowest, rel=1e-12)
        # at c = 0 no block feels an attraction, so every block has the floor
        assert floors == {(2, 1, 0.0): 3, (2, 1, 2.0): 2, (3, 1, 0.0): 2, (3, 2, 1.5): 0}[
            n, grade, c]

    def test_block_above_the_kth_level_is_not_solved(self, monkeypatch):
        # the attractive block holds the four lowest levels; the others lie
        # above the free floor shift + 2 lambda_1 and are neither built nor solved
        sp = susy.Superpotential(n=2, c=2.0)
        grid = lattice.Grid(box=12.0, points=40, n=2)
        built = []
        matrix = lattice.Block.matrix
        monkeypatch.setattr(lattice.Block, "matrix", lambda self: built.append(self.label) or matrix(self))
        rep = lattice.sector_spectrum(1, grid, sp, 4, seed=3)
        assert built == [{"t_f": -1, "parity": "symmetric"}]
        full = lattice.lowest_eigenvalues(lattice.build_sector_matrix(1, grid, sp), 4, seed=3)
        np.testing.assert_allclose(rep.eigenvalues, full.eigenvalues, rtol=1e-12)
        shift = susy.shift_constant(sp)
        assert rep.eigenvalues[-1] < shift

    def test_certified_block_is_not_solved(self, monkeypatch):
        # grade 2 at N=3: the T_F=0 block lies above the attractive block's
        # three lowest levels; one factor certifies it, no solve runs
        sp = susy.Superpotential(n=3, c=2.0)
        grid = lattice.Grid(box=8.0, points=16, n=3)
        solved = []
        solve = lattice._block_levels
        monkeypatch.setattr(
            lattice, "_block_levels",
            lambda a_mat, k, seed, sigma=None: (
                solved.append(a_mat.shape[0]) or solve(a_mat, k, seed, sigma)),
        )
        rep = lattice.sector_spectrum(2, grid, sp, 3, seed=1)
        assert solved == [16**3]
        scalar = lattice.lowest_eigenvalues(lattice.build_sector_matrix(3, grid, sp), 3, seed=1)
        assert rep.eigenvalues == scalar.eigenvalues

    @pytest.mark.parametrize("grade, label", [(1, {"t_f": 0}), (2, {"t_f": -3})])
    def test_failing_block_is_named(self, monkeypatch, grade, label):
        monkeypatch.setattr(lattice, "_shift_invert", lambda a_mat, sigma: (None, False))
        sp = susy.Superpotential(n=3, c=2.0)
        grid = lattice.Grid(box=8.0, points=16, n=3)
        with pytest.raises(ConvergenceError) as info:
            lattice.sector_spectrum(grade, grid, sp, 2, seed=1)
        assert info.value.diagnostics["block"] == label
        assert set(info.value.diagnostics) == {"block", "gershgorin", "sigma"}


def gershgorin_levels(a_mat, k: int, seed: int) -> np.ndarray:
    """The block solve before the floor shift: certified at max(g, 0) - 1, else at g - 1."""
    diag = a_mat.diagonal()
    row_abs = np.asarray(abs(a_mat).sum(axis=1)).ravel()
    gershgorin = float((diag - (row_abs - np.abs(diag))).min())
    sigma = max(gershgorin, 0.0) - 1.0
    op, positive = lattice._shift_invert(a_mat, sigma)
    if not positive:
        sigma = gershgorin - 1.0
        op, positive = lattice._shift_invert(a_mat, sigma)
    assert positive
    v0 = np.random.default_rng(seed).standard_normal(a_mat.shape[0])
    vals = spla.eigsh(
        a_mat, k=k, sigma=sigma, which="LM", OPinv=op, v0=v0, tol=0, return_eigenvectors=False
    )
    return np.sort(vals)


def count_solves(monkeypatch) -> list:
    """Record one entry per solve with a shift-invert operator from ``_shift_invert``."""
    solves = []
    factor = lattice._shift_invert

    def counted(a_mat, sigma):
        op, positive = factor(a_mat, sigma)
        if op is None:
            return op, positive
        return spla.LinearOperator(
            op.shape, matvec=lambda x: solves.append(sigma) or op.matvec(x), dtype=op.dtype
        ), positive

    monkeypatch.setattr(lattice, "_shift_invert", counted)
    return solves


class TestFloorShift:
    """A block with a floor is solved at one free level lambda_1 under it."""

    @pytest.mark.parametrize("c", [0.0, 0.3, 2.0])
    @pytest.mark.parametrize("n, box, points, k", [(2, 12.0, 40, 4), (3, 8.0, 16, 2)])
    def test_scalar_levels_agree_with_the_gershgorin_shift(self, n, box, points, k, c):
        sp = susy.Superpotential(n=n, c=c)
        grid = lattice.Grid(box=box, points=points, n=n)
        (block,) = lattice.sector_blocks(0, grid, sp)
        assert block.sigma == pytest.approx(
            susy.shift_constant(sp) + (n - 1) * discrete_free_ground(points, box, 1), rel=1e-14)
        rep = lattice.sector_spectrum(0, grid, sp, k, seed=3)
        reference = gershgorin_levels(block.matrix(), k, seed=3)
        np.testing.assert_allclose(rep.eigenvalues, reference, rtol=1e-12, atol=0)
        assert max(rep.residuals) < lattice.RESIDUAL_TOL

    def test_repulsive_full_box_block_agrees_with_the_gershgorin_shift(self):
        sp = susy.Superpotential(n=3, c=2.0)
        grid = lattice.Grid(box=8.0, points=16, n=3)
        block = block_named(1, grid, sp, t_f=3)
        assert block.parity is None and block.sigma is not None
        mat = block.matrix()
        rep = lattice.lowest_eigenvalues(mat, 3, seed=1, sigma=block.sigma)
        np.testing.assert_allclose(
            rep.eigenvalues, gershgorin_levels(mat, 3, seed=1), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("n, box, points, k", [(2, 12.0, 140, 4), (3, 8.0, 24, 2)])
    def test_benchmark_sized_solve_takes_fewer_solves(self, monkeypatch, n, box, points, k):
        sp = susy.Superpotential(n=n, c=2.0)
        grid = lattice.Grid(box=box, points=points, n=n)
        (block,) = lattice.sector_blocks(0, grid, sp)
        solves = count_solves(monkeypatch)
        reference = gershgorin_levels(block.matrix(), k, seed=1)
        before = len(solves)
        rep = lattice.sector_spectrum(0, grid, sp, k, seed=1)
        after = len(solves) - before
        assert set(solves[before:]) == {block.sigma}  # certified at once: no fallback
        assert after < 0.6 * before
        np.testing.assert_allclose(rep.eigenvalues, reference, rtol=1e-12, atol=0)

    def test_uncertified_sigma_falls_back_bit_for_bit(self):
        sp = susy.Superpotential(n=2, c=2.0)
        grid = lattice.Grid(box=12.0, points=40, n=2)
        (block,) = lattice.sector_blocks(0, grid, sp)
        mat = block.matrix()
        above = lattice.lowest_eigenvalues(mat, 4, seed=3).eigenvalues[0] + 0.5
        assert not lattice._shift_invert(mat, above)[1]
        assert lattice.lowest_eigenvalues(mat, 4, seed=3, sigma=above) == (
            lattice.lowest_eigenvalues(mat, 4, seed=3))

    def test_blocks_without_a_floor_keep_the_gershgorin_shift(self, monkeypatch):
        sp = susy.Superpotential(n=3, c=2.0)
        grid = lattice.Grid(box=8.0, points=16, n=3)
        shifts = []
        solve = lattice.lowest_eigenvalues
        monkeypatch.setattr(
            lattice, "lowest_eigenvalues",
            lambda a_mat, k, seed=0, sigma=None: shifts.append(sigma) or solve(a_mat, k, seed, sigma),
        )
        lattice.sector_spectrum(3, grid, sp, 2, seed=1)
        assert shifts == [None]


class TestLatticeSusyPairing:
    """Adjacent sectors share their hook blocks' levels on the lattice."""

    @pytest.mark.parametrize("c", [0.3, 2.0])
    def test_two_particle_middle_sector_holds_both_scalar_sectors(self, c):
        sp = susy.Superpotential(n=2, c=c)
        grid = lattice.Grid(box=8.0, points=30, n=2)
        k = 12
        middle = lattice.sector_spectrum(1, grid, sp, k, seed=7).eigenvalues
        top = middle[-1]
        entered = 0
        for grade in (0, 2):
            scalar = lattice.sector_spectrum(grade, grid, sp, k, seed=7).eigenvalues
            below = [v for v in scalar if v <= top]
            assert all(v in middle for v in below)  # bit for bit
            entered += len(below)
        assert entered >= 3

    def test_three_particle_h1_block_is_shared_by_grades_one_and_two(self):
        sp = susy.Superpotential(n=3, c=2.0)
        grid = lattice.Grid(box=8.0, points=16, n=3)
        one = block_named(1, grid, sp, t_f=0)
        two = block_named(2, grid, sp, t_f=0)
        assert one.tf_block.dim == two.tf_block.dim == 2
        a = lattice.lowest_eigenvalues(one.matrix(), 4, seed=1).eigenvalues
        b = lattice.lowest_eigenvalues(two.matrix(), 4, seed=1).eigenvalues
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=0)

    def test_three_particle_h1_block_spectra_agree_in_full(self):
        sp = susy.Superpotential(n=3, c=1.0)
        grid = small_grid(4.0, 6, 3)
        one = np.linalg.eigvalsh(block_named(1, grid, sp, t_f=0).matrix().toarray())
        two = np.linalg.eigvalsh(block_named(2, grid, sp, t_f=0).matrix().toarray())
        np.testing.assert_allclose(one, two, rtol=0, atol=1e-12 * one[-1])


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


def full_operator_min(grid, sp, seed: int) -> float:
    """The diagnostic's solve before the grade split: all four Fock components at once."""
    q_mat = lattice._lattice_supercharge(grid, sp)
    h_mat = 0.5 * (q_mat @ q_mat.T + q_mat.T @ q_mat)
    h_mat = 0.5 * (h_mat + h_mat.T)
    op, positive = lattice._shift_invert(h_mat, -0.1)
    assert positive
    v0 = np.random.default_rng(seed).standard_normal(h_mat.shape[0])
    vals = spla.eigsh(
        h_mat, k=1, sigma=-0.1, which="LM", OPinv=op, v0=v0, return_eigenvectors=False)
    return float(vals[0])


def record_factors(monkeypatch, refuse_skips=False) -> list:
    """Record (size, sigma, certified) for every ``_shift_invert`` call.

    With ``refuse_skips`` only the factors at sigma = -0.1 may certify.
    """
    calls = []
    factor = lattice._shift_invert

    def recorded(a_mat, sigma):
        op, positive = factor(a_mat, sigma)
        positive = positive and not (refuse_skips and sigma != -0.1)
        calls.append((a_mat.shape[0], sigma, positive))
        return op, positive

    monkeypatch.setattr(lattice, "_shift_invert", recorded)
    return calls


class TestQDiagnostic:
    @pytest.mark.parametrize("c", [0.0, 2.0])
    def test_grades_do_not_couple(self, c):
        m = 20
        grid = lattice.Grid(box=8.0, points=m, n=2)
        q_mat = lattice._lattice_supercharge(grid, susy.Superpotential(n=2, c=c))
        h_mat = (0.5 * (q_mat @ q_mat.T + q_mat.T @ q_mat)).tocoo()
        grade = np.array([0, 1, 1, 2])  # the Fock basis is grade-major
        assert h_mat.nnz > 0
        assert np.array_equal(grade[h_mat.row // (m * m)], grade[h_mat.col // (m * m)])

    @pytest.mark.parametrize("c", [0.0, 0.8, 1.53, 2.0, 2.5])
    def test_min_eigenvalue_matches_the_full_operator(self, c):
        sp = susy.Superpotential(n=2, c=c)
        grid = lattice.Grid(box=16.0, points=40, n=2)
        rep = lattice.lattice_q_diagnostic(grid, sp, seed=1)
        assert rep.min_eigenvalue == pytest.approx(full_operator_min(grid, sp, 1), rel=1e-12)

    def test_every_grade_keeps_a_certificate(self, monkeypatch):
        # grade 1 is solved at sigma = -0.1; grades 2 and 0 lie above its
        # lowest level, which their factors certify, so they are not solved
        m = 24
        calls = record_factors(monkeypatch)
        rep = lattice.lattice_q_diagnostic(
            lattice.Grid(box=8.0, points=m, n=2), susy.Superpotential(n=2, c=2.0), seed=1)
        assert calls == [(2 * m * m, -0.1, True), (m * m, rep.min_eigenvalue, True),
                         (m * m, rep.min_eigenvalue, True)]

    def test_refused_skip_certificate_solves_every_grade(self, monkeypatch):
        m = 20
        sp = susy.Superpotential(n=2, c=2.0)
        grid = lattice.Grid(box=8.0, points=m, n=2)
        unpatched = lattice.lattice_q_diagnostic(grid, sp, seed=1).min_eigenvalue
        calls = record_factors(monkeypatch, refuse_skips=True)
        solved = []
        eigsh = lattice._eigsh
        monkeypatch.setattr(lattice, "_eigsh", lambda a_mat, k, **kw: (
            solved.append(a_mat.shape[0]) or eigsh(a_mat, k, **kw)))
        rep = lattice.lattice_q_diagnostic(grid, sp, seed=1)
        assert solved == [2 * m * m, m * m, m * m]  # grades 1, 2, 0
        assert [(size, sigma) for size, sigma, positive in calls if positive] == [
            (2 * m * m, -0.1), (m * m, -0.1), (m * m, -0.1)]
        q_mat = lattice._lattice_supercharge(grid, sp)
        dense = (0.5 * (q_mat @ q_mat.T + q_mat.T @ q_mat)).toarray()
        assert rep.min_eigenvalue == pytest.approx(np.linalg.eigvalsh(dense)[0], rel=1e-10)
        assert rep.min_eigenvalue == pytest.approx(unpatched, rel=1e-12)

    def test_unconverged_ritz_pair_is_refused(self, monkeypatch):
        eigsh = lattice._eigsh

        def off_by_1e6(a_mat, k, **kw):
            vals, vecs = eigsh(a_mat, k, **kw)
            return vals + 1e-6, vecs

        monkeypatch.setattr(lattice, "_eigsh", off_by_1e6)
        grid = lattice.Grid(box=8.0, points=20, n=2)
        with pytest.raises(ConvergenceError, match="residual") as info:
            lattice.lattice_q_diagnostic(grid, susy.Superpotential(n=2, c=2.0), seed=1)
        assert info.value.diagnostics["grade"] == 1  # the first grade solved
        assert info.value.diagnostics["residuals"][0] > lattice.RESIDUAL_TOL

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
