"""Independent finite-difference oracle on a Dirichlet box.

Discretizes the sector Hamiltonians of :mod:`slly.susy` on [0, L]^N with M
interior points per axis (h = L/(M+1)), Dirichlet walls, second-order central
differences for -Laplacian and the standard first-order rule delta(x_a - x_b)
-> (1/h) * [grid point on the coincidence set], tensored with the exact
grade block of the Fock coupling matrix.  Sparse symmetric eigensolves then
cross-check the analytic spectra with no shared code path: nothing here
touches the chamber calculus.

The particles are identical bosons.  Every sector takes one block path
(``sector_blocks``): the class sum T_F = sum_{a<b} Lambda_ab/(2c) of the
fermionic mode swaps is central, so it commutes with every coupling block and
with -Laplacian, and a sector is block-diagonal over its eigenspaces.  The
blocks are solved one at a time, some of them on one exchange parity only,
and their lowest levels are merged into the sector's.  A block with a parity
is assembled directly on the orbit representatives of the axis exchanges
(``_orbit_block``): the box matrix it restricts is never built.

Sectors 0 and N are the one-block case: one Fock component, solved on the
exchange-symmetric grid functions only, so they report bosonic levels alone.
A sector with more than one Fock component keeps every level of the full
box.  A one-dimensional T_F eigenspace has T_F = +-C(N, 2) and coupling
+-2c: it is the grade-0 or grade-N box matrix.  At N=2 each block is solved
further on its exchange-symmetric and antisymmetric halves; the
antisymmetric half vanishes on the coincidence line, so the two blocks share
it and it is solved once.

Each block is solved by shift-invert Lanczos at a shift that a factorisation
certifies to lie below its spectrum (``lowest_eigenvalues``).  A block that
feels no attraction has the floor shift + N lambda_1 and is shifted one free
level lambda_1 under it; the others are shifted from their Gershgorin bound,
which for the orbit-restricted and attractive blocks lies far below their
levels.

Everything is deterministic under a fixed seed (the seed fixes the
eigensolver start vector), and every assembled matrix is exactly symmetric
by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

from . import fock, susy
from .errors import BudgetError, ConvergenceError

MAX_UNKNOWNS = 1_600_000
MAX_POINTS_3D = 48
RESIDUAL_TOL = 1e-8


@dataclass(frozen=True)
class Grid:
    """Uniform Dirichlet grid on [0, L]^N: M interior points per axis."""

    box: float
    points: int
    n: int

    def __post_init__(self):
        if not math.isfinite(self.box):
            raise ValueError(f"box edge length must be finite, got {self.box}")
        if self.box <= 0:
            raise ValueError("box edge length must be positive")
        if self.points < 16:
            raise ValueError("need at least 16 points per axis")
        if self.n < 1:
            raise ValueError("particle count must be positive")

    @property
    def h(self) -> float:
        return self.box / (self.points + 1)


def laplacian_1d(points: int, h: float) -> sparse.csr_matrix:
    """Second-order central-difference -d^2/dx^2 with Dirichlet walls."""
    main = np.full(points, 2.0 / h**2)
    off = np.full(points - 1, -1.0 / h**2)
    return sparse.diags([off, main, off], [-1, 0, 1], format="csr")


def _laplacian_nd(grid: Grid) -> sparse.csr_matrix:
    """-Laplacian on the box: the Kronecker sum of ``laplacian_1d`` over the axes.

    Assembled in one ``sparse.diags`` call: axis j hops by M^(N-1-j) in the
    C-order flat index, and a hop that would cross a wall is cut.  The main
    diagonal adds the axes' 2/h^2 in axis order, as the sum of
    kron(lap, I, ..), kron(I, lap, ..), .. does, so the matrix equals that
    sum bit for bit.
    """
    m, n = grid.points, grid.n
    size = m**n
    main = 0.0
    for _ in range(n):
        main = main + 2.0 / grid.h**2
    diagonals, offsets = [np.full(size, main)], [0]
    for axis in range(n):
        stride = m ** (n - 1 - axis)
        inside = (np.arange(size - stride) // stride) % m < m - 1
        hop = np.where(inside, -1.0 / grid.h**2, 0.0)
        diagonals += [hop, hop]
        offsets += [-stride, stride]
    return sparse.diags(diagonals, offsets, format="csr")


def _coincidence_indicator(grid: Grid, a: int, b: int) -> np.ndarray:
    """1 on grid points with x_a = x_b, flattened in C order (axis 1 major)."""
    idx = np.indices((grid.points,) * grid.n)
    return (idx[a - 1] == idx[b - 1]).astype(float).ravel()


def _sector_levels(grade: int, grid: Grid, sp: susy.Superpotential) -> int:
    """Check a sector request against the grid and the budgets; return its level count.

    A box or coupling that makes a matrix entry (2N/h^2 or the shift) or the
    absolute sum of a row overflow is refused.  The budget counts every
    unknown of the sector (Fock components times the box), however it is
    solved.  The levels are those its blocks stand for:
    C(M+N-1, N) symmetric grid functions for a scalar sector (grade 0 or N),
    every unknown otherwise.
    """
    if grid.n != sp.n:
        raise ValueError("grid and superpotential particle counts differ")
    if grid.n not in (2, 3):
        raise ValueError(f"lattice oracle supports N = 2 or 3, got N = {grid.n}")
    if grid.n == 3 and grid.points > MAX_POINTS_3D:
        raise BudgetError(f"three-particle grids are capped at {MAX_POINTS_3D} points per axis")
    if not 0 <= grade <= sp.n:
        raise ValueError(f"grade {grade} out of range 0..{sp.n}")
    try:
        h_squared = grid.h**2
    except OverflowError:
        h_squared = math.inf
    if not (0.0 < h_squared < math.inf and 2.0 * grid.n / h_squared < math.inf):
        raise ValueError(f"box edge length {grid.box} gives a spacing h whose h^2 is out of range")
    shift = susy.shift_constant(sp)
    if not math.isfinite(shift):
        raise ValueError(
            f"superpotential strength {sp.c} is too large: the shift c^2 N(N^2 - 1)/12 overflows"
        )
    # a row holds the diagonal (the shift, 2N/h^2 and at most C(N, 2) contact
    # couplings 2|c|/h) and off-diagonal entries of no more than sqrt(N!)
    # times that: the orbit weights sqrt(|I|/|J|) on the 2N hops, and the
    # sqrt(dim) <= sqrt(N!) of a coupling block's orthogonal rows
    kinetic = 2.0 * grid.n / h_squared + grid.n * (grid.n - 1) * abs(sp.c) / grid.h
    if not math.isfinite(abs(shift) + (1.0 + math.sqrt(math.factorial(grid.n))) * kinetic):
        raise ValueError(
            f"box edge length {grid.box} and superpotential strength {sp.c} give matrix rows"
            " whose absolute sum overflows"
        )
    unknowns = math.comb(sp.n, grade) * grid.points**grid.n
    if unknowns > MAX_UNKNOWNS:
        raise BudgetError(f"{unknowns} unknowns exceed the budget of {MAX_UNKNOWNS}")
    if grade in (0, sp.n):
        return math.comb(grid.points + grid.n - 1, grid.n)
    return unknowns


def _assemble(grid: Grid, shift: float, couplings) -> sparse.csr_matrix:
    """-Laplacian + shift on every Fock component, plus each coupling block on its coincidence set.

    ``couplings`` maps each pair (a, b) to a square block over the same Fock
    components; kron ordering is (Fock component) x (grid).
    """
    ncomp = next(iter(couplings.values())).shape[0]
    lap = _laplacian_nd(grid)
    eye_c = sparse.identity(ncomp, format="csr")
    h_mat = sparse.kron(eye_c, lap, format="csr")
    h_mat = h_mat + shift * sparse.identity(h_mat.shape[0], format="csr")
    for (a, b), block in couplings.items():
        real_block = block.real
        if np.abs(block.imag).max() != 0.0:
            raise AssertionError("coupling blocks must be real")
        diag = sparse.diags(_coincidence_indicator(grid, a, b) / grid.h, format="csr")
        h_mat = h_mat + sparse.kron(sparse.csr_matrix(real_block), diag, format="csr")
    return h_mat.tocsr()


def build_sector_matrix(
    grade: int, grid: Grid, sp: susy.Superpotential, parity: str | None = None
) -> sparse.csr_matrix:
    """Sparse symmetric grade-n sector Hamiltonian on the box.

    kron ordering is (Fock component) x (grid), so the state vector holds the
    full grid for component 0 first.  With a ``parity`` (grades 0 and N only)
    it is that matrix restricted to the "symmetric" or "antisymmetric" grid
    functions, assembled on the orbit representatives (``_orbit_block``).
    """
    _sector_levels(grade, grid, sp)
    sector = susy.sector_hamiltonian(grade, sp)
    if parity is None:
        return _assemble(grid, sector.shift, sector.couplings)
    if grade not in (0, sp.n):
        raise ValueError(f"only grades 0 and {sp.n} have one Fock component, got {grade}")
    couplings = {pair: float(block.real[0, 0]) for pair, block in sector.couplings.items()}
    return _orbit_block(grid, sector.shift, couplings, parity)


def _orbit_block(grid: Grid, shift: float, couplings, parity: str) -> sparse.csr_matrix:
    """P^T A P of a one-component box matrix A for the orbit-sum isometry P, made exactly symmetric.

    P has one column per orbit of the axis exchanges, holding sgn/sqrt(orbit
    size) on each of its points: sgn is 1 on the "symmetric" side, and the
    sign of the sorting permutation on the "antisymmetric" side, which keeps
    only the orbits of distinct indices.  The columns ascend in the C-order
    flat index of the orbit's representative, its sorted multi-index p0.
    A = -Laplacian + shift + sum_ab coupling_ab/h on x_a = x_b commutes with
    every exchange, so B_IJ = sgn sqrt(|I|/|J|) sum_{q in J} A_{p0 q}, and
    that is what is assembled, without A or P:

    - the diagonal is A's at p0: 2N/h^2, plus the shift, plus coupling/h for
      each coincident pair of p0 (a hop changes the index sum, so none stays
      in its orbit);
    - each hop of p0 by +-1 along an axis goes to the orbit of its sorted
      multi-index with weight sqrt(|I|/|J|).  A hop from a strictly
      increasing multi-index stays sorted or lands on a coincidence set,
      which is in no antisymmetric orbit; so every antisymmetric sgn is +1,
      and no contact coupling reaches that side.

    The eigenpairs of the result lift through P to the eigenpairs of A of
    that parity.  The orbit weights leave it symmetric only to an ulp; the
    certified solver's L D L^T needs it exactly so.
    """
    m, n = grid.points, grid.n
    idx = np.indices((m,) * n).reshape(n, -1)
    steps = np.diff(idx, axis=0)
    keep = (steps > 0 if parity == "antisymmetric" else steps >= 0).all(axis=0)
    reps, flat = idx[:, keep], np.flatnonzero(keep)
    count = flat.size
    column = np.full(idx.shape[1], -1)
    column[flat] = np.arange(count)
    # N! over the factorials of the runs of equal indices of the sorted reps
    runs = np.ones(count, dtype=np.int64)
    for j in range(1, n):
        runs *= 1 + (reps[:j] == reps[j]).sum(axis=0)
    size = math.factorial(n) // runs

    main = 0.0
    for _ in range(n):
        main = main + 2.0 / grid.h**2
    diag = np.full(count, main) + shift
    for (a, b), coupling in couplings.items():
        diag = diag + np.where(reps[a - 1] == reps[b - 1], coupling * (1.0 / grid.h), 0.0)
    rows, cols, vals = [np.arange(count)], [np.arange(count)], [diag]
    hop = -1.0 / grid.h**2
    for axis in range(n):
        # sorted, the hop moves the last (+1) or first (-1) entry of its run
        # of equal indices instead: the flat index moves by that entry's stride
        later = (reps[axis + 1:] == reps[axis]).sum(axis=0)
        earlier = (reps[:axis] == reps[axis]).sum(axis=0)
        for step, moved in ((-1, axis - earlier), (1, axis + later)):
            src = np.flatnonzero((reps[axis] + step >= 0) & (reps[axis] + step < m))
            dst = column[flat[src] + step * m ** (n - 1 - moved[src])]
            src, dst = src[dst >= 0], dst[dst >= 0]
            rows += [src]
            cols += [dst]
            vals += [np.sqrt(size[src] / size[dst]) * hop]
    b_mat = sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(count, count)
    )
    return (0.5 * (b_mat + b_mat.T)).tocsr()


class _TfBlock(NamedTuple):
    """One eigenspace of T_F on a grade, with the couplings restricted to it."""

    t_f: int
    units: tuple[tuple[tuple[int, int], np.ndarray], ...]  # U^T (Lambda_ab/2c) U per pair

    @property
    def dim(self) -> int:
        return self.units[0][1].shape[0]


@lru_cache(maxsize=None)
def _tf_blocks(n: int, grade: int) -> tuple[_TfBlock, ...]:
    """Eigenspaces of T_F = sum_{a<b} Lambda_ab/(2c) on a grade, ascending in T_F.

    T_F is an integer matrix with integer eigenvalues (the content sums of
    the hooks (N-g+1, 1^{g-1}) and (N-g, 1^g)); each coupling block is
    restricted to an orthonormal eigenbasis U as U^T B U, made exactly
    symmetric.  None of it depends on c, so it runs once per (n, grade).
    """
    units = tuple((pair, block.real) for pair, block in susy._unit_blocks(n, grade))
    vals, vecs = np.linalg.eigh(sum(block for _, block in units))
    levels = np.rint(vals)
    out = []
    for level in np.unique(levels):
        u = vecs[:, levels == level]
        restricted = []
        for pair, block in units:
            reduced = u.T @ block @ u
            reduced = 0.5 * (reduced + reduced.T)
            reduced.flags.writeable = False
            restricted.append((pair, reduced))
        out.append(_TfBlock(int(level), tuple(restricted)))
    return tuple(out)


@dataclass(frozen=True)
class Block:
    """One block of a sector, assembled on demand by ``matrix``.

    A one-dimensional T_F block is a scalar box matrix (grade 0 or N), built
    by ``build_sector_matrix``: on the orbit representatives of its
    ``parity`` if it has one, else on the whole box.  A larger block is the
    multi-component operator of its restricted couplings on the whole box.
    Each of its levels stands for ``times`` levels of the sector, and none
    lies below ``floor`` (-inf where no bound is known).
    """

    tf_block: _TfBlock
    parity: str | None  # the exchange parity it is solved on (``_orbit_block``), or None
    times: int
    floor: float
    grid: Grid
    sp: susy.Superpotential

    @property
    def label(self) -> dict:
        """Its T_F eigenvalue, and its parity if it has one, as named in exit-3 diagnostics."""
        if self.parity is None:
            return {"t_f": self.tf_block.t_f}
        return {"t_f": self.tf_block.t_f, "parity": self.parity}

    @property
    def sigma(self) -> float | None:
        """The shift its solve tries first: one free level lambda_1 under its floor.

        None where it has no floor; the solve then picks its own shift.
        """
        if self.floor == -math.inf:
            return None
        return self.floor - _free_level(self.grid)

    def matrix(self) -> sparse.csr_matrix:
        grid, sp, tf_block = self.grid, self.sp, self.tf_block
        if tf_block.dim == 1:
            grade = 0 if tf_block.t_f > 0 else sp.n
            return build_sector_matrix(grade, grid, sp, parity=self.parity)
        couplings = {pair: unit * (2.0 * sp.c) + 0.0 for pair, unit in tf_block.units}
        return _assemble(grid, susy.shift_constant(sp), couplings)


def _free_level(grid: Grid) -> float:
    """lambda_1, the lowest level of the one-dimensional discrete -d^2/dx^2."""
    return 4.0 / grid.h**2 * math.sin(math.pi * grid.h / (2.0 * grid.box)) ** 2


def sector_blocks(grade: int, grid: Grid, sp: susy.Superpotential) -> list[Block]:
    """The blocks of a sector, ascending in T_F.

    Each T_F eigenspace of dimension d is a d-component operator with the
    couplings of ``_tf_blocks``; a one-dimensional one is the grade-0
    (T_F = C(N, 2), coupling +2c) or grade-N (T_F = -C(N, 2), coupling -2c)
    box matrix.  Sectors 0 and N are the one-block case, solved on the
    exchange-symmetric half.  At N=2 the middle sector's two blocks are each
    solved on their exchange-symmetric half, and their common antisymmetric
    half follows the first and counts twice.  For 0 < grade < N the union of
    the blocks' spectra, so counted, is the spectrum of ``build_sector_matrix``.

    A block that feels no attraction (coupling +2c, none on the
    antisymmetric half, or none at all at c = 0) lies above
    shift + N lambda_1, the floor of the discrete -Laplacian plus the shift.
    """
    _sector_levels(grade, grid, sp)
    free = susy.shift_constant(sp) + grid.n * _free_level(grid)
    scalar = grade in (0, sp.n)
    parity = "symmetric" if scalar or grid.n == 2 else None
    blocks = []
    for i, tf_block in enumerate(_tf_blocks(sp.n, grade)):
        floor = free if tf_block.t_f == math.comb(sp.n, 2) or sp.c == 0.0 else -math.inf
        blocks.append(Block(tf_block, parity, 1, floor, grid, sp))
        if i == 0 and grid.n == 2 and not scalar:
            blocks.append(Block(tf_block, "antisymmetric", 2, free, grid, sp))
    return blocks


# ---------------------------------------------------------------------------
# eigensolver
# ---------------------------------------------------------------------------

class Eigenvalues(NamedTuple):
    """Lowest eigenvalues of a sparse symmetric matrix, ascending, with residuals."""

    eigenvalues: tuple[float, ...]
    residuals: tuple[float, ...]


@dataclass(frozen=True)
class SpectrumReport:
    """Lowest eigenvalues of one sector on a grid, ascending, with residuals."""

    sector: int
    eigenvalues: tuple[float, ...]
    residuals: tuple[float, ...]
    box: float
    points: int
    h: float
    seed: int

    @property
    def ground(self) -> float:
        return self.eigenvalues[0]


def _eigsh(a_mat, k: int, **kwargs):
    """``spla.eigsh`` with ARPACK non-convergence raised as ConvergenceError."""
    try:
        return spla.eigsh(a_mat, k=k, **kwargs)
    except spla.ArpackNoConvergence as exc:
        raise ConvergenceError(
            "eigensolver did not converge",
            diagnostics={"converged": len(exc.eigenvalues), "requested": k},
        ) from exc


def _shift_invert(a_mat, sigma: float) -> tuple[spla.LinearOperator | None, bool]:
    """(A - sigma I)^-1 as an operator, and whether sigma lies below the spectrum.

    Factorises A - sigma I with a symmetric minimum-degree ordering (on
    A^T + A) and no row pivoting, so for symmetric A the LU factors are
    P(A - sigma I)P^T = L D L^T with D = diag(U).  By Sylvester's law of
    inertia sigma lies below every eigenvalue exactly when the row and column
    permutations agree (no pivot was taken off the diagonal) and every entry
    of D is positive.  A pivot of A - sigma I singular in exact arithmetic
    may round to a tiny positive value, so every pivot must exceed
    dim * eps * max|D|.  A factor SuperLU finds exactly singular returns no
    operator.
    """
    shifted = (a_mat - sigma * sparse.identity(a_mat.shape[0], format="csc")).tocsc()
    try:
        lu = spla.splu(
            shifted,
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError:  # a zero pivot: SuperLU reports the factor singular
        return None, False
    pivots = lu.U.diagonal()
    threshold = shifted.shape[0] * np.finfo(float).eps * np.abs(pivots).max()
    positive = bool(np.array_equal(lu.perm_r, lu.perm_c) and (pivots > threshold).all())
    op = spla.LinearOperator(shifted.shape, matvec=lu.solve, dtype=shifted.dtype)
    return op, positive


def lowest_eigenvalues(
    a_mat: sparse.csr_matrix, k: int, seed: int = 0, sigma: float | None = None
) -> Eigenvalues:
    """k smallest eigenvalues of a sparse symmetric matrix.

    Shift-invert Lanczos on an L D L^T factor of A - sigma I (symmetric
    minimum-degree ordering, no pivoting; see ``_shift_invert``), which
    certifies that the shift lies below every eigenvalue.  Lanczos converges
    the faster the closer the shift sits under the low spectrum, so a caller
    that knows a lower bound passes a ``sigma`` just under it (a block's
    ``Block.sigma``).  Without one, or if its factor does not certify,
    the shift is that of ``_gershgorin_shift``.  The start vector is drawn
    from the seed, so identical inputs give bitwise-identical reports.
    Raises ConvergenceError if no shift is certified, the solver fails or
    any residual exceeds 1e-8.
    """
    dim = a_mat.shape[0]
    _check_k(k, dim)
    op, positive = (None, False) if sigma is None else _shift_invert(a_mat, sigma)
    if not positive:
        op, sigma = _gershgorin_shift(a_mat)
    v0 = np.random.default_rng(seed).standard_normal(dim)
    vals, vecs = _eigsh(a_mat, k, sigma=sigma, which="LM", OPinv=op, v0=v0, tol=0)
    order = np.argsort(vals)
    return _checked(a_mat, vals[order], vecs[:, order])


def _gershgorin_shift(a_mat) -> tuple[spla.LinearOperator, float]:
    """A certified shift-invert operator of A and its shift, from the Gershgorin bound g.

    The shift is first max(g, 0) - 1, which lies below the spectrum of a
    positive semidefinite matrix; if its factor does not certify, the matrix
    is refactored at g - 1, which lies below the spectrum of any symmetric
    matrix.  Raises ConvergenceError if neither certifies.
    """
    diag = a_mat.diagonal()
    row_abs = np.asarray(abs(a_mat).sum(axis=1)).ravel()
    gershgorin = float((diag - (row_abs - np.abs(diag))).min())
    sigma = max(gershgorin, 0.0) - 1.0
    op, positive = _shift_invert(a_mat, sigma)
    if not positive and gershgorin < 0.0:
        sigma = gershgorin - 1.0
        op, positive = _shift_invert(a_mat, sigma)
    if not positive:
        raise ConvergenceError(
            "no shift certified below the spectrum",
            diagnostics={"sigma": sigma, "gershgorin": gershgorin},
        )
    return op, sigma


def _check_k(k: int, dim: int) -> None:
    if not 1 <= k <= dim - 1:
        raise ValueError(f"k must satisfy 1 <= k <= dim-1 = {dim - 1}, got {k}")


def _checked(a_mat, vals: np.ndarray, vecs: np.ndarray) -> Eigenvalues:
    """Ascending eigenpairs as Eigenvalues; ConvergenceError if a residual exceeds 1e-8."""
    residuals = []
    for i in range(len(vals)):
        v = vecs[:, i]
        residuals.append(float(np.linalg.norm(a_mat @ v - vals[i] * v) / np.linalg.norm(v)))
    if any(not r <= RESIDUAL_TOL for r in residuals):  # a NaN residual fails too
        raise ConvergenceError(
            "eigenpair residual above tolerance",
            diagnostics={"residuals": residuals},
        )
    return Eigenvalues(tuple(float(v) for v in vals), tuple(residuals))


def _block_levels(
    a_mat: sparse.csr_matrix, k: int, seed: int, sigma: float | None = None
) -> Eigenvalues:
    """The k lowest levels of a block; all of them, solved densely, if it has no more than k.

    ``sigma`` is the shift the sparse solve tries first (``Block.sigma``).
    """
    if a_mat.shape[0] > k:
        return lowest_eigenvalues(a_mat, k, seed=seed, sigma=sigma)
    vals, vecs = np.linalg.eigh(a_mat.toarray())
    return _checked(a_mat, vals, vecs)


def _merged_levels(
    grade: int, grid: Grid, sp: susy.Superpotential, k: int, seed: int
) -> Eigenvalues:
    """The k lowest of the union of the blocks' k lowest levels, with their residuals.

    A block that holds none of the k lowest levels found so far is not
    solved: it is skipped unbuilt when its floor lies above the k-th, and a
    block with no floor is skipped when the factor of B - lambda_k I is
    certified positive definite (``_shift_invert``), which costs one
    factorisation instead of a solve.  On exit 3 the diagnostics name the
    failing block under ``block``.
    """
    _check_k(k, _sector_levels(grade, grid, sp))
    lowest = []
    for block in sector_blocks(grade, grid, sp):
        full = len(lowest) == k
        if full and block.floor > lowest[-1][0]:
            continue
        mat = block.matrix()
        if full and block.floor == -math.inf and _shift_invert(mat, lowest[-1][0])[1]:
            continue
        try:
            raw = _block_levels(mat, k, seed, block.sigma)
        except ConvergenceError as exc:
            exc.diagnostics["block"] = block.label
            raise
        lowest = sorted(lowest + list(zip(raw.eigenvalues, raw.residuals)) * block.times)[:k]
    return Eigenvalues(tuple(v for v, _ in lowest), tuple(r for _, r in lowest))


def sector_spectrum(
    grade: int, grid: Grid, sp: susy.Superpotential, k: int, seed: int = 0
) -> SpectrumReport:
    """Assemble one sector and solve for its k lowest eigenvalues.

    One block path: the sector's T_F blocks (``sector_blocks``) are solved
    one at a time and their k lowest levels merged; a block with no more
    than k unknowns is solved densely.  Sectors 0 and N are the one-block
    case, solved on the exchange-symmetric subspace (``_orbit_block``),
    so only bosonic levels are reported.  Any other sector reports the k
    lowest levels of the full box, with their multiplicities.  Every block
    uses the same k and seed, so at N=2 the levels that sector 1 takes from
    its symmetric halves are those of sectors 0 and N bit for bit.
    """
    raw = _merged_levels(grade, grid, sp, k, seed)
    return SpectrumReport(
        sector=grade,
        eigenvalues=raw.eigenvalues,
        residuals=raw.residuals,
        box=grid.box,
        points=grid.points,
        h=grid.h,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# two-particle verification experiments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SusySpectrumReport:
    sectors: dict[int, SpectrumReport]
    tol_h: float
    zero_tol: float
    checks: dict[str, bool]

    @property
    def passed(self) -> bool:
        return all(self.checks.values())


def susy_spectrum_check(
    grid: Grid, sp: susy.Superpotential, k: int = 6, seed: int = 0
) -> SusySpectrumReport:
    """Spectra of the three two-particle sectors plus the SUSY sanity checks.

    tol_h collects the first-order delta-discretization error and the box
    floor; the bound-state sectors (1 and 2) must have ground energies below
    zero_tol (they converge to the zero modes as h -> 0, L -> infinity) and
    the whole spectrum must sit above -tol_h.
    """
    if grid.n != 2 or sp.n != 2:
        raise ValueError("the SUSY spectrum check is a two-particle experiment")
    c, h, box = sp.c, grid.h, grid.box
    reports = {g: sector_spectrum(g, grid, sp, k, seed=seed) for g in (0, 1, 2)}
    tol_h = c**3 * h + 4.0 * math.pi**2 / box**2
    zero_tol = c**4 * h / 8.0 + 6.0 * math.pi**2 / box**2
    shift = susy.shift_constant(sp)
    # variational bound: the free box ground state gives
    # E_0 <= shift + 2 pi^2/L^2 + 3c/L for the repulsive scalar sector
    floor_cap = shift + 2.0 * math.pi**2 / box**2 + 3.0 * c / box + tol_h
    checks = {
        "spectra_above_minus_tol_h": min(
            min(r.eigenvalues) for r in reports.values()
        ) >= -tol_h,
        "sector2_ground_near_zero": reports[2].ground <= zero_tol,
        "sector1_ground_near_zero": reports[1].ground <= zero_tol,
        "sector0_above_shift": reports[0].ground >= shift - 1e-8,
        "sector0_near_kinetic_floor": reports[0].ground <= floor_cap,
        "bound_below_scattering": reports[2].ground < reports[0].ground,
    }
    return SusySpectrumReport(sectors=reports, tol_h=tol_h, zero_tol=zero_tol, checks=checks)


@dataclass(frozen=True)
class ConvergenceRow:
    h: float
    points: int
    eigenvalues: tuple[float, ...]
    residuals: tuple[float, ...]


@dataclass(frozen=True)
class ConvergenceReport:
    """Ground-energy refinement study at fixed box size."""

    sector: int
    box: float
    rows: tuple[ConvergenceRow, ...]
    orders: tuple[float, ...]
    monotone_decreasing: bool


def convergence_study(
    grade: int,
    sp: susy.Superpotential,
    box: float,
    points_list: tuple[int, ...],
    k: int = 1,
    seed: int = 0,
) -> ConvergenceReport:
    """Refine h at fixed L and fit the observed order of the ground energy.

    For a sector whose continuum ground energy is zero the computed values
    E(h) themselves are the errors; the order between refinements i, i+1 is
    log(E_i/E_{i+1}) / log(h_i/h_{i+1}).  ``points_list`` must hold at least
    two strictly increasing sizes, so every order compares a finer grid.
    """
    if len(points_list) < 2 or any(m >= n for m, n in zip(points_list, points_list[1:])):
        raise ValueError(
            f"points_list needs at least two strictly increasing sizes, got {tuple(points_list)}"
        )
    rows = []
    for m in points_list:
        grid = Grid(box=box, points=m, n=sp.n)
        rep = sector_spectrum(grade, grid, sp, k, seed=seed)
        rows.append(
            ConvergenceRow(
                h=grid.h, points=m, eigenvalues=rep.eigenvalues, residuals=rep.residuals
            )
        )
    grounds = [abs(r.eigenvalues[0]) for r in rows]
    orders = []
    for i in range(len(rows) - 1):
        orders.append(
            math.log(grounds[i] / grounds[i + 1]) / math.log(rows[i].h / rows[i + 1].h)
        )
    monotone = all(grounds[i] > grounds[i + 1] for i in range(len(grounds) - 1))
    return ConvergenceReport(
        sector=grade,
        box=box,
        rows=tuple(rows),
        orders=tuple(orders),
        monotone_decreasing=monotone,
    )


# ---------------------------------------------------------------------------
# lattice supercharge diagnostic
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QDiagnosticReport:
    min_eigenvalue: float
    q_squared_max: float
    q_squared_nnz: int
    band_width: int

    @property
    def positive_semidefinite(self) -> bool:
        return self.min_eigenvalue >= -1e-10


def _forward_difference(points: int, h: float) -> sparse.csr_matrix:
    """(u_{i+1} - u_i)/h with the Dirichlet ghost value u_{M+1} = 0."""
    main = np.full(points, -1.0 / h)
    upper = np.full(points - 1, 1.0 / h)
    return sparse.diags([main, upper], [0, 1], format="csr")


def _lattice_supercharge(grid: Grid, sp: susy.Superpotential) -> sparse.csr_matrix:
    """Q = sqrt(2) sum_j b_j (x) (forward difference along x_j + the chamber gradient of W).

    The gradient is +-c/2 off the coincidence line, where sign(x_1 - x_2)
    evaluates to 0.  kron ordering is (Fock component) x (grid).
    """
    m = grid.points
    d1 = _forward_difference(m, grid.h)
    eye = sparse.identity(m, format="csr")
    idx = np.arange(m)
    sign_12 = np.sign(np.subtract.outer(idx, idx)).ravel()  # sign(x_1 - x_2), 0 on the line
    w1 = sparse.diags(0.5 * sp.c * sign_12, format="csr")
    ops = {
        1: sparse.kron(d1, eye, format="csr") + w1,
        2: sparse.kron(eye, d1, format="csr") - w1,
    }
    q_mat = None
    for j in (1, 2):
        bj = sparse.csr_matrix(fock.annihilation(j, 2).mat.real)
        term = math.sqrt(2.0) * sparse.kron(bj, ops[j], format="csr")
        q_mat = term if q_mat is None else q_mat + term
    return q_mat


def lattice_q_diagnostic(grid: Grid, sp: susy.Superpotential, seed: int = 0) -> QDiagnosticReport:
    """Assemble a lattice supercharge and probe the algebra it generates.

    Q uses forward differences plus the diagonal chamber gradient (the sign
    function evaluates to 0 on coincidence nodes), so (1/2)(QQ^T + Q^TQ) is
    positive semidefinite by construction whatever the discretization error;
    Q^2, which vanishes in the continuum, survives only on grid points next
    to the coincidence line and is reported as a discretization diagnostic.

    (1/2){Q, Q^T} conserves fermion number, so its lowest eigenvalue is the
    lowest over its grade blocks.  Grade N-1, which holds the alternating
    zero mode, is solved first, then N, then 0.  A later grade is skipped
    when the factor of its block minus the lowest level so far is certified
    positive definite (``_shift_invert``); a grade that is solved must be
    certified positive definite at sigma = -0.1, and its Ritz pair must meet
    ``RESIDUAL_TOL`` (``_checked``; a ``ConvergenceError`` names the grade).
    Either way every grade carries a positivity certificate.  A box or
    coupling whose operator rows could overflow is refused before any of it
    is assembled.
    """
    if grid.n != 2 or sp.n != 2:
        raise ValueError("the lattice supercharge diagnostic is a two-particle experiment")
    m = grid.points
    if 4 * m * m > MAX_UNKNOWNS:
        raise BudgetError("diagnostic grid too large")
    # each row of Q sums to at most 2 sqrt(2) (2/h + |c|/2) in absolute value,
    # and so does each column, so a row of (1/2){Q, Q^T} to 8 (2/h + |c|/2)^2
    row = 2.0 / grid.h + 0.5 * abs(sp.c)
    if not math.isfinite(8.0 * row * row):
        raise ValueError(
            f"box edge length {grid.box} and superpotential strength {sp.c} make"
            " (1/2){Q, Q^T} overflow"
        )
    q_mat = _lattice_supercharge(grid, sp)
    h_mat = 0.5 * (q_mat @ q_mat.T + q_mat.T @ q_mat)
    h_mat = 0.5 * (h_mat + h_mat.T)

    sigma = -0.1  # (1/2){Q, Q^T} is PSD by construction, so each factor must certify
    lowest = math.inf
    for grade in (1, 2, 0):
        comps = fock.grade_slice(2, grade)
        rows = slice(comps.start * m * m, comps.stop * m * m)
        block = h_mat[rows, rows]
        if lowest < math.inf and _shift_invert(block, lowest)[1]:
            continue
        op, positive = _shift_invert(block, sigma)
        if not positive:
            raise ConvergenceError(
                "(1/2){Q, Q^T} - sigma I is not positive definite",
                diagnostics={"grade": grade, "sigma": sigma},
            )
        v0 = np.random.default_rng(seed).standard_normal(block.shape[0])
        vals, vecs = _eigsh(block, 1, sigma=sigma, which="LM", OPinv=op, v0=v0)
        try:
            level = _checked(block, vals, vecs)
        except ConvergenceError as exc:
            exc.diagnostics["grade"] = grade
            raise
        lowest = min(lowest, level.eigenvalues[0])
    q2 = (q_mat @ q_mat).tocoo()
    q2.eliminate_zeros()
    g = np.concatenate([q2.row, q2.col]) % (m * m)  # each entry's node, in either index
    band = int(np.abs(g // m - g % m).max()) if q2.nnz else 0
    q2_max = float(np.abs(q2.data).max()) if q2.nnz else 0.0
    return QDiagnosticReport(
        min_eigenvalue=lowest,
        q_squared_max=q2_max,
        q_squared_nnz=int(q2.nnz),
        band_width=band,
    )
