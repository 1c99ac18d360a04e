"""Independent finite-difference oracle on a Dirichlet box.

Discretizes the sector Hamiltonians of :mod:`slly.susy` on [0, L]^N with M
interior points per axis (h = L/(M+1)), Dirichlet walls, second-order central
differences for -Laplacian and the standard first-order rule delta(x_a - x_b)
-> (1/h) * [grid point on the coincidence set], tensored with the exact
grade block of the Fock coupling matrix.  Sparse symmetric eigensolves then
cross-check the analytic spectra with no shared code path: nothing here
touches the chamber calculus.

Everything is deterministic under a fixed seed (the seed fixes the
eigensolver start vector), and every assembled matrix is exactly symmetric
by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
        if self.box <= 0:
            raise ValueError("box edge length must be positive")
        if self.points < 16:
            raise ValueError("need at least 16 points per axis")
        if self.n < 1:
            raise ValueError("particle count must be positive")

    @property
    def h(self) -> float:
        return self.box / (self.points + 1)

    def coordinates(self) -> np.ndarray:
        """Interior node coordinates i*h, i = 1..M."""
        return self.h * np.arange(1, self.points + 1)


def laplacian_1d(points: int, h: float) -> sparse.csr_matrix:
    """Second-order central-difference -d^2/dx^2 with Dirichlet walls."""
    main = np.full(points, 2.0 / h**2)
    off = np.full(points - 1, -1.0 / h**2)
    return sparse.diags([off, main, off], [-1, 0, 1], format="csr")


def _laplacian_nd(grid: Grid) -> sparse.csr_matrix:
    lap = laplacian_1d(grid.points, grid.h)
    eye = sparse.identity(grid.points, format="csr")
    total = None
    for axis in range(grid.n):
        factors = [lap if ax == axis else eye for ax in range(grid.n)]
        term = factors[0]
        for f in factors[1:]:
            term = sparse.kron(term, f, format="csr")
        total = term if total is None else total + term
    return total.tocsr()


def _coincidence_indicator(grid: Grid, a: int, b: int) -> np.ndarray:
    """1 on grid points with x_a = x_b, flattened in C order (axis 1 major)."""
    idx = np.indices((grid.points,) * grid.n)
    return (idx[a - 1] == idx[b - 1]).astype(float).ravel()


def build_sector_matrix(
    grade: int, grid: Grid, sp: susy.Superpotential
) -> sparse.csr_matrix:
    """Sparse symmetric grade-n sector Hamiltonian on the box.

    kron ordering is (Fock component) x (grid), so the state vector holds the
    full grid for component 0 first.
    """
    if grid.n != sp.n:
        raise ValueError("grid and superpotential particle counts differ")
    if grid.n not in (2, 3):
        raise ValueError(f"lattice oracle supports N = 2 or 3, got N = {grid.n}")
    if grid.n == 3 and grid.points > MAX_POINTS_3D:
        raise BudgetError(f"three-particle grids are capped at {MAX_POINTS_3D} points per axis")
    ncomp = math.comb(sp.n, grade)
    unknowns = ncomp * grid.points**grid.n
    if unknowns > MAX_UNKNOWNS:
        raise BudgetError(f"{unknowns} unknowns exceed the budget of {MAX_UNKNOWNS}")

    sector = susy.sector_hamiltonian(grade, sp)
    lap = _laplacian_nd(grid)
    eye_c = sparse.identity(ncomp, format="csr")
    h_mat = sparse.kron(eye_c, lap, format="csr")
    h_mat = h_mat + sector.shift * sparse.identity(unknowns, format="csr")
    for (a, b), block in sector.couplings.items():
        real_block = block.real
        if np.abs(block.imag).max() != 0.0:
            raise AssertionError("coupling blocks must be real")
        diag = sparse.diags(_coincidence_indicator(grid, a, b) / grid.h, format="csr")
        h_mat = h_mat + sparse.kron(sparse.csr_matrix(real_block), diag, format="csr")
    return h_mat.tocsr()


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
    of D is positive.  An exactly singular factor is not positive; it
    returns no operator.
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
    positive = bool(
        np.array_equal(lu.perm_r, lu.perm_c) and (lu.U.diagonal() > 0.0).all()
    )
    op = spla.LinearOperator(shifted.shape, matvec=lu.solve, dtype=shifted.dtype)
    return op, positive


def lowest_eigenvalues(
    a_mat: sparse.csr_matrix,
    k: int,
    seed: int = 0,
    maxiter: int | None = None,
) -> Eigenvalues:
    """k smallest eigenvalues of a sparse symmetric matrix.

    Shift-invert Lanczos on an L D L^T factor of A - sigma I (symmetric
    minimum-degree ordering, no pivoting; see ``_shift_invert``).  The shift
    is first max(g, 0) - 1 for the Gershgorin lower bound g: the sector
    matrices discretise (1/2){Q, Q^+} >= 0, so 0 is a floor and the shift
    sits close under the low spectrum.  The factor certifies that the shift
    lies below every eigenvalue (positive pivots, no pivoting); if it does
    not, the matrix is refactored at g - 1, which lies below the spectrum of
    any symmetric matrix.  The start vector is drawn from the seed, so
    identical inputs give bitwise-identical reports.  Raises ConvergenceError
    if no shift is certified, the solver fails or any residual exceeds 1e-8.
    """
    dim = a_mat.shape[0]
    if not 1 <= k <= dim - 1:
        raise ValueError(f"k must satisfy 1 <= k <= dim-1 = {dim - 1}, got {k}")
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
    v0 = np.random.default_rng(seed).standard_normal(dim)
    vals, vecs = _eigsh(
        a_mat, k, sigma=sigma, which="LM", OPinv=op, v0=v0, tol=0, maxiter=maxiter
    )
    order = np.argsort(vals)
    vals = vals[order]
    vecs = vecs[:, order]
    residuals = []
    for i in range(k):
        v = vecs[:, i]
        residuals.append(float(np.linalg.norm(a_mat @ v - vals[i] * v) / np.linalg.norm(v)))
    if max(residuals) > RESIDUAL_TOL:
        raise ConvergenceError(
            "eigenpair residual above tolerance",
            diagnostics={"residuals": residuals},
        )
    return Eigenvalues(tuple(float(v) for v in vals), tuple(residuals))


def sector_spectrum(
    grade: int, grid: Grid, sp: susy.Superpotential, k: int, seed: int = 0
) -> SpectrumReport:
    """Assemble one sector and solve for its k lowest eigenvalues."""
    mat = build_sector_matrix(grade, grid, sp)
    raw = lowest_eigenvalues(mat, k, seed=seed)
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


def lattice_q_diagnostic(grid: Grid, sp: susy.Superpotential, seed: int = 0) -> QDiagnosticReport:
    """Assemble a lattice supercharge and probe the algebra it generates.

    Q uses forward differences plus the diagonal chamber gradient (the sign
    function evaluates to 0 on coincidence nodes), so (1/2)(QQ^T + Q^TQ) is
    positive semidefinite by construction whatever the discretization error;
    Q^2, which vanishes in the continuum, survives only on grid points next
    to the coincidence line and is reported as a discretization diagnostic.
    """
    if grid.n != 2 or sp.n != 2:
        raise ValueError("the lattice supercharge diagnostic is a two-particle experiment")
    m = grid.points
    if 4 * m * m > MAX_UNKNOWNS:
        raise BudgetError("diagnostic grid too large")
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
    h_mat = 0.5 * (q_mat @ q_mat.T + q_mat.T @ q_mat)
    h_mat = 0.5 * (h_mat + h_mat.T)

    sigma = -0.1  # (1/2){Q, Q^T} is PSD by construction, so its factor must certify
    op, positive = _shift_invert(h_mat, sigma)
    if not positive:
        raise ConvergenceError(
            "(1/2){Q, Q^T} - sigma I is not positive definite", diagnostics={"sigma": sigma}
        )
    v0 = np.random.default_rng(seed).standard_normal(h_mat.shape[0])
    vals = _eigsh(
        h_mat, 1, sigma=sigma, which="LM", OPinv=op, v0=v0, return_eigenvectors=False
    )
    q2 = (q_mat @ q_mat).tocoo()
    q2.eliminate_zeros()
    band = 0
    if q2.nnz:
        for flat in np.concatenate([q2.row, q2.col]):
            g = int(flat) % (m * m)
            band = max(band, abs(g // m - g % m))
    q2_max = float(np.abs(q2.data).max()) if q2.nnz else 0.0
    return QDiagnosticReport(
        min_eigenvalue=float(vals[0]),
        q_squared_max=q2_max,
        q_squared_nnz=int(q2.nnz),
        band_width=band,
    )
