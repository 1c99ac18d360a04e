"""Finite fermionic Fock space of N modes as exact sparse matrices.

Basis states are subsets of {1..N} encoded as bit masks (bit j-1 <-> mode j),
ordered grade-major (by occupation count) and, within a grade, by ascending
mask value -- equivalently by lexicographic order of the descending index
lists.  The mode operators use the Jordan-Wigner sign counting occupied
indices *below* the acted mode:

    b_j |S> = (-1)^{#(i in S, i < j)} |S \\ {j}>      (0 if j not in S),

and creation is the exact adjoint.  All matrix entries are small Gaussian
integers (times the coupling for the delta-coupling matrices), so every
algebraic identity checked downstream -- canonical anticommutation relations,
Clifford relations, so(N) brackets -- holds exactly in floating point, with
zero tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sparse

from .errors import GradingError

MAX_MODES = 12
MAX_GAMMA_MODES = 10


@lru_cache(maxsize=None)
def fock_basis(n_modes: int) -> tuple[int, ...]:
    """All 2^N occupation masks, grade-major then ascending mask value."""
    _guard_modes(n_modes)
    return tuple(sorted(range(1 << n_modes), key=lambda m: (m.bit_count(), m)))


@lru_cache(maxsize=None)
def basis_index(n_modes: int) -> dict[int, int]:
    return {mask: i for i, mask in enumerate(fock_basis(n_modes))}


@lru_cache(maxsize=None)
def grade_slice(n_modes: int, grade: int) -> slice:
    """Index range of the grade block in the fixed basis order."""
    if not 0 <= grade <= n_modes:
        raise ValueError(f"grade {grade} out of range 0..{n_modes}")
    start = sum(math.comb(n_modes, g) for g in range(grade))
    return slice(start, start + math.comb(n_modes, grade))


def jw_sign(mask: int, j: int) -> int:
    """(-1)^{number of occupied modes with index < j}."""
    return -1 if (mask & ((1 << (j - 1)) - 1)).bit_count() & 1 else 1


def _guard_modes(n_modes: int) -> None:
    if not 1 <= n_modes <= MAX_MODES:
        raise ValueError(f"mode count {n_modes} outside supported range 1..{MAX_MODES}")


def _guard_mode_index(j: int, n_modes: int) -> None:
    if not 1 <= j <= n_modes:
        raise ValueError(f"mode index {j} out of range 1..{n_modes}")


@dataclass(frozen=True, eq=False)
class FockOperator:
    """Sparse operator on the 2^N fermionic Fock space in the fixed basis."""

    n_modes: int
    mat: sparse.csr_matrix

    @property
    def dim(self) -> int:
        return 1 << self.n_modes

    def __matmul__(self, other: "FockOperator") -> "FockOperator":
        return FockOperator(self.n_modes, (self.mat @ other.mat).tocsr())

    def __add__(self, other: "FockOperator") -> "FockOperator":
        return FockOperator(self.n_modes, (self.mat + other.mat).tocsr())

    def __sub__(self, other: "FockOperator") -> "FockOperator":
        return FockOperator(self.n_modes, (self.mat - other.mat).tocsr())

    def __mul__(self, z: complex) -> "FockOperator":
        return FockOperator(self.n_modes, (self.mat * z).tocsr())

    __rmul__ = __mul__

    def __neg__(self) -> "FockOperator":
        return self * (-1.0)

    def adjoint(self) -> "FockOperator":
        return FockOperator(self.n_modes, self.mat.conjugate().transpose().tocsr())

    def is_exactly(self, other: "FockOperator") -> bool:
        diff = (self.mat - other.mat).tocsr()
        diff.eliminate_zeros()
        return diff.nnz == 0

    def is_zero(self) -> bool:
        m = self.mat.copy()
        m.eliminate_zeros()
        return m.nnz == 0

    def dense(self) -> np.ndarray:
        return self.mat.toarray()


def _from_entries(n_modes: int, rows, cols, vals) -> FockOperator:
    dim = 1 << n_modes
    mat = sparse.coo_matrix((vals, (rows, cols)), shape=(dim, dim), dtype=complex).tocsr()
    return FockOperator(n_modes, mat)


def identity(n_modes: int) -> FockOperator:
    _guard_modes(n_modes)
    return FockOperator(n_modes, sparse.identity(1 << n_modes, dtype=complex, format="csr"))


def zero_operator(n_modes: int) -> FockOperator:
    dim = 1 << n_modes
    return FockOperator(n_modes, sparse.csr_matrix((dim, dim), dtype=complex))


def annihilation(j: int, n_modes: int) -> FockOperator:
    """Normalized mode annihilator b_j, {b_j, b_k^dag} = delta_jk exactly."""
    _guard_modes(n_modes)
    _guard_mode_index(j, n_modes)
    idx = basis_index(n_modes)
    bit = 1 << (j - 1)
    rows, cols, vals = [], [], []
    for mask, col in idx.items():
        if mask & bit:
            rows.append(idx[mask ^ bit])
            cols.append(col)
            vals.append(float(jw_sign(mask, j)))
    return _from_entries(n_modes, rows, cols, vals)


def creation(j: int, n_modes: int) -> FockOperator:
    """b_j^dag, the exact entrywise adjoint of annihilation(j)."""
    return annihilation(j, n_modes).adjoint()


def anticommutator(a: FockOperator, b: FockOperator) -> FockOperator:
    return a @ b + b @ a


def commutator(a: FockOperator, b: FockOperator) -> FockOperator:
    return a @ b - b @ a


def number_operator(j: int, n_modes: int) -> FockOperator:
    """n_j = b_j^dag b_j (diagonal 0/1)."""
    b = annihilation(j, n_modes)
    return b.adjoint() @ b


def _diagonal(n_modes: int, values) -> FockOperator:
    return FockOperator(
        n_modes, sparse.diags([complex(v) for v in values], format="csr", dtype=complex)
    )


def fermi_number(n_modes: int) -> FockOperator:
    """F = sum_j b_j^dag b_j; diagonal with integer eigenvalue = grade."""
    _guard_modes(n_modes)
    return _diagonal(n_modes, (m.bit_count() for m in fock_basis(n_modes)))


def bose_number(n_modes: int) -> FockOperator:
    """B = sum_j b_j b_j^dag; diagonal with eigenvalue N - grade."""
    _guard_modes(n_modes)
    return _diagonal(n_modes, (n_modes - m.bit_count() for m in fock_basis(n_modes)))


def klein_f(n_modes: int) -> FockOperator:
    """K_F = (-1)^F, the grading (Klein) operator."""
    _guard_modes(n_modes)
    return _diagonal(n_modes, ((-1.0) ** m.bit_count() for m in fock_basis(n_modes)))


def klein_b(n_modes: int) -> FockOperator:
    """K_B = (-1)^{N-F}."""
    _guard_modes(n_modes)
    return _diagonal(n_modes, ((-1.0) ** (n_modes - m.bit_count()) for m in fock_basis(n_modes)))


def gamma_matrices(n_modes: int) -> list[FockOperator]:
    """2N Hermitian generators of the Euclidean Clifford algebra of R^{2N}:
    gamma^j = b_j + b_j^dag,  gamma^{N+j} = i(b_j - b_j^dag)."""
    if not 1 <= n_modes <= MAX_GAMMA_MODES:
        raise ValueError(f"gamma construction supports 1..{MAX_GAMMA_MODES} modes")
    first, second = [], []
    for j in range(1, n_modes + 1):
        b = annihilation(j, n_modes)
        bd = b.adjoint()
        first.append(b + bd)
        second.append((b - bd) * 1j)
    return first + second


def spin_operator(k: int, l: int, n_modes: int) -> FockOperator:
    """so(N) generator S_kl = -i (b_k^dag b_l - b_l^dag b_k), k != l.

    Satisfies [S_kl, b_j] = i(delta_kj b_l - delta_lj b_k) and acts as zero on
    the empty and full grades.
    """
    if k == l:
        raise ValueError("spin operator needs k != l")
    _guard_mode_index(k, n_modes)
    _guard_mode_index(l, n_modes)
    bk = annihilation(k, n_modes)
    bl = annihilation(l, n_modes)
    return (bk.adjoint() @ bl - bl.adjoint() @ bk) * (-1j)


def delta_coupling(a: int, b: int, c: float, n_modes: int) -> FockOperator:
    """Fock-space coefficient of delta(x_a - x_b) in the super-Hamiltonian:

        Lambda_ab = 2c (I - n_a - n_b + b_a^dag b_b + b_b^dag b_a),    a < b.

    Hermitian, commutes with the Fermi number, squares to (2c)^2 I; acts as
    +2c on the empty pair / symmetric hop and -2c on the full pair /
    antisymmetric hop (multiplicity 2^{N-1} each).
    """
    return delta_coupling_unit(a, b, n_modes) * (2.0 * c)


def delta_coupling_unit(a: int, b: int, n_modes: int) -> FockOperator:
    """Lambda_ab / (2c) = I - n_a - n_b + b_a^dag b_b + b_b^dag b_a, which does not depend on c."""
    if not a < b:
        raise ValueError("delta coupling needs ordered pair a < b")
    _guard_mode_index(b, n_modes)
    ba = annihilation(a, n_modes)
    bb = annihilation(b, n_modes)
    return (
        identity(n_modes)
        - ba.adjoint() @ ba
        - bb.adjoint() @ bb
        + ba.adjoint() @ bb
        + bb.adjoint() @ ba
    )


def grade_project(op: FockOperator, grade: int) -> np.ndarray:
    """Dense grade-n diagonal block of a grade-preserving operator.

    Raises GradingError if the operator fails to commute with the Fermi
    number exactly.
    """
    f = fermi_number(op.n_modes)
    if not commutator(op, f).is_zero():
        raise GradingError("operator does not commute with the Fermi number")
    block = grade_slice(op.n_modes, grade)
    return op.mat[block, block].toarray()
