"""N=2 supersymmetric extension of the contact-interaction boson gas.

The superpotential is the pairwise absolute-distance sum

    W(x) = (c/2) * sum_{a<b} |x_a - x_b|,        c > 0,

whose gradient is chamber-constant: on a chamber, dW/dx_j = (c/2)(2 r_j - N - 1)
with r_j the rank of x_j in the ordering.  The supercharges act on
spinor-valued chamber functions as

    Q       = i sqrt(2) sum_j b_j      (d/dx_j + w_j),
    Q^dag   = i sqrt(2) sum_j b_j^dag  (d/dx_j - w_j),

with the normalized Fock modes of :mod:`slly.fock`; the sqrt(2) restores the
physical mode normalization (hbar = 1, mass 1/2) so that (1/2){Q, Q^dag}
equals -Laplacian + c^2 N(N^2-1)/12 on every chamber, with all delta-function
content carried by the interface matching conditions.  Eigen-statements are
therefore verified as bulk residuals per chamber plus generalized jump
residuals per wall, with the wall coupling equal to the grade block of the
exact Fock matrix Lambda_ab = 2c(I - n_a - n_b + hop).

Zero modes: exp(-W) times the top Fock state, and exp(-W) times the
alternating vector over the one-hole states.  Both are annihilated by Q and
Q^dag; one is bosonic and one fermionic under (-1)^F, so the constructed
Witten index is zero while supersymmetry stays unbroken.  Particle exchange
is E_ab = P_ab (x) Lambda_ab/(2c) (``exchange``): coordinate swap times the
fermionic mode swap.  Both zero modes are -1 under every E_ab, and grade-0
Bethe states are +1; E_ab commutes with Q and Q^dag, so a partner has the
sign of its source.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Literal, Mapping, NamedTuple, Sequence

import numpy as np

from . import bethe, fock
from . import piecewise as pw
from .errors import GradingError, SingletError

SQRT2 = math.sqrt(2.0)
ZERO_MODE_TOL = 1e-12
EIGENSTATE_TOL = 1e-10


@dataclass(frozen=True)
class Superpotential:
    """Pairwise |x_a - x_b| superpotential with positive strength c.

    c = 0 is admitted only as the free degenerate case (every sector becomes
    the free gas; useful for lattice cross-checks); attraction/repulsion is
    always carried by the sector, never by the sign of c.
    """

    n: int
    c: float

    def __post_init__(self):
        if not math.isfinite(self.c):
            raise ValueError(f"superpotential strength must be finite, got {self.c}")
        if self.c < 0:
            raise ValueError("superpotential strength must be nonnegative; "
                             "attraction/repulsion is carried by the sector")
        pw._guard_size(self.n)


def grad_w(region: pw.Region, j: int, sp: Superpotential) -> float:
    """Chamber value of dW/dx_j: (c/2)(2 rank(j) - N - 1)."""
    return 0.5 * sp.c * (2 * region.rank(j) - sp.n - 1)


def shift_constant(sp: Superpotential) -> float:
    """c^2 N(N^2 - 1)/12, the chamber-independent value of sum_j (dW/dx_j)^2.

    A c whose square overflows is a configuration error (ValueError).
    """
    try:
        c_squared = sp.c**2
    except OverflowError:
        raise ValueError(f"superpotential strength {sp.c} is too large: c^2 overflows") from None
    return c_squared * sp.n * (sp.n**2 - 1) / 12.0


# ---------------------------------------------------------------------------
# spinors and supercharges
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpinorFunction:
    """Map from Fock occupation masks to chamber functions (absent = zero); the
    components of a zero mode or of a ``random_spinor`` share one kappa table."""

    n: int
    components: Mapping[int, pw.RegionFunction]

    def grades(self) -> set[int]:
        return {mask.bit_count() for mask in self.components}

    def pure_grade(self) -> int:
        gs = self.grades()
        if len(gs) != 1:
            raise GradingError(f"spinor is not of pure grade (grades {sorted(gs)})")
        return gs.pop()

    def component(self, mask: int) -> pw.RegionFunction:
        return self.components.get(mask, pw.zero_function(self.n))


def spinor_from_scalar(f: pw.RegionFunction, mask: int) -> SpinorFunction:
    return SpinorFunction(n=f.n, components={mask: f})


def spinor_add(s: SpinorFunction, t: SpinorFunction) -> SpinorFunction:
    if s.n != t.n:
        raise ValueError("dimension mismatch")
    comps = dict(s.components)
    for mask, f in t.components.items():
        comps[mask] = pw.add(comps[mask], f) if mask in comps else f
    return _prune(SpinorFunction(s.n, comps))


def spinor_scale(s: SpinorFunction, z: complex) -> SpinorFunction:
    return SpinorFunction(s.n, {m: pw.scale(f, z) for m, f in s.components.items()})


def spinor_max_coefficient(s: SpinorFunction) -> float:
    """Largest coefficient magnitude of any component; NaN when any is NaN."""
    return pw.nan_max(pw.max_coefficient(f) for f in s.components.values())


def spinor_distance(s: SpinorFunction, t: SpinorFunction) -> float:
    return spinor_max_coefficient(spinor_add(s, spinor_scale(t, -1.0)))


def _prune(s: SpinorFunction) -> SpinorFunction:
    return SpinorFunction(s.n, {m: f for m, f in s.components.items() if f.terms})


def _check_particles(s: SpinorFunction, sp: Superpotential) -> None:
    if s.n != sp.n:
        raise ValueError(f"spinor of {s.n} particles under a superpotential of {sp.n}")


@lru_cache(maxsize=None)
def _rank_weights(n: int) -> np.ndarray:
    """2 rank(j) - N - 1 on every chamber of ``pw.regions(n)`` (rows) for every
    mode j (columns), so that ``grad_w`` is (c/2) times it."""
    return 2 * (np.argsort(np.array(pw.regions(n)), axis=1) + 1) - n - 1


#: a move's z = i sqrt(2) jw_sign, as (re, im): row 0 for jw_sign +1, row 1 for -1
_Z = np.array([(z.real, z.imag) for z in (1j * SQRT2 * 1, 1j * SQRT2 * -1)])


def _coefficients(
    flat: pw._Flat, kappas: np.ndarray, sp: Superpotential, sign: np.ndarray,
    term: np.ndarray, region: np.ndarray, j: np.ndarray, odd: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The image coefficient z (c kappa_j + c sgn w_j) of each entry, as (re, im):
    the term ``term`` of ``flat`` on the chamber ``pw.regions(n)[region]``, moved
    by mode ``j + 1`` with jw_sign -1 where ``odd``, sgn being ``sign`` (-1.0 for
    Q^dag); ``kappas`` is the kappa table as one array (``pw._kappa_array``).
    In this operand order (report bytes depend on it) and in CPython's complex
    arithmetic, bit for bit."""
    kappa = kappas[flat.ids[term], j]
    cr, ci = flat.re[term], flat.im[term]
    zr, zi = _Z[odd].T
    w = (0.5 * sp.c) * _rank_weights(sp.n)[region, j]  # grad_w
    wr, wi = pw._product(*pw._product(cr, ci, sign, 0.0), w, 0.0)
    kr, ki = pw._product(cr, ci, kappa.real, kappa.imag)
    return pw._product(zr, zi, kr + wr, ki + wi)


class _Images(NamedTuple):
    """Spinors as flat chambers (``pw._Flat``) on one kappa table: function k
    of ``flat`` is the component of mask ``labels[k][1]`` of the spinor
    ``labels[k][0]``.  The spinors come in order, and the components of
    each in its order."""

    table: tuple[pw.Kappa, ...]
    labels: list[tuple[int, int]]
    flat: pw._Flat


def _flat_spinors(spinors: Sequence[SpinorFunction], sp: Superpotential) -> _Images:
    """The components of the spinors on one kappa table (``pw.common_table``),
    flattened once (``pw._flatten``)."""
    for s in spinors:
        _check_particles(s, sp)
    table, chambers = pw.common_table([f for s in spinors for f in s.components.values()])
    labels = [(k, mask) for k, s in enumerate(spinors) for mask in s.components]
    return _Images(table, labels, pw._flatten(sp.n, chambers))


def _images(sources: _Images, jobs: Sequence[tuple[int, bool]], sp: Superpotential) -> _Images:
    """Q s, or Q^dag s if ``dagger``, of the spinor s numbered ``k`` in
    ``sources`` for every job ``(k, dagger)``, in array passes over the
    source terms of all jobs at once.  Spinor k of the images is job k's;
    they hold the sources' kappa table.

    A move is a job, a source mask and a mode j it may move; its image, in
    the job's target ``mask ^ bit_j``, maps each term c to z (c kappa_j + c
    sgn w_j) with z = i sqrt(2) jw_sign(mask, j) and sgn -1 under Q^dag, in
    this operand order (report bytes depend on it).  The images are summed
    as ``add`` would fold them into the targets one at a time, each job's
    moves in order (source masks, then ascending j), bit for bit.  Each
    (target, chamber, id) sums its entries in that order, at most one per
    move into the target and so at most N, in at most N vector rounds, one
    per entry:

    - an entry of magnitude at most ``DROP_TOL`` is skipped;
    - a sum of magnitude at most ``DROP_TOL`` drops, and a later entry starts
      it afresh;
    - a magnitude with finite parts that overflows raises ``OverflowError``,
      as ``abs`` does, whichever job it is in.

    A target is a (job, mask); targets come in the order moves first reach
    them, each target's chambers in ``pw.regions(n)`` order and each chamber
    in ascending id; the chain of ``add`` holds the same chambers, in
    another order.  The jobs share the sources' flat table, its kappa array
    (``pw._kappa_array``) and one move table; the passes (``pw._passes``)
    take whole targets, one pass unless they hold more than ``pw._PASS_SIZE``
    entries.
    """
    n, (table, labels, flat) = sp.n, sources
    targets: dict[tuple[int, int], int] = {}  # (job, target mask) -> its place
    moves: list[int] = []  # per move: source, j - 1, target, jw_sign < 0, dagger
    for k, (source, dagger) in enumerate(jobs):
        for f, (spinor, mask) in enumerate(labels):
            if spinor != source:
                continue
            for j in range(n):
                if bool(mask >> j & 1) != dagger:
                    t = targets.setdefault((k, mask ^ 1 << j), len(targets))
                    moves += (f, j, t, fock.jw_sign(mask, j + 1) < 0, dagger)
    move = np.fromiter(moves, np.intp, len(moves)).reshape(-1, 5)
    bound = np.concatenate(([0], flat.size.cumsum()))[np.concatenate(([0], flat.count.cumsum()))]
    start, size = bound[move[:, 0]], bound[move[:, 0] + 1] - bound[move[:, 0]]
    kappas = pw._kappa_array(table, n)
    order, made, parts = list(targets), [], []
    with pw._array_guard():
        for lo, hi in pw._passes(np.bincount(move[:, 2], size, len(targets)).cumsum()):
            at = ((move[:, 2] >= lo) & (move[:, 2] < hi)).nonzero()[0]
            present, part = _supercharge_pass(flat, table, kappas, sp, move[at], start[at], size[at])
            made += [order[t] for t in present.tolist()]
            parts.append(part)
    if len(parts) != 1:  # none, or several passes: one flat table of them all
        parts = [pw._Flat(*map(np.concatenate, zip(pw._flatten(n, []), *parts)))]
    return _Images(table, made, parts[0])


def _supercharges(
    jobs: Sequence[tuple[SpinorFunction, bool]], sp: Superpotential
) -> list[SpinorFunction]:
    """Q s, or Q^dag s if ``dagger``, of every job ``(s, dagger)``: ``_images``
    of the distinct sources, flattened once, made into spinors.  Every output
    component holds the one kappa table of the sources' components."""
    spinors = list({id(s): s for s, _ in jobs}.values())
    place = {id(s): k for k, s in enumerate(spinors)}
    table, labels, flat = _images(
        _flat_spinors(spinors, sp), [(place[id(s)], dagger) for s, dagger in jobs], sp)
    out: list[dict[int, pw.RegionFunction]] = [{} for _ in jobs]
    for (k, mask), f in pw._unflatten(sp.n, table, labels, flat).items():
        out[k][mask] = f
    return [SpinorFunction(sp.n, comps) for comps in out]


def _supercharge_pass(
    flat: pw._Flat, table: tuple[pw.Kappa, ...], kappas: np.ndarray, sp: Superpotential,
    moves: np.ndarray, start: np.ndarray, size: np.ndarray,
) -> tuple[np.ndarray, pw._Flat]:
    """The targets of ``moves``, which hold every move into each of them, their
    source terms being ``flat``'s ``start : start + size`` (see ``_images``):
    the targets that hold a term, and their held sums as flat chambers."""
    n, rows, n_regions = sp.n, len(table), len(pw.regions(sp.n))
    m_j, m_t, m_odd = moves[:, 1], moves[:, 2], moves[:, 3]
    m_sign = np.where(moves[:, 4], -1.0, 1.0)
    # the entries: each move's source terms, sorted by (target, chamber, id)
    # and stably, so each such group holds its entries in move order
    term, move = pw._runs(start, size)
    if not len(term):
        return np.zeros(0, dtype=np.intp), pw._flatten(n, [])
    where = flat.where[np.arange(len(flat.size)).repeat(flat.size)[term]]
    key = (m_t[move] * n_regions + where) * rows + flat.ids[term]
    order = key.argsort(kind="stable")
    key, term, move, where = key[order], term[order], move[order], where[order]
    er, ei = _coefficients(flat, kappas, sp, m_sign[move], term, where, m_j[move], m_odd[move])
    mag = pw._magnitude(er, ei)
    over = np.count_nonzero(pw._overflowed(mag, er, ei))
    live = pw._kept(mag)
    new = np.diff(key, prepend=-1) != 0  # the first entry of each group
    head, group = new.nonzero()[0], new.cumsum() - 1
    rank = np.arange(len(key)) - head[group]  # the entry's place in its group
    vr, vi, on = er[head], ei[head], live[head]
    for r in range(1, int(rank.max()) + 1):
        e = (rank == r).nonzero()[0]
        g = group[e]
        xr, xi, add, was = er[e], ei[e], live[e], on[g]
        tr = np.where(was, vr[g] + xr, xr)
        ti = np.where(was, vi[g] + xi, xi)
        total = pw._magnitude(tr, ti)
        summed = add & was
        over += np.count_nonzero(summed & pw._overflowed(total, tr, ti))
        on[g] = np.where(summed, pw._kept(total), was | add)
        vr[g], vi[g] = np.where(add, tr, vr[g]), np.where(add, ti, vi[g])
    if over:
        raise OverflowError("absolute value too large")
    # the held sums, in (target, chamber, id) order: each run of one
    # (target, chamber) is a chamber
    held = on.nonzero()[0]
    slot, ids = np.divmod(key[head[held]], rows)
    first = np.flatnonzero(np.diff(slot, prepend=-1))
    target, region = np.divmod(slot[first], n_regions)
    per_target = np.bincount(target)
    present = per_target.nonzero()[0]
    return present, pw._Flat(per_target[present], region, np.diff(first, append=len(slot)), ids,
                             vr[held], vi[held])


def apply_q(s: SpinorFunction, sp: Superpotential) -> SpinorFunction:
    """Q = i sqrt(2) sum_j b_j (d_j + w_j); lowers the grade by one."""
    return _supercharges([(s, False)], sp)[0]


def apply_q_dagger(s: SpinorFunction, sp: Superpotential) -> SpinorFunction:
    """Q^dag = i sqrt(2) sum_j b_j^dag (d_j - w_j); raises the grade by one."""
    return _supercharges([(s, True)], sp)[0]


# ---------------------------------------------------------------------------
# the checks' reductions, on flat images
# ---------------------------------------------------------------------------

class _Slots(NamedTuple):
    """Coefficients of spinors on one kappa table, each at its slot (``_slots``)."""

    slot: np.ndarray
    re: np.ndarray
    im: np.ndarray


def _slots(images: _Images, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The spinor and the slot of each coefficient of ``images``: on chamber
    ``pw.regions(n)[r]`` of the component of mask m, the id i has the slot
    (m N! + r) rows + i, rows being the length of the kappa table."""
    table, labels, flat = images
    label = np.array(labels, dtype=np.intp).reshape(-1, 2).repeat(flat.count, axis=0)
    slot = (label[:, 1] * len(pw.regions(n)) + flat.where).repeat(flat.size) * len(table) + flat.ids
    return label[:, 0].repeat(flat.size), slot


def _magnitudes(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """``abs`` of each coefficient (``pw._magnitude``), raising ``OverflowError``
    where ``abs`` does."""
    size = pw._magnitude(re, im)
    if pw._overflowed(size, re, im).any():
        raise OverflowError("absolute value too large")
    return size


def _max_coefficients(images: _Images, count: int) -> list[float]:
    """``spinor_max_coefficient`` of each of the first ``count`` spinors of
    ``images``: NaN once any magnitude is NaN (``np.maximum``, as ``pw.nan_max``),
    0.0 for none."""
    flat = images.flat
    spinor = np.array([k for k, _ in images.labels], dtype=np.intp).repeat(flat.count)
    out = np.zeros(count)
    with pw._array_guard():
        np.maximum.at(out, spinor.repeat(flat.size), _magnitudes(flat.re, flat.im))
    return out.tolist()


def _mapped(x: _Slots, re: np.ndarray, im: np.ndarray) -> _Slots:
    """The slots of x holding the coefficients (re, im) instead, those of
    magnitude at most ``DROP_TOL`` dropped, as ``pw.map_coefficients`` does."""
    keep = pw._kept(_magnitudes(re, im))
    return _Slots(x.slot[keep], re[keep], im[keep])


def _scaled(x: _Slots, z: float) -> _Slots:
    """``pw.scale`` by the float z, which CPython multiplies as complex(z, 0.0)."""
    return _mapped(x, *pw._product(z, 0.0, x.re, x.im))


def _add(x: _Slots, y: _Slots) -> _Slots:
    """x + y as ``pw.add`` of their components: a slot both hold sums x's
    coefficient and y's, in that order, and drops at magnitude at most
    ``DROP_TOL``; any other slot passes through."""
    slot = np.concatenate((x.slot, y.slot))
    order = slot.argsort(kind="stable")  # in a slot both hold, x's first
    slot = slot[order]
    re, im = np.concatenate((x.re, y.re))[order], np.concatenate((x.im, y.im))[order]
    pair = (slot[1:] == slot[:-1]).nonzero()[0]
    re[pair] += re[pair + 1]
    im[pair] += im[pair + 1]
    keep = np.ones(len(slot), dtype=bool)
    keep[pair] = pw._kept(_magnitudes(re[pair], im[pair]))
    keep[pair + 1] = False
    return _Slots(slot[keep], re[keep], im[keep])


def _half_anticommutator(images: _Images, n: int) -> _Slots:
    """(1/2)(Q Q^dag s + Q^dag Q s), from spinors 0 and 1 of ``images``, as
    ``spinor_scale(spinor_add(...), 0.5)``."""
    spinor, slot = _slots(images, n)
    parts = [_Slots(slot[at], images.flat.re[at], images.flat.im[at])
             for at in (spinor == 0, spinor == 1)]
    return _scaled(_add(*parts), 0.5)


def _bulk_hamiltonian(source: _Images, shift: float, n: int) -> _Slots:
    """(-Laplacian + shift) s of the one spinor of ``source``, as
    ``pw.add(pw.scale(pw.laplacian(f), -1.0), pw.scale(f, shift))`` of each
    component f.  Laplacian's factor sum kappa_j^2 is read off the common
    table, whose kappa may differ from f's own in the sign of a zero; that
    changes signed zeros only, which no magnitude reads."""
    table, _, flat = source
    s = _Slots(_slots(source, n)[1], flat.re, flat.im)
    factor = np.array([sum(map(operator.mul, k, k)) for k in table], dtype=complex)[flat.ids]
    laplacian = _mapped(s, *pw._product(s.re, s.im, factor.real, factor.imag))
    return _add(_scaled(laplacian, -1.0), _scaled(s, shift))


# ---------------------------------------------------------------------------
# sector Hamiltonians and eigen-verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SectorHamiltonian:
    """Grade-n block of the super-Hamiltonian as bulk-plus-coupling data.

    Bulk operator: -Laplacian + shift, acting componentwise; one coupling
    matrix per particle pair, applied on the wall x_a = x_b through the
    derivative-jump condition.  Basis order inside the grade is the fixed
    Fock order (ascending mask).
    """

    n: int
    grade: int
    c: float
    shift: float
    couplings: Mapping[tuple[int, int], np.ndarray]
    masks: tuple[int, ...]

    def block(self, a: int, b: int) -> np.ndarray:
        return self.couplings[(a, b)]


@lru_cache(maxsize=None)
def _unit_blocks(n: int, grade: int) -> tuple[tuple[tuple[int, int], np.ndarray], ...]:
    """Read-only grade blocks of Lambda_ab / (2c) for every pair a < b.

    They do not depend on c, so the sparse products and the Fermi-number
    check of ``fock.grade_project`` run once per (n, grade).
    """
    out = []
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            block = fock.grade_project(fock.delta_coupling_unit(a, b, n), grade)
            block.flags.writeable = False
            out.append(((a, b), block))
    return tuple(out)


def sector_hamiltonian(grade: int, sp: Superpotential) -> SectorHamiltonian:
    """Assemble the grade block: shift constant plus one Lambda block per pair.

    Each block is a new array: the cached unit block times 2c, the same one
    multiply per entry that ``fock.delta_coupling`` does on the sparse matrix,
    plus 0.0 because ``toarray`` accumulates into zeros (so -0.0 reads 0.0).
    """
    if not 0 <= grade <= sp.n:
        raise ValueError(f"grade {grade} out of range 0..{sp.n}")
    shift = shift_constant(sp)  # refuses a c whose square overflows before 2c is formed
    couplings = {
        pair: block * (2.0 * sp.c) + 0.0 for pair, block in _unit_blocks(sp.n, grade)
    }
    masks = tuple(fock.fock_basis(sp.n)[fock.grade_slice(sp.n, grade)])
    return SectorHamiltonian(
        n=sp.n, grade=grade, c=sp.c, shift=shift, couplings=couplings, masks=masks
    )


@dataclass(frozen=True)
class EigenstateReport:
    grade: int
    energy: float
    bulk_residual: float
    interface_residual: float
    tol: float

    @property
    def accepted(self) -> bool:
        return self.bulk_residual <= self.tol and self.interface_residual <= self.tol


def verify_eigenstate(s: SpinorFunction, e: float, sp: Superpotential) -> EigenstateReport:
    """Check H s = E s as bulk-per-chamber plus jump-per-wall residuals.

    Bulk: every exponential term must satisfy -sum_j kappa_j^2 + shift = E,
    checked once per kappa that components on one table use.
    Walls: the component vector in the grade basis must satisfy the
    derivative-jump condition with the grade block of Lambda_ab.  Inputs with
    discontinuous components are rejected outright, and so is a spinor whose
    particle count is not the superpotential's.
    """
    _check_particles(s, sp)
    grade = s.pure_grade()
    sector = sector_hamiltonian(grade, sp)
    shift = sector.shift

    # each kappa table once, with the ids its components use: a zero mode's
    # components share one table and use the same ids
    used: dict[int, tuple[tuple[pw.Kappa, ...], set[int]]] = {}
    for f in s.components.values():
        used.setdefault(id(f.kappas), (f.kappas, set()))[1].update(
            i for ts in f.terms.values() for i, _ in ts)
    bulk = pw.nan_max(bethe.kappa_energy_residual(table[i], e - shift)
                      for table, ids in used.values() for i in sorted(ids))

    comps = [s.component(mask) for mask in sector.masks]
    wall = pw.matching_residuals(comps, sector.couplings)[1]
    return EigenstateReport(
        grade=grade, energy=e, bulk_residual=bulk, interface_residual=wall, tol=EIGENSTATE_TOL
    )


# ---------------------------------------------------------------------------
# zero modes, census, partners
# ---------------------------------------------------------------------------

def _alternating(psi: pw.RegionFunction, n: int) -> SpinorFunction:
    full = (1 << n) - 1
    comps = {}
    for j in range(1, n + 1):
        comps[full ^ (1 << (j - 1))] = pw.scale(psi, float((-1) ** (j - 1)))
    return SpinorFunction(n=n, components=comps)


def zero_modes(sp: Superpotential) -> tuple[SpinorFunction, SpinorFunction]:
    """The two zero modes ``(top, alternating)``, built from one exp(-W).

    ``top`` is exp(-W) on the fully occupied Fock state.  ``alternating`` is
    exp(-W) times the alternating one-hole vector, at grade N-1: the
    component on the state missing mode j carries sign (-1)^{j-1}.  It is
    the unique (up to scale) grade-(N-1) vector killed by both supercharges,
    because sum_j w_j vanishes on every chamber while any other weighting
    meets the full rank of the chamber-wise gradient values.  Both are
    annihilated by Q and Q^dag.
    """
    if sp.n < 2:
        raise ValueError("zero modes are constructed for N >= 2")
    if sp.c == 0:
        raise ValueError("zero modes need c > 0: at c = 0 exp(-W) is constant, not normalisable")
    psi = bethe.nmer_ground(sp.n, sp.c)
    return spinor_from_scalar(psi, (1 << sp.n) - 1), _alternating(psi, sp.n)


@dataclass(frozen=True)
class ZeroModeRecord:
    grade: int
    q_residual: float
    q_dagger_residual: float
    klein_parity: int


@dataclass(frozen=True)
class WittenCensus:
    """Count of constructed zero modes by (-1)^F parity.

    Only the two explicitly constructed modes enter, so the census is a lower
    bound on the kernel; continuous-spectrum spectral asymmetries are outside
    its scope.  Every mode is listed with its residuals, but one counts in
    ``n_b`` or ``n_f`` only if Q and Q^dag annihilate it to ZERO_MODE_TOL.
    """

    modes: tuple[ZeroModeRecord, ...]
    n_b: int
    n_f: int
    index: int
    completeness: str = "lower_bound"

    @property
    def passed(self) -> bool:
        """Both modes annihilated, one bosonic and one fermionic: index 0."""
        return self.index == 0 and self.n_b == 1 and self.n_f == 1


def annihilation_residuals(s: SpinorFunction, sp: Superpotential) -> tuple[float, float]:
    """Max coefficients of Q s and Q^dag s (``spinor_max_coefficient``), applied
    in one pass and read off its flat images (``_max_coefficients``)."""
    return tuple(_max_coefficients(_images(_flat_spinors([s], sp), [(0, False), (0, True)], sp), 2))


def witten_census(sp: Superpotential) -> WittenCensus:
    """Classify the two constructed zero modes by Klein parity.

    Q and Q^dag of both modes run in one pass, and their residuals, as
    ``annihilation_residuals`` gives them, are read off its flat images.  A
    mode that fails the annihilation check (a NaN residual included) is
    recorded but not counted, so the census fails (``passed``).
    """
    modes = zero_modes(sp)
    jobs = [(k, dagger) for k in range(len(modes)) for dagger in (False, True)]
    residuals = _max_coefficients(_images(_flat_spinors(modes, sp), jobs, sp), len(jobs))
    records, counted = [], []
    for mode, rq, rqd in zip(modes, residuals[::2], residuals[1::2]):
        grade = mode.pure_grade()
        if rq < ZERO_MODE_TOL and rqd < ZERO_MODE_TOL:
            counted.append((-1) ** grade)
        records.append(
            ZeroModeRecord(
                grade=grade,
                q_residual=rq,
                q_dagger_residual=rqd,
                klein_parity=(-1) ** grade,
            )
        )
    n_b, n_f = counted.count(1), counted.count(-1)
    return WittenCensus(modes=tuple(records), n_b=n_b, n_f=n_f, index=n_b - n_f)


def infer_energy(s: SpinorFunction, sp: Superpotential) -> float:
    """Bulk eigenvalue -sum kappa^2 + shift read off the first term."""
    for f in s.components.values():
        for ts in f.terms.values():
            for i, _ in ts:
                val = -sum(k * k for k in f.kappas[i]) + shift_constant(sp)
                return val.real
    raise ValueError("cannot infer energy of the zero spinor")


@dataclass(frozen=True)
class PartnerResult:
    state: SpinorFunction
    energy: float
    report: EigenstateReport
    singlet: bool


def susy_partner(
    s: SpinorFunction, direction: Literal["raise", "lower"], sp: Superpotential
) -> PartnerResult:
    """Map a verified eigenstate to its superpartner at the same energy.

    raise -> Q^dag (grade + 1, refused from the top grade), lower -> Q (grade - 1,
    refused from grade 0).  Zero modes are SUSY singlets and rejected; a vanishing
    image on a positive-energy state is reported as a singlet rather than an error.
    """
    if direction not in ("raise", "lower"):
        raise ValueError("direction must be 'raise' or 'lower'")
    e = infer_energy(s, sp)
    grade = s.pure_grade()
    if direction == "raise" and grade == sp.n:
        raise ValueError(f"Q^dag vanishes on the top grade {grade}; use direction 'lower'")
    if direction == "lower" and grade == 0:
        raise ValueError("Q vanishes on grade 0; use direction 'raise'")
    src = verify_eigenstate(s, e, sp)
    if not src.accepted:
        raise ValueError(
            f"input is not a verified eigenstate (bulk {src.bulk_residual:.3e}, "
            f"interface {src.interface_residual:.3e})"
        )
    if e <= 1e-10:
        raise SingletError("zero modes are supersymmetry singlets and have no partner")
    partner = apply_q_dagger(s, sp) if direction == "raise" else apply_q(s, sp)
    if spinor_max_coefficient(partner) <= 1e-13:
        return PartnerResult(state=partner, energy=e, report=src, singlet=True)
    rep = verify_eigenstate(partner, e, sp)
    return PartnerResult(state=partner, energy=e, report=rep, singlet=False)


# ---------------------------------------------------------------------------
# algebra checks
# ---------------------------------------------------------------------------

class AlgebraResiduals(NamedTuple):
    q_squared: float
    q_dagger_squared: float
    anticommutator: float


def algebra_residuals(s: SpinorFunction, sp: Superpotential) -> AlgebraResiduals:
    """Residuals of Q Q s = 0, Q^dag Q^dag s = 0 and (1/2){Q, Q^dag} s = (-Laplacian + shift) s.

    Delta-function content lives only on the walls and is invisible to the
    per-chamber coefficient algebra, which is exactly why the identity closes
    without interface terms.  Two passes of ``_images`` serve all three: Q s
    and Q^dag s, then, from those flat images, Q Q^dag s, Q^dag Q s, Q Q s
    and Q^dag Q^dag s.  No image is made into a function: the residuals
    are reduced on the one kappa table of s's components, slot by slot
    (mask, chamber, id), through the steps of the chain

        lhs = spinor_scale(spinor_add(Q Q^dag s, Q^dag Q s), 0.5)
        rhs = pw.add(pw.scale(pw.laplacian(f), -1.0), pw.scale(f, shift)) per component f
        anticommutator = spinor_distance(lhs, rhs)

    and ``spinor_max_coefficient`` of Q Q s and Q^dag Q^dag s, in their
    operand order and with their drops and overflows, so that each residual
    is the chain's, bit for bit, and so is its failure.
    """
    source = _flat_spinors([s], sp)
    first = _images(source, [(0, False), (0, True)], sp)  # Q s, Q^dag s
    try:
        shift = shift_constant(sp)
    except ValueError:
        # refused after Q Q^dag s + Q^dag Q s is summed, before Q Q s is formed,
        # so an overflow in that sum comes first (its halving adds none)
        with pw._array_guard():
            _half_anticommutator(_images(first, [(1, False), (0, True)], sp), sp.n)
        raise
    second = _images(first, [(1, False), (0, True), (0, False), (1, True)], sp)
    with pw._array_guard():
        lhs = _half_anticommutator(second, sp.n)
        distance = _add(lhs, _scaled(_bulk_hamiltonian(source, shift, sp.n), -1.0))
        anticommutator = float(np.max(_magnitudes(distance.re, distance.im), initial=0.0))
    q_squared, q_dagger_squared = _max_coefficients(second, 4)[2:]
    return AlgebraResiduals(q_squared, q_dagger_squared, anticommutator)


def random_spinor(
    sp: Superpotential,
    rng: np.random.Generator,
    grade: int | None = None,
    terms_per_region: int = 2,
) -> SpinorFunction:
    """Random canonical spinor for fuzzing the algebra checks.

    Components populate every mask of the requested grade (or a random
    nonempty set of masks), each holding the given number of random complex
    exponentials on every chamber.  One ``standard_normal`` call draws them in
    mask, chamber, term order (coefficient, then kappa; real, then imaginary
    part), and the components share one kappa table (``pw.build_shared``),
    the one ``pw.common_table`` gives them built one by one.
    """
    masks = fock.fock_basis(sp.n)
    if grade is not None:
        chosen = [m for m in masks if m.bit_count() == grade]
    else:
        chosen = [m for m in masks if rng.random() < 0.5] or [int(rng.integers(0, len(masks)))]
    chambers = pw.regions(sp.n)
    draws = rng.standard_normal((len(chosen), len(chambers), terms_per_region, 2 * sp.n + 2))
    funcs = pw.build_shared(sp.n, [
        {r: [(t[0], tuple(t[1:])) for t in raw] for r, raw in zip(chambers, comp)}
        for comp in draws.view(complex).tolist()
    ])
    return SpinorFunction(n=sp.n, components=dict(zip(chosen, funcs)))


# ---------------------------------------------------------------------------
# particle exchange
# ---------------------------------------------------------------------------

def exchange(s: SpinorFunction, a: int, b: int) -> SpinorFunction:
    """E_ab = P_ab (x) Lambda_ab/(2c), the exchange of particles a < b.

    P_ab swaps x_a and x_b in every component (``pw.transpose``).  The
    fermionic mode swap Lambda_ab/(2c) is a signed permutation of each
    grade's masks, read off the cached ``_unit_blocks``.  E_ab is an
    involution and commutes with Q and Q^dag.
    """
    pw._guard_pair(s.n, a, b)
    out = {}
    for mask, f in s.components.items():
        grade = mask.bit_count()
        masks = fock.fock_basis(s.n)[fock.grade_slice(s.n, grade)]
        column = dict(_unit_blocks(s.n, grade))[a, b][:, masks.index(mask)]
        row = int(np.flatnonzero(column)[0])
        g = pw.transpose(f, a, b)
        out[masks[row]] = g if column[row] == 1 else pw.scale(g, -1.0)
    return SpinorFunction(s.n, out)
