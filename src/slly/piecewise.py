"""Exact calculus for piecewise-exponential functions on ordering chambers.

The coincidence hyperplanes x_a = x_b cut R^N into N! open chambers, one per
ordering permutation of the coordinates.  Every function handled here is, on
each chamber, a finite sum

    sum_t  coef_t * exp(kappa_t . x),        coef_t, kappa_t complex,

so differentiation, restriction to a chamber wall and the delta-potential
matching conditions (continuity of the function, prescribed jump of the
normal derivative) all reduce to exact coefficient arithmetic.  No quadrature
or discretisation enters anywhere in this module.

Storage: a function holds one kappa table, its distinct kappas sorted by
``_sort_key``, and each chamber holds ``(id, coef)`` pairs in ascending id,
an id being a position in the table.  A Bethe state holds the same N!
kappas on each of its N! chambers, so it stores them once.  Kappa identity
is decided only where a table is made (``build``, ``_union``); every other
operation works on ids.

Floating-point canonicalisation rules: every kappa is finite (``build``
refuses any other); two kappa vectors are identified when they are equal
componentwise, and a function keeps one representative of them, the first
kept (so kappas differing only in the sign of a zero share one); terms whose
coefficient magnitude is at most ``DROP_TOL`` are discarded.  Points within
``HYPERPLANE_GAP`` of a hyperplane cannot be evaluated (the calculus defines
hyperplane values only through one-sided limits).
"""

from __future__ import annotations

import cmath
import contextlib
import itertools
import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Hashable, Iterable, Iterator, Literal, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import AmbiguousPointError, DiscontinuityError

DROP_TOL = 1e-14
HYPERPLANE_GAP = 1e-9
MAX_PARTICLES = 10

#: continuity threshold required of inputs to the jump condition
JUMP_CONTINUITY_TOL = 1e-10


#: a kappa vector, one complex entry per coordinate
Kappa = tuple[complex, ...]
#: a chamber: (id, coef) pairs in ascending id, ids indexing the kappa table
Chamber = tuple[tuple[int, complex], ...]


class Region(tuple):
    """Ordering chamber of R^N labelled by a permutation.

    ``Region((s_1, ..., s_N))`` means x_{s_1} < x_{s_2} < ... < x_{s_N};
    particle labels are 1-based.  A region is that permutation as a tuple,
    so it hashes, compares and orders as the tuple does.
    """

    __slots__ = ()

    def __new__(cls, order: Iterable[int]) -> "Region":
        self = super().__new__(cls, order)
        n = len(self)
        if sorted(self) != list(range(1, n + 1)):
            raise ValueError(f"order {tuple(self)} is not a permutation of 1..{n}")
        return self

    @property
    def order(self) -> tuple[int, ...]:
        """The permutation (s_1, ..., s_N): the region itself."""
        return self

    @property
    def n(self) -> int:
        return len(self)

    def rank(self, j: int) -> int:
        """1-based position of particle j in the ordering (1 = leftmost)."""
        return self.index(j) + 1

    def sign(self, a: int, b: int) -> int:
        """Sign of x_a - x_b on this chamber (+1 iff x_a > x_b)."""
        if a == b:
            raise ValueError("sign of x_a - x_b needs a != b")
        return 1 if self.rank(a) > self.rank(b) else -1

    def swap_adjacent(self, slot: int) -> "Region":
        """Neighbouring chamber across the wall between ranks slot, slot+1 (0-based slot)."""
        o = list(self)
        o[slot], o[slot + 1] = o[slot + 1], o[slot]
        return Region(o)


@dataclass(frozen=True)
class Interface:
    """Wall x_a = x_b between two chambers that differ by one adjacent swap.

    Orientation convention: on ``left`` x_a < x_b, on ``right`` x_a > x_b,
    so "right" is the x_a - x_b -> 0+ side of the wall.
    """

    left: Region
    right: Region
    pair: tuple[int, int]

    def __post_init__(self):
        a, b = self.pair
        if not a < b:
            raise ValueError("interface pair must be ordered a < b")
        if self.left.sign(a, b) != -1 or self.right.sign(a, b) != 1:
            raise ValueError("interface orientation violated (left must have x_a < x_b)")
        slots = [i for i, (s, t) in enumerate(zip(self.left.order, self.right.order)) if s != t]
        if (
            len(slots) != 2
            or slots[1] != slots[0] + 1
            or sorted(self.left.order[slots[0]: slots[0] + 2]) != [a, b]
        ):
            raise ValueError("interface regions must differ by the adjacent swap of its pair")


@dataclass(frozen=True)
class RegionFunction:
    """Piecewise-exponential function: one exact exponential sum per chamber.

    ``kappas`` is the kappa table: distinct finite kappas sorted by
    ``_sort_key``, an id being a position in it.  Kappas equal componentwise
    share one id, whose kappa is the first of them kept (``build``) or met
    (``_union``), so kappas differing only in the sign of a zero are one.
    ``terms`` maps a Region to its chamber, ``(id, coef)`` pairs in
    ascending id; absent regions are identically zero there.  Equality
    ignores the order of the chambers, and so do the residuals and the
    supercharges of ``susy``, which write theirs in ``regions(n)`` order;
    the other operations keep their inputs' order.  Instances are
    treated as immutable and share tables (``map_coefficients``), so after
    a drop a table may hold a kappa that no chamber uses; kappas are read
    only through the ids of ``terms``.

    Canonical invariant: every non-empty instance comes from ``build`` (the
    coefficient maps, ``add`` and the supercharges of ``susy`` return what
    ``build`` would, up to the ids of unused kappas and the order of the
    chambers) or is a chamber subset of one.  So each chamber holds
    ascending distinct ids and no coefficient of magnitude at most
    ``DROP_TOL``, and an operation that keeps the ids, or drops some of
    their terms, needs no re-sort or re-merge.  An instance built directly,
    ``RegionFunction(n, terms, kappas)``, must be canonical, as one from
    ``build`` is.

    On a wall x_a = x_b the kappas reduce (``_reduce``), and the wall
    residuals sum the reduced terms per distinct reduced kappa, in position
    order within a chamber and in a fixed order of the chambers and
    components (``wall_residuals``).  The sweep behind them gathers the
    chambers into arrays once (``_gather_terms``) and sums all walls in
    array passes, with CPython's complex arithmetic bit for bit (``_sweep``).
    """

    n: int
    terms: Mapping[Region, Chamber]
    kappas: tuple[Kappa, ...]

    def region_terms(self, region: Region) -> Chamber:
        return self.terms.get(region, ())


def _guard_size(n: int) -> None:
    if not 1 <= n <= MAX_PARTICLES:
        raise ValueError(f"particle count {n} outside supported range 1..{MAX_PARTICLES}")


def _guard_pair(n: int, a: int, b: int) -> None:
    if not 1 <= a < b <= n:
        raise ValueError(f"particle pair ({a}, {b}) is not 1 <= a < b <= {n}")


def _clear_errno() -> None:
    """Reset the C errno, which an overflowing ``np.hypot``, or CPython's complex
    ``abs`` or ``**`` raising ``OverflowError``, leaves at ERANGE: CPython's ``abs``
    of a complex with a NaN part reads it, and would raise on it later."""
    abs(0j)  # abs of a finite complex resets errno


@lru_cache(maxsize=None)
def regions(n: int) -> tuple[Region, ...]:
    """All N! ordering chambers, in lexicographic order of the permutation.

    Cached, as a tuple since every caller shares it.
    """
    _guard_size(n)
    return tuple(Region(p) for p in itertools.permutations(range(1, n + 1)))


@lru_cache(maxsize=None)
def interfaces(n: int) -> tuple[Interface, ...]:
    """All chamber walls; exactly N!*(N-1)/2 of them.

    Each wall joins two chambers differing by an adjacent transposition and
    carries the particle pair (a, b), a < b, whose coordinates coincide on it.
    Cached, as a tuple since every caller shares it.
    """
    out = []
    for region in regions(n):
        for slot in range(n - 1):
            s, t = region.order[slot], region.order[slot + 1]
            if s < t:  # region is the left (x_s < x_t) side; emit once
                out.append(Interface(left=region, right=region.swap_adjacent(slot), pair=(s, t)))
    return tuple(out)


# ---------------------------------------------------------------------------
# canonicalisation and construction
# ---------------------------------------------------------------------------

def _sort_key(kappa: Kappa) -> tuple[float, ...]:
    key: list[float] = []
    for z in kappa:
        key.append(z.real)
        key.append(z.imag)
    return tuple(key)


def _merge_terms(raw: Iterable[tuple[complex, Sequence[complex]]]) -> tuple[tuple[complex, Kappa], ...]:
    """Raw (coef, kappa) terms summed by kappa in input order, the kept sums sorted by ``_sort_key``."""
    sums: dict[Kappa, complex] = {}
    for c, kappa in ((complex(c), tuple(map(complex, k))) for c, k in raw):
        sums[kappa] = sums[kappa] + c if kappa in sums else c
    return tuple([(sums[k], k) for k in sorted(sums, key=_sort_key) if not abs(sums[k]) <= DROP_TOL])


def _union(tables: Sequence[tuple[Kappa, ...]]) -> tuple[tuple[Kappa, ...], list[list[int] | None]]:
    """One table holding the kappas of all tables, and each table's id map.

    A map sends a table's ids to the union's; it is monotone, as both
    tables are sorted by ``_sort_key``, so a chamber mapped by it stays in
    ascending id.  It is None where the table is the union already; when
    all tables are the same (``is`` or ``==``), the first is the union.
    """
    first = tables[0] if tables else ()
    if all(t is first or t == first for t in tables):
        return first, [None] * len(tables)
    table = tuple(sorted(dict.fromkeys(itertools.chain.from_iterable(tables)), key=_sort_key))
    ids = {k: i for i, k in enumerate(table)}
    return table, [None if len(t) == len(table) else [ids[k] for k in t] for t in tables]


def common_table(
    funcs: Sequence[RegionFunction],
) -> tuple[tuple[Kappa, ...], list[Mapping[Region, Chamber]]]:
    """One kappa table for the functions (``_union``), and each one's chambers on it."""
    table, maps = _union([f.kappas for f in funcs])
    return table, [
        f.terms if m is None else {r: tuple([(m[i], c) for i, c in ts]) for r, ts in f.terms.items()}
        for f, m in zip(funcs, maps)
    ]


def build(n: int, data: Mapping[Region, Iterable[tuple[complex, Sequence[complex]]]]) -> RegionFunction:
    """Assemble and canonicalise a RegionFunction from raw (coef, kappa) pairs.

    Kappas equal once converted to tuples of complex share a class, and a
    kappa is checked and converted only the first time its value is met: it
    must have length ``n`` and finite entries (their sum may overflow), and
    ``ValueError`` names the first that does not.  Each chamber sums its terms
    by class in input order and drops a sum of magnitude at most ``DROP_TOL``.
    The table holds each kept class once, as the kappa of its first kept
    term, sorted by ``_sort_key``.
    """
    (f,) = build_shared(n, (data,))
    return f


def build_shared(
    n: int, datas: Sequence[Mapping[Region, Iterable[tuple[complex, Sequence[complex]]]]]
) -> list[RegionFunction]:
    """``build`` of each of ``datas``, all on one kappa table: the one
    ``common_table`` gives the functions built one by one, with the same
    chambers on it.  The datas are classified in order as one, and each kept
    class is sorted once."""
    classes: dict[Kappa, int] = {}
    kappas: list[Kappa | None] = []  # per class: the kappa of its first kept term
    kept: set[int] = set()
    built = []
    for data in datas:
        chambers = {}
        for region, raw in data.items():
            if region.n != n:
                raise ValueError("all regions must carry the same particle count")
            sums: dict[int, complex] = {}
            for c, kappa in raw:
                try:
                    cls = classes.get(kappa)
                except TypeError:  # an unhashable kappa, such as a list
                    cls = None
                if cls is None:
                    if len(kappa) != n:
                        raise ValueError(f"region {region.order} holds a kappa whose length is not {n}")
                    if not cmath.isfinite(sum(kappa)) and not all(map(cmath.isfinite, kappa)):
                        raise ValueError(f"region {region.order} holds the non-finite kappa {tuple(kappa)}")
                    converted = tuple(map(complex, kappa))
                    cls = classes.setdefault(converted, len(kappas))
                    if cls == len(kappas):
                        kappas.append(converted)
                if kappas[cls] is None:  # no chamber so far keeps its class
                    kappas[cls] = tuple(map(complex, kappa))
                sums[cls] = sums[cls] + complex(c) if cls in sums else complex(c)
            try:
                for c in sums.values():
                    if abs(c) <= DROP_TOL:
                        met = sums
                        sums = {i: c for i, c in met.items() if not abs(c) <= DROP_TOL}
                        for i in met.keys() - sums.keys() - kept:
                            kappas[i] = None
                        break
            except OverflowError:
                _clear_errno()
                raise
            kept.update(sums)
            chambers[region] = sums
        built.append(chambers)
    order = sorted(kept, key=lambda i: _sort_key(kappas[i]))
    ids = dict(zip(order, range(len(order))))
    table = tuple([kappas[i] for i in order])
    return [RegionFunction(n=n, terms={
        region: tuple(sorted(zip(map(ids.__getitem__, sums), sums.values())))
        for region, sums in chambers.items() if sums
    }, kappas=table) for chambers in built]


def constant_function(n: int, value: complex = 1.0) -> RegionFunction:
    """The chamber-wise constant function (kappa = 0 everywhere)."""
    zero = (0.0 + 0.0j,) * n
    return build(n, {r: [(value, zero)] for r in regions(n)})


def zero_function(n: int) -> RegionFunction:
    return RegionFunction(n=n, terms={}, kappas=())


def map_coefficients(
    f: RegionFunction, fn: Callable[[Region, complex, Kappa], complex]
) -> RegionFunction:
    """Replace each coefficient c by ``fn(region, c, kappa)``, keeping every id.

    Equal to ``build`` of the mapped terms up to unused kappas: a canonical
    chamber (see ``RegionFunction``) holds distinct ascending ids, so that
    only drops coefficients of magnitude at most ``DROP_TOL`` and nothing is
    sorted or merged.  The result shares f's table.
    """
    kappas = f.kappas
    terms = {}
    for r, ts in f.terms.items():
        try:
            mapped = tuple((i, c) for i, coef in ts
                           if not abs(c := complex(fn(r, coef, kappas[i]))) <= DROP_TOL)
        except OverflowError:
            _clear_errno()
            raise
        if mapped:
            terms[r] = mapped
    return RegionFunction(n=f.n, terms=terms, kappas=kappas)


def add(f: RegionFunction, g: RegionFunction) -> RegionFunction:
    """Sum of two functions; equal to ``build`` of the concatenated chambers.

    The result holds the union of the two tables (``common_table``), which
    is f's own when g's is the same.  A chamber held by one input only
    passes through unchanged; in one held by both, the coefficients of an id
    both hold sum in that order, and a sum of magnitude at most ``DROP_TOL``
    drops, as ``build`` of the concatenation does.
    """
    if f.n != g.n:
        raise ValueError("dimension mismatch")
    kappas, (fs, gs) = common_table((f, g))
    terms = {}
    for region, ts in fs.items():
        us = gs.get(region)
        if us:
            sums = dict(ts)
            for i, c in us:
                sums[i] = sums[i] + c if i in sums else c
            try:
                ts = tuple([(i, c) for i, c in sorted(sums.items()) if not abs(c) <= DROP_TOL])
            except OverflowError:
                _clear_errno()
                raise
        if ts:
            terms[region] = ts
    for region, us in gs.items():
        if region not in fs and us:
            terms[region] = us
    return RegionFunction(n=f.n, terms=terms, kappas=kappas)


def scale(f: RegionFunction, z: complex) -> RegionFunction:
    return map_coefficients(f, lambda r, c, k: z * c)


def max_coefficient(f: RegionFunction) -> float:
    """Largest coefficient magnitude; NaN when any coefficient is NaN."""
    try:
        return nan_max(abs(c) for ts in f.terms.values() for _, c in ts)
    except OverflowError:
        _clear_errno()
        raise


def used_kappas(f: RegionFunction) -> list[Kappa]:
    """The kappas some chamber of f holds, each once, in table order."""
    return [f.kappas[i] for i in sorted({i for ts in f.terms.values() for i, _ in ts})]


def coefficient_distance(f: RegionFunction, g: RegionFunction) -> float:
    """Max coefficient magnitude of f - g after canonicalisation."""
    return max_coefficient(add(f, scale(g, -1.0)))


# ---------------------------------------------------------------------------
# calculus
# ---------------------------------------------------------------------------

def differentiate(f: RegionFunction, j: int) -> RegionFunction:
    """Exact d/dx_j, chamber by chamber (no distributional interface terms)."""
    if not 1 <= j <= f.n:
        raise ValueError(f"coordinate index {j} out of range 1..{f.n}")
    return map_coefficients(f, lambda r, c, k: c * k[j - 1])


def laplacian(f: RegionFunction) -> RegionFunction:
    """Sum of second derivatives; per term a multiplication by sum kappa_j^2."""
    return map_coefficients(f, lambda r, c, k: c * sum(kk * kk for kk in k))


def multiply_sign(f: RegionFunction, a: int, b: int) -> RegionFunction:
    """Multiply by the chamber-constant sign of x_a - x_b."""
    if a == b:
        raise ValueError("multiply_sign needs a != b")
    return map_coefficients(f, lambda r, c, k: r.sign(a, b) * c)


def transpose(f: RegionFunction, a: int, b: int) -> RegionFunction:
    """f with x_a and x_b exchanged, canonicalised by ``build``.

    With tau the transposition of labels a and b, the terms of f on chamber
    R move to chamber tau(R) with kappa_a and kappa_b exchanged.
    """
    _guard_pair(f.n, a, b)
    tau = [a if j == b else b if j == a else j for j in range(1, f.n + 1)]
    kappas = [tuple(kappa[j - 1] for j in tau) for kappa in f.kappas]
    return build(f.n, {
        Region(tuple(tau[s - 1] for s in r.order)): [(c, kappas[i]) for i, c in ts]
        for r, ts in f.terms.items()
    })


def evaluate(f: RegionFunction, x: Sequence[float]) -> complex:
    """Evaluate at a point strictly inside a chamber.

    Points within HYPERPLANE_GAP of a hyperplane are rejected: the function
    value there is defined only through one-sided limits, so the caller must
    pick a side explicitly.  A non-finite coordinate lies in no chamber and is
    rejected too.
    """
    if len(x) != f.n:
        raise ValueError("point dimension mismatch")
    if not all(map(math.isfinite, x)):
        raise ValueError(f"point {tuple(x)} has a non-finite coordinate")
    order = tuple(sorted(range(1, f.n + 1), key=lambda j: x[j - 1]))
    xs = sorted(x)
    if any(xs[i + 1] - xs[i] <= HYPERPLANE_GAP for i in range(len(xs) - 1)):
        raise AmbiguousPointError(
            f"point {tuple(x)} lies within {HYPERPLANE_GAP} of a coincidence hyperplane"
        )
    total = 0.0 + 0.0j
    for i, c in f.region_terms(Region(order)):
        total += c * cmath.exp(sum(k * xv for k, xv in zip(f.kappas[i], x)))
    return total


# ---------------------------------------------------------------------------
# interface restrictions and matching residuals
# ---------------------------------------------------------------------------

def nan_max(sizes: Iterable[float]) -> float:
    """Largest of the sizes, 0.0 for none; NaN when any of them is NaN.

    ``max`` would keep a finite value against a later NaN.  A NaN compares
    false both ways, so ``not size <= worst`` takes it in and ``worst ==
    worst`` keeps it; that is the rule of every residual maximum here.  The
    array sweep (``_sweep``) takes it as ``np.max``, which returns NaN once
    any element is NaN.
    """
    worst = 0.0
    for size in sizes:
        if not size <= worst and worst == worst:
            worst = size
    return worst


def _reduce(kappa: Sequence[complex], a: int, b: int) -> tuple[complex, ...]:
    """The wall reduction, the only one in the calculus: substitute x_b := x_a.

    The reduced variables are x_1 .. x_N with x_b deleted and kappa_a merged
    to kappa_a + kappa_b, so limits taken from either side of the wall are
    directly comparable term by term once equal reduced kappas are merged.
    """
    kap = list(kappa)
    kap[a - 1] += kap[b - 1]
    del kap[b - 1]
    return tuple(kap)


def _coupling_matrices(
    couplings: Mapping[tuple[int, int], Sequence[Sequence[complex]] | np.ndarray],
    pairs: Iterable[tuple[int, int]],
    size: int,
) -> dict[tuple[int, int], np.ndarray]:
    mats = {}
    for pair in pairs:
        if pair in mats:
            continue
        if pair not in couplings:
            raise ValueError(f"no coupling matrix for pair {pair}")
        mat = np.asarray(couplings[pair], dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] != size:
            raise ValueError("coupling must be square with dimension = number of components")
        mats[pair] = mat
    return mats


def _product(ar, ai, br, bi):
    """The complex product (ar + i ai)(br + i bi) from real parts, as (re, im).

    Each operation is one ufunc, so every element equals CPython's
    ``complex(ar, ai) * complex(br, bi)`` bit for bit, signed zeros, infinite
    and NaN parts included; numpy's complex multiply does not (its vector
    loops fuse multiply and add).  A float or numpy complex weight w times a
    Python complex is this product with w as (w.real, w.imag).
    """
    return ar * br - ai * bi, ar * bi + ai * br


def _magnitude(re, im):
    """``abs(complex(re, im))`` elementwise, bit for bit: C99 ``hypot``, as
    CPython takes it (numpy's complex ``abs`` differs).  Where CPython raises
    ``OverflowError`` (finite parts, infinite magnitude) this is inf, and
    ``_overflowed`` marks it."""
    return np.hypot(re, im)


def _overflowed(size, re, im):
    """Where ``abs(complex(re, im))``, of magnitude ``size``, raises ``OverflowError``."""
    return np.isinf(size) & np.isfinite(re) & np.isfinite(im)


def _kept(size):
    """The drop rule: keep unless ``size <= DROP_TOL``, so a NaN is kept."""
    return ~(size <= DROP_TOL)


def _slot_sums(keys, n: int, re, im):
    """The entries (re, im) summed into ``n`` slots by key, in entry order.

    ``np.bincount`` adds each entry to its slot in order from 0.0, as
    ``sums[key] += c`` does from the first entry (0.0 + c is c, up to the
    sign of a zero); a slot no entry reaches holds 0.
    """
    return np.bincount(keys, re, n), np.bincount(keys, im, n)


class _Derivative(NamedTuple):
    """The wall derivative (d/dx_a - d/dx_b) of terms, as sweep entries (``_derivative``)."""

    re: np.ndarray  # the entry of each position, 0 where it drops
    im: np.ndarray
    keep: np.ndarray
    sizes: tuple  # (magnitude, re, im, taken): every abs the term-wise chain takes

    def overflowed(self) -> np.ndarray:
        over = np.zeros(len(self.re), dtype=bool)
        for size, re, im, taken in self.sizes:
            over |= taken & _overflowed(size, re, im)
        return over


def _derivative(cr, ci, kar, kai, kbr, kbi) -> _Derivative:
    """(d/dx_a - d/dx_b) of the terms c * exp(kappa.x), position by position.

    Follows ``add(differentiate(f, a), scale(differentiate(f, b), -1.0))``
    drop by drop: the d/dx_a image keeps c*kappa_a unless its magnitude is
    at most ``DROP_TOL``, the negated d/dx_b image keeps -1.0 * (c*kappa_b)
    likewise (negating changes no magnitude), a position both keep sums them
    in that order, and a sum of magnitude at most ``DROP_TOL`` drops.  A
    chamber's kappas are distinct, so the chain sums position by position.
    """
    da_r, da_i = _product(cr, ci, kar, kai)
    db_r, db_i = _product(cr, ci, kbr, kbi)
    nb_r, nb_i = _product(-1.0, 0.0, db_r, db_i)
    da, db = _magnitude(da_r, da_i), _magnitude(db_r, db_i)
    keep_a, keep_b = _kept(da), _kept(db)
    both = keep_a & keep_b
    re = np.where(both, da_r + nb_r, np.where(keep_b, nb_r, da_r))
    im = np.where(both, da_i + nb_i, np.where(keep_b, nb_i, da_i))
    acc = _magnitude(re, im)
    summed = keep_a | keep_b  # the positions whose images the chain adds
    keep = summed & _kept(acc)
    return _Derivative(
        np.where(keep, re, 0.0), np.where(keep, im, 0.0), keep,
        ((da, da_r, da_i, True), (db, db_r, db_i, True), (acc, re, im, summed)),
    )


class _Walls(NamedTuple):
    """The walls of a sweep as indices."""

    regions: np.ndarray  # positions in ``regions(n)`` of the chambers the walls read, ascending
    sides: np.ndarray  # (walls, 2): the left and right chamber, indices into ``regions``
    pairs: tuple[tuple[int, int], ...]  # the distinct pairs, in order of first wall
    pair: np.ndarray  # (walls,): index into ``pairs``
    slots: np.ndarray  # (pairs, 2): each pair's kappa slots, a - 1 and b - 1


def _wall_table(n: int, walls: Iterable[Interface]) -> _Walls:
    index = _region_index(n)
    pairs: dict[tuple[int, int], int] = {}
    sides, pair = [], []
    for iface in walls:
        sides += (index[iface.left], index[iface.right])
        pair.append(pairs.setdefault(iface.pair, len(pairs)))
    read, sides = np.unique(np.array(sides, dtype=np.intp), return_inverse=True)
    return _Walls(read, sides.reshape(-1, 2), tuple(pairs), np.array(pair, dtype=np.intp),
                  np.array(list(pairs), dtype=np.intp) - 1)


@lru_cache(maxsize=None)
def _interface_table(n: int) -> _Walls:
    """``_wall_table`` of ``interfaces(n)``, cached as it is."""
    return _wall_table(n, interfaces(n))


class _Terms(NamedTuple):
    """The term table of a sweep: the chambers its walls read, gathered once.

    ``flat`` holds each function's chambers in region order (``_flatten``),
    chamber c its terms ``start[c] : start[c] + flat.size[c]``.  The kappa
    tables of the functions, each distinct table once, are the rows of
    ``kappa`` (``_kappa_array``), component k's from row ``base[k]``, so a
    term's row is its id plus its component's base.  The reduced-kappa id of
    row r on the walls of pair p is ``ids[p, r]``, computed only where a
    wall reads it.
    """

    flat: _Flat
    start: np.ndarray
    base: np.ndarray  # per component: the first row of its kappa table
    kappa: np.ndarray  # (rows, n)
    ids: np.ndarray  # (pairs, rows)
    id_count: np.ndarray  # per pair: its number of distinct reduced kappas


def _runs(start: np.ndarray, size: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The indices ``start[k] : start[k] + size[k]`` of every run k, concatenated,
    and the run of each."""
    first = size.cumsum() - size
    of = np.arange(len(size)).repeat(size)
    return (start - first)[of] + np.arange(len(of)), of


def _gather_terms(
    funcs: Sequence[RegionFunction], walls: _Walls
) -> tuple[_Terms, np.ndarray] | None:
    """The term table of the walls' chambers, and the chamber (or -1) of each
    (wall, component, side), in that order; None when no chamber holds a term."""
    n = funcs[0].n
    tables = {id(f.kappas): f.kappas for f in funcs}  # each distinct table once, in order
    first_row = dict(zip(tables, itertools.accumulate(map(len, tables.values()), initial=0)))
    kappas = list(itertools.chain.from_iterable(tables.values()))
    chambers_read = [regions(n)[i] for i in walls.regions.tolist()]
    flat = _flatten(n, [{r: ts for r in chambers_read if (ts := f.terms.get(r))} for f in funcs])
    if not len(flat.size):
        return None
    base = np.array([first_row[id(f.kappas)] for f in funcs], dtype=np.intp)
    start = np.cumsum(flat.size) - flat.size
    chambers = np.full((len(funcs), len(chambers_read)), -1, dtype=np.intp)
    chambers[np.arange(len(funcs)).repeat(flat.count),
             np.searchsorted(walls.regions, flat.where)] = np.arange(len(flat.size))
    chambers = chambers[:, walls.sides].transpose(1, 0, 2).ravel()
    # the reduced-kappa ids of every (pair, row) a wall reads, one id per
    # distinct reduced kappa of a pair
    on_wall = np.flatnonzero(chambers >= 0)
    read = np.zeros((len(flat.size), len(walls.pairs)), dtype=bool)
    read[chambers[on_wall], walls.pair[on_wall // (2 * len(funcs))]] = True
    chamber, pair = np.nonzero(read)
    term, of = _runs(start[chamber], flat.size[chamber])
    row = flat.ids + base.repeat(flat.count).repeat(flat.size)
    need = np.zeros((len(walls.pairs), len(kappas)), dtype=bool)
    need[pair[of], row[term]] = True
    red = np.zeros(need.shape, dtype=np.intp)
    id_count = []
    for p, (a, b) in enumerate(walls.pairs):
        first: dict[Kappa, int] = {}
        at = np.flatnonzero(need[p])
        red[p, at] = [first.setdefault(_reduce(kappas[r], a, b), len(first)) for r in at.tolist()]
        id_count.append(len(first))
    table = _Terms(flat, start, base, _kappa_array(kappas, n), red,
                   np.array(id_count, dtype=np.intp))
    return table, chambers


@lru_cache(maxsize=None)
def _region_index(n: int) -> dict[Region, int]:
    """Each chamber's position in ``regions(n)``."""
    return {r: i for i, r in enumerate(regions(n))}


class _Flat(NamedTuple):
    """Chambers of functions as flat arrays (``_flatten``): functions in order,
    the chambers of each in order, the terms of each in order."""

    count: np.ndarray  # per function: its number of chambers
    where: np.ndarray  # per chamber: its region's position in ``regions(n)``
    size: np.ndarray  # per chamber: its number of terms
    ids: np.ndarray  # per term: its id in its function's table, and its coefficient's parts
    re: np.ndarray
    im: np.ndarray


def _flatten(n: int, funcs: Sequence[Mapping[Region, Chamber]]) -> _Flat:
    """The chambers of each function, each function's in its order, as flat arrays."""
    index = _region_index(n)
    where: list[int] = []
    size: list[int] = []
    terms: list[tuple[int, complex]] = []
    for chambers in funcs:
        where += map(index.__getitem__, chambers)
        size += map(len, chambers.values())
        terms += itertools.chain.from_iterable(chambers.values())
    coef = np.fromiter(map(operator.itemgetter(1), terms), complex, len(terms))
    return _Flat(np.array(list(map(len, funcs)), dtype=np.intp), np.array(where, dtype=np.intp),
                 np.array(size, dtype=np.intp),
                 np.fromiter(map(operator.itemgetter(0), terms), np.intp, len(terms)),
                 coef.real, coef.imag)


def _unflatten(
    n: int, table: tuple[Kappa, ...], labels: Sequence[Hashable], flat: _Flat
) -> dict[Hashable, RegionFunction]:
    """Functions on ``table`` from flat chambers, the inverse of ``_flatten``: the
    chambers of the k-th function make ``out[labels[k]]``, in their order.  Each
    chamber must be canonical (see ``RegionFunction``)."""
    coef = np.empty(len(flat.re), dtype=complex)
    coef.real, coef.imag = flat.re, flat.im
    terms = list(zip(flat.ids.tolist(), coef.tolist()))
    bound = np.cumsum(flat.size).tolist()
    chambers = zip(map(regions(n).__getitem__, flat.where.tolist()),
                   map(tuple, map(terms.__getitem__, map(slice, [0] + bound, bound))))
    return {
        label: RegionFunction(n, dict(itertools.islice(chambers, k)), table)
        for label, k in zip(labels, flat.count.tolist())
    }


def _kappa_array(table: Sequence[Kappa], n: int) -> np.ndarray:
    """A kappa table as one complex array of shape (kappas, n), a row per kappa."""
    return np.fromiter(itertools.chain.from_iterable(table), complex, len(table) * n).reshape(-1, n)


#: entries in one array pass, which bounds its memory: about 0.3 kB each in
#: the sweep (plus one per eight reduced-kappa ids of its walls), 0.26 kB in
#: the supercharge
_PASS_SIZE = 1 << 18


def _passes(ends: np.ndarray) -> Iterator[tuple[int, int]]:
    """The array passes over items of cumulative weights ``ends``: runs ``lo:hi``
    of consecutive items, in order, each of weight at most ``_PASS_SIZE`` unless
    one item alone weighs more."""
    lo = 0
    while lo < len(ends):
        hi = max(lo + 1, int(np.searchsorted(
            ends, (ends[lo - 1] if lo else 0.0) + _PASS_SIZE, "right")))
        yield lo, hi
        lo = hi


@contextlib.contextmanager
def _array_guard() -> Iterator[None]:
    """The context of the array passes: numpy's floating-point warnings off,
    since ``_magnitude`` and ``_overflowed`` decide every overflow, and errno
    cleared on exit (``_clear_errno``)."""
    try:
        with np.errstate(all="ignore"):
            yield
    finally:
        _clear_errno()


def _sweep(
    funcs: Sequence[RegionFunction],
    walls: _Walls,
    couplings: Mapping[tuple[int, int], Sequence[Sequence[complex]] | np.ndarray],
) -> tuple[float, float]:
    """The residual engine of ``matching_residuals`` and ``wall_residuals``.

    Array passes over runs of consecutive walls (``_passes``), one pass
    unless the walls hold more than ``_PASS_SIZE`` terms; no loop runs over
    walls or terms beyond gathering the term table (``_gather_terms``) once.
    Only the walls' chambers are read.

    - **Ids.**  Each distinct reduced kappa (``_reduce``) of a pair gets one
      integer id, computed once per (pair, kappa table row) that a wall
      reads; functions sharing a table share its rows.  An entry, one
      term of one chamber on one wall, sums into the slot of its (wall, id,
      component, side); slots are numbered densely, and the slots of one
      wall meet by id.
    - **Sums.**  The restrictions (``_slot_sums``) of each chamber and of its
      wall derivative (``_derivative``); their drops; the continuity gap,
      left then -right; and the jump total, right derivative, -left
      derivative, then -C_ij * base_j by ascending j, with base_j the left
      restriction of component j.  Each sum runs in the order of the
      per-wall formulas of ``wall_residuals``, and each drop is theirs.
    - **Bit for bit.**  Every complex product is ``_product`` and every
      magnitude ``_magnitude``, so every number equals the per-wall
      formulas', in Python complex arithmetic.

    The first wall (in the given order) with a discontinuous component
    raises ``DiscontinuityError``.  A magnitude whose parts are finite but
    which overflows raises ``OverflowError``, as ``abs`` of a Python complex
    does, unless the per-wall order meets another failure first.
    """
    m = len(funcs)
    mats = _coupling_matrices(couplings, walls.pairs, m)
    gathered = _gather_terms(funcs, walls)
    if gathered is None:
        return 0.0, 0.0
    terms, chambers = gathered
    coupling = -np.stack([mats[p] for p in walls.pairs])
    coupling = (coupling.real, coupling.imag, coupling != 0)
    # a segment: one chamber on one wall, numbered (wall, component, side)
    seg = np.flatnonzero(chambers >= 0)
    seg_c = chambers[seg]
    seg_w = seg // (2 * m)
    weight = np.bincount(seg_w, terms.flat.size[seg_c], len(walls.pair))
    continuity = jump = 0.0
    with _array_guard():
        for lo, hi in _passes(np.cumsum(weight + terms.id_count[walls.pair] / 8)):
            s0, s1 = np.searchsorted(seg_w, (lo, hi))
            gap, size = _wall_pass(terms, walls, coupling, m, lo, hi, seg[s0:s1], seg_c[s0:s1])
            continuity = max(continuity, gap)
            if not size <= jump and jump == jump:
                jump = size
    return continuity, jump


def _wall_pass(
    terms: _Terms, walls: _Walls, coupling: tuple, m: int, lo: int, hi: int,
    seg: np.ndarray, seg_c: np.ndarray,
) -> tuple[float, float]:
    """``(continuity, jump)`` of walls ``lo:hi``, whose segments are ``seg`` (see ``_sweep``)."""
    if not len(seg):
        return 0.0, 0.0
    seg_w, seg_side = np.divmod(seg, 2 * m)  # seg_side: component * 2 + side (1 = right)
    seg_p = walls.pair[seg_w]
    # the entries: each segment's terms in position order
    flat = terms.flat
    coef, of = _runs(terms.start[seg_c], flat.size[seg_c])
    cr, ci = flat.re[coef], flat.im[coef]
    row = flat.ids[coef] + terms.base[seg_side // 2][of]
    ka = terms.kappa[row, walls.slots[seg_p, 0][of]]
    kb = terms.kappa[row, walls.slots[seg_p, 1][of]]
    ids = terms.ids[seg_p[of], row]
    side = seg_side[of]
    w = seg_w[of]
    # slots: the distinct (wall, id) of the pass, numbered densely in wall order
    count = terms.id_count[walls.pair[lo:hi]]
    key = (np.cumsum(count) - count)[seg_w - lo][of] + ids
    mark = np.zeros(int(count.sum()), dtype=bool)
    mark[key] = True
    rank = np.cumsum(mark) - 1
    n_slots = int(rank[-1]) + 1
    slot = rank[key]
    wall_of = np.empty(n_slots, dtype=np.intp)
    wall_of[slot] = w
    at = slot * (2 * m) + side  # each entry's (slot, component, side)
    n = n_slots * 2 * m

    # the restrictions, the bases (left) and the continuity gaps, left - right
    ar, ai = _slot_sums(at, n, cr, ci)
    a_size = _magnitude(ar, ai)
    kept = _kept(a_size)
    lr = np.where(kept, ar, 0.0).reshape(n_slots, m, 2)
    li = np.where(kept, ai, 0.0).reshape(n_slots, m, 2)
    sign = np.array([1.0, -1.0])
    tr, ti = _product(sign, 0.0, lr, li)
    tr, ti = tr[..., 0] + tr[..., 1], ti[..., 0] + ti[..., 1]
    gap = _magnitude(tr, ti)
    base, lr, li = kept.reshape(n_slots, m, 2)[..., 0], lr[..., 0], li[..., 0]

    # the wall derivatives, their restrictions and the jump totals
    d = _derivative(cr, ci, ka.real, ka.imag, kb.real, kb.imag)
    dr, di = _slot_sums(at, n, d.re, d.im)
    d_size = _magnitude(dr, di)
    kept = _kept(d_size)
    jr, ji = _product(-sign, 0.0, np.where(kept, dr, 0.0).reshape(n_slots, m, 2),
                      np.where(kept, di, 0.0).reshape(n_slots, m, 2))
    jr, ji = jr[..., 1] + jr[..., 0], ji[..., 1] + ji[..., 0]
    pg = walls.pair[wall_of]
    cneg_r, cneg_i, nonzero = coupling
    for j in range(m):
        pr, pi = _product(cneg_r[pg, :, j], cneg_i[pg, :, j], lr[:, j, None], li[:, j, None])
        use = nonzero[pg, :, j] & base[:, j, None]
        jr += np.where(use, pr, 0.0)
        ji += np.where(use, pi, 0.0)
    total = _magnitude(jr, ji)

    broken = ~(gap <= JUMP_CONTINUITY_TOL)
    sizes = (a_size, gap, d_size, total) + tuple(s[0] for s in d.sizes)
    if broken.any() or not all(s.max() < np.inf for s in sizes):
        _raise_first(walls, m, lo, hi, wall_of, broken,
                     cont=(_overflowed(a_size, ar, ai).reshape(n_slots, m, 2).any(axis=2)
                           | _overflowed(gap, tr, ti)),
                     jump=(_overflowed(d_size, dr, di).reshape(n_slots, m, 2).any(axis=2)
                           | _overflowed(total, jr, ji)),
                     entries=(d.overflowed(), w, side // 2))
    cont = float(gap.max())
    return (cont if cont > DROP_TOL else 0.0), float(np.where(total <= DROP_TOL, 0.0, total).max())


def _raise_first(walls, m, lo, hi, wall_of, broken, cont, jump, entries) -> None:
    """Raise the failure the per-wall order meets first, if any.

    Per wall, each component's continuity check comes first (an overflow in
    its restrictions or gap, else a discontinuity), then the jump sums of
    the components.  ``broken``, ``cont`` and ``jump`` are per (slot,
    component), ``entries`` the derivative entries' overflows with their
    wall and component.
    """
    cont_bad = np.zeros((hi - lo, m), dtype=bool)
    disc = np.zeros((hi - lo, m), dtype=bool)
    jump_bad = np.zeros((hi - lo, m), dtype=bool)
    for flags, out in ((cont, cont_bad), (broken, disc), (jump, jump_bad)):
        slot, comp = np.nonzero(flags)
        out[wall_of[slot] - lo, comp] = True
    over, w, comp = entries
    jump_bad[w[over] - lo, comp[over]] = True
    failing = cont_bad | disc
    failed = failing.any(axis=1) | jump_bad.any(axis=1)
    if not failed.any():
        return
    at = int(np.argmax(failed))
    if failing[at].any():
        i = int(np.argmax(failing[at]))
        if not cont_bad[at, i]:
            pair = walls.pairs[walls.pair[lo + at]]
            raise DiscontinuityError(f"component {i} is discontinuous across interface pair {pair}")
    raise OverflowError("absolute value too large")


def matching_residuals(
    funcs: Sequence[RegionFunction],
    couplings: Mapping[tuple[int, int], Sequence[Sequence[complex]] | np.ndarray],
) -> tuple[float, float]:
    """``wall_residuals`` over every wall, in ``interfaces`` order, in one sweep.

    ``couplings[(a, b)]`` is the coupling matrix of the walls x_a = x_b.
    Returns the worst ``(continuity, jump)`` over all walls; the first wall
    (in that order) with a discontinuous component raises
    ``DiscontinuityError``.  Chambers share the kappa rows and reduced-kappa
    ids of their table (every chamber of a Bethe state holds all of it).
    """
    if not funcs:
        raise ValueError("matching_residuals needs at least one component")
    return _sweep(funcs, _interface_table(funcs[0].n), couplings)


def wall_residuals(
    funcs: Sequence[RegionFunction],
    iface: Interface,
    coupling: Sequence[Sequence[complex]] | np.ndarray,
) -> tuple[float, float]:
    """Continuity and delta-potential matching residuals of one wall.

    For the component vector F the jump condition is

        [(d/dx_a - d/dx_b) F]_{x_a-x_b -> 0+}  -  [same]_{x_a-x_b -> 0-}
            =  C . F|_{x_a = x_b},

    with C the square coupling matrix (scalar case C = [[2c]]).  Returns
    ``(continuity, jump)``: the worst coefficient-wise mismatch of the two
    one-sided limits over the components, and the max coefficient magnitude
    of the jump defect after canonicalisation.  Every component must be
    continuous across the wall (within ``JUMP_CONTINUITY_TOL``), otherwise
    ``DiscontinuityError`` names the first one that is not.

    Only the wall's two chambers are read, and every number is the one the
    whole-function formula gives, with ``build``'s merge at each step, bit
    for bit in Python complex arithmetic:

    - the derivative is computed term by term, with the drops of
      ``differentiate``/``scale``/``add`` (``_derivative``);
    - a restriction sums the terms of equal reduced kappa in position order
      and drops a sum of magnitude at most ``DROP_TOL``;
    - the weighted sums add right, -left, then -C_ij * base_j by ascending
      j, per reduced kappa, and drop a total of magnitude at most
      ``DROP_TOL``;
    - a magnitude whose parts are finite but which overflows raises
      ``OverflowError``, as ``abs`` does.

    ``_sweep`` computes these sums for all walls at once, as arrays; its
    complex products and magnitudes are CPython's (``_product``,
    ``_magnitude``), which numpy's complex multiply and ``abs`` are not.
    """
    return _sweep(funcs, _wall_table(iface.left.n, (iface,)), {iface.pair: coupling})


# The per-wall entry points below stay only because perfbench/tracing.py wraps
# them by name; the library itself goes through ``_sweep``.

def restrict_to_interface(
    f: RegionFunction, iface: Interface, side: Literal["left", "right"]
) -> tuple[tuple[complex, Kappa], ...]:
    """One-sided limit of f on the wall, in the N-1 variables of ``_reduce``,
    as (coef, reduced kappa) pairs (``_merge_terms``)."""
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    a, b = iface.pair
    terms = f.region_terms(getattr(iface, side))
    return _merge_terms((c, _reduce(f.kappas[i], a, b)) for i, c in terms)


def continuity_residual(f: RegionFunction, iface: Interface) -> float:
    """Coefficient-wise mismatch of the two one-sided limits; 0 = continuous."""
    return nan_max(abs(c) for c, _ in _merge_terms(
        (w * c, kappa)
        for w, side in ((1.0, "left"), (-1.0, "right"))
        for c, kappa in restrict_to_interface(f, iface, side)
    ))


def jump_residual(
    funcs: Sequence[RegionFunction],
    iface: Interface,
    coupling: Sequence[Sequence[complex]] | np.ndarray,
) -> float:
    """Jump part of ``wall_residuals``: the matching-condition defect on one wall."""
    return wall_residuals(funcs, iface, coupling)[1]


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def to_json_obj(f: RegionFunction) -> dict:
    """JSON shape: {n, regions:[{order, terms:[{re, im, kappa:[{re,im}..]}..]}..]}."""
    regions = []
    for region in sorted(f.terms):
        regions.append(
            {
                "order": list(region.order),
                "terms": [
                    {
                        "re": c.real,
                        "im": c.imag,
                        "kappa": [{"re": k.real, "im": k.imag} for k in f.kappas[i]],
                    }
                    for i, c in f.terms[region]
                ],
            }
        )
    return {"n": f.n, "regions": regions}


def from_json_obj(obj: Mapping) -> RegionFunction:
    n = int(obj["n"])
    data = {}
    for entry in obj["regions"]:
        region = Region(tuple(int(v) for v in entry["order"]))
        data[region] = [
            (
                complex(t["re"], t["im"]),
                tuple(complex(k["re"], k["im"]) for k in t["kappa"]),
            )
            for t in entry["terms"]
        ]
    return build(n, data)
