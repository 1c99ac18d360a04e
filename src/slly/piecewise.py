"""Exact calculus for piecewise-exponential functions on ordering chambers.

The coincidence hyperplanes x_a = x_b cut R^N into N! open chambers, one per
ordering permutation of the coordinates.  Every function handled here is, on
each chamber, a finite sum

    sum_t  coef_t * exp(kappa_t . x),        coef_t, kappa_t complex,

so differentiation, restriction to a chamber wall and the delta-potential
matching conditions (continuity of the function, prescribed jump of the
normal derivative) all reduce to exact coefficient arithmetic.  No quadrature
or discretisation enters anywhere in this module.

Floating-point canonicalisation rules: two kappa vectors are identified when
they are equal componentwise, so one holding a NaN is identified with
nothing; terms whose coefficient magnitude is at most ``DROP_TOL`` are
discarded.  Points within ``HYPERPLANE_GAP`` of a hyperplane cannot be
evaluated (the calculus defines hyperplane values only through one-sided
limits).
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Hashable, Iterable, Literal, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import AmbiguousPointError, DiscontinuityError

DROP_TOL = 1e-14
HYPERPLANE_GAP = 1e-9
MAX_PARTICLES = 10

#: continuity threshold required of inputs to the jump condition
JUMP_CONTINUITY_TOL = 1e-10


class ExpTerm(NamedTuple):
    """One exponential term coef * exp(sum_j kappa[j] * x_j)."""

    coef: complex
    kappa: tuple[complex, ...]


@dataclass(frozen=True, order=True)
class Region:
    """Ordering chamber of R^N labelled by a permutation.

    ``order = (s_1, ..., s_N)`` means x_{s_1} < x_{s_2} < ... < x_{s_N};
    particle labels are 1-based.
    """

    order: tuple[int, ...]

    def __post_init__(self):
        n = len(self.order)
        if sorted(self.order) != list(range(1, n + 1)):
            raise ValueError(f"order {self.order} is not a permutation of 1..{n}")

    @property
    def n(self) -> int:
        return len(self.order)

    def rank(self, j: int) -> int:
        """1-based position of particle j in the ordering (1 = leftmost)."""
        return self.order.index(j) + 1

    def sign(self, a: int, b: int) -> int:
        """Sign of x_a - x_b on this chamber (+1 iff x_a > x_b)."""
        if a == b:
            raise ValueError("sign of x_a - x_b needs a != b")
        return 1 if self.rank(a) > self.rank(b) else -1

    def swap_adjacent(self, slot: int) -> "Region":
        """Neighbouring chamber across the wall between ranks slot, slot+1 (0-based slot)."""
        o = list(self.order)
        o[slot], o[slot + 1] = o[slot + 1], o[slot]
        return Region(tuple(o))


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

    ``terms`` maps a Region to a canonical tuple of ExpTerms; absent regions
    are identically zero there.  Instances are treated as immutable.

    Canonical invariant: every non-empty instance comes from ``build`` (the
    coefficient maps and ``add`` below return exactly what ``build`` would)
    or is a chamber subset of one.  So each chamber holds no coefficient of
    magnitude at most ``DROP_TOL`` and holds distinct kappas, sorted by
    ``_sort_key``, followed by the kappas holding a NaN, which equal nothing
    (not even themselves), in the order they came.  Every sub-layout of such
    a chamber is canonical too, so an operation that keeps the kappas, or
    drops some of their terms, needs no re-sort or re-merge: re-merging
    could only drop coefficients of magnitude at most ``DROP_TOL``.

    On a wall x_a = x_b the kappas reduce (``_reduce``), and the wall
    residuals sum the reduced terms per distinct reduced kappa, in position
    order within a chamber and in a fixed order of the chambers and
    components (``wall_residuals``).
    """

    n: int
    terms: Mapping[Region, tuple[ExpTerm, ...]]

    def region_terms(self, region: Region) -> tuple[ExpTerm, ...]:
        return self.terms.get(region, ())


def _guard_size(n: int) -> None:
    if not 1 <= n <= MAX_PARTICLES:
        raise ValueError(f"particle count {n} outside supported range 1..{MAX_PARTICLES}")


def _guard_pair(n: int, a: int, b: int) -> None:
    if not 1 <= a < b <= n:
        raise ValueError(f"particle pair ({a}, {b}) is not 1 <= a < b <= {n}")


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

def _sort_key(kappa: tuple[complex, ...]) -> tuple[float, ...]:
    key: list[float] = []
    for z in kappa:
        key.append(z.real)
        key.append(z.imag)
    return tuple(key)


def _holds_nan(kappa: Sequence[complex]) -> bool:
    """True when a component of ``kappa`` has a NaN part.

    The sum is NaN then (and for inf - inf), so the componentwise test runs
    only when the sum already is NaN.
    """
    total = sum(kappa)
    return total != total and any(k != k for k in kappa)


#: a merged chamber: each distinct kappa holding no NaN with its summed
#: coefficient, none of magnitude at most ``DROP_TOL``, then the terms whose
#: kappa holds a NaN, in arrival order
_Merged = tuple[dict[tuple[complex, ...], complex], list[ExpTerm]]


def _gather(raw: Iterable[tuple[complex, Sequence[complex]]]) -> _Merged:
    """Sum raw (coef, kappa) terms by kappa, in input order.

    Terms whose kappas are equal componentwise sum and keep the first one's
    kappa, and a sum of magnitude at most ``DROP_TOL`` drops.  A kappa
    holding a NaN equals nothing, so its term is never merged; it is kept
    alone unless its magnitude is at most ``DROP_TOL``.
    """
    sums: dict[tuple[complex, ...], complex] = {}
    alone: list[ExpTerm] = []
    for c, kap in raw:
        c, kappa = complex(c), tuple(map(complex, kap))
        if _holds_nan(kappa):
            if not abs(c) <= DROP_TOL:
                alone.append(ExpTerm(c, kappa))
        elif kappa in sums:
            sums[kappa] += c
        else:
            sums[kappa] = c
    for c in sums.values():
        if abs(c) <= DROP_TOL:
            return {k: c for k, c in sums.items() if not abs(c) <= DROP_TOL}, alone
    return sums, alone


def _ranks(chambers: Iterable[_Merged]) -> dict[tuple[complex, ...], int]:
    """Position of each distinct kappa of the chambers in ``_sort_key`` order.

    ``_sort_key`` runs once per distinct kappa, however many chambers hold
    it.  Distinct kappas holding no NaN have distinct sort keys, so sorting
    a chamber by rank is sorting it by ``_sort_key``.
    """
    ranks: dict[tuple[complex, ...], int] = {}
    for sums, _ in chambers:
        ranks.update(sums)
    for i, kappa in enumerate(sorted(ranks, key=_sort_key)):
        ranks[kappa] = i
    return ranks


def _canonical(chamber: _Merged, ranks: Mapping[tuple[complex, ...], int]) -> tuple[ExpTerm, ...]:
    """The canonical terms of a merged chamber, the one rule of term order.

    The sums, none of magnitude at most ``DROP_TOL``, sort by rank
    (``_ranks``), and the terms whose kappa holds a NaN follow in arrival
    order.
    """
    sums, alone = chamber
    return (*[ExpTerm(sums[k], k) for k in sorted(sums, key=ranks.__getitem__)], *alone)


def _merge_terms(raw: Iterable[tuple[complex, Sequence[complex]]]) -> tuple[ExpTerm, ...]:
    """One canonical chamber from raw (coef, kappa) terms (``_gather``, ``_canonical``)."""
    chamber = _gather(raw)
    return _canonical(chamber, _ranks((chamber,)))


def _merge_parts(
    parts: Sequence[Sequence[tuple[complex, tuple[complex, ...]]]]
) -> tuple[ExpTerm, ...]:
    """``_merge_terms`` of the concatenated parts, each a sorted canonical chamber.

    When every part holds the same kappas position by position, which are
    distinct and hold no NaN, ``_merge_terms`` sums each position's terms in
    part order and keeps the order, so the merge is a position-wise sum; any
    other input takes ``_merge_terms``.  A canonical chamber puts its NaN
    kappas last, so its last kappa tells whether it holds one.
    """
    first, rest = parts[0], parts[1:]
    kappas = [k for _, k in first]
    if (
        kappas
        and not _holds_nan(kappas[-1])
        and all([k for _, k in p] == kappas for p in rest)
    ):
        out = []
        for i, (coef, kappa) in enumerate(first):
            acc = complex(coef)
            for p in rest:
                acc += complex(p[i][0])
            if not abs(acc) <= DROP_TOL:
                out.append(ExpTerm(acc, kappa))
        return tuple(out)
    return _merge_terms(itertools.chain.from_iterable(parts))


def build(n: int, data: Mapping[Region, Iterable[tuple[complex, Sequence[complex]]]]) -> RegionFunction:
    """Assemble and canonicalise a RegionFunction from raw (coef, kappa) pairs.

    Each chamber is ``_merge_terms`` of its raw terms; the sort keys are
    shared by all chambers.
    """
    chambers = {}
    for region, raw in data.items():
        if region.n != n:
            raise ValueError("all regions must carry the same particle count")
        raw = list(raw)
        if any(len(kappa) != n for _, kappa in raw):
            raise ValueError(f"region {region.order} holds a kappa whose length is not {n}")
        chambers[region] = _gather(raw)
    ranks = _ranks(chambers.values())
    terms = {}
    for region, chamber in chambers.items():
        merged = _canonical(chamber, ranks)
        if merged:
            terms[region] = merged
    return RegionFunction(n=n, terms=terms)


def constant_function(n: int, value: complex = 1.0) -> RegionFunction:
    """The chamber-wise constant function (kappa = 0 everywhere)."""
    zero = (0.0 + 0.0j,) * n
    return build(n, {r: [(value, zero)] for r in regions(n)})


def zero_function(n: int) -> RegionFunction:
    return RegionFunction(n=n, terms={})


def map_coefficients(
    f: RegionFunction, fn: Callable[[Region, ExpTerm], complex]
) -> RegionFunction:
    """Replace each coefficient by ``fn(region, term)``, keeping every kappa.

    Equal to ``build`` of the mapped terms: a canonical chamber (see
    ``RegionFunction``) holds distinct sorted kappas, so that only drops
    coefficients of magnitude at most ``DROP_TOL`` and nothing is sorted or
    merged.
    """
    terms = {}
    for r, ts in f.terms.items():
        mapped = tuple(
            ExpTerm(c, t.kappa) for t in ts if not abs(c := complex(fn(r, t))) <= DROP_TOL
        )
        if mapped:
            terms[r] = mapped
    return RegionFunction(n=f.n, terms=terms)


def add(f: RegionFunction, g: RegionFunction) -> RegionFunction:
    """Sum of two functions; equal to ``build`` of the concatenated chambers.

    A chamber held by one input only passes through unchanged, and one whose
    kappas agree position by position is summed pairwise (``_merge_parts``).
    """
    if f.n != g.n:
        raise ValueError("dimension mismatch")
    terms = {}
    for region, ts in f.terms.items():
        us = g.terms.get(region)
        merged = _merge_parts((ts, us)) if us else ts
        if merged:
            terms[region] = merged
    for region, us in g.terms.items():
        if region not in f.terms and us:
            terms[region] = us
    return RegionFunction(n=f.n, terms=terms)


#: one chamber of an image: its region, then the coefficient that replaces
#: each term of a canonical chamber of that region (the terms' kappas stay)
ImageChamber = tuple[Region, Sequence[complex], Sequence[ExpTerm]]


def sum_images(
    n: int, images: Iterable[tuple[Hashable, Iterable[ImageChamber]]]
) -> dict[Hashable, RegionFunction]:
    """Sum labelled coefficient images into one function per label.

    An image is what ``map_coefficients`` would return for the given
    coefficients.  The result equals, bit for bit and in chamber order,

        out[label] = add(out[label], image) if label in out else image

    over the images in order, without building any image or intermediate
    sum.  Each (label, chamber) is one accumulation keyed by kappa, which
    keeps the rules of that chain:

    - an image coefficient of magnitude at most ``DROP_TOL`` is skipped;
    - a sum of magnitude at most ``DROP_TOL`` drops after its image, and a
      later image starts that kappa afresh;
    - a chamber left empty is removed, so a later image appends it at the
      end of the label's chambers;
    - a kappa holding a NaN is merged with nothing and its terms follow the
      sorted ones in arrival order;
    - a chamber that one image reached keeps that image's order, as ``add``
      passes it through; one that several reached is sorted once, at the
      end (``_canonical``).

    The given terms are canonical, so an image holds each kappa at most once
    and its NaN kappas last.
    """
    tol = DROP_TOL
    # per label, region -> [sums, alone, met]: ``met`` once a second image
    # reached the chamber; until then it holds one image's canonical order
    out: dict[Hashable, dict[Region, list]] = {}
    for label, chambers in images:
        acc = out.setdefault(label, {})
        for region, coefs, terms in chambers:
            chamber = acc.get(region)
            if chamber is None:
                sums, alone = {}, []
            else:
                sums, alone, _ = chamber
                chamber[2] = True
            nan_tail = bool(terms) and _holds_nan(terms[-1].kappa)
            for c, (_, kappa) in zip(coefs, terms):
                if abs(c) <= tol:
                    continue
                if nan_tail and _holds_nan(kappa):
                    alone.append(ExpTerm(c, kappa))
                    continue
                total = sums.get(kappa)
                if total is None:
                    sums[kappa] = c
                elif abs(total := total + c) <= tol:
                    del sums[kappa]
                else:
                    sums[kappa] = total
            if sums or alone:
                if chamber is None:
                    acc[region] = [sums, alone, False]
            elif chamber is not None:
                del acc[region]
    ranks = _ranks(
        (sums, alone) for acc in out.values() for sums, alone, met in acc.values() if met
    )
    return {
        label: RegionFunction(n=n, terms={
            region: _canonical((sums, alone), ranks) if met
            else (*[ExpTerm(c, k) for k, c in sums.items()], *alone)
            for region, (sums, alone, met) in acc.items()
        })
        for label, acc in out.items()
    }


def scale(f: RegionFunction, z: complex) -> RegionFunction:
    return map_coefficients(f, lambda r, t: z * t.coef)


def max_coefficient(f: RegionFunction) -> float:
    """Largest coefficient magnitude; NaN when any coefficient is NaN."""
    return nan_max(abs(t.coef) for ts in f.terms.values() for t in ts)


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
    return map_coefficients(f, lambda r, t: t.coef * t.kappa[j - 1])


def laplacian(f: RegionFunction) -> RegionFunction:
    """Sum of second derivatives; per term a multiplication by sum kappa_j^2."""
    return map_coefficients(f, lambda r, t: t.coef * sum(k * k for k in t.kappa))


def multiply_sign(f: RegionFunction, a: int, b: int) -> RegionFunction:
    """Multiply by the chamber-constant sign of x_a - x_b."""
    if a == b:
        raise ValueError("multiply_sign needs a != b")
    return map_coefficients(f, lambda r, t: r.sign(a, b) * t.coef)


def transpose(f: RegionFunction, a: int, b: int) -> RegionFunction:
    """f with x_a and x_b exchanged, canonicalised by ``build``.

    With tau the transposition of labels a and b, the terms of f on chamber
    R move to chamber tau(R) with kappa_a and kappa_b exchanged.
    """
    _guard_pair(f.n, a, b)
    tau = [a if j == b else b if j == a else j for j in range(1, f.n + 1)]
    return build(f.n, {
        Region(tuple(tau[s - 1] for s in r.order)):
            [(t.coef, tuple(t.kappa[j - 1] for j in tau)) for t in ts]
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
    for term in f.region_terms(Region(order)):
        total += term.coef * cmath.exp(sum(k * xv for k, xv in zip(term.kappa, x)))
    return total


# ---------------------------------------------------------------------------
# interface restrictions and matching residuals
# ---------------------------------------------------------------------------

def nan_max(sizes: Iterable[float]) -> float:
    """Largest of the sizes, 0.0 for none; NaN when any of them is NaN.

    ``max`` would keep a finite value against a later NaN.  A NaN compares
    false both ways, so ``not size <= worst`` takes it in and ``worst ==
    worst`` keeps it; that is the rule of every residual maximum here.  The
    wall folds of ``_weighted_max`` and ``_sweep`` write it out inline, in
    their hot loops.
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


#: a wall restriction: reduced-kappa id -> summed coefficient
_Restriction = dict[int, complex]


def _restrict(plan: Sequence[int], coefs: Sequence[complex | None]) -> _Restriction:
    """Sum the coefficients by reduced-kappa id, in position order.

    ``plan`` holds the id of each position's reduced kappa; a position whose
    coefficient is None is skipped, and a sum of magnitude at most
    ``DROP_TOL`` drops.  This is ``_merge_terms`` of the reduced terms, up
    to the order, which no residual reads.
    """
    sums: _Restriction = {}
    for i, c in zip(plan, coefs):
        if c is None:
            continue
        if i in sums:
            sums[i] += c
        else:
            sums[i] = c
    for c in sums.values():
        if abs(c) <= DROP_TOL:
            return {i: c for i, c in sums.items() if not abs(c) <= DROP_TOL}
    return sums


def _weighted_max(parts: Sequence[tuple[complex, _Restriction]]) -> float:
    """Max coefficient of the weighted sum of restrictions taken on one wall.

    Every ``complex(w * s)`` is added into its id's total in part order,
    as ``_merge_terms`` of the scaled, concatenated terms sums them; totals
    of magnitude at most ``DROP_TOL`` drop and a NaN total is the result, as
    in ``nan_max``.
    """
    totals: dict[int, complex] = {}
    for w, sums in parts:
        for i, s in sums.items():
            v = complex(w * s)
            if i in totals:
                totals[i] += v
            else:
                totals[i] = v
    worst = 0.0
    for acc in totals.values():
        size = abs(acc)
        if not size <= worst and not size <= DROP_TOL and worst == worst:
            worst = size
    return worst


def _wall_derivative(
    coefs: Sequence[complex], layout: Sequence[tuple[complex, ...]], a: int, b: int
) -> tuple[list[complex | None], Sequence[tuple[complex, ...]]]:
    """(d/dx_a - d/dx_b) on one chamber: (coefficients, their kappas).

    One coefficient per position of ``layout``, None where the term drops.
    Follows ``add(differentiate(f, a), scale(differentiate(f, b), -1.0))``
    drop by drop.  The d/dx_a image drops the positions where
    |c*kappa_a| <= ``DROP_TOL``, the negated d/dx_b image those where
    |c*kappa_b| <= ``DROP_TOL`` (a NaN is kept); a position held by both sums
    complex(c*kappa_a) + -1.0 * complex(c*kappa_b) in that order, one held
    by one image passes its coefficient through, and a sum of magnitude at
    most ``DROP_TOL`` drops.  The chamber's kappas are distinct, so both
    images and their union are canonical sub-layouts and the chain sums
    position by position; the result restricts through the chamber's own
    plan.  Except at a kappa holding a NaN, which ``add`` merges with
    nothing: there the d/dx_a image stays at its position and the negated
    d/dx_b image is appended as a term of its own, so the returned kappas
    are ``layout`` and those appended ones.

    The coefficients are Python complex numbers, so every product already is
    one and ``complex()`` would return it unchanged.  ``scale``'s own drop
    test on -1.0 * (c*kappa_b) is the test on c*kappa_b: negating changes no
    magnitude, and an infinite or NaN part stays so.
    """
    ia, ib = a - 1, b - 1
    tol = DROP_TOL
    out: list[complex | None] = []
    for coef, kappa in zip(coefs, layout):
        da = coef * kappa[ia]
        db = coef * kappa[ib]
        if not abs(db) <= tol:
            if not abs(da) <= tol:
                acc = da
                acc += -1.0 * db
            else:
                acc = -1.0 * db
        elif not abs(da) <= tol:
            acc = da
        else:
            out.append(None)
            continue
        out.append(acc if not abs(acc) <= tol else None)
    if not layout or not _holds_nan(layout[-1]):  # a canonical chamber puts NaN kappas last
        return out, layout
    kappas = list(layout)
    for pos, (coef, kappa) in enumerate(zip(coefs, layout)):
        if _holds_nan(kappa):
            da, db = coef * kappa[ia], coef * kappa[ib]
            out[pos] = da if not abs(da) <= tol else None
            if not abs(db) <= tol:
                out.append(-1.0 * db)
                kappas.append(kappa)
    return out, kappas


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


def _sweep(
    funcs: Sequence[RegionFunction],
    walls: Sequence[Interface],
    couplings: Mapping[tuple[int, int], Sequence[Sequence[complex]] | np.ndarray],
) -> tuple[float, float]:
    """The residual engine of ``matching_residuals`` and ``wall_residuals``.

    Only the walls' chambers are read, each one's kappa layout once, and
    equal layouts share one layout id.  Each distinct reduced kappa
    (``_reduce``) gets one integer id, and a plan, the tuple of the ids of
    a layout's positions on a wall, is made once per (layout id, pair).  So
    a restriction (``_restrict``) of f or of its wall derivative is a dict
    id -> sum, and restrictions from any chamber or component of one wall
    meet by id in ``_weighted_max``.

    A reduced kappa holding a NaN equals nothing: it gets a fresh id, never
    the one of an equal-looking kappa (a NaN hashes by object identity and
    tuple equality short-circuits on identity), and a plan holding one is
    remade for each restriction, so no two restrictions share its ids; a
    wall derivative that appends kappas (``_wall_derivative``) holds one,
    so it restricts through a plan of its own kappas.  The ids and plans
    live for this call only, and no derivative is ever built as a function.
    """
    mats = _coupling_matrices(couplings, (iface.pair for iface in walls), len(funcs))
    read = {region for iface in walls for region in (iface.left, iface.right)}
    layout_ids: dict[tuple[tuple[complex, ...], ...], int] = {}
    chambers: list[dict[Region, tuple[int, tuple[tuple[complex, ...], ...], list[complex]]]] = []
    for f in funcs:
        own = {}
        for region in read:
            ts = f.terms.get(region)
            if ts is not None:
                layout = tuple(t.kappa for t in ts)
                layout_id = layout_ids.setdefault(layout, len(layout_ids))
                own[region] = (layout_id, layout, [complex(t.coef) for t in ts])
        chambers.append(own)
    ids: dict[tuple[complex, ...], int] = {}
    fresh = itertools.count()
    plans: dict[tuple[int, tuple[int, int]], tuple[int, ...]] = {}

    def plan_of(layout_id: int, layout, pair: tuple[int, int]) -> tuple[int, ...]:
        plan = plans.get((layout_id, pair))
        if plan is not None:
            return plan
        own, alone = [], False
        for kappa in layout:
            reduced = _reduce(kappa, *pair)
            i = ids.get(reduced)
            if i is None:
                i = next(fresh)
                if _holds_nan(reduced):
                    alone = True
                else:
                    ids[reduced] = i
            own.append(i)
        plan = tuple(own)
        if not alone:
            plans[layout_id, pair] = plan
        return plan

    def restrict(chamber, pair: tuple[int, int], derivative: bool = False) -> _Restriction:
        if chamber is None:
            return {}
        layout_id, layout, coefs = chamber
        if derivative:
            coefs, layout = _wall_derivative(coefs, layout, *pair)
        return _restrict(plan_of(layout_id, layout, pair), coefs)

    continuity = jump = 0.0
    for iface in walls:
        pair, mat = iface.pair, mats[iface.pair]
        sides = [(own.get(iface.left), own.get(iface.right)) for own in chambers]
        bases = []
        for i, (left_ch, right_ch) in enumerate(sides):
            left = restrict(left_ch, pair)
            gap = _weighted_max(((1.0, left), (-1.0, restrict(right_ch, pair))))
            if not gap <= JUMP_CONTINUITY_TOL:  # a NaN gap is not continuity
                raise DiscontinuityError(
                    f"component {i} is discontinuous across interface pair {pair}"
                )
            continuity = max(continuity, gap)
            bases.append(left)
        for i, (left_ch, right_ch) in enumerate(sides):
            parts = [
                (1.0, restrict(right_ch, pair, derivative=True)),
                (-1.0, restrict(left_ch, pair, derivative=True)),
            ]
            for j in range(len(funcs)):
                cij = mat[i, j]
                if cij != 0:
                    parts.append((-cij, bases[j]))
            size = _weighted_max(parts)
            if not size <= jump and jump == jump:
                jump = size
    return continuity, jump


def matching_residuals(
    funcs: Sequence[RegionFunction],
    couplings: Mapping[tuple[int, int], Sequence[Sequence[complex]] | np.ndarray],
) -> tuple[float, float]:
    """``wall_residuals`` over every wall, in ``interfaces`` order, in one sweep.

    ``couplings[(a, b)]`` is the coupling matrix of the walls x_a = x_b.
    Returns the worst ``(continuity, jump)`` over all walls; the first wall
    (in that order) with a discontinuous component raises
    ``DiscontinuityError``.  Chambers sharing a kappa layout (every chamber
    of a Bethe state does) share its wall plans.
    """
    if not funcs:
        raise ValueError("matching_residuals needs at least one component")
    return _sweep(funcs, interfaces(funcs[0].n), couplings)


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
    whole-function formula gives, with ``build``'s merge at each step:

    - the derivative is computed term by term, with the drops of
      ``differentiate``/``scale``/``add``;
    - a restriction sums the terms of equal reduced kappa in position order
      and drops a sum of magnitude at most ``DROP_TOL``;
    - the weighted sums add right, -left, then -C_ij * base_j by ascending
      j, per reduced kappa, and drop a total of magnitude at most
      ``DROP_TOL``;
    - a reduced kappa holding a NaN is merged with nothing (see ``_sweep``).
    """
    return _sweep(funcs, (iface,), {iface.pair: coupling})


# The per-wall entry points below stay only because perfbench/tracing.py wraps
# them by name; the library itself goes through ``_sweep``.

def restrict_to_interface(
    f: RegionFunction, iface: Interface, side: Literal["left", "right"]
) -> tuple[ExpTerm, ...]:
    """One-sided limit of f on the wall, in the N-1 variables of ``_reduce``."""
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    a, b = iface.pair
    terms = f.region_terms(getattr(iface, side))
    return _merge_terms((t.coef, _reduce(t.kappa, a, b)) for t in terms)


def continuity_residual(f: RegionFunction, iface: Interface) -> float:
    """Coefficient-wise mismatch of the two one-sided limits; 0 = continuous."""
    return nan_max(abs(t.coef) for t in _merge_terms(
        (w * t.coef, t.kappa)
        for w, side in ((1.0, "left"), (-1.0, "right"))
        for t in restrict_to_interface(f, iface, side)
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
                        "re": t.coef.real,
                        "im": t.coef.imag,
                        "kappa": [{"re": k.real, "im": k.imag} for k in t.kappa],
                    }
                    for t in f.terms[region]
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
