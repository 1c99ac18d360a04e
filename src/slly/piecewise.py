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
they agree componentwise within ``KAPPA_TOL``; terms whose coefficient
magnitude falls below ``DROP_TOL`` are discarded.  Points within
``HYPERPLANE_GAP`` of a hyperplane cannot be evaluated (the calculus defines
hyperplane values only through one-sided limits).
"""

from __future__ import annotations

import cmath
import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Literal, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import AmbiguousPointError, DiscontinuityError

KAPPA_TOL = 1e-12
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
    or is a chamber subset of one, as the one-chamber cut in the general
    path of ``wall_residuals`` is.  So each chamber is sorted by
    ``_sort_key``, holds no coefficient of magnitude at most ``DROP_TOL``,
    and consecutive kappas are further apart than ``KAPPA_TOL`` -- unless
    ``build`` dropped a term that sat between them, which ``_separated``
    detects.  On a separated
    chamber an operation that leaves the kappas unchanged needs no re-sort
    or re-merge: re-merging it could only drop coefficients of at most
    ``DROP_TOL``.
    """

    n: int
    terms: Mapping[Region, tuple[ExpTerm, ...]]

    def region_terms(self, region: Region) -> tuple[ExpTerm, ...]:
        return self.terms.get(region, ())


def _guard_size(n: int) -> None:
    if not 1 <= n <= MAX_PARTICLES:
        raise ValueError(f"particle count {n} outside supported range 1..{MAX_PARTICLES}")


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


#: positions of a kappa list grouped the way ``_merge_terms`` merges them:
#: (first, rest, the kappa the group keeps) per group, in merge order
_Groups = tuple[tuple[int, tuple[int, ...], tuple[complex, ...]], ...]

#: a merge's result: (groups, one sum per group) when no sum is at most
#: ``DROP_TOL``, else (None, the terms that survive the drop)
_Sums = tuple["_Groups | None", Sequence]


def _merge_groups(kappas: Sequence[tuple[complex, ...]]) -> _Groups:
    """Group positions as ``_merge_terms`` joins their kappas.

    Positions are sorted stably by ``_sort_key``; one joins the current group
    when its kappa agrees componentwise within ``KAPPA_TOL`` with the group's
    first, whose kappa the group keeps.  Only kappas are read, so the groups
    serve any coefficients on the same kappa list.
    """
    keys = [_sort_key(k) for k in kappas]
    groups: list[tuple[int, list[int], tuple[complex, ...]]] = []
    ref = None
    for pos in sorted(range(len(kappas)), key=keys.__getitem__):
        kappa = kappas[pos]
        if ref is not None and all(abs(k - r) <= KAPPA_TOL for k, r in zip(kappa, ref)):
            groups[-1][1].append(pos)
        else:
            groups.append((pos, [], kappa))
            ref = kappa
    return tuple((first, tuple(rest), kappa) for first, rest, kappa in groups)


def _group_sums(groups: _Groups, coefs: Sequence[complex]) -> _Sums:
    """Sum each group's coefficients in merge order, as ``_merge_terms`` does."""
    sums = []
    complete = True
    for first, rest, _ in groups:
        acc = coefs[first]
        for pos in rest:
            acc += coefs[pos]
        sums.append(acc)
        if abs(acc) <= DROP_TOL:
            complete = False
    if complete:
        return groups, sums
    return None, tuple(
        ExpTerm(acc, group[2]) for acc, group in zip(sums, groups) if abs(acc) > DROP_TOL
    )


def _sums_terms(sums: _Sums) -> tuple[ExpTerm, ...]:
    groups, payload = sums
    if groups is None:
        return payload
    return tuple(ExpTerm(acc, group[2]) for acc, group in zip(payload, groups))


def _merge_terms(raw: Iterable[tuple[complex, Sequence[complex]]]) -> tuple[ExpTerm, ...]:
    """Merge terms with kappa equal componentwise within KAPPA_TOL, drop tiny ones."""
    coefs, kappas = [], []
    for c, kap in raw:
        coefs.append(complex(c))
        kappas.append(tuple(complex(k) for k in kap))
    return _sums_terms(_group_sums(_merge_groups(kappas), coefs))


def _separated(terms: Iterable[tuple[complex, tuple[complex, ...]]]) -> bool:
    """True when no two consecutive kappas agree componentwise within KAPPA_TOL."""
    prev = None
    for _, kappa in terms:
        if prev is not None:
            for k, r in zip(kappa, prev):
                if abs(k - r) > KAPPA_TOL:
                    break
            else:
                return False
        prev = kappa
    return True


def _merge_parts(
    parts: Sequence[Sequence[tuple[complex, tuple[complex, ...]]]]
) -> tuple[ExpTerm, ...]:
    """``_merge_terms`` of the concatenated parts, each a sorted canonical chamber.

    When every part holds the same kappas position by position and they are
    separated, the stable sort puts each position's terms next to each other
    in part order, so the merge is a position-wise sum in that order; any
    other input takes the general merge.
    """
    first, rest = parts[0], parts[1:]
    kappas = [k for _, k in first]
    if all([k for _, k in p] == kappas for p in rest) and _separated(first):
        out = []
        for i, (coef, kappa) in enumerate(first):
            acc = complex(coef)
            for p in rest:
                acc += complex(p[i][0])
            if abs(acc) > DROP_TOL:
                out.append(ExpTerm(acc, kappa))
        return tuple(out)
    return _merge_terms(itertools.chain.from_iterable(parts))


def build(n: int, data: Mapping[Region, Iterable[tuple[complex, Sequence[complex]]]]) -> RegionFunction:
    """Assemble and canonicalise a RegionFunction from raw (coef, kappa) pairs."""
    terms = {}
    for region, raw in data.items():
        if region.n != n:
            raise ValueError("all regions must carry the same particle count")
        merged = _merge_terms(raw)
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

    Equal to ``build`` of the mapped terms: on a separated chamber (see
    ``RegionFunction``) that only drops coefficients of magnitude at most
    ``DROP_TOL``, so nothing is sorted or merged; any other chamber takes
    the general merge.
    """
    terms = {}
    for r, ts in f.terms.items():
        if _separated(ts):
            mapped = tuple(
                ExpTerm(c, t.kappa) for t in ts if abs(c := complex(fn(r, t))) > DROP_TOL
            )
        else:
            mapped = _merge_terms((fn(r, t), t.kappa) for t in ts)
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
        merged = _merge_parts((ts, us)) if us else _pass_through(ts)
        if merged:
            terms[region] = merged
    for region, us in g.terms.items():
        if region not in f.terms:
            merged = _pass_through(us)
            if merged:
                terms[region] = merged
    return RegionFunction(n=f.n, terms=terms)


def _pass_through(ts: tuple[ExpTerm, ...]) -> tuple[ExpTerm, ...]:
    return ts if _separated(ts) else _merge_terms(ts)


def scale(f: RegionFunction, z: complex) -> RegionFunction:
    return map_coefficients(f, lambda r, t: z * t.coef)


def max_coefficient(f: RegionFunction) -> float:
    return max((abs(t.coef) for ts in f.terms.values() for t in ts), default=0.0)


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


def evaluate(f: RegionFunction, x: Sequence[float]) -> complex:
    """Evaluate at a point strictly inside a chamber.

    Points within HYPERPLANE_GAP of a hyperplane are rejected: the function
    value there is defined only through one-sided limits, so the caller must
    pick a side explicitly.
    """
    if len(x) != f.n:
        raise ValueError("point dimension mismatch")
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

def _sum_scale(terms: Iterable[ExpTerm], z: complex):
    return [(z * t.coef, t.kappa) for t in terms]


def _max_coefficient(terms: Iterable[ExpTerm]) -> float:
    return max((abs(t.coef) for t in terms), default=0.0)


class _Plan(NamedTuple):
    """How one chamber kappa layout restricts to the wall of one pair (a, b).

    ``groups`` are the ``_merge_groups`` of the reduced kappas, so any
    coefficients on the layout restrict through ``_group_sums``; ``separated``
    is ``_separated`` of the layout itself.
    """

    separated: bool
    groups: _Groups


def _make_plan(layout: tuple[tuple[complex, ...], ...], a: int, b: int) -> _Plan:
    """The wall reduction, the only one in the calculus: substitute x_b := x_a.

    The reduced variables are x_1 .. x_N with x_b deleted and kappa_a merged
    to kappa_a + kappa_b, so sums restricted from either side of the wall
    are directly comparable term by term once merged by tolerance.
    """
    reduced = []
    for kappa in layout:
        kap = list(kappa)
        kap[a - 1] = kap[a - 1] + kap[b - 1]
        reduced.append(tuple(complex(k) for j, k in enumerate(kap) if j != b - 1))
    return _Plan(_separated((None, k) for k in layout), _merge_groups(reduced))


def _restrict(terms: Sequence[ExpTerm], a: int, b: int) -> _Sums:
    """One chamber's limit on the wall x_a = x_b, through a plan of its own layout."""
    plan = _make_plan(tuple(t.kappa for t in terms), a, b)
    return _group_sums(plan.groups, [complex(t.coef) for t in terms])


def _weighted_max(parts: Sequence[tuple[complex, _Sums]]) -> float:
    """Max coefficient of ``_merge_parts`` of the restrictions, each scaled by its weight.

    Restrictions summed over the same groups with no sum dropped hold the
    groups' kappas, which are separated by construction, so ``_merge_parts``
    would sum them position by position; that sum is done here directly.
    """
    groups = parts[0][1][0]
    if groups is None or any(sums[0] is not groups for _, sums in parts):
        return _max_coefficient(_merge_parts([_sum_scale(_sums_terms(s), w) for w, s in parts]))
    (w0, (_, first)), rest = parts[0], [(w, sums) for w, (_, sums) in parts[1:]]
    worst = 0.0
    for pos, coef in enumerate(first):
        acc = complex(w0 * coef)
        for w, sums in rest:
            acc += complex(w * sums[pos])
        size = abs(acc)
        if size > DROP_TOL and size > worst:
            worst = size
    return worst


def _wall_derivative(
    coefs: Sequence[complex], layout: Sequence[tuple[complex, ...]], a: int, b: int
) -> list[complex] | None:
    """Coefficients of (d/dx_a - d/dx_b) on one chamber, or None to take the general path.

    Each is computed as ``add(differentiate(f, a), scale(differentiate(f,
    b), -1.0))`` computes it on a separated chamber: complex(c*kappa_a),
    then -1.0 * complex(c*kappa_b), then their sum in that order.  That
    keeps the chamber's kappas, hence its plan, only if no term drops on the
    way, so any drop returns None.  The coefficients are Python complex
    numbers, so every product already is one and ``complex()`` would return
    it unchanged.  ``scale``'s own drop test on -1.0 * (c*kappa_b) is the
    test on c*kappa_b: negating changes no magnitude, and an infinite or NaN
    part stays so.
    """
    ia, ib = a - 1, b - 1
    tol = DROP_TOL
    out = []
    for coef, kappa in zip(coefs, layout):
        da = coef * kappa[ia]
        db = coef * kappa[ib]
        if abs(da) <= tol or abs(db) <= tol:
            return None
        acc = da
        acc += -1.0 * db
        if abs(acc) <= tol:
            return None
        out.append(acc)
    return out


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


class _Chamber(NamedTuple):
    """One component's chamber as a sweep sees it."""

    layout_id: int  # equal kappa layouts get one id per sweep
    layout: tuple[tuple[complex, ...], ...]
    terms: tuple[ExpTerm, ...]
    coefs: list[complex]


def _sweep(
    funcs: Sequence[RegionFunction],
    walls: Sequence[Interface],
    couplings: Mapping[tuple[int, int], Sequence[Sequence[complex]] | np.ndarray],
) -> tuple[float, float]:
    """The residual engine of ``matching_residuals`` and ``wall_residuals``.

    Only the walls' chambers are read, each one's kappa layout once.  Each
    (layout, pair) gets one ``_Plan``, shared by every chamber and component
    holding that layout, which restricts both f and its wall derivative
    there.  Plans live for this call only.  A derivative that does not fit
    its plan (non-separated chamber, or a dropped term) is built and
    restricted the general way.
    """
    mats = _coupling_matrices(couplings, (iface.pair for iface in walls), len(funcs))
    read = {region for iface in walls for region in (iface.left, iface.right)}
    layout_ids: dict[tuple[tuple[complex, ...], ...], int] = {}
    chambers: list[dict[Region, _Chamber]] = []
    for f in funcs:
        own = {}
        for region in read:
            ts = f.terms.get(region)
            if ts is not None:
                layout = tuple(t.kappa for t in ts)
                layout_id = layout_ids.setdefault(layout, len(layout_ids))
                own[region] = _Chamber(layout_id, layout, ts, [complex(t.coef) for t in ts])
        chambers.append(own)
    plans: dict[tuple[int, tuple[int, int]], _Plan] = {}

    def plan_of(chamber: _Chamber, pair: tuple[int, int]) -> _Plan:
        key = (chamber.layout_id, pair)
        plan = plans.get(key)
        if plan is None:
            plan = plans[key] = _make_plan(chamber.layout, *pair)
        return plan

    def restrict(chamber: _Chamber | None, pair: tuple[int, int]) -> _Sums:
        if chamber is None:
            return None, ()
        return _group_sums(plan_of(chamber, pair).groups, chamber.coefs)

    def restrict_derivative(chamber: _Chamber | None, region: Region, pair) -> _Sums:
        if chamber is None:
            return None, ()
        plan = plan_of(chamber, pair)
        if plan.separated:
            coefs = _wall_derivative(chamber.coefs, chamber.layout, *pair)
            if coefs is not None:
                return _group_sums(plan.groups, coefs)
        local = RegionFunction(n=len(region.order), terms={region: chamber.terms})
        d = add(differentiate(local, pair[0]), scale(differentiate(local, pair[1]), -1.0))
        return _restrict(d.region_terms(region), *pair)

    continuity = jump = 0.0
    for iface in walls:
        pair, mat = iface.pair, mats[iface.pair]
        sides = [(own.get(iface.left), own.get(iface.right)) for own in chambers]
        bases = []
        for i, (left_ch, right_ch) in enumerate(sides):
            left = restrict(left_ch, pair)
            gap = _weighted_max(((1.0, left), (-1.0, restrict(right_ch, pair))))
            if gap > JUMP_CONTINUITY_TOL:
                raise DiscontinuityError(
                    f"component {i} is discontinuous across interface pair {pair}"
                )
            continuity = max(continuity, gap)
            bases.append(left)
        for i, (left_ch, right_ch) in enumerate(sides):
            parts = [
                (1.0, restrict_derivative(right_ch, iface.right, pair)),
                (-1.0, restrict_derivative(left_ch, iface.left, pair)),
            ]
            for j in range(len(funcs)):
                cij = mat[i, j]
                if cij != 0:
                    parts.append((-cij, bases[j]))
            jump = max(jump, _weighted_max(parts))
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
    of a Bethe state does) share its wall restriction plans.
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
    whole-function formula gives: the derivative is computed term by term
    as ``differentiate``/``scale``/``add`` compute it, restrictions merge
    the reduced terms (``_make_plan``) as ``build`` would, and the weighted
    sums are accumulated in the order right, -left, then -C_ij * base_j by
    ascending j, position by position where the parts hold the same kappas
    (``_merge_parts``), exactly as the general merge sums them.
    """
    return _sweep(funcs, (iface,), {iface.pair: coupling})


# The per-wall entry points below stay only because perfbench/tracing.py wraps
# them by name; the library itself goes through ``_sweep``.

def restrict_to_interface(
    f: RegionFunction, iface: Interface, side: Literal["left", "right"]
) -> tuple[ExpTerm, ...]:
    """One-sided limit of f on the wall, in the N-1 variables of ``_make_plan``."""
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    return _sums_terms(_restrict(f.region_terms(getattr(iface, side)), *iface.pair))


def continuity_residual(f: RegionFunction, iface: Interface) -> float:
    """Coefficient-wise mismatch of the two one-sided limits; 0 = continuous."""
    left, right = (_restrict(f.region_terms(r), *iface.pair) for r in (iface.left, iface.right))
    return _weighted_max(((1.0, left), (-1.0, right)))


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
