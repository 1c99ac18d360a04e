"""Exact eigenstates of the N-boson contact-interaction Hamiltonian

    H = -Laplacian + 2c * sum_{a<b} delta(x_a - x_b),        c real,

on the full line: collision (scattering) states for arbitrary N built from
the Bethe superposition of plane waves, and the bound-state families that
exist for attractive coupling c < 0 (dimer, trimer, monomer-dimer, N-mer
ground state).  All states are returned as exact RegionFunctions, so the
matching conditions across every coincidence hyperplane can be verified to
machine precision.

Conventions
-----------
* two-body exchange factor  S(k_i, k_j) = [i(k_j - k_i) - c] / [i(k_j - k_i) + c],
  unimodular for real momenta, with phase theta(k) = pi - 2*arctan(k/c) in (0, 2pi);
* collision momenta are stored strictly decreasing, k_1 > ... > k_N;
* coefficients are anchored at the identity permutation, whose value is the
  full pairwise product prod_{u<v} S(k_u, k_v); every adjacent-transposition
  ratio then equals the corresponding S factor, independently of the
  reduction path (scalar factorization / Yang-Baxter);
* bound-state momenta are conjugate-closed strings, e.g. P +- i|c|/2 for the
  dimer; the surviving permutations are those whose exponentials decay, with
  relative weights given by the same S factors.

States are unnormalized throughout: only coefficient ratios enter the
matching conditions, and the overall scale of a scattering state on the full
line carries no physics.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from . import piecewise as pw
from .errors import BudgetError, PoleError

S_POLE_TOL = 1e-14
ENERGY_IMAG_TOL = 1e-12
STRING_MATCH_TOL = 1e-9
#: most raw terms a collision state may hold, N! on each of N! chambers: the
#: 518 400 of N = 6 (about 0.3 GB at peak); N = 7 would hold 25.4 M
COLLISION_MAX_TERMS = math.factorial(6) ** 2


def s_matrix(ki: complex, kj: complex, c: float) -> complex:
    """Two-body exchange factor S(k_i, k_j) = [i(k_j-k_i) - c] / [i(k_j-k_i) + c].

    A vanishing denominator means the pair forms a bound-state string
    (k_j - k_i = ic); scattering coefficients do not exist there and the
    bound-state constructors must be used instead.
    """
    den = 1j * (kj - ki) + c
    if abs(den) <= S_POLE_TOL:
        raise PoleError(
            "S-matrix pole: momenta form a bound-state string; "
            "use dimer_state/trimer_state/monomer_dimer_state"
        )
    return (1j * (kj - ki) - c) / den


def phase_shift(k: float, c: float) -> float:
    """Exchange phase theta(k) = pi - 2*arctan(k/c), valued in (0, 2*pi).

    exp(i*theta(kj - ki)) equals s_matrix(ki, kj, c) for real arguments.
    """
    if c == 0:
        raise ValueError("phase shift undefined for c = 0")
    return math.pi - 2.0 * math.atan(k / c)


def yang_baxter_residual(ka: complex, kb: complex, kc: complex, c: float) -> float:
    """|S12*S13*S23 - S23*S13*S12| for the three pairwise factors.

    Identically zero for scalar factors; the operation pins the factorization
    contract exercised by the coefficient path-independence checks.
    """
    s12 = s_matrix(ka, kb, c)
    s13 = s_matrix(ka, kc, c)
    s23 = s_matrix(kb, kc, c)
    return abs(s12 * s13 * s23 - s23 * s13 * s12)


# ---------------------------------------------------------------------------
# momenta
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MomentumSet:
    """Momenta of an exact eigenstate.

    Every momentum must be finite.  Real momenta (collision states), every
    imaginary part exactly 0, must be strictly decreasing; complex momenta
    (bound-state strings) must be closed under conjugation so the total energy
    sum k_j^2 is real.  A string of small |c| is complex however small its
    imaginary parts, so it is never read as equal real momenta.
    """

    k: tuple[complex, ...]

    def __post_init__(self):
        ks = tuple(complex(v) for v in self.k)
        object.__setattr__(self, "k", ks)
        for v in ks:
            if not cmath.isfinite(v):
                raise ValueError(f"momentum {v} is not finite")
        if all(v.imag == 0.0 for v in ks):
            reals = [v.real for v in ks]
            if any(reals[i] <= reals[i + 1] for i in range(len(reals) - 1)):
                raise ValueError("real momenta must be strictly decreasing, k_1 > ... > k_N")
        else:
            unmatched = list(ks)
            while unmatched:
                v = unmatched.pop()
                partner = next(
                    (u for u in unmatched if abs(u - v.conjugate()) <= STRING_MATCH_TOL), None
                )
                if abs(v.imag) <= STRING_MATCH_TOL:
                    continue
                if partner is None:
                    raise ValueError("string momenta must be closed under complex conjugation")
                unmatched.remove(partner)

    @property
    def n(self) -> int:
        return len(self.k)


def _values(k: "MomentumSet | Sequence[complex]") -> tuple[complex, ...]:
    if isinstance(k, MomentumSet):
        return k.k
    return tuple(complex(v) for v in k)


def energy(k: "MomentumSet | Sequence[complex]") -> float:
    """Total energy sum_j k_j^2; rejects momentum sets with non-real energy."""
    e = sum(v * v for v in _values(k))
    if abs(e.imag) > ENERGY_IMAG_TOL * max(1.0, abs(e.real)):
        raise ValueError(f"momenta are not a valid string: energy {e} is not real")
    return e.real


def conserved_charge(order: int, k: "MomentumSet | Sequence[complex]") -> complex:
    """Power-sum charge I_n = sum_j k_j^n (I_1 = total momentum, I_2 = energy)."""
    return sum(v**order for v in _values(k))


def charge_residual(
    state: pw.RegionFunction, k: "MomentumSet | Sequence[complex]", order: int
) -> float:
    """Bulk check of the charge eigenvalue on every chamber term.

    Each exponential term of an eigenstate carries momenta (-i kappa_j); for a
    permutation-symmetric construction the power sum of those equals I_n
    independent of the ordering.  Returns the max deviation over all terms,
    evaluated once per distinct kappa (``pw.used_kappas``).  A power or
    deviation that overflows (a large finite kappa entry) counts as inf.
    """
    target = conserved_charge(order, k)

    def deviation(kappa: pw.Kappa) -> float:
        try:
            return abs(sum((-1j * kap) ** order for kap in kappa) - target)
        except OverflowError:
            pw._clear_errno()
            return math.inf

    return pw.nan_max(map(deviation, pw.used_kappas(state)))


# ---------------------------------------------------------------------------
# Bethe coefficients
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BetheCoefficients:
    """Permutation -> coefficient map with all exchange ratios satisfied.

    For every adjacent transposition, alpha(..., P_{i+1}, P_i, ...) equals
    s_matrix(k_{P_i}, k_{P_{i+1}}, c) times alpha(..., P_i, P_{i+1}, ...).
    """

    n: int
    c: float
    momenta: tuple[complex, ...]
    alpha: Mapping[tuple[int, ...], complex]

    def __getitem__(self, perm: tuple[int, ...]) -> complex:
        return self.alpha[perm]


def _pairwise_s(ks: Sequence[complex], c: float) -> dict[tuple[int, int], complex]:
    n = len(ks)
    table = {}
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            table[(u, v)] = s_matrix(ks[u - 1], ks[v - 1], c)
    return table


def bethe_coefficients(k: "MomentumSet | Sequence[complex]", c: float) -> BetheCoefficients:
    """Exchange coefficients for all N! momentum orderings.

    The identity ordering is anchored at prod_{u<v} S(k_u, k_v); any other
    ordering picks up one S factor per inversion, which is exactly the
    adjacent-transposition recurrence integrated along any reduction path
    (path independence is the scalar Yang-Baxter statement).
    """
    ks = _values(k)
    n = len(ks)
    pw._guard_size(n)  # before walking all n! orderings
    table = _pairwise_s(ks, c)  # raises PoleError on any string pair
    alpha_id = 1.0 + 0.0j
    for val in table.values():
        alpha_id *= val
    alpha: dict[tuple[int, ...], complex] = {}
    for perm in itertools.permutations(range(1, n + 1)):
        val = alpha_id
        for i in range(n):
            for j in range(i + 1, n):
                u, v = perm[i], perm[j]
                if u > v:  # value pair (v, u) appears inverted
                    val *= table[(v, u)]
        alpha[perm] = val
    return BetheCoefficients(n=n, c=c, momenta=ks, alpha=alpha)


def coefficient_along_path(
    k: "MomentumSet | Sequence[complex]", c: float, path: Sequence[int]
) -> tuple[tuple[int, ...], complex]:
    """Multiply exchange ratios along a path of adjacent transpositions.

    ``path`` is a list of 0-based slots; starting from the identity ordering,
    each step swaps slots (i, i+1) and multiplies by the corresponding two-body
    factor.  Returns (final ordering, accumulated ratio to the identity
    coefficient).  Used to check path independence.
    """
    ks = _values(k)
    perm = list(range(1, len(ks) + 1))
    ratio = 1.0 + 0.0j
    for slot in path:
        u, v = perm[slot], perm[slot + 1]
        ratio *= s_matrix(ks[u - 1], ks[v - 1], c)
        perm[slot], perm[slot + 1] = v, u
    return tuple(perm), ratio


def max_recurrence_violation(coeffs: BetheCoefficients) -> float:
    """Largest deviation of any adjacent-transposition ratio from its S factor."""
    ks, alpha = coeffs.momenta, coeffs.alpha
    return pw.nan_max(
        abs(
            alpha[perm[:slot] + (perm[slot + 1], perm[slot]) + perm[slot + 2:]]
            - val * s_matrix(ks[perm[slot] - 1], ks[perm[slot + 1] - 1], coeffs.c)
        )
        for perm, val in alpha.items()
        for slot in range(coeffs.n - 1)
    )


# ---------------------------------------------------------------------------
# state constructors
# ---------------------------------------------------------------------------

def bethe_sum(
    alpha: Mapping[tuple[int, ...], complex],
    k: "MomentumSet | Sequence[complex]",
    n: int,
) -> pw.RegionFunction:
    """Assemble sum_P alpha(P) exp(i sum_m k_{P_m} x_{Q_m}) on every chamber Q."""
    ks = _values(k)
    by_slot = [(coef, [1j * ks[p - 1] for p in perm[:n]]) for perm, coef in alpha.items() if coef != 0]
    data = {}
    for region in pw.regions(n):
        slots = sorted(range(n), key=region.__getitem__)  # particle j sits at slot slots[j - 1]
        data[region] = [(coef, tuple([ik[s] for s in slots])) for coef, ik in by_slot]
    return pw.build(n, data)


def collision_state(k: "MomentumSet | Sequence[float]", c: float) -> pw.RegionFunction:
    """Scattering eigenstate for strictly decreasing real momenta.

    Satisfies continuity on every chamber wall and the derivative-jump
    condition with scalar coupling 2c there (attractive c < 0 included: the
    same construction with the signed c obeys the attractive jump).  A state
    of more than ``COLLISION_MAX_TERMS`` raw terms, (N!)^2, is refused with
    ``BudgetError`` before anything is built.
    """
    kset = k if isinstance(k, MomentumSet) else MomentumSet(tuple(k))
    pw._guard_size(kset.n)
    terms = math.factorial(kset.n) ** 2
    if terms > COLLISION_MAX_TERMS:
        raise BudgetError(
            f"a collision state of {kset.n} particles holds {terms} terms, "
            f"above the budget of {COLLISION_MAX_TERMS} (6 particles)"
        )
    if any(abs(v.imag) > STRING_MATCH_TOL for v in kset.k):
        raise ValueError("collision states need real momenta; strings have their own constructors")
    if c == 0:
        raise ValueError("collision state needs c != 0 (free waves carry no exchange data)")
    coeffs = bethe_coefficients(kset, c)
    return bethe_sum(coeffs.alpha, kset, kset.n)


def _require_attractive(c: float) -> float:
    if not c < 0:
        raise ValueError(f"bound states need attractive coupling c < 0, got c = {c}")
    return abs(c)


def dimer_momenta(p: float, c: float) -> MomentumSet:
    """Two-body string P +- i|c|/2 (energy 2P^2 - c^2/2)."""
    beta = _require_attractive(c)
    return MomentumSet((p + 0.5j * beta, p - 0.5j * beta))


def dimer_state(p: float, c: float) -> pw.RegionFunction:
    """Bound pair with centre-of-mass momentum 2P:
    exp(2iP X_12) * exp(-(|c|/2)|x_1 - x_2|).   Energy 2P^2 - c^2/2."""
    kset = dimer_momenta(p, c)
    return bethe_sum({(2, 1): 1.0 + 0.0j}, kset, 2)


def trimer_momenta(p: float, c: float) -> MomentumSet:
    """Three-body string (P + i|c|, P, P - i|c|) (energy 3P^2 - 2c^2)."""
    beta = _require_attractive(c)
    return MomentumSet((p + 1j * beta, p + 0.0j, p - 1j * beta))


def trimer_state(p: float, c: float) -> pw.RegionFunction:
    """Three-body bound state exp(3iPX) * exp(-(|c|/2) sum_{a<b} |x_a - x_b|).

    Only the fully reversed momentum ordering survives the string limit, so
    each chamber carries a single decaying exponential.  Energy 3P^2 - 2c^2.
    """
    kset = trimer_momenta(p, c)
    return bethe_sum({(3, 2, 1): 1.0 + 0.0j}, kset, 3)


def monomer_dimer_momenta(p: float, q: float, c: float) -> MomentumSet:
    """Dimer string P +- i|c|/2 plus free monomer momentum Q (P != Q)."""
    beta = _require_attractive(c)
    if p == q:
        raise ValueError("degenerate string: monomer-dimer states require P != Q")
    return MomentumSet((p + 0.5j * beta, p - 0.5j * beta, q))


def monomer_dimer_state(p: float, q: float, c: float) -> pw.RegionFunction:
    """Bound pair scattering against a free third particle.

    Each chamber carries the three pairing terms (dimer on the pair, plane
    wave on the monomer).  The string limit of the exchange coefficients
    leaves the three orderings that keep the decaying pair together; their
    relative weights are the two surviving S factors (dimer-monomer exchange
    phases), which is what makes every interface condition hold.  Energy
    Q^2 + 2P^2 - c^2/2.
    """
    kset = monomer_dimer_momenta(p, q, c)
    k1, k2, k3 = kset.k
    s13 = s_matrix(k1, k3, c)
    s23 = s_matrix(k2, k3, c)
    alpha = {
        (2, 1, 3): 1.0 + 0.0j,
        (2, 3, 1): s13,
        (3, 2, 1): s13 * s23,
    }
    return bethe_sum(alpha, kset, 3)


def nmer_momenta(n: int, c: float) -> MomentumSet:
    """Pure imaginary string i|c|(N+1-2j)/2, j = 1..N, of the N-mer at rest."""
    beta = abs(c)
    if beta == 0:
        raise ValueError("N-mer needs c != 0")
    return MomentumSet(tuple(0.5j * beta * (n + 1 - 2 * j) for j in range(1, n + 1)))


def nmer_ground(n: int, c: float) -> pw.RegionFunction:
    """N-body ground profile exp(-(|c|/2) sum_{a<b} |x_a - x_b|).

    One real exponential per chamber, kappa_j = -(|c|/2)(2 rank(j) - N - 1);
    continuous across all walls with derivative jump -2|c| on each.  The sign
    of c is immaterial here: with c < 0 this is the ground state of the
    attractive gas, with c > 0 it is reused as the superpotential factor
    exp(-W) of the supersymmetric sectors.
    """
    kset = nmer_momenta(n, c)
    reversal = tuple(range(n, 0, -1))
    return bethe_sum({reversal: 1.0 + 0.0j}, kset, n)


# ---------------------------------------------------------------------------
# residual suites
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MatchingReport:
    """Worst-case residuals of an exact eigenstate over all chamber walls."""

    max_continuity: float
    max_jump: float
    max_bulk: float

    def passed(self, tol: float = 1e-10) -> bool:
        return self.max_continuity <= tol and self.max_jump <= tol and self.max_bulk <= tol


def bulk_energy_residual(state: pw.RegionFunction, e: float) -> float:
    """Max over chamber terms of |(-sum_j kappa_j^2) - E|.

    Evaluated once per distinct kappa (``pw.used_kappas``): a Bethe state
    holds the same N! kappas on each of its N! chambers.  NaN when any
    residual is NaN.
    """
    return pw.nan_max(kappa_energy_residual(kappa, e) for kappa in pw.used_kappas(state))


def kappa_energy_residual(kappa: pw.Kappa, e: float) -> float:
    """|(-sum_j kappa_j^2) - E| of one kappa."""
    return abs(-sum(kk * kk for kk in kappa) - e)


def matching_report(state: pw.RegionFunction, c: float, e: float) -> MatchingReport:
    """Continuity, scalar jump (coupling 2c) and bulk residuals of a state."""
    coupling = [[2.0 * c]]
    cont, jump = pw.matching_residuals(
        [state], {iface.pair: coupling for iface in pw.interfaces(state.n)}
    )
    return MatchingReport(
        max_continuity=cont, max_jump=jump, max_bulk=bulk_energy_residual(state, e)
    )
