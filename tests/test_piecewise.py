"""Chamber calculus: enumeration, signs, derivatives, restrictions, matching."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slly import bethe, susy
from slly import piecewise as pw
from slly.errors import AmbiguousPointError, DiscontinuityError


def plane_wave(n, kappa, coef=1.0):
    return pw.build(n, {r: [(coef, tuple(kappa))] for r in pw.regions(n)})


def canonicalize(f):
    """Re-merge and re-sort every chamber with ``build``.

    Idempotent on separated chambers (see ``RegionFunction``) only: where
    ``build`` dropped a term that sorted between two kappas within
    ``KAPPA_TOL``, re-merging joins those two, so the canonical form of a
    function can depend on how it was built.
    """
    return pw.build(f.n, {r: [(t.coef, t.kappa) for t in ts] for r, ts in f.terms.items()})


def old_restrict(f, iface, side):
    """One-sided limit on the wall: substitute x_b := x_a, delete x_b, re-merge."""
    a, b = iface.pair
    keep = [j for j in range(1, f.n + 1) if j != b]
    raw = []
    for t in f.region_terms(getattr(iface, side)):
        kap = list(t.kappa)
        kap[a - 1] = kap[a - 1] + kap[b - 1]
        raw.append((t.coef, tuple(kap[j - 1] for j in keep)))
    return pw._merge_terms(raw)


def plan_restrict(f, iface, side):
    """The library's wall restriction: one chamber through a plan of its layout."""
    return pw._sums_terms(pw._restrict(f.region_terms(getattr(iface, side)), *iface.pair))


class TestEnumeration:
    def test_single_particle(self):
        assert [r.order for r in pw.regions(1)] == [(1,)]

    def test_three_particles_matches_listing(self):
        orders = [r.order for r in pw.regions(3)]
        assert orders == [
            (1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1),
        ]

    def test_five_particles_against_permutation_oracle(self):
        regions = pw.regions(5)
        oracle = set(itertools.permutations(range(1, 6)))
        assert len(regions) == 120
        assert {r.order for r in regions} == oracle

    @pytest.mark.parametrize("n", [0, 11])
    def test_size_guard(self, n):
        with pytest.raises(ValueError):
            pw.regions(n)

    @pytest.mark.parametrize("n,count", [(2, 1), (3, 6), (4, 36)])
    def test_interface_counts(self, n, count):
        ifaces = pw.interfaces(n)
        assert len(ifaces) == count
        assert count == math.factorial(n) * (n - 1) // 2

    def test_interface_orientation_and_adjacency(self):
        for iface in pw.interfaces(4):
            a, b = iface.pair
            assert a < b
            assert iface.left.sign(a, b) == -1
            assert iface.right.sign(a, b) == 1
            # regions differ by exactly one adjacent transposition
            diff = [i for i, (s, t) in enumerate(zip(iface.left.order, iface.right.order)) if s != t]
            assert len(diff) == 2 and diff[1] == diff[0] + 1

    def test_interfaces_unique(self):
        ifaces = pw.interfaces(4)
        keys = {frozenset((i.left.order, i.right.order)) for i in ifaces}
        assert len(keys) == len(ifaces)


class TestSign:
    def test_identity_region(self):
        r = pw.Region((1, 2, 3))
        assert r.sign(1, 2) == -1

    def test_reversed_region(self):
        r = pw.Region((3, 2, 1))
        assert r.sign(1, 3) == 1

    def test_equal_indices_rejected(self):
        with pytest.raises(ValueError):
            pw.Region((1, 2)).sign(1, 1)

    @settings(max_examples=60, deadline=None)
    @given(perm=st.permutations(list(range(1, 5))))
    def test_antisymmetry(self, perm):
        r = pw.Region(tuple(perm))
        for a in range(1, 5):
            for b in range(1, 5):
                if a != b:
                    assert r.sign(a, b) == -r.sign(b, a)

    def test_unity_partition_three_particles(self):
        # eps(x1-x2)eps(x1-x3) + eps(x2-x1)eps(x2-x3) + eps(x1-x3)eps(x2-x3) = 1
        one = pw.constant_function(3)
        t1 = pw.multiply_sign(pw.multiply_sign(one, 1, 2), 1, 3)
        t2 = pw.multiply_sign(pw.multiply_sign(one, 2, 1), 2, 3)
        t3 = pw.multiply_sign(pw.multiply_sign(one, 1, 3), 2, 3)
        total = pw.add(pw.add(t1, t2), t3)
        assert pw.coefficient_distance(total, one) == 0.0


class TestDifferentiate:
    def test_scales_by_kappa(self):
        f = plane_wave(2, (1j, -1j), coef=2.0)
        df = pw.differentiate(f, 1)
        for ts in df.terms.values():
            assert ts[0].coef == 2j

    def test_commutes(self):
        f = plane_wave(3, (0.3 + 1j, -0.7j, 1.1))
        a = pw.differentiate(pw.differentiate(f, 1), 2)
        b = pw.differentiate(pw.differentiate(f, 2), 1)
        assert pw.coefficient_distance(a, b) == 0.0

    def test_dimer_center_of_mass_derivative_vanishes(self):
        # kappa_1 = -kappa_2 per chamber, so (d1 + d2) annihilates the pair profile
        f = bethe.dimer_state(0.0, -2.0)
        total = pw.add(pw.differentiate(f, 1), pw.differentiate(f, 2))
        assert pw.max_coefficient(total) == 0.0


class TestMultiplySign:
    def test_involution(self):
        f = plane_wave(3, (1j, 2j, -3j), coef=1.5 + 0.5j)
        twice = pw.multiply_sign(pw.multiply_sign(f, 1, 3), 1, 3)
        assert pw.coefficient_distance(twice, f) == 0.0

    def test_two_particle_signs(self):
        f = pw.multiply_sign(pw.constant_function(2), 1, 2)
        r12, r21 = pw.Region((1, 2)), pw.Region((2, 1))
        assert f.terms[r12][0].coef == -1
        assert f.terms[r21][0].coef == 1

    def test_equal_indices_rejected(self):
        with pytest.raises(ValueError):
            pw.multiply_sign(pw.constant_function(2), 2, 2)


class TestEvaluate:
    def test_constant(self):
        f = pw.constant_function(3)
        assert pw.evaluate(f, (0.0, 1.0, -2.0)) == 1.0

    def test_dimer_value(self):
        f = bethe.dimer_state(0.0, -2.0)
        assert pw.evaluate(f, (0.0, 1.0)) == pytest.approx(math.exp(-1.0), abs=1e-14)

    def test_diagonal_rejected(self):
        f = pw.constant_function(2)
        with pytest.raises(AmbiguousPointError):
            pw.evaluate(f, (0.5, 0.5))


class TestCanonicalization:
    def test_merges_equal_kappa(self):
        r = pw.Region((1, 2))
        f = pw.build(2, {r: [(1.0, (1j, 0)), (2.0, (1j, 0))]})
        assert len(f.terms[r]) == 1
        assert f.terms[r][0].coef == 3.0

    def test_drops_tiny_coefficients(self):
        r = pw.Region((1, 2))
        f = pw.build(2, {r: [(1e-15, (1j, 0))]})
        assert r not in f.terms

    def test_idempotent(self):
        import numpy as np

        rng = np.random.default_rng(7)
        data = {}
        for region in pw.regions(3):
            data[region] = [
                (
                    complex(rng.standard_normal(), rng.standard_normal()),
                    tuple(complex(rng.standard_normal(), rng.standard_normal()) for _ in range(3)),
                )
                for _ in range(4)
            ]
        f = pw.build(3, data)
        g = canonicalize(f)
        assert f.terms == g.terms


class TestRestriction:
    def test_plane_wave_substitution(self):
        k1, k2 = 1.3, -0.4
        f = plane_wave(2, (1j * k1, 1j * k2))
        iface = pw.interfaces(2)[0]
        left = plan_restrict(f, iface, "left")
        assert len(left) == 1
        assert left[0].kappa == (1j * (k1 + k2),)

    def test_dimer_restricts_to_one(self):
        f = bethe.dimer_state(0.0, -2.0)
        iface = pw.interfaces(2)[0]
        for side in ("left", "right"):
            terms = plan_restrict(f, iface, side)
            assert len(terms) == 1
            assert terms[0].coef == pytest.approx(1.0)
            assert terms[0].kappa == (0.0,)

    def test_bethe_state_sides_agree(self):
        f = bethe.collision_state([1.0, -0.5], 1.7)
        iface = pw.interfaces(2)[0]
        assert plan_restrict(f, iface, "left") == plan_restrict(f, iface, "right")
        assert pw.wall_residuals([f], iface, [[3.4]])[0] == 0.0

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(2, 4), seed=st.integers(0, 2**32 - 1))
    def test_plan_restriction_equals_old_restrict(self, n, seed):
        rng = np.random.default_rng(seed)
        for iface in pw.interfaces(n):
            f = _wall_chambers(rng, iface)
            for side in ("left", "right"):
                got = plan_restrict(f, iface, side)
                assert got == old_restrict(f, iface, side)
                assert all(type(t.coef) is complex for t in got)

    def test_restriction_inputs_reach_every_branch(self):
        """The random chambers merge on the wall, drop sums and include non-separated ones."""
        rng = np.random.default_rng(4)
        chambers = merged = dropped = unseparated = 0
        for _ in range(40):
            for iface in pw.interfaces(3):
                f = _wall_chambers(rng, iface)
                for side in ("left", "right"):
                    ts = f.region_terms(getattr(iface, side))
                    groups, _ = pw._restrict(ts, *iface.pair)
                    chambers += 1
                    merged += len(old_restrict(f, iface, side)) < len(ts)
                    dropped += groups is None
                    unseparated += not pw._separated(ts)
        assert merged > chambers // 4 and dropped > chambers // 10
        assert 5 < unseparated < chambers // 2

    def test_linearity(self):
        import numpy as np

        rng = np.random.default_rng(3)

        def rand_fn():
            data = {}
            for region in pw.regions(3):
                data[region] = [
                    (
                        complex(rng.standard_normal(), rng.standard_normal()),
                        tuple(1j * rng.standard_normal() for _ in range(3)),
                    )
                    for _ in range(3)
                ]
            return pw.build(3, data)

        f, g = rand_fn(), rand_fn()
        iface = pw.interfaces(3)[0]
        merged = pw._merge_terms(
            [(t.coef, t.kappa) for t in plan_restrict(pw.add(f, g), iface, "left")]
            + [(-t.coef, t.kappa) for t in plan_restrict(f, iface, "left")]
            + [(-t.coef, t.kappa) for t in plan_restrict(g, iface, "left")]
        )
        assert max((abs(t.coef) for t in merged), default=0.0) <= 1e-12


class TestMatchingResiduals:
    def test_constant_is_continuous(self):
        f = pw.constant_function(3)
        for iface in pw.interfaces(3):
            assert pw.wall_residuals([f], iface, [[1.0]])[0] == 0.0

    def test_valid_ratio_continuous_and_perturbed_not(self):
        c, k1, k2 = 1.9, 0.8, -0.3
        s = bethe.s_matrix(k1, k2, c)
        iface = pw.interfaces(2)[0]
        r12, r21 = iface.left, iface.right
        ka, kb = (1j * k1, 1j * k2), (1j * k2, 1j * k1)

        def two_body(ratio):
            return pw.build(2, {r12: [(1.0, ka), (ratio, kb)], r21: [(1.0, kb), (ratio, ka)]})

        continuity, jump = pw.wall_residuals([two_body(s)], iface, [[2 * c]])
        assert continuity == 0.0 and jump <= 1e-13
        assert pw.wall_residuals([two_body(s * 1.1)], iface, [[2 * c]])[1] > 1e-3

    def test_free_wave_jump_equals_coupling(self):
        c = 1.3
        f = plane_wave(2, (0.7j, -0.2j))
        iface = pw.interfaces(2)[0]
        assert pw.wall_residuals([f], iface, [[2 * c]])[1] == pytest.approx(2 * abs(c))

    def test_dimension_mismatch(self):
        f = pw.constant_function(2)
        iface = pw.interfaces(2)[0]
        with pytest.raises(ValueError):
            pw.wall_residuals([f], iface, [[1.0, 0.0], [0.0, 1.0]])

    def test_discontinuous_input_rejected(self):
        r12, r21 = pw.Region((1, 2)), pw.Region((2, 1))
        f = pw.build(2, {r12: [(1.0, (0j, 0j))], r21: [(2.0, (0j, 0j))]})
        iface = pw.interfaces(2)[0]
        with pytest.raises(DiscontinuityError):
            pw.wall_residuals([f], iface, [[1.0]])


# The formulas below re-merge every result with ``build``/``_merge_terms``,
# as the calculus did before its canonical fast paths; the fast paths must
# reproduce them exactly.

def old_map(f, fn):
    return pw.build(f.n, {r: [(fn(r, t), t.kappa) for t in ts] for r, ts in f.terms.items()})


def old_add(f, g):
    data = {}
    for h in (f, g):
        for region, ts in h.terms.items():
            data.setdefault(region, []).extend((t.coef, t.kappa) for t in ts)
    return pw.build(f.n, data)


def old_scale(f, z):
    return old_map(f, lambda r, t: z * t.coef)


def old_differentiate(f, j):
    return old_map(f, lambda r, t: t.coef * t.kappa[j - 1])


def old_sum_max(raw):
    return max((abs(t.coef) for t in pw._merge_terms(raw)), default=0.0)


def old_continuity(f, iface):
    left = old_restrict(f, iface, "left")
    right = old_restrict(f, iface, "right")
    return old_sum_max(pw._sum_scale(left, 1.0) + pw._sum_scale(right, -1.0))


def full_function_jump(funcs, iface, coupling):
    """Reference jump residual: differentiates every chamber of every component."""
    mat = np.asarray(coupling, dtype=complex)
    a, b = iface.pair
    for i, f in enumerate(funcs):
        if old_continuity(f, iface) > pw.JUMP_CONTINUITY_TOL:
            raise DiscontinuityError(f"component {i}")
    bases = [old_restrict(f, iface, "left") for f in funcs]
    worst = 0.0
    for i, f in enumerate(funcs):
        d = old_add(old_differentiate(f, a), old_scale(old_differentiate(f, b), -1.0))
        raw = list(pw._sum_scale(old_restrict(d, iface, "right"), 1.0))
        raw += pw._sum_scale(old_restrict(d, iface, "left"), -1.0)
        for j in range(len(funcs)):
            cij = mat[i, j]
            if cij != 0:
                raw += pw._sum_scale(bases[j], -cij)
        worst = max(worst, old_sum_max(raw))
    return worst


def _random_kappa(rng, n):
    return tuple(complex(rng.standard_normal(), rng.standard_normal()) for _ in range(n))


def _random_terms(rng, n, count):
    return [(complex(rng.standard_normal(), rng.standard_normal()), _random_kappa(rng, n))
            for _ in range(count)]


def _continuous_at(rng, iface, pool):
    """Random function that is continuous across ``iface``.

    Every chamber gets random terms.  On the wall's chambers the kappas come
    from ``pool``, so terms (and components sharing the pool) merge and the
    derivative jump meets the coupling terms.  The right chamber repeats the
    left chamber's terms and adds pairs d*(exp(kappa.x) - exp(kappa'.x)),
    with kappa' the a<->b swap of kappa, which vanish on the wall x_a = x_b.
    """
    n = len(pool[0])
    a, b = iface.pair

    def from_pool(count):
        coefs = [complex(rng.standard_normal(), rng.standard_normal()) for _ in range(count)]
        return [(z, pool[int(rng.integers(len(pool)))]) for z in coefs]

    data = {r: _random_terms(rng, n, int(rng.integers(0, 4))) for r in pw.regions(n)}
    left = from_pool(int(rng.integers(1, 4)))
    right = list(left)
    for coef, kappa in from_pool(int(rng.integers(0, 3))):
        swapped = list(kappa)
        swapped[a - 1], swapped[b - 1] = kappa[b - 1], kappa[a - 1]
        right += [(coef, kappa), (-coef, tuple(swapped))]
    data[iface.left], data[iface.right] = left, right
    return pw.build(n, data)


def _random_coupling(rng, size):
    mat = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    return np.where(rng.random((size, size)) < 0.3, 0.0, mat)


class TestWallLocalKernel:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 4),
        components=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_equals_full_function_formula(self, n, components, seed, data):
        rng = np.random.default_rng(seed)
        iface = data.draw(st.sampled_from(pw.interfaces(n)))
        pool = [_random_kappa(rng, n) for _ in range(3)]
        funcs = [_continuous_at(rng, iface, pool) for _ in range(components)]
        coupling = _random_coupling(rng, components)
        reference = full_function_jump(funcs, iface, coupling)
        continuity = max(old_continuity(f, iface) for f in funcs)
        assert pw.wall_residuals(funcs, iface, coupling) == (continuity, reference)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(2, 4),
        components=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_chambers_off_the_wall_are_never_read(self, n, components, seed, data):
        rng = np.random.default_rng(seed)
        iface = data.draw(st.sampled_from(pw.interfaces(n)))
        pool = [_random_kappa(rng, n) for _ in range(3)]
        funcs = [_continuous_at(rng, iface, pool) for _ in range(components)]
        coupling = _random_coupling(rng, components)
        off_wall = [r for r in pw.regions(n) if r not in (iface.left, iface.right)]
        noisy = [
            pw.add(f, pw.build(n, {r: _random_terms(rng, n, 2) for r in off_wall}))
            for f in funcs
        ]
        assert pw.wall_residuals(noisy, iface, coupling) == pw.wall_residuals(
            funcs, iface, coupling
        )

    def test_discontinuity_named_by_component_and_pair(self):
        rng = np.random.default_rng(11)
        iface = pw.interfaces(3)[2]
        good = _continuous_at(rng, iface, [_random_kappa(rng, 3)])
        bad = pw.add(good, pw.build(3, {iface.left: [(0.5, (0j, 0j, 0j))]}))
        pair = rf"\({iface.pair[0]}, {iface.pair[1]}\)"
        with pytest.raises(DiscontinuityError, match=rf"component 1 .*pair {pair}"):
            pw.wall_residuals([good, bad], iface, np.eye(2))

    def test_matching_report_rejects_discontinuous_state(self):
        ks, c = (1.2, 0.1, -0.7), 1.4
        state = bethe.collision_state(ks, c)
        region = pw.Region((2, 1, 3))
        broken = pw.add(state, pw.build(3, {region: [(0.25, (0j, 0j, 0j))]}))
        with pytest.raises(DiscontinuityError):
            bethe.matching_report(broken, c, bethe.energy(ks))

    def test_verify_eigenstate_rejects_discontinuous_component(self):
        sp = susy.Superpotential(n=3, c=1.0)
        mode = susy.zero_mode_alternating(sp)
        mask = min(mode.components)
        region = pw.Region((1, 3, 2))
        broken = dict(mode.components)
        broken[mask] = pw.add(broken[mask], pw.build(3, {region: [(0.25, (0j, 0j, 0j))]}))
        with pytest.raises(DiscontinuityError, match=r"component \d+ .*pair \(\d, \d\)"):
            susy.verify_eigenstate(susy.SpinorFunction(3, broken), 0.0, sp)


#: offsets of the first kappa component around KAPPA_TOL (1e-12): near-equal
#: kappas merge or stay apart depending on which side of the tolerance they fall
NEAR_TOL = (0.0, 0.4e-12, 0.9e-12, 1.0e-12, 1.1e-12, 1.6e-12, 2.5e-12)


def _kappa_pool(rng, n):
    """Random kappas with exact zero components and near-duplicates around KAPPA_TOL.

    A near-duplicate shifts the real part of the first component of a base
    kappa by one of ``NEAR_TOL``; some also move another component far away,
    so they sort between a base and its close neighbour without merging.
    """
    pool = []
    for _ in range(int(rng.integers(1, 4))):
        base = tuple(
            0j if rng.random() < 0.3 else complex(rng.standard_normal(), rng.standard_normal())
            for _ in range(n)
        )
        pool.append(base)
        for _ in range(int(rng.integers(0, 4))):
            kappa = list(base)
            kappa[0] += NEAR_TOL[int(rng.integers(len(NEAR_TOL)))]
            if n > 1 and rng.random() < 0.4:
                kappa[int(rng.integers(1, n))] += 3.0
            pool.append(tuple(kappa))
    return pool


def _coef(rng):
    """Random coefficient; some sit near DROP_TOL, so sums and maps drop them."""
    size = (1.0, 1.0, 1e-13, 1e-14, 1e-15)[int(rng.integers(5))]
    return size * complex(rng.standard_normal(), rng.standard_normal())


def _wall_chambers(rng, iface):
    """Both chambers of ``iface``: a ``_kappa_pool`` each, half its kappas with their a<->b swap.

    A kappa and its swap restrict to the same reduced kappa, so terms merge
    on the wall; a swap carrying the negated coefficient cancels there, and
    tiny coefficients (``_coef``) drop, in ``build`` or on the wall.
    """
    n = iface.left.n
    a, b = iface.pair

    def swap(kappa):
        out = list(kappa)
        out[a - 1], out[b - 1] = kappa[b - 1], kappa[a - 1]
        return tuple(out)

    data = {}
    for region in (iface.left, iface.right):
        raw = []
        for kappa in _kappa_pool(rng, n):
            coef = _coef(rng)
            raw.append((coef, kappa))
            if rng.random() < 0.5:
                raw.append((-coef if rng.random() < 0.5 else _coef(rng), swap(kappa)))
        data[region] = raw
    return pw.build(n, data)


def _canonical_pair(rng, n):
    """Two canonical functions whose chambers share all, some or none of their kappas.

    Per chamber: present in f only, in g only, in both with the same raw
    kappas (position-wise equal after the merge unless a drop differs), in
    both with g cancelling part of f exactly, in both with unrelated kappas,
    or in neither.
    """
    data_f, data_g = {}, {}
    for region in pw.regions(n):
        pool = _kappa_pool(rng, n)
        kappas = pool + [pool[int(rng.integers(len(pool)))] for _ in range(int(rng.integers(3)))]
        raw_f = [(_coef(rng), k) for k in kappas]
        mode = int(rng.integers(6))
        if mode in (0, 2, 3, 4):
            data_f[region] = raw_f
        if mode == 1:
            data_g[region] = raw_f
        elif mode == 2:
            data_g[region] = [(_coef(rng), k) for k in kappas]
        elif mode == 3:
            data_g[region] = [(-c if rng.random() < 0.5 else _coef(rng), k) for c, k in raw_f]
        elif mode == 4:
            data_g[region] = [(_coef(rng), k) for k in _kappa_pool(rng, n)]
    return pw.build(n, data_f), pw.build(n, data_g)


def _canonical_parts(rng, n, count):
    """Canonical chambers (term tuples) for ``_merge_parts``: equal kappa lists or not."""
    pool = _kappa_pool(rng, n)
    kappas = [pool[int(rng.integers(len(pool)))] for _ in range(int(rng.integers(1, 6)))]
    parts = []
    region = pw.Region(tuple(range(1, n + 1)))
    for _ in range(count):
        own = kappas if rng.random() < 0.8 else _kappa_pool(rng, n)
        raw = [(_coef(rng) * 10.0 ** int(rng.integers(-3, 4)), k) for k in own]
        parts.append(pw.build(n, {region: raw}).region_terms(region))
    return parts


class TestCanonicalFastPaths:
    """The coefficient maps, ``add`` and the wall sums equal the build-based formulas."""

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_maps_and_add_equal_build(self, n, seed):
        rng = np.random.default_rng(seed)
        f, g = _canonical_pair(rng, n)
        z = complex(rng.standard_normal(), rng.standard_normal())
        z *= 10.0 ** int(rng.integers(-14, 2))
        j = int(rng.integers(1, n + 1))
        sp = susy.Superpotential(n=n, c=float(rng.uniform(0.0, 3.0)))
        cases = [
            (pw.add(f, g), old_add(f, g)),
            (pw.add(g, f), old_add(g, f)),
            (pw.scale(f, z), old_scale(f, z)),
            (pw.scale(f, -1.0), old_scale(f, -1.0)),
            (pw.differentiate(f, j), old_differentiate(f, j)),
            (pw.laplacian(f), old_map(f, lambda r, t: t.coef * sum(k * k for k in t.kappa))),
            (susy._gradw_multiply(f, j, sp, -1.0),
             old_map(f, lambda r, t: t.coef * -1.0 * susy.grad_w(r, j, sp))),
        ]
        if n > 1:
            a, b = sorted(rng.choice(np.arange(1, n + 1), size=2, replace=False).tolist())
            cases.append(
                (pw.multiply_sign(f, a, b), old_map(f, lambda r, t: r.sign(a, b) * t.coef))
            )
        for fast, old in cases:
            assert fast.terms == old.terms
            assert list(fast.terms) == list(old.terms)  # chamber order too
            for ts in fast.terms.values():
                assert all(type(t.coef) is complex for t in ts)

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 4), count=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
    def test_merge_parts_equals_merge_of_concatenation(self, n, count, seed):
        rng = np.random.default_rng(seed)
        parts = _canonical_parts(rng, n, count)
        weights = [1.0, -1.0] + [complex(rng.standard_normal(), rng.standard_normal())
                                 for _ in range(count)]
        scaled = [pw._sum_scale(p, w) for p, w in zip(parts, weights)]
        assert pw._merge_parts(scaled) == pw._merge_terms([t for p in scaled for t in p])

    def test_inputs_reach_both_branches(self):
        """The random inputs take the fast paths, the general merge and the drops."""
        rng = np.random.default_rng(5)
        chambers = unseparated = shared = dropped = 0
        for _ in range(300):
            f, g = _canonical_pair(rng, 3)
            df = pw.differentiate(f, 2)
            for region, ts in f.terms.items():
                chambers += 1
                unseparated += not pw._separated(ts)
                us = g.terms.get(region, ())
                shared += [t.kappa for t in us] == [t.kappa for t in ts]
                dropped += len(df.region_terms(region)) < len(ts)
        assert 0 < unseparated < chambers // 2
        assert shared > chambers // 10 and dropped > chambers // 10

    def test_non_separated_chamber_takes_the_general_merge(self):
        """``build`` can leave two close kappas adjacent when it drops the term between them."""
        region = pw.Region((1, 2))
        near, apart, close = (0j, 0j), (0.3e-12 + 0j, 3 + 0j), (0.6e-12 + 0j, 0j)
        f = pw.build(2, {region: [(1.0, near), (1e-15, apart), (2.0, close)]})
        ts = f.terms[region]
        assert [t.kappa for t in ts] == [near, close] and not pw._separated(ts)
        # re-merging joins the two: every operation must do what build does
        assert canonicalize(f).terms[region] == (pw.ExpTerm(3.0 + 0j, near),)
        assert pw.scale(f, 2.0).terms == old_scale(f, 2.0).terms
        assert pw.add(f, pw.zero_function(2)).terms == old_add(f, pw.zero_function(2)).terms
        assert pw.add(f, f).terms == old_add(f, f).terms
        assert pw.differentiate(f, 1).terms == old_differentiate(f, 1).terms


def reference_sweep(funcs, couplings):
    """Every wall in ``interfaces`` order through the old per-wall formulas."""
    continuity = jump = 0.0
    for iface in pw.interfaces(funcs[0].n):
        for i, f in enumerate(funcs):
            gap = old_continuity(f, iface)
            if gap > pw.JUMP_CONTINUITY_TOL:
                raise DiscontinuityError(
                    f"component {i} is discontinuous across interface pair {iface.pair}"
                )
            continuity = max(continuity, gap)
        jump = max(jump, full_function_jump(funcs, iface, couplings[iface.pair]))
    return continuity, jump


def assert_same_outcome(run, reference):
    """``run()`` returns what ``reference()`` returns, or raises the same discontinuity."""
    try:
        expected = reference()
    except DiscontinuityError as exc:
        with pytest.raises(DiscontinuityError) as got:
            run()
        assert str(got.value) == str(exc)
        return
    assert run() == expected


def _bethe_momenta(rng, n):
    """Complex momenta; some equal, zero, or a NEAR_TOL step apart.

    Equal momenta give terms with kappa_a == kappa_b, whose wall derivative
    vanishes; a zero momentum gives kappa_a == 0; near-equal ones give kappas
    that merge, or that stay apart only while a term between them survives.
    """
    ks = []
    for _ in range(n):
        r = rng.random()
        if ks and r < 0.15:
            near = NEAR_TOL[int(rng.integers(len(NEAR_TOL)))]
            ks.append(ks[int(rng.integers(len(ks)))] + 1j * near)
        elif r < 0.2:
            ks.append(0j)
        else:
            ks.append(complex(rng.standard_normal(), rng.standard_normal()))
    return ks


def _bethe_like(rng, n, ks):
    """``bethe_sum`` with random exchange coefficients.

    Any coefficients give a function that is continuous on every wall
    (unless near-equal kappas merge differently on the two sides), and
    every chamber holds permutations of one kappa set, so the chambers share
    kappa layouts unless a tiny coefficient (dropped by ``build``, or by the
    derivative) removes a different term on each of them.
    """
    perms = list(itertools.permutations(range(1, n + 1)))
    alpha = {perm: complex(rng.standard_normal(), rng.standard_normal()) for perm in perms}
    for _ in range(int(rng.integers(3)) if rng.random() < 0.4 else 0):
        alpha[perms[int(rng.integers(len(perms)))]] *= (1e-13, 1e-14, 1e-15)[int(rng.integers(3))]
    return bethe.bethe_sum(alpha, ks, n)


def _sweep_case(rng, n, components):
    """Components sharing one momentum set (some with their own) and random couplings."""
    shared = _bethe_momenta(rng, n)
    funcs = [
        _bethe_like(rng, n, shared if rng.random() < 0.75 else _bethe_momenta(rng, n))
        for _ in range(components)
    ]
    couplings = {
        (a, b): _random_coupling(rng, components)
        for a in range(1, n + 1)
        for b in range(a + 1, n + 1)
    }
    return funcs, couplings


def _break_continuity(rng, funcs):
    """Add a constant term to one chamber of one component."""
    i = int(rng.integers(len(funcs)))
    n = funcs[i].n
    region = pw.regions(n)[int(rng.integers(len(pw.regions(n))))]
    out = list(funcs)
    out[i] = pw.add(funcs[i], pw.build(n, {region: [(0.5, (0j,) * n)]}))
    return out


class TestPlanSweep:
    """``matching_residuals`` over all walls equals the per-wall reference formulas."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.sampled_from([2, 3, 3, 4]),
        components=st.integers(1, 3),
        broken=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_reference_sweep(self, n, components, broken, seed):
        rng = np.random.default_rng(seed)
        funcs, couplings = _sweep_case(rng, n, components)
        if broken:
            funcs = _break_continuity(rng, funcs)
        assert_same_outcome(
            lambda: pw.matching_residuals(funcs, couplings),
            lambda: reference_sweep(funcs, couplings),
        )

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(2, 4), seed=st.integers(0, 2**32 - 1))
    def test_matching_report_equals_reference(self, n, seed):
        rng = np.random.default_rng(seed)
        state = _bethe_like(rng, n, _bethe_momenta(rng, n))
        c = float(rng.uniform(-2.5, 2.5))
        couplings = {iface.pair: [[2.0 * c]] for iface in pw.interfaces(n)}

        def run():
            report = bethe.matching_report(state, c, 0.0)
            return report.max_continuity, report.max_jump

        assert_same_outcome(run, lambda: reference_sweep([state], couplings))

    @settings(max_examples=15, deadline=None)
    @given(grade=st.integers(1, 2), seed=st.integers(0, 2**32 - 1))
    def test_verify_eigenstate_equals_reference(self, grade, seed):
        rng = np.random.default_rng(seed)
        sp = susy.Superpotential(n=3, c=float(rng.uniform(0.2, 2.5)))
        sector = susy.sector_hamiltonian(grade, sp)
        ks = _bethe_momenta(rng, 3)
        comps = {mask: _bethe_like(rng, 3, ks) for mask in sector.masks}
        spinor = susy.SpinorFunction(3, comps)
        assert_same_outcome(
            lambda: susy.verify_eigenstate(spinor, 0.0, sp).interface_residual,
            lambda: reference_sweep([comps[m] for m in sector.masks], sector.couplings)[1],
        )

    def test_single_wall_is_the_sweep_on_one_interface(self):
        rng = np.random.default_rng(7)
        ks = [complex(rng.standard_normal(), rng.standard_normal()) for _ in range(3)]
        funcs = [_bethe_like(rng, 3, ks) for _ in range(2)]
        couplings = {(a, b): _random_coupling(rng, 2) for a, b in ((1, 2), (1, 3), (2, 3))}
        walls = [pw.wall_residuals(funcs, iface, couplings[iface.pair])
                 for iface in pw.interfaces(3)]
        swept = pw.matching_residuals(funcs, couplings)
        assert swept == (max(w[0] for w in walls), max(w[1] for w in walls))

    def test_missing_or_misshapen_coupling_rejected(self):
        rng = np.random.default_rng(2)
        funcs, couplings = _sweep_case(rng, 3, 2)
        del couplings[(1, 3)]
        with pytest.raises(ValueError, match=r"pair \(1, 3\)"):
            pw.matching_residuals(funcs, couplings)
        couplings[(1, 3)] = np.eye(3)
        with pytest.raises(ValueError, match="square"):
            pw.matching_residuals(funcs, couplings)
        with pytest.raises(ValueError):
            pw.matching_residuals([], {})

    @pytest.mark.parametrize(
        "left, right",
        [
            # c*kappa_a (right) and c*kappa_b (left) drop but are not zero
            ([(1.0, (2.0, 1e-15))], [(1.0, (1e-15, 2.0))]),
            # kappa_a == kappa_b: the first of three wall-merging terms has a zero
            # derivative; without it the other two merge into one group
            (
                [(1.0, (-1.5 + 1.2e-12, 2.5))],
                [(1.0, (0.5, 0.5)), (-1.0, (1.5, -0.5 + 0.6e-12)), (1.0, (2.5, -1.5 + 1.2e-12))],
            ),
            # non-separated chambers: a dropped term sat between two kappas within
            # KAPPA_TOL, which the derivative's re-merge joins
            (
                [(1.0, (0.25, 1.0)), (1e-15, (0.25 + 0.3e-12, 4.0)),
                 (1.0, (0.25 + 0.6e-12, 1.0 + 0.6e-12))],
                [(1.0, (1.0, 0.25)), (1e-15, (1.0 + 0.3e-12, 3.0)),
                 (1.0, (1.0 + 0.6e-12, 0.25 + 0.6e-12))],
            ),
        ],
        ids=["tiny-derivative", "zero-derivative-leads-a-group", "non-separated"],
    )
    def test_fallbacks_decide_the_jump(self, left, right):
        """Taking the plan where the general path is due changes the worst jump here."""
        iface = pw.interfaces(2)[0]
        f = pw.build(2, {iface.left: left, iface.right: right})
        couplings = {(1, 2): [[0.5]]}
        continuity, jump = reference_sweep([f], couplings)
        assert continuity <= pw.JUMP_CONTINUITY_TOL and jump > 1.0
        assert pw.matching_residuals([f], couplings) == (continuity, jump)

    def test_inputs_reach_every_branch(self):
        """Shared plans, own plans, derivative drops, non-separated chambers, discontinuities."""
        rng = np.random.default_rng(3)
        shared_layouts = own_layouts = drops = unseparated = chambers = broken = 0
        for _ in range(60):
            n = int(rng.choice([2, 3, 3, 4]))
            funcs, couplings = _sweep_case(rng, n, int(rng.integers(1, 4)))
            layouts = [{tuple(t.kappa for t in ts) for ts in f.terms.values()} for f in funcs]
            shared_layouts += any(len(ls) < len(f.terms) for ls, f in zip(layouts, funcs))
            own_layouts += any(not layouts[0] & ls for ls in layouts[1:])
            for f in funcs:
                for region, ts in f.terms.items():
                    chambers += 1
                    unseparated += not pw._separated(ts)
                    coefs, layout = [t.coef for t in ts], [t.kappa for t in ts]
                    drops += pw._wall_derivative(coefs, layout, 1, 2) is None
            try:
                reference_sweep(_break_continuity(rng, funcs), couplings)
            except DiscontinuityError:
                broken += 1
        assert shared_layouts > 30 and own_layouts > 5
        assert 0 < unseparated < chambers // 4
        assert drops > chambers // 10 and broken > 30


class TestTracedEntryPoints:
    """The per-wall entry points the benchmark tracer wraps equal the reference formulas."""

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(2, 4),
        components=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_equal_the_references(self, n, components, seed, data):
        rng = np.random.default_rng(seed)
        iface = data.draw(st.sampled_from(pw.interfaces(n)))
        pool = [_random_kappa(rng, n) for _ in range(3)]
        funcs = [_continuous_at(rng, iface, pool) for _ in range(components)]
        coupling = _random_coupling(rng, components)
        assert pw.jump_residual(funcs, iface, coupling) == full_function_jump(
            funcs, iface, coupling
        )
        for f in funcs + [_wall_chambers(rng, iface)]:
            assert pw.continuity_residual(f, iface) == old_continuity(f, iface)
            for side in ("left", "right"):
                assert pw.restrict_to_interface(f, iface, side) == old_restrict(f, iface, side)

    def test_rejections(self):
        rng = np.random.default_rng(11)
        iface = pw.interfaces(3)[2]
        good = _continuous_at(rng, iface, [_random_kappa(rng, 3)])
        bad = pw.add(good, pw.build(3, {iface.left: [(0.5, (0j, 0j, 0j))]}))
        with pytest.raises(DiscontinuityError, match="component 1"):
            pw.jump_residual([good, bad], iface, np.eye(2))
        assert pw.continuity_residual(bad, iface) == 0.5
        with pytest.raises(ValueError, match="side"):
            pw.restrict_to_interface(good, iface, "up")


class TestSerialization:
    def test_round_trip(self):
        f = bethe.collision_state([1.1, 0.4, -0.8], 2.2)
        g = pw.from_json_obj(pw.to_json_obj(f))
        assert pw.coefficient_distance(f, g) == 0.0
        assert g.n == 3
