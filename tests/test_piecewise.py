"""Chamber calculus: enumeration, signs, derivatives, restrictions, matching."""

import itertools
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from slly import bethe, cli, susy
from slly import piecewise as pw
from slly.errors import AmbiguousPointError, DiscontinuityError


def plane_wave(n, kappa, coef=1.0):
    return pw.build(n, {r: [(coef, tuple(kappa))] for r in pw.regions(n)})


def chamber(f, region):
    """The (coef, kappa) terms of one chamber, read through f's kappa table."""
    return [(c, f.kappas[i]) for i, c in f.region_terms(region)]


def chambers(f):
    """Every chamber of f in order, as (region, its ``chamber`` terms)."""
    return [(r, chamber(f, r)) for r in f.terms]


def canonicalize(f):
    """Re-merge and re-sort every chamber with ``build``.

    Kappas are identified only when equal, so a canonical chamber holds
    distinct sorted kappas and this returns every canonical function
    unchanged: ``build`` is idempotent.
    """
    return pw.build(f.n, dict(chambers(f)))


def assert_table_invariants(f):
    """f's kappa table is sorted by ``_sort_key`` and distinct, and every chamber
    holds ascending ids into it."""
    keys = [pw._sort_key(k) for k in f.kappas]
    assert keys == sorted(keys) and len(set(f.kappas)) == len(f.kappas)
    assert all(len(k) == f.n for k in f.kappas)
    for ts in f.terms.values():
        ids = [i for i, _ in ts]
        assert ts and ids == sorted(set(ids)) and 0 <= ids[0] and ids[-1] < len(f.kappas)


def old_reduce(kappa, a, b):
    """Substitute x_b := x_a in one kappa: kappa_a + kappa_b in slot a, slot b deleted."""
    kap = list(kappa)
    kap[a - 1] = kap[a - 1] + kap[b - 1]
    return tuple(kap[j] for j in range(len(kap)) if j != b - 1)


def old_restrict(f, iface, side):
    """One-sided limit on the wall: substitute x_b := x_a, delete x_b, re-merge."""
    return pw._merge_terms(
        (c, old_reduce(k, *iface.pair)) for c, k in chamber(f, getattr(iface, side))
    )


def sum_scale(terms, z):
    """Raw (z * coef, kappa) pairs of ``terms``, for a re-merge."""
    return [(z * c, k) for c, k in terms]


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

    def test_region_is_its_permutation(self):
        region = pw.Region((2, 3, 1))
        assert region.order is region and region == (2, 3, 1)
        assert hash(region) == hash((2, 3, 1)) and pw.Region.__hash__ is tuple.__hash__
        assert (region.n, region.rank(1), region.sign(1, 2)) == (3, 3, 1)
        assert region.swap_adjacent(0) == pw.Region((3, 2, 1))
        assert sorted(pw.regions(3), reverse=True)[0] == pw.Region((3, 2, 1))
        for bad in ((1, 1), (0, 1), (1, 3), (2,)):
            with pytest.raises(ValueError, match="is not a permutation"):
                pw.Region(bad)

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
            assert ts[0][1] == 2j

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
        assert f.terms[r12][0][1] == -1
        assert f.terms[r21][0][1] == 1

    def test_equal_indices_rejected(self):
        with pytest.raises(ValueError):
            pw.multiply_sign(pw.constant_function(2), 2, 2)


class TestTranspose:
    def test_swaps_the_coordinates(self):
        f = pw.add(plane_wave(3, (1j, 2j, -3j), coef=1.5 + 0.5j), bethe.trimer_state(0.3, -1.0))
        x = (0.4, -1.3, 0.9)
        for a, b in itertools.combinations(range(1, 4), 2):
            y = list(x)
            y[a - 1], y[b - 1] = x[b - 1], x[a - 1]
            want = pw.evaluate(f, y)
            assert pw.evaluate(pw.transpose(f, a, b), x) == pytest.approx(want, abs=1e-13)

    def test_involution(self):
        f = plane_wave(4, (1j, 2j, -3j, 0.5), coef=1.5 + 0.5j)
        for a, b in itertools.combinations(range(1, 5), 2):
            twice = pw.transpose(pw.transpose(f, a, b), a, b)
            assert pw.coefficient_distance(twice, f) == 0.0

    @pytest.mark.parametrize("pair", [(2, 1), (2, 2), (0, 1), (1, 4)])
    def test_bad_pair_rejected(self, pair):
        with pytest.raises(ValueError):
            pw.transpose(pw.constant_function(3), *pair)


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
        assert f.terms[r][0][1] == 3.0

    def test_drops_tiny_coefficients(self):
        r = pw.Region((1, 2))
        f = pw.build(2, {r: [(1e-15, (1j, 0))]})
        assert r not in f.terms

    @pytest.mark.parametrize("kappa", [(0.5 + 0j,), (0j, 0j, 0j)])
    def test_refuses_a_kappa_of_the_wrong_length(self, kappa):
        region = pw.Region((1, 2))
        with pytest.raises(ValueError, match=r"region \(1, 2\) .*length is not 2"):
            pw.build(2, {region: [(1.0, (0j, 0j)), (1.0, kappa)]})
        obj = {"n": 2, "regions": [{"order": [1, 2], "terms": [
            {"re": 1.0, "im": 0.0, "kappa": [{"re": k.real, "im": k.imag} for k in kappa]}
        ]}]}
        with pytest.raises(ValueError, match="length is not 2"):
            pw.from_json_obj(obj)

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
        assert f == g


class TestKappaTable:
    """Every function holds one sorted kappa table, shared where kappas are kept."""

    def test_constructed_functions_hold_sorted_tables(self):
        rng = np.random.default_rng(5)
        sp = susy.Superpotential(n=3, c=1.3)
        s = susy.random_spinor(sp, rng)
        funcs = [bethe.collision_state([1.1, 0.2, -0.9], 1.4), bethe.trimer_state(0.3, -1.0),
                 pw.constant_function(2), pw.transpose(bethe.monomer_dimer_state(0.4, -0.7, -1.1), 1, 3)]
        funcs += s.components.values()
        funcs += susy.apply_q(s, sp).components.values()
        funcs += susy.apply_q_dagger(s, sp).components.values()
        for f in funcs:
            assert_table_invariants(f)
        state = funcs[0]
        assert len(state.kappas) == 6 and all(len(ts) == 6 for ts in state.terms.values())

    def test_coefficient_maps_share_the_table(self):
        f = bethe.collision_state([0.8, -0.1, -1.3], 0.9)
        for g in (pw.scale(f, 2.5), pw.laplacian(f), pw.differentiate(f, 2),
                  pw.multiply_sign(f, 1, 3), pw.add(f, pw.scale(f, -0.5))):
            assert g.kappas is f.kappas
        # a drop keeps the table, with a kappa no chamber uses
        region = pw.Region((1, 2))
        h = pw.build(2, {region: [(1.0, (0j, 0j)), (2.0, (1j, 0j))]})
        d = pw.differentiate(h, 1)
        assert d.kappas is h.kappas and d.terms[region] == ((1, 2j),)
        assert pw.used_kappas(d) == [(1j, 0j)]

    def test_supercharge_output_shares_the_input_table(self):
        sp = susy.Superpotential(n=3, c=1.2)
        for mode in susy.zero_modes(sp):
            (table,) = {id(f.kappas) for f in mode.components.values()}
            for image in (susy.apply_q(mode, sp), susy.apply_q_dagger(mode, sp)):
                assert all(id(f.kappas) == table for f in image.components.values())
        # a spinor whose components hold tables of their own: each rebuilt alone
        rng = np.random.default_rng(8)
        shared = susy.random_spinor(sp, rng, grade=1)
        s = susy.SpinorFunction(3, {
            mask: pw.from_json_obj(pw.to_json_obj(f)) for mask, f in shared.components.items()
        })
        assert len({f.kappas for f in s.components.values()}) == 3
        qds = susy.apply_q_dagger(s, sp)
        (union,) = {id(f.kappas) for f in qds.components.values()}
        # the union of the three tables is the one table they were rebuilt from
        assert set(qds.component(3).kappas) == set(shared.component(1).kappas)
        assert all(id(f.kappas) == union for f in susy.apply_q(qds, sp).components.values())

    def test_add_across_tables_equals_build(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            f, g = _canonical_pair(rng, 3)
            assert f.kappas != g.kappas
            got = pw.add(f, g)
            assert chambers(got) == chambers(old_add(f, g))
            assert pw.to_json_obj(got) == pw.to_json_obj(old_add(f, g))
            assert_table_invariants(got)

    def test_union_of_one_table_is_that_table(self):
        f = bethe.collision_state([0.5, -0.5], 1.0)
        copy = tuple(f.kappas)
        assert pw._union([f.kappas, copy]) == (f.kappas, [None, None])
        assert pw._union([f.kappas, copy])[0] is f.kappas
        assert pw._union([]) == ((), [])
        table, maps = pw._union([f.kappas, ((0j, 0j),)])
        assert table == tuple(sorted(set(f.kappas) | {(0j, 0j)}, key=pw._sort_key))
        assert maps[0] is not None and maps[0] == sorted(maps[0])
        assert [table[i] for i in maps[1]] == [(0j, 0j)]

    def test_zero_signs_share_the_first_representative(self):
        """Kappas equal componentwise but differing in a zero's sign take one id,
        with the first kappa met, in build and in the union of two tables."""
        r12, r21 = pw.Region((1, 2)), pw.Region((2, 1))
        f = pw.build(2, {r12: [(1.0, (complex(-0.0, 0.0), 1j))], r21: [(2.0, (0j, 1j))]})
        assert len(f.kappas) == 1 and math.copysign(1.0, f.kappas[0][0].real) == -1.0
        assert f.terms == {r12: ((0, 1.0),), r21: ((0, 2.0),)}
        g = pw.build(2, {r12: [(1.0, (0j, 1j))], r21: [(1.0, (1j, 1j))]})
        total = pw.add(f, g)
        assert math.copysign(1.0, total.kappas[0][0].real) == -1.0
        assert total.terms[r12] == ((0, 2.0),)


class TestBuildIdentity:
    """``build`` classes kappas by their converted value and keeps, per class,
    the kappa of its first kept term."""

    R12, R21 = pw.Region((1, 2)), pw.Region((2, 1))

    def test_first_kept_term_gives_the_kappa(self):
        # the (-0.0 + 1j) terms cancel on R12, so R21's (+0.0 + 1j) is the first kept
        same = (complex(-0.0, 1.0), 1j)
        f = pw.build(2, {self.R12: [(1.0, same), (-1.0, same)], self.R21: [(2.0, (1j, 1j))]})
        assert f.kappas == ((1j, 1j),) and f.terms == {self.R21: ((0, 2.0),)}
        assert math.copysign(1.0, f.kappas[0][0].real) == 1.0

    def test_raw_kappa_types_give_the_same_function(self):
        as_complex = {self.R12: [(1.0, (1 + 0j, 0.5j)), (2.0, (0j, 0j))],
                      self.R21: [(3.0, (0j, 0j)), (-1.0, (1 + 0j, 0.5j))]}
        expected = pw.to_json_obj(pw.build(2, as_complex))
        for convert in (list, lambda k: tuple(np.complex128(v) for v in k), np.array):
            data = {r: [(c, convert(k)) for c, k in raw] for r, raw in as_complex.items()}
            assert pw.to_json_obj(pw.build(2, data)) == expected
        ints = {self.R12: [(1.0, (1, 0.5j)), (2.0, (0, 0))],
                self.R21: [(3.0, [np.int64(0), np.float64(0.0)]), (-1.0, [1, 0.5j])]}
        assert pw.to_json_obj(pw.build(2, ints)) == expected

    def test_kappas_equal_once_converted_share_an_id(self):
        f = pw.build(2, {self.R12: [(1.0, (2**53 + 1, 0))], self.R21: [(2.0, (2**53, 0))]})
        assert f.kappas == ((complex(2**53), 0j),)
        assert f.terms == {self.R12: ((0, 1.0),), self.R21: ((0, 2.0),)}

    def test_errors_are_raised_in_input_order(self):
        r3 = pw.Region((1, 2, 3))
        # a bad kappa of an earlier region beats a later region of the wrong particle count
        with pytest.raises(ValueError, match=r"region \(2, 1\) holds a kappa whose length"):
            pw.build(2, {self.R12: [(1.0, (0j, 0j))], self.R21: [(1.0, (0j,))], r3: []})
        with pytest.raises(ValueError, match="all regions must carry the same particle count"):
            pw.build(2, {self.R12: [(1.0, (0j, 0j))], r3: [(1.0, (0j,))]})
        # length is checked before finiteness, and a later bad term waits its turn
        with pytest.raises(ValueError, match="length is not 2"):
            pw.build(2, {self.R12: [(1.0, (math.nan, 0j, 0j)), (1.0, (math.inf, 0j))]})
        with pytest.raises(ValueError, match=r"non-finite kappa \(inf, 0j\)"):
            pw.build(2, {self.R12: [(1.0, (0j, 0j)), (1.0, (math.inf, 0j)), (1.0, (0j,))]})

    def test_a_repeated_kappa_is_checked_and_converted_once(self):
        conversions = []

        class Counted(float):
            def __complex__(self):
                conversions.append(self)
                return complex(float(self))

        for n in (2, 4):
            kappa = tuple(Counted(0.25 * j) for j in range(n))
            for chambers in (pw.regions(n)[:1], pw.regions(n)):
                conversions.clear()
                f = pw.build(n, {r: [(1.0, kappa), (2.0, kappa)] for r in chambers})
                assert len(conversions) == n  # one kappa of n entries, converted once
                assert f.kappas == (tuple(complex(0.25 * j) for j in range(n)),)
                assert all(ts == ((0, 3.0),) for ts in f.terms.values())


def _sweep_restriction(f, iface, side):
    """The sweep's restriction of one chamber, keyed back by reduced kappa.

    The ids are the sweep's (``pw._gather_terms``), the sums its slot sums
    (``pw._slot_sums``) and the drop its rule on their magnitudes.
    """
    gathered = pw._gather_terms([f], pw._wall_table(f.n, (iface,)))
    c = -1 if gathered is None else int(gathered[1][int(side == "right")])
    if c < 0:
        return {}
    table = gathered[0]
    span = slice(table.start[c], table.start[c] + table.flat.size[c])
    ids = table.ids[0, table.flat.ids[span]]  # the wall's pair is the table's first
    re, im = pw._slot_sums(ids, table.id_count[0], table.flat.re[span], table.flat.im[span])
    reduced = {i: pw._reduce(k, *iface.pair)
               for i, (_, k) in zip(ids.tolist(), chamber(f, getattr(iface, side)))}
    kept = np.flatnonzero(pw._kept(pw._magnitude(re, im)))
    return {reduced[i]: complex(re[i], im[i]) for i in kept.tolist()}


def sweep_wall_derivative(terms, a, b):
    """The sweep's wall derivative of one chamber's (coef, kappa) terms
    (``pw._derivative``), as the kept (coef, kappa) entries in position order."""
    kappas = [k for _, k in terms]
    cr, ci = (np.array([getattr(c, part) for c, _ in terms]) for part in ("real", "imag"))
    ka, kb = (np.array([k[j - 1] for k in kappas]) for j in (a, b))
    with np.errstate(all="ignore"):
        d = pw._derivative(cr, ci, ka.real, ka.imag, kb.real, kb.imag)
    return [(complex(r, i), k) for r, i, keep, k in zip(d.re, d.im, d.keep, kappas) if keep]


class TestRestriction:
    def test_plane_wave_substitution(self):
        k1, k2 = 1.3, -0.4
        f = plane_wave(2, (1j * k1, 1j * k2))
        iface = pw.interfaces(2)[0]
        left = pw.restrict_to_interface(f, iface, "left")
        assert len(left) == 1
        assert left[0][1] == (1j * (k1 + k2),)

    def test_dimer_restricts_to_one(self):
        f = bethe.dimer_state(0.0, -2.0)
        iface = pw.interfaces(2)[0]
        for side in ("left", "right"):
            terms = pw.restrict_to_interface(f, iface, side)
            assert len(terms) == 1
            assert terms[0][0] == pytest.approx(1.0)
            assert terms[0][1] == (0.0,)

    def test_bethe_state_sides_agree(self):
        f = bethe.collision_state([1.0, -0.5], 1.7)
        iface = pw.interfaces(2)[0]
        assert pw.restrict_to_interface(f, iface, "left") == pw.restrict_to_interface(f, iface, "right")
        assert pw.wall_residuals([f], iface, [[3.4]])[0] == 0.0

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(2, 4), seed=st.integers(0, 2**32 - 1))
    def test_plan_restriction_equals_old_restrict(self, n, seed):
        rng = np.random.default_rng(seed)
        for iface in pw.interfaces(n):
            f = _wall_chambers(rng, iface)
            for side in ("left", "right"):
                got = pw.restrict_to_interface(f, iface, side)
                assert got == old_restrict(f, iface, side)
                assert all(type(c) is complex for c, _ in got)
                assert _sweep_restriction(f, iface, side) == {k: c for c, k in got}

    def test_restriction_inputs_reach_every_branch(self):
        """The random chambers merge on the wall and drop sums."""
        rng = np.random.default_rng(4)
        chambers = merged = dropped = 0
        for _ in range(40):
            for iface in pw.interfaces(3):
                f = _wall_chambers(rng, iface)
                for side in ("left", "right"):
                    ts = chamber(f, getattr(iface, side))
                    reduced = {old_reduce(k, *iface.pair) for _, k in ts}
                    chambers += 1
                    merged += len(reduced) < len(ts)
                    dropped += len(_sweep_restriction(f, iface, side)) < len(reduced)
        assert merged > chambers // 4 and dropped > chambers // 10

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
            list(pw.restrict_to_interface(pw.add(f, g), iface, "left"))
            + sum_scale(pw.restrict_to_interface(f, iface, "left"), -1)
            + sum_scale(pw.restrict_to_interface(g, iface, "left"), -1)
        )
        assert max((abs(c) for c, _ in merged), default=0.0) <= 1e-12


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
    return pw.build(f.n, {r: [(fn(r, c, k), k) for c, k in ts] for r, ts in chambers(f)})


def old_add(f, g):
    data = {}
    for h in (f, g):
        for region, ts in chambers(h):
            data.setdefault(region, []).extend(ts)
    return pw.build(f.n, data)


def old_scale(f, z):
    return old_map(f, lambda r, c, k: z * c)


def old_differentiate(f, j):
    return old_map(f, lambda r, c, k: c * k[j - 1])


def nan_max(values):
    """The largest of ``values`` (0.0 for none), or NaN once any of them is NaN."""
    values = list(values)
    return math.nan if any(math.isnan(v) for v in values) else max(values, default=0.0)


def old_sum_max(raw):
    return nan_max(abs(c) for c, _ in pw._merge_terms(raw))


def old_continuity(f, iface):
    left = old_restrict(f, iface, "left")
    right = old_restrict(f, iface, "right")
    return old_sum_max(sum_scale(left, 1.0) + sum_scale(right, -1.0))


def full_function_jump(funcs, iface, coupling):
    """Reference jump residual: differentiates every chamber of every component."""
    mat = np.asarray(coupling, dtype=complex)
    a, b = iface.pair
    for i, f in enumerate(funcs):
        if not old_continuity(f, iface) <= pw.JUMP_CONTINUITY_TOL:
            raise DiscontinuityError(f"component {i}")
    bases = [old_restrict(f, iface, "left") for f in funcs]
    worst = 0.0
    for i, f in enumerate(funcs):
        d = old_add(old_differentiate(f, a), old_scale(old_differentiate(f, b), -1.0))
        raw = sum_scale(old_restrict(d, iface, "right"), 1.0)
        raw += sum_scale(old_restrict(d, iface, "left"), -1.0)
        for j in range(len(funcs)):
            cij = mat[i, j]
            if cij != 0:
                raw += sum_scale(bases[j], -cij)
        worst = nan_max([worst, old_sum_max(raw)])
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
        _, mode = susy.zero_modes(sp)
        mask = min(mode.components)
        region = pw.Region((1, 3, 2))
        broken = dict(mode.components)
        broken[mask] = pw.add(broken[mask], pw.build(3, {region: [(0.25, (0j, 0j, 0j))]}))
        with pytest.raises(DiscontinuityError, match=r"component \d+ .*pair \(\d, \d\)"):
            susy.verify_eigenstate(susy.SpinorFunction(3, broken), 0.0, sp)


#: offsets of the first kappa component below and around 1e-12: near-equal
#: kappas that identification by a tolerance of that size would merge
NEAR_TOL = (0.0, 0.4e-12, 0.9e-12, 1.0e-12, 1.1e-12, 1.6e-12, 2.5e-12)

#: chambers (particle count, left, right of the first wall) holding kappas
#: under 1e-12 apart with a term between them that drops: in ``build``, or
#: from both images of the wall derivative, or from its d/dx_b image only
NEAR_DUPLICATES = {
    "dropped-by-build": (
        2, [(1.0, (0j, 0j)), (1e-15, (0.3e-12 + 0j, 3 + 0j)), (2.0, (0.6e-12 + 0j, 0j))], None
    ),
    "union": (
        3,
        [(1.0, (-0.5e-12 + 0j, 1.0 + 0j, 0j)), (1.0, (0j, 0j, 5 + 0j)),
         (1.0, (0.4e-12 + 0j, 1.0 + 0.5e-12 + 0j, 0j))],
        [(1.0, (-0.5e-12 + 0j, 1.0 + 0j, 0j)), (1.0, (0.01j, -0.01j, 5 + 0j)),
         (1.0, (0.4e-12 + 0j, 1.0 + 0.5e-12 + 0j, 0j))],
    ),
    "b-image": (
        3,
        [(1.0, (-0.5e-12 + 0j, 1.0 + 0j, 0j)), (1.0, (2j, 0j, 5 + 0j)),
         (1.0, (0.4e-12 + 0j, 1.0 + 0.5e-12 + 0j, 0j))],
        [(1.0, (-0.5e-12 + 0j, 1.0 + 0j, 0j)), (1.0, (1.5j, 0.5j, 5 + 0j)),
         (1.0, (0.4e-12 + 0j, 1.0 + 0.5e-12 + 0j, 0j))],
    ),
}


def _kappa_pool(rng, n):
    """Random kappas with exact zero components and near-duplicates (``NEAR_TOL``).

    A near-duplicate shifts the real part of the first component of a base
    kappa by one of ``NEAR_TOL``; some also move another component far away,
    so they sort between a base and its close neighbour.
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
    """One-chamber functions, each with its own kappa table: equal kappa lists or not."""
    pool = _kappa_pool(rng, n)
    kappas = [pool[int(rng.integers(len(pool)))] for _ in range(int(rng.integers(1, 6)))]
    parts = []
    region = pw.Region(tuple(range(1, n + 1)))
    for _ in range(count):
        own = kappas if rng.random() < 0.8 else _kappa_pool(rng, n)
        raw = [(_coef(rng) * 10.0 ** int(rng.integers(-3, 4)), k) for k in own]
        parts.append(pw.build(n, {region: raw}))
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
            (pw.laplacian(f), old_map(f, lambda r, c, k: c * sum(kk * kk for kk in k))),
            (pw.map_coefficients(f, lambda r, c, k: c * -1.0 * susy.grad_w(r, j, sp)),
             old_map(f, lambda r, c, k: c * -1.0 * susy.grad_w(r, j, sp))),
        ]
        if n > 1:
            a, b = sorted(rng.choice(np.arange(1, n + 1), size=2, replace=False).tolist())
            cases.append(
                (pw.multiply_sign(f, a, b), old_map(f, lambda r, c, k: r.sign(a, b) * c))
            )
        for fast, old in cases:
            assert chambers(fast) == chambers(old)  # chamber order too
            assert_table_invariants(fast)
            for ts in fast.terms.values():
                assert all(type(c) is complex for _, c in ts)

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 4), count=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
    def test_add_across_tables_equals_build_of_concatenation(self, n, count, seed):
        """Each ``add`` of a fold over one-chamber functions on their own tables
        equals ``build`` of the two functions' concatenated chambers."""
        rng = np.random.default_rng(seed)
        parts = _canonical_parts(rng, n, count)
        weights = [1.0, -1.0] + [complex(rng.standard_normal(), rng.standard_normal())
                                 for _ in range(count)]
        total = pw.zero_function(n)
        for part, w in zip(parts, weights):
            scaled = pw.scale(part, w)
            fast, old = pw.add(total, scaled), old_add(total, scaled)
            assert chambers(fast) == chambers(old)
            assert pw.to_json_obj(fast) == pw.to_json_obj(old)
            assert_table_invariants(fast)
            total = fast

    def test_inputs_reach_both_branches(self):
        """The random inputs take the position-wise sums, the general merge and the drops."""
        rng = np.random.default_rng(5)
        chambers = shared = dropped = 0
        for _ in range(300):
            f, g = _canonical_pair(rng, 3)
            df = pw.differentiate(f, 2)
            for region, ts in f.terms.items():
                chambers += 1
                us = chamber(g, region)
                shared += [k for _, k in us] == [k for _, k in chamber(f, region)]
                dropped += len(df.region_terms(region)) < len(ts)
        assert shared > chambers // 10 and dropped > chambers // 10

    @pytest.mark.parametrize("case", list(NEAR_DUPLICATES), ids=list(NEAR_DUPLICATES))
    def test_near_duplicates_stay_two_terms(self, case):
        """Kappas under 1e-12 apart never merge, whatever term sat between them."""
        n, left, right = NEAR_DUPLICATES[case]
        iface = pw.interfaces(n)[0]
        data = {iface.left: left} if right is None else {iface.left: left, iface.right: right}
        f = pw.build(n, data)
        assert canonicalize(f) == f
        for region, raw in data.items():
            kept = sorted((k for c, k in raw if abs(c) > pw.DROP_TOL), key=pw._sort_key)
            assert [k for _, k in chamber(f, region)] == kept
        assert chambers(pw.scale(f, 2.0)) == chambers(old_scale(f, 2.0))
        assert chambers(pw.add(f, pw.zero_function(n))) == chambers(old_add(f, pw.zero_function(n)))
        assert chambers(pw.add(f, f)) == chambers(old_add(f, f))
        for j in range(1, n + 1):
            assert chambers(pw.differentiate(f, j)) == chambers(old_differentiate(f, j))
        couplings = {iface.pair: [[0.5]]}
        assert_same_outcome(
            lambda: pw.wall_residuals([f], iface, couplings[iface.pair]),
            lambda: reference_sweep([f], couplings, [iface]),
        )


def reference_sweep(funcs, couplings, walls=None):
    """Every wall (by default all, in ``interfaces`` order) through the old per-wall formulas."""
    continuity = jump = 0.0
    for iface in pw.interfaces(funcs[0].n) if walls is None else walls:
        for i, f in enumerate(funcs):
            gap = old_continuity(f, iface)
            if not gap <= pw.JUMP_CONTINUITY_TOL:
                raise DiscontinuityError(
                    f"component {i} is discontinuous across interface pair {iface.pair}"
                )
            continuity = max(continuity, gap)
        jump = nan_max([jump, full_function_jump(funcs, iface, couplings[iface.pair])])
    return continuity, jump


def wall_by_wall_reference(funcs, couplings):
    """``reference_sweep`` over every wall, each on its wall's two chambers only.

    The old formulas work chamber by chamber, so each wall gets the numbers of
    the whole-function reference.  Only the wall's chambers can raise
    ``OverflowError`` here, as in the sweep; the whole-function derivative
    takes ``abs`` of every term of every chamber.
    """
    continuity = jump = 0.0
    for iface in pw.interfaces(funcs[0].n):
        sides = (iface.left, iface.right)
        cut = [pw.RegionFunction(f.n, {r: f.terms[r] for r in sides if r in f.terms}, f.kappas)
               for f in funcs]
        wall = reference_sweep(cut, couplings, [iface])
        continuity, jump = max(continuity, wall[0]), nan_max([jump, wall[1]])
    return continuity, jump


def assert_same_outcome(run, reference):
    """``run()`` returns what ``reference()`` returns, or raises the same error.

    The errors are a discontinuity or the ``OverflowError`` of ``abs`` of a
    Python complex whose magnitude overflows.  The results compare as text,
    so a NaN matches a NaN.
    """
    try:
        expected = reference()
    except (DiscontinuityError, OverflowError) as exc:
        with pytest.raises(type(exc)) as got:
            run()
        assert str(got.value) == str(exc)
        return
    assert repr(run()) == repr(expected)


def _bethe_momenta(rng, n):
    """Complex momenta; some equal, zero, or a NEAR_TOL step apart.

    Equal momenta give terms with kappa_a == kappa_b, whose wall derivative
    vanishes; a zero momentum gives kappa_a == 0; near-equal ones give
    distinct kappas closer than 1e-12.
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

    Any coefficients give a function that is continuous on every wall, and
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
        "left, right, expected",
        [
            # c*kappa_a (right) and c*kappa_b (left) drop but are not zero
            ([(1.0, (2.0, 1e-15))], [(1.0, (1e-15, 2.0))], (0.0, 4.5)),
            # kappa_a == kappa_b: the first of three terms that reduce to within
            # 1e-12 of each other has a zero derivative; the reduced kappas are
            # distinct, so the two chambers do not meet on the wall
            (
                [(1.0, (-1.5 + 1.2e-12, 2.5))],
                [(1.0, (0.5, 0.5)), (-1.0, (1.5, -0.5 + 0.6e-12)), (1.0, (2.5, -1.5 + 1.2e-12))],
                None,
            ),
            # a dropped term sat between two kappas under 1e-12 apart
            (
                [(1.0, (0.25, 1.0)), (1e-15, (0.25 + 0.3e-12, 4.0)),
                 (1.0, (0.25 + 0.6e-12, 1.0 + 0.6e-12))],
                [(1.0, (1.0, 0.25)), (1e-15, (1.0 + 0.3e-12, 3.0)),
                 (1.0, (1.0 + 0.6e-12, 0.25 + 0.6e-12))],
                (0.0, 1.0),
            ),
        ],
        ids=["tiny-derivative", "zero-derivative-leads-a-group", "non-separated"],
    )
    def test_derivative_drops_equal_the_reference(self, left, right, expected):
        """The wall derivative's drops decide the jump, or the chambers do not meet."""
        iface = pw.interfaces(2)[0]
        f = pw.build(2, {iface.left: left, iface.right: right})
        couplings = {(1, 2): [[0.5]]}
        if expected is None:
            with pytest.raises(DiscontinuityError):
                reference_sweep([f], couplings)
        else:
            assert reference_sweep([f], couplings) == expected
        assert_same_outcome(
            lambda: pw.matching_residuals([f], couplings),
            lambda: reference_sweep([f], couplings),
        )

    @pytest.mark.parametrize(
        "chambers, coupling, expected",
        [
            # the right layout reduces to the left one's kappas in the other
            # position order: (1, 0), (2, 0) against (0, 2), (0.5, 0.5)
            (
                [([(1.0, (1, 0)), (2.0, (2, 0))], [(2.0, (0, 2)), (1.0, (0.5, 0.5))])],
                [[0.5]],
                (0.0, 9.0),
            ),
            # kappa_1 == kappa_2 has a zero wall derivative on both sides, so
            # only the coupling base holds its reduced kappa (1.5,)
            (
                [([(2.0, (0.75, 0.75)), (1.0, (1, 0))], [(2.0, (0.75, 0.75)), (1.0, (0, 1))])],
                [[0.5]],
                (0.0, 2.5),
            ),
            # the second component's base holds (3,), which no derivative of
            # the first component holds
            (
                [
                    ([(1.0, (1, 0))], [(1.0, (0, 1))]),
                    ([(1.0, (1, 0)), (4.0, (1.5, 1.5))], [(1.0, (0, 1)), (4.0, (1.5, 1.5))]),
                ],
                [[0.5, 0.25], [0.0, 0.5]],
                (0.0, 2.75),
            ),
            # one reduced kappa's terms cancel on the wall beside a derivative
            # whose sum is NaN: 2 * 1e308 overflows, so the sum is inf - inf;
            # with the NaN last, first or alone
            (
                [([(1.0, (1, 0)), (-1.0, (0, 1)), (2.0, (1e308, 1e308))],
                  [(1.0, (1, 0)), (-1.0, (0, 1)), (2.0, (1e308, 1e308))])],
                [[0.5]],
                (0.0, math.nan),
            ),
            (
                [([(2.0, (-1e308, -1e308)), (1.0, (1, 0)), (-1.0, (0, 1))],
                  [(2.0, (-1e308, -1e308))])],
                [[0.5]],
                (0.0, math.nan),
            ),
            # a NaN coefficient beside a sum that drops: the gap is NaN
            (
                [([(math.nan, (2, 0)), (1.0, (1, 0)), (-1.0, (0, 1))],
                  [(1.0, (1, 0)), (-1.0, (0, 1))])],
                [[0.5]],
                None,
            ),
        ],
        ids=["reordered-reduced-kappas", "base-only-kappa", "other-component-base",
             "nan-beside-dropped", "nan-first", "nan-gap-beside-dropped"],
    )
    def test_one_accumulation_equals_the_reference(self, chambers, coupling, expected):
        """Restrictions meet by reduced kappa whatever their positions, drops or NaNs."""
        iface = pw.interfaces(2)[0]
        funcs = [pw.build(2, {iface.left: left, iface.right: right}) for left, right in chambers]
        couplings = {(1, 2): coupling}
        if expected is None:
            with pytest.raises(DiscontinuityError):
                reference_sweep(funcs, couplings)
        else:
            assert repr(reference_sweep(funcs, couplings)) == repr(expected)
        assert_same_outcome(
            lambda: pw.matching_residuals(funcs, couplings),
            lambda: reference_sweep(funcs, couplings),
        )
        for f in funcs:
            assert repr(pw.continuity_residual(f, iface)) == repr(old_continuity(f, iface))
            for side in ("left", "right"):
                assert repr(pw.restrict_to_interface(f, iface, side)) == repr(
                    old_restrict(f, iface, side)
                )

    def test_inputs_reach_every_branch(self):
        """Shared plans, own plans, derivative drops, discontinuities.

        A derivative whose chain drops a term is counted, with whether the
        wall derivative equals that chain and whether it drops a position,
        which its restriction then skips.
        """
        rng = np.random.default_rng(3)
        shared_layouts = own_layouts = seen = broken = 0
        counts = {"drops": 0, "plan": 0, "skipped": 0}
        for _ in range(60):
            n = int(rng.choice([2, 3, 3, 4]))
            funcs, couplings = _sweep_case(rng, n, int(rng.integers(1, 4)))
            layouts = [{tuple(k for _, k in ts) for _, ts in chambers(f)} for f in funcs]
            shared_layouts += any(len(ls) < len(f.terms) for ls, f in zip(layouts, funcs))
            own_layouts += any(not layouts[0] & ls for ls in layouts[1:])
            for f in funcs:
                for _, ts in chambers(f):
                    seen += 1
                    _count_derivative_drops(ts, (1, 2), counts)
            try:
                reference_sweep(_break_continuity(rng, funcs), couplings)
            except DiscontinuityError:
                broken += 1
        assert shared_layouts > 30 and own_layouts > 5
        assert counts["drops"] > seen // 10 and broken > 30
        assert counts["plan"] > seen // 10 and counts["plan"] == counts["drops"]
        assert counts["skipped"] > 50
        planted = {"drops": 0, "plan": 0, "skipped": 0}
        for _ in range(200):
            iface = pw.interfaces(4)[int(rng.integers(36))]
            f = _planted_at(rng, iface, _planted_pool(rng, 4, iface.pair))
            for region in (iface.left, iface.right):
                _count_derivative_drops(chamber(f, region), iface.pair, planted)
        assert planted["plan"] > 100 and planted["plan"] == planted["drops"]
        assert planted["skipped"] > 100


def _count_derivative_drops(terms, pair, counts):
    """Count a chamber, given as canonical (coef, kappa) terms, whose derivative
    chain drops a term, whether the wall derivative equals that chain, and
    whether it drops a position."""
    a, b = pair
    for c, k in terms:
        da, db = c * k[a - 1], c * k[b - 1]
        if min(abs(da), abs(db), abs(da + -1.0 * db)) <= pw.DROP_TOL:
            counts["drops"] += 1
            break
    else:
        return
    n = len(terms[0][1])
    region = pw.Region(tuple(range(1, n + 1)))
    f = pw.build(n, {region: terms})
    chain = pw.add(pw.differentiate(f, a), pw.scale(pw.differentiate(f, b), -1.0))
    kept = sweep_wall_derivative(terms, a, b)
    counts["plan"] += chamber(chain, region) == kept
    counts["skipped"] += len(kept) < len(terms)


#: planted kappa components: c*kappa_j drops for coefficients of order one
#: (zero, 1e-15, 9e-15) or just survives (2e-14)
PLANTED = (0j, 0j, 1e-15 + 0j, 6e-15 - 7e-15j, 2e-14 + 0j)


def _planted_pool(rng, n, pair):
    """``_kappa_pool`` with exact zeros and sub-``DROP_TOL`` values planted in kappa_a, kappa_b.

    Each wall component of each pool kappa is planted with probability 0.3,
    so the wall derivative drops a term from one image, from both, or from
    neither, on a partial subset of a chamber's positions; a term dropped
    between two near-duplicates leaves them adjacent in an image.
    """
    pool = []
    for kappa in _kappa_pool(rng, n):
        kappa = list(kappa)
        for j in pair:
            if rng.random() < 0.3:
                kappa[j - 1] = PLANTED[int(rng.integers(len(PLANTED)))]
        pool.append(tuple(kappa))
    return pool


def _planted_at(rng, iface, pool):
    """The two chambers of ``iface``, holding every kappa of ``pool``.

    The left chamber gets each pool kappa with a random coefficient; the
    right one repeats those terms and adds pairs d*(exp(kappa.x) -
    exp(kappa'.x)), kappa' the a<->b swap, which vanish on the wall: kappa
    and kappa' reduce to the same kappa exactly, since float addition
    commutes.  So the function is continuous there.
    """
    a, b = iface.pair
    left = [(complex(rng.standard_normal(), rng.standard_normal()), k) for k in pool]
    right = list(left)
    for _, kappa in left:
        if rng.random() < 0.5:
            swapped = list(kappa)
            swapped[a - 1], swapped[b - 1] = kappa[b - 1], kappa[a - 1]
            d = complex(rng.standard_normal(), rng.standard_normal())
            right += [(d, kappa), (-d, tuple(swapped))]
    return pw.build(iface.left.n, {iface.left: left, iface.right: right})


def _wall_couplings(sp, grade):
    """The components and coupling blocks ``verify_eigenstate`` builds for a zero mode."""
    sector = susy.sector_hamiltonian(grade, sp)
    return sector.masks, sector.couplings


class TestDerivativeDrops:
    """Wall derivatives that drop terms equal the differentiate/scale/add chain."""

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(2, 4),
        components=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_planted_drops_equal_the_reference(self, n, components, seed, data):
        rng = np.random.default_rng(seed)
        iface = data.draw(st.sampled_from(pw.interfaces(n)))
        pool = _planted_pool(rng, n, iface.pair)
        funcs = [_planted_at(rng, iface, pool) for _ in range(components)]
        coupling = _random_coupling(rng, components)
        assert_same_outcome(
            lambda: pw.wall_residuals(funcs, iface, coupling),
            lambda: reference_sweep(funcs, {iface.pair: coupling}, [iface]),
        )

    @pytest.mark.parametrize("which", [0, 1], ids=["zero_mode_top", "zero_mode_alternating"])
    @pytest.mark.parametrize("n", [3, 5])
    def test_odd_n_zero_modes_equal_the_reference(self, n, which):
        # the middle-rank particle has kappa = 0, so half the walls drop a term
        sp = susy.Superpotential(n=n, c=1.05)
        mode = susy.zero_modes(sp)[which]
        masks, couplings = _wall_couplings(sp, mode.pure_grade())
        comps = [mode.component(mask) for mask in masks]
        # the full functions take 60x as long at N=5
        assert pw.matching_residuals(comps, couplings) == wall_by_wall_reference(comps, couplings)

    @pytest.mark.parametrize("n", [3, 5])
    def test_zero_modes_never_build_a_derivative(self, n, monkeypatch):
        """No input makes the sweep build a derivative or merge terms: it sums arrays."""
        sp = susy.Superpotential(n=n, c=1.05)
        cases = []
        for mode in susy.zero_modes(sp):
            masks, couplings = _wall_couplings(sp, mode.pure_grade())
            cases.append(([mode.component(mask) for mask in masks], couplings))
        rng = np.random.default_rng(n)
        planted = []
        for _ in range(40):
            iface = pw.interfaces(n)[int(rng.integers(len(pw.interfaces(n))))]
            pool = _planted_pool(rng, n, iface.pair)
            funcs = [_planted_at(rng, iface, pool) for _ in range(2)]
            planted.append((funcs, iface, _random_coupling(rng, 2)))

        def refuse(*args):
            raise AssertionError("the sweep left the array pass")

        for name in ("differentiate", "scale", "add", "build", "_union", "_merge_terms"):
            monkeypatch.setattr(pw, name, refuse)
        for funcs, iface, coupling in planted:
            continuity, _ = pw.wall_residuals(funcs, iface, coupling)
            assert continuity <= pw.JUMP_CONTINUITY_TOL
        for comps, couplings in cases:
            continuity, jump = pw.matching_residuals(comps, couplings)
            assert continuity <= pw.JUMP_CONTINUITY_TOL and jump <= susy.EIGENSTATE_TOL

    @pytest.mark.parametrize("c", [1.3, -0.8])
    @pytest.mark.parametrize("ks", [(0.5, 0.0), (0.9, 0.0, -0.6), (1.1, 0.4, 0.0, -0.7)])
    def test_collision_with_a_zero_momentum_equals_the_reference(self, ks, c):
        state = bethe.collision_state(ks, c)
        couplings = {iface.pair: [[2.0 * c]] for iface in pw.interfaces(len(ks))}
        report = bethe.matching_report(state, c, bethe.energy(ks))
        assert report.passed()
        assert (report.max_continuity, report.max_jump) == reference_sweep([state], couplings)


#: real parts the parity tests combine: signed zeros, subnormals, finite values
#: whose products or magnitudes overflow, infinities and NaNs of both signs
SPECIAL_PARTS = (0.0, -0.0, 1.0, -2.5, 5e-324, 1e-320, 3e154, 1e308, -1.5e308,
                 math.inf, -math.inf, math.nan, -math.nan)


def _same(x, y):
    """Equal bit for bit, signed zeros included, or both NaN: a NaN's sign and
    payload reach no residual (the results compare as text)."""
    return struct.pack("<d", x) == struct.pack("<d", y) or (math.isnan(x) and math.isnan(y))


def _parity_parts(count):
    """(count, 4) random parts over 600 decades, then every 4-tuple of ``SPECIAL_PARTS``."""
    rng = np.random.default_rng(20)
    random = rng.standard_normal((count, 4)) * 10.0 ** rng.integers(-300, 300, (count, 4))
    return np.concatenate((random, np.array(list(itertools.product(SPECIAL_PARTS, repeat=4)))))


class TestArithmeticParity:
    """The sweep's complex products and magnitudes equal CPython's bit for bit."""

    def test_product_equals_cpython(self):
        parts = _parity_parts(5000)
        with np.errstate(all="ignore"):
            re, im = pw._product(*parts.T)
            one_re, one_im = pw._product(1.0, 0.0, parts[:, 2], parts[:, 3])
        for k, (ar, ai, br, bi) in enumerate(parts.tolist()):
            z, s = complex(ar, ai), complex(br, bi)
            with np.errstate(all="ignore"):
                numpy_weight = complex(np.complex128(z) * s)
            # the weights of the per-wall formulas are numpy complex scalars and floats
            for want, got in ((z * s, (re[k], im[k])),
                              (numpy_weight, (re[k], im[k])),
                              (1.0 * s, (one_re[k], one_im[k]))):
                assert _same(want.real, got[0]) and _same(want.imag, got[1]), (z, s, want)

    def test_magnitude_equals_cpython(self):
        parts = _parity_parts(5000)[:, :2]
        parts = np.concatenate((parts, [[1.5e308, 1.5e308], [1.2e308, -1e308], [1e308, 1e-300]]))
        with np.errstate(all="ignore"):
            size = pw._magnitude(parts[:, 0], parts[:, 1])
            over = pw._overflowed(size, parts[:, 0], parts[:, 1])
        overflows = 0
        for k, (re, im) in enumerate(parts.tolist()):
            try:
                want = abs(complex(re, im))
            except OverflowError:
                overflows += 1
                assert over[k] and size[k] == math.inf
                continue
            assert not over[k] and _same(want, size[k]), (re, im)
        assert overflows > 10


#: values planted into a wall's coefficient parts and kappa entries: NaN,
#: infinities, and finite values whose sums, products or magnitudes overflow;
#: a kappa entry takes only the finite ones (``build`` refuses any other)
PLANTED_VALUES = (math.nan, math.inf, -math.inf, 1e308, -1e308, 1.5e308, 1e200, 1e154)

#: one wall x_1 = x_2: per component its (left, right) chamber terms, each
#: continuous unless said otherwise; the coupling; and the reference outcome,
#: or ValueError where ``build`` refuses the chambers
NON_FINITE_WALLS = {
    # a NaN kappa entry, even off the wall's slots, never reaches the sweep
    "nan-kappa-off-the-wall": (
        [([(1.0, (1, 2, math.nan)), (2.0, (0.5, 0, 0))],
          [(1.0, (2, 1, math.nan)), (2.0, (0, 0.5, 0))])],
        [[0.5]], "ValueError",
    ),
    # nor does kappa (inf, -inf), which would reduce to (nan,)
    "inf-minus-inf-reduction": (
        [([(1e-15, (math.inf, -math.inf)), (1.0, (1, 0))],
          [(1e-15, (-math.inf, math.inf)), (1.0, (0, 1))])],
        [[0.5]], "ValueError",
    ),
    # a huge kappa entry off the wall's slots is carried through the reduction
    # unchanged, so its terms meet on the wall
    "huge-kappa-off-the-wall": (
        [([(1.0, (1, 2, 1e308)), (2.0, (0.5, 0, 0))],
          [(1.0, (2, 1, 1e308)), (2.0, (0, 0.5, 0))])],
        [[0.5]], "(0.0, 3.0)",
    ),
    # kappa (1.5e308, 1.5e308) reduces to (inf,) on each side, one id both
    # sides share; its wall derivative is 0, so its jump total is -0.5 * 1.0
    "overflowing-reduction": (
        [([(1.0, (1.5e308, 1.5e308)), (1.0, (1, 0))],
          [(1.0, (1.5e308, 1.5e308)), (1.0, (0, 1))])],
        [[0.5]], "(0.0, 2.5)",
    ),
    # (1.5e308, 0) and (0, 1.5e308) restrict to one sum whose magnitude overflows
    "restriction-overflow": (
        [([(1.5e308, (1, 0)), (1.5e308j, (0, 1))], [(1.5e308, (0, 1)), (1.5e308j, (1, 0))])],
        [[0.5]], "OverflowError",
    ),
    # each side's sum is finite, left - right is (1.5e308, 1.5e308)
    "gap-overflow": (
        [([(1.5e308, (1, 0))], [(-1.5e308j, (0, 1))])],
        [[0.5]], "OverflowError",
    ),
    # c * kappa_1 = (1.5e308, 1.5e308): the wall derivative's magnitude overflows
    "derivative-overflow": (
        [([(1e300, (1.5e8 + 1.5e8j, 0))], [(1e300, (0, 1.5e8 + 1.5e8j))])],
        [[0.5]], "OverflowError",
    ),
    # -C times the base 1.5e308 is (-1.5e308, -1.5e308) in the jump total
    "jump-overflow": (
        [([(1.5e308, (0.5, 0.5))], [(1.5e308, (0.5, 0.5))])],
        [[1 + 1j]], "OverflowError",
    ),
    # component 0 is discontinuous, component 1 overflows: the discontinuity comes first
    "discontinuity-before-overflow": (
        [([(1.0, (1, 0))], [(2.0, (0, 1))]),
         ([(1.5e308, (1, 0)), (1.5e308j, (0, 1))], [(1.5e308, (0, 1)), (1.5e308j, (1, 0))])],
        np.eye(2), "DiscontinuityError",
    ),
    "overflow-before-discontinuity": (
        [([(1.5e308, (1, 0)), (1.5e308j, (0, 1))], [(1.5e308, (0, 1)), (1.5e308j, (1, 0))]),
         ([(1.0, (1, 0))], [(2.0, (0, 1))])],
        np.eye(2), "OverflowError",
    ),
    # a NaN coupling entry times a base that holds nothing adds nothing
    "nan-coupling-empty-base": (
        [([(1.0, (1, 0))], [(1.0, (0, 1))]), ([], [])],
        [[0.5, math.nan], [0.0, 0.5]], "(0.0, 2.5)",
    ),
    # the same entry times a base that holds a term is NaN
    "nan-coupling": (
        [([(1.0, (1, 0))], [(1.0, (0, 1))]), ([(1.0, (1, 0))], [(1.0, (0, 1))])],
        [[0.5, math.nan], [0.0, 0.5]], "(0.0, nan)",
    ),
}


def _plant(rng, raw, values=PLANTED_VALUES):
    """``raw`` (coef, kappa) terms with one coefficient part replaced by one of
    ``values``, or one kappa entry by one of its finite ones, at random."""
    raw = [(complex(c), [complex(k) for k in kappa]) for c, kappa in raw]
    pos = int(rng.integers(len(raw)))
    coef, kappa = raw[pos]
    slot = int(rng.integers(len(kappa) + 2))
    if slot >= 2:
        values = [v for v in values if math.isfinite(v)]
    value = values[int(rng.integers(len(values)))]
    if slot == 0:
        coef = complex(value, coef.imag)
    elif slot == 1:
        coef = complex(coef.real, value)
    else:
        kappa[slot - 2] = complex(value, kappa[slot - 2].imag)
    raw[pos] = (coef, kappa)
    return [(c, tuple(k)) for c, k in raw]


def _planted_wall(rng, iface):
    """The two chambers of ``iface`` as ``_planted_at`` builds them, with
    ``PLANTED_VALUES`` planted where both chambers share them: into the pool's
    kappas and into the coefficient of a left term that the right repeats.
    So the wall stays continuous unless a coefficient is NaN or infinite or
    a sum overflows."""
    a, b = iface.pair
    pool = _planted_pool(rng, iface.left.n, iface.pair)
    if rng.random() < 0.6:
        pool = _plant(rng, [(0j, k) for k in pool])
        pool = [k for _, k in pool]
    left = [(complex(rng.standard_normal(), rng.standard_normal()), k) for k in pool]
    if rng.random() < 0.6:
        left = _plant(rng, [(c, k[:0]) for c, k in left])
        left = [(c, k) for (c, _), k in zip(left, pool)]
    right = list(left)
    for _, kappa in left:
        if rng.random() < 0.5:
            swapped = list(kappa)
            swapped[a - 1], swapped[b - 1] = kappa[b - 1], kappa[a - 1]
            d = complex(rng.standard_normal(), rng.standard_normal())
            right += [(d, kappa), (-d, tuple(swapped))]
    return {iface.left: left, iface.right: right}


class TestNonFiniteSweep:
    """The sweep equals the per-wall reference formulas on non-finite and overflowing input."""

    @pytest.mark.parametrize("case", list(NON_FINITE_WALLS), ids=list(NON_FINITE_WALLS))
    def test_walls_equal_the_reference(self, case):
        chambers, coupling, expected = NON_FINITE_WALLS[case]
        n = len(chambers[0][0][0][1])
        iface = pw.interfaces(n)[0]
        if expected == "ValueError":
            with pytest.raises(ValueError, match="non-finite kappa"):
                pw.build(n, {iface.left: chambers[0][0], iface.right: chambers[0][1]})
            return
        funcs = [pw.build(n, {iface.left: left, iface.right: right}) for left, right in chambers]
        couplings = {iface.pair: coupling}
        try:
            outcome = repr(reference_sweep(funcs, couplings, [iface]))
        except (DiscontinuityError, OverflowError) as exc:
            outcome = type(exc).__name__
        assert outcome == expected
        assert_same_outcome(
            lambda: pw.wall_residuals(funcs, iface, coupling),
            lambda: reference_sweep(funcs, couplings, [iface]),
        )

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(2, 3),
        components=st.integers(1, 2),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_planted_values_equal_the_reference(self, n, components, seed, data):
        rng = np.random.default_rng(seed)
        iface = data.draw(st.sampled_from(pw.interfaces(n)))
        funcs = []
        for _ in range(components):
            try:
                funcs.append(pw.build(n, _planted_wall(rng, iface)))
            except OverflowError:  # build refuses a sum whose magnitude overflows
                assume(False)
        coupling = _random_coupling(rng, components)
        with np.errstate(over="ignore"):  # the reference's numpy-scalar weights overflow
            assert_same_outcome(
                lambda: pw.wall_residuals(funcs, iface, coupling),
                lambda: reference_sweep(funcs, {iface.pair: coupling}, [iface]),
            )

    @settings(max_examples=40, deadline=None)
    @given(n=st.sampled_from([2, 3, 3]), components=st.integers(1, 2),
           seed=st.integers(0, 2**32 - 1))
    def test_planted_bethe_sweeps_equal_the_reference(self, n, components, seed):
        """A NaN or infinite coefficient part, or an overflowing kappa entry,
        anywhere in a Bethe-type sweep over every wall."""
        rng = np.random.default_rng(seed)
        funcs, couplings = _sweep_case(rng, n, components)
        i = int(rng.integers(len(funcs)))
        assume(funcs[i].terms)
        region = list(funcs[i].terms)[int(rng.integers(len(funcs[i].terms)))]
        raw = chamber(funcs[i], region)
        planted = _plant(rng, raw, (math.nan, math.inf, -math.inf, 1e308, 1.5e308, 1e200))
        funcs[i] = pw.build(n, {**dict(chambers(funcs[i])), region: planted})
        assert_same_outcome(
            lambda: pw.matching_residuals(funcs, couplings),
            lambda: wall_by_wall_reference(funcs, couplings),
        )


def outcome(run):
    """``run()`` as text, or the type and message of its error."""
    try:
        return repr(run())
    except (DiscontinuityError, OverflowError) as exc:
        return type(exc).__name__, str(exc)


class TestSweepPasses:
    """The sweep in passes of a few walls equals the sweep in one pass."""

    @staticmethod
    def sweeps():
        """Bethe-type sweeps, broken and planted ones among them, the walls of
        ``NON_FINITE_WALLS`` and both zero modes at N=3..5 with their couplings."""
        rng = np.random.default_rng(2024)
        for n in (2, 3, 3, 4):
            for components in (1, 2, 3):
                funcs, couplings = _sweep_case(rng, n, components)
                yield lambda f=funcs, c=couplings: pw.matching_residuals(f, c)
                broken = _break_continuity(rng, funcs)
                yield lambda f=broken, c=couplings: pw.matching_residuals(f, c)
                i = int(rng.integers(len(funcs)))
                region = list(funcs[i].terms)[int(rng.integers(len(funcs[i].terms)))]
                planted = list(funcs)
                planted[i] = pw.build(n, {**dict(chambers(funcs[i])), region: _plant(
                    rng, chamber(funcs[i], region), (math.nan, math.inf, -math.inf, 1e308, 1.5e308))})
                yield lambda f=planted, c=couplings: pw.matching_residuals(f, c)
        for walls, coupling, expected in NON_FINITE_WALLS.values():
            if expected != "ValueError":
                n = len(walls[0][0][0][1])
                iface = pw.interfaces(n)[0]
                funcs = [pw.build(n, {iface.left: left, iface.right: right}) for left, right in walls]
                yield lambda f=funcs, i=iface, c=coupling: pw.wall_residuals(f, i, c)
        for n in (3, 4, 5):
            sp = susy.Superpotential(n=n, c=1.05)
            for mode in susy.zero_modes(sp):
                sector = susy.sector_hamiltonian(mode.pure_grade(), sp)
                funcs = [mode.component(m) for m in sector.masks]
                yield lambda f=funcs, c=sector.couplings: pw.matching_residuals(f, c)

    def test_passes_of_a_few_walls_equal_one_pass(self, monkeypatch):
        sweeps = list(self.sweeps())
        one = [outcome(run) for run in sweeps]
        passes = []
        wall_pass = pw._wall_pass
        monkeypatch.setattr(pw, "_wall_pass", lambda *args: passes.append(1) or wall_pass(*args))
        monkeypatch.setattr(pw, "_PASS_SIZE", 16)
        assert [outcome(run) for run in sweeps] == one
        # each outcome is reached: residuals, a discontinuity and an overflow
        assert {o if isinstance(o, str) else o[0] for o in one} >= {
            "DiscontinuityError", "OverflowError"}
        assert sum(isinstance(o, str) for o in one) >= 15
        assert len(passes) > 10 * len(sweeps)


#: the componentwise tolerance within which the calculus once identified kappas
OLD_KAPPA_TOL = 1e-12


def tolerance_partition(kappas):
    """Positions of ``kappas`` grouped as a merge within ``OLD_KAPPA_TOL`` grouped them.

    The positions are sorted stably by ``pw._sort_key``, and one joins the
    current group when its kappa lies within ``OLD_KAPPA_TOL`` of the
    group's first, componentwise.
    """
    keys = [pw._sort_key(k) for k in kappas]
    groups = []
    ref = None
    for pos in sorted(range(len(kappas)), key=keys.__getitem__):
        kappa = kappas[pos]
        if ref is not None and all(abs(k - r) <= OLD_KAPPA_TOL for k, r in zip(kappa, ref)):
            groups[-1].append(pos)
        else:
            groups.append([pos])
            ref = kappa
    return sorted(groups)


def exact_partition(kappas):
    """Positions of ``kappas`` grouped by exact equality, as ``_merge_terms`` and the
    sweep's ids group them."""
    groups = {}
    for pos, kappa in enumerate(kappas):
        groups.setdefault(kappa, []).append(pos)
    return sorted(groups.values())


def _wall_layouts(f, seen):
    """Every (layout, pair) a sweep over ``f`` plans that ``seen`` does not hold yet."""
    for iface in pw.interfaces(f.n):
        for region in (iface.left, iface.right):
            layout = tuple(k for _, k in chamber(f, region))
            if layout and (layout, iface.pair) not in seen:
                seen.add((layout, iface.pair))
                yield layout, iface.pair


class TestExactIdentity:
    """Constructed states never hold two distinct kappas within ``OLD_KAPPA_TOL``."""

    def test_constructed_states_merge_as_under_the_tolerance(self, monkeypatch):
        merges = []
        build = pw.build

        def both_rules(n, data):
            # the raw terms of each chamber merge as under the tolerance
            data = {region: list(raw) for region, raw in data.items()}
            for raw in data.values():
                kappas = [tuple(complex(k) for k in kap) for _, kap in raw]
                assert exact_partition(kappas) == tolerance_partition(kappas)
                merges.append(len(kappas))
            return build(n, data)

        def both_rules_on_images(s, dagger):
            # the kappas that the sources of one (target mask, chamber) of Q s, or
            # Q^dag s, carry there merge as one raw chamber would
            arrived = {}
            for mask, f in s.components.items():
                for j in range(s.n):
                    if bool(mask >> j & 1) != dagger:
                        for region, ts in f.terms.items():
                            arrived.setdefault((mask ^ 1 << j, region), []).extend(
                                f.kappas[i] for i, _ in ts)
            for kappas in arrived.values():
                assert exact_partition(kappas) == tolerance_partition(kappas)
                merges.append(len(kappas))

        monkeypatch.setattr(pw, "build", both_rules)
        rng = np.random.default_rng(12)
        funcs = []
        for n in range(2, 6):
            for _ in range(2):
                ks = sorted(rng.standard_normal(n).tolist(), reverse=True)
                funcs.append(bethe.collision_state(ks, float(rng.uniform(-2.5, 2.5))))
        funcs += [
            bethe.dimer_state(0.3, -1.2),
            bethe.trimer_state(-0.2, -0.9),
            bethe.monomer_dimer_state(0.4, -0.7, -1.1),
        ]
        for n in range(2, 7):
            sp = susy.Superpotential(n=n, c=1.05)
            for mode in susy.zero_modes(sp):
                funcs += mode.components.values()
        for n in range(2, 5):
            sp = susy.Superpotential(n=n, c=float(rng.uniform(0.2, 2.5)))
            s = susy.random_spinor(sp, rng)
            qds = susy.apply_q_dagger(s, sp)
            for source, dagger in ((s, False), (s, True), (qds, False)):
                both_rules_on_images(source, dagger)
            for image in (susy.apply_q(s, sp), qds, susy.apply_q(qds, sp)):
                funcs += image.components.values()
        seen = set()
        planned = 0
        for f in funcs:
            for layout, pair in _wall_layouts(f, seen):
                reduced = [pw._reduce(kappa, *pair) for kappa in layout]
                assert exact_partition(reduced) == tolerance_partition(reduced)
                planned += 1
        assert len(merges) > 1000 and planned > 1000
        assert max(merges) >= 120

    def test_near_degenerate_momenta_match_exactly(self, capsys):
        assert cli.main(["bethe", "collision", "--k=1.0,0.9999999999999", "--c", "1"]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert results["max_jump_residual"] == 0.0
        assert results["max_continuity_residual"] == 0.0


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
