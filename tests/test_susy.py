"""Supercharges, sector Hamiltonians, zero modes, partners, algebra fuzz."""

import cmath
import collections
import functools
import itertools
import math

import numpy as np
import pytest

from slly import bethe, fock, susy
from slly import piecewise as pw
from slly.errors import SingletError


def grade0_collision(ks, sp):
    return susy.spinor_from_scalar(bethe.collision_state(ks, sp.c), 0)


def gradeN_state(f, n):
    return susy.spinor_from_scalar(f, (1 << n) - 1)


def chamber(f, region):
    """The (coef, kappa) terms of one chamber, read through f's kappa table."""
    return [(c, f.kappas[i]) for i, c in f.region_terms(region)]


def old_supercharge(s, sp, dagger):
    """Q or Q^dag as the composed chain of whole-function operations.

    Per move: differentiate, the superpotential term as its own coefficient
    map, their sum, then the scale by i sqrt(2) jw_sign; images summed into
    the target mask in ascending j.  The reference formula for ``apply_q``
    and ``apply_q_dagger``.
    """
    sgn = -1.0 if dagger else 1.0
    out = {}
    for mask, f in s.components.items():
        for j in range(1, sp.n + 1):
            bit = 1 << (j - 1)
            if bool(mask & bit) == dagger:
                continue
            w = pw.map_coefficients(f, lambda r, c, k: c * sgn * susy.grad_w(r, j, sp))
            z = 1j * math.sqrt(2.0) * fock.jw_sign(mask, j)
            g = pw.scale(pw.add(pw.differentiate(f, j), w), z)
            tgt = mask ^ bit
            out[tgt] = pw.add(out[tgt], g) if tgt in out else g
    return susy.SpinorFunction(s.n, {m: f for m, f in out.items() if f.terms})


def image_chain_supercharge(s, sp, dagger, events=None):
    """Q or Q^dag as one image per move, folded in with ``pw.add``: the reference of
    ``susy._supercharges``.

    Per source mask and movable mode j, ``map_coefficients`` builds the image
    c -> z * (c kappa_j + c sgn w_j) and ``add`` folds it into the target
    mask by ascending j.  ``events``, a Counter when given, counts the cases
    of this chain that the one-pass accumulation must reproduce.
    """
    sgn = -1.0 if dagger else 1.0
    out = {}
    seen = (set(), set())  # dropped kappas, emptied chambers
    for mask, f in s.components.items():
        for j in range(1, sp.n + 1):
            bit = 1 << (j - 1)
            if bool(mask & bit) == dagger:
                continue
            z = 1j * susy.SQRT2 * fock.jw_sign(mask, j)
            g = pw.map_coefficients(
                f, lambda r, c, k: z * (c * k[j - 1] + c * sgn * susy.grad_w(r, j, sp))
            )
            tgt = mask ^ bit
            before = out.get(tgt, pw.zero_function(s.n))
            out[tgt] = pw.add(out[tgt], g) if tgt in out else g
            if events is not None:
                count_chain_events(events, seen, tgt, before, g, out[tgt])
    result = susy.SpinorFunction(s.n, {m: f for m, f in out.items() if f.terms})
    if events is not None:
        events["-0.0 part"] += sum(
            math.copysign(1.0, x) < 0 and x == 0
            for f in result.components.values() for ts in f.terms.values() for i, c in ts
            for z in (c, *f.kappas[i]) for x in (z.real, z.imag)
        )
    return result


def count_chain_events(events, seen, tgt, before, image, after):
    """Count what one ``add`` of ``image`` into the target did (see the reference)."""
    dropped, emptied = seen
    for region in image.terms:
        if (tgt, region) in emptied:
            events["chamber reappears"] += 1
            emptied.discard((tgt, region))
        for _, kappa in chamber(image, region):
            if (tgt, region, kappa) in dropped:
                events["re-added after a drop"] += 1
                dropped.discard((tgt, region, kappa))
        sums = {k: c for c, k in chamber(after, region)}
        for c, kappa in chamber(before, region):
            if kappa not in sums:
                events["sum dropped"] += 1
                dropped.add((tgt, region, kappa))
            elif cmath.isfinite(c) and not cmath.isfinite(sums[kappa]):
                events["sum overflows"] += 1
        if region in before.terms and region not in after.terms:
            emptied.add((tgt, region))


def bits(s):
    """Every mask of ``s`` in order, its chambers in region order and each
    chamber's terms in order, each coefficient as text (signed zeros and NaN
    included) beside its kappa.  The supercharges write a mask's chambers in
    region order and the image chain in the order of its ``add`` calls, and
    no report reads that order.  Kappas compare by value: a function keeps
    one representative of kappas that differ only in the sign of a zero, the
    first its table met, and an image chain meets them in another order."""
    return [
        (mask, [(r.order, [(repr(c), k) for c, k in chamber(f, r)]) for r in sorted(f.terms)])
        for mask, f in s.components.items()
    ]


def assert_supercharges_equal_chain(s, sp):
    for dagger, op in ((False, susy.apply_q), (True, susy.apply_q_dagger)):
        got, want = op(s, sp), old_supercharge(s, sp, dagger)
        assert list(got.components) == list(want.components)
        for mask, f in got.components.items():
            want_f = want.components[mask]
            assert [(r, chamber(f, r)) for r in f.terms] == [(r, chamber(want_f, r)) for r in want_f.terms]


class TestSuperpotentialGradient:
    def test_two_particle_values(self):
        sp = susy.Superpotential(n=2, c=2.0)
        r12 = pw.Region((1, 2))
        assert susy.grad_w(r12, 1, sp) == -1.0
        assert susy.grad_w(r12, 2, sp) == 1.0

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_gradient_sums_to_zero(self, n):
        sp = susy.Superpotential(n=n, c=1.3)
        for region in pw.regions(n):
            assert abs(sum(susy.grad_w(region, j, sp) for j in range(1, n + 1))) < 1e-13

    def test_eight_particle_square_sum_over_all_regions(self):
        # enumerate all 8! chambers and compare against c^2 * 8 * 63 / 12 = 42 c^2
        c = 0.7
        sp = susy.Superpotential(n=8, c=c)
        target = 42.0 * c * c
        for perm in itertools.permutations(range(1, 9)):
            region = pw.Region(perm)
            val = sum(susy.grad_w(region, j, sp) ** 2 for j in range(1, 9))
            assert val == pytest.approx(target, rel=1e-12)

    def test_shift_constant_values(self):
        assert susy.shift_constant(susy.Superpotential(n=2, c=2.0)) == pytest.approx(2.0)
        assert susy.shift_constant(susy.Superpotential(n=3, c=1.0)) == pytest.approx(2.0)
        assert susy.shift_constant(susy.Superpotential(n=1, c=5.0)) == 0.0

    def test_negative_coupling_rejected(self):
        with pytest.raises(ValueError):
            susy.Superpotential(n=2, c=-1.0)

    @pytest.mark.parametrize("c", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_coupling_rejected(self, c):
        with pytest.raises(ValueError, match="finite"):
            susy.Superpotential(n=2, c=c)


class TestSupercharges:
    def test_q_kills_grade_zero(self):
        sp = susy.Superpotential(n=3, c=1.0)
        s = grade0_collision((1.0, 0.3, -0.8), sp)
        assert susy.spinor_max_coefficient(susy.apply_q(s, sp)) == 0.0

    def test_q_kills_dimer_top_state(self):
        sp = susy.Superpotential(n=2, c=2.0)
        s = gradeN_state(bethe.dimer_state(0.0, -sp.c), 2)
        assert susy.spinor_max_coefficient(susy.apply_q(s, sp)) == 0.0

    def test_raised_collision_matches_displayed_components(self):
        # raising the two-particle scattering state out of grade 0 reproduces
        # the explicit spin-up/spin-down component formulas, coefficientwise
        c, k1, k2 = 2.0, 1.4, -0.6
        sp = susy.Superpotential(n=2, c=c)
        th = bethe.phase_shift
        amp = cmath.exp(0.5j * th(k1 - k2, c))
        eith = cmath.exp(1j * th(k2 - k1, c))
        st = bethe.collision_state([k1, k2], c)
        r12, r21 = pw.Region((1, 2)), pw.Region((2, 1))
        ka, kb = (1j * k1, 1j * k2), (1j * k2, 1j * k1)
        cur = {k: c for c, k in chamber(st, r12)}
        st = pw.scale(st, amp / cur[ka])
        raised = susy.apply_q_dagger(susy.spinor_from_scalar(st, 0), sp)

        sq2 = math.sqrt(2.0)
        expected = {
            1: pw.build(2, {
                r12: [(-sq2 * amp * (k1 - 0.5j * c), ka),
                      (-sq2 * amp * (k2 - 0.5j * c) * eith, kb)],
                r21: [(-sq2 * amp * (k2 + 0.5j * c), kb),
                      (-sq2 * amp * (k1 + 0.5j * c) * eith, ka)],
            }),
            2: pw.build(2, {
                r12: [(-sq2 * amp * (k2 + 0.5j * c), ka),
                      (-sq2 * amp * (k1 + 0.5j * c) * eith, kb)],
                r21: [(-sq2 * amp * (k1 - 0.5j * c), kb),
                      (-sq2 * amp * (k2 - 0.5j * c) * eith, ka)],
            }),
        }
        for mask, want in expected.items():
            assert pw.coefficient_distance(raised.component(mask), want) < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("terms", [1, 2, 3])
    def test_equal_chain_on_random_spinors(self, n, terms):
        sp = susy.Superpotential(n=n, c=0.4 + 0.3 * n)
        rng = np.random.default_rng(100 * n + terms)
        for grade in [None, None, *range(n + 1)]:
            s = susy.random_spinor(sp, rng, grade=grade, terms_per_region=terms)
            assert_supercharges_equal_chain(s, sp)

    @pytest.mark.parametrize(
        "ks",
        [(1.3, -0.4), (0.9, 0.0), (1.1, 0.3, -0.8), (0.7, 0.0, -0.6), (1.2, 0.5, -0.1, -0.9)],
    )
    def test_equal_chain_on_collision_states(self, ks):
        # a zero momentum makes c kappa_j exactly zero, so the chain drops that term
        n = len(ks)
        sp = susy.Superpotential(n=n, c=1.1)
        assert_supercharges_equal_chain(grade0_collision(ks, sp), sp)
        assert_supercharges_equal_chain(gradeN_state(bethe.collision_state(ks, -sp.c), n), sp)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_equal_chain_on_zero_modes(self, n):
        # odd N puts w_j = 0 on the middle rank, where the chain drops the whole map
        sp = susy.Superpotential(n=n, c=1.05)
        for mode in susy.zero_modes(sp):
            assert_supercharges_equal_chain(mode, sp)

    def test_keeps_a_derivative_term_the_chain_dropped(self):
        # c kappa_1 = 5e-15 is at most DROP_TOL: the chain's differentiate dropped it
        # before the sum, the single map adds it to c w_1 first
        sp = susy.Superpotential(n=2, c=1.0)
        r12 = pw.Region((1, 2))
        s = susy.spinor_from_scalar(pw.build(2, {r12: [(1.0, (5e-15, 1.0))]}), 0)
        w1 = susy.grad_w(r12, 1, sp)
        z = 1j * math.sqrt(2.0) * fock.jw_sign(0, 1)
        ((_, got),) = susy.apply_q_dagger(s, sp).component(0b01).terms[r12]
        ((_, chain),) = old_supercharge(s, sp, True).component(0b01).terms[r12]
        assert got == z * (5e-15 + 1.0 * -1.0 * w1)
        assert chain == z * (1.0 * -1.0 * w1) != got

    def test_grading_moves_by_one(self):
        sp = susy.Superpotential(n=3, c=0.8)
        rng = np.random.default_rng(1)
        s = susy.random_spinor(sp, rng, grade=1)
        assert susy.apply_q_dagger(s, sp).pure_grade() == 2
        assert susy.apply_q(s, sp).pure_grade() == 0


#: real parts of the pooled spinors' coefficients and kappas: with c = 1 every
#: image coefficient is i sqrt(2) times a small dyadic number, so images of
#: different masks cancel exactly
POOL_PARTS = (0.0, 1.0, -1.0, 0.5, -0.5)


def pooled_spinor(rng, n, huge=True):
    """A spinor on every mask and chamber whose terms draw from two kappas.

    The masks, the chambers and the terms come in shuffled order, so images
    of different masks share kappas, cancel to zero, empty chambers and
    refill them, and meet signed zeros (every imaginary part is 0.0 or
    -0.0); with ``huge``, a third kappa, every entry 1e308 + 1j, reaches
    several masks: it is finite, but its images from different masks sum to
    infinities.
    """
    def part(values=POOL_PARTS):
        return complex(float(rng.choice(values)), float(rng.choice((0.0, -0.0))))

    kappas = [tuple(part() for _ in range(n)) for _ in range(2)]
    if huge:
        kappas.append((complex(1e308, 1.0),) * n)
    regions = pw.regions(n)
    comps = {}
    for mask in rng.permutation(1 << n):
        data = {}
        for i in rng.permutation(len(regions)):
            picks = rng.permutation(len(kappas))[: int(rng.integers(1, 2, endpoint=True))]
            data[regions[int(i)]] = [(part((1.0, -1.0)), kappas[int(k)]) for k in picks]
        comps[int(mask)] = pw.build(n, data)
    return susy.SpinorFunction(n, comps)


def near_cancelling_spinor():
    """Three grade-1 masks lowered into mask 0 on chamber (1, 2, 3), w = (-1, 0, 1).

    Mask 1 gives -z, mask 4 gives (1 + 2^-52) z: their sum 2^-52 z is at
    most DROP_TOL, so it drops and the chamber empties; mask 2 then starts
    the kappa afresh at 2.5e-4 z, and the chain of ``add`` appends the
    chamber after (1, 3, 2); Q writes it first, in region order.
    """
    r123, r132 = pw.Region((1, 2, 3)), pw.Region((1, 3, 2))
    kappa = (0.0, 0.25, 0.0)
    return susy.SpinorFunction(3, {
        0b001: pw.build(3, {r123: [(1.0, kappa)], r132: [(1.0, (0.5, 0.0, 0.0))]}),
        0b100: pw.build(3, {r123: [(1.0 + 2.0**-52, kappa)]}),
        0b010: pw.build(3, {r123: [(1e-3, kappa)]}),
    })


class TestAccumulationKernel:
    """``_supercharges`` equals the image-by-image chain bit for bit, and writes each
    target's chambers in region order."""

    SP = {n: susy.Superpotential(n=n, c=1.0) for n in (1, 2, 3, 4, 5)}

    @staticmethod
    def pooled(n, seed, count=20):
        rng = np.random.default_rng(seed)
        return [pooled_spinor(rng, n, huge=k % 2 == 0) for k in range(count)]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("dagger", [False, True])
    def test_equal_chain_on_pooled_spinors(self, n, dagger):
        sp = self.SP[n]
        for s in self.pooled(n, 10 * n + dagger):
            got = susy._supercharges([(s, dagger)], sp)[0]
            assert bits(got) == bits(image_chain_supercharge(s, sp, dagger))
            assert all(list(f.terms) == sorted(f.terms) for f in got.components.values())

    @pytest.mark.parametrize("n", [6, 7])
    def test_equal_chain_on_large_zero_modes(self, n):
        sp = susy.Superpotential(n=n, c=1.05)
        for mode in susy.zero_modes(sp):
            for dagger in (False, True):
                assert bits(susy._supercharges([(mode, dagger)], sp)[0]) == bits(
                    image_chain_supercharge(mode, sp, dagger)
                )

    def test_passes_of_whole_targets_equal_one_pass(self, monkeypatch):
        # a pass of at most 16 entries takes one target or a few: the chambers,
        # drops and overflows of every target are the chain's all the same
        monkeypatch.setattr(pw, "_PASS_SIZE", 16)
        for n in (3, 4):
            for dagger in (False, True):
                for s in self.pooled(n, 100 + 10 * n + dagger, count=4):
                    assert bits(susy._supercharges([(s, dagger)], self.SP[n])[0]) == bits(
                        image_chain_supercharge(s, self.SP[n], dagger)
                    )
        sp = susy.Superpotential(n=5, c=1.05)
        for mode in susy.zero_modes(sp):
            assert bits(susy.apply_q(mode, sp)) == bits(image_chain_supercharge(mode, sp, False))

    def test_overflowing_magnitude_raises(self):
        """An image coefficient, or a sum of two, with finite parts whose magnitude
        exceeds DBL_MAX raises OverflowError, as ``abs`` of it does in the chain."""
        sp = susy.Superpotential(1, 0.0)
        f = pw.build(1, {pw.Region((1,)): [(0.92e308 + 0.92e308j, (1.0,))]})
        with pytest.raises(OverflowError):
            image_chain_supercharge(susy.SpinorFunction(1, {1: f}), sp, False)
        with pytest.raises(OverflowError):
            susy.apply_q(susy.SpinorFunction(1, {1: f}), sp)
        # each image is +-i sqrt(2) (0.5e308 - 0.5e308j), of magnitude 1e308, and
        # masks 1 and 2 move into one mask (0 under Q, 3 under Q^dag) with the
        # same sign, so the magnitude of their sum overflows
        sp = susy.Superpotential(2, 0.0)
        g = pw.build(2, {pw.Region((1, 2)): [(0.5e308 - 0.5e308j, (1.0, 1.0))]})
        for s, op in ((susy.SpinorFunction(2, {1: g, 2: g}), susy.apply_q),
                      (susy.SpinorFunction(2, {1: g, 2: pw.scale(g, -1.0)}), susy.apply_q_dagger)):
            with pytest.raises(OverflowError):
                image_chain_supercharge(s, sp, op is susy.apply_q_dagger)
            with pytest.raises(OverflowError):
                op(s, sp)

    def test_near_cancellation_drops_and_reappends(self):
        sp, s = self.SP[3], near_cancelling_spinor()
        got = susy.apply_q(s, sp)
        assert bits(got) == bits(image_chain_supercharge(s, sp, False))
        r123, r132 = pw.Region((1, 2, 3)), pw.Region((1, 3, 2))
        assert list(got.component(0).terms) == [r123, r132]
        ((_, coef),) = got.component(0).terms[r123]
        assert coef == 1j * susy.SQRT2 * (1e-3 * 0.25 + 1e-3 * 1.0 * 0.0)

    def test_every_case_is_reached(self):
        """The inputs above reach each rule of the chain the accumulation keeps."""
        events = collections.Counter()
        image_chain_supercharge(near_cancelling_spinor(), self.SP[3], False, events)
        assert events["sum dropped"] == events["re-added after a drop"] == 1
        assert events["chamber reappears"] == 1
        pooled = collections.Counter()
        for n in (2, 3, 4):
            for dagger in (False, True):
                for s in self.pooled(n, 10 * n + dagger):
                    image_chain_supercharge(s, self.SP[n], dagger, pooled)
        cases = ("sum dropped", "re-added after a drop", "chamber reappears",
                 "sum overflows", "-0.0 part")
        assert all(pooled[case] >= 10 for case in cases), pooled


class TestBatchedSupercharges:
    """``_supercharges`` of several jobs gives each job what the image chain
    gives it alone, bit for bit."""

    SP = TestAccumulationKernel.SP

    @staticmethod
    def assert_each_job_equals_chain(jobs, sp):
        got = susy._supercharges(jobs, sp)
        assert len(got) == len(jobs)
        for (s, dagger), image in zip(jobs, got):
            assert bits(image) == bits(image_chain_supercharge(s, sp, dagger))
            assert all(list(f.terms) == sorted(f.terms) for f in image.components.values())

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_mixed_grades_share_target_masks(self, n):
        # Q of one mask and Q^dag of another reach one mask, in different jobs
        sp = self.SP[n]
        rng = np.random.default_rng(200 + n)
        shared = 0
        for _ in range(4):
            s, t = (susy.random_spinor(sp, rng) for _ in range(2))
            q, qd = susy._supercharges([(s, False), (s, True)], sp)
            shared += bool(q.components.keys() & qd.components.keys())
            self.assert_each_job_equals_chain([(s, False), (s, True), (t, True), (t, False)], sp)
        assert shared

    def test_a_source_repeated_across_jobs(self):
        sp = self.SP[3]
        s = susy.random_spinor(sp, np.random.default_rng(5))
        qs = susy.apply_q(s, sp)
        self.assert_each_job_equals_chain(
            [(s, False), (qs, True), (s, False), (s, True), (qs, False), (s, True)], sp)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_sources_on_different_tables(self, n):
        # each pooled component holds its own table, and so does each spinor
        # drawn alone: one kappa table for all jobs is their union
        sp = self.SP[n]
        rng = np.random.default_rng(300 + n)
        spinors = [*TestAccumulationKernel.pooled(n, 400 + n, count=3),
                   susy.random_spinor(sp, rng), susy.zero_modes(susy.Superpotential(n, 1.0))[1]]
        assert len({f.kappas for s in spinors for f in s.components.values()}) > 2
        self.assert_each_job_equals_chain(
            [(s, dagger) for s in spinors for dagger in (True, False)], sp)

    def test_passes_split_across_jobs(self, monkeypatch):
        monkeypatch.setattr(pw, "_PASS_SIZE", 16)
        for n in (3, 4):
            sp = self.SP[n]
            pooled = TestAccumulationKernel.pooled(n, 500 + n, count=3)
            mixed = susy.random_spinor(sp, np.random.default_rng(n))
            self.assert_each_job_equals_chain(
                [(pooled[0], False), (mixed, True), (pooled[1], True), (mixed, False),
                 (pooled[2], False), (pooled[0], True)], sp)

    def test_array_passes_per_check(self, monkeypatch):
        # an algebra trial takes 2 passes (it took 6), the annihilation
        # check 1 (2), the census 1 (4) and a partner 1
        calls = []
        run = susy._supercharge_pass
        monkeypatch.setattr(susy, "_supercharge_pass", lambda *a: calls.append(1) or run(*a))
        sp = susy.Superpotential(n=3, c=1.1)
        checks = [
            (lambda: susy.algebra_residuals(susy.random_spinor(sp, np.random.default_rng(1)), sp), 2),
            (lambda: susy.annihilation_residuals(susy.zero_modes(sp)[1], sp), 1),
            (lambda: susy.witten_census(sp), 1),
            (lambda: susy.susy_partner(grade0_collision((1.1, 0.3, -0.8), sp), "raise", sp), 1),
        ]
        for check, passes in checks:
            calls.clear()
            check()
            assert len(calls) == passes

    def test_checks_make_no_image_functions(self, monkeypatch):
        # the checks reduce the images as flat arrays; apply_q makes functions
        calls = []
        run = pw._unflatten
        monkeypatch.setattr(pw, "_unflatten", lambda *a: calls.append(1) or run(*a))
        sp = susy.Superpotential(n=3, c=1.1)
        s = susy.random_spinor(sp, np.random.default_rng(1))
        mode = susy.zero_modes(sp)[1]
        susy.algebra_residuals(s, sp)
        susy.annihilation_residuals(mode, sp)
        susy.witten_census(sp)
        assert not calls
        susy.apply_q(s, sp)
        assert len(calls) == 1

    @pytest.mark.parametrize("at", [0, 1, 2])
    def test_one_overflowing_job_raises_and_clears_errno(self, at):
        # the lone mask-1 term of magnitude 1.3e308 lowers to an image of
        # magnitude sqrt(2) * 1.3e308, whose parts are finite
        sp = susy.Superpotential(1, 0.0)
        r1 = pw.Region((1,))
        huge = susy.SpinorFunction(1, {1: pw.build(1, {r1: [(0.92e308 + 0.92e308j, (1.0,))]})})
        calm = susy.SpinorFunction(1, {1: pw.build(1, {r1: [(1.0, (0.5,))]}),
                                       0: pw.build(1, {r1: [(2.0, (0.25,))]})})
        jobs = [(calm, False), (calm, True), (calm, False)]
        susy._supercharges(jobs, sp)
        jobs[at] = (huge, False)
        with pytest.raises(OverflowError, match="absolute value too large"):
            susy._supercharges(jobs, sp)
        assert math.isnan(abs(complex(math.nan, 1.0)))
        assert susy._supercharges([(huge, True)], sp)[0].components == {}


class TestParticleCount:
    """A spinor and a superpotential of different particle counts are refused."""

    MISMATCHED = [(3, 2), (3, 4), (2, 5)]

    @pytest.mark.parametrize("n_spinor, n_sp", MISMATCHED)
    @pytest.mark.parametrize("op", [
        susy.apply_q, susy.apply_q_dagger, susy.algebra_residuals, susy.annihilation_residuals,
    ])
    def test_supercharges_refuse(self, op, n_spinor, n_sp):
        s, _ = susy.zero_modes(susy.Superpotential(n_spinor, 1.0))
        with pytest.raises(ValueError, match=f"{n_spinor} particles .* of {n_sp}"):
            op(s, susy.Superpotential(n_sp, 1.0))

    @pytest.mark.parametrize("n_spinor, n_sp", MISMATCHED)
    def test_verify_eigenstate_refuses_before_reading_a_wall(self, monkeypatch, n_spinor, n_sp):
        def refuse(*args):
            raise AssertionError("a wall was read")

        monkeypatch.setattr(pw, "matching_residuals", refuse)
        _, s = susy.zero_modes(susy.Superpotential(n_spinor, 1.0))
        with pytest.raises(ValueError, match=f"{n_spinor} particles .* of {n_sp}"):
            susy.verify_eigenstate(s, 0.0, susy.Superpotential(n_sp, 1.0))


class TestSectorHamiltonian:
    def test_two_particle_middle_sector(self):
        sp = susy.Superpotential(n=2, c=1.7)
        sector = susy.sector_hamiltonian(1, sp)
        assert sector.shift == pytest.approx(1.7**2 / 2)
        assert np.array_equal(sector.block(1, 2).real, 2 * 1.7 * np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_three_particle_sectors_match_pinned_matrices(self):
        c = 1.0
        sp = susy.Superpotential(n=3, c=c)
        one = susy.sector_hamiltonian(1, sp)
        two = susy.sector_hamiltonian(2, sp)
        assert np.array_equal(one.block(1, 2).real, 2 * c * np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1.0]]))
        assert np.array_equal(one.block(2, 3).real, 2 * c * np.array([[1, 0, 0], [0, 0, 1], [0, 1, 0.0]]))
        assert np.array_equal(two.block(1, 3).real, 2 * c * np.array([[0, 0, -1], [0, -1, 0], [-1, 0, 0.0]]))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_scalar_sectors_uniform(self, n):
        sp = susy.Superpotential(n=n, c=0.9)
        bottom = susy.sector_hamiltonian(0, sp)
        top = susy.sector_hamiltonian(n, sp)
        for pair in bottom.couplings:
            assert np.array_equal(bottom.block(*pair).real, [[2 * 0.9]])
            assert np.array_equal(top.block(*pair).real, [[-2 * 0.9]])

    def test_grade_out_of_range(self):
        sp = susy.Superpotential(n=2, c=1.0)
        with pytest.raises(ValueError):
            susy.sector_hamiltonian(3, sp)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_couplings_equal_sparse_projection_exactly(self, n):
        """Cached blocks times 2c carry the bytes of the sparse product, signed zeros included."""
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for c in (0.0, 0.7, 2.3):
            sp = susy.Superpotential(n=n, c=c)
            for grade in range(n + 1):
                sector = susy.sector_hamiltonian(grade, sp)
                assert list(sector.couplings) == pairs
                for (a, b), block in sector.couplings.items():
                    ref = fock.grade_project(fock.delta_coupling(a, b, c, n), grade)
                    assert block.dtype == ref.dtype and block.shape == ref.shape
                    assert block.tobytes() == ref.tobytes()

    def test_mutating_a_block_leaves_the_next_call_alone(self):
        sp = susy.Superpotential(n=3, c=1.3)
        first = susy.sector_hamiltonian(1, sp)
        expected = {pair: block.copy() for pair, block in first.couplings.items()}
        for block in first.couplings.values():
            block[...] = 99.0
        second = susy.sector_hamiltonian(1, sp)
        for pair, block in second.couplings.items():
            assert block is not first.couplings[pair]
            assert block.tobytes() == expected[pair].tobytes()


class TestVerifyEigenstate:
    def test_grade0_collision_accepts(self):
        sp = susy.Superpotential(n=3, c=1.2)
        ks = (1.1, 0.2, -0.7)
        s = grade0_collision(ks, sp)
        e = bethe.energy(ks) + susy.shift_constant(sp)
        rep = susy.verify_eigenstate(s, e, sp)
        assert rep.accepted

    def test_trimer_at_rest_is_zero_energy(self):
        sp = susy.Superpotential(n=3, c=1.0)
        s = gradeN_state(bethe.trimer_state(0.0, -sp.c), 3)
        rep = susy.verify_eigenstate(s, 0.0, sp)
        assert rep.accepted

    def test_wrong_energy_rejected_with_bulk_residual(self):
        sp = susy.Superpotential(n=2, c=1.0)
        ks = (0.9, -0.4)
        s = grade0_collision(ks, sp)
        e = bethe.energy(ks) + susy.shift_constant(sp)
        rep = susy.verify_eigenstate(s, e + 0.1, sp)
        assert not rep.accepted
        assert rep.bulk_residual == pytest.approx(0.1)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_bulk_evaluates_each_kappa_of_a_table_once(self, monkeypatch, n):
        # the alternating zero mode's N components share one table and use
        # every kappa of it; collision states of other momenta hold a table each
        sp = susy.Superpotential(n=n, c=1.1)
        _, mode = susy.zero_modes(sp)
        drawn = susy.SpinorFunction(n, {
            1 << j: bethe.collision_state([0.3 * j + k for k in range(n, 0, -1)], sp.c)
            for j in range(n)
        })
        residual, calls = bethe.kappa_energy_residual, []
        monkeypatch.setattr(bethe, "kappa_energy_residual",
                            lambda kappa, e: calls.append(kappa) or residual(kappa, e))
        shift = susy.shift_constant(sp)
        once = pw.used_kappas(next(iter(mode.components.values())))
        each = [k for f in drawn.components.values() for k in pw.used_kappas(f)]
        for s, e, want in ((mode, 0.0, once), (drawn, 0.7, each)):
            calls.clear()
            got = susy.verify_eigenstate(s, e, sp).bulk_residual
            assert calls == want
            assert got == pw.nan_max(
                bethe.bulk_energy_residual(f, e - shift) for f in s.components.values())
        assert len(once) == math.factorial(n) and len(each) == n * math.factorial(n)


class TestZeroModes:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_both_modes_annihilated_and_zero_energy(self, n):
        sp = susy.Superpotential(n=n, c=1.1)
        for mode in susy.zero_modes(sp):
            rq, rqd = susy.annihilation_residuals(mode, sp)
            assert rq < 1e-12 and rqd < 1e-12
            assert susy.verify_eigenstate(mode, 0.0, sp).accepted

    @pytest.mark.parametrize("which", [0, 1], ids=["zero_mode_top", "zero_mode_alternating"])
    def test_refused_without_coupling_or_partners(self, which):
        """Neither mode is built without a coupling or a second particle."""
        with pytest.raises(ValueError, match=r"zero modes need c > 0: at c = 0 exp\(-W\)"):
            susy.zero_modes(susy.Superpotential(n=3, c=0.0))[which]
        with pytest.raises(ValueError, match="N >= 2"):
            susy.zero_modes(susy.Superpotential(n=1, c=0.0))[which]

    def test_three_particle_alternating_pattern(self):
        sp = susy.Superpotential(n=3, c=1.0)
        _, mode = susy.zero_modes(sp)
        sector = susy.sector_hamiltonian(2, sp)
        psi = bethe.nmer_ground(3, sp.c)
        signs = []
        for mask in sector.masks:
            comp = mode.component(mask)
            ratio = comp.terms[pw.Region((1, 2, 3))][0][1] / psi.terms[pw.Region((1, 2, 3))][0][1]
            signs.append(ratio.real)
        assert signs == [1.0, -1.0, 1.0]

    def test_two_particle_top_mode_is_dimer(self):
        sp = susy.Superpotential(n=2, c=2.0)
        top, _ = susy.zero_modes(sp)
        assert top.pure_grade() == 2
        assert pw.coefficient_distance(top.component(3), bethe.dimer_state(0.0, -2.0)) == 0.0

    def test_uniform_one_hole_vector_is_not_a_zero_mode(self):
        sp = susy.Superpotential(n=3, c=1.0)
        psi = bethe.nmer_ground(3, sp.c)
        full = 0b111
        uniform = susy.SpinorFunction(3, {full ^ (1 << j): psi for j in range(3)})
        _, rqd = susy.annihilation_residuals(uniform, sp)
        assert rqd > 0.1


class TestWittenCensus:
    @pytest.mark.parametrize(
        "n,grades", [(2, {2: 1, 1: -1}), (3, {3: -1, 2: 1}), (4, {4: 1, 3: -1})]
    )
    def test_census(self, n, grades):
        census = susy.witten_census(susy.Superpotential(n=n, c=1.0))
        assert census.n_b == 1 and census.n_f == 1 and census.index == 0
        assert {m.grade: m.klein_parity for m in census.modes} == grades
        assert census.completeness == "lower_bound"


class TestPartners:
    def test_raise_then_lower_scales_by_twice_energy(self):
        sp = susy.Superpotential(n=2, c=1.4)
        ks = (1.0, -0.5)
        s = grade0_collision(ks, sp)
        e = bethe.energy(ks) + susy.shift_constant(sp)
        back = susy.apply_q(susy.apply_q_dagger(s, sp), sp)
        assert susy.spinor_distance(back, susy.spinor_scale(s, 2 * e)) < 1e-12

    def test_monomer_dimer_lowered_to_middle_sector(self):
        sp = susy.Superpotential(n=3, c=1.1)
        p, q = 0.8, -0.5
        state = gradeN_state(bethe.monomer_dimer_state(p, q, -sp.c), 3)
        result = susy.susy_partner(state, "lower", sp)
        assert not result.singlet
        assert result.state.pure_grade() == 2
        assert result.energy == pytest.approx(q**2 + 2 * p**2 + 1.5 * sp.c**2)
        assert result.report.accepted

    @pytest.mark.parametrize("n", [2, 3])
    def test_partner_preserves_energy_random_states(self, n):
        sp = susy.Superpotential(n=n, c=0.9)
        rng = np.random.default_rng(n + 10)
        for _ in range(10):
            ks = tuple(sorted(rng.uniform(-2.0, 2.0, size=n), reverse=True))
            s = grade0_collision(ks, sp)
            result = susy.susy_partner(s, "raise", sp)
            want = bethe.energy(ks) + susy.shift_constant(sp)
            assert result.energy == pytest.approx(want, abs=1e-10)
            assert result.report.accepted

    @pytest.mark.parametrize(
        "state,direction,other",
        [
            (lambda sp: gradeN_state(bethe.trimer_state(0.1, -sp.c), 3), "raise", "lower"),
            (lambda sp: gradeN_state(bethe.monomer_dimer_state(0.8, -0.5, -sp.c), 3),
             "raise", "lower"),
            (lambda sp: grade0_collision((1.1, 0.3, -0.8), sp), "lower", "raise"),
        ],
        ids=["trimer-raise", "monomer-dimer-raise", "collision-lower"],
    )
    def test_vanishing_direction_rejected(self, monkeypatch, state, direction, other):
        # the supercharge vanishes identically there; no check may run first
        sp = susy.Superpotential(n=3, c=1.0)
        s = state(sp)

        def no_check(*args):
            raise AssertionError("verification ran before the direction check")

        monkeypatch.setattr(susy, "verify_eigenstate", no_check)
        with pytest.raises(ValueError, match=f"use direction '{other}'"):
            susy.susy_partner(s, direction, sp)

    def test_zero_mode_input_rejected(self):
        sp = susy.Superpotential(n=2, c=1.0)
        with pytest.raises(SingletError):
            susy.susy_partner(susy.zero_modes(sp)[0], "lower", sp)


class TestAlgebraChecks:
    def test_nilpotency_fuzz(self):
        sp = susy.Superpotential(n=3, c=0.7)
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(100):
            res = susy.algebra_residuals(susy.random_spinor(sp, rng), sp)
            worst = max(worst, res.q_squared, res.q_dagger_squared)
        assert worst < 1e-12

    def test_anticommutator_on_plane_wave_grade_one(self):
        sp = susy.Superpotential(n=2, c=1.3)
        ks = (0.9, -0.4)
        wave = pw.build(
            2,
            {r: [(1.0, (1j * ks[0], 1j * ks[1]))] for r in pw.regions(2)},
        )
        s = susy.spinor_from_scalar(wave, 0b01)
        lhs = susy.spinor_add(
            susy.apply_q(susy.apply_q_dagger(s, sp), sp),
            susy.apply_q_dagger(susy.apply_q(s, sp), sp),
        )
        e = ks[0] ** 2 + ks[1] ** 2 + susy.shift_constant(sp)
        assert susy.spinor_distance(susy.spinor_scale(lhs, 0.5), susy.spinor_scale(s, e)) < 1e-12

    def test_anticommutator_fuzz(self):
        sp = susy.Superpotential(n=3, c=1.1)
        rng = np.random.default_rng(17)
        worst = 0.0
        for _ in range(50):
            s = susy.random_spinor(sp, rng)
            worst = max(worst, susy.algebra_residuals(s, sp).anticommutator)
        assert worst < 1e-12

    @staticmethod
    def spinors(n, rng):
        """Random spinors, and spinors whose components sit on different kappa
        tables: a collision state at the top grade, each zero mode, and one
        mixing a zero mode's components with a collision state and a random
        component; up to N=4, pooled spinors too, whose images overflow."""
        sp = susy.Superpotential(n=n, c=0.9)
        ks = tuple(1.7 - 0.9 * k for k in range(n))
        collision = bethe.collision_state(ks, 0.9)
        out = [susy.random_spinor(sp, rng) for _ in range(2 if n == 5 else 4)]
        out.append(gradeN_state(collision, n))
        if n >= 2:
            modes = susy.zero_modes(sp)
            drawn = susy.random_spinor(sp, rng, grade=1).components
            out += [*modes, susy.SpinorFunction(n, {
                **modes[1].components, 0: collision, 1: drawn[1]})]
        if n <= 4:
            out += TestAccumulationKernel.pooled(n, 600 + n, count=2)
        return sp, out

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_residuals_equal_separate_checks(self, n):
        """Each residual, or the failure, is the one its own Q/Q^dag chain gives,
        summed in the same order."""
        sp, spinors = self.spinors(n, np.random.default_rng(n))
        assert len({f.kappas for s in spinors for f in s.components.values()}) > 2
        for s in spinors:
            assert outcome(susy.algebra_residuals, s, sp) == outcome(chained_algebra, s, sp)

    def test_cancellation_at_the_drop_boundary(self):
        """One N=2 grade-1 spinor at 16 scales: on some, the anticommutator's
        rounding differences all drop, at magnitude at most DROP_TOL; on
        others one of them is kept just above it."""
        sp = susy.Superpotential(n=2, c=0.9)
        s = susy.random_spinor(sp, np.random.default_rng(3), grade=1, terms_per_region=1)
        residuals = []
        for k in range(16):
            scaled = susy.SpinorFunction(2, {m: pw.scale(f, 1 + k / 16) for m, f in s.components.items()})
            assert outcome(susy.algebra_residuals, scaled, sp) == outcome(chained_algebra, scaled, sp)
            residuals.append(susy.algebra_residuals(scaled, sp).anticommutator)
        assert 0.0 in residuals
        assert any(pw.DROP_TOL < r <= 1.5 * pw.DROP_TOL for r in residuals), residuals

    def test_passes_of_a_few_targets(self, monkeypatch):
        monkeypatch.setattr(pw, "_PASS_SIZE", 16)
        for n in (3, 4):
            sp, spinors = self.spinors(n, np.random.default_rng(700 + n))
            for s in spinors[3:]:
                assert outcome(susy.algebra_residuals, s, sp) == outcome(chained_algebra, s, sp)
                assert outcome(susy.annihilation_residuals, s, sp) == outcome(
                    chained_annihilation, s, sp)
            assert outcome(susy.witten_census, sp) == outcome(chained_census, sp)


def chained_algebra(s, sp):
    """``algebra_residuals`` with each supercharge its own call, in the order
    its steps ran when each was its own array pass."""
    q, qd = susy.apply_q, susy.apply_q_dagger
    qs, qds = q(s, sp), qd(s, sp)
    lhs = susy.spinor_scale(susy.spinor_add(q(qds, sp), qd(qs, sp)), 0.5)
    shift = susy.shift_constant(sp)
    rhs = susy.SpinorFunction(s.n, {
        mask: pw.add(pw.scale(pw.laplacian(f), -1.0), pw.scale(f, shift))
        for mask, f in s.components.items()
    })
    return susy.AlgebraResiduals(
        susy.spinor_max_coefficient(q(qs, sp)),
        susy.spinor_max_coefficient(qd(qds, sp)),
        susy.spinor_distance(lhs, rhs),
    )


def chained_annihilation(s, sp):
    return (susy.spinor_max_coefficient(susy.apply_q(s, sp)),
            susy.spinor_max_coefficient(susy.apply_q_dagger(s, sp)))


def chained_census(sp):
    records, counted = [], []
    for mode in susy.zero_modes(sp):
        rq, rqd = chained_annihilation(mode, sp)
        grade = mode.pure_grade()
        if rq < susy.ZERO_MODE_TOL and rqd < susy.ZERO_MODE_TOL:
            counted.append((-1) ** grade)
        records.append(susy.ZeroModeRecord(grade, rq, rqd, (-1) ** grade))
    n_b, n_f = counted.count(1), counted.count(-1)
    return susy.WittenCensus(tuple(records), n_b, n_f, n_b - n_f)


def outcome(fn, *args):
    """The value's text (NaN equal to NaN), or the exception's type and message."""
    try:
        return "value", repr(fn(*args))
    except (OverflowError, ValueError) as err:
        return type(err), str(err)


class TestFailureOrder:
    """Batching the supercharges changes no outcome.  Where c^2 overflows
    (c above about 1.34e154) and images of c^2 size overflow too, the
    chained steps met one failure first, ``shift_constant``'s ValueError or
    an ``abs`` OverflowError; the batched checks meet the same one.  At
    N = 4, c = 10^154.7 the spinor of seed 1 reaches the case where
    Q Q s overflows, but Q Q^dag s, Q^dag Q s and their sum do not."""

    GRID = [10.0 ** (150 + k / 10) for k in range(101)]

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_equal_outcomes_to_the_chained_steps(self, n):
        outcomes = collections.Counter()
        for c in self.GRID:
            sp = susy.Superpotential(n, c)
            rng = np.random.default_rng(1)
            spinors = [susy.random_spinor(sp, rng)]
            got = outcome(susy.witten_census, sp)
            assert got == outcome(chained_census, sp)
            outcomes[got[0]] += 1
            if got[0] == "value":
                spinors += susy.zero_modes(sp)
            for s in spinors:
                got = outcome(susy.algebra_residuals, s, sp)
                assert got == outcome(chained_algebra, s, sp), (n, c)
                outcomes[got[0]] += 1
                got = outcome(susy.annihilation_residuals, s, sp)
                assert got == outcome(chained_annihilation, s, sp), (n, c)
                outcomes[got[0]] += 1
        assert all(outcomes[kind] for kind in ("value", OverflowError, ValueError)), outcomes


def scalar_draw_spinor(sp, rng, grade=None, terms_per_region=2):
    """A random spinor drawn one scalar at a time, each component on its own
    table: the reference stream of ``random_spinor``."""
    masks = fock.fock_basis(sp.n)
    if grade is not None:
        chosen = [m for m in masks if m.bit_count() == grade]
    else:
        chosen = [m for m in masks if rng.random() < 0.5] or [int(rng.integers(0, len(masks)))]
    comps = {}
    for mask in chosen:
        data = {}
        for region in pw.regions(sp.n):
            raw = []
            for _ in range(terms_per_region):
                coef = complex(rng.standard_normal(), rng.standard_normal())
                kappa = tuple(
                    complex(rng.standard_normal(), rng.standard_normal()) for _ in range(sp.n)
                )
                raw.append((coef, kappa))
            data[region] = raw
        comps[mask] = pw.build(sp.n, data)
    return susy.SpinorFunction(n=sp.n, components=comps)


class TestRandomSpinor:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_one_draw_equals_scalar_draws(self, n):
        sp = susy.Superpotential(n=n, c=0.9)
        for grade, terms, seed in itertools.product([None, *range(n + 1)], [1, 2, 3], [0, 7, 31]):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            got = susy.random_spinor(sp, rng, grade=grade, terms_per_region=terms)
            want = scalar_draw_spinor(sp, ref, grade=grade, terms_per_region=terms)
            assert list(got.components) == list(want.components)
            for mask, f in got.components.items():
                assert pw.to_json_obj(f) == pw.to_json_obj(want.components[mask])
            (table,) = {f.kappas for f in got.components.values()}
            assert table == pw.common_table(list(want.components.values()))[0]
            assert rng.standard_normal() == ref.standard_normal()

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_sorts_each_kappa_once(self, monkeypatch, n):
        # the components are classified as one, so the table is sorted once
        # and no union of component tables is sorted again
        sort_key, calls = pw._sort_key, collections.Counter()

        def counting(kappa):
            calls[kappa] += 1
            return sort_key(kappa)

        monkeypatch.setattr(pw, "_sort_key", counting)
        sp = susy.Superpotential(n=n, c=0.9)
        rng = np.random.default_rng(n)
        for grade in (None, None, 1):
            calls.clear()
            s = susy.random_spinor(sp, rng, grade=grade)
            (table,) = {f.kappas for f in s.components.values()}
            assert len(s.components) > 1
            assert calls == collections.Counter(table)

    def test_one_standard_normal_call_after_the_mask_draws(self):
        calls = []

        class Recording:
            def __init__(self, rng):
                self.rng = rng

            def __getattr__(self, name):
                calls.append(name)
                return getattr(self.rng, name)

        sp = susy.Superpotential(n=3, c=0.9)
        susy.random_spinor(sp, Recording(np.random.default_rng(3)))
        assert calls == ["random"] * 8 + ["standard_normal"]
        calls.clear()
        susy.random_spinor(sp, Recording(np.random.default_rng(3)), grade=2)
        assert calls == ["standard_normal"]

    @pytest.mark.parametrize("grade", [None, 1])
    def test_components_share_one_table(self, grade):
        sp = susy.Superpotential(n=3, c=0.9)
        s = susy.random_spinor(sp, np.random.default_rng(12), grade=grade)
        (table,) = {id(f.kappas) for f in s.components.values()}
        for image in (susy.apply_q(s, sp), susy.apply_q_dagger(s, sp)):
            assert all(id(f.kappas) == table for f in image.components.values())


#: exchange matrices of which the alternating zero mode is a -1 eigen-spinor: the
#: 4x4 one on the whole two-mode Fock space, and the N=3 one on grade 2 (masks 3, 5, 6)
SIGMA1_N2 = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=float)
SIGMA1_N3_GRADE2 = 0.5 * np.array([[0, 1, -1], [1, 0, 1], [-1, 1, 0]], dtype=float)


def pairs(n):
    return list(itertools.combinations(range(1, n + 1), 2))


def matrix_image(mat, vec):
    """The component vector ``mat . vec`` of chamber functions."""
    n = vec[0].n
    image = []
    for row in mat:
        g = pw.zero_function(n)
        for m, f in zip(row, vec):
            if m != 0:
                g = pw.add(g, pw.scale(f, m))
        image.append(g)
    return image


def is_odd(s, a, b):
    return susy.spinor_distance(susy.exchange(s, a, b), susy.spinor_scale(s, -1.0)) == 0.0


def is_even(s, a, b):
    return susy.spinor_distance(susy.exchange(s, a, b), s) == 0.0


class TestExchange:
    """E_ab = P_ab (x) Lambda_ab/(2c); every statement holds with zero tolerance."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_zero_modes_are_odd(self, n):
        sp = susy.Superpotential(n=n, c=1.3)
        for mode in susy.zero_modes(sp):
            assert all(is_odd(mode, a, b) for a, b in pairs(n))

    @pytest.mark.parametrize(
        "f",
        [
            bethe.collision_state((1.1, 0.3, -0.8), 1.2),
            bethe.collision_state((1.4, 0.2, -0.3, -1.0), -0.9),
            bethe.dimer_state(0.7, -1.5),
            bethe.trimer_state(0.4, -1.1),
            bethe.monomer_dimer_state(0.8, -0.5, -1.1),
        ],
        ids=["collision-3", "collision-4", "dimer", "trimer", "monomer-dimer"],
    )
    def test_bethe_states_are_symmetric(self, f):
        for a, b in pairs(f.n):
            assert pw.coefficient_distance(pw.transpose(f, a, b), f) == 0.0
        assert all(is_even(susy.spinor_from_scalar(f, 0), a, b) for a, b in pairs(f.n))

    def test_partner_has_the_sign_of_its_source(self):
        sp = susy.Superpotential(n=3, c=1.1)
        raised = susy.susy_partner(grade0_collision((1.1, 0.3, -0.8), sp), "raise", sp)
        top = gradeN_state(bethe.monomer_dimer_state(0.8, -0.5, -sp.c), 3)
        lowered = susy.susy_partner(top, "lower", sp)
        assert raised.state.pure_grade() == 1 and lowered.state.pure_grade() == 2
        assert all(is_even(raised.state, a, b) for a, b in pairs(3))
        assert all(is_odd(lowered.state, a, b) for a, b in pairs(3))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_commutes_with_supercharges_and_squares_to_one(self, n):
        sp = susy.Superpotential(n=n, c=0.7)
        rng = np.random.default_rng(n)
        for grade in range(n + 1):
            s = susy.random_spinor(sp, rng, grade=grade)
            for a, b in pairs(n):
                e = susy.exchange(s, a, b)
                for charge in (susy.apply_q, susy.apply_q_dagger):
                    image = susy.exchange(charge(s, sp), a, b)
                    assert susy.spinor_distance(image, charge(e, sp)) == 0.0
                assert susy.spinor_distance(susy.exchange(e, a, b), s) == 0.0

    def test_pinned_three_particle_matrix(self):
        sp = susy.Superpotential(n=3, c=1.0)
        blocks = [block for _, block in susy._unit_blocks(3, 2)]
        assert np.array_equal((np.eye(3) + sum(blocks)) / 2, SIGMA1_N3_GRADE2)
        _, mode = susy.zero_modes(sp)
        images = [susy.exchange(mode, a, b) for a, b in pairs(3)]
        mean = susy.spinor_scale(functools.reduce(susy.spinor_add, images, mode), 0.5)
        assert susy.spinor_distance(mean, susy.spinor_scale(mode, -1.0)) == 0.0
        vec = [mode.component(mask) for mask in (3, 5, 6)]
        for g, f in zip(matrix_image(SIGMA1_N3_GRADE2, vec), vec):
            assert pw.coefficient_distance(g, pw.scale(f, -1.0)) == 0.0

    def test_pinned_two_particle_matrix(self):
        # the pinned matrix gives |11> the sign +1, the fermionic swap -1;
        # the alternating mode lives on grade 1, where the two agree
        unit = fock.delta_coupling_unit(1, 2, 2).dense()
        assert np.array_equal(np.argwhere(unit != SIGMA1_N2), [[3, 3]])
        assert unit[3, 3] == -1 and SIGMA1_N2[3, 3] == 1
        _, mode = susy.zero_modes(susy.Superpotential(n=2, c=1.0))
        assert is_odd(mode, 1, 2)
        vec = [mode.component(mask) for mask in fock.fock_basis(2)]
        for g, f in zip(matrix_image(SIGMA1_N2, vec), vec):
            assert pw.coefficient_distance(g, pw.scale(f, -1.0)) == 0.0

    @pytest.mark.parametrize("pair", [(2, 1), (2, 2), (0, 1), (1, 4)])
    def test_bad_pair_rejected(self, pair):
        sp = susy.Superpotential(n=3, c=1.0)
        for s in (susy.zero_modes(sp)[1], susy.SpinorFunction(n=3, components={})):
            with pytest.raises(ValueError):
                susy.exchange(s, *pair)
