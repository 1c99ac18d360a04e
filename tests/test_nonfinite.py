"""Non-finite data never passes a check.

A NaN compares false both ways, so a drop test written ``abs(c) > tol``
loses it and ``max(worst, nan)`` returns ``worst``.  Every drop test keeps a
term unless ``abs(c) <= DROP_TOL``, and every residual maximum returns NaN
once any residual is NaN, wherever it sits in the sweep.
"""

import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

from slly import bethe, cli, lattice, susy
from slly import piecewise as pw
from slly.errors import DiscontinuityError

NAN = float("nan")
INF = float("inf")
PLANTED = [NAN, INF, -INF, complex(0.0, NAN)]
#: finite kappa entries whose sums, products or magnitudes overflow
HUGE = [1e308, 1.5e308, 1e200]


def chamber_terms(f: pw.RegionFunction, region: pw.Region) -> list:
    """The (coef, kappa) terms of one chamber, read through f's kappa table."""
    return [(c, f.kappas[i]) for i, c in f.region_terms(region)]


def plant(f: pw.RegionFunction, value: complex, chamber: int = 0, pos: int = 0,
          kappa: bool = False) -> pw.RegionFunction:
    """``f`` with one coefficient (or the first kappa entry of one term)
    replaced, rebuilt by ``build``, so a planted kappa entry must be finite."""
    data = {r: chamber_terms(f, r) for r in f.terms}
    ts = data[list(data)[chamber]]
    coef, kap = ts[pos]
    ts[pos] = (coef, (complex(value), *kap[1:])) if kappa else (complex(value), kap)
    return pw.build(f.n, data)


def plant_spinor(s: susy.SpinorFunction, value: complex, **where) -> susy.SpinorFunction:
    """``s`` with ``plant`` applied to its last component."""
    mask = list(s.components)[-1]
    return susy.SpinorFunction(
        n=s.n, components={**s.components, mask: plant(s.components[mask], value, **where)}
    )


def plant_top_mode(monkeypatch, value: complex) -> None:
    """Make ``susy.zero_modes`` return a top mode with ``value`` planted in it."""
    modes = susy.zero_modes

    def planted(sp):
        top, alternating = modes(sp)
        return plant_spinor(top, value), alternating

    monkeypatch.setattr(susy, "zero_modes", planted)


def fails(check) -> bool:
    """True when ``check()`` raises DiscontinuityError or returns a failing verdict."""
    try:
        verdict = check()
    except DiscontinuityError:
        return True
    return not verdict


def terms_repr(f: pw.RegionFunction):
    """Terms with coefficients as text, so NaN compares equal to NaN."""
    return {r: [(repr(c), k) for c, k in chamber_terms(f, r)] for r in f.terms}


REGION = pw.Region((1, 2))
K1, K2, K3 = (1 + 0j, 0j), (2 + 0j, 0j), (3 + 0j, 0j)


def sweep_wall_derivative(terms, a, b):
    """The sweep's wall derivative of one chamber's (coef, kappa) terms
    (``pw._derivative``), as the kept (coef, kappa) entries in position order."""
    kappas = [k for _, k in terms]
    cr, ci = (np.array([getattr(c, part) for c, _ in terms]) for part in ("real", "imag"))
    ka, kb = (np.array([k[j - 1] for k in kappas]) for j in (a, b))
    with np.errstate(all="ignore"):
        d = pw._derivative(cr, ci, ka.real, ka.imag, kb.real, kb.imag)
    return [(complex(r, i), k) for r, i, keep, k in zip(d.re, d.im, d.keep, kappas) if keep]


class TestDropRule:
    """A term drops only when ``abs(c) <= DROP_TOL``, on every path."""

    @pytest.mark.parametrize("value", PLANTED)
    def test_map_coefficients_equals_build(self, value):
        f = pw.build(2, {REGION: [(1.0, K1), (2.0, K2), (3.0, K3)]})
        fn = lambda r, c, k: value if k == K2 else c  # noqa: E731
        mapped = pw.map_coefficients(f, fn)
        assert len(mapped.terms[REGION]) == 3
        assert terms_repr(mapped) == terms_repr(
            pw.build(2, {r: [(fn(r, c, k), k) for c, k in chamber_terms(f, r)] for r in f.terms})
        )

    @pytest.mark.parametrize("value", PLANTED)
    def test_add_equals_build_of_the_concatenation(self, value):
        parts = [[(value, K1), (1.0, K2)], [(1.0, K1), (-1.0, K2)]]
        merged = pw.add(*(pw.build(2, {REGION: p}) for p in parts))
        assert [k for _, k in chamber_terms(merged, REGION)] == [K1]
        assert terms_repr(merged) == terms_repr(pw.build(2, {REGION: parts[0] + parts[1]}))

    @pytest.mark.parametrize("plan, coefs", [
        ((0, 1), [NAN, 0.0]),
        ((1, 0, 1), [1.0, NAN, -1.0]),  # id 1's terms cancel
        ((0, 1, 1), [NAN, 1e-15, None]),  # a position the derivative dropped: it enters as 0
    ])
    def test_restriction_keeps_nan_beside_a_dropped_sum(self, plan, coefs):
        coefs = np.array([0.0 if c is None else c for c in coefs], dtype=complex)
        re, im = pw._slot_sums(np.array(plan), 2, coefs.real, coefs.imag)
        size = pw._magnitude(re, im)
        assert np.flatnonzero(pw._kept(size)).tolist() == [0] and math.isnan(size[0])

    @pytest.mark.parametrize("value", PLANTED)
    @pytest.mark.parametrize("term", [
        (None, (1 + 0j, 2 + 0j, 0.5 + 0j)),  # both images non-finite
        (2.0, (1 + 0j, 1e308 + 0j, 0j)),  # d/dx_3 image drops, d/dx_2 image overflows
        (2.0, (1 + 0j, 0.2 + 0j, 1.5e308 + 0j)),  # d/dx_3 image overflows
    ])
    def test_wall_derivative_equals_the_chain(self, value, term):
        """``value`` is the second term's coefficient where ``term`` leaves it
        open, else the first term's, beside a finite kappa whose image is inf."""
        # the wall (2, 3), so the first kappa entries keep the chamber's order
        coef, kappa = term
        first = (2.0 if coef is None else value, (-0.5, -1, 0.3))
        region = pw.Region((1, 2, 3))
        f = pw.build(3, {region: [first, (value if coef is None else coef, kappa)]})
        chain = pw.add(pw.differentiate(f, 2), pw.scale(pw.differentiate(f, 3), -1.0))
        kept = [(repr(c), k) for c, k in sweep_wall_derivative(chamber_terms(f, region), 2, 3)]
        assert kept == terms_repr(chain)[region]


class TestNanKappas:
    """A kappa holding a NaN or an infinity never enters the calculus: ``build``
    refuses it, so every kappa is finite by construction."""

    R3 = pw.Region((2, 1, 3))

    @pytest.mark.parametrize("value", PLANTED)
    @pytest.mark.parametrize("slot", [0, 1, 2])
    def test_build_refuses_a_non_finite_kappa(self, value, slot):
        kappa = [0.5, 1 + 2j, -1.0]
        kappa[slot] = value
        raw = [(1.0, (0, 0, 0)), (2.0, tuple(kappa))]
        with pytest.raises(ValueError) as refused:
            pw.build(3, {pw.Region((1, 2, 3)): [(1.0, (0, 0, 0))], self.R3: raw})
        assert str(refused.value) == (
            f"region (2, 1, 3) holds the non-finite kappa {tuple(kappa)!r}"
        )

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("part", ["re", "im"])
    def test_from_json_obj_refuses_a_non_finite_kappa(self, literal, part):
        """``json.loads`` reads NaN and Infinity; a state file holding one is refused."""
        f = pw.build(2, {pw.Region((1, 2)): [(1.0, (0.5, -0.5j))]})
        text = json.dumps(pw.to_json_obj(f))
        assert pw.from_json_obj(json.loads(text)) == f
        entry = '{"re": 0.5, "im": 0.0}'
        assert text.count(entry) == 1
        planted = entry.replace(f'"{part}": {0.5 if part == "re" else 0.0}', f'"{part}": {literal}')
        with pytest.raises(ValueError, match=r"region \(1, 2\) holds the non-finite kappa"):
            pw.from_json_obj(json.loads(text.replace(entry, planted)))

    def test_collision_state_refuses_an_infinite_momentum(self):
        """The momentum set names the momentum, before kappa = i * inf (whose
        real part 0 * inf is a NaN) reaches the Bethe sum."""
        for k in [(math.inf, 0.0), (1.0, math.nan), (0.5, -math.inf)]:
            bad = complex(next(v for v in k if not math.isfinite(v)))
            for make in (bethe.MomentumSet, lambda ks: bethe.collision_state(ks, 1.0)):
                with pytest.raises(ValueError) as refused:
                    make(k)
                assert str(refused.value) == f"momentum {bad!r} is not finite"

    @pytest.mark.parametrize("kappa", [(1e308, 1e308, 0.0), (1.5e308j, 1.5e308j, 1.5e308j),
                                       (-1e308, -1.5e308, 1e308 + 1e308j)])
    def test_a_kappa_whose_sum_overflows_is_accepted(self, kappa):
        assert not math.isfinite(abs(sum(kappa)))
        f = pw.build(3, {self.R3: [(1.0, kappa)]})
        assert f.kappas == (tuple(map(complex, kappa)),)
        assert f.terms == {self.R3: ((0, 1 + 0j),)}

    def test_an_overflowing_sweep_leaves_abs_of_nan_alone(self):
        """CPython's abs of a complex with a NaN part reads the C errno, which an
        overflowing magnitude in the sweep sets: the sweep clears it."""
        iface = pw.interfaces(2)[0]
        f = pw.build(2, {iface.left: [(1.5e308, (1, 0)), (1.5e308j, (0, 1))],
                         iface.right: [(1.5e308, (0, 1)), (1.5e308j, (1, 0))]})
        with pytest.raises(OverflowError):
            pw.wall_residuals([f], iface, [[0.5]])
        assert math.isnan(abs(complex(NAN, 1.0)))

    @pytest.mark.parametrize(
        "site", ["build", "map_coefficients", "add", "max_coefficient", "charge_residual"]
    )
    def test_an_overflowing_abs_leaves_abs_of_nan_alone(self, site):
        """CPython's complex ``abs`` and ``**`` leave errno at ERANGE when they
        raise ``OverflowError``, and a later ``abs`` of a complex with a NaN
        part reads it: every function that lets such an error out, or catches
        one, clears it."""
        r1 = pw.Region((1,))
        huge = 0.7e308 + 0.7e308j  # twice it: finite parts, magnitude past DBL_MAX
        f = pw.build(1, {r1: [(huge, (1.0,))]})
        if site == "charge_residual":
            # (-1j * -1e308) ** 2 overflows; charge_residual counts it as inf
            state = pw.build(3, {self.R3: [(1.0, (-1e308, 0.0, 0.0))]})
            assert bethe.charge_residual(state, [1.5, 0.2, -0.9], 2) == math.inf
        else:
            calls = {
                "build": lambda: pw.build(1, {r1: [(huge, (1.0,)), (huge, (1.0,))]}),
                "map_coefficients": lambda: pw.map_coefficients(f, lambda r, c, k: 2 * c),
                "add": lambda: pw.add(f, f),
                "max_coefficient": lambda: pw.max_coefficient(
                    pw.RegionFunction(1, {r1: ((0, 2 * huge),)}, f.kappas)),
            }
            with pytest.raises(OverflowError):
                calls[site]()
        assert math.isnan(abs(complex(1.3, NAN)))

    @pytest.mark.parametrize("x", [(NAN, 0.3), (INF, 0.3), (0.3, -INF)])
    def test_evaluate_refuses_a_non_finite_point(self, x):
        with pytest.raises(ValueError, match="non-finite"):
            pw.evaluate(pw.constant_function(2), x)


class TestMaxima:
    """Every residual maximum returns NaN (or inf) wherever the value sits."""

    @pytest.mark.parametrize("pos", [0, 1, 3])
    def test_nan_max(self, pos):
        sizes = [1.0, 5.0, 2.0, 4.0]
        assert pw.nan_max(sizes) == 5.0 and pw.nan_max([]) == 0.0
        sizes[pos] = NAN
        assert math.isnan(pw.nan_max(sizes))
        assert math.isnan(pw.nan_max(iter(sizes)))

    @pytest.mark.parametrize("value", [NAN, INF])
    @pytest.mark.parametrize("pos", [0, 2])
    def test_max_coefficient(self, value, pos):
        coefs = [1.0, 5.0, 2.0]
        coefs[pos] = value
        f = pw.build(2, {REGION: list(zip(coefs, (K1, K2, K3)))})
        got = pw.max_coefficient(f)
        assert repr(got) == repr(abs(value))

    @pytest.mark.parametrize("pos", [0, 1])
    def test_spinor_max_coefficient(self, pos):
        good = pw.build(2, {REGION: [(3.0, K1)]})
        bad = pw.build(2, {REGION: [(NAN, K2)]})
        comps = [good, good]
        comps[pos] = bad
        s = susy.SpinorFunction(n=2, components={1: comps[0], 2: comps[1]})
        assert math.isnan(susy.spinor_max_coefficient(s))

    @pytest.mark.parametrize("pos", [0, 2])
    def test_weighted_max_keeps_nan(self, pos):
        """A jump total that is NaN beside bases holding the same ids, or missing
        an id whose sum dropped.

        The finite kappa (1e308, 1e308), on both sides, gives a wall
        derivative c*1e308 - c*1e308 = inf - inf, a NaN, wherever |c| >= 2,
        while the two sides stay continuous: both reduce it to (inf,).
        """
        iface = pw.interfaces(2)[0]
        kappas = [1.0, 2.0, 3.0]

        def wall(coefs, extra=()):
            left = [(c, (1e308, 1e308) if i == pos else (k, 0.0))
                    for i, (c, k) in enumerate(zip(coefs, kappas))]
            right = [(c, (1e308, 1e308) if i == pos else (0.0, k))
                     for i, (c, k) in enumerate(zip(coefs, kappas))]
            return pw.build(2, {iface.left: left + list(extra), iface.right: right + list(extra)})

        planted = wall([3.0, 5.0, 2.0])
        full = wall([0.5, 0.5, 0.5])
        # (1.5, 0) and (0, 1.5) both reduce to (1.5,): their sum drops on the wall
        partial = wall([0.5, 0.5, 0.5], [(0.25, (1.5, 0.0)), (-0.25, (0.0, 1.5))])
        assert len(pw.restrict_to_interface(partial, iface, "left")) == 3
        coupling = [[0.5, 0.25, 0.25], [0.25, 0.5, 0.0], [0.25, 0.0, 0.5]]
        for funcs in ([planted, full, partial], [partial, full, planted]):
            continuity, jump = pw.wall_residuals(funcs, iface, coupling)
            assert continuity == 0.0 and math.isnan(jump)

    @pytest.mark.parametrize("pos", [0, -1])
    def test_bulk_energy_residual(self, pos):
        """Finite kappa entries whose squares are NaN + inf j and NaN - inf j
        sum to a NaN residual."""
        state = bethe.collision_state([1.5, 0.2, -0.9], 2.0)
        data = {r: chamber_terms(state, r) for r in state.terms}
        ts = data[list(data)[pos % len(data)]]
        ts[pos] = (ts[pos][0], (1e200 + 1e200j, 1e200 - 1e200j, ts[pos][1][2]))
        bad = pw.build(3, data)
        assert math.isnan(bethe.bulk_energy_residual(bad, bethe.energy([1.5, 0.2, -0.9])))

    @pytest.mark.parametrize("pair", [(1, 2), (1, 3), (2, 3)])
    def test_jump_maximum_over_walls(self, pair):
        # the NaN pair's walls come first, in the middle or mixed among
        # finite ones in ``interfaces`` order
        state = bethe.collision_state([1.5, 0.2, -0.9], 2.0)
        couplings = {iface.pair: [[4.0]] for iface in pw.interfaces(3)}
        couplings[pair] = [[NAN]]
        continuity, jump = pw.matching_residuals([state], couplings)
        assert continuity <= pw.JUMP_CONTINUITY_TOL
        assert math.isnan(jump)

    @pytest.mark.parametrize("pos", [0, -1])
    def test_charge_residual(self, pos):
        # (-1j * (1e200 + 1e200j)) ** 2 is inf - inf in its real part
        state = bethe.collision_state([1.5, 0.2, -0.9], 2.0)
        chamber = pos % len(state.terms)
        bad = plant(state, 1e200 + 1e200j, chamber=chamber, pos=pos, kappa=True)
        assert math.isnan(bethe.charge_residual(bad, [1.5, 0.2, -0.9], 2))

    @pytest.mark.parametrize("value", [1e200, 1e308])
    @pytest.mark.parametrize("order", [2, 3])
    def test_charge_residual_of_an_overflowing_power(self, value, order):
        """A power of a large finite kappa entry that CPython refuses to take
        (``OverflowError``) counts as an infinite residual."""
        with pytest.raises(OverflowError):
            (-1j * complex(value)) ** order
        state = bethe.collision_state([1.5, 0.2, -0.9], 2.0)
        assert bethe.charge_residual(state, [1.5, 0.2, -0.9], order) < 1e-12
        bad = plant(state, value, chamber=2, pos=1, kappa=True)
        assert bethe.charge_residual(bad, [1.5, 0.2, -0.9], order) == math.inf

    @pytest.mark.parametrize("pos", [0, -1])
    def test_max_recurrence_violation(self, pos):
        coeffs = bethe.bethe_coefficients([1.5, 0.2, -0.9], 2.0)
        alpha = dict(coeffs.alpha)
        alpha[list(alpha)[pos]] = complex(NAN)
        bad = dataclasses.replace(coeffs, alpha=alpha)
        assert math.isnan(bethe.max_recurrence_violation(bad))

    def test_continuity_guard_refuses_a_nan_gap(self):
        state = bethe.collision_state([1.5, 0.2, -0.9], 2.0)
        couplings = {iface.pair: [[4.0]] for iface in pw.interfaces(3)}
        with pytest.raises(DiscontinuityError):
            pw.matching_residuals([plant(state, NAN, chamber=4, pos=1)], couplings)

    def test_nan_energy_fails_the_bulk_check(self):
        state = bethe.collision_state([1.5, 0.2, -0.9], 2.0)
        rep = bethe.matching_report(state, 2.0, NAN)
        assert math.isnan(rep.max_bulk) and not rep.passed()
        sp = susy.Superpotential(n=3, c=1.2)
        rep = susy.verify_eigenstate(susy.zero_modes(sp)[1], NAN, sp)
        assert math.isnan(rep.bulk_residual) and not rep.accepted

    @pytest.mark.parametrize("box", [NAN, INF, -INF])
    def test_grid_refuses_a_non_finite_box(self, box):
        with pytest.raises(ValueError, match="finite"):
            lattice.Grid(box=box, points=16, n=2)

    def test_reports_fail_on_nan(self):
        assert not bethe.MatchingReport(0.0, NAN, 0.0).passed()
        assert not bethe.MatchingReport(NAN, 0.0, 0.0).passed()
        assert not susy.EigenstateReport(0, 0.0, 0.0, NAN, 1e-9).accepted
        assert not susy.EigenstateReport(0, 0.0, NAN, 0.0, 1e-9).accepted


class TestPlantedStates:
    """A state with one non-finite coefficient, or one huge kappa entry, fails
    every public check; one with a non-finite kappa cannot be built."""

    K = [1.5, 0.2, -0.9]

    @pytest.mark.parametrize("value", PLANTED)
    @pytest.mark.parametrize("kappa", [False, True])
    @pytest.mark.parametrize("chamber", [0, 3, 5])
    def test_collision_state(self, value, kappa, chamber):
        state = bethe.collision_state(self.K, 2.0)
        e = bethe.energy(self.K)
        assert bethe.matching_report(state, 2.0, e).passed()
        if kappa:
            with pytest.raises(ValueError, match="non-finite kappa"):
                plant(state, value, chamber=chamber, pos=chamber, kappa=True)
            return
        bad = plant(state, value, chamber=chamber, pos=chamber)
        assert fails(lambda: bethe.matching_report(bad, 2.0, e).passed())

    @pytest.mark.parametrize("value", HUGE)
    @pytest.mark.parametrize("chamber", [0, 3, 5])
    def test_collision_state_with_a_huge_kappa(self, value, chamber):
        state = bethe.collision_state(self.K, 2.0)
        bad = plant(state, value, chamber=chamber, pos=chamber, kappa=True)
        assert fails(lambda: bethe.matching_report(bad, 2.0, bethe.energy(self.K)).passed())

    def test_collision_state_with_nan_coupling(self):
        state = bethe.collision_state(self.K, 2.0)
        rep = bethe.matching_report(state, NAN, bethe.energy(self.K))
        assert math.isnan(rep.max_jump)
        assert not rep.passed()

    @pytest.mark.parametrize("value", PLANTED)
    def test_bound_state(self, value):
        state = bethe.trimer_state(0.0, -1.0)
        e = bethe.energy(bethe.trimer_momenta(0.0, -1.0))
        assert bethe.matching_report(state, -1.0, e).passed()
        assert fails(lambda: bethe.matching_report(plant(state, value, chamber=2), -1.0, e).passed())

    @pytest.mark.parametrize("value", PLANTED)
    @pytest.mark.parametrize("which", [0, 1], ids=["zero_mode_top", "zero_mode_alternating"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_zero_modes(self, value, which, n):
        sp = susy.Superpotential(n=n, c=1.2)
        mode = susy.zero_modes(sp)[which]
        assert susy.verify_eigenstate(mode, 0.0, sp).accepted
        bad = plant_spinor(mode, value, chamber=1)
        assert fails(lambda: susy.verify_eigenstate(bad, 0.0, sp).accepted)
        rq, rqd = susy.annihilation_residuals(bad, sp)
        assert not (rq < susy.ZERO_MODE_TOL and rqd < susy.ZERO_MODE_TOL)

    @pytest.mark.parametrize("value", PLANTED)
    def test_random_spinor(self, value):
        sp = susy.Superpotential(n=3, c=0.8)
        s = susy.random_spinor(sp, np.random.default_rng(4))
        bad = plant_spinor(s, value, chamber=2)
        res = susy.algebra_residuals(bad, sp)
        assert not all(r <= 1e-9 for r in res)

    @pytest.mark.parametrize("value", PLANTED)
    def test_witten_census(self, value, monkeypatch):
        plant_top_mode(monkeypatch, value)
        census = susy.witten_census(susy.Superpotential(n=3, c=1.0))
        # the planted top mode is listed but not counted: a failed verdict
        assert (census.n_b, census.n_f, census.index) == (1, 0, 1)
        assert not census.passed

    @pytest.mark.parametrize("value", [NAN, INF])
    def test_cli_exits_2(self, value, monkeypatch, capsys):
        plant_top_mode(monkeypatch, value)
        assert cli.main(["susy", "zero-modes", "--n", "3", "--c", "1"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("slly: ")

    @pytest.mark.parametrize("value", [NAN, INF])
    def test_census_cli_exits_2(self, value, monkeypatch, capsys):
        # a NaN residual is no verdict: render_json refuses it
        plant_top_mode(monkeypatch, value)
        assert cli.main(["susy", "census", "--n", "3", "--c", "1"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("slly: ")

    @pytest.mark.parametrize("pair", [(1, 2), (1, 3), (2, 3)])
    def test_exchange(self, pair):
        mode = plant_spinor(susy.zero_modes(susy.Superpotential(n=3, c=1.0))[1], NAN)
        image = susy.exchange(mode, *pair)
        assert math.isnan(susy.spinor_distance(image, susy.spinor_scale(mode, -1.0)))

    @pytest.mark.parametrize("ks, err", [
        ("1e308,-1e308", "slly: component 0 is discontinuous across interface pair (1, 2)\n"),
        ("1.2e308,1e308", "slly: reports must not contain NaN or infinities\n"),
        ("1e200,-1e200", "slly: reports must not contain NaN or infinities\n"),
        ("1e154,-1e154", "slly: reports must not contain NaN or infinities\n"),
    ])
    def test_cli_collision_with_huge_momenta(self, ks, err, capsys):
        """Overflowing wall sums fail with one ``slly:`` line and no warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["bethe", "collision", f"--k={ks}", "--c=1"]) == 2
        assert capsys.readouterr() == ("", err)

    def test_cli_trimer_with_overflowing_wall_sums(self, capsys):
        """A wall sum whose magnitude overflows exits 2 with one line, not a traceback."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["bethe", "trimer", "--p", "1e308", "--c", "-1.7e308"]) == 2
        assert capsys.readouterr() == ("", "slly: absolute value too large\n")

    @pytest.mark.parametrize("chunk", [1, 1 << 20])
    def test_cli_algebra_keeps_a_nan_from_a_later_trial(self, monkeypatch, capsys, chunk):
        # the trials drawn in chunks of one, or all in one chunk
        build = susy._build_spinors
        trials = []

        def second_planted(sp, draws):
            spinors = build(sp, draws)
            trials.extend(spinors)
            return [plant_spinor(s, NAN) if len(trials) - len(spinors) + k == 1 else s
                    for k, s in enumerate(spinors)]

        monkeypatch.setattr(susy, "_CHUNK_TERMS", chunk)
        monkeypatch.setattr(susy, "_build_spinors", second_planted)
        argv = ["susy", "algebra", "--n", "3", "--c", "0.8", "--trials", "3", "--seed", "2"]
        assert cli.main(argv) == 2
        assert len(trials) == 3
        assert capsys.readouterr().out == ""
