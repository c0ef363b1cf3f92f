import math
import random
from fractions import Fraction as F

import mpmath as mp
import pytest

from rayclass import (
    DuplicateValues,
    FractionPair,
    ModularPoint,
    NonFinite,
    PrecisionContext,
    check_T_bound,
    check_curve_point,
    check_elliptic_points,
    check_generation,
    check_hypothesis,
    check_lemma51,
    check_lemma52,
    check_surface_point,
    conjugate_values,
    hilbert_class_poly,
    j_invariant,
    make_field,
    minpoly,
    normalized,
    v_value,
    x_value,
    y_value,
)
from rayclass.classfield import ReducedForm, is_fundamental, reduced_forms
from rayclass import qseries, verify
from rayclass._fixed import _exact, _grid, _scaled_modulus, _square_below
from rayclass.verify import (
    _closest_pair,
    _conjugate_classes,
    _elliptic4_points,
    _scale,
    _surface_parts,
    _surface_residual,
    _t_majorant,
    _t_value,
    _zeta_factor,
    _class_poly,
    _error_bounds,
    _from_gamma2,
    _gamma2_form,
    _log2_height,
    _planned_bits,
    INVARIANTS,
    VALUE_ERROR_BITS,
)

from oracles import (
    hcp_oracle,
    lemma52_loop,
    lemma52_siegel_loop,
    min_pairwise_distance_loop,
    mirror_member,
    scale_loop,
)


# ------------------------------------------------------------------ curve ---

def test_curve_point_strict_cases():
    ctx = PrecisionContext(256, "1e-30")
    for d, n in ((-39, 8), (-40, 8), (-52, 12)):
        rep = check_curve_point(make_field(d), n, ctx)
        assert rep.passed
        assert rep.details["curve_residual"] < mp.mpf("1e-30")
        assert rep.details["unit_residual"] < mp.mpf("1e-30")


def test_curve_point_relaxed_mode(ctx256):
    rep = check_curve_point(make_field(-7), 3, ctx256, relaxed=True)
    assert rep.passed
    with pytest.raises(ValueError):
        check_curve_point(make_field(-7), 3, ctx256)  # strict hypotheses fail


def test_curve_point_takes_one_exponential(ctx256, monkeypatch):
    """u, v, x and y at (0, 1/N) read every power of q from the point's
    one exponential, exp(2 pi i tau/24): the level table takes no rho."""
    dens = []
    real_exp_tau = qseries._exp_tau
    monkeypatch.setattr(qseries, "_exp_tau",
                        lambda tau, den, prec: dens.append(den) or real_exp_tau(tau, den, prec))
    assert check_curve_point(make_field(-39), 8, ctx256).passed
    assert dens == [24]


def test_curve_report_invariant(ctx256):
    rep = check_curve_point(make_field(-39), 8, ctx256)
    assert rep.passed == all(r < 0 for r in rep.residuals.values())


# ---------------------------------------------------------------- surface ---

def test_surface_point_non_cm():
    ctx = PrecisionContext(256, "1e-30")
    for tau, n in ((mp.mpc("0.3", "1.7"), 4), (mp.mpc("-0.4", "2.3"), 8)):
        rep = check_surface_point(tau, n, ctx)
        assert rep.passed
        assert rep.details["surface_residual"] < mp.mpf("1e-30")


def test_surface_point_at_zeta3(ctx256):
    """g2 = 0 makes u vanish; v, x stay finite and the equation holds."""
    with ctx256.work():
        zt3 = mp.exp(2j * mp.pi / 3)
    rep = check_surface_point(zt3, 4, ctx256)
    assert rep.passed


def test_surface_point_evaluates_no_u(ctx256, monkeypatch, evaluator_calls):
    """The surface equation has no u, so the check never computes it; nor
    eta, delta or the Eisenstein series, as v is one exact quotient.  The
    point ends with one level table, of level N, and takes one exponential,
    exp(2 pi i tau/24): at the indices (0, 1/N) and (0, 2/N) both w-terms
    and the prefactor q^(1/12) are its powers, so the table takes no
    rho_N = q^(1/(12 N^2))."""
    calls = [evaluator_calls(name) for name in ("u_value", "eta", "delta", "eisenstein")]
    exps = []
    real_exp_tau = qseries._exp_tau
    monkeypatch.setattr(qseries, "_exp_tau",
                        lambda tau, den, prec: exps.append(den) or real_exp_tau(tau, den, prec))
    points = []
    real_from_complex = qseries.ModularPoint.from_complex.__func__

    def from_complex(cls, tau, ctx):
        points.append(real_from_complex(cls, tau, ctx))
        return points[-1]

    monkeypatch.setattr(qseries.ModularPoint, "from_complex", classmethod(from_complex))
    n = 16
    rep = check_surface_point(mp.mpc("0.41", "0.06"), n, ctx256)
    assert rep.passed
    (pt,) = points
    assert sorted(pt._tables) == [n]
    assert pt._tables[n].rho is None
    assert exps == [24]
    assert calls == [[], [], [], []]


def _at_least_one(t):
    """|t| >= 1 for an exact (re, im, w) triple."""
    re, im, w = t
    return re * re + im * im >= 1 << 2 * w if w > 0 else bool(re or im)


def test_surface_scale_invariance(ctx256):
    """The surface polynomial is homogeneous of degree 7 and its terms are
    exact, so wherever every term has modulus >= 1 (the scale is then the
    largest term), (2v, 2x, 2y, 2) has the residual of (v, x, y, 1) bit for
    bit: at Im tau = 1.7, 10, 10^3 and 10^6."""
    for tau, n in ((("0.3", "1.7"), 4), (("0.3", "10"), 8), (("-0.2", "1e3"), 16),
                   (("0.1", "1e6"), 4)):
        pt = ModularPoint.from_complex(tau, ctx256)
        r = FractionPair.from_parts(0, 1, n)
        with ctx256.work():
            v, x, y = v_value(pt), x_value(pt, r), y_value(pt, r)
            _, terms = _surface_parts(*map(_exact, (v, x, y, mp.mpc(1))))
            assert all(map(_at_least_one, terms)), tau
            base = _surface_residual(v, x, y, mp.mpc(1))
            scaled = _surface_residual(2 * v, 2 * x, 2 * y, mp.mpc(2))
        assert base._mpf_ == scaled._mpf_, tau
        assert base < ctx256.eps, tau


def test_surface_residual_refuses_a_value_that_is_not_finite(ctx256):
    with ctx256.work():
        for bad in (mp.mpc(mp.inf, 0), mp.mpc(0, mp.nan), mp.mpf(mp.inf)):
            with pytest.raises(NonFinite):
                _surface_residual(mp.mpc(1), bad, mp.mpc(1), mp.mpc(1))


def _polynomial_reference(v, x, y, z, w=None):
    """(|lhs - (cubic - linear - const)|, (lhs, cubic, linear, const)) of
    the surface polynomial, or at z = 1 with w = u of the curve, by mpmath
    at the working precision."""
    if w is None:
        w = z * z + 27 * v * v
    terms = (w * v**3 * y**2, 4 * x**3 * z**4, w * v**2 * x * z**2, w * v**4 * z)
    lhs, cubic, linear, const = terms
    return abs(lhs - (cubic - linear - const)), terms


EXACT_RESIDUAL_TAUS = [("0.3", "0.05"), ("0.3", "0.06"), ("-0.5", "0.866"), ("0.3", "1"),
                       ("0.3", "10"), ("0.3", "1e3"), ("0.3", "1e6")]


@pytest.mark.parametrize("bits", [128, 256, 1024])
@pytest.mark.parametrize("tau", EXACT_RESIDUAL_TAUS, ids="{0[0]},{0[1]}".format)
def test_exact_residuals_match_mpmath_at_four_times_the_bits(tau, bits):
    """The surface residual and the curve residual (z = 1, w = u, scale
    max(1, |4 x^3|)) of the values the checks read equal the same
    polynomials evaluated by mpmath at 4 bits + 64 on the same inputs,
    within one rounding at bits, for N = 4 to 64 and Im tau = 0.05 to
    10^6."""
    ctx = PrecisionContext(bits, "1e-30")
    pt = ModularPoint.from_complex(tau, ctx)
    for n in (4, 8, 16, 32, 64):
        with ctx.work():
            u, v, x, y = normalized(pt, FractionPair.from_parts(0, 1, n))
            surface = _surface_residual(v, x, y, mp.mpc(1))
            diff, (_, cubic, _, _) = _surface_parts(*map(_exact, (v, x, y, mp.mpc(1), u)))
            curve = _scaled_modulus(diff, (cubic,), bits)
        with mp.workprec(4 * bits + 64):
            ref, terms = _polynomial_reference(v, x, y, mp.mpc(1))
            ref /= max(1, *map(abs, terms))
            assert abs(surface - ref) <= mp.ldexp(ref, -bits), n
            ref, (_, cubic, _, _) = _polynomial_reference(v, x, y, mp.mpc(1), u)
            ref /= max(1, abs(cubic))
            assert abs(curve - ref) <= mp.ldexp(ref, -bits), n


@pytest.mark.parametrize("d, n", [(-39, 8), (-40, 8), (-52, 12)])
def test_curve_residuals_are_exact_in_the_values_read(ctx256, d, n):
    """check_curve_point's residuals are those of the values it reads:
    |u v^3 y^2 - (4 x^3 - u v^2 x - u v^4)| and |u - 27 v^2 - 1|, each over
    max(1, |4 x^3|), by mpmath at 4 bits + 64 within one rounding at bits."""
    f = make_field(d)
    rep = check_curve_point(f, n, ctx256)
    pt = ModularPoint.from_quadratic(f.principal.a, f.principal.b, d, ctx256)
    u, v, x, y = normalized(pt, FractionPair.from_parts(0, 1, n))
    with mp.workprec(4 * ctx256.bits + 64):
        diff, (_, cubic, _, _) = _polynomial_reference(v, x, y, mp.mpc(1), u)
        scale = max(1, abs(cubic))
        for name, want in (("curve_residual", diff / scale),
                           ("unit_residual", abs(u - 27 * v * v - 1) / scale)):
            got = rep.details[name]
            assert abs(got - want) <= mp.ldexp(want, -ctx256.bits), name


def test_surface_rejects_bad_level(ctx256):
    with pytest.raises(ValueError):
        check_surface_point(mp.mpc(0, 2), 6, ctx256)


# ---------------------------------------------------------------- lemma51 ---

def test_lemma51_grid(ctx256):
    with ctx256.work():
        for d in (-7, -39, -163):
            dmax = mp.sqrt(mp.mpf(-d) / 3)
            for a in (mp.mpf(1), dmax):
                for x in ("0.5", "1", "5"):
                    rep = check_lemma51(d, a, x, ctx256)
                    assert rep.passed
                    assert rep.details["margin"] > 0


def test_lemma51_margin_shrinks_to_zero(ctx256):
    with ctx256.work():
        margins = [
            check_lemma51(-7, 1, x, ctx256).details["margin"]
            for x in (1, 5, 20, 50)
        ]
        assert all(m > 0 for m in margins)
        assert margins == sorted(margins, reverse=True)


def test_lemma51_domain_validation(ctx256):
    with pytest.raises(ValueError):
        check_lemma51(-7, 1, "0.4", ctx256)
    with pytest.raises(ValueError):
        check_lemma51(-7, 99, 1, ctx256)
    with pytest.raises(ValueError):
        check_lemma51(-4, 1, 1, ctx256)


# ---------------------------------------------------------------- lemma52 ---

def test_lemma52_main_cases(ctx256):
    for d, n in ((-39, 8), (-43, 9), (-56, 8)):
        f = make_field(d)
        rep = check_lemma52(f, n, ctx256)
        assert rep.passed
        theta = ModularPoint.from_quadratic(f.principal.a, f.principal.b, d, ctx256)
        with ctx256.work():
            rhs = abs(y_value(theta, FractionPair.from_parts(0, 1, n)))
        assert rep.details["rhs_abs"] == rhs
        if d == -43:  # class number 1: no forms with a >= 2, vacuous sweep
            assert rep.details["pairs_checked"] == 0
        else:
            assert rep.details["pairs_checked"] > 0
            assert rep.details["worst_ratio"] < 1


def _level_key(s, t, n):
    """(N, s, t) of the canonical key at level N of the index (s/N, t/N),
    its level not reduced: the lexicographically smaller of (s, t) and
    (-s mod N, -t mod N) for s, t taken mod N."""
    s, t = s % n, t % n
    return (n, *min((s, t), (-s % n, -t % n)))


def _lemma52_classes(f, n):
    """The lemma 5.2 sweep's (form, s, t) keys grouped into classes of equal
    |y|: (Q, s, t) with (Q, -s, -t), (Q*, s*, t*) and (Q*, -s*, -t*) for
    the mirror (Q*, s*, t*) of (Q, s, t) (``oracles.mirror_member``), keys
    taken mod N."""
    classes = {}
    for q in f.forms:
        if q.a < 2:
            continue
        for s in range(n):
            for t in range(n):
                if (2 * s) % n == 0 and (2 * t) % n == 0:
                    continue
                p, u, v = mirror_member(q, s, t)
                members = {(q, s, t), (q, -s % n, -t % n), (p, u % n, v % n), (p, -u % n, -v % n)}
                classes[frozenset(members)] = None
    return list(classes)


def test_lemma52_sweep_runs_each_siegel_product_once(ctx256, siegel_product_runs):
    """The sweep evaluates each mirror class once, at its member of smaller
    (b < 0, canonical key), which lies on a form with b >= 0, reads both
    Siegel products of each ratio from the level-N table at the canonical
    keys of (s, t) and (2s, 2t) mod N, and runs each Siegel product at most
    once per point and pair +-r.  -39 has a pair of partners, (2, +-1, 5),
    and the form (3, 3, 4) with b = a, whose classes have up to four keys
    of their own."""
    f, n = make_field(-39), 8
    rep = check_lemma52(f, n, ctx256)
    keys = [(id(pt), k) for pt, k in siegel_product_runs]
    assert len(keys) == len(set(keys))
    form_at = {ModularPoint.from_quadratic(q.a, q.b, f.d, ctx256).tau: q for q in f.forms}
    got = {(form_at[pt.tau], k) for pt, k in siegel_product_runs}
    classes = _lemma52_classes(f, n)
    assert {len(m) for m in classes} == {2, 4}
    expected = {(f.principal, _level_key(0, 1, n)), (f.principal, _level_key(0, 2, n))}
    for members in classes:
        q, s, t = min(members, key=lambda m: (m[0].b < 0, _level_key(m[1], m[2], n)))
        assert q.b >= 0
        expected |= {(q, _level_key(s, t, n)), (q, _level_key(2 * s, 2 * t, n))}
    assert got == expected
    assert rep.details["pairs_checked"] == sum(len(m) for m in classes) == 180
    # the sweep over every (form, s, t) ran one product per key of each form
    full = 2
    for q in f.forms:
        if q.a < 2:
            continue
        seen = set()
        for s in range(n):
            for t in range(n):
                if (2 * s) % n or (2 * t) % n:
                    seen |= {_level_key(s, t, n), _level_key(2 * s, 2 * t, n)}
        full += len(seen)
    assert len(keys) < full


@pytest.mark.parametrize("d, n", [
    (-39, 8), (-40, 8), (-43, 9), (-56, 8), (-71, 12), (-84, 10), (-95, 12), (-199, 9),
], ids=["-39", "-40", "-43-vacuous", "-56", "-71-partners", "-84-ambiguous",
        "-95-ties", "-199"])
def test_lemma52_class_sweep_reports_what_the_full_sweep_reports(ctx256, d, n):
    f = make_field(d)
    rep = check_lemma52(f, n, ctx256)
    residuals, details = lemma52_loop(f, n, ctx256)
    assert rep.details == details
    assert rep.residuals == residuals


def _counted_y_quotient(monkeypatch):
    """A list that records (tau, r) of each ratio ``check_lemma52`` forms,
    a call of ``verify.y_quotient``, for the rest of the test."""
    orig = verify.y_quotient
    formed = []

    def counted(pt, r, d, k=1, level=None):
        formed.append((pt.tau, r))
        return orig(pt, r, d, k, level)

    monkeypatch.setattr(verify, "y_quotient", counted)
    return formed


@pytest.mark.parametrize("bits", [256, 96])
@pytest.mark.parametrize("d, n, eps", [
    (-47, 8, "5e-2"), (-39, 8, "5e-2"), (-52, 9, "5e-2"), (-95, 12, "0.3"),
], ids=["-47-window", "-39-window", "-52-window", "-95-cut-not-positive"])
def test_lemma52_exact_test_forms_every_ratio_that_reaches_the_cut(monkeypatch, d, n, eps, bits):
    """The sweep, which skips a class when exact integers prove its ratio
    below the cut, reports what the sweep over every key reports
    (``oracles.lemma52_loop``), and forms the ratio of every class that
    reaches that sweep's final cut: several classes at eps 5e-2, and every
    class at (-95, 12), eps 0.3, where the cut never rises above 0."""
    ctx = PrecisionContext(bits, eps)
    f = make_field(d)
    formed = _counted_y_quotient(monkeypatch)
    rep = check_lemma52(f, n, ctx)
    seen = []

    def y_abs(pt, r):
        seen.append((pt.tau, r, abs(y_value(pt, r))))
        return seen[-1][2]

    residuals, details = lemma52_loop(f, n, ctx, y_abs)
    assert rep.details == details
    assert rep.residuals == residuals
    form_at = {ModularPoint.from_quadratic(q.a, q.b, f.d, ctx).tau: q for q in f.forms}
    classes = {m: c for c in _lemma52_classes(f, n) for m in c}

    def class_of(tau, r):
        m = n // r.level
        return classes[form_at[tau], m * r.p1 % n, m * r.p2 % n]

    worst = details["worst_ratio"]
    with ctx.work():
        cut = worst - ctx.eps * max(1, worst)
        reaching = {class_of(tau, r) for tau, r, val in seen[1:] if val / details["rhs_abs"] >= cut}
    got = {class_of(tau, r) for tau, r in formed}
    assert len(got) == len(formed)
    assert reaching <= got
    assert len(reaching) > 1
    if cut <= 0:
        assert reaching == got == set(classes.values())


def _pow2(e):
    return F(2) ** e


def test_square_below_is_exact():
    """(a / b) 2^-w (1 + 2^-slack)^2 < (x y)^2 decided as by exact
    rationals, at the boundary too (equality is not below), for widths of
    either sign; False for a factor that is not positive and finite."""
    rng = random.Random(52)
    for _ in range(200):
        xm, ym = rng.randrange(1, 1 << 50) | 1, rng.randrange(1, 1 << 50) | 1  # exact at 53 bits
        xe, ye = rng.randrange(-300, 300), rng.randrange(-300, 300)
        x, y = mp.ldexp(xm, xe), mp.ldexp(ym, ye)
        b, w, slack = rng.randrange(1, 1 << 200), rng.randrange(-900, 900), rng.randrange(0, 40)
        bound = (F(xm * ym) * _pow2(xe + ye)) ** 2
        scale = F(1, b) * _pow2(-w) * (1 + _pow2(-slack)) ** 2
        a = math.floor(bound / scale)  # the largest a with a * scale <= bound
        for k in (a - 1, a, a + 1):
            if k >= 0:
                assert _square_below(k, b, w, slack, x, y) == (k * scale < bound)
    one = mp.mpf(1)
    assert not _square_below(1, 1, 2, 0, one, one)  # 2^-2 (1 + 1)^2 = 1
    assert _square_below(1, 1, 3, 0, one, one)
    for bad in (mp.mpf(0), mp.mpf(-1), mp.inf, -mp.inf, mp.nan):
        assert not _square_below(0, 1, 0, 8, bad, mp.mpf(1))
        assert not _square_below(0, 1, 0, 8, mp.mpf(1), bad)


def test_lemma52_forms_one_ratio_when_the_first_class_is_the_worst(ctx256, monkeypatch):
    """(-191, 12) has 420 mirror classes, and its worst ratio sits at the
    first, (0, 1) on (2, -1, 24): the exact test skips every other class,
    so the sweep forms one ratio."""
    f = make_field(-191)
    formed = _counted_y_quotient(monkeypatch)
    rep = check_lemma52(f, 12, ctx256)
    assert len(_lemma52_classes(f, 12)) == 420
    assert rep.details["worst_at"] == ((2, -1, 24), 0, 1)
    assert len(formed) == 1


@pytest.mark.parametrize("d, n", [(-84, 8), (-84, 10), (-39, 8), (-195, 9)])
def test_lemma52_mirror_classes_report_what_every_key_reports(ctx256, d, n):
    """One ratio per mirror class against the sweep over every key with each
    ratio formed from ``siegel`` values at the key's own point
    (``oracles.lemma52_siegel_loop``): the same ``pairs_checked`` and
    ``worst_at``, and ``worst_ratio`` within eps * max(1, worst).  -84 has
    a form of each kind that is its own mirror (b = 0, b = a and a = c),
    -195 forms with b = a and a = c, -39 partners and b = a."""
    f = make_field(d)
    rep = check_lemma52(f, n, ctx256)
    _, details = lemma52_siegel_loop(f, n, ctx256)
    assert rep.details["pairs_checked"] == details["pairs_checked"] > 0
    worst = details["worst_ratio"]
    assert abs(rep.details["worst_ratio"] - worst) <= ctx256.eps * max(1, worst)
    assert rep.details["worst_at"] == details["worst_at"]
    assert rep.passed


def test_lemma52_symmetry_equal_moduli(ctx256):
    """(s, t) and (N-s, N-t) give equal |g_{2r}/g_r^4| at theta_Q."""
    f = make_field(-39)
    n = 8
    q = f.forms[1]
    pt = ModularPoint.from_quadratic(q.a, q.b, f.d, ctx256)
    with ctx256.work():
        from rayclass import siegel

        def ratio(s, t):
            num = siegel(FractionPair(F(2 * s, n), F(2 * t, n)), pt)
            den = siegel(FractionPair(F(s, n), F(t, n)), pt)
            return abs(num / den**4)

        for s, t in ((1, 2), (3, 5), (2, 7)):
            a, b = ratio(s, t), ratio(n - s, n - t)
            assert abs(a - b) / a < ctx256.eps


@pytest.mark.parametrize("d", [-71, -95, -199])
def test_lemma52_partner_forms_have_conjugate_moduli(ctx256, d):
    """|y| at theta_(a,-b,c) and (s, t) equals |y| at theta_(a,b,c) and
    (s, -t), as g_{(a1,a2)}(-conj tau) = conj g_{(a1,-a2)}(tau)."""
    f = make_field(d)
    pairs = [(q, p) for q, p in _conjugate_classes(f.forms) if p is not None]
    assert pairs
    tol = ctx256.eps * mp.mpf(2) ** -16
    for q, p in pairs:
        pt = ModularPoint.from_quadratic(q.a, q.b, d, ctx256)
        pp = ModularPoint.from_quadratic(p.a, p.b, d, ctx256)
        for n in (8, 9, 12):
            for s in range(n):
                for t in range(n):
                    if (2 * s) % n == 0 and (2 * t) % n == 0:
                        continue
                    with ctx256.work():
                        a = abs(y_value(pp, FractionPair.from_parts(s, t, n)))
                        b = abs(y_value(pt, FractionPair.from_parts(s, -t % n, n)))
                        assert abs(a - b) <= tol * b


def test_lemma52_margins_grow_with_disc(ctx256):
    worst = []
    for d in (-39, -52, -84):
        rep = check_lemma52(make_field(d), 8, ctx256)
        assert rep.passed
        worst.append(rep.details["worst_ratio"])
    assert worst[0] > worst[1] > worst[2]


def test_lemma52_rejects_out_of_range(ctx256):
    with pytest.raises(ValueError):
        check_lemma52(make_field(-7), 8, ctx256)
    with pytest.raises(ValueError):
        check_lemma52(make_field(-39), 7, ctx256)


# ----------------------------------------------------------------- tbound ---

def test_tbound_main(ctx256):
    rep = check_T_bound(8, make_field(-39), ctx256)
    assert rep.passed
    assert rep.details["max_T_s0"] <= 1 + mp.mpf("1e-30")
    assert rep.details["max_T_s_nonzero"] < mp.mpf("3.05")
    assert rep.details["max_majorant"] < mp.mpf("3.05")


@pytest.mark.parametrize("majorant_range", [(8, 7), (7, 200), (2, 2)])
def test_tbound_rejects_a_majorant_range_outside_8_lo_hi(ctx256, majorant_range):
    lo, hi = majorant_range
    with pytest.raises(ValueError, match=rf"majorant range \[{lo}, {hi}\]"):
        check_T_bound(8, make_field(-39), ctx256, majorant_range=majorant_range)


def test_tbound_s0_closed_form(ctx256):
    """For s = 0 the T value reduces to the sine/cosine expression."""
    n = 8
    with ctx256.work():
        theta_q = ModularPoint.from_quadratic(2, 1, -39, ctx256).tau
        f1 = _zeta_factor(n)
        for t in (1, 2, 3, 5, 7):
            if (2 * t) % n == 0:
                continue
            direct = _t_value(n, 0, t, theta_q, f1)
            closed = abs(mp.sin(mp.pi / n) / mp.sin(t * mp.pi / n)) ** 3 \
                * abs(mp.cos(t * mp.pi / n) / mp.cos(mp.pi / n))
            assert abs(direct - closed) < ctx256.eps
            assert direct <= 1 + ctx256.eps


def test_tbound_majorant_peak_at_8(ctx256):
    with ctx256.work():
        vals = [_t_majorant(n, ctx256) for n in range(8, 201)]
        assert max(vals) == vals[0]  # N = 8 is the worst case
        assert vals[0] < mp.mpf("3.05")
        assert vals[0] > mp.mpf("3.0")  # the bound is tight


# ------------------------------------------------------------- generation ---

def test_generation_main_cases(ctx256):
    for d, n in ((-39, 8), (-40, 12)):
        rep = check_generation(make_field(d), n, "pair", ctx256)
        assert rep.passed
        assert rep.details["orbit_size"] == rep.details["degree"]


def test_generation_corollary_cases(ctx256):
    for d, n in ((-7, 3), (-7, 9), (-39, 3)):
        rep = check_generation(make_field(d), n, "y4", ctx256)
        assert rep.passed


def test_generation_reports_failure_at_absurd_eps():
    """A coarse eps makes the distinctness threshold swallow the orbit."""
    coarse = PrecisionContext(256, "1e-2")
    f = make_field(-7)
    rep = check_generation(f, 3, "y4", coarse)
    assert not rep.passed
    # minpoly applies the same distinctness test to the same orbit
    values = [v for _, v in conjugate_values(f, 3, "y4", coarse)]
    with pytest.raises(DuplicateValues):
        minpoly(values, f, coarse)


# -------------------------------------------------------- elliptic points ---

def test_elliptic4_points_all_valid(ctx256):
    pts = _elliptic4_points(ctx256)
    assert len(pts) == 20
    with ctx256.work():
        assert min(mp.im(t) for t in pts) > mp.mpf("0.05")
        # the lowest point sits at Im = 1/13
        assert abs(min(mp.im(t) for t in pts) - mp.mpf(1) / 13) < mp.mpf("1e-30")


def test_elliptic4_distinctness(ctx256):
    rep = check_elliptic_points(ctx256)
    assert rep.passed
    assert rep.details["min_distance"] > rep.details["threshold"]


def test_elliptic4_translation_relation(ctx256):
    """y(tau + 1) = -i * y(tau) for the level-4 index."""
    r = FractionPair.from_parts(0, 1, 4)
    with ctx256.work():
        zt3 = mp.exp(2j * mp.pi / 3)
        a = y_value(ModularPoint.from_complex(zt3, ctx256), r)
        b = y_value(ModularPoint.from_complex(zt3 + 1, ctx256), r)
        assert abs(b - mp.mpc(0, -1) * a) / abs(a) < ctx256.eps


# ----------------------------------------------------- ambient precision ---

AMBIENT_CHECKS = {
    "curve": lambda ctx: check_curve_point(make_field(-39), 8, ctx),
    "surface": lambda ctx: check_surface_point(("0.41", "0.06"), 16, ctx),
    "lemma51": lambda ctx: check_lemma51(-39, "1", "1", ctx),
    "lemma52": lambda ctx: check_lemma52(make_field(-39), 8, ctx),
    "tbound": lambda ctx: check_T_bound(8, make_field(-39), ctx),
    "generation": lambda ctx: check_generation(make_field(-39), 8, "pair", ctx),
    "elliptic4": check_elliptic_points,
}


def _raw(v):
    """v with each mpmath number as its raw tuple, so == compares bits."""
    if isinstance(v, dict):
        return {k: _raw(x) for k, x in v.items()}
    if isinstance(v, (tuple, list)):
        return [_raw(x) for x in v]
    return getattr(v, "_mpf_", None) or getattr(v, "_mpc_", None) or v


@pytest.mark.parametrize("name", AMBIENT_CHECKS)
def test_reports_do_not_depend_on_the_callers_precision(ctx256, name):
    """A report is formed at the working precision: the same bits whether
    the caller holds 53 or 300 bits."""
    reports = []
    for prec in (53, 300):
        with mp.workprec(prec):
            rep = AMBIENT_CHECKS[name](ctx256)
        reports.append((_raw(rep.residuals), _raw(rep.details), rep.passed))
    assert reports[0] == reports[1]


def test_check_residuals_are_formed_at_the_working_precision(ctx256):
    """The elliptic4 residual is threshold - min_distance and the tbound
    s = 0 residual max_T_s0 - 1 - 1e-30, both at the working precision."""
    rep = check_elliptic_points(ctx256)
    tb = check_T_bound(8, make_field(-39), ctx256)
    with ctx256.work():
        want = rep.details["threshold"] - rep.details["min_distance"]
        s0 = tb.details["max_T_s0"] - 1 - mp.mpf("1e-30")
    assert _raw(rep.residuals["threshold_minus_min_distance"]) == _raw(want)
    assert _raw(tb.residuals["s_zero_minus_1"]) == _raw(s0)


# ---------------------------------------------------------------- minpoly ---

# ---------------------------------------------------------- closest pair ---

def _random_mpc(rng, spread=1.0):
    return mp.mpc(rng.uniform(-spread, spread), rng.uniform(-spread, spread))


def _closest_pair_cases(ctx):
    rng = random.Random(5)
    with ctx.work():
        for n in (3, 10, 40, 128):
            yield [_random_mpc(rng) * mp.exp(mp.mpf(rng.random())) for _ in range(n)]
        base = [_random_mpc(rng) for _ in range(12)]
        yield base + base[3:7]  # exact duplicates
        yield [mp.mpc(k % 5, k // 5) for k in range(20)]  # ties on a grid
        yield [mp.mpc(9 - k) for k in range(10)]  # ties, reversed order
        yield [mp.mpc(0), mp.mpc(1), mp.mpc(0, 1), mp.mpc(1, 1)]
        yield [mp.mpc(mp.mpf(1) / 3, rng.random()) for _ in range(30)]  # equal Re
        yield [(_random_mpc(rng), _random_mpc(rng)) for _ in range(40)]
        firsts = [_random_mpc(rng) for _ in range(6)]
        yield [(firsts[k % 6], _random_mpc(rng)) for k in range(36)]  # pair ties
        yield [mp.mpc(1) + mp.mpc(rng.random(), rng.random()) * mp.mpf(2) ** -200
               for _ in range(50)]  # gaps at the last bits
        big, gap = mp.mpf(10) ** 21, mp.mpf(10) ** -16
        centers = [big * _random_mpc(rng) for _ in range(8)]
        # clusters near 1e21 with gaps near 1e-16, as in -163/11 y4 orbits
        yield [c + gap * _random_mpc(rng) for c in centers for _ in range(4)]
        wide = mp.mpf(2) ** 100
        yield [(wide * _random_mpc(rng), _random_mpc(rng)) for _ in range(30)]
        yield [(firsts[k % 6] / wide, wide * _random_mpc(rng)) for k in range(24)]
        # tiny parts and values below the grid of the largest ones
        yield ([_random_mpc(rng) * mp.mpf(2) ** -300 for _ in range(12)]
               + [mp.mpc(big * rng.random(), gap * rng.random()) for _ in range(6)]
               + [_random_mpc(rng) * big for _ in range(3)])
        yield [(big * _random_mpc(rng), _random_mpc(rng) * mp.mpf(2) ** -300)
               for _ in range(10)]
        # Im below the grid decides which modulus is largest
        yield [mp.mpc(-2 ** 60, -2 ** 20), mp.mpc(2 ** 60, 2 ** 21), mp.mpc(3)]
        # distances 1 + 2^-26 and 1 tie once rounded to 24 bits
        yield [mp.mpc(0), mp.mpc(1 + mp.mpf(2) ** -26), mp.mpc(5, 3), mp.mpc(6, 3)]
        yield []
        yield [_random_mpc(rng)]
        yield [_random_mpc(rng), _random_mpc(rng)]


@pytest.mark.parametrize("tol", ["0", "2**-190", "0.05"])
@pytest.mark.parametrize("bits", [256, 24])
def test_min_pairwise_distance_matches_the_double_loop(ctx256, bits, tol):
    """The sorted sweep returns the double loop's (distance, pair) exactly,
    tie rule included, also when arithmetic rounds at fewer bits than the
    values carry."""
    for values in _closest_pair_cases(ctx256):
        with mp.workprec(bits):
            t = mp.mpf(2) ** -190 if tol == "2**-190" else mp.mpf(tol)
            got = _closest_pair(values, *_grid(values), t)
            want = min_pairwise_distance_loop(values, t)
        assert got == want
        assert (got[1] is None) == (len(values) < 2)


@pytest.mark.parametrize("bits", [256, 24])
def test_scale_is_the_maximum_modulus_of_every_component(ctx256, bits):
    """The grid picks the components whose mpmath abs is taken; the scale is
    still the maximum over all of them, bit for bit."""
    for values in _closest_pair_cases(ctx256):
        if values:
            with mp.workprec(bits):
                assert _scale(values, _grid(values)[1]) == scale_loop(values)


def test_tie_rule_reports_the_first_pair_near_the_minimum(ctx256):
    """The distance is the exact minimum; the pair is the lexicographically
    first one within tol of it."""
    with ctx256.work():
        delta = mp.mpf(2) ** -100
        values = [mp.mpc(0), mp.mpc(1 + delta), mp.mpc(3), mp.mpc(4)]
        grid = _grid(values)
        assert _closest_pair(values, *grid, 0) == (1, (2, 3))
        assert _closest_pair(values, *grid, delta / 2) == (1, (2, 3))
        assert _closest_pair(values, *grid, 2 * delta) == (1, (0, 1))


def _perturbed(v, rng, size):
    """v * (1 + size * u), |u| <= 1 seeded; componentwise for tuples."""
    if isinstance(v, tuple):
        return tuple(_perturbed(c, rng, size) for c in v)
    return v * (1 + size * mp.mpc(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7)))


# Orbits and sweeps whose witness has exactly tied rivals: the x and y12N
# orbits are closed under complex conjugation, so a closest pair comes with
# its mirror pair, and lemma 5.2's ratios repeat across (s, t).
TIED_GENERATION = [(-7, 3, "x"), (-7, 3, "pair"), (-7, 9, "x"), (-7, 9, "pair"),
                   (-39, 9, "x")]


@pytest.mark.parametrize("d,n,descriptor", TIED_GENERATION)
def test_generation_witness_survives_perturbation(ctx256, monkeypatch, d, n, descriptor):
    """Moving every orbit value by eps * 2^-20 (relative) leaves the reported
    closest pair in place, although it moves the minimum distance."""
    from rayclass import verify

    f = make_field(d)
    base = check_generation(f, n, descriptor, ctx256).details
    orig = verify.conjugate_values
    for seed in range(3):
        rng = random.Random(seed)

        def shaken(*args):
            with ctx256.work():
                return [(lab, _perturbed(v, rng, ctx256.eps * 2.0**-20))
                        for lab, v in orig(*args)]

        monkeypatch.setattr(verify, "conjugate_values", shaken)
        got = check_generation(f, n, descriptor, ctx256).details
        assert got["closest_pair"] == base["closest_pair"]
        assert got["min_distance"] != base["min_distance"]
        assert abs(got["min_distance"] - base["min_distance"]) < base["threshold"] / 1000


def test_lemma52_witness_survives_perturbation(ctx256, monkeypatch):
    """(-95, 12) has exactly tied worst ratios; moving every y value by
    eps * 2^-20 (relative) leaves worst_at in place."""
    from rayclass import verify

    f = make_field(-95)
    base = check_lemma52(f, 12, ctx256).details
    orig = verify.y_quotient
    for seed in range(2):
        rng = random.Random(seed)

        def shaken(pt, r, d, k=1, level=None):
            with ctx256.work():
                return _perturbed(orig(pt, r, d, k, level), rng, ctx256.eps * 2.0**-20)

        monkeypatch.setattr(verify, "y_quotient", shaken)
        got = check_lemma52(f, 12, ctx256).details
        assert got["worst_at"] == base["worst_at"]
        assert got["worst_ratio"] != base["worst_ratio"]


def test_minpoly_single_value(ctx256):
    f = make_field(-7)
    with ctx256.work():
        v = ctx256.mpc("2.5", "-1.25")
        poly = minpoly([v], f, ctx256)
        assert poly.degree == 1
        assert abs(mp.polyval(poly.coeffs[::-1], v)) < ctx256.eps


def test_minpoly_takes_python_numbers(ctx256):
    f = make_field(-7)
    with ctx256.work():
        poly = minpoly([1, 2.5 - 1j], f, ctx256)
        assert poly == minpoly([mp.mpc(1), mp.mpc(2.5, -1)], f, ctx256)
        with pytest.raises(DuplicateValues):
            minpoly([1, 1.0, 3j], f, ctx256)


NON_FINITE = {
    "nan first": [mp.mpc(mp.nan, 0), mp.mpc(1, 2), mp.mpc(3, 1)],
    "nan later": [mp.mpc(1, 2), mp.mpc(3, 1), mp.mpc(0, mp.nan)],
    "inf": [mp.mpc(1, 2), mp.mpc(mp.inf, 1), mp.mpc(3, 1)],
}
# the index the NonFinite message names, the first value that is not finite
NON_FINITE_AT = {"nan first": 0, "nan later": 2, "inf": 1, "nan in a pair": 1}


@pytest.mark.parametrize("case", NON_FINITE)
def test_minpoly_rejects_a_value_that_is_not_finite(ctx256, case):
    """A nan or inf anywhere in the list fails the distinctness test with
    NonFinite, before any distance or recognition is taken."""
    with pytest.raises(NonFinite, match=f"^value {NON_FINITE_AT[case]} of 3 is not finite$"):
        minpoly(NON_FINITE[case], make_field(-7), ctx256)


@pytest.mark.parametrize("case", [*NON_FINITE, "nan in a pair"])
def test_generation_rejects_a_value_that_is_not_finite(ctx256, monkeypatch, case):
    from rayclass import verify

    if case == "nan in a pair":
        values = [(mp.mpc(1, 2), mp.mpc(3)), (mp.mpc(2), mp.mpc(mp.nan)),
                  (mp.mpc(3, 1), mp.mpc(1))]
    else:
        values = NON_FINITE[case]
    monkeypatch.setattr(verify, "conjugate_values",
                        lambda *args: [(None, v) for v in values])
    with pytest.raises(NonFinite, match=f"^value {NON_FINITE_AT[case]} of 3 is not finite$"):
        check_generation(make_field(-7), 3, "y4", ctx256)


def test_minpoly_rejects_duplicates(ctx256):
    f = make_field(-7)
    with ctx256.work():
        v = ctx256.mpc(1, 1)
        with pytest.raises(DuplicateValues):
            minpoly([v, v + ctx256.eps / 2], f, ctx256)


def test_minpoly_recognition_round_trip(ctx256):
    """Roots of a polynomial with known (m + n theta)/den coefficients are
    recognized back exactly."""
    f = make_field(-7)
    with ctx256.work():
        theta = f.theta.to_mpc(ctx256)
        # X^2 + ((3 + 2 theta)/4) X + (-5 + theta)/2
        c1 = (3 + 2 * theta) / 4
        c0 = (-5 + theta) / 2
        disc = c1 * c1 - 4 * c0
        root1 = (-c1 + mp.sqrt(disc)) / 2
        root2 = (-c1 - mp.sqrt(disc)) / 2
        poly = minpoly([root1, root2], f, ctx256)
        assert None not in poly.recognized
        assert poly.recognized[1] == (3, 2, 4)
        assert poly.recognized[0] == (-5, 1, 2)
        assert poly.residual < ctx256.mpf("1e-10")


def test_minpoly_conjugation_consistency(ctx256):
    """A conjugation-closed orbit yields real (n = 0) recognized parts."""
    f = make_field(-7)
    with ctx256.work():
        theta = f.theta.to_mpc(ctx256)
        vals = [theta + 1, mp.conj(theta + 1)]
        poly = minpoly(vals, f, ctx256)
        assert None not in poly.recognized
        # coefficients: X^2 - (theta + conj(theta) + 2) X + |theta+1|^2
        # theta + conj(theta) = -1, |theta + 1|^2 = C - B + 1 = 2
        assert poly.recognized[1] == (-1, 0, 1)
        assert poly.recognized[0] == (2, 0, 1)


def test_y4_orbit_cubes_to_exact_y12n_orbit(ctx256):
    """The y4 representatives' (3N)-th powers equal the exact y12N orbit
    label by label (the root-of-unity ambiguity dies in the power)."""
    from rayclass import conjugate_values

    f = make_field(-7)
    n = 3
    c4 = conjugate_values(f, n, "y4", ctx256)
    c12 = conjugate_values(f, n, "y12N", ctx256)
    with ctx256.work():
        for (_, v4), (_, v12) in zip(c4, c12):
            assert abs(v4 ** (3 * n) - v12) / abs(v12) < ctx256.eps


def test_minpoly_x_orbit_has_rational_coefficients(ctx300):
    """The Fricke x transforms exactly by index, so the expanded orbit
    polynomial lies over K (here even over Q: zero theta-component)."""
    from rayclass import conjugate_values

    f = make_field(-7)
    conj = conjugate_values(f, 3, "x", ctx300)
    poly = minpoly([v for _, v in conj], f, ctx300)
    assert poly.degree == 4
    with ctx300.work():
        theta = f.theta.to_mpc(ctx300)
        for c in poly.coeffs[:-1]:
            theta_part = mp.im(c) / mp.im(theta)
            assert abs(theta_part) < mp.mpf("1e-30")


# -------------------------------------------------------------------- hcp ---

@pytest.mark.parametrize("setting", [
    {"den_max": 0}, {"den_max": -5}, {"recog_tol": "0"}, {"recog_tol": "-1"},
    {"recog_tol": "nan"}, {"recog_tol": "inf"}, {"recog_tol": "0.9"},
    {"den_max": 1, "recog_tol": "0.6"}, {"recog_tol": "2.2e-4"},
    {"den_max": 32, "recog_tol": 2.0**-11 * (1 + 2.0**-20)},
    {"den_max": 1, "recog_tol": 0.5 * (1 + 2.0**-20)},
])
def test_recognition_rejects_settings_that_cannot_work(ctx256, setting):
    """Settings that recognize nothing, or whose tolerance could take a
    coefficient for either of two candidates (2 tol > 1/den_max^2; 1/48^2
    = 4.34e-4 at the default den_max), raise before anything is summed."""
    with pytest.raises(ValueError):
        minpoly([mp.mpc(1), mp.mpc(2)], make_field(-7), ctx256, **setting)


def test_recognition_takes_the_widest_tolerance_that_separates_candidates(ctx256):
    """2 tol = 1/den_max^2 exactly still tells candidates apart."""
    f = make_field(-7)
    poly = minpoly([mp.mpc(1), mp.mpc(2)], f, ctx256, den_max=32, recog_tol=2.0**-11)
    assert poly.recognized == ((2, 0, 1), (-3, 0, 1), (1, 0, 1))


def test_integer_recognition_takes_tolerances_up_to_one_half(ctx256):
    """At den_max = 1 the widest tolerance is 1/2: candidates are integers."""
    f = make_field(-7)
    poly = minpoly([mp.mpc(1), mp.mpc(2)], f, ctx256, den_max=1, recog_tol=0.5)
    assert poly.recognized == ((2, 0, 1), (-3, 0, 1), (1, 0, 1))


def test_conjugate_classes_cover_every_reduced_form_once():
    """Pairs (a, b, c), (a, -b, c) and ambiguous forms (b = 0, b = a or
    a = c) together list each reduced form of every fundamental d in
    [-2000, -3] exactly once; a pair's partner is itself reduced."""
    for d in range(-3, -2001, -1):
        if not is_fundamental(d):
            continue
        forms = reduced_forms(d)
        classes = _conjugate_classes(forms)
        covered = [q for q, _ in classes] + [p for _, p in classes if p is not None]
        assert sorted(covered, key=ReducedForm.as_tuple) == \
            sorted(forms, key=ReducedForm.as_tuple), d
        for q, p in classes:
            if p is None:
                assert q.b == 0 or q.b == q.a or q.a == q.c
            else:
                assert 0 < q.b < q.a < q.c and p.as_tuple() == (q.a, -q.b, q.c)


@pytest.mark.parametrize("d", [-199, -479, -1559])
def test_j_at_partner_forms_is_the_conjugate(d):
    """j(theta_(a,-b,c)) = conj j(theta_(a,b,c)) within eps * 2^-16 * |j|
    at 1536 bits, so hcp may evaluate one of each pair."""
    ctx = PrecisionContext(1536, "1e-400")
    with ctx.work():
        for q, p in _conjugate_classes(reduced_forms(d)):
            if p is None:
                continue
            v = j_invariant(ModularPoint.from_quadratic(q.a, q.b, d, ctx))
            w = j_invariant(ModularPoint.from_quadratic(p.a, p.b, d, ctx))
            assert abs(w - mp.conj(v)) <= ctx.eps * mp.mpf(2) ** -16 * abs(v)


@pytest.mark.parametrize("d", [-23, -199, -479, -1559])
def test_gamma2_at_partner_forms_is_the_conjugate(d):
    """gamma_2 at the point of ``_gamma2_form`` of (a, -b, c) is the
    conjugate of its value for (a, b, c), and real for an ambiguous form,
    within 2^(VALUE_ERROR_BITS - bits) max(1, |gamma_2|) at 256 bits, so
    hcp may evaluate one of each pair."""
    ctx = PrecisionContext(256, "1e-60")
    value = INVARIANTS["gamma2"][1]
    with ctx.work():
        for q, p in _conjugate_classes(reduced_forms(d)):
            v = qseries._mpc(*value(ModularPoint.from_quadratic(q.a, q.b, d, ctx), q))
            w = mp.conj(v) if p is None else qseries._mpc(
                *value(ModularPoint.from_quadratic(p.a, p.b, d, ctx), p))
            assert abs(w - mp.conj(v)) <= mp.ldexp(max(1, abs(v)), VALUE_ERROR_BITS - 256)
            if p is None:
                assert abs(mp.im(v)) <= mp.ldexp(max(1, abs(v)), VALUE_ERROR_BITS - 256)


def test_gamma2_forms_have_3_dividing_b_and_not_a():
    """For every fundamental d in [-2000, -4] that 3 does not divide and
    every reduced form (a, b, c), ``_gamma2_form`` gives a form of
    discriminant d with 3 not dividing a and 3 dividing b, at
    Im tau >= 0.12."""
    for d in _fundamental(-2000, -4):
        if d % 3 == 0:
            continue
        for q in reduced_forms(d):
            a, b, _ = _gamma2_form(q)
            assert a % 3 and b % 3 == 0 and (b * b - d) % (4 * a) == 0, (d, q)
            assert math.sqrt(-d) / (2 * a) >= 0.12, (d, q)


@pytest.mark.parametrize("d", [-23, -199, -479, -1559, -1991])
def test_gamma2_keeps_its_bits_at_the_normalised_points(d):
    """hcp's gamma_2 at 256 bits (evaluated at theta_Q and turned by its
    cube root of unity, ``_gamma2_form``) lies within 2^(VALUE_ERROR_BITS
    - bits) max(1, |gamma_2|) of ``qseries._gamma2_fx`` summed at the
    normalised point itself at 2 bits + 64, and its cube is
    ``j_invariant`` at the reduced point within the same bound."""
    bits = 256
    ctx, fine = PrecisionContext(bits, "1e-60"), PrecisionContext(2 * bits + 64, "1e-150")
    value = INVARIANTS["gamma2"][1]
    with fine.work():
        for q in reduced_forms(d):
            a, b, _ = _gamma2_form(q)
            v = qseries._mpc(*value(ModularPoint.from_quadratic(q.a, q.b, d, ctx), q))
            ref = qseries._mpc(*qseries._gamma2_fx(ModularPoint.from_quadratic(a, b, d, fine)))
            assert abs(v - ref) <= mp.ldexp(max(1, abs(ref)), VALUE_ERROR_BITS - bits), (d, q)
            j = j_invariant(ModularPoint.from_quadratic(q.a, q.b, d, ctx))
            assert abs(v ** 3 - j) <= mp.ldexp(max(1, abs(j)), VALUE_ERROR_BITS - bits), (d, q)


def test_hcp_coefficients_are_real():
    poly = hilbert_class_poly(make_field(-199), PrecisionContext(1024, "1e-250"))
    assert None not in poly.recognized and poly.degree == 9
    assert all(mp.im(c) == 0 for c in poly.coeffs)


def test_hcp_class_number_one_values(ctx300):
    """j(theta) for the small one-class fields: classical integers."""
    expected = {-7: -3375, -8: 8000, -11: -32768, -19: -884736}
    for d, j in expected.items():
        poly = hilbert_class_poly(make_field(d), ctx300)
        assert poly.degree == 1
        assert poly.recognized[0] == (-j, 0, 1)  # X - j


def test_hcp_minus4(ctx256):
    poly = hilbert_class_poly(make_field(-4), ctx256)
    assert poly.degree == 1
    assert poly.recognized[0] == (-1728, 0, 1)


def test_hcp_minus23(ctx300):
    poly = hilbert_class_poly(make_field(-23), ctx300)
    assert poly.degree == 3
    assert [r for r in poly.recognized] == [
        (12771880859375, 0, 1), (-5151296875, 0, 1), (3491750, 0, 1), (1, 0, 1)]
    assert poly.residual < ctx300.mpf("1e-10")


def _is_cube(n: int) -> bool:
    lo, hi = 0, 1 << (abs(n).bit_length() // 3 + 1)
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (mid + 1, hi) if mid ** 3 < abs(n) else (lo, mid)
    return lo ** 3 == abs(n)


@pytest.mark.parametrize("d", [-1679, -1799, -1895, -1991])
def test_hcp_recognises_large_discriminants_at_1536_bits(d):
    """At 1536 bits / 1e-400 every coefficient of H_d recognises as a
    rational integer, and the constant term is a cube (3 does not divide
    d, so it is N(gamma_2)^3).  -1991, whose j plan is 1580 bits, is
    recognized through gamma_2 and equals the kleinj oracle at 2 * 1536
    bits."""
    f = make_field(d)
    poly = hilbert_class_poly(f, PrecisionContext(1536, "1e-400"))
    assert poly.degree == f.h and None not in poly.recognized
    assert all(n == 0 and den == 1 for _, n, den in poly.recognized)
    assert d % 3 and _is_cube(poly.recognized[0][0])
    if d == -1991:
        assert poly.invariant == "gamma2" and poly.bits == _planned_bits(f, "gamma2") < 1536
        assert [r[0] for r in poly.recognized] == hcp_oracle(d, 2 * 1536)


@pytest.mark.parametrize("d, invariant", [(-87, "j"), (-23, "gamma2")])
def test_hcp_residual_is_the_largest_recognition_error(ctx300, d, invariant):
    """The reported residual is max |c - m| over the fixed-point
    coefficients c below the leading 1 of the polynomial recognized, each
    m its nearest integer: H_D's for j, the gamma_2 polynomial P's for
    gamma_2, whose H_D is exact."""
    f = make_field(d)
    poly = hilbert_class_poly(f, ctx300)
    assert poly.invariant == invariant
    p = _class_poly(f, invariant, poly.bits)
    with mp.workprec(4 * ctx300.bits):
        errs = [abs(c - m) for c, (m, _, _) in zip(p.coeffs[:-1], p.recognized)]
    assert poly.residual == p.residual == max(errs) > 0


def test_recognition_rejects_an_integer_above_the_working_precision():
    """At 64 bits 2^70 + 1 rounds to 2^70, so the constant coefficient
    3 * 2^70 of (X - 2^70 - 1)(X - 3) is an integer that lies within tol
    of itself; its error bound, about 2^(g - 64) 3 * 2^70, leaves it
    unrecognized."""
    ctx = PrecisionContext(64, "1e-10")
    poly = minpoly([2**70 + 1, 3], make_field(-7), ctx)
    assert poly.recognized[0] is None and poly.bound > 2**6
    assert not mp.isfinite(poly.residual)


@pytest.mark.parametrize("factor, hit", [("0.99", (3, 0, 1)), ("1.01", None)],
                         ids=["inside", "outside"])
def test_recognition_drops_a_candidate_outside_the_bound(ctx256, factor, hit):
    """A coefficient 3 + 1.01 B lies within tol of the integer 3, but its
    certificate puts the exact coefficient within B of it, so it is not 3
    and prints null; at 3 + 0.99 B it is recognized as 3."""
    bound = mp.mpf("1e-30")
    with ctx256.work():
        c = mp.mpc(3 + bound * mp.mpf(factor))
        poly = verify._recognize([c, mp.mpc(1)], [bound], make_field(-7), ctx256,
                                 48, ctx256.mpf("1e-10"))
    assert poly.recognized == (hit, (1, 0, 1))


def test_error_bounds_expand_the_value_moduli():
    """B_k is 2^(g - bits) times e_(h-k) of max(1, |v|), g = ceil(log2(h +
    1)) + 12, and the polynomial reports the largest."""
    ctx = PrecisionContext(128, "1e-30")
    values = [mp.mpc(3, 4), mp.mpc("0.5"), mp.mpc(-2)]  # moduli 5, 1, 2
    assert _error_bounds(values, 128) == [mp.ldexp(e, 14 - 128) for e in (10, 17, 8)]
    poly = minpoly(values, make_field(-7), ctx)
    assert poly.bound == mp.ldexp(17, 14 - 128) and poly.bits == 128


def test_hcp_at_the_default_precision_rejects_the_wrong_coefficients_of_minus_632(ctx256):
    """H_-632 has coefficients up to 2^311.  Expanding j at 256 bits,
    without the error bound, five of its eight are within tol of wrong
    integers (...1999999998477...) and one of m/29; the certificate leaves
    such coefficients unrecognized, and whatever it accepts is the
    oracle's integer.  hcp itself takes gamma_2, whose plan is 154 bits,
    and certifies all eight."""
    f = make_field(-632)
    poly = _class_poly(f, "j", 256)
    assert poly.bits == 256 and None in poly.recognized
    assert all(r[1:] == (0, 1) for r in poly.recognized if r is not None)
    exact = hcp_oracle(-632, 2 * _planned_bits(f))
    assert all(r[0] == m for r, m in zip(poly.recognized, exact) if r is not None)
    poly = hilbert_class_poly(f, ctx256)
    assert (poly.invariant, poly.bits) == ("gamma2", 154)
    assert [r[0] for r in poly.recognized] == exact


def _fundamental(lo, hi):
    return [d for d in range(hi, lo - 1, -1) if is_fundamental(d)]


def test_hcp_at_256_bits_accepts_only_the_integers_of_1536_bits(ctx256):
    """Over every fundamental d in [-900, -500] (at 256 bits, without the
    error bound, 17 of them, from -543 to -872, have every coefficient
    within tol of an integer and some of those integers wrong) every
    integer accepted at 256 bits is the one accepted at 1536 bits, where
    all are (the plan stays below 1536 bits there)."""
    fine = PrecisionContext(1536, "1e-400")
    accepted = 0
    for d in _fundamental(-900, -500):
        f = make_field(d)
        exact = hilbert_class_poly(f, fine).recognized
        assert None not in exact, d
        coarse = hilbert_class_poly(f, ctx256).recognized
        for r, e in zip(coarse, exact):
            if r is not None:
                assert r == e, d
                accepted += 1
    assert accepted > 0


def test_hcp_of_minus_1559_at_256_bits_accepts_only_the_integers_of_1536_bits(ctx256):
    """No distinctness test stands between hcp and its certificate: at 256
    bits two j values of -1559 lie closer than the global threshold
    1000 eps max|j|, and hcp still returns all 51 coefficients, accepting
    only the integers it certifies."""
    f = make_field(-1559)
    exact = hilbert_class_poly(f, PrecisionContext(1536, "1e-400")).recognized
    coarse = hilbert_class_poly(f, ctx256)
    assert coarse.degree == 51 and None not in exact
    accepted = [(r, e) for r, e in zip(coarse.recognized[:-1], exact) if r is not None]
    assert accepted and all(r == e for r, e in accepted)


def test_hcp_takes_j_where_the_gamma2_plan_exceeds_the_bits(ctx256):
    """-1559's gamma_2 plan, 498 bits, exceeds 256, so hcp expands j at 256
    bits, as before gamma_2: it certifies coefficient 50 alone (and the
    leading 1), the 1536-bit integer."""
    f = make_field(-1559)
    assert _planned_bits(f, "gamma2") == 498
    poly = hilbert_class_poly(f, ctx256)
    assert (poly.invariant, poly.bits) == ("j", 256)
    assert [k for k, r in enumerate(poly.recognized) if r is not None] == [50, 51]
    exact = hilbert_class_poly(f, PrecisionContext(1536, "1e-400"))
    assert exact.invariant == "gamma2" and poly.recognized[50] == exact.recognized[50]


@pytest.mark.parametrize("d, bits", [(-4, 64), (-7, 64), (-23, 64), (-199, 119), (-199, 120),
                                     (-199, 1024), (-632, 153), (-632, 154), (-1559, 256),
                                     (-1559, 498), (-15, 64), (-39, 256)])
def test_hcp_selects_gamma2_when_its_plan_fits(d, bits):
    """For 3 not dividing d, hcp works at the gamma_2 plan when that is at
    most the bits; otherwise, and for 3 dividing d, at the j plan capped by
    the bits."""
    f = make_field(d)
    poly = hilbert_class_poly(f, PrecisionContext(bits, mp.ldexp(1, 16 - bits)))
    if d % 3 and _planned_bits(f, "gamma2") <= bits:
        assert (poly.invariant, poly.bits) == ("gamma2", _planned_bits(f, "gamma2"))
        assert None not in poly.recognized
    else:
        assert (poly.invariant, poly.bits) == ("j", min(_planned_bits(f), bits))


def test_hcp_falls_back_to_j_when_gamma2_misses_a_coefficient(monkeypatch):
    """A gamma_2 polynomial with a coefficient left unrecognized at its plan
    (here its values moved by 2^-60 relative) cannot give H_D, so hcp
    expands j instead."""
    k, value = INVARIANTS["gamma2"]

    def moved(pt, q):
        re, im, w = value(pt, q)
        return re + (re >> 60), im, w

    monkeypatch.setitem(INVARIANTS, "gamma2", (k, moved))
    f = make_field(-199)
    poly = hilbert_class_poly(f, PrecisionContext(512, "1e-100"))
    assert None in _class_poly(f, "gamma2", _planned_bits(f, "gamma2")).recognized
    assert (poly.invariant, poly.bits) == ("j", _planned_bits(f))
    assert [r[0] for r in poly.recognized] == hcp_oracle(-199, 2 * _planned_bits(f))


@pytest.mark.parametrize("d", [-23, -632, -1559])
def test_hcp_does_not_read_eps(d):
    """hcp depends on d and the working bits alone: a
    coarse eps gives the same polynomial at 256 bits."""
    f = make_field(d)
    assert (hilbert_class_poly(f, PrecisionContext(256, "1e-40"))
            == hilbert_class_poly(f, PrecisionContext(256, "1e-3")))


@pytest.mark.parametrize("d", [-3, -4, -15, -23, -87, -199, -479, -632, -771, -991])
def test_hcp_at_its_planned_bits_matches_the_kleinj_oracle(d):
    """At its planned bits, of gamma_2 for 3 not dividing d and of j
    otherwise, H_d is mpmath's kleinj product at twice the j plan, integer
    for integer; so is j expanded at its own plan."""
    f = make_field(d)
    ctx = PrecisionContext(2048, "1e-500")
    poly = hilbert_class_poly(f, ctx)
    assert poly.bits == _planned_bits(f, poly.invariant)
    assert poly.invariant == ("gamma2" if d % 3 else "j")
    assert all(r is not None and r[1:] == (0, 1) for r in poly.recognized)
    exact = hcp_oracle(d, 2 * _planned_bits(f))
    assert [r[0] for r in poly.recognized] == exact
    assert [r[0] for r in _class_poly(f, "j", _planned_bits(f)).recognized] == exact


def test_height_bound_bounds_every_coefficient():
    """For every fundamental d in [-500, -3], log2 of the largest |coefficient|
    of H_d is at most log2 U, and j expanded at its planned bits certifies
    every coefficient: the largest error bound is below HCP_TOL."""
    for d in _fundamental(-500, -3):
        f = make_field(d)
        poly = _class_poly(f, "j", _planned_bits(f))
        assert None not in poly.recognized, d
        assert poly.bound < mp.mpf("1e-10"), d
        top = max(abs(m) for m, _, _ in poly.recognized)
        assert math.log2(top) <= _log2_height(f), d


def test_gamma2_height_bound_bounds_every_coefficient():
    """For every fundamental d in [-500, -4] that 3 does not divide, every
    coefficient of the gamma_2 polynomial P lies below its height bound
    U_3, at P's plan every coefficient certifies below HCP_TOL, and the H_D
    it gives is j's, integer for integer."""
    for d in _fundamental(-500, -4):
        if d % 3 == 0:
            continue
        f = make_field(d)
        p = _class_poly(f, "gamma2", _planned_bits(f, "gamma2"))
        assert None not in p.recognized, d
        assert p.bound < mp.mpf("1e-10"), d
        top = max(abs(m) for m, _, _ in p.recognized)
        assert math.log2(top) < _log2_height(f, "gamma2"), d
        assert (_from_gamma2(p).recognized
                == _class_poly(f, "j", _planned_bits(f)).recognized), d


@pytest.mark.parametrize("d, bits", [(-15, 64), (-15, 76), (-15, 77), (-15, 256), (-39, 116),
                                     (-39, 117), (-87, 128), (-87, 1024), (-183, 256)])
def test_working_bits_is_the_plan_capped_by_the_context(d, bits):
    """For 3 dividing d, hcp expands j at its plan capped by the bits."""
    f = make_field(d)
    ctx = PrecisionContext(bits, mp.ldexp(1, 16 - bits))
    poly = hilbert_class_poly(f, ctx)
    assert (poly.invariant, poly.bits) == ("j", min(_planned_bits(f), bits))


@pytest.mark.parametrize("tol", ["1e-3", "1e-30"])
@pytest.mark.parametrize("d, invariant", [(-183, "j"), (-632, "gamma2")])
def test_hcp_plan_and_certificate_read_one_tolerance(tol, d, invariant, monkeypatch):
    """HCP_TOL moves the plan of either invariant by log2 of its ratio to
    1e-10, and at the planned bits every coefficient certifies within it."""
    f = make_field(d)
    base = _planned_bits(f, invariant)
    monkeypatch.setattr(verify, "HCP_TOL", tol)
    planned = _planned_bits(f, invariant)
    assert abs(planned - base - math.log2(1e-10 / float(tol))) <= 1
    poly = hilbert_class_poly(f, PrecisionContext(2048, "1e-500"))
    assert (poly.invariant, poly.bits) == (invariant, planned)
    assert poly.bound < mp.mpf(tol)
    assert all(r is not None and r[1:] == (0, 1) for r in poly.recognized)
    assert [r[0] for r in poly.recognized] == hcp_oracle(d, 2 * _planned_bits(f))


def test_hcp_above_its_plan_computes_at_the_cap():
    """-1959 (3 divides it) plans 1271 bits, so at 1024 bits hcp expands j
    at 1024 and leaves coefficients unrecognized; so does j for -1991,
    whose plan is 1580 bits (its H_D reaches 2^1500), at 1536."""
    f = make_field(-1959)
    assert _planned_bits(f) == 1271
    poly = hilbert_class_poly(f, PrecisionContext(1024, "1e-300"))
    assert (poly.invariant, poly.bits) == ("j", 1024) and None in poly.recognized
    f = make_field(-1991)
    assert _planned_bits(f) == 1580
    poly = _class_poly(f, "j", 1536)
    assert poly.bits == 1536 and None in poly.recognized


def test_hcp_degree_matches_h(ctx300):
    for d in (-7, -8, -11, -15, -19, -20, -23, -24, -31, -39, -40):
        f = make_field(d)
        poly = hilbert_class_poly(f, ctx300)
        assert poly.degree == f.h
        assert None not in poly.recognized
        assert all(n == 0 and den == 1 for _, n, den in poly.recognized)


# --------------------------------------------------------------- identity ---

def test_identity_checks_pass_at_non_cm_tau(ctx256):
    """The curve / unit relations are identities in tau: regression over a
    small random grid away from CM points."""
    rng = random.Random(2718)
    with ctx256.work():
        for _ in range(4):
            tau = ctx256.mpc(str(rng.uniform(-0.5, 0.5)),
                             str(rng.uniform(1.0, 2.5)))
            pt = ModularPoint.from_complex(tau, ctx256)
            u, v, x, y = normalized(pt, FractionPair.from_parts(0, 1, 8))
            assert abs(u - 27 * v * v - 1) < ctx256.eps
            lhs = u * v**3 * y**2
            rhs = 4 * x**3 - u * v**2 * x - u * v**4
            assert abs(lhs - rhs) / max(1, abs(4 * x**3)) < ctx256.eps


def test_hypothesis_and_generation_consistency(ctx256):
    """Corollary cases satisfy the conductor hypothesis."""
    for d, n in ((-7, 3), (-7, 9), (-39, 3)):
        assert check_hypothesis(make_field(d), n).ok
