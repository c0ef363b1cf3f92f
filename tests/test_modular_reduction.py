"""Values at points A tau' outside the fundamental domain, where every
series is summed at the point itself: they meet the reference loops, j is
invariant under SL2(Z), eta, delta, g2 and g3 obey their transformation
laws, and a large Re tau costs no bits."""

import math
import random
from fractions import Fraction as F

import mpmath as mp
import pytest

from rayclass import (
    FractionPair,
    ModularPoint,
    PrecisionContext,
    delta,
    eisenstein,
    eta,
    j_invariant,
    qseries,
    siegel,
    u_value,
    v_value,
    wp,
)
from rayclass.classfield import CMPoint
from rayclass.numerics import GUARD_BITS, MIN_IM, truncation_terms

from oracles import (
    delta_loop,
    eisenstein_loop,
    eta_loop,
    matches_loop,
    siegel_loop,
    wp_loop,
)

CTX = {
    "256": PrecisionContext(256, "1e-40"),
    "1536": PrecisionContext(1536, "1e-400"),
}
S = (0, -1, 1, 0)
T = (1, 1, 0, 1)
T_INV = (1, -1, 0, 1)


def _mul(x, y):
    a, b, c, d = x
    e, f, g, h = y
    return a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h


def _act(m, tau):
    a, b, c, d = m
    return (a * tau + b) / (c * tau + d)


def _interior_tau(rng):
    """A point well inside the fundamental domain: |Re| <= 0.45, |tau|^2 >= 1.1."""
    while True:
        re, im = rng.uniform(-0.45, 0.45), rng.uniform(0.9, 1.6)
        if re * re + im * im >= 1.1:
            return re, im


# ---------------------------------------------------------- the domain ---

def _forms_in_the_closed_domain(dmin):
    """(a, b, d) for every form a X^2 + b X Y + c Y^2 with |b| <= a <= c
    (primitive or not, both edges included) of discriminant d in [dmin, -3]."""
    for d in range(-3, dmin - 1, -1):
        if d % 4 not in (0, 1):
            continue
        for a in range(1, math.isqrt(-d // 3) + 1):
            for b in range(-a, a + 1):
                num = b * b - d
                if num % (4 * a) == 0 and num // (4 * a) >= a:
                    yield a, b, d


@pytest.mark.parametrize("prec", sorted(CTX))
def test_cm_points_of_reduced_forms_keep_the_identity_word(prec):
    """Every CM point of a form with |b| <= a <= c, d in [-2000, -3], lies in
    the closed fundamental domain (|Re| <= 1/2, |tau| >= 1, edges included,
    up to one rounding), so its sums take at most the domain's terms; one in
    97 also goes through from_quadratic, which sums at tau itself with
    q = exp(2 pi i tau) as taken at twice the bits and rounded."""
    ctx = CTX[prec]
    cap = truncation_terms(math.sqrt(3) / 2, ctx.eps)
    count = 0
    for a, b, d in _forms_in_the_closed_domain(-2000):
        tau = CMPoint(a, b, d).to_mpc(ctx)
        with ctx.work():
            slack = 4 * mp.mpf(2) ** -ctx.bits
            assert abs(mp.re(tau)) <= 0.5 and abs(tau) >= 1 - slack, (a, b, d)
        if count % 97 == 0:
            pt = ModularPoint.from_quadratic(a, b, d, ctx)
            assert pt.tau == tau and pt.terms() <= cap
            assert _is_q_at_twice_the_bits(pt.q, tau, ctx)
        count += 1
    assert count == 17090


def _is_q_at_twice_the_bits(q, tau, ctx) -> bool:
    """q equals exp(2 pi i tau) taken at 2 bits and rounded to bits, part by
    part.  A part below 2^-bits |q| on both sides is rounding noise (q is
    real at Re tau = 1/2) and is only held to that size."""
    with mp.workprec(2 * ctx.bits):
        ref = mp.exp(2j * mp.pi * tau)
    with ctx.work():
        ref = +ref
        noise = abs(ref) * mp.mpf(2) ** -ctx.bits
        return all(a == b or abs(a) < noise > abs(b)
                   for a, b in ((q.real, ref.real), (q.imag, ref.imag)))


def test_reduced_point_takes_the_one_exponential(monkeypatch):
    """A tau outside the domain takes one exponential, exp(2 pi i tau/24)
    at tau itself (|Re tau| < 1 costs no extra bits), on the first value
    asked for, not in from_complex; eta, delta, u, v and q all read it, and
    q is exp(2 pi i tau) at twice the bits, rounded."""
    ctx = CTX["256"]
    qseries._eta_prefactor(ctx.bits)  # a constant, kept per precision
    exps, calls = [], []
    real_exp, real_exp_tau = mp.exp, qseries._exp_tau
    monkeypatch.setattr(mp, "exp", lambda z: exps.append(z) or real_exp(z))
    monkeypatch.setattr(qseries, "_exp_tau",
                        lambda *args: calls.append(args) or real_exp_tau(*args))
    pt = ModularPoint.from_complex(("0.1234", "0.06"), ctx)
    assert exps == []
    eta(pt), delta(pt), u_value(pt), v_value(pt)
    assert len(exps) == 1
    assert calls == [(pt.tau, 24, pt.width + 8)]
    monkeypatch.setattr(mp, "exp", real_exp)
    assert _is_q_at_twice_the_bits(pt.q, pt.tau, ctx)


def test_truncation_is_capped_by_the_domain():
    """Every point from Im 0.05 to 2 has a truncation index of at most 329
    at 256 bits and eps 1e-40, that of the Im floor (log(2^16 / eps) /
    (2 pi / 20) < 329), and at most 19 at Im >= sqrt(3)/2."""
    ctx = CTX["256"]
    assert truncation_terms(MIN_IM, ctx.eps) == 329
    rng = random.Random(8802)
    lo, hi = math.log(0.05), math.log(2.0)
    for _ in range(200):
        tau = (rng.uniform(-0.5, 0.5), math.exp(rng.uniform(lo, hi)))
        terms = ModularPoint.from_complex(tau, ctx).terms()
        assert terms <= (19 if tau[1] >= math.sqrt(3) / 2 else 329), tau


def test_carried_values_are_computed_once(point_value_runs, evaluator_calls):
    """At a point outside the domain, each cached piece runs once, on the
    point itself, however often the evaluators ask for it; j and u call
    neither the Eisenstein series nor delta."""
    runs = {name: point_value_runs(name) for name in ("_q_powers", "_thetas", "_e24", "_euler_fx")}
    sums, deltas = evaluator_calls("eisenstein"), evaluator_calls("delta")
    ctx = CTX["256"]
    pt = ModularPoint.from_complex(("0.1234", "0.3"), ctx)
    for _ in range(2):
        j_invariant(pt)
        u_value(pt)
    assert deltas == [] and sums == []
    for _ in range(2):
        eta(pt)
        delta(pt)
    for seen in runs.values():
        assert [id(p) for p in seen] == [id(pt)]


# -------------------------------------------------------- the values' law ---

def _transformed_cases(seed, cs, min_im):
    """(A, tau'), one for each lower-left entry c in cs: A seeded in SL2(Z)
    with |a|, |d| <= 5 (a translation T^b, 0 < |b| <= 3, for c = 0), tau'
    inside the domain and Im(A tau') >= min_im."""
    rng = random.Random(seed)
    out = []
    for c in cs:
        while True:
            d = rng.randint(-5, 5) if c else 1
            if math.gcd(c, d) != 1:
                continue
            if c:
                a = pow(d, -1, c) if c > 1 else 0
                a += c * rng.randint(-(5 // c), 5 // c)
                m = (a, (a * d - 1) // c, c, d)
            else:
                m = (1, rng.choice((-3, -2, -1, 1, 2, 3)), 0, 1)
            re, im = _interior_tau(rng)
            if abs(m[0]) <= 5 and im / abs(c * complex(re, im) + d) ** 2 >= min_im:
                out.append((m, (re, im)))
                break
    return out


SIEGEL_INDICES = [FractionPair(F(1, 8), F(3, 8)), FractionPair(F(-9, 8), F(4, 3))]
LAW_CASES = [("256", m, t) for m, t in _transformed_cases(8803, (0, 1, 2, 3, 2, 3), 0.08)] + \
    [("1536", m, t) for m, t in _transformed_cases(8804, (2, 3), 0.09)]


@pytest.mark.parametrize("prec, word, tau_r", LAW_CASES,
                         ids=[f"{p}-{w}" for p, w, _ in LAW_CASES])
def test_values_at_a_transformed_point_match_the_loops(prec, word, tau_r):
    """At tau = A tau': eta, delta, g2, g3, siegel at a reduced and a
    shifted index, and wp at an index and at a complex z meet
    ``matches_loop`` against the loops at tau."""
    ctx = CTX[prec]
    with ctx.work():
        tau = _act(word, ctx.mpc(*tau_r))
    pt = ModularPoint.from_complex(tau, ctx)
    im = float(pt.im)
    cases = [
        (eta(pt), lambda k: eta_loop(pt, k)),
        (delta(pt), lambda k: delta_loop(pt, k)),
        (eisenstein(pt)[0], lambda k: eisenstein_loop(pt, k)[0]),
        (eisenstein(pt)[1], lambda k: eisenstein_loop(pt, k)[1]),
        *((siegel(r, pt), lambda k, r=r: siegel_loop(r, pt, k)) for r in SIEGEL_INDICES),
        (wp(SIEGEL_INDICES[0], pt), lambda k: wp_loop(pt.at(SIEGEL_INDICES[0]), pt, k)),
    ]
    with ctx.work():
        z = 0.37 * pt.tau + 0.61
        cases.append((wp(z, pt), lambda k: wp_loop(z, pt, k)))
        for i, (new, loop) in enumerate(cases):
            assert matches_loop(new, loop, im, ctx), i


def test_j_is_invariant_under_words():
    """j(A tau) = j(tau) for seeded words of length 1 to 10 in S, T and
    T^-1 whose image stays above the Im floor."""
    ctx = CTX["256"]
    rng = random.Random(8805)
    checked = 0
    while checked < 40:
        m = (1, 0, 0, 1)
        for _ in range(rng.randint(1, 10)):
            m = _mul(m, rng.choice((S, T, T_INV)))
        tau_r = _interior_tau(rng)
        with ctx.work():
            base = ctx.mpc(*tau_r)
            tau = _act(m, base)
            if mp.im(tau) < 0.05:
                continue
            pt = ModularPoint.from_complex(tau, ctx)
            j0 = j_invariant(ModularPoint.from_complex(base, ctx))
            assert abs(j_invariant(pt) - j0) < ctx.eps * max(1, abs(j0))
        checked += 1


def _points_below_the_domain(seed, count):
    """Seeded tau with |Re| <= 1/2, |tau| <= 1 and Im from 0.05 to 0.8:
    outside the domain, and so is -1/tau's image above the Im floor."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        re, im = rng.uniform(-0.5, 0.5), rng.uniform(0.05, 0.8)
        if re * re + im * im <= 1:
            out.append((re, im))
    return out


def _close(new, ref, ctx, floor=0):
    """|new - ref| <= eps * 2^-GUARD_BITS * max(floor, |ref|)."""
    return abs(new - ref) <= ctx.eps * mp.mpf(2) ** (-GUARD_BITS) * max(floor, abs(ref))


LAW_POINTS = {"256": 6, "1536": 3}


@pytest.mark.parametrize("prec", sorted(CTX))
def test_eta_obeys_the_generator_laws(prec):
    """eta(tau + 1) = exp(pi i/12) eta(tau) and eta(-1/tau) = sqrt(-i tau)
    eta(tau), each side summed at its own point, to eps * 2^-GUARD_BITS
    relative."""
    ctx = CTX[prec]
    for tau_r in _points_below_the_domain(8806, LAW_POINTS[prec]):
        with ctx.work():
            tau = ctx.mpc(*tau_r)
            e = eta(ModularPoint.from_complex(tau, ctx))
            shifted = eta(ModularPoint.from_complex(tau + 1, ctx))
            inverted = eta(ModularPoint.from_complex(-1 / tau, ctx))
            assert _close(shifted, mp.exp(mp.mpc(0, mp.pi) / 12) * e, ctx), tau_r
            assert _close(inverted, mp.sqrt(-1j * tau) * e, ctx), tau_r


@pytest.mark.parametrize("prec", sorted(CTX))
def test_delta_and_eisenstein_obey_their_weights(prec):
    """delta, g2 and g3 at -1/tau are tau^12, tau^4 and tau^6 times their
    values at tau, each side summed at its own point, to eps * 2^-GUARD_BITS
    relative (g2 and g3: times max(1, |value|))."""
    ctx = CTX[prec]
    for tau_r in _points_below_the_domain(8807, LAW_POINTS[prec]):
        with ctx.work():
            tau = ctx.mpc(*tau_r)
            pt = ModularPoint.from_complex(tau, ctx)
            inv = ModularPoint.from_complex(-1 / tau, ctx)
            (g2, g3), (g2_inv, g3_inv) = eisenstein(pt), eisenstein(inv)
            assert _close(delta(inv), tau**12 * delta(pt), ctx), tau_r
            assert _close(g2_inv, tau**4 * g2, ctx, 1), tau_r
            assert _close(g3_inv, tau**6 * g3, ctx, 1), tau_r


@pytest.mark.parametrize("shift", [2**20, 2**40], ids=["2^20", "2^40"])
def test_large_real_part_costs_no_bits(shift):
    """At tau = shift + 0.3 + 0.9i, 256 bits and eps 2^-240, j, eta and wp
    match their values at tau - shift (exact) through the translation laws:
    j(tau + 1) = j(tau), eta(tau + 1) = exp(2 pi i/24) eta(tau), wp(z) is a
    function of the lattice alone, and z = r1 tau + r2 is the index
    (r1, r2 + shift r1) at tau - shift."""
    ctx = PrecisionContext(256, F(1, 2**240))
    with ctx.work():
        tau = mp.mpc(shift + mp.mpf("0.3"), "0.9")
        pt = ModularPoint.from_complex(tau, ctx)
        base = ModularPoint.from_complex(tau - shift, ctx)
        j = j_invariant(pt)
        assert abs(j - j_invariant(base)) <= ctx.eps * abs(j)
        e = eta(pt)
        turn = mp.exp(2j * mp.pi * (shift % 24) / 24)
        assert abs(e - turn * eta(base)) <= ctx.eps * abs(e)
        r = FractionPair(F(1, 5), F(2, 7))
        p = wp(r, pt)
        assert abs(p - wp(FractionPair(r.r1, r.r2 + shift * r.r1), base)) <= ctx.eps * abs(p)
        z = mp.mpc("0.31", "0.42")
        p = wp(z, pt)
        assert abs(p - wp(z, base)) <= ctx.eps * abs(p)


def test_complex_z_far_from_zero_costs_no_bits():
    """wp at z = 2^20 + 0.2 + 0.42i, tau = 0.3 + 0.9i, 256 bits and eps
    2^-240 lies within eps of the same z at 768 bits: the lattice
    coordinates of z and exp(2 pi i z) carry the bit length of
    floor(|z| / min(1, Im tau)) as extra bits (without them: 209 eps off)."""
    ctx = PrecisionContext(256, F(1, 2**240))
    hi = PrecisionContext(768, F(1, 2**700))
    with ctx.work():
        tau = mp.mpc("0.3", "0.9")
        z = mp.mpc(2**20 + mp.mpf("0.2"), "0.42")
        p = wp(z, ModularPoint.from_complex(tau, ctx))
    with hi.work():
        assert abs(p - wp(z, ModularPoint.from_complex(tau, hi))) <= ctx.eps
