"""The reduction of tau into the fundamental domain, and the exact law that
carries each value back from the reduced point: weight factors J^k, the eta
multiplier zeta_A and the index action r -> r A (``ModularPoint``)."""

import math
import random
from fractions import Fraction as F

import mpmath as mp
import pytest

from rayclass import (
    CMPoint,
    FractionPair,
    ModularPoint,
    PrecisionContext,
    delta,
    eisenstein,
    eta,
    j_invariant,
    siegel,
    wp,
)
from rayclass.qseries import REDUCE_GUARD, _reduce, eta_multiplier

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


def _normalized(m):
    """The sign of m with c > 0, or c = 0 and d > 0."""
    a, b, c, d = m
    return m if c > 0 or (c == 0 and d > 0) else (-a, -b, -c, -d)


def _act(m, tau):
    a, b, c, d = m
    return (a * tau + b) / (c * tau + d)


def _interior_tau(rng):
    """A point well inside the fundamental domain: |Re| <= 0.45, |tau|^2 >= 1.1."""
    while True:
        re, im = rng.uniform(-0.45, 0.45), rng.uniform(0.9, 1.6)
        if re * re + im * im >= 1.1:
            return re, im


# ------------------------------------------------------------ multiplier ---

def _sawtooth(x: F) -> F:
    return F(0) if x.denominator == 1 else x - math.floor(x) - F(1, 2)


def _dedekind_sum_direct(h: int, k: int) -> F:
    """s(h, k) = sum_{r=1}^{k-1} ((r/k)) ((h r/k)), O(k) terms."""
    return sum((_sawtooth(F(r, k)) * _sawtooth(F(h * r, k)) for r in range(1, k)), F(0))


def _sl2_samples(seed, count, bound):
    """Seeded (a, b, c, d) in SL2(Z) with |a|, |b|, |d| <= bound and
    0 < c <= bound."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        c, d = rng.randint(1, bound), rng.randint(-bound, bound)
        if math.gcd(c, d) != 1:
            continue
        a = pow(d, -1, c) if c > 1 else 0
        a += c * rng.randint(-bound // c - 1, bound // c + 1)
        b, rest = divmod(a * d - 1, c)
        if rest == 0 and abs(a) <= bound and abs(b) <= bound:
            out.append((a, b, c, d))
    return out


def test_eta_multiplier_matches_direct_dedekind_sums():
    """k = 12 ((a + d)/(12 c) - s(d, c) - 1/4) mod 24 for 300 seeded A with
    entries up to 60, s(d, c) summed term by term; b mod 24 when c = 0."""
    for a, b, c, d in _sl2_samples(8801, 300, 60):
        k = 12 * (F(a + d, 12 * c) - _dedekind_sum_direct(d, c) - F(1, 4))
        assert k.denominator == 1
        assert eta_multiplier(a, b, c, d) == k.numerator % 24, (a, b, c, d)
    for b in range(-30, 31):
        assert eta_multiplier(1, b, 0, 1) == b % 24


# ------------------------------------------------------------- reduction ---

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
    the fundamental domain up to the margins, edges included; one in 97
    also goes through from_quadratic and keeps q at tau."""
    ctx = CTX[prec]
    count = 0
    for a, b, d in _forms_in_the_closed_domain(-2000):
        tau = CMPoint(a, b, d).to_mpc(ctx)
        assert _reduce(tau, ctx.bits + REDUCE_GUARD) is None, (a, b, d)
        if count % 97 == 0:
            pt = ModularPoint.from_quadratic(a, b, d, ctx)
            assert pt.reduced is None and pt.word == (1, 0, 0, 1)
            assert pt.q is not None and pt.tau == tau
        count += 1
    assert count == 17090


def test_reduction_margins():
    """Translation past |Re tau| = 1/2 + 2^-20, inversion below
    |tau|^2 = 1 - 2^-20, and neither inside the margins."""
    ctx = CTX["256"]
    with ctx.work():
        two = mp.mpf(2)
        stays = [mp.mpc(0.5 + 2.0**-21, 1), mp.mpc(-0.5 - 2.0**-21, 1),
                 mp.mpc(0, mp.sqrt(1 - two**-21)), mp.mpc(0.5, mp.sqrt(0.75))]
        for tau in stays:
            pt = ModularPoint.from_complex(tau, ctx)
            assert pt.reduced is None and pt.tau == tau
        pt = ModularPoint.from_complex(mp.mpc(0.5 + 2.0**-19, 1), ctx)
        assert pt.word == T and pt.reduced.tau == mp.mpc(-0.5 + 2.0**-19, 1)
        tau = mp.mpc(0, mp.sqrt(1 - two**-19))
        pt = ModularPoint.from_complex(tau, ctx)
        assert pt.word == S and pt.reduced.tau == -1 / tau


def test_reduced_point_takes_the_one_exponential(monkeypatch):
    """A tau outside the domain gets no exponential: from_complex takes one,
    at tau', and the point keeps q = None."""
    ctx = CTX["256"]
    exps = []
    real_exp = mp.exp
    monkeypatch.setattr(mp, "exp", lambda z: exps.append(z) or real_exp(z))
    pt = ModularPoint.from_complex(("0.1234", "0.06"), ctx)
    assert pt.q is None and pt.reduced.q is not None
    assert len(exps) == 1
    with ctx.work():
        assert exps[0] == 2j * mp.pi * pt.reduced.tau


def test_truncation_is_capped_by_the_domain():
    """Every point from Im 0.05 to 2 sums at most 19 terms at 256 bits and
    eps 1e-40 (log(2^16 / eps) / (2 pi sqrt(3)/2) < 19)."""
    ctx = CTX["256"]
    rng = random.Random(8802)
    lo, hi = math.log(0.05), math.log(2.0)
    for _ in range(200):
        tau = (rng.uniform(-0.5, 0.5), math.exp(rng.uniform(lo, hi)))
        assert ModularPoint.from_complex(tau, ctx).terms() <= 19


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
    """At tau = A tau': the word found is A, and eta, delta, g2, g3, siegel
    at a reduced and a shifted index, and wp at an index and at a complex z,
    carried back from tau', meet ``matches_loop`` against the loops at tau."""
    ctx = CTX[prec]
    with ctx.work():
        tau = _act(word, ctx.mpc(*tau_r))
    pt = ModularPoint.from_complex(tau, ctx)
    assert pt.word == word
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
    T^-1 whose image stays above the Im floor; the word found for A tau is
    A itself (tau lies inside the domain)."""
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
            m = _normalized(m)
            assert pt.word == m if m != (1, 0, 0, 1) else pt.reduced is None
            j0 = j_invariant(ModularPoint.from_complex(base, ctx))
            assert abs(j_invariant(pt) - j0) < ctx.eps * max(1, abs(j0))
        checked += 1


def test_carried_values_are_computed_once(point_value_runs):
    """At a point outside the domain, each per-point value runs once on the
    point itself (the carry) and once on its reduced point (the series)."""
    runs = {name: point_value_runs(name) for name in ("eisenstein", "eta", "delta")}
    ctx = CTX["256"]
    pt = ModularPoint.from_complex(("0.1234", "0.3"), ctx)
    for _ in range(2):
        j_invariant(pt)
        eta(pt)
        delta(pt)
    for seen in runs.values():
        assert [id(p) for p in seen] == [id(pt), id(pt.reduced)]
