import gc
import itertools
import math
import random
import weakref
from fractions import Fraction as F

import mpmath as mp
import pytest
from mpmath.libmp import mpf_neg

from rayclass import (
    DegenerateIndex,
    FractionPair,
    ImTooSmall,
    ModularPoint,
    OnLattice,
    PrecisionContext,
    conjugate_values,
    delta,
    eisenstein,
    eta,
    j_invariant,
    make_field,
    normalized,
    siegel,
    u_value,
    v_value,
    wp,
    wp_prime,
    x_value,
    y_value,
)

from rayclass import qseries
from rayclass._fixed import _unit_root_fx
from rayclass.qseries import CurveCoords, _cut_entry, siegel_order, y_quotient
from rayclass.reciprocity import act_index

from oracles import agrees, eisenstein_loop


def _pt(re, im, ctx):
    return ModularPoint.from_complex((re, im), ctx)


def _random_taus(n, seed=20240601, im_range=(0.9, 3.0)):
    rng = random.Random(seed)
    return [
        (rng.uniform(-0.5, 0.5), rng.uniform(*im_range))
        for _ in range(n)
    ]


# ---------------------------------------------------------------- points ---

def test_modular_point_rejects_low_im(ctx256):
    with pytest.raises(ImTooSmall):
        _pt(0, 0.01, ctx256)


@pytest.mark.parametrize("tau", [("0", "inf"), ("nan", "1"), ("0", "nan")])
def test_modular_point_rejects_non_finite_tau(tau, ctx256):
    with pytest.raises(ValueError, match="not finite"):
        ModularPoint.from_complex(tau, ctx256)


@pytest.mark.parametrize("bits, eps", [(256, "1e-40"), (1536, "1e-400")])
def test_modular_point_accepts_the_floor_itself(bits, eps):
    """Im(tau) = 0.05 written as a decimal is the floor 1/20, not below it."""
    ctx = PrecisionContext(bits, eps)
    pt = ModularPoint.from_complex(("0", "0.05"), ctx)
    with ctx.work():
        assert abs(eta(pt)) > 0
    with pytest.raises(ImTooSmall):
        ModularPoint.from_complex(("0", "0.0499"), ctx)


def test_per_point_values_are_computed_once(ctx256, point_value_runs, evaluator_calls):
    """The point's cached pieces each run once, however often the
    evaluators read them; a second point runs its own, and j there calls
    neither the Eisenstein series nor delta."""
    pieces = ("_q_powers", "_thetas", "_euler_fx", "_e4", "_e6", "_e12", "_e24", "_x_scale")
    runs = {name: point_value_runs(name) for name in pieces}
    pt = _pt(0.1234, 1.3, ctx256)
    r = FractionPair.from_parts(0, 1, 8)
    coords = normalized(pt, r)
    j = j_invariant(pt)
    assert u_value(pt) == coords.u and v_value(pt) == coords.v
    assert eisenstein(pt) == eisenstein(pt)
    assert eta(pt) == eta(pt) and delta(pt) == delta(pt)
    for seen in runs.values():
        assert [id(p) for p in seen] == [id(pt)]
    sums, deltas = evaluator_calls("eisenstein"), evaluator_calls("delta")
    other = _pt(0.1234, 1.31, ctx256)
    assert j_invariant(other) != j
    assert [id(p) for p in runs["_thetas"]] == [id(pt), id(other)]
    assert sums == deltas == []


def test_fraction_pair_rejects_integral():
    with pytest.raises(DegenerateIndex):
        FractionPair(F(2), F(-3))
    r = FractionPair.from_parts(0, 1, 8)
    assert r.level == 8
    assert r.doubled() == FractionPair(F(0), F(1, 4))
    assert FractionPair(F(1, 2), F(0)).doubled() is None


def _reference_key(r1: F, r2: F) -> tuple[int, int, int]:
    """(p1, p2, N) with (r1, r2) = (p1/N, p2/N), N the lcm of the
    denominators, by Fraction arithmetic."""
    n = math.lcm(r1.denominator, r2.denominator)
    return int(r1 * n), int(r2 * n), n


def _folded_key(s: int, t: int, n: int) -> tuple[int, int, int]:
    """(N, s, t) of the canonical key of the reduced index (s/N, t/N): the
    lexicographically smaller of (s, t) and (-s mod N, -t mod N), on which
    the level table keeps the entry of both."""
    return (n, *min((s, t), (-s % n, -t % n)))


def _integral(a: F, b: F) -> bool:
    return a.denominator == 1 and b.denominator == 1


def test_integer_index_matches_fraction_reference():
    """from_parts and the Fraction constructor give one normal form, and
    level, r1/r2, doubled and negated agree with Fraction arithmetic, over
    seeded negative and shifted residues, mostly not in lowest terms."""
    rng = random.Random(7701)
    checked = 0
    for _ in range(600):
        n = rng.randint(2, 60)
        p1, p2 = rng.randint(-3 * n, 3 * n), rng.randint(-3 * n, 3 * n)
        r1, r2 = F(p1, n), F(p2, n)
        if _integral(r1, r2):
            with pytest.raises(DegenerateIndex):
                FractionPair.from_parts(p1, p2, n)
            with pytest.raises(DegenerateIndex):
                FractionPair(r1, r2)
            continue
        r = FractionPair.from_parts(p1, p2, n)
        assert r == FractionPair(r1, r2) and hash(r) == hash(FractionPair(r1, r2))
        assert (r.p1, r.p2, r.level) == _reference_key(r1, r2)
        assert math.gcd(r.p1, r.p2, r.level) == 1
        assert (r.r1, r.r2) == (r1, r2)
        assert r.level == math.lcm(r1.denominator, r2.denominator)
        neg = r.negated()
        assert (neg.p1, neg.p2, neg.level) == _reference_key(-r1, -r2)
        dbl = r.doubled()
        if _integral(2 * r1, 2 * r2):
            assert dbl is None
        else:
            assert (dbl.p1, dbl.p2, dbl.level) == _reference_key(2 * r1, 2 * r2)
            assert (dbl.r1, dbl.r2) == (2 * r1, 2 * r2)
        checked += 1
    assert checked > 500


def test_integer_index_spellings_share_one_normal_form():
    assert FractionPair(F(1, 2), F(0)) == FractionPair.from_parts(2, 0, 4)
    assert FractionPair("-9/8", "4/3") == FractionPair.from_parts(-27, 32, 24)
    assert FractionPair.from_parts(6, 3, 12) == FractionPair.from_parts(2, 1, 4)
    assert repr(FractionPair.from_parts(6, -3, 12)) == \
        "FractionPair(r1=Fraction(1, 2), r2=Fraction(-1, 4))"
    assert len({FractionPair.from_parts(k, 2 * k, 6 * k) for k in (1, 2, 5, 9)}) == 1
    with pytest.raises(ValueError):
        FractionPair.from_parts(1, 0, 1)
    with pytest.raises(DegenerateIndex):
        FractionPair.from_parts(4, -6, 2)


# ------------------------------------------------------------------- eta ---

def test_eta_prefactor_normalization_at_i(ctx256):
    """eta(i) = sqrt(2 pi) zeta_8 * Gamma(1/4) / (2 pi^(3/4))."""
    with ctx256.work():
        e = eta(_pt(0, 1, ctx256))
        pref = mp.sqrt(2 * mp.pi) * mp.exp(mp.mpc(0, mp.pi) / 4)
        classical = mp.gamma(mp.mpf(1) / 4) / (2 * mp.pi ** mp.mpf("0.75"))
        assert abs(e / pref - classical) < ctx256.eps


def test_eta_tail_tends_to_prefactor(ctx256):
    """eta / (sqrt(2 pi) zeta_8 q^(1/24)) -> 1 as Im tau grows."""
    with ctx256.work():
        pt = _pt(0, 40, ctx256)
        pref = mp.sqrt(2 * mp.pi) * mp.exp(mp.mpc(0, mp.pi) / 4)
        q24 = mp.exp(mp.mpc(0, mp.pi) * pt.tau / 12)
        assert abs(eta(pt) / (pref * q24) - 1) < ctx256.eps


@pytest.mark.parametrize("bits, eps", [(64, "1e-10"), (256, "1e-40"), (1536, "1e-400")])
def test_euler_sum_within_its_budget_of_twice_the_width(bits, eps):
    """The Euler product (``_triple`` at (q^3, q)) lies within 11 units
    2^-W of the same sum over the same q at width 2W (the bound the qseries
    module docstring states): at the Im floor, in F and at a large Re tau."""
    ctx = PrecisionContext(bits, eps)
    w = ctx.bits + qseries.FX_GUARD
    wide = PrecisionContext(2 * w - qseries.FX_GUARD, eps)
    taus = [(0, "0.05"), ("0.5", "0.05"), ("-0.5", "0.05"), (0, 1),
            ("-0.5", "0.8660254037844386"), ("0.3", "1.2"), ("0.17", "3.5"),
            ("12345.25", "0.05"), ("1000000.5", "0.7")]
    for tau in taus:
        pt = _pt(*tau, ctx)
        er, ei = pt._euler_fx
        fr, fi = ModularPoint.from_complex(pt.tau, wide)._euler_fx
        assert pt.width == w and abs(complex(er - (fr >> w), ei - (fi >> w))) <= 11


def test_eta24_equals_delta_random(ctx256):
    with ctx256.work():
        for re, im in _random_taus(20):
            pt = _pt(re, im, ctx256)
            d = delta(pt)
            assert abs(eta(pt) ** 24 - d) / abs(d) < ctx256.eps


def test_eta24_shift_invariance(ctx256):
    with ctx256.work():
        pt = _pt(0.21, 1.4, ctx256)
        pt1 = ModularPoint.from_complex(pt.tau + 1, ctx256)
        a, b = eta(pt) ** 24, eta(pt1) ** 24
        assert abs(a - b) / abs(a) < ctx256.eps


def test_eta_truncation_doubling(ctx256):
    """Doubling the truncation index moves eta(theta) by far less than eps
    at theta of discriminant -39, and eta is the converged product: it
    matches the 2m-term product evaluated at twice the bits to 2^-(bits-4)."""
    pt = ModularPoint.from_quadratic(1, 1, -39, ctx256)
    m = pt.terms()

    def eta_with_terms(k):
        acc = mp.mpc(1)
        qn = mp.mpc(1)
        q = mp.exp(2j * mp.pi * pt.tau)
        for _ in range(k):
            qn *= q
            acc *= 1 - qn
        pref = mp.sqrt(2 * mp.pi) * mp.exp(mp.mpc(0, mp.pi) / 4)
        return pref * mp.exp(mp.mpc(0, mp.pi) * pt.tau / 12) * acc

    with ctx256.work():
        assert abs(eta_with_terms(m) - eta_with_terms(2 * m)) < ctx256.eps
        value = eta(pt)
    with mp.workprec(2 * ctx256.bits):
        ref = eta_with_terms(2 * m)
        assert abs(value - ref) <= mp.mpf(2) ** (4 - ctx256.bits) * abs(ref)


# ------------------------------------------------------------- eisenstein ---

def test_g2_vanishes_at_zeta3(ctx256):
    with ctx256.work():
        zt3 = mp.exp(2j * mp.pi / 3)
        g2, _ = eisenstein(ModularPoint.from_complex(zt3, ctx256))
        assert abs(g2) < ctx256.eps


def test_g3_vanishes_at_i(ctx256):
    with ctx256.work():
        _, g3 = eisenstein(_pt(0, 1, ctx256))
        assert abs(g3) < ctx256.eps


@pytest.mark.parametrize("tau", [(0, 1), (0.5, 0.5)])
def test_eisenstein_matches_the_converged_series(ctx256, tau):
    """g2 and g3 within eps * 2^-16 (relative above 1) of the sigma series
    summed to three times its truncation index at 512 bits, also at tau = i
    where g3 vanishes and the prefactor 8 pi^6/27 ~ 285 multiplies every
    error of the series (0.5+0.5i is carried to i by the reduction)."""
    pt = _pt(*tau, ctx256)
    hi = PrecisionContext(512, ctx256.eps)
    with hi.work():
        ref = eisenstein_loop(ModularPoint.from_complex(pt.tau, hi), 3)
        for new, old in zip(eisenstein(pt), ref):
            assert agrees(new, old, ctx256)


@pytest.mark.parametrize("im", [0.05, 0.3])
def test_eisenstein_settles_without_spare_guard_bits(im):
    """At the smallest eps the context allows, 2^(16-bits), the sigma series
    still settles and matches the same truncated series at twice the bits."""
    ctx = PrecisionContext(256, mp.mpf(2) ** -240)
    pt = _pt(0.1234, im, ctx)
    g2, g3 = eisenstein(pt)
    hi = PrecisionContext(512, ctx.eps)
    with hi.work():
        ref = eisenstein_loop(ModularPoint.from_complex(pt.tau, hi))
        for new, old in zip((g2, g3), ref):
            assert abs(new - old) <= mp.mpf(2) ** (4 - ctx.bits) * max(1, abs(old))


def test_discriminant_relation(ctx256):
    with ctx256.work():
        for re, im in _random_taus(8, seed=5):
            pt = _pt(re, im, ctx256)
            g2, g3 = eisenstein(pt)
            d = delta(pt)
            assert abs(g2**3 - 27 * g3**2 - d) / abs(d) < ctx256.eps


def test_weight_transformations(ctx256):
    """g2, g3, delta have weights 4, 6, 12 under tau -> -1/tau."""
    with ctx256.work():
        tau = ctx256.mpc("0.37", "1.21")
        pt = ModularPoint.from_complex(tau, ctx256)
        ptS = ModularPoint.from_complex(-1 / tau, ctx256)
        g2, g3 = eisenstein(pt)
        G2, G3 = eisenstein(ptS)
        assert abs(G2 - tau**4 * g2) / abs(G2) < ctx256.eps
        assert abs(G3 - tau**6 * g3) / abs(G3) < ctx256.eps
        assert abs(delta(ptS) - tau**12 * delta(pt)) / abs(delta(ptS)) < ctx256.eps


# --------------------------------------------------------------------- j ---

def test_j_special_values(ctx256):
    with ctx256.work():
        assert abs(j_invariant(_pt(0, 1, ctx256)) - 1728) < mp.mpf("1e-30")
        zt3 = mp.exp(2j * mp.pi / 3)
        assert abs(j_invariant(ModularPoint.from_complex(zt3, ctx256))) < mp.mpf("1e-30")


def test_j_q_expansion_coefficients(ctx256):
    """Constant term 744 and linear coefficient 196884 from two heights."""
    with ctx256.work():
        t1, t2 = mp.mpf("3.2"), mp.mpf(4)
        vals = []
        for t in (t1, t2):
            pt = _pt(0, t, ctx256)
            q = mp.re(pt.q)
            vals.append((q, mp.re(j_invariant(pt)) - 1 / q))
        (q1, j1), (q2, j2) = vals
        c1 = (j1 - j2) / (q1 - q2)
        c0 = j1 - c1 * q1
        assert abs(c0 - 744) / 744 < mp.mpf("1e-6")
        assert abs(c1 - 196884) / 196884 < mp.mpf("1e-6")


def test_j_modular_invariance(ctx256):
    with ctx256.work():
        tau = ctx256.mpc("0.29", "1.13")
        a = j_invariant(ModularPoint.from_complex(tau, ctx256))
        b = j_invariant(ModularPoint.from_complex(tau + 1, ctx256))
        c = j_invariant(ModularPoint.from_complex(-1 / tau, ctx256))
        assert abs(a - b) < ctx256.eps * max(1, abs(a))
        assert abs(a - c) < ctx256.eps * max(1, abs(a))


# ---------------------------------------------------------------- siegel ---

def test_siegel_transformation_laws(ctx256):
    """g o S = zeta_12^9 g_{(r2,-r1)} and g o T = zeta_12 g_{(r1,r1+r2)}."""
    rng = random.Random(11)
    with ctx256.work():
        for _ in range(6):
            num1, num2 = rng.randrange(1, 12), rng.randrange(1, 12)
            r = FractionPair(F(num1, 12), F(num2, 12))
            tau = ctx256.mpc(str(rng.uniform(-0.4, 0.4)), str(rng.uniform(1.0, 1.8)))
            pt = ModularPoint.from_complex(tau, ctx256)
            ptS = ModularPoint.from_complex(-1 / tau, ctx256)
            ptT = ModularPoint.from_complex(tau + 1, ctx256)
            lhs = siegel(r, ptS)
            rhs = mp.mpc(0, -1) * siegel(FractionPair(r.r2, -r.r1), pt)
            assert abs(lhs - rhs) / abs(lhs) < ctx256.eps
            lhs = siegel(r, ptT)
            rhs = mp.exp(mp.mpc(0, mp.pi) / 6) * siegel(
                FractionPair(r.r1, r.r1 + r.r2), pt)
            assert abs(lhs - rhs) / abs(lhs) < ctx256.eps


def test_siegel_abs_invariant_under_integer_shift(ctx256):
    with ctx256.work():
        pt = _pt(0.17, 1.4, ctx256)
        r = FractionPair(F(2, 7), F(3, 7))
        base = abs(siegel(r, pt))
        for s1, s2 in ((1, 0), (0, -2), (3, 5), (-1, -1)):
            shifted = FractionPair(r.r1 + s1, r.r2 + s2)
            assert abs(abs(siegel(shifted, pt)) - base) / base < ctx256.eps


def test_siegel_12n_power_well_defined(ctx256):
    """g^{12N} is invariant under negation and integer index shifts."""
    with ctx256.work():
        pt = _pt(-0.08, 1.22, ctx256)
        r = FractionPair(F(1, 5), F(3, 5))
        n = r.level
        a = siegel(r, pt) ** (12 * n)
        b = siegel(r.negated(), pt) ** (12 * n)
        c = siegel(FractionPair(r.r1 + 3, r.r2 - 2), pt) ** (12 * n)
        assert abs(a - b) / abs(a) < ctx256.eps
        assert abs(a - c) / abs(a) < ctx256.eps


def test_siegel_nonvanishing(ctx256):
    with ctx256.work():
        for re, im in _random_taus(6, seed=3):
            pt = _pt(re, im, ctx256)
            assert abs(siegel(FractionPair.from_parts(0, 1, 5), pt)) > 0
            assert abs(eta(pt)) > 0
            assert abs(delta(pt)) > 0


SIEGEL_MEMO_INDICES = [
    FractionPair(F(1, 8), F(3, 8)), FractionPair(F(9, 8), F(-5, 8)),
    FractionPair(F(-1, 8), F(3, 8)), FractionPair(F(-7, 5), F(-2, 5)),
    FractionPair(F(0), F(1, 7)), FractionPair(F(3), F(-6, 7)),
    FractionPair(F(1, 2), F(0)), FractionPair(F(-3, 2), F(-1)),
]


def test_siegel_memo_returns_the_fresh_value(ctx256):
    """On a point whose memo already holds the reduced value, siegel returns
    what a fresh point with cold caches computes, bit for bit."""
    warm = _pt(0.1234, 1.1, ctx256)
    for r in SIEGEL_MEMO_INDICES:
        siegel(r, warm)
    entries = sum(len(tab.siegels) for tab in warm._tables.values())
    assert entries < len(SIEGEL_MEMO_INDICES)  # shared reduced keys
    for r in SIEGEL_MEMO_INDICES:
        assert siegel(r, warm) == siegel(r, _pt(0.1234, 1.1, ctx256))


def test_siegel_product_runs_once_per_reduced_index(ctx256, siegel_product_runs):
    """One Siegel product per pair of reduced indices +-r, at the canonical
    key, however often and in whichever spelling the indices are asked for."""
    pt = _pt(-0.3, 1.1, ctx256)
    for _ in range(2):
        for r in SIEGEL_MEMO_INDICES:
            siegel(r, pt)
    reduced = set()
    for r in SIEGEL_MEMO_INDICES:
        a1, a2 = r.r1 % 1, r.r2 % 1
        reduced.add(_folded_key(*_reference_key(a1, a2)))
    assert sorted(k for _, k in siegel_product_runs) == sorted(reduced)


@pytest.mark.parametrize("one, other", [
    (FractionPair(F(1, 2), F(1, 4)), FractionPair.from_parts(6, 3, 12)),
    (FractionPair(F(-9, 8), F(4, 3)), FractionPair.from_parts(-54, 64, 48)),
    (FractionPair(F(5, 7), F(-3, 7)), FractionPair.from_parts(20, -12, 28)),
    (FractionPair(F(3, 2), F(9, 4)), FractionPair("6/4", "18/8")),
], ids=["reduced", "shifted", "negative", "shifted-both"])
def test_index_spellings_hit_one_memo_entry(ctx256, siegel_product_runs, one, other):
    """Two spellings of one index run the Siegel product once and return
    identical values; so does wp."""
    pt = _pt(0.1234, 1.1, ctx256)
    assert siegel(one, pt) == siegel(other, pt)
    assert len(siegel_product_runs) == 1
    a1, a2 = one.r1 % 1, one.r2 % 1
    assert siegel_product_runs[0][1] == _folded_key(*_reference_key(a1, a2))
    assert wp(one, pt) == wp(other, pt)


def _sweep_indices(levels):
    """Every index (p1/n, p2/n) outside Z^2 with p1, p2 in [-n, 2n), n in
    levels: each reduced index in nine spellings, (0, t/n) included."""
    for n in levels:
        for p1 in range(-n, 2 * n):
            for p2 in range(-n, 2 * n):
                if p1 % n or p2 % n:
                    yield FractionPair.from_parts(p1, p2, n)


@pytest.mark.parametrize("tau", [(0.1234, 1.1), (-0.41, 0.06)])
def test_negated_index_negates_siegel_and_keeps_wp_bit_for_bit(ctx256, tau):
    """g_{-r} = -g_r and wp(-z) = wp(z) hold bit for bit: r and -r read one
    entry of the level table, at the canonical key, and the sign enters as
    a half turn of the root of unity."""
    pt = _pt(*tau, ctx256)
    for r in _sweep_indices(range(2, 9)):
        re, im = siegel(r, pt)._mpc_
        assert siegel(r.negated(), pt)._mpc_ == (mpf_neg(re), mpf_neg(im)), r
        assert wp(r.negated(), pt)._mpc_ == wp(r, pt)._mpc_, r
        # before rounding too: the W-bit integers are exact negatives
        tab = pt._table(r.level)
        (gr, gi, w, e), (hr, hi, v, f) = _cut_entry(pt, r), _cut_entry(pt, r.negated())
        assert (w, tab.rotate((hr, hi), f)) == (v, tuple(-x for x in tab.rotate((gr, gi), e))), r


def test_wp_on_a_point_warmed_by_siegel_is_the_cold_value(ctx256, monkeypatch):
    """wp at an index reads the triple-product sum that siegel left in the
    point's memo, runs no sum of its own, and returns what a cold point
    computes, bit for bit."""
    warm = _pt(0.1234, 1.1, ctx256)
    for r in SIEGEL_MEMO_INDICES:
        siegel(r, warm)
    cold = [wp(r, _pt(0.1234, 1.1, ctx256)) for r in SIEGEL_MEMO_INDICES]
    monkeypatch.setattr(qseries, "_triple", None)
    assert [wp(r, warm) for r in SIEGEL_MEMO_INDICES] == cold


# ------------------------------------------------- the fixed-point y kernel ---

Y_INDICES = [
    FractionPair(F(1, 8), F(3, 8)), FractionPair(F(9, 8), F(-5, 8)),
    FractionPair(F(-7, 5), F(-2, 5)), FractionPair(F(0), F(1, 7)),
    FractionPair(F(3), F(-6, 7)), FractionPair(F(5, 6), F(-7, 6)),
    FractionPair(F(3, 4), F(9, 4)), FractionPair(F(-1, 4), F(1, 2)),
]


def test_y_on_a_warm_point_is_the_cold_value(ctx256):
    """y from either caller's spelling, and x, on a point whose memo and
    tables are warm, equal the values on a fresh point, bit for bit."""
    warm = _pt(0.1234, 1.1, ctx256)
    for r in Y_INDICES:
        siegel(r, warm)
        siegel(r.doubled(), warm)
        y_value(warm, r.negated())
        x_value(warm, r.negated())
        wp(r, warm)
    for r in Y_INDICES:
        # 2r reduced into [0,1)^2, as conjugate_values spells its numerator
        d = FractionPair.from_parts(2 * r.p1 % r.level, 2 * r.p2 % r.level, r.level)
        cold = _pt(0.1234, 1.1, ctx256)
        assert y_value(warm, r) == y_value(cold, r)
        assert y_quotient(warm, r, d) == y_quotient(_pt(0.1234, 1.1, ctx256), r, d)
        assert x_value(warm, r) == x_value(cold, r)


def test_y_divides_no_mpmath_numbers(ctx256, monkeypatch):
    """Neither y nor x divides by an mpmath number, at any index or in an
    orbit: each is one exact integer quotient."""
    divisors = []
    for cls in (mp.mpf, mp.mpc):
        for name in ("__truediv__", "__rtruediv__"):
            body = getattr(cls, name)

            def counted(a, b, body=body, right=name == "__rtruediv__"):
                den = a if right else b
                if isinstance(den, (mp.mpf, mp.mpc)):
                    divisors.append(den)
                return body(a, b)

            monkeypatch.setattr(cls, name, counted)
    pt = _pt(0.1234, 1.1, ctx256)
    for r in Y_INDICES:
        y_value(pt, r)
    conjugate_values(make_field(-39), 8, "y4", ctx256)
    for r in Y_INDICES:
        x_value(pt, r)
    conjugate_values(make_field(-39), 8, "pair", ctx256)
    assert divisors == []


@pytest.mark.parametrize("descriptor", ["y12N", "y4", "pair"])
def test_orbits_raise_y_to_no_mpmath_power(ctx256, monkeypatch, descriptor):
    """The powers y^(4/gcd(4, N)) and y^(12N) of an orbit are taken in
    exact integers and rounded once (``y_quotient``): no mpmath power runs,
    and each value is the fixed-point quotient's power, rounded."""
    powers = []
    for cls in (mp.mpf, mp.mpc):
        body = cls.__pow__

        def counted(a, b, body=body):
            powers.append(b)
            return body(a, b)

        monkeypatch.setattr(cls, "__pow__", counted)
    f, n = make_field(-39), 5
    orbit = conjugate_values(f, n, descriptor, ctx256)
    assert powers == []
    monkeypatch.undo()
    k = 12 * n if descriptor == "y12N" else 4
    base1, base2 = FractionPair.from_parts(0, 1, n), FractionPair.from_parts(0, 2, n)
    for label, v in orbit[:6]:
        pt = ModularPoint.from_quadratic(label.form.a, label.form.b, f.d, ctx256)
        m = label.composite(n)
        y = y_quotient(pt, act_index(base1, m), act_index(base2, m), k)
        assert (v[1] if descriptor == "pair" else v) == y
        with ctx256.work():
            y1 = y_quotient(pt, act_index(base1, m), act_index(base2, m))
            assert abs(y1 ** k - y) <= mp.ldexp(4 * k, -ctx256.bits) * abs(y)


def test_level_tables_take_rho_only_for_powers_q24_cannot_give(ctx256, monkeypatch):
    """siegel and wp at every index in (1/12)Z^2 make one table per level of
    the reduced index.  A table takes rho = q^(1/12 N^2) only for a power
    rho^k with N^2 not dividing 2k; the others are powers of the point's
    one exponential, exp(2 pi i tau/24).  Every w-term of levels dividing 24
    is such a power, and the prefactor q^(B2(s/N)/2) is one for N^2 | 12 s^2:
    always at level 2, which takes no rho, and at s = 1 nowhere else.  Each
    table also takes xi = exp(2 pi i/(12 N^2)).  A second sweep builds no
    table and takes no exponential."""
    pt = _pt(0.1234, 1.1, ctx256)
    exps, dens = [], []
    real_exp, real_exp_tau = mp.exp, qseries._exp_tau
    monkeypatch.setattr(mp, "exp", lambda z: exps.append(z) or real_exp(z))
    monkeypatch.setattr(qseries, "_exp_tau",
                        lambda tau, den, prec: dens.append(den) or real_exp_tau(tau, den, prec))
    _unit_root_fx.cache_clear()
    indices = [FractionPair.from_parts(s, t, 12)
               for s in range(12) for t in range(12) if (s, t) != (0, 0)]
    for r in indices:
        siegel(r, pt)
        wp(r, pt)
    tables = dict(pt._tables)
    assert sorted(tables) == [2, 3, 4, 6, 12]
    with_rho = [n for n in sorted(tables) if tables[n].rho is not None]
    assert with_rho == [3, 4, 6, 12]
    assert len(exps) == 1 + len(with_rho) + len(tables)
    assert sorted(dens) == [24] + [12 * n * n for n in with_rho]
    for r in indices:
        siegel(r, pt)
        wp(r, pt)
    assert len(exps) == 1 + len(with_rho) + len(tables) and len(dens) == 1 + len(with_rho)
    assert all(pt._tables[n] is tab for n, tab in tables.items())
    assert len(pt._tables) == len(tables)


def test_level_table_power_source_does_not_depend_on_request_order(ctx256):
    """rho^k comes from q^(1/24) exactly when N^2 | 2k, whichever keys came
    first: two points at one tau, swept in opposite orders, give the same
    siegel, wp, x and y bit for bit.  At level 8 every w-term is a power of
    q^(1/24), and the prefactor rho^k, k = 6 s^2 - 48 s + 64, is one only
    for s = 0 and 4, where 64 | 12 s^2: only the other keys take rho."""
    n = 8
    keys = [(s, t) for s in range(n) for t in range(n) if (s, t) != (0, 0)]
    values = []
    for order in (keys, keys[::-1]):
        pt = _pt(0.41, 0.06, ctx256)
        got = {}
        for s, t in order:
            r = FractionPair.from_parts(s, t, n)
            got[s, t] = [siegel(r, pt), wp(r, pt), x_value(pt, r)]
            if r.doubled() is not None:
                got[s, t].append(y_value(pt, r))
        values.append({k: [v._mpc_ for v in vals] for k, vals in got.items()})
    assert values[0] == values[1]
    pt = _pt(0.41, 0.06, ctx256)
    tab = qseries._LevelTable(pt, n)
    for s in range(n):
        tab.w_terms(pt, s, 1, pt.width)
    for s in (0, 4):
        tab.prefactor(pt, s, 1)
    assert tab.rho is None
    tab.prefactor(pt, 2, 1)
    assert tab.rho is not None


def test_level_table_fills_only_what_a_key_needs(ctx256):
    """One key at N = 100003 makes O(log N) entries in the powers it reads
    (rho's, xi's and the point's q^(1/24)'s), not O(N)."""
    n = 100003
    pt = _pt(0.1, 1.1, ctx256)
    siegel(FractionPair.from_parts(1, 5, n), pt)
    wp(FractionPair.from_parts(1, 5, n), pt)
    tab = pt._tables[n]
    entries = sum(len(p.squares) + len(p.values) for p in (tab.rho, tab.z, pt._q24))
    assert entries <= 4 * (12 * n * n).bit_length()


def _held_ints(obj):
    """Every int held by obj, through tuples, lists, dicts and the
    attributes of plain objects."""
    if isinstance(obj, int):
        yield obj
    elif isinstance(obj, (tuple, list)):
        for x in obj:
            yield from _held_ints(x)
    elif isinstance(obj, dict):
        for k, v in obj.items():
            yield from _held_ints(k)
            yield from _held_ints(v)
    elif hasattr(obj, "__dict__"):
        yield from _held_ints(vars(obj))


def test_level_tables_keep_significant_bits_at_the_im_ceiling(ctx256):
    """At tau = 0.3 + 10^6 i, |rho| = |q|^(1/L) is as small as 2^-755000 at
    level 3, yet every integer that the tables of levels 3, 8 and 16 hold
    (the powers of rho, where taken, and of xi, their squares, the (Ev, Od)
    and Siegel memos) and every power of q^(1/24) they read has at most
    bits + 2 bits, bits = W + bitlen(L) + 10 being the precision rho is
    taken at: a table's width is set by significant bits, not by Im tau.
    Level 3 takes rho at s = 1; levels 8 and 16 read only q^(1/24)."""
    pt = _pt(0.3, 10**6, ctx256)
    for n in (3, 8, 16):
        for s in (0, n // 2):
            r = FractionPair.from_parts(s, 1, n)
            siegel(r, pt)
            wp(r, pt)
            x_value(pt, r)
        y_value(pt, r)  # r1 = 1/3 or 1/2, where |g_r| >= 1
        bits = pt.width + (12 * n * n).bit_length() + 10
        assert (pt._tables[n].rho is None) == (n != 3)
        held = list(_held_ints(pt._tables[n])) + list(_held_ints(pt._q24))
        assert len(held) > 20
        assert max(x.bit_length() for x in held) <= bits + 2, n


def test_point_is_freed_without_the_cycle_collector(ctx256):
    """The level tables hold no reference to their point: a point used by
    siegel, wp and y at levels 2, 3, 4, 6 and 12 is freed as soon as its
    last reference is dropped, with the cycle collector off."""
    pt = _pt(0.1234, 1.1, ctx256)
    gc.disable()
    try:
        for s in range(12):
            for t in range(12):
                if (s, t) == (0, 0):
                    continue
                r = FractionPair.from_parts(s, t, 12)
                siegel(r, pt)
                wp(r, pt)
                if r.doubled() is not None:
                    y_value(pt, r)
        assert sorted(pt._tables) == [2, 3, 4, 6, 12]
        ref = weakref.ref(pt)
        del pt
        assert ref() is None
    finally:
        gc.enable()


def test_siegel_order_examples():
    assert siegel_order(FractionPair.from_parts(0, 1, 7)) == F(1, 12)
    assert siegel_order(FractionPair(F(1, 2), F(1, 3))) == F(-1, 24)
    for x in (F(1, 3), F(2, 7), F(-5, 4)):  # B2(<x>) = B2(<1 - x>)
        assert siegel_order(FractionPair(x, 0)) == siegel_order(FractionPair(1 - x, 0))


def test_siegel_order_matches_decay(ctx256):
    """Two-point slope of log|g_{(0,1/5)}(it)| vs -2 pi t equals 1/12."""
    with ctx256.work():
        r = FractionPair.from_parts(0, 1, 5)
        def logabs(t):
            return mp.log(abs(siegel(r, _pt(0, t, ctx256))))
        num = logabs(mp.mpf(10)) - logabs(mp.mpf(5))
        den = -2 * mp.pi * (mp.mpf(10) - mp.mpf(5))
        slope = num / den
        assert abs(slope - F(1, 12)) < mp.mpf("1e-3") / 12
        num = logabs(mp.mpf(20)) - logabs(mp.mpf(10))
        den = -2 * mp.pi * mp.mpf(10)
        assert abs(num / den - F(1, 12)) / F(1, 12) < mp.mpf("1e-3")


# -------------------------------------------------------------------- wp ---

def test_wp_even_and_periodic(ctx256):
    with ctx256.work():
        pt = _pt(0.1, 1.6, ctx256)
        z = ctx256.mpc("0.31", "0.42")
        w0 = wp(z, pt)
        assert abs(wp(-z, pt) - w0) / abs(w0) < ctx256.eps
        assert abs(wp(z + 1, pt) - w0) / abs(w0) < ctx256.eps
        assert abs(wp(z + pt.tau, pt) - w0) / abs(w0) < ctx256.eps


HALF_PERIODS = [FractionPair(F(1, 2), F(0)), FractionPair(F(0), F(1, 2)),
                FractionPair(F(1, 2), F(1, 2))]


@pytest.mark.parametrize("bits, eps", [(256, "1e-40"), (1536, "1e-400")])
@pytest.mark.parametrize("tau", [None, (0.1234, 0.06)], ids=["cm-39", "reduced"])
def test_wp_at_half_periods_are_the_cubic_roots(bits, eps, tau):
    """wp at tau/2, 1/2 and (1 + tau)/2 are the three roots e_k of
    4X^3 - g2 X - g3, and they sum to 0.  wp(1/2) = e1 pins e1 of the theta
    expression; the other two pin the sign of the theta quotient."""
    ctx = PrecisionContext(bits, eps)
    if tau is None:
        pt = ModularPoint.from_quadratic(1, 1, -39, ctx)
    else:
        pt = ModularPoint.from_complex(tau, ctx)
    with ctx.work():
        g2, g3 = eisenstein(pt)
        tol = ctx.eps * max(1, abs(g2), abs(g3))
        roots = [wp(r, pt) for r in HALF_PERIODS]
        for e in roots:
            assert abs(4 * e**3 - g2 * e - g3) <= tol
        assert abs(sum(roots)) <= tol
        assert min(abs(a - b) for a, b in itertools.combinations(roots, 2)) > 1e-3


def test_wp_pole_guard(ctx256):
    with ctx256.work():
        pt = _pt(0, 2, ctx256)
        with pytest.raises(OnLattice):
            wp(ctx256.mpc("1e-25", "0"), pt)


# (tau, (p1, p2), N): the largest level N at which the index (p1/N, p2/N)
# keeps its Ev - Od sum to bits + 8 significant bits, found by bisection.
# The level does not depend on bits: |Ev - Od| at width bits + 32 is about
# 2 pi |E|^3 dist(z, lattice), and (1/N, 0) lies |tau|/N from the lattice.
INDEX_GUARD_EDGES = [
    ((0.3, 1.1), (0, 1), 211023432),
    ((0.1, 0.05), (1, 0), 25200991),
]


@pytest.mark.parametrize("bits", [64, 256])
@pytest.mark.parametrize("tau, p, n", INDEX_GUARD_EDGES, ids=["0.3,1.1", "0.1,0.05"])
def test_index_guard_keeps_relative_bits_up_to_its_edge(bits, tau, p, n):
    """Just inside the edge siegel, wp, x and y match the same evaluators at
    2 bits + 64 to 2^(4 - bits) relative; one level out each raises
    OnLattice, whatever eps is."""
    ctx = PrecisionContext(bits, "0.5")
    hi = PrecisionContext(2 * bits + 64, "0.5")
    evaluators = [lambda r, pt: siegel(r, pt), lambda r, pt: wp(r, pt),
                  lambda r, pt: x_value(pt, r), lambda r, pt: y_value(pt, r)]
    r = FractionPair.from_parts(*p, n)
    pt, ref = _pt(*tau, ctx), _pt(*tau, hi)
    with hi.work():
        for f in evaluators:
            want = f(r, ref)
            assert abs(f(r, pt) - want) <= mp.ldexp(abs(want), 4 - bits)
    out = FractionPair.from_parts(*p, n + 1)
    for f in evaluators:
        with pytest.raises(OnLattice):
            f(out, _pt(*tau, ctx))


def test_wp_cubic_residual(ctx256):
    """(wp')^2 = 4 wp^3 - g2 wp - g3 at z = 0.3 tau + 0.2, tau = 2i."""
    with ctx256.work():
        pt = _pt(0, 2, ctx256)
        g2, g3 = eisenstein(pt)
        z = mp.mpf("0.3") * pt.tau + mp.mpf("0.2")
        p = wp(z, pt)
        dp = wp_prime(FractionPair(F(3, 10), F(1, 5)), pt)
        res = abs(dp**2 - (4 * p**3 - g2 * p - g3)) / max(1, abs(4 * p**3))
        assert res < ctx256.eps


# --------------------------------------------------------------- wp_prime ---

def test_wp_prime_vanishes_at_two_torsion(ctx256):
    with ctx256.work():
        pt = _pt(0, 2, ctx256)
        for r in (FractionPair(F(1, 2), F(0)), FractionPair(F(1, 2), F(1, 2)),
                  FractionPair(F(0), F(1, 2))):
            assert wp_prime(r, pt) == 0


def test_wp_prime_matches_finite_difference(ctx256):
    with ctx256.work():
        cases = [
            (FractionPair(F(0), F(1, 5)), _pt(0, 2, ctx256)),
            (FractionPair(F(3, 10), F(1, 5)), _pt(0.3, 1.7, ctx256)),
            (FractionPair(F(1, 7), F(2, 7)), _pt(-0.25, 1.1, ctx256)),
        ]
        h = ctx256.mpf("1e-12")
        for r, pt in cases:
            z = pt.tau * mp.mpf(r.r1.numerator) / r.r1.denominator \
                + mp.mpf(r.r2.numerator) / r.r2.denominator
            fd = (wp(z + h, pt) - wp(z - h, pt)) / (2 * h)
            sq = wp_prime(r, pt)
            assert abs(fd - sq) / max(1, abs(sq)) < mp.mpf("1e-20")


def test_wp_prime_odd(ctx256):
    with ctx256.work():
        pt = _pt(0.11, 1.9, ctx256)
        r = FractionPair(F(1, 5), F(2, 5))
        a = wp_prime(r, pt)
        b = wp_prime(r.negated(), pt)
        assert abs(a + b) / abs(a) < ctx256.eps


# ------------------------------------------------------------- normalized ---

def test_normalized_identities(ctx256):
    with ctx256.work():
        for (re, im), n in zip(_random_taus(4, seed=99), (5, 8, 9, 12)):
            pt = _pt(re, im, ctx256)
            u, v, x, y = normalized(pt, FractionPair.from_parts(0, 1, n))
            assert abs(u - 27 * v**2 - 1) < ctx256.eps
            lhs = u * v**3 * y**2
            rhs = 4 * x**3 - u * v**2 * x - u * v**4
            assert abs(lhs - rhs) / max(1, abs(4 * x**3)) < ctx256.eps


def test_y_eta6_equals_wp_prime(ctx256):
    with ctx256.work():
        pt = _pt(0.21, 1.33, ctx256)
        r = FractionPair.from_parts(0, 1, 8)
        assert wp_prime(r, pt) == y_value(pt, r) * eta(pt) ** 6


def test_u_is_j_over_1728(ctx256):
    with ctx256.work():
        pt = _pt(-0.4, 2.2, ctx256)
        assert abs(u_value(pt) - j_invariant(pt) / 1728) < ctx256.eps * abs(u_value(pt))


def test_normalized_composes_the_four_evaluators(ctx256):
    rng = random.Random(7)
    indices = [FractionPair.from_parts(0, 1, 8), FractionPair(F(1, 8), F(3, 8)),
               FractionPair(F(2, 7), F(-3, 7)), FractionPair(F(1, 5), F(0))]
    for re, im in _random_taus(6, seed=31, im_range=(0.06, 2.0)):
        pt = _pt(re, im, ctx256)
        r = rng.choice(indices)
        assert normalized(pt, r) == CurveCoords(
            u_value(pt), v_value(pt), x_value(pt, r), y_value(pt, r))


def test_normalized_rejects_two_torsion(ctx256):
    with pytest.raises(DegenerateIndex):
        normalized(_pt(0, 2, ctx256), FractionPair(F(1, 2), F(0)))


# ---------------------------------------------------- precision doubling ---

def test_precision_doubling_stability():
    """Re-evaluating at 2x bits moves results by far less than eps."""
    lo = PrecisionContext(256, "1e-40")
    hi = PrecisionContext(512, "1e-40")
    r = FractionPair.from_parts(0, 1, 8)
    vals = {}
    for name, ctx in (("lo", lo), ("hi", hi)):
        pt = ModularPoint.from_complex(("0.3", "1.7"), ctx)
        with ctx.work():
            vals[name] = (
                mp.mpc(eta(pt)), mp.mpc(delta(pt)), mp.mpc(siegel(r, pt)),
                mp.mpc(wp(mp.mpf("0.3") * pt.tau + mp.mpf("0.2"), pt)),
            )
    with hi.work():
        for a, b in zip(vals["lo"], vals["hi"]):
            assert abs(a - b) < lo.eps * max(1, abs(b))
