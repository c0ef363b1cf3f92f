"""Cross-checks of the fast q-series paths against the oracles.

The lattice-sum oracles (tests/oracles.py) evaluate the defining
sums/products directly at float64; radii are fixed and a radius-doubling
consistency check guards their own truncation level.  Tolerances against
them are oracle-limited, not eps.  The reference loops sum the q-series term
by term in mpmath at the input tau; the evaluators must match them as
``oracles.matches_loop`` says.
"""

import math
import random
from fractions import Fraction as F

import mpmath as mp
import pytest

from rayclass import (
    FractionPair,
    ModularPoint,
    PrecisionContext,
    conjugate_values,
    delta,
    eisenstein,
    eta,
    j_invariant,
    make_field,
    siegel,
    u_value,
    v_value,
    wp,
    x_value,
    y_value,
)
from rayclass.reciprocity import act_index

from oracles import (
    agrees,
    delta_loop,
    eisenstein_loop,
    eta_loop,
    g2g3_lattice,
    klein_lattice,
    matches_loop,
    quasi_periods,
    siegel_loop,
    wp_lattice,
    wp_loop,
)

TAU = complex(0.23, 1.31)


def _pt(ctx, tau=TAU):
    return ModularPoint.from_complex(tau, ctx)


def test_oracle_radius_stability():
    a = wp_lattice(0.3 * TAU + 0.2, TAU, 200)
    b = wp_lattice(0.3 * TAU + 0.2, TAU, 400)
    assert abs(a - b) < 2e-4


def test_oracle_legendre_relation():
    """eta2 * tau - eta1 = 2 pi i for the quasi-periods of [tau, 1]."""
    e1, e2 = quasi_periods(TAU, 400)
    assert abs((e2 * TAU - e1) - 2j * 3.141592653589793) < 1e-4


def test_wp_against_lattice_sum(ctx256):
    with ctx256.work():
        pt = _pt(ctx256)
        for z in (0.3 * TAU + 0.2, 0.11 + 0.4j, 0.5 * TAU + 0.5):
            fast = complex(wp(mp.mpc(z), pt))
            slow = wp_lattice(z, TAU, 400)
            assert abs(fast - slow) / abs(fast) < 1e-4


def test_g2_g3_against_lattice_sums(ctx256):
    with ctx256.work():
        g2, g3 = eisenstein(_pt(ctx256))
        G2, G3 = g2g3_lattice(TAU, 600)
        assert abs(complex(g2) - G2) / abs(G2) < 1e-5
        assert abs(complex(g3) - G3) / abs(G3) < 1e-5


def test_delta_at_i_from_lattice(ctx256):
    """delta(i) = g2(i)^3 via lattice sums (g3(i) = 0); eta^24 = delta."""
    with ctx256.work():
        pt = _pt(ctx256, 1j)
        g2l, g3l = g2g3_lattice(1j, 600)
        assert abs(g3l) < 1e-6
        d = complex(delta(pt))
        assert abs(d - g2l**3) / abs(d) < 1e-4
        assert abs(complex(eta(pt) ** 24) - d) / abs(d) < 1e-30


@pytest.mark.parametrize("r1,r2,tau", [
    (F(0), F(1, 2), 1j),
    (F(0), F(1, 2), TAU),
    (F(1, 4), F(1, 3), TAU),
    (F(2, 5), F(4, 5), complex(-0.31, 1.52)),
])
def test_siegel_against_klein_sigma_route(ctx256, r1, r2, tau):
    """g = (Klein form from the sigma product) * eta^2, eta validated above."""
    with ctx256.work():
        pt = _pt(ctx256, tau)
        fast = complex(siegel(FractionPair(r1, r2), pt))
        k = klein_lattice(float(r1), float(r2), tau, 500)
        slow = k * complex(eta(pt)) ** 2
        assert abs(fast - slow) / abs(fast) < 1e-4


# ------------------------------------------ fixed-point kernels vs loops ---

AGREEMENT_CTX = {
    "256": PrecisionContext(256, "1e-40"),
    "1536": PrecisionContext(1536, "1e-400"),
}
AGREEMENT_TAUS = [(re, im) for im in (0.05, 0.06, 0.3, 0.866, 2.0)
                  for re in (-0.5, 0.1234, 0.5)]
SIEGEL_REDUCED = FractionPair(F(7, 8), F(1, 3))
SIEGEL_SHIFTED = FractionPair(F(-9, 8), F(4, 3))  # same reduced index
X_INDEX = FractionPair(F(1, 3), F(0))


def _near_lattice(pt):
    """tau minus a step of 1e-10, so that q^n / u is close to 1 at n = 1.
    (Any evaluation there keeps only 2^-bits / 1e-10 relative accuracy, as
    1 - q/u cancels; nearer points would test that loss, not the kernel.)"""
    return pt.tau - mp.mpc(0.6, 0.8) * mp.mpf("1e-10")


def _x_ref(r, pt, k):
    """g2 g3 wp(r1 tau + r2) / delta from the reference loops."""
    g2, g3 = eisenstein_loop(pt, k)
    return g2 * g3 * wp_loop(pt.at(r), pt, k) / delta_loop(pt, k)


AGREEMENT_CASES = {
    "eta": (eta, eta_loop),
    "delta": (delta, delta_loop),
    "g2": (lambda pt: eisenstein(pt)[0], lambda pt, k: eisenstein_loop(pt, k)[0]),
    "g3": (lambda pt: eisenstein(pt)[1], lambda pt, k: eisenstein_loop(pt, k)[1]),
    "siegel_reduced": (lambda pt: siegel(SIEGEL_REDUCED, pt),
                       lambda pt, k: siegel_loop(SIEGEL_REDUCED, pt, k)),
    "siegel_shifted": (lambda pt: siegel(SIEGEL_SHIFTED, pt),
                       lambda pt, k: siegel_loop(SIEGEL_SHIFTED, pt, k)),
    "wp_far": (lambda pt: wp(0.37 * pt.tau + 0.61, pt),
               lambda pt, k: wp_loop(0.37 * pt.tau + 0.61, pt, k)),
    "wp_near": (lambda pt: wp(_near_lattice(pt), pt),
                lambda pt, k: wp_loop(_near_lattice(pt), pt, k)),
    "j": (j_invariant,
          lambda pt, k: 1728 * eisenstein_loop(pt, k)[0] ** 3 / delta_loop(pt, k)),
    "u": (u_value, lambda pt, k: eisenstein_loop(pt, k)[0] ** 3 / eta_loop(pt, k) ** 24),
    "v": (v_value, lambda pt, k: eisenstein_loop(pt, k)[1] / eta_loop(pt, k) ** 12),
    "x": (lambda pt: x_value(pt, X_INDEX), lambda pt, k: _x_ref(X_INDEX, pt, k)),
}


@pytest.mark.parametrize("prec", sorted(AGREEMENT_CTX))
@pytest.mark.parametrize("tau", AGREEMENT_TAUS, ids="{0[0]},{0[1]}".format)
@pytest.mark.parametrize("name", sorted(AGREEMENT_CASES))
def test_fixed_point_kernels_match_reference_loops(name, tau, prec):
    """Each evaluator agrees with the term-by-term mpmath loop at tau
    (``matches_loop``)."""
    ctx = AGREEMENT_CTX[prec]
    kernel, loop = AGREEMENT_CASES[name]
    pt = ModularPoint.from_complex(tau, ctx)
    with ctx.work():
        assert matches_loop(kernel(pt), lambda k: loop(pt, k), tau[1], ctx)


# Where the quotient of j and u is extreme: i/20, where (theta_3 theta_4)^8
# is about 1e-42, and hcp's extreme CM points in d in [-2000, -7], the form
# (1, 1, 500) of -1999 (Im tau 22.4, |q| about 1e-61 or 2^-203) and
# (25, 24, 25) of -1924, the largest a (Im tau 0.877).
J_U_EXTREMES = {
    "i/20": lambda ctx: ModularPoint.from_complex((0, 0.05), ctx),
    "1,1,-1999": lambda ctx: ModularPoint.from_quadratic(1, 1, -1999, ctx),
    "25,24,-1924": lambda ctx: ModularPoint.from_quadratic(25, 24, -1924, ctx),
}


@pytest.mark.parametrize("prec", sorted(AGREEMENT_CTX))
@pytest.mark.parametrize("where", sorted(J_U_EXTREMES))
@pytest.mark.parametrize("name", ["j", "u"])
def test_j_and_u_match_reference_loops_at_extremes(name, where, prec):
    """j and u, one exact integer quotient of the theta sums and q, agree
    with g2^3 / delta from the term-by-term loops (``matches_loop``), and
    within 2^(10 - bits) relative of themselves at 2 bits + 64: no factor
    loses relative bits where it is small."""
    ctx = AGREEMENT_CTX[prec]
    kernel, loop = AGREEMENT_CASES[name]
    pt = J_U_EXTREMES[where](ctx)
    ref = kernel(J_U_EXTREMES[where](PrecisionContext(2 * ctx.bits + 64, ctx.eps)))
    with ctx.work():
        assert matches_loop(kernel(pt), lambda k: loop(pt, k), pt.im, ctx)
    with mp.workprec(2 * ctx.bits + 64):
        assert abs(kernel(pt) - ref) <= mp.mpf(2) ** (10 - ctx.bits) * abs(ref)


@pytest.mark.parametrize("prec", sorted(AGREEMENT_CTX))
def test_j_vanishes_at_zeta3(prec):
    """At zeta_3 = (-1 + sqrt(-3))/2, E4 and so j vanish; the quotient
    keeps j within 1e-30 of 0."""
    ctx = AGREEMENT_CTX[prec]
    pt = ModularPoint.from_quadratic(1, 1, -3, ctx)
    with ctx.work():
        assert abs(j_invariant(pt)) < mp.mpf("1e-30")


@pytest.mark.parametrize("prec", sorted(AGREEMENT_CTX))
@pytest.mark.parametrize("tau", AGREEMENT_TAUS + [(0, 0.05)], ids="{0[0]},{0[1]}".format)
def test_eta24_is_delta_between_independent_sums(tau, prec):
    """eta (the pentagonal sum) and delta (E^12 from the theta sums) meet in
    eta^24 = delta, within 2^-(bits - 8) |delta|; and j = 1728 u exactly.
    At i/20, (theta_3 theta_4)^4 is about 1e-21, so E^12 keeps its relative
    bits only if that product is not formed in fixed point."""
    ctx = AGREEMENT_CTX[prec]
    pt = ModularPoint.from_complex(tau, ctx)
    with ctx.work():
        d = delta(pt)
        assert abs(eta(pt) ** 24 - d) <= mp.mpf(2) ** (8 - ctx.bits) * abs(d)
        assert j_invariant(pt) == 1728 * u_value(pt)


# Next to i, where E6 and so v vanish, and next to rho, where E4 does; the
# floor; Im 10^3; and the Im ceiling 10^6, where |q^(1/2)| is about
# 2^(-4.5e6).
V_TAUS = AGREEMENT_TAUS + [(0, 0.05), ("0.001", "1.0"), ("-0.499", "0.867"),
                           (0, "1e3"), ("0.3", "1e3"), (0, "1e6"), ("0.3", "1e6")]


@pytest.mark.parametrize("prec", sorted(AGREEMENT_CTX))
@pytest.mark.parametrize("tau", V_TAUS, ids="{0[0]},{0[1]}".format)
def test_curve_constants_keep_their_bits_against_twice_the_precision(tau, prec):
    """u, j, delta and eta lie within 2^-(bits - 8) relative of the same
    evaluators at the same tau at 2 bits + 64, also at Im tau = 10^3 and
    10^6, where an exponential of tau taken at ``bits`` alone would lose
    log2(2 pi Im tau) bits."""
    ctx = AGREEMENT_CTX[prec]
    pt = ModularPoint.from_complex(tau, ctx)
    hi = PrecisionContext(2 * ctx.bits + 64, ctx.eps)
    ref = ModularPoint.from_complex(pt.tau, hi)
    with hi.work():
        bound = mp.mpf(2) ** (8 - ctx.bits)
        for value in (u_value, j_invariant, delta, eta):
            want = value(ref)
            assert abs(value(pt) - want) <= bound * abs(want), value.__name__


@pytest.mark.parametrize("prec", sorted(AGREEMENT_CTX))
@pytest.mark.parametrize("tau", V_TAUS, ids="{0[0]},{0[1]}".format)
def test_v_quotient_is_g3_over_eta12(tau, prec):
    """v, one exact quotient of E6, E^12 and q^(1/2), agrees with g3 / eta^12
    from the Eisenstein series and the Euler product within 2^-(bits - 8)
    relative, also at the Im ceiling.  The reference is formed at
    2 bits + 64, where mpmath's power eta^12, which carries about
    12 |log eta| = pi Im tau units of its last bit, stays far below
    2^-bits."""
    ctx = AGREEMENT_CTX[prec]
    pt = ModularPoint.from_complex(tau, ctx)
    hi = PrecisionContext(2 * ctx.bits + 64, ctx.eps)
    ref_pt = ModularPoint.from_complex(pt.tau, hi)
    with hi.work():
        ref = eisenstein(ref_pt)[1] / eta(ref_pt) ** 12
        assert abs(v_value(pt) - ref) <= mp.mpf(2) ** (8 - ctx.bits) * abs(ref)


@pytest.mark.parametrize("prec", sorted(AGREEMENT_CTX))
@pytest.mark.parametrize("im", ["0.05", "0.5", "2", "1e6"])
def test_u_v_delta_are_real_on_the_imaginary_axis(im, prec):
    """At Re tau = 0, q and q^(1/2) are real, so u, v and delta, quotients
    and products of real integers, have an imaginary part of exactly 0."""
    pt = ModularPoint.from_complex((0, im), AGREEMENT_CTX[prec])
    for value in (u_value(pt), v_value(pt), delta(pt)):
        assert mp.im(value) == 0 and mp.re(value) != 0


@pytest.mark.parametrize("prec", sorted(AGREEMENT_CTX))
def test_wp_at_the_lattice_guard_keeps_the_loop_accuracy(prec):
    """At 2^10 sqrt(eps) from tau only about 2^-bits / distance of relative
    accuracy is left, as 1 - q/u cancels; the kernel keeps that much, as
    the term-by-term loop does, against the same series at twice the bits."""
    ctx = AGREEMENT_CTX[prec]
    pt = ModularPoint.from_complex((0.1234, 0.866), ctx)
    with ctx.work():
        dist = 1024 * mp.sqrt(ctx.eps)
        z = pt.tau - mp.mpc(0.6, 0.8) * dist
        new = wp(z, pt)
    hi = PrecisionContext(2 * ctx.bits, ctx.eps)
    with hi.work():
        ref = wp_loop(z, ModularPoint.from_complex(pt.tau, hi))
        assert abs(new - ref) <= mp.mpf(2) ** (4 - ctx.bits) / dist * abs(ref)


# ------------------------------------- level-N tables vs reference loops ---

TABLE_TAUS = [(0.1234, im) for im in (0.05, 0.3, 0.866, 2.0)]
TABLE_SAMPLED = {0.05: 8, 0.3: 3}  # Im(tau) -> check one index in this many


def _reduced_indices(n):
    """Every index (s/N, t/N) in [0,1)^2 except (0, 0)."""
    return [FractionPair.from_parts(s, t, n)
            for s in range(n) for t in range(n) if (s, t) != (0, 0)]


@pytest.mark.parametrize("tau", TABLE_TAUS, ids="{0[1]}".format)
@pytest.mark.parametrize("n", [3, 5, 8, 12])
def test_table_values_match_reference_loops(n, tau):
    """siegel and wp at every reduced index of level dividing N agree with
    the reference loops (which take w and u from mpmath exponentials;
    ``matches_loop``), and so does siegel at the index shifted by (-2, 1)
    and at its negative.
    The loops run ~330 mpmath terms at Im 0.05, ~55 at Im 0.3 and ~19 at
    Im 0.866, so the shifts are checked at Im 2, and below Im 0.866 a seeded
    share of the indices (TABLE_SAMPLED)."""
    ctx = AGREEMENT_CTX["256"]
    pt = ModularPoint.from_complex(tau, ctx)
    indices = _reduced_indices(n)
    if tau[1] in TABLE_SAMPLED:
        k = len(indices) // TABLE_SAMPLED[tau[1]] + 1
        indices = random.Random(n).sample(indices, k)
    with ctx.work():
        for r in indices:
            others = [FractionPair(r.r1 - 2, r.r2 + 1), r.negated()] if tau[1] > 1 else []
            for idx in [r, *others]:
                assert matches_loop(siegel(idx, pt),
                                     lambda k: siegel_loop(idx, pt, k), tau[1], ctx), idx
            assert matches_loop(wp(r, pt), lambda k: wp_loop(pt.at(r), pt, k),
                                 tau[1], ctx), r


def _sampled_indices(seed, count, nmax):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(2, nmax)
        s, t = rng.randrange(-2 * n, 2 * n), rng.randrange(-2 * n, 2 * n)
        if s % n or t % n:
            out.append(FractionPair.from_parts(s, t, n))
    return out


@pytest.mark.parametrize("tau", TABLE_TAUS[2:], ids="{0[1]}".format)
def test_table_values_match_reference_loops_at_1536_bits(tau):
    """A seeded sample of indices of level up to 97, reduced and not."""
    ctx = AGREEMENT_CTX["1536"]
    pt = ModularPoint.from_complex(tau, ctx)
    with ctx.work():
        for r in _sampled_indices(97, 4, 97):
            assert matches_loop(siegel(r, pt), lambda k: siegel_loop(r, pt, k),
                                 tau[1], ctx), r
            assert matches_loop(wp(r, pt), lambda k: wp_loop(pt.at(r), pt, k),
                                 tau[1], ctx), r


@pytest.mark.parametrize("im", [100, 10**3, 10**6])
@pytest.mark.parametrize("r", [FractionPair(F(0), F(1, 5)), FractionPair(F(1, 7), F(2, 7)),
                               FractionPair(F(13, 14), F(-1, 3)), FractionPair(F(1, 2), F(1, 8))],
                         ids=str)
def test_siegel_keeps_relative_accuracy_at_large_im(r, im):
    """At Im(tau) = 100, 10^3 and 10^6 the Siegel values are as small as
    |q|^(1/12) = 2^-(Im(tau) pi / (6 ln 2)), and at r1 = 1/2 as large as
    |q|^(-1/24); the level tables keep significant bits, so siegel, wp, x
    and y stay within a few units of their last bit, against the reference
    loops at twice the bits, however far |g_r^4| falls below eps."""
    ctx = AGREEMENT_CTX["256"]
    pt = ModularPoint.from_complex((0.1234, im), ctx)
    hi = PrecisionContext(2 * ctx.bits, ctx.eps)
    ref = ModularPoint.from_complex(pt.tau, hi)
    cases = [(siegel(r, pt), lambda: siegel_loop(r, ref)),
             (wp(r, pt), lambda: wp_loop(ref.at(r), ref)),
             (x_value(pt, r), lambda: _x_ref(r, ref, 1)),
             (y_value(pt, r), lambda: _y_loop(r, r.doubled(), ref))]
    with hi.work():
        for new, loop in cases:
            want = loop()
            assert abs(new - want) <= mp.mpf(2) ** (4 - ctx.bits) * abs(want)


Q24_LEVELS = [2, 3, 4, 6, 8, 12, 16, 24]
Q24_POINTS = {"0.41,0.06": ("0.41", "0.06"), "0.3,1e6": ("0.3", "1e6"),
              "(1,1,390) of -1559": (1, 1, -1559)}


@pytest.mark.parametrize("where", sorted(Q24_POINTS))
def test_index_values_from_q24_powers_keep_the_index_accuracy(where):
    """At the levels dividing 24 every w-term is a power of the point's
    q^(1/24), and so is the prefactor where N^2 | 12 s^2 (at level 2
    everything): siegel, wp, x and y at every index of levels 2, 3, 4, 6,
    8, 12, 16 and 24 stay within 3.9 2^-bits relative of the same
    evaluators at the same tau at 2 bits + 64 (the qseries module
    docstring's index figure), at Im 0.06, at the Im ceiling and at the
    point of (1, 1, 390) of -1559."""
    ctx = AGREEMENT_CTX["256"]
    spec = Q24_POINTS[where]
    pt = (ModularPoint.from_quadratic(*spec, ctx) if len(spec) == 3
          else ModularPoint.from_complex(spec, ctx))
    hi = PrecisionContext(2 * ctx.bits + 64, ctx.eps)
    ref = ModularPoint.from_complex(pt.tau, hi)
    indices = {r for n in Q24_LEVELS for r in _reduced_indices(n)}
    evaluators = [siegel, wp, lambda r, p: x_value(p, r), lambda r, p: y_value(p, r)]
    with hi.work():
        bound = mp.mpf("3.9") * mp.mpf(2) ** -ctx.bits
        for r in indices:
            for f in evaluators[:4 if r.doubled() is not None else 3]:
                want = f(r, ref)
                assert abs(f(r, pt) - want) <= bound * abs(want), r


# ------------------------------------------------ y and x vs reference loops ---

Y_TAUS = [(0.1234, 0.866), (-0.5, 2.0)]
Y_INDICES = [
    FractionPair(F(1, 5), F(2, 5)),  # reduced, odd level
    FractionPair(F(0), F(1, 7)),
    FractionPair(F(-9, 8), F(5, 8)),  # shifted, level 8: 2r has level 4
    FractionPair(F(5, 6), F(-7, 6)),  # shifted, level 6: 2r has level 3
    FractionPair(F(3, 4), F(9, 4)),  # shifted, level 4: 2r has level 2
]


def _y_loop(r, d, pt):
    """-g_d / g_r^4 from the converged Siegel loops."""
    return -siegel_loop(d, pt, 2) / siegel_loop(r, pt, 2) ** 4


@pytest.mark.parametrize("prec", sorted(AGREEMENT_CTX))
@pytest.mark.parametrize("tau", Y_TAUS, ids="{0[0]},{0[1]}".format)
def test_y_and_x_match_reference_loops(tau, prec):
    """y_value (d = 2r, also where 2r drops to level N/2) and x_value agree
    with the converged reference loops to eps * 2^-16 * max(1, |value|)."""
    ctx = AGREEMENT_CTX[prec]
    pt = ModularPoint.from_complex(tau, ctx)
    with ctx.work():
        for r in Y_INDICES:
            assert agrees(y_value(pt, r), _y_loop(r, r.doubled(), pt), ctx), r
            assert agrees(x_value(pt, r), _x_ref(r, pt, 2), ctx), r


@pytest.mark.parametrize("prec", sorted(AGREEMENT_CTX))
@pytest.mark.parametrize("d, n", [(-7, 4), (-39, 3)])
def test_orbit_y_matches_reference_loops(d, n, prec):
    """The y of ``conjugate_values`` (r2 = (0, 2/N)m, of level N/2 at N = 4)
    in its y12N and pair orbits, and the pair's x, agree with the converged
    reference loops at each label's indices."""
    ctx = AGREEMENT_CTX[prec]
    field = make_field(d)
    pair = conjugate_values(field, n, "pair", ctx)
    y12n = conjugate_values(field, n, "y12N", ctx)
    base1, base2 = FractionPair.from_parts(0, 1, n), FractionPair.from_parts(0, 2, n)
    epow = 4 // math.gcd(4, n)
    points = {}
    with ctx.work():
        for (label, (x, y4)), (_, y) in zip(pair, y12n):
            pt = points.setdefault(label.form, ModularPoint.from_quadratic(
                label.form.a, label.form.b, d, ctx))
            m = label.composite(n)
            r1, r2 = act_index(base1, m), act_index(base2, m)
            ref = _y_loop(r1, r2, pt)
            assert agrees(y4, ref ** epow, ctx), label
            assert agrees(y, ref ** (12 * n), ctx), label
            assert agrees(x, _x_ref(r1, pt, 2), ctx), label


@pytest.mark.parametrize("prec", sorted(AGREEMENT_CTX))
@pytest.mark.parametrize("descriptor", ["y4", "y12N", "x"])
def test_level_16_orbits_match_reference_loops(descriptor, prec):
    """The y4, y12N and x orbits of (-7, 16) agree with the converged
    reference loops at each label's indices, to eps * 2^-16 * max(1,
    |value|): y^192 raised in exact integers and rounded once, and x as one
    exact quotient."""
    ctx = AGREEMENT_CTX[prec]
    d, n = -7, 16
    orbit = conjugate_values(make_field(d), n, descriptor, ctx)
    base1, base2 = FractionPair.from_parts(0, 1, n), FractionPair.from_parts(0, 2, n)
    k = 12 * n if descriptor == "y12N" else 4 // math.gcd(4, n)
    points = {}
    with ctx.work():
        for label, v in orbit:
            pt = points.setdefault(label.form, ModularPoint.from_quadratic(
                label.form.a, label.form.b, d, ctx))
            m = label.composite(n)
            r1 = act_index(base1, m)
            if descriptor == "x":
                ref = _x_ref(r1, pt, 2)
            else:
                ref = _y_loop(r1, act_index(base2, m), pt) ** k
            assert agrees(v, ref, ctx), label
