"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Tolerances are pinned here and nowhere else.
"""

import random
import subprocess
import sys
import time

import mpmath as mp
import pytest

from rayclass import (
    FractionPair,
    ModularPoint,
    PrecisionContext,
    check_T_bound,
    check_curve_point,
    check_elliptic_points,
    check_generation,
    check_lemma51,
    check_lemma52,
    check_surface_point,
    delta,
    eisenstein,
    eta,
    hilbert_class_poly,
    j_invariant,
    make_field,
    ray_class_degree,
    w_group,
    wp,
    wp_prime,
)
from rayclass.classfield import is_fundamental, reduced_forms

CTX = PrecisionContext(256, "1e-40")
CTX300 = PrecisionContext(300, "1e-40")


def _report(num, name, ok, t0, extra=""):
    status = "PASS" if ok else "FAIL"
    msg = f"[{status}] criterion {num}: {name} ({time.perf_counter() - t0:.2f}s)"
    if extra:
        msg += f" {extra}"
    print(msg)
    assert ok, msg


def test_criterion_1_engine_identities():
    """eta^24 = delta and g2^3 - 27 g3^2 = delta at 10 random tau, rel 1e-40,
    under 5 seconds."""
    t0 = time.perf_counter()
    rng = random.Random(193939)
    tol = mp.mpf("1e-40")
    ok = True
    with CTX.work():
        for _ in range(10):
            tau = (rng.uniform(-0.5, 0.5), rng.uniform(0.9, 3.0))
            pt = ModularPoint.from_complex(tau, CTX)
            d = delta(pt)
            g2, g3 = eisenstein(pt)
            ok &= abs(eta(pt) ** 24 - d) / abs(d) < tol
            ok &= abs(g2**3 - 27 * g3**2 - d) / abs(d) < tol
    elapsed = time.perf_counter() - t0
    _report(1, "engine identities at random tau", ok and elapsed < 5.0, t0)


def test_criterion_2_special_values_and_coefficients():
    """j(i) = 1728, j(zeta3) = 0 to 1e-30; q-coefficients 744 and 196884
    recovered from two heights to relative 1e-6."""
    t0 = time.perf_counter()
    with CTX.work():
        ok = abs(j_invariant(ModularPoint.from_complex((0, 1), CTX)) - 1728) \
            < mp.mpf("1e-30")
        zt3 = mp.exp(2j * mp.pi / 3)
        ok &= abs(j_invariant(ModularPoint.from_complex(zt3, CTX))) < mp.mpf("1e-30")
        heights = (mp.mpf("3.2"), mp.mpf(4))
        samples = []
        for t in heights:
            pt = ModularPoint.from_complex((0, t), CTX)
            q = mp.re(pt.q)
            samples.append((q, mp.re(j_invariant(pt)) - 1 / q))
        (q1, j1), (q2, j2) = samples
        c1 = (j1 - j2) / (q1 - q2)
        c0 = j1 - c1 * q1
        ok &= abs(c0 - 744) / 744 < mp.mpf("1e-6")
        ok &= abs(c1 - 196884) / 196884 < mp.mpf("1e-6")
    _report(2, "j special values and q-coefficients", ok, t0)


def test_criterion_3_weierstrass_consistency():
    """wp' (Siegel quotient) vs centered finite difference at 3 points to
    1e-20; cubic residual below 1e-30; under 10 seconds."""
    t0 = time.perf_counter()
    from fractions import Fraction as F

    ok = True
    with CTX.work():
        cases = [
            (FractionPair(F(0), F(1, 5)), (0, 2)),
            (FractionPair(F(3, 10), F(1, 5)), (0.3, 1.7)),
            (FractionPair(F(1, 7), F(2, 7)), (-0.25, 1.1)),
        ]
        h = CTX.mpf("1e-12")
        for r, tau in cases:
            pt = ModularPoint.from_complex(tau, CTX)
            z = pt.tau * mp.mpf(r.r1.numerator) / r.r1.denominator \
                + mp.mpf(r.r2.numerator) / r.r2.denominator
            fd = (wp(z + h, pt) - wp(z - h, pt)) / (2 * h)
            sq = wp_prime(r, pt)
            ok &= abs(fd - sq) / max(1, abs(sq)) < mp.mpf("1e-20")
        pt = ModularPoint.from_complex((0, 2), CTX)
        g2, g3 = eisenstein(pt)
        z = mp.mpf("0.3") * pt.tau + mp.mpf("0.2")
        p = wp(z, pt)
        dp = wp_prime(FractionPair(F(3, 10), F(1, 5)), pt)
        res = abs(dp**2 - (4 * p**3 - g2 * p - g3)) / max(1, abs(4 * p**3))
        ok &= res < mp.mpf("1e-30")
    elapsed = time.perf_counter() - t0
    _report(3, "wp'/wp finite-difference and cubic", ok and elapsed < 10.0, t0)


def test_criterion_4_curve_and_surface():
    """Curve membership for (-39,8), (-40,8), (-52,12) and surface membership
    at two non-CM tau, relative residuals below 1e-30."""
    t0 = time.perf_counter()
    ok = True
    ctx = PrecisionContext(256, "1e-30")
    for d, n in ((-39, 8), (-40, 8), (-52, 12)):
        rep = check_curve_point(make_field(d), n, ctx)
        ok &= rep.passed
    for tau, n in ((("0.3", "1.7"), 4), (("-0.4", "2.3"), 8)):
        rep = check_surface_point(ctx.mpc(*tau), n, ctx)
        ok &= rep.passed
    _report(4, "curve/surface identities", ok, t0)


def test_criterion_5_forms_and_class_polynomials():
    """reduced_forms matches brute force on [-200, -3]; Hilbert class
    polynomials for six fields recognize as integers, residual < 1e-10,
    degree h_K; under 60 seconds at 300 bits."""
    t0 = time.perf_counter()
    import math

    def brute(d):
        out = set()
        for a in range(1, int(math.isqrt(-d)) + 2):
            for c in range(a, (-d) // (4 * a) + a + 2):
                for b in range(-a, a + 1):
                    if b * b - 4 * a * c != d:
                        continue
                    if not (-a < b <= a < c or 0 <= b <= a == c):
                        continue
                    if math.gcd(math.gcd(a, abs(b)), c) != 1:
                        continue
                    out.add((a, b, c))
        return out

    ok = True
    for d in range(-200, -2):
        if not is_fundamental(d):
            continue
        ok &= {q.as_tuple() for q in reduced_forms(d)} == brute(d)
    for d in (-7, -8, -11, -19, -23, -31):
        f = make_field(d)
        poly = hilbert_class_poly(f, CTX300)
        ok &= poly.degree == f.h
        ok &= None not in poly.recognized
        ok &= all(n == 0 and den == 1 for _, n, den in poly.recognized)
        ok &= poly.residual < mp.mpf("1e-10")
    elapsed = time.perf_counter() - t0
    _report(5, "form data and class polynomials", ok and elapsed < 60.0, t0)


def test_criterion_6_degree_reciprocity_consistency():
    """h * |W/{+-1}| = ray class degree for every fundamental d in
    [-163, -7] and N in {3,4,5,7,8,9,12}; exact integers, under 10 s."""
    t0 = time.perf_counter()
    ok = True
    count = 0
    for d in range(-163, -6):
        if not is_fundamental(d):
            continue
        f = make_field(d)
        for n in (3, 4, 5, 7, 8, 9, 12):
            ok &= f.h * len(w_group(f, n)) == ray_class_degree(f, n)
            count += 1
    elapsed = time.perf_counter() - t0
    _report(6, f"degree formula vs W-group on {count} cases",
            ok and elapsed < 10.0, t0)


def test_criterion_7_lemma_sweeps():
    """Inequality grid, exhaustive level sweeps and the T bounds, under
    120 seconds."""
    t0 = time.perf_counter()
    ok = True
    with CTX.work():
        for d in (-7, -39, -163):
            dmax = mp.sqrt(mp.mpf(-d) / 3)
            for a in (mp.mpf(1), dmax):
                for x in ("0.5", "1", "5"):
                    ok &= check_lemma51(d, a, x, CTX).passed
    for d, n in ((-39, 8), (-43, 9), (-56, 8)):
        ok &= check_lemma52(make_field(d), n, CTX).passed
    rep = check_T_bound(8, make_field(-39), CTX, majorant_range=(8, 200))
    ok &= rep.passed
    elapsed = time.perf_counter() - t0
    _report(7, "inequality sweeps", ok and elapsed < 120.0, t0)


def test_criterion_8_generation_witnesses():
    """Orbit size = degree with pairwise-distinct values for the main and
    corollary cases."""
    t0 = time.perf_counter()
    ok = True
    for d, n in ((-39, 8), (-40, 12)):
        rep = check_generation(make_field(d), n, "pair", CTX)
        ok &= rep.passed
    for d, n in ((-7, 3), (-7, 9), (-39, 3)):
        rep = check_generation(make_field(d), n, "y4", CTX)
        ok &= rep.passed
    _report(8, "generation witnesses", ok, t0)


def test_criterion_9_elliptic_point_distinctness():
    """The 20 level-4 points give 20 pairwise-distinct y-values at
    threshold 1000 * eps."""
    t0 = time.perf_counter()
    rep = check_elliptic_points(CTX)
    ok = rep.passed and rep.inputs["points"] == 20
    _report(9, "level-4 elliptic point distinctness", ok, t0,
            extra=f"min distance {mp.nstr(rep.details['min_distance'], 5)}")


@pytest.mark.parametrize("argv", [
    ["degree", "--dk", "-7", "--level", "3"],
    ["check", "curve", "--dk", "-39", "--level", "8"],
    ["conjugates", "--dk", "-39", "--level", "3", "--descriptor", "y4"],
])
def test_criterion_10_cli_determinism(argv):
    """Repeated CLI runs produce byte-identical JSON."""
    t0 = time.perf_counter()

    def run():
        proc = subprocess.run(
            [sys.executable, "-m", "rayclass", *argv],
            capture_output=True, timeout=300,
        )
        assert proc.returncode == 0
        return proc.stdout

    ok = run() == run()
    _report(10, f"CLI determinism: {' '.join(argv[:2])}", ok, t0)
