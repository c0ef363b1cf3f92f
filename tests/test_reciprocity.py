import math
import random
from fractions import Fraction as F

import mpmath as mp
import pytest

from rayclass import (
    DegenerateIndex,
    FractionPair,
    ModularPoint,
    UnsupportedDiscriminant,
    conjugate_values,
    make_field,
    ray_class_degree,
    siegel,
    w_group,
    x_value,
)
from rayclass.classfield import is_fundamental, mat_det, mat_mul
from rayclass.reciprocity import act_index, labels
from rayclass.verify import _closest_pair, _grid


# ---------------------------------------------------------------- w group ---

def test_w_group_minus7_level3():
    f = make_field(-7)
    g = w_group(f, 3)
    assert len(g) == 4
    assert [(w.t, w.s) for w in g] == [(0, 1), (1, 0), (1, 1), (1, 2)]
    ident = [w for w in g if (w.t, w.s) == (1, 0)]
    assert len(ident) == 1 and ident[0].matrix == ((1, 0), (0, 1))


def test_w_group_counts_match_degree():
    """h * |W/{+-1}| equals the ray class degree for N >= 3."""
    for d in range(-163, -6):
        if not is_fundamental(d):
            continue
        f = make_field(d)
        for n in (3, 4, 5, 7, 8, 9, 12):
            assert f.h * len(w_group(f, n)) == ray_class_degree(f, n), (d, n)


def test_w_group_rejects_small_disc():
    with pytest.raises(UnsupportedDiscriminant):
        w_group(make_field(-4), 5)


def test_w_group_determinants_invertible():
    f = make_field(-39)
    for n in (8, 12):
        for w in w_group(f, n):
            assert math.gcd(mat_det(w.matrix), n) == 1


# -------------------------------------------------------------- act_index ---

def test_act_index_bottom_row():
    """(0, 1/N) * alpha picks out the bottom row (s/N, t/N)."""
    f = make_field(-7)
    r = FractionPair.from_parts(0, 1, 3)
    for w in w_group(f, 3):
        out = act_index(r, w.matrix)
        assert (out.r1, out.r2) == (F(w.s, 3), F(w.t, 3))


def test_act_index_identity_and_scaling():
    r = FractionPair.from_parts(0, 1, 5)
    assert act_index(r, ((1, 0), (0, 1))) == r
    assert act_index(r, ((2, 0), (0, 2))) == FractionPair(F(0), F(2, 5))


def test_act_index_exactness():
    r = FractionPair(F(3, 7), F(5, 7))
    m = ((13, -4), (9, 2))
    out = act_index(r, m)
    assert out.r1 == (F(3, 7) * 13 + F(5, 7) * 9) % 1
    assert out.r2 == (F(3, 7) * -4 + F(5, 7) * 2) % 1


def test_act_index_matches_fraction_reference():
    """On seeded indices (negative, shifted, not in lowest terms) and
    matrices, act_index equals the row-vector action computed in Fractions
    and reduced mod 1."""
    rng = random.Random(7702)
    checked = 0
    for _ in range(600):
        n = rng.randint(2, 60)
        p1, p2 = rng.randint(-3 * n, 3 * n), rng.randint(-3 * n, 3 * n)
        r1, r2 = F(p1, n), F(p2, n)
        if r1.denominator == 1 and r2.denominator == 1:
            continue
        m = tuple(tuple(rng.randint(-50, 50) for _ in range(2)) for _ in range(2))
        a1 = (r1 * m[0][0] + r2 * m[1][0]) % 1
        a2 = (r1 * m[0][1] + r2 * m[1][1]) % 1
        r = FractionPair.from_parts(p1, p2, n)
        if a1 == 0 and a2 == 0:
            with pytest.raises(DegenerateIndex):
                act_index(r, m)
            continue
        out = act_index(r, m)
        assert (out.r1, out.r2) == (a1, a2)
        assert out == FractionPair(a1, a2)
        assert out.level == math.lcm(a1.denominator, a2.denominator)
        checked += 1
    assert checked > 500


@pytest.mark.parametrize("d", [-7, -15, -23, -39, -40, -84, -95, -184])
def test_doubling_label_sends_base_index_to_twice_it(d):
    """For odd N the doubling label (t, s) = (+-2, 0) at the principal form
    maps (0, 1/N) to (0, +-2/N): beta_lift of the principal form fixes
    (0, k/N), so the doubling class sends g_(0,1/N)(theta) to the Siegel
    value at (0, +-2/N) that y is built from.  (At N = 3, 2 = -1 and the
    label is the identity.)"""
    f = make_field(d)
    for n in (3, 5, 7, 9, 11, 15):
        base = FractionPair.from_parts(0, 1, n)
        doubling = [lbl for lbl in labels(f, n) if lbl.form == f.principal
                    and (lbl.alpha.t, lbl.alpha.s) in ((2, 0), (n - 2, 0))]
        assert len(doubling) == 1, (d, n)
        image = act_index(base, doubling[0].composite(n))
        assert image in (FractionPair.from_parts(0, 2, n),
                         FractionPair.from_parts(0, n - 2, n)), (d, n, image)


# ------------------------------------------------------------- conjugates ---

def test_orbit_size_equals_degree(ctx256):
    for d, n, desc in ((-7, 3, "y4"), (-7, 5, "y12N"), (-39, 8, "pair")):
        f = make_field(d)
        conj = conjugate_values(f, n, desc, ctx256)
        assert len(conj) == ray_class_degree(f, n)


def test_identity_label_is_untransformed_value(ctx256):
    f = make_field(-7)
    n = 3
    conj = conjugate_values(f, n, "y12N", ctx256)
    ident = [v for lbl, v in conj
             if (lbl.alpha.t, lbl.alpha.s) == (1, 0) and lbl.form == f.principal]
    assert len(ident) == 1
    pt = ModularPoint.from_quadratic(1, f.b_theta, f.d, ctx256)
    with ctx256.work():
        g1 = siegel(FractionPair.from_parts(0, 1, n), pt)
        g2 = siegel(FractionPair(F(0), F(2, n)), pt)
        direct = (g2 / g1**4) ** (12 * n)
        assert abs(ident[0] - direct) / abs(direct) < ctx256.eps


def test_orbit_multiset_closed_under_group_translation(ctx256):
    """Composing every label with a fixed W element permutes the y12N orbit."""
    f = make_field(-7)
    n = 3
    base = conjugate_values(f, n, "y12N", ctx256)
    group = w_group(f, n)
    alpha0 = group[3]  # (t, s) = (1, 2)
    translated = []
    with ctx256.work():
        for lbl, _ in base:
            m = mat_mul(mat_mul(alpha0.matrix, lbl.alpha.matrix, n), lbl.beta, n)
            r1 = act_index(FractionPair.from_parts(0, 1, n), m)
            r2 = act_index(FractionPair(F(0), F(2, n)), m)
            pt = ModularPoint.from_quadratic(lbl.form.a, lbl.form.b, f.d, ctx256)
            translated.append((siegel(r2, pt) / siegel(r1, pt) ** 4) ** (12 * n))
        orig = [v for _, v in base]
        # greedy nearest-neighbour multiset match
        tol = 1000 * ctx256.eps * max(max(abs(v) for v in orig), mp.mpf(1))
        remaining = list(translated)
        for v in orig:
            dists = [abs(v - w) for w in remaining]
            k = dists.index(min(dists))
            assert dists[k] < tol
            remaining.pop(k)
        assert not remaining


def test_conjugates_reject_bad_inputs(ctx256):
    f = make_field(-7)
    with pytest.raises(ValueError):
        conjugate_values(f, 3, "bogus", ctx256)
    with pytest.raises(ValueError):
        conjugate_values(f, 2, "y12N", ctx256)


def test_labels_order_deterministic(ctx256):
    f = make_field(-39)
    ls = labels(f, 8)
    assert len(ls) == ray_class_degree(f, 8)
    keys = [(f.forms.index(l.form), l.alpha.t, l.alpha.s) for l in ls]
    assert keys == sorted(keys)


# --------------------------------------------- Siegel-Ramachandra values ---

def test_unit_invariant_doubling_conjugate(ctx256):
    """For odd N the doubling element sends the unit-class invariant to
    g_{(0,2/N)}(theta)^{12N}."""
    for d, n in ((-7, 3), (-39, 3)):
        f = make_field(d)
        doubling = [w for w in w_group(f, n) if (w.t, w.s) == (2 % n, 0)
                    or (w.t, w.s) == ((-2) % n, 0)]
        assert len(doubling) == 1
        m = doubling[0].matrix
        with ctx256.work():
            pt = ModularPoint.from_quadratic(1, f.b_theta, f.d, ctx256)
            base = FractionPair.from_parts(0, 1, n)
            conj = siegel(act_index(base, m), pt) ** (12 * n)
            direct = siegel(FractionPair(F(0), F(2, n)), pt) ** (12 * n)
            assert abs(conj - direct) / abs(direct) < ctx256.eps


def test_lemma52_style_inequality_on_labels(ctx256):
    """Labels with a >= 2 stay strictly below the principal ratio in modulus."""
    f = make_field(-39)
    n = 8
    with ctx256.work():
        pt0 = ModularPoint.from_quadratic(1, f.b_theta, f.d, ctx256)
        rhs = abs(siegel(FractionPair(F(0), F(2, n)), pt0)
                  / siegel(FractionPair.from_parts(0, 1, n), pt0) ** 4)
        for lbl in labels(f, n):
            if lbl.form.a < 2:
                continue
            m = lbl.composite(n)
            r1 = act_index(FractionPair.from_parts(0, 1, n), m)
            r2 = act_index(FractionPair(F(0), F(2, n)), m)
            pt = ModularPoint.from_quadratic(lbl.form.a, lbl.form.b, f.d, ctx256)
            lhs = abs(siegel(r2, pt) / siegel(r1, pt) ** 4)
            assert lhs < rhs


def test_pair_orbit_distinct_for_main_case(ctx256):
    f = make_field(-39)
    conj = conjugate_values(f, 8, "pair", ctx256)
    values = [v for _, v in conj]
    with ctx256.work():
        dmin, _ = _closest_pair(values, *_grid(values), 0)
        assert dmin > 1000 * ctx256.eps


def test_x_orbit_makes_no_siegel_calls(ctx256, siegel_product_runs):
    """Descriptor x evaluates no y, so no Siegel q-product runs for it; its
    values are still the x coordinates of the pair orbit and x_value at each
    label's index.  The pair orbit, which does evaluate y, runs them."""
    f = make_field(-39)
    n = 8
    conj = conjugate_values(f, n, "x", ctx256)
    assert siegel_product_runs == []
    pair = conjugate_values(f, n, "pair", ctx256)
    assert siegel_product_runs
    assert [lbl for lbl, _ in conj] == [lbl for lbl, _ in pair]
    for (lbl, v), (_, (x, _)) in zip(conj, pair):
        r1 = act_index(FractionPair.from_parts(0, 1, n), lbl.composite(n))
        pt = ModularPoint.from_quadratic(lbl.form.a, lbl.form.b, f.d, ctx256)
        assert v == x == x_value(pt, r1)


def test_x_orbit_sums_each_point_once(ctx256, point_value_runs):
    """One theta-series summation per CM point, i.e. h for a whole orbit."""
    f = make_field(-39)
    runs = point_value_runs("_thetas")
    conj = conjugate_values(f, 8, "x", ctx256)
    assert len(conj) == ray_class_degree(f, 8) > f.h
    assert len(runs) == f.h == len({p.tau for p in runs})
