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
from rayclass import qseries
from rayclass.classfield import is_fundamental, mat_det, mat_mul
from rayclass.qseries import y_quotient
from rayclass._fixed import _grid, reflected
from rayclass.reciprocity import _y_power_exponent, act_index, labels, mirror, reflection
from rayclass.verify import _closest_pair

from oracles import mirror_member


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
    """One theta-series summation per CM point of a form with b >= 0: the
    labels of a form with b < 0 are read from its partner's point."""
    f = make_field(-39)
    runs = point_value_runs("_thetas")
    conj = conjugate_values(f, 8, "x", ctx256)
    assert len(conj) == ray_class_degree(f, 8) > f.h
    homes = [q for q in f.forms if q.b >= 0]
    assert len(runs) == len(homes) == len({p.tau for p in runs}) == f.h - 1


# ----------------------------------------------------------------- mirror ---

# Fields and levels whose orbits (degree <= 128) hold every kind of reduced
# form: partners (a, +-b, c) (-39, -104, -199), b = 0 (-84, -104), b = a
# (-39, -84, -195, -199) and a = c (-84, -195).  N odd, 2 mod 4 and 0 mod 4
# give y4 the powers 4, 2 and 1 of y.
MIRROR_CASES = [(-39, 6), (-84, 8), (-84, 9), (-104, 10), (-195, 7), (-195, 10),
                (-199, 5), (-199, 8)]
# A reflected orbit value lies within MIRROR_ULPS * k * 2^-bits of the
# evaluation at its own point and indices, relative, for y^k (k = 1 for
# x).  Measured at 256 bits over -39, -40, -56, -71, -84, -104, -195 and
# -199 at every N from 3 to 12: at most 17.6 for x, at a form with a = c,
# and 4.4 per power of y; partners and the forms with b = 0 or b = a came
# out bit for bit or within 2^-20 units.
MIRROR_ULPS = 64


def _kind(q):
    if q.b == 0:
        return "b = 0"
    if q.b == q.a:
        return "b = a"
    if q.a == q.c:
        return "a = c"
    return "partner"


def _mirror_sweep(descriptor, ctx):
    """Yield (label, values, refs, N) over the orbits of MIRROR_CASES: the
    orbit value as a tuple of components, and for each component its
    evaluation at the label's own form and indices with the power k of y
    it is (1 for x).  Points are made for every form."""
    for d, n in MIRROR_CASES:
        f = make_field(d)
        assert ray_class_degree(f, n) <= 128
        points = {q: ModularPoint.from_quadratic(q.a, q.b, d, ctx) for q in f.forms}
        k = 12 * n if descriptor == "y12N" else _y_power_exponent(n)
        base1, base2 = FractionPair.from_parts(0, 1, n), FractionPair.from_parts(0, 2, n)
        for label, v in conjugate_values(f, n, descriptor, ctx):
            pt, m = points[label.form], label.composite(n)
            r1, r2 = act_index(base1, m), act_index(base2, m)
            comps = []
            if descriptor in ("x", "pair"):
                comps.append((x_value(pt, r1), 1))
            if descriptor != "x":
                comps.append((y_quotient(pt, r1, r2, k), k))
            yield label, v if descriptor == "pair" else (v,), comps, n


def test_mirror_map_is_the_table_and_an_involution():
    """``mirror`` agrees with the table of ``oracles.mirror_member`` on
    every form of the mirror fields and on indices with entries in
    (-N, N); its matrix squares to 1, its form's mirror is the form again,
    and y turns by i exactly for the forms with b = a or a = c."""
    kinds = set()
    for d in (-39, -84, -104, -195, -199):
        for q in make_field(d).forms:
            kinds.add(_kind(q))
            m = mirror(q)
            assert mirror(m.form).form == q
            assert mat_mul(m.matrix, m.matrix) == ((1, 0), (0, 1))
            assert m.turn == (_kind(q) in ("b = a", "a = c"))
            for p1, p2 in ((0, 1), (1, 0), (3, 5), (6, 2), (1, 6)):
                r = FractionPair.from_parts(p1, p2, 7)
                form, u, v = mirror_member(q, p1, p2)
                assert (m.form, m.index(r)) == (form, FractionPair.from_parts(u, v, 7))
                assert all(-7 < e < 7 for e in (u, v))
    assert kinds == {"partner", "b = 0", "b = a", "a = c"}


@pytest.mark.parametrize("descriptor", ["x", "y4", "y12N", "pair"])
def test_reflected_orbit_values_match_their_own_points(ctx256, descriptor):
    """Every orbit value, reflected or not, equals the evaluation at its
    own form's point and its label's indices within MIRROR_ULPS * k
    2^-bits relative per component y^k (k = 1 for x); each kind of form is
    reflected somewhere."""
    reflected_kinds = set()
    for label, got, comps, n in _mirror_sweep(descriptor, ctx256):
        r1 = act_index(FractionPair.from_parts(0, 1, n), label.composite(n))
        if reflection(label.form, r1) is not None:
            reflected_kinds.add(_kind(label.form))
        for v, (ref, k) in zip(got, comps, strict=True):
            with mp.workprec(2 * ctx256.bits):
                assert abs(v - ref) <= mp.ldexp(MIRROR_ULPS * k, -ctx256.bits) * abs(ref), label
    assert reflected_kinds == {"partner", "b = 0", "b = a", "a = c"}


def test_mirror_needs_conj_turn_and_unreduced_index(ctx256):
    """Each of three slips in the mirror identity moves y4 values of the
    mirror orbits far outside the bound: dropping the conjugation (every
    kind), dropping the turn i^k (b = a and a = c, at even N) and reducing
    rM and dM mod N, which changes their shift roots of unity (every
    kind)."""
    caught = {"conj": set(), "turn": set(), "reduce": set()}

    def reduced(r):
        return FractionPair.from_parts(r.p1 % r.level, r.p2 % r.level, r.level)

    for d, n in MIRROR_CASES:
        f = make_field(d)
        points = {q: ModularPoint.from_quadratic(q.a, q.b, d, ctx256) for q in f.forms}
        k = _y_power_exponent(n)
        for label in labels(f, n):
            m = label.composite(n)
            r1 = act_index(FractionPair.from_parts(0, 1, n), m)
            r2 = act_index(FractionPair.from_parts(0, 2, n), m)
            mir = reflection(label.form, r1)
            if mir is None:
                continue
            direct = y_quotient(points[label.form], r1, r2, k)
            home = points[mir.form]
            y = y_quotient(home, mir.index(r1), mir.index(r2), k)
            slips = {"conj": reflected(reflected(y, 0), mir.turn * k),
                     "turn": reflected(y, 0),
                     "reduce": reflected(y_quotient(home, reduced(mir.index(r1)),
                                                    reduced(mir.index(r2)), k), mir.turn * k)}
            with mp.workprec(2 * ctx256.bits):
                tol = mp.ldexp(MIRROR_ULPS * k, -ctx256.bits) * abs(direct)
                assert abs(reflected(y, mir.turn * k) - direct) <= tol
                for name, v in slips.items():
                    if abs(v - direct) > tol:
                        caught[name].add(_kind(label.form))
    every = {"partner", "b = 0", "b = a", "a = c"}
    assert caught == {"conj": every, "turn": {"b = a", "a = c"}, "reduce": every}


@pytest.mark.parametrize("d, n", [(-84, 8), (-199, 8)])
def test_orbit_reads_one_key_per_mirror_class(ctx256, monkeypatch, d, n):
    """No point is made for a form with b < 0, and the x orbit sums the
    triple product once per mirror class of its labels' (form, r1): the
    classes {(Q, +-r), (Q*, +-r*)} of ``oracles.mirror_member``."""
    made, runs = [], []
    from_quadratic = ModularPoint.from_quadratic.__func__
    triple = qseries._LevelTable.triple

    def making(cls, a, b, d, ctx):
        made.append((a, b))
        return from_quadratic(cls, a, b, d, ctx)

    def counted(tab, pt, s, t):
        if (s, t) not in tab.triples:
            runs.append((pt.tau, tab.n, s, t))
        return triple(tab, pt, s, t)

    monkeypatch.setattr(ModularPoint, "from_quadratic", classmethod(making))
    monkeypatch.setattr(qseries._LevelTable, "triple", counted)
    f = make_field(d)
    conjugate_values(f, n, "x", ctx256)
    assert made and all(b >= 0 for _, b in made)
    assert len(runs) == len(set(runs))

    def key(p1, p2):
        s, t = p1 % n, p2 % n
        return min((s, t), (-s % n, -t % n))

    classes = set()
    for label in labels(f, n):
        r1 = act_index(FractionPair.from_parts(0, 1, n), label.composite(n))
        form, u, v = mirror_member(label.form, r1.p1, r1.p2)
        classes.add(frozenset({(label.form, key(r1.p1, r1.p2)), (form, key(u, v))}))
    assert len(runs) == len(classes)
    pairs = {(label.form, key(r.p1, r.p2)) for label in labels(f, n)
             for r in [act_index(FractionPair.from_parts(0, 1, n), label.composite(n))]}
    assert len(classes) < len(pairs)
