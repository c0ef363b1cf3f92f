"""Verification harness: identity checks, inequality sweeps, generation
witnesses, and minimal-polynomial reconstruction with algebraic recognition.

Every check returns a :class:`CheckReport`.  Residuals are *signed
violations*: a report passes iff every residual is strictly negative, so
a negative residual's magnitude is the margin.  The natural quantities
behind each residual (raw equation residual, worst ratio, minimum orbit
distance, ...) are kept in ``details``.

Equation residuals are scaled by the largest monomial magnitude so that a
single eps is meaningful across wildly different value scales.  Distinctness
checks label their outcome as numerical evidence, not proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from math import inf, isqrt

import mpmath as mp

from ._fixed import (_at_width, _exact, _exact_real, _fx, _grid, _mpc, _mul, _scaled_modulus,
                     _square_below, _sum)
from .classfield import Field, ReducedForm, _validate_disc, cm_point, ray_class_degree
from .errors import DuplicateValues, NonFinite
from .numerics import FX_GUARD, GUARD_BITS, MIN_BITS, PrecisionContext
from .qseries import (
    FractionPair,
    ModularPoint,
    _gamma2_fx,
    _j_fx,
    normalized,
    siegel,  # noqa: F401  (re-exported: perfbench/selftest.py traces verify.siegel)
    v_value,
    x_value,
    y_modulus2,
    y_quotient,
    y_value,
)
from .reciprocity import conjugate_values, mirror

DISTINCTNESS_FACTOR = 1000  # pairwise-distinctness threshold = 1000 * eps * scale

# Each value that ``minpoly`` and ``hilbert_class_poly`` expand lies within
# 2^(VALUE_ERROR_BITS - bits) * max(1, |v|) of the exact one.  Measured
# against the same evaluator at 2 bits + 64, at 64, 128, 256, 512 and 1024
# bits, at the point of every entry of ``_conjugate_classes`` of the
# fundamental d in [-2000, -3]: hcp's j (``qseries._j_fx``), at most 112 *
# 2^-bits, where rounding tau to bits moves e^(-2 pi i tau) (Im tau up to
# 22) or next to rho, where E4 and j nearly vanish; hcp's gamma_2 for the
# d that 3 does not divide, at most 38 * 2^-bits, a third of j's as
# j = gamma_2^3.  The x, y4 and y12N orbits of twelve (d, N) with N from 3
# to 16, at most 90 * 2^-bits at 256 bits.  2^10 leaves nine times the
# worst of them.
VALUE_ERROR_BITS = 10
# |j(tau) - 1/q| <= 2078.82 < J_TAIL on the fundamental domain, so
# |j(theta_Q)| < e^(pi sqrt|d| / a_Q) + J_TAIL (``_log2_height``).
J_TAIL = 2079
# Precision of the moduli and bounds of ``_error_bounds``.
BOUND_BITS = 53
# ``hilbert_class_poly``'s recognition tolerance, read by its plan and its
# certificate: an integer within it of a coefficient is the only one, as
# 2 * HCP_TOL <= 1.
HCP_TOL = "1e-10"


@dataclass
class CheckReport:
    """Outcome of one named check.

    Invariant: passed iff every residual < 0.
    """

    name: str
    inputs: dict
    residuals: dict
    passed: bool
    details: dict = dc_field(default_factory=dict)


def _finish(name, inputs, residuals, details=None) -> CheckReport:
    passed = all(r < 0 for r in residuals.values())
    return CheckReport(
        name=name,
        inputs=inputs,
        residuals=residuals,
        passed=passed,
        details=details or {},
    )


def check_curve_point(field: Field, n: int, ctx: PrecisionContext,
                      relaxed: bool = False) -> CheckReport:
    """Curve membership of the level-N point at theta.

    Scaled residuals of u v^3 y^2 = 4 x^3 - u v^2 x - u v^4 and
    u - 27 v^2 = 1, both over max(1, |4 x^3|): the surface polynomial at
    z = 1 with the evaluated u in place of z^2 + 27 v^2 (``_surface_parts``),
    exact in the values read and rounded once (``_scaled_modulus``).  Strict mode
    enforces d_K <= -39, N >= 8, 4 | N; relaxed mode allows any d_K <= -7,
    N >= 3 (the equations hold identically).
    """
    if relaxed:
        if field.d > -7 or n < 3:
            raise ValueError("relaxed mode needs d_K <= -7 and N >= 3")
    else:
        if field.d > -39 or n < 8 or n % 4:
            raise ValueError("strict mode needs d_K <= -39, N >= 8, 4 | N")
    q = field.principal
    pt = ModularPoint.from_quadratic(q.a, q.b, field.d, ctx)
    with ctx.work():
        u, v, x, y = map(_exact, normalized(pt, FractionPair.from_parts(0, 1, n)))
        diff, (_, cubic, _, _) = _surface_parts(v, x, y, (1, 0, 0), u)
        res_curve = _scaled_modulus(diff, (cubic,), ctx.bits)
        res_unit = _scaled_modulus(_sum(u, _mul((-27, 0, 0), v, v), (-1, 0, 0)), (cubic,), ctx.bits)
        return _finish(
            "curve_point",
            {"dk": field.d, "level": n, "relaxed": relaxed},
            {"curve": res_curve - ctx.eps, "unit_relation": res_unit - ctx.eps},
            {"curve_residual": res_curve, "unit_residual": res_unit, "tol": ctx.eps},
        )


def check_surface_point(tau, n: int, ctx: PrecisionContext) -> CheckReport:
    """Membership of [v : x : y : 1] on the homogeneous surface

    (Z^2 + 27 V^2) V^3 Y^2 = 4 X^3 Z^4 - (Z^2+27V^2) V^2 X Z^2 - (Z^2+27V^2) V^4 Z

    for any tau in H (identity in tau); requires N >= 4 with 4 | N.  u is
    not part of it, so v, x and y are evaluated alone, all from the point's
    one exponential q^(1/24): the indices (0, 1/N) and (0, 2/N) of x and y
    take no power of rho (``qseries._LevelTable.power``).  The residual is
    ``_surface_residual``'s, exact in the values read.
    """
    if n < 4 or n % 4:
        raise ValueError(f"surface membership needs N >= 4 with 4 | N, got N = {n}")
    pt = ModularPoint.from_complex(tau, ctx)
    r = FractionPair.from_parts(0, 1, n)
    with ctx.work():
        res = _surface_residual(v_value(pt), x_value(pt, r), y_value(pt, r), mp.mpc(1))
        return _finish(
            "surface_point",
            {"tau": mp.nstr(pt.tau, 17), "level": n},
            {"surface": res - ctx.eps},
            {"surface_residual": res, "tol": ctx.eps},
        )


def _surface_residual(v, x, y, z):
    """Scaled residual of the homogeneous surface equation at [v:x:y:z],
    for mpmath numbers: |lhs - (cubic - linear - const)| over
    max(1, |lhs|, |cubic|, |linear|, |const|), every term exact in the
    inputs' mantissas (``_surface_parts``), rounded once to the working
    precision (``_scaled_modulus``).  The polynomial is homogeneous of
    degree 7, so (2v, 2x, 2y, 2z) has the same residual bit for bit
    wherever every term has modulus >= 1."""
    diff, terms = _surface_parts(*map(_exact, (v, x, y, z)))
    return _scaled_modulus(diff, terms, mp.mp.prec)


def _surface_parts(v, x, y, z, u=None):
    """(lhs - (cubic - linear - const), (lhs, cubic, linear, const)) for
    lhs = u v^3 y^2, cubic = 4 x^3 z^4, linear = u v^2 x z^2 and
    const = u v^4 z, u = z^2 + 27 v^2 unless given, all exact (re, im, w)
    triples of the exact inputs.  At z = 1 with the evaluated u they are
    the terms of the curve u v^3 y^2 = 4 x^3 - u v^2 x - u v^4.
    z^2 + 27 v^2 multiplies as its two terms, each product summed exactly:
    at Im tau = 10^6 they lie 2^(9 10^6) apart, so their sum has that many
    bits, which a product would multiply and a sum only shifts."""
    v2, z2 = _mul(v, v), _mul(z, z)
    us = (z2, _mul((27, 0, 0), v2)) if u is None else (u,)
    lhs, linear, const = (_sum(*(_mul(m, t) for t in us))
                          for m in (_mul(v2, v, y, y), _mul(v2, x, z2), _mul(v2, v2, z)))
    cubic = _mul((4, 0, 0), x, x, x, z2, z2)
    return _sum(lhs, (-cubic[0], -cubic[1], cubic[2]), linear, const), (lhs, cubic, linear, const)


def check_lemma51(d: int, a, x, ctx: PrecisionContext) -> CheckReport:
    """Strict inequality 1/(1 - A^(X/a)) < 1 + A^(X/(1.03 a)) with
    A = exp(-pi sqrt(-d)), for fundamental d <= -7, 1 <= a <= sqrt(-d/3)
    and X >= 1/2.

    Compared as t/(1-t) < s with t = A^(X/a), s = A^(X/(1.03 a)) -- the same
    inequality with the 1 removed on both sides, so margins far below the
    working resolution of 1 + x stay visible.
    """
    _validate_disc(d)
    with ctx.work():
        a = ctx.mpf(a)
        x = ctx.mpf(x)
        if d > -7:
            raise ValueError("inequality stated for d <= -7")
        dmax = mp.sqrt(mp.mpf(-d) / 3)
        if not (1 <= a <= dmax + ctx.eps):
            raise ValueError(f"a must lie in [1, sqrt(-d/3)] = [1, {mp.nstr(dmax, 8)}]")
        if not x >= mp.mpf(1) / 2:
            raise ValueError("X must be >= 1/2")
        biga = mp.exp(-mp.pi * mp.sqrt(mp.mpf(-d)))
        t = biga ** (x / a)
        s = biga ** (x / (mp.mpf("1.03") * a))
        lhs = t / (1 - t)
        margin = s - lhs
        return _finish(
            "lemma51",
            {"dk": d, "a": mp.nstr(a, 10), "X": mp.nstr(x, 10)},
            {"inequality": lhs - s},
            {"lhs_minus_1": lhs, "rhs_minus_1": s, "margin": margin},
        )


def check_lemma52(field: Field, n: int, ctx: PrecisionContext) -> CheckReport:
    """Exhaustive sweep of |g_{(2s/N,2t/N)}(theta_Q) / g_{(s/N,t/N)}(theta_Q)^4|
    < |g_{(0,2/N)}(theta) / g_{(0,1/N)}(theta)^4| over reduced forms with
    a >= 2 and (s, t) in [0,N)^2 with (2s, 2t) outside N*Z^2.

    The ratio is equal on the mirror class {(Q, +-r), (Q*, +-rM)} of
    r = (s/N, t/N), Q* and M the mirror form and matrix of Q (``Mirror``),
    as g_{-r} = -g_r and |y| at (Q, r) is |y| at (Q*, rM): four keys of
    two forms for a form with a partner, and two or four keys of Q for a
    form that is its own mirror.  Each class is filed under its first key
    in sweep order, forms by (a, b) and then (s, t), and evaluated once:
    at that key when its form has b >= 0, else at its mirror key rM
    reduced mod N on the partner's point, as |y| does not see the shift
    roots of unity.  So no point is made for a form with b < 0, and the
    member evaluated is the one ``reflection`` picks, up to +- and shift.
    ``pairs_checked`` counts every member, so ``pairs_checked``,
    ``worst_ratio`` and ``worst_at`` are those of the sweep over every key.
    Every (s, t) is evaluated at level N, its level not reduced first, so
    each point reads both Siegel products of every ratio from its one
    level-N table.

    While the cut is positive, each class is first tested in exact
    integers on those two memo entries (``y_modulus2``): with
    R = |g_d| / |g_r|^4 of the entries, d = 2r, the class is skipped when
    R^2 (1 + 2^-(bits-8))^2 < (cut * rhs)^2, the mpfs cut and rhs
    multiplied exactly (``_square_below``).  Such a class cannot reach the
    cut: the ratio the loop forms exceeds R / rhs by a factor below
    1 + 2^-(bits-3), so it lies below cut (1 + 2^-(bits-3)) /
    (1 + 2^-(bits-8)) < cut, and the loop keeps no such class (it files
    a ratio in ``near`` only when ratio >= cut, and the cut only rises).
    The factor, each part relative to |y| at W = bits + FX_GUARD, bits =
    mpmath's precision, and each part's value having W significant bits:
    the rotation of g_d by its root of unity, a power of the table's xi
    whose modulus is 1 within 2^-(W-1), floored to g_d's width (below
    2^-(W-3) together); g_r^4, the exact g_r^2 squared and cut to W bits
    (below 2^-(W-2)); the W-bit quotient (below 2^-(W-2)); its rounding
    to bits (2^-bits); mpmath's abs, whose sum of squares is rounded at
    bits + 4 before the square root (2^-bits + 2^-(bits+4)); and the
    division by rhs (2^-bits).  That is below 3.1 * 2^-bits + 2^-(W-4)
    < 2^-(bits-3).  Every other class runs the loop's body as before, so
    ``worst_ratio``, ``worst_at``, ``pairs_checked`` and the residual, and
    the CLI's output, are unchanged byte for byte; the test reads the
    memo entries in the loop's order, so it runs the same Siegel products
    and raises the same ``OnLattice``."""
    if field.d > -39 or n < 8:
        raise ValueError("sweep needs d_K <= -39 and N >= 8")
    with ctx.work():
        q = field.principal
        pt0 = ModularPoint.from_quadratic(q.a, q.b, field.d, ctx)
        rhs = abs(y_value(pt0, FractionPair.from_parts(0, 1, n)))
        worst = cut = -mp.inf
        near = []  # ((form, s, t), ratio) tied with the worst so far
        count = 0
        order = {q: i for i, q in enumerate(field.forms)}
        points = {q: ModularPoint.from_quadratic(q.a, q.b, field.d, ctx)
                  for q in field.forms if q.a >= 2 and q.b >= 0}
        for q in field.forms:
            if q.a < 2:
                continue
            mir = mirror(q)
            here, there = order[q], order[mir.form]
            if there < here:  # every class of Q is filed under its partner
                continue
            (a, b), (c, d) = mir.matrix
            home = q if q.b >= 0 else mir.form
            for s in range(n):
                for t in range(n):
                    if (2 * s) % n == 0 and (2 * t) % n == 0:
                        continue
                    if (s, t) > (-s % n, -t % n):  # filed under (-s, -t)
                        continue
                    u, v = (s * a + t * c) % n, (s * b + t * d) % n  # rM
                    size = 4
                    if there == here:  # Q is its own mirror: rM is a key of Q
                        key = min((u, v), (-u % n, -v % n))
                        if key < (s, t):  # filed under rM
                            continue
                        if key == (s, t):
                            size = 2
                    r = FractionPair.from_parts(*((s, t) if home is q else (u, v)), n)
                    r2 = r.doubled()
                    count += size
                    if cut > 0 and _square_below(*y_modulus2(points[home], r, r2, level=n),
                                                 ctx.bits - 8, cut, rhs):
                        continue  # below the cut (docstring)
                    ratio = abs(y_quotient(points[home], r, r2, level=n)) / rhs
                    if ratio >= cut:
                        near.append(((q.as_tuple(), s, t), ratio))
                        if ratio > worst:
                            worst = ratio
                            cut = worst - ctx.eps * max(1, worst)
        # the first (form, s, t) in sweep order within eps * max(1, worst) of
        # the worst ratio; the cut only rises, so no candidate above it was
        # dropped
        worst_at = next((at for at, ratio in near if ratio >= cut), None)
        residual = (worst - 1) if count else mp.mpf(-1)
    return _finish(
        "lemma52",
        {"dk": field.d, "level": n},
        {"max_ratio_minus_1": residual},
        {"pairs_checked": count, "worst_ratio": worst if count else None,
         "worst_at": worst_at, "rhs_abs": rhs},
    )


def _zeta_factor(n: int) -> mp.mpf:
    """|(1-z)^4/(1-z^2)|, z = zeta_N: the factor of T(N,s,t) set by N alone."""
    z = mp.exp(2j * mp.pi / n)
    return abs((1 - z) ** 4 / (1 - z * z))


def _t_value(n: int, s: int, t: int, theta_q, f1) -> mp.mpf:
    """T(N,s,t) = f1 * |1-w^2|/|1-w|^4, f1 = ``_zeta_factor(n)``,
    w = exp(2 pi i (s theta_Q + t)/N)."""
    w = mp.exp(2j * mp.pi * (s * theta_q + t) / n)
    return f1 * (abs(1 - w * w) / abs(1 - w) ** 4)


def _t_majorant(n: int, ctx: PrecisionContext) -> mp.mpf:
    """4 sin^3(pi/N)/cos(pi/N) * (1+E)/(1-E)^3 with E = exp(-pi sqrt(3)/N)."""
    with ctx.work():
        e = mp.exp(-mp.pi * mp.sqrt(3) / n)
        return 4 * mp.sin(mp.pi / n) ** 3 / mp.cos(mp.pi / n) * (1 + e) / (1 - e) ** 3


def check_T_bound(n: int, field: Field, ctx: PrecisionContext,
                  majorant_range: tuple[int, int] = (8, 200)) -> CheckReport:
    """T <= 1 for s = 0 and T < 3.05 for s != 0 (s in [1, N/2], as in the
    reduction the sweep mirrors), over reduced forms with a >= 2; plus the
    closed-form majorant < 3.05 on the given N range."""
    if n < 8:
        raise ValueError("bound stated for N >= 8")
    lo, hi = majorant_range
    if not 8 <= lo <= hi:
        raise ValueError(f"majorant range [{lo}, {hi}] needs 8 <= lo <= hi")
    with ctx.work():
        slack = mp.mpf("1e-30")  # s=0, t=+-1 attains T = 1 exactly
        max_s0 = -mp.inf
        max_s1 = -mp.inf
        count = 0
        f1 = _zeta_factor(n)
        forms = [q for q in field.forms if q.a >= 2]
        for q in forms:
            theta_q = cm_point(q, field.d).to_mpc(ctx)
            for s in range(0, n // 2 + 1):
                for t in range(n):
                    if (2 * s) % n == 0 and (2 * t) % n == 0:
                        continue
                    val = _t_value(n, s, t, theta_q, f1)
                    count += 1
                    if s == 0:
                        max_s0 = max(max_s0, val)
                    else:
                        max_s1 = max(max_s1, val)
        max_maj = max(_t_majorant(m, ctx) for m in range(lo, hi + 1))
        residuals = {
            "s_zero_minus_1": (max_s0 - 1 - slack) if count else mp.mpf(-1),
            "s_nonzero_minus_3.05": (max_s1 - mp.mpf("3.05")) if count else mp.mpf(-1),
            "majorant_minus_3.05": max_maj - mp.mpf("3.05"),
        }
    return _finish(
        "t_bound",
        {"dk": field.d, "level": n, "majorant_range": list(majorant_range)},
        residuals,
        {"max_T_s0": max_s0 if count else None,
         "max_T_s_nonzero": max_s1 if count else None,
         "max_majorant": max_maj, "pairs_checked": count},
    )


def _pair_distance(a, b):
    if isinstance(a, tuple):
        return max(abs(a[0] - b[0]), abs(a[1] - b[1]))
    return abs(a - b)


def _rounding_slack(prec: int) -> tuple[int, int]:
    """(num, den) = (1+4u)(1+u)/(1-4u), u = 2^-prec: an mpmath difference
    and abs (or hypot) at prec bits is within a factor 1 +- 4u of the exact
    modulus, and adding tol rounds once more."""
    one = 1 << prec
    return (one + 4) * (one + 1), one * (one - 4)


def _scale(values, rows):
    """max(1, max |component|) of the finite values on their grid rows, bit
    for bit: mpmath abs runs only on the components whose squared modulus
    on the grid comes within rounding of the largest, so Python's max meets
    the same maximum."""
    comps = [c for v in values for c in (v if isinstance(v, tuple) else (v,))]
    mods = [r[c] ** 2 + r[c + 1] ** 2 for r in rows for c in range(0, len(r), 2)]
    num, den = _rounding_slack(mp.mp.prec)
    top = isqrt(max(mods))
    cut = max(-(-top * den // num) - 4, 0) ** 2  # (isqrt(m) + 4) * F >= top
    return max(mp.mpf(1), max(abs(c) for c, m in zip(comps, mods) if m >= cut))


def _closest_pair(values, g, rows, tol):
    """(d, (i, j)): the smallest ``_pair_distance(values[i], values[j])`` over
    i < j, and the lexicographically first pair within ``tol`` of it, so
    that rounding noise among tied pairs cannot move it; (inf, None) for
    fewer than two values.  Values are finite mpmath numbers or tuples of
    them, (g, rows) their ``_grid``, and tol is finite and >= 0.

    Integer sweep: the values go in order of the grid real part (of the
    first component for tuples).  A pair's squared grid distance, the max
    over components of |difference|^2, is exact integer arithmetic, and its
    root is within 2 units of the exact distance.  With u the smallest
    squared grid distance seen, no pair whose mpmath distance can come
    within tol of the minimum lies farther out on the grid than the reach
    K = ceil((isqrt(u) + 3 + ceil(tol / 2^g)) * F) + 2, F the rounding slack
    of mpmath at the working precision (``_rounding_slack``).  The scan from
    i stops once the real-part gap exceeds K, as the gap never exceeds a
    pair's grid distance.

    Only the pairs left within K get their ``_pair_distance`` in mpmath; the
    tie rule is applied to them.  They include every pair within tol of the
    minimum, so the result is the double loop's, bit for bit, at any working
    precision.
    """
    num, den = _rounding_slack(mp.mp.prec)
    t = -_fx(-mp.mpf(tol), -g)[0]  # ceil(tol / 2^g); the rounding of tol is in the slack
    order = sorted(range(len(rows)), key=lambda k: rows[k][0])
    u = k = kk = inf  # smallest squared grid distance, reach, reach^2
    near = []  # (squared grid distance, pair) within the reach when seen
    for a, i in enumerate(order):
        ri = rows[i]
        for j in order[a + 1:]:
            rj = rows[j]
            dx = rj[0] - ri[0]
            if dx > k:
                break
            dy = rj[1] - ri[1]
            sq = dx * dx + dy * dy
            for c in range(2, len(ri), 2):  # the second entry of a pair
                dx, dy = rj[c] - ri[c], rj[c + 1] - ri[c + 1]
                sq = max(sq, dx * dx + dy * dy)
            if sq <= kk:
                near.append((sq, (i, j) if i < j else (j, i)))
                if sq < u:
                    u = sq
                    k = -(-(isqrt(u) + 3 + t) * num // den) + 2
                    kk = k * k
    dist = [(p, _pair_distance(values[p[0]], values[p[1]])) for sq, p in near if sq <= kk]
    best = min((d for _, d in dist), default=mp.inf)
    limit = best + tol
    return best, min((p for p, d in dist if d <= limit), default=None)


def _distinctness(values, ctx: PrecisionContext):
    """(min distance, closest pair, threshold) of the one distinctness test:
    values count as distinct when every pairwise distance exceeds
    DISTINCTNESS_FACTOR * eps * scale, scale = max(1, max |value|).  The
    closest pair is the first within eps * scale of the minimum: far above
    the noise of values accurate to eps * 2^-16, far below the threshold.
    One grid gives the finiteness, the scale and the sweep.  Raises
    NonFinite for a value with a nan or infinite component."""
    g, rows = _grid(values)
    if None in rows:
        raise NonFinite(f"value {rows.index(None)} of {len(values)} is not finite")
    with ctx.work():
        scale = _scale(values, rows)
        threshold = DISTINCTNESS_FACTOR * ctx.eps * scale
        dmin, at = _closest_pair(values, g, rows, ctx.eps * scale)
    return dmin, at, threshold


def check_generation(field: Field, n: int, descriptor: str,
                     ctx: PrecisionContext) -> CheckReport:
    """Numerical generation witness: the descriptor's orbit has exactly
    ray_class_degree(field, n) pairwise-distinct values at threshold
    1000 * eps * scale.  A pass is numerical evidence of primitivity
    (trivial stabilizer), not a proof."""
    conj = conjugate_values(field, n, descriptor, ctx)
    values = [v for _, v in conj]
    degree = ray_class_degree(field, n)
    dmin, at, threshold = _distinctness(values, ctx)
    with ctx.work():
        residuals = {
            "orbit_size_mismatch": mp.mpf(abs(len(values) - degree)) - mp.mpf("0.5"),
            "threshold_minus_min_distance": threshold - dmin,
        }
    return _finish(
        "generation",
        {"dk": field.d, "level": n, "descriptor": descriptor},
        residuals,
        {"orbit_size": len(values), "degree": degree,
         "min_distance": dmin, "closest_pair": at,
         "threshold": threshold, "evidence": "numerical witness"},
    )


# The 20 level-4 points: SL2(Z)-orbit representatives of the two elliptic
# points, written as integer Moebius transforms (a*z + b)/(c*z + d) of
# z in {zeta_3, zeta_4}.  One representative per class modulo the level-4
# principal congruence subgroup and the point stabilizer: 8 classes over
# zeta_3, 12 over zeta_4 (verified exhaustively in the tests).
ELLIPTIC4_TRANSFORMS = (
    ("zeta3", 1, 0, 0, 1), ("zeta3", 1, 1, 0, 1), ("zeta3", 1, 2, 0, 1),
    ("zeta3", 1, 3, 0, 1), ("zeta3", 0, 1, -1, 1), ("zeta3", 0, 1, -1, 2),
    ("zeta3", 1, -1, -1, 2), ("zeta3", 1, -2, 1, -1),
    ("zeta4", 1, 0, 0, 1), ("zeta4", 1, 1, 0, 1), ("zeta4", 1, 2, 0, 1),
    ("zeta4", 1, 3, 0, 1), ("zeta4", 0, 1, -1, 1), ("zeta4", 0, 1, -1, 2),
    ("zeta4", 0, 1, -1, 3), ("zeta4", 1, 1, 1, 2), ("zeta4", 1, -1, -1, 2),
    ("zeta4", 1, -2, 1, -1), ("zeta4", 1, 2, -1, -1), ("zeta4", 2, 1, 3, 2),
)


def _elliptic4_points(ctx: PrecisionContext) -> list[mp.mpc]:
    with ctx.work():
        zt3 = mp.exp(2j * mp.pi / 3)
        zt4 = mp.mpc(0, 1)
        pts = []
        for base, a, b, c, d in ELLIPTIC4_TRANSFORMS:
            z = zt3 if base == "zeta3" else zt4
            pts.append((a * z + b) / (c * z + d))
        return pts


def check_elliptic_points(ctx: PrecisionContext) -> CheckReport:
    """Distinctness of y_{(0,1/4)} at the 20 level-4 elliptic-orbit points."""
    r = FractionPair.from_parts(0, 1, 4)
    with ctx.work():
        values = [
            y_value(ModularPoint.from_complex(tau, ctx), r)
            for tau in _elliptic4_points(ctx)
        ]
        dmin, at, threshold = _distinctness(values, ctx)
        residual = threshold - dmin
    return _finish(
        "elliptic4",
        {"level": 4, "points": len(values)},
        {"threshold_minus_min_distance": residual},
        {"min_distance": dmin, "closest_pair": at, "threshold": threshold},
    )


@dataclass
class Polynomial:
    """Monic polynomial with its coefficients recognized where certified.

    coeffs are ascending with coeffs[-1] == 1 exactly.  ``minpoly`` gives
    complex coefficients at ``bits`` and recognizes each as
    (m + n*theta)/den with integers m, n and den <= den_max.
    ``hilbert_class_poly`` gives H_D: for invariant "j" the exact values
    of its fixed-point coefficients at width bits + FX_GUARD, real, each
    recognized as the nearest integer (m, 0, 1); for invariant "gamma2"
    H_D's exact integers, found from the polynomial P of gamma_2, whose
    residual, bound and working bits it reports.  recognized[k] is None
    when the coefficient's error bound is not below the tolerance or no
    candidate lies within it and within the bound (``_recognize``,
    ``_class_poly``).
    """

    coeffs: tuple
    recognized: tuple
    residual: mp.mpf  # max |coeff - recognized value|; inf if any failed
    bound: mp.mpf  # largest error bound B_k of a coefficient below the leading 1
    bits: int  # working precision of the values and the expansion
    invariant: str | None = None  # hcp's class invariant: "gamma2" or "j"

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


def _recognize_coeff(c, theta, den_max: int, tol, bound):
    """((m, n, den), |c - a|) for the nearest a = (m + n*theta)/den of the
    first den <= den_max with a within tol of c, or None; None too when a
    lies farther from c than bound plus its rounding, 2^(2 - prec) |a|."""
    y = mp.im(c) / mp.im(theta)
    x = mp.re(c) - y * mp.re(theta)
    for den in range(1, den_max + 1):
        m = int(mp.nint(x * den))
        n = int(mp.nint(y * den))
        a = (m + n * theta) / den
        err = abs(c - a)
        if err < tol:
            return ((m, n, den), err) if err <= bound + mp.ldexp(abs(a), 2 - mp.mp.prec) else None
    return None


def _recognition_tol(den_max: int, recog_tol, ctx: PrecisionContext) -> mp.mpf:
    """``minpoly``'s recog_tol at the working precision, after rejecting
    settings that can recognize no coefficient (den_max < 1, tol <= 0 or
    nan) or cannot tell two candidates apart (2 tol > 1/den_max^2, inf
    included).  Distinct candidates a/d1 and b/d2, a and b in O_K and d1,
    d2 <= den_max, lie at least 1/(d1 d2) >= 1/den_max^2 apart, as a
    nonzero element of O_K has modulus >= 1; so a coefficient within 2 tol
    of a candidate is no other candidate."""
    if den_max < 1:
        raise ValueError(f"den_max must be >= 1, got {den_max}")
    tol = ctx.mpf(recog_tol)
    if not tol > 0:
        raise ValueError(f"recog_tol must be positive, got {recog_tol}")
    with ctx.work():
        if not 2 * tol * den_max ** 2 <= 1:
            raise ValueError(
                f"recog_tol {recog_tol} cannot tell apart candidates with "
                f"denominators up to den_max = {den_max}: needs 2 recog_tol "
                f"<= 1/den_max^2")
    return tol


def _expand(factors) -> list:
    """Ascending coefficients of the product of monic factors, each given by
    its ascending coefficients, leading 1 included: (-v, 1) for X - v,
    (c, b, 1) for X^2 + b X + c.  The leading coefficient is the integer 1.

    Each entry starts from 0 and takes its terms f[i] * c_k in order of
    rising k, so the slices run from the leading 1 of f down to f[0], each
    formed by one list comprehension."""
    coeffs = [1]
    for f in factors:
        deg, n = len(f) - 1, len(coeffs)
        nxt = [0] * deg + [0 + c for c in coeffs]
        for i in range(deg - 1, -1, -1):
            fi = f[i]
            nxt[i:i + n] = [a + fi * c for a, c in zip(nxt[i:i + n], coeffs)]
        coeffs = nxt
    return coeffs


def _guard_bits(count: int) -> int:
    """g = ceil(log2(count + 1)) + VALUE_ERROR_BITS + 2 for a product of
    ``count`` linear factors (or real quadratic ones, two values each).

    With u = 2^-bits and m_i = max(1, |v_i|), the values' errors move the
    coefficient e_k of the exact values by at most about k 2^VALUE_ERROR_BITS
    u e_k(m).  The expansion adds less.  ``minpoly`` rounds the quadratic
    factors and the expansion in floating point, at most about 5 count u
    e_k(m).  ``hilbert_class_poly`` floors every product to the fixed-point
    width bits + FX_GUARD (``_expand_fx``), below one unit 2^-FX_GUARD u
    each: a factor X + f with |f| <= m_i carries the flooring error E of
    the partial product into (X + m_i) E plus one unit per coefficient (two
    per quadratic factor, which counts as two values), and every
    coefficient of prod (X + m_i) is at least 1, so after all factors the
    error is at most count 2^-FX_GUARD u e_k(m); flooring each value and
    |v|^2 to the width adds one unit more, inside the values' error.
    Either way both together stay below (count + 1) 2^(VALUE_ERROR_BITS + 1)
    u e_k(m).  The last bit covers the rounding of the moduli and of the
    bounds to BOUND_BITS (``_error_bounds``)."""
    return count.bit_length() + VALUE_ERROR_BITS + 2


def _error_bounds(values, bits: int) -> list:
    """B_k = 2^(g - bits) e_(h-k)(M_1, ..., M_h), g = ``_guard_bits(h)`` and
    M_i = max(1, ceil(|v_i|)) with |v_i| rounded to nearest at BOUND_BITS
    first, so M_i >= (1 - 2^-52) max(1, |v_i|), a shortfall the last bit of
    g covers: a bound on the error of the ascending coefficient k < h of
    prod (X - v_i) expanded at ``bits``.  The e_k are the coefficients of
    prod (X + M_i), expanded by ``_expand`` in exact integers, so only the
    moduli enter, in any order."""
    with mp.workprec(BOUND_BITS):
        majorant = _expand((max(1, int(mp.ceil(abs(v)))), 1) for v in values)
        return [mp.ldexp(e, _guard_bits(len(values)) - bits) for e in majorant[:-1]]


def _recognize(coeffs, bounds, field: Field, ctx: PrecisionContext,
               den_max: int, tol) -> Polynomial:
    """The monic polynomial with these coefficients, each recognized in
    (1/den) * O_K when it is certified: its error bound bounds[k] is below
    tol and a candidate lies within tol of it.  The exact coefficient then
    lies within 2 tol of that candidate, so it is that candidate if it lies
    in (1/den) * O_K for some den <= den_max (``_recognition_tol``).  A
    candidate outside bounds[k] plus its rounding cannot be the coefficient
    and is dropped (``_recognize_coeff``).  Failures are recorded, never
    raised."""
    theta = field.theta.to_mpc(ctx)
    recognized = []
    worst = mp.mpf(0)
    for c, bound in zip(coeffs[:-1], bounds):
        hit = _recognize_coeff(c, theta, den_max, tol, bound) if bound < tol else None
        if hit is None:
            recognized.append(None)
            worst = mp.inf
        else:
            recognized.append(hit[0])
            worst = max(worst, hit[1])
    recognized.append((1, 0, 1))
    return Polynomial(tuple(coeffs), tuple(recognized), worst, max(bounds), ctx.bits)


def minpoly(values, field: Field, ctx: PrecisionContext,
            den_max: int = 48, recog_tol="1e-10") -> Polynomial:
    """Expand prod (X - v_i) and recognize coefficients in (1/den) * O_K.

    Values (any numbers mpmath takes) are rounded to mpc at the working
    precision and must be pairwise distinct at the generation threshold
    (DuplicateValues, or NonFinite for a value that is not finite): a
    repeated value would make the product a power of the minimal
    polynomial.  Recognition is certified by ``_error_bounds`` as in
    ``_recognize``, and its failures are recorded (coefficient left
    complex), never raised.  The precision is ctx.bits, unplanned.  Raises
    ValueError when den_max < 1 or recog_tol is not positive or too wide
    (``_recognition_tol``).
    """
    if not values:
        raise ValueError("need at least one value")
    tol = _recognition_tol(den_max, recog_tol, ctx)
    with ctx.work():
        values = [mp.mpc(v) for v in values]
        dmin, at, threshold = _distinctness(values, ctx)
        if dmin <= threshold:
            raise DuplicateValues(f"values {at} coincide at distance {mp.nstr(dmin, 5)}")
        coeffs = _expand((-v, 1) for v in values)
        coeffs[-1] = mp.mpc(1)
        return _recognize(coeffs, _error_bounds(values, ctx.bits), field, ctx,
                          den_max, tol)


def _conjugate_classes(forms) -> list:
    """(Q, Q*) for each reduced Q with b > 0 whose mirror Q* (``Mirror``)
    is another form, (a, -b, c), as j(theta_Q*) = conj j(theta_Q), and
    (Q, None) for a Q that is its own mirror (b = 0, b = a or a = c), whose
    j is real; together they cover ``forms`` once each."""
    out = []
    for q in forms:
        partner = mirror(q).form
        if partner == q:
            out.append((q, None))
        elif q.b > 0:
            out.append((q, partner))
    return out


def _gamma2_form(q: ReducedForm) -> tuple[int, int, int]:
    """(a, b, e): a form (a, b, c') properly equivalent to the reduced form
    q = (a_Q, b_Q, c_Q) of a d that 3 does not divide, with 3 not dividing
    a and 3 dividing b, and the exponent e with gamma_2 at its point tau' =
    (-b + sqrt d)/(2a) equal to exp(2*pi*i*e/3) gamma_2(theta_Q).
    gamma_2(tau') is the conjugate of gamma_2(theta) under the class of q
    (A. Enge and F. Morain, "Comparing invariants for class fields of
    imaginary quadratic fields", ANTS V, 2002).

    First S, (a, b, c) -> (c, -b, a), tau -> -1/tau, when 3 | a, which
    keeps gamma_2; then (a + b + c, b + 2c, c), tau -> tau / (1 - tau) =
    S T S tau, which turns it by exp(-2*pi*i/3), if 3 still divides a:
    with 3 | a and 3 | c, a + b + c = b mod 3, and 3 does not divide b, as
    b^2 = d mod 3.  Last the translations b -> b + 2a, tau -> tau - 1,
    each turning it by exp(2*pi*i/3), until 3 | b, at most two as 3 does
    not divide 2a.  S and the second map lower Im tau, so gamma_2 is
    evaluated at theta_Q and turned (``qseries._gamma2_fx``)."""
    a, b, c = q.a, q.b, q.c
    e = 0
    if a % 3 == 0:
        a, b, c = c, -b, a
    if a % 3 == 0:
        a, b, e = a + b + c, b + 2 * c, -1
    while b % 3:
        b, e = b + 2 * a, e + 1
    return a, b, e


# hcp's class invariants, name -> (k, value): the k-th root of j that it
# expands and its fixed-point value at the point of a reduced form q, an
# (re, im, w) triple of W significant bits; gamma_2 is taken at the point
# of ``_gamma2_form(q)``.
INVARIANTS = {
    "j": (1, lambda pt, q: _j_fx(pt)),
    "gamma2": (3, lambda pt, q: _gamma2_fx(pt, _gamma2_form(q)[2])),
}


def _log2_height(field: Field, invariant: str = "j") -> float:
    """log2 U, in floats, for the height bound (A. Enge, Math. Comp. 78
    (2009)) of the polynomial of the invariant j^(1/k), k from
    ``INVARIANTS`` (1 for j, 3 for gamma_2):

        U = prod over reduced forms Q of
            ((e^(pi sqrt|d| / a_Q) + J_TAIL)^(1/k) + 2).

    U bounds every coefficient of that polynomial and every e_k(M) of
    ``_error_bounds`` at its values: theta_Q lies in the fundamental
    domain, where |q| <= r = e^(-pi sqrt 3), and the coefficients c_n of
    j - 1/q = 744 + 196884 q + ... are positive, so |j - 1/q| <= sum c_n
    r^n = j(i sqrt(3)/2) - e^(pi sqrt 3) = 2078.81..., and |j(theta_Q)| <
    e^(pi sqrt|d| / a_Q) + J_TAIL.  gamma_2 is evaluated at a point
    SL2(Z)-equivalent to theta_Q (``_gamma2_form``), where j is the same,
    so |gamma_2| = |j(theta_Q)|^(1/3) as gamma_2^3 = j.  With v the value
    and M = max(1, ceil |v|), 1 + M < |v| + 2 < (e^(pi sqrt|d| / a_Q) +
    J_TAIL)^(1/k) + 2, and e_k(M) <= prod (1 + M_i) - 1 < U, which bounds
    the coefficients e_k of the values too."""
    k = INVARIANTS[invariant][0]
    xs = (math.pi * math.sqrt(-field.d) / q.a for q in field.forms)
    return math.fsum(x / (k * math.log(2))
                     + math.log2((1 + J_TAIL * math.exp(-x)) ** (1 / k) + 2 * math.exp(-x / k))
                     for x in xs)


def _planned_bits(field: Field, invariant: str = "j") -> int:
    """The precision at which every coefficient of the invariant's
    polynomial certifies: max(MIN_BITS, g + ceil(log2 U + log2(1/tol) +
    2^-30)), tol = HCP_TOL, g = ``_guard_bits(h)`` and U from
    ``_log2_height``.  There every B_k of ``_error_bounds`` is
    2^(g - bits) e_k(M) <= e_k(M) tol / U < tol, the 2^-30 covering the
    rounding of the floats and of the bounds to BOUND_BITS: the plan and
    the certificate are one inequality."""
    with mp.workprec(BOUND_BITS):
        need = math.ceil(_log2_height(field, invariant) - float(mp.log(HCP_TOL, 2)) + 2.0**-30)
    return max(MIN_BITS, _guard_bits(field.h) + need)


def _expand_fx(factors, w: int) -> list:
    """Ascending coefficients of the product of monic factors as
    fixed-point integers at width w, each factor given by its ascending
    coefficients below the leading 1 at width w: (-v,) for X - v, (c, b)
    for X^2 + b X + c.  The leading coefficient is 1 << w.  The leading 1s
    multiply exactly; every other product is floored to width w
    (``_guard_bits``).  The slices run as in ``_expand``."""
    coeffs = [1 << w]
    for f in factors:
        deg, n = len(f), len(coeffs)
        nxt = [0] * deg + coeffs
        for i in range(deg - 1, -1, -1):
            fi = f[i]
            nxt[i:i + n] = [a + ((fi * c) >> w) for a, c in zip(nxt[i:i + n], coeffs)]
        coeffs = nxt
    return coeffs


def _class_poly(field: Field, invariant: str, bits: int) -> Polynomial:
    """The polynomial of an invariant's values (``INVARIANTS``) at
    ``bits``, expanded and recognized in fixed point at width W = bits +
    FX_GUARD.

    The invariant is evaluated once per entry of ``_conjugate_classes``, at
    the point of the class's form, and its (re, im, w) triple is read at
    width W: a pair enters as the real factor X^2 - 2 Re(v) X + |v|^2, an
    ambiguous form as X - Re(v), so the coefficients are real.  The
    partner of a pair takes the conjugate value, as its class is the
    conjugate class.  No distinctness test runs: distinct reduced forms are
    distinct points of the fundamental domain, where j is injective, and so
    is gamma_2; each integer is accepted on its certificate alone.

    The factors are expanded by ``_expand_fx``.  Coefficient k < h, C_k at
    width W, is recognized as the nearest integer m when its bound B_k
    (``_error_bounds`` of the values rounded to ``bits``) is below HCP_TOL
    and |C_k 2^-W - m| <= B_k.  m is exact in fixed point, so no rounding
    of the candidate enters the test, and as 2 HCP_TOL <= 1 no other
    integer lies within the bound.  The residual is the largest such
    distance, exact, and the coefficients are the exact values of the C_k."""
    ctx = PrecisionContext(bits, mp.ldexp(1, GUARD_BITS - bits))
    value = INVARIANTS[invariant][1]
    wd = bits + FX_GUARD
    factors = []
    values = []  # v once per ambiguous form, twice per pair: ``_error_bounds`` reads |v|
    for q, partner in _conjugate_classes(field.forms):
        re, im = _at_width(value(ModularPoint.from_quadratic(q.a, q.b, field.d, ctx), q), wd)
        v = _mpc(re, im, wd, bits)
        if partner is None:
            factors.append((-re,))
            values.append(v)
        else:
            factors.append(((re * re + im * im) >> wd, -2 * re))
            values += (v, v)
    coeffs = _expand_fx(factors, wd)
    bounds = _error_bounds(values, bits)
    tol = ctx.mpf(HCP_TOL)
    recognized, worst = [], 0
    for c, bound in zip(coeffs, bounds):
        m = (c + (1 << (wd - 1))) >> wd
        err = abs(c - (m << wd))
        if bound < tol and _exact_real(err, wd) <= bound:  # mpf comparison is exact
            recognized.append((m, 0, 1))
            worst = max(worst, err)
        else:
            recognized.append(None)
            worst = inf
    recognized.append((1, 0, 1))
    residual = mp.inf if worst == inf else _exact_real(worst, wd)
    return Polynomial(tuple(_exact_real(c, wd) for c in coeffs),
                      tuple(recognized), residual, max(bounds), bits, invariant)


def _poly_mul(f: list, g: list) -> list:
    """The ascending coefficients of f g, for integer lists f and g."""
    out = [0] * (len(f) + len(g) - 1) if f and g else []
    for i, x in enumerate(f):
        for k, y in enumerate(g):
            out[i + k] += x * y
    return out


def _from_gamma2(p: Polynomial) -> Polynomial:
    """H_D from the recognized polynomial P of gamma_2 = j^(1/3): with
    P(Y) = A(Y^3) + Y B(Y^3) + Y^2 C(Y^3), H_D(Y^3) = P(Y) P(w Y)
    P(w^2 Y) for w = e^(2 pi i / 3), so

        H_D(X) = A^3 + X B^3 + X^2 C^3 - 3 X A B C,

    in exact integers, monic of P's degree.  It keeps P's residual, bound
    and working bits."""
    coeffs = [m for m, _, _ in p.recognized]
    a, b, c = coeffs[0::3], coeffs[1::3], coeffs[2::3]
    h = [0] * len(coeffs)
    for shift, scale, (f, g, e) in ((0, 1, (a, a, a)), (1, 1, (b, b, b)),
                                    (2, 1, (c, c, c)), (1, -3, (a, b, c))):
        for k, x in enumerate(_poly_mul(_poly_mul(f, g), e)):
            h[k + shift] += scale * x
    return Polynomial(tuple(h), tuple((m, 0, 1) for m in h), p.residual, p.bound,
                      p.bits, "gamma2")


def hilbert_class_poly(field: Field, ctx: PrecisionContext) -> Polynomial:
    """H_D, the minimal polynomial of j(theta): prod over reduced forms of
    (X - j(theta_Q)), whose coefficients are rational integers.

    Which invariant.  For 3 not dividing d, gamma_2 = j^(1/3) is a class
    invariant (``_gamma2_form``), and its polynomial P has integer
    coefficients of a third of H_D's height (``_log2_height``).  When its
    plan ``_planned_bits(field, "gamma2")`` is at most ctx.bits, P is
    recognized at that plan and H_D follows in exact integers
    (``_from_gamma2``), reported with P's residual, bound and working bits.
    Otherwise, and for 3 dividing d, j is expanded at working =
    min(``_planned_bits(field)``, ctx.bits) bits: ctx.bits is a cap.  The
    choice reads d and ctx.bits alone.  Both run ``_class_poly``.

    Below the plan, the coefficients whose error bound reaches HCP_TOL stay
    unrecognized.  Should P leave a coefficient unrecognized at its plan,
    which only a wrong error model can cause, j runs instead.
    ``Polynomial.bits`` reports the working precision and
    ``Polynomial.invariant`` the invariant.  Nothing reads ctx.eps, so the
    result depends only on d and ctx.bits."""
    if field.d % 3:
        bits = _planned_bits(field, "gamma2")
        if bits <= ctx.bits:
            p = _class_poly(field, "gamma2", bits)
            if None not in p.recognized:
                return _from_gamma2(p)
    return _class_poly(field, "j", min(_planned_bits(field), ctx.bits))
