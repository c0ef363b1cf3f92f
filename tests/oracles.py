"""Slow, independent oracles used only by the tests.

Two kinds live here:

* Lattice sums.  They work from the defining lattice sums/products at
  float64, summing symmetric +-omega pairs so the tails fall off like 1/R^2.
  Accuracy is truncation-limited (~1e-5 at the default radii), which is
  exactly what these are for: catching wrong prefactors, branches and signs
  in the fast q-series paths, not validating eps-level accuracy (precision
  doubling and the transformation laws take care of that).
* Reference loops (``*_loop``).  They sum the same truncated
  products and series as the fixed-point kernels of ``rayclass.qseries``,
  term by term in mpmath at the working precision, with the same tail test
  and trial-division divisor sums.  Like the package, they sum at the
  input tau of the point, with q = exp(2 pi i tau) and the truncation
  index M of that tau (times ``scale``: at scale 2 they are converged).
  ``matches_loop`` is the criterion the evaluators meet against them:
  eps * 2^-GUARD_BITS at Im tau >= sqrt(3)/2, and below it never farther
  from the converged loop than the M-term loop is.
  ``min_pairwise_distance_loop`` is the double loop over all pairs that the
  integer sweep of ``rayclass.verify`` must match, tie rule included, and
  ``scale_loop`` the maximum modulus over every component that its scale
  must match.
  ``lemma52_loop`` is the lemma 5.2 sweep over every (form, s, t), which
  the one-ratio-per-class sweep of ``rayclass.verify`` must match, and
  ``lemma52_siegel_loop`` the same sweep with each ratio formed in mpmath
  from ``siegel`` values.
* ``mirror_member``: the key that complex conjugation sends (form, p1, p2)
  to, written out from the four kinds of reduced form, against which
  ``rayclass.reciprocity.mirror`` and the classes built on it are checked.
* ``hcp_oracle``: the Hilbert class polynomial from mpmath's own
  ``kleinj`` at reduced forms found by brute force, which
  ``rayclass.verify.hilbert_class_poly`` must match at its planned bits.
"""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np

from rayclass.classfield import ReducedForm
from rayclass.numerics import GUARD_BITS, truncation_terms
from rayclass.qseries import (
    FractionPair,
    ModularPoint,
    _reduce_mod_lattice,
    siegel,
    siegel_order,
    y_value,
)
from rayclass.verify import _pair_distance


def _half_lattice(tau: complex, radius: int) -> np.ndarray:
    """One representative of each +-pair of nonzero lattice points m*tau+n."""
    ms, ns = np.meshgrid(
        np.arange(-radius, radius + 1), np.arange(-radius, radius + 1),
        indexing="ij",
    )
    keep = (ms > 0) | ((ms == 0) & (ns > 0))
    return (ms[keep] * tau + ns[keep]).astype(complex)


def wp_lattice(z: complex, tau: complex, radius: int = 400) -> complex:
    w = _half_lattice(tau, radius)
    return 1 / z**2 + np.sum(1 / (z - w) ** 2 + 1 / (z + w) ** 2 - 2 / w**2)


def zeta_lattice(z: complex, tau: complex, radius: int = 400) -> complex:
    w = _half_lattice(tau, radius)
    return 1 / z + np.sum(2 * z**3 / ((z * z - w * w) * w * w))


def sigma_lattice(z: complex, tau: complex, radius: int = 400) -> complex:
    w = _half_lattice(tau, radius)
    return z * np.prod((1 - z * z / (w * w)) * np.exp(z * z / (w * w)))


def quasi_periods(tau: complex, radius: int = 400) -> tuple[complex, complex]:
    """(eta1, eta2) = (2 zeta(tau/2), 2 zeta(1/2)) for the lattice [tau, 1]."""
    return 2 * zeta_lattice(tau / 2, tau, radius), 2 * zeta_lattice(0.5, tau, radius)


def klein_lattice(r1: float, r2: float, tau: complex, radius: int = 400) -> complex:
    """Klein form: exp(-(r1 eta1 + r2 eta2) z / 2) * sigma(z), z = r1 tau + r2."""
    e1, e2 = quasi_periods(tau, radius)
    z = r1 * tau + r2
    return np.exp(-0.5 * (r1 * e1 + r2 * e2) * z) * sigma_lattice(z, tau, radius)


def g2g3_lattice(tau: complex, radius: int = 400) -> tuple[complex, complex]:
    w = _half_lattice(tau, radius)
    return 120 * np.sum(w**-4.0), 280 * np.sum(w**-6.0)


# ------------------------------------------------- reference q-series loops ---

def _q_terms(pt, scale):
    """(q, M): q = exp(2 pi i tau) at the point's input tau and ``scale``
    times the truncation index there."""
    q = mp.exp(2j * mp.pi * pt.tau)
    return q, scale * truncation_terms(pt.im, pt.ctx.eps)


def euler_loop(pt, scale=1) -> mp.mpc:
    """prod_{n=1..M} (1 - q^n)."""
    q, m = _q_terms(pt, scale)
    acc = mp.mpc(1)
    qn = mp.mpc(1)
    for _ in range(m):
        qn *= q
        acc *= 1 - qn
    return acc


def eta_loop(pt, scale=1) -> mp.mpc:
    with pt.ctx.work():
        pref = mp.sqrt(2 * mp.pi) * mp.exp(mp.mpc(0, mp.pi) / 4)
        return pref * mp.exp(mp.mpc(0, mp.pi) * pt.tau / 12) * euler_loop(pt, scale)


def delta_loop(pt, scale=1) -> mp.mpc:
    with pt.ctx.work():
        q, _ = _q_terms(pt, scale)
        return (2j * mp.pi) ** 12 * q * euler_loop(pt, scale) ** 24


def sigma35(n: int) -> tuple[int, int]:
    """(sigma_3(n), sigma_5(n)) by trial division."""
    s3 = s5 = 0
    for d in range(1, math.isqrt(n) + 1):
        if n % d == 0:
            e = n // d
            s3 += d**3
            s5 += d**5
            if e != d:
                s3 += e**3
                s5 += e**5
    return s3, s5


def eisenstein_loop(pt, scale=1) -> tuple[mp.mpc, mp.mpc]:
    with pt.ctx.work():
        q, m = _q_terms(pt, scale)
        cut = pt.ctx.eps * mp.mpf(2) ** (-GUARD_BITS)
        qn = mp.mpc(1)
        s3 = mp.mpc(0)
        s5 = mp.mpc(0)
        n = 0
        while True:
            n += 1
            qn *= q
            sig3, sig5 = sigma35(n)
            t5 = sig5 * qn
            s3 += sig3 * qn
            s5 += t5
            if n >= m and abs(t5) < cut:
                break
            if n > 100 * m + 1000:
                raise RuntimeError("eisenstein series failed to settle")
        twopi = 2 * mp.pi
        return twopi**4 / 12 * (1 + 240 * s3), twopi**6 / 216 * (1 - 504 * s5)


def _phase(e: Fraction) -> mp.mpc:
    """exp(pi*i*e) for a rational e, at the working precision."""
    return mp.exp(mp.mpc(0, mp.pi) * mp.mpf(e.numerator) / e.denominator)


def siegel_loop(r, pt, scale=1) -> mp.mpc:
    with pt.ctx.work():
        q, m = _q_terms(pt, scale)
        s1, s2 = math.floor(r.r1), math.floor(r.r2)
        a1, a2 = r.r1 - s1, r.r2 - s2
        w = mp.exp(2j * mp.pi * (pt.tau * mp.mpf(a1.numerator) / a1.denominator
                                 + mp.mpf(a2.numerator) / a2.denominator))
        winv = 1 / w
        core = 1 - w
        qn = mp.mpc(1)
        for _ in range(m):
            qn *= q
            core *= (1 - qn * w) * (1 - qn * winv)
        e = siegel_order(r)
        qpow = mp.exp(2j * mp.pi * pt.tau * mp.mpf(e.numerator) / e.denominator)
        val = -qpow * _phase(a2 * (a1 - 1)) * core
        if (s1, s2) != (0, 0):
            sign = -1 if (s1 * s2 + s1 + s2) % 2 else 1
            val *= sign * _phase(Fraction(-(s1 * a2 - s2 * a1)))
        return val


def wp_loop(z, pt, scale=1) -> mp.mpc:
    """wp(z; [tau, 1]) by the exponential-coordinate series (no lattice
    distance check)."""
    with pt.ctx.work():
        q, m = _q_terms(pt, scale)
        y, x = _reduce_mod_lattice(mp.mpc(z), pt)
        u = mp.exp(2j * mp.pi * (y * pt.tau + x))
        cut = pt.ctx.eps * mp.mpf(2) ** (-GUARD_BITS)
        total = mp.mpf(1) / 12 + u / (1 - u) ** 2
        qn = mp.mpc(1)
        n = 0
        while True:
            n += 1
            qn *= q
            a = qn * u
            b = qn / u
            term = a / (1 - a) ** 2 + b / (1 - b) ** 2 - 2 * qn / (1 - qn) ** 2
            total += term
            if n >= m and abs(term) < cut:
                break
            if n > 100 * m + 1000:
                raise RuntimeError("wp series failed to settle")
        return (2j * mp.pi) ** 2 * total


def agrees(new, ref, ctx) -> bool:
    """|new - ref| <= eps * 2^-GUARD_BITS, relative once |ref| exceeds 1."""
    return abs(new - ref) <= ctx.eps * mp.mpf(2) ** (-GUARD_BITS) * max(1, abs(ref))


# Below Im sqrt(3)/2, the bottom of the fundamental domain, the M-term loops
# can stop short of eps * 2^-GUARD_BITS (delta's by a factor of 21 at Im 1/20
# and 256 bits), while the package's lacunary sums run until they converge.
IN_DOMAIN_IM = math.sqrt(3) / 2


def matches_loop(new, loop, im, ctx) -> bool:
    """new against loop(k), a reference loop at the input tau run to k times
    its truncation index.  At Im tau >= sqrt(3)/2: ``agrees`` with the
    M-term loop.  Below: at least as close to the converged loop (2M terms)
    as the M-term loop is, and never farther than eps * 2^-GUARD_BITS
    allows."""
    if im >= IN_DOMAIN_IM:
        return agrees(new, loop(1), ctx)
    conv = loop(2)
    return agrees(new, conv, ctx) or abs(new - conv) <= abs(loop(1) - conv)


def min_pairwise_distance_loop(values, tol):
    """(smallest distance, first pair (i, j), i < j, whose distance lies
    within tol of it) over all n(n-1)/2 pairs; (inf, None) for fewer than
    two values."""
    dist = {(i, j): _pair_distance(values[i], values[j])
            for i in range(len(values)) for j in range(i + 1, len(values))}
    best = min((d for d in dist.values() if not mp.isnan(d)), default=mp.inf)
    limit = best + tol
    return best, next((p for p, d in dist.items() if d <= limit), None)


def scale_loop(values):
    """max(1, max |component|) over every component of every value, in
    order."""
    return max(mp.mpf(1), max(abs(c) for v in values
                              for c in (v if isinstance(v, tuple) else (v,))))


def _y_abs(pt, r):
    return abs(y_value(pt, r))


def _siegel_y_abs(pt, r):
    """|g_{2r} / g_r^4| from two ``siegel`` values, in mpmath."""
    return abs(siegel(r.doubled(), pt) / siegel(r, pt) ** 4)


def lemma52_loop(field, n, ctx, y_abs=_y_abs):
    """(residuals, details) of ``check_lemma52`` from one ratio per
    (form, s, t), every form with a >= 2 on its own point, same tie rule.
    ``y_abs(pt, r)`` is |y| at the index r, ``y_value`` by default."""
    with ctx.work():
        q = field.principal
        pt0 = ModularPoint.from_quadratic(q.a, q.b, field.d, ctx)
        rhs = y_abs(pt0, FractionPair.from_parts(0, 1, n))
        worst = cut = -mp.inf
        near = []  # ((form, s, t), ratio) tied with the worst so far
        count = 0
        for q in field.forms:
            if q.a < 2:
                continue
            pt = ModularPoint.from_quadratic(q.a, q.b, field.d, ctx)
            for s in range(n):
                for t in range(n):
                    if (2 * s) % n == 0 and (2 * t) % n == 0:
                        continue
                    r = FractionPair.from_parts(s, t, n)
                    ratio = y_abs(pt, r) / rhs
                    count += 1
                    if ratio >= cut:
                        near.append(((q.as_tuple(), s, t), ratio))
                        if ratio > worst:
                            worst = ratio
                            cut = worst - ctx.eps * max(1, worst)
        worst_at = next((at for at, ratio in near if ratio >= cut), None)
        residual = (worst - 1) if count else mp.mpf(-1)
    return ({"max_ratio_minus_1": residual},
            {"pairs_checked": count, "worst_ratio": worst if count else None,
             "worst_at": worst_at, "rhs_abs": rhs})


def lemma52_siegel_loop(field, n, ctx):
    """``lemma52_loop`` with every ratio |g_{2r} / g_r^4| formed in mpmath
    from two ``siegel`` values at the form's own point."""
    return lemma52_loop(field, n, ctx, _siegel_y_abs)


def mirror_member(q, p1, p2):
    """(Q*, p1*, p2*): the form and index residues, not reduced, that
    complex conjugation sends (Q, p1, p2) to, one row per kind of reduced
    form Q = (a, b, c); |y| at (Q, r) equals |y| at (Q*, r*)."""
    a, b, c = q.as_tuple()
    if b == 0:  # -conj theta = theta
        return q, p1, -p2
    if b == a:  # -conj theta = theta + 1
        return q, p1, p1 - p2
    if a == c:  # -conj theta = -1/theta
        return q, -p2, -p1
    return ReducedForm(a, -b, c), p1, -p2


def hcp_oracle(d, bits):
    """The integer coefficients of H_d, ascending with the leading 1: the
    product of X - 1728 kleinj(theta_Q) over the reduced forms (a, b, c) of
    d, found by trying every |b| <= a <= sqrt(|d|/3), expanded in mpmath at
    ``bits`` and rounded by mp.nint.  ``bits`` must exceed the height of H_d
    with room to spare: twice the plan of j, ``verify._planned_bits(field)``
    (the gamma_2 plan is about a third of it)."""
    with mp.workprec(bits):
        root = mp.sqrt(-d)
        coeffs = [mp.mpc(1)]
        for a in range(1, math.isqrt(-d // 3) + 1):
            for b in range(1 - a, a + 1):
                c, rest = divmod(b * b - d, 4 * a)
                if rest or c < a or (c == a and b < 0) or math.gcd(a, b, c) != 1:
                    continue
                j = 1728 * mp.kleinj(mp.mpc(-b, root) / (2 * a))
                coeffs = [(coeffs[k - 1] if k else 0) - (j * coeffs[k] if k < len(coeffs) else 0)
                          for k in range(len(coeffs) + 1)]
        return [int(mp.nint(mp.re(c))) for c in coeffs]
