"""(re, im, w) fixed point in Python integers; the one module that imports
``mpmath.libmp`` or reads the raw parts of an mpf or mpc (``_parts``).

Fixed-point contract.  The two sum loops (``qseries._triple``, which sums
into buckets, and ``qseries._theta_sums``) run on pairs (re, im) of Python
integers that stand for (re + i*im) * 2^-W, W = bits + FX_GUARD; their
inputs enter floored to W, each within one unit (``_fx``, ``_at_width``).
A level table turns a pass's buckets into a key's sums by exact products
with roots of unity at a wider width, floored once to W.  Every
power and quotient outside them (the powers of q^(1/24) and of the level
tables' roots, the Siegel prefactor and product, the wp quotient, y and
its powers, u, v, x, delta's q E^24 and eta's q^(1/24) E) is an
(re, im, w) triple for (re + i*im) * 2^-w cut to a number of significant
bits, so it keeps its relative bits however small it is: one binary
powering (``_Powers``), one exact integer division (``_quotient``).
Values leave by ``_mpc``, rounded to ``bits``; the eta and Eisenstein
prefactors, delta's (2*pi)^12 and the exponentials are mpmath numbers.
A bound given in mpmath numbers enters comparisons exactly (``_square_below``).
"""

from functools import cmp_to_key, lru_cache
from math import isqrt

import mpmath as mp
from mpmath.libmp import (fone, from_man_exp, fzero, mpf_cmp, mpf_neg, mpf_pos, round_nearest,
                          to_fixed, to_str)
from mpmath.libmp import prec_to_dps  # noqa: F401  (the CLI prints its bounds at these digits)

from .errors import NonFinite

GRID_GUARD = 8  # bits of the closest-pair grid below the widest mantissa


def _parts(z) -> tuple[tuple, tuple]:
    """The raw parts (re, im) of an mpmath complex or real number z."""
    return getattr(z, "_mpc_", None) or (z._mpf_, fzero)


def _fx(z, w: int) -> tuple[int, int]:
    """z, an mpf or mpc, as fixed-point integers (re, im) = floor(z * 2^w)."""
    re, im = _parts(z)
    return to_fixed(re, w), to_fixed(im, w)


def _placed(z, bits: int) -> tuple[int, int, int]:
    """z at ``bits`` as an (re, im, w) triple of ``bits`` significant bits,
    placed by the top binary exponent of its parts: the larger part is exact."""
    w = bits - max(exp + bc for _, man, exp, bc in _parts(z) if man)
    return (*_fx(z, w), w)


def _at_width(x: tuple[int, int, int], w: int) -> tuple[int, int]:
    """The triple x as fixed-point integers (re, im) at width w, floored."""
    re, im, xw = x
    return (re << (w - xw), im << (w - xw)) if xw <= w else (re >> (xw - w), im >> (xw - w))


def _mpc(re: int, im: int, w: int, prec: int | None = None) -> mp.mpc:
    """(re + i*im) * 2^-w rounded to prec bits, by default the working precision."""
    prec = prec or mp.mp.prec
    return mp.make_mpc((from_man_exp(re, -w, prec, round_nearest),
                        from_man_exp(im, -w, prec, round_nearest)))


def _exact_real(x: int, w: int) -> mp.mpf:
    """x * 2^-w as an mpf, exactly."""
    return mp.make_mpf(from_man_exp(x, -w))


def _exact(z) -> tuple[int, int, int]:
    """An mpf or mpc z as (re, im, w) with z = (re + i*im) * 2^-w exactly, w
    the width of its lowest mantissa bit (``_fx``); NonFinite for a nan or
    infinite part, which ``to_fixed`` would read as 0."""
    parts = _parts(z)
    if any(not man and exp for _, man, exp, _ in parts):  # mpmath's inf and nan
        raise NonFinite(f"{z} is not finite")
    w = -min((exp for _, man, exp, _ in parts if man), default=0)
    return (*_fx(z, w), w)


def _square_below(a: int, b: int, w: int, slack: int, x: mp.mpf, y: mp.mpf) -> bool:
    """Whether (a / b) 2^-w (1 + 2^-slack)^2 < (x y)^2, for integers a >= 0
    and b > 0, decided in exact integers: x y is exact, the product of the
    mpfs' mantissas times a power of 2.  False when x or y is not positive
    and finite."""
    (xs, xm, xe, _), (ys, ym, ye, _) = x._mpf_, y._mpf_
    if xs or ys or not xm or not ym:  # negative, zero, inf or nan
        return False
    man, exp = xm * ym, xe + ye
    lhs, rhs = a * ((1 << slack) + 1) ** 2, b * man * man
    sh = 2 * exp + w + 2 * slack  # lhs 2^-(w + 2 slack) < rhs 2^(2 exp)
    return lhs < rhs << sh if sh >= 0 else lhs << -sh < rhs


def _real_text(x, prec: int, dps: int):
    """An mpf x rounded to prec bits and printed by mpmath's ``to_str`` at
    dps digits, as ``mp.nstr(+x, dps, strip_zeros=True)`` prints it; for
    an mpc x, the pair of its parts' texts."""
    if isinstance(x, mp.mpc):
        re, im = x._mpc_
        return (to_str(mpf_pos(re, prec, round_nearest), dps),
                to_str(mpf_pos(im, prec, round_nearest), dps))
    return to_str(mpf_pos(x._mpf_, prec, round_nearest), dps)


def reflected(z: mp.mpc, turn: int) -> mp.mpc:
    """i^turn conj(z), exact: a sign and a swap of z's parts."""
    re, im = z._mpc_
    im = mpf_neg(im)
    for _ in range(turn % 4):
        re, im = mpf_neg(im), re
    return mp.make_mpc((re, im))


def _fx_mul(a: tuple[int, int], b: tuple[int, int], w: int) -> tuple[int, int]:
    """a * b at width w."""
    (ar, ai), (br, bi) = a, b
    return (ar * br - ai * bi) >> w, (ar * bi + ai * br) >> w


def _cut_bits(re: int, im: int, w: int, bits: int) -> tuple[int, int, int]:
    """(re + i*im) * 2^-w floored to at most ``bits`` significant bits."""
    k = max(re.bit_length(), im.bit_length()) - bits
    return (re >> k, im >> k, w - k) if k > 0 else (re, im, w)


def _cut_mul(x: tuple[int, int, int], y: tuple[int, int, int], bits: int
             ) -> tuple[int, int, int]:
    """x * y, the exact integer product cut to ``bits`` significant bits (``_cut_bits``)."""
    (ar, ai, aw), (br, bi, bw) = x, y
    return _cut_bits(ar * br - ai * bi, ar * bi + ai * br, aw + bw, bits)


def _cut_sq(x: tuple[int, int, int], bits: int) -> tuple[int, int, int]:
    """x^2, as ``_cut_mul(x, x, bits)`` with two integer products."""
    re, im, w = x
    return _cut_bits((re + im) * (re - im), 2 * re * im, 2 * w, bits)


def _quotient(num: tuple[int, int, int], den: tuple[int, int, int], bits: int
              ) -> tuple[int, int, int]:
    """num / den, den nonzero: one exact integer division carrying ``bits``
    significant bits."""
    (nr, ni, wn), (a, b, wd) = num, den
    mod2 = a * a + b * b
    qr, qi = nr * a + ni * b, ni * a - nr * b
    sh = max(0, bits + mod2.bit_length() - max(qr.bit_length(), qi.bit_length()))
    return (qr << sh) // mod2, (qi << sh) // mod2, sh + wn - wd


class _Powers:
    """x^k for integers k, from x = (re, im, w): binary powering over the
    squares x^(2^j), made only as far as a k needs them, from the lowest set
    bit of k up, every product cut to ``bits`` significant bits
    (``_cut_mul``, ``_cut_sq``).  Each k asked for is kept; x^0 is the exact
    (1, 0, 0) and a negative k the quotient 1 / x^-k (``_quotient``)."""

    def __init__(self, x: tuple[int, int, int], bits: int):
        self.bits = bits
        self.squares = [x]
        self.values = {0: (1, 0, 0)}

    def __call__(self, k: int) -> tuple[int, int, int]:
        val = self.values.get(k)
        if val is not None:
            return val
        bits = self.bits
        if k < 0:
            val = _quotient((1, 0, 0), self(-k), bits)
        else:
            sq = self.squares
            j, rest = 0, k
            while rest:
                if j == len(sq):
                    sq.append(_cut_sq(sq[-1], bits))
                if rest & 1:
                    val = sq[j] if val is None else _cut_mul(val, sq[j], bits)
                j, rest = j + 1, rest >> 1
        self.values[k] = val
        return val


def _mul(x, *xs) -> tuple[int, int, int]:
    """The exact product of (re, im, w) triples, left to right."""
    re, im, w = x
    for ar, ai, aw in xs:
        re, im, w = re * ar - im * ai, re * ai + im * ar, w + aw
    return re, im, w


def _sum(*xs) -> tuple[int, int, int]:
    """The exact sum of (re, im, w) triples, at the largest of their widths."""
    w = max(x[2] for x in xs)
    re = im = 0
    for xr, xi, xw in xs:
        re, im = re + (xr << (w - xw)), im + (xi << (w - xw))
    return re, im, w


@lru_cache(maxsize=64)
def _pi_squared(w: int) -> tuple[int, int, int]:
    """pi^2 as an (re, im, w) triple at width w, within one unit."""
    with mp.workprec(w + 8):
        return (*_fx(mp.pi ** 2, w), w)


@lru_cache(maxsize=256)
def _unit_root_fx(level: int, w: int) -> tuple[int, int]:
    """exp(2*pi*i/level) as fixed-point integers at width w, within one unit."""
    with mp.workprec(w + 4):
        return _fx(mp.exp(2j * mp.pi / level), w)


_MPF_ORDER = cmp_to_key(mpf_cmp)


def _scaled_modulus(num, terms, prec: int) -> mp.mpf:
    """|num| / max(1, |t| over terms) for exact (re, im, w) triples,
    rounded once to nearest at prec bits (``_sqrt_ratio``).  The squared
    moduli are exact while their parts have at most 16 prec bits, which the
    surface terms keep up to about Im tau = prec.  Wider parts, as the
    9 10^6 bits of those at Im tau = 10^6, are cut to that width first
    (``_mod2_bounds``): the max is bounded by the bounds' maxima, and when
    both ends of the quotient round alike (rounding is monotone) that is the
    value, else the cut doubles until it cuts nothing."""
    cap = 16 * prec
    while True:
        (nlo, nhi), *mods = (_mod2_bounds(t, cap) for t in (num, *terms))
        slo = max(fone, *(lo for lo, _ in mods), key=_MPF_ORDER)
        if nlo is nhi and all(lo is hi for lo, hi in mods):  # nothing was cut
            return mp.make_mpf(_sqrt_ratio(nlo, slo, prec))
        shi = max(fone, *(hi for _, hi in mods), key=_MPF_ORDER)
        lo = _sqrt_ratio(nlo, shi, prec)
        if lo == _sqrt_ratio(nhi, slo, prec):
            return mp.make_mpf(lo)
        cap *= 2


def _mod2_bounds(x, cap: int) -> tuple[tuple, tuple]:
    """Raw mpf bounds (lo, hi) of |x|^2 for x = (re, im, w), from the
    magnitudes of its parts cut to cap bits; lo == hi, exact, when the cut
    drops no set bit."""
    re, im, w = x
    a, b = abs(re), abs(im)
    k = max(0, max(a, b).bit_length() - cap)
    lo = from_man_exp((a >> k) ** 2 + (b >> k) ** 2, 2 * (k - w))
    if not (a | b) & ((1 << k) - 1):
        return lo, lo
    return lo, from_man_exp(((a >> k) + 1) ** 2 + ((b >> k) + 1) ** 2, 2 * (k - w))


def _sqrt_ratio(n: tuple, d: tuple, prec: int) -> tuple:
    """sqrt(n / d) for raw mpf n >= 0 and d > 0, rounded to nearest at prec
    bits: one integer division and one integer square root of at least
    prec + 2 bits, their remainders kept as a sticky bit."""
    _, nm, ne, nbc = n
    _, dm, de, dbc = d
    if not nm:
        return fzero
    s = (2 * prec + 6 - nbc + dbc - ne + de) // 2  # the root is r 2^-s
    sh = ne - de + 2 * s
    q, rem = divmod(nm << sh, dm) if sh >= 0 else divmod(nm, dm << -sh)
    r = isqrt(q)
    return from_man_exp(2 * r + bool(rem or r * r != q), -s - 1, prec, round_nearest)


def _grid(values):
    """(g, rows): every value on the integer grid 2^g.  rows[k] lists Re and
    Im of each component of values[k], (X0, Y0) for a number and (X0, Y0,
    X1, Y1) for a pair, each floored to a multiple of 2^g, so it is exact or
    below the part by less than one unit; None if a part is not finite.  g
    is the largest top exponent minus the widest mantissa minus GRID_GUARD,
    so the largest parts are exact."""
    parts = [p for v in values for c in (v if isinstance(v, tuple) else (v,))
             for p in _parts(c)]
    nonzero = [(e + b, b) for _, m, e, b in parts if m]  # finite and nonzero
    g = (max(t for t, _ in nonzero) - max(b for _, b in nonzero)
         - GRID_GUARD) if nonzero else 0
    fixed = [None if p[3] < 0 else to_fixed(p, -g) for p in parts]  # None: nan, inf
    w = len(parts) // len(values) if values else 1  # parts per value
    rows = (fixed[k:k + w] for k in range(0, len(fixed), w))
    return g, [None if None in r else tuple(r) for r in rows]
