"""q-expansion evaluators: eta, Eisenstein forms, Siegel functions, wp.

Conventions fixed across the package:

* ``eta`` carries the sqrt(2*pi)*zeta_8 prefactor, so that eta(tau)^24 equals
  the discriminant ``delta`` with no stray powers of 2*pi.  eta comes from
  the Euler product E, delta from E^12 of the theta sums (Jacobi's
  2 eta^3 = theta_2 theta_3 theta_4), so eta^24 = delta is an identity
  between two independent sums.  Every stored value follows this
  normalization; the curve coordinates u, v, x, y below are ratios in which
  it matters.
* Fractional powers of q are taken on the principal branch straight from
  tau, never as roots of q: q^(1/2) and q are integer powers of
  q^(1/24) = exp(2*pi*i*tau/24), and at an index of level N they are
  integer powers of q^(1/L) = exp(2*pi*i*tau/L), L = 12 N^2, read from the
  point's level-N table (below).
* Index bookkeeping is exact integer arithmetic.  An index is held as
  residues over its level, (r1, r2) = (p1/N, p2/N) with N the lcm of the
  denominators and gcd(p1, p2, N) = 1 (``FractionPair``).  Its reduction
  into [0,1)^2 is (s, t) = (p1 mod N, p2 mod N) at the same level, and it
  multiplies the value by the exact quasi-periodicity root of unity of the
  underlying Klein form, whose exponent is an integer over N.

Summing at tau.  Every series is summed at tau itself, with no move into
the fundamental domain first: the lacunary sums below take
O(sqrt(bits / Im tau)) steps, so they stay short down to the Im floor 1/20
(``numerics.MIN_IM``).  A point takes one exponential of tau,
q^(1/24) = exp(2*pi*i*tau/24) at W + 8 significant bits; q^(1/2) is its
cut 12th power and q the cut square of that (``ModularPoint._q_powers``),
so eta, u, v, x and delta read one set of powers, each with W + 8
significant bits however small it is, and q enters the sums floored to
width W (``qfx``).  Rounding 2*pi*tau/24 to p bits moves q by about
2*pi |tau| 2^-p relative, 2^22.6 2^-p at the Im ceiling 10^6, which the
40 bits of W + 8 above ``bits`` absorb.  A level table takes its own
root q^(1/L), a root of q and not a power, only for a power that
q^(1/24) cannot give ("Level-N tables").  Both exponentials are taken
at their precision plus the bit length of floor(|Re tau|) and then
rounded (``_exp_tau``, ``_re_bits``), so a large Re tau costs their phases
no bits (``_exp_placed``); wp adds the bits of a complex z's lattice
coordinates when it reduces z.

Sums.  Each series is summed in ``_fixed``'s fixed point (its "Fixed-point
contract") at width W = bits + FX_GUARD, and stops at its first term below
2^-W, so every value is the converged function.  Two loops sum them.
``_triple`` sums the halves Ev (even n) and Od (odd n) of
sum_n Q^(n(n-1)/2) w^n, with Ev - Od = E(Q) P(w) and
P(w) = (1-w) prod_n (1-Q^n w)(1-Q^n/w) (Jacobi triple product).  At
Q = q^3, w = q it is the Euler product E (eta and the Siegel 1/E), as
E(q^3) P(q) = E(q) (Euler's pentagonal theorem); at Q = q,
w = exp(2*pi*i*z), Ev - Od is E times the Siegel product, and
(Ev + Od)/(Ev - Od) = i theta_2(pi z)/theta_1(pi z) gives wp (DLMF
23.6.2).  ``_theta_sums`` sums the theta constants (g2, g3, the constants
of wp, and the factors of E^12 for delta, j, u and x).  No kernel reads
``terms()``; it sizes the tests' reference loops.

Why FX_GUARD = 32 bits suffice: each product truncates by less than one
unit 2^-W per component, and the terms and steps of the sums have modulus
<= 1.  At the Im floor 1/20 the sums take at most 48 steps per side
(Euler), 41 (theta) and 83 per side (``_triple`` at an index) at 1536
bits, and 20, 17 and 36 at 256 bits (in F, Im >= sqrt(3)/2, at most 11, 9
and 20 at 1536 bits).  Against the same inputs at twice the width they end
at most 11 (Euler) and 78 (``_triple`` at an index) units off; the theta
constants, whose modulus grows to about 1/Im(tau)^2, end at most 990 units
times S = |theta_3^4 + theta_4^4| off, and E4 and E6 at most 2.9e4 S^2 and
2.5e5 S^3, the sizes of their terms, so E6 stays within 2^-(bits + 14) S^3
even where it vanishes (21 points at Im 1/20, the images of i and rho down
to Im 1/17, and for ``_triple`` indices of levels 2 to 97 at 7 points of
Im 1/20).  The other guard bits let a result's modulus fall well below 1
before that error reaches its last bit ("Index guard" below); at a complex
z, wp's relative error 2^-W / |z - lattice| stays far below the
2^-bits / |z - lattice| left by rounding z and w to ``bits``.

Level-N tables.  A reduced index (a1, a2) = (s/N, t/N), N its level, needs
w = q^(s/N) zeta_N^t, q/w, the Siegel prefactor q^(B2(s/N)/2) and
exp(pi*i*t*(s-N)/N^2).  With L = 12 N^2 each is an integer
power, of exponent at most L, of rho = q^(1/L) or xi = exp(2*pi*i/L).
A power rho^k with N^2 | 2k is (q^(1/24))^(2k/N^2) and is read from the
point's powers of q^(1/24) (``ModularPoint._q24``); rho's exponential is
taken on the first k that is not of this form, and which of the two
serves k depends on (k, N) alone.  The w-terms' exponents 12 N s and
12 N (N - s) give 24 s / N and 24 (N - s) / N, so every w-term of a level
dividing 24 is a power of q^(1/24); the prefactor's exponent
6 s^2 - 6 s N + N^2 gives 12 s^2 / N^2 - 12 s / N + 2, an integer where
N^2 | 12 s^2: at s = 0 (q^(1/12)) and at every index of level 2.  So an
index (0, t/N) takes no rho, level 2 never does, and the curve and
surface checks and lemma 5.2's principal-form reference, whose indices
are (0, 1/N) and (0, 2/N), take one exponential per point.  The
point keeps one table per N (``_LevelTable``), the home of everything keyed
by a reduced index of level N: rho, taken at most once, xi, and the
powers asked for so far, made by binary powering from squares that are
themselves made only as far as an exponent needs them (one key costs
O(log N) products, never O(N)).  Every power of rho and xi is a triple of
Z = W + bitlen(L) + 2 significant bits.  A k-th power of a base with one
unit of relative error carries at most k + 2 bitlen(k) < 2^(bitlen(L) + 1)
units, which the bitlen(L) + 2 extra bits bring below one unit at W: w and
q/w are floored to W from them, and the prefactor, of modulus between
|q|^(1/12) and |q|^(-1/24) (a negative exponent is 1 / rho^-k), keeps its
relative bits.  rho is taken at Z + 8 bits: rounding 2*pi*tau/L moves
rho^k, k <= L, as rounding 2*pi*tau/24 moves q (above).  The powers of
q^(1/24) carry W + 8 significant bits, which is Z at level 2 and up to
bitlen(L) - 6 bits less above it, but their exponent m = 2k/N^2 is
small: k <= L gives m <= 24, and the prefactor's k >= -N^2/2 gives
m >= -1, one quotient 1 / q^(1/24).  Such a power carries at most
m + 2 bitlen(m) + 1 <= 35 < 2^6 units at W + 8, below 2^-2 units at W:
a w-term, floored to W, keeps its unit, and the prefactor, cut to Z,
is within 2^-(W + 2) relative, below the unit at W of the Siegel product
it multiplies.  At the Im ceiling, (q^(1/24))^m with m <= 24 moves under
the rounding of 2*pi*tau/24 no more than q does, which the 40 bits of
W + 8 above ``bits`` absorb ("Summing at tau").  siegel, wp, x and y at
every index of levels 2, 3, 4, 6, 8, 12, 16 and 24 were within
0.98 2^-bits relative of the same evaluators at 2 bits + 64 (256 bits,
at 0.41 + 0.06i, 0.3 + 10^6 i and the point of (1, 1, 390) of -1559), the
same figure as with rho serving every power.
The Siegel value is the cut product of (Od - Ev) 1/E and the prefactor.
A table is made for each level at which the point is evaluated, not for
each level of an index: y reads both of its Siegel products from r's
table, and the lemma 5.2 sweep evaluates every (s, t) at level N, so each
such point keeps one table and at most one rho exponential.  It holds no
reference to the point: its methods take the point as an argument, so no
cycle outlives a point.

Index guard.  Every value at an index (siegel, wp, x and y) reads the
(Ev, Od) entry of its canonical key, where only the factors 1 - w and
1 - q/w of P(w) can come near 0 (near the lattice), so one exact test
where the entry is summed guards them all (``_LevelTable.triple``): Ev -
Od, at most 78 units of 2^-W off, must keep bits + INDEX_MARGIN
significant bits, or the index raises OnLattice.  It reads no eps, and
what it refuses does not depend on bits: |Ev - Od| is about
2 pi |E|^3 dist(z, lattice) there, so (0, 1/N) is refused from N = 2^28.
Against the same evaluators at 2 bits + 64 (64 and 256 bits, six tau of
Im 1/20 to 1000, indices of levels 2^16 to 2^39 next to the lattice),
every value kept was within 3.9 2^-bits relative.

Siegel memo and y.  The level-N table keeps two memos, keyed by canonical
reduced indices only: of (s, t) and (-s mod N, -t mod N), the
lexicographically smaller (``_fold``).  An index whose key is not canonical
is evaluated through -r, as g_{-r} = -g_r, and the sign joins the shift
root of unity as a half turn.  The first memo keeps ``_triple``'s (Ev, Od)
at w and q/w, so the Siegel product and ``wp`` at an index share one sum;
wp reads it at the canonical key of its index, as it depends on
((Ev + Od)/(Ev - Od))^2 alone, which is the same at r and -r.  The Siegel
product itself folds only through -r: at s = 0 the two keys' sums differ,
P(1/w) = -P(w)/w.  The second memo keeps the Siegel product, cut once to W
significant bits.  ``siegel`` applies the root of unity as one power of xi
and a sign (``rotate``, which makes g_{-r} = -g_r hold bit for bit) and
rounds to ``bits``.  ``y_quotient``, the one evaluator of y = -g_d/g_r^4,
reads g_r and g_d from one table, r's own level-N table (or that of a
multiple N of r's level): d's residues are lifted to level N and d is
keyed at (2s, 2t) mod N for d = 2r, through the same ``_fold``, with its
root-of-unity exponent taken at level N.  It cuts g_r^4 (two exact
squarings) to W significant bits, applies the roots of unity the same way
and divides in exact integers (``_quotient``).  It raises that W-bit
quotient to the power k that an orbit asks for (y^epow,
y^12N) by cut products (``_Powers``) and rounds once to ``bits``.

u, v, x and j.  u = g2^3 / delta = E4^3 / (1728 q E^24) is one exact integer
quotient of the theta sums' fixed-point pieces, with E4 = (a+b)^2 - 3ab
(a, b = theta_3^4, theta_4^4) and E^24 = (A T (A^2 + C))^2
(theta_3 theta_4)^8 (``_theta_sums``), E^12 formed once (``_e12``) and
squared once (``_e24``).  Every product is exact and cut to W significant
bits (``_cut_mul``, ``_cut_sq``), so theta_3 theta_4 is
never shifted in fixed point, where (theta_3 theta_4)^8, about 1e-42 at the
Im floor, would lose its relative bits.  q enters the denominator as the
cut integers of ``_q_powers``, so it keeps its significant bits however
small it is, and ``_quotient`` divides once; u is rounded once to
``bits``.  j = 1728 u.
v = g3 / eta^12 = -E6 / (216 q^(1/2) E^12) is one such quotient too, as
eta^12 = (2*pi)^6 zeta_8^12 q^(1/2) E^12 = -(2*pi)^6 q^(1/2) E^12 and
g3 = (2*pi)^6 E6 / 216, with q^(1/2) from ``_q_powers`` as q is.  On the
imaginary axis every factor is real, so u, v and delta are exactly real.
x = g2 g3 wp / delta at an index is one such quotient too: with
P, M = Ev +- Od at the index, S = a + b and D = theta_3^2 theta_4^2,
wp = (pi^2/3) (S M^2 - 3 D P^2) / M^2, so x = E4 E6 (S M^2 - 3 D P^2) /
(31104 q E^24 M^2) and pi cancels (``_wp_parts`` serves both).  None of
them forms g2, g3, eta, a power of pi or delta.  delta itself is
(2*pi)^12 times the cut product of the same E^24 and q, rounded once,
and eta the cut product of q^(1/24) and the Euler sum, rounded once and
times sqrt(2*pi) zeta_8; eta^24 = delta stays a check between the Euler
sum and the theta sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import NamedTuple

import mpmath as mp

from ._fixed import (_Powers, _at_width, _cut_mul, _cut_sq, _fx, _fx_mul, _mpc, _pi_squared,
                     _placed, _quotient, _sum, _unit_root_fx)
from .classfield import CMPoint
from .errors import DegenerateIndex, OnLattice
from .numerics import FX_GUARD, PrecisionContext, check_im_range, truncation_terms


@dataclass(frozen=True)
class ModularPoint:
    """A point tau in the upper half-plane, where its q-series are summed.

    Its fields are ``tau``, kept as given, and ``ctx``; every evaluator sums
    its series at tau itself (module docstring).  The point keeps only
    fixed-point data, each piece computed on first use and shared by every
    evaluator; the values (eta, delta, g2 and g3, u, v, ...) are formed by
    the module-level evaluators:

    * ``_q24``, the powers of q^(1/24) = exp(2*pi*i*tau/24), the one
      exponential, which ``_q_powers`` and the level tables read;
      ``_q_powers``, q^(1/24), q^(1/2) and q as cut integers from it;
      ``qfx``, q at width W; ``q``, q rounded to ``bits`` (``wp`` at a
      complex z);
    * ``_euler_fx``, the Euler product E at width W, and ``_euler_inv``,
      1/E as a cut triple; ``_thetas``, the theta constants and the four
      factors of E^12; ``_e4`` and ``_e6``, E4 and 2 E6; ``_e12`` and
      ``_e24``, E^12 and E^24 as cut integers; ``_x_scale``, the constants
      of ``x_value``;
    * ``_tables``, one ``_LevelTable`` per evaluation level N, which keeps
      all data keyed by an index (s/N, t/N) in [0,1)^2 (module docstring).

    No curve constant takes a guard: each divides by q E^24 or
    q^(1/2) E^12, a power of q times a power of E, which is bounded away
    from 0 for Im tau >= 1/20; mpmath's exponent does not underflow.

    ``at(r)`` is the one conversion of an index r to z = r1*tau + r2, and
    ``terms()`` the truncation index of the tests' reference loops.
    """

    tau: mp.mpc
    ctx: PrecisionContext

    @classmethod
    def from_complex(cls, tau, ctx: PrecisionContext) -> "ModularPoint":
        with ctx.work():
            if isinstance(tau, (tuple, list)):
                tau = ctx.mpc(*tau)
            else:
                tau = mp.mpc(tau)
            if not mp.isfinite(tau):
                raise ValueError(f"tau={mp.nstr(tau, 8)} is not finite")
            check_im_range(mp.im(tau))
            return cls(tau, ctx)

    @classmethod
    def from_quadratic(cls, a: int, b: int, d: int, ctx: PrecisionContext) -> "ModularPoint":
        """The root (-b + sqrt(d))/(2a) of a X^2 + b X + c, d = b^2 - 4ac < 0."""
        if d >= 0 or a <= 0:
            raise ValueError("expected a > 0 and negative discriminant")
        return cls.from_complex(CMPoint(a, b, d).to_mpc(ctx), ctx)

    @property
    def im(self) -> mp.mpf:
        return mp.im(self.tau)

    def terms(self) -> int:
        """Truncation index M of the term-by-term reference loops at tau;
        the lacunary kernels do not read it."""
        return truncation_terms(self.im, self.ctx.eps)

    @property
    def width(self) -> int:
        """Fixed-point width W = bits + FX_GUARD of the series loops."""
        return self.ctx.bits + FX_GUARD

    @cached_property
    def _q24(self) -> "_Powers":
        """The powers of q^(1/24) at W + 8 significant bits: the point's one
        exponential, exp(2*pi*i*tau/24) from ``_exp_tau``, placed by the top
        binary exponent of its parts (module docstring, "Summing at tau").
        ``_q_powers`` and the level tables read it."""
        bits = self.width + 8
        return _Powers(_exp_placed(self.tau, 24, bits), bits)

    @cached_property
    def _q_powers(self) -> tuple[tuple[int, int, int], tuple[int, int, int], tuple[int, int, int]]:
        """(q^(1/24), q^(1/2), q) as (re, im, w) triples of W + 8 significant
        bits: q^(1/24) from ``_q24``, its cut 12th power and the cut square
        of that."""
        q24 = self._q24
        half = q24(12)
        return q24(1), half, _cut_sq(half, q24.bits)

    @cached_property
    def qfx(self) -> tuple[int, int]:
        """q as fixed-point integers (re, im) at width W, floored from
        ``_q_powers``."""
        return _at_width(self._q_powers[2], self.width)

    @cached_property
    def q(self) -> mp.mpc:
        """q = exp(2*pi*i*tau) from ``_q_powers``, rounded to ``bits``."""
        return _mpc(*self._q_powers[2], self.ctx.bits)

    @cached_property
    def _euler_fx(self) -> tuple[int, int]:
        """E = prod_{n>=1} (1 - q^n) = (1 - q) prod_{n>=1} (1 - q^(3n+1))
        (1 - q^(3n-1)) (1 - q^(3n)) at width W: ``_triple`` at (q^3, q)."""
        w, q = self.width, self.qfx
        q2 = _fx_mul(q, q, w)
        (er, ei), (odr, odi) = _triple(_fx_mul(q2, q, w), q, q2, w)
        return er - odr, ei - odi

    @cached_property
    def _euler_inv(self) -> tuple[int, int, int]:
        """1 / prod_{n>=1} (1 - q^n) as an (re, im, w) triple of W
        significant bits (``_LevelTable.siegel``)."""
        return _quotient((1, 0, 0), (*self._euler_fx, self.width), self.width)

    @cached_property
    def _thetas(self) -> tuple[tuple[int, int], tuple[int, int], tuple[tuple[int, int], ...]]:
        """theta_3^4 + theta_4^4, (theta_3 theta_4)^2 and the four factors
        of E^12 at width W (``_theta_sums``)."""
        return _theta_sums(self.qfx, self.width)

    @cached_property
    def _e4(self) -> tuple[tuple[int, int], tuple[int, int], tuple[int, int]]:
        """(E4, ab, (a+b)^2) at width W for a, b = theta_3^4, theta_4^4, with
        E4 = (a+b)^2 - 3ab (DLMF 23.6)."""
        w = self.width
        s, d2, _ = self._thetas
        p, s2 = _fx_mul(d2, d2, w), _fx_mul(s, s, w)
        return (s2[0] - 3 * p[0], s2[1] - 3 * p[1]), p, s2

    @cached_property
    def _e6(self) -> tuple[int, int]:
        """2 E6 = (a+b)(9ab - 2(a+b)^2) at width W for a, b = theta_3^4,
        theta_4^4 (DLMF 23.6), from the squares of ``_e4``."""
        _, p, s2 = self._e4
        return _fx_mul(self._thetas[0], (9 * p[0] - 2 * s2[0], 9 * p[1] - 2 * s2[1]), self.width)

    @cached_property
    def _e12(self) -> tuple[int, int, int]:
        """E^12 = A T (A^2 + C) (theta_3 theta_4)^4 as an (re, im, w) triple
        from the factors of ``_thetas``, each product cut to W significant
        bits (module docstring, "u, v, x and j")."""
        w = self.width
        big_a, t, apc, d = ((*x, w) for x in self._thetas[2])
        return _cut_mul(_cut_mul(_cut_mul(big_a, t, w), apc, w), _cut_sq(_cut_sq(d, w), w), w)

    @cached_property
    def _e24(self) -> tuple[int, int, int]:
        """E^24 as an (re, im, w) triple: the cut square of ``_e12``."""
        return _cut_sq(self._e12, self.width)

    @cached_property
    def _x_scale(self) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
        """(E4 E6, 31104 q E^24), each cut to W significant bits: the
        numerator and denominator of x / (S M^2 - 3 D P^2) at every index
        (``x_value``)."""
        w = self.width
        e6r, e6i = self._e6
        qr, qi, qw = self._q_powers[2]
        return (_cut_mul((*self._e4[0], w), (e6r, e6i, w + 1), w),
                _cut_mul(self._e24, (31104 * qr, 31104 * qi, qw), w))

    @cached_property
    def _tables(self) -> dict:
        return {}

    def _table(self, n: int) -> "_LevelTable":
        tab = self._tables.get(n)
        if tab is None:
            tab = self._tables[n] = _LevelTable(self, n)
        return tab

    def at(self, r: "FractionPair") -> mp.mpc:
        """z = r1*tau + r2, the point of C/[tau, 1] that the index r names."""
        with self.ctx.work():
            return (self.tau * r.p1 + r.p2) / r.level


@dataclass(frozen=True, init=False, repr=False)
class FractionPair:
    """An index (r1, r2) in Q^2 \\ Z^2 labelling Siegel/Fricke functions.

    Stored in normal form as integers (p1, p2, level) with r1 = p1/level and
    r2 = p2/level: the level N is the lcm of the denominators of r1 and r2,
    so gcd(p1, p2, N) = 1, and N >= 2.  The shift is kept (p1, p2 are not
    reduced mod N), and equal indices have equal normal forms however they
    were spelled.  The residues (p1 mod N, p2 mod N) name the reduced index
    in [0,1)^2, at the same level.
    """

    p1: int
    p2: int
    level: int

    def __init__(self, r1, r2):
        r1, r2 = Fraction(r1), Fraction(r2)
        n = math.lcm(r1.denominator, r2.denominator)
        _set_index(self, r1.numerator * (n // r1.denominator),
                   r2.numerator * (n // r2.denominator), n)

    @classmethod
    def from_parts(cls, p1: int, p2: int, n: int) -> "FractionPair":
        """(p1/n, p2/n), brought to normal form."""
        if n < 2:
            raise ValueError("denominator must be >= 2")
        g = math.gcd(p1, p2, n)
        r = object.__new__(cls)
        _set_index(r, p1 // g, p2 // g, n // g)
        return r

    @property
    def r1(self) -> Fraction:
        return Fraction(self.p1, self.level)

    @property
    def r2(self) -> Fraction:
        return Fraction(self.p2, self.level)

    def __repr__(self) -> str:
        return f"FractionPair(r1={self.r1!r}, r2={self.r2!r})"

    def doubled(self):
        """(2 r1, 2 r2), or None when it degenerates into Z^2 (level 2)."""
        if self.level == 2:
            return None
        return FractionPair.from_parts(2 * self.p1, 2 * self.p2, self.level)

    def negated(self) -> "FractionPair":
        return FractionPair.from_parts(-self.p1, -self.p2, self.level)


def _set_index(r: FractionPair, p1: int, p2: int, n: int) -> None:
    if n == 1:
        raise DegenerateIndex(f"index ({p1}, {p2}) lies in Z^2")
    object.__setattr__(r, "p1", p1)
    object.__setattr__(r, "p2", p2)
    object.__setattr__(r, "level", n)


def _re_bits(tau: mp.mpc) -> int:
    """The bit length of floor(|Re tau|), 0 when |Re tau| < 1: the bits that
    rounding 2*pi*tau (or y*tau, 0 <= y < 1) to prec bits costs the phase of
    its exponential, which is therefore taken at prec plus these bits."""
    return int(abs(mp.re(tau))).bit_length()


def _exp_tau(tau: mp.mpc, den: int, prec: int) -> mp.mpc:
    """exp(2*pi*i*tau/den) at prec + ``_re_bits(tau)``, rounded to prec bits."""
    with mp.workprec(prec + _re_bits(tau)):
        val = mp.exp(2j * mp.pi * tau / den)
    with mp.workprec(prec):
        return +val


def _exp_placed(tau: mp.mpc, den: int, bits: int) -> tuple[int, int, int]:
    """exp(2*pi*i*tau/den) from ``_exp_tau``, placed at ``bits`` (``_placed``)."""
    return _placed(_exp_tau(tau, den, bits), bits)


@lru_cache(maxsize=64)
def _eta_prefactor(prec: int) -> mp.mpc:
    """sqrt(2*pi) * zeta_8 at prec bits, once per precision."""
    with mp.workprec(prec):
        return mp.sqrt(2 * mp.pi) * mp.exp(mp.mpc(0, mp.pi) / 4)


def _theta_sums(q: tuple[int, int], w: int):
    """(theta_3^4 + theta_4^4, (theta_3 theta_4)^2, (A, T, A^2 + C,
    theta_3 theta_4)) at width w, the last four the factors of
    E^12 = prod_{n>=1} (1 - q^n)^12, the thetas at the nome
    e^(pi i tau), via S = sum_{m>=1} q^(2m^2) and
    T = sum_{m>=0} q^(2m(m+1)), summed to their first term below 2^-w (the
    terms run T_(m-1), S_m, T_m, both steps q^(2m)).  A = 1 + 2S and
    C = 4qT^2 give theta_3,4 = A +- B with B^2 = C, hence
    theta_3^4 + theta_4^4 = 2(A^4 + 6A^2 C + C^2), theta_3 theta_4 =
    A^2 - C and theta_2^8 = (theta_3^4 - theta_4^4)^2 = 64 A^2 C (A^2 + C)^2.
    Jacobi's 2 eta^3 = theta_2 theta_3 theta_4 (DLMF 20.4, 23.6), with
    eta^24 = q E^24, then gives E^12 = A T (A^2 + C) (theta_3 theta_4)^4
    (the sign from q -> 0).  Its factors are returned, not multiplied out:
    at the Im floor (theta_3 theta_4)^4 is about 1e-21, below which a
    fixed-point product would lose relative bits, so ``ModularPoint._e12``
    multiplies them out in exact integers cut to W significant bits."""
    one = 1 << w
    step = q2 = _fx_mul(q, q, w)  # q^(2m)
    t = (one, 0)  # T_(m-1)
    sr = si = 0
    tr, ti = t
    m = 1
    while True:
        u = _fx_mul(t, step, w)  # S_m
        if -2 < u[0] < 2 and -2 < u[1] < 2:  # parts in {-1, 0, 1}: below 2^-w
            break
        t = _fx_mul(u, step, w)  # T_m
        sr, si, tr, ti = sr + u[0], si + u[1], tr + t[0], ti + t[1]
        step = _fx_mul(step, q2, w)
        m += 1
        if m > w:  # pragma: no cover
            raise RuntimeError("theta series failed to settle")
    big_a = (one + 2 * sr, 2 * si)
    a2 = _fx_mul(big_a, big_a, w)
    c = tuple(4 * x for x in _fx_mul(q, _fx_mul((tr, ti), (tr, ti), w), w))
    a4, a2c, c2 = _fx_mul(a2, a2, w), _fx_mul(a2, c, w), _fx_mul(c, c, w)
    s = tuple(2 * (x + 6 * y + z) for x, y, z in zip(a4, a2c, c2))
    d = (a2[0] - c[0], a2[1] - c[1])
    return s, _fx_mul(d, d, w), (big_a, (tr, ti), (a2[0] + c[0], a2[1] + c[1]), d)


def _triple(q: tuple[int, int], w: tuple[int, int], qw: tuple[int, int],
            wd: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """(Ev, Od): the even-n and odd-n halves of sum_{n in Z} q^(n(n-1)/2) w^n
    at width wd, for w and qw = q/w of modulus <= 1.  The terms step by
    t_(n+1) = t_n q^n w and t_(-n-1) = t_(-n) q^n (q/w), n >= 1, so every
    term has modulus <= 1, and each side stops at its first term below
    2^-wd.  Ev -+ Od = P(+-w) prod_{n>=1} (1 - q^n) with P(w) = (1 - w)
    prod_{n>=1} (1 - q^n w)(1 - q^n / w) (Jacobi triple product); at q^3,
    w = q, Ev - Od is E (``ModularPoint._euler_fx``)."""
    qr, qi = q
    sums = [[1 << wd, 0], [0, 0]]  # even n, odd n
    for tr, ti in (w, qw):  # t_1 and t_(-1)
        sr, si = (tr * qr - ti * qi) >> wd, (tr * qi + ti * qr) >> wd  # the step
        n = 1
        while tr > 1 or tr < -1 or ti > 1 or ti < -1:  # a part outside {-1, 0, 1}
            acc = sums[n & 1]
            acc[0], acc[1] = acc[0] + tr, acc[1] + ti
            tr, ti = (tr * sr - ti * si) >> wd, (tr * si + ti * sr) >> wd
            sr, si = (sr * qr - si * qi) >> wd, (sr * qi + si * qr) >> wd
            n += 1
    return tuple(sums[0]), tuple(sums[1])


# Significant bits above ``bits`` that Ev - Od at an index keeps at width W,
# or the index counts as on the lattice (``_LevelTable.triple``).
INDEX_MARGIN = 8


class _LevelTable:
    """Everything at one point keyed by a reduced index (s/N, t/N) of level
    N: powers of rho = q^(1/L) and xi = exp(2*pi*i/L), L = 12 N^2, and the
    guarded (Ev, Od) and Siegel memos (at canonical keys, ``_fold``), as
    the module docstring sets out.  A power rho^k with N^2 | 2k is read
    from the point's powers of q^(1/24) (``power``), so rho's exponential
    is taken only for a k that they cannot give.  The table keeps no
    reference to its point, so a point is freed as soon as it is dropped;
    methods take it."""

    def __init__(self, pt: ModularPoint, n: int):
        level = 12 * n * n
        self.n = n
        self.bits = bits = pt.width + level.bit_length() + 2
        self.rho = None  # the powers of rho, made on the first k that needs them
        self.z = _Powers((*_unit_root_fx(level, bits), bits), bits)
        self.triples = {}
        self.siegels = {}

    def power(self, pt: ModularPoint, k: int) -> tuple[int, int, int]:
        """rho^k as an (re, im, w) triple: (q^(1/24))^(2k/N^2) from the
        point's ``_q24`` when N^2 divides 2k, else from the powers of rho,
        whose exponential is taken on the first such k.  Which of the two
        serves k depends on (k, N) alone."""
        m, rest = divmod(2 * k, self.n * self.n)
        if not rest:
            return pt._q24(m)
        if self.rho is None:
            self.rho = _Powers(_exp_placed(pt.tau, 12 * self.n * self.n, self.bits + 8), self.bits)
        return self.rho(k)

    def w_terms(self, pt: ModularPoint, s: int, t: int, wd: int):
        """(w, q/w) at width wd, w = q^(s/N) zeta_N^t =
        exp(2*pi*i*(s*tau + t)/N) and q/w = q^((N-s)/N) zeta_N^-t, each one
        product of a power of rho and one of xi floored to width wd."""
        n = self.n
        zr, zi, zw = self.z(12 * n * t)
        ar, ai, aw = self.power(pt, 12 * n * s)
        br, bi, bw = self.power(pt, 12 * n * (n - s))
        return (_fx_mul((ar, ai), (zr, zi), aw + zw - wd),
                _fx_mul((br, bi), (zr, -zi), bw + zw - wd))

    def prefactor(self, pt: ModularPoint, s: int, t: int) -> tuple[int, int, int]:
        """q^(B2(s/N)/2) exp(pi*i*t*(s-N)/N^2) as an (re, im, w) triple, for
        0 <= s < N: the cut product of a power of rho and of the conjugate
        of a power of xi."""
        n = self.n
        br, bi, bw = self.z(6 * t * (n - s))
        return _cut_mul(self.power(pt, 6 * s * s - 6 * s * n + n * n), (br, -bi, bw), self.bits)

    def triple(self, pt: ModularPoint, s: int, t: int
               ) -> tuple[tuple[int, int], tuple[int, int]]:
        """(Ev, Od) at (s/N, t/N): ``_triple`` at w and q/w, summed on first
        use; OnLattice when Ev - Od keeps fewer than bits + INDEX_MARGIN
        significant bits (module docstring, "Index guard")."""
        val = self.triples.get((s, t))
        if val is None:
            wd = pt.width
            val = _triple(pt.qfx, *self.w_terms(pt, s, t, wd), wd)
            (er, ei), (odr, odi) = val
            kept = max(abs(er - odr), abs(ei - odi)).bit_length()
            if kept < pt.ctx.bits + INDEX_MARGIN:
                raise OnLattice(f"index ({s}/{self.n}, {t}/{self.n}) lies too near the lattice: "
                                f"Ev - Od keeps {kept} of {pt.ctx.bits + INDEX_MARGIN} bits")
            self.triples[s, t] = val
        return val

    def siegel(self, pt: ModularPoint, s: int, t: int) -> tuple[int, int, int]:
        """g_{(a1,a2)}(tau) at (a1, a2) = (s/N, t/N) in [0,1)^2:
        -q^(B2(a1)/2) exp(pi*i*a2*(a1-1)) P(w), w = exp(2*pi*i*(a1*tau + a2)),
        with P(w) = (Ev - Od) / E (``triple``), 1/E from the point.  Made on
        first use as (re, im, w) standing for (re + i*im) * 2^-w: the cut
        product of (Od - Ev) 1/E and the prefactor, each product cut to W
        significant bits."""
        val = self.siegels.get((s, t))
        if val is None:
            wd = pt.width
            (er, ei), (odr, odi) = self.triple(pt, s, t)
            val = self.siegels[s, t] = _cut_mul(
                _cut_mul((odr - er, odi - ei, wd), pt._euler_inv, wd), self.prefactor(pt, s, t), wd)
        return val

    def rotate(self, z: tuple[int, int], e: int) -> tuple[int, int]:
        """z exp(pi*i*e/N), 0 <= e < 2N, at z's width: z xi^(6N(e mod N)),
        negated when e >= N, so that rotate(z, e + N) = -rotate(z, e) bit
        for bit."""
        n = self.n
        if e % n:
            xr, xi, xw = self.z(6 * n * (e % n))
            z = _fx_mul(z, (xr, xi), xw)
        return (-z[0], -z[1]) if e >= n else z


def _q24_euler(pt: ModularPoint) -> tuple[int, int, int]:
    """q^(1/24) E as an (re, im, w) triple: the cut product of the point's
    q^(1/24) and Euler product (``eta``, ``_gamma2_fx``)."""
    w = pt.width
    return _cut_mul(pt._q_powers[0], (*pt._euler_fx, w), w)


def eta(pt: ModularPoint) -> mp.mpc:
    """Dedekind eta = sqrt(2*pi) zeta_8 q^(1/24) E, with the
    sqrt(2*pi)*zeta_8 prefactor; nonzero on H.  q^(1/24) E is the cut
    product of the point's q^(1/24) and Euler product."""
    with pt.ctx.work():
        return _eta_prefactor(pt.ctx.bits) * _mpc(*_q24_euler(pt))


def eisenstein(pt: ModularPoint) -> tuple[mp.mpc, mp.mpc]:
    """(g2, g3) = ((2*pi)^4/12 E4, (2*pi)^6/216 E6), E4 and E6 from the
    theta constants (``ModularPoint._e4``, ``_e6``)."""
    w = pt.width
    e6r, e6i = pt._e6
    with pt.ctx.work():
        return (4 * mp.pi**4 / 3 * _mpc(*pt._e4[0], w),
                8 * mp.pi**6 / 27 * _mpc(e6r >> 1, e6i >> 1, w))


def delta(pt: ModularPoint) -> mp.mpc:
    """Discriminant (2*pi)^12 q E^24: the cut product of the point's E^24
    and q, rounded once and times (2*pi)^12; never zero on H."""
    prod = _cut_mul(pt._e24, pt._q_powers[2], pt.width)
    with pt.ctx.work():
        return (2 * mp.pi) ** 12 * _mpc(*prod)


def j_invariant(pt: ModularPoint) -> mp.mpc:
    """j = 2^6 3^3 g2^3 / delta = 1728 u (``u_value``): no Eisenstein
    series or delta is formed."""
    with pt.ctx.work():
        return 1728 * u_value(pt)


def _j_fx(pt: ModularPoint) -> tuple[int, int, int]:
    """j = E4^3 / (q E^24) as an (re, im, w) triple: 1728 times the
    integers of u's quotient (``_u_fx``), exact, so ``u_value`` and this
    read one quotient.  ``verify.hilbert_class_poly`` expands it unrounded;
    ``j_invariant`` is 1728 ``u_value`` at ``bits``."""
    re, im, w = _u_fx(pt)
    return 1728 * re, 1728 * im, w


def _gamma2_fx(pt: ModularPoint, turn: int = 0) -> tuple[int, int, int]:
    """gamma_2 = E4 / (q^(1/24) E)^8 = E4 / (q^(1/3) E^8), the cube root
    of j = E4^3 / (q E^24) that is holomorphic on H, times
    exp(2*pi*i*turn/3), as an (re, im, w) triple: (q^(1/24) E)^8 by three
    cut squarings of ``_q24_euler``, one exact quotient of E4 by it at W
    significant bits, and for turn not divisible by 3 one cut product with
    the cube root of unity at width W.  gamma_2 is invariant under
    tau -> -1/tau and picks up exp(-2*pi*i/3) under tau -> tau + 1, so a
    turn carries it to any point SL2(Z)-equivalent to tau."""
    w = pt.width
    e8 = _cut_sq(_cut_sq(_cut_sq(_q24_euler(pt), w), w), w)
    val = _quotient((*pt._e4[0], w), e8, w)
    if turn % 3:
        zr, zi = _unit_root_fx(3, w)
        val = _cut_mul(val, (zr, zi if turn % 3 == 1 else -zi, w), w)
    return val


def siegel(r: FractionPair, pt: ModularPoint) -> mp.mpc:
    """Siegel function g_{(r1,r2)}(tau) via its q-product; nonzero on H.

    The product is evaluated on the reduced index (s/N, t/N) in [0,1)^2 of
    r, or of -r when that has the canonical key (``_fold``), (s1, s2) =
    divmod of the residues by the level N, once per point and pair +-r (the
    memo entry of the level-N table, ``_LevelTable.siegel``), multiplied by
    the exact quasi-periodicity root of unity (-1)^(s1*s2+s1+s2) *
    exp(pi*i*(s2*s - s1*t)/N) of the Klein form, 1 at a reduced index, and
    by -1 for -r (``_cut_entry``, ``_LevelTable.rotate``), and rounded.
    """
    re, im, w, e = _cut_entry(pt, r)
    return _mpc(*pt._table(r.level).rotate((re, im), e), w, pt.ctx.bits)


def _fold(p1: int, p2: int, n: int) -> tuple[int, int, bool]:
    """(p1, p2, flip): the residues of the index (p1/n, p2/n), or of its
    negative when flip, whichever has the canonical reduced key (s, t), the
    lexicographically smaller of (s, t) and (-s mod n, -t mod n).  As
    g_{-r} = -g_r and wp is even, the level table keeps entries at canonical
    keys only."""
    s, t = p1 % n, p2 % n
    if (-s % n, -t % n) < (s, t):
        return -p1, -p2, True
    return p1, p2, False


def _cut_entry(pt: ModularPoint, r: FractionPair, n: int | None = None
               ) -> tuple[int, int, int, int]:
    """(re, im, w, e): the level-n Siegel memo entry of r's canonical
    reduced key, at W significant bits, and e mod 2n for the root of unity
    exp(pi*i*e/n) that turns it into g_r (``siegel``): the shift root of
    the index r or -r that ``_fold`` picks, and the sign of g_r = -g_{-r}
    as e + n when it picks -r.  n is a multiple of r's level, by default
    the level itself; r's residues are lifted to it."""
    if n is None:
        n = r.level
    m = n // r.level
    p1, p2, flip = _fold(m * r.p1, m * r.p2, n)
    s1, s = divmod(p1, n)
    s2, t = divmod(p2, n)
    return (*pt._table(n).siegel(pt, s, t),
            (s2 * s - s1 * t + n * (s1 * s2 + s1 + s2 + flip)) % (2 * n))


def y_quotient(pt: ModularPoint, r: FractionPair, d: FractionPair, k: int = 1,
               level: int | None = None) -> mp.mpc:
    """y^k for y = -g_d / g_r^4 (module docstring), d = 2r for ``y_value``
    and ``check_lemma52``, and (0, 2/N)m for ``conjugate_values``.  Both
    Siegel products are read from one table, of level N = ``level`` (by
    default r's level), which r's and d's levels must divide: d's key and
    the exponent of its root of unity are taken at level N.  The quotient
    at W significant bits is raised to the power k >= 1 by cut products
    (``_Powers``) and rounded once to ``bits``.  Its one guard is that of
    the index sums (``_LevelTable.triple``)."""
    n = level or r.level
    for x in (r, d):
        if n % x.level:
            raise ValueError(f"level {x.level} of {x} does not divide level {n}")
    gr, gi, w, e = _cut_entry(pt, r, n)
    nr, ni, wn, ed = _cut_entry(pt, d, n)
    e = (ed - 4 * e + n) % (2 * n)  # y's phase exp(pi*i*e/n)
    nr, ni = pt._table(n).rotate((nr, ni), e)
    wd = pt.width
    g2 = (gr + gi) * (gr - gi), 2 * gr * gi, 2 * w
    y = _quotient((nr, ni, wn), _cut_sq(g2, wd), wd)
    return _mpc(*_Powers(y, wd)(k), pt.ctx.bits)


def siegel_order(r: FractionPair) -> Fraction:
    """q-order of g_r: (1/2) B2(<r1>), B2(x) = x^2 - x + 1/6, exact."""
    x = Fraction(r.p1 % r.level, r.level)
    return (x * x - x + Fraction(1, 6)) / 2


def _reduce_mod_lattice(z: mp.mpc, pt: ModularPoint) -> tuple[mp.mpf, mp.mpf]:
    """Real coordinates (y, x) with z = y*tau + x reduced into [0,1)^2."""
    y = mp.im(z) / pt.im
    x = mp.re(z) - y * mp.re(pt.tau)
    return y - mp.floor(y), x - mp.floor(x)


def _check_off_lattice(pt: ModularPoint, y, x) -> None:
    """Raise OnLattice when y*tau + x, (y, x) in [0,1)^2, lies within
    sqrt(eps) of a lattice point."""
    dist = min(
        abs((y - dy) * pt.tau + (x - dx)) for dy in (0, 1) for dx in (0, 1)
    )
    if dist < mp.sqrt(pt.ctx.eps):
        raise OnLattice(f"z within {mp.nstr(dist, 5)} of the lattice")


def wp(z, pt: ModularPoint) -> mp.mpc:
    """Weierstrass wp(z; [tau, 1]) = e1 - pi^2 (theta_3 theta_4)^2
    (P(-w)/P(w))^2 with w = exp(2*pi*i*z), as theta_2(pi z)/theta_1(pi z) =
    -i P(-w)/P(w) and e1 = wp(1/2) = (pi^2/3)(theta_3^4 + theta_4^4) (DLMF
    23.6.2 with 2 omega_1 = 1; P as in ``_triple``).  The Euler product
    cancels from P(-w)/P(w) = (Ev + Od)/(Ev - Od), so wp is pi^2/3 times
    the one exact quotient of ``_wp_parts``, which ``x_value`` shares.

    z is an index r (a ``FractionPair``, naming z = r1*tau + r2) or any
    complex number.  For an index, (Ev, Od) is the guarded memo entry of
    the Siegel value at its canonical key (``_index_triple``), so wp(-r) =
    wp(r) bit for bit.  A complex z must lie >= sqrt(eps) from the lattice
    [tau, 1] (``_check_off_lattice``); u = exp(2*pi*i*z) and q/u are
    computed from z, with the bits of Re tau and of z's lattice coordinates
    as extra bits, and ``_triple`` runs on them.  The quotient is divided
    in exact integers: near the lattice Ev - Od is small, and a shift
    before the division would cut its bits.
    """
    wd = pt.width
    if isinstance(z, FractionPair):
        sums = _index_triple(pt, z)
    else:
        with pt.ctx.work():
            # |y| <= |z| / Im tau and |x| <= |z| + |y Re tau|: their bits
            z_bits = int(abs(z) / min(1, pt.im)).bit_length()
            with mp.workprec(pt.ctx.bits + _re_bits(pt.tau) + z_bits):
                y, x = _reduce_mod_lattice(mp.mpc(z), pt)
                e = mp.exp(2j * mp.pi * (y * pt.tau + x))
            _check_off_lattice(pt, y, x)
            e = +e
            sums = _triple(pt.qfx, _fx(e, wd), _fx(pt.q / e, wd), wd)
    diff, (mr, mi, mw) = _wp_parts(pt, sums)
    num = _cut_mul(_pi_squared(wd), diff, wd)
    return _mpc(*_quotient(num, (3 * mr, 3 * mi, mw), wd), pt.ctx.bits)


def _wp_parts(pt: ModularPoint, sums: tuple[tuple[int, int], tuple[int, int]]
              ) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
    """(S M^2 - 3 D P^2, M^2) as (re, im, w) triples, for (Ev, Od) =
    ``sums``, P, M = Ev +- Od, S = theta_3^4 + theta_4^4 and D = (theta_3
    theta_4)^2, every product cut to W significant bits: wp = (pi^2/3)
    (S M^2 - 3 D P^2) / M^2 (``wp``, ``x_value``)."""
    (er, ei), (odr, odi) = sums
    w = pt.width
    s, d2, _ = pt._thetas
    m2 = _cut_sq((er - odr, ei - odi, w), w)
    tr, ti, tw = _cut_mul((3 * d2[0], 3 * d2[1], w), _cut_sq((er + odr, ei + odi, w), w), w)
    return _sum(_cut_mul((*s, w), m2, w), (-tr, -ti, tw)), m2


def _index_triple(pt: ModularPoint, r: FractionPair
                  ) -> tuple[tuple[int, int], tuple[int, int]]:
    """(Ev, Od) at the index r for ``wp`` and ``x_value``: the level table's
    guarded memo entry at the canonical key of r (``_fold``), as wp reads
    ((Ev + Od)/(Ev - Od))^2 alone, which is the same at r and -r."""
    n = r.level
    p1, p2, _ = _fold(r.p1, r.p2, n)
    return pt._table(n).triple(pt, p1 % n, p2 % n)


def wp_prime(r: FractionPair, pt: ModularPoint) -> mp.mpc:
    """wp'(r1*tau + r2) = y * eta^6, with y = -g_{2r} / g_r^4 from ``y_value``.

    The quasi-period exponentials of the Klein forms cancel exactly in
    sigma(2z)/sigma(z)^4, leaving this ratio.  At 2-torsion (2r in Z^2) the
    derivative vanishes identically and exact 0 is returned.
    """
    if r.doubled() is None:
        return pt.ctx.mpc(0)
    with pt.ctx.work():
        return y_value(pt, r) * eta(pt) ** 6


class CurveCoords(NamedTuple):
    u: mp.mpc
    v: mp.mpc
    x: mp.mpc
    y: mp.mpc


def _u_fx(pt: ModularPoint) -> tuple[int, int, int]:
    """u = E4^3 / (1728 q E^24) as an (re, im, w) triple of W significant
    bits: one exact integer quotient of E4, q and E^24 (module docstring,
    "u, v, x and j")."""
    w = pt.width
    e4 = (*pt._e4[0], w)
    qr, qi, qw = pt._q_powers[2]
    den = _cut_mul(pt._e24, (1728 * qr, 1728 * qi, qw), w)
    return _quotient(_cut_mul(_cut_sq(e4, w), e4, w), den, w)


def u_value(pt: ModularPoint) -> mp.mpc:
    """u = g2^3 / delta = E4^3 / (1728 q E^24), ``_u_fx`` rounded once to
    ``bits``; no Eisenstein prefactor, power of pi or delta is formed."""
    return _mpc(*_u_fx(pt), pt.ctx.bits)


def v_value(pt: ModularPoint) -> mp.mpc:
    """v = g3 / eta^12 = -E6 / (216 q^(1/2) E^12), one exact integer
    quotient of 2 E6, E^12 and q^(1/2): eta^12 = (2*pi)^6 zeta_8^12
    q^(1/2) E^12 = -(2*pi)^6 q^(1/2) E^12 and g3 = (2*pi)^6 E6 / 216, so pi
    cancels."""
    w = pt.width
    hr, hi, hw = pt._q_powers[1]
    e6r, e6i = pt._e6
    den = _cut_mul(pt._e12, (432 * hr, 432 * hi, hw), w)
    return _mpc(*_quotient((-e6r, -e6i, w), den, w), pt.ctx.bits)


def x_value(pt: ModularPoint, r: FractionPair) -> mp.mpc:
    """x = g2 * g3 * wp(r1*tau + r2) / delta (Fricke function over -2^7 3^5),
    one exact integer quotient.  With P, M = Ev +- Od at r
    (``_index_triple``), S = theta_3^4 + theta_4^4 and D = (theta_3
    theta_4)^2, wp = pi^2 (S/3 - D (P/M)^2) (``wp``), so pi cancels and

        x = E4 E6 (S M^2 - 3 D P^2) / (31104 q E^24 M^2),

    every product cut to W significant bits, E4 E6 and 31104 q E^24 from
    the point (``ModularPoint._x_scale``), rounded once to ``bits``."""
    diff, m2 = _wp_parts(pt, _index_triple(pt, r))
    num, den = pt._x_scale
    w = pt.width
    return _mpc(*_quotient(_cut_mul(num, diff, w), _cut_mul(den, m2, w), w), pt.ctx.bits)


def y_value(pt: ModularPoint, r: FractionPair) -> mp.mpc:
    """y = -g_{2r} / g_r^4 (``y_quotient``), both Siegel products read from
    the table of r's level; requires 2r outside Z^2."""
    d = r.doubled()
    if d is None:
        raise DegenerateIndex("y undefined at 2-torsion index (2r in Z^2)")
    return y_quotient(pt, r, d)


def normalized(pt: ModularPoint, r: FractionPair) -> CurveCoords:
    """Normalized curve data (u, v, x, y) at tau for index r.

    Composes ``u_value``, ``v_value``, ``x_value`` and ``y_value``, each an
    exact integer quotient of fixed-point data that the point computes once
    and shares; no eta, delta or (g2, g3) is formed.  Satisfies
    u - 27 v^2 = 1 and u v^3 y^2 = 4 x^3 - u v^2 x - u v^4 identically in tau.
    """
    if r.doubled() is None:
        raise DegenerateIndex("normalized coordinates need 2r outside Z^2")
    return CurveCoords(u_value(pt), v_value(pt), x_value(pt, r), y_value(pt, r))
