"""Precision bookkeeping and the arbitrary-precision arithmetic contract.

All evaluators in this package take and return mpmath numbers inside a
:class:`PrecisionContext`: ``bits`` is the working mantissa precision and
``eps`` the absolute error the *final* results are aimed at.  The q-series
loops inside them run in Python-integer fixed point at ``bits + FX_GUARD``
bits and round back to ``bits`` (contract in :mod:`rayclass.qseries`).  The
gap between ``2^-bits`` and ``eps`` (at least 16 bits, enforced) absorbs
rounding and truncation noise, which is validated by precision-doubling
tests and reference loops rather than by interval arithmetic.

Every q-series of the package is a lacunary sum that runs to its first term
below the fixed-point resolution.  :func:`truncation_terms`, the smallest M
with |q|^M < eps * 2^-16 for |q| = exp(-2*pi*Im(tau)), sizes the
term-by-term reference loops that the tests compare them with.

Values are plain ``mpmath.mpc``/``mpmath.mpf`` objects; arithmetic on them,
fixed-point loops included, is deterministic given (bits, operands).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import mpmath as mp

from .errors import ImTooSmall, NumericalError

# Floor for Im(tau), exact.  Low enough to cover every point the verification
# layer evaluates (the level-4 elliptic-point sweep reaches Im = 1/13).  The
# series are summed at tau itself, so the floor bounds how many steps a sum
# takes (about sqrt(bits / Im tau); see the qseries module docstring).
# Removing it waits for precision planning from the size of the answer.
MIN_IM = Fraction(1, 20)

# Ceiling for Im(tau), exact.  Every power of q and of its roots keeps its
# significant bits however small it is, but each exponential of tau is
# rounded in its exponent: the point's q^(1/24), taken at bits + 40, loses
# about log2(2 pi Im tau) of those guard bits (22.6 at 10^6), as do the
# level tables' roots, taken at bits + 42 + bitlen(L).  Up to 10^6 every
# evaluator keeps its bits.
MAX_IM = 10 ** 6

# Smallest working precision a PrecisionContext accepts.
MIN_BITS = 64

# Tail guard: series tails are pushed below eps * 2^-GUARD_BITS.
GUARD_BITS = 16

# Fixed-point guard: q-series loops run on integers scaled by 2^W with
# W = bits + FX_GUARD (see the qseries module docstring for the error budget).
FX_GUARD = 32


def _to_mpf(x) -> mp.mpf:
    """Convert ints, floats, decimal strings, Fractions at current precision."""
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / x.denominator
    return mp.mpf(x)


@dataclass(frozen=True)
class PrecisionContext:
    """Working precision (bits) plus target absolute error (eps).

    Invariants: bits >= MIN_BITS = 64 and eps >= 2^(-bits+16), so at least 16 guard bits
    separate the target accuracy from the raw arithmetic accuracy.
    """

    bits: int = 256
    eps: object = "1e-40"

    def __post_init__(self):
        if not isinstance(self.bits, int) or self.bits < MIN_BITS:
            raise ValueError(f"bits must be an integer >= {MIN_BITS}, got {self.bits!r}")
        with mp.workprec(self.bits):
            eps = _to_mpf(self.eps)
            if not eps > 0:
                raise ValueError("eps must be positive")
            if eps < mp.mpf(2) ** (-self.bits + GUARD_BITS):
                raise ValueError(
                    f"eps={mp.nstr(eps, 8)} leaves no guard bits at {self.bits} bits"
                )
        object.__setattr__(self, "eps", eps)

    def work(self):
        """Context manager switching mpmath to this precision."""
        return mp.workprec(self.bits)

    @property
    def dps(self) -> int:
        """Decimal digits carried at this precision (``decimal_digits``)."""
        return decimal_digits(self.bits)

    def mpf(self, x) -> mp.mpf:
        with self.work():
            return _to_mpf(x)

    def mpc(self, re, im=0) -> mp.mpc:
        with self.work():
            return mp.mpc(_to_mpf(re), _to_mpf(im))


def decimal_digits(bits: int) -> int:
    """Decimal digits that the CLI prints a value of ``bits`` bits with."""
    return int(bits / 3.3219280948873626) + 2


def check_im_range(im) -> None:
    """Raise ImTooSmall when im < MIN_IM, with the floor rounded to the
    current precision like im itself (so Im(tau) = 0.05 passes), and
    NumericalError when im > MAX_IM."""
    floor = _to_mpf(MIN_IM)
    if not im >= floor:
        raise ImTooSmall(
            f"Im(tau)={mp.nstr(im, 8)} below floor {mp.nstr(floor, 8)}")
    if im > MAX_IM:
        raise NumericalError(f"Im(tau)={mp.nstr(im, 8)} above ceiling {MAX_IM}")


def truncation_terms(im_tau, eps) -> int:
    """Smallest M with |q|^M < eps * 2^-16 for |q| = exp(-2*pi*im_tau).

    Truncated products and sums stop at index M.  Raises ImTooSmall below
    the Im(tau) floor and NumericalError above its ceiling.
    ``ModularPoint.terms`` reads it at tau, for the reference loops of the
    tests; the package's own sums do not use it.
    """
    with mp.workprec(80):
        im = _to_mpf(im_tau)
        check_im_range(im)
        x = _tail_log(eps) / (2 * mp.pi * im)
        return max(1, int(mp.floor(x)) + 1)


@lru_cache(maxsize=64)
def _tail_log(eps) -> mp.mpf:
    """-log(eps) + GUARD_BITS * log 2 at 80 bits, once per eps."""
    with mp.workprec(80):
        e = _to_mpf(eps)
        if not e > 0:
            raise ValueError("eps must be positive")
        return -mp.log(e) + GUARD_BITS * mp.log(2)

