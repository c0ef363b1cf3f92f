"""Imaginary quadratic field data: reduced forms, CM points, ideal splitting,
the ray class degree formula, and the per-prime matrices entering explicit
reciprocity.

Only fundamental discriminants are accepted; the ring of integers is
O_K = [theta, 1] with theta determined by d_K mod 4.  Form enumeration and
all matrix/ideal bookkeeping are exact integer arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import mpmath as mp

from .errors import NonInvertible, NotFundamental, NotImaginary, UnsupportedDiscriminant
from .numerics import PrecisionContext

Mat = tuple[tuple[int, int], tuple[int, int]]


def mat_mul(a: Mat, b: Mat, n: int | None = None) -> Mat:
    c = (
        (a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
        (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]),
    )
    return tuple(tuple(e % n for e in row) for row in c) if n else c


def mat_det(m: Mat) -> int:
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


@dataclass(frozen=True)
class ReducedForm:
    """Reduced primitive positive definite form a X^2 + b X Y + c Y^2."""

    a: int
    b: int
    c: int

    @property
    def disc(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.c)


@dataclass(frozen=True)
class CMPoint:
    """Exact quadratic irrational (-b + sqrt(d)) / (2a), d < 0."""

    a: int
    b: int
    d: int

    def to_mpc(self, ctx: PrecisionContext) -> mp.mpc:
        """The point at ``ctx.bits``, with sqrt(|d|) taken once per (d, bits)."""
        with ctx.work():
            return (mp.mpf(-self.b) + _sqrt_abs(self.d, ctx.bits) * mp.mpc(0, 1)) / (2 * self.a)

    def __str__(self) -> str:
        if self.b == 0 and self.a == 1:
            return f"sqrt({self.d})/2" if self.d % 4 == 0 else f"sqrt({self.d})"
        return f"({-self.b}+sqrt({self.d}))/{2 * self.a}"


@lru_cache(maxsize=64)
def _sqrt_abs(d: int, prec: int) -> mp.mpf:
    """sqrt(|d|) at prec bits for d < 0, once per (d, prec)."""
    with mp.workprec(prec):
        return mp.sqrt(mp.mpf(-d))


def _squarefree(n: int) -> bool:
    return all(e == 1 for _, e in _prime_factors(abs(n)))


def is_fundamental(d: int) -> bool:
    if d >= 0:
        return False
    if d % 4 == 1:
        return _squarefree(d)
    if d % 4 == 0:
        m = d // 4
        return m % 4 in (2, 3) and _squarefree(m)
    return False


def reduced_forms(d: int) -> list[ReducedForm]:
    """All reduced forms of discriminant d, ordered by (a asc, b asc).

    Loop bound a <= sqrt(-d/3); conditions -a < b <= a < c or 0 <= b <= a = c,
    b^2 - 4ac = d, gcd(a, b, c) = 1.
    """
    _validate_disc(d)
    out = []
    amax = math.isqrt(-d // 3)
    for a in range(1, amax + 1):
        for b in range(-a + 1, a + 1):
            num = b * b - d
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if a > c:
                continue
            if a == c and b < 0:
                continue
            if math.gcd(math.gcd(a, abs(b)), c) != 1:
                continue
            out.append(ReducedForm(a, b, c))
    return out


def _validate_disc(d: int):
    if d >= 0:
        raise NotImaginary(f"discriminant {d} is not negative")
    if not is_fundamental(d):
        raise NotFundamental(f"{d} is not a fundamental discriminant")


@dataclass(frozen=True)
class Field:
    """Imaginary quadratic field of fundamental discriminant d_K."""

    d: int
    b_theta: int
    c_theta: int
    forms: tuple[ReducedForm, ...]

    @property
    def h(self) -> int:
        return len(self.forms)

    @property
    def principal(self) -> ReducedForm:
        return self.forms[0]

    @property
    def theta(self) -> CMPoint:
        return cm_point(self.principal, self.d)

    def theta_str(self) -> str:
        return str(self.theta)


def make_field(d: int) -> Field:
    """Validate d (``reduced_forms``) and assemble theta data, reduced forms
    and h."""
    forms = tuple(reduced_forms(d))
    if d % 4 == 0:
        b, c = 0, -d // 4
    else:
        b, c = 1, (1 - d) // 4
    assert forms[0].a == 1, "principal form must come first"
    return Field(d, b, c, forms)


def cm_point(q: ReducedForm, d: int) -> CMPoint:
    """theta_Q = (-b + sqrt(d)) / (2a); Im >= sqrt(3)/2 for reduced forms."""
    if q.disc != d:
        raise ValueError(f"form {q} has discriminant {q.disc}, expected {d}")
    return CMPoint(q.a, q.b, d)


def _kronecker(d: int, p: int) -> int:
    """Kronecker symbol (d|p) for prime p."""
    if d % p == 0:
        return 0
    if p == 2:
        return 1 if d % 8 in (1, 7) else -1
    ls = pow(d % p, (p - 1) // 2, p)
    return 1 if ls == 1 else -1


def splitting(p: int, d: int) -> str:
    """'ramified' iff p | d, else 'split'/'inert' by the Kronecker symbol."""
    if d % p == 0:
        return "ramified"
    return "split" if _kronecker(d, p) == 1 else "inert"


@dataclass(frozen=True)
class IdealFactor:
    """One prime ideal dividing N*O_K: rational prime p, splitting type,
    prime-ideal exponent e in N*O_K, and the ideal norm (p or p^2).

    A split prime contributes two conjugate factors, which compare equal.
    """

    p: int
    splitting: str
    e: int
    norm: int

    def phi(self) -> int:
        """(N(p) - 1) * N(p)^(e-1) for this prime power."""
        return (self.norm - 1) * self.norm ** (self.e - 1)


def _prime_factors(n: int) -> list[tuple[int, int]]:
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def ideal_factorization(d: int, n: int) -> list[IdealFactor]:
    """Prime ideal factorization of N*O_K as IdealFactor entries."""
    if n < 1:
        raise ValueError("level must be >= 1")
    out = []
    for p, e in _prime_factors(n):
        s = splitting(p, d)
        if s == "split":
            out += [IdealFactor(p, s, e, p)] * 2
        elif s == "inert":
            out.append(IdealFactor(p, s, e, p * p))
        else:
            out.append(IdealFactor(p, s, 2 * e, p))
    return out


def _divides_two(factors: list[IdealFactor], d: int) -> bool:
    """Whether the ideal with these factors divides 2*O_K."""
    s2 = splitting(2, d)
    cap = {"split": 1, "inert": 1, "ramified": 2}[s2]
    return all(f.p == 2 and f.e <= cap for f in factors)


def _degree_from_factors(h: int, d: int, factors: list[IdealFactor]) -> int:
    phi = 1
    for f in factors:
        phi *= f.phi()
    w_f = 2 if _divides_two(factors, d) else 1
    num = h * phi * w_f
    assert num % 2 == 0
    return num // 2


def ray_class_degree(field: Field, n: int) -> int:
    """[K_(N) : K] = h_K * phi(N*O_K) * w(N*O_K) / w_K for d_K <= -7.

    w_K = 2 below -7; w(f) = 2 exactly when f divides 2*O_K (so for N = 1
    and N = 2), else 1.
    """
    if field.d > -7:
        raise UnsupportedDiscriminant("degree formula implemented for d_K <= -7")
    return _degree_from_factors(field.h, field.d, ideal_factorization(field.d, n))


@dataclass(frozen=True)
class HypothesisReport:
    """Outcome of the conductor condition [K_f:K] > 2 * sum [K_{f/p^e}:K]."""

    ok: bool
    degree: int
    subfield_degrees: tuple[int, ...]
    factors: tuple[IdealFactor, ...]
    alt_ok: bool | None  # equivalent test 1/2 > sum 1/phi(p^e), when n >= 2
    alt_sum: Fraction | None


def check_hypothesis(field: Field, n: int) -> HypothesisReport:
    """Evaluate the generation hypothesis for f = N*O_K.

    N = 1 (f = O_K) is excluded and reports False.  For n >= 2 distinct prime
    ideals the report carries the equivalent reciprocal-phi test as well.
    """
    if field.d > -7:
        raise UnsupportedDiscriminant("hypothesis check implemented for d_K <= -7")
    factors = ideal_factorization(field.d, n)
    if n == 1:
        return HypothesisReport(False, field.h, (), tuple(factors), None, None)
    lhs = _degree_from_factors(field.h, field.d, factors)
    subs = []
    for i in range(len(factors)):
        rest = factors[:i] + factors[i + 1:]
        subs.append(_degree_from_factors(field.h, field.d, rest))
    ok = lhs > 2 * sum(subs)
    alt_ok = alt_sum = None
    if len(factors) >= 2:
        alt_sum = sum((Fraction(1, f.phi()) for f in factors), Fraction(0))
        alt_ok = Fraction(1, 2) > alt_sum
    return HypothesisReport(ok, lhs, tuple(subs), tuple(factors), alt_ok, alt_sum)


def _beta_matrices(q: ReducedForm, d: int, primes: list[int]) -> dict[int, Mat]:
    """Per-prime matrices encoding the form's class, by the three-case rule.

    The b/2-type entries are exact: b = d mod 2, so with B = d mod 2 both
    b - B and b + B are even.
    """
    if not primes:
        raise ValueError("primes list must be nonempty")
    a, b, c = q.a, q.b, q.c
    B = d % 2
    assert (b - B) % 2 == 0
    out = {}
    for p in primes:
        if a % p:
            out[p] = ((a, (b - B) // 2), (0, 1))
        elif c % p:
            out[p] = ((-(b + B) // 2, -c), (1, 0))
        else:
            out[p] = ((-(b + B) // 2 - a, -(b - B) // 2 - c), (1, -1))
    return out


def _crt(residues: list[int], moduli: list[int]) -> int:
    x, m = 0, 1
    for r, mod in zip(residues, moduli):
        g = pow(m, -1, mod)
        x = x + m * ((r - x) * g % mod)
        m *= mod
    return x % m


def beta_lift(q: ReducedForm, d: int, n: int) -> Mat:
    """Single matrix mod N agreeing with beta_p mod p^v_p(N) for every p | N.

    Entries reduced to [0, N); determinant invertible mod N (validated).
    """
    if n < 2:
        raise ValueError("level must be >= 2")
    pf = _prime_factors(n)
    primes = [p for p, _ in pf]
    moduli = [p**e for p, e in pf]
    per_p = _beta_matrices(q, d, primes)
    rows = []
    for i in range(2):
        row = []
        for jj in range(2):
            row.append(_crt([per_p[p][i][jj] % m for (p, _), m in zip(pf, moduli)], moduli))
        rows.append(tuple(row))
    m = (rows[0], rows[1])
    if math.gcd(mat_det(m), n) != 1:
        raise NonInvertible(f"lifted matrix {m} not invertible mod {n}")
    return m
