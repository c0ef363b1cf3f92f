"""Explicit reciprocity machinery: the matrix group W_{N,theta}, its action
on Siegel indices, and enumeration of full Galois orbits of singular values.

A Galois element of the ray class field of level N is labelled by a pair
(alpha, Q): alpha in W_{N,theta}/{+-1} and Q a reduced form.  The label acts
on a singular value by transforming the function index with the matrix
alpha * beta_Q mod N and evaluating at the CM point of Q.  All index and
matrix arithmetic is exact; floating point enters only in the final Siegel /
Fricke evaluations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .classfield import Field, Mat, ReducedForm, beta_lift, mat_mul, ray_class_degree
from .errors import UnsupportedDiscriminant
from .numerics import PrecisionContext
from .qseries import FractionPair, ModularPoint, x_value, y_quotient

DESCRIPTORS = ("y12N", "y4", "x", "pair")


@dataclass(frozen=True)
class WElement:
    """Element of W_{N,theta} mod {+-1}: residues (t, s) and the matrix
    ((t - B*s, -C*s), (s, t)) mod N, stored at the canonical representative
    (lexicographically smaller of (t, s) and (-t, -s))."""

    t: int
    s: int
    n: int
    matrix: Mat

    @classmethod
    def make(cls, t: int, s: int, n: int, b: int, c: int) -> "WElement":
        t, s = t % n, s % n
        if ((-t) % n, (-s) % n) < (t, s):
            t, s = (-t) % n, (-s) % n
        m = (((t - b * s) % n, (-c * s) % n), (s, t))
        return cls(t, s, n, m)


def w_group(field: Field, n: int) -> list[WElement]:
    """All invertible (t, s) pairs mod N, one representative per {+-1} pair,
    sorted by (t, s).  Size: ray_class_degree(field, n) / h for N >= 3."""
    if field.d > -7:
        raise UnsupportedDiscriminant("W group kernel statement needs d_K <= -7")
    if n < 2:
        raise ValueError("level must be >= 2")
    b, c = field.b_theta, field.c_theta
    seen = {}
    for t in range(n):
        for s in range(n):
            det = (t * t - b * s * t + c * s * s) % n
            if math.gcd(det, n) != 1:
                continue
            el = WElement.make(t, s, n, b, c)
            seen[(el.t, el.s)] = el
    return [seen[k] for k in sorted(seen)]


def act_index(r: FractionPair, m: Mat) -> FractionPair:
    """Row-vector action (r1, r2) * m, reduced to fractional parts: the
    residues (p1, p2) * m mod N over the level N of r, exact."""
    n = r.level
    return FractionPair.from_parts((r.p1 * m[0][0] + r.p2 * m[1][0]) % n,
                                   (r.p1 * m[0][1] + r.p2 * m[1][1]) % n, n)


@dataclass(frozen=True)
class GaloisLabel:
    """One Galois conjugation label: (alpha, Q) with the lifted beta cached."""

    alpha: WElement
    form: ReducedForm
    beta: Mat

    def composite(self, n: int) -> Mat:
        return mat_mul(self.alpha.matrix, self.beta, n)


def labels(field: Field, n: int) -> list[GaloisLabel]:
    """The full label grid, ordered by (form position, canonical (t, s))."""
    group = w_group(field, n)
    out = []
    for q in field.forms:
        beta = beta_lift(q, field.d, n)
        for alpha in group:
            out.append(GaloisLabel(alpha, q, beta))
    return out


def _y_power_exponent(n: int) -> int:
    return 4 // math.gcd(4, n)


def conjugate_values(field: Field, n: int, descriptor: str, ctx: PrecisionContext):
    """Evaluate the full Galois orbit of a singular-value descriptor.

    descriptor:
      * 'y12N': g_{(0,2/N)m}(theta_Q)^{12N} / g_{(0,1/N)m}(theta_Q)^{48N},
        computed as y^{12N} with y = -g_{r2}/g_{r1}^4 by ``y_quotient``
        (identical value, stable scaling), r1 = (0,1/N)m and r2 = (0,2/N)m;
      * 'y4'  : y^(4/gcd(4,N));
      * 'x'   : Fricke-normalized x with index (0,1/N)m at theta_Q;
      * 'pair': (x, y^(4/gcd(4,N))).

    The Galois action is realized as index transformation throughout.  This
    is exact for 'x' and 'y12N'.  For the fractional powers in 'y4'/'pair'
    the returned values are the canonical index-transformed representatives:
    each one agrees with the Galois conjugate up to a root of unity (their
    12N/epow-th powers reproduce the exact y12N orbit, and their moduli are
    exact), which is what the distinctness witnesses consume.

    Every power of y is taken in exact integers and rounded once
    (``y_quotient``), and x is one exact quotient (``x_value``), so no
    mpmath arithmetic runs per label; in 'pair', y comes before x.

    Returns [(GaloisLabel, value-or-pair)] in deterministic label order, of
    length ray_class_degree(field, n).
    """
    if descriptor not in DESCRIPTORS:
        raise ValueError(f"unknown descriptor {descriptor!r}; pick from {DESCRIPTORS}")
    if field.d > -7:
        raise UnsupportedDiscriminant("conjugation labels need d_K <= -7")
    if n < 3:
        raise ValueError("descriptor evaluation needs N >= 3")
    k = 12 * n if descriptor == "y12N" else _y_power_exponent(n)  # y's power
    points = {q: ModularPoint.from_quadratic(q.a, q.b, field.d, ctx)
              for q in field.forms}
    # (0, 2/N) m, not the double of (0, 1/N) m: the doubled index keeps its
    # shift, and y_quotient would multiply in its root of unity
    base1 = FractionPair.from_parts(0, 1, n)
    base2 = FractionPair.from_parts(0, 2, n)
    out = []
    for label in labels(field, n):
        pt = points[label.form]
        m = label.composite(n)
        r1 = act_index(base1, m)
        if descriptor == "x":
            val = x_value(pt, r1)
        else:
            y = y_quotient(pt, r1, act_index(base2, m), k)
            val = (x_value(pt, r1), y) if descriptor == "pair" else y
        out.append((label, val))
    expected = ray_class_degree(field, n)
    assert len(out) == expected, f"orbit size {len(out)} != degree {expected}"
    return out
