"""Full Galois orbits of singular values via explicit conjugation labels.

A label (alpha, Q) combines an element of the level-N matrix group with a
reduced form; its matrix transforms the function index and the value is
evaluated at the CM point of Q.  The orbit length always equals the ray
class degree.
"""

import mpmath as mp

from rayclass import (
    FractionPair,
    ModularPoint,
    PrecisionContext,
    conjugate_values,
    make_field,
    minpoly,
    ray_class_degree,
    siegel,
    w_group,
)

ctx = PrecisionContext(bits=256, eps="1e-40")

f = make_field(-7)
n = 3
print(f"== d_K = -7, N = 3: the matrix group mod {n} ==")
for w in w_group(f, n):
    print(f"   (t, s) = ({w.t}, {w.s})  ->  {w.matrix}")

print("\n== orbit of the fourth power of the unit ratio ==")
conj = conjugate_values(f, n, "y4", ctx)
with ctx.work():
    for label, v in conj:
        print(f"   (t={label.alpha.t}, s={label.alpha.s}, "
              f"Q={label.form.as_tuple()})  ->  {mp.nstr(v, 12)}")
print("orbit size:", len(conj), "=", ray_class_degree(f, n), "= [K_(3):K]")

print("\n== minimal polynomial of the Fricke-x orbit (coefficients in K) ==")
conj_x = conjugate_values(f, n, "x", ctx)
poly = minpoly([v for _, v in conj_x], f, ctx)
with ctx.work():
    for k, c in enumerate(poly.coeffs):
        print(f"   X^{k}: {mp.nstr(c, 12)}")

print("\n== unit-class invariant ==")
q = f.principal
pt = ModularPoint.from_quadratic(q.a, q.b, f.d, ctx)
with ctx.work():
    unit = siegel(FractionPair.from_parts(0, 1, n), pt) ** (12 * n)
    print("   g_f(C0) =", mp.nstr(unit, 15))

print("\n== a bigger orbit: d_K = -39, N = 8, (x, y) pairs ==")
f39 = make_field(-39)
conj_pair = conjugate_values(f39, 8, "pair", ctx)
print("orbit size:", len(conj_pair), "=", ray_class_degree(f39, 8))
with ctx.work():
    for label, (xv, yv) in conj_pair[:4]:
        print(f"   (t={label.alpha.t}, s={label.alpha.s}, "
              f"Q={label.form.as_tuple()}): x = {mp.nstr(xv, 10)}, "
              f"y = {mp.nstr(yv, 10)}")
print("   ... (remaining labels omitted)")
