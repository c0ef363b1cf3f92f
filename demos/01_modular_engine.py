"""Tour of the q-series engine: eta, Eisenstein forms, j, Siegel functions.

Everything is computed at 256 bits with target error 1e-40; the printed
digits are trustworthy far beyond what fits on a line.
"""

from fractions import Fraction as F

import mpmath as mp

from rayclass import (
    FractionPair,
    ModularPoint,
    PrecisionContext,
    delta,
    eisenstein,
    eta,
    j_invariant,
    siegel,
)
from rayclass.qseries import siegel_order

ctx = PrecisionContext(bits=256, eps="1e-40")

print("== series summed at tau itself ==")
low = ModularPoint.from_complex(("0.1234", "0.06"), ctx)
print("tau = 0.1234 + 0.06i, where |q| =", mp.nstr(abs(low.q), 5))
print("every series is lacunary and stops at its first term below 2^-(bits + 32)")
with ctx.work():
    j_low = j_invariant(low)
    j_inv = j_invariant(ModularPoint.from_complex(-1 / low.tau, ctx))
    print("|j(tau) - j(-1/tau)| / |j(tau)| =", mp.nstr(abs(j_low - j_inv) / abs(j_low), 5))

print("\n== eta at the square lattice point ==")
pt_i = ModularPoint.from_complex((0, 1), ctx)
with ctx.work():
    e = eta(pt_i)
    pref = mp.sqrt(2 * mp.pi) * mp.exp(mp.mpc(0, mp.pi) / 4)
    print("eta(i)                  =", mp.nstr(e, 30))
    print("eta(i) / (sqrt(2pi) z8) =", mp.nstr(e / pref, 30))
    print("Gamma(1/4)/(2 pi^(3/4)) =",
          mp.nstr(mp.gamma(mp.mpf(1) / 4) / (2 * mp.pi ** mp.mpf("0.75")), 30))

print("\n== the discriminant two ways ==")
pt = ModularPoint.from_complex(("0.3", "1.7"), ctx)
with ctx.work():
    g2, g3 = eisenstein(pt)
    d = delta(pt)
    print("|eta^24 - delta| / |delta|      =", mp.nstr(abs(eta(pt) ** 24 - d) / abs(d), 5))
    print("|g2^3 - 27 g3^2 - delta|/|delta| =", mp.nstr(abs(g2**3 - 27 * g3**2 - d) / abs(d), 5))

print("\n== j at special points ==")
with ctx.work():
    print("j(i)     =", mp.nstr(j_invariant(pt_i), 25))
    zt3 = ModularPoint.from_complex(mp.exp(2j * mp.pi / 3), ctx)
    print("j(zeta3) =", mp.nstr(j_invariant(zt3), 5))

print("\n== Siegel functions and their q-orders ==")
with ctx.work():
    for num in (1, 2, 3):
        r = FractionPair(F(num, 8), F(1, 8))
        val = siegel(r, pt)
        print(f"g_({num}/8,1/8)(tau) = {mp.nstr(val, 12)}   q-order "
              f"{siegel_order(r)}")
    # the transformation law under tau -> -1/tau, with the exact zeta_12^9
    r = FractionPair(F(1, 8), F(3, 8))
    ptS = ModularPoint.from_complex(-1 / pt.tau, ctx)
    lhs = siegel(r, ptS)
    rhs = mp.mpc(0, -1) * siegel(FractionPair(r.r2, -r.r1), pt)
    print("inversion law residual:", mp.nstr(abs(lhs - rhs) / abs(lhs), 5))
