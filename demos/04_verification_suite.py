"""Run the full verification harness at desk scale and print a summary.

Each check returns a CheckReport whose residuals are signed violations
(negative = satisfied, magnitude = margin).
"""

import time

import mpmath as mp

from rayclass import (
    PrecisionContext,
    check_T_bound,
    check_curve_point,
    check_elliptic_points,
    check_generation,
    check_lemma51,
    check_lemma52,
    check_surface_point,
    make_field,
)

ctx = PrecisionContext(bits=256, eps="1e-40")


def show(check, *args, note=""):
    """Run check(*args), print its summary line and return its report."""
    t0 = time.perf_counter()
    rep = check(*args)
    elapsed = time.perf_counter() - t0
    mark = "ok " if rep.passed else "XXX"
    worst = max(rep.residuals.values())
    with ctx.work():
        print(f" [{mark}] {rep.name:<14} {note:<28} worst residual "
              f"{mp.nstr(worst, 4):>12}  ({elapsed:.2f}s)")
    return rep


print("== curve membership of the level-N point at theta ==")
for d, n in ((-39, 8), (-40, 8), (-52, 12)):
    show(check_curve_point, make_field(d), n, ctx, note=f"d={d}, N={n}")

print("\n== surface membership at generic (non-CM) tau ==")
for tau, n in (("0.3,1.7", 4), ("-0.4,2.3", 8)):
    re, im = tau.split(",")
    show(check_surface_point, ctx.mpc(re, im), n, ctx, note=f"tau={tau}, N={n}")

print("\n== inequality sweeps ==")
with ctx.work():
    for d in (-7, -163):
        show(check_lemma51, d, 1, "0.5", ctx, note=f"d={d}, a=1, X=1/2")
for d, n in ((-39, 8), (-56, 8)):
    show(check_lemma52, make_field(d), n, ctx, note=f"d={d}, N={n} (exhaustive)")
show(check_T_bound, 8, make_field(-39), ctx, note="T factors, N in [8,200]")

print("\n== generation witnesses (numerical evidence, not proof) ==")
for d, n, desc in ((-39, 8, "pair"), (-40, 12, "pair"), (-7, 3, "y4"),
                   (-7, 9, "y4"), (-39, 3, "y4")):
    rep = show(check_generation, make_field(d), n, desc, ctx,
               note=f"d={d}, N={n}, {desc}")
    print(f"        orbit size {rep.details['orbit_size']}"
          f" = degree {rep.details['degree']},"
          f" min pairwise distance {mp.nstr(rep.details['min_distance'], 4)}")

print("\n== the twenty level-4 elliptic points ==")
show(check_elliptic_points, ctx, note="pairwise distinct y-values")
