"""Command-line surface with machine-readable JSON output.

Every JSON payload embeds {dk, level, precision_bits, eps, tool_version}.
Complex values are serialized as decimal-string pairs at full working
precision (no binary floats), quadratic irrationals as strings like
"(-1+sqrt(-39))/2", so identical configurations produce byte-identical
output.  Exit codes: 0 success/pass, 1 check failed, 2 usage/validation,
3 numerical error.

Timing is reported only in text mode; JSON stays reproducible.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

import mpmath as mp

from . import __version__
from .classfield import ideal_factorization, make_field, ray_class_degree
from .errors import InputError, NumericalError
from .numerics import PrecisionContext
from .qseries import (
    FractionPair,
    ModularPoint,
    delta,
    eisenstein,
    eta,
    j_invariant,
    siegel,
    u_value,
    v_value,
    wp,
    wp_prime,
    x_value,
    y_value,
)
from .reciprocity import DESCRIPTORS, conjugate_values
from .verify import (
    CheckReport,
    check_T_bound,
    check_curve_point,
    check_elliptic_points,
    check_generation,
    check_lemma51,
    check_lemma52,
    check_surface_point,
    hilbert_class_poly,
    minpoly,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


def _fmt_real(x, ctx: PrecisionContext) -> str:
    with ctx.work():
        return mp.nstr(mp.mpf(x), ctx.dps, strip_zeros=True)


def _fmt_complex(z, ctx: PrecisionContext) -> list[str]:
    with ctx.work():
        z = mp.mpc(z)
        return [_fmt_real(mp.re(z), ctx), _fmt_real(mp.im(z), ctx)]


def _payload(cfg: dict, ctx: PrecisionContext, body: dict) -> dict:
    with ctx.work():
        eps_str = mp.nstr(ctx.eps, 12)
    out = {
        "tool_version": __version__,
        "dk": cfg.get("dk"),
        "level": cfg.get("level"),
        "precision_bits": ctx.bits,
        "eps": eps_str,
    }
    out.update(body)
    return out


def _emit(payload: dict, args) -> None:
    if args.output == "json":
        sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    else:
        for k, v in payload.items():
            sys.stdout.write(f"{k}: {v}\n")


def _report_body(rep: CheckReport, ctx: PrecisionContext, text_mode: bool) -> dict:
    body = {
        "check": rep.name,
        "pass": rep.passed,
        "inputs": {k: _jsonable(v, ctx) for k, v in rep.inputs.items()},
        "residuals": {k: _fmt_real(v, ctx) for k, v in rep.residuals.items()},
        "tolerance": _fmt_real(rep.tolerance, ctx),
        "details": {k: _jsonable(v, ctx) for k, v in rep.details.items()},
    }
    if text_mode:
        body["elapsed_s"] = f"{rep.elapsed:.3f}"
    return body


def _jsonable(v, ctx):
    if isinstance(v, (mp.mpf,)):
        return _fmt_real(v, ctx)
    if isinstance(v, (mp.mpc,)):
        return _fmt_complex(v, ctx)
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, tuple):
        return [_jsonable(x, ctx) for x in v]
    if isinstance(v, dict):
        return {k: _jsonable(x, ctx) for k, x in v.items()}
    return v


def _parse_real(s: str, flag: str, ctx: PrecisionContext) -> mp.mpf:
    """A decimal or p/q string as a finite number at the working precision."""
    s = s.strip()
    try:
        x = ctx.mpf(s)
    except ZeroDivisionError:
        raise InputError(f"{flag}: zero denominator in {s!r}") from None
    if not mp.isfinite(x):
        raise InputError(f"{flag}: {s!r} is not a finite number")
    return x


def _parse_tau(s: str, ctx: PrecisionContext) -> ModularPoint:
    parts = s.split(",")
    if len(parts) != 2:
        raise InputError("--tau expects 're,im' decimal strings")
    re, im = (_parse_real(p, "--tau", ctx) for p in parts)
    return ModularPoint.from_complex((re, im), ctx)


def _parse_r(s: str) -> FractionPair:
    parts = s.split(",")
    if len(parts) != 2:
        raise InputError("--r expects 'p1/N,p2/N'")
    try:
        r1, r2 = (Fraction(p.strip()) for p in parts)
    except ZeroDivisionError:
        raise InputError(f"--r: zero denominator in {s!r}") from None
    return FractionPair(r1, r2)


def _check_recognition(args, ctx: PrecisionContext) -> None:
    """Reject --den-max and --recog-tol values under which no coefficient,
    or every coefficient, would count as recognized."""
    if args.den_max < 1:
        raise InputError(f"--den-max must be >= 1, got {args.den_max}")
    if not _parse_real(args.recog_tol, "--recog-tol", ctx) > 0:
        raise InputError(f"--recog-tol must be positive, got {args.recog_tol!r}")


def _ctx_from(args) -> PrecisionContext:
    try:
        return PrecisionContext(args.bits, args.eps)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


EVAL_NEEDS_R = {"siegel", "wp", "wp-prime", "x", "y"}


def _cmd_eval(args) -> int:
    ctx = _ctx_from(args)
    pt = _parse_tau(args.tau, ctx)
    r = _parse_r(args.r) if args.r else None
    fn = args.fn
    if fn in EVAL_NEEDS_R and r is None:
        raise InputError(f"eval {fn} requires --r")
    with ctx.work():
        if fn == "eta":
            val = eta(pt)
        elif fn == "g2":
            val = eisenstein(pt)[0]
        elif fn == "g3":
            val = eisenstein(pt)[1]
        elif fn == "delta":
            val = delta(pt)
        elif fn == "j":
            val = j_invariant(pt)
        elif fn == "siegel":
            val = siegel(r, pt)
        elif fn == "wp":
            val = wp(r, pt)
        elif fn == "wp-prime":
            val = wp_prime(r, pt)
        elif fn == "u":
            val = u_value(pt)
        elif fn == "v":
            val = v_value(pt)
        elif fn == "x":
            val = x_value(pt, r)
        else:
            val = y_value(pt, r)
    body = {
        "fn": fn,
        "tau": _fmt_complex(pt.tau, ctx),
        "r": [str(r.r1), str(r.r2)] if r else None,
        "value": _fmt_complex(val, ctx),
    }
    _emit(_payload({}, ctx, body), args)
    return EXIT_OK


def _cmd_field(args) -> int:
    ctx = _ctx_from(args)
    f = make_field(args.dk)
    body = {
        "theta": f.theta_str(),
        "h": f.h,
        "B": f.b_theta,
        "C": f.c_theta,
    }
    _emit(_payload({"dk": f.d}, ctx, body), args)
    return EXIT_OK


def _cmd_forms(args) -> int:
    ctx = _ctx_from(args)
    f = make_field(args.dk)
    forms = [
        {"a": q.a, "b": q.b, "c": q.c, "theta_Q": f"({-q.b}+sqrt({f.d}))/{2 * q.a}"}
        for q in f.forms
    ]
    _emit(_payload({"dk": f.d}, ctx, {"forms": forms, "h": f.h}), args)
    return EXIT_OK


def _cmd_degree(args) -> int:
    ctx = _ctx_from(args)
    f = make_field(args.dk)
    deg = ray_class_degree(f, args.level)
    fact = [
        {"p": fa.p, "splitting": fa.splitting, "e": fa.e, "norm": fa.norm,
         "phi": fa.phi()}
        for fa in ideal_factorization(f.d, args.level)
    ]
    body = {"degree": deg, "factorization": fact, "h": f.h}
    _emit(_payload({"dk": f.d, "level": args.level}, ctx, body), args)
    return EXIT_OK


def _cmd_conjugates(args) -> int:
    ctx = _ctx_from(args)
    f = make_field(args.dk)
    conj = conjugate_values(f, args.level, args.descriptor, ctx)
    items = []
    for label, val in conj:
        entry = {
            "t": label.alpha.t,
            "s": label.alpha.s,
            "form": [label.form.a, label.form.b, label.form.c],
        }
        if isinstance(val, tuple):
            entry["x"] = _fmt_complex(val[0], ctx)
            entry["y_pow"] = _fmt_complex(val[1], ctx)
        else:
            entry["value"] = _fmt_complex(val, ctx)
        items.append(entry)
    body = {"descriptor": args.descriptor, "count": len(items), "conjugates": items}
    _emit(_payload({"dk": f.d, "level": args.level}, ctx, body), args)
    return EXIT_OK


def _poly_body(poly, ctx) -> dict:
    coeffs = [_fmt_complex(c, ctx) for c in poly.coeffs]
    rec = [
        None if r is None else {"m": r[0], "n": r[1], "den": r[2]}
        for r in poly.recognized
    ]
    return {
        "degree": poly.degree,
        "coefficients_ascending": coeffs,
        "recognized": rec,
        "recognition_residual": _fmt_real(poly.residual, ctx)
        if mp.isfinite(poly.residual) else "inf",
    }


def _cmd_minpoly(args) -> int:
    ctx = _ctx_from(args)
    _check_recognition(args, ctx)
    f = make_field(args.dk)
    conj = conjugate_values(f, args.level, args.descriptor, ctx)
    poly = minpoly([v for _, v in conj], f, ctx,
                   den_max=args.den_max, recog_tol=args.recog_tol)
    body = {"descriptor": args.descriptor}
    body.update(_poly_body(poly, ctx))
    _emit(_payload({"dk": f.d, "level": args.level}, ctx, body), args)
    return EXIT_OK


def _cmd_hcp(args) -> int:
    ctx = _ctx_from(args)
    _check_recognition(args, ctx)
    f = make_field(args.dk)
    poly = hilbert_class_poly(f, ctx, den_max=args.den_max,
                              recog_tol=args.recog_tol)
    body = {"h": f.h}
    body.update(_poly_body(poly, ctx))
    _emit(_payload({"dk": f.d}, ctx, body), args)
    return EXIT_OK


_CHECK_NEEDS = {
    "curve": ("dk", "level"),
    "surface": ("tau", "level"),
    "lemma51": ("dk", "a", "x"),
    "lemma52": ("dk", "level"),
    "tbound": ("dk", "level"),
    "generation": ("dk", "level"),
    "elliptic4": (),
}


def _cmd_check(args) -> int:
    ctx = _ctx_from(args)
    which = args.which
    missing = [k for k in _CHECK_NEEDS[which] if getattr(args, k) is None]
    if missing:
        raise InputError(
            f"check {which} needs " + ", ".join(f"--{k}" for k in missing))
    cfg = {}
    if which == "curve":
        f = make_field(args.dk)
        rep = check_curve_point(f, args.level, ctx, relaxed=args.relaxed)
        cfg = {"dk": f.d, "level": args.level}
    elif which == "surface":
        pt = _parse_tau(args.tau, ctx)
        rep = check_surface_point(pt.tau, args.level, ctx)
        cfg = {"level": args.level}
    elif which == "lemma51":
        rep = check_lemma51(args.dk, _parse_real(args.a, "--a", ctx),
                            _parse_real(args.x, "--x", ctx), ctx)
        cfg = {"dk": args.dk}
    elif which == "lemma52":
        f = make_field(args.dk)
        rep = check_lemma52(f, args.level, ctx)
        cfg = {"dk": f.d, "level": args.level}
    elif which == "tbound":
        f = make_field(args.dk)
        rep = check_T_bound(args.level, f, ctx, majorant_range=(8, args.nmax))
        cfg = {"dk": f.d, "level": args.level}
    elif which == "generation":
        f = make_field(args.dk)
        rep = check_generation(f, args.level, args.descriptor, ctx)
        cfg = {"dk": f.d, "level": args.level}
    else:  # elliptic4
        rep = check_elliptic_points(ctx)
        cfg = {"level": 4}
    _emit(_payload(cfg, ctx, _report_body(rep, ctx, args.output == "text")), args)
    return EXIT_OK if rep.passed else EXIT_CHECK_FAILED


def _add_global_flags(p, suppress: bool):
    # The same flags hang off the main parser (with real defaults) and off
    # every subparser (defaulting to SUPPRESS so prefix placement survives);
    # users may write them before or after the subcommand.
    d = (lambda v: argparse.SUPPRESS if suppress else v)
    p.add_argument("--bits", type=int, default=d(256),
                   help="working precision bits")
    p.add_argument("--eps", default=d("1e-40"), help="target absolute error")
    p.add_argument("--den-max", dest="den_max", type=int, default=d(48))
    p.add_argument("--recog-tol", dest="recog_tol", default=d("1e-10"))
    p.add_argument("--output", choices=("json", "text"), default=d("json"))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls
    (parsing leaves it unchanged)."""
    p = argparse.ArgumentParser(
        prog="rayclass",
        description="Modular units, CM points and ray class invariants "
                    "at arbitrary precision.",
    )
    _add_global_flags(p, suppress=False)
    common = argparse.ArgumentParser(add_help=False)
    _add_global_flags(common, suppress=True)
    sub = p.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", help="evaluate one function at tau",
                        parents=[common])
    pe.add_argument("fn", choices=(
        "eta", "g2", "g3", "delta", "j", "siegel", "wp", "wp-prime",
        "u", "v", "x", "y"))
    pe.add_argument("--tau", required=True, help="re,im")
    pe.add_argument("--r", default=None, help="p1/N,p2/N")
    pe.set_defaults(run=_cmd_eval)

    pf = sub.add_parser("field", help="theta, h, minimal polynomial data",
                        parents=[common])
    pf.add_argument("--dk", type=int, required=True)
    pf.set_defaults(run=_cmd_field)

    pq = sub.add_parser("forms", help="reduced forms of the discriminant",
                        parents=[common])
    pq.add_argument("--dk", type=int, required=True)
    pq.set_defaults(run=_cmd_forms)

    pd = sub.add_parser("degree", help="ray class degree and ideal factorization",
                        parents=[common])
    pd.add_argument("--dk", type=int, required=True)
    pd.add_argument("--level", type=int, required=True)
    pd.set_defaults(run=_cmd_degree)

    pc = sub.add_parser("conjugates", help="full Galois orbit of a descriptor",
                        parents=[common])
    pc.add_argument("--dk", type=int, required=True)
    pc.add_argument("--level", type=int, required=True)
    pc.add_argument("--descriptor", choices=DESCRIPTORS, default="y12N")
    pc.set_defaults(run=_cmd_conjugates)

    pm = sub.add_parser("minpoly", help="minimal polynomial of an orbit",
                        parents=[common])
    pm.add_argument("--dk", type=int, required=True)
    pm.add_argument("--level", type=int, required=True)
    pm.add_argument("--descriptor", choices=("y12N", "y4", "x"), default="y4")
    pm.set_defaults(run=_cmd_minpoly)

    ph = sub.add_parser("hcp", help="Hilbert class polynomial",
                        parents=[common])
    ph.add_argument("--dk", type=int, required=True)
    ph.set_defaults(run=_cmd_hcp)

    pk = sub.add_parser("check", help="run one verification check",
                        parents=[common])
    pk.add_argument("which", choices=(
        "curve", "surface", "lemma51", "lemma52", "tbound", "generation",
        "elliptic4"))
    pk.add_argument("--dk", type=int, default=None)
    pk.add_argument("--level", type=int, default=None)
    pk.add_argument("--tau", default=None)
    pk.add_argument("--a", default=None)
    pk.add_argument("--x", default=None)
    pk.add_argument("--nmax", type=int, default=200)
    pk.add_argument("--relaxed", action="store_true")
    pk.add_argument("--descriptor", choices=DESCRIPTORS, default="pair")
    pk.set_defaults(run=_cmd_check)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except NumericalError as exc:
        _error_out(args, exc)
        return EXIT_NUMERICAL
    except (InputError, ValueError) as exc:
        _error_out(args, exc)
        return EXIT_USAGE


def _error_out(args, exc) -> None:
    msg = {"error": type(exc).__name__, "message": str(exc)}
    if getattr(args, "output", "json") == "json":
        sys.stderr.write(json.dumps(msg, sort_keys=True) + "\n")
    else:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")


if __name__ == "__main__":
    raise SystemExit(main())
