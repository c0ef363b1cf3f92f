"""Command-line surface with machine-readable JSON output.

Every JSON payload embeds {dk, level, precision_bits, eps, tool_version}.
Complex values are serialized as decimal-string pairs at full working
precision (no binary floats), quadratic irrationals as strings like
"(-1+sqrt(-39))/2", so identical configurations produce byte-identical
output.  Timing is reported only in text mode; JSON stays reproducible.

Each ``eval`` function and each ``check`` is named once, as a key of
``EVALS`` (needs --r, value at (pt, r)) or ``CHECKS`` (flags it needs,
report from (args, ctx)); the argparse choices are those keys.  Each
``_cmd_*`` returns (header, body), the body holding raw values: mpf, mpc,
tuples of them, Fractions and ints.  The payload's dk and level come from
the header, which for a check is its report's ``inputs``.  ``main`` alone
builds the PrecisionContext, writes the payload and picks the exit code:
0 success, 1 when a check reports ``pass: false``, 2 usage/validation
(InputError, ValueError), 3 NumericalError.  JSON is written in one pass
over the raw payload (``_json_text``), each number rounded to the working
precision and printed as it is met, in the layout of ``json.dumps(...,
sort_keys=True, indent=2)``; text mode prints ``_jsonable``'s strings.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
import time
from fractions import Fraction
from json.encoder import encode_basestring_ascii

import mpmath as mp

from . import __version__
from ._fixed import _real_text, prec_to_dps
from .classfield import ideal_factorization, make_field, ray_class_degree
from .errors import InputError, NumericalError
from .numerics import PrecisionContext, decimal_digits
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
    BOUND_BITS,
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
    _recognition_tol,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


def _payload(header: dict, ctx: PrecisionContext, body: dict) -> dict:
    """The payload with its numbers still raw: the common header fields
    and the body."""
    return {
        "tool_version": __version__,
        "dk": header.get("dk"),
        "level": header.get("level"),
        "precision_bits": ctx.bits,
        "eps": mp.nstr(ctx.eps, 12),
        **body,
    }


def _emit(payload: dict, ctx: PrecisionContext, args) -> None:
    if args.output == "json":
        sys.stdout.write(_json_text(payload, ctx.dps, ctx.bits) + "\n")
    else:
        with ctx.work():
            payload = _jsonable(payload, ctx.dps)
        for k, v in payload.items():
            sys.stdout.write(f"{k}: {v}\n")


def _report_body(rep: CheckReport) -> dict:
    return {
        "check": rep.name,
        "pass": rep.passed,
        "inputs": rep.inputs,
        "residuals": rep.residuals,
        "tolerance": mp.mpf(0),  # a report passes iff every residual < 0
        "details": rep.details,
    }


def _jsonable(v, dps: int):
    """v with its numbers made JSON, at the caller's working precision: an
    mpf as its decimal string of dps digits, an mpc as the pair of its
    parts, a tuple as a list and a Fraction as its str; dicts and lists
    are converted entry by entry."""
    if isinstance(v, mp.mpf):
        return mp.nstr(+v, dps, strip_zeros=True)
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, mp.mpc):
        v = (v.real, v.imag)
    if isinstance(v, (tuple, list)):
        return [_jsonable(x, dps) for x in v]
    if isinstance(v, dict):
        return {k: _jsonable(x, dps) for k, x in v.items()}
    return v


def _json_text(v, dps: int, prec: int) -> str:
    """``json.dumps(_jsonable(v, dps), sort_keys=True, indent=2)`` at
    precision prec, written in one pass (``_write_json``)."""
    out = []
    _write_json(v, "", out.append, dps, prec)
    return "".join(out)


def _write_json(x, pad: str, put, dps: int, prec: int) -> None:
    """Pass the JSON text of x, indented from pad, to put: an mpf as
    ``_real_text`` prints it at prec bits and dps digits, an mpc as the
    list of its parts, and every other node laid out as the json module lays it
    out with sort_keys=True and indent=2."""
    if isinstance(x, mp.mpf):
        put('"%s"' % _real_text(x, prec, dps))
    elif isinstance(x, str):
        put(encode_basestring_ascii(x))
    elif isinstance(x, mp.mpc):
        re, im = _real_text(x, prec, dps)
        inner = pad + "  "
        put('[\n%s"%s",\n%s"%s"\n%s]' % (inner, re, inner, im, pad))
    elif isinstance(x, dict):
        if not x:
            put("{}")
            return
        inner = pad + "  "
        sep = "{\n" + inner
        for k, item in sorted(x.items()):
            put(sep)
            put(encode_basestring_ascii(k))
            put(": ")
            _write_json(item, inner, put, dps, prec)
            sep = ",\n" + inner
        put("\n" + pad + "}")
    elif isinstance(x, (tuple, list)):
        if not x:
            put("[]")
            return
        inner = pad + "  "
        sep = "[\n" + inner
        for item in x:
            put(sep)
            _write_json(item, inner, put, dps, prec)
            sep = ",\n" + inner
        put("\n" + pad + "]")
    elif x is None:
        put("null")
    elif isinstance(x, bool):
        put("true" if x else "false")
    elif isinstance(x, int):
        put(int.__repr__(x))
    elif isinstance(x, Fraction):
        put(encode_basestring_ascii(str(x)))
    else:
        put(json.dumps(x))


def _parse_real(s: str, flag: str, ctx: PrecisionContext) -> mp.mpf:
    """A decimal or p/q string as a finite number at the working precision."""
    s = s.strip()
    try:
        x = ctx.mpf(s)
    except ZeroDivisionError:
        raise InputError(f"{flag}: zero denominator in {s!r}") from None
    except ValueError:
        raise InputError(f"{flag}: {s!r} is not a number") from None
    if not mp.isfinite(x):
        raise InputError(f"{flag}: {s!r} is not a finite number")
    return x


def _parse_tau(s: str, ctx: PrecisionContext) -> tuple[mp.mpf, mp.mpf]:
    """(Re tau, Im tau) from 're,im'; the caller builds the point."""
    parts = s.split(",")
    if len(parts) != 2:
        raise InputError("--tau expects 're,im' decimal strings")
    return tuple(_parse_real(p, "--tau", ctx) for p in parts)


def _parse_r(s: str) -> FractionPair:
    parts = s.split(",")
    if len(parts) != 2:
        raise InputError("--r expects 'p1/N,p2/N'")
    try:
        r1, r2 = (Fraction(p.strip()) for p in parts)
    except ZeroDivisionError:
        raise InputError(f"--r: zero denominator in {s!r}") from None
    except ValueError:
        raise InputError(f"--r: {s!r} is not a pair of fractions") from None
    return FractionPair(r1, r2)


def _ctx_from(args) -> PrecisionContext:
    try:
        return PrecisionContext(args.bits, args.eps)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


# name -> (needs --r, value at (pt, r)).  The lambdas look the functions up
# at call time, so a wrapper installed on this module sees every call.
EVALS = {
    "eta": (False, lambda pt, r: eta(pt)),
    "g2": (False, lambda pt, r: eisenstein(pt)[0]),
    "g3": (False, lambda pt, r: eisenstein(pt)[1]),
    "delta": (False, lambda pt, r: delta(pt)),
    "j": (False, lambda pt, r: j_invariant(pt)),
    "siegel": (True, lambda pt, r: siegel(r, pt)),
    "wp": (True, lambda pt, r: wp(r, pt)),
    "wp-prime": (True, lambda pt, r: wp_prime(r, pt)),
    "u": (False, lambda pt, r: u_value(pt)),
    "v": (False, lambda pt, r: v_value(pt)),
    "x": (True, lambda pt, r: x_value(pt, r)),
    "y": (True, lambda pt, r: y_value(pt, r)),
}


def _cmd_eval(args, ctx: PrecisionContext) -> tuple[dict, dict]:
    needs_r, value = EVALS[args.fn]
    if args.r is not None and not needs_r:
        raise InputError(f"eval {args.fn} takes no --r: it depends on tau alone")
    pt = ModularPoint.from_complex(_parse_tau(args.tau, ctx), ctx)
    r = _parse_r(args.r) if args.r else None
    if needs_r and r is None:
        raise InputError(f"eval {args.fn} requires --r")
    with ctx.work():
        val = value(pt, r)
    return {}, {"fn": args.fn, "tau": pt.tau, "r": (r.r1, r.r2) if r else None,
                "value": (mp.re(val), mp.im(val))}


def _cmd_field(args, ctx: PrecisionContext) -> tuple[dict, dict]:
    f = make_field(args.dk)
    return {"dk": f.d}, {"theta": f.theta_str(), "h": f.h, "B": f.b_theta,
                         "C": f.c_theta}


def _cmd_forms(args, ctx: PrecisionContext) -> tuple[dict, dict]:
    f = make_field(args.dk)
    forms = [
        {"a": q.a, "b": q.b, "c": q.c, "theta_Q": f"({-q.b}+sqrt({f.d}))/{2 * q.a}"}
        for q in f.forms
    ]
    return {"dk": f.d}, {"forms": forms, "h": f.h}


def _cmd_degree(args, ctx: PrecisionContext) -> tuple[dict, dict]:
    f = make_field(args.dk)
    deg = ray_class_degree(f, args.level)
    fact = [
        {"p": fa.p, "splitting": fa.splitting, "e": fa.e, "norm": fa.norm,
         "phi": fa.phi()}
        for fa in ideal_factorization(f.d, args.level)
    ]
    return ({"dk": f.d, "level": args.level},
            {"degree": deg, "factorization": fact, "h": f.h})


def _cmd_conjugates(args, ctx: PrecisionContext) -> tuple[dict, dict]:
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
            entry["x"], entry["y_pow"] = val
        else:
            entry["value"] = val
        items.append(entry)
    body = {"descriptor": args.descriptor, "count": len(items), "conjugates": items}
    return {"dk": f.d, "level": args.level}, body


def _poly_body(poly) -> dict:
    """The polynomial's payload fields, its numbers printed here, each with
    the digits of its own precision: the coefficients, as [re, im], and
    the residual with those of the working bits ``poly.bits``, an exact
    integer coefficient (hcp's H_D from gamma_2) in full, and the bound
    with the 15 of BOUND_BITS."""
    prec, dps = poly.bits, decimal_digits(poly.bits)

    def text(x):
        return f"{x}.0" if isinstance(x, int) else _real_text(x, prec, dps)

    rec = [
        None if r is None else {"m": r[0], "n": r[1], "den": r[2]}
        for r in poly.recognized
    ]
    return {
        "degree": poly.degree,
        "coefficients_ascending": [
            [text(c), "0.0"] if isinstance(c, int) else [text(mp.re(c)), text(mp.im(c))]
            for c in poly.coeffs],
        "recognized": rec,
        "recognition_residual": text(poly.residual)
        if mp.isfinite(poly.residual) else "inf",
        "recognition_bound": _real_text(poly.bound, BOUND_BITS, prec_to_dps(BOUND_BITS)),
    }


def _cmd_minpoly(args, ctx: PrecisionContext) -> tuple[dict, dict]:
    # reject, before any series is summed, settings under which no
    # coefficient could count as recognized or two candidates could not be
    # told apart (``verify._recognition_tol``)
    tol = _parse_real(args.recog_tol, "--recog-tol", ctx)
    try:
        _recognition_tol(args.den_max, tol, ctx)
    except ValueError as exc:  # den_max is checked first
        flag = f"--den-max {args.den_max}" if args.den_max < 1 else f"--recog-tol {args.recog_tol}"
        raise InputError(f"{flag}: {exc}") from None
    f = make_field(args.dk)
    conj = conjugate_values(f, args.level, args.descriptor, ctx)
    poly = minpoly([v for _, v in conj], f, ctx,
                   den_max=args.den_max, recog_tol=tol)
    body = {"descriptor": args.descriptor, **_poly_body(poly)}
    return {"dk": f.d, "level": args.level}, body


def _cmd_hcp(args, ctx: PrecisionContext) -> tuple[dict, dict]:
    f = make_field(args.dk)
    poly = hilbert_class_poly(f, ctx)
    return {"dk": f.d}, {"h": f.h, "working_bits": poly.bits, "invariant": poly.invariant,
                         **_poly_body(poly)}


# name -> (flags it needs, report from (args, ctx)); lookups as in EVALS.
CHECKS = {
    "curve": (("dk", "level"), lambda a, ctx: check_curve_point(
        make_field(a.dk), a.level, ctx, relaxed=a.relaxed)),
    "surface": (("tau", "level"), lambda a, ctx: check_surface_point(
        _parse_tau(a.tau, ctx), a.level, ctx)),
    "lemma51": (("dk", "a", "x"), lambda a, ctx: check_lemma51(
        a.dk, _parse_real(a.a, "--a", ctx), _parse_real(a.x, "--x", ctx), ctx)),
    "lemma52": (("dk", "level"), lambda a, ctx: check_lemma52(
        make_field(a.dk), a.level, ctx)),
    "tbound": (("dk", "level"), lambda a, ctx: check_T_bound(
        a.level, make_field(a.dk), ctx, majorant_range=(8, a.nmax))),
    "generation": (("dk", "level"), lambda a, ctx: check_generation(
        make_field(a.dk), a.level, a.descriptor, ctx)),
    "elliptic4": ((), lambda a, ctx: check_elliptic_points(ctx)),
}


def _cmd_check(args, ctx: PrecisionContext) -> tuple[dict, dict]:
    needs, report = CHECKS[args.which]
    missing = ", ".join(f"--{k}" for k in needs if getattr(args, k) is None)
    if missing:
        raise InputError(f"check {args.which} needs {missing}")
    t0 = time.perf_counter()
    rep = report(args, ctx)
    body = _report_body(rep)
    if args.output == "text":
        body["elapsed_s"] = f"{time.perf_counter() - t0:.3f}"
    return rep.inputs, body


def _add_global_flags(p, suppress: bool):
    # The same flags hang off the main parser (with real defaults) and off
    # every subparser (defaulting to SUPPRESS so prefix placement survives);
    # users may write them before or after the subcommand.
    d = (lambda v: argparse.SUPPRESS if suppress else v)
    p.add_argument("--bits", type=int, default=d(256),
                   help="working precision bits")
    p.add_argument("--eps", default=d("1e-40"), help="target absolute error")
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
    pe.add_argument("fn", choices=tuple(EVALS))
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
    pm.add_argument("--den-max", dest="den_max", type=int, default=48)
    pm.add_argument("--recog-tol", dest="recog_tol", default="1e-10")
    pm.set_defaults(run=_cmd_minpoly)

    ph = sub.add_parser("hcp", help="Hilbert class polynomial",
                        parents=[common])
    ph.add_argument("--dk", type=int, required=True)
    ph.set_defaults(run=_cmd_hcp)

    pk = sub.add_parser("check", help="run one verification check",
                        parents=[common])
    pk.add_argument("which", choices=tuple(CHECKS))
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


# Flags whose value may start with "-": a negative real part or residue.
# argparse takes a token like "-0.3,0.9" for an option, so such a value is
# joined to its flag ("--tau=-0.3,0.9") before parsing.
_SIGNED_FLAGS = ("--tau", "--r", "--a", "--x")
_SIGNED_VALUE = re.compile(r"-[\d.]")


def _join_signed_values(argv: list[str]) -> list[str]:
    out = []
    for arg in argv:
        if out and out[-1] in _SIGNED_FLAGS and _SIGNED_VALUE.match(arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    args = build_parser().parse_args(
        _join_signed_values(sys.argv[1:] if argv is None else argv))
    try:
        ctx = _ctx_from(args)
        header, body = args.run(args, ctx)
        _emit(_payload(header, ctx, body), ctx, args)
    except NumericalError as exc:
        _error_out(args, exc)
        return EXIT_NUMERICAL
    except (InputError, ValueError) as exc:
        _error_out(args, exc)
        return EXIT_USAGE
    return EXIT_CHECK_FAILED if body.get("pass") is False else EXIT_OK


def _error_out(args, exc) -> None:
    msg = {"error": type(exc).__name__, "message": str(exc)}
    if getattr(args, "output", "json") == "json":
        sys.stderr.write(json.dumps(msg, sort_keys=True) + "\n")
    else:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")


if __name__ == "__main__":
    raise SystemExit(main())
