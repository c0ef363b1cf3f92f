import argparse
import json
import random
import re
import shlex
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction as F
from pathlib import Path

import mpmath as mp
import pytest

from rayclass import (
    FractionPair,
    ModularPoint,
    PrecisionContext,
    check_T_bound,
    check_elliptic_points,
    cli,
    conjugate_values,
    hilbert_class_poly,
    make_field,
    minpoly,
    siegel,
    verify,
)
from rayclass import qseries
from rayclass.cli import main
from rayclass.numerics import decimal_digits

from oracles import min_pairwise_distance_loop


def run_cli(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def run_subprocess(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "rayclass", *argv],
        capture_output=True, text=True, timeout=300,
    )
    return proc.returncode, proc.stdout, proc.stderr


# ------------------------------------------------------------- happy path ---

def test_field_payload(capsys):
    code, out, _ = run_cli(["field", "--dk", "-39"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["theta"] == "(-1+sqrt(-39))/2"
    assert doc["h"] == 4
    assert doc["B"] == 1 and doc["C"] == 10
    for key in ("dk", "level", "precision_bits", "eps", "tool_version"):
        assert key in doc


def test_forms_payload(capsys):
    code, out, _ = run_cli(["forms", "--dk", "-39"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert [(f["a"], f["b"], f["c"]) for f in doc["forms"]] == [
        (1, 1, 10), (2, -1, 5), (2, 1, 5), (3, 3, 4)]
    assert doc["forms"][1]["theta_Q"] == "(1+sqrt(-39))/4"


def test_degree_payload(capsys):
    code, out, _ = run_cli(["degree", "--dk", "-7", "--level", "3"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["degree"] == 4
    assert doc["factorization"] == [
        {"p": 3, "splitting": "inert", "e": 1, "norm": 9, "phi": 8}]


def test_eval_j(capsys):
    code, out, _ = run_cli(["eval", "j", "--tau", "0,1"], capsys)
    assert code == 0
    doc = json.loads(out)
    re, im = doc["value"]
    assert abs(float(re) - 1728.0) < 1e-20
    assert abs(float(im)) < 1e-20


def test_eval_siegel_requires_r(capsys):
    code, _, err = run_cli(["eval", "siegel", "--tau", "0,1"], capsys)
    assert code == 2
    assert "requires --r" in err


@pytest.mark.parametrize("fn", ["eta", "g2", "g3", "delta", "j", "u", "v"])
def test_eval_of_a_point_only_function_rejects_r(fn, capsys):
    """A function of tau alone reads no index, so an --r is a usage error,
    not an input echoed back unread."""
    code, out, err = run_cli(["eval", fn, "--tau", "0,1", "--r", "1/2,1/3"], capsys)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "InputError",
                               "message": f"eval {fn} takes no --r: it depends on tau alone"}


def test_eval_y_with_r(capsys):
    code, out, _ = run_cli(
        ["eval", "y", "--tau", "0.5,0.8660254037844386467637231", "--r", "0/4,1/4"],
        capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["r"] == ["0", "1/4"]


def test_conjugates_payload(capsys):
    code, out, _ = run_cli(
        ["conjugates", "--dk", "-7", "--level", "3", "--descriptor", "y4"],
        capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 4
    assert len(doc["conjugates"]) == 4
    assert all({"t", "s", "form", "value"} <= set(c) for c in doc["conjugates"])


def test_check_pass_exit_zero(capsys):
    code, out, _ = run_cli(
        ["check", "curve", "--dk", "-39", "--level", "8"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert "elapsed_s" not in doc  # timing only in text mode


def test_check_text_output_reports_elapsed_seconds(capsys):
    code, out, _ = run_cli(
        ["--output", "text", "check", "curve", "--dk", "-39", "--level", "8"], capsys)
    assert code == 0
    (line,) = [ln for ln in out.splitlines() if ln.startswith("elapsed_s: ")]
    assert float(line.split()[1]) >= 0 and len(line.split(".")[1]) == 3


def test_check_fail_exit_one(capsys):
    # a deliberately coarse eps makes the orbit distinctness threshold
    # swallow genuinely distinct values: the check reports failure honestly
    code, out, _ = run_cli(
        ["--eps", "1e-2", "check", "generation", "--dk", "-7", "--level", "3",
         "--descriptor", "y4"], capsys)
    assert code == 1
    doc = json.loads(out)
    assert doc["pass"] is False


def test_check_elliptic4(capsys):
    code, out, _ = run_cli(["check", "elliptic4"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True and doc["level"] == 4


def test_hcp_payload(capsys):
    code, out, _ = run_cli(["hcp", "--dk", "-7"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["degree"] == 1
    assert doc["recognized"][0] == {"m": 3375, "n": 0, "den": 1}


def test_minpoly_x_descriptor(capsys):
    code, out, _ = run_cli(
        ["minpoly", "--dk", "-7", "--level", "3", "--descriptor", "x"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["degree"] == 4


def test_minpoly_leaves_coefficients_that_contradict_their_bound_null(capsys):
    """The y12N polynomial of -7 at level 3 has c0 ~ 1.7e-26 and
    c1 ~ 5.4e-13, each within --recog-tol of 0, but each within a bound
    below 1e-60 of the exact coefficient, which is therefore not 0: both
    print null."""
    code, out, err = run_cli(
        ["minpoly", "--dk", "-7", "--level", "3", "--descriptor", "y12N"], capsys)
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert float(doc["recognition_bound"]) < 1e-60
    assert doc["recognized"][:2] == [None, None] and doc["recognition_residual"] == "inf"
    for re, im in doc["coefficients_ascending"][:2]:
        assert 1e-30 < abs(complex(float(re), float(im))) < 1e-10


def _significant_digits(s):
    return len(s.lstrip("-").split("e")[0].replace(".", "").lstrip("0"))


@pytest.mark.parametrize("dk, invariant, bits", [("-23", "gamma2", 64), ("-39", "j", 117)])
def test_hcp_reports_its_working_bits_and_recognition_bound(capsys, dk, invariant, bits):
    """hcp runs at its planned bits below --bits and prints them and its
    invariant, with the largest error bound, below 1e-10 when every
    coefficient certifies, in the 15 digits of its 53 bits; minpoly prints
    its bound so too."""
    code, out, _ = run_cli(["hcp", "--dk", dk], capsys)
    doc = json.loads(out)
    assert (code, doc["precision_bits"], doc["working_bits"]) == (0, 256, bits)
    assert doc["invariant"] == invariant
    assert 0 < float(doc["recognition_bound"]) < 1e-10
    assert _significant_digits(doc["recognition_bound"]) <= 15
    assert None not in doc["recognized"]
    code, out, _ = run_cli(
        ["minpoly", "--dk", "-7", "--level", "3", "--descriptor", "x"], capsys)
    doc = json.loads(out)
    assert "working_bits" not in doc and "invariant" not in doc
    assert 0 < float(doc["recognition_bound"]) < 1e-10
    assert _significant_digits(doc["recognition_bound"]) <= 15


def test_hcp_below_its_plan_leaves_uncertified_coefficients_null(capsys):
    """--bits caps the working precision; at 96 bits, below its plan of
    117, the two large coefficients of H_-39 (20919104368024767633 and
    109873509788637459) cannot be certified and print null, with exit 0."""
    code, out, _ = run_cli(["hcp", "--dk", "-39", "--bits", "96", "--eps", "1e-10"], capsys)
    doc = json.loads(out)
    assert (code, doc["working_bits"], doc["invariant"]) == (0, 96, "j")
    assert doc["recognized"][:2] == [None, None] and None not in doc["recognized"][2:]
    assert doc["recognition_residual"] == "inf" and float(doc["recognition_bound"]) > 1e-10


def test_hcp_prints_what_it_knows(capsys):
    """hcp prints H_D's exact integers when it comes from gamma_2, and
    otherwise each coefficient and the residual with the digits of its
    working bits, not of --bits, in JSON and in text alike."""
    code, out, _ = run_cli(["hcp", "--dk", "-23", "--bits", "1024"], capsys)
    doc = json.loads(out)
    assert [c[0] for c in doc["coefficients_ascending"]] == [
        "12771880859375.0", "-5151296875.0", "3491750.0", "1.0"]
    assert all(c[1] == "0.0" for c in doc["coefficients_ascending"])
    code, out, _ = run_cli(["hcp", "--dk", "-39", "--bits", "1024"], capsys)
    doc = json.loads(out)
    dps = decimal_digits(doc["working_bits"])
    assert _significant_digits(doc["recognition_residual"]) <= dps
    for (re, im), r in zip(doc["coefficients_ascending"][:-1], doc["recognized"]):
        assert _significant_digits(re) == dps and im == "0.0"
        assert abs(Decimal(re) - r["m"]) < Decimal("1e-12")
    code, text, _ = run_cli(["--output", "text", "hcp", "--dk", "-39", "--bits", "1024"], capsys)
    lines = dict(line.split(": ", 1) for line in text.splitlines())
    assert lines["coefficients_ascending"] == str(doc["coefficients_ascending"])
    assert lines["recognition_residual"] == doc["recognition_residual"]
    assert lines["recognition_bound"] == doc["recognition_bound"]


def test_text_output_mode(capsys):
    code, out, _ = run_cli(
        ["--output", "text", "degree", "--dk", "-7", "--level", "3"], capsys)
    assert code == 0
    assert "degree: 4" in out


def test_global_flags_after_subcommand(capsys):
    code, out, _ = run_cli(
        ["degree", "--dk", "-7", "--level", "3", "--output", "text",
         "--bits", "320"], capsys)
    assert code == 0
    assert "degree: 4" in out and "precision_bits: 320" in out
    # prefix placement still wins when only given there
    code, out, _ = run_cli(
        ["--bits", "320", "degree", "--dk", "-7", "--level", "3"], capsys)
    assert code == 0
    assert json.loads(out)["precision_bits"] == 320


PARSER_SEQUENCE = [
    ["check", "generation", "--dk", "-7", "--level", "3"],
    ["conjugates", "--dk", "-7", "--level", "3", "--bits", "320"],
    ["minpoly", "--dk", "-7", "--level", "3", "--descriptor", "x"],
    ["minpoly", "--dk", "-7", "--level", "3"],
    ["check", "generation", "--dk", "-7", "--level", "3", "--descriptor", "x"],
    ["conjugates", "--dk", "-7", "--level", "3"],
    ["check", "generation", "--dk", "-7", "--level", "3"],
]


def test_shared_parser_keeps_each_subcommands_defaults(capsys, monkeypatch):
    """main reuses one parser; a run of subcommands with and without
    --descriptor and --bits prints what a fresh parser per call gives."""
    assert cli.build_parser() is cli.build_parser()
    shared = [run_cli(argv, capsys) for argv in PARSER_SEQUENCE]
    docs = [json.loads(out) for _, out, _ in shared]
    assert [doc.get("descriptor") or doc["inputs"]["descriptor"] for doc in docs] == [
        "pair", "y12N", "x", "y4", "x", "y12N", "pair"]
    assert [doc["precision_bits"] for doc in docs] == [256, 320] + [256] * 5
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert [run_cli(argv, capsys) for argv in PARSER_SEQUENCE] == shared


# ------------------------------------------------------ printed precision ---

# Not the default 256 bits, so that a number printed at another precision
# shows in its digits.
PREC = PrecisionContext(320, "1e-40")


def _nstr(x):
    """x as the CLI prints it: mp.nstr at PREC.dps, at the working precision."""
    with PREC.work():
        return mp.nstr(+x, PREC.dps, strip_zeros=True)


def _parts(z):
    return [_nstr(mp.re(z)), _nstr(mp.im(z))]


def _eval_digits(doc):
    pt = ModularPoint.from_complex((PREC.mpf("0.25"), PREC.mpf("1.5")), PREC)
    with PREC.work():
        val = siegel(FractionPair.from_parts(1, 3, 8), pt)
    return [doc["tau"], doc["value"]], [_parts(pt.tau), _parts(val)]


def _pair_digits(doc):
    conj = conjugate_values(make_field(-39), 8, "pair", PREC)
    return ([[c["x"], c["y_pow"]] for c in doc["conjugates"]],
            [[_parts(x), _parts(y)] for _, (x, y) in conj])


def _poly_digits(doc, poly):
    return ([doc["coefficients_ascending"], doc["recognition_residual"]],
            [[_parts(c) for c in poly.coeffs],
             _nstr(poly.residual) if mp.isfinite(poly.residual) else "inf"])


def _hcp_digits(doc):
    """hcp's coefficients and residual as it prints them: the library's
    values at the working bits, printed with that precision's digits, and
    H_D's integers in full when it comes from gamma_2."""
    poly = hilbert_class_poly(make_field(doc["dk"]), PREC)
    dps = decimal_digits(poly.bits)

    def text(x):
        if isinstance(x, int):
            return f"{x}.0"
        with mp.workprec(poly.bits):
            return mp.nstr(+x, dps, strip_zeros=True)

    return ([doc["coefficients_ascending"], doc["recognition_residual"]],
            [[[text(c), "0.0"] for c in poly.coeffs], text(poly.residual)])


def _minpoly_digits(doc):
    f = make_field(-7)
    return _poly_digits(doc, minpoly(
        [v for _, v in conjugate_values(f, 3, "x", PREC)], f, PREC))


def _report_digits(doc, rep):
    numbers = {k: v for k, v in rep.details.items() if isinstance(v, mp.mpf)}
    return ([doc["residuals"], {k: doc["details"][k] for k in numbers},
             doc["tolerance"]],
            [{k: _nstr(v) for k, v in rep.residuals.items()},
             {k: _nstr(v) for k, v in numbers.items()}, "0.0"])


PRECISION_RUNS = {
    "eval": (["eval", "siegel", "--tau", "0.25,1.5", "--r", "1/8,3/8"], _eval_digits),
    "conjugates": (["conjugates", "--dk", "-39", "--level", "8", "--descriptor", "pair"],
                   _pair_digits),
    "minpoly": (["minpoly", "--dk", "-7", "--level", "3", "--descriptor", "x"],
                _minpoly_digits),
    "hcp": (["hcp", "--dk", "-39"], _hcp_digits),
    "hcp-gamma2": (["hcp", "--dk", "-23"], _hcp_digits),
    "tbound": (["check", "tbound", "--dk", "-39", "--level", "8"],
               lambda doc: _report_digits(doc, check_T_bound(8, make_field(-39), PREC))),
    "elliptic4": (["check", "elliptic4"],
                  lambda doc: _report_digits(doc, check_elliptic_points(PREC))),
}


@pytest.mark.parametrize("family", PRECISION_RUNS)
def test_printed_numbers_carry_the_working_precision(family, capsys):
    """Every number a command prints is the library's value at the working
    precision, printed by mp.nstr to ctx.dps digits; hcp's real coefficients
    and residual at its working precision and with its digits, as [re, im]
    pairs, and H_D's exact integers from gamma_2 in full."""
    argv, digits = PRECISION_RUNS[family]
    code, out, err = run_cli(["--bits", str(PREC.bits), *argv], capsys)
    assert (code, err) == (0, "")
    doc = json.loads(out)
    got, want = digits(doc)
    assert got == want
    assert doc["eps"] == "1.0e-40"


# ----------------------------------------------------------------- tables ---

def _choices(command, dest):
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return next(a for a in sub.choices[command]._actions if a.dest == dest).choices


def test_choices_are_the_table_keys():
    assert list(_choices("eval", "fn")) == list(cli.EVALS) == [
        "eta", "g2", "g3", "delta", "j", "siegel", "wp", "wp-prime",
        "u", "v", "x", "y"]
    assert list(_choices("check", "which")) == list(cli.CHECKS) == [
        "curve", "surface", "lemma51", "lemma52", "tbound", "generation",
        "elliptic4"]


# argv, exit code, header (dk, level); one run per table entry
TABLE_RUNS = [
    (["eval", fn, "--tau", "0.2,0.9", *(["--r", "1/3,1/5"] if needs_r else [])],
     0, None, None)
    for fn, (needs_r, _) in cli.EVALS.items()
] + [
    (["check", "curve", "--dk", "-39", "--level", "8"], 0, -39, 8),
    (["check", "surface", "--tau", "0.41,0.06", "--level", "16"], 0, None, 16),
    (["check", "lemma51", "--dk", "-39", "--a", "1", "--x", "1"], 0, -39, None),
    (["check", "lemma52", "--dk", "-39", "--level", "8"], 0, -39, 8),
    (["check", "tbound", "--dk", "-39", "--level", "8"], 0, -39, 8),
    (["check", "generation", "--dk", "-163", "--level", "11",
      "--descriptor", "y4"], 1, -163, 11),
    (["check", "elliptic4"], 0, None, 4),
]


def test_table_runs_cover_every_entry():
    assert [argv[1] for argv, *_ in TABLE_RUNS] == [*cli.EVALS, *cli.CHECKS]


@pytest.mark.parametrize("argv, code, dk, level", TABLE_RUNS,
                         ids=[" ".join(argv[:2]) for argv, *_ in TABLE_RUNS])
def test_every_table_entry_runs_through_main(argv, code, dk, level, capsys):
    got, out, err = run_cli(argv, capsys)
    assert (got, err) == (code, "")
    doc = json.loads(out)
    assert (doc["dk"], doc["level"]) == (dk, level)
    if argv[0] == "check":
        assert doc["pass"] is (code == 0)
    else:
        assert doc["fn"] == argv[1] and len(doc["value"]) == 2


@pytest.mark.parametrize("argv", [
    ["check", "surface", "--tau", "0.41,0.06", "--level", "16"],
    ["eval", "wp", "--tau", "0.41,0.06", "--r", "1/16,0"],
])
def test_one_point_per_tau(argv, capsys, monkeypatch):
    body = ModularPoint.from_complex.__func__
    seen = []

    def counted(cls, tau, ctx):
        seen.append(tau)
        return body(cls, tau, ctx)

    monkeypatch.setattr(ModularPoint, "from_complex", classmethod(counted))
    code, _, _ = run_cli(argv, capsys)
    assert code == 0
    assert len(seen) == 1


def test_pair_orbit_sums_one_triple_product_per_index(capsys, monkeypatch):
    """x and y (through the Siegel values) at an index read one
    triple-product sum per mirror class of reduced indices (the misses of
    the level-N table's (Ev, Od) memo, not the point's Euler sum): the
    orbit's indices name 48 reduced keys, 40 pairs +-r of a form and 26
    mirror classes (``reciprocity.Mirror``), each summed once at a
    canonical key."""
    body = qseries._LevelTable.triple
    runs = []

    def counted(tab, pt, s, t):
        if (s, t) not in tab.triples:
            runs.append((pt, tab.n, s, t))
        return body(tab, pt, s, t)

    monkeypatch.setattr(qseries._LevelTable, "triple", counted)
    code, _, _ = run_cli(["conjugates", "--dk", "-39", "--level", "8",
                          "--descriptor", "pair"], capsys)
    assert code == 0
    assert len(runs) == 26
    assert all((s, t) <= (-s % n, -t % n) for _, n, s, t in runs)


def test_check_surface_reports_the_level_before_the_im_floor(capsys):
    """Both 4 | N and the Im floor fail; the check tests N first."""
    code, out, err = run_cli(
        ["check", "surface", "--tau", "0.1,0.01", "--level", "3"], capsys)
    assert (code, out) == (2, "")
    assert json.loads(err) == {
        "error": "ValueError",
        "message": "surface membership needs N >= 4 with 4 | N, got N = 3"}


@pytest.mark.parametrize("level", ["0", "-4"])
def test_check_surface_rejects_levels_below_four(level, capsys):
    """A level that 4 divides but that is below 4 is rejected by the check,
    which names it, not by FractionPair."""
    code, out, err = run_cli(
        ["check", "surface", "--tau", "0.1,1.2", "--level", level], capsys)
    assert (code, out) == (2, "")
    assert json.loads(err) == {
        "error": "ValueError",
        "message": f"surface membership needs N >= 4 with 4 | N, got N = {level}"}


# ------------------------------------------------------------ error paths ---

def test_validation_exit_two(capsys):
    code, _, err = run_cli(["field", "--dk", "-12"], capsys)
    assert code == 2
    assert "NotFundamental" in err


def test_numerical_exit_three(capsys):
    code, _, err = run_cli(["eval", "eta", "--tau", "0,0.01"], capsys)
    assert code == 3
    assert "ImTooSmall" in err


def test_im_floor_is_inclusive(capsys):
    code, out, _ = run_cli(["eval", "eta", "--tau", "0,0.05"], capsys)
    assert code == 0
    assert json.loads(out)["fn"] == "eta"
    code, _, err = run_cli(["eval", "eta", "--tau", "0,0.0499"], capsys)
    assert code == 3
    assert json.loads(err)["error"] == "ImTooSmall"


@pytest.mark.parametrize("argv", [
    ["eval", "j", "--tau", "0,1e400"],
    ["eval", "j", "--tau", "0,1e300"],
    ["eval", "siegel", "--tau", "0,1e400", "--r", "1/3,0"],
    ["eval", "y", "--tau", "0,1e300", "--r", "1/3,0"],
    ["check", "surface", "--tau", "0,1e400", "--level", "4"],
])
def test_im_above_the_ceiling_exits_three(argv, capsys):
    """A huge Im tau is a NumericalError (exit 3), not an overflow in a
    width computed from it."""
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (3, "")
    assert json.loads(err)["error"] == "NumericalError"
    assert "above ceiling 1000000" in json.loads(err)["message"]


def test_im_ceiling_is_inclusive(capsys):
    code, out, _ = run_cli(["eval", "eta", "--tau", "0,1e6"], capsys)
    assert code == 0
    assert json.loads(out)["fn"] == "eta"
    code, out, err = run_cli(["eval", "eta", "--tau", "0,1000000.001"], capsys)
    assert (code, out, json.loads(err)["error"]) == (3, "", "NumericalError")


def test_threads_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["field", "--dk", "-7", "--threads", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err


def test_threads_environment_variable_is_ignored(capsys, monkeypatch):
    monkeypatch.setenv("RAYCLASS_THREADS", "0")
    code, out, _ = run_cli(
        ["conjugates", "--dk", "-7", "--level", "3", "--descriptor", "y4"], capsys)
    assert code == 0
    assert json.loads(out)["count"] == 4


def test_check_missing_args_exit_two(capsys):
    code, _, err = run_cli(["check", "curve"], capsys)
    assert code == 2
    assert "--dk" in err and "--level" in err
    code, _, err = run_cli(["check", "surface", "--level", "4"], capsys)
    assert code == 2
    assert "--tau" in err


def test_check_surface_passes(capsys):
    code, out, _ = run_cli(
        ["check", "surface", "--tau", "0.1,1.2", "--level", "4"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert doc["level"] == 4


def test_tbound_empty_majorant_range_exits_two(capsys):
    code, out, err = run_cli(
        ["check", "tbound", "--dk", "-39", "--level", "8", "--nmax", "7"], capsys)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "ValueError",
                               "message": "majorant range [8, 7] needs 8 <= lo <= hi"}


def test_bad_eps_exit_two(capsys):
    code, _, err = run_cli(["--bits", "64", "--eps", "1e-40",
                            "field", "--dk", "-7"], capsys)
    assert code == 2


def test_degenerate_index_exit_three(capsys):
    code, _, err = run_cli(
        ["eval", "siegel", "--tau", "0,1", "--r", "1/1,2/1"], capsys)
    assert code == 3
    assert "DegenerateIndex" in err


@pytest.mark.parametrize("argv", [
    ["check", "surface", "--tau", "0.1,50", "--level", "4"],
    ["check", "surface", "--tau", "0.1,1e6", "--level", "4"],
    ["conjugates", "--dk", "-9067", "--level", "3", "--descriptor", "y4"],
    ["--bits", "64", "--eps", "0.5", "eval", "y", "--tau", "0.1,1.5", "--r", "0,1/7"],
    ["--bits", "64", "--eps", "1e-5", "eval", "wp", "--tau", "0.3,1.1", "--r", "0,1/400"],
], ids=["surface-50", "surface-1e6", "y4-9067", "y-eps-0.5", "wp-eps-1e-5"])
def test_index_values_take_no_eps_guard(argv, capsys):
    """y and wp at an index keep their relative bits however small |g_r^4|
    is against eps, or however near sqrt(eps) the index lies to the
    lattice, so these exit 0."""
    code, out, err = run_cli(argv, capsys)
    assert (code, err) == (0, "")
    assert json.loads(out).get("pass", True) is True


def test_an_index_too_near_the_lattice_exits_three(capsys):
    """At level 2^36, (0, 1/N) lies 2^-36 from the lattice: Ev - Od keeps
    fewer than bits + 8 significant bits, and wp raises OnLattice."""
    code, out, err = run_cli(
        ["eval", "wp", "--tau", "0.3,1.1", "--r", "0,1/68719476736"], capsys)
    assert (code, out) == (3, "")
    assert json.loads(err)["error"] == "OnLattice"


def test_a_value_that_is_not_finite_exits_three(capsys, monkeypatch):
    """A nan in an orbit fails the distinctness test with NonFinite."""
    monkeypatch.setattr(verify, "conjugate_values",
                        lambda *args: [(None, mp.mpc(1)), (None, mp.mpc(mp.nan))])
    code, out, err = run_cli(
        ["check", "generation", "--dk", "-7", "--level", "3", "--descriptor", "y4"],
        capsys)
    assert (code, out) == (3, "")
    assert json.loads(err) == {"error": "NonFinite",
                               "message": "value 1 of 2 is not finite"}


@pytest.mark.parametrize("argv, value", [
    (["eval", "j", "--tau", "0,20"], "3758842716698661712241372734394341106254386957876998785.4"),
    (["eval", "u", "--tau", "0,20"], "2175256201793207009398942554626354806860177637660300.2"),
    (["eval", "x", "--tau", "0,20", "--r", "1/3,0"],
     "-120847566766289279232625064022954029103005809238622.6"),
], ids=["j", "u", "x"])
def test_curve_constants_take_no_guard_on_delta(argv, value, capsys):
    """At tau = 20i, |delta| = 1.0e-45 lies below eps = 1e-40 at 256 bits;
    j, u and x divide by it without a guard and print their values (j near
    exp(40 pi) + 744)."""
    code, out, err = run_cli(argv, capsys)
    assert (code, err) == (0, "")
    re, im = json.loads(out)["value"]
    assert re.startswith(value) and im == "0.0"


def test_hcp_takes_no_near_zero_where_delta_is_below_eps(capsys):
    """At the CM points of -1559, |delta| falls to about 5.1e-45 < eps at
    256 bits; j takes no guard on it, so no numerical error (exit 3).  What
    hcp then recognizes is not pinned here."""
    code, _, err = run_cli(["hcp", "--dk", "-1559"], capsys)
    assert code != 3 and err == ""


def test_hcp_of_minus_1559_at_the_default_bits_exits_zero(capsys):
    """hcp runs no distinctness test, so close j values of -1559 at 256 bits
    raise no DuplicateValues: all 51 coefficients print, the uncertified
    ones as null."""
    code, out, err = run_cli(["hcp", "--dk", "-1559"], capsys)
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["degree"] == 51 and doc["working_bits"] == 256
    assert None in doc["recognized"]


@pytest.mark.parametrize("argv", [
    ["eval", "siegel", "--tau", "0,1", "--r", "1/0,1/2"],
    ["check", "lemma51", "--dk", "-39", "--a", "1/0", "--x", "1"],
    ["eval", "eta", "--tau", "0,inf"],
    ["eval", "eta", "--tau", "nan,1"],
    ["eval", "eta", "--tau", "0,nan"],
    ["eval", "siegel", "--tau", "0,1", "--r", "a,b"],
    ["eval", "eta", "--tau", "abc,1"],
    ["check", "lemma51", "--dk", "-39", "--a", "one", "--x", "1"],
    ["minpoly", "--dk", "-7", "--level", "3", "--descriptor", "x", "--recog-tol", "abc"],
])
def test_malformed_numbers_exit_two(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "InputError"


@pytest.mark.parametrize("argv, flag, code", [
    (["eval", "eta", "--tau", "-0.3,0.9"], "--tau", 0),
    (["eval", "siegel", "--tau", "0.1,1.2", "--r", "-1/3,1/5"], "--r", 0),
    (["check", "lemma51", "--dk", "-39", "--a", "1", "--x", "-1/2"], "--x", 2),
], ids=["tau", "r", "x"])
def test_negative_values_take_either_spelling(argv, flag, code, capsys):
    """A value starting with '-' after --tau, --r, --a or --x is that flag's
    value, as in the '--flag=value' spelling: the same exit code, stdout and
    stderr, and never a usage message (lemma51 rejects X < 1/2 itself)."""
    i = argv.index(flag)
    joined = argv[:i] + [f"{flag}={argv[i + 1]}"] + argv[i + 2:]
    result = run_cli(argv, capsys)
    assert result == run_cli(joined, capsys)
    assert result[0] == code and "usage:" not in result[2]


@pytest.mark.parametrize("dk,error", [("-12", "NotFundamental"), ("-4", "ValueError"),
                                      ("5", "NotImaginary")])
def test_lemma51_validates_the_discriminant(dk, error, capsys):
    """lemma51 rejects a non-fundamental d like every other --dk command."""
    code, out, err = run_cli(["check", "lemma51", "--dk", dk, "--a", "1", "--x", "1"], capsys)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == error


MINPOLY_X = ["minpoly", "--dk", "-7", "--level", "3", "--descriptor", "x"]


@pytest.mark.parametrize("argv, flag", [
    (MINPOLY_X + ["--den-max", "0"], "--den-max"),
    (MINPOLY_X + ["--den-max", "-5"], "--den-max"),
    (MINPOLY_X + ["--recog-tol", "0"], "--recog-tol"),
    (MINPOLY_X + ["--recog-tol", "-1"], "--recog-tol"),
    (MINPOLY_X + ["--recog-tol", "nan"], "--recog-tol"),
    (MINPOLY_X + ["--recog-tol", "inf"], "--recog-tol"),
    (MINPOLY_X + ["--recog-tol", "0.9"], "--recog-tol"),
    (MINPOLY_X + ["--den-max", "1", "--recog-tol", "0.6"], "--recog-tol"),
    (MINPOLY_X + ["--recog-tol", "1e-3"], "--recog-tol"),
])
def test_recognition_settings_that_cannot_work_exit_two(argv, flag, capsys):
    """The error message starts with the flag at fault."""
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "InputError"
    assert json.loads(err)["message"].startswith(flag)


@pytest.mark.parametrize("argv", [
    ["hcp", "--dk", "-23", "--recog-tol", "1e-10"],
    ["hcp", "--dk", "-23", "--den-max", "1"],
    ["eval", "j", "--tau", "0,1", "--den-max", "5"],
    ["conjugates", "--dk", "-7", "--level", "3", "--recog-tol", "1e-12"],
    ["field", "--dk", "-7", "--den-max", "24"],
    ["forms", "--dk", "-7", "--recog-tol", "1e-10"],
    ["degree", "--dk", "-7", "--level", "3", "--den-max", "48"],
    ["check", "lemma52", "--dk", "-95", "--level", "12", "--recog-tol", "1e-10"],
    ["--den-max=24"] + MINPOLY_X,
    ["--recog-tol=1e-12"] + MINPOLY_X,
])
def test_recognition_flags_belong_to_minpoly_alone(argv, capsys):
    """--den-max and --recog-tol are minpoly options, taken after the
    subcommand; every other command, hcp included, and the main parser
    reject them as they reject any flag they do not take."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    flag = next(a for a in argv if a.startswith(("--den-max", "--recog-tol")))
    assert "unrecognized arguments: " + flag in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ["--den-max", "0"],
    ["--recog-tol", "nan"],
    ["--den-max", "1", "--recog-tol", "0.6"],
])
def test_minpoly_rejects_recognition_settings_before_summing_the_orbit(
        flags, capsys, monkeypatch):
    """A setting that cannot work exits 2 before any conjugate is computed."""
    calls = []
    monkeypatch.setattr(cli, "conjugate_values", lambda *a: calls.append(a))
    code, out, err = run_cli(MINPOLY_X + flags, capsys)
    assert (code, out, calls) == (2, "", [])
    assert json.loads(err)["error"] == "InputError"


def test_minpoly_takes_its_recognition_flags_after_the_subcommand(capsys):
    """minpoly's --den-max and --recog-tol reach the library's minpoly."""
    code, out, _ = run_cli(MINPOLY_X + ["--den-max", "24", "--recog-tol", "1e-12"], capsys)
    ctx = PrecisionContext(256, "1e-40")
    f = make_field(-7)
    conj = conjugate_values(f, 3, "x", ctx)
    poly = minpoly([v for _, v in conj], f, ctx, den_max=24, recog_tol="1e-12")
    doc = json.loads(out)
    with ctx.work():
        expected = cli._jsonable(cli._poly_body(poly), ctx.dps)
    assert code == 0 and {k: doc[k] for k in expected} == expected


def test_minpoly_rejects_pair_descriptor(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["minpoly", "--dk", "-7", "--level", "3", "--descriptor", "pair"])
    assert exc.value.code == 2
    assert "invalid choice: 'pair'" in capsys.readouterr().err


# ------------------------------------------------------------ determinism ---

@pytest.mark.parametrize("argv", [
    ["field", "--dk", "-39"],
    ["degree", "--dk", "-40", "--level", "12"],
    ["eval", "siegel", "--tau", "0.25,1.5", "--r", "1/8,3/8"],
    ["conjugates", "--dk", "-7", "--level", "3", "--descriptor", "y12N"],
    ["check", "curve", "--dk", "-39", "--level", "8"],
])
def test_byte_identical_runs(argv):
    code1, out1, _ = run_subprocess(argv)
    code2, out2, _ = run_subprocess(argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.encode() == out2.encode()


# ------------------------------------------------------- the JSON writer ---

README_COMMANDS = [
    shlex.split(line)[1:]
    for block in re.findall(r"^```sh\n(.*?)^```$",
                            (Path(__file__).resolve().parents[1] / "README.md").read_text(),
                            re.S | re.M)
    for line in block.splitlines() if line.startswith("rayclass ")
]


def _json_reference(payload, dps, prec):
    """What the payload printed before the one-pass writer: every number
    made a string by ``_jsonable`` at prec bits, then the json module's
    ``dumps(sort_keys=True, indent=2)``."""
    with mp.workprec(prec):
        return json.dumps(cli._jsonable(payload, dps), sort_keys=True, indent=2)


def _random_real(rng, prec, dps):
    """An mpf at twice prec bits, so that printing rounds it: random
    mantissa, sign and binary exponent in [-3000, 3000], or an edge case:
    0, +-1, +-2^+-3000, or +-10^k (1 - 10^-(dps + 1)), which often prints
    as a power of ten, its nines rounded up."""
    with mp.workprec(2 * prec):
        pick = rng.randrange(8)
        sign = rng.choice([1, -1])
        if pick == 0:
            return mp.mpf(0)
        if pick == 1:
            return sign * mp.mpf(2) ** rng.choice([3000, -3000, 0])
        if pick == 2:
            return sign * mp.mpf(10) ** rng.randrange(-300, 300) * (1 - mp.mpf(10) ** -(dps + 1))
        man = rng.getrandbits(2 * prec) | 1
        return sign * mp.ldexp(man, rng.randrange(-3000, 3000) - 2 * prec)


@pytest.mark.parametrize("prec", [64, 256, 1536])
def test_writer_prints_what_json_dumps_printed_on_random_values(prec):
    rng = random.Random(prec)
    ctx = PrecisionContext(prec, mp.ldexp(1, 16 - prec))
    tens = 0  # values printed as a power of ten from below
    for _ in range(40):
        reals = [_random_real(rng, prec, ctx.dps) for _ in range(12)]
        with mp.workprec(2 * prec):
            pairs = [mp.mpc(a, b) for a, b in zip(reals[::2], reals[1::2])]
        body = {
            "values": reals, "pairs": pairs, "tuples": [tuple(pairs[:2]), (reals[0],)],
            "nested": {"z": {}, "a": [], "m": [[], {"k": None}], "label": "\u00e9\"\n"},
            "flags": [True, False, None, 0, -17, 2 ** 70, F(-3, 7), 0.5, "inf"],
        }
        payload = cli._payload({"dk": -7, "level": 3}, ctx, body)
        text = cli._json_text(payload, ctx.dps, ctx.bits)
        assert text == _json_reference(payload, ctx.dps, ctx.bits)
        printed = json.loads(text)["values"]
        tens += sum(p.lstrip("-").split("e")[0].replace(".", "").strip("0") == "1"
                    and abs(v) != 1 for p, v in zip(printed, reals))
    assert tens > 0


def test_writer_prints_what_json_dumps_printed_on_the_readme_commands(capsys, monkeypatch):
    """Every README command writes, byte for byte, what ``_jsonable`` and
    ``json.dumps`` wrote, and its stdout re-dumps to itself."""
    writer, seen = cli._json_text, []

    def spied(payload, dps, prec):
        out = writer(payload, dps, prec)
        seen.append(out == _json_reference(payload, dps, prec))
        return out

    monkeypatch.setattr(cli, "_json_text", spied)
    assert len(README_COMMANDS) > 20
    for argv in README_COMMANDS:
        code, out, _ = run_cli(argv, capsys)
        assert code == 0 and seen.pop() is True, argv
        assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


# Commands that run the distinctness test, with the number of pairs whose
# mpmath distance the closest-pair sweep takes in each of their calls: the
# pairs within rounding of the minimum on the integer grid (the level-4
# elliptic values lie symmetrically, so eight pairs tie there).
SWEEP_RUNS = [
    (["check", "generation", "--dk", "-40", "--level", "12", "--descriptor", "pair"], [1]),
    (["check", "elliptic4"], [8]),
    (["minpoly", "--dk", "-7", "--level", "3", "--descriptor", "x"], [2]),
    (["hcp", "--dk", "-23"], []),  # hcp runs no distinctness test
]


def test_closest_pair_sweep_prints_what_the_double_loop_prints(capsys, monkeypatch):
    """stdout is byte-identical with the double loop in place of the sweep,
    and the sweep takes few mpmath distances per distinctness call."""
    sweep, pair_distance = verify._closest_pair, verify._pair_distance
    runs = []

    def counted_sweep(values, g, rows, tol):
        runs.append(0)
        return sweep(values, g, rows, tol)

    def counted_distance(a, b):
        runs[-1] += 1
        return pair_distance(a, b)

    for argv, distances in SWEEP_RUNS:
        runs.clear()
        monkeypatch.setattr(verify, "_closest_pair", counted_sweep)
        monkeypatch.setattr(verify, "_pair_distance", counted_distance)
        code, out, _ = run_cli(argv, capsys)
        assert (code, runs) == (0, distances)
        monkeypatch.setattr(verify, "_closest_pair",
                            lambda values, g, rows, tol: min_pairwise_distance_loop(values, tol))
        assert run_cli(argv, capsys) == (0, out, "")
