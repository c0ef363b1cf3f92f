import math

import mpmath as mp
import pytest

from rayclass import ImTooSmall, NumericalError, PrecisionContext
from rayclass.numerics import truncation_terms


def test_truncation_closed_form_example():
    # ceil((30 ln10 + 16 ln2) / (2 pi sqrt(3)/2)) = 15
    assert truncation_terms(math.sqrt(3) / 2, "1e-30") == 15


def test_truncation_large_im_gives_one_term():
    assert truncation_terms(1e6, "1e-40") == 1
    assert truncation_terms(50, "0.5") == 1


def test_truncation_matches_direct_inequality():
    eps = mp.mpf("1e-40")
    for im in ("0.9", "1.31", "3.2", "6.4"):
        m = truncation_terms(im, eps)
        absq = mp.exp(-2 * mp.pi * mp.mpf(im))
        assert absq**m < eps * mp.mpf(2) ** -16
        assert not absq ** (m - 1) < eps * mp.mpf(2) ** -16 or m == 1


def test_truncation_rejects_small_im():
    with pytest.raises(ImTooSmall):
        truncation_terms(0.01, "1e-40")


def test_truncation_rejects_im_above_the_ceiling():
    with pytest.raises(NumericalError, match="above ceiling"):
        truncation_terms("1e400", "1e-40")


def test_truncation_accepts_the_floor_itself():
    """0.05 parsed at 80 bits is the floor 1/20 at 80 bits, not below it."""
    m = truncation_terms("0.05", "1e-40")
    assert m == truncation_terms(mp.mpf(1) / 20, "1e-40") > 1
    with pytest.raises(ImTooSmall):
        truncation_terms("0.0499", "1e-40")


def test_context_validation():
    with pytest.raises(ValueError):
        PrecisionContext(32, "1e-10")
    with pytest.raises(ValueError):
        PrecisionContext(64, "1e-40")  # no guard bits left
    with pytest.raises(ValueError):
        PrecisionContext(256, "-1e-3")
    ctx = PrecisionContext(256, "1e-40")
    assert ctx.eps > 0 and ctx.dps >= 77


def test_abs_exp_consistency(ctx256):
    import random

    rng = random.Random(7)
    with ctx256.work():
        for _ in range(20):
            z = ctx256.mpc(rng.uniform(-3, 3), rng.uniform(-3, 3))
            assert abs(abs(mp.exp(z)) - mp.exp(mp.re(z))) < ctx256.eps


def test_arithmetic_deterministic(ctx256):
    with ctx256.work():
        a = ctx256.mpc("1.25", "-0.75")
        b = ctx256.mpc("0.1", "2.3")
        first = (a * b / (a + b), mp.exp(a), abs(b))
    with ctx256.work():
        a = ctx256.mpc("1.25", "-0.75")
        b = ctx256.mpc("0.1", "2.3")
        second = (a * b / (a + b), mp.exp(a), abs(b))
    assert first == second
