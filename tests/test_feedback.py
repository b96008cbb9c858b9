import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import wavedecay as wd
from wavedecay.feedback import LawError, _eval_H_second


# ---------------------------------------------------------------------------
# construction and validation


def test_make_feedback_families():
    assert wd.make_feedback("power", p=3.0, r0=1.0).family == "power"
    assert wd.make_feedback("linear").r0 == 1.0
    assert wd.make_feedback("exp_inv_square").r0 == 0.5
    # for these two families the 0.5 default would leave the convex range,
    # so construction shrinks it
    assert 0.0 < wd.make_feedback("power_log", p=3.0, q=2.0).r0 < 0.5
    assert 0.0 < wd.make_feedback("sub_exponential", p=3.0).r0 < 0.5


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(family="power", p=0.5),
        dict(family="power"),
        dict(family="power_log", p=2.0, q=2.0),
        dict(family="power_log", p=3.0, q=1.0),
        dict(family="power_log", p=3.0),
        dict(family="sub_exponential", p=2.0),
        dict(family="power", p=2.0, r0=1.5),
        dict(family="power", p=2.0, r0=0.0),
        dict(family="nope"),
        dict(family="linear", p=2.0),
        dict(family="power_log", p=3.0, q=2.0, r0=0.9),  # g not increasing there
        dict(family="power", p=2.0, eps_clip=0.0),
    ],
)
def test_make_feedback_rejections(kwargs):
    with pytest.raises(LawError):
        wd.make_feedback(**kwargs)


# ---------------------------------------------------------------------------
# H and H'


def test_H_power_closed_form(power3):
    assert wd.eval_H(power3, 0.5) == pytest.approx(0.25, abs=1e-14)
    assert wd.eval_H(power3, 0.0) == 0.0


def test_H_exp_inv_square_value():
    law = wd.make_feedback("exp_inv_square", r0=1.0)
    assert wd.eval_H(law, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_H_domain_errors(power3):
    with pytest.raises(LawError):
        wd.eval_H(power3, -0.1)
    with pytest.raises(LawError):
        wd.eval_H(power3, 1.1)


def test_H_prime_values(power3):
    assert wd.eval_H_prime(power3, 0.5) == pytest.approx(1.0, abs=1e-14)
    assert wd.eval_H_prime(power3, 0.0) == 0.0
    law = wd.make_feedback("exp_inv_square", r0=1.0)
    assert wd.eval_H_prime(law, 1.0) == pytest.approx(1.5 * math.exp(-1.0), rel=1e-12)
    assert wd.eval_H_prime(wd.make_feedback("linear"), 0.0) == 1.0


@pytest.mark.parametrize(
    "law_kwargs",
    [
        dict(family="power", p=3.0, r0=1.0),
        dict(family="power", p=1.7),
        dict(family="exp_inv_square"),
        dict(family="power_log", p=3.0, q=2.0),
        dict(family="sub_exponential", p=3.0),
        dict(family="linear"),
    ],
)
def test_H_prime_matches_finite_difference(law_kwargs):
    law = wd.make_feedback(**law_kwargs)
    r2 = law.r0**2
    for x in np.linspace(r2 / 10.0, r2 * 0.999, 100):
        h = x * 1e-5
        fd = (wd.eval_H(law, x + h) - wd.eval_H(law, x - h)) / (2.0 * h)
        assert wd.eval_H_prime(law, x) == pytest.approx(fd, rel=1e-6)


@pytest.mark.parametrize(
    "law_kwargs",
    [
        dict(family="power", p=3.0, r0=1.0),
        dict(family="power", p=1.7),
        dict(family="exp_inv_square"),
        dict(family="power_log", p=3.0, q=2.0),
        dict(family="sub_exponential", p=3.0),
        dict(family="linear"),
    ],
)
def test_H_second_matches_finite_difference(law_kwargs):
    law = wd.make_feedback(**law_kwargs)
    r2 = law.r0**2
    hp = lambda v: wd.eval_H_prime(law, v)
    for x in r2 * np.logspace(-3.0, 0.0, 121)[1:]:
        h = x * 1e-6
        if x + h <= r2:
            fd = (hp(x + h) - hp(x - h)) / (2.0 * h)
        else:  # the domain's right end: the one-sided second-order difference
            fd = (3.0 * hp(x) - 4.0 * hp(x - h) + hp(x - 2.0 * h)) / (2.0 * h)
        assert _eval_H_second(law, x) == pytest.approx(fd, rel=1e-6, abs=0.0), x


def test_nonlinear_families_vanish_at_zero():
    for kwargs in (
        dict(family="power", p=2.0),
        dict(family="exp_inv_square"),
        dict(family="power_log", p=3.0, q=2.0),
        dict(family="sub_exponential", p=3.0),
    ):
        law = wd.make_feedback(**kwargs)
        assert wd.eval_g(law, 0.0) == 0.0
        assert wd.eval_H(law, 0.0) == 0.0
        assert wd.eval_H_prime(law, 0.0) == 0.0


def test_sub_exponential_at_one():
    """exp(-ln(1/x)^p) is complex for x > 1; g is 1 from x = 1 on, so H
    stays finite on the slack its domain check allows beyond r0^2 = 1."""
    law = wd.make_feedback("sub_exponential", p=2.5, r0=1.0)
    h = wd.eval_H(law, 1.0 + 1e-12)
    assert math.isfinite(h) and h == pytest.approx(1.0, rel=1e-11)
    g = wd.eval_g(law, 1.0)
    assert math.isfinite(g) and g == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Lambda and its limit


def test_lambda_values(power3, linear_law):
    assert wd.lambda_H(power3, 0.7) == pytest.approx(0.5, abs=1e-14)
    assert wd.lambda_H(linear_law, 0.3) == 1.0
    law = wd.make_feedback("exp_inv_square", r0=1.0)
    assert wd.lambda_H(law, 0.1) == pytest.approx(1.0 / 10.5, rel=1e-12)


def test_lambda_zero_rejected(power3):
    with pytest.raises(LawError):
        wd.lambda_H(power3, 0.0)


@given(
    x_frac=st.floats(min_value=1e-6, max_value=1.0),
    p=st.floats(min_value=1.0, max_value=12.0),
)
def test_lambda_in_unit_interval(x_frac, p):
    law = wd.make_feedback("power", p=p, r0=1.0)
    lam = wd.lambda_H(law, x_frac * law.r0**2)
    assert 0.0 <= lam <= 1.0


def test_lambda_in_unit_interval_other_families(exp_inv):
    for law in (
        exp_inv,
        wd.make_feedback("power_log", p=3.0, q=2.0),
        wd.make_feedback("sub_exponential", p=3.0),
    ):
        for x in np.geomspace(1e-8, law.r0**2, 60):
            assert 0.0 <= wd.lambda_H(law, x) <= 1.0


def test_lambda_limit_power(power3):
    assert wd.lambda_limit(power3) == pytest.approx(0.5, abs=1e-8)


def test_lambda_limit_exp_inv_square(exp_inv):
    assert wd.lambda_limit(exp_inv) < 1e-6


def test_lambda_limit_linear(linear_law):
    assert wd.lambda_limit(linear_law) == 1.0


def test_lambda_limit_power_log():
    # the geometric schedule floored at eps_clip stops at x ~ 1e-16 where
    # Lambda still carries its O(1/log(1/x)) correction; the limit 2/(p+1)
    # is approached only to that truncation accuracy
    law = wd.make_feedback("power_log", p=3.0, q=2.0)
    est = wd.lambda_limit(law)
    assert est > 0.5
    assert est == pytest.approx(0.5, abs=0.02)


# ---------------------------------------------------------------------------
# convexity report


def test_convexity_power_family():
    for p in (1.5, 2.0, 3.0, 7.0):
        law = wd.make_feedback("power", p=p, r0=1.0)
        assert wd.convexity_check(law).strictly_convex


def test_convexity_linear_fails(linear_law):
    rep = wd.convexity_check(linear_law)
    assert not rep.strictly_convex
    assert rep.h0_ok
    assert not rep.hprime0_ok  # H'(0) = 1 for the linear law


def test_convexity_exp_inv_square():
    law = wd.make_feedback("exp_inv_square", r0=0.5)
    rep = wd.convexity_check(law, samples=10_000)
    assert rep.strictly_convex
    assert rep.h0_ok and rep.hprime0_ok
    assert rep.min_second_difference > 0.0
    assert rep.sample_count > 0


def test_convexity_sample_floor(power3):
    with pytest.raises(LawError):
        wd.convexity_check(power3, samples=50)


def test_convexity_default_r0_families():
    # the documented defaults put every nonlinear family in its convex range
    for kwargs in (
        dict(family="exp_inv_square"),
        dict(family="power_log", p=3.0, q=2.0),
        dict(family="sub_exponential", p=3.0),
    ):
        assert wd.convexity_check(wd.make_feedback(**kwargs)).strictly_convex


# Default r0 values shrunk into the convex range, to the bit: sub_exponential's
# edge is found by bisection, power_log's in closed form.  Every config digest,
# trace and report of such a law depends on them.
DEFAULT_R0_HEX = [
    (dict(family="sub_exponential", p=2.1), "0x1.809159936425fp-2"),
    (dict(family="sub_exponential", p=2.5), "0x1.76a84a4a1007cp-2"),
    (dict(family="sub_exponential", p=3.0), "0x1.6e13cbbf9fa76p-2"),
    (dict(family="sub_exponential", p=4.0), "0x1.63f2d9e3104f0p-2"),
    (dict(family="sub_exponential", p=6.0), "0x1.5b4ccdf2c22f6p-2"),
    (dict(family="power_log", p=3.0, q=2.0), "0x1.f1d24a776e3e1p-3"),
]


@pytest.mark.parametrize("kwargs, expected", DEFAULT_R0_HEX)
def test_default_r0_bits(kwargs, expected):
    assert wd.make_feedback(**kwargs).r0.hex() == expected


# ---------------------------------------------------------------------------
# damping function rho


def test_rho_examples(power3):
    assert wd.rho_eval(power3, 2.0, 0.5) == pytest.approx(0.25, abs=1e-15)
    assert wd.rho_eval(power3, 2.0, 2.0) == pytest.approx(4.0, abs=1e-15)
    assert wd.rho_eval(power3, 2.0, -0.5) == pytest.approx(-0.25, abs=1e-15)


def test_rho_rejects_negative_coefficient(power3):
    with pytest.raises(LawError):
        wd.rho_eval(power3, -1.0, 0.5)


@given(
    s=st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
    a=st.floats(min_value=0.0, max_value=10.0),
)
def test_rho_sign_and_oddness(s, a):
    law = wd.make_feedback("power", p=3.0, r0=1.0)
    r = wd.rho_eval(law, a, s)
    assert r * s >= 0.0
    assert wd.rho_eval(law, a, -s) == pytest.approx(-r, abs=1e-300)


@pytest.mark.parametrize(
    "law_kwargs",
    [
        dict(family="power", p=3.0, r0=1.0),
        dict(family="linear"),
        dict(family="exp_inv_square"),
        dict(family="power_log", p=3.0, q=2.0),
        dict(family="sub_exponential", p=3.0),
    ],
)
def test_rho_nondecreasing(law_kwargs):
    law = wd.make_feedback(**law_kwargs)
    s = np.linspace(-3.0, 3.0, 2001)
    vals = np.array([wd.rho_eval(law, 1.0, float(x)) for x in s])
    assert np.all(np.diff(vals) >= -1e-300)


# ---------------------------------------------------------------------------
# coefficient fields


def test_indicator_field():
    f = wd.CoefficientField("indicator", (0.3, 0.7), 1.0)
    x = np.array([0.1, 0.3, 0.5, 0.7, 0.9])
    assert list(f.sample(x)) == [0.0, 0.0, 1.0, 0.0, 0.0]


def test_smooth_bump_field():
    f = wd.CoefficientField("smooth_bump", (0.2, 0.6), 2.0)
    x = np.linspace(0.0, 1.0, 2001)
    v = f.sample(x)
    assert v.max() == pytest.approx(2.0)
    # plateau covers the inner 80% of the support
    inner = (x >= 0.2 + 0.04 + 1e-9) & (x <= 0.6 - 0.04 - 1e-9)
    assert np.all(v[inner] == 2.0)
    assert np.all(v >= 0.0)
    # continuity: adjacent samples differ by O(dx)
    assert np.max(np.abs(np.diff(v))) < 2.0 * 3.0 * (x[1] - x[0]) / 0.04


def test_field_validation():
    with pytest.raises(LawError):
        wd.CoefficientField("indicator", (0.7, 0.3), 1.0)
    with pytest.raises(LawError):
        wd.CoefficientField("indicator", (0.3, 0.7), -1.0)
    with pytest.raises(LawError):
        wd.CoefficientField("triangle", (0.3, 0.7), 1.0)
