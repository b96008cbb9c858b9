import math
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

import wavedecay as wd
from wavedecay._kernels import _g
from wavedecay.feedback import FAMILY_CODES, LawError, _convex_r0_bound, elasticity
from wavedecay.transforms import _away_from_linear


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
        # an exponent the family does not take
        dict(family="power", p=3.0, q=7.0),
        dict(family="linear", q=2.0),
        dict(family="sub_exponential", p=2.5, q=9.0),
        # an explicit r0 at or beyond the convex bound
        dict(family="sub_exponential", p=2.5, r0=1.0),
        dict(family="exp_inv_square", r0=1.0),  # bound 0.910
        dict(family="power_log", p=2.5, q=1.5, r0=0.3),  # bound 0.267
        # g(r0) underflows to 0
        dict(family="sub_exponential", p=8.0, r0=0.05),
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


def test_H_exp_inv_square_value(exp_inv):
    assert wd.eval_H(exp_inv, 0.25) == pytest.approx(0.5 * math.exp(-4.0), rel=1e-12)


def test_H_domain_errors(power3):
    with pytest.raises(LawError):
        wd.eval_H(power3, -0.1)
    with pytest.raises(LawError):
        wd.eval_H(power3, 1.1)


def test_H_prime_values(power3, exp_inv):
    assert wd.eval_H_prime(power3, 0.5) == pytest.approx(1.0, abs=1e-14)
    assert wd.eval_H_prime(power3, 0.0) == 0.0
    assert wd.eval_H_prime(exp_inv, 0.25) == pytest.approx(9.0 * math.exp(-4.0), rel=1e-12)
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
    """x H''/H' = ((e - 1) + s e'/(1 + e))/2, the Newton slope of (H')^{-1}
    in log x, against central differences of log H' in log x (one-sided at
    the domain's right end), wherever H' is a normal double at every point
    of the difference (exp_inv_square's H' underflows below x ~ 1.4e-3)."""
    law = wd.make_feedback(**law_kwargs)
    r2 = law.r0**2
    log_hp = lambda w: math.log(wd.eval_H_prime(law, math.exp(w)))
    h = 1e-5
    checked = 0
    for x in r2 * np.logspace(-3.0, 0.0, 121)[1:]:
        w = math.log(x)
        if wd.eval_H_prime(law, x * math.exp(-2.0 * h)) < sys.float_info.min:
            continue
        checked += 1
        if x * math.exp(h) <= r2:
            fd = (log_hp(w + h) - log_hp(w - h)) / (2.0 * h)
        else:
            fd = (3.0 * log_hp(w) - 4.0 * log_hp(w - h) + log_hp(w - 2.0 * h)) / (2.0 * h)
        e, se = elasticity(law, x)
        assert 0.5 * ((e - 1.0) + se / (1.0 + e)) == pytest.approx(fd, rel=1e-6, abs=0.0), x
    assert checked >= 60


@pytest.mark.parametrize(
    "family, p, q",
    [("power_log", p, q) for p, q in ((2.5, 1.5), (3.0, 2.0), (4.0, 3.0), (6.0, 1.2), (3.0, 5.0))]
    + [("exp_inv_square", 0.0, 0.0)]
    + [("sub_exponential", p, 0.0) for p in (2.5, 3.0, 4.0, 8.0)],
)
def test_convexity_edge_matches_elasticity(family, p, q):
    """H'' > 0 exactly where (e^2 - 1) + s e' > 0: the elasticity changes
    sign just at `_convex_r0_bound`'s edge, the family's other statement of
    its growth."""
    bound = _convex_r0_bound(family, p, q)
    law = wd.make_feedback(family, p=p or None, q=q or None)
    for r0, convex in ((bound * (1.0 - 1e-8), True), (bound * (1.0 + 1e-8), False)):
        e, se = elasticity(law, r0 * r0)
        assert ((e * e - 1.0) + se > 0.0) == convex, r0


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


# ---------------------------------------------------------------------------
# Lambda and its limit


def test_lambda_values(power3, linear_law, exp_inv):
    assert wd.lambda_H(power3, 0.7) == pytest.approx(0.5, abs=1e-14)
    assert wd.lambda_H(linear_law, 0.3) == 1.0
    assert wd.lambda_H(exp_inv, 0.1) == pytest.approx(1.0 / 10.5, rel=1e-12)


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
    assert wd.lambda_limit(power3) == 0.5
    assert wd.lambda_limit(wd.make_feedback("power", p=1.5)) == 0.8


def test_lambda_limit_exp_inv_square(exp_inv):
    assert wd.lambda_limit(exp_inv) == 0.0


def test_lambda_limit_sub_exponential():
    for p in (2.5, 3.0, 8.0):
        assert wd.lambda_limit(wd.make_feedback("sub_exponential", p=p)) == 0.0


def test_lambda_limit_linear(linear_law):
    assert wd.lambda_limit(linear_law) == 1.0


def test_lambda_limit_power_log():
    # 2/(p+1) exactly, though Lambda at x = 1e-16 still carries its
    # O(1/log(1/x)) correction (about 0.51 there)
    assert wd.lambda_limit(wd.make_feedback("power_log", p=3.0, q=2.0)) == 0.5


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


LAW_GRID = (
    [("linear", None, None), ("exp_inv_square", None, None)]
    + [("power", p, None) for p in (1.0, 1.0 + 1e-6, 1.5, 3.0, 12.0)]
    + [("power_log", p, q) for p, q in ((2.5, 1.5), (3.0, 2.0), (4.0, 3.0), (6.0, 1.2), (3.0, 5.0))]
    + [("sub_exponential", p, None) for p in (2.1, 2.5, 3.0, 4.0, 8.0)]
)


@pytest.mark.parametrize("family, p, q", LAW_GRID)
def test_every_accepted_law_is_convex(family, p, q):
    """make_feedback accepts a law exactly when 0 < r0 <= 1, r0 lies below
    the family's convex bound and g(r0) does not underflow to 0; every law
    it accepts has H strictly convex by the sampled check (unless H is
    linear) and, away from linear growth, a positive beta_floor."""
    bound = _convex_r0_bound(family, p or 0.0, q or 0.0)
    edge = 1.0 if bound is None else bound
    for r0 in (None, edge * (1.0 - 1e-9), edge * (1.0 + 1e-9), 1.0, 0.3, 0.05):
        beyond = r0 is not None and (r0 > 1.0 or (bound is not None and r0 >= bound))
        try:
            law = wd.make_feedback(family, p=p, q=q, r0=r0)
        except LawError:
            assert beyond or _g(r0, FAMILY_CODES[family], p or 0.0, q or 0.0) == 0.0, r0
            continue
        assert not beyond, r0
        if wd.lambda_limit(law) < 1.0:  # H(x) = x for linear and power p = 1
            assert wd.convexity_check(law).strictly_convex, r0
        if _away_from_linear(law):
            assert wd.beta_floor(law, 1.0) > 0.0, r0


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
