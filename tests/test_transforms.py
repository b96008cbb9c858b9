import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import wavedecay as wd
from wavedecay.numutil import RootError, bisect_root, newton_root
from wavedecay.transforms import ClassificationError, TransformError


def conjugate_oracle(law, y, n=1_000_000):
    """Independent grid supremum of x*y - H(x) over [0, r0^2]."""
    if law.family == "power":
        x = np.linspace(0.0, law.r0**2, n)
        hv = x ** (0.5 * (law.p + 1.0))
    else:
        x = np.linspace(0.0, law.r0**2, 2001)
        hv = np.array([wd.eval_H(law, float(v)) for v in x])
    return float(np.max(x * y - hv))


# ---------------------------------------------------------------------------
# conjugate and L


def test_conjugate_values(power3):
    assert wd.conjugate(power3, 1.0) == pytest.approx(0.25, abs=1e-10)
    assert wd.conjugate(power3, 0.0) == 0.0
    assert wd.conjugate(power3, 4.0) == pytest.approx(3.0, abs=1e-10)


def test_conjugate_against_grid_oracle(power3):
    for y in (0.3, 1.0, 1.9, 2.0, 3.5):
        assert wd.conjugate(power3, y) == pytest.approx(
            conjugate_oracle(power3, y), abs=5e-12
        )


def test_conjugate_oracle_exp_inv():
    law = wd.make_feedback("exp_inv_square", r0=0.5)
    for y in (0.1, 0.5, 2.0):
        assert wd.conjugate(law, y) == pytest.approx(conjugate_oracle(law, y), abs=1e-6)


def test_conjugate_rejects_negative(power3):
    with pytest.raises(TransformError):
        wd.conjugate(power3, -0.5)


def test_L_values(power3):
    assert wd.eval_L(power3, 0.0) == 0.0
    assert wd.eval_L(power3, 1.0) == pytest.approx(0.25, abs=1e-12)
    edge = wd.eval_L(power3, 2.0)
    assert edge == pytest.approx(0.5, abs=1e-12)
    assert 0.0 < edge < power3.r0**2


def test_L_bracket_all_strictly_convex_families():
    for kwargs in (
        dict(family="power", p=2.0),
        dict(family="power", p=5.0),
        dict(family="exp_inv_square"),
        dict(family="power_log", p=3.0, q=2.0),
        dict(family="sub_exponential", p=3.0),
    ):
        law = wd.make_feedback(**kwargs)
        edge = wd.eval_L(law, wd.eval_H_prime(law, law.r0**2))
        assert 0.0 < edge < law.r0**2


def test_L_strictly_increasing(power3):
    ys = np.linspace(0.0, 8.0, 200)
    vals = [wd.eval_L(power3, float(y)) for y in ys]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert all(v < power3.r0**2 for v in vals)


def test_inverse_L_roundtrip(power3):
    for y in np.linspace(0.0, 8.0, 100):
        z = wd.eval_L(power3, float(y))
        assert wd.inverse_L(power3, z) == pytest.approx(float(y), abs=1e-9)


def test_inverse_L_near_range_edge(power3):
    y = wd.inverse_L(power3, 0.9999)
    assert y > 100.0
    assert wd.eval_L(power3, y) == pytest.approx(0.9999, abs=1e-10)


def test_inverse_L_domain(power3):
    assert wd.inverse_L(power3, 0.0) == 0.0
    with pytest.raises(TransformError):
        wd.inverse_L(power3, 1.0)


@settings(max_examples=60)
@given(
    x=st.floats(min_value=0.0, max_value=1.0),
    y=st.floats(min_value=0.0, max_value=10.0),
)
def test_fenchel_inequality(x, y):
    law = wd.make_feedback("power", p=3.0, r0=1.0)
    assert wd.conjugate(law, y) >= x * y - wd.eval_H(law, x) - 1e-12


# ---------------------------------------------------------------------------
# (H')^{-1}

# the laws whose (H')^{-1} is iterated
NEWTON_LAWS = {
    "exp_inv_square": dict(family="exp_inv_square"),
    "power_log": dict(family="power_log", p=3.0, q=2.0),
    "sub_exponential": dict(family="sub_exponential", p=2.5),
}


@pytest.mark.parametrize("name", sorted(NEWTON_LAWS))
def test_hprime_inv_against_bisection(name):
    """H'(hprime_inv(y)) = y for y in half decades from H'(r0^2) down to
    1e-300, where power_log's root is near 1e-300 itself, and the root
    agrees with a plain bisection in log x (x = e^-800 is 0, where H' = 0).
    The ratios are compared, as pytest.approx's default absolute tolerance
    of 1e-12 would pass any two values this small."""
    law = wd.make_feedback(**NEWTON_LAWS[name])
    r2 = law.r0**2
    c0 = wd.eval_H_prime(law, r2)
    ys = [c0 * 10.0 ** (-k / 2) for k in range(1, 700)]
    ys = [y for y in ys if y >= 1e-300]
    assert ys[-1] < 1e-299
    for y in ys:
        x = wd.hprime_inv(law, y)
        assert wd.eval_H_prime(law, x) / y == pytest.approx(1.0, rel=1e-10)
        gap = lambda w: wd.eval_H_prime(law, math.exp(w)) - y
        ref = math.exp(bisect_root(gap, -800.0, math.log(r2), xtol=1e-14))
        assert x / ref == pytest.approx(1.0, rel=1e-11)
    assert wd.hprime_inv(law, c0) == r2
    assert wd.hprime_inv(law, 0.0) == 0.0


def test_root_solve_out_of_iterations_raises():
    """A solve that has not met its tolerance after max_iter evaluations
    raises RootError instead of returning its last iterate."""
    calls = []

    def slow(x):
        calls.append(x)
        return x - 1.0 / 3.0, math.nan  # no slope: bisection steps only

    with pytest.raises(RootError):
        newton_root(slow, 0.0, 1.0, 0.5, rtol=0.0, max_iter=10)
    assert len(calls) == 10
    with pytest.raises(RootError):
        bisect_root(lambda x: 1.0 / 3.0 - x, 0.0, 1.0, xtol=0.0, max_iter=10)
    # given enough iterations both stop at the pair of adjacent doubles
    root = newton_root(slow, 0.0, 1.0, 0.5, rtol=0.0, max_iter=100)
    assert abs(root - 1.0 / 3.0) <= math.ulp(1.0 / 3.0)
    assert bisect_root(lambda x: 1.0 / 3.0 - x, 0.0, 1.0, xtol=0.0) == root


# ---------------------------------------------------------------------------
# psi0


def test_psi0_power3_closed_form(power3):
    # Lambda = 1/2 makes psi0 affine: 1/H'(1) + 2 (x - 1/H'(1)) = 2x - 1/2
    for x in np.linspace(0.5, 20.0, 50):
        assert wd.psi0_eval(power3, float(x)) == pytest.approx(2.0 * x - 0.5, abs=1e-8)


def test_psi0_power5_value(power5):
    assert wd.psi0_eval(power5, 2.0) == pytest.approx(1.0 / 3.0 + 1.5 * (2.0 - 1.0 / 3.0), abs=1e-8)


def test_psi0_domain_edge(power3):
    assert wd.psi0_eval(power3, 0.5) == 0.5
    with pytest.raises(TransformError):
        wd.psi0_eval(power3, 0.4)


def test_psi0_rejects_linear(linear_law):
    with pytest.raises(ClassificationError):
        wd.psi0_eval(linear_law, 5.0)


def test_psi0_increasing_and_inverse(power5):
    xs = np.geomspace(1.0 / 3.0, 50.0, 40)
    vals = [wd.psi0_eval(power5, float(x)) for x in xs]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    for x, v in zip(xs[::4], vals[::4]):
        assert wd.psi0_inverse(power5, v) == pytest.approx(float(x), abs=1e-8)


def test_psi0_inverse_values(power3):
    assert wd.psi0_inverse(power3, 1.5) == pytest.approx(1.0, abs=1e-9)
    assert wd.psi0_inverse(power3, 0.5) == 0.5
    assert wd.psi0_inverse(power3, 10.0) == pytest.approx(5.25, abs=1e-9)
    with pytest.raises(TransformError):
        wd.psi0_inverse(power3, 0.4)


@pytest.mark.parametrize("name", sorted(NEWTON_LAWS))
def test_psi0_inverse_roundtrip(name):
    params = NEWTON_LAWS[name]
    law = wd.make_feedback(**params)
    cold = wd.make_feedback(**params, eps_clip=2e-16)  # an equal law with its own psi0 cache
    x_min = 1.0 / wd.eval_H_prime(law, law.r0**2)
    for x in x_min * np.geomspace(1.0 + 1e-6, 1e6, 25):
        v = wd.psi0_eval(law, x)
        # x is now a cached node with the value v: the inversion ends next to it
        assert wd.psi0_inverse(law, v) == pytest.approx(x, rel=1e-12)
        assert wd.psi0_inverse(cold, v) == pytest.approx(x, rel=1e-9)


# ---------------------------------------------------------------------------
# envelopes


def test_envelope_general_values(power3):
    env = wd.DecayEnvelope(kind="general", law=power3, beta=1.0, M=1.0)
    assert wd.envelope_general(env, 10.0) == pytest.approx(2.0 / 21.0, abs=1e-9)
    assert wd.envelope_general(env, 0.5) == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(TransformError):
        wd.envelope_general(env, 0.4)


def test_envelope_general_asymptotic_slope(power3):
    env = wd.DecayEnvelope(kind="general", law=power3, beta=1.0, M=1.0)
    ts = np.geomspace(1e2, 1e5, 30)
    vals = np.array([wd.envelope_general(env, float(t)) for t in ts])
    slope = np.polyfit(np.log(ts), np.log(vals), 1)[0]
    assert slope == pytest.approx(-1.0, abs=1e-3)


def test_envelope_simplified_values(power3):
    env = wd.DecayEnvelope(kind="simplified", law=power3, beta=1.0, M=1.0)
    assert wd.envelope_simplified(env, 10.0) == pytest.approx(0.1, abs=1e-12)
    assert wd.envelope_simplified(env, 1e9) < 1e-8
    with pytest.raises(TransformError):
        wd.envelope_simplified(env, 0.1)


def test_envelope_simplified_rejects_linear(linear_law):
    env = wd.DecayEnvelope(kind="simplified", law=linear_law, beta=1.0, M=1.0)
    with pytest.raises(ClassificationError):
        wd.envelope_simplified(env, 10.0)


@pytest.mark.parametrize("p", [2.0, 3.0, 5.0])
def test_envelope_simplified_power_closed_form(p):
    law = wd.make_feedback("power", p=p, r0=1.0)
    beta, km = 1.3, 2.7
    env = wd.DecayEnvelope(kind="simplified", law=law, beta=beta, M=km)
    for t in np.geomspace(10.0, 1e4, 25):
        expected = 2.0 * beta * (2.0 * km / ((p + 1.0) * t)) ** (2.0 / (p - 1.0))
        assert wd.envelope_simplified(env, float(t)) == pytest.approx(expected, rel=1e-9)


def test_envelopes_nonincreasing(power3):
    for kind in ("general", "simplified"):
        env = wd.DecayEnvelope(kind=kind, law=power3, beta=1.0, M=1.0)
        ts = np.geomspace(env.domain_start(), 1e4, 60)
        vals = [wd.envelope_value(env, float(t)) for t in ts]
        assert all(b <= a * (1.0 + 1e-12) for a, b in zip(vals, vals[1:]))


def test_envelope_ratio_bounded(power3):
    # both upper envelopes decay like 1/t for a cubic law
    g = wd.DecayEnvelope(kind="general", law=power3, beta=1.0, M=1.0)
    s = wd.DecayEnvelope(kind="simplified", law=power3, beta=1.0, M=1.0)
    ratios = [
        wd.envelope_simplified(s, float(t)) / wd.envelope_general(g, float(t))
        for t in np.geomspace(10.0, 1e4, 20)
    ]
    assert 0.05 < min(ratios) and max(ratios) < 20.0


# ---------------------------------------------------------------------------
# optimal weight and the general-weight machinery


def test_optimal_weight(power3):
    assert wd.optimal_weight(power3, 0.5, 1.0) == pytest.approx(1.0, abs=1e-9)
    assert wd.optimal_weight(power3, 0.0, 1.0) == 0.0
    with pytest.raises(TransformError):
        wd.optimal_weight(power3, 3.0, 1.0)


def test_beta_floor_admits_initial_energy(power3):
    e0 = 4.9
    beta = wd.beta_floor(power3, e0)
    # with this beta the weight is defined at the initial energy itself
    assert wd.optimal_weight(power3, e0, beta) == pytest.approx(
        wd.eval_H_prime(power3, power3.r0**2), rel=1e-9
    )


@pytest.mark.parametrize("kwargs", [
    dict(family="power", p=3.0, r0=1.0),
    dict(family="exp_inv_square"),
    dict(family="power_log", p=3.0, q=1.5),
    dict(family="sub_exponential", p=2.5),
])
def test_beta_floor_admits_initial_energy_every_family(kwargs):
    # E(0) / (2 beta_floor) rounds to either side of L(H'(r0^2)); inverse_L
    # must bracket it on both
    law = wd.make_feedback(**kwargs)
    c0 = wd.eval_H_prime(law, law.r0**2)
    for e0 in np.geomspace(1e-3, 1e3, 301):
        e0 = float(e0)
        assert wd.optimal_weight(law, e0, wd.beta_floor(law, e0)) == pytest.approx(c0, rel=1e-9)


def test_beta_floor_rejects_linear():
    # L(H'(r0^2)) = 0 for linear-like laws: a ClassificationError, not a division by 0
    for law in (wd.make_feedback("linear"), wd.make_feedback("power", p=1.0, r0=1.0)):
        with pytest.raises(ClassificationError):
            wd.beta_floor(law, 1.0)


def test_weight_psi_r_values():
    w = lambda y: y
    assert wd.weight_psi_r(w, 1.0, 0.5, "K") == pytest.approx(1.0, rel=1e-9)
    assert wd.weight_psi_r(w, 1.0, 1.0, "psi") == pytest.approx(1.0)
    assert wd.weight_psi_r(w, 1.0, 5.0, "psi") == pytest.approx(9.0, rel=1e-9)
    with pytest.raises(TransformError):
        wd.weight_psi_r(w, 1.0, 0.0, "K")
    with pytest.raises(TransformError):
        wd.weight_psi_r(w, 1.0, 0.5, "psi")


@settings(max_examples=40, deadline=None)
@given(z=st.floats(min_value=1.0, max_value=200.0), k=st.floats(min_value=0.5, max_value=3.0))
def test_weight_psi_r_dominates_identity(z, k):
    w = lambda y: y**k
    assert wd.weight_psi_r(w, 1.0, z, "psi") >= z
