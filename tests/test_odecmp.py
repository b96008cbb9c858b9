import math

import numpy as np
import pytest

import wavedecay as wd
from wavedecay import odecmp
from wavedecay.feedback import LawError
from wavedecay.odecmp import ComparisonError
from wavedecay.transforms import TransformError, upper_kind


def test_comparison_matches_analytic(power3):
    # H(z) = z^2, kappa = 1: z(t) = 1/(1+t)
    sol = wd.solve_comparison(power3, 1.0, 1.0, horizon=100.0)
    ts = np.linspace(0.0, 100.0, 50)
    assert np.max(np.abs(sol.z_at(ts) - 1.0 / (1.0 + ts))) < 1e-8
    assert sol.z_at(0.0) == pytest.approx(1.0, abs=1e-12)


def test_comparison_positive_decreasing(power5):
    sol = wd.solve_comparison(power5, 2.0, 0.5, horizon=1e4)
    assert np.all(sol.z > 0.0)
    assert np.all(np.diff(sol.z) < 0.0)
    assert sol.z[-1] < 1e-2 * sol.z0


def test_comparison_validation(power3):
    with pytest.raises(ComparisonError):
        wd.solve_comparison(power3, 0.0, 0.5, horizon=1.0)
    with pytest.raises(ComparisonError):
        wd.solve_comparison(power3, 1.0, 1.5, horizon=1.0)
    with pytest.raises(ComparisonError):
        wd.solve_comparison(power3, 1.0, 0.5, horizon=-1.0)


def test_K_integral_values(power3, power5):
    assert wd.K_integral(power3, 0.5, 1.0) == pytest.approx(1.0, rel=1e-9)
    assert wd.K_integral(power3, 1.0, 1.0) == 0.0
    p, tau, z0 = 5.0, 0.2, 0.9
    expected = 2.0 / (p - 1.0) * (tau ** ((1.0 - p) / 2.0) - z0 ** ((1.0 - p) / 2.0))
    assert wd.K_integral(power5, tau, z0) == pytest.approx(expected, rel=1e-9)
    with pytest.raises(TransformError):
        wd.K_integral(power3, 0.0, 1.0)
    with pytest.raises(TransformError):
        wd.K_integral(power3, 0.7, 0.5)


def test_K_inversion_identity(power5):
    # z(t) and the inverse of the K integral agree along the trajectory
    kappa, z0 = 2.0, 0.5
    sol = wd.solve_comparison(power5, kappa, z0, horizon=3.2)
    for t in np.linspace(0.0, 3.0, 50):
        ki = wd.K_inverse(power5, kappa * float(t), z0)
        assert abs(sol.z_at(float(t)) - ki) < 1e-8


def test_comparison_rate_constant(power5):
    # z * t^{2/(p-1)} approaches ((p-1) kappa / 2)^{-2/(p-1)}
    p, kappa = 5.0, 2.0
    sol = wd.solve_comparison(power5, kappa, 0.5, horizon=2e4)
    limit = ((p - 1.0) * kappa / 2.0) ** (-2.0 / (p - 1.0))
    v1 = sol.z_at(1e4) * 1e4 ** (2.0 / (p - 1.0))
    v2 = sol.z_at(2e4) * 2e4 ** (2.0 / (p - 1.0))
    assert v1 == pytest.approx(limit, rel=2e-2)
    assert abs(v2 - limit) < abs(v1 - limit)


# ---------------------------------------------------------------------------
# lower envelope


def test_lower_envelope_power3_slope(power3):
    env = wd.DecayEnvelope(kind="lower", law=power3, gamma_s=1.0, C_s=1.0, T0=0.0, T1=0.0)
    ts = np.geomspace(10.0, 1e4, 60)
    vals = np.array([wd.lower_envelope(env, float(t)) for t in ts])
    slope = np.polyfit(np.log(ts), np.log(vals), 1)[0]
    assert slope == pytest.approx(-2.0, abs=5e-3)
    assert wd.lower_envelope(env, 5.0) == pytest.approx(1.0 / 100.0, rel=1e-12)


def test_lower_envelope_time_translation(power3):
    base = wd.DecayEnvelope(kind="lower", law=power3, gamma_s=1.0, C_s=1.0, T0=0.0, T1=1.0)
    shift = wd.DecayEnvelope(kind="lower", law=power3, gamma_s=1.0, C_s=1.0, T0=7.0, T1=1.0)
    for t in (2.0, 5.0, 50.0):
        assert wd.lower_envelope(shift, t + 7.0) == pytest.approx(
            wd.lower_envelope(base, t), rel=1e-12
        )


def test_lower_envelope_exp_inv_asymptotics(exp_inv):
    # the bound behaves like C / (log t)^2; the compensated value stays
    # bounded and drifts toward 1 as the logarithmic corrections fade
    env = wd.DecayEnvelope(kind="lower", law=exp_inv, gamma_s=1.0, C_s=1.0, T0=0.0, T1=0.0)
    comp = [wd.lower_envelope(env, t) * math.log(t) ** 2 for t in (1e6, 1e10, 1e14)]
    assert all(0.3 < c < 1.2 for c in comp)
    assert comp[0] < comp[1] < comp[2]


def test_lower_envelope_domain(power3):
    env = wd.DecayEnvelope(kind="lower", law=power3, gamma_s=1.0, C_s=1.0, T0=2.0, T1=3.0)
    with pytest.raises(TransformError):
        wd.lower_envelope(env, 4.0)


def test_growth_screening():
    assert wd.hfl_screen(wd.make_feedback("power", p=3.0, r0=1.0))
    assert wd.hfl_screen(wd.make_feedback("power_log", p=3.0, q=2.0))
    assert wd.hfl_screen(wd.make_feedback("exp_inv_square"))
    assert wd.hfl_screen(wd.make_feedback("sub_exponential", p=3.0))
    assert not wd.hfl_screen(wd.make_feedback("linear"))


def _deepest_samples(law):
    """The ten deepest distinct points of x_k = r0^2 * 2^-k, k <= 60, floored
    at eps_clip: where the growth screening once sampled Lambda."""
    r2 = law.r0**2
    xs = []
    for k in range(61):
        x = max(r2 * 2.0**-k, law.eps_clip)
        if not xs or x != xs[-1]:
            xs.append(x)
    return xs[-10:]


def _integral_screen(law):
    """The growth screening with its integral test run: phi(x) =
    (H(2x)/(2x)) int_x^{r0^2/2} dy/H(y) by quadrature at up to 24 points
    r0^2/4, r0^2/8, ... above eps_clip where H(x) > 1e-280, behind its own
    near-linear threshold 1 - 1e-9.  hfl_screen's reference."""
    lams = [wd.lambda_H(law, x) for x in _deepest_samples(law)]
    if max(lams) >= 1.0 - 1e-9:
        return False
    if min(lams) > 1e-3:
        return True
    r2 = law.r0**2
    vals = []
    x = r2 / 4.0
    while x > law.eps_clip and len(vals) < 24:
        if wd.eval_H(law, x) > 1e-280:
            vals.append(odecmp._H_over_z(law, 2.0 * x) * wd.K_integral(law, x, r2 / 2.0))
        x *= 0.5
    return bool(vals) and min(vals[-5:]) > 0.0


def test_growth_screening_matches_integral_test():
    """hfl_screen decides as the integral test does on every family, without
    integrating, except in two bands.  Power laws with 1 + 2e-9 < p <=
    1 + 2e-6 are linear-like to the upper envelopes, so they skip the lower
    one as well.  sub_exponential at r0 = 1 with eps_clip = 1e-3 passes:
    Lambda's limit at 0 is 0, while the reference samples Lambda only down
    to x = 1e-3, near x = 1 where Lambda > 1 (H is not convex there), and
    calls the law linear-like.  A law that passes the screening is one the
    upper envelopes take as away from linear."""
    params = [("linear", None, None), ("exp_inv_square", None, None)]
    params += [("power", p, None) for p in (1.0, 1.0 + 1e-9, 1.0 + 1e-8, 1.0 + 1e-7,
                                            1.0 + 1e-6, 1.0 + 1e-5, 1.5, 3.0, 5.0)]
    params += [("power_log", p, q) for p, q in ((2.5, 1.5), (3.0, 2.0), (4.0, 3.0))]
    params += [("sub_exponential", p, None) for p in (2.5, 3.0, 8.0)]
    checked = band = moved = 0
    for family, p, q in params:
        for r0 in (None, 1.0, 0.3, 0.05, 1e-3):
            # 1e-3 >= r0^2/4 at r0 = 0.05, where exp_inv_square's H underflows
            for eps_clip in (1e-16, 1e-8, 1e-4, 1e-3):
                try:
                    law = wd.make_feedback(family, p=p, q=q, r0=r0, eps_clip=eps_clip)
                except LawError:
                    continue
                checked += 1
                case = (family, p, q, r0, eps_clip)
                if family == "power" and 1.0 + 2e-9 < p <= 1.0 + 2e-6:
                    band += 1
                    assert _integral_screen(law) and not wd.hfl_screen(law), case
                elif family == "sub_exponential" and r0 == 1.0 and eps_clip == 1e-3:
                    moved += 1
                    assert wd.hfl_screen(law) and not _integral_screen(law), case
                else:
                    assert wd.hfl_screen(law) == _integral_screen(law), case
                assert not wd.hfl_screen(law) or upper_kind(law, "auto") == "simplified", case
    assert checked > 200 and band > 0 and moved == 3


def test_growth_screening_integrates_nothing(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("hfl_screen ran a quadrature")

    monkeypatch.setattr(odecmp, "adaptive_simpson", fail)
    monkeypatch.setattr(odecmp, "K_integral", fail)
    # an eps_clip no other test uses, so the screening's cache is cold
    assert wd.hfl_screen(wd.make_feedback("exp_inv_square", eps_clip=1.2345e-16))
    assert wd.hfl_screen(wd.make_feedback("sub_exponential", p=8.0, eps_clip=1.2345e-16))


def test_lower_envelope_rejects_linear(linear_law):
    env = wd.DecayEnvelope(kind="lower", law=linear_law, gamma_s=1.0, C_s=1.0)
    with pytest.raises(ComparisonError):
        wd.lower_envelope(env, 10.0)


@pytest.mark.parametrize("p", [2.0, 3.0, 5.0])
def test_lower_eventually_below_upper(p):
    # the lower bound decays at twice the upper rate, so whatever the
    # calibration constants, it ends up underneath the simplified envelope
    law = wd.make_feedback("power", p=p, r0=1.0)
    upper = wd.DecayEnvelope(kind="simplified", law=law, beta=1.0, M=1.0)
    lower = wd.DecayEnvelope(kind="lower", law=law, gamma_s=2.0, C_s=0.5, T0=0.0, T1=0.0)
    ts = np.geomspace(10.0, 1e6, 40)
    ratio = np.array(
        [wd.lower_envelope(lower, float(t)) / wd.envelope_simplified(upper, float(t)) for t in ts]
    )
    assert np.all(np.diff(ratio) < 0.0)
    assert ratio[-1] < 1.0
