"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Timed criteria time the package's time step, which
`wd.active_backend()` names.
"""

import math
import time

import numpy as np
import pytest

import wavedecay as wd


def report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def p3_config(t_final: float, n: int = 399, stride: int = 200) -> wd.SimConfig:
    return wd.SimConfig(
        law=wd.make_feedback("power", p=3.0, r0=1.0),
        alpha_field=wd.CoefficientField("indicator", (0.4, 0.9), 0.2),
        a_field=wd.CoefficientField("indicator", (0.2, 0.6), 1.0),
        n=n,
        cfl=0.9,
        t_final=t_final,
        stride=stride,
        u0="sine:1:1.0",
        u1="zero",
        v0="sine:2:0.5",
        v1="zero",
    )


@pytest.fixture(scope="module")
def p3_run_2000():
    t0 = time.perf_counter()
    trace = wd.run(p3_config(2000.0))
    return trace, time.perf_counter() - t0


@pytest.fixture(scope="module")
def p3_run_4000():
    return wd.run(p3_config(4000.0))


def test_criterion_1_calculus_closed_forms():
    t0 = time.perf_counter()
    power3 = wd.make_feedback("power", p=3.0, r0=1.0)
    lin = wd.make_feedback("linear")
    xs = np.linspace(1e-6, 1.0, 100)
    dev_p = max(abs(wd.lambda_H(power3, float(x)) - 0.5) for x in xs)
    dev_l = max(abs(wd.lambda_H(lin, float(x)) - 1.0) for x in xs)
    limit = wd.lambda_limit(wd.make_feedback("exp_inv_square"))
    elapsed = time.perf_counter() - t0
    ok = dev_p <= 1e-10 and dev_l <= 1e-10 and limit < 1e-3 and elapsed < 1.0
    report(1, ok, f"lambda devs {dev_p:.2e}/{dev_l:.2e}, exp_inv limit {limit:.2e}, "
                  f"{elapsed:.2f}s")


def test_criterion_2_conjugate_machinery():
    t0 = time.perf_counter()
    law = wd.make_feedback("power", p=3.0, r0=1.0)
    ok = abs(wd.conjugate(law, 1.0) - 0.25) <= 1e-10
    edge = wd.eval_L(law, 2.0)
    ok &= abs(edge - 0.5) <= 1e-10 and 0.0 < edge < law.r0**2
    dev = max(
        abs(wd.inverse_L(law, wd.eval_L(law, float(y))) - float(y))
        for y in np.linspace(0.0, 8.0, 100)
    )
    ok &= dev <= 1e-9
    xs = np.linspace(0.0, 1.0, 200)
    hv = xs**2
    worst = math.inf
    for y in np.linspace(0.0, 8.0, 200):
        worst = min(worst, float(np.min(wd.conjugate(law, float(y)) - (xs * y - hv))))
    ok &= worst >= -1e-12
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 5.0
    report(2, bool(ok), f"roundtrip dev {dev:.2e}, fenchel slack {worst:.2e}, {elapsed:.2f}s")


def test_criterion_3_psi0_cross_check():
    worst = 0.0
    for p in (3.0, 5.0):
        law = wd.make_feedback("power", p=p, r0=1.0)
        x_min = 1.0 / wd.eval_H_prime(law, 1.0)
        for x in np.linspace(x_min, 20.0, 50):
            closed = x_min + (p + 1.0) / (p - 1.0) * (x - x_min)
            worst = max(worst, abs(wd.psi0_eval(law, float(x)) - closed))
    law3 = wd.make_feedback("power", p=3.0, r0=1.0)
    env = wd.DecayEnvelope(kind="general", law=law3, beta=1.0, M=1.0)
    val = wd.envelope_general(env, 10.0)
    ok = worst <= 1e-8 and abs(val - 0.0952381) <= 1e-7
    report(3, ok, f"psi0 dev {worst:.2e}, general envelope(10) = {val:.9f}")


def test_criterion_4_energy_identities(p3_run_2000):
    t0 = time.perf_counter()
    law = wd.make_feedback("power", p=3.0, r0=1.0)
    uncoupled = wd.SimConfig(law=law, n=399, cfl=0.9, t_final=50.0, stride=100,
                             u0="sine:1:1.0", u1="zero", v0="zero", v1="zero")
    tr_u = wd.run(uncoupled)
    drift_u = float(np.max(np.abs(tr_u.E - tr_u.e0)) / tr_u.e0)
    coupled = wd.SimConfig(law=law,
                           alpha_field=wd.CoefficientField("indicator", (0.4, 0.9), 0.2),
                           n=399, cfl=0.9, t_final=50.0, stride=100,
                           u0="sine:1:1.0", u1="zero", v0="sine:2:0.5", v1="zero")
    tr_c = wd.run(coupled)
    drift_c = float(np.max(np.abs(tr_c.E - tr_c.e0)) / tr_c.e0)
    elapsed = time.perf_counter() - t0
    trace, _ = p3_run_2000
    worst_inc = float(np.max(np.diff(trace.E)))
    ok = (drift_u <= 1e-6 and drift_c <= 1e-6
          and worst_inc <= 1e-11 * trace.e0 and elapsed < 30.0)
    report(4, ok, f"drift uncoupled {drift_u:.2e}, coupled {drift_c:.2e}, "
                  f"max increase {worst_inc:.2e}, {elapsed:.1f}s")


def test_criterion_5_dissipation_order():
    law = wd.make_feedback("power", p=3.0, r0=1.0)

    def max_err(cfl):
        cfg = wd.SimConfig(law=law,
                           alpha_field=wd.CoefficientField("smooth_bump", (0.4, 0.9), 0.2),
                           a_field=wd.CoefficientField("smooth_bump", (0.2, 0.6), 1.0),
                           n=199, cfl=cfl, t_final=20.0, stride=8,
                           u0="sine:1:0.2", u1="zero", v0="sine:2:0.1", v1="zero")
        tr = wd.run(cfg)
        t, E, d = tr.t, tr.E, tr.dissipation
        return max(
            abs((E[j + 1] - E[j - 1]) / (t[j + 1] - t[j - 1]) - d[j])
            for j in range(2, len(t) - 2)
        )

    e1, e2 = max_err(0.8), max_err(0.4)
    order = math.log2(e1 / e2)
    report(5, order >= 1.8, f"dissipation vs dE/dt observed order {order:.2f}")


def test_criterion_6_power3_slope_bracket(p3_run_2000):
    trace, elapsed = p3_run_2000
    window = wd.default_fit_window(trace.t)
    fit = wd.fit_tail_exponent(trace, window=window, mode="power")
    ok = -2.3 <= fit.slope <= -0.7 and elapsed < 120.0
    dt = float(trace.meta["dt"])
    steps = round(trace.t[-1] / dt + 0.5)  # rows sit at half-step times
    report(6, ok, f"tail slope {fit.slope:.4f} (stderr {fit.stderr:.4f}, "
                  f"r2 {fit.r_squared:.4f}), run {elapsed:.1f}s "
                  f"({wd.active_backend()} kernel, {1e6 * elapsed / steps:.1f} us/step "
                  f"over {steps} steps)")


def test_criterion_7_weighted_inequality_stability(p3_run_4000):
    law = wd.make_feedback("power", p=3.0, r0=1.0)
    tr4000 = p3_run_4000
    tr2000 = tr4000.truncated(2000.0)
    beta = wd.beta_floor(law, tr4000.e0)
    m_opt_2 = wd.check_integral_inequality(tr2000, lambda y: wd.optimal_weight(law, y, beta)).M
    m_opt_4 = wd.check_integral_inequality(tr4000, lambda y: wd.optimal_weight(law, y, beta)).M
    m_pol_2 = wd.check_integral_inequality(tr2000, lambda y: y).M
    m_pol_4 = wd.check_integral_inequality(tr4000, lambda y: y).M
    rel_opt = abs(m_opt_4 - m_opt_2) / m_opt_2
    rel_pol = abs(m_pol_4 - m_pol_2) / m_pol_2
    ok = (math.isfinite(m_opt_2) and math.isfinite(m_pol_2)
          and rel_opt < 0.10 and rel_pol < 0.10)
    report(7, ok, f"M optimal {m_opt_2:.3f} (doubling change {rel_opt:.2e}), "
                  f"M poly {m_pol_2:.3f} (change {rel_pol:.2e})")


def test_criterion_8_lemma_suite():
    t0 = time.perf_counter()
    rep = wd.lemma_suite()
    elapsed = time.perf_counter() - t0
    detail = "; ".join(f"{e.name}={'ok' if e.passed else 'FAIL'}" for e in rep.entries)
    ok = rep.passed and elapsed < 5.0
    report(8, ok, f"{detail}, {elapsed:.2f}s")


def test_criterion_9_comparison_ode():
    law3 = wd.make_feedback("power", p=3.0, r0=1.0)
    sol = wd.solve_comparison(law3, 1.0, 1.0, horizon=100.0)
    ts = np.linspace(0.0, 100.0, 50)
    dev_z = float(np.max(np.abs(sol.z_at(ts) - 1.0 / (1.0 + ts))))

    law5 = wd.make_feedback("power", p=5.0, r0=1.0)
    kappa, z0 = 2.0, 0.5
    sol5 = wd.solve_comparison(law5, kappa, z0, horizon=3.2)
    dev_k = max(
        abs(sol5.z_at(float(t)) - wd.K_inverse(law5, kappa * float(t), z0))
        for t in np.linspace(0.0, 3.0, 50)
    )

    env = wd.DecayEnvelope(kind="lower", law=law3, gamma_s=1.0, C_s=1.0, T0=0.0, T1=0.0)
    tg = np.geomspace(10.0, 1e4, 60)
    vals = np.array([wd.lower_envelope(env, float(t)) for t in tg])
    slope = float(np.polyfit(np.log(tg), np.log(vals), 1)[0])

    ok = dev_z <= 1e-8 and dev_k <= 1e-8 and abs(slope + 2.0) <= 5e-3
    report(9, ok, f"z dev {dev_z:.2e}, K-inversion dev {dev_k:.2e}, "
                  f"lower slope {slope:.4f}")


def test_criterion_10_linear_law_exponential():
    lin = wd.make_feedback("linear")
    cfg = wd.SimConfig(law=lin,
                       alpha_field=wd.CoefficientField("indicator", (0.4, 0.9), 0.2),
                       a_field=wd.CoefficientField("indicator", (0.2, 0.6), 1.0),
                       n=399, cfl=0.9, t_final=2000.0, stride=200,
                       u0="sine:1:1.0", u1="zero", v0="sine:2:0.5", v1="zero")
    trace = wd.run(cfg)
    fit = wd.fit_tail_exponent(trace, window=wd.default_fit_window(trace.t), mode="exp")
    ok = fit.slope < 0.0 and fit.r_squared >= 0.98
    report(10, ok, f"exp-mode slope {fit.slope:.5f}, r2 {fit.r_squared:.6f}")


# supplementary: decay level of the reference run against a frozen
# double-resolution (n=799) value of E(2000)/E(0) computed once offline
REFERENCE_DECAY_RATIO_2X = 4.053175306704019e-04


def test_reference_run_decay_level(p3_run_2000):
    trace, _ = p3_run_2000
    ratio = float(trace.E[-1] / trace.e0)
    assert ratio < 0.05
    assert ratio == pytest.approx(REFERENCE_DECAY_RATIO_2X, rel=0.05)
