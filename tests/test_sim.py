import dataclasses
import hashlib
import math
import os
import shutil
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import wavedecay as wd
from wavedecay import _kernels
from wavedecay.sim import SimError, parse_profile
from conftest import trace_value_at


def smooth_cfg(law, n=199, cfl=0.8, t_final=20.0, stride=8):
    """Damped+coupled run with C^1 coefficients and velocities below the
    saturation kink, so every field stays smooth in space and time."""
    return wd.SimConfig(
        law=law,
        alpha_field=wd.CoefficientField("smooth_bump", (0.4, 0.9), 0.2),
        a_field=wd.CoefficientField("smooth_bump", (0.2, 0.6), 1.0),
        n=n,
        cfl=cfl,
        t_final=t_final,
        stride=stride,
        u0="sine:1:0.2",
        u1="zero",
        v0="sine:2:0.1",
        v1="zero",
    )


# ---------------------------------------------------------------------------
# coefficients and initialization


def test_build_coefficients_indicator():
    field = wd.CoefficientField("indicator", (0.3, 0.7), 1.0)
    vals = wd.build_coefficients(field, 99)
    x = np.linspace(0.0, 1.0, 101)
    assert vals[np.argmin(np.abs(x - 0.5))] == 1.0
    assert vals[np.argmin(np.abs(x - 0.1))] == 0.0
    assert wd.build_coefficients(None, 99).max() == 0.0


def test_init_energy_standing_mode(power3):
    cfg = wd.SimConfig(law=power3, n=399, cfl=0.9, t_final=1.0, stride=10,
                       u0="sine:1:1.0", u1="zero", v0="zero", v1="zero")
    st = wd.init_state(cfg)
    e, _ = wd.energy(st)
    exact = math.pi**2 / 4.0
    assert abs(e - exact) <= exact * (math.pi * st.dx) ** 2


def test_init_zero_data(power3):
    cfg = wd.SimConfig(law=power3, n=99, cfl=0.9, t_final=0.5, stride=5,
                       u0="zero", u1="zero", v0="zero", v1="zero")
    tr = wd.run(cfg)
    assert np.all(tr.E == 0.0)
    assert np.all(tr.dissipation == 0.0)


def test_cfl_rejections(power3):
    dx = 1.0 / 100.0
    with pytest.raises(SimError):
        wd.init_state(wd.SimConfig(law=power3, n=99, dt=1.5 * dx))
    with pytest.raises(SimError):
        wd.init_state(wd.SimConfig(law=power3, n=99, cfl=1.0))
    with pytest.raises(SimError):
        wd.init_state(wd.SimConfig(law=power3, n=99, cfl=-0.1))


def test_profile_parsing_and_boundary(power3):
    f = parse_profile("sine:1:2.0+bump:0.3:0.5:1.0")
    x = np.linspace(0.0, 1.0, 11)
    assert f(x).shape == x.shape
    with pytest.raises(SimError):
        parse_profile("bump:0.0:0.5:1.0")  # touches the boundary
    with pytest.raises(SimError):
        parse_profile("wiggle:1:2")
    with pytest.raises(SimError):
        parse_profile("sine:0:1.0")


@pytest.mark.parametrize("text", [
    "sine:1:nan", "sine:1:inf", "sine:1:-inf",
    "bump:0.3:0.5:nan", "bump:0.3:0.5:inf", "bump:nan:0.5:1.0", "bump:0.3:inf:1.0",
])
def test_profile_rejects_non_finite_numbers(text):
    with pytest.raises(SimError, match="finite"):
        parse_profile(text)


def test_alpha_smallness_guard(power3):
    cfg = wd.SimConfig(
        law=power3,
        alpha_field=wd.CoefficientField("indicator", (0.4, 0.9), 0.5),
        n=99,
    )
    with pytest.raises(SimError):
        wd.init_state(cfg)
    cfg.alpha_max = 0.6
    with pytest.warns(UserWarning):
        wd.init_state(cfg)


# ---------------------------------------------------------------------------
# the discrete energy identity


def test_one_step_energy_identity(power3, damped_cfg):
    st = wd.init_state(damped_cfg)
    for _ in range(3):  # a few consecutive steps, identity exact at each
        e_before, _ = wd.energy(st)
        u_prev_old = st.u_prev.copy()
        wd.step(st)
        e_after, _ = wd.energy(st)
        s_mid = (st.u_curr - u_prev_old) / (2.0 * st.dt)
        law = power3
        rho = st.a * _kernels.ghat_np(s_mid, law.code, law.p, law.q, law.s_sat, law.g_sat)
        drop = -st.dx * float(np.dot(s_mid[1:-1], rho[1:-1]))
        assert e_after - e_before == pytest.approx(st.dt * drop, abs=1e-14 * e_before)
        assert e_after <= e_before


def test_undamped_step_conserves(power3):
    cfg = wd.SimConfig(law=power3,
                       alpha_field=wd.CoefficientField("indicator", (0.4, 0.9), 0.2),
                       n=99, cfl=0.9, t_final=1.0, stride=1,
                       u0="sine:1:1.0", u1="zero", v0="sine:2:0.5", v1="zero")
    st = wd.init_state(cfg)
    e0, _ = wd.energy(st)
    for _ in range(10):
        wd.step(st)
    e, _ = wd.energy(st)
    assert abs(e - e0) <= 1e-10 * e0


def test_run_conservation_uncoupled(power3):
    cfg = wd.SimConfig(law=power3, n=99, cfl=0.5, t_final=10.0, stride=20,
                       u0="sine:1:1.0", u1="zero", v0="zero", v1="zero")
    tr = wd.run(cfg)
    assert np.max(np.abs(tr.E - tr.e0)) <= 1e-11 * tr.e0


def test_run_monotone_damped(power3, damped_cfg):
    tr = wd.run(damped_cfg)
    assert np.all(np.diff(tr.E) <= 1e-11 * tr.e0)
    assert tr.E[-1] < tr.e0


def test_dissipation_sign(power3, damped_cfg):
    tr = wd.run(damped_cfg)
    assert np.all(tr.dissipation <= 0.0)
    st = wd.init_state(wd.SimConfig(law=power3, n=99, u0="sine:1:1.0", u1="sine:1:1.0",
                                    v0="zero", v1="zero"))
    assert wd.dissipation_rate(st) == 0.0  # no damping field


def test_time_reversal(power3):
    cfg = wd.SimConfig(law=power3, n=99, cfl=0.9, t_final=1.0, stride=1,
                       u0="sine:1:1.0+sine:3:0.3", u1="zero", v0="sine:2:0.5", v1="zero")
    st = wd.init_state(cfg)
    u0, u1v = st.u_prev.copy(), st.u_curr.copy()
    v0, v1v = st.v_prev.copy(), st.v_curr.copy()
    k = 200
    for _ in range(k):
        wd.step(st)
    # swap the levels and step the same number of times to run backward
    st.u_prev, st.u_curr = st.u_curr, st.u_prev
    st.v_prev, st.v_curr = st.v_curr, st.v_prev
    for _ in range(k):
        wd.step(st)
    assert np.max(np.abs(st.u_curr - u0)) < 1e-9
    assert np.max(np.abs(st.v_curr - v0)) < 1e-9
    assert np.max(np.abs(st.u_prev - u1v)) < 1e-9
    assert np.max(np.abs(st.v_prev - v1v)) < 1e-9


# ---------------------------------------------------------------------------
# accuracy orders


def test_grid_refinement_second_order(power3):
    tstar = 2.0
    values = []
    for n in (49, 99, 199):
        cfg = smooth_cfg(power3, n=n, cfl=0.8, t_final=2.4, stride=1)
        values.append(trace_value_at(wd.run(cfg), tstar))
    d1 = abs(values[0] - values[1])
    d2 = abs(values[1] - values[2])
    order = math.log2(d1 / d2)
    assert order >= 1.8


def test_dissipation_matches_energy_slope(power3):
    def max_err(cfl):
        tr = wd.run(smooth_cfg(power3, cfl=cfl))
        t, E, d = tr.t, tr.E, tr.dissipation
        errs = [
            abs((E[j + 1] - E[j - 1]) / (t[j + 1] - t[j - 1]) - d[j])
            for j in range(2, len(t) - 2)
        ]
        return max(errs)

    e1, e2 = max_err(0.8), max_err(0.4)
    assert math.log2(e1 / e2) >= 1.8


# ---------------------------------------------------------------------------
# traces, the step against its reference, CSV


def _floor_cfg():
    """A linear-law run that reaches the energy floor long before t_final."""
    return wd.SimConfig(law=wd.make_feedback("linear"),
                        a_field=wd.CoefficientField("indicator", (0.2, 0.8), 2.0),
                        n=49, cfl=0.9, t_final=5000.0, stride=100,
                        u0="sine:1:1.0", u1="zero", v0="zero", v1="zero")


def test_early_stop_on_floor():
    tr = wd.run(_floor_cfg())
    assert tr.meta["early_stop"] == "true"
    assert tr.t[-1] < 5000.0
    assert tr.E[-1] < 1e-13 * tr.e0
    assert tr.E[-2] >= wd.sim.ENERGY_FLOOR_FACTOR * tr.e0  # the first sample below stops


def _run_kernel(kernel, cfg, nsteps, maxit=200, stride=None):
    """Advance cfg's start state by nsteps with one kernel; return (state,
    report, samples).  With a stride, the kernel also samples the run, as
    `sim.run` has it do, into a NaN-filled buffer; samples is None without."""
    st = wd.init_state(cfg)
    law = cfg.law
    samples = None if stride is None else np.full((1 + -(-nsteps // stride), 3), np.nan)
    report = kernel(st.u_prev, st.u_curr, st.v_prev, st.v_curr, st.alpha, st.a, st.dt, st.dx,
                    nsteps, law.code, law.p, law.q, law.s_sat, law.g_sat, 1e-13, maxit,
                    stride or 1, samples, wd.sim.ENERGY_FLOOR_FACTOR)
    return st, report, samples


def _same_state(st1, st2):
    return all(np.array_equal(getattr(st1, name), getattr(st2, name))
               for name in ("u_prev", "u_curr", "v_prev", "v_curr"))


def _smooth_fields(cfg):
    return dataclasses.replace(
        cfg,
        alpha_field=wd.CoefficientField("smooth_bump", (0.4, 0.9), 0.2),
        a_field=wd.CoefficientField("smooth_bump", (0.2, 0.6), 1.0),
    )


def _equivalence_cases(base):
    """test_backend_equivalence's cases: name -> (config, steps, stride).
    300 steps in chunks of 7 end in a partial chunk of 6."""
    cases = {
        "power p=3": base,
        "power p=5": dataclasses.replace(base, law=wd.make_feedback("power", p=5.0, r0=1.0)),
        "linear": dataclasses.replace(base, law=wd.make_feedback("linear")),
        "exp_inv_square": dataclasses.replace(base, law=wd.make_feedback("exp_inv_square")),
        "power_log": dataclasses.replace(base, law=wd.make_feedback("power_log", p=3.0, q=2.0)),
        "sub_exponential": dataclasses.replace(
            base, law=wd.make_feedback("sub_exponential", p=2.5)),
        "saturated": dataclasses.replace(base, u1="sine:1:3.0"),  # |u_t| > s_sat = 1
        "smooth_bump": _smooth_fields(base),
    }
    return {name: (cfg, 300, 7) for name, cfg in cases.items()}


def _long_cases(base):
    """n = 49, 600-step runs of laws whose node solve calls pow, exp and
    log at every Newton iterate."""
    small = dataclasses.replace(base, n=49)
    sub_exp = dataclasses.replace(small, law=wd.make_feedback("sub_exponential", p=2.5))
    cases = {
        "sub_exponential n=49": sub_exp,
        "sub_exponential smooth_bump n=49": _smooth_fields(sub_exp),
        "power p=1.5 smooth_bump n=49": _smooth_fields(
            dataclasses.replace(small, law=wd.make_feedback("power", p=1.5, r0=1.0))),
    }
    return {name: (cfg, 600, 40) for name, cfg in cases.items()}


def _assert_equivalent(cases, step):
    """The C loop and its reference reach the same state and write the same
    sample bytes, NaN-filled rows past a stop included; unsampled, they
    reach that state too."""
    for name, (cfg, nsteps, stride) in cases.items():
        st1, rep1, samples1 = _run_kernel(_kernels._advance_scalar, cfg, nsteps, stride=stride)
        st2, rep2, samples2 = _run_kernel(step, cfg, nsteps, stride=stride)
        assert rep1 == rep2 and rep1[1:] == (-1, 0.0), name
        assert _same_state(st1, st2), name
        assert samples1.tobytes() == samples2.tobytes(), name
        st3, rep3, _ = _run_kernel(step, cfg, rep1[0])
        assert rep3 == rep1 and _same_state(st1, st3), name


def _compiled_step():
    """`advance` where it runs the C step; None on a host with no C compiler.
    Where `cc` is on PATH the C step must have built."""
    if shutil.which("cc") is None:
        return None
    assert _kernels.active_backend() == "c", "cc is on PATH but the C step did not build"
    return _kernels.advance


needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")


@needs_cc
def test_backend_equivalence(damped_cfg):
    """The C loop against its reference, state and samples bit for bit:
    every law family, the saturation branch, a smooth damping field, longer
    n = 49 runs of laws that call pow, exp and log at every iterate, a
    sample at every step, and a linear-law run stopped at the energy floor
    (1400 of its 277,778 steps)."""
    floor = _floor_cfg()
    cases = {
        **_equivalence_cases(damped_cfg),
        **_long_cases(damped_cfg),
        "power p=3 stride 1": (damped_cfg, 300, 1),
        "linear floor stop": (floor, math.ceil(floor.t_final / wd.init_state(floor).dt), 100),
    }
    _assert_equivalent(cases, _compiled_step())
    cfg, nsteps, stride = cases["linear floor stop"]
    assert _run_kernel(_compiled_step(), cfg, nsteps, stride=stride)[1] == (1400, -1, 0.0)


@needs_cc
def test_compiled_loop_checks_its_sample_buffer(damped_cfg):
    """The C loop writes 1 + ceil(nsteps / stride) sample rows, so a buffer
    of another shape and a stride below 1 are refused before the call."""
    step = _compiled_step()
    for nsteps, stride, rows, error in ((10, 3, 5, None), (10, 3, 4, TypeError), (10, 3, 6, TypeError),
                                        (10, 0, 1, ValueError), (3, -5, 1, ValueError)):
        st = wd.init_state(damped_cfg)
        law = damped_cfg.law
        args = (st.u_prev, st.u_curr, st.v_prev, st.v_curr, st.alpha, st.a, st.dt, st.dx, nsteps,
                law.code, law.p, law.q, law.s_sat, law.g_sat, 1e-13, 200, stride, np.zeros((rows, 3)), 0.0)
        if error is None:
            assert step(*args) == (nsteps, -1, 0.0)
        else:
            with pytest.raises(error):
                step(*args)
            assert st.u_curr.tobytes() == wd.init_state(damped_cfg).u_curr.tobytes()


def _late_failure_cfg(cfg):
    """cfg with u starting outside the damped region: with the node solve
    cut off after one iteration, the first solve that fails is in step 11,
    at padded node 59, inside the third chunk of cfg's stride 5."""
    return dataclasses.replace(cfg, u0="bump:0.7:0.95:1.0", v0="zero")


@needs_cc
def test_backend_failure_report(damped_cfg):
    """A node solve cut off after one iteration fails in the same step at
    the same node in the C loop and its reference, with the same residual
    scale b, leaving the state at the last completed step and the samples
    at the last completed chunk."""
    cfg = _late_failure_cfg(damped_cfg)
    st1, rep1, samples1 = _run_kernel(_kernels._advance_scalar, cfg, 50, maxit=1, stride=5)
    st2, rep2, samples2 = _run_kernel(_compiled_step(), cfg, 50, maxit=1, stride=5)
    assert rep1[:2] == rep2[:2] == (11, 59)
    assert float(rep1[2]) == rep2[2]
    assert _same_state(st1, st2)
    assert samples1.tobytes() == samples2.tobytes()
    assert not np.isnan(samples1[:3]).any() and np.isnan(samples1[3:]).all()


def test_node_solve_error_names_the_step(monkeypatch, damped_cfg):
    """The SimError of a failed node solve names the failing step k and
    t = k dt, not the start of its chunk, the same from the C loop and from
    the Python loop."""
    monkeypatch.setattr(wd.sim, "NODE_SOLVE_MAXIT", 1)
    cfg = _late_failure_cfg(damped_cfg)
    expected = f"at node 59 in step 11 (t = {11 * wd.init_state(cfg).dt:g},"
    messages = []
    if shutil.which("cc") is not None:
        assert _compiled_step() is not None
        with pytest.raises(SimError, match="node solve failed") as err:
            wd.run(cfg)
        messages.append(str(err.value))
    monkeypatch.setattr(_kernels, "_chosen",
                        ("python", _kernels._advance_scalar, _kernels._ghat_scalar))
    with pytest.raises(SimError, match="node solve failed") as err:
        wd.run(cfg)
    messages.append(str(err.value))
    assert expected in messages[0], messages
    assert len(set(messages)) == 1, messages


def _step_reference(st, law, maxit):
    """One step of the reference from the state st, in place."""
    return _kernels._advance_scalar(st.u_prev, st.u_curr, st.v_prev, st.v_curr, st.alpha, st.a,
                                    st.dt, st.dx, 1, law.code, law.p, law.q, law.s_sat, law.g_sat,
                                    1e-13, maxit, 1, None, 0.0)


def _wide_failure_cfg(cfg):
    """cfg from a faint standing mode with v at rest: with the node solve cut
    off after one iteration, 15 damped nodes fail together in step 18, the
    lowest at padded node 43, inside the fourth chunk of cfg's stride 5."""
    return dataclasses.replace(cfg, u0="sine:1:1e-6", v0="zero")


@needs_cc
def test_backend_failure_report_several_nodes(monkeypatch, damped_cfg):
    """Where several damped nodes fail in one step, the C loop, which solves
    them together, reports the lowest one and its b, where the reference's
    node loop stops; the state stays at the last completed step and the
    samples at the last whole chunk."""
    cfg = _wide_failure_cfg(damped_cfg)
    st1, rep1, samples1 = _run_kernel(_kernels._advance_scalar, cfg, 50, maxit=1, stride=5)
    st2, rep2, samples2 = _run_kernel(_compiled_step(), cfg, 50, maxit=1, stride=5)
    assert rep1[:2] == rep2[:2] == (18, 43)
    assert float(rep1[2]) == rep2[2]
    assert _same_state(st1, st2)
    assert samples1.tobytes() == samples2.tobytes()
    assert not np.isnan(samples1[:4]).any() and np.isnan(samples1[4:]).all()

    # step 18 of the reference again, recording the b of every failing solve
    # in node order and finishing it with the full iteration budget
    failed = []
    solve = _kernels._solve_node

    def record(b, *args):
        s = solve(b, *args)
        if math.isnan(s):
            failed.append(b)
            s = solve(b, *args[:-1], 200)
        return s

    monkeypatch.setattr(_kernels, "_solve_node", record)
    assert _step_reference(st1, cfg.law, 1) == (1, -1, 0.0)
    assert len(failed) == 15 and len(set(failed)) == 15
    assert failed[0] == rep2[2]


def _lane_exit_cfg(cfg):
    """cfg's fields, v at rest, u at rest but for two velocity bumps inside
    the damped region (0.2, 0.6): a faint one, whose speeds stay below the
    node solve's tol, and one beyond s_sat = 1."""
    return dataclasses.replace(cfg, u0="zero", u1="bump:0.3:0.4:1e-13+bump:0.45:0.55:3.0",
                               v0="zero")


@needs_cc
def test_lanes_leave_the_lockstep_at_different_iterates(monkeypatch, damped_cfg):
    """The C loop against its reference at every step, state and samples bit
    for bit, from a start whose steps mix damped nodes at rest (b = 0),
    saturated nodes (|s| > s_sat) and, with the linear law, bracket-width
    exits of the node solve, so the lanes of one step finish at different
    iterates."""
    linear = dataclasses.replace(_lane_exit_cfg(damped_cfg), law=wd.make_feedback("linear"))
    cases = {"lane exits linear": (linear, 300, 1),
             "lane exits cubic": (_lane_exit_cfg(damped_cfg), 300, 1)}
    _assert_equivalent(cases, _compiled_step())

    # the first step of the linear case meets all three kinds of solve
    kinds = set()
    solve = _kernels._solve_node

    def record(b, clin, k2, fam, p, q, s_sat, g_sat, tol, maxit):
        s = solve(b, clin, k2, fam, p, q, s_sat, g_sat, tol, maxit)
        if b == 0.0:
            kinds.add("rest")
        elif abs(s) > s_sat:
            kinds.add("saturated")
        elif s == 0.5 * (b / clin):  # the midpoint of the first bracket, (0, b / clin)
            kinds.add("bracket width")
        return s

    monkeypatch.setattr(_kernels, "_solve_node", record)
    _step_reference(wd.init_state(linear), linear.law, 200)
    assert kinds == {"rest", "saturated", "bracket width"}


def test_ghat_np_matches_reference():
    """ghat_np, which the start state and the E1 and dissipation samples use,
    equals `_ghat` on each element bit for bit for every law family: on
    seeded values, at and around 0, s_sat and 1, beyond s_sat, and at tiny
    and subnormal speeds."""
    rng = np.random.default_rng(15)
    laws = [wd.make_feedback("power", p=p, r0=1.0) for p in (1.5, 3.0, 5.0)] + [
        wd.make_feedback("linear"),
        wd.make_feedback("exp_inv_square"),
        wd.make_feedback("power_log", p=3.0, q=1.5),
        wd.make_feedback("sub_exponential", p=2.5),
    ]
    for law in laws:
        args = (law.code, law.p, law.q, law.s_sat, law.g_sat)
        edges = np.array([0.0, 1e-160, 5e-324, 1.0, law.s_sat, 2.0 * law.s_sat, 1e3])
        edges = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)])
        s = np.concatenate([rng.uniform(-3.0, 3.0, 20_000), edges, -edges])
        ref = np.array([_kernels._ghat(x, *args) for x in s.tolist()])
        assert _kernels.ghat_np(s, *args).tobytes() == ref.tobytes(), law
    # below 1/DBL_MAX, where 1/a overflows, power_log's g is 0, not 0 * inf
    power_log = laws[5]
    args = (power_log.code, power_log.p, power_log.q, power_log.s_sat, power_log.g_sat)
    assert _kernels.ghat_np(np.array([1e-310, 5.5e-309]), *args).tolist() == [0.0, 0.0]


def _closed_form_slope(s, fam, p, q, s_sat, g_sat):
    """ghat'(s) by its closed form per family, the node solve's slope before
    the solve formed it from the libm results of ghat's own value."""
    a = abs(s)
    if a >= s_sat:
        return g_sat / s_sat
    if a == 0.0:
        return 1.0 if fam == 0 else 0.0
    if fam == 0:
        return 1.0
    if fam == 1:
        return p * a ** (p - 1.0)
    if fam == 2:
        return 0.0 if a < _kernels._TINY else math.exp(-1.0 / (a * a)) * 2.0 / (a * a * a)
    ell = math.log(1.0 / a)
    if fam == 3:
        return a ** (p - 1.0) * ell ** (q - 1.0) * (p * ell - q)
    return math.exp(-(ell**p)) * p * ell ** (p - 1.0) / a


def _assert_slope_matches_closed_form(s, args, g_value):
    """The node solve's (ghat, ghat') at s against ghat and the closed form.

    The slope is formed from the rounded value g, so besides its own few
    roundings (8 ulps bound both formulas' error) it carries g's relative
    rounding, which exceeds an ulp only where g is subnormal: up to
    2^-1074 / g.  Where g underflows to 0 the slope is 0.
    """
    v, d = _kernels._ghat(s, *args, slope=True)
    assert v == _kernels._ghat(s, *args), s
    try:
        ref = _closed_form_slope(s, *args)
    except ZeroDivisionError:  # exp_inv_square's 0 / a^3 where a^3 underflows
        assert v == d == 0.0, s
        return
    if math.isnan(ref):  # power_log and sub_exponential below 1/DBL_MAX: 0 * inf
        assert v == d == 0.0, s
        return
    if g_value == 0.0:
        assert d == 0.0 or d == ref, s
        return
    tol = 8.0 * math.ulp(ref) + 2.0**-1074 / g_value * abs(ref)
    assert abs(d - ref) <= tol, (s, d, ref)


def test_node_solve_slope_matches_closed_form():
    """ghat' as the node solve forms it, from the pow/exp/log results of
    ghat, agrees with the closed form per family within a few ulps: on a
    seeded grid and at 0, TINY, s_sat +- 1 ulp, near 1 for the log families
    and at subnormal speeds, on both signs."""
    rng = np.random.default_rng(18)
    laws = [wd.make_feedback("power", p=p, r0=1.0) for p in (1.0, 1.5, 3.0, 5.0)] + [
        wd.make_feedback("linear"),
        wd.make_feedback("exp_inv_square"),
        wd.make_feedback("power_log", p=3.0, q=1.5),
        wd.make_feedback("power_log", p=4.0, q=3.0),
        wd.make_feedback("sub_exponential", p=2.5),
        wd.make_feedback("sub_exponential", p=3.0),
    ]
    tiny = _kernels._TINY
    for law in laws:
        args = (law.code, law.p, law.q, law.s_sat, law.g_sat)
        edges = [0.0, tiny, math.nextafter(tiny, 0.0), math.nextafter(tiny, 1.0),
                 law.s_sat, math.nextafter(law.s_sat, 0.0), math.nextafter(law.s_sat, 2.0),
                 5e-324, 1e-310, 2.2250738585072014e-308, 1e-200, 1e-100]
        grid = np.concatenate([10.0 ** rng.uniform(-8.0, 0.5, 2000), rng.uniform(0.0, 2.0, 2000)])
        for a in edges + grid.tolist():
            g_value = _kernels._g(a, law.code, law.p, law.q) if 0.0 < a < law.s_sat else 1.0
            for s in (a, -a):
                _assert_slope_matches_closed_form(s, args, g_value)
        if law.family in ("power_log", "sub_exponential"):  # g near 1, beyond every law's r0
            for a in (1.0 - 2.0**-53, 1.0 - 2.0**-50, 1.0 - 1e-9, 0.999):
                _, d = _kernels._g(a, law.code, law.p, law.q, slope=True)
                ref = _closed_form_slope(a, law.code, law.p, law.q, s_sat=2.0, g_sat=1.0)
                assert abs(d - ref) <= 8.0 * math.ulp(ref), (law, a, d, ref)


SAMPLER_N = (3, 7, 8, 9, 126, 128, 129, 130, 399, 1000)


def _sampler_states():
    """(name, state) of every family, with damping and coupling, undamped
    (a = 0) and uncoupled (alpha = 0), on smooth fields and start data and
    on rough fields with seeded random levels whose speeds cross s_sat, at
    interior lengths that reach each branch of numpy's pairwise sum."""
    rng = np.random.default_rng(18)
    laws = [wd.make_feedback("linear"), wd.make_feedback("power", p=3.0, r0=1.0),
            wd.make_feedback("exp_inv_square"), wd.make_feedback("power_log", p=3.0, q=2.0),
            wd.make_feedback("sub_exponential", p=2.5)]
    for law in laws:
        for n in SAMPLER_N:
            smooth = smooth_cfg(law, n=n)
            rough = dataclasses.replace(
                smooth,
                alpha_field=wd.CoefficientField("indicator", (0.4, 0.9), 0.2),
                a_field=wd.CoefficientField("indicator", (0.2, 0.6), 1.0),
            )
            for data, cfg in (("smooth", smooth), ("rough", rough)):
                for fields, drop in (("damped+coupled", {}), ("undamped", {"a_field": None}),
                                     ("uncoupled", {"alpha_field": None})):
                    st = wd.init_state(dataclasses.replace(cfg, **drop))
                    if data == "rough":
                        for cur, prev in (("u_curr", "u_prev"), ("v_curr", "v_prev")):
                            level = getattr(st, cur)
                            level[1:-1] = rng.standard_normal(n)
                            getattr(st, prev)[1:-1] = level[1:-1] - st.dt * rng.uniform(-3.0, 3.0, n)
                    yield f"{law.family} n={n} {data} {fields}", st


@needs_cc
def test_sampler_matches_numpy():
    """The C sampler's E, E1 and dissipation rate, from a sample-only call
    of the C loop (nsteps = 0), equal `energy()` and `dissipation_rate()`
    bit for bit."""
    compiled = _compiled_step()
    for name, st in _sampler_states():
        law = st.law
        got = np.empty((1, 3))
        assert compiled(st.u_prev, st.u_curr, st.v_prev, st.v_curr, st.alpha, st.a, st.dt, st.dx,
                        0, law.code, law.p, law.q, law.s_sat, law.g_sat, 1e-13, 200,
                        1, got, 0.0) == (0, -1, 0.0)
        ref = (*wd.energy(st), wd.dissipation_rate(st))
        assert got.tobytes() == np.array([ref]).tobytes(), (name, got, ref)


def _state_digest(st):
    """sha256 of the four state arrays' bytes, to compare states across interpreters."""
    names = ("u_prev", "u_curr", "v_prev", "v_curr")
    return hashlib.sha256(b"".join(getattr(st, name).tobytes() for name in names)).hexdigest()


def _trace_digest(cfg):
    """sha256 of the CSV of cfg's run but for its backend= line, which names the step."""
    lines = wd.run(cfg).csv_text().splitlines(keepends=True)
    return hashlib.sha256("".join(x for x in lines if not x.startswith("# backend=")).encode()).hexdigest()


STEP_PROBE = textwrap.dedent(
    """
    import sys

    sys.path[:0] = sys.argv[1:3]

    import conftest
    import test_sim
    from wavedecay import _kernels

    cfg = conftest.damped_config()
    st1, rep1, _ = test_sim._run_kernel(_kernels.advance, cfg, 40)
    st2, rep2, _ = test_sim._run_kernel(_kernels._advance_scalar, cfg, 40)
    print(_kernels.active_backend(), rep1 == rep2 and test_sim._same_state(st1, st2),
          test_sim._state_digest(st1), test_sim._trace_digest(cfg))
    """
)


def _step_probe(**env):
    """A fresh interpreter that runs a short damped run with `advance` and
    prints the step that ran, whether it matched the reference step's state,
    that state's digest, and the digest of the config's `run()` trace."""
    tests = os.path.dirname(os.path.abspath(__file__))
    return subprocess.Popen(
        [sys.executable, "-c", STEP_PROBE, os.path.join(os.path.dirname(tests), "src"), tests],
        env={**os.environ, **env}, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def _probe_result(probe):
    out, err = probe.communicate(timeout=300)
    assert probe.returncode == 0, err
    return out.split(), err


def test_python_step_runs_without_a_compiler(tmp_path, damped_cfg):
    """With no cc on PATH, a short damped run falls back to the Python
    reference step, with one warning that says why, and writes nothing to
    the cache.  Where cc exists, its state equals the C step's bit for bit,
    and its `run()` trace, sampled by numpy, has the bytes of the trace the
    C step and sampler write."""
    empty_bin, cache = tmp_path / "bin", tmp_path / "cache"
    empty_bin.mkdir()
    cache.mkdir()
    out, err = _probe_result(_step_probe(PATH=str(empty_bin), XDG_CACHE_HOME=str(cache)))
    assert out[:2] == ["python", "True"]
    warnings = [line for line in err.splitlines() if "compiled time step is unavailable" in line]
    assert len(warnings) == 1 and "no C compiler" in warnings[0], err
    assert not list(cache.iterdir())
    compiled = _compiled_step()
    if compiled is not None:
        assert out[2] == _state_digest(_run_kernel(compiled, damped_cfg, 40)[0])
        assert out[3] == _trace_digest(damped_cfg)


@needs_cc
def test_compiled_step_cache(tmp_path):
    """Two fresh interpreters that build into one empty cache at once both
    run the C step and leave one library and no temp file.  Where the cache
    cannot be created (its base is a file), the step is built in a temporary
    directory that is gone once the library is loaded."""
    cache, tmp, not_a_dir = tmp_path / "cache", tmp_path / "tmp", tmp_path / "file"
    probes = [_step_probe(XDG_CACHE_HOME=str(cache)) for _ in range(2)]
    for probe in probes:
        assert _probe_result(probe)[0][:2] == ["c", "True"]
    assert [f.suffix for f in (cache / "wavedecay").iterdir()] == [".so"]

    tmp.mkdir()
    not_a_dir.write_text("")
    probe = _step_probe(XDG_CACHE_HOME=str(not_a_dir), TMPDIR=str(tmp))
    assert _probe_result(probe)[0][:2] == ["c", "True"]
    assert not list(tmp.iterdir())


TRACE_PROBE = textwrap.dedent(
    """
    import dataclasses
    import sys

    sys.path.insert(0, sys.argv[1])

    import wavedecay as wd

    cfg = wd.load_config(sys.argv[2])
    short = dataclasses.replace(cfg.sim, n=99, t_final=20.0, stride=20)
    sys.stdout.write(wd.run(short).csv_text())
    """
)


def test_trace_bytes_do_not_depend_on_the_blas_core():
    """The trace's sums are numpy's own, not BLAS dot products, whose code
    OpenBLAS picks by CPU: a short cubic run writes the same bytes under the
    default core and under OPENBLAS_CORETYPE=Prescott (SSE3, which every
    x86-64 CPU that runs the test can execute)."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    config = os.path.join(root, "configs", "cubic_damping.ini")
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    texts = []
    for extra in ({}, {"OPENBLAS_CORETYPE": "Prescott"}):
        out = subprocess.run(
            [sys.executable, "-c", TRACE_PROBE, os.path.join(root, "src"), config],
            env={**base, **extra}, capture_output=True, text=True, timeout=300,
        )
        assert out.returncode == 0, out.stderr
        texts.append(out.stdout)
    assert texts[0].count("\n") > 100
    assert texts[0] == texts[1]


def test_trace_csv_roundtrip(tmp_path, power3, damped_cfg):
    tr = wd.run(damped_cfg)
    path = tmp_path / "trace.csv"
    tr.to_csv(path)
    assert path.read_bytes() == tr.csv_text().encode()
    back = wd.EnergyTrace.from_csv(path)
    assert np.array_equal(tr.t, back.t)
    assert np.array_equal(tr.E, back.E)
    assert np.array_equal(tr.dissipation, back.dissipation)
    assert back.meta["law_family"] == "power"
    with open(path) as fh:
        header = [ln for ln in fh if not ln.startswith("#")][0]
    assert header.strip() == "t,E,E1,dissipation"


def test_e1_nan_for_rough_runs(power3, damped_cfg):
    cfg = wd.SimConfig(**{**damped_cfg.__dict__, "smooth": False})
    tr = wd.run(cfg)
    assert np.all(np.isnan(tr.E1))
