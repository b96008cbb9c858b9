import dataclasses
import math
import os
from pathlib import Path

import numpy as np
import pytest

import wavedecay as wd
from wavedecay import transforms
from wavedecay.harness import HarnessError, _atomic_write
from wavedecay.transforms import ClassificationError, TransformError


# ---------------------------------------------------------------------------
# weighted integral inequality


def test_measured_M_reciprocal_decay():
    # int_t^inf (1+s)^-2 ds = E(t): the inequality saturates with M = 1.
    chk = wd.check_integral_inequality(
        lambda t: 1.0 / (1.0 + t), lambda y: y, mode="power_tail", horizon=3e7
    )
    assert chk.M == pytest.approx(1.0, abs=1e-6)
    assert chk.tail_extrapolated


def test_measured_M_exponential():
    t = np.linspace(0.0, 40.0, 40001)
    chk = wd.check_integral_inequality((t, np.exp(-t)), lambda y: np.ones_like(y))
    assert chk.M == pytest.approx(1.0, abs=1e-6)


def test_constant_trace_fails_and_grows():
    c1 = wd.check_integral_inequality(lambda t: 2.0, lambda y: y, mode="finite", horizon=10.0)
    c2 = wd.check_integral_inequality(lambda t: 2.0, lambda y: y, mode="finite", horizon=100.0)
    assert c1.M > 5.0 and c2.M > 5.0
    assert c2.M > 5.0 * c1.M


def test_increasing_trace_rejected():
    t = np.linspace(0.0, 1.0, 100)
    with pytest.raises(HarnessError):
        wd.check_integral_inequality((t, 1.0 + t), lambda y: y)


def test_recheck_with_inflated_M_passes():
    chk = wd.check_integral_inequality(
        lambda t: 1.0 / (1.0 + t) ** 1.5, lambda y: y, mode="power_tail", horizon=1e5
    )
    assert np.all(chk.ratios <= chk.M * (1.0 + 1e-9))
    assert len(chk.S_values) == 50


def test_nonintegrable_tail_reported():
    # a fitted tail rate of -1 or shallower cannot be extended to infinity
    chk = wd.check_integral_inequality(
        lambda t: 1.0 / (1.0 + t) ** 0.4, lambda y: np.ones_like(y),
        mode="power_tail", horizon=1e4,
    )
    assert chk.M == math.inf


# ---------------------------------------------------------------------------
# lemma suite


def test_lemma_suite_passes():
    rep = wd.lemma_suite()
    names = [e.name for e in rep.entries]
    assert names == [
        "poly_bound_from_T",
        "poly_bound_from_0",
        "expo_bound",
        "general_weight_bound",
    ]
    for e in rep.entries:
        assert e.passed, f"{e.name}: {e.detail}"


# ---------------------------------------------------------------------------
# tail fitting


@pytest.mark.parametrize("c", [5.0, 0.02])
def test_fit_exact_power_law(c):
    t = np.geomspace(10.0, 1000.0, 200)
    rep = wd.fit_tail_exponent((t, c * t**-1.0), window=(10.0, 1000.0), mode="power")
    assert rep.slope == pytest.approx(-1.0, abs=1e-3)
    assert rep.stderr >= 0.0
    assert rep.r_squared > 0.999999


def test_fit_window_shift_approaches_asymptote():
    t = np.geomspace(1.0, 1e5, 2000)
    E = (1.0 + t) ** -2.0
    s_early = wd.fit_tail_exponent((t, E), window=(1.0, 100.0), mode="power").slope
    s_late = wd.fit_tail_exponent((t, E), window=(1e3, 1e5), mode="power").slope
    assert abs(s_late - (-2.0)) < abs(s_early - (-2.0))
    assert s_late == pytest.approx(-2.0, abs=1e-2)


def test_fit_exp_mode():
    t = np.linspace(5.0, 100.0, 400)
    rep = wd.fit_tail_exponent((t, 3.0 * np.exp(-0.3 * t)), window=(5.0, 100.0), mode="exp")
    assert rep.slope == pytest.approx(-0.3, abs=1e-6)


def test_fit_loglog_mode():
    t = np.geomspace(10.0, 1e6, 500)
    rep = wd.fit_tail_exponent((t, 2.0 / np.log(t)), window=(10.0, 1e6), mode="loglog")
    assert rep.slope == pytest.approx(-1.0, abs=1e-6)


def test_fit_stretched_mode():
    t = np.geomspace(10.0, 1e6, 500)
    E = np.exp(-2.0 * np.log(t) ** (1.0 / 3.0))
    rep = wd.fit_tail_exponent((t, E), window=(10.0, 1e6), mode="stretched", stretch_p=3.0)
    assert rep.slope == pytest.approx(-2.0, abs=1e-6)
    for stretch_p in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(HarnessError, match="stretch_p"):
            wd.fit_tail_exponent((t, E), window=(10.0, 1e6), mode="stretched", stretch_p=stretch_p)


def test_fit_needs_samples():
    t = np.geomspace(10.0, 1000.0, 5)
    with pytest.raises(HarnessError):
        wd.fit_tail_exponent((t, t**-1.0), window=(10.0, 1000.0))


def test_default_window_is_log_tail():
    t = np.geomspace(1e-3, 1e3, 100)
    lo, hi = wd.default_fit_window(t)
    assert hi == pytest.approx(1e3)
    assert lo == pytest.approx(1e1, rel=1e-6)  # last third of six decades


# ---------------------------------------------------------------------------
# envelope comparison and calibration


def test_compare_self_envelope(power3):
    env = wd.DecayEnvelope(kind="simplified", law=power3, beta=1.0, M=1.0)
    t = np.geomspace(env.domain_start(), 1e3, 120)
    E = np.array([wd.envelope_value(env, float(tv)) for tv in t])
    rep = wd.compare_to_envelope((t, E), env)
    lo, hi = rep.envelope_margins
    assert lo == pytest.approx(1.0, abs=1e-12)
    assert hi == pytest.approx(1.0, abs=1e-12)
    assert rep.passed


def _synthetic_trace(power3, expo, scale=2.0):
    t = np.geomspace(0.01, 2e3, 800)
    E = scale * (1.0 + t) ** expo
    e1 = np.full_like(t, 10.0)
    tr = wd.EnergyTrace(t=t, E=E, E1=e1, dissipation=np.zeros_like(t),
                        meta={"e1_0": "10.0"})
    return tr


def test_calibrate_upper_dominates(power3):
    tr = _synthetic_trace(power3, -1.0)
    env = wd.calibrate_upper(tr, power3, kind="simplified")
    rep = wd.compare_to_envelope(tr, env, t_start=env.extras["t_calibration"])
    lo, hi = rep.envelope_margins
    assert rep.passed
    assert hi == pytest.approx(1.0, rel=1e-4)  # touches at the worst point


# law parameters and the decay exponent a of a synthetic trace 2 (1+t)^-a
# that the law's envelopes can dominate
CALIBRATION_LAWS = {
    "power3": (dict(family="power", p=3.0, r0=1.0), 1.0),
    "exp_inv_square": (dict(family="exp_inv_square", r0=0.5), 0.5),
    "power_log": (dict(family="power_log", p=3.0, q=2.0), 1.0),
    "sub_exponential": (dict(family="sub_exponential", p=2.5), 0.5),
}


def _decay_trace(E):
    """Trace on a short six-decade time grid with the given energy profile."""
    t = np.geomspace(0.01, 2e3, 90)
    return wd.EnergyTrace(t=t, E=E(t), E1=np.full_like(t, 10.0),
                          dissipation=np.zeros_like(t), meta={"e1_0": "10.0"})


def _reference_M(trace, law, kind):
    """Smallest dominating M by geometric bisection on M, judged by
    compare_to_envelope; the lower bracket grows downward until it fails."""
    beta = wd.beta_floor(law, trace.e0)
    window = wd.default_fit_window(trace.t)
    t_cal = float(trace.t[trace.t >= window[0]][0])

    def dominates(m):
        env = wd.DecayEnvelope(kind=kind, law=law, beta=beta, M=m)
        return wd.compare_to_envelope(trace, env, t_start=t_cal).envelope_margins[1] <= 1.0

    hi = t_cal * wd.eval_H_prime(law, law.r0**2)
    assert dominates(hi)
    lo = hi
    while dominates(lo):
        lo *= 1e-8
    while hi / lo > 1.0 + 1e-7:
        mid = math.sqrt(lo * hi)
        if dominates(mid):
            hi = mid
        else:
            lo = mid
    return hi


@pytest.mark.parametrize("kind", ["simplified", "general"])
@pytest.mark.parametrize("law_name", sorted(CALIBRATION_LAWS))
def test_calibrate_upper_contract(law_name, kind):
    params, a = CALIBRATION_LAWS[law_name]
    law = wd.make_feedback(**params)
    tr = _decay_trace(lambda t: 2.0 * (1.0 + t) ** -a)
    env = wd.calibrate_upper(tr, law, kind=kind)
    assert type(env.M) is float
    rep = wd.compare_to_envelope(tr, env, t_start=env.extras["t_calibration"])
    if kind == "simplified":
        assert env.extras["margins"] == rep.envelope_margins
    else:
        # a general envelope evaluated again reads the psi0 cache the earlier
        # evaluations grew, so it can move at the inverses' 1e-12 tolerance
        assert env.extras["margins"] == pytest.approx(rep.envelope_margins, rel=1e-12, abs=0)
    assert 1.0 - 1e-6 <= rep.envelope_margins[1] <= 1.0 + 1e-9
    assert env.M == pytest.approx(_reference_M(tr, law, kind), rel=1e-6)

    flat = _decay_trace(lambda t: np.full_like(t, 2.0))  # needs M beyond the cap
    with pytest.raises(HarnessError):
        wd.calibrate_upper(flat, law, kind=kind)


def test_calibrate_upper_below_old_search_floor(exp_inv):
    # exp_inv_square traces can need an M far below m_cap * 1e-8, where a
    # bisection floored there stopped with the max margin well under 1
    tr = _decay_trace(lambda t: 2.0 * (1.0 + t) ** -0.5)
    env = wd.calibrate_upper(tr, exp_inv, kind="simplified")
    m_cap = env.extras["t_calibration"] * wd.eval_H_prime(exp_inv, exp_inv.r0**2)
    assert env.M < 1e-8 * m_cap
    rep = wd.compare_to_envelope(tr, env, t_start=env.extras["t_calibration"])
    assert 1.0 - 1e-6 <= rep.envelope_margins[1] <= 1.0 + 1e-9


@pytest.mark.parametrize("law_name", sorted(CALIBRATION_LAWS))
def test_calibrate_upper_general_is_repeatable(law_name):
    # a second calibration on the same trace and law starts from a cold psi0
    # cache too, so it repeats the first bit for bit
    params, a = CALIBRATION_LAWS[law_name]
    law = wd.make_feedback(**params, eps_clip=1.5e-16)  # a law no other test warms
    tr = _decay_trace(lambda t: 2.0 * (1.0 + t) ** -a)
    first = wd.calibrate_upper(tr, law, kind="general")
    again = wd.calibrate_upper(tr, law, kind="general")
    assert (again.M, again.extras["margins"]) == (first.M, first.extras["margins"])


@pytest.mark.parametrize("law_name", sorted(CALIBRATION_LAWS))
def test_compare_after_general_calibration_reuses_psi0_nodes(law_name, monkeypatch):
    # the calibration's verification pass inverted psi0 at the same t/M, so
    # every root now sits on or within 1e-12 of a cached node: each inversion
    # must end there instead of halving its way toward it
    params, a = CALIBRATION_LAWS[law_name]
    law = wd.make_feedback(**params, eps_clip=1.6e-16)  # a law no other test warms
    tr = _decay_trace(lambda t: 2.0 * (1.0 + t) ** -a)
    env = wd.calibrate_upper(tr, law, kind="general")
    calls = 0
    quadrature = transforms.adaptive_simpson

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return quadrature(*args, **kwargs)

    monkeypatch.setattr(transforms, "adaptive_simpson", counting)
    rep = wd.compare_to_envelope(tr, env, t_start=env.extras["t_calibration"])
    assert calls <= 2 * rep.n_points


@pytest.mark.parametrize("kind", ["simplified", "general"])
def test_calibrate_upper_errors(power3, exp_inv, linear_law, kind):
    # rising above 2 E(0), E / (2 beta) leaves the range of L and of H'^-1
    rising = _decay_trace(lambda t: 2.0 * (1.0 + t) ** 0.5)
    with pytest.raises(HarnessError) as info:
        wd.calibrate_upper(rising, power3, kind=kind)
    cause = info.value.__cause__
    assert isinstance(cause, TransformError)
    assert {
        "simplified": "lies above the simplified envelope's range",
        "general": "inverse_L domain is [0, 1.0)",
    }[kind] in str(cause)
    tr = _decay_trace(lambda t: 2.0 * (1.0 + t) ** -0.5)
    with pytest.raises(ClassificationError):
        wd.calibrate_upper(tr, linear_law, kind=kind)
    fast = _decay_trace(lambda t: 2.0 * (1.0 + t) ** -2.0)
    with pytest.raises(HarnessError):  # H'(E / 2 beta) underflows at every sample
        wd.calibrate_upper(fast, exp_inv, kind=kind)


def test_calibrate_lower_stays_below():
    # the contract: the envelope touches the samples its domain covers from
    # below, also when T1 lies beyond the window start, and the calibration's
    # own margins are compare_to_envelope's
    for law_name, (params, a_law) in sorted(CALIBRATION_LAWS.items()):
        law = wd.make_feedback(**params)
        assert wd.hfl_screen(law)
        for a in (a_law, 1.5, 2.0):
            tr = _decay_trace(lambda t: 2.0 * (1.0 + t) ** -a)
            for T1 in (0.0, 500.0):
                case = (law_name, a, T1)
                env = wd.calibrate_lower(tr, law, T1=T1)
                rep = wd.compare_to_envelope(tr, env)
                assert env.extras["margins"] == rep.envelope_margins, case
                assert abs(rep.envelope_margins[0] - 1.0) <= 1e-6, case
                assert rep.passed, case
                assert env.gamma_s == pytest.approx(4.0 * math.sqrt(10.0))


def test_compare_empty_overlap(power3):
    env = wd.DecayEnvelope(kind="simplified", law=power3, beta=1.0, M=1.0)
    t = np.geomspace(1e-4, 1e-3, 20)  # entirely before the envelope domain
    with pytest.raises(HarnessError):
        wd.compare_to_envelope((t, 1.0 / (1.0 + t)), env)


# ---------------------------------------------------------------------------
# full experiment


P3_CONFIG = """
[law]
family = power
p = 3.0
r0 = 1.0

[coefficients]
alpha_profile = indicator
alpha_support = 0.4, 0.9
alpha_floor = 0.2
a_profile = indicator
a_support = 0.2, 0.6
a_floor = 1.0

[grid]
n = 99

[time]
t_final = 60
stride = 40

[output]
dir = {out}
name = exp1
"""

UNDAMPED_CONFIG = """
[law]
family = power
p = 3.0
r0 = 1.0

[grid]
n = 99

[time]
t_final = 10
stride = 20

[initial]
v0 = zero

[output]
dir = {out}
name = cons1
"""


def test_run_experiment_damped(tmp_path):
    cfg = wd.parse_config_text(P3_CONFIG.format(out=tmp_path))
    res = wd.run_experiment(cfg)
    assert res.passed
    assert res.summary["monotone_pass"]
    assert math.isfinite(res.summary["M_optimal_weight"])
    assert res.summary["upper_pass"]
    assert res.summary["lower_pass"]
    assert (tmp_path / "exp1.trace.csv").exists()
    assert (tmp_path / "exp1.report.kv").exists()
    kv = (tmp_path / "exp1.report.kv").read_text()
    assert "geometry_1d=control/damping regions" in kv


def test_run_experiment_summary_builtin_types(tmp_path):
    cfg = wd.parse_config_text(P3_CONFIG.format(out=tmp_path))
    res = wd.run_experiment(cfg, write_files=False)
    assert "lower_C_s" in res.summary
    bad = {k: type(v).__name__ for k, v in res.summary.items()
           if type(v) not in (str, int, float, bool)}
    assert not bad


def test_run_experiment_deterministic(tmp_path):
    """A second run writes the same bytes and leaves every output file in place."""
    cfg_text = P3_CONFIG.format(out=tmp_path)
    res = wd.run_experiment(wd.parse_config_text(cfg_text))
    paths = [res.trace_path, res.report_kv, res.report_txt]
    first = {p: (os.stat(p).st_ino, Path(p).read_bytes()) for p in paths}
    wd.run_experiment(wd.parse_config_text(cfg_text))
    assert {p: (os.stat(p).st_ino, Path(p).read_bytes()) for p in paths} == first
    assert sorted(os.listdir(tmp_path)) == sorted(os.path.basename(p) for p in paths)


def test_atomic_write(tmp_path):
    target = tmp_path / "out.txt"
    path = str(target)
    _atomic_write(path, "abc\n")
    assert target.read_bytes() == b"abc\n"

    # identical content: same inode and bytes, mtime not moved backwards
    st = os.stat(path)
    os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns - 10**9))
    old_mtime = os.stat(path).st_mtime_ns
    _atomic_write(path, "abc\n")
    st2 = os.stat(path)
    assert st2.st_ino == st.st_ino
    assert st2.st_mtime_ns >= old_mtime
    assert target.read_bytes() == b"abc\n"
    assert os.listdir(tmp_path) == ["out.txt"]

    # same size, different bytes, then a different size: both rewritten
    for content in ("abd\n", "longer content\n"):
        _atomic_write(path, content)
        assert target.read_bytes() == content.encode()
        assert os.listdir(tmp_path) == ["out.txt"]


def test_run_experiment_linear(tmp_path):
    """A linear-like law has no optimal weight: the run measures M with the
    unit weight, skips both envelopes, and passes."""
    text = P3_CONFIG.format(out=tmp_path).replace("family = power\np = 3.0\n", "family = linear\n")
    cfg = wd.parse_config_text(text.replace("n = 99", "n = 49").replace("t_final = 60", "t_final = 300"))
    res = wd.run_experiment(cfg, write_files=False)
    s = res.summary
    assert res.passed and s["passed"] and s["monotone_pass"]
    assert "beta" not in s and "M_optimal_weight" not in s
    assert 1.0 < s["M_unit_weight"] < 1e3
    assert s["fit_mode"] == "exp" and s["fit_slope"] < 0.0 and s["fit_r2"] > 0.999
    assert "linear-like" in s["upper_envelope"]
    assert s["lower_envelope"] == wd.harness.LOWER_UNSCREENED


@pytest.mark.parametrize("p", [1.0000001, 1.001, 1.01])
def test_lower_envelope_of_near_linear_power_laws(tmp_path, p):
    """p = 1 + 1e-7 is linear-like by the test both envelopes apply, so the
    lower envelope is not screened in.  Above that, (H')^-1(1/(t - T0)) =
    (2/((p + 1)(t - T0)))^(2/(p - 1)) underflows to 0 at the lower
    calibration's samples of a run to t = 200: at all of them for
    p = 1.001, at most of them for p = 1.01."""
    text = P3_CONFIG.format(out=tmp_path).replace("p = 3.0", f"p = {p!r}")
    text = text.replace("n = 99", "n = 49").replace("t_final = 60", "t_final = 200")
    cfg = wd.parse_config_text(text.replace("stride = 40", "stride = 60"))
    s = wd.run_experiment(cfg, write_files=False).summary
    if p == 1.0000001:
        assert "linear-like" in s["upper_envelope"]
        assert s["lower_envelope"] == wd.harness.LOWER_UNSCREENED
        return
    if p == 1.001:
        assert s["lower_envelope"].startswith("skipped: lower-envelope calibration failed")
        return
    assert s["lower_pass"] and s["lower_margin_max"] == math.inf
    # the underflowed samples' ratios are E / 0 = inf, as compare_to_envelope forms them
    trace = wd.run(cfg.sim, meta={})
    window = wd.harness.default_fit_window(trace.t, cfg.fit.window)
    env = wd.calibrate_lower(trace, cfg.law, window=window)
    rep = wd.compare_to_envelope(trace, env)
    assert env.extras["margins"] == rep.envelope_margins == (s["lower_margin_min"], math.inf)


def test_run_experiment_undamped(tmp_path):
    cfg = wd.parse_config_text(UNDAMPED_CONFIG.format(out=tmp_path))
    res = wd.run_experiment(cfg)
    assert res.passed
    assert res.summary["conservation_pass"]
    assert res.summary["fit"] == "not attempted (undamped run)"


def test_config_validation_errors():
    for line in ("p = 0.5", "p = nan", "p = inf", "p = 3\nq = nan", "p = 3\neps_clip = nan"):
        with pytest.raises(wd.ConfigError):
            wd.parse_config_text(f"[law]\nfamily = power\n{line}\n")
    with pytest.raises(wd.ConfigError):
        wd.parse_config_text("[law]\nfamily = sub_exponential\np = nan\n")
    with pytest.raises(wd.ConfigError):
        wd.parse_config_text("[law]\nfamily = power\np = 3\n[nosuch]\nx = 1\n")
    with pytest.raises(wd.ConfigError):
        wd.parse_config_text("[law]\nfamily = power\np = 3\n[grid]\nteeth = 9\n")
    with pytest.raises(wd.ConfigError):
        wd.parse_config_text("no sections at all")
    # values that do not parse, and the envelope constants that have no key:
    # every run calibrates them
    law = "[law]\nfamily = power\np = 3\n"
    for bad in (
        "[coefficients]\na_profile = indicator\na_support = 0.2, 0.6\na_floor = x\n",
        "[coefficients]\nalpha_profile = indicator\nalpha_support = 0.4, x\n",
        "[coefficients]\nalpha_max = big\n",
        "[envelope]\nt1 = x\n",
        "[fit]\nwindow = a, b\n",
        "[initial]\nu0 = sine:x:1.0\n",
        "[initial]\nv1 = bump:0.2:x:1.0\n",
        "[initial]\nsmooth = maybe\n",
        # numbers that parse but are not finite
        "[coefficients]\nalpha_profile = indicator\nalpha_support = 0.4, 0.9\nalpha_floor = nan\n",
        "[coefficients]\na_profile = indicator\na_support = 0.2, 0.6\na_floor = inf\n",
        "[time]\nt_final = inf\n",
        "[time]\nt_final = nan\n",
        *(f"[envelope]\n{key} = 1\n" for key in ("beta", "m", "kappa", "gamma_c", "t0")),
        *(f"[coefficients]\n{key} = 5\n" for key in ("a_cap", "alpha_cap")),
    ):
        with pytest.raises(wd.ConfigError):
            wd.parse_config_text(law + bad)
    # smooth takes configparser's boolean words
    assert wd.parse_config_text(law + "[initial]\nsmooth = off\n").sim.smooth is False
    assert wd.parse_config_text(law + "[initial]\nsmooth = on\n").sim.smooth is True
    # a SimConfig built in Python meets the same t_final check in the run
    sim = wd.parse_config_text(law).sim
    for t_final in (math.inf, math.nan):
        with pytest.raises(wd.SimError, match="t_final must be finite and positive"):
            wd.run(dataclasses.replace(sim, t_final=t_final))


def test_config_digest_covers_physics_only(tmp_path):
    """Comments and [output] leave the digest alone; a physics change moves it."""
    base = wd.parse_config_text(P3_CONFIG.format(out=tmp_path / "a")).digest
    commented = "# a comment\n" + P3_CONFIG.format(out=tmp_path / "b").replace(
        "n = 99", "n = 99  ; grid size"
    )
    assert wd.parse_config_text(commented).digest == base
    other_p = P3_CONFIG.format(out=tmp_path / "a").replace("p = 3.0", "p = 5.0", 1)
    assert wd.parse_config_text(other_p).digest != base


@pytest.mark.parametrize("name, digest", [
    ("cubic_damping.ini", "c9d56752991c990e"),
    ("exp_inv_square.ini", "fd411b1479709440"),
    ("linear_damping.ini", "d45fcc26f32ef136"),
])
def test_shipped_config_digests(name, digest):
    """The digest line of every shipped config's trace and reports."""
    path = Path(__file__).resolve().parents[1] / "configs" / name
    assert wd.load_config(path).digest == digest


def test_config_defaults_are_the_dataclasses():
    """A config that sets only its law gets every other value from the
    dataclasses' own defaults."""
    cfg = wd.parse_config_text("[law]\nfamily = power\np = 3\n")
    assert cfg == wd.ExperimentConfig(sim=wd.SimConfig(law=wd.make_feedback("power", p=3.0)))


def test_report_law_follows_replaced_sim(tmp_path):
    """cfg.law is the law of cfg.sim: a run whose sim got another law
    calibrates and reports with that law."""
    cfg = wd.parse_config_text(P3_CONFIG.format(out=tmp_path))
    p5 = wd.make_feedback("power", p=5.0, r0=1.0)
    cfg.sim = dataclasses.replace(cfg.sim, law=p5, n=49, t_final=20.0)
    assert cfg.law is p5
    res = wd.run_experiment(cfg, write_files=False)
    assert res.trace.meta["law_p"] == "5"
    assert res.summary["law"] == repr(p5)


def test_config_digest_follows_replaced_sim(tmp_path):
    """A run whose sim was replaced after parsing carries that run's digest."""
    text = P3_CONFIG.format(out=tmp_path)
    cfg = wd.parse_config_text(text)
    parsed = cfg.digest
    cfg.sim = dataclasses.replace(cfg.sim, n=49, t_final=20.0)
    smaller = text.replace("n = 99", "n = 49").replace("t_final = 60", "t_final = 20")
    assert cfg.digest != parsed
    assert cfg.digest == wd.parse_config_text(smaller).digest
    res = wd.run_experiment(cfg)
    assert res.summary["config_digest"] == cfg.digest
    assert f"# config_digest={cfg.digest}" in Path(res.trace_path).read_text().splitlines()
