"""Experiment orchestration: weighted integral inequalities, decay-rate fits,
envelope calibration and comparison, and full config-driven runs.

The weighted inequality at the center of everything is

    int_S^T w(E(t)) E(t) dt <= M E(S)   for all 0 <= S <= T;

check_integral_inequality measures the smallest such M on a trace (trapezoid
in time, the supremum taken over a grid of start points) and optionally
extends the horizon by extrapolating a fitted power-law tail.  The decay
bounds that follow from that inequality (polynomial, exponential, and the
general-weight form) are exercised against synthetic traces by lemma_suite.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .config import ExperimentConfig
from .feedback import FeedbackLaw, LawError
from .numutil import RootError, invert_increasing
from .odecmp import hfl_screen
from .sim import EnergyTrace, run
from .transforms import (
    _PSI0_CACHE,
    DecayEnvelope,
    TransformError,
    _away_from_linear,
    _c0,
    beta_floor,
    envelope_M,
    envelope_value,
    hprime_inv,
    optimal_weight,
    upper_kind,
    weight_psi_r,
)


class HarnessError(ValueError):
    pass


MONOTONE_STEP_TOL = 1e-11  # relative to E(0), per sampled step
INTEGRAL_STARTS = 50  # start points S of the weighted integral inequality
UPPER_MARGIN_SLACK = 1.0 + 1e-9
LOWER_MARGIN_SLACK = 1.0 - 1e-9
GENERAL_ENVELOPE_POINTS = 256  # the general envelope is costly per point
UPPER_CORRECTION_PASSES = 8  # verification passes of the upper calibration
LOWER_UNSCREENED = "skipped: rough data or law fails screening"
UNDOMINATED = (
    "upper-envelope calibration failed: trace cannot be dominated "
    "with the envelope domain starting inside the window"
)


def _trace_arrays(trace) -> tuple[np.ndarray, np.ndarray]:
    """(t, E) as float arrays, from an EnergyTrace or a (t, E) pair."""
    if isinstance(trace, EnergyTrace):
        trace = trace.t, trace.E
    t, E = trace
    return np.asarray(t, dtype=float), np.asarray(E, dtype=float)


# ---------------------------------------------------------------------------
# weighted integral inequality


@dataclass
class IntegralCheck:
    M: float
    S_values: np.ndarray
    ratios: np.ndarray
    tail: float
    tail_extrapolated: bool


def _dense_grid(horizon: float) -> np.ndarray:
    t_break = min(1.0, horizon)
    lin = np.linspace(0.0, t_break, 4001)
    if horizon <= t_break:
        return lin
    n_geo = min(int(math.log(horizon / t_break) / 1e-4) + 2, 200_001)
    geo = np.geomspace(t_break, horizon, n_geo)
    return np.unique(np.concatenate([lin, geo]))


def _weight_values(weight, E: np.ndarray) -> np.ndarray:
    try:
        w = np.asarray(weight(E), dtype=float)
        if w.shape == E.shape:
            return w
    except Exception:
        pass
    return np.array([weight(float(e)) for e in E])


def _power_tail(t, f, t_end):
    """Extrapolated integral of f beyond t_end from a last-decade power-law fit."""
    sel = (t >= t_end / 10.0) & (f > 0.0) & (t > 0.0)
    if sel.sum() < 5:
        return 0.0, False
    lt, lf = np.log(t[sel]), np.log(f[sel])
    slope, intercept = np.polyfit(lt, lf, 1)
    if slope >= -1.0 - 1e-6:
        return math.inf, True  # tail not integrable under the fitted rate
    # int_T^inf C s^slope ds with C = exp(intercept)
    tail = math.exp(intercept) * t_end ** (slope + 1.0) / (-(slope + 1.0))
    return tail, True


def check_integral_inequality(
    trace_or_function,
    weight,
    mode: str = "finite",
    horizon: float | None = None,
) -> IntegralCheck:
    """Smallest M with int_S^T w(E) E dt <= M E(S) over a grid of 50 starts.

    Accepts an EnergyTrace, a (t, E) pair, or a callable E(t) (which then
    needs a horizon; it is sampled on a dense hybrid linear/geometric grid).
    mode='power_tail' extends the integral beyond the final time using a
    power law fitted to the last decade.
    """
    if callable(trace_or_function):
        if horizon is None:
            raise HarnessError("a callable input needs an explicit horizon")
        t = _dense_grid(horizon)
        E = np.array([trace_or_function(float(x)) for x in t])
    else:
        t, E = _trace_arrays(trace_or_function)
    if len(t) < 3:
        raise HarnessError("need at least 3 samples")
    e_scale = max(E[0], 1e-300)
    if np.any(np.diff(E) > 1e-12 * e_scale):
        raise HarnessError("input must be nonincreasing")

    f = _weight_values(weight, E) * E
    seg = 0.5 * (f[1:] + f[:-1]) * np.diff(t)
    right = np.concatenate([np.cumsum(seg[::-1])[::-1], [0.0]])

    tail, extrapolated = 0.0, False
    if mode == "power_tail":
        tail, extrapolated = _power_tail(t, f, float(t[-1]))
    elif mode != "finite":
        raise HarnessError(f"mode must be 'finite' or 'power_tail', got {mode!r}")

    idx = np.unique(np.round(np.linspace(0, len(t) - 1, INTEGRAL_STARTS)).astype(int))
    ratios = []
    svals = []
    for i in idx:
        if E[i] <= 0.0:
            continue
        ratios.append((right[i] + tail) / E[i])
        svals.append(t[i])
    if not ratios:
        raise HarnessError("no start points with positive energy")
    ratios = np.array(ratios)
    return IntegralCheck(
        M=float(np.max(ratios)),
        S_values=np.array(svals),
        ratios=ratios,
        tail=tail,
        tail_extrapolated=extrapolated,
    )


# ---------------------------------------------------------------------------
# synthetic decay-bound suite


@dataclass
class SuiteEntry:
    name: str
    passed: bool
    detail: str


@dataclass
class SuiteReport:
    entries: list[SuiteEntry] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def add(self, name: str, passed: bool, detail: str) -> None:
        self.entries.append(SuiteEntry(name, bool(passed), detail))


def lemma_suite() -> SuiteReport:
    """Battery of synthetic checks of the decay bounds implied by the
    weighted integral inequality: the polynomial bound (two forms), the
    exponential bound, and the general-weight bound.
    """
    rep = SuiteReport()

    # The measured M carries the extrapolated-tail error amplified by 1/E at
    # late start points, so its sanity tolerance is loose; the substantive
    # assertion is that the concluded bound dominates pointwise (with the
    # measured M as the hypothesis constant, which only weakens the bound).

    # polynomial bound, form valid from t >= T: E = 1/(1+t), alpha = 1
    alpha = 1.0
    chk = check_integral_inequality(
        lambda t: 1.0 / (1.0 + t), lambda y: y**alpha, mode="power_tail", horizon=1e4
    )
    T = chk.M  # E(0) = 1 so the E(0)^alpha factor drops
    ts = np.geomspace(max(T, 1e-6), 1e3, 200)
    e = 1.0 / (1.0 + ts)
    bound = ((T + alpha * ts) / (T + alpha * T)) ** (-1.0 / alpha)
    ok = bool(np.all(e <= bound * UPPER_MARGIN_SLACK))
    rep.add(
        "poly_bound_from_T",
        ok and abs(chk.M - 1.0) < 1e-2,
        f"measured M={chk.M:.8f}, max E/bound={np.max(e / bound):.6f}",
    )

    # polynomial bound valid from t = 0: E = (1+t)^-2, alpha = 1/2
    alpha = 0.5
    chk = check_integral_inequality(
        lambda t: (1.0 + t) ** -2.0, lambda y: y**alpha, mode="power_tail", horizon=1e4
    )
    M = chk.M
    ts = np.concatenate([[0.0], np.geomspace(1e-3, 1e3, 200)])
    e = (1.0 + ts) ** -2.0
    bound = np.minimum(1.0, (M * (alpha + 1.0) / (M + alpha * ts)) ** (1.0 / alpha))
    ok = bool(np.all(e <= bound * UPPER_MARGIN_SLACK))
    rep.add(
        "poly_bound_from_0",
        ok and abs(chk.M - 0.5) < 1e-2,
        f"measured M={chk.M:.8f}, max E/bound={np.max(e / bound):.6f}",
    )

    # exponential bound: E = e^-t, unit weight (dense linear grid: no tail)
    tg = np.linspace(0.0, 40.0, 40001)
    chk = check_integral_inequality((tg, np.exp(-tg)), lambda y: np.ones_like(y), mode="finite")
    T = chk.M
    ts = np.linspace(T, 30.0, 200)
    e = np.exp(-ts)
    bound = np.exp(1.0 - ts / T)
    ok = bool(np.all(e <= bound * UPPER_MARGIN_SLACK))
    rep.add(
        "expo_bound",
        ok and abs(chk.M - 1.0) < 1e-5,
        f"measured M={chk.M:.8f}, max E/bound={np.max(e / bound):.6f}",
    )

    # general-weight bound: E = 1/(1+t), w = identity
    w = lambda y: y
    chk = check_integral_inequality(lambda t: 1.0 / (1.0 + t), w, mode="power_tail", horizon=1e4)
    M = chk.M
    total = float(chk.ratios[0] * 1.0)  # ratio at S=0 equals int_0^inf E w(E) since E(0)=1
    r = total / M if M > 0 else 1.0
    t_lo = M / w(r)
    ts = np.geomspace(t_lo, 1e3, 25)
    ok = True
    worst = 0.0
    for tv in ts:
        z = invert_increasing(
            lambda zz: weight_psi_r(w, r, zz, "psi"), tv / M, lo=1.0 / w(r), xtol=1e-9
        )
        bound = 1.0 / z  # w^{-1} is the identity here
        ratio = (1.0 / (1.0 + tv)) / bound
        worst = max(worst, ratio)
        if ratio > UPPER_MARGIN_SLACK:
            ok = False
    rep.add(
        "general_weight_bound",
        ok,
        f"measured M={M:.8f}, r={r:.8f}, max E/bound={worst:.6f}",
    )
    return rep


# ---------------------------------------------------------------------------
# tail fits and envelope comparison


@dataclass
class FitReport:
    slope: float
    stderr: float
    window: tuple[float, float]
    r_squared: float
    n_points: int
    mode: str
    envelope_margins: tuple[float, float] | None = None
    passed: bool | None = None


def default_fit_window(t: np.ndarray, fracs: tuple[float, float] = (2.0 / 3.0, 1.0)):
    """Window given as fractions of the trace's span in log time."""
    pos = np.asarray(t, dtype=float)
    pos = pos[pos > 0.0]
    if len(pos) < 2:
        raise HarnessError("trace has too few positive-time samples to window")
    llo, lhi = math.log(pos[0]), math.log(pos[-1])
    return (
        math.exp(llo + fracs[0] * (lhi - llo)),
        math.exp(llo + fracs[1] * (lhi - llo)),
    )


def fit_tail_exponent(
    trace, window: tuple[float, float] | None = None, mode: str = "power", stretch_p: float = 3.0
) -> FitReport:
    """Least-squares slope of log E against a mode-dependent abscissa.

    mode 'power':     log E vs log t          (slope = power-law exponent)
    mode 'loglog':    log E vs log log t      (slow, logarithmic decay)
    mode 'stretched': log E vs (log t)^(1/p)  (between polynomial and exponential)
    mode 'exp':       log E vs t              (exponential decay rate)
    """
    t, E = _trace_arrays(trace)
    if window is None:
        window = default_fit_window(t)
    w0, w1 = window
    if not (w0 < w1):
        raise HarnessError("degenerate fit window")
    t_floor = 1.0 + 1e-9 if mode in ("loglog", "stretched") else 0.0
    sel = (t >= w0) & (t <= w1) & (E > 0.0) & (t > t_floor)
    if sel.sum() < 10:
        raise HarnessError(f"fewer than 10 usable samples in window [{w0:g}, {w1:g}]")
    ts, es = t[sel], E[sel]
    if mode == "power":
        x = np.log(ts)
    elif mode == "loglog":
        x = np.log(np.log(ts))
    elif mode == "stretched":
        if not 0.0 < stretch_p < math.inf:
            raise HarnessError(f"stretch_p must be finite and positive, got {stretch_p!r}")
        x = np.log(ts) ** (1.0 / stretch_p)
    elif mode == "exp":
        x = ts
    else:
        raise HarnessError(f"unknown fit mode {mode!r}")
    y = np.log(es)
    n = len(x)
    xm, ym = x.mean(), y.mean()
    sxx = float(np.sum((x - xm) ** 2))
    if sxx == 0.0:
        raise HarnessError("degenerate abscissa in fit window")
    slope = float(np.sum((x - xm) * (y - ym)) / sxx)
    resid = y - (ym + slope * (x - xm))
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((y - ym) ** 2))
    stderr = math.sqrt(ss_res / max(n - 2, 1) / sxx)
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 1.0
    return FitReport(
        slope=slope,
        stderr=stderr,
        window=(float(w0), float(w1)),
        r_squared=r2,
        n_points=n,
        mode=mode,
    )


def compare_to_envelope(
    trace, envelope: DecayEnvelope, t_start: float | None = None
) -> FitReport:
    """Margins min/max of E(t)/envelope(t) over the envelope's valid domain.

    Upper envelopes pass when the max margin stays at or below 1; the lower
    envelope passes when the min margin stays at or above 1 (tiny slack for
    the touch point itself).  The general envelope is costly per point, so
    its margins are evaluated on a subsample of GENERAL_ENVELOPE_POINTS.
    """
    t, E = _trace_arrays(trace)
    lo = envelope.domain_start()
    if t_start is not None:
        lo = max(lo, t_start)
    max_points = GENERAL_ENVELOPE_POINTS if envelope.kind == "general" else None
    ts, es = _window_samples(t, E, lo * (1.0 - 1e-12), max_points)
    env = np.array([envelope_value(envelope, float(tv)) for tv in ts])
    with np.errstate(divide="ignore"):  # E / 0 = inf: an envelope that underflows
        ratios = es / env
    margins = (float(np.min(ratios)), float(np.max(ratios)))
    if envelope.kind == "lower":
        passed = margins[0] >= LOWER_MARGIN_SLACK
    else:
        passed = margins[1] <= UPPER_MARGIN_SLACK
    return FitReport(
        slope=math.nan,
        stderr=math.nan,
        window=(float(ts[0]), float(ts[-1])),
        r_squared=math.nan,
        n_points=int(len(ts)),
        mode=f"envelope:{envelope.kind}",
        envelope_margins=margins,
        passed=passed,
    )


# ---------------------------------------------------------------------------
# envelope calibration


def _window_samples(t: np.ndarray, E: np.ndarray, t_lo: float, max_points: int | None = None):
    """Positive-energy samples at t >= t_lo, thinned to at most max_points
    evenly spaced in index (the first and last are kept)."""
    sel = (t >= t_lo) & (E > 0.0)
    if not sel.any():
        raise HarnessError(f"no positive-energy samples at or beyond t = {t_lo:g}")
    ts, es = t[sel], E[sel]
    if max_points is not None and len(ts) > max_points:
        idx = np.unique(np.round(np.linspace(0, len(ts) - 1, max_points)).astype(int))
        ts, es = ts[idx], es[idx]
    return ts, es


def calibrate_upper(
    trace: EnergyTrace,
    law: FeedbackLaw,
    kind: str = "auto",
    window: tuple[float, float] | None = None,
) -> DecayEnvelope:
    """Smallest upper envelope dominating the trace on the fit window.

    beta is its smallest admissible value E(0)/(2 L(H'(r0^2))) (beta_floor),
    the beta of the report and of the integral check.  Both upper envelopes
    rise with M, so each windowed sample (t_i, E_i) needs M >=
    envelope_M(t_i, E_i), the M at which the envelope passes through it, and
    the calibrated M is the largest of these: the envelope touches the trace
    at its worst sample.  The general kind calibrates on a
    subsample of GENERAL_ENVELOPE_POINTS, the points compare_to_envelope
    uses.  The result is verified with envelope_value at every sample; where
    the numerical inverses leave a sample above the envelope, M is raised by
    that sample's shortfall, for at most UPPER_CORRECTION_PASSES passes.
    The law's psi0 cache is emptied first, so the result does not depend on
    which psi0 values earlier calls computed.
    The returned envelope carries the first sample's time in
    extras["t_calibration"] and the (min, max) of the final verification's
    ratios E/envelope in extras["margins"]: the margins compare_to_envelope
    reports from t_calibration on, without evaluating the envelope again.

    M is capped so the envelope's domain still starts at the window's left
    edge.  A trace that needs a larger M, or has a sample above everything
    the envelope reaches (E/(2 beta) beyond the range of L, as for a trace
    that rises above 2 E(0)), raises HarnessError.  A linear-like law raises
    ClassificationError.
    """
    kind = upper_kind(law, kind)
    if kind not in ("general", "simplified"):
        raise HarnessError(f"upper envelope kind must be general or simplified, got {kind!r}")
    _PSI0_CACHE.pop(law, None)
    if window is None:
        window = default_fit_window(trace.t)
    max_pts = GENERAL_ENVELOPE_POINTS if kind == "general" else None
    ts, es = _window_samples(trace.t, trace.E, window[0], max_points=max_pts)
    samples = list(zip(ts.tolist(), es.tolist()))
    m_cap = samples[0][0] * _c0(law)

    env = DecayEnvelope(kind=kind, law=law, beta=beta_floor(law, trace.e0), M=m_cap)
    env.extras["t_calibration"] = samples[0][0]
    try:
        # in order of t, so each psi0 quadrature starts from the previous node
        M = max(envelope_M(env, tv, ev) for tv, ev in samples)
        if M == 0.0:
            raise HarnessError("upper-envelope calibration failed: the required M underflows to 0")
        for k in range(UPPER_CORRECTION_PASSES):
            if not M <= m_cap:
                raise HarnessError(UNDOMINATED)
            env.M = M
            ratios = [ev / envelope_value(env, tv) for tv, ev in samples]
            shortfall = max(ratios)
            if shortfall <= 1.0:
                env.extras["margins"] = (float(min(ratios)), float(shortfall))
                return env
            # growing powers: the envelope can rise far slower than M, and a
            # bare shortfall of 1e-13 drowns in the inverses' tolerances
            M *= shortfall ** (8 ** (k + 1))
    except (TransformError, LawError, RootError) as exc:
        raise HarnessError(UNDOMINATED) from exc
    raise HarnessError(
        f"upper-envelope calibration failed: the envelope at M = {M:g} stays "
        f"below the trace after {UPPER_CORRECTION_PASSES} corrections"
    )


def calibrate_lower(
    trace: EnergyTrace,
    law: FeedbackLaw,
    T1: float = 0.0,
    window: tuple[float, float] | None = None,
) -> DecayEnvelope:
    """Largest lower envelope staying below the trace on the tail window.

    gamma_s comes from the initial first-order energy (4 sqrt(E1(0))); T0 is
    estimated as the first sample with E <= (r0^2/gamma_s)^2 (0 when the
    trace never gets there).  T1, the config's [envelope] t1, is the one
    constant a caller sets.  The samples start at the latest of the window's
    left edge, T0 + 1.000001 / H'(r0^2) and T0 + T1, so the envelope's domain
    covers every one of them; the remaining constant is fixed so the envelope
    touches those samples from below at its worst point.  The returned
    envelope carries the first sample's time in extras["t_calibration"] and
    the (min, max) of E/envelope over the samples in extras["margins"]: the
    margins compare_to_envelope reports, bit for bit, without evaluating the
    envelope again.
    """
    e1_0 = float(trace.meta.get("e1_0", "nan"))
    gamma_s = 4.0 * math.sqrt(e1_0) if math.isfinite(e1_0) and e1_0 > 0.0 else 1.0
    hit = np.nonzero(trace.E <= (law.r0**2 / gamma_s) ** 2)[0]
    T0 = float(trace.t[hit[0]]) if len(hit) else 0.0
    if window is None:
        window = default_fit_window(trace.t)
    c0 = _c0(law)
    t_min = max(window[0], T0 + 1.000001 / c0, T0 + T1)
    ts, es = (a.tolist() for a in _window_samples(trace.t, trace.E, t_min))
    # each sample's (H')^{-1}(1/(t - T0)), as odecmp.lower_envelope forms it
    xs = [hprime_inv(law, min(1.0 / (tv - T0), c0)) for tv in ts]
    if not any(xs):
        raise HarnessError(
            "lower-envelope calibration failed: (H')^-1(1/(t - T0)) underflows to 0 at every sample"
        )
    # largest constant keeping the envelope at or below every sample
    gc = max(x / math.sqrt(ev) for x, ev in zip(xs, es))
    env = DecayEnvelope(
        kind="lower",
        law=law,
        gamma_s=gamma_s,
        C_s=gc / gamma_s,
        T0=T0,
        T1=max(T1, ts[0] - T0),
    )
    scale = env.gamma_s * env.C_s
    # E / 0 = inf where the envelope underflows, as compare_to_envelope forms it
    bounds = [(x / scale) ** 2 for x in xs]
    ratios = [ev / b if b > 0.0 else math.inf for b, ev in zip(bounds, es)]
    env.extras["t_calibration"] = ts[0]
    env.extras["margins"] = (min(ratios), max(ratios))
    return env


# ---------------------------------------------------------------------------
# experiment driver


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    trace: EnergyTrace
    summary: dict
    passed: bool
    trace_path: str = ""
    report_txt: str = ""
    report_kv: str = ""


def envelope_summary(trace: EnergyTrace, cfg: ExperimentConfig, window) -> dict[str, object]:
    """Report entries of the upper and lower envelopes calibrated on window.

    Both envelopes' margins are their calibrations' own extras["margins"],
    so no envelope is evaluated a second time.  A calibration that raises
    gives '<upper|lower>_envelope' = 'skipped: ...';
    the lower envelope is skipped, as LOWER_UNSCREENED, for rough data (its
    gamma_s needs smooth data) and for laws that fail hfl_screen.
    """
    law, ecfg = cfg.law, cfg.envelope
    out: dict[str, object] = {}
    try:
        upper = calibrate_upper(trace, law, kind=ecfg.kind, window=window)
        lo, hi = upper.extras["margins"]
        out.update(
            upper_kind=upper.kind,
            upper_M=upper.M,
            upper_margin_min=lo,
            upper_margin_max=hi,
            upper_pass=hi <= UPPER_MARGIN_SLACK,
        )
    except (TransformError, HarnessError, RootError) as exc:
        out["upper_envelope"] = f"skipped: {exc}"

    if not (cfg.sim.smooth and hfl_screen(law)):
        out["lower_envelope"] = LOWER_UNSCREENED
        return out
    try:
        lower = calibrate_lower(trace, law, T1=ecfg.T1, window=window)
        lo, hi = lower.extras["margins"]
        out.update(
            lower_T0=lower.T0,
            lower_gamma_s=lower.gamma_s,
            lower_C_s=lower.C_s,
            lower_margin_min=lo,
            lower_margin_max=hi,
            lower_pass=lo >= LOWER_MARGIN_SLACK,
        )
    except (TransformError, HarnessError, RootError) as exc:
        out["lower_envelope"] = f"skipped: {exc}"
    return out


def _atomic_write(path: str, content: str) -> None:
    """Write content to path atomically, leaving a file that already holds it alone.

    Every output file of the package is written here.  When path already
    holds exactly these bytes, only its mtime is refreshed (os.utime): the
    file keeps its inode, stays complete and no temp file is made.  Otherwise
    content goes to path + ".tmp", which os.replace then moves over path, so
    a reader never sees a partly written file.

    The skip exists because replacing a non-empty file is slow where it
    matters most, on a rerun over configs whose results did not change: on
    ext4 with its default auto_da_alloc, truncating a file or renaming over
    it forces the new data to disk first, at a median 64 ms per file on a
    2-core Linux host, against 0.01 ms to create a file.
    """
    data = content.encode()
    try:
        if os.path.getsize(path) == len(data):
            with open(path, "rb") as fh:
                if fh.read() == data:
                    os.utime(path)
                    return
    except FileNotFoundError:
        pass
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def run_experiment(cfg: ExperimentConfig, write_files: bool = True) -> ExperimentResult:
    """Simulate, check the weighted inequality, fit the tail, compare envelopes.

    Produces <out>/<name>.trace.csv plus a plain-text report and a flat
    key=value report.  All outputs are deterministic functions of the config.
    """
    digest = cfg.digest
    trace = run(cfg.sim, meta={"config_digest": digest, "name": cfg.name})
    law = cfg.law
    e0 = trace.e0
    summary: dict[str, object] = {
        "name": cfg.name,
        "config_digest": digest,
        "law": repr(law),
        "n": cfg.sim.n,
        "dt": float(trace.meta["dt"]),
        "backend": trace.meta["backend"],
        "e0": e0,
        "e1_0": float(trace.meta["e1_0"]),
        "geometry_1d": trace.meta["geometry_1d"],
        "early_stop": trace.meta["early_stop"],
    }
    checks: list[bool] = []

    damped = cfg.sim.a_field is not None and cfg.sim.a_field.floor > 0.0
    if not damped:
        drift = float(np.max(np.abs(trace.E - e0))) / e0 if e0 > 0.0 else 0.0
        ok = drift <= 1e-6
        summary["conservation_max_drift"] = drift
        summary["conservation_pass"] = ok
        summary["fit"] = "not attempted (undamped run)"
        checks.append(ok)
    else:
        inc = np.diff(trace.E)
        worst = float(np.max(inc)) if len(inc) else 0.0
        mono_ok = worst <= MONOTONE_STEP_TOL * max(e0, 1e-300)
        summary["monotone_max_increase"] = worst
        summary["monotone_pass"] = mono_ok
        checks.append(mono_ok)

        if e0 > 0.0:
            if _away_from_linear(law):
                beta = summary["beta"] = beta_floor(law, e0)
                key, weight = "M_optimal_weight", lambda y: optimal_weight(law, y, beta)
            else:  # no optimal weight: the unit weight, the paper's route for linear damping
                key, weight = "M_unit_weight", lambda y: np.ones_like(y)
            try:
                chk = check_integral_inequality(trace, weight, mode="finite")
                summary[key] = chk.M
                checks.append(math.isfinite(chk.M))
            except (TransformError, HarnessError, RootError) as exc:
                summary[key] = f"failed: {exc}"
                checks.append(False)
            if law.family == "power" and law.p > 1.0:
                chk = check_integral_inequality(
                    trace, lambda y: y ** (0.5 * (law.p - 1.0)), mode="finite"
                )
                summary["M_polynomial_weight"] = chk.M

            mode = cfg.fit.mode
            if mode == "auto":
                mode = {
                    "linear": "exp",
                    "power": "power",
                    "power_log": "power",
                    "exp_inv_square": "loglog",
                    "sub_exponential": "stretched",
                }[law.family]
            window = default_fit_window(trace.t, cfg.fit.window)
            try:
                fit = fit_tail_exponent(trace, window=window, mode=mode, stretch_p=max(law.p, 2.1))
                summary["fit_mode"] = mode
                summary["fit_window_lo"] = fit.window[0]
                summary["fit_window_hi"] = fit.window[1]
                summary["fit_slope"] = fit.slope
                summary["fit_stderr"] = fit.stderr
                summary["fit_r2"] = fit.r_squared
            except HarnessError as exc:
                summary["fit"] = f"failed: {exc}"

            entries = envelope_summary(trace, cfg, window)
            summary.update(entries)
            checks += [bool(entries[k]) for k in ("upper_pass", "lower_pass") if k in entries]

    passed = all(checks) if checks else True
    summary["passed"] = passed

    result = ExperimentResult(config=cfg, trace=trace, summary=summary, passed=passed)
    if write_files:
        os.makedirs(cfg.out_dir, exist_ok=True)
        base = os.path.join(cfg.out_dir, cfg.name)
        result.trace_path = base + ".trace.csv"
        _atomic_write(result.trace_path, trace.csv_text())

        kv_lines = [f"{k}={_fmt(v)}" for k, v in summary.items()]
        result.report_kv = base + ".report.kv"
        _atomic_write(result.report_kv, "\n".join(kv_lines) + "\n")

        txt = ["experiment report", "=" * 18]
        for k, v in summary.items():
            txt.append(f"{k:24s} {_fmt(v)}")
        result.report_txt = base + ".report.txt"
        _atomic_write(result.report_txt, "\n".join(txt) + "\n")
    return result
