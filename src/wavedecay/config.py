"""Experiment configuration: INI-style sections parsed into typed objects.

Sections (all optional except [law]):

  [law]           family, r0, eps_clip, and the family's exponents:
                  none for linear and exp_inv_square, p for power and
                  sub_exponential, p and q for power_log; another
                  exponent is a ConfigError (`feedback.make_feedback`)
  [coefficients]  alpha_profile, alpha_support, alpha_floor, a_profile,
                  a_support, a_floor, alpha_max
  [grid]          n, cfl
  [time]          t_final, stride, dt
  [initial]       u0, u1, v0, v1 (profiles, see sim.parse_profile), smooth
                  (a configparser boolean word)
  [envelope]      kind (auto|general|simplified), T1 (the lower envelope's
                  time shift)
  [fit]           mode (auto|power|loglog|stretched|exp), window (two
                  fractions of the log-time span)
  [output]        dir, name

The envelopes' constants (beta, M, and the lower envelope's T0 and
constant) have no keys: every run calibrates them from its trace.
[law] eps_clip is still accepted and validated (0 < eps_clip < r0^2), but
no result reads it: the limit of Lambda at 0 is in closed form.
Unknown sections or keys, and values that do not parse, are rejected as
ConfigError so typos fail loudly.
"""

from __future__ import annotations

import configparser
import hashlib
import io
import math
from dataclasses import asdict, dataclass, field

from .feedback import CoefficientField, FeedbackLaw, LawError, make_feedback
from .sim import SimConfig, SimError, parse_profile


class ConfigError(ValueError):
    pass


_KNOWN = {
    "law": {"family", "p", "q", "r0", "eps_clip"},
    "coefficients": {
        "alpha_profile",
        "alpha_support",
        "alpha_floor",
        "a_profile",
        "a_support",
        "a_floor",
        "alpha_max",
    },
    "grid": {"n", "cfl"},
    "time": {"t_final", "stride", "dt"},
    "initial": {"u0", "u1", "v0", "v1", "smooth"},
    "envelope": {"kind", "t1"},
    "fit": {"mode", "window"},
    "output": {"dir", "name"},
}


@dataclass
class EnvelopeParams:
    kind: str = "auto"
    T1: float = 0.0


@dataclass
class FitParams:
    mode: str = "auto"
    window: tuple[float, float] = (2.0 / 3.0, 1.0)


@dataclass
class ExperimentConfig:
    sim: SimConfig
    envelope: EnvelopeParams = field(default_factory=EnvelopeParams)
    fit: FitParams = field(default_factory=FitParams)
    out_dir: str = "out"
    name: str = "experiment"

    @property
    def law(self) -> FeedbackLaw:
        """The law of `sim`, the one every stage of a run uses."""
        return self.sim.law

    @property
    def digest(self) -> str:
        """Hash of the parsed physics, taken from the fields as they are now.

        Comments, formatting and [output] leave it, and so the config_digest
        line of every output, alone; replacing `sim` moves it.
        """
        physics = repr([asdict(part) for part in (self.law, self.sim, self.envelope, self.fit)])
        return hashlib.sha256(physics.encode()).hexdigest()[:16]


def _parse_numbers(text: str, count: int, name: str) -> list[float]:
    """text as count finite numbers, with commas or spaces between them;
    anything else (nan and inf included) is a ConfigError naming the setting."""
    try:
        values = [float(part) for part in text.replace(",", " ").split()]
    except ValueError:
        values = []
    if len(values) != count or not all(map(math.isfinite, values)):
        what = "a finite number" if count == 1 else "two finite numbers"
        raise ConfigError(f"{name} must be {what}, got {text!r}")
    return values


def _numbers(sec, key: str, count: int = 1) -> list[float]:
    """The value of key, which is present, as count numbers."""
    return _parse_numbers(sec[key], count, f"[{sec.name}] {key}")


def parse_fit_window(text: str, name: str = "[fit] window") -> tuple[float, float]:
    """A fit window: two fractions a, b of the log-time span, 0 <= a < b <= 1."""
    a, b = _parse_numbers(text, 2, name)
    if not (0.0 <= a < b <= 1.0):
        raise ConfigError(f"{name} fractions must satisfy 0 <= a < b <= 1, got {text!r}")
    return a, b


def _coeff_field(sec, prefix: str) -> CoefficientField | None:
    profile = sec.get(f"{prefix}_profile", "none").strip()
    if profile in ("none", ""):
        return None
    if f"{prefix}_support" not in sec:
        raise ConfigError(f"{prefix}_support required when {prefix}_profile is set")
    lo, hi = _numbers(sec, f"{prefix}_support", 2)
    (floor,) = _numbers(sec, f"{prefix}_floor") if f"{prefix}_floor" in sec else (1.0,)
    try:
        return CoefficientField(profile=profile, support=(lo, hi), floor=floor)
    except LawError as exc:
        raise ConfigError(str(exc)) from exc


def parse_config_text(text: str) -> ExperimentConfig:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc

    for section in cp.sections():
        if section not in _KNOWN:
            raise ConfigError(f"unknown config section [{section}]")
        for key in cp[section]:
            if key not in _KNOWN[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")

    if "law" not in cp:
        raise ConfigError("config requires a [law] section")
    lsec = cp["law"]
    try:
        law_kw = {key: lsec.getfloat(key) for key in ("p", "q", "r0", "eps_clip") if key in lsec}
        law = make_feedback(lsec.get("family", "power").strip(), **law_kw)
    except (LawError, ValueError) as exc:
        raise ConfigError(f"bad [law] section: {exc}") from exc

    # Only the keys a config sets are passed on: every default is the one
    # SimConfig, EnvelopeParams, FitParams and ExperimentConfig declare.
    for section in _KNOWN:  # absent sections read as empty
        if section not in cp:
            cp.add_section(section)
    csec, gsec, tsec, isec = cp["coefficients"], cp["grid"], cp["time"], cp["initial"]
    sim_kw: dict[str, object] = {
        "alpha_field": _coeff_field(csec, "alpha"),
        "a_field": _coeff_field(csec, "a"),
    }
    for sec, key in ((csec, "alpha_max"), (gsec, "cfl"), (tsec, "t_final"), (tsec, "dt")):
        if key in sec:
            (sim_kw[key],) = _numbers(sec, key)
    try:
        for sec, key in ((gsec, "n"), (tsec, "stride")):
            if key in sec:
                sim_kw[key] = int(sec[key])
        sim_kw.update((key, isec[key]) for key in ("u0", "u1", "v0", "v1") if key in isec)
        if "smooth" in isec:
            sim_kw["smooth"] = isec.getboolean("smooth")
        sim = SimConfig(law=law, **sim_kw)
        for profile in (sim.u0, sim.u1, sim.v0, sim.v1):
            parse_profile(profile)  # a profile that does not parse fails here, not in the run
    except (ValueError, SimError) as exc:
        raise ConfigError(f"bad grid/time/initial settings: {exc}") from exc

    esec = cp["envelope"]
    env = EnvelopeParams()
    if "kind" in esec:
        env.kind = esec["kind"].strip()
    if env.kind not in ("auto", "general", "simplified"):
        raise ConfigError(f"envelope kind must be auto|general|simplified, got {env.kind!r}")
    if "t1" in esec:
        (env.T1,) = _numbers(esec, "t1")

    fsec = cp["fit"]
    fit = FitParams()
    if "mode" in fsec:
        fit.mode = fsec["mode"].strip()
    if fit.mode not in ("auto", "power", "loglog", "stretched", "exp"):
        raise ConfigError(f"unknown fit mode {fit.mode!r}")
    if fsec.get("window"):
        fit.window = parse_fit_window(fsec["window"])

    osec = cp["output"]
    out_kw = {attr: osec[key] for key, attr in (("dir", "out_dir"), ("name", "name")) if key in osec}
    return ExperimentConfig(sim=sim, envelope=env, fit=fit, **out_kw)


def load_config(path) -> ExperimentConfig:
    try:
        with io.open(path, "r") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text)
