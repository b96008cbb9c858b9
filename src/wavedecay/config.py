"""Experiment configuration: INI-style sections parsed into typed objects.

Sections (all optional except [law]):

  [law]           family, p, q, r0, eps_clip
  [coefficients]  alpha_profile, alpha_support, alpha_floor, alpha_cap,
                  a_profile, a_support, a_floor, a_cap, alpha_max
  [grid]          n, cfl
  [time]          t_final, stride, dt
  [initial]       u0, u1, v0, v1, smooth
  [envelope]      kind (auto|general|simplified), beta, M, kappa,
                  gamma_c, T0, T1   (numbers, or 'calibrate'/'auto')
  [fit]           mode (auto|power|loglog|stretched|exp), window (two
                  fractions of the log-time span)
  [output]        dir, name

Unknown sections or keys are rejected so typos fail loudly.
"""

from __future__ import annotations

import configparser
import hashlib
import io
from dataclasses import asdict, dataclass, field

from .feedback import CoefficientField, FeedbackLaw, LawError, make_feedback
from .sim import DEFAULT_ALPHA_MAX, SimConfig, SimError


class ConfigError(ValueError):
    pass


_KNOWN = {
    "law": {"family", "p", "q", "r0", "eps_clip"},
    "coefficients": {
        "alpha_profile",
        "alpha_support",
        "alpha_floor",
        "alpha_cap",
        "a_profile",
        "a_support",
        "a_floor",
        "a_cap",
        "alpha_max",
    },
    "grid": {"n", "cfl"},
    "time": {"t_final", "stride", "dt"},
    "initial": {"u0", "u1", "v0", "v1", "smooth"},
    "envelope": {"kind", "beta", "m", "kappa", "gamma_c", "t0", "t1"},
    "fit": {"mode", "window"},
    "output": {"dir", "name"},
}


@dataclass
class EnvelopeParams:
    kind: str = "auto"
    beta: float | str = "calibrate"
    M: float | str = "calibrate"
    kappa: float = 1.0
    gamma_c: float | str = "calibrate"
    T0: float | str = "auto"
    T1: float = 0.0


@dataclass
class FitParams:
    mode: str = "auto"
    window: tuple[float, float] = (2.0 / 3.0, 1.0)


@dataclass
class ExperimentConfig:
    law: FeedbackLaw
    sim: SimConfig
    envelope: EnvelopeParams = field(default_factory=EnvelopeParams)
    fit: FitParams = field(default_factory=FitParams)
    out_dir: str = "out"
    name: str = "experiment"

    @property
    def digest(self) -> str:
        """Hash of the parsed physics, taken from the fields as they are now.

        Comments, formatting and [output] leave it, and so the config_digest
        line of every output, alone; replacing `sim` or `law` moves it.
        """
        physics = repr([asdict(part) for part in (self.law, self.sim, self.envelope, self.fit)])
        return hashlib.sha256(physics.encode()).hexdigest()[:16]


def _coeff_field(sec, prefix: str) -> CoefficientField | None:
    profile = sec.get(f"{prefix}_profile", "none").strip()
    if profile in ("none", ""):
        return None
    support_txt = sec.get(f"{prefix}_support", None)
    if support_txt is None:
        raise ConfigError(f"{prefix}_support required when {prefix}_profile is set")
    parts = [p.strip() for p in support_txt.replace(",", " ").split()]
    if len(parts) != 2:
        raise ConfigError(f"{prefix}_support must be two numbers, got {support_txt!r}")
    lo, hi = float(parts[0]), float(parts[1])
    floor = float(sec.get(f"{prefix}_floor", "1.0"))
    cap_txt = sec.get(f"{prefix}_cap", None)
    cap = float(cap_txt) if cap_txt is not None else None
    try:
        return CoefficientField(profile=profile, support=(lo, hi), floor=floor, cap=cap)
    except LawError as exc:
        raise ConfigError(str(exc)) from exc


def _num_or(token: str, *allowed: str) -> float | str:
    token = token.strip()
    if token in allowed:
        return token
    try:
        return float(token)
    except ValueError as exc:
        raise ConfigError(f"expected a number or one of {allowed}, got {token!r}") from exc


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
        law = make_feedback(
            lsec.get("family", "power").strip(),
            p=lsec.getfloat("p", fallback=None),
            q=lsec.getfloat("q", fallback=None),
            r0=lsec.getfloat("r0", fallback=None),
            eps_clip=lsec.getfloat("eps_clip", fallback=1e-16),
        )
    except (LawError, ValueError) as exc:
        raise ConfigError(f"bad [law] section: {exc}") from exc

    csec = cp["coefficients"] if "coefficients" in cp else {}
    alpha_field = _coeff_field(csec, "alpha") if csec else None
    a_field = _coeff_field(csec, "a") if csec else None
    alpha_max = float(csec.get("alpha_max", str(DEFAULT_ALPHA_MAX))) if csec else DEFAULT_ALPHA_MAX

    gsec = cp["grid"] if "grid" in cp else {}
    tsec = cp["time"] if "time" in cp else {}
    isec = cp["initial"] if "initial" in cp else {}

    try:
        sim = SimConfig(
            law=law,
            alpha_field=alpha_field,
            a_field=a_field,
            n=int(gsec.get("n", "399")),
            cfl=float(gsec.get("cfl", "0.9")),
            dt=float(tsec["dt"]) if "dt" in tsec else None,
            t_final=float(tsec.get("t_final", "2000")),
            stride=int(tsec.get("stride", "200")),
            u0=isec.get("u0", "sine:1:1.0"),
            u1=isec.get("u1", "zero"),
            v0=isec.get("v0", "sine:2:0.5"),
            v1=isec.get("v1", "zero"),
            smooth=str(isec.get("smooth", "true")).strip().lower() in ("1", "true", "yes"),
            alpha_max=alpha_max,
        )
    except (ValueError, SimError) as exc:
        raise ConfigError(f"bad grid/time/initial settings: {exc}") from exc

    esec = cp["envelope"] if "envelope" in cp else {}
    env = EnvelopeParams()
    if esec:
        env.kind = esec.get("kind", "auto").strip()
        if env.kind not in ("auto", "general", "simplified"):
            raise ConfigError(f"envelope kind must be auto|general|simplified, got {env.kind!r}")
        env.beta = _num_or(esec.get("beta", "calibrate"), "calibrate")
        env.M = _num_or(esec.get("m", "calibrate"), "calibrate")
        env.kappa = float(esec.get("kappa", "1.0"))
        env.gamma_c = _num_or(esec.get("gamma_c", "calibrate"), "calibrate")
        env.T0 = _num_or(esec.get("t0", "auto"), "auto")
        env.T1 = float(esec.get("t1", "0.0"))

    fsec = cp["fit"] if "fit" in cp else {}
    fit = FitParams()
    if fsec:
        fit.mode = fsec.get("mode", "auto").strip()
        if fit.mode not in ("auto", "power", "loglog", "stretched", "exp"):
            raise ConfigError(f"unknown fit mode {fit.mode!r}")
        wtxt = fsec.get("window", None)
        if wtxt:
            parts = [p.strip() for p in wtxt.replace(",", " ").split()]
            if len(parts) != 2:
                raise ConfigError("fit window must be two fractions")
            a, b = float(parts[0]), float(parts[1])
            if not (0.0 <= a < b <= 1.0):
                raise ConfigError("fit window fractions must satisfy 0 <= a < b <= 1")
            fit.window = (a, b)

    osec = cp["output"] if "output" in cp else {}
    out_dir = osec.get("dir", "out") if osec else "out"
    name = osec.get("name", "experiment") if osec else "experiment"

    return ExperimentConfig(law=law, sim=sim, envelope=env, fit=fit, out_dir=out_dir, name=name)


def load_config(path) -> ExperimentConfig:
    try:
        with io.open(path, "r") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text)
