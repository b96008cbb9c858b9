"""Dissipation-exact finite-difference solver for the coupled 1D wave system

    u_tt - u_xx + alpha(x) v_t + a(x) ghat(u_t) = 0
    v_tt - v_xx - alpha(x) u_t                  = 0

on (0, 1) with homogeneous Dirichlet ends.  The scheme is leapfrog with the
coupling and damping terms taken implicitly at the midpoint velocity; with
the compatible discrete energy

    E_{k-1/2} = dx/2 * [ |(u_k - u_{k-1})/dt|^2 + <D u_{k-1}, D u_k> + (same for v) ]

(D = forward difference including the boundary edges) the per-step balance is

    E_{k+1/2} - E_{k-1/2} = -dt * dx * sum_i rho(x_i, s_i) s_i,

with s the midpoint velocity: the coupling is exactly energy-neutral and all
decay comes from the damping term.  Trace rows therefore live at half-step
times; the first row is the initialization pair labeled t = 0.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .feedback import CoefficientField, FeedbackLaw
from ._kernels import _lap, ghat_np

DEFAULT_ALPHA_MAX = 0.2
ENERGY_FLOOR_FACTOR = 1e-14
NODE_SOLVE_TOL = 1e-13
NODE_SOLVE_MAXIT = 200


class SimError(RuntimeError):
    """Simulation setup or stepping failure."""


# ---------------------------------------------------------------------------
# initial profiles


def parse_profile(text: str):
    """Parse an initial-profile description into a callable on x in (0, 1).

    Accepted atoms, joined by '+':
      zero
      sine:K:AMP          AMP * sin(K pi x)
      bump:L:R:AMP        C^infty bump supported on (L, R) strictly inside (0,1)
    """
    text = text.strip()
    if not text:
        raise SimError("empty initial profile")
    atoms = [a.strip() for a in text.split("+")]
    parts = []
    for atom in atoms:
        fields = atom.split(":")
        kind = fields[0]
        if kind == "zero":
            parts.append(lambda x: np.zeros_like(x))
        elif kind == "sine":
            if len(fields) != 3:
                raise SimError(f"sine profile needs sine:K:AMP, got {atom!r}")
            try:
                k, amp = int(fields[1]), float(fields[2])
            except ValueError:
                raise SimError(f"sine profile needs integer K, numeric AMP: {atom!r}") from None
            if k < 1:
                raise SimError("sine mode index must be >= 1")
            if not math.isfinite(amp):
                raise SimError(f"sine profile needs a finite AMP: {atom!r}")
            parts.append(lambda x, k=k, amp=amp: amp * np.sin(k * math.pi * x))
        elif kind == "bump":
            if len(fields) != 4:
                raise SimError(f"bump profile needs bump:L:R:AMP, got {atom!r}")
            try:
                lo, hi, amp = float(fields[1]), float(fields[2]), float(fields[3])
            except ValueError:
                raise SimError(f"bump profile needs numeric L, R, AMP: {atom!r}") from None
            if not all(map(math.isfinite, (lo, hi, amp))):
                raise SimError(f"bump profile needs finite L, R, AMP: {atom!r}")
            if not (0.0 < lo < hi < 1.0):
                raise SimError("bump support must lie strictly inside (0,1) (zero boundary)")

            def bump(x, lo=lo, hi=hi, amp=amp):
                xi = (2.0 * x - lo - hi) / (hi - lo)
                out = np.zeros_like(x)
                inside = np.abs(xi) < 1.0
                out[inside] = amp * np.exp(1.0 - 1.0 / (1.0 - xi[inside] ** 2))
                return out

            parts.append(bump)
        else:
            raise SimError(f"unknown profile atom {atom!r}")

    def profile(x):
        out = np.zeros_like(x)
        for f in parts:
            out = out + f(x)
        return out

    return profile


# ---------------------------------------------------------------------------
# configuration and state


@dataclass
class SimConfig:
    law: FeedbackLaw
    alpha_field: CoefficientField | None = None
    a_field: CoefficientField | None = None
    n: int = 399
    cfl: float = 0.9
    dt: float | None = None
    t_final: float = 2000.0
    stride: int = 200
    u0: str = "sine:1:1.0"
    u1: str = "zero"
    v0: str = "sine:2:0.5"
    v1: str = "zero"
    smooth: bool = True
    alpha_max: float = DEFAULT_ALPHA_MAX


@dataclass
class WaveState:
    n: int
    dx: float
    dt: float
    t: float
    law: FeedbackLaw
    alpha: np.ndarray  # padded, length n+2, zero ends
    a: np.ndarray
    u_prev: np.ndarray
    u_curr: np.ndarray
    v_prev: np.ndarray
    v_curr: np.ndarray


def build_coefficients(spec: CoefficientField | None, n: int) -> np.ndarray:
    """Sample a coefficient field at the padded grid nodes (zeros when absent)."""
    x = np.linspace(0.0, 1.0, n + 2)
    if spec is None:
        return np.zeros(n + 2)
    vals = spec.sample(x)
    vals[0] = 0.0
    vals[-1] = 0.0
    return vals


def init_state(cfg: SimConfig) -> WaveState:
    """Build the two-level starting state with a second-order Taylor start."""
    if cfg.n < 3:
        raise SimError("grid needs at least 3 interior nodes")
    dx = 1.0 / (cfg.n + 1)
    if cfg.dt is not None:
        dt = cfg.dt
        if not (0.0 < dt < dx):
            raise SimError(f"dt = {dt} violates the stability bound dt < dx = {dx}")
    else:
        if not (0.0 < cfg.cfl < 1.0):
            raise SimError(f"cfl must lie in (0, 1), got {cfg.cfl}")
        dt = cfg.cfl * dx

    alpha = build_coefficients(cfg.alpha_field, cfg.n)
    a = build_coefficients(cfg.a_field, cfg.n)
    if cfg.alpha_max > DEFAULT_ALPHA_MAX:
        warnings.warn(
            f"alpha_max = {cfg.alpha_max} exceeds the default smallness bound "
            f"{DEFAULT_ALPHA_MAX}; decay guarantees may not apply",
            stacklevel=2,
        )
    if alpha.max(initial=0.0) > cfg.alpha_max:
        raise SimError(
            f"coupling amplitude {alpha.max():g} exceeds alpha_max = {cfg.alpha_max}"
        )

    x = np.linspace(0.0, 1.0, cfg.n + 2)
    u0 = parse_profile(cfg.u0)(x)
    u1 = parse_profile(cfg.u1)(x)
    v0 = parse_profile(cfg.v0)(x)
    v1 = parse_profile(cfg.v1)(x)
    for name, w in (("u0", u0), ("u1", u1), ("v0", v0), ("v1", v1)):
        scale = float(np.max(np.abs(w)))
        edge = max(abs(w[0]), abs(w[-1]))
        if edge > 1e-12 * max(scale, 1.0):
            raise SimError(f"initial profile {name} is nonzero on the boundary")
        w[0] = w[-1] = 0.0  # flush rounding residue of analytic profiles

    law = cfg.law
    rho1 = a * ghat_np(u1, law.code, law.p, law.q, law.s_sat, law.g_sat)
    u_tt0 = _lap(u0, dx) - alpha * v1 - rho1
    v_tt0 = _lap(v0, dx) + alpha * u1
    u_prev = u0 - dt * u1 + 0.5 * dt * dt * u_tt0
    v_prev = v0 - dt * v1 + 0.5 * dt * dt * v_tt0
    u_prev[0] = u_prev[-1] = 0.0
    v_prev[0] = v_prev[-1] = 0.0

    return WaveState(
        n=cfg.n,
        dx=dx,
        dt=dt,
        t=0.0,
        law=law,
        alpha=alpha,
        a=a,
        u_prev=u_prev,
        u_curr=u0.copy(),
        v_prev=v_prev,
        v_curr=v0.copy(),
    )


def _kernel_args(state: WaveState):
    """The state's arguments of `_kernels.advance` and `_kernels._sample_np`:
    those before nsteps (levels, coefficients, dt, dx) and the law's."""
    law = state.law
    return ((state.u_prev, state.u_curr, state.v_prev, state.v_curr, state.alpha, state.a,
             state.dt, state.dx), (law.code, law.p, law.q, law.s_sat, law.g_sat))


def _advance(state: WaveState, nsteps: int, stride: int = 1, samples=None) -> int:
    """`_kernels.advance` on the state, called positionally with nsteps at
    index 8; returns the number of steps done."""
    grid, law = _kernel_args(state)
    k, node, b = _kernels.advance(*grid, nsteps, *law, NODE_SOLVE_TOL, NODE_SOLVE_MAXIT,
                                  stride, samples, ENERGY_FLOOR_FACTOR)
    if node >= 0:
        raise SimError(
            f"node solve failed to converge at node {node} in step {k} "
            f"(t = {state.t + k * state.dt:g}, residual scale {b:g})"
        )
    state.t += k * state.dt
    return k


def step(state: WaveState) -> WaveState:
    """Advance the state by one time step (in place)."""
    _advance(state, 1)
    return state


def energy(state: WaveState) -> tuple[float, float]:
    """Compatible discrete energy and first-order energy at the half step,
    as the trace samples them (`_kernels._sample_np`)."""
    grid, law = _kernel_args(state)
    return _kernels._sample_np(*grid, *law)[:2]


def dissipation_rate(state: WaveState) -> float:
    """-dx * sum rho(x, w) w with the half-step velocity w; always <= 0."""
    grid, law = _kernel_args(state)
    return _kernels._sample_np(*grid, *law)[2]


# ---------------------------------------------------------------------------
# traces


@dataclass
class EnergyTrace:
    t: np.ndarray
    E: np.ndarray
    E1: np.ndarray
    dissipation: np.ndarray
    meta: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.t)

    @property
    def e0(self) -> float:
        return float(self.E[0])

    def truncated(self, t_max: float) -> "EnergyTrace":
        keep = self.t <= t_max * (1.0 + 1e-12)
        return EnergyTrace(
            t=self.t[keep],
            E=self.E[keep],
            E1=self.E1[keep],
            dissipation=self.dissipation[keep],
            meta=dict(self.meta),
        )

    def csv_text(self) -> str:
        """The CSV form read by from_csv: sorted '# key=value' meta lines, a
        header and one row per sample, every float in %.17g."""
        lines = []
        for key in sorted(self.meta):
            lines.append(f"# {key}={self.meta[key]}")
        lines.append("t,E,E1,dissipation")
        for i in range(len(self.t)):
            lines.append(
                f"{self.t[i]:.17g},{self.E[i]:.17g},{self.E1[i]:.17g},"
                f"{self.dissipation[i]:.17g}"
            )
        return "\n".join(lines) + "\n"

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.csv_text())

    @classmethod
    def from_csv(cls, path) -> "EnergyTrace":
        """Read the form csv_text writes; a data row that is not four numbers
        raises ValueError naming its line."""
        meta = {}
        rows = []
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                if line.startswith("#"):
                    body = line[1:].strip()
                    if "=" in body:
                        k, v = body.split("=", 1)
                        meta[k.strip()] = v.strip()
                    continue
                if line.startswith("t,"):
                    continue
                try:
                    row = [float(c) for c in line.split(",")]
                except ValueError:
                    row = []
                if len(row) != 4:
                    raise ValueError(f"line {lineno}: expected four numbers, got {line!r}")
                rows.append(row)
        arr = np.array(rows) if rows else np.zeros((0, 4))
        return cls(t=arr[:, 0], E=arr[:, 1], E1=arr[:, 2], dissipation=arr[:, 3], meta=meta)


def run(cfg: SimConfig, meta: dict | None = None) -> EnergyTrace:
    """Step to t_final, sampling every `stride` steps; early stop at the energy floor.

    One `_kernels.advance` call steps, samples and stops at the floor (the
    first sample whose E is below ENERGY_FLOOR_FACTOR * E(0)); this function
    labels the samples with their half-step times and writes the meta lines.
    """
    if not 0.0 < cfg.t_final < math.inf:
        raise SimError("t_final must be finite and positive")
    if cfg.stride < 1:
        raise SimError("stride must be >= 1")
    state = init_state(cfg)
    dt = state.dt
    total_steps = int(math.ceil(cfg.t_final / dt))
    samples = np.empty((1 + -(-total_steps // cfg.stride), 3))
    k = _advance(state, total_steps, cfg.stride, samples)
    E, E1, dissipation = samples[: 1 + -(-k // cfg.stride)].T.copy()
    if not cfg.smooth:
        E1[:] = math.nan
    step_index = np.minimum(np.arange(len(E)) * cfg.stride, k)
    law = cfg.law

    trace_meta = {
        "n": str(cfg.n),
        "dx": f"{state.dx:.17g}",
        "dt": f"{dt:.17g}",
        "stride": str(cfg.stride),
        "t_final": f"{cfg.t_final:.17g}",
        "law_family": law.family,
        "law_p": f"{law.p:.17g}",
        "law_q": f"{law.q:.17g}",
        "law_r0": f"{law.r0:.17g}",
        "e0": f"{E[0]:.17g}",
        "e1_0": f"{E1[0]:.17g}",
        "smooth": str(cfg.smooth).lower(),
        "alpha_max": f"{cfg.alpha_max:.17g}",
        "backend": _kernels.active_backend(),
        "early_stop": str(E[0] > 0.0 and E[-1] < ENERGY_FLOOR_FACTOR * E[0]).lower(),
        "geometry_1d": "control/damping regions are nonempty open subintervals (geometric condition trivial in 1d)",
    }
    if meta:
        trace_meta.update(meta)
    return EnergyTrace(
        t=np.maximum(0.0, step_index * dt - 0.5 * dt),
        E=E,
        E1=E1,
        dissipation=dissipation,
        meta=trace_meta,
    )
