"""Comparison ODE z' + kappa H(z) = 0 and the lower decay envelope.

The solution of the comparison problem controls the energy from below:
after constants, E(t) >= (gamma_s C_s)^{-2} ((H')^{-1}(1/(t - T0)))^2 for
large t.  The ODE is integrated in log coordinates (w = ln z) so positivity
is structural; since H(0) = H'(0) = 0, z never reaches zero in finite time
and H(z)/z -> 0, keeping the log-form right-hand side smooth.

scipy is imported inside `solve_comparison`, the one function that needs
it, so importing this module (and the package) does not load scipy; the
lower envelope and the K integral use only numpy and `numutil`, and the
growth screening integrates nothing (see `hfl_screen`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .feedback import FeedbackLaw, eval_H, eval_H_prime, lambda_limit
from .feedback import lambda_H  # noqa: F401  (a binding site perfbench/tracing.py wraps)
from .numutil import adaptive_simpson, bisect_root
from .transforms import DecayEnvelope, TransformError, _away_from_linear, _c0, hprime_inv


class ComparisonError(RuntimeError):
    """ODE integration failure or screening rejection."""


def _H_over_z(law: FeedbackLaw, z: float) -> float:
    """H(z)/z with linear continuation of H beyond r0^2 (for solver trial steps)."""
    r2 = law.r0**2
    if z <= 0.0:
        return 0.0
    if z <= r2:
        return eval_H(law, z) / z
    return (eval_H(law, r2) + eval_H_prime(law, r2) * (z - r2)) / z


@dataclass
class ComparisonSolution:
    law: FeedbackLaw
    kappa: float
    z0: float
    t: np.ndarray
    z: np.ndarray
    _interp: object = None

    def z_at(self, t):
        """Dense evaluation of z(t) from the integrator's interpolant."""
        w = self._interp(np.atleast_1d(np.asarray(t, dtype=float)))
        out = np.exp(w[0])
        return float(out[0]) if np.isscalar(t) else out


def solve_comparison(
    law: FeedbackLaw, kappa: float, z0: float, horizon: float, n_samples: int = 400
) -> ComparisonSolution:
    """Integrate z' = -kappa H(z), z(0) = z0 in (0, r0^2], up to the horizon.

    Adaptive RK45 at rtol 1e-10 on w = ln z; samples are returned on a grid
    that is linear near 0 and geometric in the tail.  This is the only place
    the package imports scipy (`scipy.integrate.solve_ivp`); the import runs
    on the first call.
    """
    if kappa <= 0.0:
        raise ComparisonError("kappa must be positive")
    r2 = law.r0**2
    if not (0.0 < z0 <= r2 * (1.0 + 1e-12)):
        raise ComparisonError(f"z0 must lie in (0, {r2}], got {z0}")
    if horizon <= 0.0:
        raise ComparisonError("horizon must be positive")

    from scipy.integrate import solve_ivp  # here, not at module level: see the module docstring

    def rhs(_t, w):
        return (-kappa * _H_over_z(law, math.exp(w[0])),)

    sol = solve_ivp(
        rhs,
        (0.0, horizon),
        [math.log(z0)],
        method="RK45",
        rtol=1e-10,
        atol=1e-13,
        dense_output=True,
    )
    if not sol.success:
        raise ComparisonError(f"comparison ODE integration failed: {sol.message}")
    n_lin = max(2, n_samples // 4)
    t_break = min(1.0, horizon / 10.0)
    ts = np.unique(
        np.concatenate(
            [
                np.linspace(0.0, t_break, n_lin),
                np.geomspace(max(t_break, 1e-6), horizon, n_samples - n_lin),
            ]
        )
    )
    zs = np.exp(sol.sol(ts)[0])
    return ComparisonSolution(law=law, kappa=kappa, z0=z0, t=ts, z=zs, _interp=sol.sol)


def K_integral(law: FeedbackLaw, tau: float, z0: float) -> float:
    """K(tau) = int_tau^z0 dy / H(y), for 0 < tau <= z0 <= r0^2."""
    r2 = law.r0**2
    if not (0.0 < tau <= z0 * (1.0 + 1e-12)) or z0 > r2 * (1.0 + 1e-12):
        raise TransformError(f"K domain requires 0 < tau <= z0 <= {r2}")
    if tau >= z0:
        return 0.0

    def integrand(y: float) -> float:
        h = eval_H(law, y)
        if h <= 0.0:
            raise TransformError(f"H underflows at y={y}; tau too small for this family")
        return 1.0 / h

    return adaptive_simpson(integrand, tau, z0, rtol=1e-10)


def K_inverse(law: FeedbackLaw, value: float, z0: float) -> float:
    """Solve K(tau) = value for tau in (0, z0]; bisection on ln tau."""
    if value < 0.0:
        raise TransformError("K is nonnegative")
    if value == 0.0:
        return z0
    lo = z0
    for _ in range(4000):
        lo *= 0.5
        if K_integral(law, lo, z0) >= value:
            break
    else:
        raise TransformError("failed to bracket K inverse")
    ln_tau = bisect_root(
        lambda w: K_integral(law, math.exp(w), z0) - value,
        math.log(lo),
        math.log(z0),
        xtol=1e-12,
    )
    return math.exp(ln_tau)


@lru_cache(maxsize=None)
def hfl_screen(law: FeedbackLaw) -> bool:
    """Screening of the lower-bound growth hypothesis: Lambda stays inside
    (0, 1) near 0, or phi(x) = (H(2x)/(2x)) int_x^{r0^2/2} dy/H(y) stays
    away from 0 there.

    A law away from linear growth (the upper envelopes' test,
    transforms._away_from_linear) passes when the limit of Lambda at 0
    (`lambda_limit`) exceeds 1e-3.  Otherwise the integral alternative
    decides, with no quadrature: for H increasing and 2x <= r0^2/2,
    1/H >= 1/H(2x) on [x, 2x], so phi(x) >= (H(2x)/(2x)) x/H(2x) = 1/2
    at every x <= r0^2/4, and the law passes where H is resolvable
    (> 1e-280) at the first of them, x = r0^2/4.
    """
    if not _away_from_linear(law):
        return False
    return lambda_limit(law) > 1e-3 or eval_H(law, law.r0**2 / 4.0) > 1e-280


def lower_envelope(env: DecayEnvelope, t: float) -> float:
    """(gamma_s C_s)^{-2} ((H')^{-1}(1/(t - T0)))^2, for t >= T1 + T0."""
    if env.kind != "lower":
        raise TransformError("lower_envelope requires an envelope of kind 'lower'")
    law = env.law
    if not hfl_screen(law):
        raise ComparisonError(f"{law!r} fails the lower-bound growth screening")
    t_min = env.domain_start()
    if t < t_min * (1.0 - 1e-12):
        raise TransformError(f"lower envelope domain starts at {t_min}, got {t}")
    arg = 1.0 / (t - env.T0)
    x = hprime_inv(law, min(arg, _c0(law)))
    return (x / (env.gamma_s * env.C_s)) ** 2
