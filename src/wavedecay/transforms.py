"""Convex conjugate machinery and decay envelopes.

For a growth law with H strictly convex on [0, r0^2], define

    Hhat*(y) = sup_{x in [0, r0^2]} (x y - H(x)),
    L(y)     = Hhat*(y) / y   (y > 0),  L(0) = 0,

so L maps [0, inf) one-to-one onto [0, r0^2).  The upper decay envelopes are

    general:     t |-> 2 beta L(1 / psi0^{-1}(t / M)),      t >= M / H'(r0^2)
    simplified:  t |-> 2 beta (H')^{-1}(M / t),              laws away from linear

with

    psi0(x) = 1/H'(r0^2)
              + int_{1/x}^{H'(r0^2)} dtheta / (theta^2 (1 - Lambda((H')^{-1}(theta)))).

The simplified form requires limsup Lambda < 1 at 0; the linear law (and
anything classified as linear-like) is rejected because the psi0 integrand
degenerates.  Both upper envelopes depend on M only through t/M and increase
with M, so the M at which an envelope passes through a point (t, E) has a
closed form (envelope_M):

    general:     M = t / psi0(1 / L^{-1}(E / 2 beta))
    simplified:  M = t H'(E / 2 beta)

beta, M and the lower-bound constants are carried by DecayEnvelope and
calibrated on a trace by the harness module: beta is its smallest admissible
value (beta_floor) and M the largest envelope_M over the samples.
"""

from __future__ import annotations

import bisect as _bisect
import math
from dataclasses import dataclass, field
from functools import lru_cache
from collections.abc import Callable

from .feedback import FeedbackLaw, _eval_H_second, eval_H, eval_H_prime, lambda_H, lambda_limit
from .numutil import adaptive_simpson, bisect_root, newton_root
from .numutil import invert_increasing  # noqa: F401  (a binding site perfbench/tracing.py wraps)


class TransformError(ValueError):
    """Evaluation outside an operation's stated domain."""


class ClassificationError(TransformError):
    """Operation requires a law away from linear growth (limsup Lambda < 1)."""


@lru_cache(maxsize=None)
def _c0(law: FeedbackLaw) -> float:
    """H'(r0^2), the right edge of the derivative range."""
    return eval_H_prime(law, law.r0**2)


@lru_cache(maxsize=None)
def _H_edge(law: FeedbackLaw) -> float:
    return eval_H(law, law.r0**2)


@lru_cache(maxsize=None)
def _away_from_linear(law: FeedbackLaw) -> bool:
    return lambda_limit(law) < 1.0 - 1e-6


def require_away_from_linear(law: FeedbackLaw) -> None:
    if not _away_from_linear(law):
        raise ClassificationError(
            f"{law!r} is classified as linear-like (limsup Lambda ~ 1); "
            "the simplified envelope and psi0 do not apply"
        )


# Below this log x, x = e^w underflows to 0, where H' = 0: the lower end of
# every (H')^{-1} bracket in w = log x.
_LOG_X_FLOOR = math.log(math.ulp(0.0)) - 1.0


def hprime_inv(law: FeedbackLaw, y: float) -> float:
    """(H')^{-1}(y) on [0, H'(r0^2)].

    Power laws have a closed form.  For the other families x = e^w, with w
    the root of log H'(e^w) - log y (slope x H''/H'), found by safeguarded
    Newton from w = log r0^2 to 1e-12 in w, i.e. to 1e-12 relative in x.
    The lower end of the bracket lies where e^w underflows and H' = 0, so
    the bisection steps halve w, not x: a root at x = 1e-300 is as near in
    steps as one at 1e-3, and H'(x) = y holds to better than 1e-12
    relative for every root that is a normal double (a root below that
    comes back as 0 or a subnormal).  An iterate where H' underflows is a bisection step.
    """
    c0 = _c0(law)
    if y < 0.0 or y > c0 * (1.0 + 1e-12):
        raise TransformError(f"H' inverse domain is [0, {c0}], got {y}")
    if law.family == "linear":
        raise ClassificationError("H' is constant for the linear law")
    if y <= 0.0:
        return 0.0
    if y >= c0:
        return law.r0**2
    if law.family == "power":
        if law.p == 1.0:
            raise ClassificationError("H' is constant for power p=1")
        return (2.0 * y / (law.p + 1.0)) ** (2.0 / (law.p - 1.0))
    log_y = math.log(y)

    def log_gap(w: float) -> tuple[float, float]:
        x = math.exp(w)
        hp = eval_H_prime(law, x)
        if hp <= 0.0:
            return -math.inf, math.nan
        return math.log(hp) - log_y, x * _eval_H_second(law, x) / hp

    w_edge = math.log(law.r0**2)
    return math.exp(newton_root(log_gap, _LOG_X_FLOOR, w_edge, w_edge, rtol=0.0, xtol=1e-12))


def conjugate(law: FeedbackLaw, y: float) -> float:
    """Convex conjugate of H restricted to [0, r0^2], evaluated at y >= 0.

    For 0 <= y <= H'(r0^2) the supremum is interior at (H')^{-1}(y); beyond
    that it sits at the right endpoint.
    """
    if y < 0.0:
        raise TransformError("conjugate requires y >= 0")
    if y == 0.0:
        return 0.0
    r2 = law.r0**2
    if law.family == "linear" or (law.family == "power" and law.p == 1.0):
        return r2 * (y - 1.0) if y > 1.0 else 0.0
    c0 = _c0(law)
    if y >= c0:
        return y * r2 - _H_edge(law)
    x_star = hprime_inv(law, y)
    return y * x_star - eval_H(law, x_star)


def eval_L(law: FeedbackLaw, y: float) -> float:
    """L(y) = conjugate(y) / y for y > 0, L(0) = 0; increasing onto [0, r0^2)."""
    if y < 0.0:
        raise TransformError("L requires y >= 0")
    if y == 0.0:
        return 0.0
    return conjugate(law, y) / y


@lru_cache(maxsize=None)
def _L_edge(law: FeedbackLaw) -> float:
    """L(H'(r0^2)) = r0^2 (1 - Lambda(r0^2)), computed as inverse_L's iteration
    computes it, so that every z below it is bracketed there."""
    r2 = law.r0**2
    return r2 * (1.0 - lambda_H(law, r2))


def inverse_L(law: FeedbackLaw, z: float) -> float:
    """The unique y >= 0 with L(y) = z, for z in [0, r0^2).

    Beyond H'(r0^2), L(y) = r0^2 - H(r0^2)/y is inverted in closed form (this
    covers all z > 0 for the linear law, where L(H'(r0^2)) = 0).  Below it,
    L(H'(x)) = x (1 - Lambda(x)) rises with x, with slope H H''/H'^2 =
    Lambda x H''/H', so x is found by safeguarded Newton in [0, r0^2] to
    1e-12 relative and y = H'(x): y keeps its relative precision even where
    H' is tiny (exp_inv_square at moderate z).
    """
    r2 = law.r0**2
    if z < 0.0 or z >= r2:
        raise TransformError(f"inverse_L domain is [0, {r2}), got {z}")
    if z == 0.0:
        return 0.0
    if z >= _L_edge(law):
        return _H_edge(law) / (r2 - z)

    def gap(x: float) -> tuple[float, float]:
        lam = lambda_H(law, x)
        hp = eval_H_prime(law, x)
        slope = lam * x * _eval_H_second(law, x) / hp if hp > 0.0 else math.nan
        return x * (1.0 - lam) - z, slope

    return eval_H_prime(law, newton_root(gap, 0.0, r2, r2, rtol=1e-12))


# Cached cumulative values of the psi0 integral, per law: sorted xs with
# I(x) = int_{1/c0}^x.  Repeated evaluations (the inversions' iterates land
# near earlier ones) then only integrate short segments from the nearest
# cached node below.  Longer spans are integrated in cached pieces of ratio
# at most _PSI0_STEP: the integrand varies with log x, which one adaptive
# Simpson run cannot resolve across many decades.
_PSI0_CACHE: dict[FeedbackLaw, tuple[list[float], list[float]]] = {}
_PSI0_CACHE_CAP = 8192
_PSI0_STEP = 16.0


def _psi0_integrand(law: FeedbackLaw):
    def integrand(u: float) -> float:
        xh = hprime_inv(law, 1.0 / u)
        lam = lambda_H(law, xh) if xh > 0.0 else 0.0
        denom = 1.0 - lam
        if denom <= 0.0:
            raise ClassificationError("psi0 integrand degenerates (Lambda -> 1)")
        return 1.0 / denom

    return integrand


def psi0_eval(law: FeedbackLaw, x: float) -> float:
    """psi0(x) for x >= 1/H'(r0^2), by adaptive quadrature (rtol 1e-10).

    With theta = 1/u the integral becomes int_{1/H'(r0^2)}^x du / (1 -
    Lambda((H')^{-1}(1/u))), whose integrand lies in [1, 1/(1 - sup Lambda)]:
    no 1/theta^2 growth, so x can reach 1e150 and beyond (exp_inv_square).
    """
    require_away_from_linear(law)
    x_min = 1.0 / _c0(law)
    if x < x_min * (1.0 - 1e-12):
        raise TransformError(f"psi0 domain is [{x_min}, inf), got {x}")
    if x <= x_min:
        return x_min

    xs, values = _PSI0_CACHE.setdefault(law, ([x_min], [0.0]))
    i = _bisect.bisect_left(xs, x)
    if i < len(xs) and xs[i] == x:
        return x_min + values[i]
    integrand = _psi0_integrand(law)
    node, value = xs[i - 1], values[i - 1]
    while node < x:
        top = min(x, node * _PSI0_STEP)
        value += adaptive_simpson(integrand, node, top, rtol=1e-10)
        node = top
        if len(xs) < _PSI0_CACHE_CAP:
            xs.insert(i, node)
            values.insert(i, value)
            i += 1
    return x_min + value


def psi0_inverse(law: FeedbackLaw, tau: float) -> float:
    """Inverse of psi0 by safeguarded Newton to 1e-12 relative.

    The slope psi0'(x) = 1 / (1 - Lambda((H')^{-1}(1/x))) is the quadrature's
    own integrand.  The bracket is the pair of cached nodes around tau and
    the iteration starts at the lower one, whose value is cached.  Every
    evaluated iterate becomes a node, so an inversion repeated at the same
    tau (an envelope evaluated again at the same M) finds its root on or
    within tolerance of a node and ends there with no quadrature.  Above the
    last node, 1 - Lambda <= 1 gives psi0(x) >= x, so 2 tau bounds the root
    with room for quadrature error.
    """
    x_min = 1.0 / _c0(law)
    if tau < x_min * (1.0 - 1e-12):
        raise TransformError(f"psi0 inverse domain is [{x_min}, inf), got {tau}")
    if tau <= x_min:
        return x_min
    xs, values = _PSI0_CACHE.get(law, ([x_min], [0.0]))
    # compared as psi0_eval returns them, so the bracket's signs are exact
    j = _bisect.bisect_left(values, tau, key=lambda v: x_min + v)
    lo = xs[j - 1]
    hi = min(xs[j], 2.0 * tau) if j < len(xs) else 2.0 * tau
    integrand = _psi0_integrand(law)
    return newton_root(lambda x: (psi0_eval(law, x) - tau, integrand(x)), lo, hi, lo, rtol=1e-12)


@dataclass
class DecayEnvelope:
    """A calibrated decay bound.

    kind 'general' or 'simplified' are upper bounds (2*beta scale, time scale
    M; both 1 by default, the unit envelope).  kind 'lower' is
    the lower bound with constants gamma_s (4 sqrt of the initial first-order
    energy), C_s from the comparison argument, and time shifts T0, T1.
    """

    kind: str
    law: FeedbackLaw | None = None
    beta: float = 1.0
    M: float = 1.0
    T0: float = 0.0
    T1: float = 0.0
    gamma_s: float = 1.0
    C_s: float = 1.0
    extras: dict = field(default_factory=dict)

    def domain_start(self) -> float:
        if self.kind in ("general", "simplified"):
            return self.M / _c0(self.law)
        if self.kind == "lower":
            return max(self.T1 + self.T0, self.T0 + 1.0 / _c0(self.law))
        return 0.0


def envelope_general(env: DecayEnvelope, t: float) -> float:
    """2 beta L(1 / psi0^{-1}(t/M)) for t >= M / H'(r0^2)."""
    t_min = env.M / _c0(env.law)
    if t < t_min * (1.0 - 1e-12):
        raise TransformError(f"general envelope domain starts at {t_min}, got {t}")
    x = psi0_inverse(env.law, t / env.M)
    return 2.0 * env.beta * eval_L(env.law, 1.0 / x)


def envelope_simplified(env: DecayEnvelope, t: float) -> float:
    """2 beta (H')^{-1}(M / t); requires a law away from linear growth."""
    require_away_from_linear(env.law)
    arg = env.M / t
    if t <= 0.0 or arg > _c0(env.law) * (1.0 + 1e-12):
        raise TransformError("t too small for the simplified envelope domain")
    return 2.0 * env.beta * hprime_inv(env.law, min(arg, _c0(env.law)))


def envelope_value(env: DecayEnvelope, t: float) -> float:
    if env.kind == "general":
        return envelope_general(env, t)
    if env.kind == "simplified":
        return envelope_simplified(env, t)
    if env.kind == "lower":
        # imported here to keep module dependencies one-way
        from .odecmp import lower_envelope

        return lower_envelope(env, t)
    raise TransformError(f"unknown envelope kind {env.kind!r}")


def envelope_M(env: DecayEnvelope, t: float, E_value: float) -> float:
    """The time constant M at which an upper envelope passes through (t, E_value).

    env supplies the kind, law and beta; its own M is ignored.  An
    envelope with those parameters lies on or above E_value at t exactly when
    its M is at least the returned value.  Raises TransformError when no M
    reaches E_value: E_value / (2 beta) above L(H'(r0^2)) (general) or above
    r0^2 (simplified), the largest values the envelopes take.
    """
    law = env.law
    z = E_value / (2.0 * env.beta)
    if env.kind == "general":
        y = inverse_L(law, z)
        x = 1.0 / y if y > 0.0 else math.inf
        if math.isinf(x):  # H' underflows: psi0(x) overflows
            return 0.0
        # psi0's domain check rejects y > H'(r0^2), i.e. z > L(H'(r0^2))
        return t / psi0_eval(law, x)
    if env.kind == "simplified":
        require_away_from_linear(law)
        if z > law.r0**2:
            raise TransformError(f"E/(2 beta) = {z} lies above the simplified envelope's range")
        return t * eval_H_prime(law, z)
    raise TransformError(f"envelope_M needs an upper envelope kind, got {env.kind!r}")


def optimal_weight(law: FeedbackLaw, E_value: float, beta: float) -> float:
    """Weight L^{-1}(E / 2 beta)."""
    if E_value < 0.0:
        raise TransformError("energy must be nonnegative")
    z = E_value / (2.0 * beta)
    if z >= law.r0**2:
        raise TransformError(
            f"E/(2 beta) = {z} is outside the range of L; increase beta "
            f"(needs beta >= E(0) / (2 L(H'(r0^2))))"
        )
    return inverse_L(law, z)


def beta_floor(law: FeedbackLaw, e0: float) -> float:
    """Smallest admissible beta for the optimal weight: E(0) / (2 L(H'(r0^2))).
    A linear-like law, for which L(H'(r0^2)) = 0, raises ClassificationError."""
    require_away_from_linear(law)
    return e0 / (2.0 * eval_L(law, _c0(law)))


def weight_psi_r(w: Callable[[float], float], r: float, value: float, mode: str) -> float:
    """K_r / psi_r machinery for a strictly increasing weight w on [0, eta).

    mode 'K':    K_r(tau) = int_tau^r dy / (y w(y)),  tau in (0, r]
    mode 'psi':  psi_r(z) = z + K_r(w^{-1}(1/z)),      z >= 1 / w(r)

    w^{-1} is found by bisection on [0, r].
    """
    if r <= 0.0:
        raise TransformError("r must be positive")
    if mode == "K":
        tau = value
        if not (0.0 < tau <= r * (1.0 + 1e-12)):
            raise TransformError(f"K_r domain is (0, {r}], got {tau}")
        if tau >= r:
            return 0.0
        return adaptive_simpson(lambda y: 1.0 / (y * w(y)), tau, r, rtol=1e-10)
    if mode == "psi":
        z = value
        z_min = 1.0 / w(r)
        if z < z_min * (1.0 - 1e-12):
            raise TransformError(f"psi_r domain is [{z_min}, inf), got {z}")
        if z <= z_min:
            return z_min
        target = 1.0 / z
        tau = bisect_root(lambda y: w(y) - target, 0.0, r, xtol=1e-13)
        return z + weight_psi_r(w, r, tau, "K")
    raise TransformError(f"mode must be 'K' or 'psi', got {mode!r}")
