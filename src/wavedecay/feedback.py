"""Damping growth laws and their convexity calculus.

A growth law g describes how the damping nonlinearity behaves near zero.
Everything downstream (conjugates, decay envelopes, the comparison ODE) is
driven by the associated function

    H(x) = sqrt(x) * g(sqrt(x))        on [0, r0^2],

its derivative H', and the classification ratio

    Lambda(x) = H(x) / (x * H'(x)),

whose behaviour as x -> 0+ separates laws that are close to linear
(Lambda -> 1) from the rest.  g and its odd extension ghat are the
simulation kernel's scalar functions (`_kernels._g`, `_kernels._ghat`).
Each family states its growth once more, as the elasticity
e(s) = s g'(s) / g(s) at s = sqrt(x) (`elasticity`): Lambda = 2/(1 + e),
its limit at 0 is 2/(1 + e(0+)), and the Newton slopes of `transforms`
are formed from e and s e'.  Only H' keeps a closed form per family, the
one that holds its relative precision where g or H' is tiny.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import _g, _ghat
from .numutil import invert_increasing

FAMILIES = ("linear", "power", "exp_inv_square", "power_log", "sub_exponential")

# Integer codes shared with the simulation kernels.
FAMILY_CODES = {name: i for i, name in enumerate(FAMILIES)}


class LawError(ValueError):
    """Invalid growth-law construction or evaluation outside the stated domain."""


@dataclass(frozen=True)
class FeedbackLaw:
    """A damping growth law with its convexity interval.

    p, q are the family exponents (unused slots are 0) and r0 is the right
    endpoint of the interval on which g is taken strictly increasing.
    s_sat and g_sat describe the saturation point of the concrete damping
    function: the odd extension of g is continued linearly beyond
    s_sat = min(1, r0).  eps_clip is still accepted and validated
    (0 < eps_clip < r0^2) and is part of the law's identity, but no result
    reads it: Lambda's limit is in closed form (`lambda_limit`).
    """

    family: str
    p: float
    q: float
    r0: float
    eps_clip: float
    s_sat: float
    g_sat: float

    def __post_init__(self):
        # the kernels' family code: a plain attribute, not a field, so asdict(law)
        # and every config digest stay as they were
        object.__setattr__(self, "code", FAMILY_CODES[self.family])

    def __repr__(self) -> str:  # compact, used in reports
        bits = [self.family]
        if self.family in ("power", "power_log", "sub_exponential"):
            bits.append(f"p={self.p:g}")
        if self.family == "power_log":
            bits.append(f"q={self.q:g}")
        bits.append(f"r0={self.r0:g}")
        return "FeedbackLaw(" + ", ".join(bits) + ")"


_DEFAULT_R0 = {
    "linear": 1.0,
    "power": 1.0,
    "exp_inv_square": 0.5,
    "power_log": 0.5,
    "sub_exponential": 0.5,
}


def _convex_r0_bound(family: str, p: float, q: float) -> float | None:
    """Right edge of the interval where H is strictly convex, as an r0 bound.

    In the variable ell = log(1/sqrt(x)) the sign of H'', that of
    (e^2 - 1) + s e' (`elasticity`), reduces to a scalar inequality; the
    threshold ell* gives the bound r0 <= exp(-ell*).
    Returns None for families convex on all of (0, 1] or with an x-space
    threshold above 1 (power: always; linear: never convex anyway).
    """
    if family == "power_log":
        # H'' has the sign of  m(m-1) ell^2 - (m q - q/2) ell + q(q-1)/4,
        # m = (p+1)/2; convex beyond the larger root
        m = 0.5 * (p + 1.0)
        a, b, c = m * (m - 1.0), m * q - 0.5 * q, 0.25 * q * (q - 1.0)
        ell = (b + math.sqrt(b * b - 4.0 * a * c)) / (2.0 * a)
        return math.exp(-ell)
    if family == "sub_exponential":
        # convex where  p^2 ell^{2(p-1)} - p(p-1) ell^{p-2} - 1 > 0
        # (negative up to ell*, p - 1 > 0 at ell = 1).  The indicator of that
        # inequality is inverted at 1/2, so no iterate lands on a root and the
        # halving ends at the pair of adjacent doubles around ell*.
        f = lambda ell: p * p * ell ** (2.0 * (p - 1.0)) - p * (p - 1.0) * ell ** (p - 2.0) - 1.0
        ell = invert_increasing(lambda v: float(f(v) >= 0.0), 0.5, 1e-9, 1.0, xtol=0.0)
        return math.exp(-ell)
    if family == "exp_inv_square":
        # H'' > 0 iff x + x^2/4 < 1, i.e. x < 2(sqrt(2) - 1)
        return math.sqrt(2.0 * (math.sqrt(2.0) - 1.0))
    return None


def make_feedback(
    family: str,
    p: float | None = None,
    q: float | None = None,
    r0: float | None = None,
    eps_clip: float = 1e-16,
) -> FeedbackLaw:
    """Construct a growth law, validating the family parameter constraints.

    Families (with g on (0, r0]):
      linear            g(x) = x
      power             g(x) = x^p,                   p >= 1
      exp_inv_square    g(x) = exp(-1/x^2)
      power_log         g(x) = x^p * ln(1/x)^q,       p > 2, q > 1
      sub_exponential   g(x) = exp(-ln(1/x)^p),       p > 2

    power_log additionally requires r0 < exp(-q/p) so that g is strictly
    increasing on (0, r0].  Default r0 is 1 for linear/power and 0.5 for the
    other families, shrunk when necessary so [0, r0^2] sits inside the
    family's strict-convexity range (H'' > 0 has a computable threshold).
    """
    if family not in FAMILIES:
        raise LawError(f"unknown family {family!r}; expected one of {FAMILIES}")
    pv = 0.0 if p is None else float(p)
    qv = 0.0 if q is None else float(q)
    if not (math.isfinite(pv) and math.isfinite(qv)):
        raise LawError(f"p and q must be finite, got p={pv!r}, q={qv!r}")
    if family == "power":
        if p is None or pv < 1.0:
            raise LawError("power family requires p >= 1")
    elif family == "power_log":
        if p is None or q is None or pv <= 2.0 or qv <= 1.0:
            raise LawError("power_log family requires p > 2 and q > 1")
    elif family == "sub_exponential":
        if p is None or pv <= 2.0:
            raise LawError("sub_exponential family requires p > 2")
    elif p is not None or q is not None:
        if family == "linear" and p is not None:
            raise LawError("linear family takes no exponent")
        if family == "exp_inv_square" and (p is not None or q is not None):
            raise LawError("exp_inv_square family takes no exponent")

    if r0 is None:
        r0v = _DEFAULT_R0[family]
        bound = _convex_r0_bound(family, pv, qv)
        if bound is not None and r0v >= bound:
            r0v = 0.9 * bound  # keep the default inside the convex range
    else:
        r0v = float(r0)
        if not (0.0 < r0v <= 1.0):
            raise LawError("r0 must lie in (0, 1]")
        if family == "power_log" and r0v >= math.exp(-qv / pv):
            raise LawError(
                f"power_log with p={pv:g}, q={qv:g} needs r0 < exp(-q/p) = "
                f"{math.exp(-qv / pv):.6g} for g to be increasing"
            )

    if not 0.0 < eps_clip < r0v**2:
        raise LawError("eps_clip must lie in (0, r0^2)")

    s_sat = min(1.0, r0v)
    g_sat = _g(s_sat, FAMILY_CODES[family], pv, qv)
    return FeedbackLaw(
        family=family, p=pv, q=qv, r0=r0v, eps_clip=eps_clip, s_sat=s_sat, g_sat=g_sat
    )


def eval_g(law: FeedbackLaw, x: float) -> float:
    """g(x) on [0, r0]."""
    if x < 0.0 or x > law.r0:
        raise LawError(f"g domain is [0, {law.r0}], got {x}")
    return _g(x, law.code, law.p, law.q) if x > 0.0 else 0.0


def eval_H(law: FeedbackLaw, x: float) -> float:
    """H(x) = sqrt(x) g(sqrt(x)) on [0, r0^2]; H(0) = 0."""
    r2 = law.r0**2
    if x < 0.0 or x > r2 * (1.0 + 1e-12):
        raise LawError(f"H domain is [0, {r2}], got {x}")
    if x <= 0.0:
        return 0.0
    s = math.sqrt(x)
    return s * _g(s, law.code, law.p, law.q)


def eval_H_prime(law: FeedbackLaw, x: float) -> float:
    """Closed-form H'(x) on [0, r0^2]; at 0 the limit is returned."""
    r2 = law.r0**2
    if x < 0.0 or x > r2 * (1.0 + 1e-12):
        raise LawError(f"H' domain is [0, {r2}], got {x}")
    fam, p, q = law.family, law.p, law.q
    if fam == "linear":
        return 1.0
    if x <= 0.0:
        return 1.0 if (fam == "power" and p == 1.0) else 0.0
    if fam == "power":
        return 0.5 * (p + 1.0) * x ** (0.5 * (p - 1.0))
    if fam == "exp_inv_square":
        e = math.exp(-1.0 / x)
        if e == 0.0:  # x below about 1.3e-3; for tiny x, 1/x is inf and 0 * inf nan
            return 0.0
        return e / math.sqrt(x) * (0.5 + 1.0 / x)
    ell = math.log(1.0 / math.sqrt(x))
    if fam == "power_log":
        return 0.5 * x ** (0.5 * (p - 1.0)) * ell ** (q - 1.0) * ((p + 1.0) * ell - q)
    # sub_exponential; at x = 1 the log factor vanishes and H'(1) = 1/2
    if ell <= 0.0:
        return 0.5
    val = math.exp(-(ell**p)) / (2.0 * math.sqrt(x))
    return val * (1.0 + p * ell ** (p - 1.0))


def elasticity(law: FeedbackLaw, x: float) -> tuple[float, float]:
    """The pair (e, s e'(s)) of the elasticity e(s) = s g'(s) / g(s) at
    s = sqrt(x), for 0 < x <= r0^2 (not checked), with ell = log(1/s):

      linear            e = 1                  s e' = 0
      power             e = p                  s e' = 0
      exp_inv_square    e = 2/x                s e' = -4/x
      power_log         e = p - q/ell          s e' = -q/ell^2
      sub_exponential   e = p ell^(p-1)        s e' = -p (p-1) ell^(p-2)

    Lambda = 2/(1 + e) and x H''/H' = ((e - 1) + s e'/(1 + e)) / 2 follow
    from it, so H'' > 0 exactly where (e^2 - 1) + s e' > 0, the inequality
    `_convex_r0_bound` solves.
    """
    fam, p, q = law.family, law.p, law.q
    if fam == "linear":
        return 1.0, 0.0
    if fam == "power":
        return p, 0.0
    if fam == "exp_inv_square":
        return 2.0 / x, -4.0 / x
    ell = math.log(1.0 / math.sqrt(x))
    if fam == "power_log":
        return p - q / ell, -q / (ell * ell)
    # sub_exponential; ell = 0 at x = 1, and not below it
    ell = max(ell, 0.0)
    return p * ell ** (p - 1.0), -p * (p - 1.0) * ell ** (p - 2.0)


def lambda_H(law: FeedbackLaw, x: float) -> float:
    """Lambda(x) = H(x) / (x H'(x)) = 2 / (1 + e(sqrt x)) on (0, r0^2]."""
    r2 = law.r0**2
    if x <= 0.0 or x > r2 * (1.0 + 1e-12):
        raise LawError(f"Lambda domain is (0, {r2}], got {x}")
    return 2.0 / (1.0 + elasticity(law, x)[0])


# e(0+), the elasticity's limit as x -> 0+, of the families where it is not p
_ELASTICITY_AT_0 = {"linear": 1.0, "exp_inv_square": math.inf, "sub_exponential": math.inf}


def lambda_limit(law: FeedbackLaw) -> float:
    """lim_{x->0+} Lambda(x) = 2 / (1 + e(0+)): 1 for the linear law,
    2/(p+1) for power and power_log, 0 for exp_inv_square and
    sub_exponential."""
    return 2.0 / (1.0 + _ELASTICITY_AT_0.get(law.family, law.p))


@dataclass(frozen=True)
class ConvexityReport:
    strictly_convex: bool
    h0_ok: bool
    hprime0_ok: bool
    min_second_difference: float
    sample_count: int


def convexity_check(law: FeedbackLaw, samples: int = 10_000) -> ConvexityReport:
    """Sampled strict-convexity check of H on (0, r0^2].

    Second differences are taken at uniformly spaced points; the verdict is
    strict positivity with no tolerance (scaled by step^2, so the reported
    minimum approximates inf H'').  Triples whose values all underflow to 0
    carry no information and are excluded from the count.  Also checks
    H(0) = 0 and H'(0) = 0.
    """
    if samples < 100:
        raise LawError("convexity_check requires at least 100 samples")
    r2 = law.r0**2
    h = r2 / samples
    xs = np.linspace(h, r2, samples)
    hv = np.array([eval_H(law, float(x)) for x in xs])
    d2 = hv[2:] - 2.0 * hv[1:-1] + hv[:-2]
    resolvable = hv[2:] > 0.0  # H is increasing: rightmost value 0 => all three 0
    d2 = d2[resolvable]
    if d2.size == 0:
        strictly = False
        min_scaled = 0.0
    else:
        strictly = bool(np.all(d2 > 0.0))
        min_scaled = float(np.min(d2) / h**2)
    return ConvexityReport(
        strictly_convex=strictly,
        h0_ok=eval_H(law, 0.0) == 0.0,
        hprime0_ok=eval_H_prime(law, 0.0) == 0.0,
        min_second_difference=min_scaled,
        sample_count=int(d2.size),
    )


def ghat(law: FeedbackLaw, s: float) -> float:
    """Odd, nondecreasing extension of g: equal to g below s_sat, linear beyond."""
    return _ghat(s, law.code, law.p, law.q, law.s_sat, law.g_sat)


def rho_eval(law: FeedbackLaw, a_value: float, s: float) -> float:
    """Damping value rho = a * ghat(s); odd in s with rho * s >= 0."""
    if a_value < 0.0:
        raise LawError("damping coefficient must be nonnegative")
    return a_value * ghat(law, s)


@dataclass(frozen=True)
class CoefficientField:
    """Spatial profile for the coupling or damping coefficient on (0, 1).

    indicator      floor on the open support, 0 outside
    smooth_bump    C^1 plateau at floor on the inner 80% of the support,
                   cubic ramps to 0 over the outer 10% on each side
    """

    profile: str
    support: tuple[float, float]
    floor: float

    def __post_init__(self):
        if self.profile not in ("indicator", "smooth_bump"):
            raise LawError(f"unknown coefficient profile {self.profile!r}")
        lo, hi = self.support
        if not (0.0 <= lo < hi <= 1.0):
            raise LawError(f"support must be a nonempty subinterval of (0,1), got {self.support}")
        if self.floor <= 0.0:
            raise LawError("floor must be positive")

    def sample(self, x: np.ndarray) -> np.ndarray:
        lo, hi = self.support
        out = np.zeros_like(x)
        inside = (x > lo) & (x < hi)
        if self.profile == "indicator":
            out[inside] = self.floor
            return out
        w = hi - lo
        ramp = 0.1 * w
        xi = x[inside]
        val = np.full_like(xi, self.floor)
        left = xi < lo + ramp
        right = xi > hi - ramp
        tl = (xi[left] - lo) / ramp
        tr = (hi - xi[right]) / ramp
        val[left] = self.floor * tl * tl * (3.0 - 2.0 * tl)
        val[right] = self.floor * tr * tr * (3.0 - 2.0 * tr)
        out[inside] = val
        return out
