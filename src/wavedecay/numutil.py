"""Shared numerical primitives: adaptive Simpson quadrature and root finding.

Every root found here is that of a monotone function on a bracket.
bisect_root needs only the sign of f.  newton_root also takes f's slope
and falls back to bisection wherever a Newton step leaves the bracket or
the slope is unusable, so it keeps bisection's guarantee where the
function being inverted (H', L, psi0, ...) is not smooth near zero or has
underflowed.
"""

from __future__ import annotations

import math
from collections.abc import Callable

MAX_SUBDIVISIONS = 10**6


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


def _simpson(fa: float, fm: float, fb: float, h: float) -> float:
    return h / 6.0 * (fa + 4.0 * fm + fb)


def adaptive_simpson(
    f: Callable[[float], float],
    a: float,
    b: float,
    rtol: float = 1e-10,
    max_depth: int = 60,
) -> float:
    """Integrate f on [a, b] by adaptive Simpson with interval bisection.

    The tolerance is relative to the magnitude of the running whole-interval
    estimate.  Subdivision is capped at MAX_SUBDIVISIONS intervals and
    max_depth levels; exceeding either raises QuadratureError.
    """
    if a == b:
        return 0.0
    if a > b:
        return -adaptive_simpson(f, b, a, rtol=rtol, max_depth=max_depth)

    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = _simpson(fa, fm, fb, b - a)
    # Absolute budget derived once from the first estimate; a floor keeps
    # near-zero integrals from demanding impossible precision.
    atol = rtol * max(abs(whole), 1e-300)

    count = [0]

    def recurse(a, fa, m, fm, b, fb, whole, tol, depth):
        count[0] += 2
        if count[0] > MAX_SUBDIVISIONS:
            raise QuadratureError("subdivision cap exceeded")
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        flm, frm = f(lm), f(rm)
        left = _simpson(fa, flm, fm, m - a)
        right = _simpson(fm, frm, fb, b - m)
        delta = left + right - whole
        if depth >= max_depth:
            raise QuadratureError(f"max depth {max_depth} reached at [{a}, {b}]")
        if abs(delta) <= 15.0 * tol:
            return left + right + delta / 15.0
        return recurse(a, fa, lm, flm, m, fm, left, 0.5 * tol, depth + 1) + recurse(
            m, fm, rm, frm, b, fb, right, 0.5 * tol, depth + 1
        )

    return recurse(a, fa, m, fm, b, fb, whole, atol, 0)


def bisect_root(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    xtol: float = 1e-12,
    max_iter: int = 200,
    rtol: float = 0.0,
) -> float:
    """Root of f on [lo, hi] by plain bisection; f(lo) and f(hi) must not share sign.

    Stops once the bracket is at most xtol + rtol * max(|lo|, |hi|) wide.
    """
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise ValueError(f"root not bracketed on [{lo}, {hi}]")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if (fmid > 0.0) == (fhi > 0.0):
            hi = mid
        else:
            lo = mid
        if hi - lo <= xtol + rtol * max(abs(lo), abs(hi)):
            break
    return 0.5 * (lo + hi)


def newton_root(
    f: Callable[[float], tuple[float, float]],
    lo: float,
    hi: float,
    x: float,
    rtol: float = 1e-12,
    max_iter: int = 200,
) -> float:
    """Root of an increasing f on [lo, hi] by Newton's method from x in
    [lo, hi], safeguarded by bisection.

    f(x) returns f(x) and its slope f'(x); the caller guarantees f(lo) <= 0
    <= f(hi), so the ends need no evaluation.  Each evaluated iterate
    narrows the bracket by its sign.  A step is replaced by a bisection step
    when the slope is not positive and finite or when the step leaves the
    bracket, except when it passes an end by at most rtol relative: the
    root then sits on that end (a cached node, say) and the end is
    returned.  Stops once the step or the bracket is at most rtol * x wide.
    """
    for _ in range(max_iter):
        fx, slope = f(x)
        if fx == 0.0:
            return x
        if fx < 0.0:
            lo = x
        else:
            hi = x
        tol = rtol * x
        nxt = x - fx / slope if 0.0 < slope < math.inf else math.nan
        if abs(nxt - x) <= tol:
            return min(max(nxt, lo), hi)
        if hi <= nxt <= hi * (1.0 + rtol):
            return hi
        if lo * (1.0 - rtol) <= nxt <= lo:
            return lo
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        if hi - lo <= tol:
            return nxt
        x = nxt
    return x


def invert_increasing(
    f: Callable[[float], float],
    y: float,
    lo: float,
    hi: float | None = None,
    xtol: float = 1e-12,
) -> float:
    """Solve f(x) = y for increasing f, expanding the upper bracket if needed.

    With hi=None the bracket grows geometrically from lo until f exceeds y,
    which handles inverses whose domain is a half line.
    """
    if hi is None:
        hi = lo + 1.0 if lo <= 0.0 else 2.0 * lo
        for _ in range(200):
            if f(hi) >= y:
                break
            hi = 2.0 * hi if hi > 0.0 else hi + 1.0
        else:
            raise ValueError("failed to bracket inverse: target may be out of range")
    return bisect_root(lambda x: f(x) - y, lo, hi, xtol=xtol)


def log_midpoints(lo: float, hi: float, n: int) -> list[float]:
    """n points geometrically spaced on [lo, hi], lo > 0."""
    if n == 1:
        return [lo]
    ratio = (hi / lo) ** (1.0 / (n - 1))
    return [lo * ratio**k for k in range(n)]
