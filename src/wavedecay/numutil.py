"""Shared numerical primitives: adaptive Simpson quadrature and root finding.

Every root found here is that of a monotone function on a bracket, and
newton_root holds the one loop that finds it: Newton steps where f's slope
is given and usable, bisection steps elsewhere, so it keeps bisection's
guarantee where the function being inverted (H', L, psi0, ...) is not
smooth near zero or has underflowed.  bisect_root needs only the sign of f
and hands the loop a slope of nan; invert_increasing brackets an inverse on
a half line and calls bisect_root.  A solve that runs out of iterations
raises RootError rather than returning an unconverged iterate.
"""

from __future__ import annotations

import math
from collections.abc import Callable

MAX_SUBDIVISIONS = 10**6


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


class RootError(RuntimeError):
    """A root solve ran out of iterations before meeting its tolerance."""


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
) -> float:
    """Root of f on [lo, hi] by bisection; f(lo) and f(hi) must not share sign.

    f may rise or fall.  The halving is newton_root's, given no slope, so it
    stops as newton_root does once the bracket is at most xtol wide, and
    raises RootError after max_iter halvings.
    """
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise ValueError(f"root not bracketed on [{lo}, {hi}]")
    sign = 1.0 if fhi > 0.0 else -1.0
    return newton_root(
        lambda x: (sign * f(x), math.nan), lo, hi, 0.5 * (lo + hi),
        rtol=0.0, max_iter=max_iter, xtol=xtol,
    )


def newton_root(
    f: Callable[[float], tuple[float, float]],
    lo: float,
    hi: float,
    x: float,
    rtol: float = 1e-12,
    max_iter: int = 200,
    xtol: float = 0.0,
) -> float:
    """Root of an increasing f on [lo, hi] by Newton's method from x in
    [lo, hi], safeguarded by bisection: the package's one root-finding loop.

    f(x) returns f(x) and its slope f'(x); the caller guarantees f(lo) <= 0
    <= f(hi), so the ends need no evaluation.  Each evaluated iterate
    narrows the bracket by its sign.  A step is replaced by a bisection step
    when the slope is not positive and finite (a slope of nan makes the
    whole solve a bisection) or when the step leaves the bracket, except
    when it passes an end by at most that end's tolerance: the root then
    sits on that end (a cached node, say) and the end is returned.  The
    tolerance at x is xtol + rtol * |x|, so the iteration may run in a
    variable of either sign (log x, say).  Stops once the step or the
    bracket is within it, or, returning the midpoint, once the bracket is
    two adjacent doubles; raises RootError after max_iter evaluations.
    """
    for _ in range(max_iter):
        fx, slope = f(x)
        if fx == 0.0:
            return x
        if fx < 0.0:
            lo = x
        else:
            hi = x
        tol = xtol + rtol * abs(x)
        nxt = x - fx / slope if 0.0 < slope < math.inf else math.nan
        if abs(nxt - x) <= tol:
            return min(max(nxt, lo), hi)
        if hi <= nxt <= hi + (xtol + rtol * abs(hi)):
            return hi
        if lo - (xtol + rtol * abs(lo)) <= nxt <= lo:
            return lo
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
            if not lo < nxt < hi:  # the bracket cannot shrink further
                return nxt
        if hi - lo <= tol:
            return nxt
        x = nxt
    raise RootError(f"root solve on [{lo!r}, {hi!r}] did not converge in {max_iter} iterations")


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
