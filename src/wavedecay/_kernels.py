"""The time step of the coupled wave system, and the damping law.

The scalar functions `_g` and `_ghat` below are the package's one
definition of the growth law g and its odd saturated extension ghat;
`feedback` evaluates g, H and g_sat through them.

`advance` is the package's one time step.  `_ghat_prime`, `_solve_node` and
`_advance_scalar` are its scalar reference, one node at a time in plain
Python; the package never calls them.

Which step runs.  The first call of `advance` (or of `active_backend`),
never the import, builds `_step.c`, a C translation of the scalar reference
with the same floating-point operations in the same order, with the system
`cc` and loads it through ctypes; `advance` then runs it.  Only when there
is no `cc` on PATH, or the build or the load fails, does one `logging`
warning give the reason and `advance` run `_advance_numpy`, a vectorized
numpy form of the same reference.  `active_backend()` names the step that
runs, "c" or "numpy"; nothing else selects it.

The library is cached per user in `$XDG_CACHE_HOME/wavedecay` (default
`~/.cache/wavedecay`, created with mode 0700), under a name keyed by a hash
of the C source, the compiler flags and `cc --version`, so a new source or
compiler builds a new file.  Deleting that directory clears the cache.  When
it cannot be written, the library is built in a temporary directory that is
removed as soon as it is loaded.

Bits.  The C step equals the scalar reference bit for bit: Python's `**`,
`math.exp` and `math.log` call the same C library functions, and the build
uses -ffp-contract=off (no fused multiply-add) and no -ffast-math.  Its
outputs therefore follow the C library's pow/exp/log.  The numpy step
performs the same operations in the same order, but numpy may dispatch its
pow/exp/log loops to CPU-specific (e.g. AVX-512) code that rounds
differently in the last bit, so on such a CPU cubic and sub_exponential
runs of the two steps part at rounding level; with numpy's dispatched CPU
features switched off (`NPY_DISABLE_CPU_FEATURES`) the numpy step equals
the reference exactly on every case tested.  test_backend_equivalence and
test_backend_failure_report check both steps against the reference, and
test_backend_equivalence_without_cpu_dispatch checks the numpy step in a
fresh interpreter with every dispatched feature off.

The update is a leapfrog step in which the velocity coupling and the
damping act on the midpoint velocity (u_next - u_prev) / (2 dt).  That
choice makes the discrete energy identity exact: the coupling cancels in
the energy balance and the only energy change per step is
-dt * sum(dx * rho(u'_mid) * u'_mid).  Eliminating v_next (whose equation
is linear in the midpoint velocity) reduces each node to one monotone
scalar equation

    clin * s + dt^2 * a * ghat(s) = b,   clin = 2 dt + dt^3 alpha^2 / 2,

solved by safeguarded Newton inside a sign bracket.

State arrays are padded: length n + 2 with fixed zeros at both ends.
"""

from __future__ import annotations

import ctypes
import math
import os
import threading

import numpy as np

_TINY = 1e-150  # below this the essential-singularity families are flushed to 0


def _g(a, fam, p, q):
    """g(a) for a > 0; fam is the index of the family in `feedback.FAMILIES`."""
    if fam == 0:
        return a
    if fam == 1:
        return a**p
    if fam == 2:
        return 0.0 if a < _TINY else math.exp(-1.0 / (a * a))
    if fam == 3:
        return a**p * math.log(1.0 / a) ** q
    if a >= 1.0:  # log(1/a)**p would be complex for a > 1
        return 1.0
    return math.exp(-math.log(1.0 / a) ** p)


def _ghat(s, fam, p, q, s_sat, g_sat):
    """Odd extension of g, continued linearly beyond s_sat."""
    if s == 0.0:
        return 0.0
    a = -s if s < 0.0 else s
    if a >= s_sat:
        v = g_sat / s_sat * a
    else:
        v = _g(a, fam, p, q)
    return v if s > 0.0 else -v


def _ghat_prime(s, fam, p, q, s_sat, g_sat):
    a = -s if s < 0.0 else s
    if a >= s_sat:
        return g_sat / s_sat
    if a == 0.0:
        return 1.0 if fam == 0 else 0.0
    if fam == 0:
        return 1.0
    if fam == 1:
        return p * a ** (p - 1.0)
    if fam == 2:
        return 0.0 if a < _TINY else math.exp(-1.0 / (a * a)) * 2.0 / (a * a * a)
    ell = math.log(1.0 / a)
    if fam == 3:
        return a ** (p - 1.0) * ell ** (q - 1.0) * (p * ell - q)
    if ell <= 0.0:
        return 0.0
    return math.exp(-(ell**p)) * p * ell ** (p - 1.0) / a


def _solve_node(b, clin, k2, fam, p, q, s_sat, g_sat, tol, maxit):
    """Root of clin*s + k2*ghat(s) - b; returns nan on non-convergence.

    The root lies between 0 and b/clin because ghat has the sign of s.
    Newton steps are accepted only inside the current sign bracket; anything
    else falls back to bisection, so progress is guaranteed.
    """
    if b == 0.0:
        return 0.0
    s_lin = b / clin
    if b > 0.0:
        lo, hi = 0.0, s_lin
    else:
        lo, hi = s_lin, 0.0
    s = s_lin
    feps = 1e-14 * abs(b)
    for _ in range(maxit):
        f = clin * s + k2 * _ghat(s, fam, p, q, s_sat, g_sat) - b
        if abs(f) <= feps:
            return s
        if f > 0.0:
            hi = s
        else:
            lo = s
        if hi - lo <= tol * (1.0 + abs(s)):
            return 0.5 * (lo + hi)
        d = clin + k2 * _ghat_prime(s, fam, p, q, s_sat, g_sat)
        sn = s - f / d
        if sn <= lo or sn >= hi or sn == s:
            sn = 0.5 * (lo + hi)
            if sn == s:
                return s
        s = sn
    return math.nan


def _advance_scalar(up, uc, vp, vc, alpha, aa, dt, dx, nsteps, fam, p, q, s_sat, g_sat, tol, maxit):
    """The scalar reference of `advance`, one node at a time.

    The package never calls it, nor `_solve_node` and `_ghat_prime`: they
    are the source `_step.c` translates, and the tests compare both steps
    against them (see the module docstring).
    """
    n2 = uc.shape[0]
    inv_dx2 = 1.0 / (dx * dx)
    dt2 = dt * dt
    two_dt = 2.0 * dt
    half_dt3 = 0.5 * dt2 * dt
    un = np.zeros(n2)
    vn = np.zeros(n2)
    for _ in range(nsteps):
        for i in range(1, n2 - 1):
            lapu = (uc[i - 1] - 2.0 * uc[i] + uc[i + 1]) * inv_dx2
            lapv = (vc[i - 1] - 2.0 * vc[i] + vc[i + 1]) * inv_dx2
            P = 2.0 * uc[i] - up[i] + dt2 * lapu
            Q = 2.0 * vc[i] - vp[i] + dt2 * lapv
            al = alpha[i]
            rmid0 = (Q - vp[i]) / two_dt
            b = P - up[i] - dt2 * al * rmid0
            clin = two_dt + half_dt3 * al * al
            k2 = dt2 * aa[i]
            if k2 == 0.0:
                s = b / clin
            else:
                s = _solve_node(b, clin, k2, fam, p, q, s_sat, g_sat, tol, maxit)
                if math.isnan(s):
                    return 1, i, b
            un[i] = up[i] + two_dt * s
            vn[i] = Q + dt2 * al * s
        for i in range(1, n2 - 1):
            up[i] = uc[i]
            uc[i] = un[i]
            vp[i] = vc[i]
            vc[i] = vn[i]
    return 0, -1, 0.0


def ghat_np(s: np.ndarray, fam: int, p: float, q: float, s_sat: float, g_sat: float) -> np.ndarray:
    """Vectorized odd extension of g (same branches as the scalar `_ghat`)."""
    s = np.asarray(s, dtype=float)
    a = np.abs(s)
    with np.errstate(all="ignore"):  # the branches np.where discards may overflow or be nan
        g = _g_into(a, np.empty_like(a), np.empty_like(a), fam, p, q)
    out = np.where(a >= s_sat, g_sat / s_sat * a, np.where(a > 0.0, g, 0.0))
    return np.sign(s) * out


def _g_into(a, out, t1, fam, p, q):
    """g(a) for 0 < a < s_sat: the middle branch of `_ghat`, in place.

    Same expressions in the same order as `_ghat`.  Returns the array that
    holds the result (`a` itself for the linear law).  exp_inv_square needs
    no `_TINY` guard: below it the exponent is under -1e300 and exp gives the
    same 0.0.
    """
    if fam == 0:
        return a
    if fam == 1:
        np.power(a, p, out)
    elif fam == 2:
        np.multiply(a, a, out)
        np.divide(-1.0, out, out)
        np.exp(out, out)
    elif fam == 3:
        np.divide(1.0, a, t1)
        np.log(t1, t1)
        np.power(t1, q, t1)
        np.power(a, p, out)
        np.multiply(out, t1, out)
    else:
        np.divide(1.0, a, out)
        np.log(out, out)
        np.power(out, p, out)
        np.negative(out, out)
        np.exp(out, out)
    return out


def _g_prime_into(a, out, t1, t2, tb, fam, p, q):
    """g'(a) for 0 < a < s_sat: the middle branch of `_ghat_prime`, in place.

    t1, t2 are float scratch arrays and tb a boolean one.
    """
    if fam == 0:
        out.fill(1.0)
    elif fam == 1:
        np.power(a, p - 1.0, out)
        np.multiply(out, p, out)
    elif fam == 2:
        np.multiply(a, a, out)
        np.divide(-1.0, out, out)
        np.exp(out, out)
        np.multiply(out, 2.0, out)
        np.multiply(a, a, t1)
        np.multiply(t1, a, t1)
        np.divide(out, t1, out)
        np.less(a, _TINY, tb)
        np.copyto(out, 0.0, where=tb)
    else:
        np.divide(1.0, a, t1)
        np.log(t1, t1)  # ell
        if fam == 3:
            np.power(a, p - 1.0, out)
            np.power(t1, q - 1.0, t2)
            np.multiply(out, t2, out)
            np.multiply(t1, p, t1)
            np.subtract(t1, q, t1)
            np.multiply(out, t1, out)
        else:
            # ell = 0 gives 0.0 here as in the reference's guarded branch
            np.power(t1, p, out)
            np.negative(out, out)
            np.exp(out, out)
            np.multiply(out, p, out)
            np.power(t1, p - 1.0, t2)
            np.multiply(out, t2, out)
            np.divide(out, a, out)


def _solve_nodes(bm, clin, k2, act, work, fam, p, q, s_sat, g_sat, tol, maxit):
    """`_solve_node` on every node marked in `act`, all at once, in magnitudes.

    The root has the sign of b, ghat is odd and round-to-nearest is
    symmetric, so solving clin*x + k2*g(x) = |b| on [0, |b|/clin] and giving
    x the sign of b reproduces every iterate of the signed solve.  A node
    leaves `act` where `_solve_node` returns; its x then stays as returned.
    Returns x (in `work`) and the index of the first node still unsolved
    after maxit iterations, or -1.
    """
    x, xn, lo, hi, feps, f, g, t1, t2, mask, sat_mask, bad = work
    np.divide(bm, clin, x)
    np.copyto(hi, x)
    lo.fill(0.0)
    np.multiply(bm, 1e-14, feps)
    # no iterate exceeds its start, so one bound serves the whole solve
    x_max = x.max()
    sat = x_max >= s_sat
    ratio = g_sat / s_sat
    width_floor = tol * (1.0 + x_max)
    for _ in range(maxit):
        gx = _g_into(x, g, t1, fam, p, q)
        if sat:
            np.greater_equal(x, s_sat, sat_mask)
            np.copyto(g, gx)
            np.multiply(x, ratio, g, where=sat_mask)
            gx = g
        np.multiply(k2, gx, g)
        np.multiply(clin, x, f)
        np.add(f, g, f)
        np.subtract(f, bm, f)
        np.abs(f, t1)
        np.less_equal(t1, feps, mask)
        np.greater(act, mask, act)  # converged: x is the root
        if not np.count_nonzero(act):
            return x, -1
        np.greater(f, 0.0, mask)
        np.copyto(hi, x, where=mask)
        np.logical_not(mask, mask)
        np.copyto(lo, x, where=mask)
        # bracket-width exit; tol*(1+x) <= width_floor, so most steps skip the exact test
        np.subtract(hi, lo, t1)
        np.less_equal(t1, width_floor, mask)
        np.logical_and(mask, act, mask)
        if np.count_nonzero(mask):
            np.add(x, 1.0, t2)
            np.multiply(t2, tol, t2)
            np.less_equal(t1, t2, mask)
            np.logical_and(mask, act, mask)
            np.add(lo, hi, t2)
            np.multiply(t2, 0.5, t2)
            np.copyto(x, t2, where=mask)
            np.greater(act, mask, act)
        _g_prime_into(x, g, t1, t2, mask, fam, p, q)
        if sat:
            np.copyto(g, ratio, where=sat_mask)
        np.multiply(k2, g, g)
        np.add(clin, g, g)
        np.divide(f, g, g)
        np.subtract(x, g, xn)
        # x is lo or hi after the bracket update, so sn == s is already
        # caught by sn <= lo or sn >= hi
        np.less_equal(xn, lo, bad)
        np.greater_equal(xn, hi, mask)
        np.logical_or(bad, mask, bad)
        np.logical_and(bad, act, bad)
        if np.count_nonzero(bad):
            np.add(lo, hi, t2)
            np.multiply(t2, 0.5, t2)
            np.copyto(xn, t2, where=bad)
            np.equal(t2, x, mask)
            np.logical_and(mask, bad, mask)
            np.greater(act, mask, act)  # bisection cannot move x: x is returned
        np.copyto(x, xn, where=act)
    return x, (int(np.argmax(act)) if np.count_nonzero(act) else -1)


def _advance_numpy(up, uc, vp, vc, alpha, aa, dt, dx, nsteps, fam, p, q, s_sat, g_sat, tol, maxit):
    """Vectorized `_advance_scalar`: same signature, same return, and the same
    bits within the limits the module docstring states.  `advance` runs it
    only where the C step cannot be built or loaded.

    u and v are stepped together as the rows of two (2, n + 2) buffers that
    swap roles each step; the caller's arrays are written back at the end.
    All work happens in buffers allocated once per call.  The node solve
    runs on the slice from the first to the last damped node (damping
    supports are intervals); an undamped run does none.
    """
    n = uc.shape[0] - 2
    inv_dx2 = 1.0 / (dx * dx)
    dt2 = dt * dt
    two_dt = 2.0 * dt
    al = alpha[1:-1]
    clin = two_dt + 0.5 * dt2 * dt * al * al
    k2 = dt2 * aa[1:-1]
    dt2_al = dt2 * al
    coef = np.empty((2, n))
    coef[0] = two_dt
    coef[1] = dt2_al

    # rows u and v of the two time levels; only the current level's ends are read
    wa = np.stack((up, vp))
    wb = np.stack((uc, vc))
    wa[:, 0] = wb[:, 0]
    wa[:, -1] = wb[:, -1]
    levels = [(w[:, 1:-1], w[:, :-2], w[:, 2:]) for w in (wa, wb)]
    tw, lap, pq, upd = (np.empty((2, n)) for _ in range(4))
    r, b, s = np.empty(n), np.empty(n), np.empty(n)

    damped = np.flatnonzero(k2 != 0.0)
    i0, i1 = (int(damped[0]), int(damped[-1]) + 1) if damped.size else (0, 0)
    m = i1 - i0
    b_sl, s_sl = b[i0:i1], s[i0:i1]
    clin_sl, k2_sl = clin[i0:i1], k2[i0:i1]
    damped_sl = k2_sl != 0.0
    bm, sign = np.empty(m), np.empty(m)
    act = np.empty(m, dtype=bool)
    work = tuple(np.empty(m) for _ in range(9)) + tuple(np.empty(m, dtype=bool) for _ in range(3))

    status = (0, -1, 0.0)
    # solved nodes may sit at 0, where 1/a and log(1/a) are infinite, and
    # -1/(a*a) overflows to -inf for tiny a, where exp gives the reference's 0.0
    with np.errstate(all="ignore"):
        for _ in range(nsteps):
            (p_in, _, _), (c_in, c_left, c_right) = levels
            np.multiply(c_in, 2.0, tw)
            np.subtract(c_left, tw, lap)
            np.add(lap, c_right, lap)
            np.multiply(lap, inv_dx2, lap)
            np.multiply(lap, dt2, lap)
            np.subtract(tw, p_in, pq)
            np.add(pq, lap, pq)  # rows P and Q
            np.subtract(pq[1], p_in[1], r)
            np.divide(r, two_dt, r)
            np.multiply(dt2_al, r, r)
            np.subtract(pq[0], p_in[0], b)
            np.subtract(b, r, b)
            np.divide(b, clin, s)  # the undamped nodes' answer

            if m:
                np.abs(b_sl, bm)
                np.not_equal(bm, 0.0, act)  # b == 0 gives s = 0
                np.logical_and(act, damped_sl, act)
                x, failed = _solve_nodes(bm, clin_sl, k2_sl, act, work,
                                         fam, p, q, s_sat, g_sat, tol, maxit)
                if failed >= 0:
                    status = (1, i0 + failed + 1, float(b_sl[failed]))
                    break
                np.sign(b_sl, sign)
                np.multiply(x, sign, sign)
                np.copyto(s_sl, sign, where=damped_sl)

            np.copyto(p_in[1], pq[1])
            np.multiply(coef, s, upd)
            np.add(p_in, upd, p_in)  # rows up + 2 dt s and Q + dt^2 alpha s
            levels.reverse()

    (p_in, _, _), (c_in, _, _) = levels
    up[1:-1], vp[1:-1] = p_in
    uc[1:-1], vc[1:-1] = c_in
    return status


_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_step.c")
_CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
_BUILD_TIMEOUT = 120.0  # seconds allowed to each compiler call

_lock = threading.Lock()
_chosen = None  # (backend name, step function), set by the first `_choose`


class _BuildError(RuntimeError):
    """The C step could not be built."""


def advance(up, uc, vp, vc, alpha, aa, dt, dx, nsteps, fam, p, q, s_sat, g_sat, tol, maxit):
    """Advance the state (up, uc, vp, vc) by nsteps, in place.

    Returns (0, -1, 0.0), or (1, node, b) when the node solve fails at
    padded index `node` with right-hand side b; the state then stays at
    the last completed step.  Runs the C step, or the numpy step where
    that cannot be built; the module docstring says how each matches
    `_advance_scalar`, which has the same signature.
    """
    step = (_chosen or _choose())[1]
    return step(up, uc, vp, vc, alpha, aa, dt, dx, nsteps, fam, p, q, s_sat, g_sat, tol, maxit)


def active_backend() -> str:
    """The name of the step `advance` runs, "c" or "numpy", as the trace's
    `backend=` line records it.  The first call may build the C step."""
    return (_chosen or _choose())[0]


def _choose():
    """Build and load the C step once per process; fall back to numpy."""
    global _chosen
    with _lock:
        if _chosen is None:
            import subprocess

            try:
                _chosen = ("c", _c_step(_load_library()))
            except (OSError, AttributeError, subprocess.SubprocessError, _BuildError) as exc:
                import logging

                logging.getLogger(__name__).warning(
                    "wavedecay: the compiled time step is unavailable (%s); "
                    "running the numpy step", exc)
                _chosen = ("numpy", _advance_numpy)
    return _chosen


def _cache_dir() -> str:
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):  # the XDG spec ignores relative paths
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "wavedecay")


def _private_dir(path: str) -> bool:
    """Create path with mode 0700 if needed; True if only this user can write it."""
    try:
        os.makedirs(path, mode=0o700, exist_ok=True)
        st = os.stat(path)
    except OSError:
        return False
    return (st.st_uid == os.getuid() and not st.st_mode & 0o022
            and os.access(path, os.W_OK | os.X_OK))


def _load_library():
    """Find the compiled step in the cache, or build it; return the loaded library."""
    import hashlib
    import shutil
    import subprocess
    import tempfile

    cc = shutil.which("cc")
    if cc is None:
        raise _BuildError("no C compiler: cc is not on PATH")
    with open(_SOURCE, "rb") as fh:
        source = fh.read()
    version = subprocess.run([cc, "--version"], capture_output=True, check=True,
                             timeout=_BUILD_TIMEOUT).stdout
    key = hashlib.sha256(b"\0".join((source, " ".join(_CFLAGS).encode(), version)))
    name = f"step-{key.hexdigest()[:24]}.so"

    def build(directory):
        """Compile into a temp file in directory, then rename it to its name."""
        fd, tmp = tempfile.mkstemp(prefix=".build-", suffix=".so", dir=directory)
        os.close(fd)
        try:
            res = subprocess.run([cc, *_CFLAGS, "-o", tmp, "-x", "c", "-", "-lm"], input=source,
                                 capture_output=True, timeout=_BUILD_TIMEOUT)
            if res.returncode != 0:
                err = res.stderr.decode(errors="replace").strip()
                raise _BuildError(f"{cc} exited with status {res.returncode}: {err[-500:]}")
            os.replace(tmp, os.path.join(directory, name))
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)

    cache = _cache_dir()
    if _private_dir(cache):
        path = os.path.join(cache, name)
        try:
            if not os.path.exists(path):
                build(cache)
            return ctypes.CDLL(path)
        except OSError:  # the cache cannot be written after all: build as below
            pass
    with tempfile.TemporaryDirectory(prefix="wavedecay-") as tmp_dir:
        build(tmp_dir)
        return ctypes.CDLL(os.path.join(tmp_dir, name))  # stays mapped once the file is gone


def _c_step(lib):
    """`advance` through the library's wavedecay_advance."""
    fn = lib.wavedecay_advance
    i64, f64, ptr = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
    fn.restype = ctypes.c_int
    fn.argtypes = (ptr, ptr, ptr, ptr, ptr, ptr, i64, f64, f64, i64, ctypes.c_int,
                   f64, f64, f64, f64, f64, i64, ctypes.POINTER(i64), ctypes.POINTER(f64))
    byref = ctypes.byref

    def advance_c(up, uc, vp, vc, alpha, aa, dt, dx, nsteps, fam, p, q, s_sat, g_sat, tol, maxit):
        n2 = uc.shape[0]
        ptrs = [_address(a, n2) for a in (up, uc, vp, vc, alpha, aa)]
        node, b = i64(), f64()
        status = fn(*ptrs, n2, dt, dx, nsteps, fam, p, q, s_sat, g_sat, tol, maxit, byref(node), byref(b))
        if status < 0:
            raise MemoryError("the compiled time step could not allocate its scratch arrays")
        return (1, node.value, b.value) if status else (0, -1, 0.0)

    return advance_c


def _address(a, n2):
    """Data address of a float64 array of shape (n2,); from_buffer raises
    TypeError unless it is writeable and contiguous."""
    if not (isinstance(a, np.ndarray) and a.dtype == np.float64 and a.shape == (n2,)):
        raise TypeError("the compiled time step needs float64 arrays of equal length")
    return ctypes.addressof(ctypes.c_char.from_buffer(a))
