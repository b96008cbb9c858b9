"""The run loop of the coupled wave system, the damping law, and the trace sampler.

The scalar functions `_g` and `_ghat` below are the package's one
definition of the growth law g and its odd saturated extension ghat;
`feedback` evaluates g, H and g_sat through them, and `ghat_np` evaluates
ghat on an array for `sim`'s start state and the numpy sampler
`_sample_np`.  Asked for the slope as well, they form g' from the pow, exp
and log results of the value, so a Newton iterate of the node solve calls
each of them once.

`advance` is the package's one entry to the time step, and one call runs a
whole trace: given a sample buffer, it samples the state, steps in chunks
of `stride`, samples (E, E1, dissipation rate) after each chunk and stops
at the energy floor.  It has two implementations of one algorithm:
`_step.c`, which runs, and its reference in Python, `_solve_node` and
`_advance_scalar` stepping one node at a time and `_sample_np` sampling in
numpy.  In `_step.c` each node runs the reference's floating-point
operations in the same order, but a step's damped nodes are solved
together, in lockstep, one Newton iterate of every open node per pass, so
the CPU overlaps their independent pow/exp/log calls; a failed step
reports its lowest failing node, where the reference stops.  Its sampler
adds the same products in `np.add.reduce`'s pairwise order.

Which step runs.  The first call of `advance`, `ghat_np` or
`active_backend`, never the import, builds `_step.c` with the system `cc`
and loads it through ctypes.  Only where there is no `cc` on PATH, or the
build or the load fails, does one `logging` warning give the reason and
the Python reference run instead, its step 80 to 370 times slower (README,
Kernel backends).  `active_backend()` names the step that runs, "c" or
"python"; nothing else selects it.

The library is cached per user in `$XDG_CACHE_HOME/wavedecay` (default
`~/.cache/wavedecay`, created with mode 0700), under a name keyed by a hash
of the C source, the compiler flags and `cc --version`, so a new source or
compiler builds a new file.  Deleting that directory clears the cache.  When
it cannot be written, the library is built in a temporary directory that is
removed as soon as it is loaded.

Bits.  The C step, law and sampler equal their reference bit for bit:
Python's `**`, `math.exp` and `math.log` call the same C library functions,
and the build uses -ffp-contract=off (no fused multiply-add) and no
-ffast-math.  So a host writes the same trace bits with or without a
compiler, every column following its C library's pow/exp/log, as
test_backend_equivalence, test_ghat_np_matches_reference and
test_sampler_matches_numpy check.

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


def _g(a, fam, p, q, slope=False):
    """g(a) for a > 0; fam is the index of the family in `feedback.FAMILIES`.

    With slope=True, the pair (g(a), g'(a)): the node solve's Newton iterate
    takes both from one evaluation of pow, exp and log.
    """
    if fam == 0:
        return (a, 1.0) if slope else a
    if fam == 1:
        v = a**p
        return (v, p * (v / a)) if slope else v
    if fam == 2:
        if a < _TINY:
            return (0.0, 0.0) if slope else 0.0
        v = math.exp(-1.0 / (a * a))
        return (v, v * 2.0 / (a * a) / a) if slope else v  # a^3 may underflow
    if fam == 3:
        ap = a**p
        if ap == 0.0:  # also where 1/a overflows and ell**q * 0 would be nan
            return (0.0, 0.0) if slope else 0.0
        ell = math.log(1.0 / a)
        lq = ell**q
        return (ap * lq, ap / a * (lq / ell) * (p * ell - q)) if slope else ap * lq
    if a >= 1.0:  # log(1/a)**p would be complex for a > 1
        return (1.0, 0.0) if slope else 1.0
    ell = math.log(1.0 / a)
    lp = ell**p
    v = math.exp(-lp)
    if not slope:
        return v
    # 0 also where v underflows: below 1/DBL_MAX, lp / ell is inf / inf
    return v, (0.0 if ell <= 0.0 or v == 0.0 else v * p * (lp / ell) / a)


def _ghat(s, fam, p, q, s_sat, g_sat, slope=False):
    """Odd extension of g, continued linearly beyond s_sat; with slope=True,
    the pair (ghat(s), ghat'(s)) as `_g` gives it."""
    if s == 0.0:
        return (0.0, 1.0 if fam == 0 else 0.0) if slope else 0.0
    a = -s if s < 0.0 else s
    if a >= s_sat:
        d = g_sat / s_sat
        v = d * a
    elif slope:
        v, d = _g(a, fam, p, q, True)
    else:
        v = _g(a, fam, p, q)
    v = v if s > 0.0 else -v
    return (v, d) if slope else v


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
        v, slope = _ghat(s, fam, p, q, s_sat, g_sat, True)
        f = clin * s + k2 * v - b
        if abs(f) <= feps:
            return s
        if f > 0.0:
            hi = s
        else:
            lo = s
        if hi - lo <= tol * (1.0 + abs(s)):
            return 0.5 * (lo + hi)
        d = clin + k2 * slope
        sn = s - f / d
        if sn <= lo or sn >= hi or sn == s:
            sn = 0.5 * (lo + hi)
            if sn == s:
                return s
        s = sn
    return math.nan


def _advance_scalar(up, uc, vp, vc, alpha, aa, dt, dx, nsteps, fam, p, q, s_sat, g_sat, tol, maxit,
                    stride, samples, floor_factor):
    """The reference of `advance`, one node at a time: the source `_step.c`
    translates, which the tests compare the C loop against, and the loop
    `advance` runs where the C step cannot be built.
    """
    n2 = uc.shape[0]
    inv_dx2 = 1.0 / (dx * dx)
    dt2 = dt * dt
    two_dt = 2.0 * dt
    half_dt3 = 0.5 * dt2 * dt
    un = np.zeros(n2)
    vn = np.zeros(n2)
    law = (fam, p, q, s_sat, g_sat)
    if samples is not None:
        samples[0] = _sample_np(up, uc, vp, vc, alpha, aa, dt, dx, *law)
        e0 = samples[0, 0]
        floor = floor_factor * e0
    k = j = 0
    while k < nsteps:
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
                s = _solve_node(b, clin, k2, *law, tol, maxit)
                if math.isnan(s):
                    return k, i, b
            un[i] = up[i] + two_dt * s
            vn[i] = Q + dt2 * al * s
        for i in range(1, n2 - 1):
            up[i] = uc[i]
            uc[i] = un[i]
            vp[i] = vc[i]
            vc[i] = vn[i]
        k += 1
        if samples is not None and (k % stride == 0 or k == nsteps):
            j += 1
            samples[j] = _sample_np(up, uc, vp, vc, alpha, aa, dt, dx, *law)
            if e0 > 0.0 and samples[j, 0] < floor:
                break
    return k, -1, 0.0


def _dot(x: np.ndarray, y: np.ndarray) -> float:
    """sum(x * y) by numpy's pairwise summation, whose order no CPU feature
    changes.  np.dot would call BLAS, whose kernel, and so whose rounding,
    OpenBLAS picks by CPU."""
    return np.add.reduce(x * y)


def _lap(w: np.ndarray, dx: float) -> np.ndarray:
    out = np.zeros_like(w)
    out[1:-1] = (w[:-2] - 2.0 * w[1:-1] + w[2:]) / (dx * dx)
    return out


def _sample_np(up, uc, vp, vc, alpha, aa, dt, dx, fam, p, q, s_sat, g_sat):
    """(E, E1, dissipation rate) of the state at the half step, in numpy:
    the reference of `_step.c`'s sampler, and the sampler of the Python loop.

    The gradient part of E uses the product of forward differences at the
    two stored levels, which is the functional the scheme conserves exactly
    when the damping vanishes.  E1 evaluates the accelerations through the
    equations at the level average (meaningful for smooth data).  The
    dissipation rate is -dx * sum rho(x, w) w with the half-step velocity w.
    """
    wu = (uc - up) / dt
    wv = (vc - vp) / dt
    kin = 0.5 * dx * (_dot(wu[1:-1], wu[1:-1]) + _dot(wv[1:-1], wv[1:-1]))
    duc = np.diff(uc) / dx
    dup = np.diff(up) / dx
    dvc = np.diff(vc) / dx
    dvp = np.diff(vp) / dx
    grad = 0.5 * dx * (_dot(duc, dup) + _dot(dvc, dvp))
    e = kin + grad

    u_half = 0.5 * (uc + up)
    v_half = 0.5 * (vc + vp)
    rho = aa * ghat_np(wu, fam, p, q, s_sat, g_sat)
    u_tt = _lap(u_half, dx) - alpha * wv - rho
    v_tt = _lap(v_half, dx) + alpha * wu
    dwu = np.diff(wu) / dx
    dwv = np.diff(wv) / dx
    e1 = 0.5 * dx * (
        _dot(u_tt[1:-1], u_tt[1:-1]) + _dot(v_tt[1:-1], v_tt[1:-1]) + _dot(dwu, dwu) + _dot(dwv, dwv)
    )
    return float(e), float(e1), float(-dx * _dot(wu[1:-1], rho[1:-1]))


def ghat_np(s: np.ndarray, fam: int, p: float, q: float, s_sat: float, g_sat: float) -> np.ndarray:
    """`_ghat` on each element of the 1-D float array s, in C or, without the C step, in Python."""
    return (_chosen or _choose())[2](s, fam, p, q, s_sat, g_sat)


def _ghat_scalar(s, fam, p, q, s_sat, g_sat):
    return np.array([_ghat(x, fam, p, q, s_sat, g_sat) for x in s.tolist()])


_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_step.c")
_CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
_BUILD_TIMEOUT = 120.0  # seconds allowed to each compiler call

_lock = threading.Lock()
_chosen = None  # (backend name, run loop, ghat), set by the first `_choose`


class _BuildError(RuntimeError):
    """The C step could not be built."""


def advance(up, uc, vp, vc, alpha, aa, dt, dx, nsteps, fam, p, q, s_sat, g_sat, tol, maxit,
            stride, samples, floor_factor):
    """Advance the state (up, uc, vp, vc) by nsteps, in place; with a
    sample buffer, run and sample a whole trace in one call.

    `samples` is None, or a float64 array of shape
    (1 + ceil(nsteps / stride), 3).  Given one, the call writes the state's
    (E, E1, dissipation rate) to row 0 and a row after every stride-th step
    and after the last one, and stops after the first row whose E is below
    floor_factor * E0, when E0 > 0.  With nsteps = 0 it only samples.

    Returns (k, -1, 0.0) after k steps, or (k, node, b) when the node solve
    of step k (the step from t = k dt) fails at padded index `node` with
    right-hand side b; the state then stays at step k.  Runs the C loop, or
    its reference `_advance_scalar` where that cannot be built; both give
    the same bits (see the module docstring).
    """
    run = (_chosen or _choose())[1]
    return run(up, uc, vp, vc, alpha, aa, dt, dx, nsteps, fam, p, q, s_sat, g_sat, tol, maxit,
               stride, samples, floor_factor)


def active_backend() -> str:
    """The name of the step `advance` runs, "c" or "python", as the trace's
    `backend=` line records it.  The first call may build the C step."""
    return (_chosen or _choose())[0]


def _choose():
    """Build and load the C loop and law once per process; fall back to the reference."""
    global _chosen
    with _lock:
        if _chosen is None:
            import subprocess

            try:
                _chosen = ("c", *_c_functions(_load_library()))
            except (OSError, AttributeError, subprocess.SubprocessError, _BuildError) as exc:
                import logging

                logging.getLogger(__name__).warning(
                    "wavedecay: the compiled time step is unavailable (%s); "
                    "running the much slower pure-Python reference step", exc)
                _chosen = ("python", _advance_scalar, _ghat_scalar)
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


def _c_functions(lib):
    """`advance` and `ghat_np` through the library's wavedecay_advance and wavedecay_ghat."""
    fn, ghat_fn = lib.wavedecay_advance, lib.wavedecay_ghat
    i64, f64, ptr = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
    fn.restype, ghat_fn.restype = i64, None
    fn.argtypes = (ptr, ptr, ptr, ptr, ptr, ptr, i64, f64, f64, i64, ctypes.c_int,
                   f64, f64, f64, f64, f64, i64, i64, ptr, f64,
                   ctypes.POINTER(i64), ctypes.POINTER(f64))
    ghat_fn.argtypes = (ptr, ptr, i64, ctypes.c_int, f64, f64, f64, f64)

    def advance_c(up, uc, vp, vc, alpha, aa, dt, dx, nsteps, fam, p, q, s_sat, g_sat, tol, maxit,
                  stride, samples, floor_factor):
        n2 = (uc.shape[0],)
        ptrs = [_address(a, n2) for a in (up, uc, vp, vc, alpha, aa)]
        if samples is not None:
            if stride < 1:  # the buffer's shape would not bound the rows written
                raise ValueError("stride must be >= 1")
            samples = _address(samples, (1 + -(-nsteps // stride), 3))
        node, b = i64(), f64()
        k = fn(*ptrs, n2[0], dt, dx, nsteps, fam, p, q, s_sat, g_sat, tol, maxit, stride, samples,
               floor_factor, ctypes.byref(node), ctypes.byref(b))
        if k < 0:
            raise MemoryError("the compiled run loop could not allocate its scratch arrays")
        return k, node.value, b.value

    def ghat_c(s, fam, p, q, s_sat, g_sat):
        s = np.ascontiguousarray(s, dtype=np.float64)
        out = np.empty_like(s)
        ghat_fn(s.ctypes.data, out.ctypes.data, s.size, fam, p, q, s_sat, g_sat)
        return out

    return advance_c, ghat_c


def _address(a, shape):
    """Data address of a float64 array of the given shape; from_buffer raises
    TypeError unless it is writeable and C-contiguous."""
    if not (isinstance(a, np.ndarray) and a.dtype == np.float64 and a.shape == shape):
        raise TypeError(f"the compiled run loop needs float64 arrays of shape {shape}")
    return ctypes.addressof(ctypes.c_char.from_buffer(a))
