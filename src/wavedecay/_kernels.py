"""The time step of the coupled wave system, the damping law, and the trace sampler.

The scalar functions `_g` and `_ghat` below are the package's one
definition of the growth law g and its odd saturated extension ghat;
`feedback` evaluates g, H and g_sat through them, and `ghat_np` evaluates
ghat on an array for `sim`'s start state and its numpy `energy` and
`dissipation_rate`.  Asked for the slope as well, they form g' from the
pow, exp and log results of the value, so a Newton iterate of the node
solve calls each of them once.

`advance` is the package's one time step, with two implementations of one
algorithm: `_step.c`, which runs, and its scalar reference in plain Python,
`_solve_node` and `_advance_scalar`, one node at a time.  `_step.c`
translates the reference with the same floating-point operations in the
same order.

`sample` returns E, E1 and the dissipation rate of a state from one call of
`_step.c`'s sampler, which `sim.run` takes at every sample.  Its reference is
`sim.energy` and `sim.dissipation_rate` in numpy: the sampler adds the same
products in `np.add.reduce`'s pairwise order, so it equals them bit for bit.
Where the C step does not run, `sample` returns None and `sim` calls those
two functions.

Which step runs.  The first call of `advance`, `ghat_np`, `sample` or
`active_backend`, never the import, builds `_step.c` with the system `cc`
and loads it through ctypes.  Only where there is no `cc` on PATH, or the
build or the load fails, does one `logging` warning give the reason and
the Python reference run instead, its step 40 to 320 times slower (README,
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


def _advance_scalar(up, uc, vp, vc, alpha, aa, dt, dx, nsteps, fam, p, q, s_sat, g_sat, tol, maxit):
    """The scalar reference of `advance`, one node at a time: the source
    `_step.c` translates, which the tests compare the C step against, and
    the step `advance` runs where the C step cannot be built.
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
    """`_ghat` on each element of the 1-D float array s, in C or, without the C step, in Python."""
    return (_chosen or _choose())[2](s, fam, p, q, s_sat, g_sat)


def _ghat_scalar(s, fam, p, q, s_sat, g_sat):
    return np.array([_ghat(x, fam, p, q, s_sat, g_sat) for x in s.tolist()])


_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_step.c")
_CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
_BUILD_TIMEOUT = 120.0  # seconds allowed to each compiler call

_lock = threading.Lock()
_chosen = None  # (backend name, step, ghat, sampler or None), set by the first `_choose`


class _BuildError(RuntimeError):
    """The C step could not be built."""


def advance(up, uc, vp, vc, alpha, aa, dt, dx, nsteps, fam, p, q, s_sat, g_sat, tol, maxit):
    """Advance the state (up, uc, vp, vc) by nsteps, in place.

    Returns (0, -1, 0.0), or (1, node, b) when the node solve fails at
    padded index `node` with right-hand side b; the state then stays at
    the last completed step.  Runs the C step, or its reference
    `_advance_scalar` where that cannot be built; both give the same bits
    (see the module docstring).
    """
    step = (_chosen or _choose())[1]
    return step(up, uc, vp, vc, alpha, aa, dt, dx, nsteps, fam, p, q, s_sat, g_sat, tol, maxit)


def sample(up, uc, vp, vc, alpha, aa, dt, dx, fam, p, q, s_sat, g_sat):
    """(E, E1, dissipation rate) of the state, as `sim.energy` and
    `sim.dissipation_rate` give them, from one call of the C sampler; None
    where the C step does not run, and those two functions are the sampler.
    """
    fn = (_chosen or _choose())[3]
    return None if fn is None else fn(up, uc, vp, vc, alpha, aa, dt, dx, fam, p, q, s_sat, g_sat)


def active_backend() -> str:
    """The name of the step `advance` runs, "c" or "python", as the trace's
    `backend=` line records it.  The first call may build the C step."""
    return (_chosen or _choose())[0]


def _choose():
    """Build and load the C step and law once per process; fall back to the reference."""
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
                _chosen = ("python", _advance_scalar, _ghat_scalar, None)
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
    """`advance`, `ghat_np` and `sample` through the library's
    wavedecay_advance, wavedecay_ghat and wavedecay_sample."""
    fn, ghat_fn, sample_fn = lib.wavedecay_advance, lib.wavedecay_ghat, lib.wavedecay_sample
    i64, f64, ptr = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
    fn.restype, ghat_fn.restype, sample_fn.restype = ctypes.c_int, None, ctypes.c_int
    fn.argtypes = (ptr, ptr, ptr, ptr, ptr, ptr, i64, f64, f64, i64, ctypes.c_int,
                   f64, f64, f64, f64, f64, i64, ctypes.POINTER(i64), ctypes.POINTER(f64))
    ghat_fn.argtypes = (ptr, ptr, i64, ctypes.c_int, f64, f64, f64, f64)
    sample_fn.argtypes = (ptr, ptr, ptr, ptr, ptr, ptr, i64, f64, f64, ctypes.c_int,
                          f64, f64, f64, f64, ctypes.POINTER(f64 * 3))
    byref = ctypes.byref

    def advance_c(up, uc, vp, vc, alpha, aa, dt, dx, nsteps, fam, p, q, s_sat, g_sat, tol, maxit):
        n2 = uc.shape[0]
        ptrs = [_address(a, n2) for a in (up, uc, vp, vc, alpha, aa)]
        node, b = i64(), f64()
        status = fn(*ptrs, n2, dt, dx, nsteps, fam, p, q, s_sat, g_sat, tol, maxit, byref(node), byref(b))
        if status < 0:
            raise MemoryError("the compiled time step could not allocate its scratch arrays")
        return (1, node.value, b.value) if status else (0, -1, 0.0)

    def ghat_c(s, fam, p, q, s_sat, g_sat):
        s = np.ascontiguousarray(s, dtype=np.float64)
        out = np.empty_like(s)
        ghat_fn(s.ctypes.data, out.ctypes.data, s.size, fam, p, q, s_sat, g_sat)
        return out

    def sample_c(up, uc, vp, vc, alpha, aa, dt, dx, fam, p, q, s_sat, g_sat):
        n2 = uc.shape[0]
        ptrs = [_address(a, n2) for a in (up, uc, vp, vc, alpha, aa)]
        out = (f64 * 3)()
        if sample_fn(*ptrs, n2, dt, dx, fam, p, q, s_sat, g_sat, out) < 0:
            raise MemoryError("the compiled sampler could not allocate its scratch arrays")
        return out[0], out[1], out[2]

    return advance_c, ghat_c, sample_c


def _address(a, n2):
    """Data address of a float64 array of shape (n2,); from_buffer raises
    TypeError unless it is writeable and contiguous."""
    if not (isinstance(a, np.ndarray) and a.dtype == np.float64 and a.shape == (n2,)):
        raise TypeError("the compiled time step needs float64 arrays of equal length")
    return ctypes.addressof(ctypes.c_char.from_buffer(a))
