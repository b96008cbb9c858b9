/* The compiled time step and damping law of wavedecay: a line-by-line C
 * translation of the scalar reference in _kernels.py (_g, _ghat, _ghat_prime,
 * _solve_node and _advance_scalar), with the same floating-point operations
 * in the same order.  _kernels builds it with -ffp-contract=off, so no
 * multiply-add is fused, and calls it through ctypes.  Python's `**`,
 * math.exp and math.log call the C library's pow, exp and log for the finite
 * positive arguments met here, so both equal their reference bit for bit.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>

#define TINY 1e-150 /* below this the essential-singularity families are flushed to 0 */

static double g(double a, int fam, double p, double q)
{
    if (fam == 0)
        return a;
    if (fam == 1)
        return pow(a, p);
    if (fam == 2)
        return a < TINY ? 0.0 : exp(-1.0 / (a * a));
    if (fam == 3)
        return pow(a, p) * pow(log(1.0 / a), q);
    if (a >= 1.0) /* log(1/a)**p would be complex for a > 1 */
        return 1.0;
    return exp(-pow(log(1.0 / a), p));
}

static double ghat(double s, int fam, double p, double q, double s_sat, double g_sat)
{
    double a, v;
    if (s == 0.0)
        return 0.0;
    a = s < 0.0 ? -s : s;
    if (a >= s_sat)
        v = g_sat / s_sat * a;
    else
        v = g(a, fam, p, q);
    return s > 0.0 ? v : -v;
}

static double ghat_prime(double s, int fam, double p, double q, double s_sat, double g_sat)
{
    double a = s < 0.0 ? -s : s, ell;
    if (a >= s_sat)
        return g_sat / s_sat;
    if (a == 0.0)
        return fam == 0 ? 1.0 : 0.0;
    if (fam == 0)
        return 1.0;
    if (fam == 1)
        return p * pow(a, p - 1.0);
    if (fam == 2)
        return a < TINY ? 0.0 : exp(-1.0 / (a * a)) * 2.0 / (a * a * a);
    ell = log(1.0 / a);
    if (fam == 3)
        return pow(a, p - 1.0) * pow(ell, q - 1.0) * (p * ell - q);
    if (ell <= 0.0)
        return 0.0;
    return exp(-pow(ell, p)) * p * pow(ell, p - 1.0) / a;
}

/* Root of clin*s + k2*ghat(s) - b; NAN on non-convergence. */
static double solve_node(double b, double clin, double k2, int fam, double p, double q,
                         double s_sat, double g_sat, double tol, int64_t maxit)
{
    double s_lin, lo, hi, s, feps, f, d, sn;
    int64_t it;
    if (b == 0.0)
        return 0.0;
    s_lin = b / clin;
    if (b > 0.0) {
        lo = 0.0;
        hi = s_lin;
    } else {
        lo = s_lin;
        hi = 0.0;
    }
    s = s_lin;
    feps = 1e-14 * fabs(b);
    for (it = 0; it < maxit; it++) {
        f = clin * s + k2 * ghat(s, fam, p, q, s_sat, g_sat) - b;
        if (fabs(f) <= feps)
            return s;
        if (f > 0.0)
            hi = s;
        else
            lo = s;
        if (hi - lo <= tol * (1.0 + fabs(s)))
            return 0.5 * (lo + hi);
        d = clin + k2 * ghat_prime(s, fam, p, q, s_sat, g_sat);
        sn = s - f / d;
        if (sn <= lo || sn >= hi || sn == s) {
            sn = 0.5 * (lo + hi);
            if (sn == s)
                return s;
        }
        s = sn;
    }
    return NAN;
}

/* _ghat on each of the n values of s, into out. */
void wavedecay_ghat(const double *s, double *out, int64_t n, int fam, double p, double q,
                    double s_sat, double g_sat)
{
    for (int64_t i = 0; i < n; i++)
        out[i] = ghat(s[i], fam, p, q, s_sat, g_sat);
}

/* _advance_scalar on arrays of length n2.  Returns 0 when every step is
 * done, 1 when a node solve fails (its index and b go to *node and *b_fail,
 * and the state stays at the last completed step), -1 when scratch memory
 * cannot be allocated (nothing is stepped). */
int wavedecay_advance(double *up, double *uc, double *vp, double *vc,
                      const double *alpha, const double *aa, int64_t n2,
                      double dt, double dx, int64_t nsteps, int fam, double p, double q,
                      double s_sat, double g_sat, double tol, int64_t maxit,
                      int64_t *node, double *b_fail)
{
    double inv_dx2 = 1.0 / (dx * dx);
    double dt2 = dt * dt;
    double two_dt = 2.0 * dt;
    double half_dt3 = 0.5 * dt2 * dt;
    double *un, *vn;
    int64_t k, i;

    *node = -1;
    *b_fail = 0.0;
    un = calloc((size_t)n2, sizeof(double));
    vn = calloc((size_t)n2, sizeof(double));
    if (un == NULL || vn == NULL) {
        free(un);
        free(vn);
        return -1;
    }
    for (k = 0; k < nsteps; k++) {
        for (i = 1; i < n2 - 1; i++) {
            double lapu = (uc[i - 1] - 2.0 * uc[i] + uc[i + 1]) * inv_dx2;
            double lapv = (vc[i - 1] - 2.0 * vc[i] + vc[i + 1]) * inv_dx2;
            double P = 2.0 * uc[i] - up[i] + dt2 * lapu;
            double Q = 2.0 * vc[i] - vp[i] + dt2 * lapv;
            double al = alpha[i];
            double rmid0 = (Q - vp[i]) / two_dt;
            double b = P - up[i] - dt2 * al * rmid0;
            double clin = two_dt + half_dt3 * al * al;
            double k2 = dt2 * aa[i];
            double s;
            if (k2 == 0.0) {
                s = b / clin;
            } else {
                s = solve_node(b, clin, k2, fam, p, q, s_sat, g_sat, tol, maxit);
                if (isnan(s)) {
                    *node = i;
                    *b_fail = b;
                    free(un);
                    free(vn);
                    return 1;
                }
            }
            un[i] = up[i] + two_dt * s;
            vn[i] = Q + dt2 * al * s;
        }
        for (i = 1; i < n2 - 1; i++) {
            up[i] = uc[i];
            uc[i] = un[i];
            vp[i] = vc[i];
            vc[i] = vn[i];
        }
    }
    free(un);
    free(vn);
    return 0;
}
