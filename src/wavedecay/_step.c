/* The compiled run loop, damping law and trace sampler of wavedecay.
 *
 * The step and law are a C translation of the scalar reference in
 * _kernels.py (_g, _ghat, _solve_node and _advance_scalar): each node runs
 * the reference's floating-point operations in the same order.  Only the
 * order of the nodes differs: a step's damped nodes are solved together, in
 * lockstep (solve_lanes), so the CPU overlaps their independent libm calls.
 * A Newton iterate of the node solve calls pow, exp and log once: g and
 * ghat return the slope g' beside the value, formed from the same libm
 * results.  _kernels builds the file with -ffp-contract=off, so no
 * multiply-add is fused, and calls it through ctypes.  Python's `**`,
 * math.exp and math.log call the C library's pow, exp and log for the
 * finite positive arguments met here, so both equal their reference bit for
 * bit.
 *
 * wavedecay_advance runs a whole trace in one call: it samples the state,
 * steps in chunks of `stride`, samples after each chunk and stops at the
 * energy floor.  Its sampler forms _kernels._sample_np (sim.energy and
 * sim.dissipation_rate) with the same products, added in the order of
 * numpy's np.add.reduce (dot below), so it equals that numpy reference bit
 * for bit.  wavedecay_ghat is the law on an array.  These two functions are
 * the library's only exports.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>

#define TINY 1e-150 /* below this the essential-singularity families are flushed to 0 */

/* g(a) for a > 0; with slope not NULL, also g'(a) into *slope. */
static double g(double a, int fam, double p, double q, double *slope)
{
    double v, ell, ap, lp, lq;
    if (fam == 0) {
        if (slope)
            *slope = 1.0;
        return a;
    }
    if (fam == 1) {
        v = pow(a, p);
        if (slope)
            *slope = p * (v / a);
        return v;
    }
    if (fam == 2) {
        if (a < TINY) {
            if (slope)
                *slope = 0.0;
            return 0.0;
        }
        v = exp(-1.0 / (a * a));
        if (slope)
            *slope = v * 2.0 / (a * a) / a; /* a^3 may underflow */
        return v;
    }
    if (fam == 3) {
        ap = pow(a, p);
        if (ap == 0.0) { /* also where 1/a overflows and pow(ell, q) * 0 would be nan */
            if (slope)
                *slope = 0.0;
            return 0.0;
        }
        ell = log(1.0 / a);
        lq = pow(ell, q);
        if (slope)
            *slope = ap / a * (lq / ell) * (p * ell - q);
        return ap * lq;
    }
    if (a >= 1.0) { /* log(1/a)**p would be complex for a > 1 */
        if (slope)
            *slope = 0.0;
        return 1.0;
    }
    ell = log(1.0 / a);
    lp = pow(ell, p);
    v = exp(-lp);
    /* 0 also where v underflows: below 1/DBL_MAX, lp / ell is inf / inf */
    if (slope)
        *slope = ell <= 0.0 || v == 0.0 ? 0.0 : v * p * (lp / ell) / a;
    return v;
}

/* The odd extension of g, continued linearly beyond s_sat; with slope not
 * NULL, also its derivative into *slope. */
static double ghat(double s, int fam, double p, double q, double s_sat, double g_sat,
                   double *slope)
{
    double a, v;
    if (s == 0.0) {
        if (slope)
            *slope = fam == 0 ? 1.0 : 0.0;
        return 0.0;
    }
    a = s < 0.0 ? -s : s;
    if (a >= s_sat) {
        if (slope)
            *slope = g_sat / s_sat;
        v = g_sat / s_sat * a;
    } else {
        v = g(a, fam, p, q, slope);
    }
    return s > 0.0 ? v : -v;
}

/* One damped node's equation clin*s + k2*ghat(s) = b, and the safeguarded
 * Newton iteration on it: the iterate s inside the sign bracket [lo, hi]. */
struct lane {
    double b, clin, k2, feps, lo, hi, s;
    int64_t node; /* the padded index */
};

/* The root of each lane's equation into its s, NAN where the iteration does
 * not converge within maxit iterates.  Each lane runs _solve_node's
 * operations in the same order (its b == 0 case stays with the caller: no
 * lane has b == 0), so its s equals the reference's bit for bit.  The lanes
 * run in lockstep: a pass over the open list does one iterate of every lane
 * not yet done and keeps the still open ones in order, so the CPU can
 * overlap the independent libm calls of different lanes.  open holds
 * nlanes indices of scratch. */
static void solve_lanes(struct lane *lanes, int64_t *open, int64_t nlanes, int fam, double p,
                        double q, double s_sat, double g_sat, double tol, int64_t maxit)
{
    int64_t nopen = 0, it, j, w;
    for (j = 0; j < nlanes; j++) {
        struct lane *L = lanes + j;
        double s_lin = L->b / L->clin;
        if (L->b > 0.0) {
            L->lo = 0.0;
            L->hi = s_lin;
        } else {
            L->lo = s_lin;
            L->hi = 0.0;
        }
        L->s = s_lin;
        L->feps = 1e-14 * fabs(L->b);
        open[nopen++] = j;
    }
    for (it = 0; it < maxit && nopen > 0; it++) {
        for (j = w = 0; j < nopen; j++) {
            struct lane *L = lanes + open[j];
            double s = L->s, f, d, sn, slope;
            f = L->clin * s + L->k2 * ghat(s, fam, p, q, s_sat, g_sat, &slope) - L->b;
            if (fabs(f) <= L->feps)
                continue;
            if (f > 0.0)
                L->hi = s;
            else
                L->lo = s;
            if (L->hi - L->lo <= tol * (1.0 + fabs(s))) {
                L->s = 0.5 * (L->lo + L->hi);
                continue;
            }
            d = L->clin + L->k2 * slope;
            sn = s - f / d;
            if (sn <= L->lo || sn >= L->hi || sn == s) {
                sn = 0.5 * (L->lo + L->hi);
                if (sn == s)
                    continue;
            }
            L->s = sn;
            open[w++] = open[j];
        }
        nopen = w;
    }
    for (j = 0; j < nopen; j++)
        lanes[open[j]].s = NAN;
}

/* _ghat on each of the n values of s, into out. */
void wavedecay_ghat(const double *s, double *out, int64_t n, int fam, double p, double q,
                    double s_sat, double g_sat)
{
    for (int64_t i = 0; i < n; i++)
        out[i] = ghat(s[i], fam, p, q, s_sat, g_sat, NULL);
}

/* The sum of x[i] * y[i] over i < n in np.add.reduce(x * y)'s order:
 * numpy's pairwise summation (blocks of at most 128 terms, each summed in
 * 8 accumulators) added to the reduction's start value 0.0. */
static double pairwise_dot(const double *x, const double *y, int64_t n)
{
    double r[8], res;
    int64_t i, j, h;
    if (n < 8) {
        res = 0.0;
        for (i = 0; i < n; i++)
            res += x[i] * y[i];
        return res;
    }
    if (n <= 128) {
        for (j = 0; j < 8; j++)
            r[j] = x[j] * y[j];
        for (i = 8; i < n - n % 8; i += 8)
            for (j = 0; j < 8; j++)
                r[j] += x[i + j] * y[i + j];
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += x[i] * y[i];
        return res;
    }
    h = n / 2;
    h -= h % 8;
    return pairwise_dot(x, y, h) + pairwise_dot(x + h, y + h, n - h);
}

static double dot(const double *x, const double *y, int64_t n)
{
    return 0.0 + pairwise_dot(x, y, n);
}

/* _sample_np of the state (up, uc, vp, vc) of length n2: E into out[0],
 * E1 into out[1], the dissipation rate into out[2], each formed with the
 * same operations in the same order.  w holds 7 * n2 doubles of scratch. */
static void sample(const double *up, const double *uc, const double *vp, const double *vc,
                   const double *alpha, const double *aa, int64_t n2, double dt, double dx,
                   int fam, double p, double q, double s_sat, double g_sat, double *w,
                   double *out)
{
    int64_t m = n2 - 2, i;
    double dx2 = dx * dx;
    double *wu, *wv, *rho, *uh, *vh, *x, *y;
    double kin, grad, sum;

    wu = w;
    wv = wu + n2;
    rho = wv + n2;
    uh = rho + n2;
    vh = uh + n2;
    x = vh + n2;
    y = x + n2;
    for (i = 0; i < n2; i++) {
        wu[i] = (uc[i] - up[i]) / dt;
        wv[i] = (vc[i] - vp[i]) / dt;
        rho[i] = aa[i] * ghat(wu[i], fam, p, q, s_sat, g_sat, NULL);
        uh[i] = 0.5 * (uc[i] + up[i]);
        vh[i] = 0.5 * (vc[i] + vp[i]);
    }
    kin = 0.5 * dx * (dot(wu + 1, wu + 1, m) + dot(wv + 1, wv + 1, m));

    for (i = 0; i < n2 - 1; i++) {
        x[i] = (uc[i + 1] - uc[i]) / dx;
        y[i] = (up[i + 1] - up[i]) / dx;
    }
    grad = dot(x, y, n2 - 1);
    for (i = 0; i < n2 - 1; i++) {
        x[i] = (vc[i + 1] - vc[i]) / dx;
        y[i] = (vp[i + 1] - vp[i]) / dx;
    }
    grad = 0.5 * dx * (grad + dot(x, y, n2 - 1));
    out[0] = kin + grad;

    /* the accelerations, from the level averages uh and vh */
    for (i = 1; i < n2 - 1; i++) {
        x[i - 1] = (uh[i - 1] - 2.0 * uh[i] + uh[i + 1]) / dx2 - alpha[i] * wv[i] - rho[i];
        y[i - 1] = (vh[i - 1] - 2.0 * vh[i] + vh[i + 1]) / dx2 + alpha[i] * wu[i];
    }
    sum = dot(x, x, m) + dot(y, y, m);
    for (i = 0; i < n2 - 1; i++) {
        x[i] = (wu[i + 1] - wu[i]) / dx;
        y[i] = (wv[i + 1] - wv[i]) / dx;
    }
    sum = sum + dot(x, x, n2 - 1);
    out[1] = 0.5 * dx * (sum + dot(y, y, n2 - 1));

    out[2] = -dx * dot(wu + 1, rho + 1, m);
}

/* _advance_scalar on arrays of length n2: nsteps steps of the state.  With
 * samples NULL, stride is ignored.  Otherwise the run samples the state into
 * samples[0..2] and appends a sample (E, E1, dissipation rate) after every
 * stride-th step and after the last one, and stops after the first sample
 * whose E is below floor_factor * E0, when E0 > 0.
 * Returns the number of steps done.  When the node solve fails, the lowest
 * failing node's index and b go to *node and *b_fail, and the state stays at
 * the last completed step, the returned one.  Returns -1 when scratch memory
 * cannot be allocated (nothing is stepped).
 *
 * A step makes two passes over the nodes.  The first forms each node's b,
 * clin and k2, finishes the undamped nodes and the damped ones at rest
 * (b == 0), and queues every other damped node as a lane, with its Q in
 * vn; solve_lanes then solves the lanes together, and the second pass
 * finishes them in node order. */
int64_t wavedecay_advance(double *up, double *uc, double *vp, double *vc,
                          const double *alpha, const double *aa, int64_t n2,
                          double dt, double dx, int64_t nsteps, int fam, double p, double q,
                          double s_sat, double g_sat, double tol, int64_t maxit,
                          int64_t stride, double *samples, double floor_factor,
                          int64_t *node, double *b_fail)
{
    double inv_dx2 = 1.0 / (dx * dx);
    double dt2 = dt * dt;
    double two_dt = 2.0 * dt;
    double half_dt3 = 0.5 * dt2 * dt;
    double e0 = 0.0, e_floor = 0.0;
    size_t ncols = samples ? 2 + 7 : 2; /* un, vn, sample's w */
    double *un, *vn, *w;
    struct lane *lanes;
    int64_t *open;
    int64_t k, i, j, nlanes;

    *node = -1;
    *b_fail = 0.0;
    /* per node: ncols doubles, a lane and an open-list entry */
    un = calloc((size_t)n2, ncols * sizeof(double) + sizeof(struct lane) + sizeof(int64_t));
    if (un == NULL)
        return -1;
    vn = un + n2;
    w = vn + n2;
    lanes = (struct lane *)(un + ncols * (size_t)n2);
    open = (int64_t *)(lanes + n2);
    if (samples) {
        sample(up, uc, vp, vc, alpha, aa, n2, dt, dx, fam, p, q, s_sat, g_sat, w, samples);
        e0 = samples[0];
        e_floor = floor_factor * e0;
    }
    for (k = 0; k < nsteps;) {
        nlanes = 0;
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
            } else if (b == 0.0) {
                s = 0.0;
            } else {
                struct lane *L = lanes + nlanes++;
                L->b = b;
                L->clin = clin;
                L->k2 = k2;
                L->node = i;
                vn[i] = Q;
                continue;
            }
            un[i] = up[i] + two_dt * s;
            vn[i] = Q + dt2 * al * s;
        }
        solve_lanes(lanes, open, nlanes, fam, p, q, s_sat, g_sat, tol, maxit);
        for (j = 0; j < nlanes; j++) {
            double s = lanes[j].s;
            i = lanes[j].node;
            if (isnan(s)) {
                *node = i;
                *b_fail = lanes[j].b;
                free(un);
                return k;
            }
            un[i] = up[i] + two_dt * s;
            vn[i] = vn[i] + dt2 * alpha[i] * s;
        }
        for (i = 1; i < n2 - 1; i++) {
            up[i] = uc[i];
            uc[i] = un[i];
            vp[i] = vc[i];
            vc[i] = vn[i];
        }
        k++;
        if (samples && (k % stride == 0 || k == nsteps)) {
            samples += 3;
            sample(up, uc, vp, vc, alpha, aa, n2, dt, dx, fam, p, q, s_sat, g_sat, w, samples);
            if (e0 > 0.0 && samples[0] < e_floor)
                break;
        }
    }
    free(un);
    return k;
}
