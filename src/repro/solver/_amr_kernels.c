/* Compiled AMR kernels.
 *
 * These routines are the execution engine of the batched AMR driver: they
 * advance the shape-stacked hierarchy with a fused finite-volume sweep,
 * compute its per-patch CFL wave speeds, and apply the index-compiled
 * ghost-exchange program (repro.amr.shard).
 *
 * Bit-identity contract: every arithmetic expression below reproduces the
 * numpy reference (repro.solver.fv._sweep_stack and friends) operation for
 * operation — same association order, same floors, same guard values — and
 * the build disables FP contraction (-ffp-contract=off), so results are
 * bit-for-bit equal to the serial batched path.  tests/solver/test_kernels.py
 * enforces this for every riemann x limiter combination.
 *
 * numpy semantics replicated explicitly:
 *   np.maximum(a, b) -> a >= b ? a : b      (propagates a's NaN like numpy
 *   np.minimum(a, b) -> a <= b ? a : b       only through the a slot; the
 *   np.sign(x)       -> x > 0 ? 1 : (x < 0 ? -1 : x)   driver checks states)
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>

#define DENSITY_FLOOR 1e-12
#define PRESSURE_FLOOR 1e-12

static inline double npmax(double a, double b) { return a >= b ? a : b; }
static inline double npmin(double a, double b) { return a <= b ? a : b; }
static inline double npabs(double a) { return fabs(a); }
static inline double npsign(double a) { return a > 0.0 ? 1.0 : (a < 0.0 ? -1.0 : a); }

/* limiter ids: 0=minmod 1=superbee 2=mc 3=van_leer (lim < 0 => first order) */
static inline double limit_one(int lim, double a, double b) {
    switch (lim) {
    case 0:
        return a * b <= 0.0 ? 0.0 : (npabs(a) < npabs(b) ? a : b);
    case 1: {
        double ta = 2.0 * a, tb = 2.0 * b;
        double s1 = ta * b <= 0.0 ? 0.0 : (npabs(ta) < npabs(b) ? ta : b);
        double s2 = a * tb <= 0.0 ? 0.0 : (npabs(a) < npabs(tb) ? a : tb);
        double mag = npmax(npabs(s1), npabs(s2));
        return a * b <= 0.0 ? 0.0 : npsign(a) * mag;
    }
    case 2: {
        double central = 0.5 * (a + b);
        double bound = 2.0 * npmin(npabs(a), npabs(b));
        double mag = npmin(npabs(central), bound);
        return a * b <= 0.0 ? 0.0 : npsign(central) * mag;
    }
    default: {
        double prod = a * b;
        double denom = a + b;
        double safe = denom == 0.0 ? 1.0 : denom;
        return prod <= 0.0 ? 0.0 : 2.0 * prod / safe;
    }
    }
}

/* riemann ids: 0=rusanov 1=hll 2=hllc.  States arrive normal-rotated:
 * slot 1 is the normal momentum, slot 2 tangential (as in _sweep_stack). */
static inline void flux_one(int rie, double gamma,
                            double ql0, double ql1, double ql2, double ql3,
                            double qr0, double qr1, double qr2, double qr3,
                            double *f0, double *f1, double *f2, double *f3) {
    double rl = npmax(ql0, DENSITY_FLOOR);
    double ul = ql1 / rl, vl = ql2 / rl;
    double pl = (gamma - 1.0) * (ql3 - (0.5 * rl) * (ul * ul + vl * vl));
    pl = npmax(pl, PRESSURE_FLOOR);
    double rr = npmax(qr0, DENSITY_FLOOR);
    double ur = qr1 / rr, vr = qr2 / rr;
    double pr = (gamma - 1.0) * (qr3 - (0.5 * rr) * (ur * ur + vr * vr));
    pr = npmax(pr, PRESSURE_FLOOR);

    double cl = sqrt(gamma * pl / rl);
    double cr = sqrt(gamma * pr / rr);

    double fl0 = rl * ul, fl1 = rl * ul * ul + pl, fl2 = rl * ul * vl,
           fl3 = (ql3 + pl) * ul;
    double fr0 = rr * ur, fr1 = rr * ur * ur + pr, fr2 = rr * ur * vr,
           fr3 = (qr3 + pr) * ur;

    if (rie == 0) {
        double smax = npmax(npabs(ul) + cl, npabs(ur) + cr);
        *f0 = 0.5 * (fl0 + fr0) - 0.5 * smax * (qr0 - ql0);
        *f1 = 0.5 * (fl1 + fr1) - 0.5 * smax * (qr1 - ql1);
        *f2 = 0.5 * (fl2 + fr2) - 0.5 * smax * (qr2 - ql2);
        *f3 = 0.5 * (fl3 + fr3) - 0.5 * smax * (qr3 - ql3);
        return;
    }
    double sl = npmin(ul - cl, ur - cr);
    double sr = npmax(ul + cl, ur + cr);
    if (rie == 1) {
        double denom = sr - sl == 0.0 ? 1.0 : sr - sl;
        double fs0 = (sr * fl0 - sl * fr0 + sl * sr * (qr0 - ql0)) / denom;
        double fs1 = (sr * fl1 - sl * fr1 + sl * sr * (qr1 - ql1)) / denom;
        double fs2 = (sr * fl2 - sl * fr2 + sl * sr * (qr2 - ql2)) / denom;
        double fs3 = (sr * fl3 - sl * fr3 + sl * sr * (qr3 - ql3)) / denom;
        *f0 = sl >= 0.0 ? fl0 : (sr <= 0.0 ? fr0 : fs0);
        *f1 = sl >= 0.0 ? fl1 : (sr <= 0.0 ? fr1 : fs1);
        *f2 = sl >= 0.0 ? fl2 : (sr <= 0.0 ? fr2 : fs2);
        *f3 = sl >= 0.0 ? fl3 : (sr <= 0.0 ? fr3 : fs3);
        return;
    }
    double num = pr - pl + rl * ul * (sl - ul) - rr * ur * (sr - ur);
    double den = rl * (sl - ul) - rr * (sr - ur);
    den = den == 0.0 ? 1e-300 : den;
    double sm = num / den;

    double coefl = rl * (sl - ul) / (sl - sm == 0.0 ? 1e-300 : sl - sm);
    double el = ql3 / rl +
        (sm - ul) * (sm + pl / (rl * (sl - ul == 0.0 ? 1e-300 : sl - ul)));
    double qsl0 = coefl, qsl1 = coefl * sm, qsl2 = coefl * vl, qsl3 = coefl * el;

    double coefr = rr * (sr - ur) / (sr - sm == 0.0 ? 1e-300 : sr - sm);
    double er = qr3 / rr +
        (sm - ur) * (sm + pr / (rr * (sr - ur == 0.0 ? 1e-300 : sr - ur)));
    double qsr0 = coefr, qsr1 = coefr * sm, qsr2 = coefr * vr, qsr3 = coefr * er;

    double fsl0 = fl0 + sl * (qsl0 - ql0), fsl1 = fl1 + sl * (qsl1 - ql1),
           fsl2 = fl2 + sl * (qsl2 - ql2), fsl3 = fl3 + sl * (qsl3 - ql3);
    double fsr0 = fr0 + sr * (qsr0 - qr0), fsr1 = fr1 + sr * (qsr1 - qr1),
           fsr2 = fr2 + sr * (qsr2 - qr2), fsr3 = fr3 + sr * (qsr3 - qr3);

    *f0 = sl >= 0.0 ? fl0 : (sm >= 0.0 ? fsl0 : (sr >= 0.0 ? fsr0 : fr0));
    *f1 = sl >= 0.0 ? fl1 : (sm >= 0.0 ? fsl1 : (sr >= 0.0 ? fsr1 : fr1));
    *f2 = sl >= 0.0 ? fl2 : (sm >= 0.0 ? fsl2 : (sr >= 0.0 ? fsr2 : fr2));
    *f3 = sl >= 0.0 ? fl3 : (sm >= 0.0 ? fsl3 : (sr >= 0.0 ? fsr3 : fr3));
}

/* One fused dimensional sweep over P stacked patches.  The primitive
 * scratch W spans normal cells lo-1..hi+1 so the slope and reconstruction
 * stages are branch-free over their index ranges; one flux row is built per
 * interface and immediately applied (fluxes live only in the F scratch). */
static inline void sweep_body(double *restrict q, long P, long n, long ng,
                              const double *restrict dt_d, int axis, int rie,
                              int lim, double gamma,
                              double *restrict w, double *restrict dw,
                              double *restrict f) {
    long mx = n - 2 * ng;
    long lo = ng - 1;
    long ncw = mx + 4;  /* cells lo-1 .. hi+1 */
    long nf = mx + 1;
    long tan = mx;
#define W(c, i, j) w[((c) * ncw + (i)) * tan + (j)]
#define DW(c, i, j) dw[((c) * ncw + (i)) * tan + (j)]
#define F(c, k, j) f[((c) * nf + (k)) * tan + (j)]
    long imn = axis == 0 ? 1 : 2;
    long imt = axis == 0 ? 2 : 1;
    long comp[4];
    comp[0] = 0; comp[1] = imn; comp[2] = imt; comp[3] = 3;
    for (long p = 0; p < P; p++) {
        double *qp = q + p * 4 * n * n;
        double fac = dt_d[p];
        /* gather primitives (or raw conserved states for first order) */
        for (long i = 0; i < ncw; i++) {
            long ni = lo - 1 + i;
            const double *q0r, *q1r, *q2r, *q3r;
            long stride;
            if (axis == 0) {
                q0r = qp + 0 * n * n + ni * n + ng;
                q1r = qp + imn * n * n + ni * n + ng;
                q2r = qp + imt * n * n + ni * n + ng;
                q3r = qp + 3 * n * n + ni * n + ng;
                stride = 1;
            } else {
                q0r = qp + 0 * n * n + ng * n + ni;
                q1r = qp + imn * n * n + ng * n + ni;
                q2r = qp + imt * n * n + ng * n + ni;
                q3r = qp + 3 * n * n + ng * n + ni;
                stride = n;
            }
            if (lim < 0) {
                for (long j = 0; j < tan; j++) {
                    W(0, i, j) = q0r[j * stride];
                    W(1, i, j) = q1r[j * stride];
                    W(2, i, j) = q2r[j * stride];
                    W(3, i, j) = q3r[j * stride];
                }
            } else {
                for (long j = 0; j < tan; j++) {
                    double q0 = q0r[j * stride], q1 = q1r[j * stride];
                    double q2 = q2r[j * stride], q3 = q3r[j * stride];
                    double rho = npmax(q0, DENSITY_FLOOR);
                    double u = q1 / rho, v = q2 / rho;
                    double pp = (gamma - 1.0) *
                        (q3 - (0.5 * rho) * (u * u + v * v));
                    W(0, i, j) = rho;
                    W(1, i, j) = u;
                    W(2, i, j) = v;
                    W(3, i, j) = npmax(pp, PRESSURE_FLOOR);
                }
            }
        }
        if (lim >= 0) {
            /* limited slopes at cells lo..hi => W rows 1..ncw-2 */
            for (long c = 0; c < 4; c++) {
                for (long i = 1; i < ncw - 1; i++) {
                    const double *wm = &W(c, i - 1, 0);
                    const double *wc = &W(c, i, 0);
                    const double *wp = &W(c, i + 1, 0);
                    double *out = &DW(c, i, 0);
                    for (long j = 0; j < tan; j++) {
                        double a = wc[j] - wm[j];
                        double b = wp[j] - wc[j];
                        out[j] = limit_one(lim, a, b);
                    }
                }
            }
        }
        for (long k = 0; k < nf; k++) {
            long il = k + 1, ir = k + 2; /* W rows of cells lo+k, lo+k+1 */
            for (long j = 0; j < tan; j++) {
                double ql0, ql1, ql2, ql3, qr0, qr1, qr2, qr3;
                if (lim < 0) {
                    ql0 = W(0, il, j); ql1 = W(1, il, j);
                    ql2 = W(2, il, j); ql3 = W(3, il, j);
                    qr0 = W(0, ir, j); qr1 = W(1, ir, j);
                    qr2 = W(2, ir, j); qr3 = W(3, ir, j);
                } else {
                    double wl0 = W(0, il, j) + 0.5 * DW(0, il, j);
                    double wl1 = W(1, il, j) + 0.5 * DW(1, il, j);
                    double wl2 = W(2, il, j) + 0.5 * DW(2, il, j);
                    double wl3 = W(3, il, j) + 0.5 * DW(3, il, j);
                    double wr0 = W(0, ir, j) - 0.5 * DW(0, ir, j);
                    double wr1 = W(1, ir, j) - 0.5 * DW(1, ir, j);
                    double wr2 = W(2, ir, j) - 0.5 * DW(2, ir, j);
                    double wr3 = W(3, ir, j) - 0.5 * DW(3, ir, j);
                    ql0 = wl0; ql1 = wl0 * wl1; ql2 = wl0 * wl2;
                    ql3 = wl3 / (gamma - 1.0) +
                        (0.5 * wl0) * (wl1 * wl1 + wl2 * wl2);
                    qr0 = wr0; qr1 = wr0 * wr1; qr2 = wr0 * wr2;
                    qr3 = wr3 / (gamma - 1.0) +
                        (0.5 * wr0) * (wr1 * wr1 + wr2 * wr2);
                }
                flux_one(rie, gamma, ql0, ql1, ql2, ql3, qr0, qr1, qr2, qr3,
                         &F(0, k, j), &F(1, k, j), &F(2, k, j), &F(3, k, j));
            }
        }
        for (long m = 0; m < mx; m++) {
            for (long c = 0; c < 4; c++) {
                const double *fhi = &F(c, m + 1, 0);
                const double *flo = &F(c, m, 0);
                double *row;
                long stride;
                if (axis == 0) {
                    row = qp + comp[c] * n * n + (ng + m) * n + ng;
                    stride = 1;
                } else {
                    row = qp + comp[c] * n * n + ng * n + (ng + m);
                    stride = n;
                }
                for (long j = 0; j < tan; j++)
                    row[j * stride] -= fac * (fhi[j] - flo[j]);
            }
        }
    }
#undef W
#undef DW
#undef F
}

/* Per-combination specializations let the compiler constant-fold the
 * riemann/limiter dispatch out of the inner loops; anything else falls back
 * to the generic body. */
#define SPECIALIZE(name, RIE, LIM)                                          \
    static void name(double *restrict q, long P, long n, long ng,           \
                     const double *restrict dt_d, int axis, double gamma,   \
                     double *restrict w, double *restrict dw,               \
                     double *restrict f) {                                  \
        sweep_body(q, P, n, ng, dt_d, axis, (RIE), (LIM), gamma, w, dw, f); \
    }

SPECIALIZE(sweep_hllc_mc, 2, 2)
SPECIALIZE(sweep_hllc_minmod, 2, 0)
SPECIALIZE(sweep_hll_mc, 1, 2)
SPECIALIZE(sweep_rusanov_mc, 0, 2)

void fused_sweep(double *restrict q, long P, long n, long ng,
                 const double *restrict dt_d, int axis, int rie, int lim,
                 double gamma) {
    long mx = n - 2 * ng;
    long ncw = mx + 4, nf = mx + 1, tan = mx;
    double *w = malloc(sizeof(double) * 4 * ncw * tan);
    double *dw = malloc(sizeof(double) * 4 * ncw * tan);
    double *f = malloc(sizeof(double) * 4 * nf * tan);
    if (!w || !dw || !f) { free(w); free(dw); free(f); return; }
    if (rie == 2 && lim == 2)
        sweep_hllc_mc(q, P, n, ng, dt_d, axis, gamma, w, dw, f);
    else if (rie == 2 && lim == 0)
        sweep_hllc_minmod(q, P, n, ng, dt_d, axis, gamma, w, dw, f);
    else if (rie == 1 && lim == 2)
        sweep_hll_mc(q, P, n, ng, dt_d, axis, gamma, w, dw, f);
    else if (rie == 0 && lim == 2)
        sweep_rusanov_mc(q, P, n, ng, dt_d, axis, gamma, w, dw, f);
    else
        sweep_body(q, P, n, ng, dt_d, axis, rie, lim, gamma, w, dw, f);
    free(w); free(dw); free(f);
}

/* Per-patch CFL wave-speed maxima over patch interiors: sx[p] is the max
 * of |u|+c, sy[p] the max of |v|+c.  Per-cell arithmetic mirrors
 * primitive_from_conserved; the max reductions are order-insensitive, so
 * the values match PatchStack.compute_dt's bit for bit. */
void wave_speeds(const double *restrict q, long P, long n, long ng,
                 double gamma, double *restrict sx, double *restrict sy) {
    long mx = n - 2 * ng;
    for (long p = 0; p < P; p++) {
        const double *qp = q + p * 4 * n * n;
        double mx_sx = -HUGE_VAL, mx_sy = -HUGE_VAL;
        for (long i = 0; i < mx; i++) {
            const double *q0r = qp + 0 * n * n + (ng + i) * n + ng;
            const double *q1r = qp + 1 * n * n + (ng + i) * n + ng;
            const double *q2r = qp + 2 * n * n + (ng + i) * n + ng;
            const double *q3r = qp + 3 * n * n + (ng + i) * n + ng;
            for (long j = 0; j < mx; j++) {
                double rho = npmax(q0r[j], DENSITY_FLOOR);
                double u = q1r[j] / rho, v = q2r[j] / rho;
                double pp = (gamma - 1.0) *
                    (q3r[j] - (0.5 * rho) * (u * u + v * v));
                pp = npmax(pp, PRESSURE_FLOOR);
                double c = sqrt(gamma * pp / rho);
                double cx = npabs(u) + c, cy = npabs(v) + c;
                if (cx > mx_sx) mx_sx = cx;
                if (cy > mx_sy) mx_sy = cy;
            }
        }
        sx[p] = mx_sx;
        sy[p] = mx_sy;
    }
}

/* Index-compiled ghost traffic: flat[dst[k]] = flat[src[k]] (pure copies)
 * or the same with a sign flip (reflecting-wall momentum rows).  scale is
 * restricted to +/-1 so the copy path stays a bit-exact move. */
void copy_indexed(double *restrict flat, const int32_t *restrict dst,
                  const int32_t *restrict src, long K, double scale) {
    if (scale == 1.0) {
        for (long k = 0; k < K; k++) flat[dst[k]] = flat[src[k]];
    } else {
        for (long k = 0; k < K; k++) flat[dst[k]] = flat[src[k]] * scale;
    }
}

/* Batched minmod-limited prolongation of R (nx, ny) slabs to (2nx, 2ny),
 * replicating repro.amr.transfer.prolong_patch: slopes are zero at slab
 * borders and each coarse cell emits c + fx*sx + fy*sy at the four
 * sub-cell centers (fx, fy in {-0.25, +0.25}). */
void prolong_blocks(const double *restrict src, long R, long nx, long ny,
                    double *restrict dst) {
    for (long r = 0; r < R; r++) {
        const double *c = src + r * nx * ny;
        double *f = dst + r * 4 * nx * ny;
        long fny = 2 * ny;
        for (long i = 0; i < nx; i++) {
            for (long j = 0; j < ny; j++) {
                double cc = c[i * ny + j];
                double sx = 0.0, sy = 0.0;
                if (i > 0 && i < nx - 1) {
                    double a = cc - c[(i - 1) * ny + j];
                    double b = c[(i + 1) * ny + j] - cc;
                    sx = a * b <= 0.0 ? 0.0 : (npabs(a) < npabs(b) ? a : b);
                }
                if (j > 0 && j < ny - 1) {
                    double a = cc - c[i * ny + j - 1];
                    double b = c[i * ny + j + 1] - cc;
                    sy = a * b <= 0.0 ? 0.0 : (npabs(a) < npabs(b) ? a : b);
                }
                double qx = 0.25 * sx, qy = 0.25 * sy;
                f[(2 * i) * fny + 2 * j] = (cc + -qx) + -qy;
                f[(2 * i) * fny + 2 * j + 1] = (cc + -qx) + qy;
                f[(2 * i + 1) * fny + 2 * j] = (cc + qx) + -qy;
                f[(2 * i + 1) * fny + 2 * j + 1] = (cc + qx) + qy;
            }
        }
    }
}

/* Batched 2x2 area restriction of R (nx, ny) slabs to (nx/2, ny/2),
 * replicating numpy's view.mean(axis=(-3, -1)) pairwise order:
 * ((a00 + a01) + (a10 + a11)) / 4. */
void restrict_blocks(const double *restrict src, long R, long nx, long ny,
                     double *restrict dst) {
    long hx = nx / 2, hy = ny / 2;
    for (long r = 0; r < R; r++) {
        const double *f = src + r * nx * ny;
        double *c = dst + r * hx * hy;
        for (long i = 0; i < hx; i++) {
            const double *r0 = f + (2 * i) * ny;
            const double *r1 = f + (2 * i + 1) * ny;
            for (long j = 0; j < hy; j++) {
                c[i * hy + j] =
                    ((r0[2 * j] + r0[2 * j + 1]) + (r1[2 * j] + r1[2 * j + 1]))
                    / 4.0;
            }
        }
    }
}

/* Gather flat[idx[k]] into out[k] (normalized strip staging buffers). */
void gather_indexed(const double *restrict flat, const int32_t *restrict idx,
                    double *restrict out, long K) {
    for (long k = 0; k < K; k++) out[k] = flat[idx[k]];
}

/* Scatter vals[k] to flat[idx[k]] (writing prolonged/restricted strips). */
void scatter_indexed(double *restrict flat, const int32_t *restrict idx,
                     const double *restrict vals, long K) {
    for (long k = 0; k < K; k++) flat[idx[k]] = vals[k];
}
