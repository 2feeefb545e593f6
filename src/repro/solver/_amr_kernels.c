/* Compiled AMR kernels.
 *
 * These routines are the execution engine of the batched AMR driver: they
 * advance the shape-stacked hierarchy with a fused finite-volume sweep,
 * compute its per-patch CFL wave speeds, check that its interiors are
 * physical, and run a flat-index ghost-exchange program of
 * repro.amr.batch.ExchangePlan (the x-face half, the y-face half, or both)
 * in one call.
 *
 * The sweep implements one scheme, the one every AMR run uses: MUSCL
 * reconstruction with the MC limiter and the HLLC flux, as straight-line
 * code.  A stack configured with any other solver or limiter steps through
 * the numpy sweep (repro.amr.batch.PatchStack decides when it is built).
 *
 * Bit-identity contract: every arithmetic expression below reproduces the
 * numpy reference (repro.solver.fv._sweep_stack and friends) operation for
 * operation — same association order, same floors, same guard values — and
 * the build disables FP contraction (-ffp-contract=off), so results are
 * bit-for-bit equal to the serial batched path.  tests/solver/test_kernels.py
 * enforces this.
 *
 * Work the result does not need is skipped, never approximated:
 *   - a sweep updates only the band of normal cells whose stencil is not
 *     one state (bit for bit) in every line, and keeps the cells outside
 *     it only when the full arithmetic would return them as they are;
 *     a quiescent patch, whose every line holds one state, is returned
 *     whole (see sweep_body);
 *   - the exchange before a sweep fills only the ghost strips that sweep
 *     reads (its direction's half of the program);
 *   - wave_speeds and check_physical evaluate one cell of an interior that
 *     holds one value per field;
 *   - the HLLC flux builds only the star state its select can take, that
 *     of the contact's upwind side.
 *
 * numpy semantics replicated explicitly:
 *   np.maximum(a, b) -> a >= b || a != a ? a : b   (a NaN in either slot
 *   np.minimum(a, b) -> a <= b || a != a ? a : b    propagates, as in numpy)
 *   np.sign(x)       -> x > 0 ? 1 : (x < 0 ? -1 : x)
 */

#include <float.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define DENSITY_FLOOR 1e-12
#define PRESSURE_FLOOR 1e-12

static inline double npmax(double a, double b) { return a >= b || a != a ? a : b; }
static inline double npmin(double a, double b) { return a <= b || a != a ? a : b; }
static inline double npabs(double a) { return fabs(a); }
static inline double npsign(double a) { return a > 0.0 ? 1.0 : (a < 0.0 ? -1.0 : a); }

/* The MC slope of repro.solver.limiters.mc_limiter. */
static inline double mc_slope(double a, double b) {
    double central = 0.5 * (a + b);
    double bound = 2.0 * npmin(npabs(a), npabs(b));
    double mag = npmin(npabs(central), bound);
    return a * b <= 0.0 ? 0.0 : npsign(central) * mag;
}

/* The HLLC flux of repro.solver.riemann.hllc_flux.  States arrive
 * normal-rotated: slot 1 is the normal momentum, slot 2 tangential (as in
 * _sweep_stack). */
static inline void hllc_flux(double gamma,
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

    double sl = npmin(ul - cl, ur - cr);
    double sr = npmax(ul + cl, ur + cr);
    double num = pr - pl + rl * ul * (sl - ul) - rr * ur * (sr - ur);
    double den = rl * (sl - ul) - rr * (sr - ur);
    den = den == 0.0 ? 1e-300 : den;
    double sm = num / den;

    /* The select below can take only the contact's upwind star state:
     * the left one when sm >= 0, the right one otherwise (NaN included).
     * So that side's operands (suffix k) are picked first, and its one
     * star state is built with the expressions and guards each side used. */
    int left = sm >= 0.0;
    double rk = left ? rl : rr, uk = left ? ul : ur, vk = left ? vl : vr;
    double pk = left ? pl : pr, sk = left ? sl : sr;
    double qk0 = left ? ql0 : qr0, qk1 = left ? ql1 : qr1,
           qk2 = left ? ql2 : qr2, qk3 = left ? ql3 : qr3;
    double fk0 = left ? fl0 : fr0, fk1 = left ? fl1 : fr1,
           fk2 = left ? fl2 : fr2, fk3 = left ? fl3 : fr3;
    double coef = rk * (sk - uk) / (sk - sm == 0.0 ? 1e-300 : sk - sm);
    double ek = qk3 / rk +
        (sm - uk) * (sm + pk / (rk * (sk - uk == 0.0 ? 1e-300 : sk - uk)));
    double qs0 = coef, qs1 = coef * sm, qs2 = coef * vk, qs3 = coef * ek;
    double fs0 = fk0 + sk * (qs0 - qk0), fs1 = fk1 + sk * (qs1 - qk1),
           fs2 = fk2 + sk * (qs2 - qk2), fs3 = fk3 + sk * (qs3 - qk3);

    int star = left || sr >= 0.0;
    *f0 = sl >= 0.0 ? fl0 : (star ? fs0 : fr0);
    *f1 = sl >= 0.0 ? fl1 : (star ? fs1 : fr1);
    *f2 = sl >= 0.0 ? fl2 : (star ? fs2 : fr2);
    *f3 = sl >= 0.0 ? fl3 : (star ? fs3 : fr3);
}

static inline uint64_t bits_of(double x) {
    uint64_t b;
    memcpy(&b, &x, sizeof b);
    return b;
}

/* 1 iff each of patch qp's four n x n fields holds one finite value, bit
 * for bit (so +0.0 and -0.0 differ), over the rows x cols block at offset
 * off.  Returns at the first row that differs. */
static inline int uniform_fields(const double *qp, long n, long off,
                                 long rows, long cols) {
    const double *b0 = qp + off, *b1 = b0 + n * n, *b2 = b1 + n * n,
                 *b3 = b2 + n * n;
    if (!(fabs(b0[0]) <= DBL_MAX && fabs(b1[0]) <= DBL_MAX &&
          fabs(b2[0]) <= DBL_MAX && fabs(b3[0]) <= DBL_MAX))
        return 0;
    uint64_t v0 = bits_of(b0[0]), v1 = bits_of(b1[0]), v2 = bits_of(b2[0]),
             v3 = bits_of(b3[0]);
    for (long i = 0; i < rows; i++) {
        long o = i * n;
        int diff = 0;
        for (long j = 0; j < cols; j++)
            diff |= (bits_of(b0[o + j]) != v0) | (bits_of(b1[o + j]) != v1) |
                    (bits_of(b2[o + j]) != v2) | (bits_of(b3[o + j]) != v3);
        if (diff) return 0;
    }
    return 1;
}

/* 1 iff x - fac * (f - f) is x for every x but a signaling NaN, -0.0
 * included, on each of `lines` tangential lines of one face row f (its
 * four fields cs apart): iff every fac * (f - f) is +0.0, so each flux is
 * finite and fac is neither negative, -0.0 nor non-finite. */
static inline int face_keeps(double fac, const double *f, long cs, long lines) {
    uint64_t bits = 0;
    for (int c = 0; c < 4; c++)
        for (long j = 0; j < lines; j++)
            bits |= bits_of(fac * (f[c * cs + j] - f[c * cs + j]));
    return bits == 0;
}

/* 1 iff the x sweep's W rows i and i+1 (normal cells ng-2+i, ng-1+i: two
 * contiguous memory rows) differ in some field of some interior line. */
static inline int x_rows_differ(const double *qp, long n, long ng, long i) {
    long mx = n - 2 * ng;
    const double *r = qp + (ng - 2 + i) * n + ng;
    uint64_t diff = 0;
    for (int c = 0; c < 4; c++) {
        const double *lo = r + c * n * n, *hi = lo + n;
        for (long j = 0; j < mx; j++) diff |= bits_of(lo[j]) ^ bits_of(hi[j]);
    }
    return diff != 0;
}

/* The band [*a, *b] of interior cells m whose stencil, W rows m..m+4, is
 * not one state (bit for bit, all four fields) in every interior line:
 * with i0 and i1 the first and last W row pairs (i, i+1) that differ in
 * some line, a = max(0, i0 - 3) and b = min(mx - 1, i1).  Returns 0, and
 * leaves *a and *b alone, when no pair differs: every line then holds one
 * state along the normal.  Along x a pair is two memory rows, scanned
 * from each end up to the first difference; along y each line is a
 * memory row, so its pair differences are ORed into diff[0 .. mx+2] in
 * one contiguous pass per row instead of a strided scan per column. */
static inline int stencil_band(const double *qp, long n, long ng, int axis,
                               uint64_t *restrict diff, long *a, long *b) {
    long mx = n - 2 * ng, pairs = mx + 3, i0, i1;
    if (axis == 0) {
        for (i0 = 0; i0 < pairs && !x_rows_differ(qp, n, ng, i0); i0++) {}
        if (i0 == pairs) return 0;
        for (i1 = pairs - 1; i1 > i0 && !x_rows_differ(qp, n, ng, i1); i1--) {}
    } else {
        for (long i = 0; i < pairs; i++) diff[i] = 0;
        for (int c = 0; c < 4; c++) {
            for (long j = 0; j < mx; j++) {
                const double *row = qp + c * n * n + (ng + j) * n + ng - 2;
                for (long i = 0; i < pairs; i++)
                    diff[i] |= bits_of(row[i]) ^ bits_of(row[i + 1]);
            }
        }
        for (i0 = 0; i0 < pairs && !diff[i0]; i0++) {}
        if (i0 == pairs) return 0;
        for (i1 = pairs - 1; !diff[i1]; i1--) {}
    }
    *a = i0 > 3 ? i0 - 3 : 0;
    *b = i1 < mx - 1 ? i1 : mx - 1;
    return 1;
}

/* One fused dimensional sweep over P stacked patches; returns the number
 * of quiescent patches it skipped and adds the cells it updated to *cells.
 * The primitive scratch W spans normal cells lo-1..hi+1 (W row i is normal
 * cell ng-2+i) so the slope and reconstruction stages are branch-free over
 * their index ranges; face k lies between W rows k+1 and k+2, and its flux
 * is built from W rows k..k+3.  Fluxes live only in the F scratch.
 *
 * Only the band [a, b] of stencil_band is updated: the stages run over W
 * rows a..b+4 and faces a..b+1 of every line.  A face below a reads one
 * state per line, so its flux is face a's, bit for bit, and every cell x
 * below a becomes x - fac * (f - f); above b the same holds with face b+1.
 * So those cells are kept as they are when face_keeps holds on face a (if
 * a > 0) and on face b+1 (if b < mx-1); otherwise the stages run over the
 * whole patch.  An empty band leaves one state per line: the stages run
 * over face 0 of every line, and the patch is skipped as quiescent when
 * face_keeps holds there, else swept in full.  It is always inlined into
 * fused_sweep: left to gcc's heuristics it ran 2-5% slower per call. */
static inline __attribute__((always_inline)) long
sweep_body(double *restrict q, long P, long n, long ng,
           const double *restrict dt_d, int axis, double gamma,
           double *restrict w, double *restrict dw, double *restrict f,
           uint64_t *restrict diff, long *restrict cells) {
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
    long skipped = 0;
    for (long p = 0; p < P; p++) {
        double *qp = q + p * 4 * n * n;
        double fac = dt_d[p];
        long a = 0, b = mx - 1;
        int quiet = !stencil_band(qp, n, ng, axis, diff, &a, &b);
        for (;;) {
            /* the faces k0..k1 the stages run over, and their W rows */
            long k0 = quiet ? 0 : a, k1 = quiet ? 0 : b + 1;
            /* gather primitives */
            for (long i = k0; i <= k1 + 3; i++) {
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
            /* limited slopes at W rows k0+1..k1+2 */
            for (long c = 0; c < 4; c++) {
                for (long i = k0 + 1; i <= k1 + 2; i++) {
                    const double *wm = &W(c, i - 1, 0);
                    const double *wc = &W(c, i, 0);
                    const double *wp = &W(c, i + 1, 0);
                    double *out = &DW(c, i, 0);
                    for (long j = 0; j < tan; j++) {
                        double sa = wc[j] - wm[j];
                        double sb = wp[j] - wc[j];
                        out[j] = mc_slope(sa, sb);
                    }
                }
            }
            for (long k = k0; k <= k1; k++) {
                long il = k + 1, ir = k + 2; /* W rows of cells lo+k, lo+k+1 */
                for (long j = 0; j < tan; j++) {
                    double wl0 = W(0, il, j) + 0.5 * DW(0, il, j);
                    double wl1 = W(1, il, j) + 0.5 * DW(1, il, j);
                    double wl2 = W(2, il, j) + 0.5 * DW(2, il, j);
                    double wl3 = W(3, il, j) + 0.5 * DW(3, il, j);
                    double wr0 = W(0, ir, j) - 0.5 * DW(0, ir, j);
                    double wr1 = W(1, ir, j) - 0.5 * DW(1, ir, j);
                    double wr2 = W(2, ir, j) - 0.5 * DW(2, ir, j);
                    double wr3 = W(3, ir, j) - 0.5 * DW(3, ir, j);
                    double ql3 = wl3 / (gamma - 1.0) +
                        (0.5 * wl0) * (wl1 * wl1 + wl2 * wl2);
                    double qr3 = wr3 / (gamma - 1.0) +
                        (0.5 * wr0) * (wr1 * wr1 + wr2 * wr2);
                    hllc_flux(gamma, wl0, wl0 * wl1, wl0 * wl2, ql3,
                              wr0, wr0 * wr1, wr0 * wr2, qr3,
                              &F(0, k, j), &F(1, k, j), &F(2, k, j), &F(3, k, j));
                }
            }
            /* The cells outside the band take the flux of face a (below)
             * and face b+1 (above), or of face 0 when the band is empty. */
            int keep = quiet
                ? face_keeps(fac, &F(0, 0, 0), nf * tan, tan)
                : (a == 0 || face_keeps(fac, &F(0, a, 0), nf * tan, tan)) &&
                  (b == mx - 1 || face_keeps(fac, &F(0, b + 1, 0), nf * tan, tan));
            if (keep) break;
            /* a cell outside the band could change: sweep the whole patch */
            quiet = 0;
            a = 0;
            b = mx - 1;
        }
        if (quiet) {
            skipped++;
            continue;
        }
        for (long m = a; m <= b; m++) {
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
        *cells += (b - a + 1) * tan;
    }
    return skipped;
#undef W
#undef DW
#undef F
}

/* The sweep of sweep_body: returns the number of quiescent patches
 * skipped and sets *cells to the number of cells updated; -1 if its
 * scratch cannot be allocated (the stack is then left as it was).  The
 * arguments that stay fixed for one stack come first, so a caller can
 * bind them once. */
long fused_sweep(double *restrict q, long P, long n, long ng,
                 const double *restrict dt_d, double gamma,
                 long *restrict cells, int axis) {
    long mx = n - 2 * ng;
    long ncw = mx + 4, nf = mx + 1, tan = mx;
    double *w = malloc(sizeof(double) * 4 * ncw * tan);
    double *dw = malloc(sizeof(double) * 4 * ncw * tan);
    double *f = malloc(sizeof(double) * 4 * nf * tan);
    uint64_t *diff = malloc(sizeof(uint64_t) * (ncw - 1));
    long skipped = -1;
    *cells = 0;
    if (w && dw && f && diff)
        skipped = sweep_body(q, P, n, ng, dt_d, axis, gamma, w, dw, f, diff,
                             cells);
    free(w); free(dw); free(f); free(diff);
    return skipped;
}

/* Per-patch CFL wave-speed maxima over patch interiors: sx[p] is the max
 * of |u|+c, sy[p] the max of |v|+c.  Per-cell arithmetic mirrors
 * primitive_from_conserved; the max reductions are order-insensitive, so
 * the values match repro.amr.batch.stack_wave_speeds's bit for bit.  Each
 * row runs the per-cell arithmetic first, into cx/cy (a loop the compiler
 * vectorizes), then the scalar max over the row in cell order.  As numpy's max does, a NaN
 * speed makes the maximum NaN, where the scalar max alone would skip it.
 * |u|+c and |v|+c are NaN exactly when c is (a NaN velocity makes the
 * pressure and so c NaN, and the sum of two non-NaN values >= 0 is not
 * NaN), so the per-cell loop flags a NaN c, and both maxima of a flagged
 * patch are NaN.  An interior that holds one value per field is
 * evaluated at one cell: the maximum of identical values is that value.
 * Ghost cells are never read. */
void wave_speeds(const double *restrict q, long P, long n, long ng,
                 double gamma, double *restrict sx, double *restrict sy) {
    long mx = n - 2 * ng;
    double cx[mx], cy[mx];
    for (long p = 0; p < P; p++) {
        const double *qp = q + p * 4 * n * n;
        long m = uniform_fields(qp, n, ng * n + ng, mx, mx) ? 1 : mx;
        double mx_sx = -HUGE_VAL, mx_sy = -HUGE_VAL;
        uint64_t nan = 0;
        for (long i = 0; i < m; i++) {
            const double *q0r = qp + 0 * n * n + (ng + i) * n + ng;
            const double *q1r = qp + 1 * n * n + (ng + i) * n + ng;
            const double *q2r = qp + 2 * n * n + (ng + i) * n + ng;
            const double *q3r = qp + 3 * n * n + (ng + i) * n + ng;
            for (long j = 0; j < m; j++) {
                double rho = npmax(q0r[j], DENSITY_FLOOR);
                double u = q1r[j] / rho, v = q2r[j] / rho;
                double pp = (gamma - 1.0) *
                    (q3r[j] - (0.5 * rho) * (u * u + v * v));
                pp = npmax(pp, PRESSURE_FLOOR);
                double c = sqrt(gamma * pp / rho);
                cx[j] = npabs(u) + c;
                cy[j] = npabs(v) + c;
                nan |= (uint64_t)(c != c);
            }
            for (long j = 0; j < m; j++) {
                if (cx[j] > mx_sx) mx_sx = cx[j];
                if (cy[j] > mx_sy) mx_sy = cy[j];
            }
        }
        sx[p] = nan ? NAN : mx_sx;
        sy[p] = nan ? NAN : mx_sy;
    }
}

/* 1 iff every interior cell of every patch is physical, else 0: all four
 * fields finite, rho > 0 and p > 0, with p evaluated as the numpy
 * repro.solver.state.check_physical does, so the two return the same
 * boolean.  Ghost cells are never read.  Each row folds its cells into one
 * flag (a loop the compiler vectorizes), and the check returns at the
 * first row with a bad cell.  An interior that holds one value per field
 * is checked at one cell: the AND of identical flags is that flag. */
int check_physical(const double *restrict q, long P, long n, long ng,
                   double gamma) {
    long mx = n - 2 * ng;
    for (long p = 0; p < P; p++) {
        const double *qp = q + p * 4 * n * n;
        long m = uniform_fields(qp, n, ng * n + ng, mx, mx) ? 1 : mx;
        for (long i = 0; i < m; i++) {
            const double *q0r = qp + 0 * n * n + (ng + i) * n + ng;
            const double *q1r = qp + 1 * n * n + (ng + i) * n + ng;
            const double *q2r = qp + 2 * n * n + (ng + i) * n + ng;
            const double *q3r = qp + 3 * n * n + (ng + i) * n + ng;
            int bad = 0;
            for (long j = 0; j < m; j++) {
                double q0 = q0r[j], q1 = q1r[j], q2 = q2r[j], q3 = q3r[j];
                double pp = (gamma - 1.0) * (q3 - 0.5 * (q1 * q1 + q2 * q2) / q0);
                bad |= !(fabs(q0) <= DBL_MAX) | !(fabs(q1) <= DBL_MAX) |
                       !(fabs(q2) <= DBL_MAX) | !(fabs(q3) <= DBL_MAX) |
                       (q0 <= 0.0) | !(pp > 0.0);
            }
            if (bad) return 0;
        }
    }
    return 1;
}

/* Index-compiled ghost traffic: flat[dst[k]] = flat[src[k]] (pure copies)
 * or the same with a sign flip (reflecting-wall momentum rows).  scale is
 * restricted to +/-1 so the copy path stays a bit-exact move. */
static void copy_indexed(double *restrict flat, const int32_t *restrict dst,
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
static void prolong_blocks(const double *restrict src, long R, long nx,
                           long ny, double *restrict dst) {
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
static void restrict_blocks(const double *restrict src, long R, long nx,
                            long ny, double *restrict dst) {
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
static void gather_indexed(const double *restrict flat,
                           const int32_t *restrict idx, double *restrict out,
                           long K) {
    for (long k = 0; k < K; k++) out[k] = flat[idx[k]];
}

/* Scatter vals[k] to flat[idx[k]] (writing prolonged/restricted strips). */
static void scatter_indexed(double *restrict flat, const int32_t *restrict idx,
                            const double *restrict vals, long K) {
    for (long k = 0; k < K; k++) flat[idx[k]] = vals[k];
}

/* One exchange program of repro.amr.batch.ExchangePlan (a direction's
 * half, or the whole) on the flat stack: the copies, the negated copies,
 * then R coarse (cnx, cny) slabs gathered, prolonged and scattered, and R'
 * fine (fnx, fny) slabs gathered, restricted and scattered, through the
 * caller's staging buffers.  Reads touch interior cells and writes ghost cells only, so the
 * order of the four kinds cannot matter. */
void exchange(double *restrict flat,
              const int32_t *restrict copy_dst, const int32_t *restrict copy_src,
              long ncopy,
              const int32_t *restrict neg_dst, const int32_t *restrict neg_src,
              long nneg,
              const int32_t *restrict coarse_gather,
              const int32_t *restrict coarse_scatter,
              long ncoarse, long cnx, long cny,
              double *restrict coarse, double *restrict prolonged,
              const int32_t *restrict fine_gather,
              const int32_t *restrict fine_scatter,
              long nfine, long fnx, long fny,
              double *restrict fine, double *restrict restricted) {
    copy_indexed(flat, copy_dst, copy_src, ncopy, 1.0);
    copy_indexed(flat, neg_dst, neg_src, nneg, -1.0);
    gather_indexed(flat, coarse_gather, coarse, ncoarse * cnx * cny);
    prolong_blocks(coarse, ncoarse, cnx, cny, prolonged);
    scatter_indexed(flat, coarse_scatter, prolonged, ncoarse * 4 * cnx * cny);
    gather_indexed(flat, fine_gather, fine, nfine * fnx * fny);
    restrict_blocks(fine, nfine, fnx, fny, restricted);
    scatter_indexed(flat, fine_scatter, restricted, nfine * (fnx / 2) * (fny / 2));
}
