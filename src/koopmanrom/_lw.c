/* One fused sub-step of the shallow-water solver (koopmanrom.swe).
 *
 * lw_step does what the numpy step does (swe._step_unique, the depth
 * check, the velocity recovery and v = 0 on the walls) plus the next
 * signal speed, with the same operations in the same order for every
 * element the new state depends on, so a build without FMA contraction
 * (-ffp-contract=off) and without -ffast-math gives bit-identical
 * results.  Where numpy runs a formula as a chain of whole-block passes,
 * each loop here evaluates the whole chain for one element; the
 * intermediate values and their rounding are the same.  -fno-math-errno
 * lets sqrt vectorise: it is correctly rounded either way, and the depth
 * check has made every argument positive.
 *
 * Two entries compile the same inlined body: lw_step for the target's
 * baseline instruction set (SSE2 on x86-64) and, on x86, lw_step_avx2
 * for AVX2, which runs twice as many doubles per instruction.  No entry
 * enables FMA, so both give the same bits.  The loader binds
 * lw_step_avx2 where lw_has_avx2() says the CPU can run it, so a cached
 * library is safe on any x86-64 machine.
 *
 * Layout (see swe._Workspace): each variable is a C-contiguous block of
 * ny rows of e = nx + 1 values, n = ny * e, with periodic halo columns 0
 * and e - 1; p and q are stacks of three such blocks back to back.
 *
 * One sweep over the rows.  numpy forms each intermediate (the cell
 * state and fluxes, the centred gradients, the half states and fluxes at
 * the x and y faces) over the whole grid before the next, so every pass
 * streams whole-grid stacks through the cache.  The sweep forms them row
 * by row as the update needs them, in rings of a few rows that stay in
 * cache.  For row r it forms the y gradients of row r, the x faces of
 * row r, the y faces between rows r and r + 1, then the update of row r
 * into q and its halo columns, and last the cell row, fluxes and x
 * gradients of row r + 2, ready for the next rows.  The rings hold 3 cell
 * rows, 2 rows of x gradients and of y faces, and 1 of y gradients and of
 * x faces: RING_SLOTS (45) slots of e values, each padded to a multiple
 * of 8 and 64-byte aligned, in one block that Kernel.bind makes (w->ring;
 * 48960 bytes on a 129 x 65 grid).  A cell row keeps only what is not
 * already held elsewhere: h is read from p, and the mass fluxes uh and vh
 * are the momenta.
 *
 * Elements that numpy forms only for a halo column, which the halo
 * refresh overwrites, are skipped: the x gradients at columns 0 and
 * e - 1, the last x face of each row, and the y faces and the update at
 * the halo columns.  The y gradients at both halo columns are formed,
 * since the x faces at columns 0 and e - 2 read them.  Every element that
 * feeds a unique cell has numpy's expression and operands, so the order
 * of the sweep changes no bit.
 *
 * The tail runs once the sweep is done, so that p is unchanged when the
 * depth check fails: the depth check over q, then the velocity recovery
 * into p, which folds each signal speed into a row of column maxima, and
 * last the maximum of that row.
 *
 * No loop writes an element that another iteration of it reads, which
 * "#pragma GCC ivdep" states: without it gcc 12 vectorises none of the
 * loops, since they touch more arrays than its run-time alias checks
 * cover.  The kernel is single-threaded and allocates nothing.
 */

#include <math.h>
#include <stddef.h>

typedef struct {
    long ny, e;                 /* rows; row length nx + 1 */
    double g, dx, dy;
    double *p;                  /* (h, u, v) in; the new (h, u, v) out */
    double *q;                  /* (h, uh, vh) of the new state */
    double *ring;               /* RING_SLOTS slots of lw_stride(e), 64-byte aligned */
    const double *cell_f;       /* (f, -f) at cells, blocks of n */
    const double *cell_g;       /* (g Hx, g Hy) at cells, blocks of n */
    const double *mx_g;         /* (g Hx, g Hy) at x faces, blocks of n */
    const double *my_f;         /* (f, -f) at y faces, blocks of n - e */
    const double *my_g;         /* (g Hx, g Hy) at y faces, blocks of n - e */
} lw_work;

/* Slots of one ring row.  A cell row holds the momenta uh and vh and
 * the momentum fluxes: q = (h, uh, vh), F = (uh, FU, FV) and
 * G = (vh, GU, GV), whose h is read from p.  A gradient row holds the
 * gradients of three fluxes, and a face row the face states (h, u, v)
 * and their fluxes. */
enum { UH, VH, FU, FV, GU, GV, CELL };
enum { GRAD = 3, FACE = 6 };
#define RING_SLOTS (3 * CELL + 2 * GRAD + GRAD + FACE + 2 * FACE)

/* The kernel's functions are inlined into each entry below, so each
 * entry compiles the whole step for its own instruction set. */
#define LW_INLINE static inline __attribute__((always_inline))

/* The values apart of two ring slots: e padded to a multiple of 8. */
LW_INLINE long lw_stride(long e)
{
    return (e + 7) & ~7L;
}

/* The step's constants, as Python forms them. */
typedef struct {
    double dt, hg, two_dx, two_dy, cx, cy, qdt, hdt, dtdx, dtdy;
} lw_consts;

/* The cell row of the m cells (h, u, v) into the slots at c, L values
 * apart. */
LW_INLINE void cells(long m, long L, double hg, const double *restrict h,
                     const double *restrict u, const double *restrict v,
                     double *restrict c)
{
    double *restrict q1 = c + UH * L, *restrict q2 = c + VH * L;
    double *restrict F1 = c + FU * L, *restrict F2 = c + FV * L;
    double *restrict G1 = c + GU * L, *restrict G2 = c + GV * L;
    #pragma GCC ivdep
    for (long k = 0; k < m; k++) {
        const double hk = h[k], uk = u[k], vk = v[k];
        const double uh = uk * hk, vh = vk * hk, pr = hk * hg * hk;
        q1[k] = uh;
        q2[k] = vh;
        F1[k] = uh * uk + pr;
        F2[k] = uh * vk;
        G1[k] = uk * vh;
        G2[k] = vk * vh + pr;
    }
}

/* Centred x gradients of the cell x fluxes of the row c into Fx, at the
 * unique columns 1..e-2. */
LW_INLINE void x_gradients(long e, long L, double two_dx, const double *restrict c,
                           double *restrict Fx)
{
    const double *restrict F0 = c + UH * L, *restrict F1 = c + FU * L, *restrict F2 = c + FV * L;
    double *restrict Fx0 = Fx, *restrict Fx1 = Fx + L, *restrict Fx2 = Fx + 2 * L;
    #pragma GCC ivdep
    for (long k = 1; k < e - 1; k++) {
        Fx0[k] = (F0[k + 1] - F0[k - 1]) / two_dx;
        Fx1[k] = (F1[k + 1] - F1[k - 1]) / two_dx;
        Fx2[k] = (F2[k + 1] - F2[k - 1]) / two_dx;
    }
}

/* Centred y gradients of a row from the cell y fluxes of the row south
 * of it, cs, and of the row north, cn, into Gy.  Beyond a wall (cs or cn
 * NULL) is the mirror ghost row, where h and u are even and v is odd, so
 * the y fluxes carry signs (-1, -1, +1). */
LW_INLINE void y_gradients(long e, long L, double two_dy, const double *restrict cs,
                           const double *restrict cn, double *restrict Gy)
{
    double *restrict Gy0 = Gy, *restrict Gy1 = Gy + L, *restrict Gy2 = Gy + 2 * L;
    if (cs == NULL) {
        const double *restrict N0 = cn + VH * L, *restrict N1 = cn + GU * L,
                     *restrict N2 = cn + GV * L;
        #pragma GCC ivdep
        for (long k = 0; k < e; k++) {
            Gy0[k] = (N0[k] - -N0[k]) / two_dy;
            Gy1[k] = (N1[k] - -N1[k]) / two_dy;
            Gy2[k] = (N2[k] - N2[k]) / two_dy;
        }
    } else if (cn == NULL) {
        const double *restrict S0 = cs + VH * L, *restrict S1 = cs + GU * L,
                     *restrict S2 = cs + GV * L;
        #pragma GCC ivdep
        for (long k = 0; k < e; k++) {
            Gy0[k] = (-S0[k] - S0[k]) / two_dy;
            Gy1[k] = (-S1[k] - S1[k]) / two_dy;
            Gy2[k] = (S2[k] - S2[k]) / two_dy;
        }
    } else {
        const double *restrict S0 = cs + VH * L, *restrict S1 = cs + GU * L,
                     *restrict S2 = cs + GV * L;
        const double *restrict N0 = cn + VH * L, *restrict N1 = cn + GU * L,
                     *restrict N2 = cn + GV * L;
        #pragma GCC ivdep
        for (long k = 0; k < e; k++) {
            Gy0[k] = (N0[k] - S0[k]) / two_dy;
            Gy1[k] = (N1[k] - S1[k]) / two_dy;
            Gy2[k] = (N2[k] - S2[k]) / two_dy;
        }
    }
}

/* Half states at the x faces of a row (cells k and k + 1, columns
 * 0..e-2), their primitive form and their fluxes, into X: the row's
 * (h, u, v) is at h, u, v, its cell row at c, its y gradients at Gy, and
 * the source tables start at the row. */
LW_INLINE void x_faces(long e, long L, const lw_consts *K, const double *restrict c,
                       const double *restrict Gy, const double *restrict h,
                       const double *restrict u, const double *restrict v,
                       const double *restrict fc, const double *restrict mfc,
                       const double *restrict gxx, const double *restrict gyx,
                       double *restrict X)
{
    const double *restrict q0 = h, *restrict q1 = c + UH * L, *restrict q2 = c + VH * L;
    const double *restrict F0 = q1, *restrict F1 = c + FU * L, *restrict F2 = c + FV * L;
    const double *restrict Gy0 = Gy, *restrict Gy1 = Gy + L, *restrict Gy2 = Gy + 2 * L;
    double *restrict X0 = X, *restrict X1 = X + L, *restrict X2 = X + 2 * L;
    double *restrict Fm0 = X + 3 * L, *restrict Fm1 = X + 4 * L, *restrict Fm2 = X + 5 * L;
    const double cx = K->cx, qdt = K->qdt, hdt = K->hdt, hg = K->hg;
    #pragma GCC ivdep
    for (long k = 0; k < e - 1; k++) {
        const double a0 = (q0[k] + q0[k + 1]) * 0.5 - (F0[k + 1] - F0[k]) * cx
                          - (Gy0[k] + Gy0[k + 1]) * qdt;
        double a1 = (q1[k] + q1[k + 1]) * 0.5 - (F1[k + 1] - F1[k]) * cx
                    - (Gy1[k] + Gy1[k + 1]) * qdt;
        double a2 = (q2[k] + q2[k + 1]) * 0.5 - (F2[k + 1] - F2[k]) * cx
                    - (Gy2[k] + Gy2[k + 1]) * qdt;
        const double s = (h[k] + h[k + 1]) * 0.5 * hdt;
        const double ua = (u[k] + u[k + 1]) * 0.5, va = (v[k] + v[k + 1]) * 0.5;
        a1 += (fc[k] * va - gxx[k]) * s;
        a2 += (mfc[k] * ua - gyx[k]) * s;
        const double um = a1 / a0, vm = a2 / a0, fm = um * a0;
        X0[k] = a0;
        X1[k] = um;
        X2[k] = vm;
        Fm0[k] = fm;
        Fm1[k] = fm * um + a0 * hg * a0;
        Fm2[k] = fm * vm;
    }
}

/* Half states at the y faces between a row (cells k) and the row north
 * of it (cells k + e), at the unique columns 1..e-2, their primitive
 * form and their fluxes, into Y: the row's (h, u, v) is at h, u, v (the
 * north row's e values on), the rows' cell rows at c and cn, their x
 * gradients at Fx and Fxn, and the face tables start at the row. */
LW_INLINE void y_faces(long e, long L, const lw_consts *K, const double *restrict c,
                       const double *restrict cn, const double *restrict Fx,
                       const double *restrict Fxn, const double *restrict h,
                       const double *restrict u, const double *restrict v,
                       const double *restrict fy, const double *restrict mfy,
                       const double *restrict gxy, const double *restrict gyy,
                       double *restrict Y)
{
    const double *restrict q0 = h, *restrict q1 = c + UH * L, *restrict q2 = c + VH * L;
    const double *restrict G0 = q2, *restrict G1 = c + GU * L, *restrict G2 = c + GV * L;
    const double *restrict n0 = h + e, *restrict n1 = cn + UH * L, *restrict n2 = cn + VH * L;
    const double *restrict H0 = n2, *restrict H1 = cn + GU * L, *restrict H2 = cn + GV * L;
    const double *restrict Fx0 = Fx, *restrict Fx1 = Fx + L, *restrict Fx2 = Fx + 2 * L;
    const double *restrict Fn0 = Fxn, *restrict Fn1 = Fxn + L, *restrict Fn2 = Fxn + 2 * L;
    double *restrict Y0 = Y, *restrict Y1 = Y + L, *restrict Y2 = Y + 2 * L;
    double *restrict Gm0 = Y + 3 * L, *restrict Gm1 = Y + 4 * L, *restrict Gm2 = Y + 5 * L;
    const double cy = K->cy, qdt = K->qdt, hdt = K->hdt, hg = K->hg;
    #pragma GCC ivdep
    for (long k = 1; k < e - 1; k++) {
        const double b0 = (q0[k] + n0[k]) * 0.5 - (H0[k] - G0[k]) * cy
                          - (Fx0[k] + Fn0[k]) * qdt;
        double b1 = (q1[k] + n1[k]) * 0.5 - (H1[k] - G1[k]) * cy
                    - (Fx1[k] + Fn1[k]) * qdt;
        double b2 = (q2[k] + n2[k]) * 0.5 - (H2[k] - G2[k]) * cy
                    - (Fx2[k] + Fn2[k]) * qdt;
        const double s = (h[k] + h[k + e]) * 0.5 * hdt;
        const double ua = (u[k] + u[k + e]) * 0.5, va = (v[k] + v[k + e]) * 0.5;
        b1 += (fy[k] * va - gxy[k]) * s;
        b2 += (mfy[k] * ua - gyy[k]) * s;
        const double um = b1 / b0, vm = b2 / b0, gm = vm * b0;
        Y0[k] = b0;
        Y1[k] = um;
        Y2[k] = vm;
        Gm0[k] = gm;
        Gm1[k] = um * gm;
        Gm2[k] = vm * gm + b0 * hg * b0;
    }
}

/* The update of a row at the unique columns 1..e-2 into q0..q2: flux
 * differences, the wall faces carrying zero normal flux, then the
 * corrector source at the time-centred cell state, the mean of the x
 * face states, averaged with that of the y faces off the walls.  The
 * row's depth is at h, its cell row at c, its x faces at X, the y faces
 * south of it at Ys and north of it at Yn (NULL beyond a wall), and the
 * cell tables start at the row. */
LW_INLINE void update(long e, long L, const lw_consts *K, const double *restrict h,
                      const double *restrict c,
                      const double *restrict X, const double *restrict Ys,
                      const double *restrict Yn, const double *restrict fc,
                      const double *restrict mfc, const double *restrict gxc,
                      const double *restrict gyc, double *restrict q0,
                      double *restrict q1, double *restrict q2)
{
    const double *restrict c0 = h, *restrict c1 = c + UH * L, *restrict c2 = c + VH * L;
    const double *restrict X0 = X, *restrict X1 = X + L, *restrict X2 = X + 2 * L;
    const double *restrict Fm0 = X + 3 * L, *restrict Fm1 = X + 4 * L, *restrict Fm2 = X + 5 * L;
    const double dt = K->dt, dtdx = K->dtdx, dtdy = K->dtdy;
    if (Ys == NULL) {
        const double *restrict G0 = Yn + 3 * L, *restrict G1 = Yn + 4 * L,
                     *restrict G2 = Yn + 5 * L;
        #pragma GCC ivdep
        for (long k = 1; k < e - 1; k++) {
            const double m0 = (X0[k] + X0[k - 1]) * 0.5, m1 = (X1[k] + X1[k - 1]) * 0.5,
                         m2 = (X2[k] + X2[k - 1]) * 0.5, s = m0 * dt;
            q0[k] = c0[k] - (Fm0[k] - Fm0[k - 1]) * dtdx - G0[k] * dtdy;
            q1[k] = c1[k] - (Fm1[k] - Fm1[k - 1]) * dtdx - G1[k] * dtdy
                    + (fc[k] * m2 - gxc[k]) * s;
            q2[k] = c2[k] - (Fm2[k] - Fm2[k - 1]) * dtdx - G2[k] * dtdy
                    + (mfc[k] * m1 - gyc[k]) * s;
        }
    } else if (Yn == NULL) {
        const double *restrict G0 = Ys + 3 * L, *restrict G1 = Ys + 4 * L,
                     *restrict G2 = Ys + 5 * L;
        #pragma GCC ivdep
        for (long k = 1; k < e - 1; k++) {
            const double m0 = (X0[k] + X0[k - 1]) * 0.5, m1 = (X1[k] + X1[k - 1]) * 0.5,
                         m2 = (X2[k] + X2[k - 1]) * 0.5, s = m0 * dt;
            q0[k] = c0[k] - (Fm0[k] - Fm0[k - 1]) * dtdx - -G0[k] * dtdy;
            q1[k] = c1[k] - (Fm1[k] - Fm1[k - 1]) * dtdx - -G1[k] * dtdy
                    + (fc[k] * m2 - gxc[k]) * s;
            q2[k] = c2[k] - (Fm2[k] - Fm2[k - 1]) * dtdx - -G2[k] * dtdy
                    + (mfc[k] * m1 - gyc[k]) * s;
        }
    } else {
        const double *restrict S0 = Ys, *restrict S1 = Ys + L, *restrict S2 = Ys + 2 * L;
        const double *restrict Gs0 = Ys + 3 * L, *restrict Gs1 = Ys + 4 * L,
                     *restrict Gs2 = Ys + 5 * L;
        const double *restrict N0 = Yn, *restrict N1 = Yn + L, *restrict N2 = Yn + 2 * L;
        const double *restrict Gn0 = Yn + 3 * L, *restrict Gn1 = Yn + 4 * L,
                     *restrict Gn2 = Yn + 5 * L;
        #pragma GCC ivdep
        for (long k = 1; k < e - 1; k++) {
            const double m0 = ((X0[k] + X0[k - 1]) * 0.5 + (N0[k] + S0[k]) * 0.5) * 0.5;
            const double m1 = ((X1[k] + X1[k - 1]) * 0.5 + (N1[k] + S1[k]) * 0.5) * 0.5;
            const double m2 = ((X2[k] + X2[k - 1]) * 0.5 + (N2[k] + S2[k]) * 0.5) * 0.5;
            const double s = m0 * dt;
            q0[k] = c0[k] - (Fm0[k] - Fm0[k - 1]) * dtdx - (Gn0[k] - Gs0[k]) * dtdy;
            q1[k] = c1[k] - (Fm1[k] - Fm1[k - 1]) * dtdx - (Gn1[k] - Gs1[k]) * dtdy
                    + (fc[k] * m2 - gxc[k]) * s;
            q2[k] = c2[k] - (Fm2[k] - Fm2[k - 1]) * dtdx - (Gn2[k] - Gs2[k]) * dtdy
                    + (mfc[k] * m1 - gyc[k]) * s;
        }
    }
    /* halo refresh: column 0 copies unique column nx - 2, column e - 1
     * copies unique column 0 */
    q0[0] = q0[e - 2];
    q1[0] = q1[e - 2];
    q2[0] = q2[e - 2];
    q0[e - 1] = q0[1];
    q1[e - 1] = q1[1];
    q2[e - 1] = q2[1];
}

/* a if it is NaN or greater than b, else b: a NaN wins, and the maximum
 * of two numbers is exact. */
LW_INLINE double nan_or_max(double a, double b)
{
    return (a != a) | (a > b) ? a : b;
}

/* (h, u, v) from (h, uh, vh) for the m cells of a row, v = 0 on a wall
 * row, and |u| + |v| + sqrt(g h) folded into the column maxima top. */
LW_INLINE void recover(long m, int wall, double g, const double *restrict qh,
                       const double *restrict quh, const double *restrict qvh,
                       double *restrict h, double *restrict u, double *restrict v,
                       double *restrict top)
{
    #pragma GCC ivdep
    for (long k = 0; k < m; k++) {
        const double hk = qh[k], uk = quh[k] / hk, vk = wall ? 0.0 : qvh[k] / hk;
        h[k] = hk;
        u[k] = uk;
        v[k] = vk;
        top[k] = nan_or_max(fabs(uk) + fabs(vk) + sqrt(hk * g), top[k]);
    }
}

/* max(s[0], ..., s[n - 1]) for n >= 1, or a NaN when any s[k] is NaN,
 * overwriting s: a tree fold, each level of which folds the top half of
 * s onto the bottom half elementwise, so it vectorises.  The maximum is
 * exact, so the order it is taken in does not matter. */
LW_INLINE double max_or_nan(long n, double *restrict s)
{
    while (n > 1) {
        const long half = n / 2, rest = n - half;
        #pragma GCC ivdep
        for (long k = 0; k < half; k++)
            s[k] = nan_or_max(s[rest + k], s[k]);
        n = rest;
    }
    return s[0];
}

/* The body of both step entries below. */
LW_INLINE int step(const lw_work *w, double dt, double *speed)
{
    const long ny = w->ny, e = w->e, n = ny * e, L = lw_stride(e);
    const double g = w->g, dx = w->dx, dy = w->dy;
    const lw_consts K = {
        .dt = dt, .hg = 0.5 * g, .two_dx = 2.0 * dx, .two_dy = 2.0 * dy,
        .cx = 0.5 * dt / dx, .cy = 0.5 * dt / dy, .qdt = 0.25 * dt,
        .hdt = 0.5 * dt, .dtdx = dt / dx, .dtdy = dt / dy,
    };

    double *h = w->p, *u = w->p + n, *v = w->p + 2 * n;
    double *q0 = w->q, *q1 = w->q + n, *q2 = w->q + 2 * n;
    const double *fc = w->cell_f, *mfc = w->cell_f + n;
    const double *gxc = w->cell_g, *gyc = w->cell_g + n;
    const double *gxx = w->mx_g, *gyx = w->mx_g + n;
    const double *fy = w->my_f, *mfy = w->my_f + (n - e);
    const double *gxy = w->my_g, *gyy = w->my_g + (n - e);

    /* the rings: cell row r in cell slot r % 3, the x gradients of row r
     * in gx slot r % 2, and the y faces between rows r and r + 1 in yf
     * slot r % 2 */
    double *ring = w->ring;
    double *cell = ring, *gx = cell + 3 * CELL * L, *gy = gx + 2 * GRAD * L;
    double *xf = gy + GRAD * L, *yf = xf + FACE * L;

    for (long r = 0; r < 2; r++) {
        cells(e, L, K.hg, h + r * e, u + r * e, v + r * e, cell + r * CELL * L);
        x_gradients(e, L, K.two_dx, cell + r * CELL * L, gx + r * GRAD * L);
    }
    for (long r = 0; r < ny; r++) {
        const long o = r * e;
        const int south = r > 0, north = r < ny - 1;
        const double *c = cell + r % 3 * CELL * L;
        const double *cs = cell + (r + 2) % 3 * CELL * L, *cn = cell + (r + 1) % 3 * CELL * L;
        const double *ys = yf + (r + 1) % 2 * FACE * L;
        double *yn = yf + r % 2 * FACE * L;
        y_gradients(e, L, K.two_dy, south ? cs : NULL, north ? cn : NULL, gy);
        x_faces(e, L, &K, c, gy, h + o, u + o, v + o, fc + o, mfc + o, gxx + o, gyx + o, xf);
        if (north)
            y_faces(e, L, &K, c, cn, gx + r % 2 * GRAD * L, gx + (r + 1) % 2 * GRAD * L,
                    h + o, u + o, v + o, fy + o, mfy + o, gxy + o, gyy + o, yn);
        update(e, L, &K, h + o, c, xf, south ? ys : NULL, north ? yn : NULL,
               fc + o, mfc + o, gxc + o, gyc + o, q0 + o, q1 + o, q2 + o);
        if (r + 2 < ny) {
            double *c2 = cell + (r + 2) % 3 * CELL * L;
            cells(e, L, K.hg, h + o + 2 * e, u + o + 2 * e, v + o + 2 * e, c2);
            x_gradients(e, L, K.two_dx, c2, gx + r % 2 * GRAD * L);
        }
    }

    /* the depth check: h.min() > 0 and h.max() < inf */
    long bad = 0;
    #pragma GCC ivdep
    for (long k = 0; k < n; k++)
        bad |= !(q0[k] > 0.0) | !(q0[k] < INFINITY);
    if (bad)
        return 1;

    /* velocity recovery, v = 0 on the walls, and the next signal speed:
     * max(top) with top a ring slot of column maxima from 0 */
    double *top = ring;
    for (long k = 0; k < e; k++)
        top[k] = 0.0;
    for (long r = 0; r < ny; r++) {
        const long o = r * e;
        recover(e, r == 0 || r == ny - 1, g, q0 + o, q1 + o, q2 + o, h + o, u + o, v + o, top);
    }
    *speed = max_or_nan(e, top);
    return 0;
}

/* Advance w->p one step of length dt.  Returns 0 with the next signal
 * speed max(|u| + |v| + sqrt(g h)) in *speed (NaN if any term is NaN)
 * and the new (h, u, v), v = 0 on the walls, in w->p.  Returns 1 when
 * the new depth is not finite and positive everywhere; w->q then holds
 * the new conserved state, halo refreshed, and w->p is unchanged.
 * lw_step is built for the baseline instruction set of the target. */
int lw_step(const lw_work *w, double dt, double *speed)
{
    return step(w, dt, speed);
}

/* The fold of the step's tail on its own, for tests: max(s[0], ...,
 * s[n - 1]) for n >= 1, or a NaN, overwriting s. */
double lw_max_or_nan(long n, double *s)
{
    return max_or_nan(n, s);
}

#if defined(__x86_64__) || defined(__i386__)
/* Whether the CPU (and the OS) can run lw_step_avx2. */
int lw_has_avx2(void)
{
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
}

/* lw_step built for AVX2: wider vectors, the same operations in the same
 * order, so the same bits. */
__attribute__((target("avx2")))
int lw_step_avx2(const lw_work *w, double dt, double *speed)
{
    return step(w, dt, speed);
}

__attribute__((target("avx2")))
double lw_max_or_nan_avx2(long n, double *s)
{
    return max_or_nan(n, s);
}
#endif
