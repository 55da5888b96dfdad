/* One fused sub-step of the shallow-water solver (koopmanrom.swe).
 *
 * lw_step does what swe._numpy_step does (swe._step_unique, the depth
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
 * and e - 1.  Stacks of three variables are three such blocks back to
 * back; the face buffers qmx and qmy hold blocks of n - 1 and n - e.
 * Values that land in a halo column are garbage no unique cell reads;
 * the halo refresh overwrites them before the depth check.
 *
 * No loop writes an element that another iteration of it reads, which
 * "#pragma GCC ivdep" states: without it gcc 12 vectorises none of the
 * loops, since they touch more arrays than its run-time alias checks
 * cover.  The kernel is single-threaded and allocates nothing.
 */

#include <math.h>

typedef struct {
    long ny, e;                 /* rows; row length nx + 1 */
    double g, dx, dy;
    double *p;                  /* (h, u, v) in; the new (h, u, v) out */
    double *q;                  /* (h, uh, vh) of the new state */
    double *F;                  /* cell x fluxes, then the y face fluxes */
    double *G;                  /* cell y fluxes */
    double *Fx, *Gy;            /* centred flux gradients */
    double *Fm;                 /* x face fluxes */
    double *qmx, *qmy;          /* half states at x and y faces */
    const double *cell_f;       /* (f, -f) at cells, blocks of n */
    const double *cell_g;       /* (g Hx, g Hy) at cells, blocks of n */
    const double *mx_g;         /* (g Hx, g Hy) at x faces, blocks of n */
    const double *my_f;         /* (f, -f) at y faces, blocks of n - e */
    const double *my_g;         /* (g Hx, g Hy) at y faces, blocks of n - e */
} lw_work;

/* The kernel's functions are inlined into each entry below, so each
 * entry compiles the whole step for its own instruction set. */
#define LW_INLINE static inline __attribute__((always_inline))

/* (h, u, v) from (h, uh, vh) for k in [lo, hi), v = 0 on a wall row, and
 * |u| + |v| + sqrt(g h) into s. */
LW_INLINE void recover(long lo, long hi, int wall, double g,
                       const double *restrict qh, const double *restrict quh,
                       const double *restrict qvh, double *restrict h,
                       double *restrict u, double *restrict v, double *restrict s)
{
    #pragma GCC ivdep
    for (long k = lo; k < hi; k++) {
        const double hk = qh[k], uk = quh[k] / hk, vk = wall ? 0.0 : qvh[k] / hk;
        h[k] = hk;
        u[k] = uk;
        v[k] = vk;
        s[k] = fabs(uk) + fabs(vk) + sqrt(hk * g);
    }
}

/* max(s[0], ..., s[n - 1], 0), or NaN when any s[k] is NaN, in a pass of
 * its own so that the recovery loops vectorise.  LANES independent
 * running maxima and NaN flags split the one long dependency chain; the
 * maximum is exact, so the order it is taken in does not matter. */
#define LANES 4
LW_INLINE double max_or_nan(long n, const double *restrict s)
{
    double top[LANES] = {0.0};
    long bad[LANES] = {0};
    long k = 0;
    for (; k + LANES <= n; k += LANES)
        for (int j = 0; j < LANES; j++) {
            const double x = s[k + j];
            bad[j] |= x != x;
            top[j] = x > top[j] ? x : top[j];
        }
    for (; k < n; k++) {
        bad[0] |= s[k] != s[k];
        top[0] = s[k] > top[0] ? s[k] : top[0];
    }
    for (int j = 1; j < LANES; j++) {
        bad[0] |= bad[j];
        top[0] = top[j] > top[0] ? top[j] : top[0];
    }
    return bad[0] ? NAN : top[0];
}

/* The body of both step entries below. */
LW_INLINE int step(const lw_work *w, double dt, double *speed)
{
    const long e = w->e, n = w->ny * w->e, nx1 = n - 1, ny1 = n - e;
    const double g = w->g, dx = w->dx, dy = w->dy;
    /* the constants as Python forms them */
    const double hg = 0.5 * g, two_dx = 2.0 * dx, two_dy = 2.0 * dy;
    const double cx = 0.5 * dt / dx, cy = 0.5 * dt / dy, qdt = 0.25 * dt;
    const double hdt = 0.5 * dt, dtdx = dt / dx, dtdy = dt / dy;

    double *restrict h = w->p, *restrict u = w->p + n, *restrict v = w->p + 2 * n;
    double *restrict q0 = w->q, *restrict q1 = w->q + n, *restrict q2 = w->q + 2 * n;
    double *restrict F0 = w->F, *restrict F1 = w->F + n, *restrict F2 = w->F + 2 * n;
    double *restrict G0 = w->G, *restrict G1 = w->G + n, *restrict G2 = w->G + 2 * n;
    double *restrict Fx0 = w->Fx, *restrict Fx1 = w->Fx + n, *restrict Fx2 = w->Fx + 2 * n;
    double *restrict Gy0 = w->Gy, *restrict Gy1 = w->Gy + n, *restrict Gy2 = w->Gy + 2 * n;
    double *restrict Fm0 = w->Fm, *restrict Fm1 = w->Fm + n, *restrict Fm2 = w->Fm + 2 * n;
    double *restrict X0 = w->qmx, *restrict X1 = w->qmx + nx1, *restrict X2 = w->qmx + 2 * nx1;
    double *restrict Y0 = w->qmy, *restrict Y1 = w->qmy + ny1, *restrict Y2 = w->qmy + 2 * ny1;
    const double *restrict fc = w->cell_f, *restrict mfc = w->cell_f + n;
    const double *restrict gxc = w->cell_g, *restrict gyc = w->cell_g + n;
    const double *restrict gxx = w->mx_g, *restrict gyx = w->mx_g + n;
    const double *restrict fy = w->my_f, *restrict mfy = w->my_f + ny1;
    const double *restrict gxy = w->my_g, *restrict gyy = w->my_g + ny1;
    long k;

    /* conserved state and cell fluxes */
    #pragma GCC ivdep
    for (k = 0; k < n; k++) {
        const double hk = h[k], uk = u[k], vk = v[k];
        const double uh = uk * hk, vh = vk * hk, pr = hk * hg * hk;
        q0[k] = hk;
        q1[k] = uh;
        q2[k] = vh;
        F0[k] = uh;
        F1[k] = uh * uk + pr;
        F2[k] = uh * vk;
        G0[k] = vh;
        G1[k] = uk * vh;
        G2[k] = vk * vh + pr;
    }

    /* centred gradients; mirror ghost rows beyond each wall, where h and
     * u are even and v is odd, so the y fluxes carry signs (-1, -1, +1) */
    #pragma GCC ivdep
    for (k = 1; k < n - 1; k++) {
        Fx0[k] = (F0[k + 1] - F0[k - 1]) / two_dx;
        Fx1[k] = (F1[k + 1] - F1[k - 1]) / two_dx;
        Fx2[k] = (F2[k + 1] - F2[k - 1]) / two_dx;
    }
    #pragma GCC ivdep
    for (k = 0; k < e; k++) {
        Gy0[k] = (G0[k + e] - -G0[k + e]) / two_dy;
        Gy1[k] = (G1[k + e] - -G1[k + e]) / two_dy;
        Gy2[k] = (G2[k + e] - G2[k + e]) / two_dy;
    }
    #pragma GCC ivdep
    for (k = e; k < n - e; k++) {
        Gy0[k] = (G0[k + e] - G0[k - e]) / two_dy;
        Gy1[k] = (G1[k + e] - G1[k - e]) / two_dy;
        Gy2[k] = (G2[k + e] - G2[k - e]) / two_dy;
    }
    #pragma GCC ivdep
    for (k = n - e; k < n; k++) {
        Gy0[k] = (-G0[k - e] - G0[k - e]) / two_dy;
        Gy1[k] = (-G1[k - e] - G1[k - e]) / two_dy;
        Gy2[k] = (G2[k - e] - G2[k - e]) / two_dy;
    }

    /* half states at x faces (cells k and k + 1), their primitive form
     * and their fluxes */
    #pragma GCC ivdep
    for (k = 0; k < nx1; k++) {
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

    /* half states at y faces (cells k and k + e); their fluxes go to F,
     * whose cell fluxes are no longer read */
    #pragma GCC ivdep
    for (k = 0; k < ny1; k++) {
        const double b0 = (q0[k] + q0[k + e]) * 0.5 - (G0[k + e] - G0[k]) * cy
                          - (Fx0[k] + Fx0[k + e]) * qdt;
        double b1 = (q1[k] + q1[k + e]) * 0.5 - (G1[k + e] - G1[k]) * cy
                    - (Fx1[k] + Fx1[k + e]) * qdt;
        double b2 = (q2[k] + q2[k + e]) * 0.5 - (G2[k + e] - G2[k]) * cy
                    - (Fx2[k] + Fx2[k + e]) * qdt;
        const double s = (h[k] + h[k + e]) * 0.5 * hdt;
        const double ua = (u[k] + u[k + e]) * 0.5, va = (v[k] + v[k + e]) * 0.5;
        b1 += (fy[k] * va - gxy[k]) * s;
        b2 += (mfy[k] * ua - gyy[k]) * s;
        const double um = b1 / b0, vm = b2 / b0, gm = vm * b0;
        Y0[k] = b0;
        Y1[k] = um;
        Y2[k] = vm;
        F0[k] = gm;
        F1[k] = um * gm;
        F2[k] = vm * gm + b0 * hg * b0;
    }

    /* flux differences (F holds the y face fluxes), the wall faces
     * carrying zero normal flux, then the corrector source at the
     * time-centred cell state: the mean of the x face states, averaged
     * with that of the y faces off the walls.  Flat indices 0 and n - 1
     * are halo cells and are skipped. */
    #pragma GCC ivdep
    for (k = 1; k < e; k++) {
        const double c0 = (X0[k] + X0[k - 1]) * 0.5, c1 = (X1[k] + X1[k - 1]) * 0.5,
                     c2 = (X2[k] + X2[k - 1]) * 0.5, s = c0 * dt;
        q0[k] = q0[k] - (Fm0[k] - Fm0[k - 1]) * dtdx - F0[k] * dtdy;
        q1[k] = q1[k] - (Fm1[k] - Fm1[k - 1]) * dtdx - F1[k] * dtdy
                + (fc[k] * c2 - gxc[k]) * s;
        q2[k] = q2[k] - (Fm2[k] - Fm2[k - 1]) * dtdx - F2[k] * dtdy
                + (mfc[k] * c1 - gyc[k]) * s;
    }
    #pragma GCC ivdep
    for (k = e; k < n - e; k++) {
        const double c0 = ((X0[k] + X0[k - 1]) * 0.5 + (Y0[k] + Y0[k - e]) * 0.5) * 0.5;
        const double c1 = ((X1[k] + X1[k - 1]) * 0.5 + (Y1[k] + Y1[k - e]) * 0.5) * 0.5;
        const double c2 = ((X2[k] + X2[k - 1]) * 0.5 + (Y2[k] + Y2[k - e]) * 0.5) * 0.5;
        const double s = c0 * dt;
        q0[k] = q0[k] - (Fm0[k] - Fm0[k - 1]) * dtdx - (F0[k] - F0[k - e]) * dtdy;
        q1[k] = q1[k] - (Fm1[k] - Fm1[k - 1]) * dtdx - (F1[k] - F1[k - e]) * dtdy
                + (fc[k] * c2 - gxc[k]) * s;
        q2[k] = q2[k] - (Fm2[k] - Fm2[k - 1]) * dtdx - (F2[k] - F2[k - e]) * dtdy
                + (mfc[k] * c1 - gyc[k]) * s;
    }
    #pragma GCC ivdep
    for (k = n - e; k < n - 1; k++) {
        const double c0 = (X0[k] + X0[k - 1]) * 0.5, c1 = (X1[k] + X1[k - 1]) * 0.5,
                     c2 = (X2[k] + X2[k - 1]) * 0.5, s = c0 * dt;
        q0[k] = q0[k] - (Fm0[k] - Fm0[k - 1]) * dtdx - -F0[k - e] * dtdy;
        q1[k] = q1[k] - (Fm1[k] - Fm1[k - 1]) * dtdx - -F1[k - e] * dtdy
                + (fc[k] * c2 - gxc[k]) * s;
        q2[k] = q2[k] - (Fm2[k] - Fm2[k - 1]) * dtdx - -F2[k - e] * dtdy
                + (mfc[k] * c1 - gyc[k]) * s;
    }

    /* halo refresh: column 0 copies unique column nx - 2, column e - 1
     * copies unique column 0 */
    for (k = 0; k < n; k += e) {
        q0[k] = q0[k + e - 2];
        q1[k] = q1[k + e - 2];
        q2[k] = q2[k + e - 2];
        q0[k + e - 1] = q0[k + 1];
        q1[k + e - 1] = q1[k + 1];
        q2[k + e - 1] = q2[k + 1];
    }

    /* the depth check: h.min() > 0 and h.max() < inf */
    long bad = 0;
    #pragma GCC ivdep
    for (k = 0; k < n; k++)
        bad |= !(q0[k] > 0.0) | !(q0[k] < INFINITY);
    if (bad)
        return 1;

    /* velocity recovery, v = 0 on the walls, and the next signal speed;
     * the speeds go to Fx, whose gradients are no longer read */
    recover(0, e, 1, g, q0, q1, q2, h, u, v, Fx0);
    recover(e, n - e, 0, g, q0, q1, q2, h, u, v, Fx0);
    recover(n - e, n, 1, g, q0, q1, q2, h, u, v, Fx0);
    *speed = max_or_nan(n, Fx0);
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
#endif
