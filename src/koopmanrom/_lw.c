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
 * Three entries compile the same inlined body: lw_step for the target's
 * baseline instruction set (SSE2 on x86-64) and, on x86, lw_step_avx2 for
 * AVX2 and lw_step_avx512 for AVX-512F/VL, at gcc's default vector width
 * for each.  The loader binds the entry lw_entry() names, the fastest the
 * CPU can run, so a cached library is safe on any x86-64 machine.  That
 * order, AVX-512 before AVX2, was measured on Sapphire Rapids alone; on
 * CPUs whose clock drops under 512-bit code (Skylake-SP, Cascade Lake)
 * it is unmeasured.  All three give the same bits: no entry contracts a
 * product and a sum into an FMA, and the fma() calls of the AVX-512
 * entry give the quotients the division gives (below).
 *
 * Exact division.  The centred gradients divide by the constants two_dx
 * and two_dy.  lw_step_avx512 forms each quotient n / b from y = 1 / b,
 * taken once per row, as q = n y, r = fma(-q, b, n) and fma(r, y, q): r
 * is the exact remainder n - q b, and the last fma rounds q + r y to n / b
 * correctly rounded (Markstein, IBM J. Res. Dev. 34, 1990; Muller et al.,
 * Handbook of Floating-Point Arithmetic, 2nd ed., 2018), which is what
 * the division gives.  Both hold only clear of overflow and underflow:
 * b in [2^-100, 2^100], or the whole step divides, and each numerator
 * zero or of magnitude in [2^-900, 2^900], or the row divides anew.  A
 * zero numerator takes q, which carries its sign; the fmas would give +0
 * for -0.  The form pays only in that entry: in the AVX2 entry its guard
 * costs what it saves, and for the per-cell divisors (a0 in faces(), h
 * in recover()) it is slower than the division.
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
 * Each stencil stage is one routine for both directions: gradients()
 * forms the centred gradients in x and y, faces() the half states at x
 * and y faces in the velocity normal and tangential to the face.  Beyond
 * a wall, the step writes the mirror ghost row into the cell slot free
 * there, so the gradient loop has no wall branch.
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

/* Slots of one ring row.  A cell row holds the fluxes across x faces,
 * F = (uh, FU, FV), in its first GRAD slots and those across y faces,
 * G = (vh, GU, GV), in the next, so the fluxes across direction d (0 for
 * x, 1 for y) start at slot d * GRAD; the momenta of q = (h, uh, vh) are
 * the mass fluxes, and h is read from p.  A gradient row holds the
 * gradients of three fluxes, and a face row the face states (h, u, v)
 * and their fluxes. */
enum { GRAD = 3, CELL = 2 * GRAD, FACE = 6 };
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
    double *restrict F0 = c, *restrict F1 = c + L, *restrict F2 = c + 2 * L;
    double *restrict G0 = c + GRAD * L, *restrict G1 = G0 + L, *restrict G2 = G0 + 2 * L;
    #pragma GCC ivdep
    for (long k = 0; k < m; k++) {
        const double hk = h[k], uk = u[k], vk = v[k];
        const double uh = uk * hk, vh = vk * hk, pr = hk * hg * hk;
        F0[k] = uh;
        G0[k] = vh;
        F1[k] = uh * uk + pr;
        F2[k] = uh * vk;
        G1[k] = uk * vh;
        G2[k] = vk * vh + pr;
    }
}

/* Whether b is a divisor that quotient() divides by exactly:
 * b in [2^-100, 2^100]. */
LW_INLINE int exact_divisor(double b)
{
    return (b >= 0x1p-100) & (b <= 0x1p100);
}

/* Whether quotient() may miss n / b for the numerator n: n is not finite,
 * or nonzero outside [2^-900, 2^900]. */
LW_INLINE long off_range(double n)
{
    const double m = fabs(n);
    return (n != 0.0) & !((m >= 0x1p-900) & (m <= 0x1p900));
}

/* n / b correctly rounded, given y = 1 / b, for an exact_divisor b and a
 * numerator n that is not off_range: the remainder r = fma(-q, b, n) of
 * q = n y is exact, and fma(r, y, q) is the rounded quotient.  A zero
 * numerator takes q, which has the quotient's sign where r and the last
 * fma would give +0 for n = -0. */
LW_INLINE double quotient(double n, double b, double y)
{
    const double q = n * y;
    return n == 0.0 ? q : fma(fma(-q, b, n), y, q);
}

/* Centred gradients of the cell fluxes across direction d into D, at the
 * columns o..e-1-o: (a[k + o] - b[k - o]) / two_d, in x along the row
 * a = b (o = 1), in y from the row south b to the row north a (o = 0).
 * With exact set (the AVX-512 entry, for an exact_divisor two_d), each
 * quotient is quotient()'s, and the row is divided anew when any of its
 * numerators is off_range. */
LW_INLINE void gradients(int d, long e, long o, long L, double two_d, int exact,
                         const double *restrict a, const double *restrict b,
                         double *restrict D)
{
    const double *restrict a0 = a + d * GRAD * L, *restrict b0 = b + d * GRAD * L;
    const double *restrict a1 = a0 + L, *restrict a2 = a0 + 2 * L;
    const double *restrict b1 = b0 + L, *restrict b2 = b0 + 2 * L;
    double *restrict D0 = D, *restrict D1 = D + L, *restrict D2 = D + 2 * L;
    if (exact) {
        const double y = 1.0 / two_d;
        long bad = 0;
        #pragma GCC ivdep
        for (long k = o; k < e - o; k++) {
            const double n0 = a0[k + o] - b0[k - o], n1 = a1[k + o] - b1[k - o],
                         n2 = a2[k + o] - b2[k - o];
            D0[k] = quotient(n0, two_d, y);
            D1[k] = quotient(n1, two_d, y);
            D2[k] = quotient(n2, two_d, y);
            bad |= off_range(n0) | off_range(n1) | off_range(n2);
        }
        if (!bad)
            return;
    }
    #pragma GCC ivdep
    for (long k = o; k < e - o; k++) {
        D0[k] = (a0[k + o] - b0[k - o]) / two_d;
        D1[k] = (a1[k + o] - b1[k - o]) / two_d;
        D2[k] = (a2[k + o] - b2[k - o]) / two_d;
    }
}

/* The mirror ghost row, beyond a wall, of the cell row c into the cell
 * slots at m: h and u are even across the wall and v is odd, so the y
 * fluxes, the only ones read there, carry signs (-1, -1, +1). */
LW_INLINE void mirror(long e, long L, const double *restrict c, double *restrict m)
{
    const double *restrict G0 = c + GRAD * L, *restrict G1 = G0 + L, *restrict G2 = G0 + 2 * L;
    double *restrict M0 = m + GRAD * L, *restrict M1 = M0 + L, *restrict M2 = M0 + 2 * L;
    #pragma GCC ivdep
    for (long k = 0; k < e; k++) {
        M0[k] = -G0[k];
        M1[k] = -G1[k];
        M2[k] = G2[k];
    }
}

/* Half states at the faces across direction d between the cells k and
 * k + o of a row (x faces: o = 1, columns 0..e-2; y faces: o = e, the
 * unique columns 1..e-2), their primitive form and their fluxes, into X.
 * N is the velocity normal to the face (u across x faces, v across y
 * faces) and T the tangential one.  The row's (h, u, v) is at h, u, v;
 * the cell rows and the gradients along the face of cells k and k + o
 * are at c and D and at cn and Dn, which hold cell k + o at k + r (r = 1
 * in x, where they are the row's own, 0 in y); the face tables (f, -f)
 * at f, mf and (g Hx, g Hy) at gx, gy start at the row. */
LW_INLINE void faces(int d, long e, long L, const lw_consts *K, const double *restrict c,
                     const double *restrict cn, const double *restrict D,
                     const double *restrict Dn, const double *restrict h,
                     const double *restrict u, const double *restrict v,
                     const double *restrict f, const double *restrict mf,
                     const double *restrict gx, const double *restrict gy,
                     double *restrict X)
{
    const long o = d ? e : 1, r = d ? 0 : 1, n = 1 + d, t = 3 - n;
    const double *restrict q1 = c, *restrict q2 = c + GRAD * L;
    const double *restrict n1 = cn, *restrict n2 = cn + GRAD * L;
    const double *restrict F0 = c + d * GRAD * L, *restrict H0 = cn + d * GRAD * L;
    const double *restrict F1 = F0 + L, *restrict F2 = F0 + 2 * L;
    const double *restrict H1 = H0 + L, *restrict H2 = H0 + 2 * L;
    const double *restrict D0 = D, *restrict D1 = D + L, *restrict D2 = D + 2 * L;
    const double *restrict E0 = Dn, *restrict E1 = Dn + L, *restrict E2 = Dn + 2 * L;
    double *restrict X0 = X, *restrict X1 = X + L, *restrict X2 = X + 2 * L;
    double *restrict M0 = X + 3 * L;
    double *restrict Mn = X + (3 + n) * L, *restrict Mt = X + (3 + t) * L;
    const double cd = d ? K->cy : K->cx, qdt = K->qdt, hdt = K->hdt, hg = K->hg;
    #pragma GCC ivdep
    for (long k = d; k < e - 1; k++) {
        const double a0 = (h[k] + h[k + o]) * 0.5 - (H0[k + r] - F0[k]) * cd
                          - (D0[k] + E0[k + r]) * qdt;
        double a1 = (q1[k] + n1[k + r]) * 0.5 - (H1[k + r] - F1[k]) * cd
                    - (D1[k] + E1[k + r]) * qdt;
        double a2 = (q2[k] + n2[k + r]) * 0.5 - (H2[k + r] - F2[k]) * cd
                    - (D2[k] + E2[k + r]) * qdt;
        const double s = (h[k] + h[k + o]) * 0.5 * hdt;
        const double ua = (u[k] + u[k + o]) * 0.5, va = (v[k] + v[k + o]) * 0.5;
        a1 += (f[k] * va - gx[k]) * s;
        a2 += (mf[k] * ua - gy[k]) * s;
        const double um = a1 / a0, vm = a2 / a0;
        const double N = d ? vm : um, T = d ? um : vm, m = N * a0;
        X0[k] = a0;
        X1[k] = um;
        X2[k] = vm;
        M0[k] = m;
        Mn[k] = m * N + a0 * hg * a0;
        Mt[k] = m * T;
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
    const double *restrict c0 = h, *restrict c1 = c, *restrict c2 = c + GRAD * L;
    const double *restrict X0 = X, *restrict X1 = X + L, *restrict X2 = X + 2 * L;
    const double *restrict Fm0 = X + 3 * L, *restrict Fm1 = X + 4 * L, *restrict Fm2 = X + 5 * L;
    const double dt = K->dt, dtdx = K->dtdx, dtdy = K->dtdy;
    if (Ys == NULL || Yn == NULL) {
        /* the flux of the face off the wall, negated at the north wall */
        const int north = Yn == NULL;
        const double *Y = north ? Ys : Yn;
        const double *restrict G0 = Y + 3 * L, *restrict G1 = Y + 4 * L,
                     *restrict G2 = Y + 5 * L;
        #pragma GCC ivdep
        for (long k = 1; k < e - 1; k++) {
            const double m0 = (X0[k] + X0[k - 1]) * 0.5, m1 = (X1[k] + X1[k - 1]) * 0.5,
                         m2 = (X2[k] + X2[k - 1]) * 0.5, s = m0 * dt;
            const double g0 = north ? -G0[k] : G0[k], g1 = north ? -G1[k] : G1[k],
                         g2 = north ? -G2[k] : G2[k];
            q0[k] = c0[k] - (Fm0[k] - Fm0[k - 1]) * dtdx - g0 * dtdy;
            q1[k] = c1[k] - (Fm1[k] - Fm1[k - 1]) * dtdx - g1 * dtdy
                    + (fc[k] * m2 - gxc[k]) * s;
            q2[k] = c2[k] - (Fm2[k] - Fm2[k - 1]) * dtdx - g2 * dtdy
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

/* The body of the step entries below; exact is set by the AVX-512 entry
 * alone, which divides by two_dx and two_dy with quotient() where both
 * are exact_divisors. */
LW_INLINE int step(const lw_work *w, double dt, double *speed, int exact)
{
    const long ny = w->ny, e = w->e, n = ny * e, L = lw_stride(e);
    const double g = w->g, dx = w->dx, dy = w->dy;
    const lw_consts K = {
        .dt = dt, .hg = 0.5 * g, .two_dx = 2.0 * dx, .two_dy = 2.0 * dy,
        .cx = 0.5 * dt / dx, .cy = 0.5 * dt / dy, .qdt = 0.25 * dt,
        .hdt = 0.5 * dt, .dtdx = dt / dx, .dtdy = dt / dy,
    };
    exact = exact && exact_divisor(K.two_dx) && exact_divisor(K.two_dy);

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
        double *c = cell + r * CELL * L;
        cells(e, L, K.hg, h + r * e, u + r * e, v + r * e, c);
        gradients(0, e, 1, L, K.two_dx, exact, c, c, gx + r * GRAD * L);
    }
    for (long r = 0; r < ny; r++) {
        const long o = r * e;
        const int south = r > 0, north = r < ny - 1;
        const double *c = cell + r % 3 * CELL * L;
        double *cs = cell + (r + 2) % 3 * CELL * L, *cn = cell + (r + 1) % 3 * CELL * L;
        const double *ys = yf + (r + 1) % 2 * FACE * L;
        double *yn = yf + r % 2 * FACE * L;
        /* beyond a wall, the ghost row goes into the cell slot that is
         * free there: slot 2 at row 0, the slot of row r - 2 at row ny - 1 */
        if (!south)
            mirror(e, L, cn, cs);
        if (!north)
            mirror(e, L, cs, cn);
        gradients(1, e, 0, L, K.two_dy, exact, cn, cs, gy);
        faces(0, e, L, &K, c, c, gy, gy, h + o, u + o, v + o, fc + o, mfc + o, gxx + o, gyx + o,
              xf);
        if (north)
            faces(1, e, L, &K, c, cn, gx + r % 2 * GRAD * L, gx + (r + 1) % 2 * GRAD * L,
                  h + o, u + o, v + o, fy + o, mfy + o, gxy + o, gyy + o, yn);
        update(e, L, &K, h + o, c, xf, south ? ys : NULL, north ? yn : NULL,
               fc + o, mfc + o, gxc + o, gyc + o, q0 + o, q1 + o, q2 + o);
        if (r + 2 < ny) {
            double *c2 = cell + (r + 2) % 3 * CELL * L;
            cells(e, L, K.hg, h + o + 2 * e, u + o + 2 * e, v + o + 2 * e, c2);
            gradients(0, e, 1, L, K.two_dx, exact, c2, c2, gx + r % 2 * GRAD * L);
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
    return step(w, dt, speed, 0);
}

/* The fold of the step's tail on its own, for tests: max(s[0], ...,
 * s[n - 1]) for n >= 1, or a NaN, overwriting s. */
double lw_max_or_nan(long n, double *s)
{
    return max_or_nan(n, s);
}

/* The name of the fastest step entry that the CPU (and the OS) runs:
 * each entry's condition names the features of its target attribute. */
const char *lw_entry(void)
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512vl"))
        return "lw_step_avx512";
    if (__builtin_cpu_supports("avx2"))
        return "lw_step_avx2";
#endif
    return "lw_step";
}

#if defined(__x86_64__) || defined(__i386__)
/* lw_step built for AVX2: wider vectors, the same operations in the same
 * order, so the same bits. */
__attribute__((target("avx2")))
int lw_step_avx2(const lw_work *w, double dt, double *speed)
{
    return step(w, dt, speed, 0);
}

__attribute__((target("avx2")))
double lw_max_or_nan_avx2(long n, double *s)
{
    return max_or_nan(n, s);
}

/* lw_step built for AVX-512F/VL, whose gradients divide exactly with
 * FMA: the same bits again. */
__attribute__((target("avx512f,avx512vl")))
int lw_step_avx512(const lw_work *w, double dt, double *speed)
{
    return step(w, dt, speed, 1);
}

__attribute__((target("avx512f,avx512vl")))
double lw_max_or_nan_avx512(long n, double *s)
{
    return max_or_nan(n, s);
}

/* The gradients of lw_step_avx512 on their own, for tests: D = (a - b) /
 * two_d over three rows of e values, lw_stride(e) apart, divided as that
 * entry divides them. */
__attribute__((target("avx512f,avx512vl")))
void lw_gradients_avx512(long e, double two_d, const double *a, const double *b, double *D)
{
    gradients(0, e, 0, lw_stride(e), two_d, exact_divisor(two_d), a, b, D);
}
#endif
