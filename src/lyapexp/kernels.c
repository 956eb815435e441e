/* Per-step recursions of every Lyapunov engine; see kernels.py.
 *
 * Each loop performs the numpy fallback's operations in the same order,
 * one IEEE rounding per operation.  Built with -ffp-contract=off, so no
 * multiply and add are fused and the two paths agree bit for bit.
 *
 * All (span, width) arrays are row-major; row t is time step t.  Every
 * cell (t, j) reads one uniform u[t, j] and applies its law's quantile
 * map here (struct piece): a finite law's uniform picks a row of
 * (m, d), (m, d) and (m, d, d) atom tables by its m - 1 thresholds; a
 * scalar-driven law's gives the scalar z = a + s u that scales the
 * masked entries of one-row tables.  Each kernel hands d = 1 pieces of
 * either form to a loop on scalars with the general loop's operations.
 */
#include <stddef.h>
#include <stdlib.h>

/* Sum of the products a[i]*b[i], i < n, grouped as numpy's pairwise_sum
 * groups a contiguous reduction: below 8 terms one sequential sum from
 * 0.0; up to 128 terms eight strided accumulators, combined as
 * ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the rest in order; above
 * that, halves split at a multiple of 8. */
static double pairwise_dot(const double *restrict a, const double *restrict b,
                           ptrdiff_t n)
{
    if (n < 8) {
        double res = 0.0;
        for (ptrdiff_t i = 0; i < n; i++) {
            double p = a[i] * b[i];
            res = res + p;
        }
        return res;
    }
    if (n <= 128) {
        double r[8];
        ptrdiff_t i;
        for (int k = 0; k < 8; k++)
            r[k] = a[k] * b[k];
        for (i = 8; i < n - n % 8; i += 8) {
            for (int k = 0; k < 8; k++) {
                double p = a[i + k] * b[i + k];
                r[k] = r[k] + p;
            }
        }
        double res = ((r[0] + r[1]) + (r[2] + r[3]))
                     + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++) {
            double p = a[i] * b[i];
            res = res + p;
        }
        return res;
    }
    ptrdiff_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_dot(a, b, n2) + pairwise_dot(a + n2, b + n2, n - n2);
}

/* (a*b).sum(axis=-1) for one row: numpy adds the pairwise sum to the
 * reduction's identity 0.0, which turns a sum of -0.0 into +0.0. */
static double sum_of_products(const double *restrict a,
                              const double *restrict b, ptrdiff_t d)
{
    return 0.0 + pairwise_dot(a, b, d);
}

/* The blocks of one piece.  A finite law (cpow NULL) passes (m, d),
 * (m, d) and (m, d, d) atom tables and its m - 1 nondecreasing
 * thresholds q: cell (t, j) uses row atom_row(q, m - 1, u[t, j]).  A
 * scalar-driven law passes one-row tables (m = 1), q = (a, s) and the
 * 0/1 masks cpow (d,) and npow (d, d): the cell's scalar is
 * z = a + s * u[t, j], and each entry whose mask is set is multiplied
 * by it.  c and n are scratch rows for the latter. */
struct piece {
    const double *ls, *cs, *ns, *u, *q, *cpow, *npow;
    double *c, *n;
    ptrdiff_t m, d;
};

/* The number of the n nondecreasing thresholds q that are <= u: the row
 * distributions.atom_index gives u.  Bisection with a conditional move
 * in place of a branch, so a random u costs no mispredicted jump: every
 * threshold before base is <= u, and the count lies in
 * [base - q, base - q + len].  A NaN u compares false with every
 * threshold and picks row 0. */
static inline ptrdiff_t atom_row(const double *q, ptrdiff_t n, double u)
{
    if (n == 0)
        return 0;
    const double *base = q;
    ptrdiff_t len = n;
    while (len > 1) {
        ptrdiff_t half = len / 2;
        base += base[half] <= u ? half : 0;
        len -= half;
    }
    return (base - q) + (*base <= u);
}

/* Point l, c, n at the blocks of one cell. */
static void cell_blocks(const struct piece *p, ptrdiff_t cell,
                        const double **l, const double **c,
                        const double **n)
{
    ptrdiff_t d = p->d;
    if (p->cpow == NULL) {
        ptrdiff_t r = atom_row(p->q, p->m - 1, p->u[cell]);
        *l = p->ls + r * d;
        *c = p->cs + r * d;
        *n = p->ns + r * d * d;
        return;
    }
    double zc = p->q[0] + p->q[1] * p->u[cell];
    for (ptrdiff_t i = 0; i < d; i++)
        p->c[i] = p->cpow[i] != 0.0 ? p->cs[i] * zc : p->cs[i];
    for (ptrdiff_t k = 0; k < d * d; k++)
        p->n[k] = p->npow[k] != 0.0 ? p->ns[k] * zc : p->ns[k];
    *l = p->ls;
    *c = p->c;
    *n = p->n;
}

/* Scratch for d entries of the loop and, for a scalar-driven piece, its
 * c and n rows; NULL when no memory could be had. */
static double *scratch(struct piece *p)
{
    ptrdiff_t d = p->d;
    size_t extra = p->cpow != NULL ? (size_t)(d + d * d) : 0;
    double *buf = malloc(((size_t)d + extra) * sizeof *buf);
    if (buf != NULL && extra) {
        p->c = buf + d;
        p->n = buf + 2 * d;
    }
    return buf;
}

/* The d = 1 loops take a piece in one of two forms, each a constant
 * argument of an inlined loop, so no cell tests the form. */
enum form { AFFINE, ATOMS };

/* What a scalar-driven d = 1 piece's cells share, read once so that the
 * loop keeps it in registers: the map (a, s), the one row of 1 x 1
 * tables and the flags cz, nz of its masks. */
struct d1 {
    double a, s, l, c, n;
    int cz, nz;
};

static struct d1 d1_piece(const struct piece *p)
{
    struct d1 k = {0.0, 0.0, 0.0, 0.0, 0.0, 0, 0};
    if (p->cpow != NULL) {
        k.a = p->q[0];
        k.s = p->q[1];
        k.l = p->ls[0];
        k.c = p->cs[0];
        k.n = p->ns[0];
        k.cz = p->cpow[0] != 0.0;
        k.nz = p->npow[0] != 0.0;
    }
    return k;
}

/* The 1 x 1 blocks l, c and n of a cell of a d = 1 piece with uniform
 * u: the one row with z = a + s u applied where cz and nz say, or the
 * atom row u picks. */
static inline void cell_d1(const struct piece *p, const struct d1 *k,
                           enum form form, double u, double *l, double *c,
                           double *n)
{
    if (form == AFFINE) {
        double z = k->a + k->s * u;
        *l = k->l;
        *c = k->cz ? k->c * z : k->c;
        *n = k->nz ? k->n * z : k->n;
    } else {
        ptrdiff_t r = atom_row(p->q, p->m - 1, u);
        *l = p->ls[r];
        *c = p->cs[r];
        *n = p->ns[r];
    }
}

/* The chain at d = 1: the general loop's operations on the cell's
 * 1 x 1 blocks.  sum_of_products(a, b, 1) is 0.0 + (0.0 + a*b), which
 * rounds as 0.0 + a*b. */
static inline void chain_d1(const struct piece *p, const struct d1 k,
                            enum form form, double *restrict x,
                            double *restrict xbuf, double *restrict dbuf,
                            ptrdiff_t span, ptrdiff_t width, double e2)
{
    for (ptrdiff_t t = 0; t < span; t++) {
        const double *ut = p->u + t * width;
        double *dt = dbuf + t * width;
        for (ptrdiff_t j = 0; j < width; j++) {
            double l, c, n;
            cell_d1(p, &k, form, ut[j], &l, &c, &n);
            double num = c + (0.0 + n * x[j]);
            double den = 1.0 + e2 * (0.0 + l * x[j]);
            dt[j] = den;
            x[j] = num / den;
        }
        if (xbuf != NULL)
            for (ptrdiff_t j = 0; j < width; j++)
                xbuf[t * width + j] = x[j];
    }
}

static inline void direct_d1(const struct piece *p, const struct d1 k,
                             enum form form, double *restrict v0,
                             double *restrict w, double *restrict mbuf,
                             ptrdiff_t span, ptrdiff_t width, double eps)
{
    for (ptrdiff_t t = 0; t < span; t++) {
        const double *ut = p->u + t * width;
        double *mt = mbuf + t * width;
        for (ptrdiff_t j = 0; j < width; j++) {
            double l, c, n;
            cell_d1(p, &k, form, ut[j], &l, &c, &n);
            double top = v0[j] + eps * (0.0 + l * w[j]);
            double b = eps * (c * v0[j]) + (0.0 + n * w[j]);
            double m = (top >= b || top != top) ? top : b;
            mt[j] = m;
            v0[j] = top / m;
            w[j] = b / m;
        }
    }
}

/* Vector chain  x' = (C + N x) / (1 + e2 L.x)  on the (width, d) state x,
 * over a piece whose tables have the given number of rows.  Row t of
 * dbuf gets the denominators, and, when xbuf is not NULL, row t of the
 * (span, width, d) xbuf the post-step states.  Returns 0, or -1
 * when no scratch memory could be had. */
int block_chain_steps(const double *restrict ls, const double *restrict cs,
                      const double *restrict ns, const double *restrict u,
                      const double *restrict q, const double *restrict cpow,
                      const double *restrict npow, double *restrict x,
                      double *restrict xbuf, double *restrict dbuf,
                      ptrdiff_t span, ptrdiff_t width, ptrdiff_t rows,
                      ptrdiff_t d, double e2)
{
    struct piece p = {ls, cs, ns, u, q, cpow, npow, NULL, NULL, rows, d};
    if (d == 1) {
        struct d1 k = d1_piece(&p);
        if (cpow != NULL)
            chain_d1(&p, k, AFFINE, x, xbuf, dbuf, span, width, e2);
        else
            chain_d1(&p, k, ATOMS, x, xbuf, dbuf, span, width, e2);
        return 0;
    }
    double *num = scratch(&p);
    if (num == NULL)
        return -1;
    for (ptrdiff_t t = 0; t < span; t++) {
        for (ptrdiff_t j = 0; j < width; j++) {
            ptrdiff_t cell = t * width + j;
            const double *l, *c, *n;
            cell_blocks(&p, cell, &l, &c, &n);
            double *xj = x + j * d;
            for (ptrdiff_t i = 0; i < d; i++) {
                double s = sum_of_products(n + i * d, xj, d);
                num[i] = c[i] + s;
            }
            double den = sum_of_products(l, xj, d);
            den = e2 * den;
            den = 1.0 + den;
            dbuf[cell] = den;
            for (ptrdiff_t i = 0; i < d; i++)
                xj[i] = num[i] / den;
            if (xbuf != NULL)
                for (ptrdiff_t i = 0; i < d; i++)
                    xbuf[cell * d + i] = xj[i];
        }
    }
    free(num);
    return 0;
}

/* Renormalised product of [[1, eps L^T], [eps C, N]] applied to
 * (v0, w), w of shape (width, d).  Row t of mbuf gets the max-norm of
 * the new vector, which is then divided out.  Both maxima propagate NaN
 * like np.max and np.maximum.  Returns 0, or -1 when no scratch memory
 * could be had. */
int block_direct_steps(const double *restrict ls, const double *restrict cs,
                       const double *restrict ns, const double *restrict u,
                       const double *restrict q, const double *restrict cpow,
                       const double *restrict npow, double *restrict v0,
                       double *restrict w, double *restrict mbuf,
                       ptrdiff_t span, ptrdiff_t width, ptrdiff_t rows,
                       ptrdiff_t d, double eps)
{
    struct piece p = {ls, cs, ns, u, q, cpow, npow, NULL, NULL, rows, d};
    if (d == 1) {
        struct d1 k = d1_piece(&p);
        if (cpow != NULL)
            direct_d1(&p, k, AFFINE, v0, w, mbuf, span, width, eps);
        else
            direct_d1(&p, k, ATOMS, v0, w, mbuf, span, width, eps);
        return 0;
    }
    double *bot = scratch(&p);
    if (bot == NULL)
        return -1;
    for (ptrdiff_t t = 0; t < span; t++) {
        for (ptrdiff_t j = 0; j < width; j++) {
            ptrdiff_t cell = t * width + j;
            const double *l, *c, *n;
            cell_blocks(&p, cell, &l, &c, &n);
            double *wj = w + j * d;
            double top = sum_of_products(l, wj, d);
            top = eps * top;
            top = v0[j] + top;
            for (ptrdiff_t i = 0; i < d; i++) {
                double b = c[i] * v0[j];
                b = eps * b;
                bot[i] = b + sum_of_products(n + i * d, wj, d);
            }
            double bmax = bot[0];
            for (ptrdiff_t i = 1; i < d; i++)
                bmax = (bmax >= bot[i] || bmax != bmax) ? bmax : bot[i];
            double m = (top >= bmax || top != top) ? top : bmax;
            mbuf[cell] = m;
            v0[j] = top / m;
            for (ptrdiff_t i = 0; i < d; i++)
                wj[i] = bot[i] / m;
        }
    }
    free(bot);
    return 0;
}
