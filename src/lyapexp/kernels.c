/* Per-step recursions of the Lyapunov engines; see kernels.py.
 *
 * Each loop performs the numpy fallback's operations in the same order,
 * one IEEE rounding per operation.  Built with -ffp-contract=off, so no
 * multiply and add are fused and the two paths agree bit for bit.
 *
 * All (span, width) arrays are row-major; row t is time step t.  The
 * block loops read the d-vectors and d x d matrices of cell (t, j) from
 * row idx[t, j] of (m, d), (m, d) and (m, d, d) atom tables, or form
 * them from one-row tables and the cell's scalar z[t, j] (struct piece).
 */
#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>

/* Invariant chain  x' = (z + z*x) / (1 + e2*x).  Row t of dbuf gets the
 * denominator (the step's growth factor), row t of xbuf the post-step
 * state.  x holds the state before the first row and after the last. */
void chain_steps(const double *restrict z, double *restrict x,
                 double *restrict xbuf, double *restrict dbuf,
                 ptrdiff_t span, ptrdiff_t width, double e2)
{
    for (ptrdiff_t t = 0; t < span; t++) {
        const double *restrict zt = z + t * width;
        double *restrict xt = xbuf + t * width;
        double *restrict dt = dbuf + t * width;
        for (ptrdiff_t j = 0; j < width; j++) {
            double num = zt[j] * x[j];
            num = zt[j] + num;
            double den = e2 * x[j];
            den = 1.0 + den;
            dt[j] = den;
            x[j] = xt[j] = num / den;
        }
    }
}

/* Renormalised product of [[1, eps], [eps z, z]] applied to (v0, v1).
 * Row t of mbuf gets the max-norm of the new vector, which is then
 * divided out.  The maximum propagates NaN like np.maximum. */
void direct_steps(const double *restrict z, double *restrict v0,
                  double *restrict v1, double *restrict mbuf,
                  ptrdiff_t span, ptrdiff_t width, double eps)
{
    for (ptrdiff_t t = 0; t < span; t++) {
        const double *restrict zt = z + t * width;
        double *restrict mt = mbuf + t * width;
        for (ptrdiff_t j = 0; j < width; j++) {
            double w0 = eps * v1[j];
            w0 = v0[j] + w0;
            double w1a = zt[j] * v0[j];
            w1a = eps * w1a;
            double w1b = zt[j] * v1[j];
            w1b = w1a + w1b;
            double m = (w0 >= w1b || w0 != w0) ? w0 : w1b;
            mt[j] = m;
            v0[j] = w0 / m;
            v1[j] = w1b / m;
        }
    }
}

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

/* The blocks of one piece: rows idx[cell] of (m, d), (m, d) and
 * (m, d, d) atom tables, or, when idx is NULL, the one-row tables with
 * each entry whose 0/1 mask (cpow (d,), npow (d, d)) is set multiplied
 * by the cell's scalar z[cell].  c and n are scratch rows for the
 * latter. */
struct piece {
    const double *ls, *cs, *ns;
    const int64_t *idx;
    const double *z, *cpow, *npow;
    double *c, *n;
    ptrdiff_t d;
};

/* Point l, c, n at the blocks of one cell. */
static void cell_blocks(const struct piece *p, ptrdiff_t cell,
                        const double **l, const double **c,
                        const double **n)
{
    ptrdiff_t d = p->d;
    if (p->idx != NULL) {
        ptrdiff_t r = (ptrdiff_t)p->idx[cell];
        *l = p->ls + r * d;
        *c = p->cs + r * d;
        *n = p->ns + r * d * d;
        return;
    }
    double zc = p->z[cell];
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
    size_t extra = p->idx == NULL ? (size_t)(d + d * d) : 0;
    double *buf = malloc(((size_t)d + extra) * sizeof *buf);
    if (buf != NULL && extra) {
        p->c = buf + d;
        p->n = buf + 2 * d;
    }
    return buf;
}

/* Vector chain  x' = (C + N x) / (1 + e2 L.x)  on the (width, d) state x.
 * Row t of dbuf gets the denominators, and, when xbuf is not NULL, row t
 * of the (span, width, d) xbuf the post-step states.  Returns 0, or -1
 * when no scratch memory could be had. */
int block_chain_steps(const double *restrict ls, const double *restrict cs,
                      const double *restrict ns, const int64_t *restrict idx,
                      const double *restrict z, const double *restrict cpow,
                      const double *restrict npow, double *restrict x,
                      double *restrict xbuf, double *restrict dbuf,
                      ptrdiff_t span, ptrdiff_t width, ptrdiff_t d, double e2)
{
    struct piece p = {ls, cs, ns, idx, z, cpow, npow, NULL, NULL, d};
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
                       const double *restrict ns, const int64_t *restrict idx,
                       const double *restrict z, const double *restrict cpow,
                       const double *restrict npow, double *restrict v0,
                       double *restrict w, double *restrict mbuf,
                       ptrdiff_t span, ptrdiff_t width, ptrdiff_t d,
                       double eps)
{
    struct piece p = {ls, cs, ns, idx, z, cpow, npow, NULL, NULL, d};
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
