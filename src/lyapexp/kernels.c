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
 * masked entries of one-row tables.  Each recursion has one loop body,
 * which each kernel instantiates with the form and d as constants: once
 * for d = 1, the scalar engines' case, and once for general d.
 */
#include <stddef.h>
#include <stdlib.h>
#include <string.h>

/* Sum of the products a[i]*b[i], i < n, n >= 8, grouped as numpy's
 * pairwise_sum groups a contiguous reduction: up to 128 terms eight
 * strided accumulators, combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)),
 * then the rest in order; above that, halves split at a multiple of 8. */
static double pairwise_dot(const double *restrict a, const double *restrict b,
                           ptrdiff_t n)
{
    if (n <= 128) {
        double r[8];
        ptrdiff_t i;
        for (int k = 0; k < 8; k++)
            r[k] = a[k] * b[k];
        for (i = 8; i < n - n % 8; i += 8)
            for (int k = 0; k < 8; k++)
                r[k] = r[k] + a[i + k] * b[i + k];
        double res = ((r[0] + r[1]) + (r[2] + r[3]))
                     + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res = res + a[i] * b[i];
        return res;
    }
    ptrdiff_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_dot(a, b, n2) + pairwise_dot(a + n2, b + n2, n - n2);
}

/* (a*b).sum(axis=-1) for one row: numpy adds the pairwise sum to the
 * reduction's identity 0.0, which turns a sum of -0.0 into +0.0.  Below
 * 8 terms numpy sums in order from 0.0; a sum started at +0.0 is never
 * -0.0, so adding it to 0.0 again changes no bit and is left out. */
static inline double sum_of_products(const double *restrict a,
                                     const double *restrict b, ptrdiff_t d)
{
    if (d >= 8)
        return 0.0 + pairwise_dot(a, b, d);
    double res = 0.0;
    for (ptrdiff_t i = 0; i < d; i++)
        res = res + a[i] * b[i];
    return res;
}

/* The blocks of one piece.  A finite law (cpow NULL) passes (m, d),
 * (m, d) and (m, d, d) atom tables and its m - 1 nondecreasing
 * thresholds q: cell (t, j) uses row atom_row(q, m - 1, u[t, j]).  A
 * scalar-driven law passes one-row tables (m = 1), q = (a, s) and the
 * 0/1 masks cpow (d,) and npow (d, d): the cell's scalar is
 * z = a + s * u[t, j], and each entry whose mask is set is multiplied
 * by it. */
struct piece {
    const double *ls, *cs, *ns, *u, *q, *cpow, *npow;
    ptrdiff_t m;
};

/* The number of the n nondecreasing thresholds q that are <= u: the row
 * distributions.pick_atoms gives u.  Bisection with a conditional move
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

/* Point l, c, n at the d-dimensional blocks of the cell with uniform u:
 * the atom row u picks or, for an affine piece, the one row with z
 * applied, formed in the scratch rows crow (d) and nrow (d * d). */
static inline void cell_blocks(const struct piece *p, int affine,
                               ptrdiff_t d, double u, double *crow,
                               double *nrow, const double **l,
                               const double **c, const double **n)
{
    if (!affine) {
        ptrdiff_t r = atom_row(p->q, p->m - 1, u);
        *l = p->ls + r * d;
        *c = p->cs + r * d;
        *n = p->ns + r * d * d;
        return;
    }
    double z = p->q[0] + p->q[1] * u;
    for (ptrdiff_t i = 0; i < d; i++)
        crow[i] = p->cpow[i] != 0.0 ? p->cs[i] * z : p->cs[i];
    for (ptrdiff_t k = 0; k < d * d; k++)
        nrow[k] = p->npow[k] != 0.0 ? p->ns[k] * z : p->ns[k];
    *l = p->ls;
    *c = crow;
    *n = nrow;
}

/* The chain over a piece, with the form and d constant once inlined.
 * The scratch s holds d * (d + 2) values: one row of d, then the c (d)
 * and n (d * d) rows an affine piece forms. */
static inline void chain_loop(const struct piece *p, int affine, ptrdiff_t d,
                              double *restrict s, double *restrict x,
                              double *restrict xbuf, double *restrict dbuf,
                              ptrdiff_t span, ptrdiff_t width, double e2)
{
    double *num = s, *crow = s + d, *nrow = s + 2 * d;
    for (ptrdiff_t t = 0; t < span; t++) {
        const double *ut = p->u + t * width;
        double *dt = dbuf + t * width;
        for (ptrdiff_t j = 0; j < width; j++) {
            const double *l, *c, *n;
            cell_blocks(p, affine, d, ut[j], crow, nrow, &l, &c, &n);
            double *xj = x + j * d;
            for (ptrdiff_t i = 0; i < d; i++)
                num[i] = c[i] + sum_of_products(n + i * d, xj, d);
            double den = 1.0 + e2 * sum_of_products(l, xj, d);
            dt[j] = den;
            for (ptrdiff_t i = 0; i < d; i++)
                xj[i] = num[i] / den;
        }
        if (xbuf != NULL)
            memcpy(xbuf + t * width * d, x, (size_t)(width * d) * sizeof *x);
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
    struct piece p = {ls, cs, ns, u, q, cpow, npow, rows};
    int affine = cpow != NULL;
    /* at d = 1 the scratch is on the stack, where it stays in registers */
    double one[3];
    double *s = d == 1 ? one : malloc((size_t)d * (d + 2) * sizeof *s);
    if (s == NULL)
        return -1;
    if (d == 1 && affine)
        chain_loop(&p, 1, 1, s, x, xbuf, dbuf, span, width, e2);
    else if (d == 1)
        chain_loop(&p, 0, 1, s, x, xbuf, dbuf, span, width, e2);
    else if (affine)
        chain_loop(&p, 1, d, s, x, xbuf, dbuf, span, width, e2);
    else
        chain_loop(&p, 0, d, s, x, xbuf, dbuf, span, width, e2);
    if (s != one)
        free(s);
    return 0;
}

/* The direct product over a piece, with the form and d constant once
 * inlined; the scratch s is as in chain_loop. */
static inline void direct_loop(const struct piece *p, int affine,
                               ptrdiff_t d, double *restrict s,
                               double *restrict v0, double *restrict w,
                               double *restrict mbuf, ptrdiff_t span,
                               ptrdiff_t width, double eps)
{
    double *bot = s, *crow = s + d, *nrow = s + 2 * d;
    for (ptrdiff_t t = 0; t < span; t++) {
        const double *ut = p->u + t * width;
        double *mt = mbuf + t * width;
        for (ptrdiff_t j = 0; j < width; j++) {
            const double *l, *c, *n;
            cell_blocks(p, affine, d, ut[j], crow, nrow, &l, &c, &n);
            double *wj = w + j * d;
            double top = v0[j] + eps * sum_of_products(l, wj, d);
            for (ptrdiff_t i = 0; i < d; i++)
                bot[i] = eps * (c[i] * v0[j])
                         + sum_of_products(n + i * d, wj, d);
            double bmax = bot[0];
            for (ptrdiff_t i = 1; i < d; i++)
                bmax = (bmax > bot[i] || bmax != bmax) ? bmax : bot[i];
            double m = (top > bmax || top != top) ? top : bmax;
            mt[j] = m;
            v0[j] = top / m;
            for (ptrdiff_t i = 0; i < d; i++)
                wj[i] = bot[i] / m;
        }
    }
}

/* Renormalised product of [[1, eps L^T], [eps C, N]] applied to
 * (v0, w), w of shape (width, d).  Row t of mbuf gets the max-norm of
 * the new vector, which is then divided out.  Both maxima propagate NaN
 * like np.max and np.maximum, and of two equal values keep the later,
 * as np.maximum does: of -0.0 and +0.0, the second, so a max-norm of
 * zero has numpy's sign.  numpy 2.4.6's max(axis=1) keeps the later
 * zero too, except at d = 1 (mod 8), d >= 9, where its reduction
 * order differs; that changes no bit here, since no bottom entry is
 * ever -0.0: each adds a sum of products, which starts at +0.0 and so
 * is never -0.0.  Returns 0, or -1 when no scratch memory could be
 * had. */
int block_direct_steps(const double *restrict ls, const double *restrict cs,
                       const double *restrict ns, const double *restrict u,
                       const double *restrict q, const double *restrict cpow,
                       const double *restrict npow, double *restrict v0,
                       double *restrict w, double *restrict mbuf,
                       ptrdiff_t span, ptrdiff_t width, ptrdiff_t rows,
                       ptrdiff_t d, double eps)
{
    struct piece p = {ls, cs, ns, u, q, cpow, npow, rows};
    int affine = cpow != NULL;
    /* at d = 1 the scratch is on the stack, where it stays in registers */
    double one[3];
    double *s = d == 1 ? one : malloc((size_t)d * (d + 2) * sizeof *s);
    if (s == NULL)
        return -1;
    if (d == 1 && affine)
        direct_loop(&p, 1, 1, s, v0, w, mbuf, span, width, eps);
    else if (d == 1)
        direct_loop(&p, 0, 1, s, v0, w, mbuf, span, width, eps);
    else if (affine)
        direct_loop(&p, 1, d, s, v0, w, mbuf, span, width, eps);
    else
        direct_loop(&p, 0, d, s, v0, w, mbuf, span, width, eps);
    if (s != one)
        free(s);
    return 0;
}
