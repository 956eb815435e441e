/* Per-step recursions of every Lyapunov engine, and the Philox uniforms
 * they read; see kernels.py.
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
 * which each kernel instantiates with the form constant and, at d = 1,
 * 2 and 3, d constant too: d = 1 is the scalar engines' case, d = 2 and
 * 3 the block and Ising laws'.  From d = 4 on one general loop runs.
 *
 * The uniforms come from philox_uniforms, which continues numpy's
 * Philox4x64-10 stream (Salmon et al., SC'11) from its state and gives
 * the values numpy's Generator.random gives.  It is integer arithmetic
 * and one exact scaling, so its twin, numpy itself, agrees bit for bit.
 */
#include <stddef.h>
#include <stdint.h>
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
 * and n (d * d) rows an affine piece forms: on the stack up to d = 3,
 * where the constant-d loops keep it in registers, and malloced from
 * d = 4 on. */
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

/* The largest d the loops are compiled for as a constant. */
#define MAX_CONST_D 3

/* loop(p, form, d, ...) with the piece's form as a constant. */
#define WITH_FORM(loop, p, d, ...)                                        \
    ((p)->cpow != NULL ? loop(p, 1, d, __VA_ARGS__)                       \
                       : loop(p, 0, d, __VA_ARGS__))

/* loop(p, form, d, ...) with the form and, at d = 1, 2 and 3 (up to
 * MAX_CONST_D), d as constants, so the compiler unrolls the length-d
 * sums and keeps the blocks in registers; from d = 4 on the general
 * loop runs.  The same operations in the same order either way. */
#define RUN_LOOP(loop, p, d, ...)                                         \
    switch (d) {                                                          \
    case 1: WITH_FORM(loop, p, 1, __VA_ARGS__); break;                    \
    case 2: WITH_FORM(loop, p, 2, __VA_ARGS__); break;                    \
    case 3: WITH_FORM(loop, p, 3, __VA_ARGS__); break;                    \
    default: WITH_FORM(loop, p, d, __VA_ARGS__);                          \
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
    double small[MAX_CONST_D * (MAX_CONST_D + 2)];
    double *s = d <= MAX_CONST_D ? small
                                 : malloc((size_t)d * (d + 2) * sizeof *s);
    if (s == NULL)
        return -1;
    RUN_LOOP(chain_loop, &p, d, s, x, xbuf, dbuf, span, width, e2);
    if (s != small)
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
    double small[MAX_CONST_D * (MAX_CONST_D + 2)];
    double *s = d <= MAX_CONST_D ? small
                                 : malloc((size_t)d * (d + 2) * sizeof *s);
    if (s == NULL)
        return -1;
    RUN_LOOP(direct_loop, &p, d, s, v0, w, mbuf, span, width, eps);
    if (s != small)
        free(s);
    return 0;
}

/* Philox4x64-10 as numpy's philox.h computes it: the round multipliers
 * and the Weyl key increments of Random123. */
#define PHILOX_M0 UINT64_C(0xD2E7470EE14C6C93)
#define PHILOX_M1 UINT64_C(0xCA5A826395121157)
#define PHILOX_W0 UINT64_C(0x9E3779B97F4A7C15)
#define PHILOX_W1 UINT64_C(0xBB67AE8584CAA73B)

/* The low word of a * b, and its high word in *hi. */
static inline uint64_t mulhilo(uint64_t a, uint64_t b, uint64_t *hi)
{
#ifdef __SIZEOF_INT128__
    __uint128_t p = (__uint128_t)a * b;
    *hi = (uint64_t)(p >> 64);
    return (uint64_t)p;
#else
    uint64_t a0 = a & 0xffffffffu, a1 = a >> 32;
    uint64_t b0 = b & 0xffffffffu, b1 = b >> 32;
    uint64_t p01 = a0 * b1, p10 = a1 * b0;
    uint64_t mid = ((a0 * b0) >> 32) + (p01 & 0xffffffffu)
                   + (p10 & 0xffffffffu);
    *hi = a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32);
    return a * b;
#endif
}

/* The next block of four words, as numpy's philox_next makes it: the
 * 256-bit counter ctr (word 0 lowest) is first incremented, with carry,
 * then put through ten rounds, the key bumped before each but the
 * first. */
static inline void philox_block(uint64_t *restrict ctr,
                                const uint64_t *restrict key,
                                uint64_t *restrict block)
{
    if (++ctr[0] == 0 && ++ctr[1] == 0 && ++ctr[2] == 0)
        ++ctr[3];
    uint64_t c0 = ctr[0], c1 = ctr[1], c2 = ctr[2], c3 = ctr[3];
    uint64_t k0 = key[0], k1 = key[1];
    for (int r = 0; r < 10; r++) {
        uint64_t hi0, hi1;
        uint64_t lo0 = mulhilo(PHILOX_M0, c0, &hi0);
        uint64_t lo1 = mulhilo(PHILOX_M1, c2, &hi1);
        c0 = hi1 ^ c1 ^ k0;
        c1 = lo1;
        c2 = hi0 ^ c3 ^ k1;
        c3 = lo0;
        k0 += PHILOX_W0;
        k1 += PHILOX_W1;
    }
    block[0] = c0;
    block[1] = c1;
    block[2] = c2;
    block[3] = c3;
}

/* numpy's next_double: the top 53 bits times 2^-53, both exact. */
static inline double unit_double(uint64_t x)
{
    return (double)(x >> 11) * (1.0 / 9007199254740992.0);
}

/* Fill out[0 .. n) with the next n uniforms of a Philox state, as n
 * calls of numpy's next_double would: the words left in the buffer from
 * position pos first, then fresh blocks.  The state's ten words are the
 * counter (4), the key (2) and the buffer (4); the counter and the
 * buffer are updated in place.  Returns the new buffer position, 4 once
 * a block is used up. */
int philox_uniforms(uint64_t *restrict state, int pos, double *restrict out,
                    ptrdiff_t n)
{
    uint64_t ctr[4], key[2], buf[4];
    memcpy(ctr, state, sizeof ctr);
    memcpy(key, state + 4, sizeof key);
    memcpy(buf, state + 6, sizeof buf);
    ptrdiff_t i = 0;
    for (; pos < 4 && i < n; pos++)
        out[i++] = unit_double(buf[pos]);
    for (; n - i >= 4; i += 4) {
        philox_block(ctr, key, buf);
        for (int k = 0; k < 4; k++)
            out[i + k] = unit_double(buf[k]);
        pos = 4;
    }
    if (i < n) {
        philox_block(ctr, key, buf);
        for (pos = 0; i < n; pos++)
            out[i++] = unit_double(buf[pos]);
    }
    memcpy(state, ctr, sizeof ctr);
    memcpy(state + 6, buf, sizeof buf);
    return pos;
}
