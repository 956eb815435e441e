/* Per-step recursions of the scalar Lyapunov engines; see kernels.py.
 *
 * Each loop performs the numpy fallback's operations in the same order,
 * one IEEE rounding per operation.  Built with -ffp-contract=off, so no
 * multiply and add are fused and the two paths agree bit for bit.
 *
 * All (span, width) arrays are row-major; row t is time step t.
 */
#include <stddef.h>

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
