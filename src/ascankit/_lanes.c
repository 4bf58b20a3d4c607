/* The compiled lane kernel of ascankit.rts: kf_filter's forward recursion
 * and rts_smooth's backward pass over the lanes of a time-major n x m
 * workspace, lane j of step k at xs[k * m + j], smoothed in place.  Every
 * lane sees the scalar functions' IEEE operations, on the same operands and
 * in their order, with the unit f and h and the zero gu folded away as in
 * rts._smooth_lanes; so it must be built without -ffast-math and with
 * -ffp-contract=off.  GROUP adjacent lanes go through the recursion
 * together, which the compiler vectorises and which hides the latency of
 * each step's divides.  ps is GROUP * n doubles of scratch for a group's
 * posterior variances; fwd, if not NULL, receives the forward means. */
#include <stddef.h>
#include <string.h>

#define GROUP 8

static inline void group(double *xs, double *ps, const double *q, const double *r,
                         size_t n, size_t m, double *fwd, size_t w)
{
    double x[GROUP], p[GROUP];
    for (size_t l = 0; l < w; l++) {
        x[l] = xs[l] + 0.0; /* the first prior mean: -0.0 becomes +0.0 */
        p[l] = r[l];
    }
    for (size_t k = 0; k < n; k++) {
        double *restrict y = xs + k * m, *restrict pk = ps + k * GROUP;
        for (size_t l = 0; l < w; l++) {
            double prior = p[l] + q[l], denom = prior + r[l];
            p[l] = pk[l] = r[l] * prior / denom;
            x[l] = y[l] = x[l] + prior / denom * (y[l] - x[l]);
        }
    }
    if (fwd)
        for (size_t k = 0; k < n; k++)
            memcpy(fwd + k * m, xs + k * m, w * sizeof *xs);
    for (size_t k = n - 1; k-- > 0;) {
        double *restrict y = xs + k * m;
        const double *restrict next = y + m, *restrict pk = ps + k * GROUP;
        for (size_t l = 0; l < w; l++)
            y[l] = y[l] + pk[l] / (pk[l] + q[l]) * (next[l] - y[l]);
    }
}

void lanes_smooth(double *xs, double *ps, const double *q, const double *r,
                  size_t n, size_t m, double *fwd)
{
    if (n == 0)
        return;
    for (size_t j = 0; j < m; j += GROUP)
        group(xs + j, ps, q + j, r + j, n, m, fwd ? fwd + j : NULL,
              m - j < GROUP ? m - j : GROUP);
}
