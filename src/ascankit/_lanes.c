/* The compiled lane kernel of ascankit.rts: kf_filter's forward recursion
 * and rts_smooth's backward pass over m lanes of n samples.  Lane j reads
 * its samples from its own row, rows[j], which other lanes may share, and
 * writes its smoothed means to row j of the trace-major m x n out, and its
 * forward means to row j of fwd if fwd is not NULL.  GROUP lanes at a time
 * are copied into a time-major scratch, lane l of step k at xs[k * GROUP + l],
 * and go through the recursion together there, which the compiler vectorises
 * and which hides the latency of each step's divides.  ws is 2 * GROUP * n
 * doubles: that scratch, then the group's posterior variances.  Every lane
 * sees the scalar functions' IEEE operations, on the same operands and in
 * their order, with the unit f and h and the zero gu folded away as in
 * rts._smooth_lanes; so it must be built without -ffast-math and with
 * -ffp-contract=off. */
#include <stddef.h>

#define GROUP 8

static void scatter(double *rows, const double *xs, size_t n, size_t w)
{
    for (size_t k = 0; k < n; k++)
        for (size_t l = 0; l < w; l++)
            rows[l * n + k] = xs[k * GROUP + l];
}

static inline void group(double *xs, double *ps, const double *q, const double *r,
                         size_t n, double *fwd, size_t w)
{
    double x[GROUP], p[GROUP];
    for (size_t l = 0; l < w; l++) {
        x[l] = xs[l] + 0.0; /* the first prior mean: -0.0 becomes +0.0 */
        p[l] = r[l];
    }
    for (size_t k = 0; k < n; k++) {
        double *restrict y = xs + k * GROUP, *restrict pk = ps + k * GROUP;
        for (size_t l = 0; l < w; l++) {
            double prior = p[l] + q[l], denom = prior + r[l];
            p[l] = pk[l] = r[l] * prior / denom;
            x[l] = y[l] = x[l] + prior / denom * (y[l] - x[l]);
        }
    }
    if (fwd)
        scatter(fwd, xs, n, w);
    for (size_t k = n - 1; k-- > 0;) {
        double *restrict y = xs + k * GROUP;
        const double *restrict next = y + GROUP, *restrict pk = ps + k * GROUP;
        for (size_t l = 0; l < w; l++)
            y[l] = y[l] + pk[l] / (pk[l] + q[l]) * (next[l] - y[l]);
    }
}

void lanes_smooth(const double *const *rows, double *out, double *fwd, double *ws,
                  const double *q, const double *r, size_t n, size_t m)
{
    if (n == 0)
        return;
    for (size_t j = 0; j < m; j += GROUP) {
        size_t w = m - j < GROUP ? m - j : GROUP;
        for (size_t k = 0; k < n; k++)
            for (size_t l = 0; l < w; l++)
                ws[k * GROUP + l] = rows[j + l][k];
        group(ws, ws + GROUP * n, q + j, r + j, n, fwd ? fwd + j * n : NULL, w);
        scatter(out + j * n, ws, n, w);
    }
}
