/* The row scan of repro.graphics.raster_batch.rasterize_triangles over a
 * whole triangle set in one call.
 *
 * Every row of a triangle's clipped bounding box gets the column
 * interval [lo, hi] where all three biased edge functions are >= 0, from
 * the same int64 values the numpy pass computes: the row's E + bias at
 * column 0 is a, one pixel right subtracts b = dy * SUBPIXEL_SCALE, and
 * b > 0 bounds hi by floor(a / b), b < 0 bounds lo by -floor(a / -b),
 * b == 0 empties the row when a < 0.  C's '/' truncates, so the floor is
 * explicit.  numpy's int64 arithmetic wraps; the library is built with
 * -fwrapv so that C's does too, and every sum and product here is the
 * numpy pass's value modulo 2^64.
 */
#include <stdint.h>

#define SCALE 256 /* SUBPIXEL_SCALE */
#define HALF 128  /* SUBPIXEL_SCALE / 2 */

/* floor(a / b) for any b other than 0 and -1 (b is a multiple of
 * SCALE here, so neither occurs). */
static int64_t floor_div(int64_t a, int64_t b)
{
    int64_t q = a / b, r = a % b;
    return (r != 0 && ((r < 0) != (b < 0))) ? q - 1 : q;
}

/* Write the covered rows of n triangles: the per-triangle arrays of
 * setup_triangles (fx, fy, dx, dy, bias are (n, 3), row-major), the
 * viewport width, and room for capacity rows (the sum of h).  Rows go
 * out triangle-major and bottom-up, empty rows dropped; counts[t] is
 * triangle t's fragment count.  Returns the number of rows written, or
 * -1 when they would not fit. */
int64_t scan_triangles(int64_t n, const int64_t *fx, const int64_t *fy,
                       const int64_t *x0, const int64_t *y0,
                       const int64_t *w, const int64_t *h,
                       const int64_t *dx, const int64_t *dy,
                       const int64_t *bias, int64_t width, int64_t capacity,
                       int64_t *row_tri, int64_t *row_first,
                       int64_t *row_len, int64_t *counts)
{
    int64_t rows = 0;
    for (int64_t t = 0; t < n; t++) {
        const int64_t *tfx = fx + 3 * t, *tfy = fy + 3 * t;
        const int64_t *tdx = dx + 3 * t, *tdy = dy + 3 * t;
        const int64_t *tbias = bias + 3 * t;
        int64_t ccx0 = x0[t] * SCALE + HALF, ccy0 = y0[t] * SCALE + HALF;
        int64_t a[3], step[3], b[3], count = 0;
        for (int e = 0; e < 3; e++) {
            a[e] = tdx[e] * (ccy0 - tfy[e]) - tdy[e] * (ccx0 - tfx[e])
                   + tbias[e];
            step[e] = tdx[e] * SCALE;
            b[e] = tdy[e] * SCALE;
        }
        for (int64_t ly = 0; ly < h[t]; ly++) {
            int64_t lo = 0, hi = w[t] - 1;
            for (int e = 0; e < 3; e++) {
                if (b[e] > 0) {
                    int64_t q = floor_div(a[e], b[e]);
                    if (q < hi)
                        hi = q;
                } else if (b[e] < 0) {
                    int64_t q = -floor_div(a[e], -b[e]);
                    if (q > lo)
                        lo = q;
                } else if (a[e] < 0) {
                    hi = -1;
                }
                a[e] += step[e];
            }
            int64_t seg = hi - lo + 1;
            if (seg <= 0)
                continue;
            if (rows == capacity)
                return -1;
            row_tri[rows] = t;
            row_first[rows] = (y0[t] + ly) * width + x0[t] + lo;
            row_len[rows] = seg;
            rows++;
            count += seg;
        }
        counts[t] = count;
    }
    return rows;
}
