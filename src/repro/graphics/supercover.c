/* The supercover probes of repro.graphics.raster_line over every edge of
 * a set in one call.
 *
 * Each edge a -> b is probed at its endpoints (t = 0 and t = 1) and at
 * every lattice crossing t = (k - a) / d the caller counted, each probe
 * at x = a + t * d reporting the pixels within eps of it on each axis
 * (floor(x - eps), floor(x + eps), all four combinations), in bounds.
 * These are the numpy pass's float64 expressions, one IEEE operation
 * each; the library is built with -ffp-contract=off so that no compiler
 * fuses a multiply and an add into one rounding.  The loops run over
 * the caller's counts, never over the coordinates, so no edge -- NaN,
 * infinite or far off the canvas -- can make one spin.
 */
#include <math.h>
#include <stdint.h>

/* np.maximum: a NaN on either side wins. */
static double maximum(double a, double b)
{
    return (a != a || a >= b) ? a : b;
}

typedef struct {
    int64_t width, height, capacity, written;
    int64_t *keys;
} Sink;

/* The pixels of one probe: returns 0, or -1 when the keys would not
 * fit. */
static int put(Sink *sink, int64_t base, double cx, double cy)
{
    if (!(cx >= 0 && cx < (double)sink->width && cy >= 0
          && cy < (double)sink->height))
        return 0;
    if (sink->written == sink->capacity)
        return -1;
    sink->keys[sink->written++] =
        base + (int64_t)cx * sink->height + (int64_t)cy;
    return 0;
}

static int probe(Sink *sink, int64_t base, double ax, double ay, double dx,
                 double dy, double eps, double t)
{
    double x = ax + t * dx, y = ay + t * dy;
    double fx0 = floor(x - eps), fx1 = floor(x + eps);
    double fy0 = floor(y - eps), fy1 = floor(y + eps);
    if (put(sink, base, fx0, fy0))
        return -1;
    if (fy1 != fy0 && put(sink, base, fx0, fy1))
        return -1;
    if (fx1 != fx0 && put(sink, base, fx1, fy0))
        return -1;
    if (fx1 != fx0 && fy1 != fy0 && put(sink, base, fx1, fy1))
        return -1;
    return 0;
}

/* Write the keys owner * width * height + ix * height + iy of every
 * probed pixel of n edges (a -> b, tagged owner), not deduplicated:
 * xfirst[e] / yfirst[e] is the first lattice line the edge spans on
 * each axis and xcount[e] / ycount[e] how many it spans (0 when it does
 * not move on that axis or an end is not finite).  Returns the number
 * written, or -1 when they would not fit in capacity. */
int64_t supercover_keys(int64_t n, const double *ax, const double *ay,
                        const double *bx, const double *by,
                        const int64_t *owner, const double *xfirst,
                        const int64_t *xcount, const double *yfirst,
                        const int64_t *ycount, int64_t width, int64_t height,
                        int64_t capacity, int64_t *keys)
{
    Sink sink = {width, height, capacity, 0, keys};
    for (int64_t e = 0; e < n; e++) {
        double x = ax[e], y = ay[e];
        double dx = bx[e] - x, dy = by[e] - y;
        double eps = 1e-9 * maximum(maximum(maximum(maximum(1.0, fabs(x)),
                                                    fabs(y)),
                                            fabs(bx[e])),
                                    fabs(by[e]));
        int64_t base = owner[e] * (width * height);
        if (probe(&sink, base, x, y, dx, dy, eps, 0.0)
            || probe(&sink, base, x, y, dx, dy, eps, 1.0))
            return -1;
        for (int64_t j = 0; j < xcount[e]; j++) {
            double t = (xfirst[e] + (double)j - x) / dx;
            if (t >= 0.0 && t <= 1.0
                && probe(&sink, base, x, y, dx, dy, eps, t))
                return -1;
        }
        for (int64_t j = 0; j < ycount[e]; j++) {
            double t = (yfirst[e] + (double)j - y) / dy;
            if (t >= 0.0 && t <= 1.0
                && probe(&sink, base, x, y, dx, dy, eps, t))
                return -1;
        }
    }
    return sink.written;
}
