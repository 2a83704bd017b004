/* Ear clipping over every ring of a set in one call.
 *
 * The rule and the arithmetic of repro.geometry.triangulate._clip_ears,
 * term for term: every clip takes the first ear at the lowest ring
 * position -- a strictly convex corner whose closed triangle holds no
 * other remaining vertex, vertices coincident with a corner exempted --
 * and a sweep that finds none drops the first vertex with zero turn.
 * status[v] remembers why v was not an ear (reflex, or the vertex that
 * blocked it), which stays true until a neighbour of v leaves the ring.
 *
 * Every product and difference is one IEEE double operation, as in
 * CPython; the library is built with -ffp-contract=off so that no
 * compiler fuses a multiply and a subtract into one rounding.
 */
#include <stdint.h>
#include <string.h>

#define UNKNOWN (-1)
#define REFLEX (-2)

/* Clip one CCW ring of n >= 3 vertices (xs, ys); write its (prev, ear,
 * next) triples, offset by base, to out.  Returns the number written, or
 * -1 when a sweep finds neither an ear nor a zero-turn vertex. */
static int64_t clip_ring(const double *xs, const double *ys, int64_t n,
                         int64_t base, int64_t *out, int64_t *work)
{
    int64_t *idx = work, *status = work + n, *alive = work + 2 * n;
    int64_t m = n, written = 0;
    for (int64_t i = 0; i < n; i++) {
        idx[i] = i;
        status[i] = UNKNOWN;
        alive[i] = 1;
    }
    while (m > 3) {
        int64_t removed = -1;
        for (int64_t pos = 0; pos < m; pos++) {
            int64_t cur = idx[pos], why = status[cur];
            if (why == REFLEX || (why >= 0 && alive[why]))
                continue;
            int64_t prev = idx[pos == 0 ? m - 1 : pos - 1];
            int64_t next = idx[pos + 1 == m ? 0 : pos + 1];
            double ax = xs[prev], ay = ys[prev];
            double bx = xs[cur], by = ys[cur];
            double cx = xs[next], cy = ys[next];
            double abx = bx - ax, aby = by - ay;
            if (!(abx * (cy - ay) - aby * (cx - ax) > 0)) {
                status[cur] = REFLEX;
                continue;
            }
            double bcx = cx - bx, bcy = cy - by;
            double cax = ax - cx, cay = ay - cy;
            int64_t blocker = -1;
            for (int64_t j = 0; j < m; j++) {
                int64_t k = idx[j];
                if (k == prev || k == cur || k == next)
                    continue;
                double px = xs[k], py = ys[k];
                /* Closed containment, any orientation. */
                double d1 = abx * (py - ay) - aby * (px - ax);
                double d2 = bcx * (py - by) - bcy * (px - bx);
                double d3 = cax * (py - cy) - cay * (px - cx);
                if ((d1 < 0 || d2 < 0 || d3 < 0)
                        && (d1 > 0 || d2 > 0 || d3 > 0))
                    continue;
                /* A vertex exactly coincident with a corner does not
                 * block. */
                if ((px == ax && py == ay) || (px == bx && py == by)
                        || (px == cx && py == cy))
                    continue;
                blocker = k;
                break;
            }
            if (blocker >= 0) {
                status[cur] = blocker;
                continue;
            }
            out[3 * written] = base + prev;
            out[3 * written + 1] = base + cur;
            out[3 * written + 2] = base + next;
            written++;
            removed = pos;
            break;
        }
        if (removed < 0) {
            /* Tolerate collinear runs: drop a vertex with zero turn. */
            for (int64_t pos = 0; pos < m; pos++) {
                int64_t prev = idx[pos == 0 ? m - 1 : pos - 1];
                int64_t cur = idx[pos];
                int64_t next = idx[pos + 1 == m ? 0 : pos + 1];
                double ax = xs[prev], ay = ys[prev];
                double turn = (xs[cur] - ax) * (ys[next] - ay)
                              - (ys[cur] - ay) * (xs[next] - ax);
                if (turn == 0) {
                    removed = pos;
                    break;
                }
            }
            if (removed < 0)
                return -1;
        }
        alive[idx[removed]] = 0;
        status[idx[removed == 0 ? m - 1 : removed - 1]] = UNKNOWN;
        status[idx[removed + 1 == m ? 0 : removed + 1]] = UNKNOWN;
        memmove(idx + removed, idx + removed + 1,
                (size_t)(m - removed - 1) * sizeof *idx);
        m--;
    }
    out[3 * written] = base + idx[0];
    out[3 * written + 1] = base + idx[1];
    out[3 * written + 2] = base + idx[2];
    return written + 1;
}

/* Ring r is vertices starts[r] .. starts[r + 1] - 1 of (xs, ys), CCW,
 * at least 3 of them.  Writes every ring's triples, ring after ring, to
 * triples (room for starts[rings] - 2 * rings rows of 3) and how many
 * each ring gave to counts[r]; work holds 3 * (longest ring) values.
 * Returns -1, or the first ring without an ear (nothing after it is
 * clipped). */
int64_t earclip_rings(const double *xs, const double *ys,
                      const int64_t *starts, int64_t rings,
                      int64_t *triples, int64_t *counts, int64_t *work)
{
    int64_t *out = triples;
    for (int64_t r = 0; r < rings; r++) {
        int64_t lo = starts[r];
        int64_t got = clip_ring(xs + lo, ys + lo, starts[r + 1] - lo, lo,
                                out, work);
        if (got < 0)
            return r;
        counts[r] = got;
        out += 3 * got;
    }
    return -1;
}
