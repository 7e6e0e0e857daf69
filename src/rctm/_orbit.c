/* Orbit loop of the robust chaotic tent map, loaded by rctm.core with ctypes.
 *
 * Bit-identical to chaining the Python reference step (core.rctm_step),
 * which is also the fallback when this file cannot be built: build with
 * -O2 -ffp-contract=off and never with -ffast-math, so every product,
 * difference and quotient rounds once in IEEE-754 binary64.
 *
 * Three statements differ in form from the reference, to keep branches
 * taken at random on a chaotic orbit, and floor's range check, off the chain
 * from one state to the next; all are exact for states in [0, 1]:
 * - the reflection takes min(x, 1 - x) (one minsd): for x >= 1/2, 1 - x is
 *   exact (Sterbenz) and <= x; for x < 1/2, 1 - x rounds to >= 1/2 > x;
 * - on the robust arm the floor is a truncation: mu < 100 and the reflected
 *   state is <= 1/2, so 0 <= t < 50, where truncating equals flooring.
 *   (A state of -0.0, which no key or orbit reaches, would step to -0.0
 *   here and to +0.0 in the reference.)
 * - the region test n1 <= x && x <= n2 is one comparison of two flags,
 *   (n1 <= x) == (x <= n2), so it is one branch, taken only inside the
 *   narrow region, and not a first branch on n1 <= x, taken about half the
 *   time.  Both flags are false only for n2 < x < n1, and every key has
 *   n1 = 1/2 - d <= 1/2 <= 1/2 + d = n2 (region_bounds, rounded).
 *
 * rctm_orbit runs `rows` orbits.  Row r has the parameters keys[5r..5r+4]
 * (mu, n1, n2, s, and tent as 1.0 or 0.0) and starts from state[r]; it
 * discards `skip` iterates, writes the next `n` states to
 * out[r*n..r*n+n-1] and leaves the state that follows them in state[r].
 *
 * Each step of one orbit waits for the previous one, so a single orbit
 * leaves the floating-point units mostly idle.  Rows are therefore stepped
 * four at a time in lockstep, and the last 0-3 rows one at a time.  The four
 * lanes share nothing: each has its own parameters and state, and applies
 * the same step to them, so every row is bit-identical to running it alone.
 */
#include <stdint.h>

typedef struct {
    double mu, n1, n2, s;
    int tent;
} params;

static inline params load(const double *restrict k)
{
    return (params){k[0], k[1], k[2], k[3], (int)k[4]};
}

static inline double step(double x, params k)
{
    double y = 1.0 - x;
    double t = k.mu * (x < y ? x : y);
    if (!k.tent) {
        t -= (double)(int64_t)t;
        if ((k.n1 <= x) == (x <= k.n2))
            t = t > k.s ? 0.0 : t / k.s;
    }
    return t;
}

void rctm_orbit(int64_t rows, const double *restrict keys, double *restrict state,
                int64_t skip, int64_t n, double *restrict out)
{
    int64_t r = 0;
    for (; r + 4 <= rows; r += 4) {
        const params a = load(keys + 5 * r), b = load(keys + 5 * r + 5),
                     c = load(keys + 5 * r + 10), d = load(keys + 5 * r + 15);
        double xa = state[r], xb = state[r + 1], xc = state[r + 2], xd = state[r + 3];
        double *oa = out + r * n, *ob = oa + n, *oc = ob + n, *od = oc + n;
        for (int64_t i = -skip; i < n; i++) {
            if (i >= 0) {
                oa[i] = xa;
                ob[i] = xb;
                oc[i] = xc;
                od[i] = xd;
            }
            xa = step(xa, a);
            xb = step(xb, b);
            xc = step(xc, c);
            xd = step(xd, d);
        }
        state[r] = xa;
        state[r + 1] = xb;
        state[r + 2] = xc;
        state[r + 3] = xd;
    }
    for (; r < rows; r++) {
        const params a = load(keys + 5 * r);
        double xa = state[r];
        double *oa = out + r * n;
        for (int64_t i = -skip; i < n; i++) {
            if (i >= 0)
                oa[i] = xa;
            xa = step(xa, a);
        }
        state[r] = xa;
    }
}
