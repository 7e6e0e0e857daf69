/* Orbit loop of the robust chaotic tent map, loaded by rctm.core with ctypes.
 *
 * Bit-identical to chaining the Python reference step (core.rctm_step),
 * which is also the fallback when this file cannot be built: build with
 * -O2 -ffp-contract=off and never with -ffast-math, so every product,
 * difference and quotient rounds once in IEEE-754 binary64.
 *
 * The step differs in form from the reference, to keep branches taken at
 * random on a chaotic orbit, floor's range check and the int conversions off
 * the chain from one state to the next.  Every form is exact for states in
 * [0, 1]:
 * - each row carries its state x and its reflection m = min(x, 1 - x), the
 *   reference's x or 1 - x: for x >= 1/2, 1 - x is exact (Sterbenz) and
 *   <= x; for x < 1/2, 1 - x rounds to >= 1/2 > x.  Where m is computed
 *   from a state, it is one minsd (reflect).
 * - on the robust arm t = mu * m is taken mod 1 by rounding with 2^52:
 *   r = (t + 2^52) - 2^52 is t rounded to an integer, and d = t - r is
 *   exact for 0 <= t < 2^52 (mu < 100 and m <= 1/2 give t < 50): it is a
 *   multiple of t's ulp and at most 1/2 in size.  f = d + (d < 0 ? 1 : 0)
 *   is t - floor(t); d + 1 is exact when d < 0, since then t >= 1/2 and
 *   t - floor(t) is a multiple of 2^-53 in [1/2, 1).
 * - off the scaled branch the next reflection is |d| = min(f, 1 - f)
 *   exactly: for d >= 0, f = d <= 1/2 and 1 - f rounds to >= 1/2; for
 *   d < 0, 1 - f = -d is exact (Sterbenz) and <= 1/2 <= f.  The chain from
 *   one m to the next is then a multiply, an add, two subtractions and an
 *   and (fabs).  Only the scaled branch and the tent arm reflect their
 *   result with a minsd.
 * - the region test n1 <= x && x <= n2 reads x, off the chain, and is one
 *   comparison of two flags, (n1 <= x) == (x <= n2), so it is one branch,
 *   taken only inside the narrow region, and not a first branch on
 *   n1 <= x, taken about half the time.  Both flags are false only for
 *   n2 < x < n1, and every key has n1 = 1/2 - w <= 1/2 <= 1/2 + w = n2
 *   (region_bounds, rounded).
 * The rounding needs round-to-nearest, the only mode Python runs in, and
 * -ffp-contract=off also keeps mu * m + 2^52 from fusing into one FMA (a
 * fused sum would round differently only where t is exactly k + 1/2, and
 * both roundings give f = |d| = 1/2 there).  The select on d's sign must
 * not become a branch, which goes either way half the time: gcc 12 -O2
 * compiles the ternary below to a cmpltsd and an and, but d < 0 ? d + 1 : d
 * to a branch (check gcc -S after editing it).
 * A state of -0.0, which no key or orbit reaches, steps to +0.0 on the
 * robust arm here and to -0.0 in the reference (math.floor(-0.0) is 0).
 *
 * rctm_orbit runs `rows` orbits.  Row r has the parameters keys[5r..5r+4]
 * (mu, n1, n2, s, and tent as 1.0 or 0.0) and starts from state[r]; it
 * discards `skip` iterates, writes the next `n` states to
 * out[r*n..r*n+n-1] and leaves the state that follows them in state[r].
 *
 * Each step of one orbit waits for the previous one, so a single orbit
 * leaves the floating-point units mostly idle.  One loop, lanes, steps L
 * rows in lockstep: L = 4 for each whole group of four rows, L = 1 for each
 * of the 0-3 left over.  The lanes share nothing: each applies the same step
 * to its own parameters and state, so every row is bit-identical to running
 * it alone.  gcc 12 -O2 fully unrolls the loops over the lanes only by the
 * pragma; rolled, the lane arrays stay in memory and take 1.3-1.6x as long.
 */
#include <math.h>
#include <stdint.h>

typedef struct {
    double mu, n1, n2, s;
    int tent;
} params;

static inline params load(const double *restrict k)
{
    return (params){k[0], k[1], k[2], k[3], (int)k[4]};
}

static inline double reflect(double x)
{
    double y = 1.0 - x;
    return x < y ? x : y;
}

/* One step from the state x, given m = reflect(x); sets m to the next state's. */
static inline double step(double x, double *m, params k)
{
    double t = k.mu * *m;
    if (!k.tent) {
        double d = t - ((t + 0x1p52) - 0x1p52);
        t = d + (d < 0.0 ? 1.0 : 0.0);
        if ((k.n1 <= x) != (x <= k.n2)) {
            *m = fabs(d);
            return t;
        }
        t = t > k.s ? 0.0 : t / k.s;
    }
    *m = reflect(t);
    return t;
}

/* rctm_orbit's work for rows 0..L-1 of the arrays given, L <= 4. */
static inline void lanes(int L, const double *restrict keys, double *restrict state,
                         int64_t skip, int64_t n, double *restrict out)
{
    params k[4];
    double x[4], m[4], *o[4];
#pragma GCC unroll 4
    for (int j = 0; j < L; j++) {
        k[j] = load(keys + 5 * j);
        x[j] = state[j];
        m[j] = reflect(x[j]);
        o[j] = out + j * n;
    }
    for (int64_t i = -skip; i < n; i++) {
        if (i >= 0)
#pragma GCC unroll 4
            for (int j = 0; j < L; j++)
                o[j][i] = x[j];
#pragma GCC unroll 4
        for (int j = 0; j < L; j++)
            x[j] = step(x[j], &m[j], k[j]);
    }
#pragma GCC unroll 4
    for (int j = 0; j < L; j++)
        state[j] = x[j];
}

void rctm_orbit(int64_t rows, const double *restrict keys, double *restrict state,
                int64_t skip, int64_t n, double *restrict out)
{
    int64_t r = 0;
    for (; r + 4 <= rows; r += 4)
        lanes(4, keys + 5 * r, state + r, skip, n, out + r * n);
    for (; r < rows; r++)
        lanes(1, keys + 5 * r, state + r, skip, n, out + r * n);
}
