/* Orbit loop of the robust chaotic tent map, loaded by rctm.core with ctypes.
 *
 * Bit-identical to the Python reference step (core.rctm_step / ctm_step):
 * build with -O2 -ffp-contract=off and never with -ffast-math, so every
 * product, difference and quotient rounds once in IEEE-754 binary64.
 *
 * Two statements differ in form from the reference, to keep a branch (taken
 * at random on a chaotic orbit) and floor's range check off the chain from
 * one state to the next; both are exact for states in [0, 1]:
 * - the reflection takes min(x, 1 - x) (one minsd): for x >= 1/2, 1 - x is
 *   exact (Sterbenz) and <= x; for x < 1/2, 1 - x rounds to >= 1/2 > x;
 * - on the robust arm the floor is a truncation: mu < 100 and the reflected
 *   state is <= 1/2, so 0 <= t < 50, where truncating equals flooring.
 *   (A state of -0.0, which no key or orbit reaches, would step to -0.0
 *   here and to +0.0 in the reference.)
 *
 * Starting from state x, discards `skip` iterates, writes the next `n`
 * states to out and returns the state that follows them.
 */
#include <stdint.h>

double rctm_orbit(double mu, double n1, double n2, double s, int tent,
                  double x, int64_t skip, int64_t n, double *out)
{
    for (int64_t i = -skip; i < n; i++) {
        if (i >= 0)
            out[i] = x;
        double y = 1.0 - x;
        double t = mu * (x < y ? x : y);
        if (!tent) {
            t -= (double)(int64_t)t;
            if (n1 <= x && x <= n2)
                t = t > s ? 0.0 : t / s;
        }
        x = t;
    }
    return x;
}
