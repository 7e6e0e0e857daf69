/* Orbit loop of the robust chaotic tent map, loaded by rctm.core with ctypes.
 *
 * Bit-identical to the Python reference step (core.rctm_step / ctm_step):
 * build with -O2 -ffp-contract=off and never with -ffast-math, so every
 * product, difference and quotient rounds once in IEEE-754 binary64.
 *
 * Starting from state x, discards `skip` iterates, writes the next `n`
 * states to out and returns the state that follows them.
 */
#include <math.h>
#include <stdint.h>

double rctm_orbit(double mu, double n1, double n2, double s, int tent,
                  double x, int64_t skip, int64_t n, double *out)
{
    for (int64_t i = -skip; i < n; i++) {
        if (i >= 0)
            out[i] = x;
        double t = x < 0.5 ? mu * x : mu * (1.0 - x);
        if (!tent) {
            t -= floor(t);
            if (n1 <= x && x <= n2)
                t = t > s ? 0.0 : t / s;
        }
        x = t;
    }
    return x;
}
