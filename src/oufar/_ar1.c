/* The AR(1) loop of oufar's samplers (ou_process._ar1), in place on v[0..n-1].
 *
 * v[0] is x0 and v[1..] hold standard normals; each becomes the path value
 * y_i = a y_{i-1} + u_i with u_i = (v[i] s1) s2 + shift, one rounding per
 * operation in this order, from y_0 = 0.0 + x0.  The result has the bits of
 * scipy's lfilter([1], [1, -a]) over w = [x0, u_1, ...]: its delay state
 * after input w_{i-1} is w_{i-1} 0 - y_{i-1} (-a), which is a y_{i-1} except
 * that a zero product takes the sign of w_{i-1} 0.  Adding w_{i-1} 0 to u_i
 * instead gives every sum the same bits and keeps it off the multiply-add
 * chain on y.  Build with -ffp-contract=off: a fused multiply-add rounds once.
 */
#include <stddef.h>

void oufar_ar1(double a, double s1, double s2, double shift, double *v, ptrdiff_t n)
{
    double y = 0.0 + v[0], prev = v[0];
    for (ptrdiff_t i = 1; i < n; i++) {
        double u = v[i] * s1 * s2 + shift;
        y = a * y + (prev * 0.0 + u);
        prev = u;
        v[i] = y;
    }
}
