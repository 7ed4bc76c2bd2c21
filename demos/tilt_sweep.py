"""Tilting the half plane: the coefficient c(theta) and its edge fit.

For a tilted half plane the energy is E/(hbar c L) = -c(theta) cos(theta)
/ H^2 with H the distance of the plane to the edge.  c grows gently from
its perpendicular value toward pi^2/1440 at the parallel limit; close to
that limit it is linear in (theta - pi/2), and the slope is the "edge
coefficient" extracted here together with its window sensitivity.
"""

import math

from paracasimir.approx import edge_coefficient_fit, edge_fit_window_sweep
from paracasimir.energy import c_theta

SWEEP_DEG = (0.0, 15.0, 30.0, 45.0, 60.0, 75.0, 90.0)
FIT_DEG = (80.0, 82.5, 85.0, 87.0, 88.0)
FIT_LADDER = (50, 100, 200, 400)


def main():
    print("Tilt coefficient across the full range (nu_max ladder to 200):")
    for deg in SWEEP_DEG:
        value = c_theta(math.radians(deg), nu_max=(25, 50, 100, 200)).extrapolated
        print(f"  theta = {deg:5.1f} deg:  c = {value:.7f}")
    print(f"  parallel limit pi^2/1440 = {math.pi ** 2 / 1440:.7f}")

    print("\nNear-broadside samples for the edge fit (deeper ladder):")
    samples = []
    for deg in FIT_DEG:
        value = c_theta(math.radians(deg), nu_max=FIT_LADDER).extrapolated
        samples.append((math.radians(deg), value))
        print(f"  theta = {deg:5.1f} deg:  c = {value:.7f}")

    fit = edge_coefficient_fit(samples)
    print(f"\nLinear fit c = a + (theta - pi/2) * b on "
          f"[{math.degrees(fit.fit_window[0]):.0f}, "
          f"{math.degrees(fit.fit_window[1]):.0f}] deg:")
    print(f"  intercept a = {fit.c_parallel_half:.7f} "
          f"(pi^2/1440 = {math.pi ** 2 / 1440:.7f})")
    print(f"  slope     b = {fit.c_edge:+.6f}")
    print(f"  residual    = {fit.residual:.1e}")

    print("\nWindow sensitivity of the slope:")
    for window_fit in edge_fit_window_sweep(samples):
        lo, hi = (math.degrees(v) for v in window_fit.fit_window)
        print(f"  [{lo:5.1f}, {hi:5.1f}] deg -> b = {window_fit.c_edge:+.6f}")


if __name__ == "__main__":
    main()
