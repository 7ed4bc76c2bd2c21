"""Check the outgoing table D_{-n-1}(x) against mpmath at high order.

The frozen fixtures stop at order 200.  The positive-radius ladders read
the table to order 1600, so this script compares `pcf_outgoing_table`
with mpmath for orders up to 1600 on the fixture argument grid and at
x = 0.16, as read off tables built to top orders 800 and 1600 (the seed
of the downward recurrence sits at the top order).  Where mpmath's
``pcfd`` does not converge (large x at high order) the reference is the
integral representation

    D_{-n-1}(x) = e^{-x^2/4} / n! int_0^inf t^n e^{-xt - t^2/2} dt,

integrated by mpmath on panels of the integrand's width about its peak.

Like ``gen_specfun_fixtures.py`` this is a desk-scale script outside the
test suite.  Run it from the repository root with

    PYTHONPATH=src python scripts/check_outgoing_table.py

It takes about 30 s on one core of a 2-vCPU Xeon, and exits
nonzero if any value is more than 1e-12 off relative.
"""

import sys

import mpmath as mp

from paracasimir.specfun import pcf_outgoing_table

# The fixture grid X_OUT of gen_specfun_fixtures.py, plus 0.16.
ARGUMENTS = (0.0, 0.05, 0.1, 0.15, 0.16, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0,
             20.0, 50.0)
ORDERS = (0, 1, 2, 19, 100, 400, 799, 800, 1200, 1600)
TOPS = (800, 1600)
RELATIVE_LIMIT = 1e-12


def reference(n, x):
    """D_{-n-1}(x) from mpmath, or from its integral where pcfd fails."""
    try:
        return mp.pcfd(-n - 1, x)
    except ValueError:
        pass
    peak = 2 * n / (x + mp.sqrt(x * x + 4 * n))
    sigma = 1 / mp.sqrt(n / peak ** 2 + 1)
    top = n * mp.log(peak) - x * peak - peak ** 2 / 2
    points = [0] + [peak + k * sigma for k in range(-12, 40)
                    if peak + k * sigma > 0] + [mp.inf]
    value = mp.quad(lambda t: mp.exp(n * mp.log(t) - x * t - t * t / 2 - top),
                    points)
    return value * mp.exp(top - x * x / 4 - mp.loggamma(n + 1))


@mp.workdps(40)
def main():
    worst = 0.0
    for x in ARGUMENTS:
        errs = {}
        for top in TOPS:
            _, logs = pcf_outgoing_table(top, x)
            for n in ORDERS:
                if n <= top:
                    ref = reference(n, mp.mpf(x))
                    err = abs(float(mp.expm1(mp.mpf(float(logs[n])) - mp.log(ref))))
                    errs[(top, n)] = err
        (top, n), err = max(errs.items(), key=lambda item: item[1])
        worst = max(worst, err)
        print(f"x = {x:5.2f}: max relative error {err:.1e} "
              f"(order {n} of a table to {top})", flush=True)
    ok = worst <= RELATIVE_LIMIT
    print(f"worst {worst:.1e}: " + ("pass" if ok else f"FAIL (limit {RELATIVE_LIMIT:g})"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
