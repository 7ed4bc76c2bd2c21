"""Independent checks on the PFA ratio below its minimum (acceptance gate 3b).

The ratio E/E_pfa of the parabolic cylinder (R = 1) dips below 1 and
comes back to 1 from below as H/R -> 0.  Gate 3b checks the approach
between H/R = 0.1 and 0.05, and its verdict rests on the computed
ratios there being converged.  This script checks that with evidence
that does not share the error estimates of `energy_per_length`:

1. ladder: the truncation ladder is extended from (100, ..., 800) to
   (200, ..., 1600), and the two extrapolated limits are compared with
   the ladder-800 ``trunc_error``;
2. grid: at the top rung (order 800) the frequency cutoffs are widened
   by e^-2 below and e^+1 above at the same panel width, and then the
   nodes per panel are doubled; ``quad_error`` itself only doubles
   nodes at the lowest rung and never moves the cutoffs;
3. amplitudes: the cylinder amplitudes F_n (both channels) at
   n = 400, 800 and 1600 and the Bateman magnitudes m_n at n = 800 are
   compared with mpmath at the arguments the two gaps use.  The frozen
   fixtures stop at n = 200 (m_n at 400).

It ends with the per-channel ratios next to the derivative-expansion
lines 1 + theta_c H/R that gate 3b is anchored in.

Like ``gen_specfun_fixtures.py`` this is a desk-scale script outside
the test suite, and the only place besides that one that needs mpmath.
Run it from the repository root with

    PYTHONPATH=src python scripts/check_pfa_dip.py

It takes about 13 minutes on one core of a 2-vCPU Xeon.  It exits
nonzero if a check fails: a ladder-1600 limit outside the ladder-800
``trunc_error``, a grid shift of 1e-4 or more in ratio, or an amplitude
more than 1e-8 off relative.
"""

import math
import sys
from dataclasses import replace

import mpmath as mp
import numpy as np

from paracasimir._quad import expmap_grid
from paracasimir.approx import pfa_energy
from paracasimir.energy import (
    default_quadrature,
    energy_per_length,
    extrapolate_numax,
)
from paracasimir.scattering import BoundaryMode, Geometry, parabolic_amplitude_table
from paracasimir.specfun import bateman_m_log

GAPS = (0.1, 0.05)
CHANNELS = ("dirichlet", "neumann")
LADDER = (100, 200, 400, 800, 1600)
# Derivative-expansion slopes of E/E_pfa = 1 + theta H/R for the profile
# h = H + x^2/2R (Fosco, Lombardo & Mazzitelli, PRD 84, 105031 (2011);
# Bimonte, Emig, Jaffe & Kardar, EPL 97, 50001 (2012)).
THETA = {"dirichlet": 4.0 / 9.0,
         "neumann": 4.0 / 9.0 * (1.0 - 30.0 / math.pi ** 2)}
THETA["em"] = 0.5 * (THETA["dirichlet"] + THETA["neumann"])
MU_SCALED = (0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 28.3)
AMPLITUDE_ORDERS = (400, 800, 1600)
BATEMAN_ORDER = 800
BATEMAN_COLUMNS = 8
GRID_LIMIT = 1e-4
RELATIVE_LIMIT = 1e-8


def limit(series):
    """Extrapolated limit and its truncation error, as energy_per_length."""
    lim, fit_err = extrapolate_numax(series)
    return lim, abs(lim - series[-1][1]) + fit_err


def widened(spec):
    """The default grid with cutoffs moved out at unchanged panel width."""
    width = math.log(spec.qmax_scaled / spec.qmin_scaled) / spec.panel_count
    lo, hi = spec.qmin_scaled * math.exp(-2.0), spec.qmax_scaled * math.e
    return replace(spec, qmin_scaled=lo, qmax_scaled=hi,
                   panel_count=round(math.log(hi / lo) / width))


def check_energies():
    """Ladder and grid checks; returns the per-channel ratio table."""
    ok = True
    ratios = {}
    print("ladder and grid checks, R = 1, ratio units (E over the channel's "
          "half of E_pfa)")
    print(f"{'H/R':>5s} {'channel':>9s} {'lim(800)':>10s} {'trunc':>8s} "
          f"{'lim(1600)':>10s} {'shift':>8s} {'cutoffs':>8s} {'nodes':>8s}")
    for h in GAPS:
        geom = Geometry(1.0, h)
        pfa = 0.5 * pfa_energy(h, 1.0)
        spec = widened(default_quadrature(geom))
        for channel in CHANNELS:
            res = energy_per_length(geom, nu_max=LADDER, channel=channel)
            lim800, trunc800 = limit(res.series[:-1])
            lim1600, _ = limit(res.series[1:])
            top = energy_per_length(geom, spec, nu_max=(800,), channel=channel)
            cutoffs = abs(top.value - res.series[-2][1]) / abs(pfa)
            nodes = top.quad_error / abs(pfa)
            shift = abs(lim1600 - lim800) / abs(pfa)
            trunc = trunc800 / abs(pfa)
            ok &= shift <= trunc and max(cutoffs, nodes) < GRID_LIMIT
            ratios[(h, channel)] = (lim800 / pfa, trunc + res.quad_error / abs(pfa))
            print(f"{h:5.2f} {channel:>9s} {lim800 / pfa:10.6f} {trunc:8.1e} "
                  f"{lim1600 / pfa:10.6f} {shift:8.1e} {cutoffs:8.1e} "
                  f"{nodes:8.1e}", flush=True)
    print(f"  shift = |lim(1600) - lim(800)|, must not exceed trunc; cutoffs "
          f"(e^-2 below, e^+1 above) and doubled nodes at order 800 must "
          f"stay below {GRID_LIMIT:g}")
    return ok, ratios


def amplitude_reference(n, mode, mu):
    """F_n from mpmath's D_nu, with derivatives by numerical differentiation."""
    z = mp.mpc(0, mu)
    if mode is BoundaryMode.DIRICHLET:
        num = mp.mpc(0, 1) ** n * mp.pcfd(n, z)
        den = mp.pcfd(-n - 1, mu)
    else:
        num = mp.mpc(0, 1) ** (n + 1) * mp.diff(lambda t: mp.pcfd(n, t), z)
        den = mp.diff(lambda t: mp.pcfd(-n - 1, t), mu)
    return -mp.re(num) / den


def bateman_reference(n, w):
    """m_n(w) from its integral, cross-checked against mpmath's hyperu.

    m_n(w) = (1/pi) Int_0^inf tanh^2n(v/2) sech^2(v/2) exp(-w cosh v) dv,
    integrated over the window where the integrand is within e^-150 of
    its peak at sinh^2 v = 2n/w.  hyperu fails to converge at large w
    for these orders; where it converges the two must agree to 1e-25.
    """
    def phi(v):
        return 2 * n * mp.log(mp.tanh(v / 2)) - w * mp.cosh(v)

    peak = mp.asinh(mp.sqrt(2 * n / w))
    top = phi(peak)
    tiny = mp.mpf("1e-30")
    lo = mp.findroot(lambda v: phi(v) - top + 150, (tiny, peak),
                     solver="bisect") if phi(tiny) < top - 150 else 0
    hi = mp.findroot(lambda v: phi(v) - top + 150, (peak, peak + 50),
                     solver="bisect")
    value = mp.quad(lambda v: mp.exp(phi(v) - top) / mp.cosh(v / 2) ** 2,
                    mp.linspace(lo, hi, 41)) * mp.exp(top) / mp.pi
    try:
        other = (-1) ** n * mp.exp(-w) * mp.hyperu(n + mp.mpf(1) / 2, 0, 2 * w) \
            / mp.gamma(mp.mpf(1) / 2 - n)
    except ValueError:
        return value
    assert abs(other / value - 1) < mp.mpf("1e-25"), (n, w)
    return value


def relative_error(sign, logmag, reference):
    """|computed / reference - 1| for a sign/log pair against an mpf."""
    if sign != mp.sign(reference):
        return math.inf
    return abs(float(mp.expm1(mp.mpf(float(logmag)) - mp.log(abs(reference)))))


@mp.workdps(40)
def check_amplitudes():
    worst = 0.0
    print(f"\nF_n against mpmath, mu0~ in {MU_SCALED}")
    for mode in (BoundaryMode.DIRICHLET, BoundaryMode.NEUMANN):
        errs = {n: [] for n in AMPLITUDE_ORDERS}
        for mu in MU_SCALED:
            # Read each order off the tables the ladders build, whose
            # recurrence is seeded at the top order.
            tables = {top: parabolic_amplitude_table(top, mode, mu)
                      for top in (800, 1600)}
            for n in AMPLITUDE_ORDERS:
                ref = amplitude_reference(n, mode, mp.mpf(mu))
                for top, (sign, logmag) in tables.items():
                    if n <= top:
                        errs[n].append(relative_error(sign[n], logmag[n], ref))
        for n, e in errs.items():
            worst = max(worst, max(e))
            print(f"  {mode.value:>9s} n = {n:4d}: max relative error "
                  f"{max(e):.1e}", flush=True)
    print(f"\nBateman m_{BATEMAN_ORDER} against mpmath on the production "
          f"argument grid u = 2 x d / H")
    for h in GAPS:
        geom = Geometry(1.0, h)
        spec = default_quadrature(geom)
        x, _ = expmap_grid(spec.qmin_scaled, spec.qmax_scaled,
                           spec.panel_count, spec.node_count)
        u = 2.0 * x * geom.d / geom.H
        logm = bateman_m_log(BATEMAN_ORDER, u)
        errs = []
        for j in np.linspace(0, u.size - 1, BATEMAN_COLUMNS).astype(int):
            ref = bateman_reference(BATEMAN_ORDER, mp.mpf(float(u[j])))
            errs.append(relative_error(1.0, logm[BATEMAN_ORDER, j], ref))
        worst = max(worst, max(errs))
        print(f"  H/R = {h}: u in [{u[0]:.3g}, {u[-1]:.3g}], max relative "
              f"error {max(errs):.1e}", flush=True)
    return worst <= RELATIVE_LIMIT


def report_expansion(ratios):
    print("\nratio against the derivative-expansion line 1 + theta H/R")
    print(f"{'channel':>9s} {'theta':>8s} {'H/R':>5s} {'ratio':>9s} "
          f"{'+-':>8s} {'gap':>9s}")
    rows = dict(ratios)
    for h in GAPS:
        (rd, ed), (rn, en) = (rows[(h, c)] for c in CHANNELS)
        rows[(h, "em")] = (0.5 * (rd + rn), 0.5 * (ed + en))
    for channel in CHANNELS + ("em",):
        gaps = []
        for h in GAPS:
            ratio, err = rows[(h, channel)]
            gaps.append(ratio - 1.0 - THETA[channel] * h)
            print(f"{channel:>9s} {THETA[channel]:+8.4f} {h:5.2f} {ratio:9.6f} "
                  f"{err:8.1e} {gaps[-1]:+9.2e}")
        print(f"{'':>9s} gap shrinks by {gaps[0] / gaps[1]:.2f} "
              f"(x^(3/2) would give {2 ** 1.5:.2f})")


def main():
    amplitudes_ok = check_amplitudes()
    energies_ok, ratios = check_energies()
    report_expansion(ratios)
    ok = amplitudes_ok and energies_ok
    print("\nall checks pass" if ok else "\nA CHECK FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
