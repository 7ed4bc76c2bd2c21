"""Check the rank cut on deep truncation ladders at small gaps.

At R = 1 and H/R = 0.1, 0.05 and 0.02, on the ladders (400, ..., 3200)
and (800, ..., 6400), this prints for each channel

- the time of one `energy_per_length` call;
- the smallest, median and largest rank of the rank cut's factors over
  that call's frequency grid (every block that takes the cut);
- the largest |delta g| between `_g_series` and the dense rungs of
  `build_kernel`'s matrix at x = 1e-3, 0.3 and 3, for the rungs up to
  3200 (a dense matrix of 6401 orders would take about 1 GB);

and then E/E_pfa of both channels together, from the extrapolated
values.  Run it from the repository root with

    PYTHONPATH=src python scripts/check_rank_cut.py

It takes about one minute on one core of a 2-vCPU Xeon and peaks at
about 300 MB, most of it the dense 3201-order matrices.
"""

import statistics
import time

import numpy as np

from paracasimir.approx import pfa_energy
from paracasimir.energy import _g_series, _grid, default_quadrature, energy_per_length
from paracasimir.roundtrip import build_kernel, kernel_blocks, logdet_one_minus
from paracasimir.scattering import BoundaryMode, Geometry

GAPS = (0.1, 0.05, 0.02)
LADDERS = ((400, 800, 1600, 3200), (800, 1600, 3200, 6400))
NODES = (1e-3, 0.3, 3.0)
DENSE_TOP = 3200


def ranks(geom, ladder, mode):
    """Rank of every rank-cut block over the default frequency grid."""
    x, _ = _grid(default_quadrature(geom))
    return [stack.shape[-1]
            for _, blocks in kernel_blocks(geom, x / geom.H, ladder, (mode,))
            for idx, stack in blocks if idx is None]


def dense_rungs(geom, mode, rungs):
    """{x: log det(1 - N) at each rung} from `build_kernel`'s whole matrix."""
    out = {}
    for x in NODES:
        entries, kept = build_kernel(geom, x / geom.H, rungs[-1], mode)
        out[x] = logdet_one_minus(entries, [int(np.count_nonzero(kept <= o)) for o in rungs])
    return out


def main() -> int:
    print(f"{'H/R':>5s} {'ladder':>11s} {'channel':>9s} {'time/s':>7s} "
          f"{'rank min/med/max':>17s} {'max |dg|':>9s} {'extrapolated':>14s}")
    for h in GAPS:
        geom = Geometry(1.0, h)
        dense = {}
        for ladder in LADDERS:
            total = 0.0
            rungs = [o for o in ladder if o <= DENSE_TOP]
            for mode in BoundaryMode:
                start = time.perf_counter()
                result = energy_per_length(geom, nu_max=ladder, channel=mode.value)
                seconds = time.perf_counter() - start
                total += result.extrapolated
                r = ranks(geom, ladder, mode)
                if mode not in dense:
                    dense[mode] = dense_rungs(geom, mode, list(LADDERS[0]))
                gap = max(float(np.max(np.abs(
                    _g_series(geom, np.array([x]), list(ladder), mode.value)[:len(rungs), 0]
                    - dense[mode][x][[LADDERS[0].index(o) for o in rungs]])))
                    for x in NODES)
                print(f"{h:5.2f} {ladder[0]:>5d}-{ladder[-1]:<5d} {mode.value:>9s} "
                      f"{seconds:7.2f} {min(r):5d}/{statistics.median(r):5.0f}/{max(r):5d} "
                      f"{gap:9.1e} {result.extrapolated:14.8f}", flush=True)
            print(f"{h:5.2f} {ladder[0]:>5d}-{ladder[-1]:<5d} E/E_pfa = "
                  f"{total / pfa_energy(h, 1.0):.6f}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
