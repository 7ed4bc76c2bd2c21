"""Check the factored routes on deep truncation ladders: the rank cut at
small gaps and the tilted knife edge near broadside.

At R = 1 and H/R = 0.1, 0.05 and 0.02, on the ladders (400, ..., 3200)
and (800, ..., 6400), this prints for each channel

- the time of one `energy_per_length` call's main ladder, the parts of
  it spent in the rank cut's pivot loops and in its factored
  log-dets (the Grams of the factors and their Cholesky
  factorizations), and the time of its node-doubling check (the
  ladder's lowest rung on twice the frequency nodes, which takes the
  rank cut too);
- the main ladder's pivot loops and steps, and the loops' rows per
  step: the rank cut pivots each run of nodes in one loop over all of
  its blocks, of as many steps as the run's largest rank, one row per
  block and node;
- the smallest, median and largest rank of the rank cut's factors over
  the main ladder's frequency grid (every block that takes the cut);
- the largest |delta g| between `_g_series` and the dense rungs of
  `build_kernel`'s matrix at x = 1e-3, 0.3 and 3, for the rungs up to
  3200 (a dense matrix of 6401 orders would take about 1 GB);

then the same for "em", both modes in one call, whose blocks of the
two modes over one parity's orders share one loop (so its ranks are
the shared ones), with each mode's largest |delta g| from the blocks of
that call; and then E/E_pfa of both channels together, from the
extrapolated values.  Then, at H/R = 0.1, it times the Dirichlet `_g_series` on
the default grid for a ladder of 4 rungs (100, 200, 400, 800) and one
of 20 (100, 200, 300, then 400 to 800 in steps of 25), split the same
way, the median of five alternating calls each: the cost of the rungs
themselves.  At the knife edge tilted by 80, 85 and 88 degrees, on the
ladders (100, ..., 800) and (200, ..., 1600), it then prints for each
channel the same two times, a histogram of the
orders each node's factor keeps after the rung cut over that call's
frequency grid (orders:nodes), and the largest |delta g| against the
dense rungs at the same three nodes.  Run it from the repository root
with

    PYTHONPATH=src python scripts/check_rank_cut.py

It takes about 2 minutes on one core of a 2-vCPU Xeon and peaks at
about 300 MB, most of it the dense 3201-order matrices.
"""

import collections
import math
import statistics
import time

import numpy as np

import paracasimir.energy as energy_module
import paracasimir.roundtrip as roundtrip_module
from paracasimir.approx import pfa_energy
from paracasimir.energy import _g_series, _grid, default_quadrature, energy_per_length
from paracasimir.roundtrip import build_kernel, kernel_blocks, logdet_one_minus
from paracasimir.scattering import BoundaryMode, Geometry

GAPS = (0.1, 0.05, 0.02)
LADDERS = ((400, 800, 1600, 3200), (800, 1600, 3200, 6400))
TILTS = (80.0, 85.0, 88.0)
TILT_LADDERS = ((100, 200, 400, 800), (200, 400, 800, 1600))
NODES = (1e-3, 0.3, 3.0)
RUNG_LADDERS = ((100, 200, 400, 800), (100, 200, 300) + tuple(range(400, 801, 25)))
# Timed per `_g_series` call: the call, its pivot loops, its factored log-dets.
TIMED = ((energy_module, "_g_series"), (roundtrip_module, "_pivoted_factors"),
         (roundtrip_module, "_factor_logdets"))


def factor_shapes(geom, ladder, modes):
    """Shape of each node's factor over the default frequency grid, the
    rank cut's (rank, orders), its rows past the rank being zero, or the
    tilted knife edge's (2U, kept); and the rank cut's pivot loops, as
    (rows, steps) each: one loop per run, of one row per block pivoted
    and node, and of as many steps as the largest rank of its stacks."""
    x, _ = _grid(default_quadrature(geom))
    shapes, loops, pivot = [], [], roundtrip_module._pivoted_factors

    def counted(diag, *args):
        stacks = pivot(diag, *args)
        loops.append((diag.shape[0] * diag.shape[1], max(stack.shape[1] for stack in stacks)))
        return stacks

    roundtrip_module._pivoted_factors = counted
    try:
        for _, blocks in kernel_blocks(geom, x / geom.H, ladder, modes):
            shapes += [(int(np.count_nonzero(np.any(factor != 0.0, axis=1))), factor.shape[1])
                       for _, stack, factored in blocks if factored for factor in stack]
    finally:
        roundtrip_module._pivoted_factors = pivot
    return shapes, loops


def dense_rungs(geom, mode, rungs):
    """{x: log det(1 - N) at each rung} from `build_kernel`'s whole matrix."""
    out = {}
    for x in NODES:
        entries, kept = build_kernel(geom, x / geom.H, rungs[-1], mode)
        out[x] = logdet_one_minus(entries, [int(np.count_nonzero(kept <= o)) for o in rungs])
    return out


def largest_gap(geom, ladder, mode, dense, dense_ladder):
    """max |delta g| over NODES of `_g_series` on ``ladder`` against
    ``dense``, the dense rungs of ``dense_ladder``, over the leading
    rungs of ``ladder`` that ``dense_ladder`` holds."""
    rungs = [o for o in ladder if o in dense_ladder]
    pick = [list(dense_ladder).index(o) for o in rungs]
    return max(float(np.max(np.abs(
        _g_series(geom, np.array([x]), list(ladder), mode.value)[:len(rungs), 0]
        - dense[x][pick]))) for x in NODES)


def largest_gaps_em(geom, ladder, dense, dense_ladder):
    """{mode: max |delta g|} as `largest_gap`, each mode's g summed from
    the blocks of one `kernel_blocks` call for both modes."""
    rungs = [o for o in ladder if o in dense_ladder]
    pick = [list(dense_ladder).index(o) for o in rungs]
    gaps = dict.fromkeys(BoundaryMode, 0.0)
    for x in NODES:
        (_, blocks), = kernel_blocks(geom, np.array([x / geom.H]), list(ladder),
                                     tuple(BoundaryMode))
        per_block = len(blocks) // len(BoundaryMode)
        for m, mode in enumerate(BoundaryMode):
            g = sum(logdet_one_minus(stack, np.searchsorted(idx, rungs, side="right"),
                                     factored=factored)[0]
                    for idx, stack, factored in blocks[m * per_block:(m + 1) * per_block])
            gaps[mode] = max(gaps[mode], float(np.max(np.abs(g - dense[mode][x][pick]))))
    return gaps


def timed(call):
    """call(), and for each `_g_series` call made through the energy
    module while it runs, the seconds [in all, in pivot loops, in
    factored log-dets]."""
    seconds, saved = [], [getattr(module, name) for module, name in TIMED]

    def timing(column, inner):
        def wrapper(*args):
            if column == 0:
                seconds.append([0.0, 0.0, 0.0])
            start = time.perf_counter()
            out = inner(*args)
            seconds[-1][column] += time.perf_counter() - start
            return out
        return wrapper

    for column, ((module, name), inner) in enumerate(zip(TIMED, saved)):
        setattr(module, name, timing(column, inner))
    try:
        return call(), seconds
    finally:
        for (module, name), inner in zip(TIMED, saved):
            setattr(module, name, inner)


def check_gaps():
    print(f"{'H/R':>5s} {'ladder':>11s} {'channel':>9s} {'main/s':>7s} {'pivot/s':>7s} "
          f"{'logdet/s':>8s} {'loops/steps':>11s} "
          f"{'rows/step':>9s} {'check/s':>7s} {'rank min/med/max':>17s} {'max |dg|':>9s} "
          f"{'extrapolated':>14s}")
    for h in GAPS:
        geom = Geometry(1.0, h)
        dense = {mode: dense_rungs(geom, mode, list(LADDERS[0])) for mode in BoundaryMode}
        for ladder in LADDERS:
            total = 0.0
            for channel in [mode.value for mode in BoundaryMode] + ["em"]:
                result, seconds = timed(lambda: energy_per_length(geom, nu_max=ladder,
                                                                  channel=channel))
                modes = tuple(BoundaryMode) if channel == "em" else (BoundaryMode(channel),)
                shapes, loops = factor_shapes(geom, ladder, modes)
                r = [shape[0] for shape in shapes]
                steps = sum(step for _, step in loops)
                if channel == "em":
                    gaps = largest_gaps_em(geom, ladder, dense, LADDERS[0])
                    gap, tail = max(gaps.values()), " ".join(
                        f"{mode.value} {value:.1e}" for mode, value in gaps.items())
                else:
                    total += result.extrapolated
                    gap, tail = largest_gap(geom, ladder, modes[0], dense[modes[0]],
                                            LADDERS[0]), ""
                per_step = sum(rows * step for rows, step in loops) / max(steps, 1)
                print(f"{h:5.2f} {ladder[0]:>5d}-{ladder[-1]:<5d} {channel:>9s} "
                      f"{seconds[0][0]:7.2f} {seconds[0][1]:7.2f} {seconds[0][2]:8.3f} "
                      f"{len(loops):5d}/{steps:<5d} {per_step:9.1f} {seconds[1][0]:7.2f} "
                      f"{min(r):5d}/{statistics.median(r):5.0f}/{max(r):5d} "
                      f"{gap:9.1e} {result.extrapolated:14.8f} {tail}".rstrip(), flush=True)
            print(f"{h:5.2f} {ladder[0]:>5d}-{ladder[-1]:<5d} E/E_pfa = "
                  f"{total / pfa_energy(h, 1.0):.6f}", flush=True)


def check_rungs():
    geom = Geometry(1.0, 0.1)
    x, _ = _grid(default_quadrature(geom))
    seconds = {ladder: [] for ladder in RUNG_LADDERS}
    for _ in range(5):
        for ladder in RUNG_LADDERS:
            seconds[ladder] += timed(lambda: energy_module._g_series(
                geom, x, list(ladder), "dirichlet"))[1]
    print(f"\n{'H/R':>5s} {'rungs':>5s} {'ladder':>11s} {'channel':>9s} {'main/s':>7s} "
          f"{'pivot/s':>7s} {'logdet/s':>8s}")
    for ladder, rows in seconds.items():
        main, pivot, logdet = (statistics.median(column) for column in zip(*rows))
        print(f"{geom.H:5.2f} {len(ladder):5d} {ladder[0]:>5d}-{ladder[-1]:<5d} "
              f"{'dirichlet':>9s} {main:7.3f} {pivot:7.3f} {logdet:8.3f}",
              flush=True)


def check_tilts():
    print(f"\n{'tilt':>5s} {'ladder':>11s} {'channel':>9s} {'main/s':>7s} {'check/s':>7s} "
          f"{'max |dg|':>9s}  orders kept:nodes")
    for deg in TILTS:
        geom = Geometry(0.0, 1.0, math.radians(deg))
        for ladder in TILT_LADDERS:
            for mode in BoundaryMode:
                _, seconds = timed(lambda: energy_per_length(geom, nu_max=ladder,
                                                             channel=mode.value))
                shapes, _ = factor_shapes(geom, ladder, (mode,))
                kept = collections.Counter(shape[1] for shape in shapes)
                gap = largest_gap(geom, ladder, mode, dense_rungs(geom, mode, ladder), ladder)
                histogram = " ".join(f"{rows}:{count}" for rows, count in sorted(kept.items()))
                print(f"{deg:5.1f} {ladder[0]:>5d}-{ladder[-1]:<5d} {mode.value:>9s} "
                      f"{seconds[0][0]:7.2f} {seconds[1][0]:7.2f} {gap:9.1e}  {histogram}",
                      flush=True)


def main() -> int:
    check_gaps()
    check_rungs()
    check_tilts()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
