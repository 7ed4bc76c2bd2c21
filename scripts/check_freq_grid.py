"""Check the default frequency grid against a finer one.

Every energy is a frequency integral over Gauss-Legendre panels uniform
in ln x (`QuadratureSpec`).  The result's own ``quad_error`` doubles the
nodes at the lowest rung of the ladder only, so it says nothing direct
about the top rung at order 800.  This script evaluates, on the
geometries of the acceptance gates and the benchmark's seed-0 inputs,

- the default grid (`default_quadrature`),
- a reference with 36 panels of 20 nodes, on the same cutoffs,

and prints |top rung - reference top rung| and |extrapolated -
reference extrapolated| as ratios to the default grid's own error
budget, trunc_error + quad_error.  The classical coefficient has
a grid of its own and is not checked here.  The thermal energy's n = 0
term uses the default grid, and its terms n >= 1 read g from a table in
ln x whose panels are half as wide as the grid's, so the reference
refines the table too.

Run it from the repository root with

    PYTHONPATH=src python scripts/check_freq_grid.py

It takes about two minutes on one core of a 2-vCPU Xeon, and exits
nonzero if any ratio exceeds 1e-3.
"""

import math
import sys
from dataclasses import replace

from paracasimir.energy import default_quadrature, energy_per_length, thermal_energy
from paracasimir.scattering import Geometry

LIMIT = 1e-3
KNIFE_LADDER = (20, 40, 80, 160)
DEEP_LADDER = (100, 200, 400, 800)
EDGE_ANGLES_DEG = (80.0, 82.5, 85.0, 87.0, 88.0)


def cases():
    """(label, geometry, evaluate(spec) -> list of results to sum)."""
    knife = Geometry(0.0, 1.0)

    def energy(geom, ladder, channels):
        return lambda spec: [energy_per_length(geom, spec, ladder, c) for c in channels]

    for channel in ("em", "dirichlet"):
        yield f"knife 0deg {channel}", knife, energy(knife, KNIFE_LADDER, [channel])
    for h, ladder, channels in ((0.4, (50, 100, 200, 400), ["em"]),
                                (0.25, (25, 50, 100, 200), ["em"]),
                                (0.1, DEEP_LADDER, ["dirichlet"]),
                                (0.1, DEEP_LADDER, ["neumann"]),
                                (0.05, DEEP_LADDER, ["dirichlet"]),
                                (0.05, DEEP_LADDER, ["neumann"])):
        geom = Geometry(1.0, h)
        yield f"body H/R={h} {channels[0]}", geom, energy(geom, ladder, channels)
    for deg in EDGE_ANGLES_DEG:
        geom = Geometry(0.0, 1.0, math.radians(deg))
        for channel in ("dirichlet", "neumann"):
            yield f"knife {deg}deg {channel}", geom, energy(geom, DEEP_LADDER, [channel])
    tilted = Geometry(1.0, 1.0, 0.3)
    yield "body H=1 0.3rad em", tilted, energy(tilted, KNIFE_LADDER, ["em"])
    edge = Geometry(0.0, 1.0, math.radians(85.0))
    yield ("bench edge-tilt85", edge,
           energy(edge, DEEP_LADDER, ["dirichlet", "neumann"]))
    gap = Geometry(1.0, 0.1)
    yield "bench body-gap01", gap, energy(gap, DEEP_LADDER, ["em"])
    yield ("bench thermal-knife", knife,
           lambda spec: [thermal_energy(knife, 0.05, KNIFE_LADDER, spec)])


def summed(results):
    """Top rung, extrapolated value and error budget of a sum of results."""
    return (sum(r.value for r in results), sum(r.extrapolated for r in results),
            sum(r.trunc_error + r.quad_error for r in results))


def main() -> int:
    worst = 0.0
    print(f"{'case':<24s} {'grid':>6s} {'top rung':>22s} {'extrapolated':>22s} "
          f"{'budget':>9s} {'top/bud':>9s} {'ext/bud':>9s}")
    for label, geom, evaluate in cases():
        spec = default_quadrature(geom)
        ref_top, ref_ext, ref_budget = summed(evaluate(replace(
            spec, panel_count=36, node_count=2 * spec.node_count)))
        print(f"{label:<24s} {'ref':>6s} {ref_top:22.15e} {ref_ext:22.15e} "
              f"{ref_budget:9.2e}")
        top, ext, budget = summed(evaluate(spec))
        ratios = abs(top - ref_top) / budget, abs(ext - ref_ext) / budget
        worst = max(worst, *ratios)
        name = f"{spec.panel_count}x{spec.node_count}"
        print(f"{'':<24s} {name:>6s} {top:22.15e} {ext:22.15e} {budget:9.2e} "
              f"{ratios[0]:9.2e} {ratios[1]:9.2e}", flush=True)
    print(f"largest ratio {worst:.2e} (limit {LIMIT:.0e})")
    return 0 if worst <= LIMIT else 1


if __name__ == "__main__":
    sys.exit(main())
