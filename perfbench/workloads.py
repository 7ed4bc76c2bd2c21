"""The benchmark's workloads: inputs drawn from a seed, one evaluation
through the public API, and the check of its result.

Seed 0 runs the canonical inputs, whose values are checked against the
references below with a tolerance of the result's own error budget plus
the reference's.  Other seeds draw inputs of the same cost and are
checked for finiteness, sign, and an error budget below 1e-3 of the
value.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import paracasimir as pc

EDGE_LADDER = (100, 200, 400, 800)
THERMAL_LADDER = (20, 40, 80, 160)
CLASSICAL_NU_MAX = 200
CLASSICAL_GATE = (0.0472, 5e-4)

# The Matsubara sum stops at the first frequency 2 pi n T above the grid's
# upper end x_max = 0.3 e^3.6, so its cost grows like 1/T.  Seeds draw T
# from the band that keeps the canonical 34 nonzero terms:
# 2 pi 34 T < x_max <= 2 pi 35 T.
_X_MAX = 0.3 * math.exp(3.6)
THERMAL_T_BAND = (_X_MAX / (2 * math.pi * 35), _X_MAX / (2 * math.pi * 34))

# Seed-0 values and error budgets (trunc_error + quad_error), measured with
# one BLAS thread at the commit that added this benchmark.
REFERENCES = {
    "edge-tilt85": (0.0068069762073811, 4.111e-7),
    "body-gap01": (-7.1735725078589, 4.960e-4),
    "thermal-knife": (-0.0070191973924246, 2.002e-6),
}


def _read(result):
    """(value, error budget or None) of a float or of a result object."""
    if isinstance(result, (int, float)):
        return float(result), None
    value = getattr(result, "extrapolated", None)
    if value is None:
        value = result.value
    parts = [getattr(result, k) for k in ("trunc_error", "quad_error") if hasattr(result, k)]
    return float(value), (float(sum(parts)) if parts else None)


@dataclass(frozen=True)
class Outcome:
    value: float
    budget: float | None
    detail: str


@dataclass(frozen=True)
class Workload:
    """``mix`` is the calibration mix (calibrate.py): kernel repetitions in
    the proportions the workload's layers took at the seed."""

    name: str
    why: str
    sign: int
    mix: dict

    def inputs(self, seed: int) -> dict:
        """The evaluation's arguments; seed 0 gives the canonical ones."""
        rng = random.Random(seed)
        if self.name == "edge-tilt85":
            deg = 85.0 if seed == 0 else rng.uniform(80.0, 88.0)
            return {"geom": pc.Geometry(0.0, 1.0, math.radians(deg))}
        if self.name == "body-gap01":
            h = 0.1 if seed == 0 else rng.uniform(0.09, 0.11)
            return {"geom": pc.Geometry(1.0, h)}
        if self.name == "classical":
            return {}
        if self.name == "thermal-knife":
            t = 0.05 if seed == 0 else rng.uniform(*THERMAL_T_BAND)
            return {"geom": pc.Geometry(0.0, 1.0), "T_scaled": t}
        raise KeyError(self.name)

    def evaluate(self, inputs: dict, reduced: bool = False, lap=None) -> Outcome:
        """One evaluation through the public API.

        ``reduced`` shrinks the truncation ladders for the self-test; the
        timed runs never set it.  ``lap`` is called between public calls.
        """
        if self.name == "edge-tilt85":
            geom = inputs["geom"]
            ladder = (8, 16, 32, 64) if reduced else EDGE_LADDER
            cos = math.cos(geom.theta)
            total, budget = 0.0, 0.0
            for channel in ("dirichlet", "neumann"):
                if channel == "neumann" and lap is not None:
                    lap()
                value, err = _read(pc.energy_per_length(geom, nu_max=ladder, channel=channel))
                total += -cos * value
                budget += cos * err
            return Outcome(total, budget, f"tilt={math.degrees(geom.theta):.4f}deg c={total:.10f}")
        if self.name == "body-gap01":
            geom = inputs["geom"]
            ladder = (10, 20, 40, 80) if reduced else EDGE_LADDER
            value, err = _read(pc.energy_per_length(geom, nu_max=ladder))
            ratio = value / pc.pfa_energy(geom.H, geom.R)
            return Outcome(value, err, f"H/R={geom.H / geom.R:.5f} E={value:.8f} E/E_pfa={ratio:.6f}")
        if self.name == "classical":
            value, err = _read(pc.classical_coefficient(nu_max=CLASSICAL_NU_MAX))
            return Outcome(value, err, f"C={value:.8f}")
        if self.name == "thermal-knife":
            ladder = (4, 8, 16, 32) if reduced else THERMAL_LADDER
            value, err = _read(pc.thermal_energy(inputs["geom"], inputs["T_scaled"], nu_max=ladder))
            return Outcome(value, err, f"T={inputs['T_scaled']:.6f} E={value:.10f}")
        raise KeyError(self.name)

    def check(self, out: Outcome, seed: int) -> str | None:
        """None if the outcome is correct, else the reason it is not."""
        if not math.isfinite(out.value) or (out.budget is not None and not math.isfinite(out.budget)):
            return "nonfinite value or error budget"
        if out.value * self.sign <= 0.0:
            return f"wrong sign: {out.value!r}"
        if self.name == "classical":
            target, band = CLASSICAL_GATE
            if abs(out.value - target) > band:
                return f"|{out.value:.7f} - {target}| > {band} (gate band)"
            return None
        if seed == 0:
            ref, ref_budget = REFERENCES[self.name]
            tol = (out.budget or 0.0) + ref_budget
            if abs(out.value - ref) > tol:
                return f"|{out.value!r} - {ref!r}| > {tol:.3g} (error budgets)"
            return None
        if out.budget is None or out.budget >= 1e-3 * abs(out.value):
            return f"error budget {out.budget!r} not below 1e-3 of |{out.value!r}|"
        return None


WORKLOADS = {w.name: w for w in (
    Workload("edge-tilt85", "knife edge at 85 deg tilt, ladder to 800, both channels: "
             "tilted translation Gram and large LUs", +1, {"gram": 12, "lu": 3}),
    Workload("body-gap01", "R = 1, H = 0.1, ladder to 800, EM: balanced-gauge assembly "
             "and 801x801 LU factorizations", -1, {"elementwise": 5, "lu_big": 5}),
    Workload("classical", "classical coefficient, nu_max = 200: Miller recurrences "
             "of the Bateman table dominate", +1, {"interp": 9}),
    Workload("thermal-knife", "knife edge at T = 0.05, ladder to 160: Matsubara sum "
             "of many small log-dets", -1,
             {"small_lu": 8, "interp": 3}),
)}
