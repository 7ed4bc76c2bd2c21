"""Casimir interaction of a perfectly conducting parabolic cylinder and a plane.

The electromagnetic energy splits exactly into Dirichlet and Neumann
scalar channels; each channel is a frequency integral of
log det(1 - N(q)) over a round-trip scattering kernel in the parabolic
partial-wave basis.  The package evaluates that formula for any radius
R >= 0 (R = 0 is a half-plane knife edge), separation H > 0, and tilt
|theta| < pi/2, at zero or finite temperature, together with the
proximity-force and edge-correction baselines it is usually compared
against.

Quick start:

    >>> from paracasimir import Geometry, energy_per_length
    >>> res = energy_per_length(Geometry(R=0.0, H=1.0), nu_max=100)
    >>> res.extrapolated        # E H^2/(hbar c L), about -0.0067411
"""

from .specfun import DomainError
from .scattering import BoundaryMode, Geometry
from .translation import AccuracyError
from .roundtrip import PhysicalRegimeError
from .energy import (
    EnergyResult,
    FitRejectedError,
    QuadratureSpec,
    c_theta,
    classical_coefficient,
    default_quadrature,
    energy_per_length,
    extrapolate_numax,
    thermal_energy,
)
from .approx import (
    EdgeFit,
    EdgeLimitWarning,
    edge_coefficient_fit,
    edge_fit_window_sweep,
    edge_pfa_disk,
    parallel_plates,
    pfa_energy,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "DomainError",
    "BoundaryMode",
    "Geometry",
    "AccuracyError",
    "PhysicalRegimeError",
    "FitRejectedError",
    "QuadratureSpec",
    "EnergyResult",
    "default_quadrature",
    "energy_per_length",
    "extrapolate_numax",
    "c_theta",
    "classical_coefficient",
    "thermal_energy",
    "EdgeLimitWarning",
    "EdgeFit",
    "pfa_energy",
    "edge_pfa_disk",
    "parallel_plates",
    "edge_coefficient_fit",
    "edge_fit_window_sweep",
]
