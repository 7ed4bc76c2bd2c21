"""Closed-form baselines and the near-broadside edge fit.

The proximity force approximation (PFA) integrates the parallel-plate
energy density over the local separation.  For the parabolic cylinder
above a plane it gives

    E_pfa / (hbar c L) = -(pi^3 / (960 sqrt 2)) sqrt(R / H^5),

which also covers a circular cylinder of the same radius R (only the
quadratic expansion of the surface about its lowest point enters).  The
same construction applied to the rim of a thin disk standing
perpendicular to the plane, with the knife-edge coefficient standing in
for the parallel-plate one, is `edge_pfa_disk`; it scales as H^(-3/2)
and so dominates the vanishing PFA of any zero-thickness structure.

`edge_coefficient_fit` extracts the linear behavior
c(theta) ~ c_parallel/2 + (theta - pi/2) c_edge of the tilt coefficient
near the broadside limit.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._quad import panel_grid
from .specfun import DomainError

__all__ = [
    "EdgeLimitWarning",
    "EdgeFit",
    "pfa_energy",
    "edge_pfa_disk",
    "parallel_plates",
    "edge_coefficient_fit",
    "edge_fit_window_sweep",
]


class EdgeLimitWarning(UserWarning):
    """The PFA has no content for a zero-thickness edge.

    Emitted when a proximity-force value degenerates to zero because
    the structure has no area facing the plane; the H^(-3/2) edge
    contribution is then the leading term.
    """


@dataclass(frozen=True)
class EdgeFit:
    """Linear fit of the tilt coefficient near the broadside limit.

    ``c_parallel_half`` is the intercept at theta = pi/2 (target
    pi^2/1440) and ``c_edge`` the slope against theta - pi/2.
    ``residual`` is the largest absolute deviation of the fit from its
    input samples inside ``fit_window``.
    """

    c_parallel_half: float
    c_edge: float
    fit_window: tuple
    residual: float


def parallel_plates(H: float) -> float:
    """Parallel-plate energy per unit area, -pi^2/(720 H^3)."""
    if not 0 < H < math.inf:
        raise DomainError("H must be finite and positive")
    return -math.pi ** 2 / (720.0 * H ** 3)


def pfa_energy(H: float, R: float) -> float:
    """Proximity force approximation of the cylinder-plane energy.

    Returns E_pfa/(hbar c L).  At R = 0 the facing area vanishes and
    the PFA with it; that case returns 0.0 under `EdgeLimitWarning`,
    since the physical energy is instead set by the edge scale 1/H^2.
    """
    if not 0 < H < math.inf:
        raise DomainError("H must be finite and positive")
    if not 0 <= R < math.inf:
        raise DomainError("R must be finite and nonnegative")
    if R == 0.0:
        warnings.warn("PFA vanishes for a zero-thickness edge; the true "
                      "energy scales as 1/H^2", EdgeLimitWarning, stacklevel=2)
        return 0.0
    return -math.pi ** 3 / (960.0 * math.sqrt(2.0)) * math.sqrt(R / H ** 5)


def edge_pfa_disk(H: float, r: float, C_perp: float) -> tuple:
    """Edge-PFA of a thin disk of radius r perpendicular to the plane.

    Applies the knife-edge energy -C_perp/h^2 per unit edge length
    along the rim, whose height above the plane at horizontal offset x
    is h(x) = H + r - sqrt(r^2 - x^2).  Returns
    ``(exact_integral, asymptote)``: the quadrature value of

        -C_perp * Integral_{-r}^{r} dx / h(x)^2

    and its closed-form H/r -> 0 limit -C_perp pi sqrt(r/(2 H^3)).
    The substitution x = r sin(phi) removes the square-root endpoint
    derivative; panels are packed around phi = 0 where the integrand
    peaks over a width sqrt(2 H / r).
    """
    if not (0 < H < math.inf and 0 < r < math.inf and math.isfinite(C_perp)):
        raise DomainError("H and r must be finite and positive, C_perp finite")
    width = math.sqrt(2.0 * H / r)
    half_pi = math.pi / 2.0
    edges = [0.0]
    for s in (0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0):
        e = s * width
        if e >= half_pi:
            break
        edges.append(e)
    edges.append(half_pi)
    phi, wp = panel_grid(edges, 16)
    integrand = r * np.cos(phi) / (H + r * (1.0 - np.cos(phi))) ** 2
    exact = -C_perp * 2.0 * float(np.sum(wp * integrand))
    asymptote = -C_perp * math.pi * math.sqrt(r / (2.0 * H ** 3))
    return exact, asymptote


def _sample_arrays(samples):
    """The theta and c arrays of (theta, c) pairs, every value finite."""
    pairs = np.array([(s[0], s[1]) for s in samples], dtype=float).reshape(-1, 2)
    if not np.all(np.isfinite(pairs)):
        raise DomainError("every (theta, c) sample must be finite")
    return pairs.T


def edge_coefficient_fit(samples, fit_window: tuple = (math.radians(80.0),
                                                       math.radians(89.0))) -> EdgeFit:
    """Fit c(theta) = c_parallel_half + (theta - pi/2) * c_edge.

    ``samples`` is a sequence of finite (theta, c) pairs in radians;
    only those with theta inside ``fit_window`` enter the unweighted
    least-squares fit, and at least four must survive.  The linear
    model is exact only asymptotically; the default window hugs the
    broadside limit because farther out the curvature of c(theta)
    contaminates the slope, which is why the window sensitivity (see
    `edge_fit_window_sweep`) should be reported with any quoted
    coefficient.
    """
    lo, hi = fit_window
    if not lo < hi:
        raise DomainError("fit_window must be an increasing (lo, hi) pair")
    theta, c = _sample_arrays(samples)
    keep = (theta >= lo) & (theta <= hi)
    if int(np.count_nonzero(keep)) < 4:
        raise DomainError("need at least four samples inside the fit window")
    x = theta[keep] - math.pi / 2.0
    y = c[keep]
    design = np.column_stack([x, np.ones_like(x)])
    (slope, intercept), *_ = np.linalg.lstsq(design, y, rcond=None)
    residual = float(np.max(np.abs(intercept + slope * x - y)))
    return EdgeFit(float(intercept), float(slope), (float(lo), float(hi)),
                   residual)


_DEFAULT_WINDOWS = (
    (math.radians(70.0), math.radians(87.0)),
    (math.radians(75.0), math.radians(88.0)),
    (math.radians(80.0), math.radians(89.0)),
    (math.radians(82.5), math.radians(89.0)),
)


def edge_fit_window_sweep(samples) -> list:
    """Refit the edge coefficient over the four default windows.

    Reports how the slope moves as the window approaches the broadside
    limit; the spread across windows is the honest systematic error of
    the linear model.  Windows that keep fewer than four samples are
    skipped; a nonfinite sample raises `DomainError`.
    """
    samples = list(samples)
    _sample_arrays(samples)
    fits = []
    for window in _DEFAULT_WINDOWS:
        try:
            fits.append(edge_coefficient_fit(samples, window))
        except DomainError:
            continue
    return fits
