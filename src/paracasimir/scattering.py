"""Scattering amplitudes of the parabolic cylinder and the plane.

A perfectly conducting, z-translation-invariant geometry splits the
electromagnetic field into two decoupled scalar channels: Dirichlet
(field value fixed on the surfaces) and Neumann (normal derivative
fixed).  The electromagnetic Casimir energy is the sum of the two
channel energies.

The plane is a perfect mirror with constant amplitude -1 (Dirichlet) or
+1 (Neumann).  The parabolic cylinder mu = mu0 = sqrt(R) scatters the
regular parabolic wave of order n into the outgoing one with amplitude

    Dirichlet:  F_n = - i^n  D_n(i mu0~) / D_{-n-1}(mu0~)
    Neumann:    F_n = - i^{n+1} D_n'(i mu0~) / D_{-n-1}'(mu0~)

at scaled argument mu0~ = mu0 sqrt(2q).  Both are real; they grow like
n!, so `parabolic_amplitude_table` hands them out as (sign, log
magnitude) tables over orders 0..nmax, and they only ever enter
determinants through factorial-free ratios.  No denominator can vanish:
`pcf_outgoing_table` gives D_{-n-1} > 0 and D_{-n-1}' < 0 on x >= 0.

At R = 0 the cylinder degenerates to a half-plane (knife edge), and
the same ratio formula serves it: at mu0~ = 0 the amplitude of the
parity-matched channel (even n Dirichlet, odd n Neumann) is
-n! sqrt(2/pi), and that of the other parity vanishes exactly, because
the corresponding regular wave has a node (or a vanishing derivative)
on the degenerate surface.  The kernel assembly applies that parity
rule, in one place, and drops the signs of F_n and of the mirror,
which never reach a determinant (see `roundtrip`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .specfun import (
    DomainError,
    pcf_outgoing_table,
    pcf_regular_imag_table,
)

__all__ = [
    "BoundaryMode",
    "Geometry",
    "plane_amplitude",
    "parabolic_amplitude_table",
]


class BoundaryMode(Enum):
    """Scalar boundary condition tag for one electromagnetic channel."""

    DIRICHLET = "dirichlet"
    NEUMANN = "neumann"


@dataclass(frozen=True)
class Geometry:
    """Parabolic cylinder opposite a plane.

    Parameters
    ----------
    R : float
        Tip radius of the parabolic cylinder (length).  R = 0 is the
        knife edge, a semi-infinite plate.
    H : float
        Distance between the tip and the plane at zero tilt (length).
    theta : float, optional
        Tilt of the cylinder axis, radians, in the open interval
        (-pi/2, pi/2).  At exactly pi/2 the plate is parallel to the
        plane and the energy per length diverges.

    The focus-to-plane distance d = H + R/2 and the surface coordinate
    mu0 = sqrt(R) are derived.  The kernel uses d = H + R/2 at every
    tilt, so H is the closest gap only at theta = 0 or R = 0.  At tilt
    the closest gap is ``gap`` = d - R/(2 cos theta), and the vertex lies
    H + (R/2)(1 - cos theta) above the plane.  A tilt at which the
    cylinder touches or cuts the plane (gap <= 0) raises `DomainError`.
    """

    R: float
    H: float
    theta: float = 0.0

    def __post_init__(self):
        if not (self.R >= 0.0 and math.isfinite(self.R)):
            raise DomainError(f"R must be finite and nonnegative, got {self.R}")
        if not (self.H > 0.0 and math.isfinite(self.H)):
            raise DomainError(f"H must be finite and positive, got {self.H}")
        if not abs(self.theta) < math.pi / 2:
            raise DomainError("theta must lie strictly inside (-pi/2, pi/2)")
        if not self.gap > 0.0:
            raise DomainError(f"the cylinder touches or cuts the plane: closest gap "
                              f"d - R/(2 cos theta) = {self.gap:.6g}")

    @property
    def gap(self) -> float:
        """Closest distance between the cylinder and the plane, d - R/(2 cos theta).

        Written as H - (R/2)(1/cos theta - 1), so it equals H exactly at
        theta = 0 and at R = 0.
        """
        return self.H - self.R / 2.0 * (1.0 / math.cos(self.theta) - 1.0)

    @property
    def d(self) -> float:
        """Distance from the parabola's focal line to the plane."""
        return self.H + self.R / 2.0

    @property
    def mu0(self) -> float:
        """Radial parabolic coordinate of the cylinder surface."""
        return math.sqrt(self.R)


def plane_amplitude(mode: BoundaryMode) -> float:
    """Reflection amplitude of the perfect mirror: -1 Dirichlet, +1 Neumann.

    Independent of the transverse wavenumber.
    """
    if mode is BoundaryMode.DIRICHLET:
        return -1.0
    if mode is BoundaryMode.NEUMANN:
        return 1.0
    raise DomainError(f"unknown boundary mode {mode!r}")


def parabolic_amplitude_table(nmax: int, mode: BoundaryMode | tuple, mu0_scaled):
    """Sign/log tables of the cylinder amplitude F_n for n = 0..nmax.

    ``mu0_scaled`` is a scalar or a 1-d array of nonnegative arguments,
    for instance one per frequency node; each table has shape
    (nmax+1, len(mu0_scaled)), or (nmax+1,) for scalar input.  The
    special-function tables behind it are built once for all arguments.

    At mu0_scaled = 0 the parity-matched orders get -n! sqrt(2/pi) and
    the others sign 0 and log -inf, from the same ratio formula as every
    other argument.

    Returns ``(sign, logmag)`` arrays for one `BoundaryMode`, or for a
    tuple of modes a list of them, one per mode in its order.  A tuple
    takes every mode from one pass of the recurrences: the derivative
    tables that Neumann needs come with the values that Dirichlet needs,
    so each mode's tables are bitwise those it gets alone.
    """
    modes = mode if isinstance(mode, tuple) else (mode,)
    if not modes or not all(isinstance(m, BoundaryMode) for m in modes):
        raise DomainError(f"unknown boundary mode {mode!r}")
    neumann = BoundaryMode.NEUMANN in modes
    regular = pcf_regular_imag_table(nmax, mu0_scaled, with_derivative=neumann)
    outgoing = pcf_outgoing_table(nmax, mu0_scaled, with_derivative=neumann)
    tables = []
    for m in modes:
        # Values first, then the derivative's sign and log.
        at = 2 if m is BoundaryMode.NEUMANN else 0
        (sv, lv), (sb, lb) = regular[at:at + 2], outgoing[at:at + 2]
        tables.append((-sv * sb, lv - lb))
    return tables if isinstance(mode, tuple) else tables[0]
