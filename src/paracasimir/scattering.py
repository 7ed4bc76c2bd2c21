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
n!, so they are handed out as `SignedLog` values and only ever enter
determinants through factorial-free ratios.

At R = 0 the cylinder degenerates to a half-plane (knife edge).  There
the amplitude of the parity-matched channel (even n Dirichlet, odd n
Neumann) reduces to the closed form -n! sqrt(2/pi), which this module
special-cases exactly; the opposite-parity amplitude decouples because
the corresponding wave has a node on the degenerate surface.  The
parity rule itself is exposed as `mode_for_parity` so the kernel
assembly can apply it in one place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import gammaln

from .specfun import (
    DomainError,
    SignedLog,
    pcf_outgoing_table,
    pcf_regular_imag_table,
)

__all__ = [
    "BoundaryMode",
    "Geometry",
    "SingularDenominatorError",
    "plane_amplitude",
    "parabolic_amplitude",
    "parabolic_amplitude_table",
    "mode_for_parity",
]


class SingularDenominatorError(ArithmeticError):
    """An amplitude denominator vanished where it provably should not.

    D_{-n-1} and its derivative have no zeros on the positive real axis,
    so hitting this indicates an internal evaluation fault rather than a
    physical configuration.
    """


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
    the closest gap is d - R/(2 cos theta), and the vertex lies
    H + (R/2)(1 - cos theta) above the plane.
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


def mode_for_parity(n: int) -> BoundaryMode:
    """The channel that survives at the knife edge for partial-wave order n.

    On the degenerate surface mu = 0 the regular wave of even order has
    vanishing normal derivative and the odd one has a node, so even
    orders carry the Dirichlet channel and odd orders the Neumann one.
    """
    if n < 0:
        raise DomainError("order must be nonnegative")
    return BoundaryMode.DIRICHLET if n % 2 == 0 else BoundaryMode.NEUMANN


_LOG_SQRT_2_OVER_PI = 0.5 * math.log(2.0 / math.pi)


def parabolic_amplitude_table(nmax: int, mode: BoundaryMode, mu0_scaled):
    """Sign/log tables of the cylinder amplitude F_n for n = 0..nmax.

    ``mu0_scaled`` is a scalar or a 1-d array of nonnegative arguments,
    for instance one per frequency node; each table has shape
    (nmax+1, len(mu0_scaled)), or (nmax+1,) for scalar input.  The
    special-function tables behind it are built once for all arguments.

    At mu0_scaled = 0 every order is served the knife-edge closed form
    -n! sqrt(2/pi) regardless of parity; selecting which orders
    physically participate there is the kernel assembler's job, via
    `mode_for_parity`.  This keeps the amplitude a continuous function
    of mu0_scaled on the orders that matter.

    Returns ``(sign, logmag)`` arrays.
    """
    mu = np.asarray(mu0_scaled, dtype=float)
    if np.any(mu < 0):
        raise DomainError("mu0_scaled must be nonnegative")
    if mode is BoundaryMode.DIRICHLET:
        sv, lv = pcf_regular_imag_table(nmax, mu)
        sb, lb = pcf_outgoing_table(nmax, mu)
        if np.any(sb == 0.0):
            raise SingularDenominatorError("D_{-n-1} evaluated to zero on the positive axis")
        signs, logs = -sv * sb, lv - lb
    elif mode is BoundaryMode.NEUMANN:
        _, _, sd, ld = pcf_regular_imag_table(nmax, mu, with_derivative=True)
        _, _, sdd, ldd = pcf_outgoing_table(nmax, mu, with_derivative=True)
        if np.any(sdd == 0.0):
            raise SingularDenominatorError("D_{-n-1}' evaluated to zero on the positive axis")
        signs, logs = -sd * sdd, ld - ldd
    else:
        raise DomainError(f"unknown boundary mode {mode!r}")
    knife = mu == 0.0
    if knife.any():
        closed = gammaln(np.arange(nmax + 1.0) + 1.0) + _LOG_SQRT_2_OVER_PI
        signs = np.where(knife, -1.0, signs)
        logs = np.where(knife, closed[:, None] if mu.ndim else closed, logs)
    return signs, logs


def parabolic_amplitude(n: int, mode: BoundaryMode, mu0_scaled: float) -> SignedLog:
    """Scattering amplitude of the parabolic cylinder for one order.

    Parameters
    ----------
    n : int
        Partial-wave order, n >= 0.
    mode : BoundaryMode
        Scalar channel.
    mu0_scaled : float
        Surface coordinate scaled by sqrt(2q); zero selects the exact
        knife-edge closed form -n! sqrt(2/pi).
    """
    if n < 0:
        raise DomainError("order must be nonnegative")
    signs, logs = parabolic_amplitude_table(n, mode, mu0_scaled)
    return SignedLog(int(signs[n]), float(logs[n]))
