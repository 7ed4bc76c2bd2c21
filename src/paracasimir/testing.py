"""Validation oracles and the runnable identity suite.

Everything here cross-checks the production code against independent
mathematics: closed forms, brute-force small matrices, and expansions
evaluated the slow way.  The CLI `validate` command and the test suite
both run `run_identity_suite`, so a fresh installation can prove its
own numerics without fixtures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .specfun import (
    ParabolicPoint,
    bateman_k_table,
    pcf_regular_imag_table,
    pcf_regular_table,
)
from .scattering import BoundaryMode, Geometry, parabolic_amplitude_table
from .translation import green_parabolic, theta0_element, tilted_element
from .roundtrip import _knife_start, build_kernel, logdet_one_minus
from .energy import energy_per_length

__all__ = [
    "green_parabolic",
    "plane_wave_partial_sum",
    "IdentityCheck",
    "run_identity_suite",
]


def plane_wave_partial_sum(point: ParabolicPoint, q: float, phi: float,
                           nu_max: int = 60) -> float:
    """Partial-wave reconstruction of the damped plane wave.

    Sums n = 0..nu_max of tan^n(phi/2)/(cos(phi/2) n!) times the two
    regular factors at the point, which converges for |tan(phi/2)| < 1
    to exp(-q (x sin phi + y cos phi)).  Useful for checking the
    regular wave functions and their normalization independently of any
    scattering formula.
    """
    s = math.sqrt(2.0 * q)
    sl, ll = pcf_regular_table(nu_max, point.lam * s)
    sm, lm = pcf_regular_imag_table(nu_max, point.mu * s)
    t = math.tan(phi / 2.0)
    n = np.arange(nu_max + 1)
    with np.errstate(divide="ignore"):
        logt = np.where(n > 0, n * math.log(abs(t)) if t != 0.0 else -np.inf, 0.0)
    logterm = logt - math.log(math.cos(phi / 2.0)) - gammaln(n + 1.0) + ll + lm
    signs = np.where(n % 2 == 0, 1.0, math.copysign(1.0, t) if t != 0.0 else 0.0)
    signs = signs * sl * sm
    peak = np.max(logterm)
    if np.isneginf(peak):
        return 0.0
    return float(np.exp(peak) * np.sum(signs * np.exp(logterm - peak)))


@dataclass(frozen=True)
class IdentityCheck:
    """One internal-consistency check: a measured defect and its bound."""

    name: str
    measure: float
    bound: float

    def __post_init__(self):
        object.__setattr__(self, "measure", float(self.measure))
        object.__setattr__(self, "bound", float(self.bound))

    @property
    def passed(self) -> bool:
        return bool(self.measure <= self.bound)


def _check_knife_amplitudes() -> IdentityCheck:
    """Amplitudes at the knife edge equal -n! sqrt(2/pi), matching parity."""
    worst = 0.0
    expect = gammaln(np.arange(61.0) + 1.0) + 0.5 * math.log(2.0 / math.pi)
    for mode in BoundaryMode:
        signs, logs = parabolic_amplitude_table(60, mode, 0.0)
        orders = slice(_knife_start(mode), None, 2)
        defect = np.abs(logs[orders] - expect[orders])
        worst = max(worst, float(np.max(np.where(signs[orders] == -1.0, defect, math.inf))))
    return IdentityCheck("knife-edge amplitudes", worst, 1e-10)


def _check_bateman_identity() -> IdentityCheck:
    """Quadrature elements against the closed form, random even pairs."""
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(0, 13))
        n2 = int(rng.integers(0, 7)) * 2 + n % 2
        q = float(rng.uniform(0.3, 3.0))
        d = float(rng.uniform(0.4, 2.0))
        ref = theta0_element(n, n2, q, d)
        got = tilted_element(n, n2, q, d, 0.0)
        worst = max(worst, abs(got - ref) / abs(ref))
    return IdentityCheck("Bateman closed form vs quadrature", worst, 1e-8)


def _check_parity_zeros() -> IdentityCheck:
    """Odd-order elements vanish at zero tilt."""
    worst = 0.0
    for n, n2 in ((0, 1), (1, 2), (2, 5), (0, 7), (3, 4)):
        scale = abs(theta0_element(n, n2 + 1, 1.1, 0.8))
        worst = max(worst, abs(tilted_element(n, n2, 1.1, 0.8, 0.0)) / scale)
    return IdentityCheck("zero-tilt parity selection", worst, 1e-12)


def _check_block_additivity() -> IdentityCheck:
    """The knife edge's combined kernel splits into its two channels.

    The combined matrix (-1)^nu k_{-nu-nu'-1}(2 q H) over all orders
    0..40 is built literally from the Bateman table (its entries of odd
    nu + nu' are exact zeros); its logdet must equal the sum of the
    Dirichlet and Neumann kernels' logdets from `build_kernel`.
    """
    geom = Geometry(R=0.0, H=1.0)
    nu = np.arange(41)
    tot = nu[:, None] + nu[None, :]
    worst = 0.0
    for q in (0.3, 1.0, 3.0):
        k = bateman_k_table(40, 2.0 * q * geom.H)
        full = np.where(tot % 2 == 0, (-1.0) ** nu[:, None] * k[tot // 2], 0.0)
        parts = sum(logdet_one_minus(build_kernel(geom, q, 40, mode)[0])
                    for mode in BoundaryMode)
        worst = max(worst, abs(logdet_one_minus(full) - parts))
    return IdentityCheck("parity block additivity", worst, 1e-12)


def _check_h_scale() -> IdentityCheck:
    """H^2 E is H-independent for the knife edge."""
    vals = []
    for H in (0.5, 1.0, 2.0):
        res = energy_per_length(Geometry(R=0.0, H=H), nu_max=40)
        vals.append(res.value * H * H)
    worst = (max(vals) - min(vals)) / abs(vals[1])
    return IdentityCheck("H-scale invariance", worst, 1e-10)


def _det3(m: np.ndarray) -> float:
    return (m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
            - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
            + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0]))


def _check_brute_force_3x3() -> IdentityCheck:
    """Cholesky logdet against the cofactor expansion on 3x3 kernels."""
    worst = 0.0
    for geom, q in ((Geometry(R=1.0, H=0.7, theta=0.3), 1.2),
                    (Geometry(R=0.5, H=1.0), 0.8)):
        entries, _ = build_kernel(geom, q, 2, BoundaryMode.DIRICHLET)
        ref = math.log(_det3(np.eye(3) - entries))
        got = logdet_one_minus(entries)
        worst = max(worst, abs(got - ref) / abs(ref))
    return IdentityCheck("3x3 cofactor determinant", worst, 1e-13)


def _check_green_expansion() -> IdentityCheck:
    """Partial-wave Green's function against the free-space closed form."""
    r1 = ParabolicPoint(lam=0.8, mu=0.5, z=0.0)
    r2 = ParabolicPoint(lam=-0.3, mu=1.6, z=0.4)
    kappa = 1.0
    x1, y1, z1 = r1.to_cartesian()
    x2, y2, z2 = r2.to_cartesian()
    r12 = math.sqrt((x1 - x2) ** 2 + (y1 - y2) ** 2 + (z1 - z2) ** 2)
    ref = math.exp(-kappa * r12) / (4.0 * math.pi * r12)
    got = green_parabolic(r1, r2, kappa, nu_max=40)
    return IdentityCheck("Green's function expansion", abs(got - ref) / ref, 1e-6)


def _check_plane_wave() -> IdentityCheck:
    """Plane-wave partial sums at real angles with |tan(phi/2)| < 1."""
    worst = 0.0
    q = 1.3
    for lam, mu, phi in ((0.6, 0.8, 0.9), (-0.5, 0.9, -1.0), (0.2, 0.3, 0.4)):
        point = ParabolicPoint(lam=lam, mu=mu, z=0.0)
        x, y, _ = point.to_cartesian()
        ref = math.exp(-q * (x * math.sin(phi) + y * math.cos(phi)))
        got = plane_wave_partial_sum(point, q, phi, nu_max=60)
        worst = max(worst, abs(got - ref) / abs(ref))
    return IdentityCheck("plane-wave expansion", worst, 1e-8)


def run_identity_suite() -> list:
    """Run every internal-consistency check and return the results.

    Deterministic: the one randomized check uses a fixed seed.
    """
    return [
        _check_knife_amplitudes(),
        _check_bateman_identity(),
        _check_parity_zeros(),
        _check_block_additivity(),
        _check_h_scale(),
        _check_brute_force_3x3(),
        _check_green_expansion(),
        _check_plane_wave(),
    ]
