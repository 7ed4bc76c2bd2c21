"""Validation oracles and the runnable identity suite.

Everything here cross-checks the production code against independent
mathematics, and no production path calls it: the single translation
elements `theta0_element` and `tilted_element`, the coordinate map
`ParabolicPoint` with the wave expansions `green_parabolic` and
`plane_wave_partial_sum`, the signed knife kernel
`literal_knife_kernel`, and brute-force small kernels.  The CLI
`validate` command and the test suite both run `run_identity_suite`, so
a fresh installation can prove its own numerics without fixtures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, xlogy

from ._quad import panel_grid
from .specfun import (
    DomainError,
    bateman_k_table,
    bateman_m_log,
    pcf_outgoing_table,
    pcf_regular_imag_table,
    pcf_regular_table,
)
from .scattering import BoundaryMode, Geometry, parabolic_amplitude_table
from .translation import AccuracyError, _u_grid
from .roundtrip import _knife_start, build_kernel, logdet_one_minus
from .energy import energy_per_length

__all__ = [
    "ParabolicPoint",
    "theta0_element",
    "tilted_element",
    "green_parabolic",
    "plane_wave_partial_sum",
    "literal_knife_kernel",
    "IdentityCheck",
    "run_identity_suite",
]


@dataclass(frozen=True)
class ParabolicPoint:
    """A point in parabolic cylinder coordinates (lam, mu, z).

    The Cartesian map is x = mu*lam, y = (lam^2 - mu^2)/2, z = z, with
    the convention mu >= 0 (mu is the radial coordinate; the surface
    mu = sqrt(R) is a parabolic cylinder of tip radius R).
    """

    lam: float
    mu: float
    z: float = 0.0

    def __post_init__(self):
        if self.mu < 0:
            raise DomainError("mu must be nonnegative")

    def to_cartesian(self) -> tuple[float, float, float]:
        return (self.mu * self.lam, (self.lam**2 - self.mu**2) / 2.0, self.z)


def theta0_element(n: int, n2: int, q: float, d: float) -> float:
    """Untilted translation element, symmetrized convention.

    Equals sqrt(pi/2) k_{-n-n2-1}(2 q d), read from the top order of the
    Bateman table; exactly zero for odd n + n2 (mirror parity forbids
    the coupling).
    """
    if n < 0 or n2 < 0:
        raise DomainError("orders must be nonnegative")
    if q <= 0 or d <= 0:
        raise DomainError("q and d must be positive")
    if (n + n2) % 2 == 1:
        return 0.0
    top = (n + n2) // 2
    logm = bateman_m_log(top, 2.0 * q * d)[top]
    return math.sqrt(math.pi / 2.0) * ((-1.0) ** top * math.exp(logm))


def _tilted_integrand(u: np.ndarray, n: int, n2: int, w: float, theta: float) -> np.ndarray:
    """Complex integrand of the unfolded element on given u nodes."""
    zp = 0.5 * (theta - 1j * u)
    zm = 0.5 * (-theta - 1j * u)
    val = np.exp(-w * np.cosh(u))
    val = val * np.tan(zp) ** n * np.tan(zm) ** n2
    return val / (np.cos(zp) * np.cos(zm))


def tilted_element(n: int, n2: int, q: float, d: float, theta: float,
                   node_count: int = 16) -> float:
    """Translation element at tilt theta, symmetrized convention.

    Integrates the unfolded integrand over the symmetric grid (+u, -u)
    without exploiting the conjugation symmetry, so the residual
    imaginary part is a genuine discretization diagnostic; it is checked
    against 1e-10 of the real part.  The quadrature error is estimated
    by doubling the per-panel node count and must come in below 1e-10
    of the peak integrand magnitude.

    Matches `theta0_element` at theta = 0 and obeys
    tilted_element(n, n2, q, d, theta) = tilted_element(n2, n, q, d, -theta)
    exactly (the two conversion factors trade places).
    """
    if n < 0 or n2 < 0:
        raise DomainError("orders must be nonnegative")
    if q <= 0 or d <= 0:
        raise DomainError("q and d must be positive")
    if not abs(theta) < math.pi / 2:
        raise DomainError("theta must lie strictly inside (-pi/2, pi/2)")
    w = 2.0 * q * d
    norm = 1.0 / (2.0 * math.sqrt(2.0 * math.pi))

    def once(nodes: int):
        u, wq = _u_grid(w, nodes)
        f = _tilted_integrand(u, n, n2, w, theta)
        fm = _tilted_integrand(-u, n, n2, w, theta)
        total = np.sum(wq * (f + fm))
        peak = float(np.max(np.abs(f)))
        return total, peak

    coarse, _ = once(node_count)
    fine, peak = once(2 * node_count)
    err = abs(fine - coarse)
    scale = max(peak, abs(fine))
    if err > 1e-10 * scale + 1e-300:
        raise AccuracyError("tilted element quadrature did not converge", err / scale)
    if abs(fine.imag) > 1e-10 * max(abs(fine.real), peak * 1e-6):
        raise AccuracyError("imaginary residue above tolerance", abs(fine.imag))
    return norm * fine.real


def _pointwise_tables(nu_max: int, point: ParabolicPoint, q, outgoing: bool):
    """Log tables of the partial-wave factors at one point, one column per q.

    Regular waves use D_n(lam~) * [i^n D_n(i mu~)] (both real); outgoing
    waves use D_n(lam~) * D_{-n-1}(mu~).
    """
    s = np.sqrt(2.0 * q)
    sl, ll = pcf_regular_table(nu_max, point.lam * s)
    radial = pcf_outgoing_table if outgoing else pcf_regular_imag_table
    sm, lm = radial(nu_max, point.mu * s)
    return sl * sm, ll + lm


def _signed_exp_sum(signs: np.ndarray, logs: np.ndarray):
    """sum_n signs[n] e^logs[n] along axis 0, scaled by the largest term.

    Each column is summed as a contiguous row, pairwise as a 1-d sum is.
    """
    peak = np.max(logs, axis=0)
    terms = signs * np.exp(logs - peak)
    return np.exp(peak) * np.ascontiguousarray(terms.T).sum(axis=-1)


def green_parabolic(r1: ParabolicPoint, r2: ParabolicPoint, kappa: float,
                    nu_max: int = 40) -> float:
    """Free scalar Green's function from the parabolic-wave expansion.

    Sums regular-times-outgoing partial waves (ordered by the radial
    coordinate mu) and integrates numerically over the axial wavenumber.
    Converges to e^{-kappa r12}/(4 pi r12) as nu_max grows, but not
    monotonically in nu_max.  At the identity check's points
    (lam, mu, z) = (0.8, 0.5, 0) and (-0.3, 1.6, 0.4), kappa = 1, the
    relative error is 3.4e-5 / 9.1e-7 / 2.2e-6 / 5.0e-7 / 8.8e-8 at
    nu_max = 30 / 40 / 50 / 60 / 80.  It is below 1e-6 at nu_max = 40
    because 40 falls on a low point of that convergence, not because
    every order from 40 on reaches 1e-6 (order 50 does not).

    This function is a validation oracle, not a production path.
    """
    if kappa <= 0:
        raise DomainError("kappa must be positive")
    if r1.mu == r2.mu:
        raise DomainError("points must have distinct radial coordinates mu")
    x1, y1, z1 = r1.to_cartesian()
    x2, y2, z2 = r2.to_cartesian()
    r12 = math.sqrt((x1 - x2) ** 2 + (y1 - y2) ** 2 + (z1 - z2) ** 2)
    if r12 == 0.0:
        raise DomainError("points must not coincide")
    inner, outer = (r1, r2) if r1.mu < r2.mu else (r2, r1)
    dz = abs(z2 - z1)
    # decay scale of the summand in q (leading Gaussian exponents of the
    # four factors), used to size the kz window
    s0 = (inner.lam**2 + outer.lam**2 + outer.mu**2 - inner.mu**2) / 2.0
    kmax = 41.5 / s0
    npanel = max(12, min(80, int(kmax * dz / 2.0) + 12))
    kz, wk = panel_grid(np.linspace(0.0, kmax, npanel + 1), 12)
    q = np.hypot(kappa, kz)
    si, li = _pointwise_tables(nu_max, inner, q, outgoing=False)
    so, lo = _pointwise_tables(nu_max, outer, q, outgoing=True)
    nu = np.arange(nu_max + 1)[:, None]
    logterm = li + lo - gammaln(nu + 1.0) - 0.5 * math.log(2.0 * math.pi)
    vals = _signed_exp_sum((-1.0) ** nu * si * so, logterm)
    return float(np.sum(wk * np.cos(kz * dz) * vals)) / math.pi


def plane_wave_partial_sum(point: ParabolicPoint, q: float, phi: float,
                           nu_max: int = 60) -> float:
    """Partial-wave reconstruction of the damped plane wave.

    Sums n = 0..nu_max of tan^n(phi/2)/(cos(phi/2) n!) times the two
    regular factors at the point, which converges for |tan(phi/2)| < 1
    to exp(-q (x sin phi + y cos phi)).  Useful for checking the
    regular wave functions and their normalization independently of any
    scattering formula.
    """
    signs, logs = _pointwise_tables(nu_max, point, q, outgoing=False)
    t = math.tan(phi / 2.0)
    n = np.arange(nu_max + 1)
    # xlogy gives n log|t| without forming t^n, which underflows, and
    # reads 0 log 0 as 0, so only n = 0 survives at t = 0.
    logterm = xlogy(n, abs(t)) - math.log(math.cos(phi / 2.0)) - gammaln(n + 1.0) + logs
    return float(_signed_exp_sum(math.copysign(1.0, t) ** n * signs, logterm))


def literal_knife_kernel(q: float, nu_max: int) -> np.ndarray:
    """The knife edge's combined kernel (-1)^nu k_{-nu-nu'-1}(2 q) at
    H = 1 over orders 0..nu_max, signs and parity zeros included, written
    out from the signed Bateman table."""
    k = bateman_k_table(nu_max, 2.0 * q)
    nu = np.arange(nu_max + 1)
    tot = nu[:, None] + nu[None, :]
    return np.where(tot % 2 == 0, (-1.0) ** nu[:, None] * k[tot // 2], 0.0)


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
    """Amplitudes at the knife edge equal -n! sqrt(2/pi), matching parity.

    The closed form is checked against the ratio of the pcf tables at
    argument 0, the same formula that serves every positive radius.
    """
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

    The logdet of `literal_knife_kernel` over orders 0..40 must equal
    the sum of the Dirichlet and Neumann kernels' logdets from
    `build_kernel`.
    """
    geom = Geometry(R=0.0, H=1.0)
    worst = 0.0
    for q in (0.3, 1.0, 3.0):
        parts = sum(logdet_one_minus(build_kernel(geom, q, 40, mode)[0])
                    for mode in BoundaryMode)
        worst = max(worst, abs(logdet_one_minus(literal_knife_kernel(q, 40)) - parts))
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
