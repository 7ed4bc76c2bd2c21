"""Translation elements between plane waves and parabolic partial waves.

A fluctuation leaving the parabolic cylinder in partial wave n returns,
after reflecting off the plane a distance d below the focal line, with
an amplitude built from the k_x-integral of two plane-wave conversion
factors.  With everything at imaginary frequency the natural variable
is the hyperbolic angle u of the substitution

    k_x = q sinh u,

under which the plane-wave angle becomes phi = -i u, the phase
e^{i k_y d} turns into pure damping e^{-q d cosh u}, and the element of
orders (n, n2) at tilt theta reads

    T_{n n2} = (1 / (2 sqrt(2 pi))) *
        Integral du  e^{-2 q d cosh u} t+^n t-^n2 / (c+ c-)

over the full u line, with t(+/-) = tan((+/-theta - i u)/2) and
c(+/-) = cos((+/-theta - i u)/2).  Since t- = -conj(t+) and
c+ c- = |c+|^2 > 0, the negative-u half folds onto the complex
conjugate and T is exactly real.

At theta = 0 the integral collapses to a Bateman k-function,

    T_{n n2} = sqrt(pi/2) k_{-n-n2-1}(2 q d),

which vanishes identically for odd n + n2.  Elements here are produced
in the symmetrized, factorial-free convention (no 1/sqrt(n! n2!)); the
factorial growth lives in the scattering amplitudes and cancels inside
the symmetrized kernel, so neither side ever forms it explicitly.

`green_parabolic` assembles the free scalar Green's function from the
regular and outgoing partial-wave solutions.  It exists to validate the
expansion machinery against the closed form e^{-kappa r}/(4 pi r) and
is re-exported under the testing-support namespace.
"""

from __future__ import annotations

import math
import numpy as np
from scipy.special import gammaln

from ._quad import panel_grid
from .specfun import (
    DomainError,
    bateman_m_log,
    pcf_outgoing_table,
    pcf_regular_imag_table,
    pcf_regular_table,
    ParabolicPoint,
)

__all__ = [
    "AccuracyError",
    "theta0_element",
    "tilted_element",
    "green_parabolic",
]


class AccuracyError(ArithmeticError):
    """A quadrature failed its self-estimated accuracy target.

    The estimate that tripped the check rides along in ``estimate``.
    """

    def __init__(self, message: str, estimate: float):
        super().__init__(f"{message} (error estimate {estimate:.3e})")
        self.estimate = estimate


# Panel edges for the u-quadrature.  Two length scales must both be
# resolved: the damping scale, where e^{-w(cosh u - 1)} falls through
# fixed decades (edges at arccosh(1 + e/w)), and the order-one region
# where the angular factors t(u) vary, which carries the high-order
# entries when w is small.  Missing the second set loses the large-n
# tail of the element matrix at small w.
_U_EDGES_DAMPING = (0.25, 0.7, 1.6, 3.5, 7.0, 13.0, 24.0, 41.5)
_U_EDGES_FIXED = (0.1, 0.25, 0.5, 1.0, 1.8, 3.0, 4.5)


def _u_grid(w: float, node_count: int = 16):
    """Gauss-Legendre panels on u in [0, U] for damping exponent w.

    U is set by e^{-w(cosh U - 1)} ~ 1e-18 so the truncated tail is
    negligible at double precision.
    """
    upper = math.acosh(1.0 + _U_EDGES_DAMPING[-1] / w)
    edges = {math.acosh(1.0 + e / w) for e in _U_EDGES_DAMPING}
    edges.update(_U_EDGES_FIXED)
    return panel_grid(sorted({0.0, upper, *(e for e in edges if 1e-3 < e < upper)}),
                      node_count)


def _gram(q: float, d: float, theta: float, nu_max: int, node_count: int = 16,
          start: int = 0, step: int = 1):
    """Half-line Gram matrix of the tilted element integrand.

    G[i, j] = Re Integral_0^inf du e^{-w (cosh u - 1)}
              t^n conj(t)^n2 / |cos((theta - i u)/2)|^2,
    with t = tan((theta - i u)/2), w = 2 q d and (n, n2) running over the
    orders start, start + step, ... up to nu_max.  A knife-edge channel
    needs only its own parity (step 2); the positive-radius kernel needs
    all orders (step 1).  The overall e^{-w} is stripped so the matrix
    stays well scaled at large w; callers restore it (usually in log
    space).

    With the square root of the positive weight folded into the powers,
    P[i, u] = sqrt(weight(u)) t(u)^n_i, G is the real part of P P^H.
    P is laid out order-major, one row per order, so its float64 view
    V = P.view(float64) holds each row's real and imaginary parts
    interleaved, and G = V V^T is a single symmetric rank-k product
    (BLAS syrk) with no copy of the real and imaginary parts.  G is
    therefore positive semidefinite by construction, and exactly
    symmetric in floating point (numpy mirrors the triangle syrk fills).

    The powers are built by doubling: with the first s rows filled,
    rows s .. 2s-1 are those rows times z^s, z = t^step, and z^s comes
    from repeated squaring, so about log2(rows) vectorized products fill
    the table.  Row k is a product of O(log k) factors z^(2^j), each
    carrying the O(2^j eps) rounding of its squarings, so the row's
    rounding error is O(k eps), as with a cumulative product.  No
    complex logarithm (and hence no branch choice) is ever taken;
    |t| <= 1 for |theta| <= pi/2, so the powers cannot overflow.

    Returns (G, w).
    """
    w = 2.0 * q * d
    u, wq = _u_grid(w, node_count)
    half = 0.5 * (theta - 1j * u)
    t = np.tan(half)
    c2 = np.abs(np.cos(half)) ** 2
    root = np.sqrt(wq * np.exp(-w * (np.cosh(u) - 1.0)) / c2)
    rows = (nu_max - start) // step + 1
    P = np.empty((rows, u.size), dtype=complex)
    P[0] = root * t ** start
    z, filled = t ** step, 1
    while filled < rows:
        more = min(filled, rows - filled)
        np.multiply(P[:more], z, out=P[filled:filled + more])
        filled += more
        z = z * z
    V = P.view(np.float64)
    return V @ V.T, w


def tilted_matrix_log(nu_max: int, q: float, d: float, theta: float):
    """Sign/log form of the full element matrix T at tilt theta.

    T[n, n2] = (-1)^n2 G[n, n2] e^{-w} / sqrt(2 pi) from the folded
    half-line Gram.  The log form lets the kernel assembler attach the
    factorially growing amplitude factors without intermediate overflow
    or underflow.

    Returns ``(sign, logmag)`` arrays of shape (nu_max+1, nu_max+1).
    """
    G, w = _gram(q, d, theta, nu_max)
    parity = (-1.0) ** np.arange(nu_max + 1)
    signs = np.sign(G) * parity[None, :]
    with np.errstate(divide="ignore"):
        logs = np.where(G != 0.0, np.log(np.abs(G)), -np.inf) - w - 0.5 * math.log(2.0 * math.pi)
    return signs, logs


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


def _pointwise_tables(nu_max: int, point: ParabolicPoint, q: float, outgoing: bool):
    """Log tables of the partial-wave factors at one point.

    Regular waves use D_n(lam~) * [i^n D_n(i mu~)] (both real); outgoing
    waves use D_n(lam~) * D_{-n-1}(mu~).
    """
    s = math.sqrt(2.0 * q)
    sl, ll = pcf_regular_table(nu_max, point.lam * s)
    if outgoing:
        sm, lm = pcf_outgoing_table(nu_max, point.mu * s)
    else:
        sm, lm = pcf_regular_imag_table(nu_max, point.mu * s)
    return sl * sm, ll + lm


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
    nu = np.arange(nu_max + 1)
    sign_nu = (-1.0) ** nu
    lgamma = gammaln(nu + 1.0)

    def f_of_q(q: float) -> float:
        si, li = _pointwise_tables(nu_max, inner, q, outgoing=False)
        so, lo = _pointwise_tables(nu_max, outer, q, outgoing=True)
        logterm = li + lo - lgamma - 0.5 * math.log(2.0 * math.pi)
        signs = sign_nu * si * so
        m = np.max(logterm)
        if np.isneginf(m):
            return 0.0
        return float(np.exp(m) * np.sum(signs * np.exp(logterm - m)))

    # decay scale of the summand in q (leading Gaussian exponents of the
    # four factors), used to size the kz window
    s0 = (inner.lam**2 + outer.lam**2 + outer.mu**2 - inner.mu**2) / 2.0
    kmax = 41.5 / s0
    npanel = max(12, min(80, int(kmax * dz / 2.0) + 12))
    kz, wk = panel_grid(np.linspace(0.0, kmax, npanel + 1), 12)
    vals = np.array([f_of_q(math.hypot(kappa, k)) for k in kz])
    return float(np.sum(wk * np.cos(kz * dz) * vals)) / math.pi
