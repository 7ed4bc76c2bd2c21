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

The kernel reads zero-tilt elements from the Bateman table; this module
builds the tilted ones from one Gram matrix, given by its real factor
(`_gram`), and the Gram's sign/log form `tilted_matrix_log`.  The
single-element oracles live in `testing`.
"""

from __future__ import annotations

import math
import numpy as np

from ._quad import panel_grid

__all__ = ["AccuracyError"]


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
# Widest panel of a positive radius's grid, cut off by the gap (`_gram`).
_U_WIDTH = 0.5


def _u_grid(w: float, node_count: int = 16, width: float = math.inf):
    """Gauss-Legendre panels on u in [0, U] for damping exponent w.

    U is set by e^{-w(cosh U - 1)} ~ 1e-18 so the truncated tail is
    negligible at double precision.  A panel wider than ``width`` is
    split into equal panels no wider.
    """
    upper = math.acosh(1.0 + _U_EDGES_DAMPING[-1] / w)
    edges = {math.acosh(1.0 + e / w) for e in _U_EDGES_DAMPING}
    edges.update(_U_EDGES_FIXED)
    edges = sorted({0.0, upper, *(e for e in edges if 1e-3 < e < upper)})
    if width < math.inf:
        parts = [np.linspace(a, b, math.ceil((b - a) / width) + 1)[:-1]
                 for a, b in zip(edges, edges[1:])]
        edges = [*np.concatenate(parts), upper]
    return panel_grid(edges, node_count)


def _gram(q: float, d: float, theta: float, nu_max: int, node_count: int = 16,
          start: int = 0, step: int = 1, gap: float | None = None):
    """Real factor V of the half-line Gram matrix G = V V^T of the
    tilted element integrand.

    G[i, j] = Re Integral_0^inf du e^{-w (cosh u - 1)}
              t^n conj(t)^n2 / |cos((theta - i u)/2)|^2,
    with t = tan((theta - i u)/2), w = 2 q d and (n, n2) running over the
    orders start, start + step, ... up to nu_max.  A knife-edge channel
    needs only its own parity (step 2); the positive-radius kernel needs
    all orders (step 1).  The overall e^{-w} is stripped so the matrix
    stays well scaled at large w; callers restore it (usually in log
    space).

    The u-grid is `_u_grid(w)`, or, given the ``gap`` H of a cylinder of
    positive radius, `_u_grid(2 q H)` in panels at most _U_WIDTH wide.
    The balanced amplitudes |F_n / n!|^(1/2) grow like e^(c sqrt(n)), so
    the high orders' entries reach out to large u, where their decay is
    set by the gap and not by the focal distance d; at the knife edge
    H = d and the grid is `_u_grid(w)`.

    With the square root of the positive weight folded into the powers,
    P[i, u] = sqrt(weight(u)) t(u)^n_i, G is the real part of P P^H.
    P is laid out order-major, one row per order, so its float64 view
    V = P.view(float64), of shape (orders, 2U) for U u-nodes, holds each
    row's real and imaginary parts interleaved, and G = V V^T.  G is
    therefore positive semidefinite by construction.  V is returned
    rather than G: `tilted_matrix_log` forms G as one symmetric rank-k
    product (BLAS syrk, exactly symmetric in floating point since numpy
    mirrors the triangle syrk fills), and the tilted knife edge takes
    its log-determinants from V itself (`roundtrip`).

    The powers are built by doubling: with the first s rows filled,
    rows s .. 2s-1 are those rows times z^s, z = t^step, and z^s comes
    from repeated squaring, so about log2(rows) vectorized products fill
    the table.  Row k is a product of O(log k) factors z^(2^j), each
    carrying the O(2^j eps) rounding of its squarings, so the row's
    rounding error is O(k eps), as with a cumulative product.  No
    complex logarithm (and hence no branch choice) is ever taken;
    |t| <= 1 for |theta| <= pi/2, so the powers cannot overflow.

    Returns (V, w).
    """
    w = 2.0 * q * d
    u, wq = _u_grid(w, node_count) if gap is None else _u_grid(2.0 * q * gap, node_count, _U_WIDTH)
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
    return P.view(np.float64), w


def tilted_matrix_log(nu_max: int, q: float, d: float, theta: float, gap: float):
    """Sign/log form of (-1)^n2 T[n, n2] at tilt theta.

    T[n, n2] = (-1)^n2 G[n, n2] e^{-w} / sqrt(2 pi) from the folded
    half-line Gram; the parity never reaches a determinant (see
    `roundtrip`).  The log form lets the kernel assembler attach the
    factorially growing amplitude factors without intermediate overflow
    or underflow.  ``gap`` picks the u-grid as in `_gram`.

    Returns ``(sign, logmag)`` arrays of shape (nu_max+1, nu_max+1).
    """
    V, w = _gram(q, d, theta, nu_max, gap=gap)
    G = V @ V.T
    with np.errstate(divide="ignore"):
        logs = np.log(np.abs(G)) - w - 0.5 * math.log(2.0 * math.pi)
    return np.sign(G), logs
