"""Stable evaluation of the special functions behind the partial-wave code.

The scattering machinery needs three families of parabolic cylinder
functions at integer order, plus the Bateman k-function that collapses
the plane-to-parabola translation integral at zero tilt.  Each is
evaluated as a whole table over orders 0..nmax, since every consumer
needs all the orders up to its truncation:

``pcf_regular_table``
    D_n(x) for real x (the Hermite-type family).
``pcf_regular_imag_table``
    The real combinations i^n D_n(ix) and i^(n+1) D_n'(ix) appearing on
    the imaginary axis, computed without complex intermediates.
``pcf_outgoing_table``
    D_{-n-1}(x) for x >= 0, irregular at the origin.
``bateman_m_log`` and ``bateman_k_table``
    k_ell(u) = e^{-u} U(-ell/2, 0, 2u) / Gamma(ell/2 + 1) at the odd
    negative orders ell = -2n-1 (the even ones are exact zeros), as
    logs of m_n = (-1)^n k_{-2n-1} or as plain floats.

The module holds these tables only; the coordinate map `ParabolicPoint`
lives in `paracasimir.testing` with the oracles that use it.

Orders run to several hundred and scaled arguments to about a hundred,
so the pcf tables hold (sign, log magnitude) pairs that cannot
overflow.  The two regular tables share one forward recurrence,
`_forward_logs`, for D_n(x) = e^{-x^2/4} He_n(x) and
i^n D_n(ix) = (-1)^n e^{x^2/4} t_n(x), and add -x^2/4 or x^2/4 to its logs,
so no value underflows either.  Every table takes a scalar or a 1-d
array of arguments, one per frequency node, and runs its order
recurrence once for all of them.

Recurrence directions were chosen by measurement against arbitrary
precision references rather than by rule of thumb.  The minimal
solutions, ``D_{-n-1}`` and the Bateman family, run downward in a form
whose terms are all positive, from seeds that quadrature of their
integral representations gives at the top order; ``D_{-n-1}`` is then
normalized by its closed form at order 0.  The frozen reference table
lives in ``tests/fixtures`` and is produced by
``scripts/gen_specfun_fixtures.py``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erfcx

from ._quad import panel_grid

__all__ = [
    "DomainError",
    "pcf_regular_table",
    "pcf_regular_imag_table",
    "pcf_outgoing_table",
    "bateman_k_table",
    "bateman_m_log",
]

# Rescaling threshold for the raw recurrences.  Values are renormalized
# whenever they pass this magnitude and the removed exponent is carried
# separately, so no intermediate ever overflows.
_LOG_BIG = 250.0 * math.log(10.0)
_BIG = math.exp(_LOG_BIG)


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of the function."""


def _check_order(n) -> int:
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise DomainError(f"order must be an integer, got {n!r}")
    if n < 0:
        raise DomainError(f"order must be nonnegative, got {n}")
    return int(n)


def _signed_log_sum(s1, l1, s2, l2):
    """Combine two signed-log arrays elementwise: s1 e^l1 + s2 e^l2.

    Returns (sign, logmag) arrays.  Cancellation between terms of equal
    magnitude and opposite sign loses relative accuracy exactly as the
    plain-float sum would; callers that need better must rearrange.
    """
    m = np.maximum(l1, l2)
    m = np.where(np.isneginf(m), 0.0, m)
    with np.errstate(invalid="ignore"):
        v = s1 * np.exp(l1 - m) + s2 * np.exp(l2 - m)
    sign = np.sign(v)
    with np.errstate(divide="ignore"):
        logmag = np.log(np.abs(v)) + m
    return sign, logmag


def _argument_array(x, signed: bool = False):
    """``x`` as a nonempty 1-d float array, and whether it was a scalar.

    Every entry must be finite, and nonnegative unless ``signed``.
    """
    x_in = np.asarray(x, dtype=float)
    arr = np.atleast_1d(x_in)
    if arr.ndim != 1 or arr.size == 0:
        raise DomainError("argument must be a scalar or a nonempty 1-d array")
    if not np.all(np.isfinite(arr) & (signed | (arr >= 0.0))):
        raise DomainError("argument must be finite" + ("" if signed else " and nonnegative"))
    return arr, x_in.ndim == 0


def _shaped(scalar: bool, *tables):
    """Tables of shape (orders, len(x)), or (orders,) for scalar input."""
    return tuple(t[:, 0] for t in tables) if scalar else tables


def _forward_logs(nmax: int, x: np.ndarray, c: float, with_derivative: bool):
    """Sign/log tables of h_n(x) for n = 0..nmax, one column per x.

    h_{n+1} = x h_n + c n h_{n-1} from h_0 = 1, h_1 = x: c = -1 gives the
    Hermite polynomials He_n, c = +1 the t_n of the imaginary axis.  The
    forward direction follows the dominant solution of both.  Running
    values are rescaled before they can overflow.  Signs are kept as
    int8, a byte per entry.

    Returns ``(sign, logmag)``, or ``(sign, logmag, dsign, dlogmag)``
    with the derivative companion n h_{n-1} + c (x/2) h_n.
    """
    # Row n + 1 holds h_n, and row 0 the h_{-1} = 0 that starts the run.
    s = np.empty((nmax + 2, x.size), dtype=np.int8)
    l = np.empty((nmax + 2, x.size))
    s[0], l[0], s[1], l[1] = 0, -np.inf, 1, 0.0
    lo, hi = np.zeros_like(x), np.ones_like(x)
    shift = np.zeros_like(x)
    with np.errstate(divide="ignore"):
        for n in range(nmax):
            lo, hi = hi, x * hi + (c * n) * lo
            big = np.abs(hi) > _BIG
            if big.any():
                lo = np.where(big, lo / _BIG, lo)
                hi = np.where(big, hi / _BIG, hi)
                shift = shift + np.where(big, _LOG_BIG, 0.0)
            s[n + 2] = np.sign(hi)
            l[n + 2] = np.log(np.abs(hi)) + shift
        if not with_derivative:
            return s[1:], l[1:]
        ds, dl = _signed_log_sum(
            s[1:] * np.sign(c * x).astype(np.int8), l[1:] + np.log(np.abs(x) / 2.0),
            s[:-1], np.log(np.arange(nmax + 1.0))[:, None] + l[:-1])
    return s[1:], l[1:], ds, dl


def pcf_regular_table(nmax: int, x, with_derivative: bool = False):
    """Sign/log tables of D_n(x) = e^{-x^2/4} He_n(x) for n = 0..nmax, real x.

    He_n runs forward from He_0 = 1, He_1 = x (`_forward_logs`, c = -1),
    and e^{-x^2/4} is added to the logs, so no value underflows at large
    |x|.  The derivative is D_n'(x) = e^{-x^2/4} [n He_{n-1} - (x/2) He_n].

    ``x`` is a scalar or a 1-d array of finite reals of either sign; each
    table has shape (nmax+1, len(x)), or (nmax+1,) for scalar input.
    Returns ``(sign, logmag)``, or ``(sign, logmag, dsign, dlogmag)``.
    Against mpmath, for n <= 200 and |x| <= 60, values are within 4e-13
    relative wherever |D_n| is at least 1% of the local amplitude
    sqrt(D_n^2 + D_{n+1}^2 / (n+1)), and within 1e-13 of that amplitude
    nearer a zero; the derivative is within 2e-13 of the larger of its
    two terms.
    """
    nmax = _check_order(nmax)
    x, scalar = _argument_array(x, signed=True)
    s, l, *deriv = _forward_logs(nmax, x, -1.0, with_derivative)
    quarter = x * x / 4.0
    tables = [s.astype(float), l - quarter]
    if with_derivative:
        tables += [deriv[0], deriv[1] - quarter]
    return _shaped(scalar, *tables)


def pcf_regular_imag_table(nmax: int, x, with_derivative: bool = False):
    """Sign/log tables of the real values i^n D_n(ix), x >= 0.

    i^n D_n(ix) = (-1)^n e^{x^2/4} t_n(x), where t_{n+1} = x t_n + n t_{n-1}
    from t_0 = 1, t_1 = x (`_forward_logs`, c = +1): all coefficients are
    nonnegative, so the forward recurrence is immune to cancellation.
    The derivative combination is
    i^{n+1} D_n'(ix) = (-1)^n e^{x^2/4} [ (x/2) t_n + n t_{n-1} ],
    again a sum of nonnegative terms.

    ``x`` is a scalar or a 1-d array; each table has shape
    (nmax+1, len(x)), or (nmax+1,) for scalar input.
    """
    nmax = _check_order(nmax)
    x, scalar = _argument_array(x)
    s, l, *deriv = _forward_logs(nmax, x, 1.0, with_derivative)
    alt = (-1.0) ** np.arange(nmax + 1)[:, None]
    quarter = x * x / 4.0
    tables = [np.where(s == 0, 0.0, alt), l + quarter]
    if with_derivative:
        tables += [np.where(deriv[0] == 0, 0.0, alt), deriv[1] + quarter]
    return _shaped(scalar, *tables)


# Seed quadratures of the outgoing and Bateman tables: equal Gauss-Legendre
# panels over a window whose ends lie where the log-integrand is _SEED_DROP
# below its peak.
_SEED_DROP = 40.0
_OUTGOING_PANELS, _OUTGOING_NODES = 4, 24
_SEED_PANELS, _SEED_NODES = 8, 24
# The downward recurrence is rescaled by this exact power of two, so the
# table's logs are formed from a mantissa ratio and an integer exponent.
# The exponent multiplies log 2 split Cody-Waite style: the high part has
# trailing zero bits, so its product with any exponent below 2^20 is exact.
_OUTGOING_SCALE_BITS = 800
_LN2_HI = float.fromhex("0x1.62e42fee00000p-1")
_LN2_LO = float.fromhex("0x1.a39ef35793c76p-33")


def _outgoing_seed_ratio(n: int, x: np.ndarray) -> np.ndarray:
    """B_{n+1}(x) / B_n(x) at every x, for n >= 1.

    B_v = e^{-x^2/4} / v! int_0^inf t^v e^{-xt - t^2/2} dt, so the ratio is
    I_{n+1} / ((n + 1) I_n) with I_v the integral.  The log-integrand
    h_v = v log t - x t - t^2/2 is concave, peaked at
    t^ = 2v / (x + sqrt(x^2 + 4v)), with h_v'' = -v/t^2 - 1.  Left of the
    peak h_v'' lies below h_v''(t^) = -1/sigma^2, so h_v is _SEED_DROP
    below its peak at sqrt(2 drop) sigma from t^ and beyond; right of it
    the tangent at that distance bounds h_v.  One window covers both
    orders, whose integrands differ by the factor t, and both are scaled
    by the same peak so that no difference of large logs enters.  Nodes
    run along the last axis, so each x is summed in the same order
    whatever the length of x.
    """
    def h(v, t, x):
        return v * np.log(t) - x * t - 0.5 * t * t

    def window(v):
        peak = 2.0 * v / (x + np.sqrt(x * x + 4.0 * v))
        step = math.sqrt(2.0 * _SEED_DROP) / np.sqrt(v / peak**2 + 1.0)
        t1 = peak + step
        end = t1 + (h(v, peak, x) - _SEED_DROP - h(v, t1, x)) / (v / t1 - x - t1)
        return np.maximum(peak - step, 0.0), end, h(v, peak, x)

    lo, hi, ref = window(n)
    lo1, hi1, _ = window(n + 1)
    lo, hi = np.minimum(lo, lo1)[:, None], np.maximum(hi, hi1)[:, None]
    z, w = panel_grid(np.linspace(0.0, 1.0, _OUTGOING_PANELS + 1), _OUTGOING_NODES)
    t = lo + (hi - lo) * z
    f = w * np.exp(h(n, t, x[:, None]) - ref[:, None])
    return (f * t).sum(axis=1) / f.sum(axis=1) / (n + 1.0)


def pcf_outgoing_table(nmax: int, x, with_derivative: bool = False):
    """Sign/log tables of B_n = D_{-n-1}(x) for n = 0..nmax, x >= 0.

    All values are positive.  B_n is the minimal solution of its order
    recurrence, which runs downward as B_{n-1} = x B_n + (n+1) B_{n+1}
    with every term positive, so rounding errors do not grow.  It starts
    at order nmax + 1 from the ratio B_{nmax+2} / B_{nmax+1}, taken by
    quadrature of the integral representation, and is normalized by the
    closed form B_0 = sqrt(pi/2) erfcx(x/sqrt2) e^{-x^2/4}.  Rescaling by
    powers of two keeps each log a mantissa ratio plus an exact exponent,
    so its rounding is that of the result alone.

    The derivative, when requested, is
    B_n'(x) = -(x/2) B_n - (n+1) B_{n+1}, a sum of same-sign terms.

    ``x`` is a scalar or a 1-d array; each table has shape
    (nmax+1, len(x)), or (nmax+1,) for scalar input.  Returns
    ``(sign, logmag)`` or ``(sign, logmag, dsign, dlogmag)``.
    """
    nmax = _check_order(nmax)
    x, scalar = _argument_array(x)
    top = nmax + 1
    lo, hi = np.ones_like(x), _outgoing_seed_ratio(top, x)
    vals = np.empty((top + 1, x.size))
    scales = np.zeros((top + 1, x.size), dtype=int)
    count = np.zeros(x.size, dtype=int)
    vals[top] = lo
    limit = 2.0**_OUTGOING_SCALE_BITS
    for n in range(top, 0, -1):
        lo, hi = x * lo + (n + 1.0) * hi, lo
        big = lo > limit
        if big.any():
            f = np.where(big, 1.0 / limit, 1.0)
            lo, hi = lo * f, hi * f
            count = count + big
        vals[n - 1] = lo
        scales[n - 1] = count
    mant, expo = np.frexp(vals)
    expo = expo + _OUTGOING_SCALE_BITS * scales
    expo = expo - expo[0]
    log_b0 = 0.5 * math.log(math.pi / 2.0) + np.log(erfcx(x / math.sqrt(2.0))) - x * x / 4.0
    lb = expo * _LN2_HI + (np.log(mant / mant[0]) + log_b0 + expo * _LN2_LO)
    sb = np.ones((nmax + 1, x.size))
    if not with_derivative:
        return _shaped(scalar, sb, lb[:-1])
    with np.errstate(divide="ignore"):
        t1 = lb[:-1] + np.log(x / 2.0)
    t2 = np.log(np.arange(1, nmax + 2, dtype=float))[:, None] + lb[1:]
    _, ld = _signed_log_sum(1.0, t1, 1.0, t2)
    return _shaped(scalar, sb, lb[:-1], -sb, ld)


def _bateman_seeds(n: int, u: np.ndarray):
    """log m_n(u) and log T_n(u), T_n = sum_{k>n} m_k, for n >= 1.

    pi m_n = int_0^inf tanh^2n(t/2) sech^2(t/2) e^{-u cosh t} dt, and T_n's
    integrand is m_n's times sinh^2(t/2).  Both lie below the concave
    h = 2n log tanh(t/2) - u cosh t, peaked at sinh t^ = sqrt(2n/u), and
    at t^ above ref, the log-integrand of m_{n+1} there.  Each window end
    is the tighter of a crude bound (h <= 2n log tanh(t/2) - u below,
    h <= -u cosh t above) and the tangent of h about sqrt(2 drop) sigma
    from t^, where sigma^-2 = -h''(t^) = 2u cosh t^.
    """
    def half_angle_logs(t):  # log tanh(t/2), log cosh(t/2) at any t > 0
        e = np.exp(-t)
        return np.log(-np.expm1(-t)) - np.log1p(e), 0.5 * t + np.log1p(e) - math.log(2.0)

    def tangent_end(t0):  # where the tangent of h at t0 reaches ref - drop
        h0 = 2 * n * half_angle_logs(t0)[0] - u * np.cosh(t0)
        return t0 + (ref - _SEED_DROP - h0) / (2 * n / np.sinh(t0) - u * np.sinh(t0))

    sinh_hat = np.sqrt(2.0 * n / u)
    t_hat = np.arcsinh(sinh_hat)
    lt, lc = half_angle_logs(t_hat)
    ref = 2 * (n + 1) * lt - 2.0 * lc - u * np.sqrt(1.0 + sinh_hat**2)
    step = np.sqrt(_SEED_DROP / u) / (1.0 + sinh_hat**2) ** 0.25
    lo = 2.0 * np.arctanh(np.exp((ref + u - _SEED_DROP) / (2 * n)))
    hi = np.arccosh((_SEED_DROP - ref) / u)
    lo = np.maximum(lo, tangent_end(np.maximum(t_hat - step, 0.5 * t_hat)))
    hi = np.minimum(hi, tangent_end(np.minimum(t_hat + step, hi)))
    x, w = panel_grid(np.linspace(0.0, 1.0, _SEED_PANELS + 1), _SEED_NODES)
    m, tail = np.zeros_like(u), np.zeros_like(u)
    # One panel at a time: no nodes-by-u block of all panels is held.  The
    # sums run node by node, elementwise in u, so each u's seeds are those
    # of a call of its own whatever the other arguments.
    for xp, wp in zip(x.reshape(_SEED_PANELS, -1), w.reshape(_SEED_PANELS, -1)):
        t = lo + (hi - lo) * xp[:, None]
        lt, lc = half_angle_logs(t)
        f = wp[:, None] * np.exp(2 * n * lt - 2.0 * lc - u * np.cosh(t) - ref)
        g = f * np.sinh(0.5 * t) ** 2
        for fi, gi in zip(f, g):
            m += fi
            tail += gi
    scale = ref + np.log((hi - lo) / math.pi)
    return np.log(m) + scale, np.log(tail) + scale


def bateman_m_log(nmax: int, u):
    """log m_n(u) for n = 0..nmax, where m_n(u) = (-1)^n k_{-2n-1}(u) > 0.

    Vectorized over ``u`` (scalar or 1-d array of positive finite reals);
    returns an array of shape (nmax+1, len(u)) or (nmax+1,) for scalar
    input.

    The recurrence (2n-1) m_{n-1} = 2(2n+1+2u) m_n - (2n+3) m_{n+1} runs
    downward as T_{n-1} = T_n + m_n, (2n-1) m_{n-1} = (2n+1) m_n + 4u T_{n-1}
    with the tail sums T_n = sum_{k>n} m_k, from m and T at order nmax + 1
    seeded by their integrals.  Every term is positive, so rounding errors
    do not grow, unlike in the three-term form at small u.  Each column
    is bitwise that of a call with its argument alone.  The table
    matches mpmath to a few 1e-15 relative for u >= 6e-5, and in log to
    |log m| * 1e-16 at large u, over orders to 5000 and u up to 1e4.
    """
    nmax = _check_order(nmax)
    u_arr, scalar = _argument_array(u)
    if not np.all(u_arr > 0.0):
        raise DomainError("u must be positive")
    shift, log_tail = _bateman_seeds(nmax + 1, u_arr)
    m = np.ones_like(u_arr)
    tail = np.exp(log_tail - shift)
    out = np.empty((nmax + 1, u_arr.size))
    for n in range(nmax + 1, 0, -1):
        tail = tail + m
        m = ((2 * n + 1) * m + 4.0 * u_arr * tail) / (2 * n - 1)
        big = m > _BIG
        if big.any():
            f = np.where(big, 1.0 / _BIG, 1.0)
            m = m * f
            tail = tail * f
            shift = shift + np.where(big, _LOG_BIG, 0.0)
        out[n - 1] = np.log(m) + shift
    return _shaped(scalar, out)[0]


def bateman_k_table(nmax: int, u) -> np.ndarray:
    """k_{-2n-1}(u) for n = 0..nmax as plain floats (signs included).

    ``u`` is a scalar or a 1-d array, as for `bateman_m_log`; the table
    has shape (nmax+1, len(u)), or (nmax+1,) for scalar input.
    Magnitudes below the float64 range underflow to zero.  Production
    reads `bateman_m_log`; the signed values feed only the oracles in
    `paracasimir.testing` and the fixture checks.
    """
    logm = bateman_m_log(nmax, u)
    signs = (-1.0) ** np.arange(nmax + 1)
    return (signs[:, None] if logm.ndim == 2 else signs) * np.exp(logm)
