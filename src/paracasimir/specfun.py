"""Stable evaluation of the special functions behind the partial-wave code.

The scattering machinery needs three families of parabolic cylinder
functions at integer order, plus the Bateman k-function that collapses
the plane-to-parabola translation integral at zero tilt:

``pcf_regular``
    D_n(x) for integer n >= 0 and real x (the Hermite-type family).
``pcf_regular_imag``
    The real combinations i^n D_n(ix) and i^(n+1) D_n'(ix) appearing on
    the imaginary axis, computed without complex intermediates.
``pcf_outgoing``
    D_{-n-1}(x) for x >= 0, irregular at the origin.
``bateman_k``
    k_ell(u) = e^{-u} U(-ell/2, 0, 2u) / Gamma(ell/2 + 1) at negative
    integer order ell.

Orders run to several hundred and scaled arguments to about a hundred,
so results are returned in a signed-log representation (`SignedLog`)
that cannot overflow.  Whole-table variants (``*_table`` and
``bateman_m_log``) serve the vectorized consumers in the kernel and
energy modules.

Recurrence directions were chosen by measurement against arbitrary
precision references rather than by rule of thumb.  In particular the
order recurrence for ``D_{-n-1}`` and for the Bateman family is only
usable upward at very small argument; everywhere else both families are
generated by Miller's backward algorithm with closed-form
normalization.  The frozen reference table lives in ``tests/fixtures``
and is produced by ``scripts/gen_specfun_fixtures.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfcx, k0e

__all__ = [
    "DomainError",
    "UnsupportedOrderError",
    "SignedLog",
    "ParabolicPoint",
    "pcf_regular",
    "pcf_regular_imag",
    "pcf_outgoing",
    "pcf_regular_table",
    "pcf_regular_imag_table",
    "pcf_outgoing_table",
    "bateman_k",
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


class UnsupportedOrderError(ValueError):
    """The requested order is outside the range this library evaluates."""


@dataclass(frozen=True)
class SignedLog:
    """A real number stored as sign and natural log of magnitude.

    ``sign`` is -1, 0 or +1; the represented value is
    ``sign * exp(logmag)``.  Zero is encoded as ``sign = 0`` with
    ``logmag = -inf``.  Products compose by multiplying signs and adding
    log magnitudes, which is how factorially large amplitudes are kept
    finite throughout the kernel assembly.
    """

    sign: int
    logmag: float

    @classmethod
    def from_value(cls, value: float) -> "SignedLog":
        if value == 0.0:
            return cls(0, -math.inf)
        return cls(1 if value > 0 else -1, math.log(abs(value)))

    @property
    def value(self) -> float:
        """The represented float, possibly under- or overflowing to 0/inf."""
        if self.sign == 0:
            return 0.0
        return self.sign * math.exp(self.logmag)

    def __mul__(self, other: "SignedLog") -> "SignedLog":
        if self.sign == 0 or other.sign == 0:
            return SignedLog(0, -math.inf)
        return SignedLog(self.sign * other.sign, self.logmag + other.logmag)

    def __truediv__(self, other: "SignedLog") -> "SignedLog":
        if other.sign == 0:
            raise ZeroDivisionError("division by an exactly zero SignedLog")
        if self.sign == 0:
            return SignedLog(0, -math.inf)
        return SignedLog(self.sign * other.sign, self.logmag - other.logmag)


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

    @classmethod
    def from_cartesian(cls, x: float, y: float, z: float = 0.0) -> "ParabolicPoint":
        """Invert the coordinate map, choosing mu >= 0 and sign(lam) = sign(x).

        The differences r - y and r + y are formed cancellation-free so
        the round trip through ``to_cartesian`` is accurate to machine
        precision for all quadrants.
        """
        r = math.hypot(x, y)
        if r == 0.0:
            return cls(0.0, 0.0, z)
        if y >= 0.0:
            lam2 = r + y
            mu2 = x * x / lam2
        else:
            mu2 = r - y
            lam2 = x * x / mu2
        lam = math.sqrt(lam2)
        if x < 0.0:
            lam = -lam
        elif x == 0.0 and y < 0.0:
            lam = 0.0
        return cls(lam, math.sqrt(mu2), z)


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
    s1 = np.asarray(s1, float)
    l1 = np.asarray(l1, float)
    s2 = np.asarray(s2, float)
    l2 = np.asarray(l2, float)
    m = np.maximum(l1, l2)
    m = np.where(np.isneginf(m), 0.0, m)
    with np.errstate(invalid="ignore"):
        v = s1 * np.exp(l1 - m) + s2 * np.exp(l2 - m)
    sign = np.sign(v)
    with np.errstate(divide="ignore"):
        logmag = np.where(v != 0.0, np.log(np.abs(v)) + m, -np.inf)
    return sign, logmag


def pcf_regular_table(nmax: int, x: float, with_derivative: bool = False):
    """Sign/log tables of D_n(x) for n = 0..nmax, real x.

    Uses the order recurrence D_{n+1} = x D_n - n D_{n-1} seeded at
    D_0 = e^{-x^2/4}, D_1 = x e^{-x^2/4}; this direction follows the
    dominant solution and is stable for the regular family.  Running
    values are rescaled before they can overflow.

    Returns ``(sign, logmag)``, or ``(sign, logmag, dsign, dlogmag)``
    with the derivative from D_n'(x) = n D_{n-1}(x) - (x/2) D_n(x).
    """
    nmax = _check_order(nmax)
    x = float(x)
    if not math.isfinite(x):
        raise DomainError("argument must be finite")
    s = np.zeros(nmax + 1)
    l = np.full(nmax + 1, -np.inf)
    lo = math.exp(-x * x / 4.0)
    hi = x * lo
    shift = 0.0
    s[0], l[0] = 1.0, -x * x / 4.0
    if nmax >= 1 and hi != 0.0:
        s[1] = math.copysign(1.0, hi)
        l[1] = math.log(abs(hi))
    for n in range(1, nmax):
        nxt = x * hi - n * lo
        lo, hi = hi, nxt
        a = max(abs(lo), abs(hi))
        if a > _BIG:
            lo /= _BIG
            hi /= _BIG
            shift += _LOG_BIG
        if hi != 0.0:
            s[n + 1] = math.copysign(1.0, hi)
            l[n + 1] = math.log(abs(hi)) + shift
    if not with_derivative:
        return s, l
    ds = np.zeros(nmax + 1)
    dl = np.full(nmax + 1, -np.inf)
    n_arr = np.arange(1, nmax + 1, dtype=float)
    if x != 0.0:
        t2s, t2l = -s * math.copysign(1.0, x), l + math.log(abs(x)) - math.log(2.0)
    else:
        t2s, t2l = np.zeros(nmax + 1), np.full(nmax + 1, -np.inf)
    ds[0], dl[0] = t2s[0], t2l[0]
    if nmax >= 1:
        s1, l1 = s[:-1].copy(), l[:-1] + np.log(n_arr)
        ds[1:], dl[1:] = _signed_log_sum(s1, l1, t2s[1:], t2l[1:])
    return s, l, ds, dl


def pcf_regular(n: int, x: float, with_derivative: bool = False):
    """D_n(x) for integer n >= 0 and real x, as a SignedLog.

    With ``with_derivative`` returns the pair (D_n(x), D_n'(x)).
    Relative accuracy is at the 1e-13 level for n <= 200, |x| <= 50,
    except within a rounding-dominated neighborhood of a zero of the
    function itself.
    """
    n = _check_order(n)
    if with_derivative:
        s, l, ds, dl = pcf_regular_table(n, x, with_derivative=True)
        return (SignedLog(int(s[n]), float(l[n])), SignedLog(int(ds[n]), float(dl[n])))
    s, l = pcf_regular_table(n, x)
    return SignedLog(int(s[n]), float(l[n]))


def pcf_regular_imag_table(nmax: int, x: float, with_derivative: bool = False):
    """Sign/log tables of the real values i^n D_n(ix), x >= 0.

    Writing i^n D_n(ix) = (-1)^n e^{x^2/4} t_n(x), the auxiliary t_n
    satisfies t_{n+1} = x t_n + n t_{n-1} with t_0 = 1, t_1 = x: all
    coefficients are nonnegative, so the forward recurrence is immune to
    cancellation.  The derivative combination is
    i^{n+1} D_n'(ix) = (-1)^n e^{x^2/4} [ (x/2) t_n + n t_{n-1} ],
    again a sum of nonnegative terms.
    """
    nmax = _check_order(nmax)
    x = float(x)
    if x < 0 or not math.isfinite(x):
        raise DomainError("argument must be finite and nonnegative")
    logt = np.full(nmax + 2, -np.inf)
    lo, hi = 1.0, x
    shift = 0.0
    logt[0] = 0.0
    if x > 0.0:
        logt[1] = math.log(x)
    for n in range(1, nmax + 1):
        nxt = x * hi + n * lo
        lo, hi = hi, nxt
        if hi > _BIG:
            lo /= _BIG
            hi /= _BIG
            shift += _LOG_BIG
        if hi > 0.0:
            logt[n + 1] = math.log(hi) + shift
    n_arr = np.arange(nmax + 1)
    quarter = x * x / 4.0
    sv = np.where(np.isneginf(logt[:-1]), 0.0, (-1.0) ** n_arr)
    lv = logt[:-1] + quarter
    if not with_derivative:
        return sv, lv
    t1 = logt[:-1] + (math.log(x / 2.0) if x > 0.0 else -np.inf)
    t2 = np.full(nmax + 1, -np.inf)
    if nmax >= 1:
        t2[1:] = np.log(n_arr[1:].astype(float)) + logt[:-2][: nmax]
    m = np.maximum(t1, t2)
    m = np.where(np.isneginf(m), 0.0, m)
    mag = np.exp(t1 - m) + np.exp(t2 - m)
    with np.errstate(divide="ignore"):
        ld = np.where(mag > 0.0, np.log(mag) + m + quarter, -np.inf)
    sd = np.where(mag > 0.0, (-1.0) ** n_arr, 0.0)
    return sv, lv, sd, ld


def pcf_regular_imag(n: int, x: float, with_derivative: bool = False):
    """The real number i^n D_n(ix) for x >= 0, as a SignedLog.

    With ``with_derivative`` also returns the real number
    i^{n+1} D_n'(ix).  No complex arithmetic is performed.
    """
    n = _check_order(n)
    if with_derivative:
        sv, lv, sd, ld = pcf_regular_imag_table(n, x, with_derivative=True)
        return (SignedLog(int(sv[n]), float(lv[n])), SignedLog(int(sd[n]), float(ld[n])))
    sv, lv = pcf_regular_imag_table(n, x)
    return SignedLog(int(sv[n]), float(lv[n]))


# Below this argument the upward order recurrence for D_{-n-1} keeps full
# accuracy (measured against the reference table); beyond it the minimal
# solution character takes over and Miller's backward algorithm is used.
_OUTGOING_UPWARD_MAX = 0.15


def pcf_outgoing_table(nmax: int, x: float, with_derivative: bool = False):
    """Sign/log tables of B_n = D_{-n-1}(x) for n = 0..nmax, x >= 0.

    All values are positive.  For x <= 0.15 the upward recurrence
    B_{n+1} = (B_{n-1} - x B_n)/(n+1) from the closed-form seeds
    B_{-1} = D_0 = e^{-x^2/4} and B_0 = sqrt(pi/2) erfcx(x/sqrt2) e^{-x^2/4}
    is accurate.  For larger x that direction diverges from the true
    minimal solution (relative error grows without bound by n of a few
    hundred), so the table is generated backward from a start order well
    above nmax and normalized by the closed-form B_0.

    The derivative, when requested, is
    B_n'(x) = -(x/2) B_n - (n+1) B_{n+1}, a sum of same-sign terms.

    Returns ``(sign, logmag)`` or ``(sign, logmag, dsign, dlogmag)``.
    """
    nmax = _check_order(nmax)
    x = float(x)
    if x < 0 or not math.isfinite(x):
        raise DomainError("argument must be finite and nonnegative")
    lb = np.empty(nmax + 2)
    log_b0 = 0.5 * math.log(math.pi / 2.0) + math.log(erfcx(x / math.sqrt(2.0))) - x * x / 4.0
    if x <= _OUTGOING_UPWARD_MAX:
        lo = math.exp(-x * x / 4.0)
        hi = math.exp(log_b0)
        shift = 0.0
        lb[0] = log_b0
        for n in range(0, nmax + 1):
            nxt = (lo - x * hi) / (n + 1.0)
            lo, hi = hi, nxt
            if 0.0 < hi < 1.0 / _BIG:
                lo *= _BIG
                hi *= _BIG
                shift -= _LOG_BIG
            lb[n + 1] = math.log(hi) + shift
    else:
        nstart = int((math.sqrt(nmax + 2.0) + 20.0 / x) ** 2) + 8
        nstart = max(nstart, nmax + 10)
        v_hi, v_lo = 0.0, 1.0
        shift = 0.0
        logs = np.empty(nmax + 2)
        shifts = np.empty(nmax + 2)
        for n in range(nstart, 0, -1):
            v_prev = x * v_lo + (n + 1.0) * v_hi
            v_hi, v_lo = v_lo, v_prev
            if v_lo > _BIG:
                v_lo /= _BIG
                v_hi /= _BIG
                shift += _LOG_BIG
            if n - 1 <= nmax + 1:
                # value is finalized here; its true magnitude carries the
                # rescales applied up to this point
                logs[n - 1] = math.log(v_lo)
                shifts[n - 1] = shift
        lraw = logs + shifts
        lb = lraw - lraw[0] + log_b0
    sb = np.ones(nmax + 1)
    if not with_derivative:
        return sb, lb[:-1]
    t1 = lb[:-1] + (math.log(x / 2.0) if x > 0.0 else -np.inf)
    t2 = np.log(np.arange(1, nmax + 2, dtype=float)) + lb[1:]
    m = np.maximum(t1, t2)
    ld = m + np.log(np.exp(t1 - m) + np.exp(t2 - m))
    return sb, lb[:-1], -np.ones(nmax + 1), ld


def pcf_outgoing(n: int, x: float, with_derivative: bool = False):
    """D_{-n-1}(x) for integer n >= 0 and x >= 0, as a SignedLog.

    With ``with_derivative`` returns the pair (D_{-n-1}(x), D_{-n-1}'(x)).
    """
    n = _check_order(n)
    if with_derivative:
        sb, lb, sd, ld = pcf_outgoing_table(n, x, with_derivative=True)
        return (SignedLog(int(sb[n]), float(lb[n])), SignedLog(int(sd[n]), float(ld[n])))
    sb, lb = pcf_outgoing_table(n, x)
    return SignedLog(int(sb[n]), float(lb[n]))


def bateman_m_log(nmax: int, u):
    """log m_n(u) for n = 0..nmax, where m_n(u) = (-1)^n k_{-2n-1}(u) > 0.

    Vectorized over ``u`` (scalar or 1-d array of positive reals);
    returns an array of shape (nmax+1, len(u)) or (nmax+1,) for scalar
    input.

    The m_n satisfy the three-term order recurrence

        (2n - 1) m_{n-1} = 2 (2n + 1 + 2u) m_n - (2n + 3) m_{n+1}

    whose downward direction follows the dominant solution.  The table
    is seeded at a start order far enough above nmax for the Miller
    iteration to converge (the offset grows like 1/sqrt(u), calibrated
    against high-precision references over u in [1e-3, 100] and orders
    to several thousand) and normalized through the closed sum rule
    sum_{n>=0} m_n(u) = K_0(u)/pi.  The sum covers every generated order
    down from the start index, not just the requested ones; at small u a
    percent-level fraction of the sum lives above nmax.
    """
    nmax = _check_order(nmax)
    u_in = np.asarray(u, dtype=float)
    scalar = u_in.ndim == 0
    u_arr = np.atleast_1d(u_in)
    if u_arr.size == 0:
        raise DomainError("u must be nonempty")
    if not np.all(u_arr > 0.0):
        raise DomainError("u must be positive")
    nstart = int((math.sqrt(nmax + 1.0) + 12.0 / math.sqrt(2.0 * u_arr.min())) ** 2) + 10
    nstart = max(nstart, nmax + 10)
    v_hi = np.zeros_like(u_arr)
    v_lo = np.ones_like(u_arr)
    total = np.ones_like(u_arr)
    shift = np.zeros_like(u_arr)
    logs = np.empty((nmax + 1, u_arr.size))
    shifts = np.empty_like(logs)
    for n in range(nstart, 0, -1):
        v_prev = (2.0 * (2 * n + 1 + 2 * u_arr) * v_lo - (2 * n + 3) * v_hi) / (2 * n - 1)
        v_hi, v_lo = v_lo, v_prev
        total += v_lo
        big = v_lo > _BIG
        if big.any():
            f = np.where(big, 1.0 / _BIG, 1.0)
            v_lo = v_lo * f
            v_hi = v_hi * f
            total = total * f
            shift = shift + np.where(big, _LOG_BIG, 0.0)
        if n - 1 <= nmax:
            logs[n - 1] = np.log(v_lo)
            shifts[n - 1] = shift
    # Entry n has true magnitude proportional to exp(logs[n] + shifts[n]);
    # the running sum sits in the final frame, so its log is
    # log(total) + shift.  The sum rule pins the overall scale.
    log_target = np.log(k0e(u_arr) / np.pi) - u_arr
    out = logs + shifts - (np.log(total) + shift) + log_target
    return out[:, 0] if scalar else out


def bateman_k_table(nmax: int, u: float) -> np.ndarray:
    """k_{-2n-1}(u) for n = 0..nmax as plain floats (signs included).

    Magnitudes below the float64 range underflow to zero, which is
    harmless in the kernel sums these feed.
    """
    logm = bateman_m_log(nmax, float(u))
    signs = (-1.0) ** np.arange(nmax + 1)
    return signs * np.exp(logm)


def bateman_k(ell: int, u: float) -> float:
    """The Bateman function k_ell(u) for integer ell <= -1 and u > 0.

    k_ell(u) = e^{-u} U(-ell/2, 0, 2u) / Gamma(ell/2 + 1).  For negative
    even ell the reciprocal gamma factor vanishes and the result is an
    exact zero.  Orders ell >= 0 are not evaluated here.
    """
    if not isinstance(ell, (int, np.integer)) or isinstance(ell, bool):
        raise DomainError(f"order must be an integer, got {ell!r}")
    if ell >= 0:
        raise UnsupportedOrderError("only negative orders are supported")
    u = float(u)
    if not u > 0.0:
        raise DomainError("u must be positive")
    if ell % 2 == 0:
        return 0.0
    n = (-ell - 1) // 2
    logm = bateman_m_log(n, u)
    return (-1.0) ** n * math.exp(logm[n])
