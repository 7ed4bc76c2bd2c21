"""Interaction energies from frequency-integrated log-determinants.

The zero-temperature interaction energy per unit length between the
parabolic cylinder and the plane is

    E / (hbar c L) = (1 / 4 pi) Integral_0^inf q dq [g_D(q) + g_N(q)],

with g = log det(1 - N) per boundary condition; the two polarizations
of the electromagnetic field decompose exactly into the Dirichlet and
Neumann scalar channels.  Working in the scaled variable x = q H makes
the integrand depend on geometry ratios only, so every energy here
carries the overall 1/H^2 explicitly.

Three regimes share the machinery: the quantum energy
(`energy_per_length`, `c_theta`), the classical high-temperature
coefficient (`classical_coefficient`, the n = 0 Matsubara term alone),
and finite temperature (`thermal_energy`, a Matsubara sum of
frequency-shifted integrals).

Truncation in the partial-wave order converges smoothly but slowly
enough to matter at the quoted accuracies, so results are computed on
a ladder of orders and extrapolated by `extrapolate_numax`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from ._quad import expmap_grid, panel_grid, panel_interp
from .specfun import DomainError, _check_order
from .scattering import BoundaryMode, Geometry
from .roundtrip import PhysicalRegimeError, _PivotFailure, kernel_blocks, logdet_one_minus
from .translation import AccuracyError

__all__ = [
    "FitRejectedError",
    "QuadratureSpec",
    "EnergyResult",
    "default_quadrature",
    "energy_per_length",
    "extrapolate_numax",
    "c_theta",
    "classical_coefficient",
    "thermal_energy",
]

_CHANNELS = {
    "em": (BoundaryMode.DIRICHLET, BoundaryMode.NEUMANN),
    "dirichlet": (BoundaryMode.DIRICHLET,),
    "neumann": (BoundaryMode.NEUMANN,),
}


class FitRejectedError(RuntimeError):
    """The truncation series did not admit a trustworthy extrapolation."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Frequency-integration settings, all in the scaled variable x = q H.

    The integrand is strongly peaked around x ~ 0.3 and dies
    exponentially at large x, so the grid places ``panel_count``
    Gauss-Legendre panels of ``node_count`` nodes uniformly in log x
    between ``qmin_scaled`` and ``qmax_scaled``.  The default, 12 panels
    of 10 nodes about 0.72 wide in ln x, puts the top rung within 1e-3
    of its error budget of a grid with three times the panels and twice
    the nodes on every geometry `scripts/check_freq_grid.py` checks.
    ``tolerance`` is the relative accuracy the caller is aiming for; it
    controls adaptive cutoffs such as the Matsubara-sum truncation, not
    the fixed grid.
    """

    node_count: int = 10
    panel_count: int = 12
    qmin_scaled: float = 0.3 * math.exp(-5.0)
    qmax_scaled: float = 0.3 * math.exp(3.6)
    tolerance: float = 1e-6

    def __post_init__(self):
        for count in (self.node_count, self.panel_count):
            if not isinstance(count, (int, np.integer)) or isinstance(count, bool):
                raise DomainError(f"node and panel counts must be integers, got {count!r}")
        if self.node_count < 2 or self.panel_count < 1:
            raise DomainError("node_count must be >= 2 and panel_count >= 1")
        if not 0.0 < self.qmin_scaled < self.qmax_scaled < math.inf:
            raise DomainError("need 0 < qmin_scaled < qmax_scaled < inf")
        if not 0.0 < self.tolerance < math.inf:
            raise DomainError("tolerance must be finite and positive")


def default_quadrature(geom: Geometry) -> QuadratureSpec:
    """Grid suited to the geometry.

    A finite radius pushes spectral weight to higher x because the
    natural decay scale is the gap H while the kernel argument involves
    the focal distance d = H + R/2, so the upper cutoff moves out.
    """
    if geom.R > 0.0:
        return QuadratureSpec(qmax_scaled=0.3 * math.exp(4.2))
    return QuadratureSpec()


@dataclass(frozen=True)
class EnergyResult:
    """Energy per unit length with its numerical error budget.

    ``value`` is the energy at the largest truncation order of
    ``series``; ``extrapolated`` is the infinite-order estimate.  Both
    are E/(hbar c L), negative for attraction.  ``trunc_error`` bounds
    the truncation-plus-fit uncertainty of ``extrapolated``, and is
    infinite for a series of one order, which gives no estimate;
    ``quad_error`` is a node-doubling estimate of the error of the
    frequency grid and of a Matsubara sum's table.
    """

    value: float
    series: list
    extrapolated: float
    trunc_error: float
    quad_error: float
    channel: str


def _grid(spec: QuadratureSpec):
    return expmap_grid(spec.qmin_scaled, spec.qmax_scaled,
                       spec.panel_count, spec.node_count)


def _series_orders(nu_max) -> list:
    """Truncation ladder: either an explicit sequence or an octave run."""
    if np.ndim(nu_max) == 0:
        top = _check_order(nu_max)
        orders = sorted({max(8, top // k) for k in (8, 4, 2, 1)})
        return [n for n in orders if n <= top] or [top]
    orders = sorted(_check_order(n) for n in nu_max)
    if not orders or len(set(orders)) < len(orders):
        raise DomainError("nu_max must be a nonempty sequence, each order given only once")
    return orders


def _modes(channel: str):
    try:
        return _CHANNELS[channel]
    except KeyError:
        raise DomainError(
            f"channel must be one of {sorted(_CHANNELS)}, got {channel!r}") from None


# What `_g_series` says of a block whose factorization failed, by the
# `_PivotFailure` kind: x is the node, nu the last partial-wave order of
# the rows reached.
_FAILURES = {
    "minor": "1 - N is not positive definite at x = {x:g}: positivity is lost at partial-wave "
             "order {nu}; increase quadrature resolution or check the geometry",
    "nonfinite": "kernel contains nonfinite entries at x = {x:g}, partial-wave order {nu}",
    "gram": "1 - N is not positive definite at x = {x:g}: the Gram matrix of its factor up "
            "to nu = {nu} has an eigenvalue of at least one; check the geometry",
}


def _g_series(geom: Geometry, x: np.ndarray, orders: list, channel: str) -> np.ndarray:
    """log det(1 - N) summed over the channel's boundary modes.

    Returns an array of shape (len(orders), len(x)); entry [j, i] is
    g at scaled frequency x[i] truncated at order orders[j].  The
    kernel's blocks are assembled at the largest order, for runs of
    consecutive nodes at once, and the smaller truncations are their
    leading blocks, which is exact because entries do not depend on the
    truncation.  Each block, a stack of matrices or of factors, then
    yields every rung at every node of the run from one
    `logdet_one_minus` call.  `kernel_blocks` may end a node's block at
    a lower rung, when no order above it can move 1 - N; searching the
    ladder in the shortened orders then maps every higher rung onto its
    last.  A ladder of one rung takes the rank cut too.  A loss of
    positivity raises `PhysicalRegimeError` naming the node and the
    partial-wave order where it showed (on the Gram side of a factor,
    the last order of the first rung whose Gram failed), as does a
    nonfinite entry of a block.
    """
    x = np.asarray(x, dtype=float)
    out = np.zeros((len(orders), x.size))
    try:
        for nodes, blocks in kernel_blocks(geom, x / geom.H, orders, _modes(channel)):
            for idx, block, factored in blocks:
                at = (nodes, idx)
                cuts = np.searchsorted(idx, orders, side="right")
                out[:, nodes] += logdet_one_minus(block, cuts, factored=factored).T
            # Let go of this run's blocks before the next run is built.
            blocks = block = None
    except _PivotFailure as err:
        # A failure inside `kernel_blocks` says where it was; the others
        # were in the block last factored.
        nodes, idx = err.where or at
        raise PhysicalRegimeError(_FAILURES[err.kind].format(
            x=x[nodes][err.matrix], nu=idx[err.rows - 1])) from None
    return out


def _bisect(f, lo: float, hi: float):
    """Root of f in [lo, hi] by bisection, or None without a sign change.

    The bracket is halved until it is at most 2e-12 + 4 eps |x| wide,
    x its midpoint, which is returned.  An endpoint where f is zero is
    returned as is; otherwise the endpoints must differ in the sign bit
    of f (a product of two tiny values would underflow to zero).
    """
    flo, fhi = f(lo), f(hi)
    if flo == 0.0 or fhi == 0.0:
        return lo if flo == 0.0 else hi
    side = math.copysign(1.0, flo)
    if side == math.copysign(1.0, fhi):
        return None
    while True:
        mid = (lo + hi) / 2
        if hi - lo <= 2e-12 + 4 * sys.float_info.epsilon * abs(mid):
            return mid
        if math.copysign(1.0, f(mid)) == side:
            lo = mid
        else:
            hi = mid


def _geometric_limit(n: np.ndarray, v: np.ndarray):
    """Limit of v = v_inf + A rho^n fitted to the last three points."""
    d1, d2 = v[-2] - v[-3], v[-1] - v[-2]
    h1, h2 = n[-2] - n[-3], n[-1] - n[-2]
    target = d2 / d1

    def mismatch(rho):
        return rho ** h1 * (rho ** h2 - 1.0) / (rho ** h1 - 1.0) - target

    rho = _bisect(mismatch, 1e-12, 1.0 - 1e-9)
    if rho is None:
        return None
    frac = rho ** h2
    return float(v[-1] + d2 * frac / (1.0 - frac)), rho


def _algebraic_limit(n: np.ndarray, v: np.ndarray):
    """Limit of v = v_inf + B n^(-p) fitted to the last three points."""
    d1, d2 = v[-2] - v[-3], v[-1] - v[-2]
    n1, n2, n3 = n[-3:]
    target = d1 / d2

    def mismatch(p):
        return (n1 ** -p - n2 ** -p) / (n2 ** -p - n3 ** -p) - target

    p = _bisect(mismatch, 0.05, 16.0)
    if p is None:
        return None
    # b = -B: the last increment is B (n3^-p - n2^-p).
    b = d2 / (n2 ** -p - n3 ** -p)
    return float(v[-1] + b * n3 ** -p), p


def extrapolate_numax(series) -> tuple:
    """Estimate the infinite-order limit of a truncation series.

    ``series`` is a sequence of at least four (nu_max, value) pairs,
    each order a nonnegative integer given once and each value finite
    (else `DomainError`).  Two tail models are fit to the last three
    points: geometric, v = v_inf + A rho^n, and algebraic,
    v = v_inf + B n^(-p), each by solving for rho in [1e-12, 1 - 1e-9]
    or p in [0.05, 16] with `_bisect`, which halves the bracket until it
    is at most 2e-12 + 4 eps |x| wide; a model whose equation does not
    change sign there drops out.  Whichever model back-predicts the
    earlier points better supplies the limit; the reported error
    combines the spread between the models with the size of the
    modeled remainder, so disagreement between the tail laws shows up
    honestly rather than being averaged away.

    A series of fewer than two points has no truncation estimate and
    raises `FitRejectedError`; a constant series short-circuits to
    (constant, 0).  Increments that fail to shrink monotonically with
    one sign raise `FitRejectedError` too: extrapolating such a series
    would be guesswork, and the caller should raise nu_max instead.
    """
    pts = sorted((_check_order(n), float(v)) for n, v in series)
    if len({p[0] for p in pts}) < len(pts):
        raise DomainError("each truncation order may be given only once")
    if not all(math.isfinite(p[1]) for p in pts):
        raise DomainError("truncation series values must be finite")
    if len(pts) < 2:
        raise FitRejectedError("need at least two orders to estimate the truncation error")
    n = np.array([p[0] for p in pts], dtype=float)
    v = np.array([p[1] for p in pts])
    if np.all(v == v[0]):
        return float(v[0]), 0.0
    if len(pts) < 4:
        raise FitRejectedError("need at least four distinct orders to extrapolate")
    d = np.diff(v)
    if np.any(d == 0.0):
        return float(v[-1]), float(np.max(np.abs(d)))
    if len(set(np.sign(d))) != 1:
        raise FitRejectedError("increments change sign; series is not monotone")
    if np.any(np.abs(d[1:]) >= np.abs(d[:-1])):
        raise FitRejectedError("increments are not contracting")

    fits = {}
    geo = _geometric_limit(n, v)
    if geo is not None:
        lim, rho = geo
        pred = lim + (v[-1] - lim) * rho ** (n - n[-1])
        fits["geometric"] = (lim, float(np.max(np.abs(pred - v))))
    alg = _algebraic_limit(n, v)
    if alg is not None:
        lim, p = alg
        b = (v[-1] - lim) * n[-1] ** p
        pos = n > 0  # the model has no value at order 0
        pred = lim + b * n[pos] ** -p
        fits["algebraic"] = (lim, float(np.max(np.abs(pred - v[pos]))))
    if not fits:
        raise FitRejectedError("neither tail model brackets the increment ratio")
    limit = min(fits.values(), key=lambda t: t[1])[0]
    spread = max(f[0] for f in fits.values()) - min(f[0] for f in fits.values())
    err = spread + abs(limit - v[-1]) * abs(d[-1] / d[-2])
    return float(limit), float(err)


def _finish(evaluate, spec: QuadratureSpec, orders: list, channel: str) -> EnergyResult:
    """Energy result with its error budget from one ladder evaluation.

    ``evaluate(spec, orders)`` returns the energy at each truncation
    order.  The ladder is extrapolated (falling back to the top rung,
    with the last increment as its error, when the fit is rejected; a
    ladder of one rung has no increment, and its error is infinite) and
    the lowest rung is recomputed with doubled frequency nodes for the
    quadrature error.  A nonfinite value on any rung or on the check,
    or a quadrature error above 1e-3 of the value, raises
    `AccuracyError` before the ladder is extrapolated: the frequency
    grid, not the physics, would be setting the answer.
    """
    values = evaluate(spec, orders)
    series = [(o, float(val)) for o, val in zip(orders, values)]
    value = float(values[-1])
    fine = replace(spec, node_count=2 * spec.node_count)
    check = float(evaluate(fine, orders[:1])[0])
    quad_error = abs(check - float(values[0]))
    if not (np.all(np.isfinite(values)) and quad_error <= 1e-3 * max(abs(value), 1e-30)):
        raise AccuracyError("frequency quadrature did not converge", quad_error)
    try:
        extrapolated, fit_err = extrapolate_numax(series)
        trunc_error = abs(extrapolated - value) + fit_err
    except FitRejectedError:
        extrapolated = value
        trunc_error = abs(values[-1] - values[-2]) if len(values) > 1 else math.inf
    return EnergyResult(value, series, float(extrapolated), float(trunc_error),
                        quad_error, channel)


def energy_per_length(geom: Geometry, spec: QuadratureSpec | None = None,
                      nu_max=100, channel: str = "em") -> EnergyResult:
    """Casimir interaction energy per unit length, E/(hbar c L).

    ``nu_max`` may be a single order (expanded into the octave ladder
    nu_max/8, /4, /2, /1) or an explicit sequence of orders, each given
    once (a repeated order raises `DomainError`).  The
    returned ``value`` belongs to the largest order; ``extrapolated``
    is the series limit, falling back to ``value`` when the fit is
    rejected.  A gross disagreement under node doubling raises
    `AccuracyError`, since it means the frequency grid, not the
    physics, is setting the answer.
    """
    _modes(channel)
    if spec is None:
        spec = default_quadrature(geom)
    h2 = geom.H * geom.H

    def evaluate(spec: QuadratureSpec, orders: list) -> np.ndarray:
        x, wq = _grid(spec)
        return (_g_series(geom, x, orders, channel) @ (wq * x)) / (4.0 * math.pi * h2)

    return _finish(evaluate, spec, _series_orders(nu_max), channel)


def c_theta(theta: float, nu_max=100, spec: QuadratureSpec | None = None,
            channel: str = "em") -> EnergyResult:
    """Tilt coefficient c(theta) = cos(theta) C(theta) of the knife edge.

    C(theta) = -H^2 E/(hbar c L) for the half-plane at tilt theta, which
    diverges at broadside; c stays finite.  The `EnergyResult` holds
    -cos(theta) times the energy at H = 1 on the ladder ``nu_max`` as
    given, and cos(theta) times its errors; at |theta| = pi/2 it holds
    the exact parallel-plate value pi^2/1440 (half of it per boundary
    condition) with an empty series.  Near broadside a short ladder
    falls short of the limit, and ``trunc_error`` says by how much.
    """
    _modes(channel)
    if abs(abs(theta) - math.pi / 2.0) < 1e-12:
        exact = math.pi ** 2 / (1440.0 if channel == "em" else 2880.0)
        return EnergyResult(exact, [], exact, 0.0, 0.0, channel)
    res = energy_per_length(Geometry(R=0.0, H=1.0, theta=theta), spec, nu_max, channel)
    cos = math.cos(theta)
    return replace(res, value=-cos * res.value,
                   series=[(n, -cos * v) for n, v in res.series],
                   extrapolated=-cos * res.extrapolated,
                   trunc_error=cos * res.trunc_error, quad_error=cos * res.quad_error)


def classical_coefficient(nu_max: int = 200, channel: str = "em") -> float:
    """High-temperature coefficient of the knife edge at zero tilt.

    This is the n = 0 Matsubara term alone: the energy per length
    approaches -(T H / hbar c) * C / H^2 with C the value returned
    here.  The frequency integral needs care at both ends: the
    integrand grows logarithmically at small x and dies off
    exponentially above x ~ 10, so the grid has 10 Gauss nodes on each
    panel, the panels at most 0.5 wide in ln x.  Each parity block of
    the kernel holds nu_max // 2 + 1 orders, twice as many below
    x = 2e-2, where the k-functions of argument 2x decay slowly in the
    order; below the grid's x = 3e-5 a fitted a ln x + b tail takes
    over.  At nu_max = 200 the blocks of 202 orders take the rank cut
    (`roundtrip`), and one call takes 0.04 to 0.07 s on a busy 2-vCPU
    Xeon with one BLAS thread (0.03 to 0.04 s for one channel), about
    40% of it in the log-dets.
    """
    nu_max = _check_order(nu_max)
    xmin, xmax = 3e-5, 11.0
    npan = math.ceil(math.log(xmax / xmin) / 0.5)
    x, wx = expmap_grid(xmin, xmax, npan, 10)
    # At truncation order 2 mult base - 1 both parity blocks hold mult base orders.
    base = nu_max // 2 + 1
    g = np.zeros(x.size)
    for mult, sel in ((1, x >= 2e-2), (2, x < 2e-2)):
        order = 2 * mult * base - 1
        g[sel] = _g_series(Geometry(0.0, 1.0), x[sel], [order], channel)[0]
    total = float(np.sum(wx * g))
    sel = x <= 4.0 * xmin
    coef, *_ = np.linalg.lstsq(
        np.column_stack([np.log(x[sel]), np.ones(int(np.count_nonzero(sel)))]),
        g[sel], rcond=None)
    tail = xmin * (coef[0] * (math.log(xmin) - 1.0) + coef[1])
    return float(-(total + tail) / (2.0 * math.pi))


_Z_EDGES = (0.25, 0.6, 1.1, 1.8, 2.8, 4.2, 6.2, 9.0, 13.0, 18.5)


def _matsubara_sum(geom: Geometry, T_scaled: float, orders: list,
                   channel: str, spec: QuadratureSpec) -> np.ndarray:
    """Matsubara sum, n = 0 at half weight, one value per order.

    The n = 0 term is the frequency integral on the spec's grid.  A term
    n >= 1, (1/pi) Int dz g(sqrt(x_n^2 + z^2)) on z-panels up to the
    cutoff, reads g by barycentric Lagrange interpolation from one table:
    Gauss-Legendre panels of ``node_count`` nodes uniform in ln x over
    [2 pi T_scaled, qmax_scaled], each at most half as wide as the grid's.
    The grid and the table, O(ln(1/T)) nodes, are evaluated in one
    `_g_series` call.  The terms, about qmax_scaled / (2 pi T_scaled) of
    them unless the stop test fires first, are added one at a time in
    order of n, each from its own z-nodes, so only one term's arrays are
    alive at once: neither memory nor kernel work grows like 1/T.
    """
    x, w = _grid(spec)
    lo, hi = math.log(2.0 * math.pi * T_scaled), math.log(spec.qmax_scaled)
    if lo >= hi:
        return 0.5 * ((_g_series(geom, x, orders, channel) @ w) / math.pi)
    nc = spec.node_count
    width = math.log(spec.qmax_scaled / spec.qmin_scaled) / (2 * spec.panel_count)
    edges = np.linspace(lo, hi, math.ceil((hi - lo) / width) + 1)
    g = _g_series(geom, np.concatenate([x, np.exp(panel_grid(edges, nc)[0])]), orders, channel)
    totals = 0.5 * ((g[:, :x.size] @ w) / math.pi)
    table = g[:, x.size:]
    n = 1
    while (xn := 2.0 * math.pi * n * T_scaled) < spec.qmax_scaled:
        zmax = math.sqrt(spec.qmax_scaled ** 2 - xn ** 2)
        z, wz = panel_grid([0.0, *(e for e in _Z_EDGES if e < zmax), zmax], nc)
        idx, basis = panel_interp(edges, nc, np.log(np.hypot(xn, z)))
        term = ((table.take(idx, axis=1) * basis).sum(axis=-1) @ wz) / math.pi
        totals = totals + term
        if abs(term[-1]) <= 1e-3 * spec.tolerance * abs(totals[-1]):
            break
        n += 1
    return totals


def thermal_energy(geom: Geometry, T_scaled: float, nu_max=100,
                   spec: QuadratureSpec | None = None,
                   channel: str = "em") -> EnergyResult:
    """Finite-temperature interaction energy per unit length.

    ``T_scaled`` is k_B T H / (hbar c).  The Matsubara sum runs over
    frequencies x_n = 2 pi n T_scaled with the n = 0 term at half
    weight; it is truncated once a term stops mattering at the spec's
    tolerance.  As T_scaled grows only n = 0 survives and the energy
    approaches -(T_scaled/H^2) times the classical coefficient; as
    T_scaled -> 0 the sum goes over into the zero-temperature
    frequency integral.  The sum has about qmax_scaled / (2 pi T_scaled)
    terms n >= 1 (fewer when the tolerance stops it first), and they read
    g from one table in ln x, evaluated in one kernel series with the
    n = 0 grid: the kernel sees O(ln(1/T)) nodes, not O(1/T), and only
    the interpolation, read one term at a time, grows like 1/T.  The
    error budget, and the `AccuracyError` on a failed node-doubling
    check, are those of `energy_per_length`; the check doubles the
    table's nodes too, so ``quad_error`` covers its interpolation.
    """
    if T_scaled < 0.0 or not math.isfinite(T_scaled):
        raise DomainError("T_scaled must be nonnegative and finite")
    _modes(channel)
    if spec is None:
        spec = default_quadrature(geom)
    if T_scaled == 0.0:
        return energy_per_length(geom, spec, nu_max, channel)
    h2 = geom.H * geom.H

    def evaluate(spec: QuadratureSpec, orders: list) -> np.ndarray:
        return T_scaled * _matsubara_sum(geom, T_scaled, orders, channel, spec) / h2

    return _finish(evaluate, spec, _series_orders(nu_max), channel)
