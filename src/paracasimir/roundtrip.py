"""Round-trip kernels and their log-determinants.

One frequency channel of the interaction energy is governed by the
matrix N(q) whose (nu, nu') entry propagates a partial wave from the
parabolic cylinder to the plane, reflects it, brings it back, and
scatters it once more.  The energy integrand is log det(1 - N).

Entries are assembled in a balanced similarity gauge: the cylinder
amplitude F_nu grows like nu! while the translation elements decay like
1/(nu + nu')!, so the raw product over- and underflows long before the
determinant does.  Conjugating by diag(|F_nu / nu!|^(1/2)) splits the
growth evenly between rows and columns, leaving entries of order one
without changing the determinant.  Assembly therefore works throughout
in sign/log form and exponentiates only at the end.

At zero radius only one parity survives per boundary condition (even
orders for Dirichlet, odd for Neumann), and with no tilt the kernel
collapses to Bateman k-functions.  `kernel_blocks` picks the
construction and yields the kernel as decoupled symmetric blocks;
`logdet_one_minus` factors them by Cholesky, and `build_kernel`
scatters one node's blocks into a single matrix for inspection.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg import lapack
from scipy.special import gammaln

from .specfun import DomainError, _check_order, bateman_k_table, bateman_m_log
from .scattering import (
    BoundaryMode,
    Geometry,
    parabolic_amplitude_table,
    plane_amplitude,
)
from .translation import _gram, tilted_matrix_log

__all__ = [
    "PhysicalRegimeError",
    "kernel_blocks",
    "build_kernel",
    "logdet_one_minus",
]


class PhysicalRegimeError(ArithmeticError):
    """det(1 - N) came out nonpositive or nonfinite.

    For a lossless geometry at imaginary frequency every eigenvalue of
    the round-trip kernel lies below one, so the determinant is
    strictly positive; a violation signals numerical breakdown (or a
    kernel evaluated outside its regime), never physics.
    """


_LOG_SQRT_HALF_PI = 0.5 * math.log(math.pi / 2.0)

# Byte budget of one block's stack of nodes in `kernel_blocks`: 4 nodes
# at 81 orders, 270 at 11, and one node from 129 orders up.
_RUN_BYTES = 256 * 1024


def _knife_start(mode: BoundaryMode) -> int:
    """Parity of the orders that carry ``mode`` at the knife edge.

    On the degenerate surface mu = 0 the regular wave of even order has
    vanishing normal derivative and the odd one has a node, so even
    orders carry the Dirichlet channel and odd orders the Neumann one.
    """
    return 0 if mode is BoundaryMode.DIRICHLET else 1


def _by_pair(table: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """table[:, (n + n') // 2] over the orders n, n' of one parity block.

    Within a parity (n + n') // 2 = n//2 + n'//2 + parity, so each row of
    ``table`` gives a Hankel matrix.  They are returned as one read-only
    view of shape (rows, m, m), with no index array.
    """
    start = int(idx[0]) % 2
    return sliding_window_view(table[:, start:start + 2 * idx.size - 1], idx.size, axis=1)


def _knife_block_from_k(pairs: np.ndarray, mode: BoundaryMode) -> np.ndarray:
    """Zero-radius, zero-tilt blocks given their k_{-2n-1} Hankel matrices.

    ``pairs`` may be one matrix or a stack; Dirichlet returns it as it
    is (a read-only view), Neumann its negative.
    """
    return pairs if mode is BoundaryMode.DIRICHLET else -pairs


def _knife_block_from_gram(G: np.ndarray, w: float, out: np.ndarray) -> np.ndarray:
    """Zero-radius block at tilt from the channel's parity Gram matrix,
    written into ``out``."""
    return np.multiply(G, math.exp(-w) / math.pi, out=out)


def _body_half_logs(nu_max: int, mode: BoundaryMode, mu0_scaled: np.ndarray):
    """Signs and half-logs of the normalized cylinder amplitudes.

    Returns (sigma, half), arrays of shape (nu_max + 1, len(mu0_scaled))
    whose column i belongs to mu0_scaled[i]: sigma holds the amplitude
    signs and half = 0.5 * log|F_nu / nu!|, the per-row balancing weight.
    """
    sigma, logf = parabolic_amplitude_table(nu_max, mode, mu0_scaled)
    return sigma, 0.5 * (logf - gammaln(np.arange(nu_max + 1) + 1.0)[:, None])


def _body_block_theta0(sigma: np.ndarray, half: np.ndarray, fp: float,
                       pairs: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """One parity block of the positive-radius, zero-tilt kernel for a
    run of nodes, as a stack of shape (run, m, m).

    Column k of ``sigma`` and ``half`` and matrix k of ``pairs`` belong
    to node k of the run; pairs holds log sqrt(pi/2) + log m_(n+n')/2 of
    the Bateman table at w = 2 q d over the block's orders ``idx``.
    Entries of odd order sum vanish by mirror parity, so the kernel
    splits into an even and an odd block.  Within one block (n + n')/2
    equals n//2 + n'//2 + parity, so the element sign (-1)^((n + n')/2)
    is the outer product of (-1)^(n // 2) with itself times
    (-1)^parity.  The amplitude signs are constant within a parity, and
    h_i + h_j is summed before anything else is added, so every matrix
    is exactly symmetric.  The stack is built in one buffer: a fresh
    temporary per step would cost as much as the arithmetic.
    """
    sign = (-1.0) ** (idx // 2)
    h = half[idx].T
    entries = h[:, :, None] + h[:, None, :]
    entries += pairs
    with np.errstate(over="ignore"):
        np.exp(entries, out=entries)
    entries *= (sigma[idx].T * (fp * (-1.0) ** (idx[0] % 2)) * sign)[:, :, None]
    entries *= sign
    return entries


def _body_block_tilted(sigma: np.ndarray, half: np.ndarray, fp: float,
                       sT: np.ndarray, lT: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Positive-radius kernel at tilt from the sign/log element matrix,
    written into ``out``."""
    np.add(half[:, None], half[None, :], out=out)
    out += lT
    with np.errstate(over="ignore"):
        np.exp(out, out=out)
    out *= sigma[:, None] * fp * sT
    return out


def _block_orders(geom: Geometry, nu_max: int, mode: BoundaryMode) -> list:
    """The orders of each nonempty decoupled block of one mode's kernel.

    At zero radius only the mode's parity of orders takes part; at zero
    tilt and positive radius the even and odd orders decouple, evens
    first; at tilt every order couples to every other.
    """
    if geom.R == 0.0:
        starts, step = (_knife_start(mode),), 2
    elif geom.theta == 0.0:
        starts, step = (0, 1), 2
    else:
        starts, step = (0,), 1
    blocks = (np.arange(start, nu_max + 1, step) for start in starts)
    return [idx for idx in blocks if idx.size]


def kernel_blocks(geom: Geometry, q, nu_max: int, modes):
    """Yield the kernel's decoupled blocks for runs of frequency nodes.

    The nodes of the array ``q`` are taken in runs of consecutive nodes.
    For each run this yields ``(nodes, blocks)``: ``nodes`` is the slice
    of ``q`` the run covers, and ``blocks`` is one list of (orders,
    stack) pairs, one per diagonal block, ordered by ``modes`` and then
    by `_block_orders`; stack[k] is the block's matrix at node
    q[nodes][k].  Orders outside every block do not couple (or, at the
    knife edge, do not take part).  The determinant of 1 - N over a
    mode is the product over its blocks, and truncating at order nu
    keeps each block's leading orders up to nu.

    A run holds as many nodes as keep the largest block's stack within
    _RUN_BYTES, so small blocks, as in the Matsubara sum, are factored
    many nodes per call, and blocks of a few hundred orders one node at
    a time.  What does not depend on the node is computed once for the
    series: the zero-tilt element table and each block's Hankel view of
    it, and, at positive radius, each mode's amplitude signs and
    half-logs over all nodes.  At zero tilt a run's stack is built from
    the block's view; at tilt each node's matrix is written into its
    slot of the run's buffer, and at positive radius the element matrix
    is built once per node for all modes.

    This is the only place the four constructions (knife or body,
    tilted or not) are chosen; `build_kernel` scatters the blocks into
    one matrix and the energy integrands factor them block by block.
    """
    q = np.atleast_1d(np.asarray(q, dtype=float))
    knife, untilted = geom.R == 0.0, geom.theta == 0.0
    if untilted:
        # One row per node: k_{-2n-1} at the knife edge, else log m_n plus
        # the balanced gauge's constant.
        w = 2.0 * q * geom.d
        table = np.ascontiguousarray((bateman_k_table(nu_max, w) if knife
                                      else _LOG_SQRT_HALF_PI + bateman_m_log(nu_max, w)).T)
    # One (mode, orders, Hankel view, sigma, half) entry per block.
    layout = []
    for mode in modes:
        sigma, half = (None, None) if knife else _body_half_logs(
            nu_max, mode, geom.mu0 * np.sqrt(2.0 * q))
        layout += [(mode, idx, _by_pair(table, idx) if untilted else None, sigma, half)
                   for idx in _block_orders(geom, nu_max, mode)]
    largest = max((idx.size for _, idx, *_ in layout), default=1)
    run = max(1, _RUN_BYTES // (8 * largest * largest))
    for lo in range(0, q.size, run):
        nodes = slice(lo, min(lo + run, q.size))
        if knife and untilted:
            blocks = [(idx, _knife_block_from_k(pairs[nodes], mode))
                      for mode, idx, pairs, *_ in layout]
        elif untilted:
            blocks = [(idx, _body_block_theta0(sigma[:, nodes], half[:, nodes],
                                               plane_amplitude(mode), pairs[nodes], idx))
                      for mode, idx, pairs, sigma, half in layout]
        else:
            blocks = [(idx, np.empty((nodes.stop - lo, idx.size, idx.size)))
                      for _, idx, *_ in layout]
            for k, i in enumerate(range(lo, nodes.stop)):
                if not knife:
                    sT, lT = tilted_matrix_log(nu_max, q[i], geom.d, geom.theta)
                for (mode, idx, _, sigma, half), (_, stack) in zip(layout, blocks):
                    if knife:
                        G, w = _gram(q[i], geom.d, geom.theta, nu_max,
                                     start=int(idx[0]), step=2)
                        _knife_block_from_gram(G, w, stack[k])
                    else:
                        _body_block_tilted(sigma[:, i], half[:, i], plane_amplitude(mode),
                                           sT, lT, stack[k])
        yield nodes, blocks


def build_kernel(geom: Geometry, q: float, nu_max: int, mode: BoundaryMode | str):
    """One boundary mode's truncated round-trip kernel at frequency-axis q.

    Returns ``(entries, orders)``: ``entries[i, j]`` couples partial-wave
    order ``orders[i]`` to ``orders[j]`` in the balanced gauge.  The
    matrix is scattered from the blocks of `kernel_blocks` at this one
    node, and ``orders`` lists the orders those blocks cover: on the
    knife edge the mode's parity only, for positive radius all orders
    0..nu_max.  Entries between different blocks are exact zeros.
    """
    if q <= 0 or not math.isfinite(q):
        raise DomainError("q must be positive and finite")
    nu_max = _check_order(nu_max)
    mode = BoundaryMode(mode)
    _, blocks = next(kernel_blocks(geom, q, nu_max, (mode,)))
    orders = np.sort(np.concatenate([np.arange(0)] + [idx for idx, _ in blocks]))
    entries = np.zeros((orders.size, orders.size))
    for idx, stack in blocks:
        sel = np.searchsorted(orders, idx)
        entries[np.ix_(sel, sel)] = stack[0]
    if not np.all(np.isfinite(entries)):
        raise PhysicalRegimeError(
            "kernel entries overflowed; the balanced gauge does not cover "
            f"this parameter corner (q={q:g}, R={geom.R:g}, H={geom.H:g})")
    return entries, orders


def _cholesky_ladders(m: np.ndarray, head: np.ndarray, stacked: bool) -> np.ndarray:
    """log det of every leading block of each symmetric matrix m[j].

    Row j of the result holds the ladder of m[j]; its entry s belongs to
    the leading s x s block, since the Cholesky factor of a leading
    block is the leading block of the factor, so one factorization
    serves them all.  Each matrix is overwritten by its factor, and the
    diagonals are read from the factored stack as one strided view.
    ``head`` holds the N that each m = 1 - N was formed from; it is read
    only when a factorization fails, to tell an overflowed kernel from a
    loss of positivity.
    """
    run, n = m.shape[:2]
    for j in range(run):
        # m[j] is exactly symmetric and C-ordered, so its transpose is the
        # same matrix in Fortran order and LAPACK works on it in place.
        _, info = lapack.dpotrf(m[j].T, lower=True, clean=False, overwrite_a=True)
        if info > 0:
            if not np.all(np.isfinite(head[j, :info, :info])):
                raise PhysicalRegimeError("kernel contains nonfinite entries")
            where = f"matrix {j} of the stack: " if stacked else ""
            raise PhysicalRegimeError(
                f"1 - N is not positive definite: {where}its leading minor of "
                f"order {info} (of {n}) is not positive; increase quadrature "
                "resolution or check the geometry")
    ladders = np.zeros((run, n + 1))
    np.cumsum(2.0 * np.log(np.diagonal(m, axis1=1, axis2=2)), axis=1, out=ladders[:, 1:])
    return ladders


def logdet_one_minus(kernel: np.ndarray, sizes=None):
    """log det(1 - N) of a symmetric kernel, with an explicit positivity check.

    ``kernel`` is one square matrix or a stack of them, of shape
    (run, n, n).  With ``sizes`` (a sequence of leading-block sizes)
    the result holds log det(1 - N[:s, :s]) for each s, an array of
    shape (len(sizes),) for one matrix and (run, len(sizes)) for a
    stack; without it, the float for the whole matrix, or an array of
    shape (run,) for a stack.  Matrix j of a stack gives bitwise what
    it gives alone.

    The kernel must be exactly symmetric, as every kernel the library
    builds is, and since all its eigenvalues lie below one, 1 - N must
    be positive definite.  One Cholesky factorization of the largest
    block checks that and serves every smaller size through partial
    sums of 2 log diag(L); a failure raises `PhysicalRegimeError` naming
    the order of the leading minor where positivity was lost, and for a
    stack the matrix.  A nonfinite entry raises `PhysicalRegimeError`
    too, rather than returning a garbage value that downstream
    integration would silently absorb; a finite matrix that is not
    symmetric raises `DomainError`.  1 - N is formed once for the whole
    stack, in a fresh buffer that the factorizations overwrite.
    """
    entries = np.asarray(kernel)
    stacked = entries.ndim == 3
    if entries.ndim not in (2, 3) or entries.shape[-1] != entries.shape[-2]:
        raise DomainError("expected a square matrix or a stack of them")
    n = entries.shape[-1]
    want = np.asarray([n] if sizes is None else sizes, dtype=int)
    if np.any(want < 0) or np.any(want > n):
        raise DomainError(f"block sizes must lie in [0, {n}]")
    top = int(want.max(initial=0))
    head = (entries if stacked else entries[None])[:, :top, :top]
    run = head.shape[0]
    # C order whatever the input's layout, so the reshape below is a view.
    m = np.negative(head, dtype=float, order="C")
    m.reshape(run, top * top)[:, ::top + 1] += 1.0
    # NaN compares unequal to itself, so a NaN entry fails this test too.
    if not np.all(m == m.transpose(0, 2, 1)):
        if not np.all(np.isfinite(head)):
            raise PhysicalRegimeError("kernel contains nonfinite entries")
        j = int(np.argmin(np.all(m == m.transpose(0, 2, 1), axis=(1, 2))))
        where = f"matrix {j} of the stack" if stacked else "the matrix"
        raise DomainError(f"the kernel must be exactly symmetric: {where} is not")
    out = _cholesky_ladders(m, head, stacked)[:, want]
    # A nonfinite entry of the factored head reaches the top rung.
    if not np.all(np.isfinite(out)):
        raise PhysicalRegimeError("kernel contains nonfinite entries")
    if stacked:
        return out[:, 0] if sizes is None else out
    return float(out[0, 0]) if sizes is None else out[0]
