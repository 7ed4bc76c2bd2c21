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
in log form and exponentiates only at the end.

Signs never reach the determinant.  The amplitude sign times the
mirror's is (-1)^n in both modes, and the element signs are
(-1)^((n + n')/2) at zero tilt and (-1)^n' sign(G) at tilt, so every
block of the kernel is S B S with S = diag(s_n), s_n = (-1)^(n//2) at
zero tilt and (-1)^n at tilt.  The blocks are built as B, positive in
every entry at zero tilt.  Cholesky does the same operations on
1 - S B S as on 1 - B up to sign, and rounding to nearest is symmetric
in sign, so every log-determinant is bitwise the same.

At zero radius only one parity survives per boundary condition (even
orders for Dirichlet, odd for Neumann), and with no tilt the kernel
collapses to Bateman k-functions.  `kernel_blocks` picks the
construction and yields the kernel as decoupled symmetric blocks;
`logdet_one_minus` factors them by Cholesky, and `build_kernel`
scatters one node's blocks into a single matrix for inspection.

At zero tilt every block is positive semidefinite: at the knife edge
M_ab = m_(a+b+p) is a Hankel matrix of moments of a positive measure,
and at positive radius the block is D M D with D the diagonal of
balancing weights.  So is the tilted knife edge's block, c G with
c = e^-w / pi > 0 and G = V V^T the parity Gram matrix of
`translation._gram`, and it comes as its factor F = sqrt(c) V^T,
N = F^T F, of 2U rows for U u-nodes, never as a dense N.  So
|N_jk|^2 <= N_jj N_kk, and on a ladder of several rungs
`kernel_blocks` makes the rung cut at zero tilt and at the tilted
knife edge, where N_aa is the squared norm of F's column a; the rank
cut at zero tilt takes every ladder, one rung too.  For
`build_kernel`'s whole blocks no order is left out, and the tilted
body's blocks, built from the Gram's sign/log form, stay whole;
`logdet_one_minus`, which takes any symmetric N, cuts nothing.  It
takes the log-determinants of a stack of factors on their cheaper
side: from one syrk per factor that writes 1 - F^T F and one Cholesky
factorization for all rungs, or, with less than a third as many rows
as orders (the rank cut), from the Gram matrices of F's rows.

The rung cut.  By its Schur complement, an order j whose diagonal
entry lies below 2^-54 moves the exact log det by about
N_jj (1 + tr N / (1 - lambda_max)) at most, and in float64 its Cholesky
pivot is exactly 1.  So each node keeps the smallest rung that holds
every order whose diagonal is not below 2^-54, and the rungs above
take its value.  It rounds up to a rung rather than cutting at that
order because the leading rows of a Cholesky factor differ in their
last bits with the size of the whole matrix: a rung depends only on
the node and the ladder, so no node's value depends on the other
nodes of its run, save under the rank cut (below).

The rank cut.  Scaled Hankel moment matrices of a positive measure
have exponentially decaying singular values (a 401-order block has
rank 14 to 42 on the default grids, from H = 1 to 0.05 at R = 1 and at
the knife edge), so where a run's blocks keep more than _RANK_FROM =
128 orders they are not built.  A partial pivoted Cholesky, one loop
over every block and node of the run, builds at each step only the
column of the largest residual diagonal entry, and stops per block and
node once the residual trace is at most tau: 1e-15, or n eps max_a
N_aa, the trace's own rounding, where that is larger.  So N = Y^T Y + E
with Y of r << n rows and E positive semidefinite, and by Sylvester's
identity rung s is log det(1 - G_s), G_s the r x r Gram matrix of Y's
columns up to s.  Every leading block of E is positive semidefinite
with trace at most tau, so each rung lies above the exact one by at
most tau / (1 - lambda_max), to first order in tau, where lambda_max is
the block's largest eigenvalue.  At positive radius a parity's
Dirichlet and Neumann blocks are D M D with one Hankel matrix M and
each mode's balancing weights D = diag(e^h).  Where a run's two blocks
keep the same orders, the loop pivots them once, on D' M D' with h' the
larger of the two half-logs at each order and node, and each mode's
factor is the shared Y with column a scaled by e^(h_a - h'_a) <= 1.  So
each mode's N = Y_mode^T Y_mode + S E S with S <= 1 diagonal: its
residual is positive semidefinite with trace at most tau, the larger of
the two modes' tau, and every mode keeps the bound.  This halves the
loop's rows when both modes are asked for at once.  A block's factors
come as one stack, zero rows padding each node's Y to the block's
largest rank in the run, and the Grams of every node and rung of the
stack are summed and factored at once (`_factor_logdets`): a zero row
adds a unit row and column to 1 - G_s, which leave its determinant as
it is, though its Cholesky factorization, and with it the rung's last
bits, can depend on the padded size.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg import blas, lapack
from scipy.special import gammaln

from .specfun import DomainError, _argument_array, _check_order, bateman_m_log
from .scattering import BoundaryMode, Geometry, parabolic_amplitude_table
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


class _PivotFailure(PhysicalRegimeError):
    """The factorization of matrix ``matrix`` of a stack failed within
    its block's leading ``rows`` orders, by ``kind``: "minor" (that
    leading minor is not positive), "nonfinite" (the smallest leading
    block that holds a nonfinite entry) or "gram" (the Gram of a
    factor's leading ``rows`` columns has an eigenvalue of at least
    one).  A failure inside `kernel_blocks` carries ``where``, the
    (nodes, orders) of its run and block; `energy._g_series` names the
    node and the partial-wave order from these."""

    def __init__(self, message: str, matrix: int, rows: int, kind: str):
        super().__init__(message)
        self.matrix, self.rows, self.kind = matrix, rows, kind
        self.where = None


def _nonfinite(bad: np.ndarray):
    """The failure at the first matrix of a stack with a nonfinite entry,
    or None if there is none: ``bad[j, a]`` says whether matrix j's
    leading block of a + 1 orders is the smallest to hold one."""
    if bad.any():
        j = int(np.argmax(bad.any(axis=1)))
        return _PivotFailure("kernel contains nonfinite entries", j,
                             int(np.argmax(bad[j])) + 1, "nonfinite")


def _nonfinite_square(head: np.ndarray):
    """`_nonfinite` of a stack of square matrices, in which entry (a, b)
    enters the leading blocks from max(a, b) + 1 orders up."""
    nf = ~np.isfinite(head)
    return _nonfinite(np.tril(nf).any(axis=2) | np.triu(nf).any(axis=1))


_LOG_SQRT_HALF_PI = 0.5 * math.log(math.pi / 2.0)

# Byte budget of one block's stack of nodes in `kernel_blocks`: 4 nodes
# at 81 orders, 270 at 11, and one node from 129 orders up.  The orders
# counted are those a run's blocks hold after the rung cut (the module
# docstring), the same for every node of the run.
_RUN_BYTES = 256 * 1024

# 1 - N_nn rounds to exactly 1.0 in float64 below this diagonal entry.
_NEGLIGIBLE = 2.0 ** -54

# The rank cut (module docstring) takes runs whose blocks keep more than
# _RANK_FROM orders and factors them to a residual trace of _RANK_TRACE
# or its rounding.  A run holds as many nodes as _RANK_COLUMNS columns
# of a block fit in _RANK_BYTES (20 at 202 orders, 10 at 401, 5 at 801).
# The first run's pivot buffer starts at that many steps, each later one's
# at the previous run's largest rank plus _RANK_MARGIN, doubling as needed.
_RANK_FROM = 128
_RANK_TRACE = 1e-15
_RANK_COLUMNS = 32
_RANK_MARGIN = 8
_RANK_BYTES = 1024 * 1024


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


def _knife_block_from_k(pairs: np.ndarray) -> np.ndarray:
    """Zero-radius, zero-tilt blocks, up to the module's S: their Hankel
    matrices of m_n = |k_{-2n-1}|, one or a stack, as the view given."""
    return pairs


def _knife_block_from_gram(V: np.ndarray, w: float) -> np.ndarray:
    """Zero-radius block at tilt as its factor F = sqrt(e^-w / pi) V^T,
    N = F^T F, from the real factor V of the channel's parity Gram
    matrix, which is scaled in place; on one parity the module's S is
    +-1.  F, of shape (2U, orders), is V's transpose, so its columns
    are contiguous."""
    V *= math.exp(-0.5 * w) / math.sqrt(math.pi)
    return V.T


def _body_half_logs(nu_max: int, modes: tuple, mu0_scaled: np.ndarray):
    """Half-logs 0.5 * log|F_nu / nu!| of the cylinder amplitudes, the
    per-row balancing weight, of shape (len(modes), nu_max + 1,
    len(mu0_scaled)); [m, :, i] belongs to modes[m] and mu0_scaled[i].
    Every mode comes from one pass of the recurrences, bitwise what it
    gets alone (`parabolic_amplitude_table`)."""
    half = np.stack([logs for _, logs in parabolic_amplitude_table(nu_max, modes, mu0_scaled)])
    half -= gammaln(np.arange(nu_max + 1) + 1.0)[:, None]
    half *= 0.5
    return half


def _body_block_theta0(rows: np.ndarray, cols: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Entries of one parity block of the body's zero-tilt kernel for a
    run of nodes, as a stack of shape (run, m, c), up to the module's S.

    Row k of ``rows`` and ``cols`` (the half-logs of the m rows' and c
    columns' orders) and matrix k of ``pairs`` (log sqrt(pi/2) + log
    m_(n+n')/2 of the Bateman table at w = 2 q d over them) belong to
    node k (under the rank cut, to one block at one node).  Entries of
    odd order sum vanish by mirror parity, so the kernel splits into an
    even and an odd block.  Every entry is positive, and h_i + h_j is
    summed before anything else is added, so every whole block (rows as
    cols) is exactly symmetric, and the rank cut's columns are bitwise
    its entries.  The stack is built in one buffer: a fresh temporary
    per step would cost as much as the arithmetic.
    """
    entries = rows[:, :, None] + cols[:, None, :]
    entries += pairs
    with np.errstate(over="ignore"):
        np.exp(entries, out=entries)
    return entries


def _body_block_tilted(half: np.ndarray, sT: np.ndarray, lT: np.ndarray,
                       out: np.ndarray) -> np.ndarray:
    """The body's kernel at tilt, up to the module's S, from the
    sign/log form of the Gram matrix, written into ``out``."""
    return np.multiply(_body_block_theta0(half[None], half[None], lT)[0], sT, out=out)


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


def _block_diagonal(idx: np.ndarray, table: np.ndarray, half) -> np.ndarray:
    """Diagonal of a zero-tilt block over its orders ``idx``, one row per
    row of ``table``: m_n at the knife edge (``half`` is None), and
    exp(2 h_n + table) at positive radius, bitwise the block's own."""
    if half is None:
        return table[:, idx]
    with np.errstate(over="ignore"):
        return np.exp(2.0 * half[idx].T + table[:, idx])


def _pivoted_factors(diag: np.ndarray, sizes, column, columns: int) -> list:
    """Partial pivoted Cholesky factors of a run's positive semidefinite
    blocks in one loop: diag[b, k] is block b's diagonal at node k, its
    sizes[b] orders padded with zeros, and ``column(p)`` gives column
    p[i] of each row i = b run + k, zero in the pad.  Each row pivots on
    its largest residual diagonal entry, zeroes it, and stops once the
    residual trace is at most its tau (module docstring) or its rank is
    its size; it reads its own entries alone.  The zero-initialised
    buffer starts at ``columns`` steps, doubling as needed, and is the
    result: block b's stack is its view (run, r, sizes[b]),
    stack[k] node k's factor Y (N = Y^T Y + E), r the block's largest
    rank.  A nonfinite residual raises `_PivotFailure` as pivoting the
    blocks one after another would: in the first block with one, at the
    node and order where it showed first, ``matrix`` being b run + k.
    """
    blocks, run, n = diag.shape
    resid = np.array(diag, dtype=float).reshape(blocks * run, n)
    sizes, rows = np.repeat(sizes, run), np.arange(blocks * run)
    live, ranks = np.ones(rows.size, dtype=bool), np.zeros(rows.size, dtype=int)
    ys, failure = np.zeros((rows.size, min(n, columns), n)), None
    tau = np.maximum(_RANK_TRACE, sizes * np.finfo(float).eps * resid.max(axis=1, initial=0.0))
    for r in range(n + 1):
        trace = resid.sum(axis=1)
        # A nonfinite entry makes its row's trace nonfinite.  Its block and
        # the later ones stop; an earlier block that fails later replaces it.
        if not np.all(np.isfinite(trace)) and not np.all(np.isfinite(resid)):
            failure = _nonfinite(~np.isfinite(resid))
            first = failure.matrix - failure.matrix % run
            live[first:], resid[first:] = False, 0.0
        live &= (trace > tau) & (r < sizes)
        if not live.any():
            break
        ranks += live
        if r == ys.shape[1]:
            ys = np.pad(ys, ((0, 0), (0, r), (0, 0)))
        piv = np.argmax(resid, axis=1)
        col = column(piv)
        col -= (ys[rows, :r, piv][:, None, :] @ ys[:, :r])[:, 0]
        col /= np.sqrt(np.where(live, resid[rows, piv], 1.0))[:, None]
        col[~live] = 0.0
        resid -= col * col
        resid[rows, piv] = 0.0
        ys[:, r] = col
    if failure is not None:
        raise failure
    ys, ranks = ys.reshape(blocks, run, -1, n), ranks.reshape(blocks, run).max(axis=1)
    return [ys[b, :, :ranks[b], :size] for b, size in enumerate(sizes[::run])]


def _rows_factored(idx: np.ndarray, orders: np.ndarray, table, half):
    """Leading rows of one block that each node's factorization needs.

    Returns idx.size, or at zero tilt on a ladder ``orders`` of several
    rungs one count per row of ``table`` (per node): one past the
    block's last order whose diagonal entry is not below _NEGLIGIBLE
    (NaN and inf count), rounded up to the smallest rung
    searchsorted(idx, orders, side="right") that holds it.  The diagonal
    is read from the tables the blocks are built from: m_n at the knife
    edge (``half`` is None), exp(2 h_n + table) at positive radius.  A
    node whose table row or half-logs hold a nonfinite entry keeps the
    whole block, so an overflow still reaches the factorization.
    """
    if table is None or np.unique(np.searchsorted(idx, orders, side="right")).size == 1:
        return idx.size
    finite = np.all(np.isfinite(table), axis=1)
    if half is not None:
        finite &= np.all(np.isfinite(half), axis=0)
    diag = np.where(finite[:, None], _block_diagonal(idx, table, half), np.inf)
    return _smallest_rungs(idx, orders, diag)


def _smallest_rungs(idx: np.ndarray, orders: np.ndarray, diag: np.ndarray) -> np.ndarray:
    """Per row of ``diag`` (a block's diagonal over its orders ``idx``,
    one row per node): the smallest rung searchsorted(idx, orders,
    side="right") holding every order whose entry is not below
    _NEGLIGIBLE (NaN and inf count)."""
    rungs = np.unique(np.searchsorted(idx, orders, side="right"))
    live = ~(diag < _NEGLIGIBLE)
    last = np.where(live.any(axis=1), idx.size - np.argmax(live[:, ::-1], axis=1), 0)
    return rungs[np.searchsorted(rungs, last)]


def kernel_blocks(geom: Geometry, q, orders, modes):
    """Yield the kernel's decoupled blocks for runs of frequency nodes.

    ``orders`` is the truncation ladder the blocks will be factored on,
    an increasing sequence of orders, or an int n for the whole blocks
    up to order n, as `build_kernel` scatters them: a sequence of one
    rung may still come as rank-cut factors, an int never does.  The
    nodes of ``q``, a scalar or a nonempty 1-d array of finite
    nonnegative values (else `DomainError`), are taken in runs of
    consecutive nodes.
    For each run this yields ``(nodes, blocks)``: ``nodes`` is the slice
    of ``q`` the run covers, and ``blocks`` is one list of (orders,
    block, factored) triples, one per diagonal block, ordered by
    ``modes`` and then by `_block_orders`.  A block is a stack over the
    run's nodes, block[k] belonging to node q[nodes][k]: of the block's
    matrices N, or, where ``factored``, of factors F with N = F^T F
    (`logdet_one_minus` takes either).  Orders outside every block do
    not couple (or, at the knife edge, do not take part).  The
    determinant of 1 - N over a mode is the product over its blocks, and
    truncating at order nu keeps each block's leading orders up to nu.
    The blocks are the kernel up to the S of the module docstring.

    On a ladder of several rungs a zero-tilt block, and a block of the
    tilted knife edge, holds only its orders up to the smallest rung
    that holds every order whose diagonal entry is not below 2^-54 at
    that node (`_smallest_rungs`); the module docstring shows that the
    orders left out change no rung beyond rounding, and truncating at a
    higher rung keeps the whole shortened block.  A node whose tables are
    not finite keeps the whole block, and a nonfinite column of a factor
    counts as live.  Runs never mix nodes whose blocks hold different
    orders, and a run holds as many nodes as keep its largest block's
    stack within _RUN_BYTES, so small blocks, as in the Matsubara sum,
    are factored many nodes per call.  Under the rank cut (module
    docstring) a run's blocks come as stacks of its nodes' factors Y
    from one pivot loop, zero rows padding each block's ranks to its
    largest, and blocks of different modes over the same orders are
    pivoted once and scaled; the loop's buffer starts at the previous
    run's largest rank plus _RANK_MARGIN steps.  Its failure raises
    `_PivotFailure` with ``where`` set.  At the tilted knife edge a run
    holds one node, whose blocks come as F = sqrt(e^-w / pi) V^T of the
    parity Gram's factor V: the 2U rows of F differ from node to node,
    so no two nodes' factors stack.  What does not depend on the node is
    computed once for the series: the zero-tilt element table and each
    block's Hankel view of it, and, at positive radius, every mode's
    half-logs over all nodes, from one pass of the amplitude
    recurrences.  A dense zero-tilt run's stack is built from
    the block's view; for the tilted body each node's matrix is written
    into its slot of the run's buffer, and the element matrix is built
    once per node for all modes.

    This is the only place the five constructions (knife or body,
    tilted or not, and the rank cut) are chosen, all in one loop over
    the runs; `build_kernel` scatters the blocks into one matrix and the
    energy integrands factor them block by block.
    """
    q, _ = _argument_array(q)
    whole = np.ndim(orders) == 0
    orders = np.atleast_1d(orders)
    nu_max = int(orders.max())
    knife, untilted = geom.R == 0.0, geom.theta == 0.0
    table = None
    if untilted:
        # One row per node: m_n at the knife edge, else log m_n plus the
        # balanced gauge's constant.
        logm = bateman_m_log(nu_max, 2.0 * q * geom.d)
        table = np.ascontiguousarray((np.exp(logm) if knife else _LOG_SQRT_HALF_PI + logm).T)
    modes = tuple(modes)
    halves = ((None,) * len(modes) if knife
              else _body_half_logs(nu_max, modes, geom.mu0 * np.sqrt(2.0 * q)))
    # One (orders, Hankel view, half) entry per block.
    layout = [(idx, _by_pair(table, idx) if untilted else None, half)
              for mode, half in zip(modes, halves) for idx in _block_orders(geom, nu_max, mode)]
    # rows[k, b]: the leading rows of block b built and factored at node k.
    rows = np.empty((q.size, len(layout)), dtype=int)
    for b, (idx, _, half) in enumerate(layout):
        rows[:, b] = _rows_factored(idx, orders, table, half)
    changes = np.flatnonzero(np.any(rows[1:] != rows[:-1], axis=1)) + 1
    bounds, columns = [0, *changes.tolist(), q.size], _RANK_COLUMNS
    for start, stop in zip(bounds, bounds[1:]):
        size = int(rows[start].max(initial=1))
        ranked = untilted and not whole and size > _RANK_FROM
        run = (1 if knife and not untilted
               else max(1, (_RANK_BYTES // (8 * _RANK_COLUMNS * size)) if ranked
                        else _RUN_BYTES // (8 * size ** 2)))
        for lo in range(start, stop, run):
            nodes = slice(lo, min(lo + run, stop))
            kept = [(idx[:s], pairs, half) for (idx, pairs, half), s in zip(layout, rows[lo])]
            if ranked:
                blocks = _rank_cut_blocks(kept, table, nodes, columns)
                columns = max(stack.shape[1] for _, stack, _ in blocks) + _RANK_MARGIN
            elif knife and untilted:
                blocks = [(idx, _knife_block_from_k(pairs[nodes, :idx.size, :idx.size]), False)
                          for idx, pairs, _ in kept]
            elif knife:
                blocks = []
                for idx, *_ in kept:
                    V, w = _gram(q[lo], geom.d, geom.theta, nu_max, start=int(idx[0]), step=2)
                    F = _knife_block_from_gram(V, w)
                    cut = _smallest_rungs(idx, orders, np.einsum("ij,ij->j", F, F)[None])[0]
                    blocks.append((idx[:cut], F[None, :, :cut], True))
            elif untilted:
                blocks = [(idx, _body_block_theta0(half[idx, nodes].T, half[idx, nodes].T,
                                                   pairs[nodes, :idx.size, :idx.size]), False)
                          for idx, pairs, half in kept]
            else:
                blocks = [(idx, np.empty((nodes.stop - lo, idx.size, idx.size)), False)
                          for idx, *_ in kept]
                for k, i in enumerate(range(lo, nodes.stop)):
                    sT, lT = tilted_matrix_log(nu_max, q[i], geom.d, geom.theta, geom.H)
                    for (_, _, half), (_, stack, _) in zip(kept, blocks):
                        _body_block_tilted(half[:, i], sT, lT, stack[k])
            yield nodes, blocks
            # Let go of this run's blocks before the next run is built.
            del blocks


def _rank_cut_blocks(kept: list, table: np.ndarray, nodes: slice, columns: int) -> list:
    """A run's blocks under the rank cut, each as (orders, its nodes'
    factors Y, True), from one `_pivoted_factors` loop whose buffer
    starts at ``columns`` steps.  Blocks over the same orders, at
    positive radius a parity's blocks of two modes, are pivoted once, on
    the larger of their half-logs at each order and node, and each
    block's factor is the shared one with its columns scaled by
    e^(h_block - h_larger) <= 1, and by 0 where both are -inf (module
    docstring).  Padded orders' entries are zero: -inf half-logs make
    them at positive radius, a mask at the knife edge."""
    run = nodes.stop - nodes.start
    # group[b]: block b's group, numbered by first appearance; lead[j]: the
    # first block of group j.
    keys = {}
    group = [keys.setdefault((int(idx[0]), idx.size), len(keys)) for idx, *_ in kept]
    lead = [group.index(j) for j in range(len(keys))]
    sizes = np.array([kept[b][0].size for b in lead])
    n, flat = int(sizes.max()), np.arange(len(lead) * run)
    # Row j run + k: node k's table from group j's parity on and its largest
    # half-logs, zero and -inf past the group's orders.
    moments = np.zeros((flat.size, 2 * n - 1))
    hs = None if kept[0][2] is None else np.full((flat.size, n), -np.inf)
    for j, b in enumerate(lead):
        idx = kept[b][0]
        start, mine = int(idx[0]) % 2, slice(j * run, (j + 1) * run)
        moments[mine, :2 * idx.size - 1] = table[nodes, start:start + 2 * idx.size - 1]
        if hs is not None:
            hs[mine, :idx.size] = np.max([half[idx, nodes].T for (_, _, half), i
                                          in zip(kept, group) if i == j], axis=0)
    hankel = sliding_window_view(moments, n, axis=1)
    pad = np.arange(n) >= np.repeat(sizes, run)[:, None]

    def column(p):
        if hs is None:
            return np.where(pad, 0.0, _knife_block_from_k(hankel[flat, p]))
        return _body_block_theta0(hs, hs[flat, p][:, None], hankel[flat, p][:, :, None])[:, :, 0]

    diag = _block_diagonal(np.arange(n), moments[:, ::2], None if hs is None else hs.T)
    try:
        stacks = _pivoted_factors(diag.reshape(len(lead), run, n), sizes, column, columns)
    except _PivotFailure as err:
        j, err.matrix = divmod(err.matrix, run)
        err.where = (nodes, kept[lead[j]][0])
        raise
    blocks = []
    for (idx, _, half), j in zip(kept, group):
        stack = stacks[j]
        if group.count(j) > 1:
            top = hs[j * run:(j + 1) * run, :idx.size]
            with np.errstate(invalid="ignore"):
                scale = np.where(top == -np.inf, 0.0, np.exp(half[idx, nodes].T - top))
            # A block whose half-logs are the larger throughout takes the
            # shared stack as it is.
            if not np.all(scale == 1.0):
                stack = stack * scale[:, None, :]
        blocks.append((idx, stack, True))
    return blocks


def build_kernel(geom: Geometry, q: float, nu_max: int, mode: BoundaryMode | str):
    """One boundary mode's truncated round-trip kernel at frequency-axis q.

    Returns ``(entries, orders)``: ``entries[i, j]`` couples partial-wave
    order ``orders[i]`` to ``orders[j]`` in the balanced gauge, up to
    the module's S.  The matrix is scattered from the whole blocks of
    `kernel_blocks` at this one node, asked for the int nu_max, so no
    order is left out; ``orders`` lists the orders those blocks cover:
    on the knife edge the mode's parity only, for positive radius all
    orders 0..nu_max.  Entries between different blocks are exact zeros.
    """
    if q <= 0 or not math.isfinite(q):
        raise DomainError("q must be positive and finite")
    nu_max = _check_order(nu_max)
    mode = BoundaryMode(mode)
    _, blocks = next(kernel_blocks(geom, q, nu_max, (mode,)))
    orders = np.sort(np.concatenate([np.arange(0)] + [idx for idx, *_ in blocks]))
    entries = np.zeros((orders.size, orders.size))
    for idx, block, factored in blocks:
        sel = np.searchsorted(orders, idx)
        entries[np.ix_(sel, sel)] = block[0].T @ block[0] if factored else block[0]
    if not np.all(np.isfinite(entries)):
        raise PhysicalRegimeError(
            "kernel entries overflowed; the balanced gauge does not cover "
            f"this parameter corner (q={q:g}, R={geom.R:g}, H={geom.H:g})")
    return entries, orders


def _cholesky_ladders(m: np.ndarray, nonfinite, stacked: bool) -> np.ndarray:
    """log det of every leading block of each symmetric matrix m[j].

    Row j of the result holds the ladder of m[j]; its entry s belongs to
    the leading s x s block, since the Cholesky factor of a leading block
    is the leading block of the factor, so one factorization serves them
    all.  Each matrix, a C-ordered stack whose transposes LAPACK works on
    in place, is read in the lower triangle of m[j].T (the upper of m[j])
    and overwritten by its factor, and the diagonals are read from the
    factored stack as one strided view.

    Every failure of these factorizations raises `_PivotFailure`, by one
    rule: ``nonfinite()``, the failure at the input's first nonfinite
    entry or None, is raised if it gives one; else kind "minor" at
    (j, r) for the first matrix j whose leading minor of order r is not
    positive (the message names matrix j where ``stacked``); else kind
    "nonfinite" at (j, n) for the first ladder that ends nonfinite from
    finite input.  ``nonfinite`` is called only after a failure.
    """
    run, n = m.shape[:2]
    for j in range(run):
        _, info = lapack.dpotrf(m[j].T, lower=True, clean=False, overwrite_a=True)
        if info > 0:
            where = f"matrix {j} of the stack: " if stacked else ""
            raise nonfinite() or _PivotFailure(
                f"1 - N is not positive definite: {where}its leading minor of "
                f"order {info} (of {n}) is not positive; increase quadrature "
                "resolution or check the geometry", j, info, "minor")
    ladders = np.zeros((run, n + 1))
    np.cumsum(2.0 * np.log(np.diagonal(m, axis1=1, axis2=2)), axis=1, out=ladders[:, 1:])
    if not np.all(np.isfinite(ladders[:, -1])):
        raise nonfinite() or _PivotFailure("kernel contains nonfinite entries",
                                           int(np.argmin(np.isfinite(ladders[:, -1]))), n,
                                           "nonfinite")
    return ladders


def logdet_one_minus(kernel: np.ndarray, sizes=None, *, factored: bool = False):
    """log det(1 - N) of a symmetric kernel, with an explicit positivity check.

    ``kernel`` is one square matrix or a stack of them, of shape
    (run, n, n).  With ``sizes`` (a sequence of integer leading-block
    sizes in [0, n]; a bool, a float or a size out of range raises
    `DomainError`) the result holds log det(1 - N[:s, :s]) for each s,
    an array of shape (len(sizes),) for one matrix and (run, len(sizes))
    for a stack; without it, the float for the whole matrix, or an array
    of shape (run,) for a stack.  Matrix j of a stack gives bitwise what
    it gives alone.

    The kernel must be exactly symmetric, as every kernel the library
    builds is, and since all its eigenvalues lie below one, 1 - N must
    be positive definite.  One Cholesky factorization of the largest
    block checks that and serves every smaller size through partial
    sums of 2 log diag(L).  A loss of positivity or a nonfinite entry
    raises `PhysicalRegimeError` by the one rule of `_cholesky_ladders`,
    rather than returning a garbage value that downstream integration
    would silently absorb; a finite matrix that is not symmetric raises
    `DomainError`.  1 - N is formed once for the whole stack, in a fresh
    buffer that the factorizations overwrite.

    N need not be positive semidefinite, so no order is left out for a
    small diagonal entry: [[0, .5], [.5, 0]] gives log 0.75.  That cut
    is made in `kernel_blocks`, whose zero-tilt blocks are positive
    semidefinite.

    With ``factored``, ``kernel`` is instead a factor F, of shape
    (k, n), or a stack of them, of shape (run, k, n), as `kernel_blocks`
    yields them: N = F^T F, and a size s keeps F's leading s columns.
    Their log-determinants are taken on F's cheaper side by
    `_factor_logdets`, with no dense N formed.
    """
    entries = np.asarray(kernel)
    stacked = entries.ndim == 3
    if factored and entries.ndim not in (2, 3):
        raise DomainError("expected a factor of shape (k, n) or a stack of them")
    if not factored and (entries.ndim not in (2, 3) or entries.shape[-1] != entries.shape[-2]):
        raise DomainError("expected a square matrix or a stack of them")
    n = entries.shape[-1]
    want = [n] if sizes is None else list(sizes)
    if not all(isinstance(s, (int, np.integer)) and not isinstance(s, bool) for s in want):
        raise DomainError(f"block sizes must be integers, got {sizes!r}")
    want = np.asarray(want, dtype=int)
    if np.any(want < 0) or np.any(want > n):
        raise DomainError(f"block sizes must lie in [0, {n}]")
    if factored:
        cuts, where = np.unique(want, return_inverse=True)
        factors = entries if stacked else entries[None]
        out = (_factor_logdets(factors, cuts, stacked)[:, where] if want.size
               else np.zeros((factors.shape[0], 0)))
    else:
        top = int(want.max(initial=0))
        head = (entries if stacked else entries[None])[:, :top, :top]
        run = head.shape[0]
        # C order whatever the input's layout, so the reshape below is a view.
        m = np.negative(head, dtype=float, order="C")
        m.reshape(run, top * top)[:, ::top + 1] += 1.0
        # NaN compares unequal to itself, so a NaN entry fails this test too.
        if not np.all(m == m.transpose(0, 2, 1)):
            j = int(np.argmin(np.all(m == m.transpose(0, 2, 1), axis=(1, 2))))
            where = f"matrix {j} of the stack" if stacked else "the matrix"
            raise _nonfinite_square(head) or DomainError(
                f"the kernel must be exactly symmetric: {where} is not")
        # m is exactly symmetric, so the triangle LAPACK reads is the matrix.
        out = _cholesky_ladders(m, lambda: _nonfinite_square(head), stacked)[:, want]
    if stacked:
        return out[:, 0] if sizes is None else out
    return float(out[0, 0]) if sizes is None else out[0]


def _factor_logdets(factors: np.ndarray, cuts: np.ndarray, stacked: bool) -> np.ndarray:
    """log det(1 - F^T F) at each of the increasing leading column
    counts ``cuts`` of each factor F of a stack, of shape (run, k, n),
    for `logdet_one_minus`; the result has shape (run, len(cuts)).

    The stack is taken on its cheaper side.  With 3k < n (the rank
    cut's Y), by Sylvester's identity value j is log det(1 - G_j) of the
    k x k Gram G_j of F's leading cuts[j] columns.  For the whole stack
    at once, each segment of columns between cuts adds its Gram in place
    to the previous cut's sum S, in cut order; 1 - G_j is formed as
    -(S + S^T) / 2 + 1, exactly symmetric, and every node's and cut's
    matrix is factored by `_cholesky_ladders` directly.  Zero rows of F
    add an exact unit row and column to 1 - G_j, and so a factor of 1.0
    to its determinant.  Otherwise one dsyrk per factor writes
    1 - F^T F into one triangle of an identity, and one Cholesky
    factorization in place serves every cut.  The Grams cost 2 k^2 n in
    all and k^3 / 3 per cut, the single factorization n^2 k + n^3 / 3.
    With one BLAS thread and four cuts the two take the same time from
    about k = 0.4 n to 0.5 n (k = 170 at n = 401, 390 at n = 801); 3k < n
    keeps to the Grams where they are the faster by far.  A failure is
    raised by the rule of `_cholesky_ladders`, the input's nonfinite
    entries being F's columns and then, on the Gram side, the Grams'
    (a finite factor's Gram may overflow), looked at only after a
    failure; a leading minor that is not positive becomes kind "gram",
    at the first factor and cut whose Gram has an eigenvalue of at least
    one.
    """
    run, k, n = factors.shape
    top = int(cuts.max(initial=0))

    def nonfinite():
        return _nonfinite(~np.all(np.isfinite(factors[:, :, :top]), axis=1))

    if 3 * k < n:
        # sums[j, c]: node j's Gram S of F's leading cuts[c] columns, each
        # segment's Gram added to the previous cut's sum in cut order.
        sums = np.empty((run, cuts.size, k, k))
        for c, s in enumerate(np.split(factors, cuts, axis=2)[:cuts.size]):
            gram = s @ s.transpose(0, 2, 1)
            if c:
                np.add(sums[:, c - 1], gram, out=sums[:, c])
            else:
                sums[:, 0] = gram
        # 1 - G with G = (S + S^T) / 2, exactly symmetric, in C order; G is
        # nonfinite where S + S^T is.
        m = np.add(sums, sums.transpose(0, 1, 3, 2), order="C")
        m *= -0.5
        m.reshape(run * cuts.size, k * k)[:, ::k + 1] += 1.0
        flat = m.reshape(run * cuts.size, k, k)
        try:
            ladders = _cholesky_ladders(flat, lambda: _nonfinite_square(
                (sums + sums.transpose(0, 1, 3, 2)).reshape(flat.shape)), True)
            return ladders[:, k].reshape(run, cuts.size)
        except _PivotFailure as err:
            node, cut = divmod(err.matrix, cuts.size)
            gram = err.kind == "minor"
            raise nonfinite() or _PivotFailure(
                "1 - N is not positive definite: a Gram matrix of its factor has an eigenvalue "
                "of at least one" if gram else str(err), node, int(cuts[cut]),
                "gram" if gram else "nonfinite") from None
    # F's columns are contiguous, so dsyrk reads F in place, and m[j].T is
    # an identity in Fortran order, which it overwrites.
    m = np.zeros((run, top, top))
    m.reshape(run, top * top)[:, ::top + 1] = 1.0
    for j in range(run if top else 0):
        blas.dsyrk(-1.0, factors[j, :, :top], beta=1.0, c=m[j].T, trans=1, lower=1,
                   overwrite_c=1)
    return _cholesky_ladders(m, nonfinite, stacked)[:, cuts]
