"""Gauss-Legendre panel quadrature helpers.

Frequency integrals here stretch over several decades, so the standard
grid maps panels uniformly in t = log(q H / 0.3) and folds the Jacobian
q = 0.3 e^t into the weights.  A plain linear-panel variant covers
integrals on ordinary bounded intervals.
"""

from __future__ import annotations

import functools

import numpy as np
from scipy.special import roots_legendre

__all__ = ["panel_grid", "expmap_grid", "panel_interp"]


@functools.lru_cache(maxsize=None)
def _legendre_rule(node_count: int):
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per count.

    The arrays are shared by every caller, so they are read-only.
    """
    xg, wg = roots_legendre(node_count)
    xg.flags.writeable = False
    wg.flags.writeable = False
    return xg, wg


@functools.lru_cache(maxsize=None)
def _barycentric_weights(node_count: int):
    """Barycentric weights (-1)^j sqrt((1 - x_j^2) w_j) of Lagrange
    interpolation through `_legendre_rule`'s nodes x_j, from its weights
    w_j, computed once per count and read-only like the rule."""
    xg, wg = _legendre_rule(node_count)
    c = (-1.0) ** np.arange(node_count) * np.sqrt((1.0 - xg ** 2) * wg)
    c.flags.writeable = False
    return c


def panel_grid(edges, node_count: int):
    """Gauss-Legendre nodes and weights on consecutive panels.

    ``edges`` is an increasing sequence; each adjacent pair becomes one
    panel with ``node_count`` nodes.  Returns flat (x, w) arrays.
    """
    edges = np.asarray(edges, dtype=float)
    xg, wg = _legendre_rule(node_count)
    mid = (edges[1:] + edges[:-1]) / 2.0
    half = (edges[1:] - edges[:-1]) / 2.0
    x = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
    w = (half[:, None] * wg[None, :]).ravel()
    return x, w


def expmap_grid(qmin: float, qmax: float, panel_count: int, node_count: int):
    """Exponentially mapped grid for integrals of the form int_0^inf f(q) dq.

    Panels are uniform in t = log(q / 0.3) between log(qmin/0.3) and
    log(qmax/0.3); the returned weights already contain the dq = q dt
    measure, so sum(w * f(x)) approximates the q-integral directly.
    """
    t, wt = panel_grid(np.linspace(np.log(qmin / 0.3), np.log(qmax / 0.3),
                                   panel_count + 1), node_count)
    x = 0.3 * np.exp(t)
    return x, wt * x


def panel_interp(edges: np.ndarray, node_count: int, t: np.ndarray):
    """Barycentric Lagrange interpolation from `panel_grid`'s nodes to ``t``.

    Returns (idx, basis) of shape (t.size, node_count): the flat indices
    of the nodes of the panel that holds each t (an end panel for a t
    outside the edges) and their weights, f(t) ~ (f_nodes[idx] * basis).sum(-1).
    """
    xg, _ = _legendre_rule(node_count)
    # Searching the inner edges alone puts a t outside on an end panel.
    k = np.searchsorted(edges[1:-1], t, side="right")
    lo, hi = edges[k], edges[k + 1]
    d = ((2.0 * t - lo - hi) / (hi - lo))[:, None] - xg
    hit = d == 0.0  # a t on a node takes that node's value alone
    c = _barycentric_weights(node_count) / np.where(hit, 1.0, d)
    c = np.where(hit.any(axis=1, keepdims=True), hit, c)
    return k[:, None] * node_count + np.arange(node_count), c / c.sum(axis=1, keepdims=True)
