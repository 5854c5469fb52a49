"""Gauss-Legendre rules, tensor grids and Richardson extrapolation.

All quadrature in the package funnels through these helpers so that node
placement (and therefore every reported number) is deterministic.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# Per-axis Gauss order on Whitney cubes: the projection moments (raised to
# 2n for n > 3), the cube measures and the key-lemma nodes.
CUBE_ORDER = 6


@lru_cache(maxsize=64)
def gauss_legendre(order: int):
    """Nodes and weights on [-1, 1], cached per order."""
    if order < 1:
        raise ValueError(f"quadrature order must be >= 1, got {order}")
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def gauss_on_interval(a: float, b: float, order: int):
    """Gauss-Legendre nodes/weights mapped to [a, b]."""
    x, w = gauss_legendre(order)
    half = 0.5 * (b - a)
    return 0.5 * (a + b) + half * x, half * w


def tensor_rule(lo, hi, order: int):
    """Tensor Gauss-Legendre rule on an axis-aligned box.

    Returns (points, weights) with points of shape (order**d, d).
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    d = lo.size
    axes = [gauss_on_interval(lo[i], hi[i], order) for i in range(d)]
    grids = np.meshgrid(*[ax[0] for ax in axes], indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    wgrids = np.meshgrid(*[ax[1] for ax in axes], indexing="ij")
    w = np.ones(pts.shape[0])
    for g in wgrids:
        w = w * g.ravel()
    return pts, w


def gauss_log_radial(r0, r1, order: int = 12, panels_per_decade: float = 1.5):
    """Radial Gauss rules on the rows [r0[i], r1[i]], panels in log r.

    Suited to integrands with an |r|^-k singularity at r=0: each row gets
    ceil(log(r1/r0) * panels_per_decade / ln 10) geometrically graded
    panels. Rows with the same panel count form one group, so no row is
    padded: a list of (rows, nodes, weights), one entry per panel count,
    with nodes and weights of shape (len(rows), panels * order).
    """
    r0 = np.atleast_1d(np.asarray(r0, dtype=float))
    r1 = np.atleast_1d(np.asarray(r1, dtype=float))
    if not np.all((0.0 < r0) & (r0 < r1)):
        raise ValueError("need 0 < r0 < r1 on every row")
    span = np.log(r1 / r0)
    n_panels = np.maximum(1, np.ceil(span * panels_per_decade / np.log(10.0)).astype(int))
    x, w = gauss_legendre(order)
    groups = []
    for k in np.unique(n_panels):
        rows = np.flatnonzero(n_panels == k)
        logs = np.arange(k + 1) * (span[rows, None] / k)  # np.linspace(0, span, k + 1) per row
        logs[:, -1] = span[rows]
        edges = r0[rows, None] * np.exp(logs)
        half = 0.5 * (edges[:, 1:] - edges[:, :-1])
        mid = 0.5 * (edges[:, :-1] + edges[:, 1:])
        nodes = mid[:, :, None] + half[:, :, None] * x
        weights = half[:, :, None] * w
        groups.append((rows, nodes.reshape(len(rows), -1), weights.reshape(len(rows), -1)))
    return groups


def trapezoid_circle(n: int):
    """Uniform angles/weights for periodic trapezoid rule on [0, 2pi)."""
    theta = np.arange(n) * (2.0 * np.pi / n)
    w = np.full(n, 2.0 * np.pi / n)
    return theta, w


def richardson(values, ratio: float = 0.5, order: int = 2):
    """Richardson-extrapolate a sequence I(eps_m) with eps_{m+1} = ratio*eps_m.

    Assumes an error expansion in integer powers of eps starting at eps^1.
    Returns (extrapolated_value, error_estimate, table).
    """
    vals = list(values)
    if len(vals) < 2:
        v = vals[0]
        return v, float("inf"), [vals]
    table = [vals]
    for k in range(1, min(order, len(vals) - 1) + 1):
        prev = table[-1]
        fac = ratio ** (-k)
        nxt = [(fac * prev[i + 1] - prev[i]) / (fac - 1.0) for i in range(len(prev) - 1)]
        table.append(nxt)
    last = table[-1]
    if len(last) >= 2:
        est = abs(last[-1] - last[-2])
    else:
        est = abs(table[-1][-1] - table[-2][-1])
    return table[-1][-1], float(est), table
