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


def gauss_log_radial(r0: float, r1: float, order: int = 12, panels_per_decade: float = 1.5):
    """Radial nodes/weights on [r0, r1] using Gauss panels in log r.

    Suited to integrands with an |r|^-k singularity at r=0: panels are
    geometrically graded so each spans a bounded log-range.
    """
    if not (0.0 < r0 < r1):
        raise ValueError(f"need 0 < r0 < r1, got ({r0}, {r1})")
    span = np.log(r1 / r0)
    n_panels = max(1, int(np.ceil(span * panels_per_decade / np.log(10.0))))
    edges = r0 * np.exp(np.linspace(0.0, span, n_panels + 1))
    xs, ws = [], []
    for i in range(n_panels):
        x, w = gauss_on_interval(edges[i], edges[i + 1], order)
        xs.append(x)
        ws.append(w)
    return np.concatenate(xs), np.concatenate(ws)


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
