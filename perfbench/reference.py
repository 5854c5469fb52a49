"""Reference computations made apart from czdomain.

Everything here uses numpy and the standard library only; nothing imports
the package under test. The checks in ``workloads.py`` compare the
program's outputs against these values.

* Closed forms of the Beurling transform of the indicator of a square:
  inside the square B chi_Q is holomorphic with
      g'(z) = (c / pi) * sum_k s_k / (z - v_k),   |c| = 1,
  over the vertices v_k with alternating signs s = (+1, -1, +1, -1), so
      |grad B chi_Q|   = |d_x g| + |d_y g|               = 2 |g'|,
      |grad^2 B chi_Q| = |g''| + |i g''| + |i^2 g''|      = 3 |g''|.
* The exact area of the part of a box above a polyline graph.
* Whitney-covering facts recomputed from the integer cube indices alone:
  disjointness, neighbour level gaps, dilated-cube superposition, point
  coverage, cube volume and long distances.
"""

from __future__ import annotations

import math

import numpy as np

SQUARE_SIGNS = np.array([1.0, -1.0, 1.0, -1.0])


def square_vertices(offset):
    """Vertices 0, 1, 1+i, i of the unit square shifted by an integer offset."""
    base = np.array([0.0, 1.0, 1.0 + 1.0j, 1.0j])
    return base + complex(offset[0], offset[1])


def square_grad_total(z, vertices, order: int):
    """|grad^order B chi_Q|(z) for order 1 or 2, from the closed form."""
    z = np.asarray(z, dtype=complex)
    diff = z[..., None] - vertices
    if order == 1:
        return (2.0 / math.pi) * np.abs(np.sum(SQUARE_SIGNS / diff, axis=-1))
    if order == 2:
        return (3.0 / math.pi) * np.abs(np.sum(SQUARE_SIGNS / diff**2, axis=-1))
    raise ValueError("closed form implemented for orders 1 and 2")


def gauss_square(order: int):
    """Tensor Gauss-Legendre nodes (m, 2) and weights on the unit square."""
    x, w = np.polynomial.legendre.leggauss(order)
    x = 0.5 * (x + 1.0)
    w = 0.5 * w
    nodes = np.stack(np.meshgrid(x, x, indexing="ij"), axis=-1).reshape(-1, 2)
    weights = np.outer(w, w).ravel()
    return nodes, weights


def cube_boxes(levels, indices, base: float):
    """(lo, side) of dyadic cubes from their integer level and index."""
    levels = np.asarray(levels)
    sides = base * np.ldexp(1.0, -levels.astype(int))
    lo = np.asarray(indices, dtype=float) * sides[:, None]
    return lo, sides


def integrate_over_cubes(func, lo, sides, order: int):
    """Per cube: Gauss rule of the given order for int_Q func(z) dA."""
    nodes, weights = gauss_square(order)
    out = np.empty(len(sides))
    chunk = 4096
    for start in range(0, len(sides), chunk):
        blo = lo[start : start + chunk]
        bs = sides[start : start + chunk]
        pts = blo[:, None, :] + bs[:, None, None] * nodes[None, :, :]
        vals = func(pts[..., 0] + 1j * pts[..., 1])
        out[start : start + chunk] = bs**2 * (vals @ weights)
    return out


def tripled_means(field, centers, sides, order: int):
    """Mean of a field over each concentric tripled cube, by a Gauss rule."""
    nodes, weights = gauss_square(order)
    s3 = 3.0 * np.asarray(sides)
    lo = np.asarray(centers) - s3[:, None] / 2.0
    pts = lo[:, None, :] + s3[:, None, None] * nodes[None, :, :]
    vals = field(pts.reshape(-1, 2)).reshape(len(s3), -1)
    return vals @ weights


# ---------------------------------------------------------------------------
# polyline graphs


def area_above_polyline(knots, lo, hi) -> float:
    """Exact area of {(x, y) in [lo, hi] : y > h(x)} for the piecewise
    linear h through `knots` (sorted by x, spanning [lo[0], hi[0]]).

    The x range is split at the knots and wherever h crosses lo[1] or
    hi[1]; between breakpoints the clipped height is linear, so the
    trapezoid rule is exact there."""
    xs, ys = knots[:, 0], knots[:, 1]
    x0, x1 = float(lo[0]), float(hi[0])
    cuts = {x0, x1}
    cuts.update(float(x) for x in xs if x0 < x < x1)
    for i in range(len(xs) - 1):
        a, b = ys[i], ys[i + 1]
        for level in (lo[1], hi[1]):
            if (a - level) * (b - level) < 0:
                t = (level - a) / (b - a)
                xc = xs[i] + t * (xs[i + 1] - xs[i])
                if x0 < xc < x1:
                    cuts.add(float(xc))
    cuts = np.array(sorted(cuts))
    height = hi[1] - np.clip(np.interp(cuts, xs, ys), lo[1], hi[1])
    return float(np.sum(0.5 * (height[1:] + height[:-1]) * np.diff(cuts)))


def above_polyline(points, knots):
    return points[:, 1] > np.interp(points[:, 0], knots[:, 0], knots[:, 1])


def polyline_distance(points, knots):
    """Euclidean distance from each point to the polyline."""
    best = np.full(len(points), np.inf)
    for a, b in zip(knots[:-1], knots[1:]):
        e = b - a
        t = np.clip(((points - a) @ e) / (e @ e), 0.0, 1.0)
        best = np.minimum(best, np.linalg.norm(points - (a + t[:, None] * e), axis=1))
    return best


# ---------------------------------------------------------------------------
# integer geometry of dyadic cubes


class DyadicCubes:
    """Cubes given by (level, index) on a grid of base side `base`, with
    corners held as integers in units of the finest side."""

    _M = 1 << 24

    def __init__(self, levels, indices, base: float):
        self.levels = np.asarray(levels, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.base = float(base)
        self.top = int(self.levels.max())
        self.scale = np.left_shift(np.int64(1), self.top - self.levels)
        self.ulo = self.indices * self.scale[:, None]
        self.uhi = self.ulo + self.scale[:, None]
        self.keys = np.sort(self._key(self.levels, self.indices))
        self.present = np.unique(self.levels)

    def _key(self, level, idx):
        half = self._M // 2
        return (level * self._M + idx[..., 0] + half) * self._M + idx[..., 1] + half

    def _has(self, level, idx):
        key = self._key(level, idx)
        pos = np.minimum(np.searchsorted(self.keys, key), len(self.keys) - 1)
        return self.keys[pos] == key

    def volume(self) -> float:
        return float(np.sum((self.base * np.ldexp(1.0, -self.levels.astype(int))) ** 2))

    def disjoint(self) -> bool:
        """Interiors pairwise disjoint: the Z-order intervals of the cubes
        do not overlap."""
        k = int(self.top - self.levels.min())
        shift = (self.ulo.min(axis=0) >> k) << k
        u = self.ulo - shift
        bits = int(u.max()).bit_length() + 1
        morton = np.zeros(len(u), dtype=np.int64)
        for b in range(bits):
            morton |= ((u[:, 0] >> b) & 1) << (2 * b)
            morton |= ((u[:, 1] >> b) & 1) << (2 * b + 1)
        start = morton
        end = morton + self.scale * self.scale
        order = np.argsort(start, kind="stable")
        return bool(np.all(start[order][1:] >= end[order][:-1]))

    def _locate(self, pts2):
        """Level of the cube containing each point given in half finest
        units (-1 where no cube contains it)."""
        found = np.full(len(pts2), -1, dtype=np.int64)
        for lev in self.present:
            cell = np.int64(2) << (self.top - int(lev))
            idx = np.floor_divide(pts2, cell)
            hit = self._has(np.int64(lev), idx) & (found < 0)
            found[hit] = lev
        return found

    def max_neighbour_gap(self) -> int:
        """max |level(Q) - level(R)| over cubes whose closures touch.

        Points just outside each cube's edge midpoints and corners lie in
        every coarser or equal neighbour, and a touching pair is always
        seen from its finer member."""
        lo2, hi2 = 2 * self.ulo, 2 * self.uhi
        choices = [lambda a, b: a - 1, lambda a, b: (a + b) // 2, lambda a, b: b + 1]
        worst = 0
        for i, fx in enumerate(choices):
            for j, fy in enumerate(choices):
                if i == 1 and j == 1:
                    continue
                pts = np.stack([fx(lo2[:, 0], hi2[:, 0]), fy(lo2[:, 1], hi2[:, 1])], axis=-1)
                lev = self._locate(pts)
                ok = lev >= 0
                if np.any(ok):
                    worst = max(worst, int(np.max(np.abs(lev[ok] - self.levels[ok]))))
        return worst

    def superposition(self, dilation: int):
        """(per-scale max, total max) over cube centres of the number of
        dilated cubes (dilation * Q) containing the centre."""
        cen2 = self.ulo + self.uhi  # doubled centres
        total = np.zeros(len(cen2), dtype=np.int64)
        per_scale = 0
        for lev in self.present:
            s = int(self.scale[self.levels == lev][0])
            reach = dilation * s  # |X - C'| <= dilation * s in doubled units
            lo_ix = -((-(cen2 - s - reach)) // (2 * s))  # ceil
            hi_ix = (cen2 - s + reach) // (2 * s)
            span = int(np.max(hi_ix - lo_ix)) + 1
            cnt = np.zeros(len(cen2), dtype=np.int64)
            for ox in range(span):
                for oy in range(span):
                    idx = lo_ix + np.array([ox, oy])
                    inside = np.all(idx <= hi_ix, axis=1)
                    cnt += inside & self._has(np.int64(lev), idx)
            per_scale = max(per_scale, int(cnt.max()))
            total += cnt
        return per_scale, int(total.max())

    def covered(self, points):
        """Whether each point (real coordinates) lies in some cube."""
        hit = np.zeros(len(points), dtype=bool)
        for lev in self.present:
            side = self.base * math.ldexp(1.0, -int(lev))
            idx = np.floor(points / side).astype(np.int64)
            hit |= self._has(np.int64(lev), idx)
        return hit

    def long_distance_row(self, i: int):
        """D(Q_i, S) = l(Q_i) + l(S) + dist(Q_i, S) for every cube S."""
        unit = self.base * math.ldexp(1.0, -self.top)
        gap = np.maximum(np.maximum(self.ulo - self.uhi[i], self.ulo[i] - self.uhi), 0)
        dist = unit * np.sqrt(np.sum(gap.astype(float) ** 2, axis=1))
        return unit * float(self.scale[i]) + unit * self.scale.astype(float) + dist
