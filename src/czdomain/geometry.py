"""Lipschitz domains, boundary windows and geometric queries.

Domains expose membership, exact (or certified) distance to the boundary,
distance from an axis-aligned box to the boundary, boundary windows with
rotated graph parameterizations, and ray casting for polar quadrature.

Window constants: every length is relative to the window side R. Defaults
(delta0=0.49, delta1=1/8, delta2=1/11, centers spaced delta1*R/4 along the
boundary) are chosen so that each peripheral Whitney cube provably fits in
some shrunk-window canvas; see the package README for the derivation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DELTA0 = 0.49  # canvas shrink factor
DELTA1 = 0.125  # boundary-cover shrink factor
DELTA2 = 0.22  # central/peripheral threshold, relative to R

# With windows centered every delta1*R/4 along the boundary, a peripheral
# cube (dist(center) + diam/2 <= delta2*R) lies within
# (delta2 + delta1/8 + sampling slack)*R < delta0*R/2 of some window
# center, so every peripheral cube fits in a canvas. delta2 is maximal
# under that budget to keep the canvas forests as deep as possible.


# ---------------------------------------------------------------------------
# low-level segment helpers


def point_box_distance(p, lo, hi) -> float:
    gap = np.maximum(np.maximum(lo - p, p - hi), 0.0)
    return float(np.linalg.norm(gap))


def points_segment_distance(points, a, b):
    """Distance from each point (m,2) to segment [a, b]."""
    pts = np.atleast_2d(points)
    ab = b - a
    denom = float(ab @ ab)
    if denom == 0.0:
        return np.linalg.norm(pts - a, axis=1)
    t = np.clip(((pts - a) @ ab) / denom, 0.0, 1.0)
    proj = a + t[:, None] * ab
    return np.linalg.norm(pts - proj, axis=1)


def _segments_intersect(p1, p2, q1, q2) -> bool:
    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    d1 = orient(q1, q2, p1)
    d2 = orient(q1, q2, p2)
    d3 = orient(p1, p2, q1)
    d4 = orient(p1, p2, q2)
    if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)):
        return True

    def on_seg(a, b, c):
        return (
            min(a[0], b[0]) - 1e-15 <= c[0] <= max(a[0], b[0]) + 1e-15
            and min(a[1], b[1]) - 1e-15 <= c[1] <= max(a[1], b[1]) + 1e-15
        )

    for d, (a, b, c) in (
        (d1, (q1, q2, p1)),
        (d2, (q1, q2, p2)),
        (d3, (p1, p2, q1)),
        (d4, (p1, p2, q2)),
    ):
        if d == 0 and on_seg(a, b, c):
            return True
    return False


def _segment_hits_box(a, b, lo, hi) -> bool:
    # Liang-Barsky clip
    d = b - a
    t0, t1 = 0.0, 1.0
    for i in range(2):
        if abs(d[i]) < 1e-300:
            if a[i] < lo[i] or a[i] > hi[i]:
                return False
            continue
        ta = (lo[i] - a[i]) / d[i]
        tb = (hi[i] - a[i]) / d[i]
        if ta > tb:
            ta, tb = tb, ta
        t0 = max(t0, ta)
        t1 = min(t1, tb)
        if t0 > t1:
            return False
    return True


def segment_box_distance(a, b, lo, hi) -> float:
    """Exact min distance between segment [a,b] and box [lo,hi] in 2-d."""
    if _segment_hits_box(a, b, lo, hi):
        return 0.0
    corners = np.array([[lo[0], lo[1]], [hi[0], lo[1]], [hi[0], hi[1]], [lo[0], hi[1]]])
    d = min(point_box_distance(a, lo, hi), point_box_distance(b, lo, hi))
    d = min(d, float(np.min(points_segment_distance(corners, a, b))))
    return d


def boxes_polyline_distance(lo, hi, starts, ends):
    """Exact min distance from each box [lo_i, hi_i] to a set of segments.

    lo/hi: (m, 2); starts/ends: (n, 2). Fully vectorized; returns (m,)."""
    lo = np.atleast_2d(lo)
    hi = np.atleast_2d(hi)
    P = np.atleast_2d(starts)[None, :, :]  # (1, n, 2)
    Q = np.atleast_2d(ends)[None, :, :]
    m = lo.shape[0]
    d = Q - P  # (1, n, 2)
    t0 = np.zeros((m, P.shape[1]))
    t1 = np.ones((m, P.shape[1]))
    valid = np.ones((m, P.shape[1]), dtype=bool)
    for i in range(2):
        par = np.abs(d[0, :, i]) < 1e-300
        inside_strip = (P[0, :, i][None, :] >= lo[:, i][:, None]) & (P[0, :, i][None, :] <= hi[:, i][:, None])
        valid &= ~par[None, :] | inside_strip
        with np.errstate(divide="ignore", invalid="ignore"):
            ta = (lo[:, i][:, None] - P[0, :, i][None, :]) / d[0, :, i][None, :]
            tb = (hi[:, i][:, None] - P[0, :, i][None, :]) / d[0, :, i][None, :]
        lo_t = np.minimum(ta, tb)
        hi_t = np.maximum(ta, tb)
        t0 = np.where(par[None, :], t0, np.maximum(t0, lo_t))
        t1 = np.where(par[None, :], t1, np.minimum(t1, hi_t))
    hit = np.any(valid & (t0 <= t1), axis=1)
    out = np.full(m, np.inf)
    # endpoint-to-box distances
    for E in (P[0], Q[0]):
        gap = np.maximum(np.maximum(lo[:, None, :] - E[None, :, :], E[None, :, :] - hi[:, None, :]), 0.0)
        out = np.minimum(out, np.min(np.linalg.norm(gap, axis=2), axis=1))
    # corner-to-segment distances
    dd = np.einsum("nj,nj->n", d[0], d[0])
    dd = np.where(dd == 0.0, 1.0, dd)
    for cx, cy in ((0, 1), (0, 3), (2, 1), (2, 3)):
        corner = np.stack([lo[:, 0] if cx == 0 else hi[:, 0], lo[:, 1] if cy == 1 else hi[:, 1]], axis=-1)
        t = np.clip(np.einsum("mnj,nj->mn", corner[:, None, :] - P, d[0]) / dd[None, :], 0.0, 1.0)
        proj = P + t[:, :, None] * d
        dist = np.linalg.norm(corner[:, None, :] - proj, axis=2)
        out = np.minimum(out, np.min(dist, axis=1))
    out[hit] = 0.0
    return out


# ---------------------------------------------------------------------------
# windows


@dataclass
class Window:
    """Boundary window: local frame in which the boundary is a graph.

    Local coordinates are y = rotation.T @ (x - center); the domain side is
    {y_d > graph(y')} inside the doubled box. `lipschitz_bound` is the
    measured sup slope of the graph (may reach 1.0 at right-angle corners).
    """

    center: np.ndarray
    side: float
    rotation: np.ndarray
    graph: object  # callable (m, d-1) -> (m,)
    lipschitz_bound: float
    index: int = -1

    def to_local(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return (pts - self.center) @ self.rotation

    def to_global(self, local):
        loc = np.atleast_2d(np.asarray(local, dtype=float))
        return self.center + loc @ self.rotation.T

    def in_shrunk_box(self, points, frac: float):
        """Whether each global point lies in frac*Q (local sup-norm box)."""
        loc = self.to_local(points)
        return np.max(np.abs(loc), axis=1) <= frac * self.side / 2.0

    def check_graph_lipschitz(self, n_samples: int = 200, rng=None) -> float:
        """Measured max slope |A(u)-A(v)|/|u-v| over sampled pairs."""
        rng = rng or np.random.default_rng(0)
        d1 = self.rotation.shape[0] - 1
        u = rng.uniform(-self.side, self.side, size=(n_samples, d1))
        v = rng.uniform(-self.side, self.side, size=(n_samples, d1))
        au = np.asarray(self.graph(u))
        av = np.asarray(self.graph(v))
        gaps = np.linalg.norm(u - v, axis=1)
        ok = gaps > 1e-12
        return float(np.max(np.abs(au[ok] - av[ok]) / gaps[ok]))

    def check_parameterization(self, domain, n: int = 12, pad: float = 0.45) -> bool:
        """Membership test: inside 2Q, contains(x) == (y_d > A(y'))."""
        s = self.side
        ax = np.linspace(-pad * 2 * s, pad * 2 * s, n)
        tt, yy = np.meshgrid(ax, ax, indexing="ij")
        loc = np.stack([tt.ravel(), yy.ravel()], axis=-1)
        pts = self.to_global(loc)
        gap = loc[:, -1] - np.asarray(self.graph(loc[:, :-1]))
        inside = domain.contains(pts)
        safe = np.abs(gap) > 1e-9 * s  # skip points essentially on the graph
        return bool(np.all(inside[safe] == (gap[safe] > 0)))


def _rotation_from_vertical(n: np.ndarray) -> np.ndarray:
    n = n / np.linalg.norm(n)
    t = np.array([n[1], -n[0]])
    return np.column_stack([t, n])


# ---------------------------------------------------------------------------
# domains


class Domain:
    """Base interface shared by all domain kinds."""

    dim = 2
    kind = "abstract"
    delta0 = DELTA0
    delta1 = DELTA1
    delta2 = DELTA2

    def contains(self, points):
        raise NotImplementedError

    def dist_to_boundary(self, points):
        raise NotImplementedError

    def dist_boxes_to_boundary(self, lo, hi):
        """Distance from each box [lo[i], hi[i]] to the boundary, (m, d) corner arrays."""
        raise NotImplementedError

    def windows(self):
        raise NotImplementedError

    @property
    def window_side(self) -> float:
        raise NotImplementedError

    def bounding_box(self):
        raise NotImplementedError

    def boundary_samples(self, spacing: float):
        raise NotImplementedError

    def contains_point(self, x) -> bool:
        return bool(self.contains(np.asarray(x, float)[None, :])[0])

    def dist_point(self, x) -> float:
        return float(self.dist_to_boundary(np.asarray(x, float)[None, :])[0])


class Disk(Domain):
    """Planar disk of given radius; analytic membership and distance."""

    kind = "disk"

    def __init__(self, radius: float, center=(0.0, 0.0), window_frac: float = 0.4):
        if radius <= 0:
            raise ValueError(f"radius must be positive, got {radius}")
        self.radius = float(radius)
        self.center = np.asarray(center, dtype=float)
        self._window_side = window_frac * self.radius
        self._windows = None

    @property
    def window_side(self):
        return self._window_side

    def contains(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return np.linalg.norm(pts - self.center, axis=1) < self.radius

    def dist_to_boundary(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return np.abs(self.radius - np.linalg.norm(pts - self.center, axis=1))

    def dist_boxes_to_boundary(self, lo, hi):
        lo = np.atleast_2d(lo)
        hi = np.atleast_2d(hi)
        near = np.clip(self.center[None, :], lo, hi)
        dmin = np.linalg.norm(near - self.center, axis=1)
        far = np.where(np.abs(lo - self.center) > np.abs(hi - self.center), lo, hi)
        dmax = np.linalg.norm(far - self.center, axis=1)
        out = np.zeros(lo.shape[0])
        out = np.where(dmin >= self.radius, dmin - self.radius, out)
        out = np.where(dmax <= self.radius, self.radius - dmax, out)
        return out

    def area(self) -> float:
        return math.pi * self.radius**2

    def bounding_box(self):
        r = self.radius
        return self.center - r, self.center + r

    def boundary_samples(self, spacing: float):
        n = max(8, int(np.ceil(2 * np.pi * self.radius / spacing)))
        th = np.arange(n) * (2 * np.pi / n)
        return self.center + self.radius * np.stack([np.cos(th), np.sin(th)], axis=-1)

    def windows(self):
        if self._windows is not None:
            return self._windows
        R = self.window_side
        rho = self.radius
        delta = R / math.sqrt(rho**2 - R**2)  # tan of half-aperture arcsin(R/rho)
        spacing = self.delta1 * R / 4.0
        centers = self.boundary_samples(spacing)
        wins = []
        for i, c in enumerate(centers):
            inward = (self.center - c) / rho

            def graph(t, rho=rho):
                t = np.asarray(t, float).reshape(-1)
                return rho - np.sqrt(np.maximum(rho**2 - t**2, 0.0))

            wins.append(
                Window(
                    center=c,
                    side=R,
                    rotation=_rotation_from_vertical(inward),
                    graph=graph,
                    lipschitz_bound=delta,
                    index=i,
                )
            )
        self._windows = wins
        return wins

    def ray_hits(self, origin, angles):
        """Intervals of the rays origin + t (cos a, sin a), t >= 0, inside
        the disk: flat arrays (ray, t0, t1), at most one row per ray."""
        o = np.asarray(origin, float) - self.center
        th = np.atleast_1d(np.asarray(angles, float))
        b = o[0] * np.cos(th) + o[1] * np.sin(th)
        disc = b * b - (float(o @ o) - self.radius**2)
        sq = np.sqrt(np.maximum(disc, 0.0))
        t0 = np.maximum(-b - sq, 0.0)
        t1 = -b + sq
        ray = np.flatnonzero((disc > 0) & (t1 > t0))
        return ray, t0[ray], t1[ray]


class UnsupportedDomainError(ValueError):
    """A domain the window construction cannot parameterize."""


class _LocalPolylineGraph:
    """Graph function backed by boundary segments in window-local coords.

    Inside the doubled window box the boundary must be single-valued over
    the horizontal coordinate; ambiguity marks an invalid window. The graph
    is kept where |y| <= HALF_HEIGHT * side."""

    HALF_HEIGHT = 1.05

    def __init__(self, segments, side):
        self.segments = segments  # list of (p, q) local 2-d points
        self.side = side
        self.ambiguous = False

    def __call__(self, t):
        t = np.asarray(t, float).reshape(-1)
        out = np.full(t.shape, np.nan)
        span = self.HALF_HEIGHT * self.side
        tol = 1e-9 * self.side
        for p, q in self.segments:
            t0, t1 = p[0], q[0]
            if abs(t1 - t0) < 1e-14 * self.side:
                # vertical piece inside the box means no graph there
                if min(abs(p[1]), abs(q[1])) <= span and abs(p[1] - q[1]) > tol:
                    self.ambiguous = True
                continue
            lo, hi = (t0, t1) if t0 < t1 else (t1, t0)
            sel = (t >= lo - 1e-12) & (t <= hi + 1e-12)
            if not np.any(sel):
                continue
            lam = (t[sel] - t0) / (t1 - t0)
            y = p[1] + lam * (q[1] - p[1])
            ok = np.abs(y) <= span
            idx = np.where(sel)[0][ok]
            clash = ~np.isnan(out[idx]) & (np.abs(out[idx] - y[ok]) > tol)
            if np.any(clash):
                self.ambiguous = True
            take = np.isnan(out[idx]) | (np.abs(y[ok]) < np.abs(out[idx]))
            out[idx[take]] = y[ok][take]
        if np.any(np.isnan(out)):
            raise ValueError("window graph not defined at requested abscissa")
        return out


class Polygon(Domain):
    """Simple closed polygon, counterclockwise; exact distances.

    Windows: one bisector-rotated window per corner plus edge windows at
    spacing delta1*R/4; edge windows close to a corner reuse that corner's
    bisector rotation so the boundary stays a graph inside the doubled box.
    """

    kind = "polygon"

    def __init__(self, vertices, window_side: float = None):
        v = np.asarray(vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 3:
            raise ValueError("polygon needs at least 3 planar vertices")
        if np.min(np.linalg.norm(np.roll(v, -1, axis=0) - v, axis=1)) < 1e-12:
            raise ValueError("polygon has repeated vertices")
        area2 = float(np.sum(v[:, 0] * np.roll(v[:, 1], -1) - np.roll(v[:, 0], -1) * v[:, 1]))
        self._given_order = np.arange(len(v))
        if area2 < 0:
            v = v[::-1].copy()
            self._given_order = self._given_order[::-1]
            area2 = -area2
        self.vertices = v
        self._area = 0.5 * area2
        n = len(v)
        for i in range(n):
            for j in range(i + 1, n):
                if j == i or (j + 1) % n == i or (i + 1) % n == j:
                    continue
                if _segments_intersect(v[i], v[(i + 1) % n], v[j], v[(j + 1) % n]):
                    raise ValueError("polygon is self-intersecting")
        edge_lengths = np.linalg.norm(np.roll(v, -1, axis=0) - v, axis=1)
        # R < min_edge/(2 sqrt 2): the doubled box of a bisector-rotated
        # window near one corner then cannot reach the next corner
        self._window_side = window_side if window_side is not None else 0.34 * float(np.min(edge_lengths))
        self._windows = None

    @property
    def window_side(self):
        return self._window_side

    def edges(self):
        v = self.vertices
        return [(v[i], v[(i + 1) % len(v)]) for i in range(len(v))]

    def contains(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        inside = np.zeros(pts.shape[0], dtype=bool)
        x, y = pts[:, 0], pts[:, 1]
        v = self.vertices
        n = len(v)
        j = n - 1
        for i in range(n):
            xi, yi = v[i]
            xj, yj = v[j]
            cond = (yi > y) != (yj > y)
            with np.errstate(divide="ignore", invalid="ignore"):
                xin = (xj - xi) * (y - yi) / (yj - yi) + xi
            inside ^= cond & (x < xin)
            j = i
        return inside

    def dist_to_boundary(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        d = np.full(pts.shape[0], np.inf)
        for a, b in self.edges():
            d = np.minimum(d, points_segment_distance(pts, a, b))
        return d

    def dist_boxes_to_boundary(self, lo, hi):
        v = self.vertices
        return boxes_polyline_distance(lo, hi, v, np.roll(v, -1, axis=0))

    def area(self) -> float:
        return self._area

    def bounding_box(self):
        return self.vertices.min(axis=0), self.vertices.max(axis=0)

    def boundary_samples(self, spacing: float):
        pts = []
        for a, b in self.edges():
            L = np.linalg.norm(b - a)
            n = max(1, int(np.ceil(L / spacing)))
            for k in range(n):
                pts.append(a + (k / n) * (b - a))
        return np.asarray(pts)

    def _corner_bisectors(self):
        v = self.vertices
        n = len(v)
        out = []
        for i in range(n):
            prev = v[(i - 1) % n]
            nxt = v[(i + 1) % n]
            e1 = (prev - v[i]) / np.linalg.norm(prev - v[i])
            e2 = (nxt - v[i]) / np.linalg.norm(nxt - v[i])
            bis = e1 + e2
            if np.linalg.norm(bis) < 1e-12:
                bis = np.array([-e2[1], e2[0]])  # straight corner: use normal
            bis = bis / np.linalg.norm(bis)
            probe = v[i] + 1e-7 * max(1.0, np.max(np.abs(v))) * bis
            if not self.contains_point(probe):
                bis = -bis
            out.append(bis)
        return out

    def corner_angles(self):
        """Interior angle at each vertex, in radians, in (0, 2 pi)."""
        v = self.vertices
        a, b = v - np.roll(v, 1, axis=0), np.roll(v, -1, axis=0) - v
        turn = np.arctan2(a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0], np.sum(a * b, axis=1))
        return np.pi - turn

    def _check_corner_angles(self):
        """A window on a corner's bisector sees both edges at slope
        |cot(angle / 2)|; its graph must reach |t| = R inside the graph box
        |y| <= HALF_HEIGHT R, which bounds that slope by HALF_HEIGHT."""
        limit = _LocalPolylineGraph.HALF_HEIGHT
        lo = math.degrees(2.0 * math.atan(1.0 / limit))
        for i, angle in enumerate(self.corner_angles().tolist()):
            if abs(math.cos(angle / 2.0)) > limit * math.sin(angle / 2.0):
                x, y = self.vertices[i].tolist()
                raise UnsupportedDomainError(
                    f"polygon corner {int(self._given_order[i])} at ({x:g}, {y:g}) has interior angle "
                    f"{math.degrees(angle):.1f} degrees; corner windows need angles between "
                    f"{lo:.1f} and {360.0 - lo:.1f} degrees"
                )

    def _local_boundary_segments(self, window_center, rotation, side):
        segs = []
        pad = 1.25 * side
        for a, b in self.edges():
            pa = rotation.T @ (a - window_center)
            pb = rotation.T @ (b - window_center)
            lo = np.minimum(pa, pb)
            hi = np.maximum(pa, pb)
            if np.all(lo <= pad) and np.all(hi >= -pad):
                segs.append((pa, pb))
        return segs

    def windows(self):
        if self._windows is not None:
            return self._windows
        self._check_corner_angles()
        R = self.window_side
        v = self.vertices
        bis = self._corner_bisectors()
        wins = []
        # corner windows first: they own the corner geometry
        for i in range(len(v)):
            rot = _rotation_from_vertical(bis[i])
            segs = self._local_boundary_segments(v[i], rot, R)
            graph = _LocalPolylineGraph(segs, R)
            delta = max(abs((q[1] - p[1]) / (q[0] - p[0])) for p, q in segs if abs(q[0] - p[0]) > 1e-12)
            wins.append(Window(center=v[i].copy(), side=R, rotation=rot, graph=graph, lipschitz_bound=delta, index=len(wins)))
        # edge windows at fine spacing
        spacing = self.delta1 * R / 4.0
        for ei, (a, b) in enumerate(self.edges()):
            L = float(np.linalg.norm(b - a))
            t_edge = (b - a) / L
            n_in = np.array([-t_edge[1], t_edge[0]])  # ccw: interior on the left
            n_steps = max(1, int(np.ceil(L / spacing)))
            for k in range(1, n_steps):
                c = a + (k / n_steps) * (b - a)
                d_corner = min(np.linalg.norm(c - v[j]) for j in range(len(v)))
                if d_corner <= math.sqrt(2.0) * R:
                    j = int(np.argmin([np.linalg.norm(c - v[j]) for j in range(len(v))]))
                    rot = _rotation_from_vertical(bis[j])
                else:
                    rot = _rotation_from_vertical(n_in)
                segs = self._local_boundary_segments(c, rot, R)
                graph = _LocalPolylineGraph(segs, R)
                delta = max(abs((q[1] - p[1]) / (q[0] - p[0])) for p, q in segs if abs(q[0] - p[0]) > 1e-12)
                wins.append(Window(center=c, side=R, rotation=rot, graph=graph, lipschitz_bound=delta, index=len(wins)))
        for w in wins:
            w.graph(np.linspace(-w.side, w.side, 41))
            if w.graph.ambiguous:
                raise ValueError(
                    f"window {w.index} at {w.center} is not a graph inside its doubled box; "
                    "reduce the polygon window side"
                )
        self._windows = wins
        return wins

    def ray_hits(self, origin, angles):
        """Intervals of the rays origin + t (cos a, sin a), t >= 0, inside
        the polygon: flat arrays (ray, t0, t1), one row per interval, in
        ray order and then along the ray."""
        o = np.asarray(origin, float)
        th = np.atleast_1d(np.asarray(angles, float))
        dx, dy = np.cos(th)[:, None], np.sin(th)[:, None]
        a = self.vertices
        e = np.roll(a, -1, axis=0) - a
        rhs = a - o
        # (rays x edges): ray parameter t and edge parameter s of each crossing
        denom = dx * (-e[:, 1]) - dy * (-e[:, 0])
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (rhs[:, 0] * (-e[:, 1]) + rhs[:, 1] * e[:, 0]) / denom
            s = (dx * rhs[:, 1] - dy * rhs[:, 0]) / denom
        hit = (np.abs(denom) >= 1e-300) & (t > 1e-13) & (s >= -1e-13) & (s <= 1 + 1e-13)
        ts = np.sort(np.where(hit, t, np.inf), axis=1)
        # a ray through a vertex crosses two edges at one t: keep a crossing
        # only beyond the last one kept
        keep = np.isfinite(ts)
        last = np.full(len(th), -np.inf)
        for j in range(ts.shape[1]):
            keep[:, j] &= ts[:, j] - last > 1e-12 * np.maximum(1.0, ts[:, j])
            last = np.where(keep[:, j], ts[:, j], last)
        pts = np.sort(np.where(keep, ts, np.inf), axis=1)
        if self.contains_point(o):
            pts = np.concatenate([np.zeros((len(th), 1)), pts], axis=1)
        m = pts.shape[1] // 2
        t0, t1 = pts[:, 0 : 2 * m : 2], pts[:, 1 : 2 * m : 2]
        rows = np.isfinite(t1) & (t1 > t0)
        return np.nonzero(rows)[0], t0[rows], t1[rows]


class GraphDomain(Domain):
    """Special Lipschitz domain {y_d > A(y')} restricted to one window.

    For d=2 the graph is backed by a polyline (exact distances); a callable
    A is sampled once onto a fine polyline and the sampling step is recorded
    in `distance_accuracy`. For d>2 only membership and a certified distance
    lower bound gap/sqrt(1+delta^2) are provided (exact when A == 0).
    """

    kind = "graph"

    def __init__(self, A=None, delta: float = 0.0, d: int = 2, window_side: float = 1.0, polyline=None, samples: int = 4096):
        if delta >= 1.0:
            raise ValueError(f"Lipschitz bound must satisfy delta < 1, got {delta}")
        self.dim = d
        self.delta = float(delta)
        self._window_side = float(window_side)
        self.distance_accuracy = 0.0
        if d == 2:
            if polyline is not None:
                pl = np.asarray(polyline, dtype=float)
            elif A is None:
                L = 50.0 * window_side
                pl = np.array([[-L, 0.0], [L, 0.0]])
            else:
                L = 2.5 * window_side
                t = np.linspace(-L, L, samples)
                pl = np.stack([t, np.asarray(A(t[:, None])).reshape(-1)], axis=-1)
                self.distance_accuracy = delta * (t[1] - t[0]) / 2.0
            slopes = np.abs(np.diff(pl[:, 1]) / np.diff(pl[:, 0]))
            measured = float(np.max(slopes)) if slopes.size else 0.0
            if measured > max(self.delta, 1e-12) * (1 + 1e-9):
                raise ValueError(f"graph slope {measured:.4g} exceeds declared bound {delta:.4g}")
            self.polyline = pl
            self._A = A
        else:
            if A is not None and delta > 0:
                self.polyline = None
                self._A = A
            else:
                self.polyline = None
                self._A = None  # half-space
        self._windows = None

    @property
    def window_side(self):
        return self._window_side

    def height(self, tprime):
        tprime = np.atleast_2d(np.asarray(tprime, dtype=float))
        if self.dim == 2 and self.polyline is not None:
            return np.interp(tprime[:, 0], self.polyline[:, 0], self.polyline[:, 1])
        if self._A is None:
            return np.zeros(tprime.shape[0])
        return np.asarray(self._A(tprime)).reshape(-1)

    def contains(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return pts[:, -1] > self.height(pts[:, :-1])

    def dist_to_boundary(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if self.dim == 2 and self.polyline is not None:
            d = np.full(pts.shape[0], np.inf)
            pl = self.polyline
            for i in range(len(pl) - 1):
                d = np.minimum(d, points_segment_distance(pts, pl[i], pl[i + 1]))
            return d
        gap = np.abs(pts[:, -1] - self.height(pts[:, :-1]))
        return gap / math.sqrt(1.0 + self.delta**2)

    def dist_boxes_to_boundary(self, lo, hi):
        if self.polyline is not None:
            pl = self.polyline
            return boxes_polyline_distance(lo, hi, pl[:-1], pl[1:])
        # certified bound via corner gaps (exact for half-space)
        lo = np.atleast_2d(np.asarray(lo, float))
        hi = np.atleast_2d(np.asarray(hi, float))
        m, d = lo.shape
        upper = ((np.arange(1 << d)[:, None] >> np.arange(d)) & 1).astype(bool)
        corners = np.where(upper, hi[:, None, :], lo[:, None, :])
        gaps = corners[..., -1] - self.height(corners[..., :-1].reshape(-1, d - 1)).reshape(m, -1)
        straddles = np.any(gaps <= 0, axis=1) & np.any(gaps >= 0, axis=1)
        return np.where(straddles, 0.0, np.min(np.abs(gaps), axis=1) / math.sqrt(1.0 + self.delta**2))

    def area(self) -> float:
        """Area of the covering-box region above the graph, exact: the
        integrand max(hi_y - max(h, lo_y), 0) is linear between the knots
        and the points where h crosses lo_y or hi_y."""
        lo, hi = self.bounding_box()
        if self.dim != 2:
            raise NotImplementedError
        pl = self.polyline
        xs = np.concatenate([[lo[0], hi[0]], pl[(pl[:, 0] > lo[0]) & (pl[:, 0] < hi[0]), 0]])
        for level in (lo[1], hi[1]):
            x0, y0, x1, y1 = pl[:-1, 0], pl[:-1, 1], pl[1:, 0], pl[1:, 1]
            cross = (y0 - level) * (y1 - level) < 0
            t = (level - y0[cross]) / (y1[cross] - y0[cross])
            xs = np.concatenate([xs, x0[cross] + t * (x1[cross] - x0[cross])])
        xs = np.unique(np.clip(xs, lo[0], hi[0]))
        g = np.clip(hi[1] - self.height(xs[:, None]), 0.0, hi[1] - lo[1])
        return float(np.sum(0.5 * (g[1:] + g[:-1]) * np.diff(xs)))

    def bounding_box(self):
        """Dyadic-aligned covering box containing the window.

        Edges sit on integer multiples of B = 2^ceil(log2(R)), so no dyadic
        cube of side <= B ever straddles a box edge; the truncation at the
        artificial sides then cannot break the W4/W5 guarantees.
        """
        B = 2.0 ** math.ceil(math.log2(self.window_side))
        c = self.window_origin()
        lo = np.empty(self.dim)
        hi = np.empty(self.dim)
        for a in range(self.dim - 1):
            anchor = round(c[a] / B) * B
            lo[a], hi[a] = anchor - B, anchor + B
        anchor = round(c[-1] / B) * B
        lo[-1], hi[-1] = anchor - B, anchor + B
        return lo, hi

    def window_origin(self):
        c = np.zeros(self.dim)
        c[-1] = float(self.height(np.zeros((1, self.dim - 1)))[0])
        return c

    def _window_span(self):
        lo, hi = self.bounding_box()
        R = self.window_side
        return lo[0] - R / 4.0, hi[0] + R / 4.0

    def boundary_samples(self, spacing: float):
        if self.dim != 2:
            raise NotImplementedError
        a, b = self._window_span()
        xs = np.arange(a, b + spacing / 2, spacing)
        return np.stack([xs, self.height(xs[:, None])], axis=-1)

    def windows(self):
        """Windows at spacing delta1*R/4 along the graph, identity rotation
        (the covering is properly oriented with respect to every window)."""
        if self._windows is not None:
            return self._windows
        R = self.window_side
        wins = []
        if self.dim == 2:
            a, b = self._window_span()
            spacing = self.delta1 * R / 4.0
            n = max(1, int(np.ceil((b - a) / spacing)))
            ts = a + (np.arange(n + 1) + 0.5) * (b - a) / (n + 1)
            centers = np.stack([ts, self.height(ts[:, None])], axis=-1)
        else:
            centers = [self.window_origin()]
        for c in centers:
            c = np.asarray(c, float)

            def graph(t, dom=self, c=c):
                t = np.atleast_2d(np.asarray(t, float).reshape(-1, dom.dim - 1))
                return dom.height(t + c[:-1]) - c[-1]

            wins.append(
                Window(
                    center=c,
                    side=R,
                    rotation=np.eye(self.dim),
                    graph=graph,
                    lipschitz_bound=self.delta,
                    index=len(wins),
                )
            )
        self._windows = wins
        return wins


# ---------------------------------------------------------------------------
# constructors mirroring the public operation set


def make_disk(radius: float) -> Disk:
    return Disk(radius)


def make_polygon(vertices) -> Polygon:
    return Polygon(vertices)


def make_graph_domain(A, bound: float, d: int = 2, window_side: float = 1.0) -> GraphDomain:
    return GraphDomain(A=A, delta=bound, d=d, window_side=window_side)


def unit_square() -> Polygon:
    return Polygon([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])


def zigzag_graph_domain(rng, delta: float, window_side: float = 1.0, n_knots: int = 24) -> GraphDomain:
    """Random piecewise-linear Lipschitz graph with exact slope bound delta."""
    L = 2.5 * window_side
    xs = np.linspace(-L, L, n_knots)
    heights = [0.0]
    for i in range(1, n_knots):
        step = (xs[i] - xs[i - 1]) * delta * rng.uniform(-1.0, 1.0)
        heights.append(heights[-1] + step)
    heights = np.asarray(heights)
    i0 = int(np.argmin(np.abs(xs)))
    heights -= heights[i0]  # keep the window origin near height 0
    pl = np.stack([xs, heights], axis=-1)
    return GraphDomain(delta=delta, d=2, window_side=window_side, polyline=pl)


def coverage_check(domain: Domain, spacing: float = None) -> bool:
    """Every boundary sample lies in some delta1-shrunk window."""
    R = domain.window_side
    spacing = spacing or domain.delta1 * R / 8.0
    samples = domain.boundary_samples(spacing)
    covered = np.zeros(len(samples), dtype=bool)
    for w in domain.windows():
        covered |= w.in_shrunk_box(samples, domain.delta1)
        if np.all(covered):
            return True
    return bool(np.all(covered))
