"""Oriented Whitney coverings: construction, orientation, chains, shadows.

Construction selects maximal dyadic cubes Q with dist(Q, boundary) >= tau *
side(Q). With tau = sqrt(d) both the distance bracket
    C_W * l(Q) <= dist(Q, bd) <= 4 C_W * l(Q)
and the neighbor side-ratio bound l(Q) <= 2 l(R) are theorems of the
selection rule, not empirical observations; the builder picks the largest
tau compatible with the requested C_W and reports whether the ratio bound
is guaranteed or merely checked.
"""

from __future__ import annotations

import bisect
import itertools
import math

import numpy as np

from .geometry import Domain, GraphDomain


class Covering:
    """Unoriented Whitney covering (axioms W1-W6, truncated at min_side).

    One table of cubes sorted by (level, index): cube i is the semi-open
    dyadic cube [indices[i] * s, (indices[i] + 1) * s) with
    s = sides[i] = base * 2^-levels[i]. A cube's position in the table is
    its identity everywhere in the package."""

    def __init__(self, domain, levels, indices, dists, C_W, tau, min_side, base,
                 dropped_count, dropped_volume, clip_box=None):
        self.domain = domain
        self.C_W = C_W
        self.tau = tau
        self.min_side = min_side
        self.base = base
        self.dropped_count = dropped_count
        self.dropped_volume = dropped_volume
        self.clip_box = clip_box
        levels = np.asarray(levels, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64).reshape(len(levels), domain.dim)
        order = np.lexsort([indices[:, a] for a in range(domain.dim - 1, -1, -1)] + [levels])
        self.levels = levels[order]
        self.indices = indices[order]
        self.sides = np.ldexp(float(base), -self.levels)
        self.lo = self.indices * self.sides[:, None]
        self.hi = (self.indices + 1) * self.sides[:, None]
        self.centers = (self.indices + 0.5) * self.sides[:, None]
        self.dists = np.asarray(dists, dtype=float)[order]
        self.max_level = int(self.levels.max(initial=0))
        # locate() tables: per level, its slice of the table and a mixed-radix
        # key of the index rows over a box holding them (and the origin); the
        # keys increase along the slice because the table is sorted, and end
        # with the sentinel prod(width), which no row in the box reaches
        bounds = np.searchsorted(self.levels, np.arange(self.max_level + 2))
        self._keys = []
        for lev in range(self.max_level + 1):
            idx = self.indices[bounds[lev] : bounds[lev + 1]]
            low = idx.min(axis=0, initial=0)
            width = idx.max(axis=0, initial=0) - low + 1
            weight = np.cumprod(np.concatenate([width[1:], [1]])[::-1])[::-1]
            keys = np.append((idx - low) @ weight, np.prod(width))
            self._keys.append((int(bounds[lev]), low, width, weight, keys))
        self._adjacency = None

    def __len__(self):
        return len(self.levels)

    @property
    def dim(self):
        return self.domain.dim

    def volume(self) -> float:
        return float(np.sum(self.sides**self.dim))

    def key(self, i: int):
        """(level, index) of cube i as Python ints, for messages."""
        return int(self.levels[i]), tuple(self.indices[i].tolist())

    # -- lookup ------------------------------------------------------------

    def locate(self, level: int, rows):
        """Position of the cube (level, row) for each index row, -1 where
        the covering holds no such cube."""
        rows = np.asarray(rows, dtype=np.int64).reshape(-1, self.dim)
        if not 0 <= level <= self.max_level:
            return np.full(len(rows), -1, dtype=np.int64)
        start, low, width, weight, keys = self._keys[level]
        rel = rows - low
        key = np.where(np.all((rel >= 0) & (rel < width), axis=1), rel @ weight, keys[-1])
        at = np.searchsorted(keys, key)
        return np.where((keys[at] == key) & (at < len(keys) - 1), start + at, -1)

    def containing(self, points):
        """Position of the cube holding each point, -1 where none does."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.full(len(points), -1, dtype=np.int64)
        for lev in np.unique(self.levels).tolist():
            todo = np.flatnonzero(out < 0)
            cells = np.floor(points[todo] / (self.base * 2.0 ** (-float(lev)))).astype(np.int64)
            out[todo] = self.locate(lev, cells)
        return out

    # -- neighbor structure ------------------------------------------------

    def adjacency(self):
        """Neighbours as CSR arrays (indptr, nbr): the cubes whose closures
        meet cube i's are nbr[indptr[i]:indptr[i + 1]], ascending.

        Each touching pair is found from its finer member: a cube of level
        j touches the cube (j2 <= j, c) exactly when on every axis
        (idx - 1) >> (j - j2) <= c <= (idx + 1) >> (j - j2) (closed boxes,
        integer arithmetic), and those c lie among the 3^d offsets of
        idx >> (j - j2)."""
        if self._adjacency is None:
            offsets = np.array(list(itertools.product((-1, 0, 1), repeat=self.dim)), dtype=np.int64)
            src, dst = [], []
            present = np.unique(self.levels).tolist()
            for j in present:
                fine = np.flatnonzero(self.levels == j)
                idx = self.indices[fine]
                for j2 in present[: present.index(j) + 1]:
                    lo, hi, mid = (idx - 1) >> (j - j2), (idx + 1) >> (j - j2), idx >> (j - j2)
                    for off in offsets[offsets.any(axis=1)] if j2 == j else offsets:
                        ok = np.flatnonzero(np.all((lo <= mid + off) & (mid + off <= hi), axis=1))
                        k = self.locate(j2, mid[ok] + off)
                        src.append(fine[ok[k >= 0]])
                        dst.append(k[k >= 0])
            src, dst = np.concatenate(src), np.concatenate(dst)
            cross = self.levels[src] != self.levels[dst]  # same-level pairs are found from both sides
            src, dst = np.concatenate([src, dst[cross]]), np.concatenate([dst, src[cross]])
            indptr = np.concatenate([[0], np.cumsum(np.bincount(src, minlength=len(self)))])
            self._adjacency = (indptr, dst[np.lexsort((dst, src))])
        return self._adjacency

    def neighbors(self):
        """Per-cube neighbour arrays: views into the CSR arrays of adjacency()."""
        indptr, nbr = self.adjacency()
        return np.split(nbr, indptr[1:-1])

    def neighbor_pairs(self, cubes):
        """(src, dst) over every neighbour of each of `cubes`: src repeats
        each cube once per neighbour, in the given order; dst lists its
        neighbours ascending."""
        indptr, nbr = self.adjacency()
        cubes = np.asarray(cubes, dtype=np.int64).reshape(-1)
        count = indptr[cubes + 1] - indptr[cubes]
        start = np.repeat(indptr[cubes] - (np.cumsum(count) - count), count)
        return np.repeat(cubes, count), nbr[start + np.arange(len(start))]

    # -- gap distances -----------------------------------------------------

    def box_gap(self, i: int, others=None):
        """Euclidean gap dist(Q_i, Q_k) for each k (0 when closures meet)."""
        others = slice(None) if others is None else others
        g1 = self.lo[others] - self.hi[i]
        g2 = self.lo[i] - self.hi[others]
        gap = np.maximum(np.maximum(g1, g2), 0.0)
        return np.sqrt(np.sum(gap * gap, axis=-1))

    def long_distance(self, i: int, k: int) -> float:
        """D(Q,S) = l(Q) + l(S) + dist(Q,S)."""
        return float(self.sides[i] + self.sides[k] + self.box_gap(i, [k])[0])

    def long_distance_row(self, i: int):
        return self.sides[i] + self.sides + self.box_gap(i)


def select_tau(C_W: float, d: int) -> float:
    """Largest selection threshold compatible with the W4 bracket.

    tau >= sqrt(d) additionally guarantees the W5 neighbor ratio <= 2.
    """
    if C_W < 1.0:
        raise ValueError(f"C_W must be >= 1, got {C_W}")
    sd = math.sqrt(d)
    cap = 0.5 * (4.0 * C_W - sd) * (1.0 - 1e-9)  # strictly inside the bracket
    return max(C_W, min(sd, cap))


def build_covering(domain: Domain, min_side: float, C_W: float = 1.125) -> Covering:
    """Whitney covering of the domain truncated at min_side (W1-W6).

    Cubes are maximal dyadic cubes with dist(Q, bd) >= tau * l(Q); cubes that
    would require side < min_side are dropped and reported as the truncation
    layer. The frontier advances one dyadic level at a time with all
    geometric predicates evaluated on whole index arrays.
    """
    if min_side <= 0:
        raise ValueError("min_side must be positive")
    d = domain.dim
    tau = select_tau(C_W, d)
    lo_bb, hi_bb = domain.bounding_box()
    extent = float(np.max(hi_bb - lo_bb))
    if not np.isfinite(extent) or extent <= 0:
        raise ValueError("domain has empty interior or unbounded box")
    base = 2.0 ** math.ceil(math.log2(extent))
    clip = isinstance(domain, GraphDomain)
    clip_lo, clip_hi = (lo_bb, hi_bb) if clip else (None, None)
    eps = 1e-12 * extent

    levels = []
    indices = []
    dists = []
    dropped = 0
    dropped_vol = 0.0

    lo_idx = np.floor(lo_bb / base).astype(np.int64)
    hi_idx = np.floor((hi_bb - eps) / base).astype(np.int64)
    frontier = np.array(
        list(itertools.product(*[range(lo_idx[a], hi_idx[a] + 1) for a in range(d)])), dtype=np.int64
    ).reshape(-1, d)
    level = 0
    offsets = np.array(list(itertools.product((0, 1), repeat=d)), dtype=np.int64)

    while frontier.size:
        side = base * 2.0 ** (-level)
        lo = frontier * side
        hi = lo + side
        keep = np.ones(len(frontier), dtype=bool)
        if clip:
            keep &= ~(np.any(hi <= clip_lo + eps, axis=1) | np.any(lo >= clip_hi - eps, axis=1))
            inside_clip = np.all(lo >= clip_lo - eps, axis=1) & np.all(hi <= clip_hi + eps, axis=1)
        else:
            inside_clip = np.ones(len(frontier), dtype=bool)
        dist = np.where(keep, domain.dist_boxes_to_boundary(lo, hi), 0.0)
        center_in = np.zeros(len(frontier), dtype=bool)
        center_in[keep] = domain.contains(0.5 * (lo[keep] + hi[keep]))
        keep &= ~((dist > 0.0) & ~center_in)  # entirely outside the open set
        accept = keep & inside_clip & (dist >= tau * side) & center_in
        rest = keep & ~accept
        levels.append(np.full(int(np.sum(accept)), level))
        indices.append(frontier[accept])
        dists.append(dist[accept])
        if side / 2.0 >= min_side * (1.0 - 1e-12):
            parents = frontier[rest]
            frontier = (2 * parents[:, None, :] + offsets[None, :, :]).reshape(-1, d)
            level += 1
        else:
            dropped += int(np.sum(rest))
            dropped_vol += float(np.sum(rest)) * side**d
            frontier = np.empty((0, d), dtype=np.int64)
    if not sum(map(len, levels)):
        raise ValueError("covering is empty; domain may have empty interior")
    return Covering(domain, np.concatenate(levels), np.concatenate(indices), np.concatenate(dists),
                    C_W, tau, min_side, base, dropped, dropped_vol,
                    clip_box=(clip_lo, clip_hi) if clip else None)


# ---------------------------------------------------------------------------
# axiom checks


def check_w2(cov: Covering) -> bool:
    """Pairwise disjoint interiors: no dyadic ancestor/descendant pairs."""
    for lev in range(cov.max_level):
        finer = cov.levels > lev
        ancestors = cov.indices[finer] >> (cov.levels[finer] - lev)[:, None]
        if np.any(cov.locate(lev, ancestors) >= 0):
            return False
    return True


def check_w4(cov: Covering):
    lo_ok = cov.dists >= cov.C_W * cov.sides
    hi_ok = cov.dists <= 4.0 * cov.C_W * cov.sides
    return bool(np.all(lo_ok & hi_ok)), int(np.sum(~(lo_ok & hi_ok)))


def check_w5(cov: Covering):
    """Neighbor side ratio <= 2, i.e. |level difference| <= 1."""
    src, dst = cov.neighbor_pairs(np.arange(len(cov)))
    worst = int(np.abs(cov.levels[src] - cov.levels[dst]).max(initial=0))
    return worst <= 1, worst


def check_w6(cov: Covering, dilation: float = 10.0):
    """Superposition of dilated cubes at all cube centers.

    Returns (per_scale_max, total_max): the per-scale count is the W6
    quantity with a depth-free bound; the total across scales necessarily
    grows with the number of levels and is reported, not asserted.

    Counts are exact integer range counts: in units of half the finest side
    every centre is an integer, and a level's cubes, sorted by index key,
    are counted with one pair of searchsorted calls per offset along the
    leading axes, over all centres at once. The box is closed.
    """
    shift = (cov.max_level - cov.levels).astype(np.int64)
    pts = (2 * cov.indices + 1) << shift[:, None]
    per_scale = 0
    total = np.zeros(len(pts), dtype=np.int64)
    for lev in np.unique(cov.levels):
        idx = cov.indices[cov.levels == lev]
        m = 1 << int(cov.max_level - lev)  # half the level's side
        r = math.floor(dilation * m)  # |P - C| <= dilation * m, C = (2 idx + 1) m
        lo = -((m + r - pts) // (2 * m))
        hi = (pts + r - m) // (2 * m)
        base = np.minimum(idx.min(axis=0), lo.min(axis=0))
        width = np.maximum(idx.max(axis=0), hi.max(axis=0)) - base + 1
        weight = np.cumprod(np.concatenate([width[1:], [1]])[::-1])[::-1]

        def key(x):
            return (x - base) @ weight

        keys = np.sort(key(idx))
        cnt = np.zeros(len(pts), dtype=np.int64)
        span = np.maximum(hi - lo + 1, 0)[:, :-1].max(axis=0, initial=0)
        for off in itertools.product(*(range(s) for s in span)):
            lead = lo[:, :-1] + np.asarray(off, dtype=np.int64)
            ok = np.all(lead <= hi[:, :-1], axis=1) & (lo[:, -1] <= hi[:, -1])
            a = np.searchsorted(keys, key(np.column_stack([lead, lo[:, -1]])), side="left")
            b = np.searchsorted(keys, key(np.column_stack([lead, hi[:, -1]])), side="right")
            cnt += np.where(ok, b - a, 0)
        per_scale = max(per_scale, int(cnt.max()))
        total += cnt
    return per_scale, int(total.max())


def check_w7(oc: "OrientedCovering", n_lines: int = 64):
    """Max number of same-side cubes in one window meeting a vertical line."""
    worst = 0
    for k, win in enumerate(oc.windows):
        members = oc.window_members[k]
        if not members:
            continue
        t_lo, t_hi, _, _ = oc._local_boxes(k, members)
        lines = np.linspace(-oc.R / 2, oc.R / 2, n_lines)
        levels = oc.cov.levels[members]
        for lev in np.unique(levels):
            sel = levels == lev
            t0 = t_lo[sel, 0][:, None]
            t1 = t_hi[sel, 0][:, None]
            cnt = np.sum((t0 < lines[None, :]) & (lines[None, :] < t1), axis=0)
            worst = max(worst, int(cnt.max()))
    return worst


def coverage_audit(cov: Covering, margin: float = 8.0, n_samples: int = 4096, seed: int = 0):
    """W3 audit: cube volume vs domain volume, and point coverage of the
    region {dist > margin * min_side}."""
    vol = cov.volume()
    try:
        target = cov.domain.area()
    except NotImplementedError:
        target = float("nan")
    rng = np.random.default_rng(seed)
    if cov.clip_box is not None:
        lo, hi = cov.clip_box
    else:
        lo, hi = cov.domain.bounding_box()
    pts = rng.uniform(lo, hi, size=(n_samples, cov.dim))
    inside = cov.domain.contains(pts)
    deep = cov.domain.dist_to_boundary(pts) > margin * cov.min_side
    covered = cov.containing(pts[inside & deep]) >= 0
    return {
        "cube_volume": vol,
        "domain_volume": target,
        "missing_volume": (target - vol) if np.isfinite(target) else float("nan"),
        "deep_points": int(len(covered)),
        "uncovered_deep_points": int(np.sum(~covered)),
    }


# ---------------------------------------------------------------------------
# forests


class Forest:
    """Rooted forest on vertices 0..n-1 given by a parent array (-1 at roots).

    Built once: `levels` groups the vertices by depth, parents before
    children, each parent's children contiguous and ascending; `depth` is
    each vertex's level; the Euler tour visits children in ascending order,
    so the subtree of v is the contiguous slice euler[tin[v]:tout[v]]. Every
    tree sum and shadow in the package runs through this class."""

    def __init__(self, parent):
        parent = np.asarray(parent, dtype=np.int64).reshape(-1)
        n = len(parent)
        if np.any((parent < -1) | (parent >= n)):
            raise ValueError("parent indices must lie in [-1, n)")
        self.parent = parent
        # children grouped by parent, ascending within a group: the children
        # of q are by_parent[bounds[q + 1]:bounds[q + 2]], the roots come first
        by_parent = np.argsort(parent, kind="stable")
        bounds = np.searchsorted(parent[by_parent], np.arange(-1, n + 1))
        self.levels = []
        level = by_parent[: bounds[1]]
        while len(level):
            self.levels.append(level)
            count = bounds[level + 2] - bounds[level + 1]
            start = np.repeat(bounds[level + 1] - (np.cumsum(count) - count), count)
            level = by_parent[start + np.arange(len(start))]
        if sum(map(len, self.levels)) < n:
            raise ValueError("parent array contains a cycle")
        self.depth = np.empty(n, dtype=np.int64)
        for d, level in enumerate(self.levels):
            self.depth[level] = d
        size = self.subtree_sums(np.ones(n, dtype=np.int64))
        # preorder position: parent's position + 1 + sizes of earlier siblings
        sizes = size[by_parent]
        before = np.cumsum(sizes) - sizes
        sibling_offset = np.empty(n, dtype=np.int64)
        sibling_offset[by_parent] = before - before[bounds[parent[by_parent] + 1]]
        self.tin = sibling_offset
        for level in self.levels[1:]:
            self.tin[level] += self.tin[parent[level]] + 1
        self.tout = self.tin + size
        self.euler = np.empty(n, dtype=np.int64)
        self.euler[self.tin] = np.arange(n)

    def subtree_sums(self, values):
        """Sum of `values` over each vertex's subtree, itself included: one
        np.add.at per level from the deepest up, so every parent adds its
        children in ascending order. Exact for Fraction (object) values."""
        out = np.array(values)
        for level in reversed(self.levels[1:]):
            np.add.at(out, self.parent[level], out[level])
        return out

    def path_sums(self, values):
        """Sum of `values` over each vertex and its ancestors, top down."""
        out = np.array(values)
        for level in self.levels[1:]:
            out[level] += out[self.parent[level]]
        return out

    def subtree(self, v: int):
        """Vertices of the subtree of v (v included), ascending."""
        return np.sort(self.euler[self.tin[v] : self.tout[v]])

    def path(self, v: int):
        """[v, parent(v), ..., root of v]."""
        out = [int(v)]
        while self.parent[out[-1]] >= 0:
            out.append(int(self.parent[out[-1]]))
        return out


# ---------------------------------------------------------------------------
# orientation


class OrientationError(ValueError):
    pass


class OrientedCovering:
    """Covering plus windows, central/peripheral split, fathers and chains."""

    def __init__(self, cov: Covering, windows, delta0, delta2):
        self.cov = cov
        self.windows = windows
        self.delta0 = delta0
        self.delta2 = delta2
        self.R = windows[0].side if windows else cov.domain.window_side
        self._forest_cache = {}
        self._anchored_cache = {}
        self._orient()

    # geometry helpers ------------------------------------------------------

    def _local_boxes(self, k: int, cubes):
        """Extents (t_lo, t_hi, y_lo, y_hi) of the cubes at the given
        positions in the frame of window k, over their projected corners:
        t_* are (m, d-1) horizontal, y_* are (m,) vertical."""
        cov = self.cov
        d = cov.dim
        cubes = np.asarray(cubes, dtype=int)
        offsets = np.array(list(itertools.product((0, 1), repeat=d)), dtype=float)
        corners = cov.lo[cubes][:, None, :] + offsets * cov.sides[cubes][:, None, None]
        loc = self.windows[k].to_local(corners.reshape(-1, d)).reshape(len(cubes), 1 << d, d)
        t, y = loc[:, :, :-1], loc[:, :, -1]
        return t.min(axis=1), t.max(axis=1), y.min(axis=1), y.max(axis=1)

    def _stacked(self, boxes, upper, lower):
        """For rows of `boxes` (from _local_boxes): whether each upper box
        lies above its lower box (horizontal overlap and a higher top, both
        by more than 1e-12 R), and the measure of their horizontal overlap."""
        t_lo, t_hi, _, y_hi = boxes
        tol = 1e-12 * self.R
        ov = np.minimum(t_hi[upper], t_hi[lower]) - np.maximum(t_lo[upper], t_lo[lower])
        above = np.all(ov > tol, axis=1) & (y_hi[upper] > y_hi[lower] + tol)
        return above, np.prod(np.maximum(ov, 0.0), axis=1)

    def _preference(self, cubes, score):
        """np.lexsort keys ranking cubes by descending score, then ascending
        (level, index)."""
        idx = self.cov.indices[cubes]
        return [idx[:, a] for a in range(idx.shape[1] - 1, -1, -1)] + [self.cov.levels[cubes], -score]

    # orientation proper ----------------------------------------------------

    def _orient(self):
        cov = self.cov
        n = len(cov)
        dist_centers = cov.domain.dist_to_boundary(cov.centers)
        half_diam = 0.5 * math.sqrt(cov.dim) * cov.sides
        self.central = (dist_centers + half_diam) > self.delta2 * self.R
        peripheral = np.where(~self.central)[0]

        # one pass per window: canvas members, their fathers, and the
        # successor of each cube in the first window whose canvas holds it
        members_of = []
        self.canvas_fathers = []
        assigned = np.full(n, -1, dtype=int)
        succ = np.full(n, -1, dtype=int)
        for k, win in enumerate(self.windows):
            # members: every corner in the window's box of half-side delta0 R/2
            t_lo, t_hi, y_lo, y_hi = self._local_boxes(k, peripheral)
            half = self.delta0 * win.side / 2.0
            ok = np.all(np.maximum(-t_lo, t_hi) <= half, axis=1) & (np.maximum(-y_lo, y_hi) <= half)
            members = peripheral[ok]
            fathers = self._fathers(members, k)
            members_of.append(members)
            self.canvas_fathers.append(fathers)
            new = assigned[members] < 0
            assigned[members[new]] = k
            succ[members[new]] = fathers[new]
        self.window_members = [m.tolist() for m in members_of]
        # each cube's canvases, ascending: the window column grouped by cube
        cubes = np.concatenate(members_of + [np.zeros(0, dtype=int)])
        wins = np.repeat(np.arange(len(members_of)), [len(m) for m in members_of])
        by_cube = np.argsort(cubes, kind="stable")
        self.memberships = np.split(wins[by_cube], np.searchsorted(cubes[by_cube], np.arange(1, n)))
        self.assigned_window = assigned
        bad = peripheral[assigned[peripheral] < 0]
        if len(bad):
            raise OrientationError(
                f"{len(bad)} peripheral cube(s) fit no window canvas (first: {cov.key(bad[0])})"
            )

        # root: largest central cube, lexicographic ties (the table's order)
        central_pos = np.where(self.central)[0]
        if len(central_pos) == 0:
            raise OrientationError("no central cubes; window side too large?")
        self.root = int(central_pos[0])

        # BFS tree over central cubes, one frontier at a time: a cube joins
        # the next frontier from the first frontier cube (in frontier order)
        # that neighbours it, and frontier cubes keep first-discovery order,
        # which is the order of a FIFO queue scanning ascending neighbours
        parent = np.full(n, -1, dtype=int)
        seen = ~self.central
        seen[self.root] = True
        frontier = np.array([self.root])
        while len(frontier):
            src, dst = cov.neighbor_pairs(frontier)
            fresh = ~seen[dst]
            src, dst = src[fresh], dst[fresh]
            first = np.sort(np.unique(dst, return_index=True)[1])
            frontier = dst[first]
            parent[frontier] = src[first]
            seen[frontier] = True
        self.central_connected = bool(np.all(seen))
        if not self.central_connected:
            raise OrientationError("central cubes do not form a connected set")

        # every canvas member needs a father, in whichever window it lies
        for k, fathers in enumerate(self.canvas_fathers):
            orphans = np.flatnonzero(fathers < 0)
            if len(orphans) and len(orphans) == len(fathers):
                raise OrientationError(f"no cube above any member of window {k}")
            if len(orphans):
                m = self.window_members[k][orphans[0]]
                raise OrientationError(f"cube {cov.key(m)} has no cube above it in window {k}")

        # successor pointers: father in the assigned window, else BFS parent
        succ[self.central] = parent[self.central]
        self.succ = succ
        try:
            self.forest = Forest(succ)  # the global successor tree
        except ValueError:
            raise OrientationError("father chain contains a cycle") from None

    # fathers and forests ----------------------------------------------------

    def _fathers(self, members, k: int):
        """Vertical father (position in the full covering) of each member of
        window k's canvas, members ascending: the neighbor above with maximal
        horizontal overlap, exact-float ties broken by (level, index); -1
        where no neighbor lies above."""
        src, dst = self.cov.neighbor_pairs(members)
        nodes = np.union1d(members, dst)
        boxes = self._local_boxes(k, nodes)
        above, measure = self._stacked(boxes, np.searchsorted(nodes, dst), np.searchsorted(nodes, src))
        src, dst, measure = src[above], dst[above], measure[above]
        order = np.lexsort(self._preference(dst, measure) + [src])
        src, dst = src[order], dst[order]
        lead = np.ones(len(src), dtype=bool)
        lead[1:] = src[1:] != src[:-1]
        out = np.full(len(members), -1, dtype=int)
        out[np.searchsorted(members, src[lead])] = dst[lead]
        return out

    def canvas_forest(self, k: int) -> Forest:
        """Forest of window k's canvas on the positions of window_members[k];
        a member whose father lies outside the canvas is a root (attached to
        the formal super-root, which carries zero mass and zero weight)."""
        if k not in self._forest_cache:
            members = np.asarray(self.window_members[k], dtype=int)
            fathers = self.canvas_fathers[k]
            v = np.searchsorted(members, fathers)
            inside = members[np.minimum(v, len(members) - 1)] == fathers
            self._forest_cache[k] = Forest(np.where(inside, v, -1))
        return self._forest_cache[k]

    def window_forest(self, k: int):
        """(members, father_map) of the canvas tree of window k; father_map
        maps a member to its member-father or -1 (see canvas_forest)."""
        members = self.window_members[k]
        parent = self.canvas_forest(k).parent.tolist()
        return members, {m: (members[q] if q >= 0 else -1) for m, q in zip(members, parent)}

    def shadow(self, i: int, k: int = None):
        """Positions of {P : P <= Q} in the window forest (includes Q)."""
        if k is None:
            k = int(self.assigned_window[i]) if not self.central[i] else -1
        if k < 0:
            raise ValueError("shadow requires a cube lying in a window canvas")
        members = self.window_members[k]
        v = bisect.bisect_left(members, i)
        if v == len(members) or members[v] != i:
            raise ValueError("cube is not a member of this window canvas")
        return [members[u] for u in self.canvas_forest(k).subtree(v)]

    # chains -----------------------------------------------------------------

    def anchored_path(self, i: int, k: int = None):
        """[Q, Q0]: ascend above-Q cubes in window k, then the BFS tree."""
        if self.central[i]:
            return self.forest.path(i)  # central fathers are BFS parents
        if k is None:
            k = int(self.assigned_window[i])
        ck = (i, k)
        if ck in self._anchored_cache:
            return self._anchored_cache[ck]
        tol = 1e-12 * self.R
        path = [i]
        cur = i
        while not self.central[cur]:
            if len(path) > len(self.cov):
                raise OrientationError("anchored ascent failed to reach a central cube")
            nbrs = self.cov.neighbor_pairs([cur])[1]
            boxes = self._local_boxes(k, np.concatenate([[i, cur], nbrs]))
            rows = np.arange(2, len(nbrs) + 2)
            above, ov_cur = self._stacked(boxes, rows, 1)
            # prefer overlap with the anchor cube Q, then with the current
            ov = self._stacked(boxes, rows, 0)[1]
            ov = np.where(ov <= tol, 1e-9 * ov_cur, ov)
            cand = nbrs[above]
            if not len(cand):
                raise OrientationError("no cube above during anchored ascent")
            cur = int(cand[np.lexsort(self._preference(cand, ov[above]))[0]])
            path.append(cur)
        path += self.forest.path(cur)[1:]
        self._anchored_cache[ck] = path
        return path

    def common_canvas(self, i: int, j: int):
        both = np.intersect1d(self.memberships[i], self.memberships[j])
        return int(both[0]) if len(both) else None

    def chain(self, i: int, j: int):
        """Chain [Q, S] following the three chain-function rules."""
        if i == j:
            return [i]
        k = None
        if not self.central[i] and not self.central[j]:
            k = self.common_canvas(i, j)
        pq = self.anchored_path(i, k)
        ps = self.anchored_path(j, k)
        if j in pq:
            return pq[: pq.index(j) + 1]
        if i in ps:
            return list(reversed(ps[: ps.index(i) + 1]))
        in_ps = {p: m for m, p in enumerate(ps)}
        for a, p in enumerate(pq):
            if p in in_ps:
                # paths merge at p: descend [S .. p) reversed
                return pq[: a + 1] + list(reversed(ps[: in_ps[p]]))
            hits = [in_ps[v] for v in self.cov.neighbor_pairs([p])[1].tolist() if v in in_ps]
            if hits:
                m = min(hits)  # first neighbor of Q_S along [S, Q0]
                return pq[: a + 1] + list(reversed(ps[: m + 1]))
        raise OrientationError("chain construction failed (disconnected covering?)")

    def chain_is_valid(self, path) -> bool:
        src, dst = self.cov.neighbor_pairs(path[:-1])
        return set(zip(path[:-1], path[1:])) <= set(zip(src.tolist(), dst.tolist()))

    # order ------------------------------------------------------------------

    def subtree_values(self, values):
        """For each cube, sum of `values` over its global-tree descendants
        (successor pointers), including itself."""
        return self.forest.subtree_sums(np.asarray(values, dtype=float))

    def descendants(self, i: int):
        return self.forest.subtree(i).tolist()


def orient(cov: Covering, windows=None, delta0: float = None, delta2: float = None) -> OrientedCovering:
    windows = windows if windows is not None else cov.domain.windows()
    delta0 = delta0 if delta0 is not None else cov.domain.delta0
    delta2 = delta2 if delta2 is not None else cov.domain.delta2
    return OrientedCovering(cov, windows, delta0, delta2)


# ---------------------------------------------------------------------------
# discrete maximal function and the summation lemmas


def cube_values(g, n: int):
    """Per-cube values as an array over positions 0..n-1: a dict maps
    position -> value (0 where absent), anything else is read as an array."""
    if isinstance(g, dict):
        out = np.zeros(n)
        out[list(g)] = list(g.values())
        return out
    return np.asarray(g, dtype=float)


def maximal(oc_or_cov, g, i: int) -> float:
    """Discrete surrogate for inf_{y in Q} Mg: max over dilates rQ,
    r in {1, 2, 4, ...}, of the cube-averaged mass of g inside rQ.

    g maps position -> mass of the cube (interpreted as integral of g over
    the cube, spread uniformly)."""
    cov = oc_or_cov.cov if isinstance(oc_or_cov, OrientedCovering) else oc_or_cov
    d = cov.dim
    masses = cube_values(g, len(cov))
    if np.any(masses < 0):
        raise ValueError("maximal() requires nonnegative masses")
    span = float(np.max(cov.hi) - np.min(cov.lo))
    c = cov.centers[i]
    s = cov.sides[i]
    best = 0.0
    r = 1.0
    while True:
        half = 0.5 * r * s
        lo = c - half
        hi = c + half
        ov = np.maximum(np.minimum(cov.hi, hi) - np.maximum(cov.lo, lo), 0.0)
        frac = np.prod(ov, axis=1) / cov.sides**d
        avg = float(np.sum(masses * frac)) / (r * s) ** d
        best = max(best, avg)
        if r * s > 2.0 * span:
            break
        r *= 2.0
    return best


def verify_sum_lemmas(oc: OrientedCovering, a: float, b: float, eta: float, r: float, g=None,
                      max_anchor_cubes: int = 400) -> dict:
    """Ratios for the three summation lemmas (maximal bound, shadow power
    sums, long-distance power sums). Reports max/min ratios over cubes."""
    cov = oc.cov
    d = cov.dim
    n = len(cov)
    if not (a > d - 1):
        raise ValueError(f"shadow power sums require a > d-1, got a={a}")
    if not (b > a):
        raise ValueError(f"long-distance sums require b > a, got a={a}, b={b}")
    if eta <= 0:
        raise ValueError("eta must be positive")

    report = {"a": a, "b": b, "eta": eta, "r": r, "n_cubes": n}

    # shadow power sums: sum_{S<=Q} l(S)^a vs l(Q)^a over the global tree
    pow_a = cov.sides**a
    sums = oc.subtree_values(pow_a)
    ratio33 = sums / pow_a
    report["shadow_power_sum"] = {
        "max_ratio": float(ratio33.max()),
        "min_ratio": float(ratio33.min()),
    }

    # long-distance sums: sum_S l(S)^a / D(Q,S)^b vs l(Q)^(a-b)
    anchors = range(n)
    if n > max_anchor_cubes:
        step = max(1, n // max_anchor_cubes)
        anchors = range(0, n, step)
    worst, least = 0.0, float("inf")
    for i in anchors:
        D = oc.cov.long_distance_row(i)
        val = float(np.sum(pow_a / D**b))
        ratio = val / cov.sides[i] ** (a - b)
        worst = max(worst, ratio)
        least = min(least, ratio)
    report["long_distance_sum"] = {"max_ratio": worst, "min_ratio": least}

    # maximal-function bounds with the supplied cube masses
    if g is not None:
        masses = cube_values(g, n)
        anchor_list = list(anchors)
        picks = anchor_list[:: max(1, len(anchor_list) // 50)] if n > 50 else list(range(n))
        worst1 = worst2 = worst3 = 0.0
        for i in picks:
            m_inf = maximal(oc, masses, i)
            if m_inf == 0:
                continue
            D = oc.cov.long_distance_row(i)
            far = D > r
            lhs1 = float(np.sum(masses[far] / D[far] ** (d + eta)))
            worst1 = max(worst1, lhs1 * r**eta / m_inf)
            near = D < r
            lhs2 = float(np.sum(masses[near] / D[near] ** (d - eta)))
            worst2 = max(worst2, lhs2 / (m_inf * r**eta))
            desc = oc.descendants(i)
            lhs3 = float(np.sum(masses[desc])) - float(masses[i])
            worst3 = max(worst3, lhs3 / (m_inf * cov.sides[i] ** d))
        report["maximal_bound"] = {"part1_max": worst1, "part2_max": worst2, "part3_max": worst3}
    return report


# ---------------------------------------------------------------------------
# text dump / load


def dump_covering(oc: OrientedCovering, path: str):
    """One cube per line: level, index, central flag, successor id, assigned
    window, canvas memberships."""
    cov = oc.cov
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# whitney-covering v1 dim={cov.dim} base={cov.base!r} "
                 f"C_W={cov.C_W!r} tau={cov.tau!r} min_side={cov.min_side!r}\n")
        for i, (level, index) in enumerate(zip(cov.levels.tolist(), cov.indices.tolist())):
            idx = ",".join(map(str, index))
            wins = ",".join(map(str, oc.memberships[i].tolist())) or "-"
            fh.write(f"{level} {idx} {int(oc.central[i])} {int(oc.succ[i])} "
                     f"{int(oc.assigned_window[i])} {wins}\n")


def load_covering(path: str) -> dict:
    """Parse a dumped covering back into plain arrays (no domain attached)."""
    meta = {}
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("#"):
                for tok in line.split():
                    if "=" not in tok:
                        continue
                    k, v = tok.split("=")
                    meta[k] = float(v) if k != "dim" else int(v)
                continue
            if not line:
                continue
            lev, idx, central, succ, assigned, wins = line.split()
            rows.append(
                {
                    "level": int(lev),
                    "index": tuple(int(v) for v in idx.split(",")),
                    "central": bool(int(central)),
                    "succ": int(succ),
                    "assigned_window": int(assigned),
                    "windows": [] if wins == "-" else [int(v) for v in wins.split(",")],
                }
            )
    return {"meta": meta, "cubes": rows}
