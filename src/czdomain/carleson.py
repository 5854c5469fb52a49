"""Discrete p-Carleson conditions: per-cube measures, the tree condition,
shadow sums over Whitney forests, the growth bound and the continuous form.

Tree checks run in exact rational arithmetic whenever the conjugate
exponent p' is an integer (p = 1.5 -> p' = 3, p = 2 -> p' = 2); otherwise
sums stay rational and only the final powers fall back to floats, so the
optimized checker and the brute-force oracle remain bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .czop import BoundaryEngine, CPoly, Kernel
from .geometry import Disk, Polygon
from .quadrature import CUBE_ORDER, tensor_rule
from .whitney import Forest, OrientedCovering


# ---------------------------------------------------------------------------
# cube measures


@dataclass
class CubeMeasure:
    """Nonnegative mass per Whitney cube position."""

    mass: dict

    def total(self) -> float:
        return float(sum(self.mass.values()))

    def get(self, pos: int) -> float:
        return float(self.mass.get(pos, 0.0))


def cube_measure(oc: OrientedCovering, kernel: Kernel, lam, n: int, p: float) -> CubeMeasure:
    """mu_lam(Q) = int_Q |grad^n T_Omega P_lam|^p dx per canvas cube.

    The gradient comes from the contour route, so the domain must be a
    disk or a polygon. Each mass is taken at Gauss orders CUBE_ORDER and
    CUBE_ORDER - 2; cubes where the two differ by more than 5% are flagged
    in .flagged, not dropped."""
    if sum(lam) >= n:
        raise ValueError(f"need |lambda| < n, got lambda={lam}, n={n}")
    if kernel.order < n:
        raise ValueError("kernel order too small for the requested gradient")
    cov = oc.cov
    sel = np.array(sorted({m for mem in oc.window_members for m in mem}), dtype=int)
    if kernel.name == "zero":
        cm = CubeMeasure({int(i): 0.0 for i in sel})
        cm.flagged = []
        return cm
    dom = cov.domain
    if not isinstance(dom, (Disk, Polygon)):
        raise NotImplementedError("cube_measure needs a disk or polygon domain (transform routes)")
    eng = BoundaryEngine(dom, CPoly({tuple(lam): 1.0}))
    results = {}
    for order, tag in ((CUBE_ORDER, "hi"), (CUBE_ORDER - 2, "lo")):
        ref, refw = tensor_rule(np.zeros(2), np.ones(2), order)
        vals = np.empty(len(sel))
        chunk = 20000 // len(refw)
        for start in range(0, len(sel), chunk):
            blk = sel[start : start + chunk]
            pts = cov.lo[blk][:, None, :] + cov.sides[blk][:, None, None] * ref[None, :, :]
            w = cov.sides[blk][:, None] ** 2 * refw[None, :]
            z = (pts[..., 0] + 1j * pts[..., 1]).ravel()
            tot = eng.gradient_total(n, z).reshape(pts.shape[:2])
            vals[start : start + chunk] = np.sum(w * tot**p, axis=1)
        results[tag] = vals
    hi_vals, lo_vals = results["hi"], results["lo"]
    masses = {}
    flagged = []
    for t, i in enumerate(sel):
        masses[int(i)] = float(hi_vals[t])
        if abs(hi_vals[t] - lo_vals[t]) > 0.05 * abs(hi_vals[t]) + 1e-14:
            flagged.append(int(i))
    cm = CubeMeasure(masses)
    cm.flagged = flagged
    return cm


# ---------------------------------------------------------------------------
# abstract tree problems


@dataclass
class TreeProblem:
    """Rooted tree with vertex masses mu, weights rho and exponent p."""

    parent: list  # parent index per vertex, -1 at the root
    mu: list
    rho: list
    p: float

    def __post_init__(self):
        n = len(self.parent)
        if not (len(self.mu) == len(self.rho) == n):
            raise ValueError("mu, rho, parent must have equal length")
        if self.p <= 1:
            raise ValueError("p must exceed 1")
        roots = [i for i, q in enumerate(self.parent) if q < 0]
        if len(roots) != 1:
            raise ValueError(f"tree must have exactly one root, found {len(roots)}")
        self.root = roots[0]
        self.forest = Forest(self.parent)  # raises on a cycle, hence connected
        if any(r <= 0 for r in self.rho):
            raise ValueError("weights rho must be positive")
        if any(m < 0 for m in self.mu):
            raise ValueError("masses mu must be nonnegative")

    def p_conjugate(self):
        p = Fraction(self.p).limit_denominator(10**6)
        return p / (p - 1)


def _power(base, expo):
    """base**expo, exact when both are rational and expo is an integer."""
    if isinstance(expo, Fraction) and expo.denominator == 1:
        return base ** int(expo)
    return float(base) ** float(expo)


def check_tree_condition(prob: TreeProblem, root: int = None):
    """Smallest C with
      sum_{x<=r} (mu(Sh(x)))^{p'} rho(x)^{1-p'} <= C sum_{x<=r} mu(x)
    for the given root r (all-r sup when root is None).

    Exact rationals whenever p' is an integer; otherwise the powers are
    floats and a single root's sum runs in ascending vertex order so the
    brute-force oracle reproduces it bit-for-bit. The all-r sup takes every
    left-hand side from one subtree sum of the per-vertex terms."""
    pp = prob.p_conjugate()
    S = prob.forest.subtree_sums(prob.mu).tolist()
    term = [
        _power(s, pp) * _power(w, 1 - pp) if s != 0 else 0 * s
        for s, w in zip(S, prob.rho)
    ]
    if root is not None:
        if S[root] == 0:
            return 0 * Fraction(1)
        return sum(term[x] for x in prob.forest.subtree(root)) / S[root]
    lhs = prob.forest.subtree_sums(term).tolist()
    best = None
    for t, s in zip(lhs, S):
        c = t / s if s != 0 else 0 * Fraction(1)
        best = c if best is None or c > best else best
    return best


def brute_force_tree_condition(prob: TreeProblem, root: int):
    """O(V^2) oracle: shadows and shadow sums by explicit ancestor walks."""
    n = len(prob.parent)
    S = [prob.mu[x] * 0 for x in range(n)]
    for y in range(n):
        u = y
        while u >= 0:
            S[u] = S[u] + prob.mu[y]
            u = prob.parent[u]
    in_shadow = [False] * n
    for y in range(n):
        u = y
        while u >= 0:
            if u == root:
                in_shadow[y] = True
                break
            u = prob.parent[u]
    pp = prob.p_conjugate()
    lhs = None
    rhs = None
    for x in range(n):
        if not in_shadow[x]:
            continue
        t = _power(S[x], pp) * _power(prob.rho[x], 1 - pp) if S[x] != 0 else 0 * S[x]
        lhs = t if lhs is None else lhs + t
        rhs = prob.mu[x] if rhs is None else rhs + prob.mu[x]
    if rhs == 0 or rhs is None:
        return 0 * Fraction(1)
    return lhs / rhs


def check_embedding(prob: TreeProblem, trials: int = 50, seed: int = 0) -> float:
    """Lower bound on the best constant in ||Ih||_{L^p(mu)} <= C ||h||_{L^p(rho)}
    over structured and random nonnegative test functions h."""
    n = len(prob.parent)
    p = float(prob.p)
    mu = np.asarray([float(m) for m in prob.mu])
    rho = np.asarray([float(r) for r in prob.rho])
    forest = prob.forest

    def ratio(h):
        hn = float(np.sum(rho * h**p)) ** (1 / p)
        if hn == 0:
            return 0.0
        In = float(np.sum(mu * np.abs(forest.path_sums(h)) ** p)) ** (1 / p)
        return In / hn

    best = 0.0
    h = np.zeros(n)
    h[prob.root] = 1.0
    best = max(best, ratio(h))
    S = np.asarray([float(s) for s in forest.subtree_sums(prob.mu)])
    # geodesic indicators to the heaviest-shadow leaves
    leaves = np.flatnonzero(forest.tout - forest.tin == 1).tolist()
    for y in sorted(leaves, key=lambda u: -S[u])[:20]:
        h = np.zeros(n)
        h[forest.path(y)] = 1.0
        best = max(best, ratio(h))
    # subtree indicators
    for x in sorted(range(n), key=lambda u: -S[u])[:20]:
        h = np.zeros(n)
        h[forest.subtree(x)] = 1.0
        best = max(best, ratio(h))
    # extremal profile matched to the condition's power weights
    with np.errstate(divide="ignore", invalid="ignore"):
        h = np.where(rho > 0, (S / rho) ** (1 / (p - 1)), 0.0)
    if np.all(np.isfinite(h)) and np.any(h > 0):
        best = max(best, ratio(h))
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        best = max(best, ratio(rng.uniform(0, 1, n) ** 2))
    return best


# ---------------------------------------------------------------------------
# whitney-forest conditions


def _forest_shadow_stats(oc, k, masses, p):
    """Per member: shadow mass S and shadow-condition numerator term sum."""
    members = oc.window_members[k]
    if not members:
        return members, np.zeros(0), np.zeros(0)
    forest = oc.canvas_forest(k)
    d = oc.cov.dim
    pp = p / (p - 1.0)
    mu = np.asarray([masses.get(m, 0.0) for m in members], dtype=float)
    sides = oc.cov.sides[members]
    S = forest.subtree_sums(mu)
    with np.errstate(divide="ignore"):
        term = np.where(S > 0, S**pp * sides ** ((d - p) * (1 - pp)), 0.0)
    return members, S, forest.subtree_sums(term)


def check_shadow_condition(oc: OrientedCovering, mu: CubeMeasure, p: float, P: int = None) -> dict:
    """Smallest C in the per-window shadow condition
      sum_{Q<=P} (sum_{S<=Q} mu(S))^{p'} l(Q)^{(d-p)(1-p')} <= C sum_{Q<=P} mu(Q);
    for a given cube P, or the sup over every P in every window canvas."""
    masses = mu.mass
    if P is not None:
        if oc.central[P]:
            raise ValueError("shadow condition needs a peripheral cube")
        k = int(oc.assigned_window[P])
        members, S, T = _forest_shadow_stats(oc, k, masses, p)
        i = members.index(P)
        c = T[i] / S[i] if S[i] > 0 else 0.0
        return {"constant": float(c), "window": k, "shadow_mass": float(S[i])}
    best, arg = 0.0, None
    for k in range(len(oc.windows)):
        members, S, T = _forest_shadow_stats(oc, k, masses, p)
        if len(members) == 0:
            continue
        with np.errstate(divide="ignore", invalid="ignore"):
            cs = np.where(S > 0, T / np.where(S > 0, S, 1.0), 0.0)
        i = int(np.argmax(cs))
        if cs[i] > best:
            best, arg = float(cs[i]), (k, members[i])
    return {"constant": best, "argmax": arg}


def check_growth(oc: OrientedCovering, mu: CubeMeasure, p: float) -> dict:
    """sup over canvas cubes of mu(Sh(Q)) / l(Q)^{d-p}."""
    d = oc.cov.dim
    best, arg = 0.0, None
    for k in range(len(oc.windows)):
        members, S, _ = _forest_shadow_stats(oc, k, mu.mass, p)
        if len(members) == 0:
            continue
        sides = oc.cov.sides[members]
        ratios = S / sides ** (d - p)
        i = int(np.argmax(ratios))
        if ratios[i] > best:
            best, arg = float(ratios[i]), (k, members[i])
    return {"constant": best, "argmax": arg}


def growth_verdict(constants, stable_tol: float = 0.25, growth_factor: float = 2.0) -> str:
    """Operational verdict from a depth sweep of a condition statistic.

    holds: total variation across the sweep stays below stable_tol.
    fails: monotone growth totalling at least growth_factor over the sweep.
    inconclusive otherwise. No finite computation certifies the infinite
    condition; sustained mass growth is the honest surrogate for failure."""
    cs = [float(c) for c in constants]
    if len(cs) < 2:
        return "inconclusive"
    cmax, cmin = max(cs), min(cs)
    if cmax <= (1 + stable_tol) * max(cmin, 1e-300):
        return "holds"
    growing = all(b > a for a, b in zip(cs, cs[1:]))
    if growing and cs[0] > 0 and cs[-1] / cs[0] >= growth_factor:
        return "fails"
    return "inconclusive"


# ---------------------------------------------------------------------------
# continuous condition


def _is_properly_oriented(win) -> bool:
    R = np.abs(win.rotation)
    return np.allclose(R @ R.T, np.eye(len(R))) and np.allclose(np.sort(R.ravel()), np.sort(np.eye(len(R)).ravel()))


def check_continuous_condition(oc: OrientedCovering, mu: CubeMeasure, p: float, a_point, quad_order: int = 3) -> dict:
    """Quadrature estimate of LHS/RHS in the continuous p-Carleson condition
    at the anchor point a, with shadows taken in the window of the cube
    containing a. Requires a properly oriented window (cube faces parallel
    to the window): the shadow boxes are then axis-aligned in local
    coordinates and the piecewise-constant measure integrates exactly."""
    cov = oc.cov
    d = cov.dim
    pp = p / (p - 1.0)
    a_point = np.asarray(a_point, float)
    inside = np.all((cov.lo <= a_point) & (a_point < cov.hi), axis=1)
    hits = np.where(inside)[0]
    if len(hits) == 0:
        raise ValueError("anchor point lies in no Whitney cube")
    a_pos = int(hits[0])
    if oc.central[a_pos]:
        raise ValueError("anchor point must lie in a peripheral cube")
    k = int(oc.assigned_window[a_pos])
    win = oc.windows[k]
    if not _is_properly_oriented(win):
        raise ValueError("continuous condition needs a properly oriented window")

    # local coordinates: boxes stay boxes
    corners = win.to_local(cov.lo), win.to_local(cov.hi)
    loc_lo = np.minimum(*corners)
    loc_hi = np.maximum(*corners)
    members = oc.window_members[k]
    masses = np.asarray([mu.get(m) for m in members])
    mlo = loc_lo[members]
    mhi = loc_hi[members]
    vols = np.prod(mhi - mlo, axis=1)

    def box_mass(lo, hi):
        ov = np.maximum(np.minimum(mhi, hi) - np.maximum(mlo, lo), 0.0)
        frac = np.prod(ov, axis=1) / vols
        return float(np.sum(masses * frac))

    def shadow_box(xloc, side):
        lo = np.concatenate([xloc[:-1] - side / 2, [-1e9]])
        hi = np.concatenate([xloc[:-1] + side / 2, [xloc[-1]]])
        return lo, hi

    a_loc = win.to_local(a_point)[0]
    la = float(cov.sides[a_pos])
    alo, ahi = shadow_box(a_loc, la)
    rhs = box_mass(alo, ahi)

    # integrate over the vertical extension of Sh(a): clip member cubes
    ext_lo = alo.copy()
    ext_hi = ahi.copy()
    ext_hi[-1] = a_loc[-1] + 2 * la
    lhs = 0.0
    for idx, m in enumerate(members):
        clo = np.maximum(mlo[idx], ext_lo)
        chi = np.minimum(mhi[idx], ext_hi)
        if np.any(chi <= clo):
            continue
        pts, w = tensor_rule(clo, chi, quad_order)
        glob = win.center + pts @ win.rotation.T
        dists = cov.domain.dist_to_boundary(glob)
        lm = float(cov.sides[m])
        vals = np.empty(len(pts))
        for t, xloc in enumerate(pts):
            slo, shi = shadow_box(xloc, lm)
            slo = np.maximum(slo, alo)
            shi = np.minimum(shi, ahi)
            mass = box_mass(slo, shi) if np.all(shi > slo) else 0.0
            vals[t] = mass**pp
        lhs += float(np.sum(w * dists ** ((d - p) * (1 - pp) - d) * vals))
    ratio = lhs / rhs if rhs > 0 else (0.0 if lhs == 0 else float("inf"))
    return {"lhs": lhs, "rhs": rhs, "ratio": ratio, "window": k, "anchor_cube": a_pos}
