"""Sobolev norms, the key equivalence sum and Whitney averaging.

keylemma_sum evaluates sum_Q ||grad^n T_Omega(P_{3Q} f)||_{L^p(Q)}^p by
expanding every cube's approximating polynomial in the monomial basis
z^j zbar^k (j + k <= n-1): the transform is linear in the data, so the
gradients of the basis transforms are evaluated once at every cube node
(TransformPartialTable), and the sum is one contraction of the
(cubes x basis) coefficient array with that table for each derivative.
"""

from __future__ import annotations

import math

import numpy as np

from . import fields
from .czop import BoundaryEngine, CPoly, Kernel, taylor_to_zzbar
from .geometry import Disk, Domain, GraphDomain, Polygon
from .poly import project_cubes
from .quadrature import CUBE_ORDER, gauss_on_interval, tensor_rule, trapezoid_circle
from .whitney import OrientedCovering


# ---------------------------------------------------------------------------
# domain quadrature


def _triangulate(vertices):
    """Ear-clipping triangulation of a simple ccw polygon."""
    v = [tuple(p) for p in vertices]
    idx = list(range(len(v)))
    tris = []

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def inside(p, a, b, c):
        d1 = cross(a, b, p)
        d2 = cross(b, c, p)
        d3 = cross(c, a, p)
        return d1 >= -1e-14 and d2 >= -1e-14 and d3 >= -1e-14

    guard = 0
    while len(idx) > 3:
        guard += 1
        if guard > 10000:
            raise ValueError("triangulation failed; polygon may be degenerate")
        n = len(idx)
        clipped = False
        for t in range(n):
            i0, i1, i2 = idx[(t - 1) % n], idx[t], idx[(t + 1) % n]
            a, b, c = v[i0], v[i1], v[i2]
            if cross(a, b, c) <= 1e-14:
                continue  # reflex corner
            if any(inside(v[j], a, b, c) for j in idx if j not in (i0, i1, i2)):
                continue
            tris.append((a, b, c))
            idx.pop(t)
            clipped = True
            break
        if not clipped:
            raise ValueError("triangulation failed; polygon may be non-simple")
    tris.append((v[idx[0]], v[idx[1]], v[idx[2]]))
    return tris


def domain_quadrature(domain: Domain, order: int = 16):
    """(points, weights) integrating smooth functions over the domain
    (graph domains: over the covering box above the graph). Geometry is
    exact for disks, polygons and polyline graphs."""
    if isinstance(domain, Disk):
        rr, rw = gauss_on_interval(0.0, domain.radius, order)
        theta, tw = trapezoid_circle(4 * order)
        R, T = np.meshgrid(rr, theta, indexing="ij")
        pts = domain.center + np.stack([(R * np.cos(T)).ravel(), (R * np.sin(T)).ravel()], axis=-1)
        w = (rw[:, None] * rr[:, None] * tw[None, :]).ravel()
        return pts, w
    if isinstance(domain, Polygon):
        uu, uw = gauss_on_interval(0.0, 1.0, order)
        pts_list, w_list = [], []
        for a, b, c in _triangulate(domain.vertices):
            a = np.asarray(a)
            b = np.asarray(b)
            c = np.asarray(c)
            area2 = abs((b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]))
            U, V = np.meshgrid(uu, uu, indexing="ij")
            P = (1 - U)[..., None] * a + (U * (1 - V))[..., None] * b + (U * V)[..., None] * c
            W = (uw[:, None] * uw[None, :]) * U * area2
            pts_list.append(P.reshape(-1, 2))
            w_list.append(W.ravel())
        return np.concatenate(pts_list), np.concatenate(w_list)
    if isinstance(domain, GraphDomain) and domain.dim == 2:
        lo, hi = domain.bounding_box()
        xs_break = [lo[0], hi[0]]
        if domain.polyline is not None:
            xs_break += [float(x) for x in domain.polyline[:, 0] if lo[0] < x < hi[0]]
        xs_break = sorted(set(xs_break))
        uu, uw = gauss_on_interval(0.0, 1.0, order)
        pts_list, w_list = [], []
        for x0, x1 in zip(xs_break, xs_break[1:]):
            xg, xw = gauss_on_interval(x0, x1, order)
            bottom = np.maximum(domain.height(xg[:, None]), lo[1])
            height = np.maximum(hi[1] - bottom, 0.0)
            Y = bottom[:, None] + uu[None, :] * height[:, None]
            X = np.broadcast_to(xg[:, None], Y.shape)
            W = xw[:, None] * uw[None, :] * height[:, None]
            pts_list.append(np.stack([X.ravel(), Y.ravel()], axis=-1))
            w_list.append(W.ravel())
        return np.concatenate(pts_list), np.concatenate(w_list)
    raise NotImplementedError(f"no quadrature rule for domain kind {domain.kind}")


# ---------------------------------------------------------------------------
# Sobolev norms


def sobolev_norm(domain: Domain, f, n: int, p: float, order: int = 16) -> dict:
    """Full norm sum_{|a|<=n} ||D^a f||_p, the reduced form
    ||f||_p + ||grad^n f||_p, and the individual terms."""
    pts, w = domain_quadrature(domain, order)
    d = domain.dim
    terms = {}
    for alpha in fields.multiindices(d, n):
        vals = np.abs(f.derivative(alpha)(pts))
        terms[alpha] = float(np.sum(w * vals**p)) ** (1.0 / p)
    full = sum(terms.values())
    grad_n = np.zeros(len(pts))
    for alpha in terms:
        if sum(alpha) == n:
            grad_n += np.abs(f.derivative(alpha)(pts))
    reduced = terms[(0,) * d] + float(np.sum(w * grad_n**p)) ** (1.0 / p)
    return {"full": full, "reduced": reduced, "terms": {str(k): v for k, v in terms.items()}}


# ---------------------------------------------------------------------------
# key equivalence sum


def _basis_partials(domain, basis, alphas, z):
    """partials[b][alpha] = D^alpha (T_Omega z^j zbar^k) at nodes z."""
    chunk = 40000  # nodes per engine call, which bounds its temporaries
    out = {}
    for b in basis:
        eng = BoundaryEngine(domain, CPoly({b: 1.0}))
        per_alpha = {}
        for alpha in alphas:
            vals = np.empty(z.shape, dtype=complex)
            for start in range(0, len(z), chunk):
                vals[start : start + chunk] = eng.partial(alpha, z[start : start + chunk])
            per_alpha[alpha] = vals
        out[b] = per_alpha
    return out


class TransformPartialTable:
    """Gradients of basis-monomial transforms at every cube node, shared
    across probe fields on one covering."""

    def __init__(self, oc: OrientedCovering, n: int):
        dom = oc.cov.domain
        if not isinstance(dom, (Disk, Polygon)):
            raise NotImplementedError("transform table needs a disk or polygon domain")
        self.oc = oc
        self.n = n
        self.basis = [(j, k) for j in range(n) for k in range(n - j)]
        self.alphas = [(a, n - a) for a in range(n + 1)]
        cov = oc.cov
        self.ref, self.refw = tensor_rule(np.zeros(2), np.ones(2), CUBE_ORDER)
        nodes = cov.lo[:, None, :] + cov.sides[:, None, None] * self.ref[None, :, :]
        z = (nodes[..., 0] + 1j * nodes[..., 1]).ravel()
        self.partials = _basis_partials(dom, self.basis, self.alphas, z)
        self.nq = len(self.refw)


def keylemma_sum(oc: OrientedCovering, kernel: Kernel, f, n: int, p: float,
                 table: TransformPartialTable = None) -> dict:
    """sum over cubes of ||grad^n T_Omega(P^{n-1}_{3Q} f)||_{L^p(Q)}^p.

    Requires a disk or polygon domain (contour route); the kernel argument
    fixes the operator and must be the planar Beurling kernel or zero. A
    given table must have been built on `oc` for this `n`."""
    cov = oc.cov
    m = len(cov)
    if table is not None and (table.oc is not oc or table.n != n):
        raise ValueError(f"the partial table was built for another covering or n (table n = {table.n}, n = {n})")
    if kernel.name == "zero":
        return {"sum": 0.0, "n_cubes": m, "per_cube_max": 0.0, "per_cube": np.zeros(m)}
    if kernel.name != "beurling":
        raise NotImplementedError("keylemma_sum supports the Beurling kernel")
    if kernel.order < n:
        raise ValueError("kernel order too small")
    table = table or TransformPartialTable(oc, n)
    degrees, coeffs = project_cubes(f, cov.centers, cov.sides, n)
    pairs, zcoeffs = taylor_to_zzbar(cov.centers, degrees, coeffs)
    extra = [t for t, rs in enumerate(pairs) if rs not in table.basis]
    if extra and np.max(np.abs(zcoeffs[:, extra])) > 1e-9:
        raise ValueError("projection degree exceeds the basis")
    column = {rs: t for t, rs in enumerate(pairs)}
    nq = table.nq
    grad_tot = np.zeros((m, nq))
    for alpha in table.alphas:
        acc = np.zeros((m, nq), dtype=complex)
        for b in table.basis:
            acc += zcoeffs[:, column[b], None] * table.partials[b][alpha].reshape(m, nq)
        grad_tot += np.abs(acc)
    per_cube = np.sum(table.refw * cov.sides[:, None] ** 2 * grad_tot**p, axis=1)
    # sequential in cube order: np.sum would add pairwise and move the reported sums
    total = float(np.cumsum(per_cube)[-1])
    return {"sum": total, "n_cubes": m, "per_cube_max": float(per_cube.max()), "per_cube": per_cube}


# ---------------------------------------------------------------------------
# Whitney averaging operator


def averaging(oc: OrientedCovering, f) -> dict:
    """A f per cube: the mean of f over the tripled cube, which is the
    degree-0 moment projection."""
    cov = oc.cov
    _, coeffs = project_cubes(f, cov.centers, cov.sides, 1)
    return dict(enumerate(coeffs[:, 0].tolist()))


def averaging_lp_report(oc: OrientedCovering, f, p: float) -> dict:
    """Measured constant in ||A f||_{L^p(union of cubes)} <= C ||f||_{L^p}."""
    cov = oc.cov
    av = averaging(oc, f)
    lhs = sum(abs(av[i]) ** p * cov.sides[i] ** cov.dim for i in range(len(cov))) ** (1.0 / p)
    pts, w = domain_quadrature(cov.domain, 16)
    rhs = float(np.sum(w * np.abs(f.derivative((0,) * cov.dim)(pts)) ** p)) ** (1.0 / p)
    return {"lhs": lhs, "rhs": rhs, "constant": lhs / rhs if rhs > 0 else 0.0}


# ---------------------------------------------------------------------------
# probe suites


def default_suite(d: int = 2):
    """Polynomial and transcendental probes with analytic derivatives."""
    return [
        fields.constant(1.0, d),
        fields.coordinate(0, d),
        fields.coordinate(1, d),
        fields.monomial((1, 1), d),
        fields.sin_product([math.pi, math.pi]),
        fields.exp_coordinate(0, d),
    ]


def boundedness_probe(oc: OrientedCovering, kernel: Kernel, n: int, p: float, suite=None) -> dict:
    """Per probe field: keylemma_sum(f) / ||f||_{W^{n,p}}^p, and the sup."""
    suite = suite if suite is not None else default_suite(oc.cov.dim)
    table = None
    if kernel.name == "beurling":
        table = TransformPartialTable(oc, n)
    out = {}
    sup = 0.0
    for f in suite:
        s = keylemma_sum(oc, kernel, f, n, p, table=table)["sum"]
        norm = sobolev_norm(oc.cov.domain, f, n, p)["full"]
        ratio = s / norm**p if norm > 0 else 0.0
        out[f.name] = {"sum": s, "norm": norm, "ratio": ratio}
        sup = max(sup, ratio)
    return {"fields": out, "sup_ratio": sup, "n_cubes": len(oc.cov)}
