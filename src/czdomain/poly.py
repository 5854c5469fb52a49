"""Multiindex polynomials and the moment-matching projection onto P^{n-1}.

The projection P of f on the tripled cube matches every derivative mean:
    avg_{3Q} D^beta P = avg_{3Q} D^beta f   for |beta| <= n-1.
Written in the Taylor basis at the cube center this is triangular in the
coefficients, solved by back-substitution in decreasing |beta|. Polynomial
moments are exact; only the f-means carry quadrature error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .fields import ScalarField, factorial_multi, multiindices
from .quadrature import CUBE_ORDER, tensor_rule


@dataclass
class Poly:
    """Polynomial sum_gamma coeffs[gamma] * (x - center)^gamma."""

    center: np.ndarray
    coeffs: dict

    @property
    def dim(self) -> int:
        return len(self.center)

    @property
    def degree(self) -> int:
        return max((sum(g) for g in self.coeffs), default=0)

    def evaluate(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float)) - self.center
        out = np.zeros(pts.shape[0])
        for gamma, c in self.coeffs.items():
            term = np.full(pts.shape[0], c)
            for j, g in enumerate(gamma):
                if g:
                    term = term * pts[:, j] ** g
            out += term
        return out

    __call__ = evaluate

    def derivative(self, alpha) -> "Poly":
        alpha = tuple(alpha)
        out = {}
        for gamma, c in self.coeffs.items():
            if all(g >= a for g, a in zip(gamma, alpha)):
                fac = 1.0
                for g, a in zip(gamma, alpha):
                    fac *= math.factorial(g) / math.factorial(g - a)
                out[tuple(g - a for g, a in zip(gamma, alpha))] = out.get(
                    tuple(g - a for g, a in zip(gamma, alpha)), 0.0
                ) + c * fac
        return Poly(self.center.copy(), out)

    def as_field(self) -> "PolyField":
        return PolyField(self)

    def serialize(self) -> str:
        lines = ["center " + " ".join(repr(float(c)) for c in self.center)]
        for gamma in sorted(self.coeffs):
            lines.append(",".join(str(g) for g in gamma) + ":" + repr(float(self.coeffs[gamma])))
        return "\n".join(lines) + "\n"

    @staticmethod
    def deserialize(text: str) -> "Poly":
        lines = [ln for ln in text.strip().splitlines() if ln.strip()]
        head = lines[0].split()
        if head[0] != "center":
            raise ValueError("missing center header")
        center = np.array([float(v) for v in head[1:]])
        coeffs = {}
        for ln in lines[1:]:
            gpart, cpart = ln.split(":")
            coeffs[tuple(int(v) for v in gpart.split(","))] = float(cpart)
        return Poly(center, coeffs)


class PolyField(ScalarField):
    """ScalarField view of a Poly (exact derivatives of all orders)."""

    def __init__(self, poly: Poly):
        self.poly = poly
        self.dim = poly.dim
        self.name = f"poly(deg={poly.degree})"

    def derivative(self, alpha):
        dp = self.poly.derivative(alpha)
        return lambda pts: dp.evaluate(pts)


def box_average_moment(alpha, side: float) -> float:
    """avg over a centered box of prod_j t_j^alpha_j, box side `side`."""
    out = 1.0
    for a in alpha:
        if a % 2 == 1:
            return 0.0
        out *= (side / 2.0) ** a / (a + 1)
    return out


def _derivative_means(f, center, side, degrees, order):
    pts, w = tensor_rule(center - side / 2.0, center + side / 2.0, order)
    vol = side ** len(center)
    means = {}
    for beta in degrees:
        vals = f.derivative(beta)(pts)
        means[beta] = float(np.sum(w * vals)) / vol
    return means


def project_cubes(f, centers, sides, n: int):
    """Moment-matching coefficients of degree <= n-1 for f on every tripled
    cube at once: (degrees, coeffs) with coeffs[i, k] the coefficient of
    (x - centers[i])^degrees[k].

    The derivative means over all tripled cubes take one quadrature pass
    per multiindex; the triangular solve then runs on whole coefficient
    columns."""
    if n < 1:
        raise ValueError("n must be >= 1")
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    sides3 = 3.0 * np.asarray(sides, dtype=float).reshape(-1)
    m, d = centers.shape
    degrees = multiindices(d, n - 1)
    column = {g: k for k, g in enumerate(degrees)}
    ref, refw = tensor_rule(np.zeros(d), np.ones(d), max(CUBE_ORDER, 2 * n))  # weights sum to 1
    nodes = (centers - sides3[:, None] / 2.0)[:, None, :] + sides3[:, None, None] * ref[None, :, :]
    flat = nodes.reshape(-1, d)
    coeffs = np.empty((m, len(degrees)))
    for gamma in sorted(degrees, key=lambda g: -sum(g)):
        acc = f.derivative(gamma)(flat).reshape(m, -1) @ refw
        for beta in degrees:
            shift = tuple(b - g for b, g in zip(beta, gamma))
            if beta == gamma or min(shift) < 0 or any(a % 2 for a in shift):
                continue
            fac = math.prod(math.factorial(b) / math.factorial(a) for b, a in zip(beta, shift))
            acc -= coeffs[:, column[beta]] * fac * box_average_moment(shift, 1.0) * sides3 ** sum(shift)
        coeffs[:, column[gamma]] = acc / factorial_multi(gamma)
    return degrees, coeffs


def project(f, cube, n: int) -> Poly:
    """Moment-matching polynomial of degree <= n-1 for f on 3Q.

    `cube` is anything with .center and .side; moments are taken on the
    concentric tripled box and the expansion center is the cube center.
    """
    center = np.asarray(cube.center, dtype=float)
    degrees, coeffs = project_cubes(f, center[None, :], [float(cube.side)], n)
    return Poly(center, dict(zip(degrees, coeffs[0].tolist())))


def moment_residuals(f, poly: Poly, cube, n: int, order: int = None) -> float:
    """Max over |beta| <= n-1 of |avg D^beta(P - f)| on 3Q.

    With `order` freely chosen this is an independent audit of the moment
    equations (the projector's own quadrature order is the default)."""
    center = np.asarray(cube.center, dtype=float)
    side3 = 3.0 * float(cube.side)
    degrees = multiindices(len(center), n - 1)
    order = order or max(CUBE_ORDER, 2 * n)
    means_f = _derivative_means(f, center, side3, degrees, order)
    worst = 0.0
    for beta in degrees:
        dp = poly.derivative(beta)
        mean_p = dp.coeffs.get((0,) * len(center), 0.0)
        for gamma, c in dp.coeffs.items():
            if gamma != (0,) * len(center):
                mean_p += c * box_average_moment(gamma, side3)
        worst = max(worst, abs(mean_p - means_f[beta]))
    return worst


def grad_sup_norm(f, j: int, center, side: float, grid: int = 9) -> float:
    """sup over a grid of |grad^j f| = sum_{|alpha|=j} |D^alpha f| on the box,
    padded by a first-order derivative-informed correction."""
    d = len(center)
    axes = [np.linspace(c - side / 2.0, c + side / 2.0, grid) for c in center]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    total = np.zeros(pts.shape[0])
    next_total = np.zeros(pts.shape[0])
    for alpha in multiindices(d, j):
        if sum(alpha) != j:
            continue
        total += np.abs(f.derivative(alpha)(pts))
    for alpha in multiindices(d, j + 1):
        if sum(alpha) != j + 1:
            continue
        try:
            next_total += np.abs(f.derivative(alpha)(pts))
        except ValueError:
            next_total += 0.0
    h = side / (grid - 1)
    return float(np.max(total) + 0.5 * h * np.max(next_total))


def lp_norm(values, weights, p: float) -> float:
    return float(np.sum(weights * np.abs(values) ** p)) ** (1.0 / p)


def grad_lp_norm(f, n: int, lo, hi, p: float, order: int = 8) -> float:
    """L^p norm of |grad^n f| = sum_{|alpha|=n} |D^alpha f| over the box."""
    pts, w = tensor_rule(lo, hi, order)
    d = len(lo)
    total = np.zeros(pts.shape[0])
    for alpha in multiindices(d, n):
        if sum(alpha) == n:
            total += np.abs(f.derivative(alpha)(pts))
    return lp_norm(total, w, p)


def coefficient_bound_report(f, cube, n: int) -> dict:
    """Measured constants for the coefficient bound
    |m_gamma| <= c_n sum_{j=|gamma|}^{n-1} sup|grad^j f| l(Q)^{j-|gamma|}."""
    poly = project(f, cube, n)
    center = np.asarray(cube.center, dtype=float)
    side = float(cube.side)
    sups = {j: grad_sup_norm(f, j, center, 3.0 * side) for j in range(n)}
    worst = 0.0
    per_gamma = {}
    for gamma, m in poly.coeffs.items():
        g = sum(gamma)
        bound = sum(sups[j] * side ** (j - g) for j in range(g, n))
        ratio = abs(m) / bound if bound > 0 else (0.0 if abs(m) < 1e-14 else float("inf"))
        per_gamma[gamma] = ratio
        worst = max(worst, ratio)
    return {"measured_c_n": worst, "per_gamma": per_gamma}


def verify_poincare(f, cube, n: int, p: float, order: int = 10) -> dict:
    """Ratio ||f - Pf||_{L^p(3Q)} / (l(Q)^n ||grad^n f||_{L^p(3Q)})."""
    poly = project(f, cube, n)
    center = np.asarray(cube.center, dtype=float)
    side = float(cube.side)
    lo = center - 1.5 * side
    hi = center + 1.5 * side
    pts, w = tensor_rule(lo, hi, order)
    num = lp_norm(f.derivative((0,) * len(center))(pts) - poly.evaluate(pts), w, p)
    den = side**n * grad_lp_norm(f, n, lo, hi, p, order)
    if den == 0.0:
        return {"ratio": 0.0, "numerator": num, "denominator": 0.0, "exact_zero": num < 1e-12}
    return {"ratio": num / den, "numerator": num, "denominator": den, "exact_zero": False}


def verify_chain_bound(f, oc, q_pos: int, s_pos: int, n: int, order: int = 8) -> dict:
    """Both sides of the chain estimate
    ||f - P_{3Q} f||_{L^1(S)} <= C sum_{P in [S,Q]} l(S)^d D(P,S)^{n-1}
                                      / l(P)^{d-1} * ||grad^n f||_{L^1(3P)}."""
    cov = oc.cov
    d = cov.dim
    poly = project(f, SimpleNamespace(center=cov.centers[q_pos], side=cov.sides[q_pos]), n)
    lo, hi = cov.lo[s_pos], cov.hi[s_pos]
    pts, w = tensor_rule(lo, hi, order)
    lhs = float(np.sum(w * np.abs(f.derivative((0,) * d)(pts) - poly.evaluate(pts))))
    chain = oc.chain(s_pos, q_pos)
    ls = cov.sides[s_pos]
    rhs = 0.0
    for ppos in chain:
        lp_ = cov.sides[ppos]
        Dps = oc.cov.long_distance(ppos, s_pos)
        g1 = grad_lp_norm(f, n, cov.centers[ppos] - 1.5 * lp_, cov.centers[ppos] + 1.5 * lp_, 1.0, order)
        rhs += ls**d * Dps ** (n - 1) / lp_ ** (d - 1) * g1
    const = lhs / rhs if rhs > 0 else (0.0 if lhs < 1e-14 else float("inf"))
    return {"lhs": lhs, "rhs": rhs, "constant": const, "chain_length": len(chain)}


def poly_norm_equivalence(poly: Poly, cube, r: float = 3.0, order: int = 8, grid: int = 33) -> dict:
    """Measured constants in ||q||_{L1(Q)} ~ l^d ||q||_{Linf(Q)} and
    ||q||_{Linf(rQ)} <= C r^{n-1} ||q||_{Linf(Q)} for polynomials."""
    center = np.asarray(cube.center, dtype=float)
    side = float(cube.side)
    d = len(center)
    pts, w = tensor_rule(center - side / 2, center + side / 2, order)
    l1 = float(np.sum(w * np.abs(poly.evaluate(pts))))

    def sup_on(scale):
        axes = [np.linspace(c - scale * side / 2, c + scale * side / 2, grid) for c in center]
        mesh = np.meshgrid(*axes, indexing="ij")
        p = np.stack([m.ravel() for m in mesh], axis=-1)
        return float(np.max(np.abs(poly.evaluate(p))))

    linf = sup_on(1.0)
    linf_r = sup_on(r)
    deg = poly.degree
    return {
        "l1_over_ld_linf": l1 / (side**d * linf) if linf > 0 else 0.0,
        "linf_r_over_scaled": linf_r / (r**deg * linf) if linf > 0 else 0.0,
        "degree": deg,
    }
