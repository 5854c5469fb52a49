"""Scalar fields with analytic derivatives.

Every probe function used in projections, Sobolev norms and transform
pipelines must expose exact partial derivatives, not just point values;
quadrature then carries the only discretization error.
"""

from __future__ import annotations

import math

import numpy as np


def multiindices(d: int, max_total: int):
    """All multiindices alpha in N^d with |alpha| <= max_total, graded lex order."""
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(tuple(prefix) + (remaining,))
            return
        for k in range(remaining + 1):
            rec(prefix + [k], remaining - k, slots - 1)

    for total in range(max_total + 1):
        rec([], total, d)
    return out


class ScalarField:
    """Base class: evaluate f and D^alpha f at arrays of points.

    `derivative(alpha)` returns a callable mapping (m, d) arrays to (m,)
    values. Fields are defined on all of R^d; domains restrict them.
    """

    dim = 2
    name = "field"

    def __call__(self, points):
        return self.derivative((0,) * self.dim)(points)

    def derivative(self, alpha):
        raise NotImplementedError

    def support_distance(self, x) -> float:
        """Distance from x to the support; 0.0 means possibly inside.

        Fields carrying a `support_box = (lo, hi)` attribute get the exact
        box distance."""
        box = getattr(self, "support_box", None)
        if box is None:
            return 0.0
        lo, hi = box
        x = np.asarray(x, dtype=float)
        gap = np.maximum(np.maximum(lo - x, x - hi), 0.0)
        return float(np.linalg.norm(gap))


class SeparableField(ScalarField):
    """Product f(x) = prod_j g_j(x_j) with per-factor derivative ladders.

    factors: list of lists; factors[j][k] is the k-th derivative of g_j.
    """

    def __init__(self, factors, name="separable"):
        self.factors = factors
        self.dim = len(factors)
        self.name = name

    def derivative(self, alpha):
        if len(alpha) != self.dim:
            raise ValueError(f"alpha has wrong length: {alpha}")
        for j, k in enumerate(alpha):
            if k >= len(self.factors[j]):
                raise ValueError(f"derivative order {k} not available on axis {j}")
        ladders = [self.factors[j][alpha[j]] for j in range(self.dim)]

        def ev(points):
            pts = np.atleast_2d(np.asarray(points, dtype=float))
            val = np.ones(pts.shape[0])
            for j, g in enumerate(ladders):
                val = val * g(pts[:, j])
            return val

        return ev


def _const_ladder(c, depth):
    lad = [lambda t, c=c: np.full(np.shape(t), c, dtype=float)]
    return lad + [lambda t: np.zeros(np.shape(t))] * depth


def _poly1d_ladder(coeffs, depth):
    """Derivative ladder for a 1-d polynomial given ascending coeffs."""
    ladders = []
    c = np.asarray(coeffs, dtype=float)
    for _ in range(depth + 1):
        cc = c.copy()
        ladders.append(lambda t, cc=cc: np.polynomial.polynomial.polyval(np.asarray(t, float), cc))
        c = np.polynomial.polynomial.polyder(c) if c.size > 1 else np.zeros(1)
    return ladders


def _sin_ladder(freq, depth):
    # d/dt sin(freq t) cycles with period 4
    def make(k):
        shift = k % 4
        amp = freq**k

        def g(t, shift=shift, amp=amp):
            t = np.asarray(t, float)
            base = freq * t + shift * (np.pi / 2.0)
            return amp * np.sin(base)

        return g

    return [make(k) for k in range(depth + 1)]


def _exp_ladder(rate, depth):
    def make(k):
        amp = rate**k
        return lambda t, amp=amp: amp * np.exp(rate * np.asarray(t, float))

    return [make(k) for k in range(depth + 1)]


_DEPTH = 8  # derivative orders available on every stock field


def constant(c: float, d: int = 2) -> ScalarField:
    return SeparableField([_const_ladder(c, _DEPTH)] + [_const_ladder(1.0, _DEPTH)] * (d - 1), name=f"const({c})")


def coordinate(axis: int, d: int = 2) -> ScalarField:
    factors = []
    for j in range(d):
        factors.append(_poly1d_ladder([0.0, 1.0], _DEPTH) if j == axis else _const_ladder(1.0, _DEPTH))
    return SeparableField(factors, name=f"x{axis + 1}")


def monomial(alpha, d: int = None) -> ScalarField:
    alpha = tuple(alpha)
    d = d or len(alpha)
    factors = []
    for j in range(d):
        k = alpha[j] if j < len(alpha) else 0
        coeffs = [0.0] * k + [1.0]
        factors.append(_poly1d_ladder(coeffs, _DEPTH))
    name = "*".join(f"x{j + 1}^{a}" for j, a in enumerate(alpha) if a) or "1"
    return SeparableField(factors, name=name)


def sin_product(freqs) -> ScalarField:
    factors = [_sin_ladder(f, _DEPTH) if f != 0 else _const_ladder(1.0, _DEPTH) for f in freqs]
    name = "*".join(f"sin({f:g}*x{j + 1})" for j, f in enumerate(freqs) if f != 0)
    return SeparableField(factors, name=name or "1")


def exp_coordinate(axis: int, d: int = 2, rate: float = 1.0) -> ScalarField:
    factors = []
    for j in range(d):
        factors.append(_exp_ladder(rate, _DEPTH) if j == axis else _const_ladder(1.0, _DEPTH))
    return SeparableField(factors, name=f"exp({rate:g}*x{axis + 1})")


class SumField(ScalarField):
    """Linear combination of fields (shared dimension)."""

    def __init__(self, terms, name="sum"):
        # terms: list of (coef, field)
        self.terms = terms
        self.dim = terms[0][1].dim
        self.name = name

    def derivative(self, alpha):
        evs = [(c, f.derivative(alpha)) for c, f in self.terms]

        def ev(points):
            pts = np.atleast_2d(np.asarray(points, dtype=float))
            out = np.zeros(pts.shape[0])
            for c, g in evs:
                out += c * g(pts)
            return out

        return ev


def random_polynomial_field(rng, d: int = 2, degree: int = 3, scale: float = 1.0) -> ScalarField:
    """Random polynomial with coefficients in [-scale, scale]."""
    terms = []
    for alpha in multiindices(d, degree):
        c = rng.uniform(-scale, scale)
        terms.append((c, monomial(alpha, d)))
    return SumField(terms, name=f"randpoly(deg={degree})")


def random_smooth_field(rng, d: int = 2) -> ScalarField:
    """Random smooth non-polynomial probe: poly + trig + exponential mix."""
    terms = [(rng.uniform(-1, 1), random_polynomial_field(rng, d, 2))]
    freqs = [rng.uniform(0.5, 2.0) for _ in range(d)]
    terms.append((rng.uniform(-1, 1), sin_product(freqs)))
    terms.append((rng.uniform(-0.5, 0.5), exp_coordinate(rng.integers(0, d), d, rate=rng.uniform(0.3, 1.0))))
    return SumField(terms, name="randsmooth")


def check_derivative_consistency(field: ScalarField, points, alpha, h: float = 1e-5) -> float:
    """Max abs gap between D^alpha f and a centered finite difference of
    D^(alpha - e_j) f; O(h^2) for smooth fields. Returns the gap."""
    alpha = tuple(alpha)
    j = next((i for i, a in enumerate(alpha) if a > 0), None)
    if j is None:
        raise ValueError("alpha must have positive order")
    lower = tuple(a - (1 if i == j else 0) for i, a in enumerate(alpha))
    g = field.derivative(lower)
    target = field.derivative(alpha)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    step = np.zeros(pts.shape[1])
    step[j] = h
    fd = (g(pts + step) - g(pts - step)) / (2.0 * h)
    return float(np.max(np.abs(fd - target(pts))))


def factorial_multi(alpha) -> int:
    out = 1
    for a in alpha:
        out *= math.factorial(a)
    return out
