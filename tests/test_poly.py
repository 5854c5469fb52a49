import math
from fractions import Fraction

import numpy as np
import pytest

from czdomain import fields, poly


class Box:
    def __init__(self, center, side):
        self.center = np.asarray(center, dtype=float)
        self.side = float(side)


def exact_box_monomial_integral(alpha, center, side):
    """Oracle: integral of prod (x_j - c_j)^a_j over the centered box,
    in exact rational arithmetic."""
    out = Fraction(1)
    h = Fraction(side) / 2
    for a in alpha:
        if a % 2 == 1:
            return Fraction(0)
        out *= 2 * h ** (a + 1) / (a + 1)
    return out


def test_projection_reproduces_polynomials():
    rng = np.random.default_rng(0)
    for n in (1, 2, 3, 4):
        for _ in range(5):
            f = fields.random_polynomial_field(rng, 2, n - 1)
            cube = Box(rng.uniform(-1, 1, 2), rng.uniform(0.05, 1.2))
            pr = poly.project(f, cube, n)
            # coefficient-wise reconstruction at sample points
            pts = cube.center + rng.uniform(-1.5, 1.5, (40, 2)) * cube.side
            assert np.max(np.abs(pr.evaluate(pts) - f(pts))) < 1e-10


def test_projection_x1_squared_closed_form():
    # moments on the tripled box: projection of x1^2 with n=2 is the
    # constant (3s)^2/12 = 3 s^2 / 4, all linear terms zero
    s = 0.8
    pr = poly.project(fields.monomial((2, 0)), Box([0, 0], s), 2)
    assert pr.coeffs[(0, 0)] == pytest.approx(3 * s * s / 4, rel=1e-12)
    assert abs(pr.coeffs[(1, 0)]) < 1e-14
    assert abs(pr.coeffs[(0, 1)]) < 1e-14


def test_moment_equations_hold(square):
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(30):
        n = int(rng.integers(1, 4))
        f = fields.random_smooth_field(rng)
        cube = Box(rng.uniform(-0.5, 0.5, 2), rng.uniform(0.05, 0.5))
        pr = poly.project(f, cube, n)
        worst = max(worst, poly.moment_residuals(f, pr, cube, n))
    assert worst < 1e-10


def test_projection_uniqueness_and_linearity():
    rng = np.random.default_rng(2)
    cube = Box([0.2, -0.1], 0.4)
    f = fields.random_smooth_field(rng)
    g = fields.random_smooth_field(rng)
    both = fields.SumField([(2.0, f), (-0.5, g)])
    pf = poly.project(f, cube, 3)
    pg = poly.project(g, cube, 3)
    pb = poly.project(both, cube, 3)
    for gamma in pb.coeffs:
        combo = 2.0 * pf.coeffs[gamma] - 0.5 * pg.coeffs[gamma]
        assert pb.coeffs[gamma] == pytest.approx(combo, abs=1e-10)
    # uniqueness: projecting twice gives identical coefficients
    pf2 = poly.project(f, cube, 3)
    for gamma in pf.coeffs:
        assert pf.coeffs[gamma] == pytest.approx(pf2.coeffs[gamma], abs=1e-10)


def test_project_all_matches_project(disk_oc):
    """Rows of the array projection equal the one-row projection."""
    cov = disk_oc.cov
    f = fields.random_smooth_field(np.random.default_rng(3))
    degrees, coeffs = poly.project_cubes(f, cov.centers, cov.sides, 3)
    assert coeffs.shape == (len(cov), len(degrees))
    for i in (0, len(cov) // 3, len(cov) - 1):
        single = poly.project(f, Box(cov.centers[i], cov.sides[i]), 3)
        assert list(single.coeffs) == degrees
        for k, gamma in enumerate(degrees):
            assert coeffs[i, k] == pytest.approx(single.coeffs[gamma], abs=1e-12)


def test_coefficient_bound_p1():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 4))
        f = fields.random_smooth_field(rng)
        cube = Box(rng.uniform(-0.5, 0.5, 2), rng.uniform(0.05, 0.8))
        rep = poly.coefficient_bound_report(f, cube, n)
        worst = max(worst, rep["measured_c_n"])
    # the measured constant is reported; a generous envelope must hold
    assert worst < 10.0


def test_poincare_polynomial_is_exact_zero():
    f = fields.random_polynomial_field(np.random.default_rng(5), 2, 2)
    rep = poly.verify_poincare(f, Box([0.3, 0.4], 0.3), 3, 2.0)
    assert rep["exact_zero"]


def test_poincare_sin_ratio_converges_to_taylor_limit():
    # Taylor oracle: for f = sin(x1), n = 1, p = 2, the ratio
    # ||f - mean||_{L2(3Q)} / (l(Q) ||f'||_{L2(3Q)}) tends to 3/sqrt(12)
    limit = 3.0 / math.sqrt(12.0)
    f = fields.sin_product([1.0, 0.0])
    ratios = []
    for k in (3, 5, 7):
        rep = poly.verify_poincare(f, Box([0.4, 0.1], 2.0**-k), 1, 2.0)
        ratios.append(rep["ratio"])
    assert ratios[-1] == pytest.approx(limit, rel=1e-3)
    assert abs(ratios[2] - limit) < abs(ratios[0] - limit)


def test_poincare_x1n_exact_moment_quotient():
    """f = x1^n: both sides are exact polynomial moments; the oracle solves
    the moment system and integrates in rational arithmetic."""
    n = 2
    s = Fraction(1, 2)
    L = 3 * s  # moments live on the tripled box
    # projection of x1^2 at n=2: constant c0 = mean of x1^2 = L^2/12
    c0 = L**2 / 12
    # numerator^2 = integral of (x1^2 - c0)^2 over the box (both axes)
    num2 = (L**4 / 80 - 2 * c0 * L**2 / 12 + c0**2) * L**2
    # denominator^2 = (s^2)^2 * || |d11 f| + |d12 f| + |d22 f| ||_2^2 = s^4 * 4 L^2
    den2 = s**4 * 4 * L**2
    expect = math.sqrt(float(num2 / den2))
    rep = poly.verify_poincare(fields.monomial((2, 0)), Box([0, 0], float(s)), n, 2.0)
    assert rep["ratio"] == pytest.approx(expect, rel=1e-10)


def test_chain_bound_trivial_cases(disk_oc):
    f = fields.random_polynomial_field(np.random.default_rng(6), 2, 1)
    q = len(disk_oc.cov) // 2
    rep = poly.verify_chain_bound(f, disk_oc, q, q, 2)
    assert rep["chain_length"] == 1
    assert rep["lhs"] < 1e-12  # degree <= n-1: projection is exact


def test_chain_bound_random_pairs(disk_oc):
    f = fields.sin_product([1.0, 1.0])
    rng = np.random.default_rng(7)
    n_cubes = len(disk_oc.cov)
    worst = 0.0
    for _ in range(30):
        q, s = int(rng.integers(0, n_cubes)), int(rng.integers(0, n_cubes))
        rep = poly.verify_chain_bound(f, disk_oc, q, s, 2)
        if rep["rhs"] > 0:
            worst = max(worst, rep["constant"])
    # pilot-run budget (spec example records <= 50 at depth 7)
    assert worst < 50.0


def test_poly_norm_equivalences():
    rng = np.random.default_rng(8)
    l1_consts, scale_consts = [], []
    for _ in range(40):
        deg = int(rng.integers(0, 4))
        coeffs = {}
        for alpha in fields.multiindices(2, deg):
            coeffs[alpha] = rng.uniform(-1, 1)
        q = poly.Poly(np.zeros(2), coeffs)
        rep = poly.poly_norm_equivalence(q, Box(rng.uniform(-0.2, 0.2, 2), rng.uniform(0.2, 1.0)))
        l1_consts.append(rep["l1_over_ld_linf"])
        scale_consts.append(rep["linf_r_over_scaled"])
    # ||q||_L1(Q) <= l^d ||q||_Linf(Q) always; lower constant is dimensional
    assert max(l1_consts) <= 1.0 + 1e-9
    assert min(l1_consts) > 0.005
    # ||q||_Linf(rQ) <= C r^(deg) ||q||_Linf(Q): measured C stays small
    assert max(scale_consts) < 30.0


def test_poly_serialization_roundtrip():
    p = poly.Poly(np.array([0.25, -1.5]), {(0, 0): 1.25, (2, 1): -0.75})
    q = poly.Poly.deserialize(p.serialize())
    assert np.allclose(q.center, p.center)
    assert q.coeffs == p.coeffs


def test_poly_derivative_and_eval():
    p = poly.Poly(np.zeros(2), {(2, 1): 3.0})
    d = p.derivative((1, 1))
    # d/dx d/dy of 3 x^2 y = 6x
    pts = np.array([[2.0, 5.0], [-1.0, 0.5]])
    assert np.allclose(d.evaluate(pts), [12.0, -6.0])


def test_field_derivative_consistency():
    rng = np.random.default_rng(9)
    f = fields.random_smooth_field(rng)
    pts = rng.uniform(-1, 1, (25, 2))
    for alpha in ((1, 0), (0, 1), (2, 0), (1, 1)):
        gap = fields.check_derivative_consistency(f, pts, alpha)
        assert gap < 1e-6
