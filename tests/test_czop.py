import cmath
import math

import numpy as np
import pytest

from czdomain import czop, fields, geometry


@pytest.fixture(scope="module")
def kernel():
    return czop.beurling_kernel()


def test_kernel_modulus(kernel):
    rng = np.random.default_rng(0)
    z = rng.normal(size=200) + 1j * rng.normal(size=200)
    assert np.allclose(np.abs(kernel.value(z)), 1.0 / (np.pi * np.abs(z) ** 2), rtol=1e-13)


def test_kernel_bound_audit(kernel):
    rng = np.random.default_rng(1)
    z = rng.normal(scale=2.0, size=10**4) + 1j * rng.normal(scale=2.0, size=10**4)
    z = z[np.abs(z) > 1e-9]
    r = np.abs(z)
    for j in range(4):
        total = kernel.grad_total(j, z)
        assert np.all(total <= kernel.C_K / r ** (2 + j) * (1 + 1e-9))


def test_kernel_derivative_closed_form_vs_fd(kernel):
    z0 = np.array([0.7 - 0.3j, -1.1 + 0.2j])
    h = 1e-6
    for alpha in ((1, 0), (0, 1), (1, 1), (2, 0)):
        lower = (alpha[0] - 1, alpha[1]) if alpha[0] else (alpha[0], alpha[1] - 1)
        step = h if alpha[0] else 1j * h
        fd = (kernel.deriv(lower, z0 + step) - kernel.deriv(lower, z0 - step)) / (2 * h)
        assert np.max(np.abs(fd - kernel.deriv(alpha, z0))) < 1e-4


def test_circle_mean_is_zero(kernel):
    for r in (0.25, 1.0, 3.7):
        assert abs(czop.kernel_circle_mean(kernel, r)) < 1e-15


def test_pv_disk_constant_vanishes(kernel, disk):
    one = czop.parse_cpoly("1")
    v, e = czop.pv_transform(kernel, disk, one, [0.0, 0.0])
    assert abs(v) < 1e-12
    rng = np.random.default_rng(2)
    for _ in range(6):
        x = rng.uniform(-0.55, 0.55, 2)
        v, e = czop.pv_transform(kernel, disk, one, x)
        assert abs(v) < 1e-8
        assert e < 1e-7


def test_pv_linearity(kernel, disk):
    x = [0.3, -0.2]
    f1 = czop.parse_cpoly("z")
    f2 = czop.parse_cpoly("zbar")
    combo = czop.parse_cpoly("2*z + 0.5*zbar")
    v1, _ = czop.pv_transform(kernel, disk, f1, x)
    v2, _ = czop.pv_transform(kernel, disk, f2, x)
    vc, _ = czop.pv_transform(kernel, disk, combo, x)
    assert abs(vc - (2 * v1 + 0.5 * v2)) < 1e-9


def test_pv_requires_interior_point(kernel, disk):
    with pytest.raises(ValueError):
        czop.PVSchedule(ratio=1.5)


def test_pv_against_midpoint_oracle(kernel, square):
    """Independent oracle: brute-force midpoint quadrature with annular
    exclusion at two resolutions, Richardson extrapolated in the cell size."""
    x = np.array([0.35, 0.55])
    f = czop.parse_cpoly("zbar")

    def midpoint(nc):
        xs = (np.arange(nc) + 0.5) / nc
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        pts = np.stack([X.ravel(), Y.ravel()], axis=-1)
        zz = (x[0] - pts[:, 0]) + 1j * (x[1] - pts[:, 1])
        r = np.abs(zz)
        eps = 0.08
        keep = r > eps
        area = 1.0 / nc**2
        # annular correction: integral over eps-ball of K*(f - f(x)) ~ 0 for
        # the oracle tolerance; constant part cancels by symmetry
        return np.sum(kernel.value(zz[keep]) * f(pts[keep, 0] + 1j * pts[keep, 1])) * area

    i1 = midpoint(400)
    i2 = midpoint(800)
    oracle = i2 + (i2 - i1) / 3.0  # second-order Richardson in cell size
    # add back the excluded-ball principal value: pv of K against the first
    # order Taylor of f vanishes; quadratic remainder is zero for f = zbar
    pv, est = czop.pv_transform(kernel, square, f, x)
    assert abs(pv - oracle) < 2e-3


def test_grad_transform_off_support_cross_check(kernel, square):
    """f supported in a far box: centered differences of the PV value agree
    with direct quadrature of the differentiated kernel."""

    class BoxField(fields.ScalarField):
        name = "bump-box"
        support_box = (np.array([0.1, 0.1]), np.array([0.3, 0.3]))

        def derivative(self, alpha):
            if alpha != (0, 0):
                raise ValueError("only values")
            def ev(pts):
                pts = np.atleast_2d(pts)
                inside = np.all((pts >= 0.1) & (pts <= 0.3), axis=1)
                return np.where(inside, 1.0, 0.0)
            return ev

    f = BoxField()
    x = np.array([0.8, 0.75])
    direct, est = czop.grad_transform(kernel, square, f, x, 1)

    # independent path: finite differences of plain box quadrature
    from czdomain.quadrature import tensor_rule

    def value_at(xx):
        pts, w = tensor_rule(*f.support_box, 16)
        zz = (xx[0] - pts[:, 0]) + 1j * (xx[1] - pts[:, 1])
        return np.sum(w * kernel.value(zz))

    h = 1e-5
    fd10 = (value_at(x + [h, 0]) - value_at(x - [h, 0])) / (2 * h)
    fd01 = (value_at(x + [0, h]) - value_at(x - [0, h])) / (2 * h)
    assert abs(direct[(1, 0)] - fd10) / abs(fd10) < 1e-6
    assert abs(direct[(0, 1)] - fd01) / abs(fd01) < 1e-6


def test_grad_transform_vanishes_inside_disk(kernel, disk):
    vals, est = czop.grad_transform(kernel, disk, czop.parse_cpoly("1"), [0.3, 0.1], 1, method="pv")
    assert czop.grad_total(vals) < 1e-6
    vals, est = czop.grad_transform(kernel, disk, czop.parse_cpoly("1"), [0.3, 0.1], 1, method="contour")
    assert czop.grad_total(vals) == 0.0


def test_corner_gradient_growth(kernel, square):
    eng = czop.BoundaryEngine(square, czop.parse_cpoly("1"))
    ks = np.arange(3, 10)
    zs = np.array([2.0**-k * (1 + 1j) for k in ks])
    g = eng.gradient_total(1, zs)
    slope = np.polyfit(np.log(np.abs(zs)), np.log(g), 1)[0]
    assert abs(slope + 1.0) < 0.1


def test_fd_step_underflow_raises(kernel, disk):
    with pytest.raises(ValueError):
        czop.grad_transform(kernel, disk, czop.parse_cpoly("1"), [1.0 - 1e-14, 0.0], 1, method="pv")


def test_boundary_transform_agreement(kernel, disk, square):
    rng = np.random.default_rng(3)
    for dom, box in ((disk, (-0.6, 0.6)), (square, (0.2, 0.8))):
        for P in ("1", "z", "zbar"):
            for _ in range(4):
                x = rng.uniform(*box, 2)
                vb, eb = czop.boundary_transform(dom, P, complex(x[0], x[1]))
                vp, ep = czop.pv_transform(kernel, dom, czop.parse_cpoly(P), x)
                assert abs(vb - vp) < 1e-6


def test_boundary_transform_near_boundary_raises(square):
    with pytest.raises(ValueError):
        czop.boundary_transform(square, "1", complex(0.5, 1e-8))


def test_outside_domain_values_agree(kernel, disk, square):
    """Both routes also evaluate T(chi_Omega f) at exterior points (the
    transform of constant data lives outside the disk)."""
    rng = np.random.default_rng(11)
    for dom, pts in (
        (disk, [(1.5, 0.3), (-1.2, 1.1)]),
        (square, [(1.6, 0.4), (-0.7, 1.3)]),
    ):
        for P in ("1", "z"):
            for x in pts:
                vb, _ = czop.boundary_transform(dom, P, complex(*x))
                vp, _ = czop.pv_transform(kernel, dom, czop.parse_cpoly(P), list(x))
                assert abs(vb - vp) < 1e-7
    # the disk transform of constant data is nontrivial outside
    vb, _ = czop.boundary_transform(disk, "1", complex(1.5, 0.3))
    assert abs(vb) > 1e-3


def test_disk_closed_form_cases(kernel):
    case = czop.disk_closed_form((0, 0))
    assert case.case == "supported_outside"
    assert case.fit_residual < 1e-10

    case = czop.disk_closed_form((1, 0))
    assert case.case == "inside_only"
    assert case.monomials == [(0, 1)]
    assert case.fit_residual < 1e-10

    case = czop.disk_closed_form((2, 0))
    assert case.case == "inside_two_terms"
    assert set(case.monomials) == {(1, 1), (0, 0)}
    assert case.fit_residual < 1e-10
    assert case.condition < 1e3

    case = czop.disk_closed_form((1, 1))
    assert case.case == "inside_plus_outside"
    assert case.monomials == [(0, 2)]


def test_disk_closed_form_predicts_values(kernel, disk):
    rng = np.random.default_rng(4)
    for lam in ((1, 0), (2, 0), (1, 1)):
        case = czop.disk_closed_form(lam)
        z = complex(*rng.uniform(-0.4, 0.4, 2))
        vb, _ = czop.boundary_transform(disk, czop.CPoly({lam: 1.0}), z)
        assert abs(case.value_inside(np.array([z]))[0] - vb) < 1e-8


def test_nth_gradient_of_disk_transform_vanishes(disk):
    rng = np.random.default_rng(5)
    zs = 0.65 * (rng.uniform(-1, 1, 40) + 1j * rng.uniform(-1, 1, 40))
    zs = zs[np.abs(zs) < 0.65]
    for n in (1, 2, 3):
        for l1 in range(n):
            for l2 in range(n - l1):
                eng = czop.BoundaryEngine(disk, czop.CPoly({(l1, l2): 1.0}))
                assert float(np.max(eng.gradient_total(n, zs))) < 1e-12


def test_cpoly_roundtrip_and_partials():
    cp = czop.parse_cpoly("2*z^2*zbar - 0.5 + zbar^3")
    assert cp.coeffs[(2, 1)] == 2.0
    assert cp.coeffs[(0, 0)] == -0.5
    assert cp.coeffs[(0, 3)] == 1.0
    # Wirtinger partials against finite differences
    rng = np.random.default_rng(6)
    z = rng.normal(size=5) + 1j * rng.normal(size=5)
    h = 1e-6
    dx = (cp(z + h) - cp(z - h)) / (2 * h)
    assert np.max(np.abs(dx - cp.partial((1, 0))(z))) < 1e-6
    dy = (cp(z + 1j * h) - cp(z - 1j * h)) / (2 * h)
    assert np.max(np.abs(dy - cp.partial((0, 1))(z))) < 1e-6


def test_real_poly_to_cpoly_equivalence():
    """One batch of centres through taylor_to_zzbar: every row is the real
    polynomial in absolute (z, zbar) powers, and equals from_real_poly."""
    from czdomain.poly import Poly

    rng = np.random.default_rng(7)
    degrees = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (2, 1)]
    centers = rng.uniform(-1, 1, (5, 2))
    coeffs = rng.uniform(-1.5, 1.5, (5, len(degrees)))
    pairs, out = czop.taylor_to_zzbar(centers, degrees, coeffs)
    assert out.shape == (5, len(pairs))
    pts = rng.uniform(-2, 2, (30, 2))
    z = pts[:, 0] + 1j * pts[:, 1]
    for i in range(len(centers)):
        p = Poly(centers[i], dict(zip(degrees, coeffs[i])))
        cp = czop.CPoly(dict(zip(pairs, out[i])))
        assert np.max(np.abs(cp(z).real - p.evaluate(pts))) < 1e-12
        assert np.max(np.abs(cp(z).imag)) < 1e-12
        single = czop.CPoly.from_real_poly(p)
        assert single.coeffs == cp.coeffs


def test_kernel_bound_at_quadrature_nodes(kernel, disk):
    """Definition audit on the nodes a PV evaluation actually visits."""
    x = np.array([0.2, 0.1])
    dist = disk.dist_point(x)
    r0 = 0.5 * dist
    from czdomain.quadrature import gauss_log_radial, trapezoid_circle

    theta, _ = trapezoid_circle(96)
    rr, _ = gauss_log_radial(r0 / 16, r0, order=12)
    zz = (-rr[None, :] * np.exp(1j * theta)[:, None]).ravel()
    assert kernel.bound_holds(zz)


def test_zero_kernel():
    zk = czop.zero_kernel()
    assert zk.C_K == 0.0
    assert np.all(zk.value(np.array([1 + 1j])) == 0)
