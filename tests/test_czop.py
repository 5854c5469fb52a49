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
    """Definition audit on the nodes a PV evaluation actually visits: the
    outer ray rows and every annulus of the epsilon schedule, through the
    array rule as pv_transform builds them."""
    from czdomain.quadrature import gauss_log_radial

    x = np.array([0.2, 0.1])
    sched = czop.PVSchedule()
    r0 = 0.5 * disk.dist_point(x)
    eps = 0.5 * r0 * sched.ratio ** np.arange(sched.levels)
    theta, _ = czop._ray_angles(disk, x, sched.n_theta)
    ray, _, b = disk.ray_hits(x, theta)
    rows = [
        (theta[ray], np.full(b.shape, r0), b),
        (np.tile(theta, sched.levels), np.repeat(eps, sched.n_theta), np.full(sched.levels * sched.n_theta, r0)),
    ]
    zz = []
    for th, a, b in rows:
        for idx, rr, _ in gauss_log_radial(a, b, order=sched.radial_order):
            zz.append((-rr * np.exp(1j * th[idx])[:, None]).ravel())
    zz = np.concatenate(zz)
    assert zz.size > sched.levels * sched.n_theta * sched.radial_order
    assert kernel.bound_holds(zz)


def test_zero_kernel():
    zk = czop.zero_kernel()
    assert zk.C_K == 0.0
    assert np.all(zk.value(np.array([1 + 1j])) == 0)


# ---------------------------------------------------------------------------
# batched ray quadrature against the former per-angle, per-ray loops


L_SHAPE = geometry.Polygon([[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]])


def _loop_ray_hits(domain, origin, angles):
    """The former ray casting: per angle, a list of (t0, t1) intervals."""
    if isinstance(domain, geometry.Disk):
        o = np.asarray(origin, float) - domain.center
        out = []
        for th in np.atleast_1d(angles):
            dvec = np.array([math.cos(th), math.sin(th)])
            b = float(o @ dvec)
            c = float(o @ o) - domain.radius**2
            disc = b * b - c
            if disc <= 0:
                out.append([])
                continue
            sq = math.sqrt(disc)
            t0, t1 = max(-b - sq, 0.0), -b + sq
            out.append([] if t1 <= t0 else [(t0, t1)])
        return out
    o = np.asarray(origin, float)
    inside0 = domain.contains_point(o)
    out = []
    for th in np.atleast_1d(angles):
        dvec = np.array([math.cos(th), math.sin(th)])
        ts = []
        for a, b in domain.edges():
            e = b - a
            denom = dvec[0] * (-e[1]) - dvec[1] * (-e[0])
            if abs(denom) < 1e-300:
                continue
            rhs = a - o
            t = (rhs[0] * (-e[1]) + rhs[1] * e[0]) / denom
            s = (dvec[0] * rhs[1] - dvec[1] * rhs[0]) / denom
            if t > 1e-13 and -1e-13 <= s <= 1 + 1e-13:
                ts.append(t)
        dedup = []
        for t in sorted(ts):
            if not dedup or t - dedup[-1] > 1e-12 * max(1.0, t):
                dedup.append(t)
        pts = [0.0] + dedup if inside0 else dedup
        out.append([(pts[i], pts[i + 1]) for i in range(0, len(pts) - 1, 2) if pts[i + 1] > pts[i]])
    return out


def _loop_ray_quadrature(domain, x, r_min, kern_fn, f_fn, n_theta, radial_order):
    """The former ray quadrature: one log-radial rule and one kernel call
    per (ray, interval)."""
    from czdomain.quadrature import gauss_on_interval

    def log_radial(r0, r1, order):
        n_panels = max(1, int(np.ceil(np.log(r1 / r0) * 1.5 / np.log(10.0))))
        edges = r0 * np.exp(np.linspace(0.0, np.log(r1 / r0), n_panels + 1))
        rules = [gauss_on_interval(edges[i], edges[i + 1], order) for i in range(n_panels)]
        return np.concatenate([r for r, _ in rules]), np.concatenate([w for _, w in rules])

    x = np.asarray(x, float)
    theta, tw = czop._ray_angles(domain, x, n_theta)
    total = 0j
    for th, w_th, ivals in zip(theta, tw, _loop_ray_hits(domain, x, theta)):
        for a, b in ivals:
            a = max(a, r_min)
            if b <= a * (1 + 1e-14) or b - a < 1e-15:
                continue
            if a <= 0:
                a = min(1e-9 * b, b * 1e-6)
            rr, rw = log_radial(a, b, radial_order)
            pts = x[None, :] + rr[:, None] * np.array([math.cos(th), math.sin(th)])[None, :]
            zz = -rr * cmath.exp(1j * th)
            total += w_th * np.sum(rw * kern_fn(zz) * f_fn(pts) * rr)
    return total


INTERIOR_ORIGINS = {
    "disk": [(0.3, -0.2), (0.0, 0.0), (-0.9, 0.1)],
    "square": [(0.35, 0.55), (0.9, 0.1)],
    "lshape": [(0.5, 1.5), (1.5, 0.5), (0.8, 0.8)],
}


def _ray_origins(name, domain, rng, count):
    """A few interior points, then random origins in [-1.5, 2.5]^2 off the
    boundary."""
    out = [np.array(o) for o in INTERIOR_ORIGINS[name]]
    while len(out) < count:
        o = rng.uniform(-1.5, 2.5, 2)
        if domain.dist_point(o) > 1e-3:
            out.append(o)
    return out


@pytest.mark.parametrize("name", ["disk", "square", "lshape"])
def test_ray_hits_match_per_angle_loop(name, disk, square):
    domain = {"disk": disk, "square": square, "lshape": L_SHAPE}[name]
    rng = np.random.default_rng(17)
    origins = _ray_origins(name, domain, rng, 40)
    seen_inside = seen_outside = seen_multi = False
    for o in origins:
        angles = rng.uniform(0.0, 2 * math.pi, 64)
        if name != "disk":
            # rays through the vertices cross two edges at one t
            angles = np.concatenate([angles, [math.atan2(*(v - o)[::-1]) for v in domain.vertices]])
        ref = _loop_ray_hits(domain, o, angles)
        ray, t0, t1 = domain.ray_hits(o, angles)
        assert ray.tolist() == [i for i, ivals in enumerate(ref) for _ in ivals]
        old = np.array([iv for ivals in ref for iv in ivals]).reshape(-1, 2)
        scale = np.maximum(1.0, np.abs(old))
        assert np.all(np.abs(np.stack([t0, t1], axis=-1) - old) <= 1e-14 * scale)
        inside = domain.contains_point(o)
        seen_inside |= inside
        seen_outside |= not inside
        seen_multi |= ray.size > 0 and np.bincount(ray).max() >= 2
    assert seen_inside and seen_outside
    assert seen_multi == (name == "lshape")


@pytest.mark.parametrize("name", ["disk", "square", "lshape"])
def test_ray_quadrature_matches_per_ray_loop(kernel, name, disk, square):
    """Interior points with r_min = 0 and r_min > 0, exterior points (the
    disk's tangent-cone rule among them) with r_min = 0 and r_min > 0."""
    domain = {"disk": disk, "square": square, "lshape": L_SHAPE}[name]
    rng = np.random.default_rng(23)
    f_fn = czop._point_fn(czop.parse_cpoly("2*z^2*zbar - 0.5 + zbar"))
    origins = _ray_origins(name, domain, rng, 10)
    assert {domain.contains_point(o) for o in origins} == {True, False}
    for o in origins:
        for r_min in (0.0, 0.5 * domain.dist_point(o) + 0.1):
            for n_theta, order in ((64, 12), (128, 16)):
                new = czop._ray_quadrature(domain, o, r_min, kernel.value, f_fn, n_theta, order)
                old = _loop_ray_quadrature(domain, o, r_min, kernel.value, f_fn, n_theta, order)
                assert abs(new - old) <= 1e-13 * max(1.0, abs(old))


def test_pv_nonconvex_exterior_point(kernel):
    """The L-shape seen from its notch, and from beyond its lower arm, whose
    rays cross both arms and so leave and re-enter the domain: the PV and
    contour routes agree to roundoff."""
    for z in (1.6 + 1.6j, 3.0 + 0.5j):
        for P in ("1", "z", "zbar", "2*z^2*zbar - 0.5"):
            vb, _ = czop.boundary_transform(L_SHAPE, P, z)
            vp, _ = czop.pv_transform(kernel, L_SHAPE, czop.parse_cpoly(P), [z.real, z.imag])
            assert abs(vb - vp) <= 1e-12 * max(1.0, abs(vb))
    theta, _ = czop._ray_angles(L_SHAPE, np.array([3.0, 0.5]), 96)
    ray, _, _ = L_SHAPE.ray_hits([3.0, 0.5], theta)
    assert np.bincount(ray).max() == 2
