"""Calderon-Zygmund kernels and truncated transforms in the plane.

Three evaluation routes for T_Omega f(x) = int_Omega K(x-y) f(y) dy:

* pv_transform: principal value via an epsilon-exclusion schedule and
  Richardson extrapolation. The integral splits into a polar annulus
  around x (geometrically exact) and a ray-cast outer region whose radial
  extent follows the actual boundary, so no boundary-layer bias enters.
* boundary_transform: for polynomial data on a disk or polygon the area
  integral collapses to a contour integral with closed-form pieces
  (Laurent residues on the circle, rational/log antiderivatives on edges)
  plus a local polynomial term; exact up to roundoff.
* gradients: outside supp f by quadrature of the differentiated kernel;
  inside by centered differences of the PV value, or analytically on the
  contour route (the contour part is holomorphic in x).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Disk, Domain, Polygon
from .poly import Poly
from .quadrature import gauss_log_radial, gauss_on_interval, richardson, tensor_rule, trapezoid_circle


# ---------------------------------------------------------------------------
# kernels


@dataclass
class Kernel:
    """Convolution CZ kernel of order n: K and D^alpha K for |alpha| <= n."""

    dim: int
    order: int
    value: object  # callable complex array -> complex array
    deriv: object  # callable (alpha, complex array) -> complex array
    C_K: float
    name: str = "kernel"

    def grad_total(self, j: int, z):
        """|grad^j K|(z) = sum over |alpha| = j of |D^alpha K(z)|."""
        z = np.asarray(z, dtype=complex)
        total = np.zeros(z.shape)
        for a in range(j + 1):
            total += np.abs(self.deriv((a, j - a), z))
        return total

    def bound_holds(self, z, tol: float = 1e-9) -> bool:
        """Definition audit: |grad^j K| <= C_K / |z|^{d+j} for j <= order."""
        z = np.asarray(z, dtype=complex)
        r = np.abs(z)
        for j in range(self.order + 1):
            if np.any(self.grad_total(j, z) > self.C_K / r ** (self.dim + j) * (1 + tol)):
                return False
        return True


def beurling_kernel(order: int = 8) -> Kernel:
    """K(z) = -1/(pi z^2); D^alpha K from the closed form for z-derivatives
    of holomorphic functions: D^(a,b) K = i^b K^(a+b)."""

    def value(z):
        z = np.asarray(z, dtype=complex)
        return -1.0 / (np.pi * z * z)

    def deriv(alpha, z):
        a, b = alpha
        m = a + b
        z = np.asarray(z, dtype=complex)
        return (1j**b) * (-((-1.0) ** m) * math.factorial(m + 1) / np.pi) * z ** (-2 - m)

    C_K = max((j + 1) * math.factorial(j + 1) / math.pi for j in range(order + 1))
    return Kernel(dim=2, order=order, value=value, deriv=deriv, C_K=C_K, name="beurling")


def zero_kernel(order: int = 8) -> Kernel:
    z0 = lambda z: np.zeros(np.asarray(z).shape, dtype=complex)
    return Kernel(dim=2, order=order, value=z0, deriv=lambda a, z: z0(z), C_K=0.0, name="zero")


# ---------------------------------------------------------------------------
# complex polynomials in (z, zbar)


class CPoly:
    """Polynomial sum c[j,k] z^j zbar^k with complex coefficients."""

    def __init__(self, coeffs: dict):
        self.coeffs = {k: complex(v) for k, v in coeffs.items() if v != 0} or {(0, 0): 0j}

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        zb = np.conj(z)
        out = np.zeros(z.shape, dtype=complex)
        for (j, k), c in self.coeffs.items():
            out += c * z**j * zb**k
        return out

    def degree(self):
        return max(j + k for j, k in self.coeffs)

    def dz(self):
        return CPoly({(j - 1, k): c * j for (j, k), c in self.coeffs.items() if j > 0})

    def dzbar(self):
        return CPoly({(j, k - 1): c * k for (j, k), c in self.coeffs.items() if k > 0})

    def dx(self):
        return CPoly(_add(self.dz().coeffs, self.dzbar().coeffs))

    def dy(self):
        return CPoly(_add(_scale(self.dz().coeffs, 1j), _scale(self.dzbar().coeffs, -1j)))

    def partial(self, alpha) -> "CPoly":
        out = self
        for _ in range(alpha[0]):
            out = out.dx()
        for _ in range(alpha[1]):
            out = out.dy()
        return out

    def antiderivative_zbar(self) -> "CPoly":
        return CPoly({(j, k + 1): c / (k + 1) for (j, k), c in self.coeffs.items()})

    @staticmethod
    def from_real_poly(p: Poly) -> "CPoly":
        """Expand sum m_gamma (x - x0)^gamma into absolute (z, zbar) powers."""
        degrees = list(p.coeffs)
        coeffs = np.array([[p.coeffs[g] for g in degrees]], dtype=float)
        pairs, out = taylor_to_zzbar(p.center[None, :], degrees, coeffs)
        return CPoly(dict(zip(pairs, out[0].tolist())))


def taylor_to_zzbar(centers, degrees, coeffs):
    """Absolute z^r zbar^s coefficients of the real polynomials
    sum_k coeffs[i, k] (x - centers[i])^degrees[k], one row per center:
    (pairs, out) with out[i, t] the coefficient of z^r zbar^s, (r, s) = pairs[t]."""
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    if centers.shape[1] != 2:
        raise ValueError("complex conversion needs d = 2")
    top = max((sum(g) for g in degrees), default=0)
    pairs = [(r, s) for r in range(top + 1) for s in range(top + 1 - r)]
    column = {rs: t for t, rs in enumerate(pairs)}
    nz0 = -(centers[:, 0] + 1j * centers[:, 1])
    out = np.zeros((len(centers), len(pairs)), dtype=complex)
    for k, (g1, g2) in enumerate(degrees):
        m = coeffs[:, k]
        # (x - x0) = (u + ubar)/2, (y - y0) = (u - ubar)/(2i), u = z - z0
        for a in range(g1 + 1):
            for b in range(g2 + 1):
                c = (
                    m
                    * math.comb(g1, a)
                    * math.comb(g2, b)
                    * (0.5**g1)
                    * ((1 / 2j) ** g2)
                    * ((-1.0) ** (g2 - b))
                )
                ju, ku = a + b, (g1 - a) + (g2 - b)
                # expand u^ju ubar^ku = (z - z0)^ju (zbar - conj z0)^ku
                for r in range(ju + 1):
                    for s in range(ku + 1):
                        out[:, column[r, s]] += (
                            c
                            * math.comb(ju, r)
                            * math.comb(ku, s)
                            * nz0 ** (ju - r)
                            * nz0.conj() ** (ku - s)
                        )
    return pairs, out


def _add(c1, c2):
    out = dict(c1)
    for k, v in c2.items():
        out[k] = out.get(k, 0j) + v
    return out


def _scale(c, t):
    return {k: v * t for k, v in c.items()}


def parse_cpoly(text: str) -> CPoly:
    """Tiny parser for strings like "1", "z", "zbar", "2*z^2*zbar - 0.5"."""
    text = text.replace("-", "+-").replace(" ", "")
    terms = [t for t in text.split("+") if t]
    out = {}
    for term in terms:
        coef = 1.0 + 0j
        j = k = 0
        if term.startswith("-"):
            coef = -coef
            term = term[1:]
        for fac in term.split("*"):
            if not fac:
                continue
            if fac.startswith("zbar"):
                k += int(fac[5:]) if fac.startswith("zbar^") else 1
            elif fac.startswith("z"):
                j += int(fac[2:]) if fac.startswith("z^") else 1
            else:
                coef *= complex(fac)
        out[(j, k)] = out.get((j, k), 0j) + coef
    return CPoly(out)


def as_cpoly(f) -> CPoly:
    if isinstance(f, CPoly):
        return f
    if isinstance(f, Poly):
        return CPoly.from_real_poly(f)
    if isinstance(f, str):
        return parse_cpoly(f)
    raise TypeError(f"cannot interpret {type(f).__name__} as a complex polynomial")


# ---------------------------------------------------------------------------
# point evaluation of general data


def _point_fn(f):
    """Normalize data to a callable on (m, 2) real points."""
    if isinstance(f, CPoly):
        return lambda pts: f(pts[:, 0] + 1j * pts[:, 1])
    if isinstance(f, Poly):
        return lambda pts: f.evaluate(pts)
    if callable(f):
        return f
    raise TypeError(f"cannot evaluate data of type {type(f).__name__}")


def _support_distance(f, x) -> float:
    if hasattr(f, "support_distance"):
        return float(f.support_distance(x))
    return 0.0


# ---------------------------------------------------------------------------
# PV transform


@dataclass(frozen=True)
class PVSchedule:
    """Exclusion radii eps_m = eps0 * ratio^m and quadrature resolutions."""

    eps0: float = None  # default: half the inner radius
    ratio: float = 0.5
    levels: int = 4
    n_theta: int = 96
    radial_order: int = 12
    extrapolation_order: int = 2
    tol: float = 1e-7

    def __post_init__(self):
        if not (0.0 < self.ratio < 1.0):
            raise ValueError("schedule ratio must lie in (0, 1)")


def _ray_angles(domain, x, n_theta):
    """Angular rule (theta, weights) for rays cast from x."""
    if isinstance(domain, Polygon):
        # split the circle at vertex directions: r_exit is smooth per sector
        angles = sorted(math.atan2(v[1] - x[1], v[0] - x[0]) % (2 * math.pi) for v in domain.vertices)
        cuts = []
        for a in angles:
            if not cuts or a - cuts[-1] > 1e-12:
                cuts.append(a)
        cuts.append(cuts[0] + 2 * math.pi)
        theta, tw = [], []
        per = max(8, int(np.ceil(n_theta / max(1, len(cuts) - 1))))
        for i in range(len(cuts) - 1):
            tt, ww = gauss_on_interval(cuts[i], cuts[i + 1], per)
            theta.append(tt)
            tw.append(ww)
        theta = np.concatenate(theta)
        tw = np.concatenate(tw)
    elif isinstance(domain, Disk) and np.linalg.norm(x - domain.center) > domain.radius:
        # exterior point: rays hit the disk only inside the tangent cone and
        # the chord length has square-root endpoints; theta = phi + beta sin u
        # absorbs them into a smooth integrand
        off = domain.center - x
        phi = math.atan2(off[1], off[0])
        beta = math.asin(min(1.0, domain.radius / np.linalg.norm(off)))
        uu, uw = gauss_on_interval(-math.pi / 2, math.pi / 2, max(24, n_theta // 2))
        theta = phi + beta * np.sin(uu)
        tw = uw * beta * np.cos(uu)
    else:
        theta, tw = trapezoid_circle(n_theta)
    return theta, tw


def _ray_quadrature(domain, x, r_min, kern_fn, f_fn, n_theta, radial_order):
    """Integral over {y in Omega : |y - x| > r_min} of kern(x-y) f(y) dy
    by ray casting from x. r_min = 0 integrates across x (plain case)."""
    x = np.asarray(x, float)
    theta, tw = _ray_angles(domain, x, n_theta)
    ray, a, b = domain.ray_hits(x, theta)
    a = np.maximum(a, r_min)
    keep = (b > a * (1 + 1e-14)) & (b - a >= 1e-15)
    ray, a, b = ray[keep], a[keep], b[keep]
    a = np.where(a <= 0, 1e-9 * b, a)  # r_min = 0 only off supp f: start just off r = 0
    cis = np.cos(theta[ray]) + 1j * np.sin(theta[ray])
    terms = tw[ray] * _radial_integrals(x, cis, a, b, kern_fn, f_fn, radial_order)
    # added ray after ray, in the order of a per-ray loop
    return np.cumsum(terms)[-1]


def _radial_integrals(x, cis, a, b, kern_fn, f_fn, radial_order):
    """Per row i, int_{a_i}^{b_i} kern(x - y) f(y) r dr along the ray
    y = x + r cis_i, by log-radial Gauss panels: one kernel and one data
    call for all rows, then one weighted sum per panel-count group."""
    groups = gauss_log_radial(a, b, order=radial_order)
    zz = np.concatenate([(-rr * cis[rows, None]).ravel() for rows, rr, _ in groups])  # x - y
    vals = kern_fn(zz) * f_fn(np.stack([x[0] - zz.real, x[1] - zz.imag], axis=-1))
    out = np.empty(len(a), dtype=complex)
    start = 0
    for rows, rr, rw in groups:
        v = vals[start : start + rr.size].reshape(rr.shape) * rr
        out[rows] = np.sum(rw * v, axis=1)
        start += rr.size
    return out


def _annulus_quadrature(x, eps, r_out, kern_fn, f_fn, n_theta, radial_order):
    """Integral over {eps_m < |y - x| < r_out} of kern(x-y) f(y) dy for
    every exclusion radius eps_m at once: one value per radius."""
    theta, tw = trapezoid_circle(n_theta)
    cis = np.tile(np.cos(theta) + 1j * np.sin(theta), len(eps))
    a = np.repeat(eps, n_theta)
    rows = _radial_integrals(x, cis, a, np.full(a.shape, r_out), kern_fn, f_fn, radial_order)
    return np.sum(tw * rows.reshape(len(eps), n_theta), axis=1)


def pv_transform(kernel: Kernel, domain: Domain, f, x, sched: PVSchedule = None):
    """(value, error_estimate) of pv int_Omega K(x-y) f(y) dy at x.

    Inside the support the epsilon-schedule I(eps_m) is Richardson
    extrapolated; off the support this reduces to plain quadrature. A
    non-converging extrapolation is reported through the error estimate,
    never silently accepted."""
    sched = sched or PVSchedule()
    x = np.asarray(x, float)
    if domain.dim != 2 or not hasattr(domain, "ray_hits"):
        raise NotImplementedError("pv_transform needs a planar domain with ray casting (disk or polygon)")
    kern_fn = kernel.value
    f_fn = _point_fn(f)
    inside = domain.contains_point(x)
    supp_gap = _support_distance(f, x)
    if not inside or supp_gap > 0:
        coarse = _ray_quadrature(domain, x, 0.0, kern_fn, f_fn, sched.n_theta, sched.radial_order)
        fine = _ray_quadrature(domain, x, 0.0, kern_fn, f_fn, sched.n_theta * 2, sched.radial_order + 4)
        return fine, abs(fine - coarse)

    dist = domain.dist_point(x)
    if dist <= 0:
        raise ValueError("pv_transform needs x strictly inside the domain")
    r0 = 0.5 * dist
    eps0 = sched.eps0 if sched.eps0 is not None else 0.5 * r0
    if eps0 >= r0:
        raise ValueError("eps0 must be smaller than the inner radius")
    outer = _ray_quadrature(domain, x, r0, kern_fn, f_fn, sched.n_theta, sched.radial_order)
    eps = eps0 * sched.ratio ** np.arange(sched.levels)
    values = outer + _annulus_quadrature(x, eps, r0, kern_fn, f_fn, sched.n_theta, sched.radial_order)
    val, est, _ = richardson(list(values), ratio=sched.ratio, order=sched.extrapolation_order)
    return val, est


# ---------------------------------------------------------------------------
# gradients


_CENTRAL_STENCILS = {
    0: ((0,), (1.0,)),
    1: ((-1, 1), (-0.5, 0.5)),
    2: ((-1, 0, 1), (1.0, -2.0, 1.0)),
    3: ((-2, -1, 1, 2), (-0.5, 1.0, -1.0, 0.5)),
}


def _tensor_stencil(alpha):
    """Offsets and coefficients of the tensor central-difference stencil."""
    ox, cx = _CENTRAL_STENCILS[alpha[0]]
    oy, cy = _CENTRAL_STENCILS[alpha[1]]
    offsets, coefs = [], []
    for i, ci in zip(ox, cx):
        for j, cj in zip(oy, cy):
            offsets.append((i, j))
            coefs.append(ci * cj)
    return offsets, coefs


def grad_transform(kernel: Kernel, domain: Domain, f, x, order: int, sched: PVSchedule = None, method: str = "auto"):
    """All order-`order` partials of T_Omega f at x: dict alpha -> value,
    plus an error estimate.

    Off supp f the derivative passes onto the kernel (plain quadrature of
    D^alpha K against f). Inside the support: centered differences of the
    PV value with step dist(x, boundary)/16, or the exact contour route
    for polynomial data on a disk/polygon (method='contour')."""
    if order > kernel.order:
        raise ValueError(f"kernel order {kernel.order} < requested derivative order {order}")
    sched = sched or PVSchedule()
    x = np.asarray(x, float)
    alphas = [(a, order - a) for a in range(order + 1)]

    if method == "contour" or (
        method == "auto" and isinstance(domain, (Disk, Polygon)) and isinstance(f, (Poly, CPoly, str))
    ):
        eng = BoundaryEngine(domain, as_cpoly(f))
        z = complex(x[0], x[1])
        out = {alpha: eng.partial(alpha, np.array([z]))[0] for alpha in alphas}
        return out, eng.roundoff_estimate(np.array([z]))

    supp_gap = _support_distance(f, x)
    if supp_gap > 0:
        f_fn = _point_fn(f)
        if hasattr(f, "support_box"):
            pts, w = tensor_rule(*f.support_box, 16)
            zz = (x[0] - pts[:, 0]) + 1j * (x[1] - pts[:, 1])
            fv = f_fn(pts)
            return {alpha: complex(np.sum(w * kernel.deriv(alpha, zz) * fv)) for alpha in alphas}, 1e-12
        out = {}
        est = 0.0
        for alpha in alphas:
            kfun = lambda z, a=alpha: kernel.deriv(a, z)
            v1 = _ray_quadrature(domain, x, 0.0, kfun, f_fn, sched.n_theta, sched.radial_order)
            v2 = _ray_quadrature(domain, x, 0.0, kfun, f_fn, sched.n_theta * 2, sched.radial_order + 4)
            out[alpha] = v2
            est = max(est, abs(v2 - v1))
        return out, est

    dist = domain.dist_point(x)
    h = dist / 16.0
    if h < 1e-12:
        raise ValueError("finite-difference step underflow near the boundary")
    cache = {}

    def pv_at(offset):
        if offset not in cache:
            xx = x + h * np.asarray(offset, float)
            cache[offset] = pv_transform(kernel, domain, f, xx, sched)
        return cache[offset]

    out = {}
    est = 0.0
    for alpha in alphas:
        offsets, coefs = _tensor_stencil(alpha)
        val = 0j
        prop = 0.0
        for off, c in zip(offsets, coefs):
            v, e = pv_at(off)
            val += c * v
            prop += abs(c) * e
        out[alpha] = val / h**order
        est = max(est, prop / h**order)
    return out, est


def grad_total(values: dict):
    """|grad^n (T f)| from the dict of order-n partials."""
    return float(sum(abs(v) for v in values.values()))


# ---------------------------------------------------------------------------
# boundary (contour) fast path


class BoundaryEngine:
    """Contour reduction of T_Omega for polynomial data on disk/polygon.

    With F the zbar-antiderivative of f,
        pv int_Omega f(w)/(z-w)^2 dA = (1/2i) oint_bd F(w)/(z-w)^2 dw
                                       - pi dF/dw (z) [z inside],
    so B_Omega f = -(1/pi)(1/2i) oint + dF/dw. The contour term is
    holomorphic in z off the boundary: derivatives come from Laurent
    algebra (disk) or a Cauchy circle rule (polygon)."""

    def __init__(self, domain, cp: CPoly):
        if not isinstance(domain, (Disk, Polygon)):
            raise NotImplementedError("boundary transform supports disk and polygon domains")
        self.domain = domain
        self.cp = cp
        self.F = cp.antiderivative_zbar()
        self.Fw = self.F.dz()
        if isinstance(domain, Disk):
            if np.linalg.norm(domain.center) > 1e-14:
                raise NotImplementedError("disk contour route assumes a disk centered at the origin")
            rho = domain.radius
            lau = {}
            for (j, k), c in self.F.coeffs.items():
                m = j - k
                lau[m] = lau.get(m, 0j) + c * rho ** (2 * k)
            self.laurent = lau

    def _edge_poly(self, a, b):
        """F restricted to the edge as a polynomial in u = w - a."""
        e = b - a
        q = e.conjugate() / e
        deg = self.F.degree()
        g = np.zeros(deg + 2, dtype=complex)
        for (j, k), c in self.F.coeffs.items():
            poly = np.ones(1, dtype=complex)
            p1 = np.array([a, 1.0], dtype=complex)
            p2 = np.array([a.conjugate(), q], dtype=complex)
            for _ in range(j):
                poly = np.convolve(poly, p1)
            for _ in range(k):
                poly = np.convolve(poly, p2)
            g[: poly.size] += c * poly
        return g

    def _edge_integral(self, a, b, z, pole: int = 2):
        """int_a^b F(w, wbar) / (w-z)^pole dw along the edge (exact).

        (z-w)^-2 = (w-z)^-2, and the m-th z-derivative of the contour term
        only raises the pole: d^m/dz^m (w-z)^-2 = (m+1)!/1 * (w-z)^-(2+m)."""
        g = self._edge_poly(a, b)
        zeta = z - a
        za = a - z
        zb = b - z
        out = np.zeros(z.shape, dtype=complex)
        log_ratio = None
        for t in range(g.size):
            # Taylor coefficient of G about zeta: G_t = sum_m g_m C(m,t) zeta^(m-t)
            Gt = np.zeros(z.shape, dtype=complex)
            for m in range(t, g.size):
                Gt += g[m] * math.comb(m, t) * zeta ** (m - t)
            ex = t - pole
            if ex == -1:
                if log_ratio is None:
                    log_ratio = np.log(np.abs(zb / za)) + 1j * np.angle(zb / za)
                out += Gt * log_ratio
            else:
                out += Gt * (zb ** (ex + 1) - za ** (ex + 1)) / (ex + 1)
        return out

    def _contour_derivative(self, m: int, z):
        """m-th z-derivative of the contour part of -(1/pi) pv integral,
        holomorphic off the boundary."""
        if isinstance(self.domain, Disk):
            inside = np.abs(z) < self.domain.radius
            out = np.zeros(z.shape, dtype=complex)
            zi, zo = z[inside], z[~inside]
            for mm, L in self.laurent.items():
                p = mm - 1  # power of z in the value formula
                fall = 1.0
                for t in range(m):
                    fall *= p - t
                if fall == 0.0:
                    continue
                if mm >= 1:
                    out[inside] += -L * mm * fall * zi ** (p - m)
                elif mm <= -1:
                    out[~inside] += L * mm * fall * zo ** (p - m)
            return out
        # polygon: differentiating under the contour integral only raises
        # the pole order, so the same closed-form edge integrals apply
        total = np.zeros(z.shape, dtype=complex)
        for a, b in self.domain.edges():
            total += self._edge_integral(complex(*a), complex(*b), z, pole=2 + m)
        return total * math.factorial(m + 1) * (-1.0 / math.pi) * (1.0 / 2j)

    def partial(self, alpha, z):
        """D^alpha (T_Omega f) at points z inside the domain."""
        a, b = alpha
        m = a + b
        z = np.asarray(z, dtype=complex)
        hol = (1j**b) * self._contour_derivative(m, z)
        loc = self.Fw.partial(alpha)(z)
        if isinstance(self.domain, Disk):
            inside = np.abs(z) < self.domain.radius
        else:
            inside = self.domain.contains(np.stack([z.real, z.imag], axis=-1))
        return hol + np.where(inside, loc, 0.0)

    def value(self, z):
        return self.partial((0, 0), z)

    def roundoff_estimate(self, z) -> float:
        scale = max(1.0, max(abs(c) for c in self.F.coeffs.values()))
        return 1e-13 * scale

    def gradient_total(self, n: int, z):
        """|grad^n T_Omega f| = sum over |alpha| = n of |D^alpha ...|."""
        z = np.asarray(z, dtype=complex)
        total = np.zeros(z.shape)
        for a in range(n + 1):
            total += np.abs(self.partial((a, n - a), z))
        return total


def boundary_transform(domain, P, z):
    """(value, error_estimate) of T_Omega P at z via the contour route."""
    z = complex(z[0], z[1]) if not isinstance(z, complex) else z
    pts = np.array([[z.real, z.imag]])
    d = float(domain.dist_to_boundary(pts)[0])
    if d < 1e-6:
        raise ValueError("evaluation point too close to the boundary for the contour route")
    eng = BoundaryEngine(domain, as_cpoly(P))
    val = eng.value(np.array([z]))[0]
    return complex(val), eng.roundoff_estimate(np.array([z]))


# ---------------------------------------------------------------------------
# disk closed forms


@dataclass
class DiskCase:
    lam: tuple
    case: str
    monomials: list  # active (j, k) exponents inside the disk
    constants: list  # fitted coefficients, same order
    fit_residual: float
    condition: float

    def value_inside(self, z):
        z = np.asarray(z, dtype=complex)
        out = np.zeros(z.shape, dtype=complex)
        for (j, k), c in zip(self.monomials, self.constants):
            out += c * z**j * np.conj(z) ** k
        return out


_DISK_CASE_CACHE = {}


def disk_closed_form(lam, radius: float = 1.0, kernel: Kernel = None, sched: PVSchedule = None) -> DiskCase:
    """Structure of B_D(z^lam1 zbar^lam2) inside the disk.

    The case split follows the monomial bookkeeping of the transform; the
    constants are always fitted against pv_transform at sample points,
    never assumed."""
    lam = tuple(lam)
    key = (lam, radius)
    if key in _DISK_CASE_CACHE:
        return _DISK_CASE_CACHE[key]
    l1, l2 = lam
    if l1 == 0:
        case, monos = "supported_outside", []
    elif l1 < l2 + 1:
        case, monos = "inside_plus_outside", [(l1 - 1, l2 + 1)]
    elif l1 == l2 + 1:
        case, monos = "inside_only", [(l1 - 1, l2 + 1)]
    else:
        case, monos = "inside_two_terms", [(l1 - 1, l2 + 1), (l1 - l2 - 2, 0)]

    kernel = kernel or beurling_kernel()
    sched = sched or PVSchedule(n_theta=64)
    disk = Disk(radius)
    rng = np.random.default_rng(2024)
    n_pts = 8
    zs = 0.35 * radius * np.exp(1j * rng.uniform(0, 2 * math.pi, n_pts)) * rng.uniform(0.4, 1.0, n_pts)
    f = CPoly({lam: 1.0})
    targets = np.array([pv_transform(kernel, disk, f, [z.real, z.imag], sched)[0] for z in zs])
    if monos:
        A = np.stack([zs**j * np.conj(zs) ** k for (j, k) in monos], axis=-1)
        sol, *_ = np.linalg.lstsq(A, targets, rcond=None)
        cond = float(np.linalg.cond(A))
        resid = float(np.max(np.abs(A @ sol - targets)))
        consts = [complex(c) for c in sol]
    else:
        consts, cond = [], 1.0
        resid = float(np.max(np.abs(targets)))
    case_obj = DiskCase(lam, case, monos, consts, resid, cond)
    _DISK_CASE_CACHE[key] = case_obj
    return case_obj


def kernel_circle_mean(kernel: Kernel, radius: float, n: int = 512) -> complex:
    theta, w = trapezoid_circle(n)
    z = radius * np.exp(1j * theta)
    return complex(np.sum(w * kernel.value(z)) * radius / (2 * math.pi * radius))
