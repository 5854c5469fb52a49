import math

import numpy as np
import pytest

from czdomain import czop, fields, geometry, keylemma, poly, whitney


@pytest.fixture(scope="module")
def kernel():
    return czop.beurling_kernel()


@pytest.fixture(scope="module")
def tables(square_oc, disk_oc):
    """Partial tables at depth 6 for n = 1, 2, 3, keyed by (domain, n)."""
    ocs = {"square": square_oc, "disk": disk_oc}
    return {(name, n): keylemma.TransformPartialTable(oc, n) for name, oc in ocs.items() for n in (1, 2, 3)}


def reference_zzbar(center, degrees, row):
    """One cube's sum m_gamma (x - x0)^gamma in absolute (z, zbar) powers,
    term by term in scalar arithmetic."""
    z0 = complex(float(center[0]), float(center[1]))
    out = {}
    for (g1, g2), m in zip(degrees, row):
        m = float(m)
        for a in range(g1 + 1):
            for b in range(g2 + 1):
                c = m * math.comb(g1, a) * math.comb(g2, b) * (0.5**g1) * ((1 / 2j) ** g2) * ((-1.0) ** (g2 - b))
                ju, ku = a + b, (g1 - a) + (g2 - b)
                for r in range(ju + 1):
                    for s in range(ku + 1):
                        cc = c * math.comb(ju, r) * math.comb(ku, s) * (-z0) ** (ju - r) * (-z0.conjugate()) ** (ku - s)
                        out[(r, s)] = out.get((r, s), 0j) + cc
    return out


def reference_per_cube(oc, f, n, p, table):
    """The per-cube loop keylemma_sum replaced: each cube's polynomial
    converted on its own, its gradient assembled node block by node block."""
    cov = oc.cov
    degrees, coeffs = poly.project_cubes(f, cov.centers, cov.sides, n)
    nq = table.nq
    per_cube = np.empty(len(cov))
    for i in range(len(cov)):
        coefs = reference_zzbar(cov.centers[i], degrees, coeffs[i])
        sl = slice(i * nq, (i + 1) * nq)
        grad_tot = np.zeros(nq)
        for alpha in table.alphas:
            acc = np.zeros(nq, dtype=complex)
            for b in table.basis:
                c = coefs.get(b, 0j)
                if c != 0:
                    acc += c * table.partials[b][alpha][sl]
            grad_tot += np.abs(acc)
        per_cube[i] = float(np.sum(table.refw * cov.sides[i] ** 2 * grad_tot**p))
    return per_cube


def test_keylemma_sum_matches_per_cube_loop(square_oc, disk_oc, kernel, tables):
    """Bit-equal at n = 1; at n = 2, 3 the basis change rounds differently
    in the last bits, and the disk values (exactly zero in theory) are
    roundoff, hence the absolute floor."""
    suite = keylemma.default_suite() + [fields.random_smooth_field(np.random.default_rng(5))]
    for name, oc in (("square", square_oc), ("disk", disk_oc)):
        for n in (1, 2, 3):
            table = tables[name, n]
            for f in suite:
                rep = keylemma.keylemma_sum(oc, kernel, f, n, 2.0, table=table)
                ref = reference_per_cube(oc, f, n, 2.0, table)
                total = 0.0
                for v in ref:
                    total += v
                if n == 1:
                    assert np.array_equal(rep["per_cube"], ref), (name, f.name)
                    assert rep["sum"] == total and rep["per_cube_max"] == ref.max()
                else:
                    np.testing.assert_allclose(rep["per_cube"], ref, rtol=1e-11, atol=1e-13 * ref.max())
                    assert rep["sum"] == pytest.approx(total, rel=1e-11, abs=1e-13 * ref.max() * len(ref))


def test_keylemma_sum_rejects_mismatched_table(square, square_oc, kernel, tables):
    f = fields.constant(1.0)
    with pytest.raises(ValueError, match="another covering or n"):
        keylemma.keylemma_sum(square_oc, kernel, f, 1, 2.0, table=tables["square", 2])
    coarse = whitney.orient(whitney.build_covering(square, 2.0**-5, C_W=1.125))
    with pytest.raises(ValueError, match="another covering or n"):
        keylemma.keylemma_sum(coarse, kernel, f, 1, 2.0, table=tables["square", 1])


def test_domain_quadrature_areas(disk, square, halfspace):
    pts, w = keylemma.domain_quadrature(disk)
    assert np.sum(w) == pytest.approx(math.pi, rel=1e-12)
    pts, w = keylemma.domain_quadrature(square)
    assert np.sum(w) == pytest.approx(1.0, rel=1e-12)
    pts, w = keylemma.domain_quadrature(halfspace)
    assert np.sum(w) == pytest.approx(halfspace.area(), rel=1e-6)


def test_sobolev_norm_disk_constant(disk):
    r = keylemma.sobolev_norm(disk, fields.constant(1.0), 1, 2.0)
    assert r["full"] == pytest.approx(math.sqrt(math.pi), rel=1e-12)
    assert r["reduced"] == pytest.approx(math.sqrt(math.pi), rel=1e-12)


def test_sobolev_norm_square_linear(square):
    r = keylemma.sobolev_norm(square, fields.coordinate(0), 1, 2.0)
    # ||x1||_2 = 1/sqrt(3), ||grad||_2 = 1: closed forms
    assert r["terms"][str((0, 0))] == pytest.approx(1 / math.sqrt(3), rel=1e-12)
    assert r["terms"][str((1, 0))] == pytest.approx(1.0, rel=1e-12)
    assert r["full"] == pytest.approx(1 / math.sqrt(3) + 1.0, rel=1e-12)


def test_sobolev_norm_monotone_in_order(square):
    f = fields.sin_product([math.pi, math.pi])
    n1 = keylemma.sobolev_norm(square, f, 1, 2.0)["full"]
    n2 = keylemma.sobolev_norm(square, f, 2, 2.0)["full"]
    assert n2 >= n1


def test_norm_equivalence_full_vs_reduced(disk, square):
    worst = 0.0
    for dom in (disk, square):
        for f in keylemma.default_suite():
            r = keylemma.sobolev_norm(dom, f, 2, 2.0)
            worst = max(worst, r["full"] / r["reduced"])
            assert r["reduced"] <= r["full"] + 1e-12
    assert worst < 100.0


def test_keylemma_sum_zero_field(disk_oc, kernel):
    zero = fields.constant(0.0)
    assert keylemma.keylemma_sum(disk_oc, kernel, zero, 1, 2.0)["sum"] == 0.0
    rep = keylemma.keylemma_sum(disk_oc, czop.zero_kernel(), fields.constant(1.0), 1, 2.0)
    assert rep["sum"] == 0.0 and rep["per_cube"].tolist() == [0.0] * len(disk_oc.cov)


def test_keylemma_sum_disk_vanishes(disk_oc, kernel):
    for f in (fields.sin_product([1.0, 1.0]), fields.exp_coordinate(0)):
        for n in (1, 2):
            rep = keylemma.keylemma_sum(disk_oc, kernel, f, n, 2.0)
            assert rep["sum"] < 1e-10 * rep["n_cubes"]


def test_keylemma_sum_homogeneity(square_oc, kernel):
    f = fields.sin_product([1.0, 0.7])
    tf = fields.SumField([(3.0, f)])
    s1 = keylemma.keylemma_sum(square_oc, kernel, f, 1, 2.0)["sum"]
    s3 = keylemma.keylemma_sum(square_oc, kernel, tf, 1, 2.0)["sum"]
    assert s3 == pytest.approx(3.0**2.0 * s1, rel=1e-9)


def test_averaging_constant_and_linear(disk_oc):
    av = keylemma.averaging(disk_oc, fields.constant(2.5))
    assert max(abs(v - 2.5) for v in av.values()) < 1e-12
    # mean of a linear function over a symmetric box is its center value
    f = fields.coordinate(0)
    av = keylemma.averaging(disk_oc, f)
    centers = disk_oc.cov.centers
    for i in range(0, len(centers), 97):
        assert av[i] == pytest.approx(centers[i][0], abs=1e-12)


def test_averaging_lp_bound(disk_oc):
    rep = keylemma.averaging_lp_report(disk_oc, fields.sin_product([2.0, 1.0]), 2.0)
    assert rep["constant"] < 4.0  # overlap-controlled averaging bound


def test_averaging_reproduces_polynomial_means(disk_oc):
    from czdomain.poly import Poly

    q = Poly(np.zeros(2), {(0, 0): 0.5, (1, 0): 1.0, (0, 1): -2.0})
    av = keylemma.averaging(disk_oc, q.as_field())
    c = disk_oc.cov.centers[5]
    assert av[5] == pytest.approx(0.5 + c[0] - 2 * c[1], abs=1e-12)


def test_boundedness_probe_disk(disk_oc, kernel):
    rep = keylemma.boundedness_probe(disk_oc, kernel, 1, 2.0)
    assert rep["sup_ratio"] < 1e-10


def test_boundedness_probe_square_dichotomy_direction(square, kernel):
    """p = 2.5 ratios grow monotonically with depth; p = 1.5 growth rates
    shrink toward stability (corner divergence vs convergence)."""
    sups = {1.5: [], 2.5: []}
    for dexp in (5, 6, 7):
        cov = whitney.build_covering(square, 2.0**-dexp, C_W=1.125)
        oc = whitney.orient(cov)
        for p in sups:
            sups[p].append(keylemma.boundedness_probe(oc, kernel, 1, p)["sup_ratio"])
    for p in sups:
        assert all(b > a for a, b in zip(sups[p], sups[p][1:]))
    r15 = [b / a for a, b in zip(sups[1.5], sups[1.5][1:])]
    r25 = [b / a for a, b in zip(sups[2.5], sups[2.5][1:])]
    assert r15[-1] < r15[0]  # converging
    assert r25[-1] > r15[-1] + 0.15  # divergent exponent clearly separated
