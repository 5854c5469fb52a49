from fractions import Fraction

import numpy as np
import pytest

from czdomain import carleson, czop, geometry, whitney


def random_tree(rng, n):
    parent = [-1] + [int(rng.integers(0, i)) for i in range(1, n)]
    mu = [Fraction(int(rng.integers(0, 10)), int(rng.integers(1, 7))) for _ in range(n)]
    rho = [Fraction(int(rng.integers(1, 9)), int(rng.integers(1, 5))) for _ in range(n)]
    return parent, mu, rho


def test_single_vertex_cases():
    prob = carleson.TreeProblem([-1], [Fraction(0)], [Fraction(1)], 1.5)
    assert carleson.check_tree_condition(prob, 0) == 0
    # mu = m, rho = w: C = m^(p'-1) w^(1-p')
    prob = carleson.TreeProblem([-1], [Fraction(3)], [Fraction(2)], 1.5)
    assert carleson.check_tree_condition(prob, 0) == Fraction(9, 4)


def test_tree_problem_validation():
    with pytest.raises(ValueError):
        carleson.TreeProblem([-1, -1], [1, 1], [1, 1], 2.0)  # two roots
    with pytest.raises(ValueError):
        carleson.TreeProblem([0], [1], [1], 2.0)  # self loop
    with pytest.raises(ValueError):
        carleson.TreeProblem([-1, 0], [1, 1], [1, 0], 2.0)  # zero weight
    with pytest.raises(ValueError):
        carleson.TreeProblem([-1, 0], [1, -1], [1, 1], 2.0)  # negative mass
    with pytest.raises(ValueError):
        carleson.TreeProblem([-1, 0], [1, 1], [1, 1], 1.0)  # p = 1


def test_binary_tree_against_bruteforce():
    depth = 10
    n = 2**depth - 1  # complete binary tree, leaves uniform
    parent = [-1] + [(i - 1) // 2 for i in range(1, n)]
    first_leaf = 2 ** (depth - 1) - 1
    mu = [Fraction(1) if i >= first_leaf else Fraction(0) for i in range(n)]
    rho = [Fraction(1)] * n
    prob = carleson.TreeProblem(parent, mu, rho, 2.0)
    fast = carleson.check_tree_condition(prob, 0)
    brute = carleson.brute_force_tree_condition(prob, 0)
    assert fast == brute


def test_random_trees_exact_equality():
    rng = np.random.default_rng(0)
    for p in (1.5, 2.0, 3.0):
        for _ in range(12):
            n = int(rng.integers(2, 150))
            prob = carleson.TreeProblem(*random_tree(rng, n), p)
            r = int(rng.integers(0, n))
            assert carleson.check_tree_condition(prob, r) == carleson.brute_force_tree_condition(prob, r)


def test_all_roots_supremum_equals_oracle_maximum():
    rng = np.random.default_rng(5)
    for p in (1.5, 2.0):
        for _ in range(10):
            n = int(rng.integers(2, 60))
            prob = carleson.TreeProblem(*random_tree(rng, n), p)
            expect = max(carleson.brute_force_tree_condition(prob, r) for r in range(n))
            assert carleson.check_tree_condition(prob) == expect


def test_monotonicity_in_mu():
    rng = np.random.default_rng(1)
    parent, mu, rho = random_tree(rng, 60)
    prob = carleson.TreeProblem(parent, mu, rho, 1.5)
    c1 = carleson.check_tree_condition(prob)
    k = int(rng.integers(0, 60))
    mu2 = list(mu)
    mu2[k] = mu2[k] + Fraction(3, 2)
    c2 = carleson.check_tree_condition(carleson.TreeProblem(parent, mu2, rho, 1.5))
    assert c2 >= c1


def test_scale_covariance_exact():
    rng = np.random.default_rng(2)
    for p in (1.5, 2.0, 3.0):
        parent, mu, rho = random_tree(rng, 80)
        prob = carleson.TreeProblem(parent, mu, rho, p)
        scaled = carleson.TreeProblem(parent, [4 * m for m in mu], rho, p)
        c1 = carleson.check_tree_condition(prob)
        c2 = carleson.check_tree_condition(scaled)
        pp = p / (p - 1.0)
        assert float(c2) == float(c1) * 4.0 ** (pp - 1.0)


def test_embedding_root_indicator():
    parent, mu, rho = random_tree(np.random.default_rng(3), 40)
    prob = carleson.TreeProblem(parent, mu, rho, 2.0)
    total = float(sum(float(m) for m in mu))
    # h = root indicator: ||I h||^p = mu(tree), ||h||^p = rho(root)
    est = carleson.check_embedding(prob, trials=0)
    assert est >= (total ** (1 / 2.0)) / (float(prob.rho[prob.root]) ** (1 / 2.0)) - 1e-12


def test_embedding_zero_measure():
    prob = carleson.TreeProblem([-1, 0, 0], [Fraction(0)] * 3, [Fraction(1)] * 3, 2.0)
    assert carleson.check_embedding(prob) == 0.0


def test_embedding_vs_condition_comparability():
    """The embedding constant and the tree-condition constant are two-sided
    comparable; record the
    empirical factor K with C_ii^{1/p'} <= K * C_i."""
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(25):
        n = int(rng.integers(5, 200))
        parent, mu, rho = random_tree(rng, n)
        if all(m == 0 for m in mu):
            continue
        for p in (1.5, 2.0):
            prob = carleson.TreeProblem(parent, mu, rho, p)
            cii = float(carleson.check_tree_condition(prob))
            ci = carleson.check_embedding(prob, trials=30)
            if ci == 0:
                assert cii == 0
                continue
            pp = p / (p - 1)
            worst = max(worst, cii ** (1 / pp) / ci)
    assert worst < 5.0


# -- whitney-forest conditions ------------------------------------------------


def test_shadow_condition_zero_measure(square_oc):
    mu = carleson.CubeMeasure({})
    rep = carleson.check_shadow_condition(square_oc, mu, 1.5)
    assert rep["constant"] == 0.0
    assert carleson.check_growth(square_oc, mu, 1.5)["constant"] == 0.0


def test_shadow_condition_point_mass_formula(square_oc):
    """mu = point mass m on a leaf L, P = L: C = m^(p'-1) l(L)^{(d-p)(1-p')}."""
    oc = square_oc
    cov = oc.cov
    per = np.where(~oc.central)[0]
    leaf = next(int(i) for i in per if cov.levels[i] == cov.levels.max() and len(oc.shadow(int(i))) == 1)
    m, p = 0.7, 1.5
    pp = p / (p - 1.0)
    mu = carleson.CubeMeasure({leaf: m})
    rep = carleson.check_shadow_condition(oc, mu, p, P=leaf)
    expect = m ** (pp - 1.0) * cov.sides[leaf] ** ((2 - p) * (1 - pp))
    assert rep["constant"] == pytest.approx(expect, rel=1e-12)


def test_zero_kernel_measure_is_zero(square_oc):
    mu = carleson.cube_measure(square_oc, czop.zero_kernel(), (0, 0), 1, 1.5)
    assert mu.total() == 0.0


def test_disk_measure_vanishes(disk_oc):
    K = czop.beurling_kernel()
    for lam, n in (((0, 0), 1), ((1, 0), 2)):
        mu = carleson.cube_measure(disk_oc, K, lam, n, 2.0)
        assert mu.total() < 1e-12 * len(disk_oc.cov)


def test_cube_measure_validates(disk_oc):
    K = czop.beurling_kernel()
    with pytest.raises(ValueError):
        carleson.cube_measure(disk_oc, K, (1, 0), 1, 2.0)  # |lambda| >= n


def test_disk_conditions_vanish(disk_oc):
    """Transforms are polynomial inside the disk: all condition constants
    evaluate to zero within tolerance."""
    K = czop.beurling_kernel()
    mu = carleson.cube_measure(disk_oc, K, (0, 0), 1, 1.5)
    assert carleson.check_shadow_condition(disk_oc, mu, 1.5)["constant"] < 1e-20
    assert carleson.check_growth(disk_oc, mu, 1.5)["constant"] < 1e-20


def test_growth_verdicts():
    assert carleson.growth_verdict([1.0, 1.05, 1.1]) == "holds"
    assert carleson.growth_verdict([1.0, 1.7, 2.9]) == "fails"
    assert carleson.growth_verdict([1.0, 0.4, 1.4]) == "inconclusive"
    assert carleson.growth_verdict([1.0]) == "inconclusive"


def test_square_corner_measure_scaling(square):
    """Corner-adjacent cube masses scale like l^(d-p) (from the 1/r corner
    gradient integrated over a corner cube)."""
    cov = whitney.build_covering(square, min_side=2.0**-9, C_W=1.125)
    oc = whitney.orient(cov)
    K = czop.beurling_kernel()
    p = 1.5
    mu = carleson.cube_measure(oc, K, (0, 0), 1, p)
    # cubes hugging the corner at (0, 0), one per level
    ratios = []
    for lev in range(4, int(cov.levels.max()) + 1):
        sel = np.where((cov.levels == lev) & ~oc.central)[0]
        if len(sel) == 0:
            continue
        dist_corner = np.linalg.norm(cov.centers[sel], axis=1)
        i = sel[int(np.argmin(dist_corner))]
        if mu.get(int(i)) > 0:
            ratios.append(mu.get(int(i)) / cov.sides[i] ** (2 - p))
    assert len(ratios) >= 3
    ratios = np.asarray(ratios)
    assert ratios.max() / ratios.min() < 4.0  # comparable across levels


def test_continuous_condition_zero_density(halfspace_oc):
    mu = carleson.CubeMeasure({})
    cov = halfspace_oc.cov
    per = np.where(~halfspace_oc.central)[0]
    anchor = cov.centers[per[0]]
    rep = carleson.check_continuous_condition(halfspace_oc, mu, 1.5, anchor)
    assert rep["ratio"] == 0.0


def test_continuous_vs_discrete_coherence(halfspace_oc):
    """Piecewise-constant densities: the continuous ratio and the discrete
    shadow constant stay within a fixed factor."""
    oc = halfspace_oc
    cov = oc.cov
    rng = np.random.default_rng(5)
    per = np.where(~oc.central)[0]
    members = [int(i) for i in per if abs(cov.centers[i][0]) < 0.2]
    mu = carleson.CubeMeasure({i: float(rng.uniform(0.5, 2.0)) for i in members})
    # anchor: a mid-height cube with a real shadow
    anchor_pos = max(members, key=lambda i: cov.sides[i])
    anchor = cov.centers[anchor_pos]
    p = 1.5
    cont = carleson.check_continuous_condition(oc, mu, p, anchor)
    disc = carleson.check_shadow_condition(oc, mu, p, P=anchor_pos)
    assert cont["rhs"] > 0
    assert disc["constant"] > 0
    factor = cont["ratio"] / disc["constant"]
    assert 1.0 / 50.0 < factor < 50.0


def test_continuous_condition_needs_oriented_window(square_oc):
    """Corner windows are rotated by 45 degrees: not properly oriented."""
    oc = square_oc
    cov = oc.cov
    per = np.where(~oc.central)[0]
    corner_cube = min((int(i) for i in per), key=lambda i: float(np.linalg.norm(cov.centers[i])))
    if oc.assigned_window[corner_cube] < len(square_oc.cov.domain.vertices):
        with pytest.raises(ValueError):
            carleson.check_continuous_condition(oc, carleson.CubeMeasure({corner_cube: 1.0}), 1.5,
                                                cov.centers[corner_cube])


def test_window_forest_parent_structure(square_oc):
    members = square_oc.window_members[0]
    parent = square_oc.canvas_forest(0).parent.tolist()
    assert len(members) == len(parent)
    assert all(-1 <= q < len(members) for q in parent)
    assert sum(1 for q in parent if q == -1) >= 1
