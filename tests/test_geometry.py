import math

import numpy as np
import pytest

from czdomain import geometry


def test_disk_basic():
    d = geometry.make_disk(1.0)
    assert d.dist_point([0.0, 0.0]) == 1.0
    assert d.contains_point([0.5, 0.0])
    assert not d.contains_point([1.5, 0.0])
    d2 = geometry.make_disk(2.0)
    assert d2.dist_point([1.0, 0.0]) == 1.0


def test_disk_rejects_bad_radius():
    with pytest.raises(ValueError):
        geometry.make_disk(0.0)
    with pytest.raises(ValueError):
        geometry.make_disk(-1.0)


def test_square_membership_and_distance(square):
    assert square.contains_point([0.5, 0.5])
    assert not square.contains_point([1.2, 0.5])
    assert square.dist_point([0.5, 0.5]) == pytest.approx(0.5, abs=1e-14)
    assert square.dist_point([0.1, 0.5]) == pytest.approx(0.1, abs=1e-14)


def test_polygon_rejects_degenerate():
    with pytest.raises(ValueError):
        geometry.make_polygon([(0, 0), (1, 0), (1, 0), (0, 1)])
    with pytest.raises(ValueError):
        # bow-tie self intersection
        geometry.make_polygon([(0, 0), (1, 1), (1, 0), (0, 1)])


def test_square_corner_window_slope(square):
    # right angle rotated to bisector coordinates: graph slopes +-1
    wins = square.windows()
    corner = wins[0]
    assert np.allclose(corner.center, [0.0, 0.0])
    assert corner.lipschitz_bound == pytest.approx(1.0, abs=1e-12)
    measured = corner.check_graph_lipschitz()
    assert measured <= 1.0 + 1e-9


def test_halfspace_distance(halfspace):
    assert halfspace.dist_point([0.3, 0.25]) == pytest.approx(0.25, abs=1e-14)
    assert halfspace.contains_point([0.0, 0.1])
    assert not halfspace.contains_point([0.0, -0.1])


def test_graph_domain_sloped_membership():
    delta = 0.5
    dom = geometry.make_graph_domain(lambda t: delta * np.abs(t[:, 0]), bound=delta + 1e-9)
    assert dom.contains_point([1.0, delta + 1.0])
    assert not dom.contains_point([1.0, delta - 0.2])


def test_graph_domain_rejects_steep():
    with pytest.raises(ValueError):
        geometry.make_graph_domain(lambda t: 2.0 * t[:, 0], bound=0.5)
    with pytest.raises(ValueError):
        geometry.make_graph_domain(None, bound=1.0)


def test_window_coverage_invariant(disk, square, zigzag05):
    for dom in (disk, square, zigzag05):
        assert geometry.coverage_check(dom), f"coverage fails on {dom.kind}"


def test_window_graph_consistency(disk, square):
    rng = np.random.default_rng(0)
    for dom in (disk, square):
        wins = dom.windows()
        for w in (wins[0], wins[len(wins) // 2], wins[-1]):
            slope = w.check_graph_lipschitz(rng=rng)
            assert slope <= w.lipschitz_bound * (1 + 1e-9)
            assert w.check_parameterization(dom)


def test_membership_distance_coherence(disk, square, zigzag05):
    rng = np.random.default_rng(7)
    for dom in (disk, square, zigzag05):
        lo, hi = dom.bounding_box()
        pts = rng.uniform(lo - 0.3, hi + 0.3, size=(300, 2))
        dists = dom.dist_to_boundary(pts)
        inside = dom.contains(pts)
        for x, dist, is_in in zip(pts, dists, inside):
            if dist <= 1e-9:
                continue
            # no point within dist of x may be on the other side
            probe = x + rng.uniform(-1, 1, size=(40, 2)) * dist * 0.999 / math.sqrt(2)
            assert np.all(dom.contains(probe) == is_in)


def test_zigzag_respects_slope_bound():
    for delta in (0.1, 0.5, 0.9):
        dom = geometry.zigzag_graph_domain(np.random.default_rng(5), delta)
        pl = dom.polyline
        slopes = np.abs(np.diff(pl[:, 1]) / np.diff(pl[:, 0]))
        assert np.max(slopes) <= delta * (1 + 1e-12)


def test_segment_box_distance_against_bruteforce():
    rng = np.random.default_rng(11)
    for _ in range(60):
        a, b = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)
        lo = rng.uniform(-1, 0, 2)
        hi = lo + rng.uniform(0.05, 1.0, 2)
        exact = geometry.segment_box_distance(a, b, lo, hi)
        # brute force: dense sampling of both sets
        t = np.linspace(0, 1, 300)
        seg = a + t[:, None] * (b - a)
        gap = np.maximum(np.maximum(lo - seg, seg - hi), 0.0)
        brute = np.min(np.linalg.norm(gap, axis=1))
        assert exact <= brute + 1e-9
        assert brute <= exact + 0.02  # sampling resolution slack
        batch = geometry.boxes_polyline_distance(lo[None, :], hi[None, :], a[None, :], b[None, :])[0]
        assert batch == pytest.approx(exact, abs=1e-12)


def test_disk_box_distance_exactness(disk, square, zigzag05):
    """One-row box distances of the disk, a polygon and a zigzag graph
    against the boundary distance of a dense grid over the box."""
    rng = np.random.default_rng(2)
    for dom in (disk, square, zigzag05):
        lo_bb, hi_bb = dom.bounding_box()
        ext = float(np.max(hi_bb - lo_bb))
        for _ in range(60):
            lo = rng.uniform(lo_bb - 0.2 * ext, hi_bb)
            hi = lo + rng.uniform(0.005, 0.3, 2) * ext
            exact = dom.dist_boxes_to_boundary(lo[None, :], hi[None, :])[0]
            xs = np.linspace(lo[0], hi[0], 80)
            ys = np.linspace(lo[1], hi[1], 80)
            X, Y = np.meshgrid(xs, ys)
            brute = np.min(dom.dist_to_boundary(np.column_stack([X.ravel(), Y.ravel()])))
            assert exact <= brute + 1e-9
            assert brute <= exact + 0.01 * ext


def test_halfspace_3d_box_distance():
    """Above the plane y_3 = 0 a box is lo[-1] away; across it, 0."""
    dom = geometry.GraphDomain(d=3)
    lo = np.array([[0.1, -0.4, 0.25], [-1.0, 0.0, 2.0], [0.0, 0.0, -0.5], [0.3, 0.3, 0.0]])
    hi = lo + np.array([[0.5, 0.5, 0.5], [0.125, 0.25, 1.0], [1.0, 1.0, 1.0], [0.1, 0.1, 0.1]])
    assert dom.dist_boxes_to_boundary(lo, hi).tolist() == [0.25, 2.0, 0.0, 0.0]


def test_graph_area_exact_across_lower_edge():
    """h = -0.45 + 0.6 x left of 0 and -0.45 right of it; the box is
    [-1, 1]^2 and h crosses its lower edge at x = -11/12, so the area is
    2 (1/12) + int_{-11/12}^0 (1.45 - 0.6 x) dx + 1.45 = 307/96."""
    dom = geometry.GraphDomain(delta=0.6, polyline=[(-2.5, -1.95), (0.0, -0.45), (2.5, -0.45)])
    lo, hi = dom.bounding_box()
    assert lo.tolist() == [-1.0, -1.0] and hi.tolist() == [1.0, 1.0]
    assert dom.area() == pytest.approx(307 / 96, rel=1e-14)


@pytest.mark.parametrize("angle, supported", [(87.1, False), (87.3, True), (272.7, True), (272.9, False)])
def test_corner_angle_limit_follows_the_graph_box(angle, supported):
    """A corner window's edges have slope |cot(angle / 2)|, which the graph
    box |y| <= 1.05 R bounds: convex corners below 2 atan(1 / 1.05) = 87.2
    degrees and reflex ones above 272.8 are rejected, the rest build."""
    phi = math.radians(angle)
    if angle < 180:  # kite with a left corner of `angle`
        p = 1.0 / math.tan(phi / 2)
        verts = [(-p, 0), (0, -1), (1, 0), (0, 1)]
    else:  # rectangle with a V notch whose tip has interior angle `angle`
        w = math.tan((2 * math.pi - phi) / 2)
        verts = [(0, 0), (4, 0), (4, 2), (2 + w, 2), (2, 1), (2 - w, 2), (0, 2)]
    poly = geometry.make_polygon(verts)
    if supported:
        assert len(poly.windows()) > len(verts)
    else:
        with pytest.raises(geometry.UnsupportedDomainError, match=f"interior angle {angle:.1f} degrees"):
            poly.windows()
