import itertools
import math
from collections import deque
from fractions import Fraction

import numpy as np
import pytest

from czdomain import geometry, whitney


def test_w4_exact_on_disk_cw1(disk):
    cov = whitney.build_covering(disk, min_side=2.0**-6, C_W=1.0)
    ok, bad = whitney.check_w4(cov)
    assert ok and bad == 0


def test_axioms_on_standard_domains(disk_oc, square_oc, zigzag05_oc):
    for oc in (disk_oc, square_oc, zigzag05_oc):
        cov = oc.cov
        assert whitney.check_w2(cov)
        ok4, _ = whitney.check_w4(cov)
        ok5, gap = whitney.check_w5(cov)
        assert ok4
        assert ok5, f"W5 level gap {gap}"


def _neighbors_by_tuple_probes(cov):
    """Reference adjacency: per cube and per coarser-or-equal level, probe
    every candidate index tuple in a dict and test closure overlap in
    integer units of the finest side."""
    n, d = len(cov), cov.dim
    scale = np.int64(1) << (cov.max_level - cov.levels).astype(np.int64)
    ulo = cov.indices * scale[:, None]
    uhi = (cov.indices + 1) * scale[:, None]
    by_level = {}
    for i in range(n):
        by_level.setdefault(int(cov.levels[i]), {})[tuple(cov.indices[i])] = i
    adj = [set() for _ in range(n)]
    for i in range(n):
        j = int(cov.levels[i])
        for j2 in sorted(by_level):
            if j2 > j:
                break
            shift2 = cov.max_level - j2
            lo2 = tuple((int(ulo[i, a]) - 1) >> shift2 for a in range(d))
            hi2 = tuple(int(uhi[i, a]) >> shift2 for a in range(d))
            for tup in itertools.product(*[range(lo2[a], hi2[a] + 1) for a in range(d)]):
                k = by_level[j2].get(tup)
                if k is None or k == i or (j == j2 and k < i):
                    continue
                if all(ulo[i, a] <= uhi[k, a] and ulo[k, a] <= uhi[i, a] for a in range(d)):
                    adj[i].add(k)
                    adj[k].add(i)
    return [sorted(s) for s in adj]


def test_csr_neighbors_match_tuple_probes(disk, disk_oc, square_oc, zigzag05_oc, halfspace_oc):
    cw1 = whitney.build_covering(disk, min_side=2.0**-6, C_W=1.0)  # W5 only checked here
    for cov in (disk_oc.cov, square_oc.cov, zigzag05_oc.cov, halfspace_oc.cov, cw1):
        want = _neighbors_by_tuple_probes(cov)
        indptr, nbr = cov.adjacency()
        assert len(indptr) == len(cov) + 1 and indptr[-1] == len(nbr)
        assert [a.tolist() for a in cov.neighbors()] == want
        src, dst = cov.neighbor_pairs(np.arange(len(cov))[::-1])
        assert dst.tolist() == [v for u in reversed(range(len(cov))) for v in want[u]]


def test_locate_round_trip(disk_oc, square_oc, zigzag05_oc):
    for cov in (disk_oc.cov, square_oc.cov, zigzag05_oc.cov):
        for lev in np.unique(cov.levels).tolist():
            at = np.flatnonzero(cov.levels == lev)
            assert cov.locate(lev, cov.indices[at]).tolist() == at.tolist()
            # every row of the level's bounding box, grown by one, against a dict
            pos = {tuple(r): i for r, i in zip(cov.indices[at].tolist(), at.tolist())}
            lo, hi = cov.indices[at].min(axis=0), cov.indices[at].max(axis=0)
            grid = np.array(list(itertools.product(*[range(a - 1, b + 2) for a, b in zip(lo, hi)])))
            assert cov.locate(lev, grid).tolist() == [pos.get(tuple(r), -1) for r in grid.tolist()]
            assert np.all(cov.locate(lev, cov.indices[at] + (np.int64(1) << 40)) == -1)
        # levels outside the table, and no rows
        assert np.all(cov.locate(cov.max_level + 1, cov.indices[:3]) == -1)
        assert np.all(cov.locate(-1, cov.indices[:3]) == -1)
        assert cov.locate(0, np.zeros((0, cov.dim), dtype=np.int64)).tolist() == []
        # every cube's centre lies in that cube
        assert cov.containing(cov.centers).tolist() == list(range(len(cov)))


def _array_covering(square, levels, indices):
    return whitney.Covering(square, levels, indices, np.ones(len(levels)), 1.125, 1.5, 2.0**-8, 1.0, 0, 0.0)


def test_w2_detects_an_injected_child(square):
    cov = _array_covering(square, [1, 1, 1, 1], [[0, 0], [0, 1], [1, 0], [1, 1]])
    assert whitney.check_w2(cov)
    cov = _array_covering(square, [1, 1, 1, 1, 3], [[0, 0], [0, 1], [1, 0], [1, 1], [5, 2]])
    assert not whitney.check_w2(cov)


def test_w5_reports_a_level_gap_of_two(square):
    # [0, 1)^2 at level 0 touches [1, 1.25) x [0.75, 1) at level 2
    cov = _array_covering(square, [2, 0], [[4, 3], [0, 0]])
    assert cov.levels.tolist() == [0, 2]  # the table is sorted by (level, index)
    assert [a.tolist() for a in cov.neighbors()] == [[1], [0]]
    assert whitney.check_w5(cov) == (False, 2)
    assert whitney.check_w5(_array_covering(square, [0, 1], [[0, 0], [2, 1]])) == (True, 1)


def _w6_direct(cov, dilation):
    """Direct W6 count: every cube centre against every same-level cube."""
    pts = cov.centers
    half = 0.5 * dilation
    per_scale = 0
    total = np.zeros(len(pts), dtype=int)
    for lev in np.unique(cov.levels):
        sel = cov.levels == lev
        c = cov.centers[sel]
        s = cov.sides[sel][0]
        cnt = np.zeros(len(pts), dtype=int)
        for start in range(0, len(c), 512):
            blk = c[start : start + 512]
            inside = np.all(np.abs(pts[:, None, :] - blk[None, :, :]) <= half * s, axis=2)
            cnt += inside.sum(axis=1)
        per_scale = max(per_scale, int(cnt.max()))
        total += cnt
    return per_scale, int(total.max())


def test_w6_equals_direct_count(disk_oc, square_oc, zigzag05_oc):
    for oc in (disk_oc, square_oc, zigzag05_oc):
        for dilation in (2.0, 10.0):
            assert whitney.check_w6(oc.cov, dilation) == _w6_direct(oc.cov, dilation)


def test_square_area_audit(square):
    cov = whitney.build_covering(square, min_side=2.0**-8, C_W=1.125)
    audit = whitney.coverage_audit(cov, margin=8.0)
    # every sampled point deeper than 8*min_side lies in some cube
    assert audit["uncovered_deep_points"] == 0
    # volume accounting: missing volume is inside the truncation layer bound
    missing = audit["domain_volume"] - audit["cube_volume"]
    assert 0.0 <= missing
    # dropped cubes bound the uncovered area
    assert missing <= cov.dropped_volume + 1e-9


def test_halfspace_per_level_counts(halfspace):
    cov = whitney.build_covering(halfspace, min_side=2.0**-8, C_W=1.125)
    counts = {}
    for lev in np.unique(cov.levels):
        counts[int(lev)] = int(np.sum(cov.levels == lev))
    # flat boundary: counts double (2^{d-1}) per level in the resolved range
    levels = sorted(counts)
    for j in levels[2:-1]:
        assert counts[j + 1] == 2 * counts[j], (j, counts)


def test_truncation_reported(square):
    cov = whitney.build_covering(square, min_side=2.0**-5, C_W=1.125)
    assert cov.dropped_count > 0
    assert cov.dropped_volume > 0
    assert cov.min_side == 2.0**-5


def test_builder_validates_inputs(square):
    with pytest.raises(ValueError):
        whitney.build_covering(square, min_side=0.0)
    with pytest.raises(ValueError):
        whitney.build_covering(square, min_side=2.0**-4, C_W=0.5)


def test_select_tau_brackets():
    for cw in (1.0, 1.125, 2.0, 4.0):
        tau = whitney.select_tau(cw, 2)
        assert tau >= cw
        assert 2 * tau + math.sqrt(2) <= 4 * cw * (1 + 1e-12)


# -- orientation ------------------------------------------------------------


def test_central_cubes_connected(disk_oc):
    assert disk_oc.central_connected


def test_peripheral_cubes_have_canvases(disk_oc, square_oc):
    for oc in (disk_oc, square_oc):
        per = np.where(~oc.central)[0]
        assert np.all(oc.assigned_window[per] >= 0)


def test_root_is_largest_central(disk_oc):
    cov = disk_oc.cov
    central_levels = cov.levels[disk_oc.central]
    assert cov.levels[disk_oc.root] == central_levels.min()
    assert disk_oc.central[disk_oc.root]


def test_bfs_minimality_independent(disk_oc):
    """Central chains have minimal step count: BFS distance recomputed
    with an independent queue implementation."""
    oc = disk_oc
    cov = oc.cov
    adj = cov.neighbors()
    dist = {oc.root: 0}
    dq = deque([oc.root])
    while dq:
        u = dq.popleft()
        for v in adj[u]:
            if oc.central[v] and v not in dist:
                dist[v] = dist[u] + 1
                dq.append(v)
    rng = np.random.default_rng(0)
    central = np.where(oc.central)[0]
    for q in rng.choice(central, size=25, replace=False):
        path = oc.anchored_path(int(q))
        assert len(path) - 1 == dist[int(q)]


def test_chain_identity(disk_oc):
    per = np.where(~disk_oc.central)[0]
    assert disk_oc.chain(int(per[0]), int(per[0])) == [int(per[0])]


def test_chain_prefix_rule(disk_oc):
    """S on [Q, Q0] => chain(Q, S) is the prefix [Q,Q0] \\ (S,Q0]."""
    oc = disk_oc
    rng = np.random.default_rng(1)
    per = np.where(~oc.central)[0]
    for q in rng.choice(per, size=10, replace=False):
        path = oc.anchored_path(int(q))
        if len(path) < 3:
            continue
        s = path[len(path) // 2]
        assert oc.chain(int(q), int(s)) == path[: path.index(s) + 1]


def test_chains_are_valid_neighbor_paths(disk_oc, square_oc, zigzag05_oc):
    rng = np.random.default_rng(4)
    for oc in (disk_oc, square_oc, zigzag05_oc):
        n = len(oc.cov)
        for _ in range(20):
            q, s = int(rng.integers(0, n)), int(rng.integers(0, n))
            ch = oc.chain(q, s)
            assert ch[0] == q and ch[-1] == s
            assert oc.chain_is_valid(ch)


def test_canvas_chain_classification(zigzag05_oc):
    """Same-canvas chains pass only through cubes above Q, above S, or
    central (third rule construction)."""
    oc = zigzag05_oc
    rng = np.random.default_rng(8)
    per = np.where(~oc.central)[0]
    checked = 0
    for _ in range(200):
        q, s = (int(v) for v in rng.choice(per, size=2, replace=False))
        k = oc.common_canvas(q, s)
        if k is None:
            continue
        ch = oc.chain(q, s)
        t_lo, t_hi, y_lo, y_hi = oc._local_boxes(k, np.arange(len(oc.cov)))
        for m in ch[1:-1]:
            if oc.central[m]:
                continue
            above_q = bool(np.all(np.minimum(t_hi[m], t_hi[q]) - np.maximum(t_lo[m], t_lo[q]) > 0)
                           and y_hi[m] > y_hi[q])
            above_s = bool(np.all(np.minimum(t_hi[m], t_hi[s]) - np.maximum(t_lo[m], t_lo[s]) > 0)
                           and y_hi[m] > y_hi[s])
            assert above_q or above_s, (q, s, m)
        checked += 1
    assert checked > 20


def test_vertical_projection_overlap_for_order(square_oc):
    """Q <= S with both peripheral implies overlapping vertical
    projections in the window."""
    oc = square_oc
    per = np.where(~oc.central)[0]
    count = 0
    for q in per[:200]:
        k = int(oc.assigned_window[q])
        members, fmap = oc.window_forest(k)
        s = fmap.get(int(q), -1)
        if s < 0:
            continue
        t_lo, t_hi, _, _ = oc._local_boxes(k, np.arange(len(oc.cov)))
        overlap = np.minimum(t_hi[s], t_hi[int(q)]) - np.maximum(t_lo[s], t_lo[int(q)])
        assert np.all(overlap > 0)
        count += 1
    assert count > 10


def _scan_box(cov, win, m):
    """Horizontal extents and top of cube m in the frame of `win`, from
    Window.to_local of its corners."""
    offsets = np.array(list(itertools.product((0, 1), repeat=cov.dim)), dtype=float)
    loc = win.to_local(cov.lo[m] + offsets * cov.sides[m])
    return loc[:, :-1].min(axis=0), loc[:, :-1].max(axis=0), loc[:, -1].max()


def _rank(cov, v, score):
    return (-score, int(cov.levels[v])) + tuple(int(a) for a in cov.indices[v])


def test_fathers_match_neighbor_scan(disk_oc, square_oc, zigzag05_oc):
    """Canvas fathers against a scan of one neighbour at a time: the
    neighbour above with the largest horizontal overlap, ties broken by
    (level, index)."""
    for oc in (disk_oc, square_oc, zigzag05_oc):
        cov = oc.cov
        adj = cov.neighbors()
        tol = 1e-12 * oc.R
        checked = 0
        for k in range(0, len(oc.windows), 40):
            members, fmap = oc.window_forest(k)
            for m in members:
                t_lo, t_hi, top = _scan_box(cov, oc.windows[k], m)
                best, best_key = -1, None
                for v in adj[m]:
                    s_lo, s_hi, s_top = _scan_box(cov, oc.windows[k], v)
                    ov = np.minimum(s_hi, t_hi) - np.maximum(s_lo, t_lo)
                    if np.all(ov > tol) and s_top > top + tol:
                        key = _rank(cov, v, float(np.prod(ov)))
                        if best_key is None or key < best_key:
                            best, best_key = v, key
                assert best >= 0
                assert fmap[m] == (best if best in fmap else -1)
                if oc.assigned_window[m] == k:
                    assert oc.succ[m] == best
                checked += 1
        assert checked > 100


def test_anchored_path_matches_neighbor_scan(square):
    """Anchored ascents against a scan of one neighbour at a time: among the
    neighbours above the current cube, the largest overlap with Q (1e-9
    times the overlap with the current cube where Q's is within 1e-12 R of
    zero), ties broken by (level, index). The square at depth 8 has exact
    ties that decide some paths."""
    cov = whitney.build_covering(square, min_side=2.0**-8, C_W=1.125)
    oc = whitney.orient(cov)
    adj = cov.neighbors()
    tol = 1e-12 * oc.R
    rng = np.random.default_rng(4)
    for q in rng.choice(np.flatnonzero(~oc.central), size=150, replace=False).tolist():
        win = oc.windows[oc.assigned_window[q]]
        q_lo, q_hi, _ = _scan_box(cov, win, q)
        path = [q]
        while not oc.central[path[-1]]:
            c_lo, c_hi, c_top = _scan_box(cov, win, path[-1])
            best, best_key = -1, None
            for v in adj[path[-1]]:
                lo, hi, top = _scan_box(cov, win, v)
                ov_cur = np.minimum(hi, c_hi) - np.maximum(lo, c_lo)
                if not (np.all(ov_cur > tol) and top > c_top + tol):
                    continue
                ov = float(np.prod(np.maximum(np.minimum(hi, q_hi) - np.maximum(lo, q_lo), 0.0)))
                if ov <= tol:
                    ov = 1e-9 * float(np.prod(np.maximum(ov_cur, 0.0)))
                if best_key is None or _rank(cov, v, ov) < best_key:
                    best, best_key = v, _rank(cov, v, ov)
            assert best >= 0
            path.append(best)
        assert oc.anchored_path(q)[: len(path)] == path


def test_shadow_leaf_and_downward_closure(zigzag05_oc):
    oc = zigzag05_oc
    cov = oc.cov
    per = np.where(~oc.central)[0]
    for q in per[:200]:
        sh = oc.shadow(int(q))
        assert int(q) in sh
        # downward closure: shadow of any member is contained in the shadow
        for m in sh[:5]:
            if not oc.central[m] and oc.assigned_window[m] == oc.assigned_window[q]:
                inner = oc.shadow(int(m), int(oc.assigned_window[q]))
                assert set(inner) <= set(sh)
    # at the truncation level the bottom row has no children: size-1 shadows
    deepest = [int(i) for i in per if cov.levels[i] == cov.levels.max()]
    assert deepest
    sizes = [len(oc.shadow(q)) for q in deepest[:80]]
    assert min(sizes) == 1


def test_flat_boundary_shadow_counts(halfspace_oc):
    """Exact shadow level profile above a flat boundary: the builder puts
    two rows per level, so level j+k of a top-row shadow holds 2*2^(k-1)
    row pairs: counts [1, 4, 8, 16, ...] including both rows."""
    oc = halfspace_oc
    cov = oc.cov
    # pick an upper-row peripheral cube in mid-window (full column below)
    per = np.where(~oc.central)[0]
    cand = [int(i) for i in per if abs(cov.centers[i][0]) < 0.3]
    top_level = min(int(cov.levels[i]) for i in cand)
    q = next(i for i in cand if cov.levels[i] == top_level and cov.indices[i][1] == 2)
    sh = oc.shadow(q)
    by_level = {}
    for m in sh:
        by_level[int(cov.levels[m]) - top_level] = by_level.get(int(cov.levels[m]) - top_level, 0) + 1
    assert by_level[0] == 1
    ks = sorted(by_level)
    for k in ks[1:-1]:
        assert by_level[k] == 2 ** (k + 1), by_level
        # growth factor 2^{d-1} per level
        if k + 1 in by_level and k + 1 != ks[-1]:
            assert by_level[k + 1] == 2 * by_level[k]


def test_long_distance_properties(disk_oc):
    oc = disk_oc
    cov = oc.cov
    rng = np.random.default_rng(3)
    n = len(cov)
    for _ in range(50):
        i, k = int(rng.integers(0, n)), int(rng.integers(0, n))
        D = cov.long_distance(i, k)
        assert D == pytest.approx(cov.long_distance(k, i), rel=1e-12)
        assert D >= max(cov.sides[i], cov.sides[k])
    # identity: D(Q,Q) = 2 l(Q)
    assert cov.long_distance(3, 3) == pytest.approx(2 * cov.sides[3], rel=1e-12)
    # equal-side touching neighbors: D = 2 l
    adj = cov.neighbors()
    for i in range(n):
        for k in adj[i]:
            if cov.levels[i] == cov.levels[k]:
                assert cov.long_distance(i, k) == pytest.approx(2 * cov.sides[i], rel=1e-12)
                break
        else:
            continue
        break
    # far cubes: D within factor 3 of dist
    i = int(np.argmin(cov.centers[:, 0]))
    k = int(np.argmax(cov.centers[:, 0]))
    gap = cov.box_gap(i, [k])[0]
    assert gap <= cov.long_distance(i, k) <= 3 * gap


def test_chain_distance_constants(disk_oc, zigzag05_oc):
    """Along [Q, Q_S]: D(P,S) ~ D(Q,S) and D(P,Q) ~ l(P), constants <= 20
    on domains with window slope <= 1/2."""
    for oc in (disk_oc, zigzag05_oc):
        cov = oc.cov
        rng = np.random.default_rng(5)
        per = np.where(~oc.central)[0]
        worst = 0.0
        for _ in range(40):
            q, s = (int(v) for v in rng.choice(per, size=2, replace=False))
            ch = oc.chain(q, s)
            Dqs = cov.long_distance(q, s)
            # traverse the [Q, Q_S] half: cubes before the meeting point
            ps = oc.anchored_path(s, oc.common_canvas(q, s))
            in_ps = set(ps)
            for pos, m in enumerate(ch):
                if m in in_ps:
                    break
                Dps = cov.long_distance(m, s)
                worst = max(worst, Dps / Dqs, Dqs / Dps)
                Dpq = cov.long_distance(m, q)
                if pos > 0:
                    worst = max(worst, Dpq / (20 * cov.sides[m]) * 20 / 20)
                    assert Dpq <= 20 * cov.sides[m]
        assert worst <= 20.0


# -- maximal function and summation lemmas -----------------------------------


def test_maximal_point_mass(disk_oc):
    oc = disk_oc
    cov = oc.cov
    q = len(cov) // 2
    g = {q: 0.7}
    val = whitney.maximal(oc, g, q)
    assert val == pytest.approx(0.7 / cov.sides[q] ** 2, rel=1e-12)


def test_maximal_uniform_density(disk_oc):
    oc = disk_oc
    cov = oc.cov
    g = {i: cov.sides[i] ** 2 for i in range(len(cov))}  # density one
    rng = np.random.default_rng(0)
    for q in rng.integers(0, len(cov), size=12):
        val = whitney.maximal(oc, g, int(q))
        assert 0.5 <= val <= 2.0


def test_maximal_refinement_stability(disk):
    cov1 = whitney.orient(whitney.build_covering(disk, 2.0**-5, C_W=1.125))
    cov2 = whitney.orient(whitney.build_covering(disk, 2.0**-6, C_W=1.125))
    g1 = {i: cov1.cov.sides[i] ** 2 for i in range(len(cov1.cov))}
    g2 = {i: cov2.cov.sides[i] ** 2 for i in range(len(cov2.cov))}
    # compare at matching cubes (same level and index)
    checked = 0
    for i in range(0, len(cov1.cov), 37):
        i2 = int(cov2.cov.locate(int(cov1.cov.levels[i]), cov1.cov.indices[i])[0])
        if i2 >= 0:
            v1 = whitney.maximal(cov1, g1, i)
            v2 = whitney.maximal(cov2, g2, i2)
            assert 0.5 <= v1 / v2 <= 2.0
            checked += 1
    assert checked > 5


def test_maximal_rejects_negative(disk_oc):
    with pytest.raises(ValueError):
        whitney.maximal(disk_oc, {0: -1.0}, 0)


def test_halfspace_shadow_power_sum_exact_series(halfspace_oc):
    """Flat boundary: the shadow power sum is an explicit finite geometric
    series (two rows per level, doubling counts)."""
    oc = halfspace_oc
    cov = oc.cov
    a = 1.5
    sums = oc.subtree_values(cov.sides**a)
    per = np.where(~oc.central)[0]
    cand = [int(i) for i in per if abs(cov.centers[i][0]) < 0.3]
    top_level = min(int(cov.levels[i]) for i in cand)
    q = next(i for i in cand if cov.levels[i] == top_level and cov.indices[i][1] == 2)
    K = int(cov.levels.max()) - top_level
    lq = cov.sides[q]
    expect = lq**a * (1.0 + sum(2 ** (k + 1) * (2.0**-k) ** a for k in range(1, K + 1)))
    assert sums[q] == pytest.approx(expect, rel=1e-12)


def test_verify_sum_lemmas_report(disk_oc):
    oc = disk_oc
    cov = oc.cov
    g = {i: cov.sides[i] ** 2 for i in range(len(cov))}
    rep = whitney.verify_sum_lemmas(oc, a=1.5, b=2.0, eta=0.5, r=0.25, g=g)
    # bounded ratios; the largest come from the root's full subtree
    assert 1.0 <= rep["shadow_power_sum"]["min_ratio"]
    assert rep["shadow_power_sum"]["max_ratio"] < 500.0
    assert 0.0 < rep["long_distance_sum"]["min_ratio"]
    assert rep["long_distance_sum"]["max_ratio"] < 500.0
    assert rep["maximal_bound"]["part1_max"] < 100.0
    assert rep["maximal_bound"]["part3_max"] < 100.0


def test_verify_sum_lemmas_parameter_validation(disk_oc):
    with pytest.raises(ValueError):
        whitney.verify_sum_lemmas(disk_oc, a=0.5, b=2.0, eta=0.5, r=0.25)
    with pytest.raises(ValueError):
        whitney.verify_sum_lemmas(disk_oc, a=1.5, b=1.0, eta=0.5, r=0.25)


def test_shadow_power_sum_threshold_behavior(halfspace_oc):
    """a = d on the flat boundary: column series converge; upper-row
    anchors give 2 + sum_k 2^(k+1) 2^(-2k) -> 4, the worst interior case."""
    oc = halfspace_oc
    cov = oc.cov
    sums = oc.subtree_values(cov.sides**2.0)
    ratio = sums / cov.sides**2.0
    sel = ~oc.central & (np.abs(cov.centers[:, 0]) < 0.3)
    assert ratio[sel].max() < 4.0


def test_order_soundness(zigzag05_oc):
    """The forest order is a partial order, and P <= Q holds exactly when
    P lies in the shadow of Q (common canvas)."""
    oc = zigzag05_oc
    per = np.where(~oc.central)[0]
    k = int(oc.assigned_window[per[0]])
    members, fmap = oc.window_forest(k)

    def leq(p, q):
        u = p
        while u != -1:
            if u == q:
                return True
            u = fmap.get(u, -1)
        return False

    rng = np.random.default_rng(0)
    sample = [int(v) for v in rng.choice(members, size=min(25, len(members)), replace=False)]
    for p in sample:
        assert leq(p, p)  # reflexive
        for q in sample:
            in_shadow = p in oc.shadow(q, k) if q in fmap else False
            assert leq(p, q) == in_shadow
            if leq(p, q) and leq(q, p):
                assert p == q  # antisymmetric
            for r in sample:
                if leq(p, q) and leq(q, r):
                    assert leq(p, r)  # transitive


def test_w7_vertical_line_count(disk_oc, zigzag05_oc):
    """Same-side cubes meeting one vertical line in one window: the
    measured constant is reported (no closed-form bound is asserted) but
    must be small for modest slopes."""
    for oc in (disk_oc, zigzag05_oc):
        c = whitney.check_w7(oc)
        assert 1 <= c <= 8


def test_dump_load_roundtrip(tmp_path, zigzag05_oc):
    path = tmp_path / "cov.txt"
    whitney.dump_covering(zigzag05_oc, str(path))
    data = whitney.load_covering(str(path))
    cov = zigzag05_oc.cov
    assert data["meta"]["dim"] == 2
    assert len(data["cubes"]) == len(cov)
    row = data["cubes"][10]
    assert row["level"] == cov.levels[10]
    assert row["index"] == tuple(cov.indices[10])
    assert row["central"] == bool(zigzag05_oc.central[10])
    assert row["succ"] == int(zigzag05_oc.succ[10])


def _ancestors(parent, y):
    out = []
    while y >= 0:
        out.append(y)
        y = parent[y]
    return out


def test_forest_matches_ancestor_walks():
    rng = np.random.default_rng(11)
    for _ in range(30):
        n = int(rng.integers(1, 120))
        # random forest, relabelled so parents need not precede children
        raw = [-1] + [int(rng.integers(-1, i)) for i in range(1, n)]
        perm = rng.permutation(n)
        parent = [-1] * n
        for i, q in enumerate(raw):
            parent[perm[i]] = int(perm[q]) if q >= 0 else -1
        values = [Fraction(int(rng.integers(0, 20)), int(rng.integers(1, 9))) for _ in range(n)]
        forest = whitney.Forest(parent)
        expect = [Fraction(0)] * n
        shadow = [set() for _ in range(n)]
        for y in range(n):
            for u in _ancestors(parent, y):
                expect[u] += values[y]
                shadow[u].add(y)
        assert forest.subtree_sums(values).tolist() == expect
        assert forest.path_sums(values).tolist() == [sum(values[u] for u in _ancestors(parent, y)) for y in range(n)]
        for v in range(n):
            assert forest.subtree(v).tolist() == sorted(shadow[v])
            assert forest.path(v) == _ancestors(parent, v)
            assert forest.depth[v] == len(_ancestors(parent, v)) - 1


def test_forest_rejects_bad_parent_arrays():
    with pytest.raises(ValueError):
        whitney.Forest([1, 2, 0, -1])
    with pytest.raises(ValueError):
        whitney.Forest([-1, 1])
    with pytest.raises(ValueError):
        whitney.Forest([-1, 5])
