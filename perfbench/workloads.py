"""The four workloads: inputs made from a seed, one timed pass of calls
into czdomain, and the checks of that pass's outputs.

Each workload is a (setup, run_pass, checks) triple:

* ``setup(seed, tracer)`` makes the inputs. Everything it does is set-up
  time.
* ``run_pass(inputs, tracer)`` is one timed pass. It opens one span per
  call into the program; the untraced run passes a tracer that records
  nothing.
* ``checks(inputs, outputs)`` yields ``(name, thunk)`` pairs, one per
  checked operation. The names depend on the inputs only, so every pass
  attempts the same operations. A thunk returns ``(ok, detail)``; a thunk
  that raises counts its operation as failed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

import reference as ref
from czdomain import carleson, czop, fields, geometry, keylemma, whitney

C_W = 1.125
KERNEL = czop.beurling_kernel()


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


# ---------------------------------------------------------------------------
# square-dichotomy: what `czdomain carleson` does on the unit square


SQUARE_DEPTHS = (6, 7, 8)
SQUARE_PS = (1.5, 2.5)
# Successive canvas-mass increments shrink or grow at the corner rate
# 2^(p-2) once the truncation tail has settled; at depths 6-8 the ratio
# is 3-6% from that rate (0.5-1.5% at depths 9-11), so 10% holds with room.
INCREMENT_TOL = 0.10
MASS_TOL = 1e-9
ORACLE_TOL = 1e-12
ORACLE_MAX_VERTICES = 200
ORACLE_SAMPLES = 3  # sampled roots per p, at the deepest depth


@dataclass
class SquareInputs:
    seed: int
    offset: tuple
    domain: object
    vertices: np.ndarray
    depths: tuple = SQUARE_DEPTHS
    ps: tuple = SQUARE_PS


def unit_square_at(offset):
    x, y = offset
    return geometry.make_polygon([(x, y), (x + 1.0, y), (x + 1.0, y + 1.0), (x, y + 1.0)])


def _integer_offset(rng):
    # an integer shift keeps the square on the dyadic grid, so the covering
    # and the work per pass do not depend on the seed
    return tuple(int(v) for v in rng.integers(-4, 5, size=2))


def square_setup(seed, tracer):
    offset = _integer_offset(np.random.default_rng(seed))
    return SquareInputs(seed, offset, unit_square_at(offset), ref.square_vertices(offset))


def square_pass(inp, tr):
    out = {"depths": {}, "mass": {p: [] for p in inp.ps}, "verdict": {}}
    for depth in inp.depths:
        with tr.span("depth", depth=depth):
            with tr.span("whitney.build_covering", depth=depth) as c:
                cov = whitney.build_covering(inp.domain, 2.0**-depth, C_W=C_W)
            c.update({"whitney.cubes": len(cov), "whitney.dropped_cubes": cov.dropped_count})
            with tr.span("whitney.neighbors", depth=depth) as c:
                adj = cov.neighbors()
            c["whitney.neighbor_links"] = sum(map(len, adj)) // 2
            with tr.span("whitney.orient", depth=depth) as c:
                oc = whitney.orient(cov)
            c.update({"whitney.windows": len(oc.windows),
                      "whitney.canvas_memberships": sum(map(len, oc.window_members))})
            with tr.span("whitney.window_forest", depth=depth):
                for k in range(len(oc.windows)):
                    oc.window_forest(k)
            per_p = {}
            for p in inp.ps:
                with tr.span("carleson.cube_measure", depth=depth, p=p, n=1) as c:
                    mu = carleson.cube_measure(oc, KERNEL, (0, 0), 1, p)
                c.update({"carleson.measured_cubes": len(mu.mass), "carleson.flagged_cubes": len(mu.flagged)})
                with tr.span("carleson.check_growth", depth=depth, p=p, n=1):
                    growth = carleson.check_growth(oc, mu, p)["constant"]
                with tr.span("carleson.check_shadow", depth=depth, p=p, n=1):
                    shadow = carleson.check_shadow_condition(oc, mu, p)["constant"]
                per_p[p] = {"mu": mu, "growth": growth, "shadow": shadow}
                out["mass"][p].append(mu.total())
            # like `czdomain carleson`, let go of each depth's orientation; the
            # deepest one stays for the shadow oracle
            keep = {"oc": oc} if depth == inp.depths[-1] else {}
            out["depths"][depth] = {"cov": cov, "members": oc.window_members, "p": per_p, **keep}
            del oc
    for p in inp.ps:
        with tr.span("carleson.growth_verdict", p=p, n=1):
            out["verdict"][p] = carleson.growth_verdict(out["mass"][p])
    return out


def _canvas_mass(inp, out, depth, p):
    d = out["depths"][depth]
    cov, mu = d["cov"], d["p"][p]["mu"]
    canvas = sorted({m for mem in d["members"] for m in mem})
    if sorted(mu.mass) != canvas:
        return False, "measured cubes differ from the canvas cubes"
    lo, sides = ref.cube_boxes(cov.levels[canvas], cov.indices[canvas], cov.base)
    want = ref.integrate_over_cubes(lambda z: ref.square_grad_total(z, inp.vertices, 1) ** p, lo, sides, 6)
    got = np.array([mu.mass[m] for m in canvas])
    worst = float(np.max(np.abs(got - want) / want))
    total = _rel(mu.total(), float(np.sum(want)))
    return worst <= MASS_TOL and total <= MASS_TOL, f"per-cube {worst:.1e}, total {total:.1e}"


def _sample_roots(oc, rng):
    """ORACLE_SAMPLES distinct random forest roots, each assigned to its
    window, among the largest trees of at most ORACLE_MAX_VERTICES vertices
    (at least half the largest size)."""
    pool = []
    for k in range(len(oc.windows)):
        members, fmap = oc.window_forest(k)
        kids = {}
        for m in members:
            kids.setdefault(fmap[m], []).append(m)
        for r in kids.get(-1, []):
            if oc.assigned_window[r] != k:
                continue
            tree = [r]
            for u in tree:
                tree.extend(kids.get(u, []))
            if len(tree) <= ORACLE_MAX_VERTICES:
                pool.append((r, tree, fmap))
    largest = max(len(t) for _, t, _ in pool)
    pool = [c for c in pool if 2 * len(c[1]) >= largest]
    return [pool[i] for i in rng.choice(len(pool), size=ORACLE_SAMPLES, replace=False)]


def _shadow_oracle(inp, out, p, sample):
    d = out["depths"][inp.depths[-1]]
    cov, oc, mu = d["cov"], d["oc"], d["p"][p]["mu"]
    rng = np.random.default_rng([inp.seed, int(10 * p)])
    root, tree, fmap = _sample_roots(oc, rng)[sample]
    pos = {m: i for i, m in enumerate(tree)}
    parent = [-1] + [pos[fmap[m]] for m in tree[1:]]
    masses = [mu.get(m) for m in tree]
    rho = [float(cov.sides[m]) ** (cov.dim - p) for m in tree]
    prob = carleson.TreeProblem(parent, masses, rho, p)
    prog = carleson.check_shadow_condition(oc, mu, p, P=root)["constant"]
    fast = float(carleson.check_tree_condition(prob, 0))
    brute = float(carleson.brute_force_tree_condition(prob, 0))
    sup = d["p"][p]["shadow"]
    ok = _rel(prog, brute) <= ORACLE_TOL and _rel(fast, brute) <= ORACLE_TOL and sup >= prog * (1 - ORACLE_TOL)
    return ok, f"root {root} ({len(tree)} cubes): shadow {prog!r}, tree {fast!r}, brute {brute!r}, sup {sup!r}"


def _increment_ratio(inp, out, p):
    m = out["mass"][p]
    ratio = (m[2] - m[1]) / (m[1] - m[0])
    rate = 2.0 ** (p - 2.0)
    return _rel(ratio, rate) <= INCREMENT_TOL, f"ratio {ratio:.4f} vs rate {rate:.4f}"


def square_checks(inp, out):
    for depth in inp.depths:
        for p in inp.ps:
            yield f"canvas_mass d={depth} p={p}", lambda d=depth, p=p: _canvas_mass(inp, out, d, p)
    for p in inp.ps:
        for i in range(ORACLE_SAMPLES):
            yield f"shadow_oracle d={inp.depths[-1]} p={p} sample={i}", lambda p=p, i=i: _shadow_oracle(inp, out, p, i)
    for p in inp.ps:
        yield f"mass_increment_ratio p={p}", lambda p=p: _increment_ratio(inp, out, p)
    yield "verdict p=2.5", lambda: (out["verdict"][2.5] == "fails", out["verdict"][2.5])


# ---------------------------------------------------------------------------
# zigzag-audit: what `czdomain whitney` audits, on random zigzag graphs


ZIGZAG_DELTAS = (0.1, 0.5, 0.9)
ZIGZAG_DEPTH = 8
ZIGZAG_SAMPLES = 2048
SUM_EXPONENT = 1.5  # a = 3/2 as in the summation-lemma criterion
LONG_DISTANCE_B = 2.0
LONG_DISTANCE_ANCHORS = 150
EXACT_TOL = 1e-12


@dataclass
class ZigzagInputs:
    graphs: list
    samples: list
    depth: int = ZIGZAG_DEPTH


def zigzag_setup(seed, tracer):
    rng = np.random.default_rng(seed)
    graphs = [geometry.zigzag_graph_domain(rng, delta) for delta in ZIGZAG_DELTAS]
    samples = []
    for g in graphs:
        lo, hi = g.bounding_box()
        samples.append(rng.uniform(lo, hi, size=(ZIGZAG_SAMPLES, 2)))
    return ZigzagInputs(graphs, samples)


def zigzag_pass(inp, tr):
    out = []
    for dom in inp.graphs:
        tags = {"depth": inp.depth, "delta": dom.delta}
        r = {}
        with tr.span("graph", **tags):
            with tr.span("whitney.build_covering", **tags) as c:
                cov = whitney.build_covering(dom, 2.0**-inp.depth, C_W=C_W)
            c.update({"whitney.cubes": len(cov), "whitney.dropped_cubes": cov.dropped_count})
            with tr.span("whitney.neighbors", **tags) as c:
                adj = cov.neighbors()
            c["whitney.neighbor_links"] = sum(map(len, adj)) // 2
            with tr.span("whitney.orient", **tags) as c:
                oc = whitney.orient(cov)
            c.update({"whitney.windows": len(oc.windows),
                      "whitney.canvas_memberships": sum(map(len, oc.window_members))})
            with tr.span("whitney.check_w2", **tags):
                r["w2"] = whitney.check_w2(cov)
            with tr.span("whitney.check_w4", **tags):
                r["w4"] = whitney.check_w4(cov)
            with tr.span("whitney.check_w5", **tags):
                r["w5"] = whitney.check_w5(cov)
            with tr.span("whitney.check_w6", dilation=2, **tags):
                r["w6_2"] = whitney.check_w6(cov, dilation=2.0)
            with tr.span("whitney.check_w6", dilation=10, **tags):
                r["w6_10"] = whitney.check_w6(cov, dilation=10.0)
            with tr.span("whitney.coverage_audit", **tags):
                r["audit"] = whitney.coverage_audit(cov)
            with tr.span("whitney.check_w7", **tags):
                r["w7"] = whitney.check_w7(oc)
            with tr.span("whitney.subtree_values", a=SUM_EXPONENT, **tags):
                r["subtree"] = oc.subtree_values(cov.sides**SUM_EXPONENT)
            anchors = list(range(0, len(cov), max(1, len(cov) // LONG_DISTANCE_ANCHORS)))
            rows = {}
            with tr.span("whitney.long_distance", a=SUM_EXPONENT, b=LONG_DISTANCE_B, **tags):
                for i in anchors:
                    rows[i] = cov.long_distance_row(i)
            r.update({"cov": cov, "oc": oc, "rows": rows})
        out.append(r)
    return out


def _cubes(cov):
    return ref.DyadicCubes(cov.levels, cov.indices, cov.base)


def _volume_bracket(inp, r, gi):
    cov = r["cov"]
    g = inp.graphs[gi]
    lo, hi = g.bounding_box()
    area = ref.area_above_polyline(g.polyline, lo, hi)
    vol = _cubes(cov).volume()
    slack = EXACT_TOL * area
    ok = (_rel(r["audit"]["cube_volume"], vol) <= EXACT_TOL and vol <= area + slack
          and area <= vol + cov.dropped_volume + slack)
    return ok, f"cubes {vol!r} <= area {area!r} <= cubes + dropped {vol + cov.dropped_volume!r}"


def _axioms(inp, r, gi):
    cubes = _cubes(r["cov"])
    disjoint = cubes.disjoint()
    gap = cubes.max_neighbour_gap()
    w5_ok, w5_gap = r["w5"]
    ok = r["w2"] and disjoint and r["w4"][0] and w5_ok and gap == w5_gap and gap <= 1
    return ok, f"W2 {r['w2']}, disjoint {disjoint}, W4 {r['w4'][0]}, level gap {gap} (program {w5_gap})"


def _superposition(inp, r, gi):
    cubes = _cubes(r["cov"])
    two = cubes.superposition(2)
    ten = cubes.superposition(10)
    d = r["cov"].dim
    ok = tuple(r["w6_2"]) == two and two[1] <= 4**d and tuple(r["w6_10"]) == ten
    return ok, f"2Q {two} (program {r['w6_2']}), 10Q {ten} (program {r['w6_10']})"


def _coverage(inp, r, gi):
    cov = r["cov"]
    g = inp.graphs[gi]
    pts = inp.samples[gi]
    deep = ref.above_polyline(pts, g.polyline) & (ref.polyline_distance(pts, g.polyline) > 8.0 * cov.min_side)
    missing = int(np.sum(~_cubes(cov).covered(pts[deep])))
    ok = missing == 0 and r["audit"]["uncovered_deep_points"] == 0
    return ok, f"{missing} of {int(np.sum(deep))} deep samples uncovered (program {r['audit']['uncovered_deep_points']})"


def _w7(inp, r, gi):
    oc = r["oc"]
    cov = oc.cov
    lines = np.linspace(-oc.R / 2, oc.R / 2, 64)
    worst = 0
    for k, win in enumerate(oc.windows):
        members = np.asarray(oc.window_members[k], dtype=int)
        if not len(members):
            continue
        if not np.array_equal(win.rotation, np.eye(2)):
            raise ValueError("recount needs axis-aligned windows")
        t0 = cov.indices[members, 0] * cov.sides[members] - win.center[0]
        t1 = (cov.indices[members, 0] + 1) * cov.sides[members] - win.center[0]
        levels = cov.levels[members]
        for lev in np.unique(levels):
            sel = levels == lev
            cnt = np.sum((t0[sel, None] < lines) & (lines < t1[sel, None]), axis=0)
            worst = max(worst, int(cnt.max()))
    return worst == r["w7"], f"vertical count {worst} (program {r['w7']})"


def _subtree_sums(inp, r, gi):
    oc = r["oc"]
    vals = oc.cov.sides**SUM_EXPONENT
    got = r["subtree"]
    # S(u) = v(u) + sum of S over the children of u, and the root holds all
    expect = vals.copy()
    kids = oc.succ >= 0
    np.add.at(expect, oc.succ[kids], got[kids])
    local = float(np.max(np.abs(got - expect) / got))
    root = _rel(got[oc.root], math.fsum(vals))
    return local <= EXACT_TOL and root <= EXACT_TOL, f"local {local:.1e}, root {root:.1e}"


def _long_distance(inp, r, gi):
    cubes = _cubes(r["cov"])
    worst = 0.0
    for i, row in r["rows"].items():
        want = cubes.long_distance_row(i)
        worst = max(worst, float(np.max(np.abs(row - want) / want)))
    return worst <= EXACT_TOL, f"rows within {worst:.1e}"


ZIGZAG_CHECKS = (
    ("volume_bracket", _volume_bracket),
    ("axioms", _axioms),
    ("superposition", _superposition),
    ("coverage", _coverage),
    ("w7", _w7),
    ("subtree_sums", _subtree_sums),
    ("long_distance", _long_distance),
)


def zigzag_checks(inp, out):
    for gi, g in enumerate(inp.graphs):
        for name, fn in ZIGZAG_CHECKS:
            yield f"{name} delta={g.delta}", lambda fn=fn, gi=gi: fn(inp, out[gi], gi)


# ---------------------------------------------------------------------------
# pv-gradients: the principal-value route of czop, no covering at all


PV_GRAD_POINTS = 3
PV_CROSS_POINTS = 4
CORNER_KS = tuple(range(3, 10))
PV_SCHED = czop.PVSchedule(n_theta=64)
DISK_GRAD_TOL = 1e-5  # grad^n B_D of a degree < n polynomial vanishes inside
CROSS_TOL = 1e-6
# Central differences with step h = dist/16 carry a relative error of order
# (h/dist)^2 near a corner at distance ~dist (leading term (h/dist)^2 / 6);
# the gradient must match the closed form within (h/dist)^2 = 1/256.
CORNER_STEP = 1.0 / 16.0


@dataclass
class PVInputs:
    disk: object
    square: object
    grad_points: list
    cross_points: dict
    corner_points: list = field(default_factory=lambda: [2.0 ** -k * np.ones(2) for k in CORNER_KS])


def pv_setup(seed, tracer):
    rng = np.random.default_rng(seed)
    disk, square = geometry.make_disk(1.0), geometry.unit_square()
    grads = []
    while len(grads) < PV_GRAD_POINTS:
        x = rng.uniform(-0.7, 0.7, 2)
        if np.hypot(*x) < 0.7:
            grads.append(x)
    cross = {"disk": [], "square": []}
    for name, dom, lo, hi in (("disk", disk, -0.6, 0.6), ("square", square, 0.15, 0.85)):
        while len(cross[name]) < PV_CROSS_POINTS:
            x = rng.uniform(lo, hi, 2)
            if dom.contains_point(x) and dom.dist_point(x) > 0.05:
                cross[name].append(x)
    return PVInputs(disk, square, grads, cross)


# (n, lambda) with |lambda| < n: grad^n B_D z^l1 zbar^l2 vanishes inside the disk
DISK_MONOMIALS = [(n, (l1, l2)) for n in (1, 2, 3) for l1 in range(n) for l2 in range(n - l1)]


def pv_pass(inp, tr):
    out = {"grad": [], "cross": {}, "corner": []}
    for x in inp.grad_points:
        for n, lam in DISK_MONOMIALS:
            with tr.span("czop.grad_transform_pv", n=n) as c:
                vals, _ = czop.grad_transform(KERNEL, inp.disk, czop.CPoly({lam: 1.0}), x, n,
                                                sched=PV_SCHED, method="pv")
            c["czop.grad_calls"] = 1
            out["grad"].append(czop.grad_total(vals))
    for name in ("disk", "square"):
        dom = inp.disk if name == "disk" else inp.square
        for P in ("1", "z", "zbar"):
            for x in inp.cross_points[name]:
                with tr.span("czop.pv_transform") as c:
                    vp, _ = czop.pv_transform(KERNEL, dom, czop.parse_cpoly(P), x)
                c["czop.pv_calls"] = 1
                with tr.span("czop.boundary_transform") as c:
                    vb, _ = czop.boundary_transform(dom, P, complex(x[0], x[1]))
                c["czop.contour_calls"] = 1
                out["cross"][(name, P, tuple(x))] = (vp, vb)
    for x in inp.corner_points:
        with tr.span("czop.grad_transform_pv", n=1) as c:
            vals, _ = czop.grad_transform(KERNEL, inp.square, czop.parse_cpoly("1"), x, 1, method="pv")
        c["czop.grad_calls"] = 1
        out["corner"].append(czop.grad_total(vals))
    return out


def _corner(inp, out, i):
    x = inp.corner_points[i]
    exact = float(ref.square_grad_total(complex(x[0], x[1]), ref.square_vertices((0, 0)), 1))
    got = out["corner"][i]
    err = abs(got - exact) / exact
    return err <= CORNER_STEP**2, f"pv {got!r}, closed form {exact!r}, relative error {err:.2e}"


def pv_checks(inp, out):
    m = len(DISK_MONOMIALS)
    for j in range(len(inp.grad_points) * m):
        n, lam = DISK_MONOMIALS[j % m]
        yield (f"disk_gradient point={j // m} n={n} lam={lam}",
               lambda j=j: (out["grad"][j] < DISK_GRAD_TOL, f"{out['grad'][j]:.1e}"))
    for name in ("disk", "square"):
        for P in ("1", "z", "zbar"):
            for x in inp.cross_points[name]:
                key = (name, P, tuple(x))

                def cross(key=key):
                    vp, vb = out["cross"][key]
                    gap = abs(vp - vb) / max(1.0, abs(vb))
                    return gap <= CROSS_TOL, f"gap {gap:.1e}"

                yield f"cross_path {name} P={P} x={np.round(x, 4).tolist()}", cross
    for i, k in enumerate(CORNER_KS):
        yield f"corner_gradient k={k}", lambda i=i: _corner(inp, out, i)


# ---------------------------------------------------------------------------
# keylemma-probe: the probe suite of keylemma.boundedness_probe


KEYLEMMA_DEPTH = 6
KEYLEMMA_P = 2.0
KEYLEMMA_NS = (1, 2)
DISK_SUM_TOL = 1e-8  # per cube: transforms of polynomials have no gradient^n inside the disk
SUM_TOL = 1e-9
NORM_TOL = 1e-12


@dataclass
class KeylemmaInputs:
    square_offset: tuple
    ocs: dict
    suite: list


def keylemma_setup(seed, tracer):
    rng = np.random.default_rng(seed)
    offset = _integer_offset(rng)
    domains = {"square": unit_square_at(offset), "disk": geometry.make_disk(1.0)}
    ocs = {}
    for name, dom in domains.items():
        tags = {"domain": name, "depth": KEYLEMMA_DEPTH}
        with tracer.span("whitney.build_covering", **tags):
            cov = whitney.build_covering(dom, 2.0**-KEYLEMMA_DEPTH, C_W=C_W)
        with tracer.span("whitney.neighbors", **tags):
            cov.neighbors()
        with tracer.span("whitney.orient", **tags):
            ocs[name] = whitney.orient(cov)
    suite = keylemma.default_suite() + [fields.random_smooth_field(rng)]
    return KeylemmaInputs(offset, ocs, suite)


def keylemma_pass(inp, tr):
    out = {}
    for name, oc in inp.ocs.items():
        dom = oc.cov.domain
        for n in KEYLEMMA_NS:
            tags = {"domain": name, "depth": KEYLEMMA_DEPTH, "n": n, "p": KEYLEMMA_P}
            with tr.span("keylemma.partial_table", **tags) as c:
                table = keylemma.TransformPartialTable(oc, n)
            c["keylemma.table_nodes"] = len(oc.cov) * table.nq
            for fi, f in enumerate(inp.suite):
                with tr.span("keylemma.keylemma_sum", **tags) as c:
                    s = keylemma.keylemma_sum(oc, KERNEL, f, n, KEYLEMMA_P, table=table)
                c["keylemma.cube_field_pairs"] = s["n_cubes"]
                with tr.span("keylemma.sobolev_norm", **tags):
                    norm = keylemma.sobolev_norm(dom, f, n, KEYLEMMA_P)
                out[(name, n, fi)] = {"sum": s, "norm": norm}
    return out


def _square_n1(inp, out, fi):
    cov = inp.ocs["square"].cov
    lo, sides = ref.cube_boxes(cov.levels, cov.indices, cov.base)
    means = ref.tripled_means(inp.suite[fi], lo + sides[:, None] / 2.0, sides, 6)
    vertices = ref.square_vertices(inp.square_offset)
    grad = ref.integrate_over_cubes(lambda z: ref.square_grad_total(z, vertices, 1) ** KEYLEMMA_P, lo, sides, 6)
    want = float(np.sum(np.abs(means) ** KEYLEMMA_P * grad))
    got = out[("square", 1, fi)]["sum"]["sum"]
    return _rel(got, want) <= SUM_TOL, f"sum {got!r} vs {want!r}"


def _square_n2_constant(inp, out):
    cov = inp.ocs["square"].cov
    lo, sides = ref.cube_boxes(cov.levels, cov.indices, cov.base)
    vertices = ref.square_vertices(inp.square_offset)
    want = float(np.sum(ref.integrate_over_cubes(
        lambda z: ref.square_grad_total(z, vertices, 2) ** KEYLEMMA_P, lo, sides, 6)))
    got = out[("square", 2, 0)]["sum"]["sum"]
    return _rel(got, want) <= SUM_TOL, f"sum {got!r} vs {want!r}"


def _abs_power_integral(a, b, p):
    """int_a^b |t|^p dt."""
    prim = lambda t: math.copysign(abs(t) ** (p + 1), t) / (p + 1)
    return prim(b) - prim(a)


def _sobolev_closed_form(inp, name, fi, p):
    """||f||_{W^{n,p}} of the constant (field 0) and coordinate (fields 1,
    2) probes: every derivative of order >= 2 vanishes, so the norm is
    ||f||_p plus ||1||_p for a coordinate."""
    if name == "square":
        area = 1.0
        lo = inp.square_offset
        coord = [_abs_power_integral(lo[a], lo[a] + 1.0, p) ** (1 / p) for a in (0, 1)]
    else:
        area = math.pi
        # int_disk |x|^p = (1/(p+2)) int_0^2pi |cos t|^p dt
        c = 2 * math.sqrt(math.pi) * math.gamma((p + 1) / 2) / math.gamma(p / 2 + 1)
        coord = [(c / (p + 2)) ** (1 / p)] * 2
    unit = area ** (1 / p)
    return [unit, coord[0] + unit, coord[1] + unit][fi]


def _sobolev(inp, out, name, n, fi):
    want = _sobolev_closed_form(inp, name, fi, KEYLEMMA_P)
    got = out[(name, n, fi)]["norm"]["full"]
    return _rel(got, want) <= NORM_TOL, f"norm {got!r} vs {want!r}"


def keylemma_checks(inp, out):
    m = len(inp.suite)
    for n in KEYLEMMA_NS:
        for fi in range(m):
            def disk(n=n, fi=fi):
                s = out[("disk", n, fi)]["sum"]
                return s["sum"] < DISK_SUM_TOL * s["n_cubes"], f"sum {s['sum']:.1e} over {s['n_cubes']} cubes"

            yield f"disk_sum n={n} field={fi}", disk
    for fi in range(m):
        yield f"square_sum_n1 field={fi}", lambda fi=fi: _square_n1(inp, out, fi)
    yield "square_sum_n2 constant", lambda: _square_n2_constant(inp, out)
    for name in ("square", "disk"):
        for n in KEYLEMMA_NS:
            for fi in (0, 1, 2):
                yield f"sobolev_norm {name} n={n} field={fi}", lambda name=name, n=n, fi=fi: _sobolev(inp, out, name, n, fi)


WORKLOADS = {
    "square-dichotomy": (square_setup, square_pass, square_checks),
    "zigzag-audit": (zigzag_setup, zigzag_pass, zigzag_checks),
    "pv-gradients": (pv_setup, pv_pass, pv_checks),
    "keylemma-probe": (keylemma_setup, keylemma_pass, keylemma_checks),
}
