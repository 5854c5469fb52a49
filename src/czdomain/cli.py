"""Command line entry point: whitney, transform, carleson, keylemma, verify.

Reports are deterministic: identical flags and seeds produce byte-identical
JSON/CSV. Exit codes: 0 all asserted invariants pass, 1 invariant failure,
2 config parse error.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import carleson, czop, fields, keylemma, whitney
from .config import ConfigError, config_hash, load_domain, parse_side
from .geometry import UnsupportedDomainError, zigzag_graph_domain

SCHEMA_VERSION = 1


def _native(obj):
    if isinstance(obj, dict):
        return {str(k): _native(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_native(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_native(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    return obj


def _json_dump(obj, path=None):
    text = json.dumps(_native(obj), sort_keys=True, indent=2) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


_NON_SEMANTIC_FLAGS = {"func", "out", "report", "dump"}


def _report_skeleton(args, cfg) -> dict:
    flags = {k: v for k, v in sorted(vars(args).items()) if k not in _NON_SEMANTIC_FLAGS and v is not None}
    return {
        "schema_version": SCHEMA_VERSION,
        "config": dict(cfg),
        "config_hash": config_hash({**cfg, **{k: str(v) for k, v in flags.items()}}),
        "flags": {k: str(v) for k, v in flags.items()},
    }


# ---------------------------------------------------------------------------


def cmd_whitney(args) -> int:
    domain, cfg = load_domain(args.domain)
    min_side = parse_side(args.min_side)
    cov = whitney.build_covering(domain, min_side, C_W=args.cw)
    oc = whitney.orient(cov)
    w4_ok, w4_bad = whitney.check_w4(cov)
    w5_ok, w5_gap = whitney.check_w5(cov)
    w2_ok = whitney.check_w2(cov)
    per_scale2, total2 = whitney.check_w6(cov, dilation=2.0)
    _, total10 = whitney.check_w6(cov, dilation=10.0)
    audit = whitney.coverage_audit(cov)
    report = _report_skeleton(args, cfg)
    report.update(
        {
            "cubes": len(cov),
            "min_side": min_side,
            "C_W": args.cw,
            "tau": cov.tau,
            "truncation": {"dropped": cov.dropped_count, "dropped_volume_bound": cov.dropped_volume},
            "axioms": {
                "W2": w2_ok,
                "W4": w4_ok,
                "W5": w5_ok,
                "W5_max_level_gap": w5_gap,
                "W6_doubled_total": total2,
                "W6_10Q_total_measured": total10,
                "W7_vertical_count": whitney.check_w7(oc),
            },
            "coverage_audit": audit,
            "central_cubes": int(np.sum(oc.central)),
            "windows": len(oc.windows),
            "semantics": {
                "axioms": "exact (integer dyadic arithmetic; closed-form boundary distances)",
                "dropped_volume_bound": "upper bound on the truncated layer volume",
                "W6_10Q_total_measured": "sampled at cube centers; grows with resolved levels",
            },
        }
    )
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write("pos,level,index,side,dist,central,successor,assigned_window\n")
            rows = zip(cov.levels.tolist(), cov.indices.tolist(), cov.sides.tolist(), cov.dists.tolist())
            for i, (level, index, side, dist) in enumerate(rows):
                idx = ";".join(map(str, index))
                fh.write(
                    f"{i},{level},{idx},{side!r},{dist!r},"
                    f"{int(oc.central[i])},{int(oc.succ[i])},{int(oc.assigned_window[i])}\n"
                )
    if args.dump:
        whitney.dump_covering(oc, args.dump)
    _json_dump(report, args.out)
    ok = w2_ok and w4_ok and w5_ok and audit["uncovered_deep_points"] == 0
    return 0 if ok else 1


def cmd_transform(args) -> int:
    domain, cfg = load_domain(args.domain)
    if args.kernel != "beurling":
        raise ConfigError(f"unknown kernel {args.kernel!r}")
    kernel = czop.beurling_kernel()
    poly = czop.parse_cpoly(args.poly)
    pts = np.loadtxt(args.points, delimiter=",", ndmin=2)
    rows = []
    for x, y in pts[:, :2]:
        if args.method == "contour":
            val, est = czop.boundary_transform(domain, poly, complex(x, y))
        else:
            val, est = czop.pv_transform(kernel, domain, poly, [x, y])
            if args.method == "auto":
                # cross-check against the exact contour route when available
                try:
                    val2, _ = czop.boundary_transform(domain, poly, complex(x, y))
                    est = max(est, abs(val - val2))
                    val = val2
                except NotImplementedError:
                    pass
        rows.append((x, y, val.real, val.imag, est))
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("x,y,value_re,value_im,error_estimate\n")
        for r in rows:
            fh.write(",".join(repr(float(v)) for v in r) + "\n")
    return 0


def cmd_carleson(args) -> int:
    domain, cfg = load_domain(args.domain)
    if args.kernel != "beurling":
        raise ConfigError(f"unknown kernel {args.kernel!r}")
    kernel = czop.beurling_kernel()
    lam = tuple(int(v) for v in args.lam.split(","))
    depths = [int(v) for v in args.depths.split(",")]
    report = _report_skeleton(args, cfg)
    series = {"mass": [], "growth": [], "shadow": []}
    per_depth = []
    for dexp in depths:
        cov = whitney.build_covering(domain, 2.0**-dexp, C_W=args.cw)
        oc = whitney.orient(cov)
        mu = carleson.cube_measure(oc, kernel, lam, args.n, args.p)
        growth = carleson.check_growth(oc, mu, args.p)["constant"]
        shadow = carleson.check_shadow_condition(oc, mu, args.p)["constant"]
        mass = mu.total()
        series["mass"].append(mass)
        series["growth"].append(growth)
        series["shadow"].append(shadow)
        per_depth.append(
            {
                "depth": dexp,
                "cubes": len(cov),
                "canvas_mass": mass,
                "growth_constant": growth,
                "shadow_constant": shadow,
                "flagged_cubes": len(mu.flagged),
                "quadrature": "gauss-legendre order 6 per axis (error flag at 5%)",
            }
        )
    verdict = carleson.growth_verdict(series["mass"])
    report.update(
        {
            "lambda": list(lam),
            "n": args.n,
            "p": args.p,
            "depths": depths,
            "per_depth": per_depth,
            "verdict": verdict,
            "verdict_series": "canvas_mass",
            "series": series,
            "semantics": {
                "canvas_mass": "total cube measure over window canvases (root shadow mass)",
                "constants": "Gauss order 6 per cube; cubes failing a 5% two-order check are flagged",
                "verdict": "depth-stability surrogate: holds < 25% variation; fails >= 2x monotone growth",
            },
        }
    )
    _json_dump(report, args.out)
    if args.expect:
        return 0 if verdict == args.expect else 1
    return 0


def cmd_keylemma(args) -> int:
    domain, cfg = load_domain(args.domain)
    if args.kernel != "beurling":
        raise ConfigError(f"unknown kernel {args.kernel!r}")
    kernel = czop.beurling_kernel()
    depths = [int(v) for v in args.depths.split(",")]
    report = _report_skeleton(args, cfg)
    sups = []
    per_depth = []
    for dexp in depths:
        cov = whitney.build_covering(domain, 2.0**-dexp, C_W=args.cw)
        oc = whitney.orient(cov)
        probe = keylemma.boundedness_probe(oc, kernel, args.n, args.p)
        sups.append(probe["sup_ratio"])
        per_depth.append({"depth": dexp, "cubes": len(cov), "probe": probe})
    report.update(
        {
            "n": args.n,
            "p": args.p,
            "depths": depths,
            "per_depth": per_depth,
            "sup_ratios": sups,
            "verdict": carleson.growth_verdict(sups),
            "semantics": {
                "sup_ratios": "key sum / Sobolev norm^p per probe field; Gauss order 6 per cube, "
                              "order 16 domain quadrature",
            },
        }
    )
    _json_dump(report, args.out)
    return 0


# ---------------------------------------------------------------------------
# verify battery


def _verify_disk(seed: int) -> dict:
    from .geometry import make_disk

    rng = np.random.default_rng(seed)
    disk = make_disk(1.0)
    cov = whitney.build_covering(disk, 2.0**-6, C_W=1.125)
    oc = whitney.orient(cov)
    kernel = czop.beurling_kernel()
    checks = {}
    checks["w2"] = whitney.check_w2(cov)
    checks["w4"] = whitney.check_w4(cov)[0]
    checks["w5"] = whitney.check_w5(cov)[0]
    checks["w6_doubled_le_4d"] = whitney.check_w6(cov, 2.0)[1] <= 4**cov.dim
    checks["central_connected"] = oc.central_connected
    # grad^n of the transform of a degree < n monomial vanishes inside
    worst = 0.0
    zs = 0.6 * (rng.uniform(-1, 1, 30) + 1j * rng.uniform(-1, 1, 30))
    zs = zs[np.abs(zs) < 0.7]
    for lam in ((0, 0), (1, 0), (0, 1)):
        eng = czop.BoundaryEngine(disk, czop.CPoly({lam: 1.0}))
        worst = max(worst, float(np.max(eng.gradient_total(sum(lam) + 1, zs))))
    checks["disk_gradients_vanish"] = worst < 1e-10
    # cross-path agreement at a few points
    agree = 0.0
    for P in ("1", "z", "zbar"):
        for _ in range(3):
            x = rng.uniform(-0.5, 0.5, 2)
            vb, _ = czop.boundary_transform(disk, P, complex(x[0], x[1]))
            vp, _ = czop.pv_transform(kernel, disk, czop.parse_cpoly(P), x)
            agree = max(agree, abs(vb - vp))
    checks["cross_path_1e-6"] = agree < 1e-6
    checks["cross_path_gap"] = agree
    # key lemma sum is tiny on the disk
    s = keylemma.keylemma_sum(oc, kernel, fields.sin_product([1.0, 1.0]), 1, 2.0)
    checks["keylemma_sum_small"] = s["sum"] < 1e-8 * s["n_cubes"]
    return checks


def _verify_square(seed: int) -> dict:
    from .geometry import unit_square

    rng = np.random.default_rng(seed + 1)
    sq = unit_square()
    cov = whitney.build_covering(sq, 2.0**-6, C_W=1.125)
    oc = whitney.orient(cov)
    kernel = czop.beurling_kernel()
    checks = {}
    checks["w2"] = whitney.check_w2(cov)
    checks["w4"] = whitney.check_w4(cov)[0]
    checks["w5"] = whitney.check_w5(cov)[0]
    eng = czop.BoundaryEngine(sq, czop.parse_cpoly("1"))
    ks = np.arange(3, 10)
    zs = np.array([2.0**-k * (1 + 1j) for k in ks])
    g = eng.gradient_total(1, zs)
    slope = float(np.polyfit(np.log(np.abs(zs)), np.log(g), 1)[0])
    checks["corner_slope"] = slope
    checks["corner_slope_ok"] = abs(slope + 1.0) < 0.1
    agree = 0.0
    for P in ("1", "z", "zbar"):
        for _ in range(3):
            x = rng.uniform(0.2, 0.8, 2)
            vb, _ = czop.boundary_transform(sq, P, complex(x[0], x[1]))
            vp, _ = czop.pv_transform(kernel, sq, czop.parse_cpoly(P), x)
            agree = max(agree, abs(vb - vp))
    checks["cross_path_1e-6"] = agree < 1e-6
    return checks


def _verify_trees(seed: int) -> dict:
    from fractions import Fraction

    rng = np.random.default_rng(seed + 2)
    ok = True
    for p in (1.5, 2.0, 3.0):
        for _ in range(8):
            n = int(rng.integers(2, 80))
            parent = [-1] + [int(rng.integers(0, i)) for i in range(1, n)]
            mu = [Fraction(int(rng.integers(0, 8)), int(rng.integers(1, 5))) for _ in range(n)]
            rho = [Fraction(int(rng.integers(1, 8)), int(rng.integers(1, 5))) for _ in range(n)]
            prob = carleson.TreeProblem(parent, mu, rho, p)
            r = int(rng.integers(0, n))
            if carleson.check_tree_condition(prob, r) != carleson.brute_force_tree_condition(prob, r):
                ok = False
    return {"tree_oracle_exact": ok}


def _verify_projection(seed: int) -> dict:
    from .poly import moment_residuals, project

    rng = np.random.default_rng(seed + 3)

    class Box:
        def __init__(self, c, s):
            self.center = np.asarray(c, float)
            self.side = s

    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 5))
        f = fields.random_polynomial_field(rng, 2, n - 1)
        cube = Box(rng.uniform(-1, 1, 2), float(rng.uniform(0.1, 1.0)))
        pr = project(f, cube, n)
        worst = max(worst, moment_residuals(f, pr, cube, n))
    return {"projection_residual": worst, "projection_ok": worst < 1e-10}


def cmd_verify(args) -> int:
    report = {
        "schema_version": SCHEMA_VERSION,
        "seed": args.seed,
        "scope": "all" if args.all else args.domain,
    }
    checks = {}
    if args.all or args.domain == "disk":
        checks["disk"] = _verify_disk(args.seed)
    if args.all or args.domain == "square":
        checks["square"] = _verify_square(args.seed)
    if args.all:
        checks["trees"] = _verify_trees(args.seed)
        checks["projection"] = _verify_projection(args.seed)
        rng = np.random.default_rng(args.seed + 9)
        dom = zigzag_graph_domain(rng, 0.5)
        cov = whitney.build_covering(dom, 2.0**-7, C_W=1.125)
        whitney.orient(cov)
        checks["zigzag"] = {
            "w2": whitney.check_w2(cov),
            "w4": whitney.check_w4(cov)[0],
            "w5": whitney.check_w5(cov)[0],
        }
    report["checks"] = checks

    def flatten_ok(node):
        if isinstance(node, dict):
            return all(flatten_ok(v) for v in node.values())
        if isinstance(node, bool):
            return node
        return True

    ok = flatten_ok(checks)
    report["all_passed"] = ok
    _json_dump(report, args.out)
    return 0 if ok else 1


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="czdomain", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    w = sub.add_parser("whitney", help="build and audit an oriented Whitney covering")
    w.add_argument("--domain", required=True)
    w.add_argument("--min-side", default="2^-8", dest="min_side")
    w.add_argument("--cw", type=float, default=1.125)
    w.add_argument("--report", help="per-cube CSV output path")
    w.add_argument("--dump", help="covering text-dump path")
    w.add_argument("--out", help="summary JSON path (stdout otherwise)")
    w.set_defaults(func=cmd_whitney)

    t = sub.add_parser("transform", help="evaluate the truncated transform at points")
    t.add_argument("--kernel", default="beurling")
    t.add_argument("--domain", required=True)
    t.add_argument("--poly", required=True)
    t.add_argument("--points", required=True, help="CSV of x,y evaluation points")
    t.add_argument("--out", required=True)
    t.add_argument("--method", choices=["auto", "pv", "contour"], default="auto")
    t.set_defaults(func=cmd_transform)

    c = sub.add_parser("carleson", help="depth sweep of the discrete Carleson conditions")
    c.add_argument("--domain", required=True)
    c.add_argument("--kernel", default="beurling")
    c.add_argument("--lambda", dest="lam", default="0,0")
    c.add_argument("--n", type=int, default=1)
    c.add_argument("--p", type=float, default=1.5)
    c.add_argument("--depths", default="10,11,12")
    c.add_argument("--cw", type=float, default=1.125)
    c.add_argument("--out")
    c.add_argument("--expect", choices=["holds", "fails", "inconclusive"])
    c.set_defaults(func=cmd_carleson)

    k = sub.add_parser("keylemma", help="boundedness probe over a probe suite")
    k.add_argument("--domain", required=True)
    k.add_argument("--kernel", default="beurling")
    k.add_argument("--n", type=int, default=1)
    k.add_argument("--p", type=float, default=2.0)
    k.add_argument("--depths", default="6,7")
    k.add_argument("--cw", type=float, default=1.125)
    k.add_argument("--out")
    k.set_defaults(func=cmd_keylemma)

    v = sub.add_parser("verify", help="run the invariant battery")
    v.add_argument("--all", action="store_true")
    v.add_argument("--domain", default="disk")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--out")
    v.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        sys.stderr.write(f"config error: {e}\n")
        return 2
    except UnsupportedDomainError as e:
        sys.stderr.write(f"unsupported domain: {e}\n")
        return 2
    except (ValueError, NotImplementedError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
