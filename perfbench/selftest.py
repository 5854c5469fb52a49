"""Self-test of the benchmark's checks.

    python3 perfbench/selftest.py

Runs one pass of each workload at seed 1, confirms that every operation
passes its check, then perturbs each kind of checked output in turn (a
canvas mass times 1.01, one cube dropped, one gradient offset, ...) and
confirms that the check counts the first operation of that kind as
failed. Exits 1 if
any check does not bite. Takes about half a minute.
"""

from __future__ import annotations

import sys
import types

import numpy as np

import worker

workloads = worker.load_program()
from czdomain import carleson  # noqa: E402  (imported from the checkout's src)


def _set(container, key, value):
    old = container[key]
    container[key] = value
    return lambda: container.__setitem__(key, old)


def _chain(*undos):
    def undo():
        for u in reversed(undos):
            u()

    return undo


# -- square-dichotomy -------------------------------------------------------


def _canvas_mass(inp, out):
    mu = out["depths"][inp.depths[0]]["p"][inp.ps[0]]["mu"]
    m = min(mu.mass)
    return _set(mu.mass, m, mu.mass[m] * 1.01)


def _shadow_constant(inp, out):
    real = carleson.check_shadow_condition

    def skewed(*args, **kw):
        res = dict(real(*args, **kw))
        res["constant"] *= 1 + 1e-9
        return res

    carleson.check_shadow_condition = skewed
    return lambda: setattr(carleson, "check_shadow_condition", real)


def _shadow_sup(inp, out):
    return _set(out["depths"][inp.depths[-1]]["p"][inp.ps[0]], "shadow", 0.0)


def _increment(inp, out):
    m = out["mass"][inp.ps[0]]
    return _set(m, 2, m[1] + 1.2 * (m[2] - m[1]))


def _verdict(inp, out):
    return _set(out["verdict"], 2.5, "inconclusive")


# -- zigzag-audit -----------------------------------------------------------


def _without_largest_cube(r):
    cov = r["cov"]
    drop = int(np.argmin(cov.levels))
    keep = np.arange(len(cov)) != drop
    view = types.SimpleNamespace(levels=cov.levels[keep], indices=cov.indices[keep], base=cov.base,
                                 dim=cov.dim, min_side=cov.min_side, dropped_volume=cov.dropped_volume)
    audit = dict(r["audit"], cube_volume=r["audit"]["cube_volume"] - float(cov.sides[drop]) ** 2)
    return _chain(_set(r, "cov", view), _set(r, "audit", audit))


def _drop_cube(inp, out):
    return _without_largest_cube(out[0])


def _overlap(inp, out):
    cov = out[0]["cov"]
    child = 2 * cov.indices[:1]
    view = types.SimpleNamespace(levels=np.append(cov.levels, cov.levels[0] + 1),
                                 indices=np.vstack([cov.indices, child]), base=cov.base, dim=cov.dim)
    return _set(out[0], "cov", view)


def _w6(inp, out):
    per, total = out[0]["w6_2"]
    return _set(out[0], "w6_2", (per, total + 1))


def _w7(inp, out):
    return _set(out[0], "w7", out[0]["w7"] + 1)


def _subtree(inp, out):
    vals = out[0]["subtree"].copy()
    vals[0] *= 1 + 1e-9
    return _set(out[0], "subtree", vals)


def _long_distance(inp, out):
    rows = dict(out[0]["rows"])
    first = min(rows)
    rows[first] = rows[first].copy()
    rows[first][-1] *= 1 + 1e-9
    return _set(out[0], "rows", rows)


# -- pv-gradients -----------------------------------------------------------


def _disk_gradient(inp, out):
    return _set(out["grad"], 0, 2e-5)


def _cross(inp, out):
    key = ("disk", "1", tuple(inp.cross_points["disk"][0]))
    vp, vb = out["cross"][key]
    return _set(out["cross"], key, (vp + 1e-5, vb))


def _corner(inp, out):
    return _set(out["corner"], 0, out["corner"][0] * 1.01)


# -- keylemma-probe ---------------------------------------------------------


def _sum(key, scale=None, value=None):
    def perturb(inp, out):
        s = dict(out[key]["sum"])
        s["sum"] = value * s["n_cubes"] if value is not None else s["sum"] * scale
        return _set(out, key, dict(out[key], sum=s))

    return perturb


def _norm(inp, out):
    key = ("square", 1, 0)
    norm = dict(out[key]["norm"])
    norm["full"] *= 1 + 1e-9
    return _set(out, key, dict(out[key], norm=norm))


PERTURBATIONS = {
    "square-dichotomy": [
        ("canvas_mass", "one canvas cube's mass x 1.01", _canvas_mass),
        ("shadow_oracle", "check_shadow_condition(P) x (1 + 1e-9)", _shadow_constant),
        ("shadow_oracle", "window-sup shadow constant set to 0", _shadow_sup),
        ("mass_increment_ratio", "deepest mass increment x 1.2", _increment),
        ("verdict", "p = 2.5 verdict set to inconclusive", _verdict),
    ],
    "zigzag-audit": [
        ("volume_bracket", "largest cube dropped", _drop_cube),
        ("axioms", "a child of the first cube added", _overlap),
        ("superposition", "W6 total at dilation 2 plus 1", _w6),
        ("coverage", "largest cube dropped", _drop_cube),
        ("w7", "W7 count plus 1", _w7),
        ("subtree_sums", "one subtree sum x (1 + 1e-9)", _subtree),
        ("long_distance", "one long distance x (1 + 1e-9)", _long_distance),
    ],
    "pv-gradients": [
        ("disk_gradient", "one gradient set to 2e-5", _disk_gradient),
        ("cross_path", "one PV value offset by 1e-5", _cross),
        ("corner_gradient", "one corner gradient x 1.01", _corner),
    ],
    "keylemma-probe": [
        ("disk_sum", "one disk sum set to 1e-7 per cube", _sum(("disk", 1, 0), value=1e-7)),
        ("square_sum_n1", "one n = 1 square sum x (1 + 1e-6)", _sum(("square", 1, 0), scale=1 + 1e-6)),
        ("square_sum_n2", "the n = 2 constant-probe sum x (1 + 1e-6)", _sum(("square", 2, 0), scale=1 + 1e-6)),
        ("sobolev_norm", "one Sobolev norm x (1 + 1e-9)", _norm),
    ],
}


def _kind(name):
    return name.split(" ")[0]


def selftest(name, seed) -> bool:
    from tracing import NullTracer

    setup, run_pass, checks = workloads.WORKLOADS[name]
    tracer = NullTracer()
    inp = setup(seed, tracer)
    out = run_pass(inp, tracer)
    base = worker.run_checks(checks, inp, out)
    good = True
    bad = [(n, d) for n, ok, d in base if ok is not True]
    print(f"{name}: {len(base) - len(bad)}/{len(base)} operations pass unperturbed")
    for n, d in bad:
        print(f"  unexpected failure {n}: {d}")
        good = False
    kinds = {_kind(n) for n, _, _ in base}
    missing = kinds - {k for k, _, _ in PERTURBATIONS[name]}
    if missing:
        print(f"  no perturbation for {sorted(missing)}")
        good = False
    for kind, what, perturb in PERTURBATIONS[name]:
        target = next(n for n, _, _ in base if _kind(n) == kind)
        undo = perturb(inp, out)
        try:
            res = worker.run_checks(checks, inp, out)
        finally:
            undo()
        ok = {n: o for n, o, _ in res}
        bites = ok[target] is not True
        good &= bites
        others = sum(o is not True for n, o in ok.items() if n != target)
        print(f"  {'bites' if bites else 'DOES NOT BITE'}: {what} -> {target}"
              + (f" (+{others} other operations)" if others else ""))
    return good


def main() -> int:
    ok = all([selftest(name, seed=1) for name in PERTURBATIONS])
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
