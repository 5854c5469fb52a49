"""Time `whitney.orient` layer by layer and write a BENCH_orient.json record.

    python3 tools/bench_orient.py --tree before=OLD/src --tree after=src --out BENCH_orient.json

Each `--tree LABEL=SRC` names a czdomain source directory. For the square,
the unit disk and the zigzag graph (seed 7, delta 0.5) at depths 8, 10 and
12, every tree runs in its own subprocess (trees alternate per
configuration): the covering and its adjacency are built once, then
`orient` runs three times and the medians are kept. Each entry splits the
orientation into
  membership_s  canvas membership: `_local_boxes` calls made outside
                `_fathers`, plus the candidate binning where the tree has it
  fathers_s     time inside `_fathers`
  other_s       the rest of `orient` (central split, membership tests,
                BFS, per-cube membership lists, successor forest)
and stores its answer (membership count, hashes of `assigned_window` and
`succ`), so trees are compared on the same result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import numpy as np

DOMAINS = ("square", "disk", "zigzag")
DEPTHS = (8, 10, 12)
REPEATS = 3


def _digest(a):
    return hashlib.sha256(np.ascontiguousarray(a, dtype=np.int64).tobytes()).hexdigest()[:16]


def measure(domain: str, depth: int) -> dict:
    """Run in a worker whose PYTHONPATH selects the tree."""
    from czdomain import geometry, whitney

    dom = {"square": geometry.unit_square, "disk": lambda: geometry.make_disk(1.0),
           "zigzag": lambda: geometry.zigzag_graph_domain(np.random.default_rng(7), 0.5)}[domain]()
    cov = whitney.build_covering(dom, 2.0**-depth, C_W=1.125)
    cov.adjacency()
    dom.windows()
    oc_cls = whitney.OrientedCovering
    acc = {}
    inside = []

    def timed(name, f):
        def run(*args, **kw):
            t = time.perf_counter()
            inside.append(name)
            try:
                return f(*args, **kw)
            finally:
                inside.pop()
                if name == "fathers" or "fathers" not in inside:
                    acc[name] = acc.get(name, 0.0) + time.perf_counter() - t
        return run

    def timed_iter(f):
        def run(*args):
            it = f(*args)
            while True:
                t = time.perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    acc["membership"] = acc.get("membership", 0.0) + time.perf_counter() - t
                yield item
        return run

    oc_cls._fathers = timed("fathers", oc_cls._fathers)
    oc_cls._local_boxes = timed("membership", oc_cls._local_boxes)
    if hasattr(oc_cls, "_canvas_candidates"):
        oc_cls._canvas_candidates = timed_iter(oc_cls._canvas_candidates)
    runs = []
    for _ in range(REPEATS):
        acc.clear()
        t = time.perf_counter()
        oc = whitney.orient(cov)
        total = time.perf_counter() - t
        runs.append({"orient_s": total, "membership_s": acc["membership"], "fathers_s": acc["fathers"],
                     "other_s": total - acc["membership"] - acc["fathers"]})
    out = {key: round(statistics.median(r[key] for r in runs), 4) for key in runs[0]}
    out.update({"cubes": len(cov), "windows": len(oc.windows),
                "memberships": int(sum(map(len, oc.window_members))),
                "assigned_window_sha256": _digest(oc.assigned_window), "succ_sha256": _digest(oc.succ)})
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--tree", action="append", default=[], help="LABEL=SRC (repeatable)")
    ap.add_argument("--out", default="BENCH_orient.json")
    ap.add_argument("--worker", nargs=2, metavar=("DOMAIN", "DEPTH"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        print(json.dumps(measure(args.worker[0], int(args.worker[1]))))
        return 0
    trees = dict(t.split("=", 1) for t in args.tree)
    if not trees:
        ap.error("give at least one --tree LABEL=SRC")
    entries = []
    for domain in DOMAINS:
        for depth in DEPTHS:
            for label, src in trees.items():
                env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
                proc = subprocess.run([sys.executable, __file__, "--worker", domain, str(depth)],
                                      env=env, capture_output=True, text=True, check=True)
                entry = {"tree": label, "domain": domain, "depth": depth, **json.loads(proc.stdout)}
                print(json.dumps(entry), file=sys.stderr, flush=True)
                entries.append(entry)
    record = {
        "what": "whitney.orient after building the covering and its adjacency: each time is the "
                "median of %d runs in one process; in each run membership_s + fathers_s + other_s "
                "= orient_s" % REPEATS,
        "machine": {"platform": platform.platform(), "cpus": os.cpu_count(), "python": platform.python_version(),
                    "numpy": np.__version__},
        "trees": list(trees),
        "entries": entries,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
