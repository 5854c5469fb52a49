"""czdomain benchmark launcher.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Runs one workload in its own single-threaded worker process (BLAS and
OpenMP pools pinned to one thread) and prints, as the last line of
standard output, one JSON object with the keys correct, attempted, failed
and metrics. With --trace 0 the metrics are the end-to-end ones:

  setup_s      median over SETUP_RUNS worker starts that stop after set-up
               of the wall time from spawning the worker to the end of its
               set-up, each start scaled by CAL_REF_S / (time of the
               calibration loop, run in this process just before and after
               it)
  run_s        median over passes of the wall time of one pass, each pass
               scaled by CAL_REF_S / (mean time of a fixed calibration loop
               run before and after it), i.e. seconds at the reference
               host's speed (see worker.calibrate)
  peak_rss_mb  peak resident set of the measuring worker

With --trace 1 they are the per-layer metrics named in BENCHMARK.json,
taken from a separate traced worker. ``--workload all`` runs every
workload both ways and prints a table before the JSON line. The worker's
raw record (pass and calibration times, per-pass layer summaries) is kept
next to the metrics in perfbench/out/.

Imports nothing of czdomain, so a checkout without the package fails in
the worker's import and this launcher exits non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import tracing
from worker import CAL_REF_S, calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("square-dichotomy", "zigzag-audit", "pv-gradients", "keylemma-probe")
SETUP_RUNS = 6
BUDGET_S = 170.0
SINGLE_THREAD = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class WorkerError(RuntimeError):
    pass


def _per_layer_names():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return [(m["name"], m["unit"]) for m in spec["per_layer"]]


def _worker(args, extra, deadline):
    """Run one worker; returns (spawn perf_counter, its JSON result)."""
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)] + extra
    env = dict(os.environ, **SINGLE_THREAD)
    t_spawn = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker timed out after {exc.timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    return t_spawn, json.loads(lines[-1])


def run_workload(args, deadline):
    if args.trace:
        _, res = _worker(args, [], deadline)
        names = _per_layer_names()
        scales = [CAL_REF_S / c for c in res["cal_s"]]
        values = tracing.per_layer_metrics(res["passes"], res["setup"], scales, [n for n, _ in names])
        metrics = {n: {"value": values[n], "unit": u} for n, u in names}
    else:
        # perf_counter is CLOCK_MONOTONIC, shared by parent and worker
        calibrate()  # the first call pays for cold caches
        setups, cals = [], [calibrate()]
        for _ in range(SETUP_RUNS):
            t_spawn, res = _worker(args, ["--setup-only"], deadline)
            setups.append(res["t_ready"] - t_spawn)
            cals.append(calibrate())
        _, res = _worker(args, [], deadline)
        metrics = {
            "setup_s": {"value": statistics.median(s * 2 * CAL_REF_S / (c0 + c1)
                                                   for s, c0, c1 in zip(setups, cals, cals[1:])),
                        "unit": "s"},
            "run_s": {"value": statistics.median(p * CAL_REF_S / c for p, c in zip(res["pass_s"], res["cal_s"])),
                      "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    result = {"correct": res["wrong"] == 0, "attempted": res["attempted"],
              "failed": res["failed"], "metrics": metrics}
    path = os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"result": result, "worker": res, **({"setup_s": setups, "setup_cal_s": cals} if not args.trace else {})}, fh)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    try:
        if args.workload != "all":
            result = run_workload(args, time.monotonic() + BUDGET_S)
        else:
            result = {}
            for name in WORKLOADS:
                for trace in (0, 1):
                    sub = argparse.Namespace(**{**vars(args), "workload": name, "trace": trace})
                    res = run_workload(sub, time.monotonic() + BUDGET_S)
                    result.setdefault(name, {}).update(res["metrics"])
                    if not trace:
                        result[name].update({k: res[k] for k in ("correct", "attempted", "failed")})
            for name, res in result.items():
                print(f"{name}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
                for key, m in res.items():
                    if isinstance(m, dict):
                        print(f"  {key:34s} {m['value']:<22.6g} {m['unit']}")
    except WorkerError as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
