"""One workload process: set up, then timed passes and their checks.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

The package is imported from the ``src`` directory of the checkout that
holds this file, never from an installed copy. Prints one JSON line: the
perf_counter reading when set-up ended (the launcher turns it into set-up
time), the pass times, the mean calibration time around each pass, the
checked operations and the peak resident set at the end of the first pass,
before its checks.
With ``--trace 1`` it also writes the spans as JSON lines under
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT_DIR = os.path.join(HERE, "out")
MIN_PASSES = 3
CAL_REF_S = 0.2  # calibrate() on the reference host; pass times are scaled to it


def load_program():
    """Import czdomain from this checkout's src directory."""
    sys.path.insert(0, SRC)
    import czdomain

    if not os.path.abspath(czdomain.__file__).startswith(SRC + os.sep):
        raise ImportError(f"czdomain imported from {czdomain.__file__}, not from {SRC}")
    import workloads

    return workloads


def calibrate() -> float:
    """Wall time of a fixed mix of work shaped like czdomain's own: an
    interpreter loop, whole-array numpy arithmetic, and interpreter loops
    over small arrays, dicts and complex lists (about 0.2 s on an idle
    2.1 GHz Xeon core). Each pass time is divided by the calibration times
    taken just before and after it, so that the speed of a shared host,
    which drifts by tens of percent over tens of seconds, largely cancels."""
    import numpy as np

    t0 = time.perf_counter()
    acc = 0
    for i in range(600_000):
        acc += i * i % 7
    big = np.arange(30_000.0)  # small, so that it adds little to peak_rss_mb
    for _ in range(500):
        big = np.sqrt(big * big + 1.0)
    table = {}
    x = np.arange(16.0)
    for i in range(12_000):
        table[i % 97] = float(np.sqrt(x * x + i).sum())
    for i in range(3_000):
        v = np.linspace(0.0, 1.0, 64)
        w = np.exp(-v * i / 3000.0)
        table[i % 89] = [complex(a, b) for a, b in zip(v[:8], w[:8])], float(np.dot(v, w))
    return time.perf_counter() - t0


def run_checks(checks, inp, out):
    """[(name, ok, detail)] with ok True, False (wrong output) or None
    (the check could not be evaluated, e.g. the pass raised)."""
    results = []
    for name, thunk in checks(inp, out):
        try:
            ok, detail = thunk()
            ok = bool(ok)
        except Exception as exc:  # a failed operation, counted and reported
            ok, detail = None, f"raised {exc!r}"
        results.append((name, ok, detail))
    return results


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    workloads = load_program()
    import tracing

    setup, run_pass, checks = workloads.WORKLOADS[args.workload]
    tracer = tracing.Tracer(args.workload) if args.trace else tracing.NullTracer()
    setup_span = tracer.span("setup", seed=args.seed)
    with setup_span:
        inp = setup(args.seed, tracer)
    t_ready = time.perf_counter()
    if args.setup_only:
        print(json.dumps({"t_ready": t_ready}))
        return 0

    calibrate()  # the first call pays for cold caches and page faults
    # one calibration after each pass, before its checks, serves as the
    # calibration after that pass and before the next
    before = calibrate()
    pass_s, cal_s, summaries, log = [], [], [], []
    attempted = failed = wrong = tried = 0
    peak_rss_mb = None
    while sum(pass_s) < args.seconds or len(pass_s) < MIN_PASSES:
        if time.perf_counter() - t_ready > 3 * args.seconds + 30:
            break
        tried += 1
        t0 = time.perf_counter()
        span = tracer.span("pass", index=tried)
        try:
            with span:
                out = run_pass(inp, tracer)
            pass_s.append(time.perf_counter() - t0)
            if peak_rss_mb is None:  # before any check runs, so it is the program's peak
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            after = calibrate()
            cal_s.append(0.5 * (before + after))
            before = after
            if args.trace:
                summaries.append(tracer.summarize(span))
        except Exception:
            traceback.print_exc()
            out = None
        results = run_checks(checks, inp, out)
        del out
        gc.collect()
        attempted += len(results)
        failed += sum(ok is not True for _, ok, _ in results)
        wrong += sum(ok is False for _, ok, _ in results)
        if not log:
            log = results
        for name, ok, detail in results:
            if ok is not True:
                sys.stderr.write(f"[{args.workload}] {name}: {'FAILED' if ok is False else 'ERROR'} {detail}\n")
    if not pass_s:
        sys.stderr.write("no pass completed\n")
        return 1

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}")
    with open(stem + "-checks.txt", "w", encoding="utf-8") as fh:
        for name, ok, detail in log:
            fh.write(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}\n")
    result = {
        "t_ready": t_ready,
        "pass_s": pass_s,
        "cal_s": cal_s,
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "peak_rss_mb": peak_rss_mb,
    }
    if args.trace:
        tracer.write(stem + "-trace.jsonl")
        result["passes"] = summaries
        result["setup"] = tracer.summarize(setup_span)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
