"""In-memory span records for the traced run.

One span per call into the program: name, start, end, parent span and
tags, plus the work counts recorded at that call. Spans stay in memory and
are written as JSON lines once the run ends. The untraced run uses
``NullTracer``, whose spans record nothing.
"""

from __future__ import annotations

import json
import statistics
import time

LAYER_PREFIXES = ("whitney.", "carleson.", "czop.", "keylemma.")


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer, record):
        self.tracer = tracer
        self.record = record

    def __enter__(self):
        self.tracer._stack.append(self.record["id"])
        self.record["start"] = time.perf_counter()
        return self.record["counts"]

    def __exit__(self, *exc):
        self.record["end"] = time.perf_counter()
        self.tracer._stack.pop()
        return False


class Tracer:
    def __init__(self, workload: str):
        self.workload = workload
        self.spans = []
        self._stack = []

    def span(self, name: str, **tags):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "tags": {"workload": self.workload, **tags},
            "counts": {},
        }
        self.spans.append(record)
        return _Span(self, record)

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")

    def summarize(self, pass_span):
        """Layer time by span name, work counts summed over the pass's
        spans, the pass duration and its unattributed part (pass time that
        no layer span covers)."""
        children = {}
        for rec in self.spans:
            children.setdefault(rec["parent"], []).append(rec)
        root = pass_span.record
        times, counts = {}, {}
        layer_total = 0.0
        stack = list(children.get(root["id"], []))
        while stack:
            sp = stack.pop()
            for key, val in sp["counts"].items():
                counts[key] = counts.get(key, 0) + val
            if sp["name"].startswith(LAYER_PREFIXES):
                dt = sp["end"] - sp["start"]
                times[sp["name"]] = times.get(sp["name"], 0.0) + dt
                layer_total += dt
            else:
                stack.extend(children.get(sp["id"], []))
        duration = root["end"] - root["start"]
        return {"times": times, "counts": counts, "pass_s": duration, "unattributed_s": duration - layer_total}


class _NullSpan:
    def __enter__(self):
        return {}

    def __exit__(self, *exc):
        return False


class NullTracer:
    def span(self, name: str, **tags):
        return _NullSpan()


def per_layer_metrics(summaries, setup, scales, metric_names):
    """Median over passes of each layer time, each pass scaled to the
    reference speed like run_s; counts, which repeat exactly, from the last
    pass. A ``setup.`` metric is a layer's time in the set-up span, scaled
    by the median of the pass scales. Layers a workload does not call read
    0."""
    out = {}
    for name in metric_names:
        if name.startswith("setup."):
            value = setup["times"].get(name[len("setup."):-2], 0.0) * statistics.median(scales)
        elif name.startswith("trace."):
            key = name[len("trace."):]
            value = statistics.median(s[key] * f for s, f in zip(summaries, scales))
        elif name.endswith("_s"):
            value = statistics.median(s["times"].get(name[:-2], 0.0) * f for s, f in zip(summaries, scales))
        else:
            value = summaries[-1]["counts"].get(name, 0)
        out[name] = value
    return out
