"""latnf benchmark: one closed-loop client, no threads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
`src/`.  With --trace 0 the last stdout line carries the end-to-end
metrics; with --trace 1 it carries the per-layer metrics of a traced
pass plus the tracing overhead.  The line before it is a detail record
(median and tail latency, failed ratio, work fingerprint, raw timings and
the host-speed factor).  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import collections
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_REPS = 5

# counts that must repeat exactly for a seed: (fingerprint key, counter key)
FINGERPRINT = [
    ("relations_used", "relations_used"),
    ("sample_beta_attempts", "ideal_walk.sample_beta.calls"),
    ("minkowski_columns_x_calls",
     "approx_reduction.minkowski_columns_x.calls"),
    ("hkz_calls", "bkz.hkz_reduce.calls"),
    ("bkz_tours", "bkz.tours"),
]
FINGERPRINT_FUNCTIONS = [("ideal_walk", "sample_beta"),
                         ("approx_reduction", "minkowski_columns_x"),
                         ("bkz", "hkz_reduce"), ("bkz", "bkz_prime")]


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def tail(latencies):
    """Highest whole percentile with at least 10 samples above it (nearest
    rank); None with fewer than 11 samples."""
    n = len(latencies)
    if n < 11:
        return None
    ordered = sorted(latencies)
    pct = math.floor(100 * (n - 10) / n)
    rank = max(1, math.ceil(pct * n / 100))
    return {"value": ordered[rank - 1], "percentile": pct, "samples": n}


class Calibrator:
    """Tracks the host's speed while the benchmark runs.

    On a shared host the speed of one process moves by tens of percent
    over seconds and minutes (other tenants on the same cores), which
    would swamp most changes in the library.  A fixed pure-Python kernel
    that uses no latnf code is timed after an op whenever PROBE_EVERY_S
    has passed since the last probe, and around each set-up; timings are
    scaled by REF_PROBE_S / (median probe time), i.e. to a host where the
    probe takes REF_PROBE_S.  The kernel is integer arithmetic on machine
    words, whose objects are freed at once, and the collector is off
    while it runs, so the heap the library has grown cannot reach it;
    the median keeps one slow probe from shifting a run.  Raw values go
    to the detail record.
    """

    REF_PROBE_S = 0.004
    PROBE_EVERY_S = 0.1

    def __init__(self):
        self.times = []
        self._last = -1e9

    @staticmethod
    def _kernel():
        x = 1
        for _ in range(30000):
            x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        return x

    def probe(self):
        gc_was_on = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            self._kernel()
            t1 = time.perf_counter()
        finally:
            if gc_was_on:
                gc.enable()
        self.times.append(t1 - t0)
        self._last = t1

    def maybe_probe(self):
        if time.perf_counter() - self._last >= self.PROBE_EVERY_S:
            self.probe()

    def scale(self):
        """Factor that turns a measured duration into a reference one."""
        return self.REF_PROBE_S / statistics.median(self.times)


def metric(value, unit):
    return {"value": value, "unit": unit}


class Loop:
    """Runs ops of a workload in a closed loop and keeps what they report."""

    def __init__(self, wl, cal, counter=None, tracer=None):
        self.wl = wl
        self.cal = cal
        self.counter = counter
        self.tracer = tracer
        self.latencies = []
        self.per_op = []          # counts of each op, in op order
        self.uncovered = []       # traced ops: wall time no span covers
        self.failed = 0
        self.mismatches = 0
        self.errors = []

    def one(self, i):
        source = self.tracer or self.counter
        before = dict(source.counts) if source else {}
        if self.tracer:
            self.tracer.begin_op(i)
        t0 = time.perf_counter()
        try:
            out, counts = self.wl.run(i)
        except Exception as exc:          # an op that raises is a failed op
            self.latencies.append(time.perf_counter() - t0)
            self.failed += 1
            self.errors.append(f"op {i}: {type(exc).__name__}: {exc}")
            self.per_op.append({})
            self.cal.maybe_probe()
            return
        dt = time.perf_counter() - t0
        self.latencies.append(dt)
        if self.tracer:
            self.uncovered.append(dt - self.tracer.op_covered)
        after = dict(source.counts) if source else {}
        counts = dict(counts)
        for key, val in after.items():
            if val != before.get(key, 0):
                counts[key] = val - before.get(key, 0)
        self.per_op.append(counts)
        self.cal.maybe_probe()
        errors = self.wl.check(i, out)
        if errors:
            self.failed += 1
            self.mismatches += 1
            self.errors.append(f"op {i}: " + "; ".join(errors))

    def until(self, seconds):
        start = time.perf_counter()
        i = 0
        while i == 0 or time.perf_counter() - start < seconds:
            self.one(i)
            i += 1
        return i


def kind_p50s(latencies, kinds):
    """Median latency of each input kind; op i is of kind i % kinds."""
    return [statistics.median(latencies[k::kinds])
            for k in range(min(kinds, len(latencies)))]


def typical_latency(latencies, kinds):
    """Geometric mean over input kinds of each kind's median latency.

    Every kind weighs the same, so a change to a fast kind shows here as
    much as one to a slow kind, while `ops_per_s` weighs kinds by their
    time; a median over all ops would sit inside one kind's spread."""
    p50s = kind_p50s(latencies, kinds)
    return math.exp(statistics.fmean(math.log(t) for t in p50s))


def fingerprint(per_op, n):
    ops = per_op[:n]
    totals = {key: sum(c.get(src, 0) for c in ops) for key, src in FINGERPRINT}
    blob = json.dumps([[c.get(src, 0) for _k, src in FINGERPRINT]
                       for c in ops])
    return {"ops": len(ops), **totals,
            "digest": hashlib.sha256(blob.encode()).hexdigest()[:16]}


def per_layer_metrics(tracer, per_op, overhead, uncovered_share, scale):
    from tracing import HARD_CHECKS, LAYER_FUNCTIONS
    c = collections.Counter()
    for counts in per_op:
        c.update(counts)
    tot, slf = tracer.total_s, tracer.self_s
    ops = len(per_op)
    out = {}

    def put(name, calls, s, self_s):
        out[name + ".calls"] = metric(calls / ops, "count/op")
        out[name + ".s"] = metric(s * scale / ops, "s/op")
        out[name + ".self_s"] = metric(self_s * scale / ops, "s/op")

    for mod, qual in LAYER_FUNCTIONS:
        name = f"{mod}.{qual}"
        if name not in HARD_CHECKS:
            put(name, c[name + ".calls"], tot[name], slf[name])
    put("ideal_walk.hard_checks", sum(c[n + ".calls"] for n in HARD_CHECKS),
        sum(tot[n] for n in HARD_CHECKS), sum(slf[n] for n in HARD_CHECKS))

    def ratio(num, den):
        return num / den if den else 0.0

    smooth_calls = c["relations.smooth_factor.calls"]
    out["relations.smooth_ratio"] = metric(
        ratio(c["relations.smooth_hits"], smooth_calls), "ratio")
    out["relations.attempts_per_relation"] = metric(
        ratio(c["relations.attempts"], c["relations.relations_found"]),
        "ratio")
    out["samplers.box_draws_per_sample"] = metric(
        ratio(c["samplers.box_draws"], c["samplers.sample_in_box.calls"]),
        "ratio")
    out["approx_reduction.embed_rounds_per_reduction"] = metric(
        ratio(c["approx_reduction.minkowski_columns_x.calls"],
              c["approx_reduction.approx_bkz_ideal.calls"]), "ratio")
    out["bkz.tours"] = metric(c["bkz.tours"] / ops, "count/op")
    out["sunit_pipeline.relations_used"] = metric(c["relations_used"] / ops,
                                                  "count/op")
    out["trace.overhead_ratio"] = metric(overhead, "ratio")
    out["trace.uncovered_share"] = metric(uncovered_share, "ratio")
    out["trace.ops"] = metric(ops, "count")
    return out


def main(argv=None):
    t_import = time.perf_counter()
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "latnf", "__init__.py")):
        print(f"latnf sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import tracing
    import workloads
    import_s = time.perf_counter() - t_import
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, OUT_DIR)
    try:
        return measure(args, wl, tracing, import_s)
    finally:
        if hasattr(wl, "close"):
            wl.close()


def measure(args, wl, tracing, import_s):
    cal = Calibrator()
    cal.probe()
    setup_times = []
    for _ in range(SETUP_REPS if not args.trace else 1):
        t0 = time.perf_counter()
        wl.setup()
        setup_times.append(time.perf_counter() - t0)
        cal.probe()
    detail = {"workload": wl.name, "seed": args.seed,
              "import_s": import_s, "setup_reps_s": setup_times}

    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = Loop(wl, Calibrator(), tracer=tracer)
            n = traced.until(args.seconds / 2)
        finally:
            tracer.restore()
        # the same ops again, untraced, from a fresh set-up
        wl.setup()
        plain = Loop(wl, Calibrator())
        for i in range(n):
            plain.one(i)
        loop = traced
        scale = traced.cal.scale()
        overhead = (sum(traced.latencies) * scale
                    / (sum(plain.latencies) * plain.cal.scale()))
        uncovered = sum(traced.uncovered) / sum(traced.latencies)
        metrics = per_layer_metrics(tracer, traced.per_op, overhead,
                                    uncovered, scale)
        spans_path = os.path.join(OUT_DIR,
                                  f"spans-{wl.name}-{args.seed}.jsonl")
        tracer.write_spans(spans_path)
        detail.update(spans=os.path.relpath(spans_path, ROOT),
                      spans_recorded=len(tracer.spans),
                      spans_dropped=tracer.dropped,
                      uncovered_per_op_s=traced.uncovered)
        attempted = n + len(plain.latencies)
        failed = traced.failed + plain.failed
        mismatches = traced.mismatches + plain.mismatches
        errors = traced.errors + plain.errors
    else:
        counter = tracing.Counter()
        counter.install(FINGERPRINT_FUNCTIONS)
        try:
            loop = Loop(wl, cal, counter=counter)
            n = loop.until(args.seconds)
        finally:
            counter.restore()
        scale = cal.scale()
        kinds = len(wl.CYCLE)
        raw = {"ops_per_s": n / sum(loop.latencies),
               "op_p50_s": typical_latency(loop.latencies, kinds),
               "kind_p50_s": kind_p50s(loop.latencies, kinds),
               "setup_s": import_s + statistics.median(setup_times)}
        metrics = {
            "ops_per_s": metric(raw["ops_per_s"] / scale, "1/s"),
            "peak_rss_mb": metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "MB"),
            "setup_s": metric(raw["setup_s"] * scale, "s"),
        }
        attempted, failed = n, loop.failed
        mismatches, errors = loop.mismatches, loop.errors
        detail.update(op_p50_s=raw["op_p50_s"] * scale,
                      op_tail_s=tail([t * scale for t in loop.latencies]),
                      raw=raw, host_scale=scale, probe_s=cal.times,
                      latencies_s=loop.latencies)
    # counts the ops report themselves (relations used; for classgroup the
    # pipeline's progress notes: relations skipped, verify rounds)
    op_counts = collections.Counter()
    for counts in loop.per_op:
        op_counts.update({k: v for k, v in counts.items() if "." not in k})
    detail.update(ops=n, failed_ratio=failed / attempted,
                  fingerprint=fingerprint(loop.per_op, wl.fingerprint_ops),
                  op_counts=op_counts, errors=errors[:20])
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": mismatches == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
