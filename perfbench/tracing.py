"""Span tracing of the latnf layers, installed from outside the library.

`from .x import f` copies the binding of `f` into the importing module, so
a wrapper is installed on every `latnf.*` module attribute (and class
attribute) that is the original function object.  Spans nest because the
benchmark is one thread with synchronous calls; each span has a name,
start, end, parent and op id.  Aggregates (calls, inclusive time, self
time) are exact for every span; the raw span list keeps the first
MAX_SPANS_PER_NAME spans of each name, so a run with hundreds of
thousands of tiny calls keeps bounded memory.

Counters are the cheap half of the same mechanism: a counter wrapper
records calls and result-derived counts, no clock, and is what the
untraced run installs for the work fingerprint.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

# Every layer function the per-layer metrics name: (module, qualname).
LAYER_FUNCTIONS = [
    ("relations", "random_relation"),
    ("relations", "compute_one_relation"),
    ("relations", "smooth_factor"),
    ("ideal_walk", "sample_beta"),
    ("ideal_walk", "check_membership"),
    ("ideal_walk", "check_norm_bound"),
    ("ideal_walk", "boundedness_check"),
    ("samplers", "sample_in_box"),
    ("samplers", "klein_sample"),
    ("approx_reduction", "approx_bkz_ideal"),
    ("approx_reduction", "dual_exp_reduce"),
    ("approx_reduction", "minkowski_columns_x"),
    ("approx_reduction", "bkp_twice"),
    ("bkz", "bkz_full"),
    ("bkz", "bkz_prime"),
    ("bkz", "hkz_reduce"),
    ("lattice_core", "lll"),
    ("lattice_core", "gso"),
    ("lattice_core", "size_reduce"),
    ("lattice_core", "enumerate_minima"),
    ("nf_core", "NumberField.embed"),
    ("nf_core", "cmp_element"),
    ("ideal_arith", "hnf_mul"),
    ("ideal_arith", "ord_at"),
    ("ideal_arith", "sample_prime_uniform"),
    ("ideal_arith", "splitting_degrees"),
    ("ideal_arith", "primes_up_to"),
    ("divisor_log", "log_embedding"),
    ("divisor_log", "log_s_embed"),
    ("sunit_pipeline", "provable_d_value"),
    ("sunit_pipeline", "postprocess"),
    ("sunit_pipeline", "verify_full"),
    ("serialize", "load_relations"),
]

MAX_SPANS_PER_NAME = 5000

HARD_CHECKS = ("ideal_walk.check_membership", "ideal_walk.check_norm_bound",
               "ideal_walk.boundedness_check")


def _result_counts(name, result, counts):
    """Counts read off a layer's return value, where the work is done."""
    if name == "samplers.sample_in_box":
        counts["samplers.box_draws"] += result.draws
    elif name == "relations.smooth_factor":
        counts["relations.smooth_hits"] += result is not None
    elif name == "relations.compute_one_relation":
        counts["relations.relations_found"] += 1
        counts["relations.attempts"] += result.attempts
    elif name == "bkz.bkz_prime":
        counts["bkz.tours"] += result[1].tours


class Patcher:
    """Replaces each listed function, in every latnf namespace holding it,
    by `make_wrapper(name, original)`; `restore` puts the originals back."""

    def __init__(self):
        self._undo = []

    def install(self, make_wrapper, functions=LAYER_FUNCTIONS):
        mods = [m for key, m in list(sys.modules.items())
                if key == "latnf" or key.startswith("latnf.")]
        for modname, qualname in functions:
            mod = importlib.import_module("latnf." + modname)
            name = f"{modname}.{qualname}"
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                owner = getattr(mod, cls_name)
                orig = owner.__dict__[attr]
                self._set(owner, attr, make_wrapper(name, orig))
                continue
            orig = getattr(mod, qualname)
            wrapper = make_wrapper(name, orig)
            for m in mods:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        self._set(m, attr, wrapper)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()


class Counter:
    """Call counts and result-derived counts; no clock is read."""

    def __init__(self):
        self.counts = defaultdict(int)
        self._patcher = Patcher()

    def install(self, functions=LAYER_FUNCTIONS):
        self._patcher.install(self._wrap, functions)

    def restore(self):
        self._patcher.restore()

    def _wrap(self, name, fn):
        counts = self.counts
        calls_key = name + ".calls"

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[calls_key] += 1
            out = fn(*args, **kwargs)
            _result_counts(name, out, counts)
            return out
        return counted


class Tracer:
    """Spans with exact per-name aggregates and a capped raw span list."""

    def __init__(self):
        self.spans = []            # (name, start, end, parent index, op id)
        self.kept = defaultdict(int)
        self.dropped = 0
        self.counts = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self._stack = []           # [name, start, child seconds, span index]
        self._active = defaultdict(int)
        self.op_id = -1
        self.op_covered = 0.0      # top-level span time in the current op
        self._patcher = Patcher()

    def install(self):
        self._patcher.install(self._wrap)

    def restore(self):
        self._patcher.restore()

    def begin_op(self, op_id: int):
        self.op_id = op_id
        self.op_covered = 0.0

    def _wrap(self, name, fn):
        tracer = self
        clock = time.perf_counter
        calls_key = name + ".calls"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1][3] if stack else -1
            idx = -1
            if tracer.kept[name] < MAX_SPANS_PER_NAME:
                tracer.kept[name] += 1
                idx = len(tracer.spans)
                tracer.spans.append(None)
            else:
                tracer.dropped += 1
            # a span not kept passes its parent on, so every kept span
            # points at its nearest kept ancestor
            frame = [name, 0.0, 0.0, idx if idx >= 0 else parent]
            stack.append(frame)
            tracer._active[name] += 1
            frame[1] = start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer._active[name] -= 1
                dur = end - start
                tracer.counts[calls_key] += 1
                # inclusive time counts outermost activations only, so a
                # recursive layer is not counted twice
                if tracer._active[name] == 0:
                    tracer.total_s[name] += dur
                tracer.self_s[name] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                else:
                    tracer.op_covered += dur
                if idx >= 0:
                    tracer.spans[idx] = (name, start, end, parent,
                                         tracer.op_id)
            _result_counts(name, out, tracer.counts)
            return out
        return traced

    def write_spans(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(span) + "\n")
