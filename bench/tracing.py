"""Layer spans and counters for a traced benchmark run.

The package is instrumented from outside: every module-level name of a
layer that binds a package function, and every function defined in a
layer's class bodies, is replaced by a wrapper.  A wrapper opens a span
only when the call crosses from one layer into another; calls inside a
layer pass straight through, so a layer's self time is its span time
minus the time of the nested spans of other layers.  Nothing under src/
is changed.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import time
from array import array

LAYERS = ("dyadic", "chain", "falconer", "dimension", "rounding", "digit",
          "independent", "cli")

SPAN_CAP = 200000  # spans kept for the span file; self times count all


class Tracer:
    def __init__(self):
        self.job = -1
        self.stack = []       # open spans: [layer, start, child_time, id]
        self.self_s = [0.0] * len(LAYERS)
        self.calls = [0] * len(LAYERS)
        self.counters = {
            "falconer.survivors": 0, "falconer.member_checks": 0,
            "dimension.bounds_s": 0.0, "dimension.covering_s": 0.0,
            "dimension.packing_s": 0.0, "dimension.intervals_in": 0,
            "cli.report_bytes": 0, "dyadic.peak_terms": 0,
            "digit.member_checks": 0, "digit.triple_sums": 0,
            "rounding.brackets": 0, "rounding.doublings": 0,
            "rounding.decided_first_try": 0,
            "independent.tuples_checked": 0,
        }
        self.names = []
        self._name_ids = {}
        self.span_count = 0
        # span columns: id, name id, layer, start, end, parent id, job id
        self.s_id, self.s_name, self.s_layer = array("l"), array("l"), \
            array("l")
        self.s_start, self.s_end = array("d"), array("d")
        self.s_parent, self.s_job = array("l"), array("l")
        self._undo = []

    # --- wrapping ---

    def _wrap(self, fn, layer, hook=None, inner=False):
        """Wrapper for fn, a function of `layer`.  hook(args, kwargs,
        result, seconds) runs after each call that crosses into the layer,
        and after calls inside the layer too when `inner` is set."""
        li = LAYERS.index(layer)
        name = f"{fn.__module__.split('.')[-1]}.{fn.__qualname__}"
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        stack, perf = self.stack, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == li:
                if not inner:
                    return fn(*args, **kwargs)
                t0 = perf()
                res = fn(*args, **kwargs)
                hook(args, kwargs, res, perf() - t0)
                return res
            sid = tracer.span_count
            tracer.span_count += 1
            parent = stack[-1][3] if stack else -1
            t0 = perf()
            frame = [li, t0, 0.0, sid]
            stack.append(frame)
            try:
                res = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                tracer.self_s[li] += dur - frame[2]
                tracer.calls[li] += 1
                if stack:
                    stack[-1][2] += dur
                if sid < SPAN_CAP:
                    tracer.s_id.append(sid)
                    tracer.s_name.append(nid)
                    tracer.s_layer.append(li)
                    tracer.s_start.append(t0)
                    tracer.s_end.append(t1)
                    tracer.s_parent.append(parent)
                    tracer.s_job.append(tracer.job)
            if hook is not None:
                hook(args, kwargs, res, t1 - t0)
            return res

        return wrapper

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]
                           if isinstance(owner, type) else
                           getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, package):
        """Patch every layer module of `package` (the imported thinsets)."""
        modules = {layer: getattr(package, layer) for layer in LAYERS}
        hooks = self._hooks()
        cwb = package.rounding.compare_with_bracket
        wrapped = {}  # original function -> wrapper, shared by all names

        def wrap_fn(fn):
            if fn not in wrapped:
                layer = fn.__module__.split(".")[-1]
                hook, inner = hooks.get(f"{layer}.{fn.__name__}",
                                        (None, False))
                target = self._counting_compare(fn) if fn is cwb else fn
                wrapped[fn] = self._wrap(target, layer, hook, inner)
            return wrapped[fn]

        def is_layer_fn(obj):
            return (inspect.isfunction(obj)
                    and obj.__module__.split(".")[0] == package.__name__
                    and obj.__module__.split(".")[-1] in LAYERS)

        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if is_layer_fn(obj):
                    self._set(mod, attr, wrap_fn(obj))
                elif (inspect.isclass(obj) and obj.__module__ == mod.__name__
                      and not issubclass(obj, BaseException)):
                    for cattr, val in list(vars(obj).items()):
                        if cattr.startswith("__") and cattr != "__init__":
                            continue
                        if isinstance(val, (classmethod, staticmethod)) \
                                and inspect.isfunction(val.__func__):
                            self._set(obj, cattr,
                                      type(val)(wrap_fn(val.__func__)))
                        elif inspect.isfunction(val):
                            self._set(obj, cattr, wrap_fn(val))
        for attr, obj in list(vars(package).items()):
            if is_layer_fn(obj):
                self._set(package, attr, wrap_fn(obj))

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # --- counters ---

    def _hooks(self):
        """Counter hooks by layer.function, with whether each also counts
        calls made inside the layer."""
        c = self.counters

        def add(key, amount):
            c[key] += amount

        def count(key):
            return lambda a, k, res, dt: add(key, 1)

        def survivors(a, k, res, dt):
            add("falconer.survivors", len(res))

        def timed(key, count_intervals=False):
            def hook(a, k, res, dt):
                add(key, dt)
                if count_intervals:
                    add("dimension.intervals_in", len(a[0]))
            return hook

        def report_bytes(a, k, res, dt):
            path = res[1]
            size = os.path.getsize(path)
            csv = os.path.join(os.path.dirname(path), f"{a[0]}_table.csv")
            if a[0] == "dim" and os.path.exists(csv):
                size += os.path.getsize(csv)
            add("cli.report_bytes", size)

        def peak_terms(a, k, res, dt):
            for v in (a[0] if a else None, res):
                terms = None if isinstance(v, type) \
                    else getattr(v, "_terms", None)
                if terms is not None and len(terms) > c["dyadic.peak_terms"]:
                    c["dyadic.peak_terms"] = len(terms)

        def triple_sums(a, k, res, dt):
            add("digit.triple_sums", res["total"])

        def tuples(key):
            def hook(a, k, res, dt):
                add("independent.tuples_checked", res[key])
            return hook

        hooks = {
            "falconer.enumerate_window": (survivors, True),
            "falconer.member_depth": (count("falconer.member_checks"), True),
            "dimension.intervals_from_lattice":
                (timed("dimension.bounds_s"), True),
            "dimension.covering_number":
                (timed("dimension.covering_s", True), True),
            "dimension.packing_number":
                (timed("dimension.packing_s", True), True),
            "cli.run": (report_bytes, False),
            "digit.member_K": (count("digit.member_checks"), True),
            "digit.verify_triple_sumset": (triple_sums, True),
            "rounding.ln_bracket": (count("rounding.brackets"), True),
            "rounding.pow_bracket": (count("rounding.brackets"), True),
            "independent.relation_scan": (tuples("tuples_checked"), True),
            "independent.quadruple_scan": (tuples("pairs_checked"), True),
        }
        for name in ("add", "sub", "neg", "scale_pow2", "sign", "compare",
                     "dist_to_lattice", "from_fraction", "from_json",
                     "power"):
            hooks[f"dyadic.{name}"] = (peak_terms, False)
        return hooks

    def _counting_compare(self, original):
        """compare_with_bracket that counts how often it evaluates its
        rhs_fn bracket: one evaluation means decided at the first
        precision, each further one is a doubling."""
        c = self.counters

        @functools.wraps(original)
        def compare_with_bracket(lhs, rhs_fn, *args, **kwargs):
            calls = [0]

            def counted(p):
                calls[0] += 1
                return rhs_fn(p)

            try:
                return original(lhs, counted, *args, **kwargs)
            finally:
                c["rounding.doublings"] += max(0, calls[0] - 1)
                c["rounding.decided_first_try"] += calls[0] == 1

        return compare_with_bracket

    # --- results ---

    def metrics(self, passes, speed=1.0):
        """Per-layer metrics, each divided by the number of passes; times
        are multiplied by `speed`."""
        out = {}
        for li, layer in enumerate(LAYERS):
            out[f"{layer}.self_s"] = self.self_s[li] * speed / passes
        for layer in ("falconer", "dyadic", "chain"):
            out[f"{layer}.calls"] = self.calls[LAYERS.index(layer)] / passes
        for key, value in self.counters.items():
            if key.endswith("_s"):
                value *= speed
            out[key] = value if key == "dyadic.peak_terms" else value / passes
        return out

    def write_spans(self, path):
        """Kept spans as JSON lines, in the order they ended: id, name,
        layer, start, end, parent id (-1 for a job's root), job index."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"names": self.names, "layers": LAYERS,
                                 "spans_total": self.span_count,
                                 "spans_kept": len(self.s_name)}) + "\n")
            for i in range(len(self.s_name)):
                fh.write(json.dumps([self.s_id[i],
                                     self.names[self.s_name[i]],
                                     LAYERS[self.s_layer[i]],
                                     round(self.s_start[i], 7),
                                     round(self.s_end[i], 7),
                                     self.s_parent[i], self.s_job[i]]) + "\n")
