"""Outside-in tracing of `motivic`'s layers.

A :class:`Tracer` replaces chosen public functions of each module with
timing wrappers, at every place the function object is bound: the defining
module, each module that imported it by name, and the suite registry.
`uninstall` puts the original objects back.

Each wrapped call becomes a span (name, start, end, parent span, op id) kept
in memory.  A function called more than SPAN_LIMIT times within one op
switches to counting only (calls and summed time) for the rest of that op,
and so do calls nested inside such a call.  Self time is computed from the
spans afterwards: a span's duration minus the part covered by its child
spans and by counted-only calls directly beneath it.
"""

from __future__ import annotations

import functools
import inspect
import resource
import statistics
import sys
import time
from collections import defaultdict

SPAN_LIMIT = 10_000
# A traced command writes its trace to stderr as one line: marker + JSON.
TRACE_MARKER = "perfbench-trace "

# layer -> public names traced in it.  Span names are "<layer>.<name>".
TRACED = {
    "cli": ("main",),
    "suites": ("emit_report",),
    "counting": ("scan_skew",),
    "skew": ("pfaffian", "mat_det", "bareiss_det", "check_equivariance"),
    "laurent": ("parse_poly", "format_poly", "LaurentPoly2.__mul__",
                "LaurentPoly2.__pow__", "self_dual_convert"),
    "spaces": ("parse_space_expr", "ec_traced", "ec", "format_space_expr",
               "catalog_entry"),
    "weights": ("e_of_object", "ec_of_object", "vanishing_cycle_object"),
    "hilb4": ("plane_partitions", "goettsche_coeff", "macmahon_series"),
}

SUITE_NAMES = ("pfaffian", "milnor", "mhm", "hilb4", "dt", "katz")

COUNTERS = ("counting.matrices", "counting.spot_checked", "counting.cpu_s",
            "counting.worker_s", "hilb4.plane_partitions.emitted",
            "suites.checks", "suites.checks_passed")


def span_names():
    """Every span name the tracer can record, in a stable order."""
    names = [f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns]
    names += [f"suites.{s}" for s in SUITE_NAMES]
    return names


def _cpu_s():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index, op]
        self.hidden = defaultdict(float)  # span index -> counted-only time
        self.counted = {}        # name -> [calls, busy_s, self_s]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.op = 0
        self._op_calls = {}
        self._stack = []         # open frames: [span index or None, child_s]
        self._depth = defaultdict(int)
        self._patches = []       # (setter, original) pairs, for uninstall

    # -- recording -----------------------------------------------------------

    def begin_op(self, op):
        self.op = op
        self._op_calls = {}

    def wrap(self, name, fn, on_return=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, fn, on_return, args, kwargs)
        return traced

    def _call(self, name, fn, on_return, args, kwargs):
        calls = self._op_calls.get(name, 0) + 1
        self._op_calls[name] = calls
        parent = self._stack[-1] if self._stack else None
        counted_only = calls > SPAN_LIMIT or (
            parent is not None and parent[0] is None)
        frame = [None, 0.0]
        if not counted_only:
            frame[0] = len(self.spans)
            self.spans.append(None)
        outer = self._depth[name] == 0
        self._depth[name] += 1
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._depth[name] -= 1
            dur = end - start
            if parent is not None:
                parent[1] += dur
            parent_span = self._nearest_span()
            if frame[0] is not None:
                self.spans[frame[0]] = [name, start, end, parent_span, self.op]
            else:
                row = self.counted.setdefault(name, [0, 0.0, 0.0])
                row[0] += 1
                row[1] += dur if outer else 0.0
                row[2] += dur - frame[1]
                if parent is not None and parent[0] is not None:
                    self.hidden[parent[0]] += dur
        if on_return is not None:
            on_return(self, result)
        return result

    def _nearest_span(self):
        for frame in reversed(self._stack):
            if frame[0] is not None:
                return frame[0]
        return None

    def add(self, counter, amount):
        self.counters[counter] += amount

    # -- installing ----------------------------------------------------------

    def install(self):
        """Wrap every traced function wherever it is bound in `motivic`."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        from motivic import suites
        modules = [m for k, m in sorted(sys.modules.items())
                   if k == "motivic" or k.startswith("motivic.")]
        for layer, names in TRACED.items():
            home = sys.modules[f"motivic.{layer}"]
            for fn_name in names:
                span = f"{layer}.{fn_name}"
                if "." in fn_name:
                    cls_name, attr = fn_name.split(".")
                    cls = getattr(home, cls_name)
                    self._patch(cls, attr, self.wrap(span, cls.__dict__[attr]))
                    continue
                orig = getattr(home, fn_name)
                if span == "counting.scan_skew":
                    wrapper = self.wrap(span, _counted_scan(self, orig))
                elif span == "hilb4.plane_partitions":
                    wrapper = self.wrap(span, orig, _emitted_hook)
                else:
                    wrapper = self.wrap(span, orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._patch(mod, attr, wrapper)
        for name in SUITE_NAMES:
            self._patch_item(suites.SUITES, name, self.wrap(
                f"suites.{name}", suites.SUITES[name], _checks_hook))

    def _patch(self, owner, attr, value):
        orig = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        self._patches.append((lambda v, o=owner, a=attr: setattr(o, a, v),
                              orig))
        setattr(owner, attr, value)

    def _patch_item(self, mapping, key, value):
        orig = mapping[key]
        self._patches.append(
            (lambda v, m=mapping, k=key: m.__setitem__(k, v), orig))
        mapping[key] = value

    def uninstall(self):
        while self._patches:
            setter, orig = self._patches.pop()
            setter(orig)

    # -- summary -------------------------------------------------------------

    def summary(self):
        """{span name: [calls, busy_s, self_s]} over everything recorded."""
        closed = [(i, s) for i, s in enumerate(self.spans) if s is not None]
        child = defaultdict(float)
        for _, (name, start, end, parent, _op) in closed:
            if parent is not None:
                child[parent] += end - start
        out = {name: list(row) for name, row in self.counted.items()}
        for i, (name, start, end, parent, _op) in closed:
            dur = end - start
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[2] += dur - child[i] - self.hidden.get(i, 0.0)
            p = parent
            while p is not None and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p is None:
                row[1] += dur
        return out

    def dump(self):
        """Plain-data form of everything recorded, for another process."""
        return {"spans": self.spans, "hidden": dict(self.hidden),
                "counted": self.counted, "counters": self.counters}


def call_cost(repeats=5):
    """Seconds a wrapper adds to one call, as (span, counted only): the
    median over `repeats` rounds of SPAN_LIMIT wrapped calls of a no-op
    (spans), then SPAN_LIMIT more in the same op (counted only), each
    against SPAN_LIMIT bare calls."""
    def noop():
        return None

    def timed(fn):
        start = time.perf_counter()
        for _ in range(SPAN_LIMIT):
            fn()
        return time.perf_counter() - start

    spans, counted = [], []
    for _ in range(repeats):
        tracer = Tracer()
        wrapped = tracer.wrap("noop", noop)
        tracer.begin_op(0)
        bare = timed(noop)
        spans.append((timed(wrapped) - bare) / SPAN_LIMIT)
        counted.append((timed(wrapped) - bare) / SPAN_LIMIT)
    return statistics.median(spans), statistics.median(counted)


def _counted_scan(tracer, scan_skew):
    """scan_skew that also counts matrices, spot checks, CPU seconds of the
    scan (pool workers included, as they are reaped inside the call) and
    worker-seconds of wall time."""
    sig = inspect.signature(scan_skew)

    @functools.wraps(scan_skew)
    def counted(*args, **kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        cpu0 = _cpu_s()
        start = time.perf_counter()
        result = scan_skew(*args, **kwargs)
        wall = time.perf_counter() - start
        workers = max(1, min(bound.arguments["workers"], result.total))
        tracer.add("counting.cpu_s", _cpu_s() - cpu0)
        tracer.add("counting.worker_s", workers * wall)
        tracer.add("counting.matrices", result.total)
        tracer.add("counting.spot_checked", result.spot_checked)
        return result
    return counted


def _emitted_hook(tracer, result):
    tracer.add("hilb4.plane_partitions.emitted", len(result))


def _checks_hook(tracer, result):
    tracer.add("suites.checks", len(result))
    tracer.add("suites.checks_passed", sum(c.passed for c in result))
