"""Spans around the public functions of projcox, recorded from outside.

``Tracer.install`` replaces every public function of the package's
modules (and every public method of its classes) by a wrapper that
records a span, at each module attribute that names it.  Names imported
by value, such as ``charts.cartan_of``, get the same wrapper as the
original, so a call is traced whichever module it goes through.  The
source is not touched and ``uninstall`` restores the originals.

Self time of a span is its duration minus the part of it that its child
spans cover.  It is accumulated per function name while the run goes;
the raw spans of the first round of operations are also kept, so the
self times can be checked against the operation's duration and written
out at the end.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
import tracemalloc
from collections import Counter

LAYERS = ("linalg", "orbifold", "charts", "cartan", "certify", "cli")

#: name of the root span around one benchmark operation
OP = "op"


def _matmuls(k: int) -> int:
    """Matrix products linalg.mat_power makes for exponent k: one per
    squaring and one per set bit."""
    return k.bit_length() - 1 + bin(k).count("1")


class Tracer:
    def __init__(self):
        self.stack = []           # open spans: [name, start_ns, child_ns, span index]
        self.calls = Counter()
        self.self_ns = Counter()
        self.total_ns = Counter()
        self.work = Counter()     # counts taken at function boundaries
        self.spans = []           # kept spans: [op id, name, start_ns, end_ns, parent index]
        self.keep_spans = True
        self.op_id = -1
        self.first_round = None   # (calls, work) frozen after the first round
        self._patched = []

    # -- installation ---------------------------------------------------

    def install(self):
        """Wrap the public functions and methods of every layer module."""
        modules = [importlib.import_module(f"projcox.{m}") for m in LAYERS]
        found = {}   # original functions, in order (values unused)
        owners = []  # (owner object, attribute, original)
        seen_classes = set()
        for module in modules:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(value) and value.__module__.startswith("projcox."):
                    found[value] = None
                    owners.append((module, attr, value))
                elif (inspect.isclass(value) and value.__module__.startswith("projcox.")
                      and value not in seen_classes):
                    seen_classes.add(value)
                    for name, member in list(vars(value).items()):
                        if not name.startswith("_") and inspect.isfunction(member):
                            found[member] = None
                            owners.append((value, name, member))
        names = {}
        short = Counter(f"{f.__module__.rsplit('.', 1)[-1]}.{f.__name__}" for f in found)
        for f in found:
            layer = f.__module__.rsplit(".", 1)[-1]
            name = f"{layer}.{f.__name__}"
            names[f] = name if short[name] == 1 else f"{layer}.{f.__qualname__}"
        wrappers = {f: self._wrap(names[f], f) for f in found}
        for owner, attr, original in owners:
            setattr(owner, attr, wrappers[original])
            self._patched.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _wrap(self, name, func):
        count = _COUNTERS.get(name)
        signature = inspect.signature(func) if count else None
        enter, leave = self._enter, self._leave

        if name == "charts.solve_standard_batch":
            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                bound = signature.bind(*args, **kwargs).arguments
                enter(name)
                try:
                    result, peak = _with_peak_alloc(func, args, kwargs)
                finally:
                    leave()
                self.work.update(count(bound, result, peak))
                return result
            return wrapper

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if count:
                self.work.update(count(signature.bind(*args, **kwargs).arguments))
            enter(name)
            try:
                return func(*args, **kwargs)
            finally:
                leave()
        return wrapper

    # -- spans ----------------------------------------------------------

    def _enter(self, name):
        index = -1
        if self.keep_spans:
            parent = self.stack[-1][3] if self.stack else -1
            index = len(self.spans)
            self.spans.append([self.op_id, name, 0, 0, parent])
        self.stack.append([name, time.perf_counter_ns(), 0, index])

    def _leave(self):
        end = time.perf_counter_ns()
        name, start, child_ns, index = self.stack.pop()
        duration = end - start
        self.calls[name] += 1
        self.self_ns[name] += duration - child_ns
        self.total_ns[name] += duration
        if self.stack:
            self.stack[-1][2] += duration
        if index >= 0:
            self.spans[index][2] = start
            self.spans[index][3] = end

    def begin_op(self, op_id):
        self.op_id = op_id
        self._enter(OP)

    def end_op(self):
        self._leave()

    def end_first_round(self):
        """Freeze the counts of the first round and stop keeping spans."""
        self.first_round = (Counter(self.calls), Counter(self.work))
        self.keep_spans = False

    def write_spans(self, path):
        with open(path, "w") as stream:
            for op_id, name, start, end, parent in self.spans:
                stream.write(json.dumps({"op": op_id, "name": name, "start_ns": start,
                                         "end_ns": end, "parent": parent}) + "\n")


#: granularity of the allocation peak; coarse enough to hide the few
#: hundred bytes of Python objects whose allocation depends on what ran
#: before, so the count repeats for a seed
ALLOC_QUANTUM = 1 << 16


def _with_peak_alloc(func, args, kwargs):
    """Call func and return (result, peak bytes allocated during it,
    numpy arrays included, rounded down to ALLOC_QUANTUM)."""
    if tracemalloc.is_tracing():
        return func(*args, **kwargs), 0
    tracemalloc.start()
    try:
        result = func(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
        return result, peak - peak % ALLOC_QUANTUM
    finally:
        tracemalloc.stop()


def _solve_counts(a, result, peak):
    import numpy as np
    samples = np.broadcast(*(np.asarray(a[k]) for k in ("t13", "t24", "v23", "v24", "v34"))).size
    return {"charts.solve_standard_batch.samples": samples,
            "charts.solve_standard_batch.valid": int(np.count_nonzero(result["valid"])),
            "charts.solve_standard_batch.alloc_bytes": peak}


#: counts taken from the arguments (and result) at a function boundary
_COUNTERS = {
    "linalg.mat_power": lambda a: {"linalg.mat_power.matmuls": _matmuls(int(a["k"]))},
    "charts.solve_standard_batch": _solve_counts,
    "certify.standard_scan": lambda a: {"certify.standard_scan.samples": int(a["samples"])},
    "certify.det_locus_check": lambda a: {"certify.det_locus_check.samples": 2 * int(a["samples"])},
    "certify.concurrent_t_scan": lambda a: {
        "certify.concurrent_t_scan.points": int(a["grid_points_per_axis"]) ** 4},
}


def _covered(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_sum_error(spans) -> int:
    """Largest gap, over the operations in ``spans``, between the sum of
    the self times of an operation's spans and its root span's duration
    (nanoseconds; 0 when the self times add up exactly)."""
    children = {}
    for index, (_, _, start, end, parent) in enumerate(spans):
        children.setdefault(parent, []).append((start, end))
    sums, roots = Counter(), {}
    for index, (op_id, name, start, end, parent) in enumerate(spans):
        own = (end - start) - _covered(children.get(index, []), start, end)
        sums[op_id] += own
        if parent == -1:
            roots[op_id] = end - start
    return max((abs(sums[op] - roots[op]) for op in roots), default=0)
