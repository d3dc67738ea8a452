"""Span tracing from outside the program.

A traced run replaces selected module attributes of oracle_lab with
wrappers, so a call resolves to the wrapper exactly where its caller looks
the name up (``oracle_lab.verify.loss`` is the loss that ``sweep`` calls,
``oracle_lab.oracle.loss`` the one ``optimal_transitions`` calls).  Every
wrapped call records one span: name, start, end and the index of the span
that was open when it began.  Spans stay in memory in flat arrays and are
written out once, after the run.

Functions called directly inside the program and not looked up through a
module attribute (``transitions._construct`` from ``verify``, for example)
are not seen, so their time stays in their caller's self time.
"""

from __future__ import annotations

import json
import statistics
from array import array
from time import perf_counter_ns


class Tracer:
    def __init__(self):
        self.names = []  # span name per id
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.result_sizes = {}  # span name -> summed len(result)
        self._open = []
        self._patched = []

    def _id(self, name):
        k = self._ids.get(name)
        if k is None:
            k = self._ids[name] = len(self.names)
            self.names.append(name)
        return k

    def wrap(self, fn, name, split=None, count_result=False):
        """Return fn wrapped to record spans named name, or name.<split(args)>
        when split is given (the strategy, for most layers)."""
        ids = {}
        fixed = self._id(name)
        open_ = self._open
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        sizes = self.result_sizes

        def traced(*args, **kwargs):
            if split is None:
                k = fixed
            else:
                part = split(args)
                k = ids.get(part)
                if k is None:
                    k = ids[part] = self._id(f"{name}.{part}")
            idx = len(name_id)
            name_id.append(k)
            parent.append(open_[-1] if open_ else -1)
            start.append(0)
            end.append(0)
            open_.append(idx)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                open_.pop()
                start[idx] = t0
                end[idx] = t1
            if count_result:
                key = self.names[k]
                sizes[key] = sizes.get(key, 0) + len(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, module, attr, name, split=None, count_result=False):
        original = getattr(module, attr)
        self._patched.append((module, attr, original, self.wrap(original, name, split, count_result)))

    def repatch(self):
        """Put every wrapper in place; spans recorded so far are kept."""
        for module, attr, _, traced in self._patched:
            setattr(module, attr, traced)

    def unpatch(self):
        for module, attr, original, _ in reversed(self._patched):
            setattr(module, attr, original)

    def __len__(self):
        return len(self.name_id)

    def summary(self):
        """Per span name: calls, total and self seconds and the list of
        durations in microseconds.  Self time is the span's duration minus
        the part its child spans cover; calls nest strictly (one thread),
        so that part is the sum of the direct children's durations."""
        n = len(self.name_id)
        dur = [self.end[k] - self.start[k] for k in range(n)]
        child = [0] * n
        for k in range(n):
            p = self.parent[k]
            if p >= 0:
                child[p] += dur[k]
        out = {name: {"calls": 0, "total_ns": 0, "self_ns": 0, "us": []} for name in self.names}
        for k in range(n):
            row = out[self.names[self.name_id[k]]]
            row["calls"] += 1
            row["total_ns"] += dur[k]
            row["self_ns"] += dur[k] - child[k]
            row["us"].append(dur[k] / 1e3)
        return out

    def child_totals(self, parent_prefix, child_prefix):
        """(count, summed ns) of spans named child_prefix* whose parent span
        is named parent_prefix*, grouped by the parent's full name."""
        pick_parent = {k for k, nm in enumerate(self.names) if nm.startswith(parent_prefix)}
        pick_child = {k for k, nm in enumerate(self.names) if nm.startswith(child_prefix)}
        out = {}
        for k in range(len(self.name_id)):
            if self.name_id[k] not in pick_child:
                continue
            p = self.parent[k]
            if p < 0 or self.name_id[p] not in pick_parent:
                continue
            key = self.names[self.name_id[p]]
            cnt, ns = out.get(key, (0, 0))
            out[key] = (cnt + 1, ns + self.end[k] - self.start[k])
        return out

    def write(self, path):
        """One JSON header line (span names, span count, array layout), then
        the four arrays in native byte order: name id (int32), parent index
        (int32, -1 for a root span), start and end (int64 perf_counter ns)."""
        with open(path, "wb") as fh:
            header = {
                "names": self.names,
                "spans": len(self.name_id),
                "arrays": ["name_id:i4", "parent:i4", "start_ns:i8", "end_ns:i8"],
            }
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.name_id, self.parent, self.start, self.end):
                arr.tofile(fh)


def percentile_us(samples, q):
    """q-th percentile (1..99) as statistics.quantiles gives it; the single
    value for one sample and 0.0 for none."""
    if not samples:
        return 0.0
    if len(samples) == 1:
        return float(samples[0])
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]
