"""In-process span tracing of the library's layer boundaries.

``Tracer.install`` rebinds, in this process only, the entry points that
``randcurve.stats`` and ``randcurve.covers`` call by name (and the two
linked-pair kernels ``self_intersection`` dispatches to) to wrappers that
record a span per call: name, start, end, parent span and the id of the
sample (``_measure_one`` call) it belongs to.  ``restore`` puts every
original object back.  A target whose name no longer exists is reported as
absent instead of failing the run.

Spans stay in memory; ``layer_metrics`` turns them into per-layer numbers,
where a layer's self time is its span time minus that of its child spans.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import math
import statistics
from collections import defaultdict
from time import perf_counter_ns


def _period(seq) -> int:
    """Length of the primitive root of a cyclic sequence."""
    n = len(seq)
    for p in range(1, n + 1):
        if n % p == 0 and seq == seq[:p] * (n // p):
            return p
    return n


def _root_length(args, result):
    return _period(args[0].darts)


def _kernel_length(args, result):
    return len(args[0].darts)


def _lifting_degree(args, result):
    return result.degree or 0  # 0: not found; None marks a call that raised


def _minimizer_outcome(args, result):
    return result.iterations, result.status == "converged"


# (module, attribute path, span name, attribute recorder, starts a sample)
TARGETS = (
    ("randcurve.stats", "_measure_one", "stats.sample", None, True),
    ("randcurve.stats", "_sample_word", "stats.sample_word", None, False),
    ("randcurve.stats", "surface", "ribbon.surface", None, False),
    ("randcurve.stats", "cyclic_reduce", "words.cyclic_reduce", None, False),
    ("randcurve.stats", "self_intersection", "intersect.self_intersection",
     _root_length, False),
    ("randcurve.stats", "intersection", "intersect.intersection", None, False),
    ("randcurve.stats", "spiraling", "intersect.spiraling", None, False),
    ("randcurve.stats", "conjugates_in_ball", "words.conjugates_in_ball",
     None, False),
    ("randcurve.covers", "simple_lifting_degree",
     "covers.simple_lifting_degree", _lifting_degree, False),
    ("randcurve.covers", "self_intersection", "intersect.self_intersection",
     _root_length, False),
    ("randcurve.covers", "linked_pair_matrix", "intersect.linked_pair_matrix",
     None, False),
    ("randcurve.fricke", "minimize_length", "fricke.minimize_length",
     _minimizer_outcome, False),
    ("randcurve.intersect", "EdgePath.from_word",
     "intersect.EdgePath.from_word", None, False),
    ("randcurve.words", "CyclicWord.primitive_root",
     "words.CyclicWord.primitive_root", None, False),
    ("randcurve.intersect", "primitive_self_count",
     "intersect.primitive_self_count", None, False),
    ("randcurve._fastint", "rose_self_count", "fastint.rose_self_count",
     _kernel_length, False),
)

ROOT_SPAN = "stats.run_experiment"

BUCKETS = (("L1-7", 1, 7), ("L8-63", 8, 63), ("L64-511", 64, 511),
           ("L512-up", 512, math.inf))
MAX_DEGREE = 5

# The vectorized kernel holds six L x L tables at once: SH, T_ff, PD_ff and
# T_fb as int64, MF and MA as bool.
KERNEL_TABLE_BYTES_PER_L2 = 4 * 8 + 2 * 1


class Tracer:
    """Span recorder; one per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # (span id, name id, start ns, end ns, parent id, sample id, attr)
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._sample = -1
        self._next = 0
        self._saved: list[tuple] = []
        self.absent: dict[str, str] = {}

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _enter(self, starts_sample: bool):
        idx = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else -1
        outer_sample = self._sample
        if starts_sample:
            self._sample = idx
        self._stack.append(idx)
        return idx, parent, outer_sample

    def _exit(self, idx, name_id, t0, t1, parent, outer_sample, attr):
        self._stack.pop()
        self.spans.append((idx, name_id, t0, t1, parent, self._sample, attr))
        self._sample = outer_sample

    def wrap(self, fn, name: str, record=None, starts_sample=False):
        name_id = self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx, parent, outer = self._enter(starts_sample)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._exit(idx, name_id, t0, perf_counter_ns(), parent,
                           outer, None)
                raise
            # the recorder runs after the span ends, so it is not charged
            t1 = perf_counter_ns()
            self._exit(idx, name_id, t0, t1, parent, outer,
                       record(args, result) if record else None)
            return result

        return traced

    def call_root(self, fn, *args):
        """Call ``fn`` inside a root span named ``ROOT_SPAN``."""
        return self.wrap(fn, ROOT_SPAN)(*args)

    def install(self, targets=TARGETS) -> None:
        for module, path, name, record, starts_sample in targets:
            *owner_path, attr = path.split(".")
            try:
                owner = importlib.import_module(module)
                for part in owner_path:
                    owner = getattr(owner, part)
                original = vars(owner)[attr]
            except (ImportError, AttributeError, KeyError):
                self.absent[name] = f"{module}.{path} no longer exists"
                continue
            if isinstance(original, classmethod):
                new = classmethod(self.wrap(original.__func__, name, record,
                                            starts_sample))
            else:
                new = self.wrap(original, name, record, starts_sample)
            setattr(owner, attr, new)
            self._saved.append((owner, attr, original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path: str) -> None:
        """Write every span, column-wise, as gzip-compressed JSON."""
        cols = list(zip(*self.spans)) or [()] * 7
        keys = ("id", "name", "start_ns", "end_ns", "parent", "sample", "attr")
        doc = {"names": self.names, "absent": self.absent,
               "spans": {k: list(c) for k, c in zip(keys, cols)}}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _tail(values):
    """Highest percentile with at least ten samples beyond it, and its rank
    in percent; the maximum when there are fewer than eleven samples."""
    v = sorted(values)
    n = len(v)
    if n <= 10:
        return v[-1], 100.0
    return v[n - 11], 100.0 * (n - 10) / n


def layer_metrics(tracer: Tracer, passes: int) -> tuple[dict, dict]:
    """Per-layer metrics, as ``{name: (value, unit)}``, and the absent
    metrics with the reason each is absent.

    Counts and self times are per traced pass; per-call times are means
    over every call.  A metric whose layer made no call reads 0 and is
    listed as absent.
    """
    child = defaultdict(int)
    for idx, _, t0, t1, parent, _, _ in tracer.spans:
        if parent >= 0:
            child[parent] += t1 - t0
    by_name = defaultdict(list)  # name -> [(duration ns, self ns, attr)]
    for idx, ni, t0, t1, parent, sample, attr in tracer.spans:
        by_name[tracer.names[ni]].append((t1 - t0, t1 - t0 - child[idx], attr))

    metrics: dict = {}
    absent: dict = {}

    def reason(span):
        return tracer.absent.get(span, f"{span} made no call on this workload")

    def put(metric, value, unit, span=None, calls=None):
        metrics[metric] = (value, unit)
        if span is not None and not calls:
            absent[metric] = reason(span)

    def calls(span):
        return len(by_name.get(span, ()))

    def self_s(span):
        return sum(s for _, s, _ in by_name.get(span, ())) / 1e9 / passes

    def mean_ns(rows):
        return statistics.fmean(d for d, _, _ in rows) if rows else 0.0

    samples = [d for d, _, _ in by_name.get("stats.sample", ())]
    n = len(samples)
    p50, (tail, tail_pct) = ((statistics.median(samples), _tail(samples))
                             if samples else (0.0, (0.0, 0.0)))
    put("stats.sample.count", n / passes, "count", "stats.sample", n)
    put("stats.sample.ms.p50", p50 / 1e6, "ms", "stats.sample", n)
    put("stats.sample.ms.tail", tail / 1e6, "ms", "stats.sample", n)
    put("stats.sample.tail_pct", tail_pct, "%", "stats.sample", n)
    put("stats.sample_word.us_per_call",
        mean_ns(by_name.get("stats.sample_word", ())) / 1e3, "us",
        "stats.sample_word", calls("stats.sample_word"))
    put("stats.harness.self_s", self_s(ROOT_SPAN), "s")

    put("ribbon.surface.calls", calls("ribbon.surface") / passes, "count")
    put("ribbon.surface.self_s", self_s("ribbon.surface"), "s",
        "ribbon.surface", calls("ribbon.surface"))

    for span in ("words.cyclic_reduce", "intersect.EdgePath.from_word",
                 "intersect.intersection"):
        put(f"{span}.us_per_call", mean_ns(by_name.get(span, ())) / 1e3, "us",
            span, calls(span))
    for span in ("words.CyclicWord.primitive_root", "words.conjugates_in_ball"):
        put(f"{span}.calls", calls(span) / passes, "count")
        put(f"{span}.self_s", self_s(span), "s", span, calls(span))

    si = by_name.get("intersect.self_intersection", ())
    for label, lo, hi in BUCKETS:
        rows = [r for r in si if lo <= r[2] <= hi]
        span = "intersect.self_intersection"
        put(f"{span}.calls.{label}", len(rows) / passes, "count")
        put(f"{span}.us_per_call.{label}", mean_ns(rows) / 1e3, "us",
            span, len(rows))

    for span in ("intersect.primitive_self_count", "fastint.rose_self_count",
                 "intersect.spiraling"):
        put(f"{span}.self_s", self_s(span), "s", span, calls(span))
    kernel = [r[2] for r in by_name.get("fastint.rose_self_count", ())]
    put("fastint.rose_self_count.pairs",
        sum(L * (L - 1) // 2 for L in kernel) / passes, "count",
        "fastint.rose_self_count", len(kernel))
    put("fastint.rose_self_count.table_bytes",
        KERNEL_TABLE_BYTES_PER_L2 * max(kernel, default=0) ** 2, "bytes",
        "fastint.rose_self_count", len(kernel))
    lpm = by_name.get("intersect.linked_pair_matrix", ())
    put("intersect.linked_pair_matrix.ms_per_call", mean_ns(lpm) / 1e6, "ms",
        "intersect.linked_pair_matrix", len(lpm))

    span = "covers.simple_lifting_degree"
    lift = by_name.get(span, ())
    found = [r for r in lift if r[2]]
    not_found = [r for r in lift if r[2] == 0]
    put(f"{span}.ms_per_call.found", mean_ns(found) / 1e6, "ms", span,
        len(found))
    put(f"{span}.ms_per_call.not_found", mean_ns(not_found) / 1e6, "ms", span,
        len(not_found))
    put(f"{span}.self_s", self_s(span), "s", span, len(lift))
    put(f"{span}.found_ratio", len(found) / len(lift) if lift else 0.0,
        "ratio", span, len(lift))
    for d in range(1, MAX_DEGREE + 1):
        put(f"{span}.calls.d{d}",
            sum(1 for r in found if r[2] == d) / passes, "count")

    span = "fricke.minimize_length"
    mins = [r for r in by_name.get(span, ()) if r[2] is not None]
    iters = sum(r[2][0] for r in mins)
    converged = sum(1 for r in mins if r[2][1])
    put(f"{span}.ms_per_call", mean_ns(mins) / 1e6, "ms", span, len(mins))
    put(f"{span}.iterations", iters / passes, "count")
    put(f"{span}.us_per_iteration",
        sum(r[0] for r in mins) / iters / 1e3 if iters else 0.0, "us", span,
        iters)
    put(f"{span}.converged_ratio", converged / len(mins) if mins else 0.0,
        "ratio", span, len(mins))

    put("trace.spans", len(tracer.spans) / passes, "count")
    return metrics, absent


def span_problems(tracer: Tracer) -> list[str]:
    """Ways the spans fail to form a tree of nested calls.

    A layer's self time, and ``stats.harness.self_s`` with it, is its span
    time minus that of its child spans.  The top-level spans plus the
    harness self time add up to the traced time only if every child lies
    inside its parent and the children of one span do not overlap; a span
    under a sample must also carry that sample's id.
    """
    spans = {s[0]: s for s in tracer.spans}
    problems = []
    last_end = {}  # parent id -> end of the child before, in start order
    for idx, ni, t0, t1, parent, sample, _ in sorted(
            tracer.spans, key=lambda s: s[2]):
        name = tracer.names[ni]
        if t1 < t0:
            problems.append(f"span {idx} ({name}) ends before it starts")
        if parent < 0:
            continue
        up = spans.get(parent)
        if up is None:
            problems.append(f"span {idx} ({name}) has no recorded parent")
            continue
        if not up[2] <= t0 <= t1 <= up[3]:
            problems.append(f"span {idx} ({name}) lies outside its parent")
        if t0 < last_end.get(parent, t0):
            problems.append(f"span {idx} ({name}) overlaps a sibling")
        last_end[parent] = t1
        if up[5] >= 0 and sample != up[5]:
            problems.append(f"span {idx} ({name}) left its parent's sample")
    return problems
