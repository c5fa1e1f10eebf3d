"""Per-layer tracing of the census library from outside it.

Wrappers are installed on module attributes at the sites where the
library looks them up (``pipeline.pleth_log``, ``residues.build_L``,
``FactoredRat.normalize``, ...), so ``src/`` is never edited.  Stage
wrappers record spans (name, start, end, parent) in memory; a stage's
self time is its span minus the spans of its direct children.  Ring
wrappers are cross-cutting counters: they keep a call count and an
inclusive time and take no part in the span tree.

The tracer records only while ``active`` is true, so set-up work done
after installation stays out of the trace.
"""

from __future__ import annotations

import functools
import time

# Every per-layer metric the traced run emits, with its unit; the names
# and units match BENCHMARK.json.
STAGES = (
    "residues.build_L", "residues.h_tilde", "residues.h_factor",
    "zeta.j_factor", "zeta.pair_reduce",
    "pipeline.rhs_series", "pipeline.rhs_series_trunc",
    "series.pleth_log", "series.pleth_log_trunc",
    "pipeline.degree_class_sums", "pipeline.lift_paired",
    "pipeline.from_json", "pipeline.latex_value", "cli.main",
)
COUNTS = (
    "residues.kernel_terms", "residues.kernel_atoms",
    "pipeline.partition_sum_terms", "series.log_terms", "cli.cache_misses",
    "ring.normalize_calls", "ring.add_many_calls", "ring.divide_atom_calls",
)
INCLUSIVE = ("ring.normalize", "ring.add_many")
ROOT = "workload"


def metric_units():
    units = {name + "_s": "s" for name in STAGES + INCLUSIVE}
    units.update({name: "count" for name in COUNTS})
    units["trace.other_s"] = "s"
    return units


def _terms(frac):
    return len(frac.numerator.terms)


def _series_terms(series):
    return sum(_terms(c) for c in series.coeffs)


class Tracer:
    def __init__(self):
        self.active = False
        self.spans = []          # [name, start, end, parent index or -1]
        self._stack = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self.inclusive = dict.fromkeys(INCLUSIVE, 0.0)
        self._depth = dict.fromkeys(INCLUSIVE, 0)

    # -- spans -------------------------------------------------------------

    def span(self, name):
        return _Span(self, name)

    def _stage(self, fn, name, after=None):
        """Wrap fn in a span; name may be a callable of the call arguments."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            label = name(*args, **kwargs) if callable(name) else name
            with _Span(self, label):
                out = fn(*args, **kwargs)
                if after is not None:
                    after(out)
            return out
        return wrapper

    def _counter(self, fn, name):
        """Count calls of fn and time only the outermost one."""
        calls = name + "_calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self.counts[calls] += 1
            self._depth[name] += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._depth[name] -= 1
                if not self._depth[name]:
                    self.inclusive[name] += time.perf_counter() - t0
        return wrapper

    def _tally(self, fn, key):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                self.counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap the layer entry points of an imported census package.

        Meant for a throwaway process: the wrappers stay installed.
        """
        from census import cli, pipeline, residues, ring

        build_L = residues.build_L
        built = [build_L.cache_info().misses]

        def kernel_size(out):
            # build_L is memoized: count each kernel once, when first built
            misses = build_L.cache_info().misses
            if misses > built[0]:
                built[0] = misses
                self.counts["residues.kernel_terms"] += _terms(out.fraction)
                self.counts["residues.kernel_atoms"] += len(
                    out.fraction.denominator)

        def rhs_size(out):
            self.counts["pipeline.partition_sum_terms"] += _series_terms(out)

        def log_size(out):
            self.counts["series.log_terms"] += _series_terms(out)

        def rhs_name(g, R, z_order=None):
            return "pipeline.rhs_series" + ("_trunc" if z_order is not None
                                            else "")

        def log_name(f):
            return "series.pleth_log" + ("_trunc" if f.z_order is not None
                                         else "")

        def cache_load(path):
            out = cache_load_orig(path)
            if out is None and self.active:
                self.counts["cli.cache_misses"] += 1
            return out

        stage = self._stage
        residues.build_L = stage(build_L, "residues.build_L", kernel_size)
        residues.h_tilde = stage(residues.h_tilde, "residues.h_tilde")
        pipeline.h_factor = stage(pipeline.h_factor, "residues.h_factor")
        zeta = pipeline._zeta
        zeta.j_factor = stage(zeta.j_factor, "zeta.j_factor")
        pipeline.pair_reduce = stage(pipeline.pair_reduce, "zeta.pair_reduce")
        pipeline.rhs_series = stage(pipeline.rhs_series, rhs_name, rhs_size)
        pipeline.pleth_log = stage(pipeline.pleth_log, log_name, log_size)
        pipeline.degree_class_sums = stage(pipeline.degree_class_sums,
                                           "pipeline.degree_class_sums")
        pipeline.lift_paired = stage(pipeline.lift_paired,
                                     "pipeline.lift_paired")
        pipeline.KacResult.from_json = staticmethod(
            stage(pipeline.KacResult.from_json, "pipeline.from_json"))
        pipeline.latex_value = stage(pipeline.latex_value,
                                     "pipeline.latex_value")
        cli.main = stage(cli.main, "cli.main")
        cache_load_orig = cli._cache_load
        cli._cache_load = cache_load

        ring.FactoredRat.normalize = self._counter(
            ring.FactoredRat.normalize, "ring.normalize")
        add_many = self._counter(ring.add_many, "ring.add_many")
        for module in (ring, residues, pipeline):
            module.add_many = add_many
        ring.SparsePoly.divide_atom = self._tally(
            ring.SparsePoly.divide_atom, "ring.divide_atom_calls")

    # -- results -----------------------------------------------------------

    def self_times(self):
        """{span name: summed self time}, including the root spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child[i]
        return out

    def metrics(self, solve_s):
        """Per-layer metrics; trace.other_s closes the sum to solve_s."""
        self_t = self.self_times()
        out = {}
        for name in STAGES:
            out[name + "_s"] = self_t.get(name, 0.0)
        for name in INCLUSIVE:
            out[name + "_s"] = self.inclusive[name]
        out.update(self.counts)
        out["trace.other_s"] = solve_s - sum(self_t.get(n, 0.0)
                                             for n in STAGES)
        return out


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        parent = t._stack[-1] if t._stack else -1
        self.index = len(t.spans)
        t.spans.append([self.name, time.perf_counter(), 0.0, parent])
        t._stack.append(self.index)
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.spans[self.index][2] = time.perf_counter()
        t._stack.pop()
        return False


def nesting_errors(spans):
    """Spans that do not lie inside their parent, or close before opening."""
    bad = []
    for i, (name, start, end, parent) in enumerate(spans):
        if end < start:
            bad.append((i, name, "ends before it starts"))
        elif parent >= 0:
            pname, pstart, pend, _ = spans[parent]
            if parent >= i or start < pstart or end > pend:
                bad.append((i, name, "outside parent %s" % pname))
    return bad
