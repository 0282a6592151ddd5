"""Aggregated per-layer tracing, installed from outside the package.

The tracer replaces diffgraph entry points with thin wrappers for the
duration of a traced run and restores them afterwards; ``src/`` is never
edited.  Hot inner calls (hundreds of thousands of d-separation tests per
run) are aggregated into counts and busy seconds per layer instead of one
span per call.  A layer's busy time counts only its outermost span, so a
layer that re-enters itself (``identify_total`` calling
``identify_total_shared_order``) is not counted twice; its self time is
the span minus the spans of the wrapped layers it called.

Every target is looked up by name and skipped when missing, so a later
change that renames or removes an internal leaves that layer reported as
absent instead of breaking the benchmark.
"""

import os
import sys
import time
from collections import defaultdict

# Per-layer metrics, in the order BENCHMARK.json lists them:
# (name, unit, better).
PER_LAYER = (
    ("graphs.dag_build.calls", "count", "lower"),
    ("graphs.dag_build.busy_s", "s", "lower"),
    ("graphs.d_separated.calls", "count", "lower"),
    ("graphs.d_separated.busy_s", "s", "lower"),
    ("graphs.parse.calls", "count", "lower"),
    ("graphs.parse.busy_s", "s", "lower"),
    ("graphs.reach.calls", "count", "lower"),
    ("graphs.reach.busy_s", "s", "lower"),
    ("identify.calls", "count", "lower"),
    ("identify.busy_s", "s", "lower"),
    ("identify.refuted", "count", "lower"),
    ("oracle.query_n4.busy_s", "s", "lower"),
    ("oracle.query_n5.busy_s", "s", "lower"),
    ("oracle.compatible_dags", "count", "lower"),
    ("oracle.admissible_checks.calls", "count", "lower"),
    ("oracle.admissible_checks.busy_s", "s", "lower"),
    ("oracle.all_dag_masks.busy_s", "s", "lower"),
    ("oracle.admissible_cache.hit_ratio", "ratio", "higher"),
    ("oracle.admissible_cache.lookups", "count", "lower"),
    ("oracle.cache_entries", "count", "lower"),
    ("oracle.enumerate_compatible_dags.calls", "count", "lower"),
    ("oracle.enumerate_compatible_dags.busy_s", "s", "lower"),
    ("simulate.sample_compatible_pair.busy_s", "s", "lower"),
    ("simulate.sample_dataset.busy_s", "s", "lower"),
    ("simulate.sample_dataset.rows", "count", "higher"),
    ("estimate.to_csv.calls", "count", "lower"),
    ("estimate.to_csv.busy_s", "s", "lower"),
    ("estimate.to_csv.bytes", "B", "lower"),
    ("estimate.from_csv.calls", "count", "lower"),
    ("estimate.from_csv.busy_s", "s", "lower"),
    ("estimate.from_csv.bytes", "B", "lower"),
    ("estimate.adjustment_total.calls", "count", "lower"),
    ("estimate.adjustment_total.busy_s", "s", "lower"),
    ("estimate.adjustment_total.strata", "count", "lower"),
    ("estimate.partial_regression.calls", "count", "lower"),
    ("estimate.partial_regression.busy_s", "s", "lower"),
    ("estimate.causal_change.self_s", "s", "lower"),
    ("cli.main.change.self_s", "s", "lower"),
    ("cli.main.simulate.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def _csv_bytes(args, result):
    path = args[1]
    return os.path.getsize(path) if os.path.exists(path) else 0


# (layer name or name function, owner path, attribute, extra counter).
# An owner path names a module or a class inside one; functions are
# replaced in every diffgraph module that imported them by name.  An
# extra counter is (field, function of the call's arguments and result),
# added up over outermost calls that returned.
TARGETS = (
    ("graphs.dag_build", "graphs.CausalDag", "__init__", None),
    ("graphs.d_separated", "graphs.CausalDag", "d_separated", None),
    ("graphs.parse", "graphs.DifferenceGraph", "from_edge_list", None),
    ("graphs.reach", "graphs.DifferenceGraph", "ancestors", None),
    ("graphs.reach", "graphs.DifferenceGraph", "descendants", None),
    ("identify", "identify", "identify_total", None),
    ("identify", "identify", "identify_direct", None),
    ("identify", "identify", "identify_total_shared_order", None),
    ("identify", "identify", "identify_total_general", None),
    ("identify", "identify", "identify_direct_shared_order", None),
    ("identify", "identify", "identify_direct_general", None),
    (lambda a: f"oracle.query_n{len(a[0].vertices)}",
     "oracle", "oracle_total", None),
    (lambda a: f"oracle.query_n{len(a[0].vertices)}",
     "oracle", "oracle_direct", None),
    ("oracle.admissible_checks", "oracle", "back_door_admissible", None),
    ("oracle.admissible_checks", "oracle", "single_door_admissible", None),
    ("oracle.all_dag_masks", "oracle", "_all_dag_masks", None),
    ("oracle.compatible", "oracle", "_compatible_masks",
     ("dags", lambda a, r: len(r))),
    ("oracle.enumerate_compatible_dags", "oracle",
     "enumerate_compatible_dags", None),
    ("simulate.sample_compatible_pair", "simulate",
     "sample_compatible_pair", None),
    ("simulate.sample_dataset", "simulate", "sample_dataset",
     ("rows", lambda a, r: int(a[1]))),
    ("estimate.to_csv", "estimate.Dataset", "to_csv",
     ("bytes", _csv_bytes)),
    ("estimate.from_csv", "estimate.Dataset", "from_csv",
     ("bytes", _csv_bytes)),
    ("estimate.adjustment_total", "estimate", "adjustment_total", None),
    ("estimate.partial_regression", "estimate",
     "partial_regression_coefficient", None),
    ("estimate.causal_change", "estimate", "causal_change", None),
    (lambda a: f"cli.main.{(a[0] or ['?'])[0]}", "cli", "main", None),
)


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "diffgraph"
                                  or name.startswith("diffgraph."))]


def _resolve(owner_path):
    obj = sys.modules.get("diffgraph")
    for part in owner_path.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj


def _cache_of(obj):
    """The functools cache behind ``obj`` (itself, or the cache a tracer
    wrapper holds), or None."""
    for candidate in (obj, getattr(obj, "__wrapped__", None)):
        if callable(getattr(candidate, "cache_clear", None)):
            return candidate
    return None


def package_caches():
    """{module.name: functools cache} for every cache in any diffgraph
    module, each listed once under the module that defines it."""
    found = {}
    for mod in _package_modules():
        for name, obj in vars(mod).items():
            cache = _cache_of(obj)
            if cache is not None and getattr(
                    cache, "__module__", mod.__name__) == mod.__name__:
                found[f"{mod.__name__}.{name}"] = cache
    return found


def oracle_caches():
    """{name: functools cache} for every cache the oracle module has now;
    a cache a later change removes is simply not listed."""
    prefix = "diffgraph.oracle."
    return {name[len(prefix):]: cache
            for name, cache in package_caches().items()
            if name.startswith(prefix)}


def collect_cache_stats(into):
    """Add the hits and misses every package cache counted since it was
    last cleared to into[name] = (hits, misses)."""
    for name, cache in package_caches().items():
        info = cache.cache_info()
        hits, misses = into.get(name, (0, 0))
        into[name] = (hits + info.hits, misses + info.misses)


def clear_package_caches(stats=None):
    """Empty every functools cache in the package.  Clearing also resets a
    cache's hit and miss counts, so with ``stats`` they are first added to
    it (see ``collect_cache_stats``)."""
    if stats is not None:
        collect_cache_stats(stats)
    for cache in package_caches().values():
        cache.cache_clear()


class _Stat:
    __slots__ = ("calls", "busy", "self_time", "extra")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0
        self.extra = 0


class Tracer:
    """Wraps the TARGETS while installed and aggregates their spans."""

    def __init__(self):
        self.stats = defaultdict(_Stat)
        self.absent = []
        self._children = []
        self._depth = defaultdict(int)
        self._undo = []

    def _wrap(self, name, fn, extra):
        tracer = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            layer = name(args) if callable(name) else name
            outer = tracer._depth[layer] == 0
            tracer._depth[layer] += 1
            tracer._children.append(0.0)
            returned = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                span = clock() - start
                child = tracer._children.pop()
                tracer._depth[layer] -= 1
                stat = tracer.stats[layer]
                if outer:
                    stat.calls += 1
                    stat.busy += span
                    if extra is not None and returned:
                        stat.extra += extra[1](args, result)
                stat.self_time += span - child
                if tracer._children:
                    # the parent's self time excludes this span and the
                    # time spent counting its extras
                    tracer._children[-1] += clock() - start

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapped")
        return wrapper

    def install(self):
        for name, owner_path, attr, extra in TARGETS:
            owner = _resolve(owner_path)
            if owner is None:
                self.absent.append(f"{owner_path}.{attr}")
                continue
            if isinstance(owner, type):
                home = next((c for c in owner.__mro__ if attr in c.__dict__),
                            None)
                if home is None:
                    self.absent.append(f"{owner_path}.{attr}")
                    continue
                raw = home.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__, extra))
                else:
                    new = self._wrap(name, raw, extra)
                setattr(home, attr, new)
                self._undo.append((home, attr, raw))
                continue
            original = getattr(owner, attr, None)
            if original is None:
                self.absent.append(f"{owner_path}.{attr}")
                continue
            new = self._wrap(name, original, extra)
            for mod in _package_modules():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, new)
                        self._undo.append((mod, key, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def metrics(self):
        """Aggregated counters as {metric name: value} (no cache or
        workload-level counters; the caller adds those)."""
        out = {}
        for layer, stat in self.stats.items():
            out[f"{layer}.calls"] = stat.calls
            out[f"{layer}.busy_s"] = stat.busy
            out[f"{layer}.self_s"] = stat.self_time
            out[f"{layer}.extra"] = stat.extra
        return out
