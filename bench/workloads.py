"""The three benchmark workloads: seeded inputs, timed loops and checks.

Each workload is closed-loop: one caller in one process, the next call
issued when the previous one returns.  Inputs are pure functions of the
seed.  Timed regions hold only calls into diffgraph's public entry points;
every correctness check runs outside them and reports into ``Tally``.

The reasons for each workload, the layers it loads and bypasses, and the
layer-to-metric predictions are in NOTES.md.
"""

import bisect
import contextlib
import gc
import io
import itertools
import json
import os
import statistics
import time

import numpy as np

import reference as ref
import tracing

clock = time.perf_counter

# float64 plug-in tables sum at most 81 strata of products of two
# frequencies; rounding stays below 81 * 4 eps, so 4096 eps is a tolerance
# fixed by the dtype alone that still rejects any perturbation >= 1e-12.
TABLE_TOLERANCE = 4096 * np.finfo(np.float64).eps
SAMPLING_Z = 6.0


# Timing metrics are scaled to a host on which one Calibration.run() takes
# this long.  A fixed round figure: on the host the benchmark was built on
# (2-vCPU KVM guest, "Intel(R) Xeon(R) Processor", Python 3.11.7, numpy
# 2.4.6) the kernel's median over a run was 0.033 to 0.055 s.
CALIBRATION_REFERENCE_S = 0.030
# Tally.timed runs the kernel before an operation when this many seconds
# have passed since it last ran, so every operation has one close by.
CALIBRATION_INTERVAL_S = 0.25


class Calibration:
    """A fixed kernel that calls no diffgraph code, timed between the
    workload's operations to measure how fast the shared host runs at the
    moment.  It mixes the kinds of work the workloads do: float formatting
    and parsing as in the CSV layer, integer counting as in adjustment,
    dict-and-frozenset building as in the oracle, and random reads from
    tables larger than the core's private caches as in the oracle's memo
    lookups, which other tenants slow down the most.  Its inputs are the
    same on every run and every seed."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.floats = rng.standard_normal((2000, 5))
        buf = io.StringIO()
        np.savetxt(buf, self.floats, fmt="%.17g", delimiter=",")
        self.text = buf.getvalue()
        self.codes = rng.integers(0, 81, 400_000, dtype=np.uint8)
        self.spread = rng.standard_normal(1_000_000, dtype=np.float32)
        self.picks = rng.integers(0, len(self.spread), 300_000,
                                  dtype=np.int32)
        keys = list(range(1 << 20, (1 << 20) + 50_000))
        self.memo = dict.fromkeys(keys, 0)
        self.probes = [keys[i] for i in rng.integers(0, len(keys), 40_000)]

    def run(self):
        """One pass of the kernel, with the cyclic garbage collector off so
        that the workload's live objects do not change its cost."""
        gc.disable()
        try:
            self._run()
        finally:
            gc.enable()

    def _run(self):
        np.savetxt(io.StringIO(), self.floats, fmt="%.17g", delimiter=",")
        np.loadtxt(io.StringIO(self.text), delimiter=",", ndmin=2)
        np.bincount(self.codes, minlength=81)
        table = {}
        for i in range(15_000):
            table[frozenset((i % 97, i % 89))] = i
        self.spread[self.picks].sum()
        memo = self.memo
        for key in self.probes:
            memo[key]


_CALIBRATION = []


def calibration_s():
    """Seconds one run of the calibration kernel takes now.  The kernel is
    built on first use, once per process."""
    if not _CALIBRATION:
        _CALIBRATION.append(Calibration())
    start = clock()
    _CALIBRATION[0].run()
    return clock() - start


class Tally:
    """Operations attempted and failed, failure messages, and the timings
    of one execution of a workload.

    Every timing is kept with its start, next to timings of the
    calibration kernel taken between operations, so that ``scaled`` can
    divide out how fast the host ran around each operation.
    """

    MAX_MESSAGES = 20

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.refuted = 0
        self.messages = []
        self.times = {}
        self.starts = {}
        self.calibrations = []
        self.passes = {}
        self.cache_stats = {}

    def fail(self, message):
        self.failed += 1
        if len(self.messages) < self.MAX_MESSAGES:
            self.messages.append(message)

    def timed(self, stage, fn, *args, **kwargs):
        """Call fn once inside a timed region; an exception is a failed
        operation and returns None."""
        if (not self.calibrations or clock() - self.calibrations[-1][0]
                >= CALIBRATION_INTERVAL_S):
            self.calibrate()
        self.attempted += 1
        start = clock()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # a failed operation, counted and reported
            self.fail(f"{stage}: {type(exc).__name__}: {exc}")
            return None
        finally:
            self.times.setdefault(stage, []).append(clock() - start)
            self.starts.setdefault(stage, []).append(start)

    def calibrate(self):
        """Time the calibration kernel once; not an operation."""
        start = clock()
        self.calibrations.append((start, calibration_s()))

    def scaled_total_s(self):
        """Every timed operation's scaled time, added up."""
        return sum(sum(self.scaled(stage)) for stage in self.times)

    def host_slowdown(self):
        """How much slower than the reference host the median calibration
        run of this execution was: > 1 on a slower or busier host."""
        return (statistics.median(s for _, s in self.calibrations)
                / CALIBRATION_REFERENCE_S)

    def scaled(self, stage):
        """The stage's times as they would read on the reference host: each
        one times CALIBRATION_REFERENCE_S over the mean of the calibration
        runs just before and just after it."""
        marks = [start for start, _ in self.calibrations]
        out = []
        for start, seconds in zip(self.starts[stage], self.times[stage]):
            i = bisect.bisect_right(marks, start)
            near = [self.calibrations[j][1] for j in (i - 1, i)
                    if 0 <= j < len(marks)]
            out.append(seconds * CALIBRATION_REFERENCE_S
                       * len(near) / sum(near))
        return out


def _rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0


def _cli(cli, argv):
    """Run cli.main in-process with stdout captured; (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _keep_going(passes, budget, done, plan):
    """Another pass?  A plan fixes the count; otherwise repeat until the
    passes so far have used the budget."""
    if plan is not None:
        return done < plan
    return done == 0 or sum(seconds for _, seconds in passes) < budget


def _stage_times(tally, scaled):
    """A stage's times, scaled to the reference host or as measured."""
    return tally.scaled if scaled else tally.times.__getitem__


def _typical_rate(items, times):
    """Items per second of the median of repeated runs of one operation.

    The host is shared and busy most of the time: the fastest repeat
    depends on whether a rare quiet moment fell into the run, the median
    does not, so medians agree better from run to run.
    """
    return _rate(items, statistics.median(times))


# ---------------------------------------------------------------------------
# verdict-sweep


SMALL_NAMES = {4: ("X", "Y", "W1", "W2"), 5: ("X", "Y", "W1", "W2", "W3")}
# (vertices, regime, D-edge count).  n=4 strata take any graph the seed
# draws.  An n=5 query costs 0.1 to 0.3 s cold and its cost depends on the
# number of compatible DAGs, the verdict and, warm, on where the oracle's
# witness search stops, which moves with the vertex labelling.  So each
# n=5 stratum is one fixed graph (both effects non-null, compatible DAGs
# in N5_COMPATIBLE, its own (x, y) placement), drawn once from
# TEMPLATE_SEED: the cost of a pass is then the same on every seed.
SMALL_STRATA = (
    [(4, True, k) for k in (1, 3, 5)]
    + [(4, False, k) for k in (2, 4, 6)]
    + [(5, True, k) for k in (6, 8)]
    + [(5, False, k) for k in (8, 9)]
)
# compatible-DAG band per regime (shared order: True); a non-null n=5
# shared-order graph has at least 1024
N5_COMPATIBLE = {True: (1024, 1536), False: (512, 768)}
# The gallery's general-regime figures 2f and 2k, whose closed-form
# verdicts (B.2 and D.2) the oracle refutes (ROADMAP item 1), run on every
# seed so closed_form_refuted shows the defect until it is fixed.
GALLERY_NAMES = ("W1", "X", "W2", "Y")
GALLERY_GENERAL = (
    (("W1", "X"), ("X", "W2"), ("W2", "Y"), ("Y", "W2"), ("X", "Y")),
    (("W1", "X"), ("X", "W2"), ("W2", "X"), ("W2", "Y"), ("X", "Y")),
)
TEMPLATE_SEED = 0
# each cold pass starts from emptied package caches
COLD_PASSES = 8
# seconds of warm and of large passes in each round of verdict-sweep
ROUND_WARM_S = 0.5
ROUND_LARGE_S = 0.75
LARGE_SIZES = (25, 50, 100, 200)
EXTRA_EDGES_PER_VERTEX = 2
CRITERIA = (ref.BACK_DOOR, ref.SINGLE_DOOR)


def _draw_graph(rng, oracle_ref, n, shared, k, x, y):
    """Random k-edge difference graph with a compatible pair; for n=5 also
    with both effects non-null and N5_COMPATIBLE compatible DAGs."""
    pairs = list(itertools.permutations(range(n), 2))
    while True:
        picks = rng.choice(len(pairs), size=k, replace=False)
        edges = sorted(pairs[i] for i in picks)
        rows = oracle_ref.compatible(n, edges, shared)
        if len(rows) == 0:
            continue
        if n == 5 and not (N5_COMPATIBLE[shared][0] <= len(rows)
                           <= N5_COMPATIBLE[shared][1]):
            continue
        if n == 5 and any(oracle_ref.verdict(n, edges, x, y, shared,
                                             c)["kind"] == ref.NULL
                          for c in CRITERIA):
            continue
        return edges


def small_graph_specs(seed, oracle_ref):
    """Seeded, stratified 4- and 5-vertex queries.

    Returns dicts with n, names (vertex order), edges (index pairs), shared,
    x and y (indices) and the reference verdict per criterion, in a seeded
    order.  The n=4 graphs are drawn from the seed, the n=5 ones are the
    fixed SMALL_STRATA templates.  Each graph of a given size gets its own
    (x, y) index placement, so no two graphs of a size share the oracle's
    per-(DAG, x, y) memo.
    """
    rng = np.random.default_rng([seed, 1])
    placements = {
        n: [tuple(int(v) for v in p) for p in np.random.default_rng(
            [seed if n == 4 else TEMPLATE_SEED, n]).permutation(
                list(itertools.permutations(range(n), 2)))]
        for n in SMALL_NAMES}
    used = {n: 0 for n in SMALL_NAMES}
    specs = []
    for n, shared, k in SMALL_STRATA:
        x, y = placements[n][used[n] % len(placements[n])]
        used[n] += 1
        draw = rng if n == 4 else np.random.default_rng(
            [TEMPLATE_SEED, n, shared, k])
        edges = _draw_graph(draw, oracle_ref, n, shared, k, x, y)
        truth = {c: oracle_ref.verdict(n, edges, x, y, shared, c)
                 for c in CRITERIA}
        names = [None] * n
        names[x], names[y] = "X", "Y"
        others = iter(SMALL_NAMES[n][2:])
        names = tuple(v if v else next(others) for v in names)
        specs.append({"n": n, "names": names, "edges": edges,
                      "shared": shared, "x": x, "y": y, "k": k,
                      "truth": truth})
    for named_edges in GALLERY_GENERAL:
        index = GALLERY_NAMES.index
        edges = sorted((index(a), index(b)) for a, b in named_edges)
        x, y = index("X"), index("Y")
        specs.append({"n": 4, "names": GALLERY_NAMES, "edges": edges,
                      "shared": False, "x": x, "y": y, "k": len(edges),
                      "truth": {c: oracle_ref.verdict(4, edges, x, y, False, c)
                                for c in CRITERIA}})
    # the seed orders the n=4 queries; the n=5 ones keep template order,
    # since a cold query is cheaper when an earlier one built DAGs it needs
    n4 = [s for s in specs if s["n"] == 4]
    return ([n4[i] for i in rng.permutation(len(n4))]
            + [s for s in specs if s["n"] == 5])


def large_graph_specs(seed):
    """Seeded edge-list texts of tens to hundreds of vertices.

    One graph per (size, regime, backbone).  A backbone is a directed path
    through the hidden vertex order, which makes every vertex comparable to
    every other and so lets A.2/C.2 (or B.2/D.2) fire; without it the
    conditions rarely hold.  General-regime graphs orient a fifth of their
    extra edges backwards, which creates cycles.
    """
    rng = np.random.default_rng([seed, 3])
    specs = []
    for n in LARGE_SIZES:
        for shared in (True, False):
            for backbone in (True, False):
                names = [f"V{i}" for i in range(n)]
                order = [int(v) for v in rng.permutation(n)]
                pos = {v: i for i, v in enumerate(order)}
                edges = set()
                if backbone:
                    edges.update(zip(order, order[1:]))
                target = len(edges) + EXTRA_EDGES_PER_VERTEX * n
                while len(edges) < target:
                    a, b = (int(v) for v in rng.choice(n, 2, replace=False))
                    if pos[a] > pos[b]:
                        a, b = b, a
                    if not shared and rng.random() < 0.2:
                        a, b = b, a
                    edges.add((a, b))
                # fixed depths in the hidden order keep the reachable sets,
                # and so the cost, similar across seeds
                early, late = order[n // 3], order[2 * n // 3]
                x, y = (early, late) if backbone else (late, early)
                edge_list = [(names[a], names[b]) for a, b in sorted(edges)]
                edge_list = [edge_list[t]
                             for t in rng.permutation(len(edge_list))]
                text = "".join(f"node {v}\n" for v in names)
                text += "".join(f"{a} -> {b}\n" for a, b in edge_list)
                # the documented conditions are the reference only under
                # a shared order (see VerdictSweep._check_large)
                truth = {c: ref.closed_form_reference(
                    names, edge_list, names[x], names[y], shared, c)
                    for c in CRITERIA} if shared else None
                specs.append({"n": n, "shared": shared, "backbone": backbone,
                              "names": names, "edges": edge_list,
                              "text": text, "x": names[x], "y": names[y],
                              "truth": truth})
    return specs


def _as_index_set(names, members):
    return None if members is None else tuple(names.index(v) for v in members)


def _witness_masks(names, witness):
    return [tuple(sum(1 << names.index(p) for p in g.parents(v))
                  for v in names) for g in witness]


class VerdictSweep:
    """Oracle and closed-form verdicts called directly, as the acceptance
    suite and a research sweep call them."""

    name = "verdict-sweep"

    def __init__(self, dg, seed, workdir):
        self.dg = dg
        self.oracle_ref = ref.OracleReference()
        self.small = small_graph_specs(seed, self.oracle_ref)
        for spec in self.small:
            spec["graph"] = dg.graphs.DifferenceGraph(
                vertices=spec["names"],
                edges=[(spec["names"][a], spec["names"][b])
                       for a, b in spec["edges"]])
        self.queries = [(spec, c) for spec in self.small for c in CRITERIA]
        self.large = large_graph_specs(seed)
        self.inputs = {
            "small_graphs": {f"n{n}_{'shared' if s else 'general'}":
                             sum(1 for g in self.small
                                 if g["n"] == n and g["shared"] == s)
                             for n in SMALL_NAMES for s in (True, False)},
            "oracle_queries_per_pass": len(self.queries),
            "cold_passes": COLD_PASSES,
            "n5_compatible_dags": {"shared": N5_COMPATIBLE[True],
                                   "general": N5_COMPATIBLE[False]},
            "large_graphs": len(self.large),
            "large_sizes": list(LARGE_SIZES),
            "large_edges_per_pass": sum(g["text"].count("->")
                                        for g in self.large),
        }

    def _query(self, spec, criterion):
        fn = (self.dg.oracle.oracle_total if criterion == ref.BACK_DOOR
              else self.dg.oracle.oracle_direct)
        return fn(spec["graph"], "X", "Y", shared_order=spec["shared"])

    def _check_oracle(self, tally, spec, criterion, verdict, cold):
        truth = spec["truth"][criterion]
        names = spec["names"]
        tag = (f"oracle {criterion} n={spec['n']} "
               f"{'shared' if spec['shared'] else 'general'} "
               f"D={spec['edges']} x={spec['x']} y={spec['y']}")
        found = _as_index_set(names, verdict.adjustment_set)
        if verdict.kind != truth["kind"] or found != truth["set"]:
            tally.fail(f"{tag}: got {verdict.kind} {found}, reference "
                       f"{truth['kind']} {truth['set']}")
        elif cold and verdict.kind == ref.NOT_ID and (
                verdict.witness is None or not self.oracle_ref.witness_ok(
                    spec["n"], truth["rows"],
                    _witness_masks(names, verdict.witness),
                    spec["x"], spec["y"], criterion)):
            tally.fail(f"{tag}: witness pair is not a valid counterexample")

    def _check_closed_form(self, tally, spec, criterion, verdict):
        """Shared order: the verdict must be the documented A/C one and
        agree with the oracle, else the operation fails.  General regime:
        the verdict is judged by the oracle alone, whatever condition
        produced it, and a verdict the oracle proves false is counted in
        ``refuted``."""
        truth = spec["truth"][criterion]
        names = spec["names"]
        tag = (f"closed form {criterion} D={spec['edges']} "
               f"x={spec['x']} y={spec['y']}")
        if spec["shared"]:
            documented = ref.closed_form_reference(
                names, [(names[a], names[b]) for a, b in spec["edges"]],
                "X", "Y", True, criterion)
            got = (verdict.kind, verdict.condition, verdict.adjustment_set)
            if got != documented:
                tally.fail(f"shared-order {tag}: {got} differs from the "
                           f"documented conditions {documented}")
                return
        members = _as_index_set(names, verdict.adjustment_set) or ()
        wbits = sum(1 << v for v in members)
        refuted = verdict.kind != truth["kind"] or (
            verdict.kind == ref.ADJUST and wbits not in truth["common"])
        if refuted and spec["shared"]:
            tally.fail(f"shared-order {tag}: {verdict.kind} "
                       f"({verdict.condition}) but the oracle says "
                       f"{truth['kind']}")
        elif refuted:
            tally.refuted += 1

    def _cold_pass(self, tally):
        """Every query once on emptied package caches."""
        tracing.clear_package_caches(tally.cache_stats)
        cold = [tally.timed(("cold", qi), self._query, spec, criterion)
                for qi, (spec, criterion) in enumerate(self.queries)]
        for (spec, criterion), verdict in zip(self.queries, cold):
            if verdict is not None:
                self._check_oracle(tally, spec, criterion, verdict, cold=True)

    def _closed_small(self, tally):
        identify = self.dg.identify
        for spec, criterion in self.queries:
            q = identify.EffectQuery(spec["graph"], "X", "Y",
                                     shared_order_assumed=spec["shared"])
            fn = (identify.identify_total if criterion == ref.BACK_DOOR
                  else identify.identify_direct)
            verdict = tally.timed("closed_small", fn, q)
            if verdict is not None:
                self._check_closed_form(tally, spec, criterion, verdict)

    def _warm_pass(self, tally):
        warm = [tally.timed(("warm", qi), self._query, spec, c)
                for qi, (spec, c) in enumerate(self.queries)]
        for (spec, criterion), verdict in zip(self.queries, warm):
            if verdict is not None:
                self._check_oracle(tally, spec, criterion, verdict,
                                   cold=False)

    def _check_large(self, tally, spec, criterion, verdict):
        """Shared order: the documented A/C verdict.  General regime, where
        no reference decides these sizes: only what any sound rule obeys
        (``reference.unsound_adjustment``)."""
        tag = (f"large closed form {criterion} n={spec['n']} "
               f"{'shared' if spec['shared'] else 'general'}")
        have = (verdict.kind, verdict.condition, verdict.adjustment_set)
        if spec["shared"]:
            if have != spec["truth"][criterion]:
                tally.fail(f"{tag}: {have} != {spec['truth'][criterion]}")
            return
        problem = ref.unsound_adjustment(
            spec["names"], spec["edges"], spec["x"], spec["y"], criterion,
            verdict.kind, verdict.adjustment_set)
        if problem:
            tally.fail(f"{tag}: {problem}")

    def _large_pass(self, tally):
        parse = self.dg.graphs.DifferenceGraph.from_edge_list
        results = [tally.timed(("large", gi), self._large_query, parse, spec)
                   for gi, spec in enumerate(self.large)]
        for spec, got in zip(self.large, results):
            if got is not None:
                for criterion, verdict in zip(CRITERIA, got):
                    self._check_large(tally, spec, criterion, verdict)

    def execute(self, tally, budget, plan=None):
        """One cold pass, then rounds of one cold pass, warm passes and
        large passes until the cold passes are done and the budget is
        spent.  Rounds spread every stage over the whole run, so each stage
        meets the host's quiet spells as often as the others.  A plan (from
        the untraced half of a traced run) fixes the counts."""
        start = clock()
        self._cold_pass(tally)
        self._closed_small(tally)
        done = {"cold": 1, "warm": 0, "large": 0}
        stages = (("warm", ROUND_WARM_S, self._warm_pass),
                  ("large", ROUND_LARGE_S, self._large_pass))
        if plan is not None:
            for _ in range(plan["cold"] - 1):
                self._cold_pass(tally)
            for stage, _, run_pass in stages:
                for _ in range(plan[stage]):
                    run_pass(tally)
            done = dict(plan)
        while plan is None and (done["cold"] < COLD_PASSES
                                or clock() - start < budget):
            if done["cold"] < COLD_PASSES:
                self._cold_pass(tally)
                done["cold"] += 1
            for stage, share, run_pass in stages:
                t0 = clock()
                run_pass(tally)
                done[stage] += 1
                while clock() - t0 < share:
                    run_pass(tally)
                    done[stage] += 1
        return done

    def _large_query(self, parse, spec):
        identify = self.dg.identify
        d = parse(spec["text"])
        q = identify.EffectQuery(d, spec["x"], spec["y"],
                                 shared_order_assumed=spec["shared"])
        return identify.identify_total(q), identify.identify_direct(q)

    def summarize(self, tally, scaled=True):
        """Each query's median time over the run; a stage's rate is its
        queries over the sum of their medians."""
        times = _stage_times(tally, scaled)

        def typical(stage, count):
            return [statistics.median(times((stage, i)))
                    for i in range(count)]

        cold = typical("cold", len(self.queries))
        n4 = [t for t, (spec, _) in zip(cold, self.queries) if spec["n"] == 4]
        n5 = [t for t, (spec, _) in zip(cold, self.queries) if spec["n"] == 5]
        warm = typical("warm", len(self.queries))
        large = typical("large", len(self.large))
        named = {
            "oracle_queries_per_s": (_rate(len(cold), sum(cold)), "1/s"),
            "oracle_n5_p50_ms": (1000 * statistics.median(n5), "ms"),
            "oracle_n5_samples": (len(n5), "count"),
            "oracle_n4_p50_ms": (1000 * statistics.median(n4), "ms"),
            "oracle_warm_queries_per_s": (_rate(len(warm), sum(warm)), "1/s"),
            "closed_form_queries_per_s": (_rate(2 * len(large), sum(large)),
                                          "1/s"),
            "closed_form_refuted": (tally.refuted, "count"),
        }
        slots = {
            "stage1_per_s": named["oracle_queries_per_s"][0],
            "stage1_ms": named["oracle_n5_p50_ms"][0],
            "stage2_per_s": named["oracle_warm_queries_per_s"][0],
            "stage3_per_s": named["closed_form_queries_per_s"][0],
        }
        return slots, named


# ---------------------------------------------------------------------------
# change-discrete


DISCRETE_ROWS = 50_000
DISCRETE_COLUMNS = ("W1", "W2", "W3", "W4", "X", "Y")
DISCRETE_GRAPH = "W1 -> X\nW2 -> X\nW3 -> X\nW4 -> X\nX -> Y\n"
DISCRETE_W = ("W1", "W2", "W3", "W4")


def _softmax(logits):
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def discrete_network(seed):
    """Two ternary networks over W1..W4 -> X -> Y with W -> Y shared.

    W marginals and the W -> Y part of Y's mechanism are shared; X's
    mechanism and the X -> Y part of Y's differ.  The difference graph is
    therefore W1..W4 -> X and X -> Y, which fires A.2 with {W1..W4}.
    Every probability is at least 0.1 per cell (0.25 for W), which keeps
    each (stratum, x) cell populated at the benchmark's row counts.

    Returns (p_w: 4x3, [p_x_given_s: 81x3, p_y_given_xs: 81x3x3] per
    population, [true P(y|do(x)): 3x3] per population).
    """
    rng = np.random.default_rng([seed, 2])
    p_w = 0.25 + 0.25 * rng.dirichlet(np.ones(3), size=4)
    w_on_y = rng.normal(0.0, 0.8, size=(4, 3, 3))
    strata = np.array(list(itertools.product(range(3), repeat=4)))
    p_s = np.prod([p_w[i, strata[:, i]] for i in range(4)], axis=0)
    tables, truths = [], []
    for _ in range(2):
        w_on_x = rng.normal(0.0, 1.0, size=(4, 3, 3))
        x_on_y = rng.normal(0.0, 1.2, size=(3, 3))
        logit_x = sum(w_on_x[i, strata[:, i]] for i in range(4))
        p_x = 0.1 + 0.7 * _softmax(logit_x)
        w_part = sum(w_on_y[i, strata[:, i]] for i in range(4))
        logit_y = x_on_y[None, :, :] + w_part[:, None, :]
        p_y = 0.1 + 0.7 * _softmax(logit_y)
        tables.append((p_x, p_y))
        truths.append(np.einsum("s,sxy->xy", p_s, p_y))
    return p_w, tables, truths


def discrete_sample(p_w, p_x, p_y, rows, seed, population):
    """rows x 6 int64 codes (W1..W4, X, Y) drawn from one population."""
    rng = np.random.default_rng([seed, 20 + population])

    def draw(p):
        u = rng.random(len(p))
        return (u[:, None] > np.cumsum(p, axis=1)[:, :-1]).sum(axis=1)

    w = [draw(np.broadcast_to(p_w[i], (rows, 3))) for i in range(4)]
    s = ((w[0] * 3 + w[1]) * 3 + w[2]) * 3 + w[3]
    x = draw(p_x[s])
    y = draw(p_y[s, x])
    return np.stack(w + [x, y], axis=1).astype(np.int64)


def write_codes_csv(path, names, codes):
    """Write single-digit codes as CSV without going through diffgraph."""
    rows, cols = codes.shape
    buf = np.empty((rows, 2 * cols), dtype=np.uint8)
    buf[:, 0::2] = codes + ord("0")
    buf[:, 1::2] = ord(",")
    buf[:, -1] = ord("\n")
    with open(path, "wb") as fh:
        fh.write((",".join(names) + "\n").encode())
        fh.write(buf.tobytes())


class ChangeDiscrete:
    """`diffgraph change --discrete` in-process on two seeded populations,
    then the same estimate through the library: load, then estimate."""

    name = "change-discrete"

    def __init__(self, dg, seed, workdir):
        self.dg = dg
        self.rows = DISCRETE_ROWS
        p_w, tables, self.truths = discrete_network(seed)
        self.codes = [discrete_sample(p_w, px, py, self.rows, seed, k)
                      for k, (px, py) in enumerate(tables)]
        self.paths = [os.path.join(workdir, f"pop{k + 1}.csv")
                      for k in range(2)]
        for path, codes in zip(self.paths, self.codes):
            write_codes_csv(path, DISCRETE_COLUMNS, codes)
        self.graph_path = os.path.join(workdir, "graph.txt")
        with open(self.graph_path, "w", encoding="utf-8") as fh:
            fh.write(DISCRETE_GRAPH)
        self.reference, self.bounds = [], []
        for codes in self.codes:
            cols = {v: codes[:, i] for i, v in enumerate(DISCRETE_COLUMNS)}
            table, n_sx = ref.plugin_table(cols, "X", "Y", DISCRETE_W, 3, 3)
            self.reference.append(table)
            self.bounds.append(ref.plugin_sampling_bound(n_sx, self.rows,
                                                         SAMPLING_Z))
        d = dg.graphs.DifferenceGraph.from_edge_list(DISCRETE_GRAPH)
        self.verdict = dg.identify.identify_total(
            dg.identify.EffectQuery(d, "X", "Y", shared_order_assumed=True))
        self.argv = ["change", "--discrete", "--graph", self.graph_path,
                     "--exposure", "X", "--outcome", "Y", "--shared-order",
                     "--data1", self.paths[0], "--data2", self.paths[1],
                     "--json"]
        self.inputs = {"rows_per_population": self.rows, "covariates": 4,
                       "strata": 81, "levels": 3,
                       "csv_bytes": [os.path.getsize(p) for p in self.paths]}

    def check_tables(self, tables, change):
        """Failure messages for two estimated tables and their change."""
        problems = []
        for k, table in enumerate(tables):
            table = np.asarray(table, dtype=float)
            if table.shape != (3, 3):
                problems.append(f"population {k + 1}: shape {table.shape}")
                continue
            gap = np.abs(table - self.reference[k]).max()
            if gap > TABLE_TOLERANCE:
                problems.append(f"population {k + 1}: differs from the "
                                f"plug-in reference by {gap:.3g}")
            miss = np.abs(table - self.truths[k]).max()
            if miss > self.bounds[k]:
                problems.append(f"population {k + 1}: {miss:.4f} from the "
                                f"true P(y|do(x)), bound {self.bounds[k]:.4f}")
        if not problems:
            gap = np.abs(np.asarray(change) - (np.asarray(tables[0])
                                               - np.asarray(tables[1]))).max()
            if gap > TABLE_TOLERANCE:
                problems.append(f"change table is not P1 - P2 ({gap:.3g})")
        return problems

    def _check_cli(self, tally, result):
        code, out = result
        if code != 0:
            tally.fail(f"change --discrete exited {code}")
            return
        doc = json.loads(out)
        verdict, report = doc["verdict"], doc["report"]
        if (verdict["condition"], verdict.get("adjustment_set")) != \
                ("A.2", list(DISCRETE_W)):
            tally.fail(f"change --discrete verdict {verdict}")
        tables = [report["population1_value"]["probabilities"],
                  report["population2_value"]["probabilities"]]
        for problem in self.check_tables(tables, report["change"]["values"]):
            tally.fail(f"change --discrete: {problem}")

    def execute(self, tally, budget, plan=None):
        dg = self.dg
        done = 0
        while _keep_going(tally.passes.get("iteration", []), budget, done,
                          plan and plan["iterations"]):
            t0 = clock()
            result = tally.timed("cli_change", _cli, dg.cli, self.argv)
            loaded = [tally.timed("load", dg.estimate.Dataset.from_csv, p,
                                  dg.estimate.DISCRETE) for p in self.paths]
            report = None
            if None not in loaded:
                report = tally.timed("estimate", dg.estimate.causal_change,
                                     self.verdict, loaded[0], loaded[1],
                                     "X", "Y")
            tally.passes.setdefault("iteration", []).append((1, clock() - t0))
            done += 1
            if result is not None:
                self._check_cli(tally, result)
            for k, data in enumerate(loaded):
                if data is not None and not np.array_equal(
                        data.rows, self.codes[k]):
                    tally.fail(f"from_csv population {k + 1} differs from "
                               f"the written codes")
            if report is not None:
                tables = [report.population1_value.probabilities,
                          report.population2_value.probabilities]
                for problem in self.check_tables(tables, report.change.values):
                    tally.fail(f"causal_change: {problem}")
        return {"iterations": done}

    def summarize(self, tally, scaled=True):
        times = _stage_times(tally, scaled)
        t = {stage: times(stage) for stage in ("cli_change", "load",
                                                "estimate")}
        named = {
            "change_discrete_rows_per_s": (
                _typical_rate(2 * self.rows, t["cli_change"]), "1/s"),
            "change_discrete_p50_ms": (
                1000 * statistics.median(t["cli_change"]), "ms"),
            "from_csv_discrete_rows_per_s": (
                _typical_rate(self.rows, t["load"]), "1/s"),
            "causal_change_discrete_rows_per_s": (
                _typical_rate(2 * self.rows, t["estimate"]), "1/s"),
        }
        slots = {
            "stage1_per_s": named["change_discrete_rows_per_s"][0],
            "stage1_ms": named["change_discrete_p50_ms"][0],
            "stage2_per_s": named["from_csv_discrete_rows_per_s"][0],
            "stage3_per_s": named["causal_change_discrete_rows_per_s"][0],
        }
        return slots, named


# ---------------------------------------------------------------------------
# simulate-change


CONTINUOUS_ROWS = 50_000
# Shared order, C.2 fires for X -> Y with {W1, W2}; X -> Y is a D-edge, so
# the true change is at least the 0.2 separation margin away from zero.
SIMULATE_GRAPH = "W1 -> X\nX -> Y\nW2 -> Y\nY -> Z\n"


class SimulateChange:
    """`diffgraph simulate` then `diffgraph change --continuous` on the two
    CSV files it wrote, both in-process; then the files read back through
    the library."""

    name = "simulate-change"

    def __init__(self, dg, seed, workdir):
        self.dg = dg
        self.rows = CONTINUOUS_ROWS
        self.sim_seed = int(seed)
        self.out = os.path.join(workdir, "sim")
        self.graph_path = os.path.join(workdir, "graph.txt")
        with open(self.graph_path, "w", encoding="utf-8") as fh:
            fh.write(SIMULATE_GRAPH)
        d = dg.graphs.DifferenceGraph.from_edge_list(SIMULATE_GRAPH)
        # the documented simulate seeding: pair from --seed, datasets from
        # --seed + 1 and --seed + 2
        self.pair = dg.simulate.sample_compatible_pair(
            d, shared_order=True, seed=self.sim_seed)
        self.data = [dg.simulate.sample_dataset(scm, self.rows,
                                                seed=self.sim_seed + k + 1)
                     for k, scm in enumerate((self.pair.scm1,
                                              self.pair.scm2))]
        self.truth = [dg.simulate.ground_truth_direct(scm, "X", "Y")
                      for scm in (self.pair.scm1, self.pair.scm2)]
        self.fits = []
        for data in self.data:
            self.fits.append(ref.ols_fit(
                [data.column("X"), data.column("W1"), data.column("W2")],
                data.column("Y")))
        self.paths = [os.path.join(self.out, f"data{k}.csv") for k in (1, 2)]
        self.simulate_argv = ["simulate", "--graph", self.graph_path,
                              "--shared-order", "--n", str(self.rows),
                              "--seed", str(self.sim_seed), "--out", self.out,
                              "--json"]
        self.change_argv = ["change", "--continuous", "--graph",
                            self.graph_path, "--exposure", "X", "--outcome",
                            "Y", "--shared-order", "--data1", self.paths[0],
                            "--data2", self.paths[1], "--json"]
        self.inputs = {"rows_per_population": self.rows, "columns": 5,
                       "simulate_seed": self.sim_seed,
                       "true_alpha": self.truth}

    def check_change(self, values, change):
        """Failure messages for two regression coefficients and their
        change against the generating models."""
        problems = []
        for k, (value, (_, se)) in enumerate(zip(values, self.fits)):
            if abs(value - self.truth[k]) > SAMPLING_Z * se:
                problems.append(f"population {k + 1}: alpha {value:.5f}, "
                                f"true {self.truth[k]:.5f}, bound "
                                f"{SAMPLING_Z * se:.5f}")
        bound = SAMPLING_Z * float(np.hypot(self.fits[0][1], self.fits[1][1]))
        want = self.truth[0] - self.truth[1]
        if abs(change - want) > bound:
            problems.append(f"change {change:.5f}, true {want:.5f}, bound "
                            f"{bound:.5f}")
        return problems

    def _check_simulate(self, tally, result):
        code, out = result
        if code != 0:
            tally.fail(f"simulate exited {code}")
            return
        manifest = json.loads(out)
        for k, scm in enumerate((self.pair.scm1, self.pair.scm2)):
            written = manifest[f"scm{k + 1}"]
            if written != json.loads(json.dumps(scm.as_dict())):
                tally.fail(f"simulate wrote a different scm{k + 1} than "
                           f"sample_compatible_pair gives for the seed")

    def _check_change(self, tally, result):
        code, out = result
        if code != 0:
            tally.fail(f"change --continuous exited {code}")
            return
        doc = json.loads(out)
        verdict, report = doc["verdict"], doc["report"]
        if (verdict["condition"], verdict.get("adjustment_set")) != \
                ("C.2", ["W1", "W2"]):
            tally.fail(f"change --continuous verdict {verdict}")
        for problem in self.check_change(
                [report["population1_value"], report["population2_value"]],
                report["change"]):
            tally.fail(f"change --continuous: {problem}")

    def execute(self, tally, budget, plan=None):
        dg = self.dg
        done = 0
        while _keep_going(tally.passes.get("iteration", []), budget, done,
                          plan and plan["iterations"]):
            t0 = clock()
            sim = tally.timed("cli_simulate", _cli, dg.cli, self.simulate_argv)
            change = tally.timed("cli_change", _cli, dg.cli, self.change_argv)
            loaded = [tally.timed("load", dg.estimate.Dataset.from_csv, p,
                                  dg.estimate.CONTINUOUS) for p in self.paths]
            tally.passes.setdefault("iteration", []).append((1, clock() - t0))
            done += 1
            if sim is not None:
                self._check_simulate(tally, sim)
            if change is not None:
                self._check_change(tally, change)
            for k, data in enumerate(loaded):
                if data is None:
                    continue
                same = (data.variable_names == self.data[k].variable_names
                        and data.rows.shape == self.data[k].rows.shape
                        and np.array_equal(data.rows.view(np.uint64),
                                           self.data[k].rows.view(np.uint64)))
                if not same:
                    tally.fail(f"from_csv(to_csv(data)) population {k + 1} "
                               f"is not bit-for-bit the sampled data")
        return {"iterations": done}

    def summarize(self, tally, scaled=True):
        times = _stage_times(tally, scaled)
        t = {stage: times(stage) for stage in ("cli_simulate", "cli_change",
                                                "load")}
        named = {
            "simulate_rows_per_s": (
                _typical_rate(2 * self.rows, t["cli_simulate"]), "1/s"),
            "simulate_p50_ms": (
                1000 * statistics.median(t["cli_simulate"]), "ms"),
            "change_continuous_rows_per_s": (
                _typical_rate(2 * self.rows, t["cli_change"]), "1/s"),
            "from_csv_continuous_rows_per_s": (
                _typical_rate(self.rows, t["load"]), "1/s"),
        }
        slots = {
            "stage1_per_s": named["simulate_rows_per_s"][0],
            "stage1_ms": named["simulate_p50_ms"][0],
            "stage2_per_s": named["change_continuous_rows_per_s"][0],
            "stage3_per_s": named["from_csv_continuous_rows_per_s"][0],
        }
        return slots, named


WORKLOADS = {w.name: w for w in (VerdictSweep, ChangeDiscrete, SimulateChange)}
