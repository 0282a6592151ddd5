"""Self-test of the benchmark's generators and checkers.

    python3 bench/selftest.py

Checks that every input generator is a pure function of its seed, that the
n=5 stratification of verdict-sweep gives the same strata on two seeds,
that every checker passes the program's real answer and rejects a planted
wrong one (a perturbed table, a swapped adjustment set, a flipped
coefficient sign, an unsound general-regime set), that a general-regime
closed-form verdict is judged by the oracle alone, that the tracer
restores what it wrapped and counts compatible DAGs, that timings are
scaled by the calibration runs around them, and that BENCHMARK.json
lists exactly the metrics the runner prints.  Exits 1 on the first
failed check.
"""

import collections
import dataclasses
import json
import shutil
import sys

import numpy as np

import run

dg = run.import_program()
import reference as ref  # noqa: E402  (on sys.path after import_program)
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

SEEDS = (11, 12)


def check(condition, message):
    if not condition:
        print(f"FAIL: {message}")
        sys.exit(1)
    print(f"ok: {message}")


def _strip(specs):
    return [{k: v for k, v in s.items() if k not in ("truth", "graph")}
            for s in specs]


def test_generators_are_deterministic(oracle_ref):
    a = wl.small_graph_specs(SEEDS[0], oracle_ref)
    b = wl.small_graph_specs(SEEDS[0], oracle_ref)
    check(_strip(a) == _strip(b), "small graph specs repeat for one seed")
    check(_strip(a) != _strip(wl.small_graph_specs(SEEDS[1], oracle_ref)),
          "small graph specs differ between seeds")
    a, b = wl.large_graph_specs(SEEDS[0]), wl.large_graph_specs(SEEDS[0])
    check(_strip(a) == _strip(b), "large graph texts repeat for one seed")
    net1, net2 = wl.discrete_network(SEEDS[0]), wl.discrete_network(SEEDS[0])
    check(all(np.array_equal(x, y) for x, y in zip(net1[2], net2[2])),
          "discrete network repeats for one seed")
    p_w, tables, _ = net1
    s1 = wl.discrete_sample(p_w, *tables[0], 5000, SEEDS[0], 0)
    s2 = wl.discrete_sample(p_w, *tables[0], 5000, SEEDS[0], 0)
    check(np.array_equal(s1, s2), "discrete sample repeats for one seed")


def test_stratification(oracle_ref):
    strata = []
    for seed in SEEDS:
        specs = wl.small_graph_specs(seed, oracle_ref)
        strata.append(collections.Counter(
            (s["n"], s["shared"], s["k"]) for s in specs))
        n5 = [s for s in specs if s["n"] == 5]
        check(all(wl.N5_COMPATIBLE[s["shared"]][0]
                  <= s["truth"]["total"]["compatible"]
                  <= wl.N5_COMPATIBLE[s["shared"]][1] for s in n5),
              f"seed {seed}: every n=5 graph is in its compatible-DAG band")
        check(all(t["kind"] != ref.NULL for s in n5
                  for t in s["truth"].values()),
              f"seed {seed}: no n=5 query has a null effect")
        placements = [(s["x"], s["y"]) for s in n5]
        check(len(set(placements)) == len(placements),
              f"seed {seed}: n=5 graphs use distinct (x, y) placements")
    check(strata[0] == strata[1], "both seeds fill the same strata")


def test_verdict_checkers(sweep):
    adjust = next((s, c) for s in sweep.small for c in wl.CRITERIA
                  if s["truth"][c]["kind"] == ref.ADJUST)
    spec, criterion = adjust
    got = sweep._query(spec, criterion)
    tally = wl.Tally()
    sweep._check_oracle(tally, spec, criterion, got, cold=True)
    check(tally.failed == 0, "the oracle's own adjustment verdict passes")
    others = tuple(v for v in spec["names"]
                   if v not in got.adjustment_set + ("X", "Y"))
    swapped = dataclasses.replace(
        got, adjustment_set=others or got.adjustment_set[:-1])
    sweep._check_oracle(tally, spec, criterion, swapped, cold=True)
    check(tally.failed == 1, "a swapped adjustment set fails the oracle check")
    not_id = next(((s, c) for s in sweep.small for c in wl.CRITERIA
                   if s["truth"][c]["kind"] == ref.NOT_ID), None)
    if not_id is not None:
        spec, criterion = not_id
        got = sweep._query(spec, criterion)
        tally = wl.Tally()
        sweep._check_oracle(tally, spec, criterion, got, cold=True)
        check(tally.failed == 0, "the oracle's own witness pair passes")
        rows = spec["truth"][criterion]["rows"]
        fam = sweep.oracle_ref.families(spec["n"], rows, spec["x"],
                                        spec["y"], criterion)
        served = next(i for i in range(len(rows))
                      if any(ok[i] for ok in fam.values()))
        masks = sweep.oracle_ref.parents(spec["n"], rows[served])
        names = spec["names"]
        dag = dg.graphs.CausalDag(
            vertices=names, edges=[(names[p], names[v])
                                   for v in range(spec["n"])
                                   for p in range(spec["n"])
                                   if masks[v] >> p & 1])
        sweep._check_oracle(tally, spec, criterion,
                            dataclasses.replace(got, witness=(dag, dag)),
                            cold=True)
        check(tally.failed == 1,
              "a witness pair that one adjustment set serves fails")

    shared = next(s for s in sweep.small if s["shared"])
    q = dg.identify.EffectQuery(shared["graph"], "X", "Y",
                                shared_order_assumed=True)
    real = dg.identify.identify_total(q)
    tally = wl.Tally()
    sweep._check_closed_form(tally, shared, wl.ref.BACK_DOOR, real)
    check(tally.failed == 0, "the shared-order closed form passes")
    wrong_kind = ref.NOT_ID if real.kind != ref.NOT_ID else ref.NULL
    planted = dg.identify.IdentificationVerdict(kind=wrong_kind)
    sweep._check_closed_form(tally, shared, wl.ref.BACK_DOOR, planted)
    check(tally.failed == 1, "a wrong closed-form verdict fails its check")

    # general regime: judged by the oracle only, whatever the condition
    general, criterion = max(
        ((s, c) for s in sweep.small if not s["shared"] for c in wl.CRITERIA),
        key=lambda q: q[0]["truth"][q[1]]["kind"] == ref.ADJUST)
    truth = general["truth"][criterion]
    members = (None if truth["set"] is None
               else tuple(general["names"][v] for v in truth["set"]))
    fixed = dg.identify.IdentificationVerdict(
        kind=truth["kind"], condition="E.2" if members else "none",
        adjustment_set=members)
    tally = wl.Tally()
    sweep._check_closed_form(tally, general, criterion, fixed)
    check(tally.failed == 0 and tally.refuted == 0,
          "a general-regime verdict the oracle confirms passes under any "
          "condition label")
    wrong_kind = ref.NULL if truth["kind"] != ref.NULL else ref.NOT_ID
    sweep._check_closed_form(tally, general, criterion,
                             dg.identify.IdentificationVerdict(
                                 kind=wrong_kind))
    check(tally.failed == 0 and tally.refuted == 1,
          "a general-regime verdict the oracle refutes is counted, "
          "not failed")

    large = sweep.large[0]
    d = dg.graphs.DifferenceGraph.from_edge_list(large["text"])
    q = dg.identify.EffectQuery(d, large["x"], large["y"],
                                shared_order_assumed=large["shared"])
    got = dg.identify.identify_total(q)
    check(large["shared"] and (got.kind, got.condition, got.adjustment_set)
          == large["truth"]["total"], "large closed form matches reference")
    tally = wl.Tally()
    for spec in sweep.large:
        for verdict, criterion in zip(sweep._large_query(
                dg.graphs.DifferenceGraph.from_edge_list, spec), wl.CRITERIA):
            sweep._check_large(tally, spec, criterion, verdict)
    check(tally.failed == 0, "every large closed-form verdict passes")
    general = next(s for s in sweep.large if not s["shared"])
    child = next(h for t, h in general["edges"] if t == general["x"])
    sweep._check_large(tally, general, wl.ref.BACK_DOOR,
                       dg.identify.IdentificationVerdict(
                           kind=ref.ADJUST, adjustment_set=(child,)))
    check(tally.failed == 1, "a general-regime set holding a D-child of X "
          "fails the large check")


def test_discrete_checkers(discrete):
    data = [dg.estimate.Dataset.from_csv(p, dg.estimate.DISCRETE)
            for p in discrete.paths]
    report = dg.estimate.causal_change(discrete.verdict, data[0], data[1],
                                       "X", "Y")
    tables = [report.population1_value.probabilities,
              report.population2_value.probabilities]
    check(not discrete.check_tables(tables, report.change.values),
          "causal_change tables pass the discrete checks")
    nudged = [tables[0].copy(), tables[1]]
    nudged[0][1, 2] += 1e-9
    nudged[0][1, 0] -= 1e-9
    check(discrete.check_tables(nudged, nudged[0] - nudged[1]),
          "a table perturbed by 1e-9 fails the plug-in reference")
    far = [tables[0], discrete.reference[1].copy()]
    far[1][0] = far[1][0][::-1]
    check(discrete.check_tables([discrete.reference[0], far[1]],
                                discrete.reference[0] - far[1]),
          "a table with permuted outcomes fails the truth bound")
    swapped = dg.estimate.causal_change(
        dg.identify.IdentificationVerdict(
            kind=ref.ADJUST, condition="A.2", adjustment_set=("W1", "W2"),
            formula=discrete.verdict.formula),
        data[0], data[1], "X", "Y")
    check(discrete.check_tables(
        [swapped.population1_value.probabilities,
         swapped.population2_value.probabilities], swapped.change.values),
        "adjusting for a swapped (too small) set fails the checks")


def test_continuous_checkers(simulate):
    values = [ref.ols_fit([d.column("X"), d.column("W1"), d.column("W2")],
                          d.column("Y"))[0] for d in simulate.data]
    check(not simulate.check_change(values, values[0] - values[1]),
          "OLS estimates on the sampled data pass the continuous checks")
    # flip the population whose true coefficient is not zero (X -> Y is a
    # D-edge, so one model may lack the edge)
    k = max((0, 1), key=lambda i: abs(simulate.truth[i]))
    flipped = list(values)
    flipped[k] = -flipped[k]
    check(simulate.check_change(flipped, flipped[0] - flipped[1]),
          "a flipped coefficient sign fails the continuous checks")
    check(simulate.check_change(values, values[1] - values[0]),
          "a flipped change sign fails the continuous checks")


def test_tracer_restores():
    before = (dg.graphs.CausalDag.__dict__["__init__"],
              dg.estimate.Dataset.__dict__["from_csv"],
              dg.cli.causal_change, dg.oracle.oracle_total)
    tracer = tracing.Tracer()
    tracer.install()
    d = dg.graphs.DifferenceGraph.from_edge_list("X -> Y\nW -> X\n")
    dg.oracle.oracle_total(d, "X", "Y", shared_order=True)
    tracer.uninstall()
    after = (dg.graphs.CausalDag.__dict__["__init__"],
             dg.estimate.Dataset.__dict__["from_csv"],
             dg.cli.causal_change, dg.oracle.oracle_total)
    check(before == after, "the tracer restores every wrapped entry point")
    m = tracer.metrics()
    check(m.get("oracle.query_n3.calls") == 1 and
          m.get("graphs.parse.calls") == 1, "the tracer counted its calls")
    names = list(d.vertices)
    compatible = ref.OracleReference(3).compatible(
        3, [(names.index(t), names.index(h)) for t, h in d.edges], True)
    check(m.get("oracle.compatible.extra") == len(compatible),
          "the tracer counts the compatible DAGs the oracle enumerates")
    check(not tracer.absent, "every trace target exists in this tree")


def test_scaling():
    tally = wl.Tally()
    ref_s = wl.CALIBRATION_REFERENCE_S
    tally.calibrations = [(0.0, ref_s), (10.0, 2 * ref_s), (20.0, 4 * ref_s)]
    tally.times["op"] = [1.0, 3.0, 8.0]
    tally.starts["op"] = [-1.0, 5.0, 25.0]
    check(tally.scaled("op") == [1.0, 2.0, 2.0],
          "each time is scaled by the calibration runs around it")
    check(tally.host_slowdown() == 2.0,
          "the host slowdown is the median calibration run over the reference")


def test_benchmark_json():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    check([m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END),
          "BENCHMARK.json end_to_end matches the runner")
    check([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
          == [tuple(m) for m in tracing.PER_LAYER],
          "BENCHMARK.json per_layer matches the tracer")
    check([w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS),
          "BENCHMARK.json workloads match the runner")


def main():
    workdir = run.ROOT / ".bench_work" / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        oracle_ref = ref.OracleReference()
        test_generators_are_deterministic(oracle_ref)
        test_stratification(oracle_ref)
        test_verdict_checkers(wl.VerdictSweep(dg, SEEDS[0], str(workdir)))
        test_discrete_checkers(wl.ChangeDiscrete(dg, SEEDS[0], str(workdir)))
        test_continuous_checkers(wl.SimulateChange(dg, SEEDS[0],
                                                   str(workdir)))
        test_tracer_restores()
        test_scaling()
        test_benchmark_json()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
