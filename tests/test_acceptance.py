"""End-to-end acceptance checks, one test per headline claim.

Run ``pytest tests/test_acceptance.py -v`` to get a one-line pass/fail
summary per claim.  The oracle-equivalence and adjustment-soundness tests
share a single corpus scan (all 3-vertex difference graphs plus a
fixed-seed sample of 4-vertex ones), cached at module level.
"""

import functools
import itertools
import string

import numpy as np
import pytest

from diffgraph import (
    ADJUSTMENT_IDENTIFIABLE,
    DIRECT,
    DISCRETE,
    NOT_IDENTIFIABLE,
    NULL_EFFECT,
    TOTAL,
    CausalDag,
    Dataset,
    DifferenceGraph,
    EffectQuery,
    adjustment_total,
    back_door_admissible,
    causal_change,
    enumerate_compatible_dags,
    gallery_entry,
    ground_truth_direct,
    identify_direct,
    identify_direct_general,
    identify_direct_shared_order,
    identify_total,
    identify_total_general,
    identify_total_shared_order,
    oracle_direct,
    oracle_total,
    recompute_difference_graph,
    sample_compatible_pair,
    sample_dataset,
    single_door_admissible,
)

from diffgraph.oracle import _admissible_families, _checked_setup
from helpers import d_separated_by_paths, is_compatible_pair


# --------------------------------------------------------------------------
# 1. The bundled figure gallery yields its documented verdicts.

GALLERY_EXPECTED = {
    # graph id -> (total kind, total W, direct kind, direct W)
    "1c": (NOT_IDENTIFIABLE, None, NOT_IDENTIFIABLE, None),
    "1h": (ADJUSTMENT_IDENTIFIABLE, ("W1",), NOT_IDENTIFIABLE, None),
    "1m": (NOT_IDENTIFIABLE, None, ADJUSTMENT_IDENTIFIABLE, ("W1", "W2")),
    "2c": (NOT_IDENTIFIABLE, None, NOT_IDENTIFIABLE, None),
    # Without a shared order, edges shared by both models may point
    # against D, so the oracle finds no common set for 2f or 2k (see
    # tests/test_identify.py for a compatible DAG that defeats each one).
    "2f": (NOT_IDENTIFIABLE, None, NOT_IDENTIFIABLE, None),
    "2k": (NOT_IDENTIFIABLE, None, NOT_IDENTIFIABLE, None),
}


def test_gallery_entry_rejects_an_unknown_id():
    with pytest.raises(KeyError, match="no gallery graph with id '9z'"):
        gallery_entry("9z")


def test_gallery_verdicts_match_documented_answers():
    for graph_id, expected in GALLERY_EXPECTED.items():
        entry = gallery_entry(graph_id)
        total_kind, total_w, direct_kind, direct_w = expected
        q = EffectQuery(entry.graph, "X", "Y",
                        shared_order_assumed=entry.shared_order)
        total = identify_total(q)
        direct = identify_direct(q)
        assert total.kind == total_kind, f"{graph_id}: total {total.kind}"
        assert direct.kind == direct_kind, f"{graph_id}: direct {direct.kind}"
        if total_w is not None:
            assert total.adjustment_set == total_w, graph_id
        if direct_w is not None:
            assert direct.adjustment_set == direct_w, graph_id


# --------------------------------------------------------------------------
# 2-3. Closed-form verdicts versus the brute-force oracle, and soundness of
# every closed-form adjustment set, over one shared corpus.

CORPUS_SEED = 20240817
FOUR_VERTEX_SAMPLE = 2048


def _all_difference_graphs(names):
    pairs = list(itertools.permutations(names, 2))
    for bits in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
        yield DifferenceGraph(vertices=names, edges=edges)


def _sampled_difference_graphs(names, count, seed):
    pairs = list(itertools.permutations(names, 2))
    rng = np.random.default_rng(seed)
    for mask in rng.permutation(1 << len(pairs))[:count]:
        edges = [pairs[i] for i in range(len(pairs)) if int(mask) >> i & 1]
        yield DifferenceGraph(vertices=names, edges=edges)


CHECKERS = {
    ("shared", "total"): (identify_total_shared_order, oracle_total,
                          back_door_admissible),
    ("shared", "direct"): (identify_direct_shared_order, oracle_direct,
                           single_door_admissible),
    ("general", "total"): (identify_total_general, oracle_total,
                           back_door_admissible),
    ("general", "direct"): (identify_direct_general, oracle_direct,
                            single_door_admissible),
}


@functools.lru_cache(maxsize=1)
def _corpus_scan():
    """Compare every closed-form verdict with the oracle over the corpus.

    Returns (queries, audited, kind_mismatches, inadmissible) where the two
    trailing dicts map "mode/effect" labels to lists of human-readable
    descriptions of the offending cases (capped at three per label).
    """
    queries = 0
    audited = 0
    kind_mismatches = {f"{m}/{e}": [] for m, e in CHECKERS}
    mismatch_counts = {label: 0 for label in kind_mismatches}
    inadmissible = {f"{m}/{e}": [] for m, e in CHECKERS}
    inadmissible_counts = {label: 0 for label in inadmissible}

    corpus = list(_all_difference_graphs(("A", "B", "C")))
    corpus.extend(_sampled_difference_graphs(
        ("A", "B", "C", "D"), FOUR_VERTEX_SAMPLE, CORPUS_SEED))

    for d in corpus:
        modes = [("general", False)]
        if d.is_acyclic():
            modes.append(("shared", True))
        for mode, shared in modes:
            members = None
            for x, y in itertools.permutations(d.vertices, 2):
                q = EffectQuery(d, x, y, shared_order_assumed=shared)
                for effect in ("total", "direct"):
                    checker, oracle, admissible = CHECKERS[(mode, effect)]
                    label = f"{mode}/{effect}"
                    verdict = checker(q)
                    truth = oracle(d, x, y, shared_order=shared)
                    queries += 1
                    if verdict.kind != truth.kind:
                        mismatch_counts[label] += 1
                        if len(kind_mismatches[label]) < 3:
                            kind_mismatches[label].append(
                                f"D={sorted(d.edges)} {x}->{y}: "
                                f"closed-form {verdict.kind} "
                                f"({verdict.condition}), oracle {truth.kind}")
                    if verdict.kind != ADJUSTMENT_IDENTIFIABLE:
                        continue
                    audited += 1
                    if members is None:
                        members = enumerate_compatible_dags(
                            d, shared_order=shared)
                    bad = [g for g in members
                           if not admissible(g, x, y, verdict.adjustment_set)]
                    if bad:
                        inadmissible_counts[label] += 1
                        if len(inadmissible[label]) < 3:
                            inadmissible[label].append(
                                f"D={sorted(d.edges)} {x}->{y}: "
                                f"W={verdict.adjustment_set} fails in "
                                f"{len(bad)}/{len(members)} members, e.g. "
                                f"G={sorted(bad[0].edges)}")
    return (queries, audited, mismatch_counts, kind_mismatches,
            inadmissible_counts, inadmissible)


def _bucket_report(counts, examples):
    lines = []
    for label in sorted(counts):
        lines.append(f"{label}: {counts[label]}")
        lines.extend(f"  {case}" for case in examples[label])
    return "\n".join(lines)


def test_closed_form_verdicts_match_oracle_on_small_graphs():
    queries, _, counts, examples, _, _ = _corpus_scan()
    total = sum(counts.values())
    assert queries >= (64 + FOUR_VERTEX_SAMPLE) * 6 * 2
    assert total == 0, (
        f"{total} of {queries} verdicts disagree with the oracle\n"
        + _bucket_report(counts, examples))


def test_adjustment_sets_admissible_in_every_compatible_dag():
    _, audited, _, _, counts, examples = _corpus_scan()
    total = sum(counts.values())
    assert audited > 0
    assert total == 0, (
        f"{total} of {audited} closed-form adjustment sets are inadmissible "
        f"in at least one compatible DAG\n" + _bucket_report(counts, examples))


FIVE_VERTEX_SAMPLE = 150


def test_closed_form_is_sound_on_five_vertices():
    """Up to 4 vertices the reach search is exact and the scan above
    compares every verdict; at 5 it may over-report reach, so the closed
    form may miss a verdict.  Whatever it does decide must hold: its kind
    is the oracle's, and its adjustment set passes the effect's criterion
    in every compatible DAG.  Edge densities vary per graph so that both
    regimes get acyclic and cyclic D."""
    names = ("A", "B", "C", "D", "E")
    pairs = list(itertools.permutations(names, 2))
    rng = np.random.default_rng(CORPUS_SEED)
    decided = audited = 0
    for _ in range(FIVE_VERTEX_SAMPLE):
        keep = rng.random(len(pairs)) < rng.uniform(0.05, 0.4)
        d = DifferenceGraph(vertices=names,
                            edges=[e for e, k in zip(pairs, keep) if k])
        for shared in (False, True) if d.is_acyclic() else (False,):
            n, index, _, masks, _ = _checked_setup(d, shared)
            for x, y in itertools.permutations(names, 2):
                q = EffectQuery(d, x, y, shared_order_assumed=shared)
                for identify, oracle, effect in (
                        (identify_total, oracle_total, TOTAL),
                        (identify_direct, oracle_direct, DIRECT)):
                    verdict = identify(q)
                    if verdict.kind == NOT_IDENTIFIABLE:
                        continue
                    decided += 1
                    case = f"D={sorted(d.edges)} shared={shared} {x}->{y}"
                    truth = oracle(d, x, y, shared_order=shared)
                    assert verdict.kind == truth.kind, (
                        f"{case}: closed-form {verdict.kind} "
                        f"({verdict.condition}), oracle {truth.kind}")
                    if verdict.kind != ADJUSTMENT_IDENTIFIABLE:
                        continue
                    audited += 1
                    families = _admissible_families(
                        n, masks, index[x], index[y], effect)
                    w = sum(1 << index[v] for v in verdict.adjustment_set)
                    assert np.all(families >> w & 1), (
                        f"{case}: W={verdict.adjustment_set} fails in "
                        f"{np.count_nonzero(families >> w & 1 == 0)} of "
                        f"{len(masks)} compatible DAGs")
    assert decided >= 1000 and audited >= 100


def test_closed_form_misses_a_null_total_effect_on_five_vertices():
    """A known miss of the general-regime reach search (ROADMAP item 2):
    no compatible DAG has a path from E to A, but the search's walk may
    repeat vertices and reports reach.  An exact reach test flips this to
    NullEffect."""
    d = DifferenceGraph(vertices=("A", "B", "C", "D", "E"),
                        edges=[("A", "D"), ("A", "E"), ("B", "C"),
                               ("B", "E"), ("C", "D")])
    assert identify_total(EffectQuery(d, "E", "A")).kind == NOT_IDENTIFIABLE
    assert oracle_total(d, "E", "A").kind == NULL_EFFECT


# --------------------------------------------------------------------------
# 4. Direct-effect estimation on simulated linear pairs recovers the true
# coefficients and their change.

# (label, difference graph, shared order): one graph per regime whose
# direct effect of X on Y the oracle identifies by adjusting for {W1, W2}.
RECOVERY_GRAPHS = (
    ("1m", gallery_entry("1m").graph, True),
    ("cyclic", DifferenceGraph(
        vertices=("W1", "X", "W2", "Y"),
        edges=(("X", "Y"), ("W1", "Y"), ("W2", "Y"), ("W1", "W2"),
               ("W2", "W1"))), False),
)


def test_direct_effect_recovery_on_simulated_linear_pairs():
    n = 100_000
    seeds = range(20)
    for graph_id, graph, shared in RECOVERY_GRAPHS:
        q = EffectQuery(graph, "X", "Y", shared_order_assumed=shared)
        verdict = identify_direct(q)
        assert verdict.kind == ADJUSTMENT_IDENTIFIABLE
        truth = oracle_direct(graph, "X", "Y", shared_order=shared)
        assert truth.adjustment_set == verdict.adjustment_set
        errors1, errors2, change_errors = [], [], []
        for seed in seeds:
            pair = sample_compatible_pair(graph, shared_order=shared,
                                          seed=seed)
            data1 = sample_dataset(pair.scm1, n, seed=1000 + 2 * seed)
            data2 = sample_dataset(pair.scm2, n, seed=1001 + 2 * seed)
            report = causal_change(verdict, data1, data2, "X", "Y")
            true1 = ground_truth_direct(pair.scm1, "X", "Y")
            true2 = ground_truth_direct(pair.scm2, "X", "Y")
            errors1.append(abs(report.population1_value - true1))
            errors2.append(abs(report.population2_value - true2))
            change_errors.append(abs(report.change - (true1 - true2)))
        # every seed, not a summary: one bad pair must not hide behind
        # the others
        assert max(errors1) <= 0.05, (graph_id, errors1)
        assert max(errors2) <= 0.05, (graph_id, errors2)
        assert max(change_errors) <= 0.07, (graph_id, change_errors)


# --------------------------------------------------------------------------
# 5. Total-effect estimation on hand-built discrete networks matches exact
# marginalization.

def _sample_confounded_triangle(p_w1, p_x_given_w1, p_y_given_xw1, n, seed):
    """Draw from W1 -> X, W1 -> Y, X -> Y with the given Bernoulli CPTs."""
    rng = np.random.default_rng(seed)
    w1 = (rng.random(n) < p_w1).astype(int)
    x = (rng.random(n) < np.asarray(p_x_given_w1)[w1]).astype(int)
    y = (rng.random(n) < np.asarray(p_y_given_xw1)[x, w1]).astype(int)
    return Dataset(("W1", "X", "Y"), np.column_stack([w1, x, y]), DISCRETE)


CPT_NETWORKS = (
    # (P(W1=1), P(X=1|w1), P(Y=1|x,w1) indexed [x][w1], sampling seed)
    (0.4, (0.3, 0.8), ((0.2, 0.5), (0.7, 0.9)), 51),
    (0.65, (0.55, 0.15), ((0.35, 0.6), (0.45, 0.85)), 52),
)


def test_total_effect_recovery_on_discrete_networks():
    entry = gallery_entry("1h")
    q = EffectQuery(entry.graph, "X", "Y", shared_order_assumed=True)
    verdict = identify_total(q)
    assert verdict.adjustment_set == ("W1",)
    for p_w1, p_x, p_y, seed in CPT_NETWORKS:
        data = _sample_confounded_triangle(p_w1, p_x, p_y, 100_000, seed)
        table = adjustment_total(data, "X", "Y", verdict.adjustment_set)
        truth_y1 = np.asarray(p_y) @ np.array([1 - p_w1, p_w1])
        truth = np.column_stack([1 - truth_y1, truth_y1])
        assert table.probabilities.shape == truth.shape
        assert np.max(np.abs(table.probabilities - truth)) <= 0.01


# --------------------------------------------------------------------------
# 6. Null-effect verdicts estimate P(y|do(x)) as exactly the empirical
# outcome marginal, same counts, no tolerance.

def _discrete_pair(seed, n=4096):
    rng = np.random.default_rng(seed)
    def one(r):
        x = r.integers(0, 2, n)
        y = r.choice(3, n, p=(0.5, 0.3, 0.2))
        return Dataset(("X", "Y"), np.column_stack([x, y]), DISCRETE)
    return one(rng), one(rng)


@pytest.mark.parametrize("shared, condition", [(True, "A.1"),
                                               (False, "B.1")])
def test_null_effect_estimate_equals_outcome_marginal(shared, condition):
    d = DifferenceGraph(vertices=("X", "Y"), edges=(("Y", "X"),))
    q = EffectQuery(d, "X", "Y", shared_order_assumed=shared)
    verdict = identify_total(q)
    assert verdict.kind == NULL_EFFECT
    assert verdict.condition == condition
    data1, data2 = _discrete_pair(seed=97)
    report = causal_change(verdict, data1, data2, "X", "Y")
    for table, data in ((report.population1_value, data1),
                        (report.population2_value, data2)):
        marginal = np.bincount(data.column("Y"), minlength=3) / len(data)
        for row in table.probabilities:
            assert np.array_equal(row, marginal)
    # A longer ancestral route to the same verdict gets the same treatment
    # under a shared order.  Without one the effect is not null: the
    # compatible pair G1 = {Y->W2, X->Y}, G2 = {W2->X, X->Y} has X cause Y.
    d4 = DifferenceGraph(vertices=("W1", "X", "W2", "Y"),
                         edges=(("Y", "W2"), ("W2", "X")))
    verdict4 = identify_total(
        EffectQuery(d4, "X", "Y", shared_order_assumed=shared))
    if shared:
        assert verdict4.kind == NULL_EFFECT
        assert verdict4.condition == condition
    else:
        assert verdict4.kind != NULL_EFFECT
        g1 = CausalDag(vertices=d4.vertices, edges=(("Y", "W2"), ("X", "Y")))
        g2 = CausalDag(vertices=d4.vertices, edges=(("W2", "X"), ("X", "Y")))
        assert is_compatible_pair(g1, g2, d4, shared_order=False)


# --------------------------------------------------------------------------
# 7. Randomized invariants: d-separation against a path-enumeration
# reimplementation, ancestor/descendant duality, the acyclic-case collapse
# of the general checkers onto the shared-order ones, and the simulator
# round trip.  At least ten thousand cases in total, zero counterexamples.

def _random_names(rng, low, high):
    return tuple(string.ascii_uppercase[:rng.integers(low, high + 1)])


def _random_dag(rng, names, density=0.4):
    order = list(names)
    rng.shuffle(order)
    edges = [(order[i], order[j])
             for i in range(len(order)) for j in range(i + 1, len(order))
             if rng.random() < density]
    return CausalDag(vertices=names, edges=edges)


def _random_digraph(rng, names, density=0.3):
    edges = [pair for pair in itertools.permutations(names, 2)
             if rng.random() < density]
    return DifferenceGraph(vertices=names, edges=edges)


def test_randomized_invariants_hold():
    cases = 0
    failures = []

    # d-separation agrees with explicit path enumeration.
    rng = np.random.default_rng(7)
    for _ in range(3500):
        names = _random_names(rng, 2, 6)
        g = _random_dag(rng, names)
        x, y = rng.choice(len(names), size=2, replace=False)
        x, y = names[x], names[y]
        w = tuple(v for v in names
                  if v not in (x, y) and rng.random() < 0.35)
        cases += 1
        if g.d_separated(x, y, w) != d_separated_by_paths(g, x, y, w):
            failures.append(f"d-sep {sorted(g.edges)} {x},{y}|{w}")

    # Ancestors and descendants are dual, including through cycles.
    rng = np.random.default_rng(11)
    for _ in range(3000):
        names = _random_names(rng, 2, 7)
        g = _random_digraph(rng, names)
        cases += 1
        for x, y in itertools.permutations(names, 2):
            if (y in g.descendants(x)) != (x in g.ancestors(y)):
                failures.append(f"duality {sorted(g.edges)} {x},{y}")

    # On acyclic difference graphs a general-mode checker that decides a
    # query (null or adjustment) decides it as the shared-order one does.
    # The converse fails: a shared order can rule out paths that a
    # backwards-pointing shared edge opens without one.
    rng = np.random.default_rng(13)
    for _ in range(3000):
        names = _random_names(rng, 2, 7)
        dag = _random_dag(rng, names, density=0.35)
        d = DifferenceGraph(vertices=names, edges=tuple(dag.edges))
        x, y = rng.choice(len(names), size=2, replace=False)
        x, y = names[x], names[y]
        shared_q = EffectQuery(d, x, y, shared_order_assumed=True)
        general_q = EffectQuery(d, x, y, shared_order_assumed=False)
        cases += 1
        for shared_fn, general_fn in (
                (identify_total_shared_order, identify_total_general),
                (identify_direct_shared_order, identify_direct_general)):
            a, b = shared_fn(shared_q), general_fn(general_q)
            if b.kind != NOT_IDENTIFIABLE and (
                    a.kind, a.adjustment_set, a.formula) != (
                    b.kind, b.adjustment_set, b.formula):
                failures.append(
                    f"reduction {sorted(d.edges)} {x}->{y}: "
                    f"{a.kind}/{a.adjustment_set} vs {b.kind}/{b.adjustment_set}")

    # Simulated pairs reproduce their difference graph exactly.
    rng = np.random.default_rng(17)
    for _ in range(1700):
        names = _random_names(rng, 2, 8)
        shared = bool(rng.integers(0, 2))
        d = _random_digraph(rng, names, density=0.25)
        if shared and not d.is_acyclic():
            shared = False
        seed = int(rng.integers(0, 2**31))
        pair = sample_compatible_pair(d, shared_order=shared, seed=seed)
        cases += 1
        if recompute_difference_graph(pair.scm1, pair.scm2) != d:
            failures.append(f"round-trip {sorted(d.edges)} seed={seed}")
        elif not is_compatible_pair(pair.scm1.dag, pair.scm2.dag, d,
                                    shared_order=shared):
            failures.append(f"compatibility {sorted(d.edges)} seed={seed}")

    assert cases >= 10_000
    assert not failures, f"{len(failures)} counterexamples, e.g. {failures[:5]}"
