"""Linear-SCM pair sampling and ancestral dataset generation."""

import itertools

import numpy as np
import pytest

from diffgraph import (
    CausalDag,
    DifferenceGraph,
    LinearScm,
    ScmPair,
    ground_truth_direct,
    ground_truth_total_linear,
    recompute_difference_graph,
    sample_compatible_pair,
    sample_dataset,
    shares_topological_order,
)
from diffgraph.oracle import _checked_setup, _partner_masks
from diffgraph.simulate import SEPARATION_MARGIN
from helpers import (
    DG_1C,
    DG_1H,
    DG_1M,
    DG_2C,
    DG_2F,
    DG_2K,
    all_dags,
    is_compatible_pair,
)

GALLERY = {"1c": DG_1C, "1h": DG_1H, "1m": DG_1M,
           "2c": DG_2C, "2f": DG_2F, "2k": DG_2K}


def test_linear_scm_validation():
    dag = CausalDag(edges=[("X", "Y")])
    with pytest.raises(ValueError, match="edge set"):
        LinearScm(dag, coefficients={})
    with pytest.raises(ValueError, match="nonzero"):
        LinearScm(dag, coefficients={("X", "Y"): 0.0})


def test_scm_pair_rejects_mismatched_difference():
    dag = CausalDag(edges=[("X", "Y")])
    scm1 = LinearScm(dag, coefficients={("X", "Y"): 1.0})
    scm2 = LinearScm(dag, coefficients={("X", "Y"): 1.0})
    d = DifferenceGraph(vertices=["X", "Y"], edges=[("X", "Y")])
    with pytest.raises(ValueError):
        ScmPair(scm1, scm2, d)  # equal coefficients: no difference realized


def test_scm_pair_rejects_changes_closer_than_the_margin():
    dag = CausalDag(edges=[("X", "Y")])
    scm1 = LinearScm(dag, coefficients={("X", "Y"): 0.5})
    scm2 = LinearScm(dag, coefficients={("X", "Y"): 0.625})
    d = DifferenceGraph(vertices=["X", "Y"], edges=[("X", "Y")])
    with pytest.raises(ValueError, match=r"^changed coefficient on "
                       r"\('X', 'Y'\) separated by only 0\.125$"):
        ScmPair(scm1, scm2, d)


def test_recompute_difference_graph_by_hand():
    g1 = CausalDag(vertices=["X", "Y", "Z"], edges=[("X", "Y"), ("Y", "Z")])
    g2 = CausalDag(vertices=["X", "Y", "Z"], edges=[("Y", "Z")])
    scm1 = LinearScm(g1, coefficients={("X", "Y"): 1.0, ("Y", "Z"): 2.0})
    scm2 = LinearScm(g2, coefficients={("Y", "Z"): 2.0})
    d = recompute_difference_graph(scm1, scm2)
    assert d.edges == {("X", "Y")}

    scm2b = LinearScm(g2, coefficients={("Y", "Z"): 2.5})
    assert recompute_difference_graph(scm1, scm2b).edges \
        == {("X", "Y"), ("Y", "Z")}

    g3 = CausalDag(vertices=["X", "Y", "W"], edges=[("Y", "W")])
    scm3 = LinearScm(g3, coefficients={("Y", "W"): 2.0})
    with pytest.raises(ValueError, match="different vertex sets"):
        recompute_difference_graph(scm1, scm3)


@pytest.mark.parametrize("gid", sorted(GALLERY))
def test_sampled_pairs_round_trip_and_respect_the_regime(gid):
    d = GALLERY[gid]
    shared = gid.startswith("1")
    for seed in range(8):
        pair = sample_compatible_pair(d, shared_order=shared, seed=seed)
        assert recompute_difference_graph(pair.scm1, pair.scm2) == d
        assert is_compatible_pair(pair.scm1.dag, pair.scm2.dag, d, shared)
        if shared:
            assert shares_topological_order(pair.scm1.dag, pair.scm2.dag)


def test_partners_are_every_dag_that_pairs_by_definition():
    """For each gallery graph, in each regime the graph allows, the partners
    of a compatible g1 are exactly the DAGs that the independent definition
    pairs with g1, in ascending mask order.  That is checked for every g1
    under a shared order, where it is one partner per subset of g1's
    D-edges, and for every second g1 in the general regime."""
    shared_g1s = 0
    dags_of = {}
    for d in GALLERY.values():
        if d.vertices not in dags_of:
            n = len(d.vertices)
            index = {v: i for i, v in enumerate(d.vertices)}
            dags_of[d.vertices] = sorted(
                (sum(1 << index[t] * n + index[h] for t, h in g.edges), g)
                for g in all_dags(d.vertices))
        dags = dags_of[d.vertices]
        by_mask = dict(dags)
        for shared in (False, True):
            if shared and not d.is_acyclic():
                continue
            _, _, d_mask, compatible, _ = _checked_setup(d, shared)
            for g1 in compatible.tolist()[::1 if shared else 2]:
                expected = [m for m, g2 in dags if is_compatible_pair(
                    by_mask[g1], g2, d, shared)]
                partners = _partner_masks(compatible, d_mask, g1).tolist()
                assert partners == expected, (d, shared, g1)
                if shared:
                    assert len(partners) == 2 ** (g1 & d_mask).bit_count()
                    shared_g1s += 1
    assert shared_g1s == 3 + 96 + 128


def test_sampled_structure_is_pinned_for_a_seed():
    # both models keep the D-edges W1->X and W2->Y, so the partner is one
    # of several; a change to how either DAG is drawn shows here
    pair = sample_compatible_pair(DG_2K, shared_order=False, seed=4)
    assert sorted(pair.scm1.dag.edges) == [
        ("W1", "X"), ("W1", "Y"), ("W2", "X"), ("W2", "Y")]
    assert sorted(pair.scm2.dag.edges) == [
        ("W1", "X"), ("W1", "Y"), ("W2", "Y"), ("X", "W2"), ("X", "Y")]


@pytest.mark.parametrize("d, shared, seed, g1, g2", [
    (DG_1M, True, 8,
     [("W1", "Y"), ("W2", "Y"), ("X", "W2"), ("X", "Y")],
     [("W1", "X"), ("W1", "Y"), ("X", "W2"), ("X", "Y")]),
    (DG_2K, False, 2,
     [("W1", "W2"), ("W1", "X"), ("W1", "Y"), ("W2", "X"), ("W2", "Y"),
      ("X", "Y")],
     [("W1", "W2"), ("W1", "Y"), ("X", "W2"), ("X", "Y")]),
], ids=["1m-shared-seed8", "2k-general-seed2"])
def test_partner_draw_indexes_partners_in_ascending_mask_order(
        d, shared, seed, g1, g2):
    # ordering the partners another way (by subset size, say) draws a
    # different G2 for these seeds
    pair = sample_compatible_pair(d, shared_order=shared, seed=seed)
    assert sorted(pair.scm1.dag.edges) == g1
    assert sorted(pair.scm2.dag.edges) == g2


def test_sampling_is_deterministic_in_the_seed():
    a = sample_compatible_pair(DG_1H, shared_order=True, seed=42)
    b = sample_compatible_pair(DG_1H, shared_order=True, seed=42)
    assert a.scm1.dag == b.scm1.dag
    assert a.scm1.coefficients == b.scm1.coefficients
    assert a.scm2.coefficients == b.scm2.coefficients
    c = sample_compatible_pair(DG_1H, shared_order=True, seed=43)
    assert (a.scm1.dag != c.scm1.dag
            or a.scm1.coefficients != c.scm1.coefficients
            or a.scm2.coefficients != c.scm2.coefficients)


def test_changed_edges_keep_a_separation_margin():
    for seed in range(10):
        pair = sample_compatible_pair(DG_1M, shared_order=True, seed=seed)
        for edge in DG_1M.edges:
            a1 = pair.scm1.coefficients.get(edge, 0.0)
            a2 = pair.scm2.coefficients.get(edge, 0.0)
            assert abs(a1 - a2) >= SEPARATION_MARGIN


def test_unchanged_edges_share_coefficients():
    for seed in range(10):
        pair = sample_compatible_pair(DG_1H, shared_order=True, seed=seed)
        shared_edges = (pair.scm1.dag.edges & pair.scm2.dag.edges) \
            - DG_1H.edges
        for edge in shared_edges:
            assert pair.scm1.coefficients[edge] \
                == pair.scm2.coefficients[edge]


def test_sample_dataset_shape_order_and_determinism():
    pair = sample_compatible_pair(DG_1H, shared_order=True, seed=1)
    data = sample_dataset(pair.scm1, 100, seed=9)
    assert data.kind == "continuous"
    assert data.variable_names == pair.scm1.dag.vertices
    assert data.rows.shape == (100, 4)
    again = sample_dataset(pair.scm1, 100, seed=9)
    assert np.array_equal(data.rows, again.rows)
    other = sample_dataset(pair.scm1, 100, seed=10)
    assert not np.array_equal(data.rows, other.rows)
    with pytest.raises(ValueError):
        sample_dataset(pair.scm1, 0)
    with pytest.raises(ValueError, match="^need at least one variable$"):
        sample_dataset(LinearScm(CausalDag(), coefficients={}), 5)


def test_source_noise_moments():
    dag = CausalDag(vertices=["X"])
    gauss = LinearScm(dag, coefficients={})
    rows = sample_dataset(gauss, 1_000_000, seed=2).column("X")
    assert abs(rows.mean()) < 0.01
    assert abs(rows.var() - 1.0) < 0.02


def test_linear_mechanism_is_respected():
    dag = CausalDag(edges=[("X", "Y")])
    scm = LinearScm(dag, coefficients={("X", "Y"): 2.0})
    data = sample_dataset(scm, 200_000, seed=4)
    x, y = data.column("X"), data.column("Y")
    resid = y - 2.0 * x
    assert abs(resid.mean()) < 0.01
    assert abs(resid.var() - 1.0) < 0.02


def test_ground_truth_direct_is_bit_exact():
    pair = sample_compatible_pair(DG_1M, shared_order=True, seed=6)
    for scm in (pair.scm1, pair.scm2):
        alpha = scm.coefficients.get(("X", "Y"), 0.0)
        assert ground_truth_direct(scm, "X", "Y") == alpha
    with pytest.raises(KeyError):
        ground_truth_direct(pair.scm1, "X", "Z")


def test_ground_truth_total_linear_rejects_an_unknown_vertex():
    scm = LinearScm(CausalDag(edges=[("X", "Y")]),
                    coefficients={("X", "Y"): 2.0})
    for x, y in (("Z", "Y"), ("X", "Z")):
        with pytest.raises(KeyError, match="unknown vertex 'Z'"):
            ground_truth_total_linear(scm, x, y)


def test_ground_truth_total_linear_sums_paths():
    chain = CausalDag(edges=[("X", "M"), ("M", "Y")])
    scm = LinearScm(chain, coefficients={("X", "M"): 2.0, ("M", "Y"): 3.0})
    assert ground_truth_total_linear(scm, "X", "Y") == 6.0
    assert ground_truth_total_linear(scm, "Y", "X") == 0.0

    wide = CausalDag(vertices=["W1", "X", "W2", "Y"],
                     edges=[("W1", "X"), ("W1", "Y"), ("X", "W2"),
                            ("W2", "Y"), ("X", "Y")])
    ones = LinearScm(wide, coefficients={e: 1.0 for e in wide.edges})
    assert ground_truth_total_linear(ones, "X", "Y") == 2.0
    assert ground_truth_total_linear(ones, "W1", "Y") == 3.0


def test_total_effect_matches_monte_carlo():
    pair = sample_compatible_pair(DG_2F, shared_order=False, seed=12)
    scm = pair.scm1
    truth = ground_truth_total_linear(scm, "X", "Y")
    # the total linear effect equals the coefficient of x when regressing
    # y on x plus x's parents (a valid back-door set in the known DAG)
    data = sample_dataset(scm, 300_000, seed=13)
    covs = list(scm.dag.parents("X"))
    cols = [data.column("X")] + [data.column(c) for c in covs]
    design = np.column_stack([np.ones(len(data))] + cols)
    beta, *_ = np.linalg.lstsq(design, data.column("Y"), rcond=None)
    assert beta[1] == pytest.approx(truth, abs=0.02)


def test_above_cap_construction_still_round_trips():
    names = [f"V{i}" for i in range(7)]
    d = DifferenceGraph(vertices=names,
                        edges=[("V0", "V1"), ("V2", "V3"), ("V3", "V4"),
                               ("V5", "V6")])
    for seed in (0, 1, 2):
        pair = sample_compatible_pair(d, shared_order=True, seed=seed)
        assert recompute_difference_graph(pair.scm1, pair.scm2) == d
        assert shares_topological_order(pair.scm1.dag, pair.scm2.dag)
    general = sample_compatible_pair(d, shared_order=False, seed=3)
    assert recompute_difference_graph(general.scm1, general.scm2) == d


def test_above_cap_cyclic_difference_general_mode():
    names = [f"V{i}" for i in range(6)]
    d = DifferenceGraph(vertices=names,
                        edges=[("V0", "V1"), ("V1", "V0"), ("V2", "V3"),
                               ("V4", "V5")])
    pair = sample_compatible_pair(d, shared_order=False, seed=5)
    assert recompute_difference_graph(pair.scm1, pair.scm2) == d
    with pytest.raises(ValueError, match="cyclic"):
        sample_compatible_pair(d, shared_order=True, seed=5)


def test_above_cap_pairs_reproduce_random_difference_graphs():
    rng = np.random.default_rng(2024)
    two_cycles = shared_edges = 0
    for case in range(60):
        n = int(rng.integers(6, 13))
        names = [f"V{i}" for i in range(n)]
        shared = case % 2 == 0
        if shared:
            order = [names[i] for i in rng.permutation(n)]
            candidates = itertools.combinations(order, 2)
        else:
            candidates = itertools.permutations(names, 2)
        edges = [e for e in candidates if rng.random() < 0.2]
        d = DifferenceGraph(vertices=names, edges=edges)
        two_cycles += sum((h, t) in d.edges for t, h in d.edges)
        pair = sample_compatible_pair(d, shared_order=shared, seed=case)
        assert recompute_difference_graph(pair.scm1, pair.scm2) == d
        assert is_compatible_pair(pair.scm1.dag, pair.scm2.dag, d, shared)
        if shared:
            assert shares_topological_order(pair.scm1.dag, pair.scm2.dag)
        shared_edges += len(pair.scm1.dag.edges & pair.scm2.dag.edges
                            - d.edges)
    assert two_cycles > 0
    assert shared_edges > 0
