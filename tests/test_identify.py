"""Closed-form identifiability verdicts from difference graphs."""

import itertools

import pytest

from diffgraph import (
    ADJUSTMENT_IDENTIFIABLE,
    DIRECT,
    NOT_IDENTIFIABLE,
    NULL_EFFECT,
    TOTAL,
    CausalDag,
    DifferenceGraph,
    EffectQuery,
    back_door_admissible,
    enumerate_compatible_dags,
    identify_direct,
    identify_direct_general,
    identify_direct_shared_order,
    identify_total,
    identify_total_general,
    identify_total_shared_order,
    oracle_direct,
    oracle_total,
    single_door_admissible,
)
from diffgraph.figures import _verdict_cell
from helpers import DG_1C, DG_1H, DG_1M, DG_2C, DG_2F, DG_2K, all_dags


def _q(d, x="X", y="Y", shared=False):
    return EffectQuery(d, x, y, shared_order_assumed=shared)


def _member(d, edges):
    """The DAG with these edges, checked to be compatible with ``d``."""
    g = CausalDag(vertices=d.vertices, edges=edges)
    assert g in enumerate_compatible_dags(d)
    return g


def test_query_validation():
    with pytest.raises(ValueError, match="unknown vertex"):
        _q(DG_1H, "Z", "Y")
    with pytest.raises(ValueError, match="distinct"):
        _q(DG_1H, "X", "X")
    with pytest.raises(ValueError, match="cyclic"):
        _q(DG_2C, shared=True)
    # general-mode queries accept cyclic graphs
    assert _q(DG_2C).graph is DG_2C


def test_shared_order_checkers_require_the_assumption():
    with pytest.raises(ValueError, match="shared_order_assumed"):
        identify_total_shared_order(_q(DG_1H))
    with pytest.raises(ValueError, match="shared_order_assumed"):
        identify_direct_shared_order(_q(DG_1H))


def test_total_shared_order_gallery_verdicts():
    assert identify_total(_q(DG_1C, shared=True)).kind == NOT_IDENTIFIABLE

    v = identify_total(_q(DG_1H, shared=True))
    assert v.kind == ADJUSTMENT_IDENTIFIABLE
    assert v.condition == "A.2"
    assert v.adjustment_set == ("W1",)
    assert v.formula == "P(Y|do(X)) = sum_{W1} P(Y|X,W1) P(W1)"

    assert identify_total(_q(DG_1M, shared=True)).kind == NOT_IDENTIFIABLE


def test_total_null_effect_when_outcome_is_upstream():
    v = identify_total(_q(DG_1H, "X", "W1", shared=True))
    assert v.kind == NULL_EFFECT
    assert v.condition == "A.1"
    assert v.formula == "P(W1|do(X)) = P(W1)"


def test_total_general_gallery_verdicts():
    assert identify_total(_q(DG_2C)).kind == NOT_IDENTIFIABLE

    # Without a shared order an edge shared by both models may point
    # against D: in the compatible G = {W2->Y, X->Y, Y->W1} the shared edge
    # Y->W1 makes W1 a descendant of X, so {W1} is no back-door set there.
    assert identify_total(_q(DG_2F)).kind == NOT_IDENTIFIABLE
    g = _member(DG_2F, [("W2", "Y"), ("X", "Y"), ("Y", "W1")])
    assert "W1" in g.descendants("X")
    assert not back_door_admissible(g, "X", "Y", ("W1",))

    assert identify_total(_q(DG_2K)).kind == NOT_IDENTIFIABLE


def test_total_general_null_needs_one_direction_only():
    # X -> W2 is the only D-edge between W2 and X, yet W2 reaches X in the
    # compatible G = {W2->Y, Y->W1, W1->X}, through the shared edge Y->W1.
    assert identify_total(_q(DG_2F, "W2", "X")).kind != NULL_EFFECT
    g = _member(DG_2F, [("W2", "Y"), ("Y", "W1"), ("W1", "X")])
    assert "X" in g.descendants("W2")
    # X and Y on a difference cycle: each is upstream of the other, so the
    # "effect unchanged" reading is unavailable.
    assert identify_total(_q(DG_2C)).kind == NOT_IDENTIFIABLE


def test_direct_shared_order_gallery_verdicts():
    v = identify_direct(_q(DG_1M, shared=True))
    assert v.kind == ADJUSTMENT_IDENTIFIABLE
    assert v.condition == "C.2"
    assert v.adjustment_set == ("W1", "W2")
    assert v.formula == ("alpha(X->Y) = coefficient of X in the regression "
                         "of Y on {X, W1, W2}")

    assert identify_direct(_q(DG_1H, shared=True)).kind == NOT_IDENTIFIABLE
    assert identify_direct(_q(DG_1C, shared=True)).kind == NOT_IDENTIFIABLE


def test_direct_null_effect_condition():
    v = identify_direct(_q(DG_1H, "X", "W1", shared=True))
    assert v.kind == NULL_EFFECT
    assert v.condition == "C.1"
    assert v.formula == "alpha(X->W1) = 0"


def test_direct_general_gallery_verdicts():
    # In the compatible G = {X->W2, X->Y, Y->W1} the set {W1, W2} holds a
    # descendant of Y, which the single-door criterion forbids.
    assert identify_direct(_q(DG_2K)).kind == NOT_IDENTIFIABLE
    g = _member(DG_2K, [("X", "W2"), ("X", "Y"), ("Y", "W1")])
    assert not single_door_admissible(g, "X", "Y", ("W1", "W2"))

    assert identify_direct(_q(DG_2F)).kind == NOT_IDENTIFIABLE
    assert identify_direct(_q(DG_2C)).kind == NOT_IDENTIFIABLE


def test_direct_general_null_condition():
    v = identify_direct(_q(DG_2F, "W2", "X"))
    assert v.kind == NULL_EFFECT
    assert v.condition == "D.1"


def test_gallery_cell_of_a_null_verdict_names_its_clause():
    d = DifferenceGraph(vertices=["X", "Y"], edges=[("X", "Y")])
    cells = [_verdict_cell(identify(EffectQuery(d, "Y", "X", shared)))
             for shared in (True, False)
             for identify in (identify_total, identify_direct)]
    assert cells == ["null effect (A.1)", "null effect (C.1)",
                     "null effect (B.1)", "null effect (D.1)"]


def test_empty_adjustment_set_formula():
    d = DifferenceGraph(vertices=["X", "Y"], edges=[("X", "Y")])
    v = identify_total(_q(d, shared=True))
    assert v.adjustment_set == ()
    assert v.formula == "P(Y|do(X)) = P(Y|X)"
    w = identify_direct(_q(d, shared=True))
    assert w.adjustment_set == ()
    assert w.formula == ("alpha(X->Y) = coefficient of X in the regression "
                         "of Y on {X}")


def test_verdict_as_dict_shapes():
    v = identify_total(_q(DG_1H, shared=True))
    assert v.as_dict() == {
        "kind": ADJUSTMENT_IDENTIFIABLE,
        "condition": "A.2",
        "formula": "P(Y|do(X)) = sum_{W1} P(Y|X,W1) P(W1)",
        "adjustment_set": ["W1"],
    }
    n = identify_total(_q(DG_1M, shared=True))
    assert n.as_dict() == {
        "kind": NOT_IDENTIFIABLE,
        "condition": "none",
        "formula": "",
    }


def test_verdicts_carry_their_effect():
    """Every entry point labels its verdicts with the effect they decide,
    for each kind, and the label stays out of the JSON document."""
    for d, x, y, shared in ((DG_1H, "X", "Y", True), (DG_1H, "Y", "X", True),
                            (DG_1M, "X", "Y", True), (DG_2C, "X", "Y", False)):
        q = _q(d, x, y, shared)
        total = (identify_total(q), identify_total_general(q),
                 oracle_total(d, x, y, shared_order=shared))
        direct = (identify_direct(q), identify_direct_general(q),
                  oracle_direct(d, x, y, shared_order=shared))
        if shared:
            total += (identify_total_shared_order(q),)
            direct += (identify_direct_shared_order(q),)
        assert {v.effect for v in total} == {TOTAL}
        assert {v.effect for v in direct} == {DIRECT}
        assert all("effect" not in v.as_dict() for v in total + direct)


def test_verdicts_from_edges_alone_leave_a_parsed_graph_unlinked():
    """A parsed difference graph builds its parent and child lists only
    when a verdict reads them: general-regime verdicts decided from the
    edge set leave both unset.  A causal DAG builds them at once, for its
    acyclicity test."""
    d = DifferenceGraph.from_edge_list("node X\nnode Y\nW -> Y\n")
    q = _q(d)
    assert identify_total(q).kind == NOT_IDENTIFIABLE
    assert identify_direct(q).kind == NOT_IDENTIFIABLE
    assert "_parents" not in vars(d) and "_children" not in vars(d)
    g = CausalDag(edges=[("W", "Y")])
    assert "_parents" in vars(g) and "_children" in vars(g)


def _all_difference_dags(max_vertices=4):
    for n in range(2, max_vertices + 1):
        names = tuple(f"V{i}" for i in range(n))
        for g in all_dags(names):
            yield DifferenceGraph(vertices=names, edges=g.edges)


def _decided_alike(general, shared):
    """A general-regime verdict that decides the question (null or
    adjustment) must be the shared-order one: same kind, set and formula."""
    return general.kind == NOT_IDENTIFIABLE or (
        (general.kind, general.adjustment_set, general.formula)
        == (shared.kind, shared.adjustment_set, shared.formula))


def test_general_verdicts_are_sound_on_a_five_vertex_graph():
    """Each general-regime verdict here is the oracle's or NotIdentifiable.

    The walk search behind reach over-reports on this graph, so some
    verdicts the oracle decides come out NotIdentifiable; only soundness
    is asserted.
    """
    d = DifferenceGraph(edges=[("A", "C"), ("A", "E"), ("B", "C"),
                               ("B", "D"), ("D", "E")])
    for x, y in itertools.permutations(d.vertices, 2):
        for closed_form, brute_force in ((identify_total, oracle_total),
                                         (identify_direct, oracle_direct)):
            verdict = closed_form(_q(d, x, y))
            truth = brute_force(d, x, y)
            assert verdict.kind == NOT_IDENTIFIABLE or (
                (verdict.kind, verdict.adjustment_set)
                == (truth.kind, truth.adjustment_set)), (x, y, truth)


def test_general_checkers_reduce_to_shared_order_on_acyclic_graphs():
    """On every difference DAG up to 4 vertices, whenever the general
    checkers decide a query the shared-order checkers decide it the same
    way.  The converse does not hold: for D = {Y->W2, W2->X} the shared
    order makes X's effect on Y null, but without it the compatible pair
    {Y->W2, X->Y}, {W2->X, X->Y} has X cause Y."""
    checked = 0
    for d in _all_difference_dags():
        for x, y in itertools.permutations(d.vertices, 2):
            shared_t = identify_total_shared_order(_q(d, x, y, shared=True))
            general_t = identify_total_general(_q(d, x, y))
            assert _decided_alike(general_t, shared_t), (d, x, y)
            shared_d = identify_direct_shared_order(_q(d, x, y, shared=True))
            general_d = identify_direct_general(_q(d, x, y))
            assert _decided_alike(general_d, shared_d), (d, x, y)
            checked += 1
    assert checked == (3 * 2 + 25 * 6 + 543 * 12)


def test_conditions_are_mutually_exclusive_on_dags():
    for d in _all_difference_dags(3):
        for x, y in itertools.permutations(d.vertices, 2):
            v = identify_total_shared_order(_q(d, x, y, shared=True))
            w = identify_direct_shared_order(_q(d, x, y, shared=True))
            if v.kind == NULL_EFFECT:
                assert x not in d.ancestors(y) or y in d.ancestors(x)
            if v.kind == ADJUSTMENT_IDENTIFIABLE:
                assert y not in d.ancestors(x)
            if w.kind == ADJUSTMENT_IDENTIFIABLE:
                assert y not in d.ancestors(x)
