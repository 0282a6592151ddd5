"""Brute-force enumeration oracle and the graphical admissibility criteria."""

import hashlib
import itertools
import random

import numpy as np
import pytest

from diffgraph import oracle
from diffgraph import (
    ADJUSTMENT_IDENTIFIABLE,
    DIRECT,
    NOT_IDENTIFIABLE,
    NULL_EFFECT,
    TOTAL,
    CausalDag,
    DifferenceGraph,
    back_door_admissible,
    enumerate_compatible_dags,
    identify_direct_shared_order,
    identify_total_shared_order,
    oracle_direct,
    oracle_total,
    single_door_admissible,
    EffectQuery,
)
import census
from helpers import (
    DG_1C,
    DG_1H,
    DG_1M,
    DG_2C,
    DG_2F,
    DG_2K,
    GALLERY_PAIRS,
    PAIRS_1H,
    PAIRS_1M,
    all_dags,
    is_compatible_pair,
)


def _edge_sets(dags):
    return {g.edges for g in dags}


def test_enumerate_two_vertex_no_difference():
    got = _edge_sets(enumerate_compatible_dags(DG_1C, shared_order=True))
    assert got == {frozenset(), frozenset({("X", "Y")}),
                   frozenset({("Y", "X")})}
    assert got == _edge_sets(enumerate_compatible_dags(DG_1C))


def test_enumerate_two_vertex_single_difference_edge():
    d = DifferenceGraph(vertices=["X", "Y"], edges=[("X", "Y")])
    got = _edge_sets(enumerate_compatible_dags(d, shared_order=True))
    assert got == {frozenset(), frozenset({("X", "Y")})}


def test_enumerate_two_cycle_general_mode():
    got = _edge_sets(enumerate_compatible_dags(DG_2C))
    assert got == {frozenset({("X", "Y")}), frozenset({("Y", "X")})}


def test_enumerate_shared_order_rejects_cyclic_difference_graph():
    with pytest.raises(ValueError, match="cyclic"):
        enumerate_compatible_dags(DG_2C, shared_order=True)
    with pytest.raises(ValueError, match="cyclic"):
        oracle_total(DG_2F, "X", "Y", shared_order=True)


def test_vertex_cap_enforced():
    big = DifferenceGraph(vertices=[f"V{i}" for i in range(6)])
    with pytest.raises(ValueError, match="capped at 5"):
        enumerate_compatible_dags(big)
    with pytest.raises(ValueError, match="capped at 5"):
        oracle_total(big, "V0", "V1")
    with pytest.raises(ValueError, match="capped at 5"):
        oracle_direct(big, "V0", "V1")


def test_enumerate_is_deterministic_and_vertex_faithful():
    a = enumerate_compatible_dags(DG_1H, shared_order=True)
    b = enumerate_compatible_dags(
        DifferenceGraph(vertices=DG_1H.vertices, edges=DG_1H.edges),
        shared_order=True)
    assert a == b
    assert all(g.vertices == DG_1H.vertices for g in a)


@pytest.mark.parametrize("gid", sorted(GALLERY_PAIRS))
def test_enumerate_matches_pairwise_definition(gid):
    """Cross-check the enumeration against a second implementation that
    scans every DAG pair for the compatibility conditions directly."""
    d, _ = GALLERY_PAIRS[gid]
    shared = gid.startswith("1")
    universe = all_dags(d.vertices)
    by_signature = {}
    for g in universe:
        by_signature.setdefault(g.edges - d.edges, []).append(g)
    expected = {
        g.edges
        for g in universe
        if any(is_compatible_pair(g, h, d, shared)
               for h in by_signature[g.edges - d.edges])
    }
    assert _edge_sets(enumerate_compatible_dags(d, shared_order=shared)) \
        == expected


@pytest.mark.parametrize("gid", sorted(GALLERY_PAIRS))
def test_bundled_pairs_are_compatible_and_enumerated(gid):
    d, pairs = GALLERY_PAIRS[gid]
    shared = gid.startswith("1")
    members = _edge_sets(enumerate_compatible_dags(d, shared_order=shared))
    for g1, g2 in pairs:
        assert is_compatible_pair(g1, g2, d, shared)
        assert g1.edges in members
        assert g2.edges in members


def test_oracle_total_gallery_native_regimes():
    v = oracle_total(DG_1H, "X", "Y", shared_order=True)
    assert v.kind == ADJUSTMENT_IDENTIFIABLE
    assert v.adjustment_set == ("W1",)

    assert oracle_total(DG_1M, "X", "Y", shared_order=True).kind \
        == NOT_IDENTIFIABLE
    assert oracle_total(DG_1C, "X", "Y", shared_order=True).kind \
        == NOT_IDENTIFIABLE
    assert oracle_total(DG_2C, "X", "Y").kind == NOT_IDENTIFIABLE


def test_oracle_direct_gallery_native_regimes():
    v = oracle_direct(DG_1M, "X", "Y", shared_order=True)
    assert v.kind == ADJUSTMENT_IDENTIFIABLE
    assert v.adjustment_set == ("W1", "W2")

    assert oracle_direct(DG_1H, "X", "Y", shared_order=True).kind \
        == NOT_IDENTIFIABLE
    assert oracle_direct(DG_2C, "X", "Y").kind == NOT_IDENTIFIABLE


def test_oracle_direct_null_effect_two_vertices():
    d = DifferenceGraph(vertices=["X", "Y"], edges=[("Y", "X")])
    v = oracle_direct(d, "X", "Y", shared_order=True)
    assert v.kind == NULL_EFFECT
    assert v.formula == "alpha(X->Y) = 0"


def test_oracle_query_errors_come_from_effect_query():
    d = DifferenceGraph(vertices=["X", "Y"], edges=[("X", "Y")])
    for fn in (oracle_total, oracle_direct):
        for x, y in (("X", "Z"), ("Z", "Y")):
            with pytest.raises(ValueError, match="unknown vertex 'Z'"):
                fn(d, x, y)
        with pytest.raises(ValueError, match="must be distinct"):
            fn(d, "X", "X")
    # the cap and the shared-order check still come first
    big = DifferenceGraph(vertices=[f"V{i}" for i in range(6)])
    with pytest.raises(ValueError, match="capped at 5"):
        oracle_total(big, "V0", "Z")
    cyclic = DifferenceGraph(edges=[("X", "Y"), ("Y", "X")])
    with pytest.raises(ValueError, match="cyclic"):
        oracle_direct(cyclic, "X", "X", shared_order=True)


def test_oracle_total_null_effect_consistency():
    d = DifferenceGraph(vertices=["X", "Y"], edges=[("X", "Y")])
    v = oracle_total(d, "Y", "X", shared_order=True)
    assert v.kind == NULL_EFFECT
    for g in enumerate_compatible_dags(d, shared_order=True):
        assert "X" not in g.descendants("Y") - {"Y"}


def _null_check_corpus():
    """All 64 three-vertex difference graphs and 200 seeded four-vertex
    ones."""
    for names, picks in ((("A", "B", "C"), range(1 << 6)),
                         (("A", "B", "C", "D"),
                          random.Random(11).sample(range(1 << 12), 200))):
        pairs = list(itertools.permutations(names, 2))
        yield from (DifferenceGraph(vertices=names, edges=[
            p for k, p in enumerate(pairs) if bits >> k & 1])
            for bits in picks)


def test_null_verdicts_match_reach_and_edges_of_the_compatible_dags():
    """NullEffect exactly when no compatible DAG has a directed path from
    x to y (total) or the edge x -> y (direct), read off the enumerated
    CausalDag objects."""
    nulls = {TOTAL: 0, DIRECT: 0}
    for d in _null_check_corpus():
        for shared in (False, True)[:1 + d.is_acyclic()]:
            dags = enumerate_compatible_dags(d, shared_order=shared)
            edges = frozenset().union(*(g.edges for g in dags))
            for x, y in itertools.permutations(d.vertices, 2):
                reached = any(y in g.descendants(x) for g in dags)
                total = oracle_total(d, x, y, shared_order=shared)
                direct = oracle_direct(d, x, y, shared_order=shared)
                assert (total.kind == NULL_EFFECT) != reached, (d, x, y)
                assert (direct.kind == NULL_EFFECT) == ((x, y) not in edges)
                nulls[TOTAL] += total.kind == NULL_EFFECT
                nulls[DIRECT] += direct.kind == NULL_EFFECT
    assert min(nulls.values()) > 0


def _admissible_family(g, x, y, criterion):
    rest = [v for v in g.vertices if v not in (x, y)]
    family = set()
    for r in range(len(rest) + 1):
        for w in itertools.combinations(rest, r):
            if criterion(g, x, y, w):
                family.add(frozenset(w))
    return family


@pytest.mark.parametrize("gid,effect", [
    ("1c", "total"), ("1c", "direct"),
    ("1m", "total"), ("1h", "direct"),
    ("2c", "total"), ("2c", "direct"),
    ("2f", "total"), ("2f", "direct"),
    ("2k", "total"), ("2k", "direct"),
])
def test_witnesses_are_verifiable(gid, effect):
    """Every NotIdentifiable witness is a pair of compatible DAGs whose
    admissible-set families share no member."""
    d, _ = GALLERY_PAIRS[gid]
    shared = gid.startswith("1")
    if effect == "total":
        verdict = oracle_total(d, "X", "Y", shared_order=shared)
        criterion = back_door_admissible
    else:
        verdict = oracle_direct(d, "X", "Y", shared_order=shared)
        criterion = single_door_admissible
    assert verdict.kind == NOT_IDENTIFIABLE
    assert verdict.witness is not None
    g1, g2 = verdict.witness
    members = _edge_sets(enumerate_compatible_dags(d, shared_order=shared))
    assert g1.edges in members and g2.edges in members
    fam1 = _admissible_family(g1, "X", "Y", criterion)
    fam2 = _admissible_family(g2, "X", "Y", criterion)
    assert not fam1 & fam2


def test_oracle_adjustment_set_is_the_only_common_set():
    # X <- W1 -> Y with the difference graph forcing W1 into every model
    # pair: {W1} is the only common back-door set.
    v = oracle_total(DG_1H, "X", "Y", shared_order=True)
    for g in enumerate_compatible_dags(DG_1H, shared_order=True):
        assert back_door_admissible(g, "X", "Y", v.adjustment_set)
    # no smaller set works everywhere
    assert any(
        not back_door_admissible(g, "X", "Y", ())
        for g in enumerate_compatible_dags(DG_1H, shared_order=True))


def test_common_set_is_unique_and_a_witness_exists_up_to_four_vertices():
    """Every labelled D on 2-4 vertices, both regimes, every ordered pair
    and both effects: at most one set is admissible in every compatible
    DAG, and when none is, two compatible DAGs have disjoint families
    (the facts the oracle's verdicts rest on; ``tests/census.py`` checks
    them up to the cap, on every D up to relabelling)."""
    totals = np.zeros(4, dtype=np.int64)
    for n in (2, 3, 4):
        for shared, masks in ((False, census.digraphs(n)),
                              (True, oracle._all_dag_masks(n))):
            *counts, breaches = census.check(n, masks, shared)
            assert breaches == []
            totals += counts
    # queries, non-null, AdjustmentIdentifiable, NotIdentifiable
    assert totals.tolist() == [112_432, 92_696, 5_312, 87_384]


def test_back_door_admissible_cases():
    g1, _ = PAIRS_1M[0]
    assert back_door_admissible(g1, "X", "Y", ("W1",))
    assert not back_door_admissible(g1, "X", "Y", ())
    assert not back_door_admissible(g1, "X", "Y", ("W1", "W2"))

    g2, _ = PAIRS_1M[1]
    assert back_door_admissible(g2, "X", "Y", ("W1", "W2"))
    assert not back_door_admissible(g2, "X", "Y", ("W1",))


def test_single_door_admissible_cases():
    g1, _ = PAIRS_1H[0]
    assert single_door_admissible(g1, "X", "Y", ("W1", "W2"))
    assert not single_door_admissible(g1, "X", "Y", ("W1",))

    g2, _ = PAIRS_1H[1]
    assert single_door_admissible(g2, "X", "Y", ("W1",))
    assert not single_door_admissible(g2, "X", "Y", ("W1", "W2"))


def test_single_door_deletes_only_the_direct_edge():
    # admissibility is judged with x->y removed: the mediated path must
    # still be blocked, the direct edge itself is exempt
    g = CausalDag(edges=[("X", "M"), ("M", "Y"), ("X", "Y")])
    assert single_door_admissible(g, "X", "Y", ("M",))
    assert not single_door_admissible(g, "X", "Y", ())
    # a strict descendant of y never qualifies
    h = CausalDag(edges=[("X", "Y"), ("Y", "Z")])
    assert not single_door_admissible(h, "X", "Y", ("Z",))
    assert single_door_admissible(h, "X", "Y", ())


def test_admissibility_rejects_overlapping_w():
    g, _ = PAIRS_1M[0]
    with pytest.raises(ValueError):
        back_door_admissible(g, "X", "Y", ("X",))
    with pytest.raises(ValueError):
        single_door_admissible(g, "X", "Y", ("Y",))


def test_closed_form_checkers_match_oracle_shared_mode_three_vertices():
    """Exhaustive agreement in kind between the closed-form shared-order
    verdicts and the brute-force oracle on every 3-vertex difference DAG."""
    names = ("A", "B", "C")
    for g in all_dags(names):
        d = DifferenceGraph(vertices=names, edges=g.edges)
        for x, y in itertools.permutations(names, 2):
            q = EffectQuery(d, x, y, shared_order_assumed=True)
            assert identify_total_shared_order(q).kind == \
                oracle_total(d, x, y, shared_order=True).kind, (d, x, y)
            assert identify_direct_shared_order(q).kind == \
                oracle_direct(d, x, y, shared_order=True).kind, (d, x, y)


def test_closed_form_adjustment_sets_sound_in_every_member_shared_mode():
    names = ("A", "B", "C")
    for g in all_dags(names):
        d = DifferenceGraph(vertices=names, edges=g.edges)
        members = None
        for x, y in itertools.permutations(names, 2):
            q = EffectQuery(d, x, y, shared_order_assumed=True)
            vt = identify_total_shared_order(q)
            vd = identify_direct_shared_order(q)
            if ADJUSTMENT_IDENTIFIABLE not in (vt.kind, vd.kind):
                continue
            if members is None:
                members = enumerate_compatible_dags(d, shared_order=True)
            if vt.kind == ADJUSTMENT_IDENTIFIABLE:
                assert all(back_door_admissible(m, x, y, vt.adjustment_set)
                           for m in members), (d, x, y)
            if vd.kind == ADJUSTMENT_IDENTIFIABLE:
                assert all(single_door_admissible(m, x, y, vd.adjustment_set)
                           for m in members), (d, x, y)


def test_not_identifiable_as_dict_includes_witness_edge_lists():
    v = oracle_total(DG_1M, "X", "Y", shared_order=True)
    doc = v.as_dict()
    assert doc["kind"] == NOT_IDENTIFIABLE
    assert len(doc["witness"]) == 2
    for text in doc["witness"]:
        assert CausalDag.from_edge_list(text).vertices == DG_1M.vertices

    ok = oracle_total(DG_1H, "X", "Y", shared_order=True).as_dict()
    assert "witness" not in ok


def test_witnesses_are_the_first_disjoint_pair_in_mask_order():
    # pinned text: a change of the edge-mask layout must not reorder masks
    names = "node W1\nnode X\nnode W2\nnode Y\n"
    shared = oracle_total(DG_1M, "X", "Y", shared_order=True).as_dict()
    assert shared["witness"] == [names + "X -> W2\n",
                                 names + "W2 -> X\nW2 -> Y\n"]
    general = oracle_total(DG_2F, "X", "Y").as_dict()
    assert general["witness"] == [
        names + "W1 -> X\nW1 -> W2\nW2 -> Y\n",
        names + "X -> W2\nX -> Y\nW2 -> W1\nW2 -> Y\n"]


def _digraph_of(n, mask):
    names = [f"V{i}" for i in range(n)]
    return DifferenceGraph(vertices=names, edges=[
        (names[i], names[j]) for i, j in oracle._edges_of(n, mask)])


def test_all_dag_masks_lists_every_dag_once_in_ascending_order():
    # labeled DAGs on n vertices: OEIS A003024
    for n, count in zip(range(1, 6), (1, 3, 25, 543, 29_281)):
        masks = oracle._all_dag_masks(n).tolist()
        assert len(masks) == count
        assert all(a < b for a, b in zip(masks, masks[1:]))
        for mask in masks:
            assert _digraph_of(n, mask).is_acyclic()
    # past the cap, without filling the memo
    masks = oracle._all_dag_masks.__wrapped__(6)
    assert len(masks) == 3_781_503
    assert (masks[1:] > masks[:-1]).all()
    for mask in random.Random(6).sample(masks.tolist(), 2_000):
        assert _digraph_of(6, mask).is_acyclic()


def _every_digraph_mask(n):
    pairs = list(itertools.permutations(range(n), 2))
    return [oracle._mask_of(n, itertools.compress(pairs, picks))
            for picks in itertools.product((0, 1), repeat=len(pairs))]


def test_dag_lookup_agrees_with_kahn():
    rng = random.Random(9)
    pairs = list(itertools.permutations(range(5), 2))
    sample = [oracle._mask_of(5, (p for p in pairs if rng.random() < 0.3))
              for _ in range(3_000)]
    cases = [(n, _every_digraph_mask(n)) for n in range(1, 5)]
    for n, masks in cases + [(5, sample)]:
        is_dag = oracle._is_dag(n, np.array(masks, dtype=np.int64))
        assert is_dag.tolist() \
            == [_digraph_of(n, mask).is_acyclic() for mask in masks]
    # masks above the largest DAG mask reach the lookup's clamp
    assert max(cases[-1][1]) > oracle._all_dag_masks(4)[-1]


def test_all_dag_masks_sort_by_edges_from_the_highest_pair_down():
    # the order of edge indicators read from the highest (i, j) pair down,
    # which holds for any layout whose bit position grows with (i, j)
    for n in range(1, 5):
        pairs = sorted(itertools.permutations(range(n), 2), reverse=True)
        keys = []
        for mask in oracle._all_dag_masks(n).tolist():
            edges = set(oracle._edges_of(n, mask))
            keys.append(tuple(p in edges for p in pairs))
        assert all(a < b for a, b in zip(keys, keys[1:]))


def test_children_of_a_mask_array_match_each_mask():
    for n in range(1, 5):
        masks = _every_digraph_mask(n)
        array = np.array(masks, dtype=np.int64)
        for v in range(n):
            want = [sum(1 << j for i, j in oracle._edges_of(n, m) if i == v)
                    for m in masks]
            assert [oracle._children(n, m, v) for m in masks] == want
            assert oracle._children(n, array, v).tolist() == want


def _names_of(names, bits):
    return frozenset(name for v, name in enumerate(names) if bits >> v & 1)


def _family_as_sets(names, family):
    return {_names_of(names, w)
            for w in range(1 << len(names)) if family >> w & 1}


def _dag_mask(g):
    index = {v: i for i, v in enumerate(g.vertices)}
    return oracle._mask_of(len(g.vertices),
                           [(index[t], index[h]) for t, h in g.edges])


def test_closure_of_child_and_parent_rows_gives_descendants_and_ancestors():
    for n, dtype in itertools.product(range(1, 5), (np.uint8, np.int64)):
        names = ("A", "B", "C", "D")[:n]
        dags = all_dags(names)
        masks = np.array([_dag_mask(g) for g in dags], dtype=np.int64)
        children = oracle._children(
            n, masks, np.arange(n)[:, None]).astype(dtype)
        parents = np.stack([
            sum((kids >> dtype(v) & dtype(1)) << dtype(u)
                for u, kids in enumerate(children))
            for v in range(n)])
        below, above = oracle._closure(children), oracle._closure(parents)
        for k, g in enumerate(dags):
            for v, name in enumerate(names):
                assert _names_of(names, int(below[v, k]) | 1 << v) \
                    == g.descendants(name)
                assert _names_of(names, int(above[v, k]) | 1 << v) \
                    == g.ancestors(name)


def test_closure_keeps_the_dtype_and_its_input_and_takes_zero_rows():
    # two stacked graphs: 0 -> 1 -> 2, and 1 -> 0
    rows = np.array([[0b010, 0b000], [0b100, 0b001], [0b000, 0b000]])
    for dtype in (np.uint8, np.int64):
        given = rows.astype(dtype)
        given.flags.writeable = False
        reach = oracle._closure(given)
        assert reach.dtype == dtype
        assert reach.tolist() == [[0b110, 0], [0b100, 0b001], [0, 0]]
        assert given.tolist() == rows.tolist()
        # the first vertex of the enumeration joins graphs of no vertex
        empty = oracle._closure(np.zeros((0, 7), dtype=dtype))
        assert empty.shape == (0, 7) and empty.dtype == dtype


def _dag_sample(names, count, seed):
    """``count`` seeded DAGs on ``names``: a random vertex order, each
    pair in that order an edge with probability 1/2."""
    rng = random.Random(seed)
    dags = []
    for _ in range(count):
        order = rng.sample(names, len(names))
        dags.append(CausalDag(vertices=names, edges=[
            (a, b) for i, a in enumerate(order) for b in order[i + 1:]
            if rng.random() < 0.5]))
    return dags


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_admissible_families_match_the_graph_criteria(n):
    """The oracle's bitmask families, computed for every DAG at once, equal
    the sets the public criteria, which d-separate on CausalDag objects,
    accept: every DAG up to 4 vertices, a seeded sample at 5 and 6.  The
    masks may be read-only and stay unchanged."""
    names = ("A", "B", "C", "D", "E", "F")[:n]
    dags = all_dags(names) if n <= 4 else _dag_sample(
        names, {5: 150, 6: 60}[n], seed=n)
    masks = np.array([_dag_mask(g) for g in dags], dtype=np.int64)
    masks.flags.writeable = False
    given = masks.tolist()
    for x, y in itertools.permutations(range(n), 2):
        for effect, accepts in ((TOTAL, back_door_admissible),
                                (DIRECT, single_door_admissible)):
            families = oracle._admissible_families(n, masks, x, y, effect)
            assert families.dtype == np.int64
            for g, family in zip(dags, families.tolist(), strict=True):
                assert _family_as_sets(names, family) == _admissible_family(
                    g, names[x], names[y], accepts), (g, x, y, effect)
    assert masks.tolist() == given


# sha256 of the family table of all 29,281 five-vertex DAGs, as
# little-endian int64 bytes, recorded from the int64 kernel that preceded
# the uint8 one
FAMILY_TABLE_DIGESTS = {
    (0, 1, TOTAL):
        "4751e22d0a56d821632eea14a8f6b8c908bec7b2d5e2b7635feedaf2a33a7a90",
    (0, 1, DIRECT):
        "dc0582bf0f951391b67293ce28b63728a307eb0152bdd075376a8122a3aed70a",
    (3, 1, TOTAL):
        "018ef7a43f4d564ab5dad6ba0863d0cd7c7bee88b5cad0dc431370215db39eb7",
    (3, 1, DIRECT):
        "38d608d114cbb2d0a55f8ac048c8ec1a2a7a25f9ec5de8a60924444506431b37",
    (4, 2, TOTAL):
        "6b75cb4a8ea9532d262fbec7baad3670d02d4bc5eded86e270244f912661e49a",
    (4, 2, DIRECT):
        "265ba662ad927893431c82344d1f396fe46c257ae861f9147dbf1ade07394c53",
}


def test_family_tables_of_every_dag_at_the_cap_match_recorded_digests():
    masks = oracle._all_dag_masks(5)
    for (x, y, effect), digest in FAMILY_TABLE_DIGESTS.items():
        families = oracle._admissible_families(5, masks, x, y, effect)
        assert hashlib.sha256(
            families.astype("<i8").tobytes()).hexdigest() == digest, \
            (x, y, effect)


def test_admissible_families_match_networkx_d_separation():
    nx = pytest.importorskip("networkx")
    names = ("A", "B", "C", "D")
    dags = all_dags(names)
    masks = np.array([_dag_mask(g) for g in dags], dtype=np.int64)
    for (xi, yi), effect in itertools.product(
            itertools.permutations(range(4), 2), (TOTAL, DIRECT)):
        x, y = names[xi], names[yi]
        families = oracle._admissible_families(4, masks, xi, yi, effect)
        for g, family in zip(dags, families.tolist(), strict=True):
            if effect == TOTAL:
                pivot, cut = x, [e for e in g.edges if e[0] != x]
            else:
                pivot, cut = y, g.edges - {(x, y)}
            h = nx.DiGraph(cut)
            h.add_nodes_from(names)
            forbidden = g.descendants(pivot) - {pivot}
            rest = [v for v in names if v not in (x, y)]
            expected = {
                frozenset(w)
                for r in range(len(rest) + 1)
                for w in itertools.combinations(rest, r)
                if not forbidden & set(w)
                and nx.is_d_separator(h, {x}, {y}, set(w))}
            assert _family_as_sets(names, family) == expected, (g, x, y)


def test_oracle_memos_stay_bounded():
    memos = [f for f in vars(oracle).values() if hasattr(f, "cache_info")]
    for memo in memos:
        memo.cache_clear()
    names = ("A", "B", "C", "D")
    pairs = list(itertools.permutations(names, 2))
    rng = random.Random(5)
    seen = set()
    while len(seen) < oracle.COMPATIBLE_MEMO_SIZE + 8:
        edges = frozenset(rng.sample(pairs, rng.randint(1, 6)))
        if edges in seen:
            continue
        seen.add(edges)
        d = DifferenceGraph(vertices=names, edges=edges)
        oracle_total(d, "A", "D")
        oracle_direct(d, "A", "D")
    # every one of the 29,281 DAGs is compatible with the empty 5-vertex
    # difference graph, so two queries fill two whole family tables
    empty = DifferenceGraph(vertices=["A", "B", "C", "D", "E"])
    oracle_total(empty, "A", "B")
    oracle_direct(empty, "A", "B")
    for memo in memos:
        info = memo.cache_info()
        assert info.maxsize is not None
        assert info.currsize <= info.maxsize
    assert oracle._compatible_masks.cache_info().currsize \
        == oracle.COMPATIBLE_MEMO_SIZE
    # one table per key, so the table memo never evicts
    keys = [(n, x, y, effect)
            for n in range(oracle.VERTEX_CAP + 1)
            for x, y in itertools.permutations(range(n), 2)
            for effect in (TOTAL, DIRECT)]
    assert oracle._family_table.cache_info().maxsize == len(keys)
    for effect in (TOTAL, DIRECT):
        assert (oracle._family_table(5, 0, 1, effect) >= 0).all()


def test_families_a_query_reads_do_not_depend_on_earlier_queries():
    names = ("A", "B", "C", "D")
    first = DifferenceGraph(vertices=names, edges=[("A", "B"), ("C", "D")])
    second = DifferenceGraph(vertices=names,
                             edges=[("B", "C"), ("A", "D"), ("D", "A")])
    masks, slots = oracle._compatible_masks(4, _dag_mask(second), False).T
    # the memo holds each mask's slot in the table of every DAG
    assert slots.tolist() \
        == np.searchsorted(oracle._all_dag_masks(4), masks).tolist()
    queries = ((oracle_total, TOTAL), (oracle_direct, DIRECT))
    oracle._family_table.cache_clear()
    cold = [query(second, "A", "D").as_dict() for query, _ in queries]
    oracle._family_table.cache_clear()
    for query, effect in queries:
        query(first, "A", "D", shared_order=True)
        filled = oracle._family_table(4, 0, 3, effect)[slots] >= 0
        assert filled.any() and not filled.all()
    assert [query(second, "A", "D").as_dict() for query, _ in queries] \
        == cold
    for _, effect in queries:
        assert oracle._family_table(4, 0, 3, effect)[slots].tolist() \
            == oracle._admissible_families(4, masks, 0, 3, effect).tolist()
