"""Brute-force ground truth for the closed-form identifiability conditions.

A difference graph D constrains, but does not determine, the two causal DAGs
behind it: any pair (G1, G2) of DAGs over D's vertices is compatible with D
when every D-edge appears in G1 or G2 (or in both, with different
coefficients) and every non-D-edge appears in G1 exactly when it appears in
G2.  Under the shared-order assumption the pair must additionally admit one
common topological order.

This module enumerates every DAG that participates in some compatible pair
and decides identifiability the slow, assumption-free way: the total effect
is identifiable by adjustment exactly when one set W satisfies the back-door
criterion relative to (X, Y) in every such DAG, and the direct effect when
one W satisfies the single-door criterion everywhere.  Verdicts therefore
serve as an independent oracle for the closed-form conditions, which is the
whole point: the two must agree wherever the conditions are correct.

Each query has one answer, which the oracle reads off without a choice.
Call the sets W passing the criterion in a compatible DAG its *family*,
and a compatible DAG *pinning* when its family holds at most one set.
Every query has a pinning DAG.  So a set common to every family is the
pinning DAG's one set, and the AdjustmentIdentifiable set is unique.
When no set is common, some compatible DAG lacks the pinning DAG's set
(any other DAG will do when the pinning family is empty; every D has two
compatible DAGs), so two families are disjoint and a NotIdentifiable
verdict always has a witness.

Under a shared order a pinning DAG exists for any n.  Let K be the
complete DAG along a topological order of D, every pair joined and
pointing forward; the pair (K, K), each D-edge with different
coefficients in the two, is compatible.  Take the pivot X for the
back-door and Y for the single-door criterion.  When Y precedes X, the
edge Y -> X survives either cut, no W separates the two, and K's family
is empty.  When X precedes Y, each vertex before the pivot other than X
is joined to both X and Y, as a non-collider on that two-edge path, so
every admissible W holds it; each vertex after the pivot descends from
it, so none holds it; and the pivot's parents other than X pass.  K's
family is then exactly {the vertices before X} (total effect) or {the
vertices before Y, minus X} (direct effect).  The same K pins an acyclic
D in the general regime, whose compatible pairs include every
shared-order one.  A cyclic D has no such K, and there the pinning DAG
is checked, not proved: ``tests/census.py`` checks every query at every
n <= VERTEX_CAP, on every D up to relabelling (at n = 5, 9,608 digraph
and 302 DAG classes, 396,400 queries).  Raising the cap needs that
census run at the new n, or a proof for the general regime.

Enumeration is exponential and capped at 5 vertices.  Internally vertices
are 0..n-1, a vertex set is an int bitmask, and a digraph is an int edge
mask whose bit i*n + j holds the edge i -> j.  A query builds no
:class:`CausalDag` except the two of a NotIdentifiable witness:

* Every DAG on n vertices is enumerated once per n with numpy, vertex
  by vertex: vertex k joins each DAG on 0..k-1 with every parent set that
  no vertex of its child set reaches.  That reach and the ancestors of
  the family kernel are one Warshall closure on stacked bitmask rows.
* Within the cap a mask is acyclic iff it is in that sorted enumeration,
  which one ``searchsorted`` decides for all masks at once.  That lookup
  answers every other acyclicity and reach question: in the general
  regime G is compatible with D when G xor D is acyclic, and a DAG has a
  path from X to Y iff adding Y -> X closes a cycle.
* Under a shared order G is compatible when the union of G and D is
  acyclic, so the compatible DAGs are built from D instead of filtered:
  every DAG that holds D, less each subset of D's edges.  Only the DAGs
  built are looked up, not all 29,281 at the cap.
* The partners of a compatible DAG G1 are built the same way, in
  ascending mask order: G1 xor D plus each subset of the D-edges G1
  holds, kept when acyclic, which every one is under a shared order.
* d-separation of X and Y by W is decided on parent bitmasks, for every
  compatible DAG and every candidate W at once, through the
  moralised ancestral graph (Lauritzen et al. 1990): X and Y are separated
  iff they are disconnected in the moral graph of the ancestors of
  {X, Y} and W once W is removed.  Back-door admissibility cuts the edges
  out of X, single-door admissibility the edge X -> Y, and W must avoid
  the strict descendants of X (back-door) or Y (single-door), read off
  the ancestors in the cut graph.  The kernel holds vertex sets as uint8
  and makes each step one numpy call over arrays stacked by vertex,
  candidate W and DAG, selecting by a 0/1 multiply rather than
  ``np.where``; its largest array, n * m * 2^(n-2) bytes for m DAGs, is
  1.2 MB at the cap.  Only the family bits come out as int64.

Memos are functools caches whose sizes are bounded, so a long sweep keeps
bounded memory: the DAG enumeration per n, the compatible masks of the
last COMPATIBLE_MEMO_SIZE difference graphs with their slots in that
enumeration, as int64 arrays, and one family table per (n, X, Y,
effect), with a slot per DAG of the enumeration.  There are 80 such keys
up to the cap, so the tables never evict and take at most 9.4 MB.
Filling the compatible memo for a general-regime D looks up every DAG on
n vertices, and for a shared-order D only the DAGs it admits.  A query
computes the families only of its compatible DAGs whose slots are
still empty, in one array call.  A repeated query on a difference graph
still in the memo computes no family and looks up no compatible DAG's
slot.  It still tests for a null effect on every call: a TOTAL query adds
y -> x to each compatible DAG and searches the enumeration for the
results (``_is_dag``), one searchsorted over every DAG on n vertices, and
a NotIdentifiable one builds its two witness DAGs again.
"""

from functools import lru_cache

import numpy as np

from .graphs import CausalDag, check_shared_order
from .identify import (
    ADJUSTMENT_IDENTIFIABLE,
    DIRECT,
    NOT_IDENTIFIABLE,
    NULL_EFFECT,
    TOTAL,
    EffectQuery,
    IdentificationVerdict,
    _verdict,
)

VERTEX_CAP = 5
# A 5-vertex difference graph has at most 29,281 compatible DAGs (all of
# them, for the empty graph), 468 KB of memo as int64 masks and slots.
COMPATIBLE_MEMO_SIZE = 32


# ---------------------------------------------------------------------------
# bitmask internals


def _mask_of(n, index_edges):
    mask = 0
    for i, j in index_edges:
        mask |= 1 << (i * n + j)
    return mask


def _edges_of(n, mask):
    return [divmod(k, n) for k in range(n * n) if mask >> k & 1]


def _dag_from_mask(names, mask):
    edges = [(names[i], names[j]) for i, j in _edges_of(len(names), mask)]
    return CausalDag(vertices=names, edges=edges)


def _children(n, mask, v):
    """Children of v as a vertex bitmask: row v of the edge mask.  Works
    elementwise on int arrays too, so a column of vertices stacks the
    rows of every mask: ``_children(n, masks, np.arange(k)[:, None])``."""
    return mask >> (v * n) & ((1 << n) - 1)


def _closure(rows):
    """Strict transitive closure (Warshall) of the relation whose row v is a
    vertex bitmask, e.g. the children of v: row v of the result holds every
    vertex v reaches by one or more steps.  ``rows`` is an int array whose
    first axis is the vertex and whose other axes stack graphs; step k
    updates every row in one call, since row k itself cannot change in
    step k.  The result keeps the dtype of ``rows``, zero rows give an
    empty result, and ``rows`` is not modified."""
    reach = rows.copy()
    one = reach.dtype.type(1)
    for k in range(len(reach)):
        reach |= (reach >> reach.dtype.type(k) & one) * reach[k]
    return reach


@lru_cache(maxsize=VERTEX_CAP + 1)
def _all_dag_masks(n):
    """Every DAG on n labeled vertices, as a sorted read-only int64 array of
    edge masks.

    Vertex k joins each DAG on 0..k-1 with a parent set P and a disjoint
    child set C; the result is a DAG iff no vertex of C reaches one of P,
    so every DAG is made exactly once (Robinson 1973).
    """
    bits = np.uint8(1) << np.arange(n, dtype=np.uint8)
    masks = np.zeros(1, dtype=np.int64)
    for k in range(n):
        reach = _closure(
            _children(n, masks, np.arange(k)[:, None]).astype(np.uint8))
        # below[c]: the vertices of the child set c and all they reach
        below = [np.zeros(len(masks), dtype=np.uint8)]
        for c in range(1, 1 << k):
            v = (c & -c).bit_length() - 1
            below.append(below[c & c - 1] | bits[v] | reach[v])
        masks = np.concatenate([
            masks[below[c] & np.uint8(p) == 0] | c << k * n
            | _mask_of(n, [(v, k) for v in range(k) if p >> v & 1])
            for c in range(1 << k) for p in range(1 << k) if not p & c])
    masks.sort()
    masks.flags.writeable = False
    return masks


def _is_dag(n, masks):
    """Boolean array: is each edge mask in ``masks`` (an int array) one of
    ``_all_dag_masks(n)``, i.e. a DAG?"""
    dags = _all_dag_masks(n)
    slots = np.minimum(np.searchsorted(dags, masks), len(dags) - 1)
    return dags[slots] == masks


def _admissible_families(n, masks, x, y, effect):
    """The family of sets W passing the effect's criterion (back-door for
    TOTAL, single-door for DIRECT) for (x, y) in every DAG of ``masks``, as
    an int64 array whose entry k has bit w set iff the vertex set with
    bitmask w passes in DAG k.  W ranges over subsets of V minus {x, y},
    so w is at most 2^n - 4 and bit w fits an int64 up to n = 6.

    Vertex sets are uint8, which holds any set up to n = 8, and each step
    is one call over a stacked array: (vertex, DAG) for the children,
    families and ancestors, (candidate W, DAG) for the reach, and
    (vertex, candidate W, DAG) for the joins, so every inner loop runs
    along the DAGs.  The joins are the largest array at n = 5 and 6,
    n * m * 2^(n-2) bytes for m DAGs: 1.2 MB for the 29,281 DAGs at the
    cap.  A selection multiplies by a 0/1 flag: over 29,281 x 8 uint8
    cells ``np.where(j & r, j, 0)`` takes 691 us against 34 us for
    ``j * ((j & r) != 0)``, and 967 against 556 us on int64 cells (2-core
    Xeon, numpy 2.4.6).
    Scalars that meet a uint8 array are typed, so both value-based casting
    (numpy < 2) and NEP 50 keep uint8."""
    u8 = np.uint8
    vs = np.arange(n, dtype=u8)
    bits = u8(1) << vs
    children = _children(n, masks, np.arange(n)[:, None]).astype(u8)
    # the pivot's children before the cut: its strict descendants have one
    # among their cut-graph ancestors, since a path using a cut edge would
    # revisit the pivot
    kids = children[x if effect == TOTAL else y].copy()
    if effect == TOTAL:
        children[x] = 0
    else:
        children[x] &= ~bits[y]
    # families[v]: v and its parents, which the moral graph joins pairwise
    families = np.bitwise_or.reduce(
        (children[None] >> vs[:, None, None] & u8(1)) * bits[:, None],
        axis=1) | bits[:, None]
    # reflexive ancestors in the cut graph: the closure of the families
    ancestors = _closure(families)
    # W may not hold x, y or a strict descendant of the pivot; row j of
    # each (W, DAG) array below stands for the j-th candidate W
    ws = np.arange(1 << n, dtype=u8)
    ws = ws[ws & (bits[x] | bits[y]) == 0]
    forbidden = np.bitwise_or.reduce(
        (ancestors & kids != 0) * bits[:, None], axis=0)
    ancestral = np.bitwise_or.reduce(
        (ws >> vs[:, None] & u8(1))[:, :, None] * ancestors[:, None],
        axis=0) | (ancestors[x] | ancestors[y]) | ws[:, None]
    joins = ((ancestral >> vs[:, None, None] & u8(1)) * families[:, None]
             & ancestral & ~ws[:, None])
    # a separating W leaves y out of x's component; n - 1 sweeps over the
    # joins, vertex by vertex, reach every vertex of that component
    reach = np.full(ancestral.shape, bits[x], dtype=u8)
    for _ in range(n - 1):
        for joined in joins:
            reach |= joined * (joined & reach != 0)
    passes = (reach >> vs[y] & u8(1) == 0) & (ws[:, None] & forbidden == 0)
    # one int64 row at a time, so no int64 array outgrows the joins
    result = np.zeros(len(masks), dtype=np.int64)
    for w, passed in zip(ws.tolist(), passes):
        result |= passed * np.int64(1 << w)
    return result


# ---------------------------------------------------------------------------
# public criteria on real CausalDag objects


def back_door_admissible(g, x, y, w):
    """Does ``w`` satisfy the back-door criterion relative to (x, y) in g?

    Requires that no member of ``w`` is a strict descendant of ``x`` and that
    ``w`` blocks every x-y path with an arrow into ``x``; the blocking test
    is d-separation in the graph with all edges out of ``x`` removed.
    """
    return _criterion(g, x, y, w, x, [e for e in g.edges if e[0] != x])


def single_door_admissible(g, x, y, w):
    """Does ``w`` satisfy the single-door criterion relative to (x, y) in g?

    Requires that no member of ``w`` is a strict descendant of ``y`` and that
    ``w`` d-separates ``x`` from ``y`` in the graph with the edge x -> y
    (when present) removed.
    """
    return _criterion(g, x, y, w, y, g.edges - {(x, y)})


def _criterion(g, x, y, w, pivot, edges):
    """No member of ``w`` is a strict descendant of ``pivot`` in g, and
    ``w`` d-separates x from y in g cut down to ``edges``."""
    w = frozenset(w)
    if w & (g.descendants(pivot) - {pivot}):
        return False
    return CausalDag(vertices=g.vertices, edges=edges).d_separated(x, y, w)


# ---------------------------------------------------------------------------
# compatible-DAG enumeration and the oracle verdicts


def _checked_setup(d, shared_order):
    """n, the vertex index, D's edge mask, the compatible masks and their
    slots in ``_all_dag_masks(n)``.  Any general-regime D has a compatible
    DAG (orient D along a vertex order), a shared-order D exactly when
    acyclic: only an empty set is checked."""
    n = len(d.vertices)
    if n > VERTEX_CAP:
        raise ValueError(
            f"brute-force enumeration is capped at {VERTEX_CAP} vertices, "
            f"got {n}")
    index = {v: i for i, v in enumerate(d.vertices)}
    d_mask = _mask_of(n, [(index[t], index[h]) for t, h in d.edges])
    masks, slots = _compatible_masks(n, d_mask, shared_order).T
    if not len(masks):
        check_shared_order(d, shared_order)
    return n, index, d_mask, masks, slots


def _submasks(mask):
    """Every submask of the int ``mask``, ascending, as an int64 array.
    Each bit of ``mask``, taken from the lowest up, exceeds the sum of
    those below it, so the submasks holding it follow all that do not."""
    subs = np.zeros(1, dtype=np.int64)
    for k in range(mask.bit_length()):
        if mask >> k & 1:
            subs = np.concatenate([subs, subs | 1 << k])
    return subs


@lru_cache(maxsize=COMPATIBLE_MEMO_SIZE)
def _compatible_masks(n, d_mask, shared_order):
    """Masks of every DAG appearing in some compatible pair, ascending, and
    their slots in ``_all_dag_masks(n)``: a read-only int64 array with a
    row per DAG, its mask then its slot, stored column by column.

    A DAG G has a compatible partner exactly when its minimal partner, the
    symmetric difference G xor D, is itself a DAG (adding optional shared
    D-edges only ever adds cycles); that filter runs over every DAG on n
    vertices, as no construction of the general regime's set is known.

    Under the shared-order assumption G is compatible exactly when the
    union H = G | D is a DAG, since that union is the edge union of any
    pair containing G.  So the set is built from D: every DAG H holding D,
    less every subset S of D's edges.  Each G is made once, from H = G | D
    and S = D minus G.  Conversely H minus S is a DAG, as a subgraph of H,
    and its union with D is H again, since S lies in D and D in H.  Each S
    takes the same amount off every H, so the H minus S for one S form an
    ascending run, and a stable sort (a merge of runs) orders them all.
    """
    dags = _all_dag_masks(n)
    if shared_order:
        supers = dags[dags & d_mask == d_mask]
        masks = (supers - _submasks(d_mask)[:, None]).ravel()
        masks.sort(kind="stable")
        slots = np.searchsorted(dags, masks)
    else:
        slots = np.flatnonzero(_is_dag(n, dags ^ d_mask))
        masks = dags[slots]
    compatible = np.stack([masks, slots]).T
    compatible.flags.writeable = False
    return compatible


@lru_cache(maxsize=2 * sum(n * (n - 1) for n in range(VERTEX_CAP + 1)))
def _family_table(n, x, y, effect):
    """The admissible-set family of each DAG of ``_all_dag_masks(n)`` for
    (x, y) and the effect, slot k for mask k; -1 marks a slot no query has
    needed yet.  Queries fill the slots in place.

    The memo holds one table per (n, ordered pair, effect) up to the cap,
    so it never evicts and its size is bounded by construction: at most
    9.4 MB, 40 tables of 29,281 int64 slots at n = 5.
    """
    return np.full(len(_all_dag_masks(n)), -1, dtype=np.int64)


def enumerate_compatible_dags(d, shared_order=False):
    """All DAGs participating in some pair compatible with ``d``.

    Returns CausalDag objects over ``d``'s vertex names in a deterministic
    order.  Raises ValueError beyond the 5-vertex cap, and in shared-order
    mode when ``d`` is cyclic (no compatible pair exists at all).
    """
    masks = _checked_setup(d, shared_order)[3].tolist()
    return tuple(_dag_from_mask(d.vertices, mask) for mask in masks)


def _partner_masks(n, d_mask, g1_mask):
    """Every partner G2 of the compatible DAG ``g1_mask``, ascending.  G2
    agrees with g1 off D and, with g1, holds every D-edge, so it is
    (g1 xor D) plus a subset T of the D-edges g1 holds; adding T's bits,
    which g1 xor D lacks, keeps T's ascending order.  Every candidate that
    is a DAG is a partner, and under a shared order every one is: its
    union with g1 is g1 | D, which is acyclic."""
    candidates = (g1_mask ^ d_mask) | _submasks(g1_mask & d_mask)
    return candidates[_is_dag(n, candidates)]


def draw_compatible_dags(d, shared_order, rng):
    """A compatible DAG pair for ``d`` within the cap: G1 uniform over the
    compatible DAGs, then G2 uniform over G1's partners in ascending mask
    order, by one ``rng.integers`` call each."""
    n, _, d_mask, masks, _ = _checked_setup(d, shared_order)
    g1_mask = int(masks[rng.integers(len(masks))])
    partners = _partner_masks(n, d_mask, g1_mask)
    g2_mask = int(partners[rng.integers(len(partners))])
    return tuple(_dag_from_mask(d.vertices, m) for m in (g1_mask, g2_mask))


def _oracle(d, x, y, shared_order, effect):
    n, index, _, masks, slots = _checked_setup(d, shared_order)
    EffectQuery(d, x, y)  # _checked_setup has checked the shared order
    xi, yi = index[x], index[y]

    # a DAG has a path from x to y iff adding y -> x closes a cycle
    if (_is_dag(n, masks | 1 << (yi * n + xi)).all() if effect == TOTAL
            else not np.any(masks & 1 << (xi * n + yi))):
        return _verdict(effect, NULL_EFFECT, x, y)

    table = _family_table(n, xi, yi, effect)
    families = table[slots]
    todo = families < 0
    if todo.any():
        families[todo] = table[slots[todo]] = _admissible_families(
            n, masks[todo], xi, yi, effect)
    common = int(np.bitwise_and.reduce(families))
    if common:
        # the one common set (module docstring): the family's single
        # bit sits at the set's vertex bitmask
        wbits = common.bit_length() - 1
        w = tuple(d.vertices[v] for v in range(n) if wbits >> v & 1)
        return _verdict(effect, ADJUSTMENT_IDENTIFIABLE, x, y, w=w)

    # the first pair (i, j), i < j, whose families are disjoint; one
    # exists (module docstring)
    for i, family in enumerate(families):
        hits = np.flatnonzero(families[i + 1:] & family == 0)
        if hits.size:
            break
    witness = tuple(_dag_from_mask(d.vertices, int(masks[k]))
                    for k in (i, i + 1 + hits[0]))
    return IdentificationVerdict(kind=NOT_IDENTIFIABLE, witness=witness,
                                 effect=effect)


def oracle_total(d, x, y, shared_order=False):
    """Brute-force total-effect verdict for exposure ``x`` and outcome ``y``.

    NullEffect when no compatible DAG has a directed path from x to y;
    AdjustmentIdentifiable with the set satisfying the back-door criterion
    in every compatible DAG, which is unique when it exists; otherwise
    NotIdentifiable, always with a witness pair of compatible DAGs whose
    admissible-set families are disjoint.  Both facts are proved under a
    shared order and checked up to the cap in general (module docstring).
    """
    return _oracle(d, x, y, shared_order, TOTAL)


def oracle_direct(d, x, y, shared_order=False):
    """Brute-force direct-effect verdict, single-door version of
    :func:`oracle_total`.  NullEffect when x is a parent of y in no
    compatible DAG; otherwise the one set satisfying the single-door
    criterion in every compatible DAG, or NotIdentifiable with its witness
    pair (module docstring)."""
    return _oracle(d, x, y, shared_order, DIRECT)
