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

Enumeration is exponential and capped at 5 vertices.  Internally vertices
are 0..n-1, a vertex set is an int bitmask, and a digraph is an int edge
mask whose bit i*n + j holds the edge i -> j.  A query builds no
:class:`CausalDag` except the two of a NotIdentifiable witness:

* Every DAG on n vertices is enumerated once per n with numpy (each
  permutation times every subset of its forward pairs, deduplicated).
* A digraph is acyclic iff it has no walk of n edges (A^n = 0); the test
  runs on all masks at once.  A DAG G is compatible with D when G xor D
  (G or D under a shared order) passes it.
* d-separation of X and Y by W is decided on parent bitmasks, for every
  compatible DAG and every candidate W at once, through the
  moralised ancestral graph (Lauritzen et al. 1990): X and Y are separated
  iff they are disconnected in the moral graph of the ancestors of
  {X, Y} and W once W is removed.  Back-door admissibility cuts the edges
  out of X, single-door admissibility the edge X -> Y, and W must avoid
  the strict descendants of X (back-door) or Y (single-door).

Memos are functools caches whose sizes are bounded, so a long sweep keeps
bounded memory: the DAG enumeration per n, the compatible masks of the
last COMPATIBLE_MEMO_SIZE difference graphs as int64 arrays, and one
family table per (n, X, Y, effect), with a slot per DAG of the
enumeration.  There are 80 such keys up to the cap, so the tables never
evict and take at most 9.4 MB.  A query computes the families only of its
compatible DAGs whose slots are still empty, in one array call; a
repeated query on a difference graph still in the memo does no new graph
work.
"""

import itertools
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
# them, for the empty graph), 234 KB of memo as an int64 array.
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
    elementwise on an int array too."""
    return mask >> (v * n) & ((1 << n) - 1)


def _acyclic(n, masks):
    """Boolean array: is the digraph of each edge mask in ``masks`` (an int
    array) acyclic?

    A digraph on n vertices is acyclic iff it has no walk of n edges
    (A^n = 0).  ``starts`` holds, per graph, the vertices that begin a walk
    of k edges; a vertex begins a walk of k + 1 edges iff one of its
    children begins one of k.
    """
    children = [_children(n, masks, v) for v in range(n)]
    starts = np.full(len(masks), (1 << n) - 1, dtype=np.int64)
    for _ in range(n):
        longer = np.zeros(len(masks), dtype=np.int64)
        for v, kids in enumerate(children):
            longer |= (kids & starts != 0).astype(np.int64) << v
        starts = longer
    return starts == 0


@lru_cache(maxsize=VERTEX_CAP + 1)
def _all_dag_masks(n):
    """Every DAG on n labeled vertices, as a sorted read-only int64 array of
    edge masks.

    Each permutation contributes every subset of its forward pairs, which
    hits each DAG once per linear extension; ``np.unique`` dedupes and
    sorts.
    """
    forward = [(i, j) for i in range(n) for j in range(i + 1, n)]
    m = len(forward)
    picks = np.arange(1 << m)[:, None] >> np.arange(m) & 1
    masks = [picks @ np.array([1 << (perm[i] * n + perm[j])
                               for i, j in forward], dtype=np.int64)
             for perm in itertools.permutations(range(n))]
    masks = np.unique(np.concatenate(masks))
    masks.flags.writeable = False
    return masks


def _descendants(n, masks, v):
    """Reflexive descendants of v in every DAG of ``masks`` (an int64 array
    of edge masks), as an array of vertex bitmasks."""
    children = [_children(n, masks, u) for u in range(n)]
    seen = np.full(len(masks), 1 << v, dtype=np.int64)
    for _ in range(n - 1):
        for u, kids in enumerate(children):
            seen |= -(seen >> u & 1) & kids
    return seen


def _admissible_families(n, masks, x, y, effect):
    """The family of sets W passing the effect's criterion (back-door for
    TOTAL, single-door for DIRECT) for (x, y) in every DAG of ``masks``, as
    an int64 array whose entry k has bit w set iff the vertex set with
    bitmask w passes in DAG k.  W ranges over subsets of V minus {x, y},
    so w is at most 2^n - 4 and bit w fits an int64 up to n = 6."""
    if effect == TOTAL:
        pivot, cut = x, masks & ~(((1 << n) - 1) << (x * n))
    else:
        pivot, cut = y, masks & ~(1 << (x * n + y))
    children = [_children(n, cut, u) for u in range(n)]
    # the moral graph joins the members of each vertex's family pairwise
    families = [sum((kids >> v & 1) << u for u, kids in enumerate(children))
                | 1 << v for v in range(n)]
    # ancestors in the cut graph (reflexive closure, Warshall on bitmasks)
    ancestors = [f.copy() for f in families]
    for k in range(n):
        for v in range(n):
            ancestors[v] |= -(ancestors[v] >> k & 1) & ancestors[k]
    # W may not hold x, y or a strict descendant of the pivot; column j of
    # each (DAG, W) array below stands for the j-th candidate W
    ws = np.array([w for w in range(1 << n) if not w & (1 << x | 1 << y)],
                  dtype=np.int64)
    forbidden = _descendants(n, masks, pivot)[:, None]
    ancestral = (ancestors[x] | ancestors[y])[:, None] | ws
    for v in range(n):
        ancestral |= -(ws >> v & 1) & ancestors[v][:, None]
    allowed = ancestral & ~ws
    joins = [-(ancestral >> v & 1) & f[:, None] & allowed
             for v, f in enumerate(families)]
    # a separating W leaves y out of x's component; n - 1 sweeps over the
    # joins reach every vertex of that component
    reach = np.full(ancestral.shape, 1 << x, dtype=np.int64)
    for _ in range(n - 1):
        for joined in joins:
            reach |= np.where(joined & reach, joined, 0)
    passes = (reach >> y & 1 == 0) & (ws & forbidden == 0)
    return np.bitwise_or.reduce(np.where(passes, 1 << ws, 0), axis=1)


def _subset_order_key(n):
    """Sort key over vertex bitmasks: size first, then lexicographic."""
    def key(wbits):
        members = tuple(v for v in range(n) if wbits >> v & 1)
        return (len(members), members)
    return key


# ---------------------------------------------------------------------------
# public criteria on real CausalDag objects


def back_door_admissible(g, x, y, w):
    """Does ``w`` satisfy the back-door criterion relative to (x, y) in g?

    Requires that no member of ``w`` is a strict descendant of ``x`` and that
    ``w`` blocks every x-y path with an arrow into ``x``; the blocking test
    is d-separation in the graph with all edges out of ``x`` removed.
    """
    w = frozenset(w)
    if w & (g.descendants(x) - {x}):
        return False
    pruned = CausalDag(vertices=g.vertices,
                       edges=[e for e in g.edges if e[0] != x])
    return pruned.d_separated(x, y, w)


def single_door_admissible(g, x, y, w):
    """Does ``w`` satisfy the single-door criterion relative to (x, y) in g?

    Requires that no member of ``w`` is a strict descendant of ``y`` and that
    ``w`` d-separates ``x`` from ``y`` in the graph with the edge x -> y
    (when present) removed.
    """
    w = frozenset(w)
    if w & (g.descendants(y) - {y}):
        return False
    pruned = CausalDag(vertices=g.vertices,
                       edges=g.edges - {(x, y)})
    return pruned.d_separated(x, y, w)


# ---------------------------------------------------------------------------
# compatible-DAG enumeration and the oracle verdicts


def _checked_setup(d, shared_order):
    n = len(d.vertices)
    if n > VERTEX_CAP:
        raise ValueError(
            f"brute-force enumeration is capped at {VERTEX_CAP} vertices, "
            f"got {n}")
    check_shared_order(d, shared_order)
    index = {v: i for i, v in enumerate(d.vertices)}
    d_mask = _mask_of(n, [(index[t], index[h]) for t, h in d.edges])
    return n, index, d_mask


@lru_cache(maxsize=COMPATIBLE_MEMO_SIZE)
def _compatible_masks(n, d_mask, shared_order):
    """Masks of every DAG appearing in some compatible pair, as an
    ascending read-only int64 array.

    A DAG G has a compatible partner exactly when its minimal partner, the
    symmetric difference G xor D, is itself a DAG (adding optional shared
    D-edges only ever adds cycles).  Under the shared-order assumption the
    union G with D must be acyclic instead, since the union equals the edge
    union of any pair containing G.
    """
    masks = _all_dag_masks(n)
    combined = masks | d_mask if shared_order else masks ^ d_mask
    compatible = masks[_acyclic(n, combined)]
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
    n, _, d_mask = _checked_setup(d, shared_order)
    masks = _compatible_masks(n, d_mask, shared_order).tolist()
    return tuple(_dag_from_mask(d.vertices, mask) for mask in masks)


def _oracle(d, x, y, shared_order, effect):
    n, index, d_mask = _checked_setup(d, shared_order)
    EffectQuery(d, x, y)  # _checked_setup has checked the shared order
    xi, yi = index[x], index[y]
    masks = _compatible_masks(n, d_mask, shared_order)

    if effect == TOTAL:
        never_effect = not np.any(_descendants(n, masks, xi) >> yi & 1)
    else:
        never_effect = not np.any(masks & 1 << (xi * n + yi))
    if never_effect:
        return _verdict(effect, NULL_EFFECT, x, y)

    table = _family_table(n, xi, yi, effect)
    slots = np.searchsorted(_all_dag_masks(n), masks)
    families = table[slots]
    todo = families < 0
    if todo.any():
        families[todo] = table[slots[todo]] = _admissible_families(
            n, masks[todo], xi, yi, effect)
    common = int(np.bitwise_and.reduce(families))
    if common:
        wbits = min((w for w in range(1 << n) if common >> w & 1),
                    key=_subset_order_key(n))
        w = tuple(d.vertices[v] for v in range(n) if wbits >> v & 1)
        return _verdict(effect, ADJUSTMENT_IDENTIFIABLE, x, y, w=w)

    # the first pair (i, j), i < j, whose families are disjoint
    witness = None
    for i in range(len(families) - 1):
        hits = np.flatnonzero(families[i + 1:] & families[i] == 0)
        if hits.size:
            witness = tuple(_dag_from_mask(d.vertices, int(masks[k]))
                            for k in (i, i + 1 + hits[0]))
            break
    return IdentificationVerdict(kind=NOT_IDENTIFIABLE, witness=witness,
                                 effect=effect)


def oracle_total(d, x, y, shared_order=False):
    """Brute-force total-effect verdict for exposure ``x`` and outcome ``y``.

    NullEffect when no compatible DAG has a directed path from x to y;
    AdjustmentIdentifiable with the smallest (then lexicographically first)
    set satisfying the back-door criterion in every compatible DAG;
    otherwise NotIdentifiable, with a witness pair of compatible DAGs whose
    admissible-set families are disjoint.
    """
    return _oracle(d, x, y, shared_order, TOTAL)


def oracle_direct(d, x, y, shared_order=False):
    """Brute-force direct-effect verdict, single-door version of
    :func:`oracle_total`.  NullEffect when x is a parent of y in no
    compatible DAG."""
    return _oracle(d, x, y, shared_order, DIRECT)
