"""Census of the facts the oracle's verdicts rest on, at every n up to the cap.

For every difference graph D on 2..VERTEX_CAP vertices up to relabelling
(every digraph class in the general regime, every DAG class in the
shared-order regime), every ordered (X, Y) and both effects, the census
reads the admissible-set family of each compatible DAG off the oracle's
own kernel and checks, for each query, that

* some compatible DAG admits at most one set (*pinning*),
* at most one set is admissible in every compatible DAG (*unique*), and
* when no set is common, two compatible DAGs have disjoint families
  (*witness*).

The last two follow from the first, given two compatible DAGs; all three
are checked.  The counts of common sets and disjoint pairs are taken over
the queries that are not a NullEffect, so they count the oracle's
AdjustmentIdentifiable and NotIdentifiable verdicts.

The oracle reads its AdjustmentIdentifiable set off the single bit of the
common family, and builds every NotIdentifiable verdict with its witness,
on these facts; the oracle module docstring proves them under a shared
order and cites this census for the general regime.

Under a shared order the oracle builds its compatible DAGs from D's
supergraphs rather than filtering every DAG; for each shared-order D the
census also checks that set against the definition's own filter.

Run from the repository root::

    PYTHONPATH=src python3 tests/census.py

It prints one row per n and regime and exits 1 if any query breaks a
fact or any built set differs from the filter, naming the first ten
breaches.  The file is not a pytest module; ``check`` also serves
``tests/test_oracle.py`` on labelled graphs.
"""

import itertools
import sys
import time

import numpy as np

from diffgraph.identify import DIRECT, TOTAL
from diffgraph.oracle import (
    VERTEX_CAP,
    _admissible_families,
    _all_dag_masks,
    _compatible_masks,
    _edges_of,
    _is_dag,
)


def digraphs(n):
    """Every loop-free digraph on n labelled vertices, as int64 edge masks
    (bit i*n + j holds i -> j)."""
    off = [i * n + j for i in range(n) for j in range(n) if i != j]
    index = np.arange(1 << len(off), dtype=np.int64)
    masks = np.zeros_like(index)
    for b, k in enumerate(off):
        masks |= (index >> b & 1) << k
    return masks


def _relabelled(n, masks, perm):
    """``masks`` with vertex v renamed perm[v], one byte table per 8 bits."""
    out = np.zeros_like(masks)
    for lo in range(0, n * n, 8):
        byte = np.arange(256, dtype=np.int64) << lo
        table = np.zeros(256, dtype=np.int64)
        for k in range(lo, min(lo + 8, n * n)):
            i, j = divmod(k, n)
            table |= (byte >> k & 1) << (perm[i] * n + perm[j])
        out |= table[masks >> lo & 255]
    return out


def classes(n, masks):
    """One mask per relabelling class of ``masks`` (a relabelling-closed
    int64 array): the least mask of each class."""
    least = masks
    for perm in itertools.permutations(range(n)):
        least = np.minimum(least, _relabelled(n, masks, perm))
    return masks[least == masks]


def _queries(n):
    """Every ordered (x, y) and effect on n vertices, with two rows per
    query over ``_all_dag_masks(n)``: each DAG's admissible family, and
    whether the DAG has a path x -> y (total) or the edge x -> y (direct),
    so that a query is NullEffect exactly when no compatible DAG has one."""
    dags = _all_dag_masks(n)
    keys = [(x, y, effect) for x in range(n) for y in range(n) if x != y
            for effect in (TOTAL, DIRECT)]
    families = np.stack([_admissible_families(n, dags, x, y, effect)
                         for x, y, effect in keys])
    live = np.stack([~_is_dag(n, dags | 1 << (y * n + x)) if effect == TOTAL
                     else (dags >> (x * n + y) & 1).astype(bool)
                     for x, y, effect in keys])
    return keys, families, live


def check(n, d_masks, shared_order):
    """Check the three facts on every query over the difference graphs
    ``d_masks`` (acyclic ones when ``shared_order``), and under a shared
    order that the oracle's compatible set, built from D, is the filter
    of the definition here (G | D acyclic), masks and slots.

    Returns (queries, non-null queries, non-null queries with one common
    set, non-null queries with a disjoint pair, breaches); a breach is a
    line naming D's edges as index pairs and, for a query, x, y, the
    effect and the fact it breaks, over every query, null ones
    included."""
    dags = _all_dag_masks(n)
    keys, families, live = _queries(n)
    rows = np.arange(len(keys))
    counts = np.zeros(3, dtype=np.int64)
    breaches = []
    for d in d_masks.tolist():
        compatible = _is_dag(n, dags | d if shared_order else dags ^ d)
        if shared_order and not np.array_equal(
                _compatible_masks.__wrapped__(n, d, True),
                np.stack([dags[compatible], np.flatnonzero(compatible)]).T):
            breaches.append(f"D = {_edges_of(n, d)}: the compatible set "
                            "built from D is not the filter")
        f = families[:, compatible]
        active = live[:, compatible].any(axis=1)
        common = np.bitwise_and.reduce(f, axis=1)
        pinning = f & (f - 1) == 0
        # a disjoint pair, if any, holds the first pinning DAG p: it admits
        # at most one set, and a DAG without that set is disjoint from it
        p = pinning.argmax(axis=1)
        disjoint = f & f[rows, p][:, None] == 0
        disjoint[rows, p] = False
        paired = disjoint.any(axis=1)
        pinned = pinning.any(axis=1)
        # without a pinning DAG the pair search above proves nothing, so
        # such a query breaks "pinning" only
        facts = {
            "pinning": pinned,
            "unique": common & (common - 1) == 0,
            "witness": (common != 0) | paired | ~pinned,
        }
        counts += [active.sum(), (active & (common != 0)).sum(),
                   (active & paired).sum()]
        for fact, holds in facts.items():
            for k in np.flatnonzero(~holds).tolist():
                breaches.append("D = %s, x = %d, y = %d, %s effect: not %s"
                                % ((_edges_of(n, d),) + keys[k] + (fact,)))
    queries = len(d_masks) * len(keys)
    return (queries, *counts.tolist(), breaches)


def _row(n, regime, counts):
    return f"{n}  {regime:12}  " + "  ".join(
        f"{c:{w},}" for c, w in zip(counts.tolist(), (7, 7, 8, 14, 12)))


def main():
    print("n  regime        classes  queries  non-null  one-common-set"
          "  witness-pair")
    breaches = []
    for n in range(2, VERTEX_CAP + 1):
        both = np.zeros(5, dtype=np.int64)
        for regime, shared, masks in (("general", False, digraphs(n)),
                                      ("shared-order", True,
                                       _all_dag_masks(n))):
            reps = classes(n, masks)
            *counts, found = check(n, reps, shared)
            breaches += found
            row = np.array([len(reps), *counts])
            both += row
            print(_row(n, regime, row))
        print(_row(n, "both", both))
    for breach in breaches[:10]:
        print("breach:", breach)
    return 1 if breaches else 0


if __name__ == "__main__":
    start = time.perf_counter()
    status = main()
    print(f"{time.perf_counter() - start:.1f} s")
    sys.exit(status)
