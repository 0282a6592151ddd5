"""Independent reference answers the benchmark checks diffgraph against.

Nothing here imports diffgraph.  Each function re-derives, with different
code, a result some diffgraph entry point returns, so that a wrong answer
from the program is caught however fast it was:

* ``OracleReference`` enumerates every DAG on up to 5 vertices as numpy
  parent-bitmask arrays and decides back-door / single-door admissibility
  for all of them at once, through the moralised ancestral graph
  (Lauritzen et al. 1990) instead of the program's trail sweep.
* ``closed_form_reference`` re-implements the A/B/C/D conditions as
  documented in ``identify.py`` on adjacency lists with its own
  reachability.  Only its shared-order (A/C) answers are used as a
  reference; the B/D conditions are what the oracle refutes.
* ``unsound_adjustment`` names what makes a general-regime adjustment
  verdict wrong under any sound rule, for graphs too large for the oracle.
* ``plugin_table``, ``plugin_sampling_bound`` and ``ols_fit`` are the
  plain-numpy estimators and sampling bounds for the two estimation
  workloads.
"""

import itertools
import math

import numpy as np

NULL = "NullEffect"
ADJUST = "AdjustmentIdentifiable"
NOT_ID = "NotIdentifiable"

BACK_DOOR = "total"
SINGLE_DOOR = "direct"


# ---------------------------------------------------------------------------
# brute-force oracle on parent bitmasks


def _acyclic_rows(parents):
    """Boolean per row: is the graph with these parent masks acyclic?

    Kahn's algorithm in layers, for all rows at once: each round removes
    every remaining vertex whose remaining parents are all gone.
    """
    m, n = parents.shape
    remaining = np.full(m, (1 << n) - 1, dtype=np.int64)
    for _ in range(n):
        sources = np.zeros(m, dtype=np.int64)
        for v in range(n):
            free = (((parents[:, v] & remaining) == 0)
                    & ((remaining >> v) & 1 == 1))
            sources |= free.astype(np.int64) << v
        remaining &= ~sources
    return remaining == 0


def _all_dags(n):
    """Parent-mask array (rows = DAGs) of every DAG on n labelled vertices."""
    forward = [(i, j) for i in range(n) for j in range(i + 1, n)]
    picks = np.array(list(itertools.product((0, 1), repeat=len(forward))),
                     dtype=np.int64).reshape(-1, len(forward))
    keys = []
    for perm in itertools.permutations(range(n)):
        key = np.zeros(len(picks), dtype=np.int64)
        for k, (i, j) in enumerate(forward):
            tail, head = perm[i], perm[j]
            key |= picks[:, k] << (head * n + tail)
        keys.append(key)
    keys = np.unique(np.concatenate(keys))
    parents = np.stack([(keys >> (v * n)) & ((1 << n) - 1) for v in range(n)],
                       axis=1)
    return parents


def _descendants(parents):
    """Reflexive descendant bitmask of every vertex, for every row."""
    m, n = parents.shape
    desc = np.stack([np.full(m, 1 << v, dtype=np.int64) for v in range(n)],
                    axis=1)
    for _ in range(n):
        for v in range(n):
            for c in range(n):
                child = (parents[:, c] >> v) & 1 == 1
                desc[:, v] |= np.where(child, desc[:, c], 0)
    return desc


def _connected(parents, x, y, w):
    """Per row: are x and y d-connected given vertex set ``w`` (a bitmask)?

    Moralise the subgraph induced by the ancestors of {x, y} and w, delete
    w, and test whether x still reaches y.
    """
    m, n = parents.shape
    anc = np.full(m, (1 << x) | (1 << y) | w, dtype=np.int64)
    for _ in range(n):
        for v in range(n):
            anc |= np.where((anc >> v) & 1 == 1, parents[:, v], 0)
    adj = np.zeros((m, n), dtype=np.int64)
    for v in range(n):
        pv = np.where((anc >> v) & 1 == 1, parents[:, v], 0)
        adj[:, v] |= pv
        for u in range(n):
            has = (pv >> u) & 1 == 1
            adj[:, u] |= np.where(has, (1 << v) | (pv & ~(1 << u)), 0)
    reach = np.full(m, 1 << x, dtype=np.int64)
    for _ in range(n):
        for v in range(n):
            reach |= np.where((reach >> v) & 1 == 1, adj[:, v] & ~w, 0)
    return (reach >> y) & 1 == 1


def admissible(parents, desc, x, y, w, criterion):
    """Per row: does vertex bitmask ``w`` satisfy the criterion for (x, y)?

    Back-door: no member of w descends strictly from x, and w separates x
    from y once the edges out of x are cut.  Single-door: no member of w
    descends strictly from y, and w separates x from y once x -> y is cut.
    """
    if criterion == BACK_DOOR:
        forbidden = desc[:, x] & ~(1 << x)
        pruned = parents & ~(1 << x)
    else:
        forbidden = desc[:, y] & ~(1 << y)
        pruned = parents.copy()
        pruned[:, y] &= ~(1 << x)
    return ((forbidden & w) == 0) & ~_connected(pruned, x, y, w)


class OracleReference:
    """Reference oracle verdicts for difference graphs of up to 5 vertices."""

    def __init__(self, max_vertices=5):
        self._dags = {n: _all_dags(n) for n in range(2, max_vertices + 1)}
        self._desc = {n: _descendants(p) for n, p in self._dags.items()}
        self._rows = {n: {tuple(row): i for i, row in enumerate(p.tolist())}
                      for n, p in self._dags.items()}

    def parents(self, n, row):
        """Parent bitmask of every vertex in DAG ``row``."""
        return self._dags[n][row].tolist()

    def compatible(self, n, edges, shared_order):
        """Row indices of every DAG that appears in a compatible pair.

        ``edges`` are (tail, head) vertex-index pairs of the difference
        graph.  Shared order: the union with D is acyclic; otherwise the
        symmetric difference with D is (the minimal partner).
        """
        d = np.zeros(n, dtype=np.int64)
        for t, h in edges:
            d[h] |= 1 << t
        dags = self._dags[n]
        combined = (dags | d) if shared_order else (dags ^ d)
        return np.flatnonzero(_acyclic_rows(combined))

    def families(self, n, rows, x, y, criterion):
        """{w bitmask: per-row admissibility} for every candidate set w."""
        pool = [v for v in range(n) if v not in (x, y)]
        parents, desc = self._dags[n][rows], self._desc[n][rows]
        out = {}
        for r in range(len(pool) + 1):
            for combo in itertools.combinations(pool, r):
                w = sum(1 << v for v in combo)
                out[w] = admissible(parents, desc, x, y, w, criterion)
        return out

    def verdict(self, n, edges, x, y, shared_order, criterion):
        """Reference verdict: dict with kind, the chosen set (vertex
        indices, smallest then lexicographic, as the program documents), the
        family of sets admissible in every compatible DAG, and the number of
        compatible DAGs."""
        rows = self.compatible(n, edges, shared_order)
        parents = self._dags[n][rows]
        if criterion == BACK_DOOR:
            effect = (self._desc[n][rows][:, x] >> y) & 1 == 1
        else:
            effect = (parents[:, y] >> x) & 1 == 1
        out = {"compatible": len(rows), "rows": rows, "common": set(),
               "set": None}
        if not effect.any():
            out["kind"] = NULL
            return out
        fam = self.families(n, rows, x, y, criterion)
        common = {w for w, ok in fam.items() if ok.all()}
        out["common"] = common
        if common:
            def order(w):
                members = tuple(v for v in range(n) if w >> v & 1)
                return (len(members), members)
            best = min(common, key=order)
            out["kind"] = ADJUST
            out["set"] = tuple(v for v in range(n) if best >> v & 1)
        else:
            out["kind"] = NOT_ID
        return out

    def witness_ok(self, n, rows, pair, x, y, criterion):
        """True iff both witness DAGs (parent-mask tuples) are compatible and
        no candidate set is admissible in both."""
        index = self._rows[n]
        compat = set(rows.tolist())
        picked = []
        for parents in pair:
            i = index.get(tuple(parents))
            if i is None or i not in compat:
                return False
            picked.append(i)
        fam = self.families(n, np.array(picked), x, y, criterion)
        return not any(ok.all() for ok in fam.values())


# ---------------------------------------------------------------------------
# closed-form conditions, re-implemented from identify.py's documentation


def _reach(adjacency, start):
    seen = {start}
    stack = [start]
    while stack:
        for u in adjacency[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return seen


def closed_form_reference(vertices, edges, x, y, shared_order, effect):
    """(kind, condition, adjustment set) the documented conditions give."""
    parents = {v: [] for v in vertices}
    children = {v: [] for v in vertices}
    for t, h in edges:
        parents[h].append(t)
        children[t].append(h)
    pos = {v: i for i, v in enumerate(vertices)}
    pivot = x if effect == BACK_DOOR else y
    anc_x, anc_y = _reach(parents, x), _reach(parents, y)
    anc_p, desc_p = _reach(parents, pivot), _reach(children, pivot)
    comparable = anc_p | desc_p
    null = y in anc_x
    adjust = x in anc_y and all(v in comparable for v in vertices
                                if v not in (x, y))
    if shared_order:
        labels = ("A.1", "A.2") if effect == BACK_DOOR else ("C.1", "C.2")
    else:
        labels = ("B.1", "B.2") if effect == BACK_DOOR else ("D.1", "D.2")
        null = null and x not in anc_y
        adjust = adjust and anc_p & desc_p == {pivot}
    if null:
        return NULL, labels[0], None
    if adjust:
        w = sorted(anc_p - {x, y}, key=pos.__getitem__)
        return ADJUST, labels[1], tuple(w)
    return NOT_ID, "none", None


def unsound_adjustment(vertices, edges, x, y, effect, kind, adjustment_set):
    """Why a general-regime verdict is wrong whatever rule produced it, or
    None.

    A set must be made of distinct vertices and leave out x, y and every
    D-child of the pivot (x for the total effect, y for the direct one).
    For a D-edge pivot -> v, list the vertices in an order that puts pivot
    before v: D's forward edges and its backward edges are two DAGs whose
    symmetric difference is D, a compatible pair, and the first holds
    pivot -> v.  There v descends from the pivot, which the back-door and
    the single-door criterion both forbid.
    """
    if kind not in (NULL, ADJUST, NOT_ID):
        return f"unknown verdict kind {kind!r}"
    if kind != ADJUST:
        return None if adjustment_set is None else "a set without adjustment"
    pivot = x if effect == BACK_DOOR else y
    banned = {x, y} | {h for t, h in edges if t == pivot}
    members = tuple(adjustment_set or ())
    if len(set(members)) != len(members) or not set(members) <= set(vertices):
        return f"adjustment set {members} is not a set of graph vertices"
    bad = sorted(set(members) & banned)
    if bad:
        return (f"adjustment set holds {bad}: exposure, outcome or a "
                f"D-child of {pivot}")
    return None


# ---------------------------------------------------------------------------
# estimators and sampling bounds


def plugin_table(codes, x, y, w, kx, ky):
    """Plug-in sum_w P(y|x,w) P(w) from integer code columns, one bincount
    over the (stratum, x, y) cell index.  Returns (table, cell counts)."""
    stratum = np.zeros(len(codes[x]), dtype=np.int64)
    for v in w:
        stratum = stratum * (int(codes[v].max()) + 1) + codes[v]
    _, stratum = np.unique(stratum, return_inverse=True)
    s = int(stratum.max()) + 1
    cells = np.bincount((stratum * kx + codes[x]) * ky + codes[y],
                        minlength=s * kx * ky).reshape(s, kx, ky)
    n_sx = cells.sum(axis=2)
    weight = cells.sum(axis=(1, 2)) / len(stratum)
    table = np.einsum("s,sxy->xy", weight, cells / n_sx[:, :, None])
    return table, n_sx


def plugin_sampling_bound(n_sx, total_rows, z=6.0):
    """Conservative z-sigma bound on |estimate - truth| for every cell of a
    plug-in table: each conditional has sd at most 0.5/sqrt(n_sx), weighted
    by the stratum share, plus at most 0.5/sqrt(N) from the shares."""
    share = n_sx.sum(axis=1) / total_rows
    var = (share[:, None] ** 2 * 0.25 / n_sx).sum(axis=0)
    return z * (np.sqrt(var.max()) + 0.5 / math.sqrt(total_rows))


def ols_fit(columns, target):
    """(coefficient of columns[0], its standard error) in the OLS fit of
    target on the columns plus an intercept, by normal equations."""
    design = np.column_stack([np.ones(len(target))] + list(columns))
    gram = design.T @ design
    beta = np.linalg.solve(gram, design.T @ target)
    resid = target - design @ beta
    sigma2 = resid @ resid / (len(target) - design.shape[1])
    cov = sigma2 * np.linalg.inv(gram)
    return float(beta[1]), float(math.sqrt(cov[1, 1]))
