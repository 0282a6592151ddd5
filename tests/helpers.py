"""Shared fixtures: the bundled gallery graphs, compatible DAG pairs for
them, and independent brute-force checks used to validate the library's
algorithms against a second implementation.
"""

import itertools

import numpy as np

from diffgraph import CausalDag, DifferenceGraph, shares_topological_order
from diffgraph.graphs import ParseError, _check_label

VERTICES_2 = ("X", "Y")
VERTICES_4 = ("W1", "X", "W2", "Y")


def _dag(edges, vertices=VERTICES_4):
    return CausalDag(vertices=vertices, edges=edges)


# The six difference graphs of the gallery (ids as printed by `diffgraph
# figures`), plus the compatible DAG pairs bundled with each of them.
DG_1C = DifferenceGraph(vertices=VERTICES_2)
DG_1H = DifferenceGraph(vertices=VERTICES_4,
                        edges=[("W1", "X"), ("X", "W2"), ("X", "Y")])
DG_1M = DifferenceGraph(vertices=VERTICES_4,
                        edges=[("W1", "X"), ("W2", "Y"), ("X", "Y")])
DG_2C = DifferenceGraph(vertices=VERTICES_2,
                        edges=[("X", "Y"), ("Y", "X")])
DG_2F = DifferenceGraph(vertices=VERTICES_4,
                        edges=[("W1", "X"), ("X", "W2"), ("W2", "Y"),
                               ("Y", "W2"), ("X", "Y")])
DG_2K = DifferenceGraph(vertices=VERTICES_4,
                        edges=[("W1", "X"), ("X", "W2"), ("W2", "X"),
                               ("W2", "Y"), ("X", "Y")])

# Compatible pairs for DG_1C: the models must be identical (no difference
# edges), one pair oriented X->Y, the other Y->X.
PAIRS_1C = (
    (_dag([("X", "Y")], VERTICES_2), _dag([("X", "Y")], VERTICES_2)),
    (_dag([("Y", "X")], VERTICES_2), _dag([("Y", "X")], VERTICES_2)),
)

# Compatible pairs for DG_1H.  In the first pair any single-door set for
# X->Y needs both W1 and W2; in the second, W2 (a child of Y) is forbidden.
PAIRS_1H = (
    (_dag([("W1", "X"), ("W1", "Y"), ("X", "W2"), ("W2", "Y"), ("X", "Y")]),
     _dag([("W1", "Y"), ("W2", "Y")])),
    (_dag([("W1", "X"), ("W1", "Y"), ("X", "W2"), ("Y", "W2"), ("X", "Y")]),
     _dag([("W1", "Y"), ("Y", "W2")])),
)

# Compatible pairs for DG_1M.  In the first pair {W1} is back-door
# admissible but {W1, W2} is not (W2 mediates); in the second only
# {W1, W2} works (W2 confounds).
PAIRS_1M = (
    (_dag([("W1", "X"), ("W1", "Y"), ("X", "W2"), ("W2", "Y"), ("X", "Y")]),
     _dag([("W1", "Y"), ("X", "W2")])),
    (_dag([("W1", "X"), ("W2", "X"), ("W1", "Y"), ("W2", "Y"), ("X", "Y")]),
     _dag([("W1", "Y"), ("W2", "X")])),
)

PAIRS_2C = (
    (_dag([("X", "Y")], VERTICES_2), _dag([("Y", "X")], VERTICES_2)),
)

PAIRS_2F = (
    (_dag([("W1", "X"), ("W1", "Y"), ("X", "W2"), ("W2", "Y"), ("X", "Y")]),
     _dag([("W1", "Y"), ("Y", "W2")])),
    (_dag([("W1", "X"), ("W1", "Y"), ("X", "W2"), ("Y", "W2"), ("X", "Y")]),
     _dag([("W1", "Y"), ("W2", "Y")])),
)

PAIRS_2K = (
    (_dag([("W1", "X"), ("W1", "Y"), ("W2", "X"), ("W2", "Y"), ("X", "Y")]),
     _dag([("W1", "Y"), ("X", "W2")])),
    (_dag([("W1", "X"), ("W1", "Y"), ("X", "W2"), ("W2", "Y"), ("X", "Y")]),
     _dag([("W1", "Y"), ("W2", "X")])),
)

GALLERY_PAIRS = {
    "1c": (DG_1C, PAIRS_1C),
    "1h": (DG_1H, PAIRS_1H),
    "1m": (DG_1M, PAIRS_1M),
    "2c": (DG_2C, PAIRS_2C),
    "2f": (DG_2F, PAIRS_2F),
    "2k": (DG_2K, PAIRS_2K),
}


def is_compatible_pair(g1, g2, d, shared_order):
    """Independent compatibility check, straight from the definition.

    Every difference edge must appear in at least one model, every other
    ordered pair must be an edge in both models or in neither, and under
    the shared-order regime the two models must admit one topological
    order.
    """
    if set(g1.vertices) != set(d.vertices) or set(g2.vertices) != set(d.vertices):
        return False
    union = g1.edges | g2.edges
    if any(e not in union for e in d.edges):
        return False
    for pair in itertools.permutations(d.vertices, 2):
        if pair in d.edges:
            continue
        if (pair in g1.edges) != (pair in g2.edges):
            return False
    if shared_order and not shares_topological_order(g1, g2):
        return False
    return True


def all_dags(vertices):
    """Every DAG over ``vertices`` by filtering all edge subsets (small n)."""
    pairs = list(itertools.permutations(vertices, 2))
    out = []
    for bits in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
        try:
            out.append(CausalDag(vertices=vertices, edges=edges))
        except ValueError:
            continue
    return out


def _simple_paths(g, x, y):
    """All simple undirected paths x..y as [(vertex, arrow_into_vertex)]."""
    paths = []
    trail = [(x, None)]
    on_trail = {x}

    def step(u):
        if u == y:
            paths.append(list(trail))
            return
        for v in g.children(u):
            if v not in on_trail:
                trail.append((v, True))
                on_trail.add(v)
                step(v)
                on_trail.remove(v)
                trail.pop()
        for v in g.parents(u):
            if v not in on_trail:
                trail.append((v, False))
                on_trail.add(v)
                step(v)
                on_trail.remove(v)
                trail.pop()

    step(x)
    return paths


def d_separated_by_paths(g, x, y, w=()):
    """Second d-separation implementation: enumerate every simple path and
    test its blocking status vertex by vertex.  Exponential, fine for the
    small graphs the tests use.
    """
    w = set(w)
    for path in _simple_paths(g, x, y):
        connecting = True
        for i in range(1, len(path) - 1):
            v, arrow_in = path[i]
            arrow_back = not path[i + 1][1]
            if arrow_in and arrow_back:
                if not (g.descendants(v) & w):
                    connecting = False
                    break
            elif v in w:
                connecting = False
                break
        if connecting:
            return False
    return True


def parse_edge_list_by_rules(text):
    """Second edge-list reader: every line through the format's rules, with
    no token path.  Returns the vertex index (name -> position in order of
    first appearance) and the edge set, or raises ParseError."""
    first = {}
    edges = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "->" in line:
            names = line.split("->")
            if len(names) != 2:
                raise ParseError(lineno, "expected exactly one '->' per edge")
            names = (names[0].strip(), names[1].strip())
        else:
            tokens = line.split()
            if len(tokens) != 2 or tokens[0] != "node":
                raise ParseError(
                    lineno, f"cannot parse {line!r} (expected 'node <name>' "
                    "or '<tail> -> <head>')")
            names = tokens[1:]
        for name in names:
            if name not in first:
                try:
                    _check_label(name)
                except ValueError as exc:
                    raise ParseError(lineno, str(exc)) from None
                first[name] = len(first)
        if len(names) == 2:
            if names[0] == names[1]:
                raise ParseError(
                    lineno, f"self-loop on {names[0]!r} is not allowed")
            edges.add(names)
    return first, edges


def joint_counts_by_sorting(data, x, y, w):
    """Second stratum numbering for the discrete estimators: rank each
    adjustment column with np.unique, then rank the combined key again, so
    strata come out in lexicographic order of the ``w`` codes.  Returns
    each row's stratum and the rows counted per (stratum, x, y) on the
    observed level grid."""
    xcol, ycol = data.column(x), data.column(y)
    kx, ky = int(xcol.max()) + 1, int(ycol.max()) + 1
    stratum = np.zeros(len(data), dtype=np.int64)
    for v in w:
        levels, code = np.unique(data.column(v), return_inverse=True)
        stratum = np.unique(stratum * len(levels) + code,
                            return_inverse=True)[1]
    counts = np.bincount((stratum * kx + xcol) * ky + ycol,
                         minlength=(int(stratum.max()) + 1) * kx * ky)
    return stratum, counts.reshape(-1, kx, ky)
