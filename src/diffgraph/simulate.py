"""Seeded generation of linear-SCM pairs behind a difference graph.

Given a difference graph, `sample_compatible_pair` draws two linear
structural causal models whose disagreements reproduce the graph exactly:
changed mechanisms get coefficients at least 0.2 apart (absent edges count
as coefficient zero), unchanged mechanisms share one coefficient to the
bit.  Every variable takes independent standard normal noise.
`sample_dataset` then draws observational data from either model by
ancestral sampling.  Both are deterministic functions of their seed, so
every simulated experiment in the test suite is replayable.

The closed-form total effect of a linear model (sum over directed paths of
coefficient products) and the direct effect (the path coefficient itself)
are exposed as ground truths for end-to-end validation.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .estimate import CONTINUOUS, Dataset
from .graphs import CausalDag, DifferenceGraph, check_shared_order
from .oracle import VERTEX_CAP, draw_compatible_dags

SEPARATION_MARGIN = 0.2
COEFFICIENT_RANGE = (0.2, 1.0)


@dataclass
class LinearScm:
    """A causal DAG with path coefficients and independent noise.

    Each variable equals the coefficient-weighted sum of its parents plus
    standard normal noise.  ``as_dict`` records that noise as a scale of 1.0
    per vertex and the family ``"gaussian"``.
    """

    dag: CausalDag
    coefficients: dict

    def __post_init__(self):
        if set(self.coefficients) != self.dag.edges:
            raise ValueError("coefficient keys must equal the DAG edge set")
        if any(c == 0 for c in self.coefficients.values()):
            raise ValueError("path coefficients must be nonzero")

    def as_dict(self):
        return {
            "vertices": list(self.dag.vertices),
            "edges": [list(e) for e in self.dag.sorted_edges()],
            "coefficients": {f"{t}->{h}": self.coefficients[(t, h)]
                             for t, h in self.dag.sorted_edges()},
            "noise_scales": {v: 1.0 for v in self.dag.vertices},
            "noise_family": "gaussian",
        }


@dataclass
class ScmPair:
    """Two linear SCMs together with the difference graph they induce."""

    scm1: LinearScm
    scm2: LinearScm
    difference_graph: DifferenceGraph

    def __post_init__(self):
        recomputed = recompute_difference_graph(self.scm1, self.scm2)
        if recomputed.edges != self.difference_graph.edges:
            raise ValueError(
                "the SCM pair does not induce the stated difference graph")
        c1, c2 = self.scm1.coefficients, self.scm2.coefficients
        for e in self.difference_graph.edges:
            gap = abs(c1.get(e, 0.0) - c2.get(e, 0.0))
            if gap < SEPARATION_MARGIN:
                raise ValueError(
                    f"changed coefficient on {e} separated by only {gap}")


def recompute_difference_graph(scm1, scm2):
    """The difference graph induced by two SCMs: an edge wherever their
    direct effects (absent edge = 0) disagree."""
    if set(scm1.dag.vertices) != set(scm2.dag.vertices):
        raise ValueError("SCMs are over different vertex sets")
    c1, c2 = scm1.coefficients, scm2.coefficients
    changed = [e for e in (scm1.dag.edges | scm2.dag.edges)
               if c1.get(e, 0.0) != c2.get(e, 0.0)]
    return DifferenceGraph(vertices=scm1.dag.vertices, edges=changed)


def _draw_coefficient(rng):
    lo, hi = COEFFICIENT_RANGE
    magnitude = rng.uniform(lo, hi)
    return magnitude if rng.random() < 0.5 else -magnitude


def _random_order_pair(d, shared_order, rng):
    """Structure pair for graphs beyond the enumeration cap, acyclic by
    construction: each DAG takes only edges that point forward in its own
    vertex order.

    Under a shared order both orders are one random topological order of
    ``d``; otherwise order 1 is a random permutation and order 2 a random
    topological order of the D-edges that order 1 points backwards.  A
    D-edge forward in both orders goes to G1, G2 or both (a third each) and
    one forward in a single order to that order's DAG; a non-D pair
    forward in both becomes a shared edge with probability 1/4.
    """
    vertices = list(d.vertices)

    def random_order(edges):
        # Kahn's lowest-index rule on shuffled vertices gives a random
        # topological order.
        shuffled = [str(v) for v in rng.permutation(vertices)]
        order = CausalDag(vertices=shuffled, edges=edges).topological_order()
        return {v: i for i, v in enumerate(order)}

    pos1 = random_order(d.edges if shared_order else ())
    pos2 = pos1 if shared_order else random_order(
        [(t, h) for t, h in d.edges if pos1[t] > pos1[h]])
    e1, e2 = set(), set()
    for t, h in itertools.permutations(vertices, 2):
        in1, in2 = pos1[t] < pos1[h], pos2[t] < pos2[h]
        if (t, h) not in d.edges:
            in1 = in2 = in1 and in2 and rng.random() < 0.25
        elif in1 and in2:
            lot = rng.random()
            in1, in2 = lot < 2 / 3, lot >= 1 / 3
        if in1:
            e1.add((t, h))
        if in2:
            e2.add((t, h))
    return (CausalDag(vertices=vertices, edges=e1),
            CausalDag(vertices=vertices, edges=e2))


def sample_compatible_pair(d, shared_order=False, seed=0):
    """Draw a linear-SCM pair whose difference graph is exactly ``d``.

    Structure first: within the enumeration cap the first DAG is drawn
    uniformly from the oracle's compatible-DAG enumeration and its partner
    uniformly from that DAG's valid partners; beyond the cap each DAG takes
    only edges pointing forward in its own random vertex order.
    Coefficients of changed edges come from +-Uniform[0.2, 1.0], redrawn
    until the two models differ by at least the 0.2 separation margin;
    unchanged edges share one draw.  Deterministic given the seed.
    """
    rng = np.random.default_rng(seed)
    if len(d.vertices) <= VERTEX_CAP:
        g1, g2 = draw_compatible_dags(d, shared_order, rng)
    else:
        check_shared_order(d, shared_order)
        g1, g2 = _random_order_pair(d, shared_order, rng)

    coeff1, coeff2 = {}, {}
    for e in sorted(g1.edges | g2.edges):
        in1, in2 = e in g1.edges, e in g2.edges
        if e in d.edges:
            if in1 and in2:
                a1 = _draw_coefficient(rng)
                a2 = _draw_coefficient(rng)
                while abs(a1 - a2) < SEPARATION_MARGIN:
                    a2 = _draw_coefficient(rng)
                coeff1[e], coeff2[e] = a1, a2
            elif in1:
                coeff1[e] = _draw_coefficient(rng)
            else:
                coeff2[e] = _draw_coefficient(rng)
        else:
            shared_draw = _draw_coefficient(rng)
            coeff1[e] = coeff2[e] = shared_draw

    scm1 = LinearScm(dag=g1, coefficients=coeff1)
    scm2 = LinearScm(dag=g2, coefficients=coeff2)
    return ScmPair(scm1=scm1, scm2=scm2, difference_graph=d)


def sample_dataset(scm, n, seed=0):
    """Ancestral sampling: ``n`` rows from the SCM, deterministic per seed.

    Vertices are evaluated in topological order; each equals the weighted
    sum of its sampled parents plus a standard normal draw.  Columns follow
    the DAG's vertex order.
    """
    if not scm.dag.vertices:
        raise ValueError("need at least one variable")
    if n < 1:
        raise ValueError("need at least one row")
    rng = np.random.default_rng(seed)
    values = {}
    for v in scm.dag.topological_order():
        total = rng.standard_normal(n)
        for p in scm.dag.parents(v):
            total = total + scm.coefficients[(p, v)] * values[p]
        values[v] = total
    matrix = np.column_stack([values[v] for v in scm.dag.vertices])
    return Dataset(scm.dag.vertices, matrix, CONTINUOUS)


def ground_truth_direct(scm, x, y):
    """The path coefficient on x -> y; 0.0 when the edge is absent."""
    for v in (x, y):
        if v not in scm.dag:
            raise KeyError(f"unknown vertex {v!r}")
    return scm.coefficients.get((x, y), 0.0)


def ground_truth_total_linear(scm, x, y):
    """Total effect of x on y in a linear SCM: the sum over all directed
    x-to-y paths of the product of coefficients along each path."""
    for v in (x, y):
        if v not in scm.dag:
            raise KeyError(f"unknown vertex {v!r}")
    effect = {v: 0.0 for v in scm.dag.vertices}
    effect[x] = 1.0
    for v in scm.dag.topological_order():
        if v == x:
            continue
        effect[v] = sum(scm.coefficients[(p, v)] * effect[p]
                        for p in scm.dag.parents(v))
    return effect[y]
