"""Closed-form identifiability decisions read off the difference graph alone.

Eight conditions drive the verdicts, in two regimes.  When the two causal
models are assumed to share a topological order (an acyclic difference
graph), conditions A.1/A.2 decide the total effect and C.1/C.2 the direct
effect.  Without that assumption the difference graph may be cyclic and
conditions B.1/B.2 (total) and D.1/D.2 (direct) apply instead.

One decision body serves all eight.  It works around a pivot, X for the
total effect and Y for the direct effect, and takes the condition letter
from the regime and the effect; clause 1 of a letter is the null effect,
clause 2 the adjustment:

    ==============  ===============  ================
    regime          total (pivot X)  direct (pivot Y)
    ==============  ===============  ================
    shared order    A                C
    general         B                D
    ==============  ===============  ================

* Shared order: null iff Y is an ancestor of X; adjust iff X is an
  ancestor of Y and every other vertex is comparable to the pivot, with
  W = ancestors(pivot) minus {X, Y}.
* General: null iff not reach(X, Y) (total) or Y->X is D-only (direct);
  adjust iff X->Y is in D and every vertex other than the pivot is a
  D-only child of it or a D-only parent it does not reach, with
  W = D-parents of the pivot minus X.

The per-regime entry points fix the regime; identify_total and
identify_direct take it from the query.  Spelled out per condition:

The shared-order conditions are statements about reflexive ancestor sets
in the difference graph D:

* A.1: Y is an ancestor of X.  The exposure can never reach the outcome in
  any compatible model, so P(y|do(x)) = P(y) in both populations.
* A.2: X is an ancestor of Y and every other vertex is comparable to X
  (ancestor or descendant of it).  Then W^anc = ancestors(X) minus X is a
  back-door set in every compatible model.
* C.1 = A.1 (null direct effect, alpha = 0).
* C.2: X is an ancestor of Y and every other vertex is comparable to Y;
  W^anc = ancestors(Y) minus {X, Y} is then a single-door set everywhere.

Without a shared order, D's ancestry does not fix the causal order: an
edge shared by both models (no D-edge either way) may point against D.
For D = {A->C, B->A}, the models {A->C, C->B} and {B->A, C->B} are a
compatible pair in which A causes B.  So the general conditions do not
read ancestry off D.  They use three notions instead.  u->v is *D-only*
when u->v is in D and v->u is not.  A pair is *free* when D has no edge
between it, either way.  reach(a, b) holds when some compatible DAG has a
directed path from a to b:

* reach(a, b) holds unless b->a is D-only.  If b->a is D-only, it holds
  exactly when a simple path a -> ... -> b exists whose steps are D-edges
  or free pairs, with at least one D-edge and no two free steps in a row.
  Take a topological order of each model: a free step goes forward in
  both, so two free steps in a row could be shortcut unless they put a
  D-pair out of order in both models; conversely such a path builds the
  two orders.
* B.1: not reach(X, Y).  No compatible DAG has a path from X to Y.
* B.2: X->Y is D-only, and every other vertex v is a D-only child of X or
  a D-only parent of X with not reach(X, v).  W = D-parents of X then
  holds every parent of X and no descendant of X in every compatible DAG.
* D.1: Y->X is D-only, so X is a parent of Y in no compatible DAG.
* D.2: X->Y is D-only, not reach(Y, X), and every other vertex v is a
  D-only child of Y or a D-only parent of Y with not reach(Y, v).
  W = D-parents of Y other than X.

These replace the earlier statements B.1 = A.1 plus "X not an ancestor of
Y", B.2 = A.2 plus "X on no cycle", D.1 = C.1 plus "X not an ancestor of
Y" and D.2 = C.2 plus "Y on no cycle", which the enumeration oracle
refutes (gallery figures 2f and 2k among them).  The exact simple-path
search is exponential, so reach is computed by a breadth-first search
over walks that may repeat vertices but never step straight back along a
D-edge pair.  That search can only over-report reach, which makes B.1,
B.2 and D.2 fire less often, never wrongly: the general verdicts are
sound at every size.  They match the oracle exactly on every difference
graph of up to 4 vertices; at 5 vertices the search over-reports reach
on a small share of pairs, and those verdicts come out NotIdentifiable
where the oracle decides them.

Verdicts carry the fired condition so output is self-explaining, and the
effect they decide (TOTAL or DIRECT) so estimation can pick its
estimator.  They serialize to a JSON document with fixed keys {kind,
condition, adjustment_set, formula}.
"""

from collections import deque
from dataclasses import dataclass, field

from .graphs import DifferenceGraph, check_shared_order

NULL_EFFECT = "NullEffect"
ADJUSTMENT_IDENTIFIABLE = "AdjustmentIdentifiable"
NOT_IDENTIFIABLE = "NotIdentifiable"

TOTAL = "total"
DIRECT = "direct"


@dataclass(frozen=True)
class EffectQuery:
    """A single identifiability question.

    Attributes
    ----------
    graph : DifferenceGraph
    exposure, outcome : str
        Distinct vertices of the graph (X and Y).
    shared_order_assumed : bool
        When True, the two underlying models are assumed to admit one common
        topological order; the graph must then be acyclic.
    """

    graph: DifferenceGraph
    exposure: str
    outcome: str
    shared_order_assumed: bool = False

    def __post_init__(self):
        for v in (self.exposure, self.outcome):
            if v not in self.graph:
                raise ValueError(f"unknown vertex {v!r}")
        if self.exposure == self.outcome:
            raise ValueError("exposure and outcome must be distinct")
        check_shared_order(self.graph, self.shared_order_assumed)


@dataclass(frozen=True)
class IdentificationVerdict:
    """Outcome of an identifiability decision.

    ``adjustment_set`` is present (a tuple in vertex order) exactly when
    ``kind`` is AdjustmentIdentifiable.  ``condition`` names the clause that
    fired (A.1 through D.2), or "none" for NotIdentifiable and for verdicts
    produced by brute-force search.  The oracle's adjustment set is *the*
    set admissible in every compatible model: no other is.  ``witness``,
    attached by the oracle to every NotIdentifiable verdict it gives and
    never by the closed form, is a pair of compatible DAGs whose
    admissible-set families are disjoint, so no single adjustment set
    serves both.  (Both oracle facts are proved under a shared order and
    checked up to the 5-vertex cap in general.)  ``effect`` is TOTAL or
    DIRECT, the effect the verdict is about; it is not part of
    :meth:`as_dict`.
    """

    kind: str
    condition: str = "none"
    adjustment_set: tuple = None
    formula: str = ""
    witness: tuple = field(default=None, compare=False)
    effect: str = TOTAL

    def as_dict(self):
        """JSON-ready dict with the fixed keys; witness only when present."""
        doc = {"kind": self.kind, "condition": self.condition,
               "formula": self.formula}
        if self.kind == ADJUSTMENT_IDENTIFIABLE:
            doc["adjustment_set"] = list(self.adjustment_set)
        if self.witness is not None:
            doc["witness"] = [g.to_edge_list() for g in self.witness]
        return doc


def _verdict(effect, kind, x, y, condition="none", w=None):
    """The verdict of ``kind`` on the ``effect`` of x on y, with its
    formula; ``w`` is the adjustment set of an AdjustmentIdentifiable one."""
    if kind == NOT_IDENTIFIABLE:
        formula = ""
    elif effect == DIRECT:
        formula = (f"alpha({x}->{y}) = 0" if kind == NULL_EFFECT else
                   f"alpha({x}->{y}) = coefficient of {x} in the regression "
                   f"of {y} on {{{', '.join((x,) + w)}}}")
    elif kind == NULL_EFFECT:
        formula = f"P({y}|do({x})) = P({y})"
    elif not w:
        formula = f"P({y}|do({x})) = P({y}|{x})"
    else:
        ws = ",".join(w)
        formula = f"P({y}|do({x})) = sum_{{{ws}}} P({y}|{x},{ws}) P({ws})"
    return IdentificationVerdict(kind=kind, effect=effect, condition=condition,
                                 adjustment_set=w, formula=formula)


def _comparable_to(d, v, anc, exempt):
    """True iff every vertex outside ``exempt`` is in ``anc``, the
    ancestors of ``v`` in ``d``, or a descendant of ``v``."""
    near = anc | d.descendants(v)
    return all(w in near for w in d.vertices if w not in exempt)


def _d_only(d, u, v):
    """True iff u -> v is a D-edge and v -> u is not."""
    return (u, v) in d.edges and (v, u) not in d.edges


def _unreachable(d, a, targets):
    """The members of ``targets`` that ``a`` reaches in no compatible DAG.

    Only a D-only parent b of ``a`` can be unreachable; every other member
    is reachable.  For the D-only parents, a breadth-first search follows
    walks from ``a`` whose steps are D-edges or free pairs, with no two
    free steps in a row, and marks each vertex the walk enters after its
    first D-step.  A walk never steps straight back along a two-way D-edge
    and never re-enters ``a``; it may otherwise repeat vertices, so it can
    mark a vertex that no simple path reaches (see the module docstring).
    Each vertex is expanded for at most two distinct D-predecessors, and a
    free step is taken at most once into each vertex, so the search is
    linear in the size of D.  It stops once every target is marked.
    """
    left = {b for b in targets if _d_only(d, b, a)}
    if not left:
        return left
    children = d.children
    unfree = set(d.vertices) - {a}

    def free_from(u):
        # the vertices not yet entered by a free step that are free with u
        near = set(d.parents(u)) | set(children(u))
        entered = [w for w in unfree if w not in near and w != u]
        unfree.difference_update(entered)
        return entered

    queue = deque((c, a) for c in children(a))
    for w in free_from(a):
        queue.extend((c, w) for c in children(w))
    entered_from = {}
    while queue and left:
        v, prev = queue.popleft()
        if v == a:
            continue
        froms = entered_from.setdefault(v, [])
        if prev in froms or len(froms) == 2:
            continue
        froms.append(prev)
        left.discard(v)
        if len(froms) == 2:
            # only the step back to the first predecessor is new
            if froms[0] in children(v):
                queue.append((froms[0], v))
            continue
        queue.extend((c, v) for c in children(v) if c != prev)
        for w in free_from(v):
            left.discard(w)
            queue.extend((c, w) for c in children(w))
    return left


def _splits_around(d, pivot):
    """True iff every vertex other than ``pivot`` is a D-only child of it
    or a D-only parent of it that it reaches in no compatible DAG."""
    parents, children = set(d.parents(pivot)), set(d.children(pivot))
    if parents & children or (
            len(parents) + len(children) != len(d.vertices) - 1):
        return False
    return _unreachable(d, pivot, parents) == parents


# The condition letter of each (shared order, effect) regime.
_LETTER = {(True, TOTAL): "A", (False, TOTAL): "B",
           (True, DIRECT): "C", (False, DIRECT): "D"}


def _decide(q, effect, shared_order):
    """The verdict of conditions A to D on ``effect``; the pivot is X for
    the total effect and Y for the direct effect."""
    d, x, y = q.graph, q.exposure, q.outcome
    letter = _LETTER[shared_order, effect]
    pivot = x if effect == TOTAL else y
    if shared_order:
        anc_x = d.ancestors(x)
        null = y in anc_x
        anc_y = set() if null else d.ancestors(y)
        anc = anc_x if effect == TOTAL else anc_y
        adjust = x in anc_y and _comparable_to(d, pivot, anc, {x, y})
        members = anc - {x, y}
    else:
        null = (_unreachable(d, x, {y}) if effect == TOTAL
                else _d_only(d, y, x))
        adjust = (x, y) in d.edges and _splits_around(d, pivot)
        members = set(d.parents(pivot)) - {x} if adjust else ()
    if null:
        return _verdict(effect, NULL_EFFECT, x, y, letter + ".1")
    if adjust:
        return _verdict(effect, ADJUSTMENT_IDENTIFIABLE, x, y, letter + ".2",
                        tuple(d.sort_vertices(members)))
    return _verdict(effect, NOT_IDENTIFIABLE, x, y)


def _require_shared_order(q):
    if not q.shared_order_assumed:
        raise ValueError("query must set shared_order_assumed")


def identify_total_shared_order(q):
    """Total-effect verdict under the shared-topological-order assumption.

    NullEffect under A.1, AdjustmentIdentifiable with
    W^anc = ancestors(X) \\ {X} under A.2, otherwise NotIdentifiable.
    """
    _require_shared_order(q)
    return _decide(q, TOTAL, True)


def identify_total_general(q):
    """Total-effect verdict with no ordering assumption (graph may be cyclic).

    NullEffect under B.1 (X reaches Y in no compatible DAG),
    AdjustmentIdentifiable with W = D-parents of X under B.2, otherwise
    NotIdentifiable.  See the module docstring for the conditions.
    """
    return _decide(q, TOTAL, False)


def identify_direct_shared_order(q):
    """Direct-effect (path coefficient) verdict under the shared-order
    assumption; linear models are presumed.

    NullEffect (alpha = 0) under C.1, AdjustmentIdentifiable with
    W^anc = ancestors(Y) \\ {X, Y} under C.2, otherwise NotIdentifiable.
    """
    _require_shared_order(q)
    return _decide(q, DIRECT, True)


def identify_direct_general(q):
    """Direct-effect verdict with no ordering assumption.

    NullEffect under D.1 (Y -> X is D-only), AdjustmentIdentifiable with
    W = D-parents of Y other than X under D.2, otherwise NotIdentifiable.
    See the module docstring for the conditions.
    """
    return _decide(q, DIRECT, False)


def identify_total(q):
    """Total-effect verdict under the query's own ordering assumption."""
    return _decide(q, TOTAL, q.shared_order_assumed)


def identify_direct(q):
    """Direct-effect verdict under the query's own ordering assumption."""
    return _decide(q, DIRECT, q.shared_order_assumed)
