"""Directed-graph core shared by every other module.

Two graph flavors live here.  A :class:`DifferenceGraph` records where two
structural causal models disagree: an edge X -> Y asserts a mechanism change
at Y with respect to X, absence of the edge asserts equal direct effects in
both models (both zero, or both present with the same coefficient).  Cycles
are legal in a difference graph.  A :class:`CausalDag` is an ordinary acyclic
causal diagram and supports d-separation queries.

Ancestor and descendant sets are REFLEXIVE throughout (a vertex is its own
ancestor and descendant); parent and child sets are not.  Every decision
procedure in the package is written against this convention.

Graphs are immutable and safe to share across threads: a difference graph
builds its parent and child lists on first use, and a race only builds equal
lists twice.  All set-valued results are reported in vertex order, which is
the order of first appearance (explicit declarations first, then edge
endpoints).  The edge-list parser reads ``a -> b`` lines over seen names,
and ``node v`` lines, from their tokens alone.
"""

import heapq
from collections import deque


class ParseError(ValueError):
    """Malformed edge-list text.  Carries the offending 1-based line number."""

    def __init__(self, line_number, message):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


def _check_label(name):
    if not name:
        raise ValueError("variable names must be non-empty")
    # split() drops whitespace, so it changes a name that has any
    if "," in name or name.split() != [name]:
        raise ValueError(
            f"variable name {name!r} contains whitespace or a comma")


def _check_vertex(name):
    """A vertex name is a label that edge-list text can hold: a ``#``
    would start a comment there, and a ``->`` an edge."""
    _check_label(name)
    if "#" in name or "->" in name:
        raise ValueError(f"vertex name {name!r} contains '#' or '->', which "
                         "the edge-list format cannot hold")


class _Digraph:
    """Common machinery for both graph flavors.

    Parameters
    ----------
    vertices : iterable of str
        Declared vertex names, in order.  Duplicates are dropped.
    edges : iterable of (str, str)
        Directed edges as (tail, head).  Endpoints not already declared are
        appended to the vertex order as they appear.
    """

    def __init__(self, vertices=(), edges=()):
        # name -> position in order of first appearance; checked when new
        index = {}
        for v in vertices:
            if v not in index:
                _check_vertex(v)
                index[v] = len(index)
        edge_set = set()
        for tail, head in edges:
            for v in (tail, head):
                if v not in index:
                    _check_vertex(v)
                    index[v] = len(index)
            if tail == head:
                raise ValueError(f"self-loop on {tail!r} is not allowed")
            edge_set.add((tail, head))
        self._build(index, edge_set)

    def _build(self, index, edges):
        """Set the graph from ``index``, each checked vertex name mapped to
        its position, and a set of ``edges`` between them, none a
        self-loop.  The parent and child lists wait for first use."""
        self._index = index
        self._vertices = tuple(index)
        self._edges = frozenset(edges)

    def _link(self):
        """Set ``_parents`` and ``_children`` (lists in vertex order)."""
        heads = {v: [] for v in self._index}
        for tail, head in self._edges:
            heads[tail].append(head)
        # visiting tails, then heads, in vertex order lists each vertex's
        # parents, then children, in vertex order with no sort
        parents = {v: [] for v in self._index}
        for tail, tail_heads in heads.items():
            for head in tail_heads:
                parents[head].append(tail)
        children = {v: [] for v in self._index}
        for head, head_tails in parents.items():
            for tail in head_tails:
                children[tail].append(head)
        # set only once complete, as another thread may read them then
        self._parents, self._children = parents, children

    def __getattr__(self, name):
        # reached only while a list is unset; a race builds equal ones
        if name in ("_parents", "_children"):
            self._link()
        return object.__getattribute__(self, name)

    @property
    def vertices(self):
        """Vertex names as a tuple, in order of first appearance."""
        return self._vertices

    @property
    def edges(self):
        """The edge set as a frozenset of (tail, head) pairs."""
        return self._edges

    def __contains__(self, name):
        return name in self._index

    def __eq__(self, other):
        if not isinstance(other, _Digraph):
            return NotImplemented
        return (self._vertices == other._vertices
                and self._edges == other._edges)

    def __hash__(self):
        return hash((self._vertices, self._edges))

    def __repr__(self):
        edges = ", ".join(f"{t}->{h}" for t, h in self.sorted_edges())
        return (f"{type(self).__name__}(vertices={list(self._vertices)}, "
                f"edges=[{edges}])")

    def _require(self, name):
        if name not in self._index:
            raise KeyError(f"unknown vertex {name!r}")

    def parents(self, v):
        """Direct parents of ``v`` (non-reflexive), in vertex order."""
        self._require(v)
        return tuple(self._parents[v])

    def children(self, v):
        """Direct children of ``v`` (non-reflexive), in vertex order."""
        self._require(v)
        return tuple(self._children[v])

    def _closure(self, sources, links):
        """Every vertex reachable from ``sources`` by following ``links``
        (the parent or the child lists), the sources included."""
        seen = set(sources)
        frontier = list(seen)
        while frontier:
            step = []
            for u in frontier:
                for w in links[u]:
                    if w not in seen:
                        seen.add(w)
                        step.append(w)
            frontier = step
        return seen

    def ancestors(self, v):
        """Reflexive ancestor set of ``v``.

        Returns every vertex with a directed path to ``v``, including ``v``
        itself (the reflexive transitive closure of the parent relation).

        Examples
        --------
        >>> g = DifferenceGraph(edges=[("W1", "X"), ("X", "W2"), ("X", "Y")])
        >>> sorted(g.ancestors("X"))
        ['W1', 'X']
        """
        self._require(v)
        return self._closure((v,), self._parents)

    def descendants(self, v):
        """Reflexive descendant set of ``v`` (dual of :meth:`ancestors`)."""
        self._require(v)
        return self._closure((v,), self._children)

    def _kahn(self):
        """Kahn's algorithm, always removing the ready vertex of lowest
        index.  Returns the removed vertices in removal order: every vertex
        iff the graph is acyclic."""
        index, vertices = self._index, self._vertices
        indegree = {v: len(self._parents[v]) for v in vertices}
        ready = [i for i, v in enumerate(vertices) if not indegree[v]]
        order = []
        while ready:
            u = vertices[heapq.heappop(ready)]
            order.append(u)
            for c in self._children[u]:
                indegree[c] -= 1
                if not indegree[c]:
                    heapq.heappush(ready, index[c])
        return order

    def is_acyclic(self):
        """True iff Kahn's algorithm, in any order, removes every vertex."""
        indegree = {v: len(tails) for v, tails in self._parents.items()}
        ready = [v for v, k in indegree.items() if not k]
        for u in ready:  # the loop also visits the vertices it appends
            for c in self._children[u]:
                indegree[c] -= 1
                if not indegree[c]:
                    ready.append(c)
        return len(ready) == len(self._vertices)

    def sort_vertices(self, names):
        """Sort an iterable of vertex names into this graph's vertex order."""
        return sorted(names, key=self._index.__getitem__)

    def sorted_edges(self):
        """Edges sorted by (tail, head) vertex order; deterministic."""
        key = self._index.__getitem__
        return sorted(self._edges, key=lambda e: (key(e[0]), key(e[1])))

    def to_edge_list(self):
        """Render the graph in the edge-list text format (round-trips)."""
        lines = [f"node {v}" for v in self._vertices]
        lines.extend(f"{t} -> {h}" for t, h in self.sorted_edges())
        return "\n".join(lines) + "\n"

    @classmethod
    def from_edge_list(cls, text):
        """Parse the edge-list text format.

        One item per line: ``node <name>`` declares a vertex, ``<tail> ->
        <head>`` declares an edge (and implicitly declares its endpoints),
        ``#`` starts a comment.  Vertex order is file order of first
        appearance.  A line ``a -> b`` over two distinct seen names, and a
        line ``node v``, are read from their tokens alone.  A difference
        graph builds its parent and child lists on first use.

        Raises
        ------
        ParseError
            On any malformed line, with the 1-based line number.
        """
        graph = cls.__new__(cls)
        graph._build(*_parse_edge_list_text(text))
        return graph


def _parse_edge_list_text(text):
    """The vertex index of ``text``, each name checked once and mapped to
    its position in order of first appearance, and its set of edges.  No
    name the parser keeps holds a ``#``, a ``->`` or whitespace."""
    first = {}
    edges = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if (len(tokens) == 3 and tokens[1] == "->" and tokens[0] in first
                and tokens[2] in first and tokens[0] != tokens[2]):
            edges.add((tokens[0], tokens[2]))
            continue
        if (len(tokens) == 2 and tokens[0] == "node"
                and "#" not in tokens[1] and "->" not in tokens[1]):
            names = (tokens[1],)
        else:
            names = _line_names(lineno, raw)
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


def _line_names(lineno, raw):
    """The names on a line of edge-list text: none, a vertex or an edge's."""
    line = raw.split("#", 1)[0].strip()
    if not line:
        return ()
    if "->" in line:
        names = line.split("->")
        if len(names) != 2:
            raise ParseError(lineno, "expected exactly one '->' per edge")
        return names[0].strip(), names[1].strip()
    tokens = line.split()
    if len(tokens) != 2 or tokens[0] != "node":
        raise ParseError(
            lineno, f"cannot parse {line!r} (expected 'node <name>' "
            "or '<tail> -> <head>')")
    return tokens[1:]


class DifferenceGraph(_Digraph):
    """Directed graph of mechanism changes between two causal models.

    An edge X -> Y means the direct effect of X on Y differs between the two
    models; a missing edge means the direct effects agree exactly.  Cycles
    are permitted: the two models may order their variables differently, and
    their disagreements need not be jointly orientable.
    """


class CausalDag(_Digraph):
    """An acyclic directed graph; raises ValueError on construction if cyclic.

    Examples
    --------
    >>> g = CausalDag(edges=[("X", "W"), ("W", "Y")])
    >>> g.d_separated("X", "Y", {"W"})
    True
    """

    def __init__(self, vertices=(), edges=()):
        # an __init__ of its own, which bench/tracing.py times as DAG
        # construction apart from that of difference graphs
        super().__init__(vertices=vertices, edges=edges)

    def _build(self, index, edges):
        super()._build(index, edges)
        self._link()  # at once, as the acyclicity test needs the lists
        if not self.is_acyclic():
            parents = self._parents
            on_cycle = [v for v in self._vertices
                        if v in self._closure(parents[v], parents)]
            raise ValueError(
                f"graph is not acyclic (cycle through {on_cycle})")

    def topological_order(self):
        """A topological order, deterministic (ties broken by vertex order)."""
        return tuple(self._kahn())

    def d_separated(self, x, y, w=()):
        """Decide whether ``w`` d-separates ``x`` from ``y``.

        True iff every path between ``x`` and ``y`` is blocked by ``w``: a
        non-collider on the path blocks when it is in ``w``, a collider
        blocks unless it has a descendant in ``w``.  Implemented with the
        standard reachability sweep over (vertex, travel direction) states
        rather than path enumeration, so it stays linear in the edge count.

        Parameters
        ----------
        x, y : str
            Distinct vertices, neither inside ``w``.
        w : collection of str
            Conditioning set (may be empty).

        Raises
        ------
        KeyError
            If any named vertex is unknown.
        ValueError
            If ``x == y`` or ``x``/``y`` overlaps ``w``.
        """
        self._require(x)
        self._require(y)
        w = frozenset(w)
        for u in w:
            self._require(u)
        if x == y:
            raise ValueError("x and y must be distinct")
        if x in w or y in w:
            raise ValueError("x and y must not be members of w")

        in_anc_w = self._closure(w, self._parents)

        # Travel states: (vertex, direction). UP means the trail arrived at
        # the vertex from one of its children, DOWN from one of its parents.
        UP, DOWN = 0, 1
        visited = set()
        frontier = deque([(x, UP)])
        while frontier:
            v, direction = frontier.popleft()
            if (v, direction) in visited:
                continue
            visited.add((v, direction))
            if v == y:
                return False
            if direction == UP and v not in w:
                for p in self._parents[v]:
                    frontier.append((p, UP))
                for c in self._children[v]:
                    frontier.append((c, DOWN))
            elif direction == DOWN:
                if v not in w:
                    for c in self._children[v]:
                        frontier.append((c, DOWN))
                if v in in_anc_w:
                    for p in self._parents[v]:
                        frontier.append((p, UP))
        return True


def check_shared_order(d, shared_order):
    """Raise ValueError when ``shared_order`` is assumed for a cyclic
    difference graph ``d``: no two causal models behind it share a
    topological order."""
    if shared_order and not d.is_acyclic():
        raise ValueError(
            "difference graph is cyclic, which contradicts the "
            "shared-topological-order assumption")


def shares_topological_order(g1, g2):
    """True iff one vertex ordering is valid for both DAGs.

    Equivalent to the edge union of ``g1`` and ``g2`` being acyclic.  Both
    graphs must share one vertex set (raises ValueError otherwise).
    """
    if set(g1.vertices) != set(g2.vertices):
        raise ValueError("graphs are over different vertex sets")
    union = _Digraph(vertices=g1.vertices, edges=g1.edges | g2.edges)
    return union.is_acyclic()
