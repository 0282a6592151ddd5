"""Graph core: construction, reachability, orders, d-separation, parsing."""

import collections
import itertools
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

try:
    import networkx as nx
except ImportError:  # the comparison below is skipped without it
    nx = None

from diffgraph import graphs
from diffgraph import (
    CausalDag,
    DifferenceGraph,
    ParseError,
    shares_topological_order,
)
from helpers import (
    DG_1H,
    DG_1M,
    DG_2C,
    DG_2F,
    DG_2K,
    PAIRS_1H,
    PAIRS_2C,
    d_separated_by_paths,
    parse_edge_list_by_rules,
)


def test_vertex_order_is_first_appearance():
    g = DifferenceGraph(vertices=["B"], edges=[("C", "A"), ("B", "C")])
    assert g.vertices == ("B", "C", "A")


def test_duplicate_vertices_and_edges_collapse():
    g = DifferenceGraph(vertices=["A", "A", "B"],
                        edges=[("A", "B"), ("A", "B")])
    assert g.vertices == ("A", "B")
    assert g.edges == frozenset([("A", "B")])


def test_graphs_print_hash_and_compare_by_vertices_and_edges():
    g = CausalDag(vertices=["B", "A"], edges=[("A", "B")])
    same = CausalDag(vertices=["B", "A"], edges=[("A", "B")])
    assert repr(g) == "CausalDag(vertices=['B', 'A'], edges=[A->B])"
    assert repr(DifferenceGraph(vertices=["X"])) \
        == "DifferenceGraph(vertices=['X'], edges=[])"
    assert hash(g) == hash(same) and len({g, same}) == 1
    assert g != CausalDag(vertices=["A", "B"], edges=[("A", "B")])
    assert g != "A -> B" and g.__eq__("A -> B") is NotImplemented


def test_self_loop_rejected():
    """The constructor and the edge-list parser word a self-loop alike."""
    with pytest.raises(ValueError,
                       match=r"^self-loop on 'A' is not allowed$"):
        DifferenceGraph(edges=[("A", "A")])
    with pytest.raises(ParseError,
                       match=r"^line 2: self-loop on 'A' is not allowed$"):
        DifferenceGraph.from_edge_list("B -> A\nA -> A\n")


@pytest.mark.parametrize("bad", ["", "a b", "a,b", "a\tb"])
def test_bad_labels_rejected(bad):
    with pytest.raises(ValueError):
        DifferenceGraph(vertices=[bad])


@pytest.mark.parametrize("bad", ["a#b", "#", "a->b", "->", "x->"])
def test_labels_edge_list_text_cannot_hold_are_rejected(bad):
    """'a#b' would read back as the vertex 'a', and 'a->b' as an edge."""
    message = (f"^vertex name {re.escape(repr(bad))} contains '#' or '->', "
               "which the edge-list format cannot hold$")
    with pytest.raises(ValueError, match=message):
        DifferenceGraph(vertices=[bad])
    with pytest.raises(ValueError, match=message):
        CausalDag(edges=[("A", bad)])


def test_parents_children_in_vertex_order():
    g = DifferenceGraph(vertices=["C", "A", "B"],
                        edges=[("A", "D"), ("B", "D"), ("C", "D")])
    assert g.parents("D") == ("C", "A", "B")
    assert g.children("A") == ("D",)
    assert g.parents("A") == ()


def test_unknown_vertex_raises_key_error():
    g = DifferenceGraph(vertices=["A"])
    with pytest.raises(KeyError):
        g.parents("Z")
    with pytest.raises(KeyError):
        g.ancestors("Z")


def test_ancestors_are_reflexive():
    assert DG_1H.ancestors("X") == {"X", "W1"}
    assert DG_2K.ancestors("Y") == {"Y", "W2", "X", "W1"}


def test_descendants_are_reflexive():
    assert DG_1M.descendants("X") == {"X", "Y"}
    assert DG_2C.descendants("X") == {"X", "Y"}
    assert DG_2C.ancestors("X") == {"X", "Y"}


def test_is_acyclic():
    assert DifferenceGraph(vertices=["X", "Y"]).is_acyclic()
    assert not DG_2C.is_acyclic()
    assert not DG_2F.is_acyclic()
    assert DG_1H.is_acyclic()


def test_causal_dag_rejects_cycles():
    with pytest.raises(ValueError, match="cycle"):
        CausalDag(edges=[("X", "Y"), ("Y", "X")])
    # from edge-list text too, which skips the constructor's name checks
    with pytest.raises(ValueError, match=r"cycle through \['X', 'Y'\]\)"):
        CausalDag.from_edge_list("X -> Y\nY -> X\n")


def test_cycle_error_names_only_vertices_on_a_cycle():
    # Z and W lie downstream of the cycle, not on it
    with pytest.raises(ValueError,
                       match=r"cycle through \['X', 'Y'\]\)"):
        CausalDag(edges=[("X", "Y"), ("Y", "X"), ("Y", "Z"), ("Z", "W")])
    with pytest.raises(ValueError,
                       match=r"cycle through \['B', 'C', 'D'\]\)"):
        CausalDag(vertices=["A"], edges=[("A", "B"), ("B", "C"),
                                         ("C", "D"), ("D", "B")])


def test_topological_order_is_deterministic():
    g = CausalDag(vertices=["C", "A", "B"], edges=[("A", "B")])
    assert g.topological_order() == ("C", "A", "B")
    g2 = CausalDag(vertices=["B", "A"], edges=[("A", "B")])
    assert g2.topological_order() == ("A", "B")


def test_topological_order_breaks_ties_by_vertex_order():
    """A and B are ready at first; D becomes ready when A is removed and C
    when B is, yet C comes first, being earlier in vertex order.  A
    first-in first-out queue of ready vertices would give (A, B, D, C)."""
    g = CausalDag(vertices="ABCD", edges=[("A", "D"), ("B", "C")])
    assert g.topological_order() == ("A", "B", "C", "D")


def test_topological_order_respects_edges():
    g1, _ = PAIRS_1H[0]
    order = g1.topological_order()
    pos = {v: i for i, v in enumerate(order)}
    for tail, head in g1.edges:
        assert pos[tail] < pos[head]


def test_shares_topological_order():
    assert not shares_topological_order(
        CausalDag(vertices=["X", "Y"], edges=[("X", "Y")]),
        CausalDag(vertices=["X", "Y"], edges=[("Y", "X")]))
    g1, g2 = PAIRS_1H[0]
    assert shares_topological_order(g1, g2)
    d1, d2 = PAIRS_2C[0]
    assert not shares_topological_order(d1, d2)


def test_shares_topological_order_needs_same_vertices():
    a = CausalDag(vertices=["X"])
    b = CausalDag(vertices=["Y"])
    with pytest.raises(ValueError):
        shares_topological_order(a, b)


def test_d_separation_basic_chain_fork_collider():
    chain = CausalDag(edges=[("X", "W"), ("W", "Y")])
    assert not chain.d_separated("X", "Y")
    assert chain.d_separated("X", "Y", {"W"})

    fork = CausalDag(edges=[("W", "X"), ("W", "Y")])
    assert not fork.d_separated("X", "Y")
    assert fork.d_separated("X", "Y", {"W"})

    collider = CausalDag(edges=[("X", "W"), ("Y", "W")])
    assert collider.d_separated("X", "Y")
    assert not collider.d_separated("X", "Y", {"W"})


def test_d_separation_opens_collider_through_descendant():
    g = CausalDag(edges=[("X", "W"), ("Y", "W"), ("W", "Z")])
    assert g.d_separated("X", "Y")
    assert not g.d_separated("X", "Y", {"Z"})


def test_d_separation_edge_deleted_gallery_pair_graph():
    g1, _ = PAIRS_1H[0]
    trimmed = CausalDag(
        vertices=g1.vertices,
        edges=[e for e in g1.edges if e != ("X", "Y")])
    assert trimmed.d_separated("X", "Y", {"W1", "W2"})
    assert not trimmed.d_separated("X", "Y", {"W1"})


def test_d_separation_rejects_overlapping_arguments():
    g = CausalDag(edges=[("X", "Y")])
    with pytest.raises(ValueError):
        g.d_separated("X", "X")
    with pytest.raises(ValueError):
        g.d_separated("X", "Y", {"X"})


def test_edge_list_round_trip():
    text = DG_2K.to_edge_list()
    assert DifferenceGraph.from_edge_list(text) == DG_2K


def test_edge_list_parsing_details():
    text = """
    # demographic example
    node age

    smoking -> cancer
    age -> cancer  # inline comment
    """
    g = DifferenceGraph.from_edge_list(text)
    assert g.vertices == ("age", "smoking", "cancer")
    assert g.edges == {("smoking", "cancer"), ("age", "cancer")}


@pytest.mark.parametrize("text,lineno", [
    ("node A\nA -> B -> C\n", 2),
    ("A -> A\n", 1),
    ("node\n", 1),
    ("node A\njust words\n", 2),
    ("A -> \n", 1),
    # a bad name first seen after valid lines
    ("node A\nA -> B\nB -> \n", 3),
    ("A -> B\nB -> C\nC -> D,E\n", 3),
    ("node A\n\nA -> B C\n", 3),
    # lines of three tokens over seen names that the token path refuses
    ("node A\nA -> A\n", 2),
    ("node A\nnode B\nA -> B -> A\n", 3),
    ("node A\nnode B\nA -> B,C\n", 3),
])
def test_parse_errors_carry_line_numbers(text, lineno):
    with pytest.raises(ParseError) as exc_info:
        DifferenceGraph.from_edge_list(text)
    assert exc_info.value.line_number == lineno
    assert f"line {lineno}:" in str(exc_info.value)


@pytest.mark.parametrize("line", [
    "A -> B#c", "A->B", "\tA\t->\tB", "A -> B  # c"])
def test_edge_lines_over_seen_names_read_one_edge(line):
    g = DifferenceGraph.from_edge_list(f"node A\nnode B\n{line}\n")
    assert g.vertices == ("A", "B")
    assert g.edges == {("A", "B")}


def test_each_distinct_name_is_checked_once(monkeypatch):
    calls = collections.Counter()
    check = graphs._check_label

    def counting(name):
        calls[name] += 1
        check(name)

    monkeypatch.setattr(graphs, "_check_label", counting)
    DifferenceGraph(vertices=["A", "B", "A"],
                    edges=[("A", "B"), ("B", "C"), ("C", "A"), ("A", "B")])
    assert calls == {"A": 1, "B": 1, "C": 1}
    calls.clear()
    # once, in the parser: the graph is built from the names it checked
    DifferenceGraph.from_edge_list("node A\nA -> B\nB -> C\nC -> A\nnode B\n")
    assert calls == {"A": 1, "B": 1, "C": 1}


def test_sort_vertices_uses_graph_order():
    g = DifferenceGraph(vertices=["B", "A", "C"], edges=[("A", "B")])
    assert g.sort_vertices({"C", "A", "B"}) == ["B", "A", "C"]
    with pytest.raises(KeyError):
        g.sort_vertices(["Z"])


# -- randomized properties ---------------------------------------------------

_NAMES = [f"V{i}" for i in range(6)]


@st.composite
def digraphs(draw, max_vertices=5):
    n = draw(st.integers(2, max_vertices))
    names = _NAMES[:n]
    pairs = list(itertools.permutations(names, 2))
    picked = draw(st.lists(st.sampled_from(pairs), unique=True,
                           max_size=len(pairs)))
    return DifferenceGraph(vertices=names, edges=picked)


@st.composite
def dags(draw, max_vertices=6):
    n = draw(st.integers(2, max_vertices))
    order = draw(st.permutations(_NAMES[:n]))
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                edges.append((order[i], order[j]))
    return CausalDag(vertices=_NAMES[:n], edges=edges)


@given(digraphs())
def test_ancestor_descendant_duality(g):
    for a, b in itertools.permutations(g.vertices, 2):
        assert (a in g.ancestors(b)) == (b in g.descendants(a))


@given(digraphs())
def test_reachability_is_reflexive(g):
    for v in g.vertices:
        assert v in g.ancestors(v)
        assert v in g.descendants(v)


@given(dags())
def test_dag_reports_acyclic_and_orders(g):
    assert g.is_acyclic()
    pos = {v: i for i, v in enumerate(g.topological_order())}
    assert all(pos[t] < pos[h] for t, h in g.edges)
    assert shares_topological_order(g, g)


@settings(max_examples=300)
@given(dags(max_vertices=6), st.data())
def test_d_separation_matches_path_enumeration(g, data):
    x, y = data.draw(
        st.sampled_from(list(itertools.combinations(g.vertices, 2))))
    rest = [v for v in g.vertices if v not in (x, y)]
    w = data.draw(st.sets(st.sampled_from(rest)) if rest
                  else st.just(set()))
    fast = g.d_separated(x, y, w)
    assert fast == d_separated_by_paths(g, x, y, w)
    assert fast == g.d_separated(y, x, w)


@pytest.mark.skipif(nx is None, reason="networkx is not installed")
@settings(max_examples=300)
@given(dags(max_vertices=6), st.data())
def test_d_separation_matches_networkx(g, data):
    x, y = data.draw(
        st.sampled_from(list(itertools.combinations(g.vertices, 2))))
    rest = [v for v in g.vertices if v not in (x, y)]
    w = data.draw(st.sets(st.sampled_from(rest)) if rest
                  else st.just(set()))
    h = nx.DiGraph(g.edges)
    h.add_nodes_from(g.vertices)
    assert g.d_separated(x, y, w) == nx.is_d_separator(h, {x}, {y}, w)


@given(dags(max_vertices=5))
def test_edge_list_round_trip_property(g):
    assert CausalDag.from_edge_list(g.to_edge_list()) == g


# labels near the edge-list syntax: comments, arrows, commas, spaces and
# the 'node' keyword
_LABELS = st.one_of(st.just("node"),
                    st.text(alphabet="ab#->, \t", max_size=4))


def _holds_in_edge_list(label):
    return (label != "" and label.split() == [label]
            and not any(c in label for c in ("#", "->", ",")))


@settings(max_examples=300)
@given(st.lists(_LABELS, max_size=6), st.data())
def test_every_graph_the_constructor_accepts_round_trips(labels, data):
    """The constructor refuses exactly the labels edge-list text cannot
    hold, and every graph it builds reads back as itself."""
    good = [label for label in labels if _holds_in_edge_list(label)]
    for label in set(labels) - set(good):
        with pytest.raises(ValueError):
            DifferenceGraph(vertices=[label])
    pairs = list(itertools.permutations(dict.fromkeys(good), 2))
    edges = data.draw(st.lists(st.sampled_from(pairs), max_size=6)
                      if pairs else st.just([]))
    g = DifferenceGraph(vertices=good, edges=edges)
    assert DifferenceGraph.from_edge_list(g.to_edge_list()) == g


# pieces of edge-list lines: names, arrows and their halves, comments,
# commas and three kinds of whitespace
_PIECES = ("node", "A", "B", "A-", "->", "-", ">", "#", ",", " ", "\t",
           "\u00a0")
# mostly names, so that a text runs long enough to repeat them
_WORDS = st.sampled_from(("A", "B", "A-", "node") * 6 + _PIECES)
_GAPS = st.sampled_from(("", " ", "\t", "\u00a0", "  "))
_LINES = st.one_of(
    st.lists(st.sampled_from(_PIECES), max_size=3).map("".join),
    # edge- and node-shaped lines, which reach the token path once their
    # names are seen
    st.builds("{}{}{}->{}{}{}".format, _GAPS, _WORDS, _GAPS, _GAPS, _WORDS,
              st.sampled_from(("", " ", "#", " # c"))),
    st.builds("{}node{}{}".format, _GAPS,
              st.sampled_from((" ", "\t", "\u00a0")), _WORDS),
)
_LINE_ENDS = st.sampled_from(("\n", "\r\n", "\r", "\x0b", "\x1c",
                              "\u2028"))


def _parse_outcome(parse, text):
    try:
        index, edges = parse(text)
    except ParseError as exc:
        return "error", exc.line_number, str(exc)
    return "graph", list(index.items()), edges


@settings(max_examples=500)
@given(st.lists(st.tuples(_LINES, _LINE_ENDS), max_size=8))
@example([("node A", "\n"), ("B -> A", "\n")])  # a new tail, a seen head
def test_parser_matches_the_line_rules(lines):
    """The token path reads every text as the format's line rules do: the
    same index in the same order and the same edges, or the same error on
    the same line."""
    text = "".join(line + end for line, end in lines)
    assert (_parse_outcome(graphs._parse_edge_list_text, text)
            == _parse_outcome(parse_edge_list_by_rules, text))


def _random_digraphs(count, max_vertices, seed):
    """``count`` seeded (vertices, edges) pairs of 1 to ``max_vertices``
    vertices, cyclic ones included."""
    rng = random.Random(seed)
    for _ in range(count):
        names = [f"V{i}" for i in range(rng.randint(1, max_vertices))]
        pairs = list(itertools.permutations(names, 2))
        yield names, rng.sample(pairs, rng.randint(0, min(len(pairs), 12)))


def test_is_acyclic_counts_what_kahn_removes():
    kinds = collections.Counter()
    for names, edges in _random_digraphs(600, 8, seed=30):
        g = DifferenceGraph(vertices=names, edges=edges)
        acyclic = g.is_acyclic()
        assert acyclic == (len(g._kahn()) == len(g.vertices))
        kinds[acyclic] += 1
        if acyclic:
            assert CausalDag(vertices=names, edges=edges).edges == g.edges
            continue
        on_cycle = [v for v in g.vertices
                    if any(v in g.descendants(c) for c in g.children(v))]
        with pytest.raises(ValueError, match=re.escape(
                f"graph is not acyclic (cycle through {on_cycle})")):
            CausalDag(vertices=names, edges=edges)
    assert min(kinds[True], kinds[False]) > 100


@given(digraphs(max_vertices=6))
def test_parsed_graph_links_match_the_constructor(g):
    built = DifferenceGraph(vertices=g.vertices, edges=g.edges)
    parsed = DifferenceGraph.from_edge_list(g.to_edge_list())
    for v in g.vertices:
        assert parsed.parents(v) == built.parents(v) == tuple(
            u for u in g.vertices if (u, v) in g.edges)
        assert parsed.children(v) == built.children(v) == tuple(
            u for u in g.vertices if (v, u) in g.edges)
        assert parsed.ancestors(v) == built.ancestors(v)
        assert parsed.descendants(v) == built.descendants(v)
