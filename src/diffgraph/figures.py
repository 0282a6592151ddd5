"""Bundled gallery of six small difference graphs with known verdicts.

Three acyclic graphs (shared-order regime, ids starting with 1) show each
outcome of the decision procedures: no effect identifiable, only the total
effect, and only the direct effect.  Three cyclic graphs (general regime,
ids starting with 2) each add a cycle to one of them, and no effect of X
on Y is identifiable in any of them: without a shared order, edges shared by both
models may point against the difference graph, and the enumeration oracle
finds no common adjustment set for 2f or 2k.  The six graphs are the golden
fixtures for the acceptance suite and can be printed as a table with the
``figures`` CLI command.
"""

from dataclasses import dataclass

from .estimate import _align
from .graphs import DifferenceGraph
from .identify import (
    ADJUSTMENT_IDENTIFIABLE,
    NULL_EFFECT,
    EffectQuery,
    identify_direct,
    identify_total,
)


@dataclass(frozen=True)
class GalleryEntry:
    graph_id: str
    graph: DifferenceGraph
    shared_order: bool
    exposure: str = "X"
    outcome: str = "Y"


def _entry(graph_id, vertices, edges, shared_order):
    return GalleryEntry(
        graph_id=graph_id,
        graph=DifferenceGraph(vertices=vertices, edges=edges),
        shared_order=shared_order)


GALLERY = (
    _entry("1c", ("X", "Y"), (), True),
    _entry("1h", ("W1", "X", "W2", "Y"),
           (("W1", "X"), ("X", "W2"), ("X", "Y")), True),
    _entry("1m", ("W1", "X", "W2", "Y"),
           (("W1", "X"), ("W2", "Y"), ("X", "Y")), True),
    _entry("2c", ("X", "Y"), (("X", "Y"), ("Y", "X")), False),
    _entry("2f", ("W1", "X", "W2", "Y"),
           (("W1", "X"), ("X", "W2"), ("W2", "Y"), ("Y", "W2"), ("X", "Y")),
           False),
    _entry("2k", ("W1", "X", "W2", "Y"),
           (("W1", "X"), ("X", "W2"), ("W2", "X"), ("W2", "Y"), ("X", "Y")),
           False),
)


def gallery_entry(graph_id):
    for entry in GALLERY:
        if entry.graph_id == graph_id:
            return entry
    raise KeyError(f"no gallery graph with id {graph_id!r}")


def _verdict_cell(verdict):
    if verdict.kind == NULL_EFFECT:
        return f"null effect ({verdict.condition})"
    if verdict.kind == ADJUSTMENT_IDENTIFIABLE:
        members = ",".join(verdict.adjustment_set)
        return f"adjust for {{{members}}} ({verdict.condition})"
    return "not identifiable"


def figure_table():
    """The verdict table for the whole gallery; byte-stable across runs."""
    rows = [["id", "regime", "edges", "total effect", "direct effect"]]
    for entry in GALLERY:
        q = EffectQuery(entry.graph, entry.exposure, entry.outcome,
                        shared_order_assumed=entry.shared_order)
        edges = " ".join(f"{t}->{h}" for t, h in entry.graph.sorted_edges())
        rows.append([
            entry.graph_id,
            "shared-order" if entry.shared_order else "general",
            edges if edges else "(none)",
            _verdict_cell(identify_total(q)),
            _verdict_cell(identify_direct(q)),
        ])
    return _align(rows) + "\n"
