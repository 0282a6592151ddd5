"""Identify and estimate causal-effect changes between two populations.

The package works with *difference graphs*: directed graphs whose edges
mark where two structural causal models over the same variables disagree.
From the difference graph alone one can sometimes decide that a total or
direct effect is unchanged, or that it is estimable by covariate
adjustment in both populations with the same adjustment set; this package
implements those closed-form decisions, a brute-force enumeration oracle
for small graphs, the corresponding estimators, and a simulator for
generating compatible model pairs.
"""

from .estimate import (
    CONTINUOUS,
    DISCRETE,
    CausalChangeReport,
    ChangeTable,
    Dataset,
    InterventionalTable,
    PositivityError,
    SingularDesignError,
    adjustment_total,
    causal_change,
    estimate_effect,
    format_change_report,
    format_interventional_table,
    marginal_table,
    partial_regression_coefficient,
)
from .figures import GALLERY, GalleryEntry, figure_table, gallery_entry
from .graphs import (
    CausalDag,
    DifferenceGraph,
    ParseError,
    shares_topological_order,
)
from .identify import (
    ADJUSTMENT_IDENTIFIABLE,
    DIRECT,
    NOT_IDENTIFIABLE,
    NULL_EFFECT,
    TOTAL,
    EffectQuery,
    IdentificationVerdict,
    identify_direct,
    identify_direct_general,
    identify_direct_shared_order,
    identify_total,
    identify_total_general,
    identify_total_shared_order,
)
from .oracle import (
    VERTEX_CAP,
    back_door_admissible,
    enumerate_compatible_dags,
    oracle_direct,
    oracle_total,
    single_door_admissible,
)
from .simulate import (
    LinearScm,
    ScmPair,
    ground_truth_direct,
    ground_truth_total_linear,
    recompute_difference_graph,
    sample_compatible_pair,
    sample_dataset,
)

__version__ = "0.1.0"

__all__ = [
    "ADJUSTMENT_IDENTIFIABLE",
    "CONTINUOUS",
    "CausalChangeReport",
    "CausalDag",
    "ChangeTable",
    "Dataset",
    "DifferenceGraph",
    "DIRECT",
    "DISCRETE",
    "EffectQuery",
    "GALLERY",
    "GalleryEntry",
    "IdentificationVerdict",
    "InterventionalTable",
    "LinearScm",
    "NOT_IDENTIFIABLE",
    "NULL_EFFECT",
    "ParseError",
    "PositivityError",
    "ScmPair",
    "SingularDesignError",
    "TOTAL",
    "VERTEX_CAP",
    "adjustment_total",
    "back_door_admissible",
    "causal_change",
    "enumerate_compatible_dags",
    "estimate_effect",
    "figure_table",
    "format_change_report",
    "format_interventional_table",
    "gallery_entry",
    "ground_truth_direct",
    "ground_truth_total_linear",
    "identify_direct",
    "identify_direct_general",
    "identify_direct_shared_order",
    "identify_total",
    "identify_total_general",
    "identify_total_shared_order",
    "marginal_table",
    "oracle_direct",
    "oracle_total",
    "partial_regression_coefficient",
    "recompute_difference_graph",
    "sample_compatible_pair",
    "sample_dataset",
    "shares_topological_order",
    "single_door_admissible",
    "__version__",
]
