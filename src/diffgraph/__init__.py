"""Identify and estimate causal-effect changes between two populations.

The package works with *difference graphs*: directed graphs whose edges
mark where two structural causal models over the same variables disagree.
From the difference graph alone one can sometimes decide that a total or
direct effect is unchanged, or that it is estimable by covariate
adjustment in both populations with the same adjustment set; this package
implements those closed-form decisions, a brute-force enumeration oracle
for small graphs, the corresponding estimators, and a simulator for
generating compatible model pairs.

``import diffgraph`` loads only the pure-Python closed form: ``graphs``,
``identify`` and the ``figures`` gallery.  The numpy-backed ``estimate``,
``oracle`` and ``simulate`` load on first use, through the ``_LAZY`` table
of their public names and the submodule names themselves.
"""

import importlib
import types

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

# Public name -> the numpy-backed module that defines it.  The module is
# imported when one of its names is first read (PEP 562 ``__getattr__``
# below), and the name is then bound here.
_LAZY = {
    **dict.fromkeys((
        "CONTINUOUS",
        "DISCRETE",
        "CausalChangeReport",
        "ChangeTable",
        "Dataset",
        "InterventionalTable",
        "PositivityError",
        "SingularDesignError",
        "adjustment_total",
        "causal_change",
        "estimate_effect",
        "format_change_report",
        "format_interventional_table",
        "marginal_table",
        "partial_regression_coefficient",
    ), "estimate"),
    **dict.fromkeys((
        "VERTEX_CAP",
        "back_door_admissible",
        "enumerate_compatible_dags",
        "oracle_direct",
        "oracle_total",
        "single_door_admissible",
    ), "oracle"),
    **dict.fromkeys((
        "LinearScm",
        "ScmPair",
        "ground_truth_direct",
        "ground_truth_total_linear",
        "recompute_difference_graph",
        "sample_compatible_pair",
        "sample_dataset",
    ), "simulate"),
}

__version__ = "0.1.0"

# Every public name once: each name bound above that is not a module,
# then the lazy names and the version.
__all__ = [name for name, value in globals().items()
           if not name.startswith("_")
           and not isinstance(value, types.ModuleType)]
__all__ += [*_LAZY, "__version__"]


def __getattr__(name):
    if name in _LAZY.values():
        return importlib.import_module(f".{name}", __name__)
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
