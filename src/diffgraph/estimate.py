"""Turn identified formulas plus observational data into numbers.

Three estimators live here.  The discrete adjustment formula realizes
P(y|do(x)) as a plug-in sum of empirical frequencies over the adjustment
strata.  The partial regression coefficient realizes the linear direct
effect as the coefficient of the exposure in an ordinary least-squares fit,
computed through an SVD rather than normal equations.  `estimate_effect`
applies a verdict to one dataset, choosing the estimator by the verdict's
effect and kind.  `causal_change` applies it to two datasets independently
(the same adjustment set works in both populations, which is what the
identification step certified) and reports the difference.

Everything is a deterministic function of its inputs; there is no internal
randomness anywhere.
"""

from dataclasses import dataclass

import numpy as np

# Dataset is re-exported, and the kinds with it, only for bench/, which
# reads estimate.Dataset and estimate.DISCRETE; src/ and tests use dataset.
from .dataset import CONTINUOUS, DISCRETE, Dataset  # noqa: F401
from .figures import _align
from .identify import DIRECT, NOT_IDENTIFIABLE, NULL_EFFECT, TOTAL

# The data kind each effect is estimated from.
EFFECT_KIND = {TOTAL: DISCRETE, DIRECT: CONTINUOUS}

RANK_TOLERANCE = 1e-10
ROW_SUM_TOLERANCE = 1e-9

# The discrete estimators count the rows in one int64 array of
# strata * exposure levels * outcome levels cells, the levels running up
# to the largest code.  2**24 cells is 128 MiB of counts; a larger grid is
# refused before it is allocated.
_GRID_CELLS = 2 ** 24

# The adjustment codes of a row are counted as one mixed-radix key.  Before
# a column joins the key, the column and then the running key are ranked
# when their range would pass this many keys per row, so every key stays
# below 4 * rows**2.  A range this wide at most is ranked through a table of
# the keys present, a flag and a count per key (36 bytes a row, about what
# np.unique's sort takes); a wider one is sorted.
_KEYS_PER_ROW = 4


class PositivityError(ValueError):
    """An observed adjustment stratum has no data for some exposure value,
    so the plug-in conditional P(y|x,w) is undefined there."""

    def __init__(self, message, stratum=None, exposure_value=None):
        super().__init__(message)
        self.stratum = stratum
        self.exposure_value = exposure_value


class SingularDesignError(ValueError):
    """The regression design matrix is rank-deficient beyond tolerance
    (collinear covariates)."""


@dataclass
class InterventionalTable:
    """P(y|do(x)) on the grid of exposure codes 0..kx-1 by outcome codes
    0..ky-1, read off the shape of the matrix.

    ``probabilities[i][j]`` is the estimated probability of outcome code j
    under do(exposure = i); every row sums to one.
    """

    probabilities: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=float)
        sums = p.sum(axis=1)
        if not np.all(np.abs(sums - 1.0) <= ROW_SUM_TOLERANCE):
            raise ValueError(f"rows must sum to 1, got {sums}")
        self.probabilities = p

    def as_dict(self):
        return _grid_dict("probabilities", self.probabilities)


@dataclass
class ChangeTable:
    """Elementwise difference of two interventional tables on one grid.

    Rows sum to zero (each is a difference of two distributions), so this is
    deliberately not an InterventionalTable.
    """

    values: np.ndarray

    def as_dict(self):
        return _grid_dict("values", self.values)


def _grid_dict(key, cells):
    """A table as JSON: the codes along each axis, and ``cells`` as ``key``."""
    kx, ky = cells.shape
    return {"exposure_values": list(range(kx)),
            "outcome_values": list(range(ky)), key: cells.tolist()}


@dataclass
class CausalChangeReport:
    """Effect estimates for both populations plus their difference.

    For the total effect the population values are InterventionalTable
    objects and ``change`` is a ChangeTable; for the direct effect all three
    are plain floats.
    """

    quantity: str
    population1_value: object
    population2_value: object
    change: object
    adjustment_set: tuple

    def as_dict(self):
        p1, p2, change = (self.population1_value, self.population2_value,
                          self.change)
        if self.quantity == TOTAL:
            p1, p2, change = p1.as_dict(), p2.as_dict(), change.as_dict()
        return {"quantity": self.quantity, "population1_value": p1,
                "population2_value": p2, "change": change,
                "adjustment_set": list(self.adjustment_set)}


# The data kind each estimator needs, and the error naming it.
_NEEDS = {DISCRETE: "the adjustment formula needs discrete data",
          CONTINUOUS: "partial regression needs continuous data"}


def _checked_inputs(data, kind, x, y, w, laplace=None):
    """Check that ``data`` is of ``kind`` and holds x, y and the members of
    ``w``, distinct from each other, and that ``laplace``, when given, is
    positive and finite; returns ``w`` as a tuple."""
    if data.kind != kind:
        raise ValueError(_NEEDS[kind])
    w = tuple(w)
    if x in w or y in w:
        raise ValueError("exposure and outcome must not be in the "
                         "adjustment set")
    if x == y:
        raise ValueError("exposure and outcome must be distinct")
    for v in (x, y) + w:
        if v not in data.variable_names:
            raise KeyError(f"unknown variable {v!r}")
    if laplace is not None and not 0 < laplace < np.inf:
        raise ValueError("laplace smoothing must be positive and finite")
    return w


def _dense_rank(keys, top, present=None):
    """Each of the non-negative ``keys``, all below ``top``, ranked among the
    distinct keys as np.unique's inverse does, and the number of them.
    ``present``, when given, flags the keys below ``top`` that occur."""
    if present is None:
        if top > _KEYS_PER_ROW * len(keys):
            levels, rank = np.unique(keys, return_inverse=True)
            return rank, len(levels)
        present = np.zeros(top, dtype=bool)
        present[keys] = True
    rank = np.cumsum(present, dtype=np.int64)
    rank -= 1
    return rank[keys], int(rank[-1]) + 1


def _joint_counts(data, x, y, w, laplace, exposure_levels, outcome_levels):
    """Checks for the discrete estimators, then the rows counted per
    (stratum, x, y), strata being the distinct ``w`` codes in lexicographic
    order.  Returns ``w`` as a tuple, each row's stratum and the counts.

    Each row's ``w`` codes form one mixed-radix key, its first column most
    significant, so keys sort as the codes do; one bincount counts the keys
    with x and y, and the keys that hold no rows are dropped.  Keys are
    ranked (:func:`_dense_rank`) only where memory needs it: a column whose
    codes span more than _KEYS_PER_ROW keys a row, the running key before a
    column would take it past that span, and the final key when it spans
    more than half the rows or its grid would pass 2**24 cells.  The grid
    and the copy that drops its empty strata then hold at most rows x kx x
    ky counts between them, and the other extra memory is O(rows)."""
    w = _checked_inputs(data, DISCRETE, x, y, w, laplace)
    xcol, ycol = data.column(x), data.column(y)
    kx = exposure_levels or data.cardinality(x)
    ky = outcome_levels or data.cardinality(y)
    if xcol.max() >= kx or ycol.max() >= ky:
        raise ValueError("observed codes exceed the requested level grid")
    rows = len(data)
    key, top = np.zeros(rows, dtype=np.int64), 1
    for v in w:
        code = data.column(v)
        span = int(code.max()) + 1
        if span > _KEYS_PER_ROW * rows:
            code, span = _dense_rank(code, span)
        if top * span > _KEYS_PER_ROW * rows:
            key, top = _dense_rank(key, top)
        key *= span
        key += code
        top *= span
    if 2 * top > rows or top * kx * ky > _GRID_CELLS:
        key, top = _dense_rank(key, top)
    if top * kx * ky > _GRID_CELLS:
        v, k = max((x, kx), (y, ky), key=lambda level: level[1])
        raise ValueError(
            f"counting needs {top} strata x {kx} x {ky} levels, more than "
            f"2**24 cells: column {v!r} has codes up to {k - 1} (relabel "
            "sparse codes as 0, 1, 2, ...)")
    cell = key * kx
    cell += xcol
    cell *= ky
    cell += ycol
    counts = np.bincount(cell, minlength=top * kx * ky).reshape(top, kx, ky)
    present = counts.any(axis=(1, 2))
    if not present.all():
        counts = counts[present]
        key = _dense_rank(key, top, present)[0]
    return w, key, counts


def adjustment_total(data, x, y, w, laplace=None,
                     exposure_levels=None, outcome_levels=None):
    """Plug-in adjustment estimate of P(y|do(x)).

    Computes sum over strata of the adjustment set ``w`` of
    P-hat(y|x,w) P-hat(w) from one count of the rows per (stratum, x, y):
    each row's ``w`` codes form one mixed-radix key, ranked only when its
    range outgrows the rows (sparse codes are sorted), and the extra memory
    beyond rows x exposure x outcome counts is O(rows).
    Strata never observed contribute nothing; an observed stratum with no
    data at some exposure value raises PositivityError naming the first
    such cell (strata in lexicographic order of their codes), unless
    ``laplace`` is given, in which case the conditional is add-alpha
    smoothed over the outcome codes.

    ``exposure_levels`` / ``outcome_levels`` widen the value grids beyond
    what this dataset happens to contain (used when aligning two
    populations); values default to the observed cardinalities.
    """
    w, stratum, counts = _joint_counts(data, x, y, w, laplace,
                                       exposure_levels, outcome_levels)
    _, kx, ky = counts.shape
    m = counts.sum(axis=2, keepdims=True)
    if laplace is None and not m.all():
        s, xv, _ = np.argwhere(m == 0)[0].tolist()
        cell = {v: int(data.column(v)[stratum == s][0]) for v in w}
        named = ", ".join(f"{v}={c}" for v, c in cell.items())
        where = f"{x}={xv}" + (f" within stratum {named}" if w else "")
        raise PositivityError(
            f"no observations for {where}; the distribution is not positive "
            f"there (rerun with Laplace smoothing to estimate anyway)",
            stratum=cell, exposure_value=xv)
    conditional = (counts / m if laplace is None
                   else (counts + laplace) / (m + laplace * ky))
    weight = counts.sum(axis=(1, 2)) / len(data)
    p = (weight[:, None, None] * conditional).sum(axis=0)
    return InterventionalTable(p)


def marginal_table(data, x, y, exposure_levels=None, outcome_levels=None):
    """The null-effect table: P(y|do(x)) = P-hat(y), identical for every
    exposure value; the count and the checks are those of
    :func:`adjustment_total` with an empty adjustment set."""
    counts = _joint_counts(data, x, y, (), None,
                           exposure_levels, outcome_levels)[2]
    p = np.tile(counts.sum(axis=(0, 1)) / len(data), (counts.shape[1], 1))
    return InterventionalTable(p)


def partial_regression_coefficient(data, x, y, w):
    """Coefficient of ``x`` in the least-squares fit of ``y`` on x plus
    ``w`` with an intercept.

    Solved through the SVD of the design matrix; raises SingularDesignError
    when the smallest singular value falls below RANK_TOLERANCE relative to
    the largest (collinear covariates).
    """
    w = _checked_inputs(data, CONTINUOUS, x, y, w)
    n = len(data)
    if n <= len(w) + 2:
        raise ValueError(f"need more than {len(w) + 2} rows, got {n}")
    design = np.column_stack(
        [np.ones(n), data.column(x)] + [data.column(v) for v in w])
    target = data.column(y)
    u, s, vt = np.linalg.svd(design, full_matrices=False)
    if s[0] == 0.0 or s[-1] < RANK_TOLERANCE * s[0]:
        raise SingularDesignError(
            "design matrix is rank-deficient (collinear covariates)")
    beta = vt.T @ ((u.T @ target) / s)
    return float(beta[1])


def estimate_effect(verdict, data, x, y, laplace=None,
                    exposure_levels=None, outcome_levels=None):
    """Apply an identifying verdict to one dataset.

    A total effect is a table of P(y|do(x)) from discrete data: the outcome
    marginal when the effect is null (:func:`marginal_table`), otherwise the
    adjustment formula (:func:`adjustment_total`); only the latter smooths
    with ``laplace``, but both reject one that is not positive and finite.
    A direct effect is a float from continuous data: 0.0 when null,
    otherwise the partial regression coefficient, which takes no
    ``laplace``.  The data kind and the columns are checked for every
    verdict; a NotIdentifiable verdict raises ValueError.
    """
    if verdict.kind == NOT_IDENTIFIABLE:
        raise ValueError("verdict is NotIdentifiable; nothing to estimate")
    if verdict.effect == DIRECT and laplace is not None:
        raise ValueError("laplace smoothing applies to total effects only")
    if verdict.kind == NULL_EFFECT:
        _checked_inputs(data, EFFECT_KIND[verdict.effect], x, y, (), laplace)
        return 0.0 if verdict.effect == DIRECT else marginal_table(
            data, x, y, exposure_levels, outcome_levels)
    w = verdict.adjustment_set or ()
    if verdict.effect == DIRECT:
        return partial_regression_coefficient(data, x, y, w)
    return adjustment_total(data, x, y, w, laplace,
                            exposure_levels, outcome_levels)


def causal_change(verdict, data1, data2, x, y, laplace=None):
    """Apply an identifying verdict to two datasets and report the change.

    Each population is estimated by :func:`estimate_effect`, total effects
    over a value grid common to both datasets.  The change is population 1
    minus population 2, elementwise for tables.
    """
    if set(data1.variable_names) != set(data2.variable_names):
        raise ValueError("datasets have different variables")
    if data1.kind != data2.kind:
        raise ValueError("datasets have different kinds")
    pair = (data1, data2)
    grid = {}
    if verdict.effect == TOTAL:
        grid = {"exposure_levels": max(d.cardinality(x) for d in pair),
                "outcome_levels": max(d.cardinality(y) for d in pair)}
    v1, v2 = (estimate_effect(verdict, d, x, y, laplace, **grid)
              for d in pair)
    if verdict.effect == DIRECT:
        change = v1 - v2
    else:
        change = ChangeTable(v1.probabilities - v2.probabilities)
    return CausalChangeReport(verdict.effect, v1, v2, change,
                              tuple(verdict.adjustment_set or ()))


def format_interventional_table(table, x, y):
    """Aligned-column text rendering of one interventional table."""
    return _align_grid(x, y, {f"P({y}|do({x}))": table.probabilities})


def format_change_report(report, x, y):
    """Aligned-column text rendering of a causal-change report."""
    adj = ", ".join(report.adjustment_set) if report.adjustment_set else "()"
    title = (f"{report.quantity} causal change for {x} -> {y} "
             f"(adjustment set: {adj})")
    if report.quantity == DIRECT:
        body = _align([
            ["population 1:", f"{report.population1_value:.6f}"],
            ["population 2:", f"{report.population2_value:.6f}"],
            ["change:", f"{report.change:.6f}"],
        ])
        return title + "\n" + body
    t1, t2 = report.population1_value, report.population2_value
    return title + "\n" + _align_grid(x, y, {
        "P1(y|do(x))": t1.probabilities, "P2(y|do(x))": t2.probabilities,
        "change": report.change.values})


def _align_grid(x, y, columns):
    """One aligned row per (x, y) code pair, with a 6-decimal cell per
    column; ``columns`` maps each header to its array over the grid."""
    rows = [[x, y, *columns]]
    for i, j in np.ndindex(next(iter(columns.values())).shape):
        rows.append([str(i), str(j), *(f"{cells[i, j]:.6f}"
                                       for cells in columns.values())])
    return _align(rows)
