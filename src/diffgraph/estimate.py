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

import warnings
from dataclasses import dataclass

import numpy as np

from .graphs import _check_label
from .identify import DIRECT, NOT_IDENTIFIABLE, NULL_EFFECT, TOTAL

DISCRETE = "discrete"
CONTINUOUS = "continuous"

# The data kind each effect is estimated from.
EFFECT_KIND = {TOTAL: DISCRETE, DIRECT: CONTINUOUS}

RANK_TOLERANCE = 1e-10
ROW_SUM_TOLERANCE = 1e-9


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


class Dataset:
    """A complete rectangular sample: rows are units, columns are variables.

    Parameters
    ----------
    variable_names : sequence of str
    rows : array-like, shape (N, len(variable_names))
    kind : {"discrete", "continuous"}
        Discrete data must be non-negative integer codes; the cardinality of
        a variable is one plus its largest observed code.

    A bad cell is reported by the first one in row-major order, as "row r,
    column 'name'" with rows counted from 1.
    """

    def __init__(self, variable_names, rows, kind):
        names = tuple(variable_names)
        for name in names:
            _check_label(name)
        if len(set(names)) != len(names):
            dup = next(v for i, v in enumerate(names) if v in names[:i])
            raise ValueError(f"duplicate variable name {dup!r}")
        if kind not in (DISCRETE, CONTINUOUS):
            raise ValueError(f"kind must be {DISCRETE!r} or {CONTINUOUS!r}")
        data = np.asarray(rows, dtype=float)
        if data.ndim != 2:
            raise ValueError(f"rows must be a matrix, got shape {data.shape}")
        if data.shape[0] == 0:
            raise ValueError("no data rows")
        if data.shape[1] != len(names):
            raise ValueError(f"{len(names)} variable names but "
                             f"{data.shape[1]} columns per row")
        if not np.all(np.isfinite(data)):
            raise ValueError(
                f"non-finite cell at {_first_cell(names, ~np.isfinite(data))}")
        if kind == DISCRETE:
            # the non-negative integers are the fixed points of |floor(v)|
            floor = np.floor(data)
            bad = data != np.abs(floor, out=floor)
            if bad.any():
                raise ValueError(
                    "discrete data must be non-negative integer codes, got "
                    f"{data[bad][0]:g} at {_first_cell(names, bad)}")
        self.variable_names = names
        self.rows = data
        self.kind = kind
        self._index = {v: i for i, v in enumerate(names)}

    def __len__(self):
        return self.rows.shape[0]

    def column(self, name):
        if name not in self._index:
            raise KeyError(f"unknown variable {name!r}")
        return self.rows[:, self._index[name]]

    def codes(self, name):
        """Integer codes of a discrete column."""
        return self.column(name).astype(np.int64)

    def cardinality(self, name):
        """1 + largest observed code of a discrete column."""
        return int(self.codes(name).max()) + 1

    @classmethod
    def from_csv(cls, path, kind):
        """Read a dataset from CSV with a header row of unquoted variable
        names; empty lines are skipped, and a ``#`` is no comment but a bad
        cell.  Every ValueError names ``path``."""
        try:
            with open(path, "r", encoding="utf-8-sig") as fh:
                header = fh.readline().strip()
                if not header:
                    raise ValueError("missing header row")
                names = [c.strip() for c in header.split(",")]
                for i, name in enumerate(names, start=1):
                    if '"' in name:
                        raise ValueError(f"column {i} name {name} is quoted; "
                                         "write names without quotes")
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)
                    try:
                        data = np.loadtxt(fh, delimiter=",", ndmin=2,
                                          comments=None)
                        if data.size and data.shape[1] != len(names):
                            raise ValueError("rows and header differ in "
                                             "width")
                    except ValueError as exc:
                        fh.seek(0)
                        fh.readline()
                        raise ValueError(_first_fault(fh, names) or exc)
            return cls(names, data, kind)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None

    def to_csv(self, path):
        fmt = "%d" if self.kind == DISCRETE else "%.17g"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(self.variable_names) + "\n")
            np.savetxt(fh, self.rows, fmt=fmt, delimiter=",")


def _reads(line, usecols=None):
    """Does numpy's CSV reader accept ``line``, or its columns ``usecols``?"""
    try:
        np.loadtxt([line], delimiter=",", comments=None, usecols=usecols)
    except ValueError:
        return False
    return True


def _first_fault(lines, names):
    """Why numpy's reader rejected the data ``lines`` of a CSV file whose
    header holds ``names``: the first row with the wrong number of cells,
    or the first cell that is no number.  Rows count from 1 among the
    non-empty lines, which are the ones the reader does not skip."""
    rows = filter(None, (line.rstrip("\n") for line in lines))
    for r, line in enumerate(rows, start=1):
        cells = line.split(",")
        if len(cells) != len(names):
            return (f"row {r} has {len(cells)} cells but the header has "
                    f"{len(names)} names")
        if not _reads(line):
            c = next(c for c in range(len(names)) if not _reads(line, c))
            return (f"row {r}, column {names[c]!r}: {cells[c]!r} is not "
                    "a number")
    return None


def _first_cell(names, bad):
    """Where the first True of the boolean matrix ``bad`` lies."""
    r, c = np.argwhere(bad)[0].tolist()
    return f"row {r + 1}, column {names[c]!r}"


@dataclass
class InterventionalTable:
    """P(y|do(x)) on a grid of exposure values by outcome values.

    ``probabilities[i][j]`` is the estimated probability of outcome value
    ``outcome_values[j]`` under do(exposure = exposure_values[i]); every row
    sums to one.
    """

    exposure_values: tuple
    outcome_values: tuple
    probabilities: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=float)
        if p.shape != (len(self.exposure_values), len(self.outcome_values)):
            raise ValueError("probability matrix shape does not match the "
                             "value grids")
        sums = p.sum(axis=1)
        if not np.all(np.abs(sums - 1.0) <= ROW_SUM_TOLERANCE):
            raise ValueError(f"rows must sum to 1, got {sums}")
        self.probabilities = p

    def as_dict(self):
        return {"exposure_values": list(self.exposure_values),
                "outcome_values": list(self.outcome_values),
                "probabilities": self.probabilities.tolist()}


@dataclass
class ChangeTable:
    """Elementwise difference of two interventional tables on one grid.

    Rows sum to zero (each is a difference of two distributions), so this is
    deliberately not an InterventionalTable.
    """

    exposure_values: tuple
    outcome_values: tuple
    values: np.ndarray

    def as_dict(self):
        return {"exposure_values": list(self.exposure_values),
                "outcome_values": list(self.outcome_values),
                "values": self.values.tolist()}


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


def _joint_counts(data, x, y, w, laplace, exposure_levels, outcome_levels):
    """Checks for the discrete estimators, then the rows counted per
    (stratum, x, y), strata being the distinct ``w`` codes in lexicographic
    order.  Returns ``w`` as a tuple, each row's stratum and the counts."""
    w = _checked_inputs(data, DISCRETE, x, y, w, laplace)
    xcol, ycol = data.codes(x), data.codes(y)
    kx = exposure_levels or data.cardinality(x)
    ky = outcome_levels or data.cardinality(y)
    if xcol.max() >= kx or ycol.max() >= ky:
        raise ValueError("observed codes exceed the requested level grid")
    stratum = np.zeros(len(data), dtype=np.int64)
    for v in w:
        # Ranking after every column keeps the key below rows**2.
        levels, code = np.unique(data.codes(v), return_inverse=True)
        stratum = np.unique(stratum * len(levels) + code,
                            return_inverse=True)[1]
    counts = np.bincount((stratum * kx + xcol) * ky + ycol,
                         minlength=(stratum.max() + 1) * kx * ky)
    return w, stratum, counts.reshape(-1, kx, ky)


def adjustment_total(data, x, y, w, laplace=None,
                     exposure_levels=None, outcome_levels=None):
    """Plug-in adjustment estimate of P(y|do(x)).

    Computes sum over strata of the adjustment set ``w`` of
    P-hat(y|x,w) P-hat(w) from one count of the rows per (stratum, x, y).
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
        cell = {v: int(data.codes(v)[stratum == s][0]) for v in w}
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
    return InterventionalTable(tuple(range(kx)), tuple(range(ky)), p)


def marginal_table(data, x, y, exposure_levels=None, outcome_levels=None):
    """The null-effect table: P(y|do(x)) = P-hat(y), identical for every
    exposure value; the count and the checks are those of
    :func:`adjustment_total` with an empty adjustment set."""
    counts = _joint_counts(data, x, y, (), None,
                           exposure_levels, outcome_levels)[2]
    _, kx, ky = counts.shape
    p = np.tile(counts.sum(axis=(0, 1)) / len(data), (kx, 1))
    return InterventionalTable(tuple(range(kx)), tuple(range(ky)), p)


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
    w = verdict.adjustment_set or ()
    if verdict.effect == DIRECT:
        if laplace is not None:
            raise ValueError("laplace smoothing applies to total effects only")
        if verdict.kind == NULL_EFFECT:
            _checked_inputs(data, EFFECT_KIND[verdict.effect], x, y, ())
            return 0.0
        return partial_regression_coefficient(data, x, y, w)
    if verdict.kind == NULL_EFFECT:
        _checked_inputs(data, EFFECT_KIND[verdict.effect], x, y, (), laplace)
        return marginal_table(data, x, y, exposure_levels, outcome_levels)
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
        change = ChangeTable(v1.exposure_values, v1.outcome_values,
                             v1.probabilities - v2.probabilities)
    return CausalChangeReport(verdict.effect, v1, v2, change,
                              tuple(verdict.adjustment_set or ()))


def format_interventional_table(table, x, y):
    """Aligned-column text rendering of one interventional table."""
    header = [x, y, f"P({y}|do({x}))"]
    rows = []
    for i, xv in enumerate(table.exposure_values):
        for j, yv in enumerate(table.outcome_values):
            rows.append([str(xv), str(yv),
                         f"{table.probabilities[i, j]:.6f}"])
    return _align([header] + rows)


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
    header = [x, y, "P1(y|do(x))", "P2(y|do(x))", "change"]
    rows = []
    t1, t2, tc = (report.population1_value, report.population2_value,
                  report.change)
    for i, xv in enumerate(t1.exposure_values):
        for j, yv in enumerate(t1.outcome_values):
            rows.append([str(xv), str(yv),
                         f"{t1.probabilities[i, j]:.6f}",
                         f"{t2.probabilities[i, j]:.6f}",
                         f"{tc.values[i, j]:.6f}"])
    return title + "\n" + _align([header] + rows)


def _align(rows):
    widths = [max(len(r[c]) for r in rows) for c in range(len(rows[0]))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
             for row in rows]
    return "\n".join(lines)
