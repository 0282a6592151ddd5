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

import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from .figures import _align
from .graphs import _check_label
from .identify import DIRECT, NOT_IDENTIFIABLE, NULL_EFFECT, TOTAL

DISCRETE = "discrete"
CONTINUOUS = "continuous"

# The data kind each effect is estimated from.
EFFECT_KIND = {TOTAL: DISCRETE, DIRECT: CONTINUOUS}

RANK_TOLERANCE = 1e-10
ROW_SUM_TOLERANCE = 1e-9

# The discrete estimators count the rows in one int64 array of
# strata * exposure levels * outcome levels cells, the levels running up
# to the largest code.  2**24 cells is 128 MiB of counts; a larger grid is
# refused before it is allocated.
_GRID_CELLS = 2 ** 24

# Strata are ranked through a table of the keys present, a flag and a count
# per key, while the keys span at most this many per row: 36 bytes a row,
# about what np.unique's sort takes.  Wider spans are sorted.
_KEYS_PER_ROW = 4

# Rows a rejected CSV file is read in while its first fault is sought.
_FAULT_BLOCK = 1024

# Characters of a discrete CSV body read at a time while its layout and
# bytes are checked: a block and its arrays stay near 128 KB whatever the
# file's size, and a file that leaves the layout early costs one block.
_READ_CHARS = 1 << 15

# Rows formatted per write: the text and the boxed floats of one block stay
# small whatever the number of rows.
_WRITE_BLOCK = 4096


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
        Discrete data must be non-negative integer codes below 2**53, below
        which a float holds every integer exactly; the cardinality of a
        variable is one plus its largest observed code.

    Continuous rows are kept as a float64 matrix.  Discrete rows are kept as
    one int64 matrix in column-major order, so each column is contiguous.
    Integer input (any signed or unsigned dtype, or lists of ints) is
    checked in its own dtype before it is cast, so no code wraps; other
    input is checked as floats, then cast once.  Either way a bad cell
    gets the message of its float twin.

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
        data = np.asarray(rows)
        if kind == CONTINUOUS or data.dtype.kind not in "iu":
            data = np.asarray(data, dtype=float)
        if data.ndim != 2:
            raise ValueError(f"rows must be a matrix, got shape {data.shape}")
        if data.shape[0] == 0:
            raise ValueError("no data rows")
        if data.shape[1] != len(names):
            raise ValueError(f"{len(names)} variable names but "
                             f"{data.shape[1]} columns per row")
        if data.dtype.kind == "f" and not np.all(np.isfinite(data)):
            raise ValueError(
                f"non-finite cell at {_first_cell(names, ~np.isfinite(data))}")
        if kind == DISCRETE:
            # an integer matrix is checked in its own dtype, so no code
            # wraps; an integer is at or above 2**53 exactly when its float
            # is, so a bad cell gets the message of its float twin
            if data.dtype.kind == "f":
                # the non-negative integers are the fixed points of |floor(v)|
                floor = np.floor(data)
                bad = data != np.abs(floor, out=floor)
            else:
                bad = data < 0
            if bad.any():
                raise ValueError(
                    "discrete data must be non-negative integer codes, got "
                    f"{float(data[bad][0]):g} at {_first_cell(names, bad)}")
            if data.max(initial=0) >= 2 ** 53:
                big = data >= 2 ** 53
                raise ValueError(
                    "discrete codes must be below 2**53, below which a float "
                    "holds every integer exactly, got "
                    f"{float(data[big][0]):g} at {_first_cell(names, big)}")
            data = np.asfortranarray(data, dtype=np.int64)
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
        """Integer codes of a discrete column: a contiguous int64 view of
        the stored rows, not a copy."""
        return self.column(name)

    def cardinality(self, name):
        """1 + largest observed code of a discrete column."""
        return int(self.column(name).max()) + 1

    @classmethod
    def from_csv(cls, path, kind):
        """Read a dataset from CSV with a header row of unquoted variable
        names; empty lines are skipped, and a ``#`` is no comment but a bad
        cell.  Every ValueError names ``path``.

        A discrete file is read by the first of three steps that applies
        (``_discrete_rows``): lines that all share the byte layout of the
        first, digit cells only, are read without parsing; lines whose
        layout breaks on a ``.`` or a byte above ``9`` (a letter, ``_``) go
        straight to the double reader; other lines are parsed as int64,
        and a cell that is no plain integer sends the whole file through
        the double reader.  So every value reads as the same code whichever
        step reads it, and every message is the same."""
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
                        data = (_discrete_rows(fh, len(names))
                                if kind == DISCRETE else None)
                        if data is None:
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
        """Write a header row of the variable names, then one row per unit:
        ``%.17g`` cells, which ``from_csv`` reads back bit for bit, or ``%d``
        cells for discrete data.  Rows are formatted and written in blocks
        of ``_WRITE_BLOCK``."""
        cell = "%d" if self.kind == DISCRETE else "%.17g"
        row = ",".join([cell] * self.rows.shape[1]) + "\n"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(self.variable_names) + "\n")
            for start in range(0, len(self), _WRITE_BLOCK):
                block = self.rows[start:start + _WRITE_BLOCK]
                fh.write((row * len(block)) % tuple(block.ravel().tolist()))


def _discrete_rows(fh, width):
    """The data lines of ``fh`` as an int64 matrix, read by the first of
    three steps that applies, or None when only the double reader can read
    them; ``fh`` is left where it was.  Every step gives the codes of the
    double reader's values, so -0 reads as 0.

    1. A body whose lines share the byte layout of the first, ``width``
       digit cells, is read without parsing (``_layout``).
    2. Else, when the block of lines that breaks the layout holds a ``.``
       or an ASCII byte above ``9``, which no plain integer cell holds, the
       body is left to the double reader unparsed.
    3. Any other body is parsed as int64 (``_integer_rows``)."""
    start = fh.tell()
    layout, kept = None, []
    for text in iter(lambda: fh.read(_READ_CHARS), ""):
        text += fh.readline()  # a block ends at a line end
        if layout is None:
            layout = _layout(text, width)
        codes = None if layout is None else _layout_codes(text, layout)
        if codes is None:
            fh.seek(start)
            return _integer_rows(fh) if _may_be_integers(text) else None
        kept.append(codes)
    fh.seek(start)
    if not kept:
        return _integer_rows(fh)
    return _horner(np.concatenate(kept), layout[1])


def _may_be_integers(text):
    """False when ``text`` holds a ``.`` or an ASCII byte above ``9``."""
    return "." not in text and not (
        text.isascii()
        and np.frombuffer(text.encode("ascii"), np.uint8).max() > ord("9"))


def _layout(text, width):
    """The byte layout of the first line of ``text`` when it is ``width``
    cells of 1 to 15 ASCII digits, so every code is below 2**53, each ended
    by a comma or, the last, by a newline; else None.  The layout is the
    line's bytes with each digit taken down to ``0``, the columns of its
    commas and newline, and the columns ``_layout_codes`` keeps: the
    digits, then the newline's, which holds 0 there."""
    first = text[:text.find("\n") + 1]
    cells = first[:-1].split(",")
    if not (first.isascii() and len(cells) == width and all(
            c.isdigit() and len(c) <= 15 for c in cells)):
        return None
    line = np.frombuffer(first.encode("ascii"), np.uint8)
    digit = line >= ord("0")  # commas and the newline sit below it
    ends = np.flatnonzero(~digit)
    return (np.where(digit, np.uint8(ord("0")), line), ends,
            np.append(np.flatnonzero(digit), ends[-1]))


def _layout_codes(text, layout):
    """The kept columns of the lines ``text`` less the layout's bytes, a
    uint8 array of digit values, or None unless every line has the
    layout."""
    low, ends, keep = layout
    if not text.isascii() or len(text) % len(low):
        return None
    codes = np.frombuffer(text.encode("ascii"), np.uint8).reshape(
        -1, len(low)) - low
    # a digit column holds its digit's value and a separator column 0,
    # while any other byte wraps around to more than 9 or leaves a
    # separator column nonzero
    if codes.max() > 9 or codes[:, ends].any():
        return None
    return codes[:, keep]


def _horner(codes, ends):
    """Each cell's code from the kept digit columns ``codes`` of a layout
    whose commas and newline sit at ``ends``, as an int64 matrix in
    column-major order.  At most 15 digits a cell keep every code below
    2**53."""
    size = np.diff(ends, prepend=-1) - 1
    # row p: each cell's column of its digit worth 10**p, or the last,
    # zero column where the cell has none
    place = np.arange(size.max())[:, None]
    column = np.where(place < size, np.cumsum(size) - 1 - place, -1)
    # the digit columns as rows, so each cell's codes build up in one
    # contiguous row
    digits = codes.T
    data = digits[column[-1]].astype(np.int64)
    for kept in column[-2::-1]:
        data *= 10
        data += digits[kept]
    return data.T


def _integer_rows(fh):
    """The data lines of ``fh`` parsed as an int64 matrix, or None with
    ``fh`` back where it was when a cell is no plain integer.  A float cell
    is refused, not truncated: numpy versions that cast ``1.5`` to 1 warn
    that they do, and the warning is taken as a refusal."""
    start = fh.tell()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            return np.loadtxt(fh, dtype=np.int64, delimiter=",", ndmin=2,
                              comments=None)
    except (ValueError, DeprecationWarning):
        fh.seek(start)
        return None


def _reads(lines, usecols=None):
    """Does numpy's CSV reader accept ``lines``, or their ``usecols``?"""
    try:
        np.loadtxt(lines, delimiter=",", comments=None, usecols=usecols)
    except ValueError:
        return False
    return True


def _first_fault(lines, names):
    """Why numpy's reader rejected the data ``lines`` of a CSV file whose
    header holds ``names``: the first row with the wrong number of cells,
    or the first cell that is no number.  Rows count from 1 among the
    non-empty lines, which are the ones the reader does not skip.  Rows are
    read in blocks, and one by one only within a block that fails, so the
    search takes time linear in the rows."""
    rows = filter(None, (line.rstrip("\n") for line in lines))
    for start in itertools.count(1, _FAULT_BLOCK):
        block = list(itertools.islice(rows, _FAULT_BLOCK))
        if not block:
            return None
        if (all(line.count(",") == len(names) - 1 for line in block)
                and _reads(block)):
            continue
        for r, line in enumerate(block, start=start):
            cells = line.split(",")
            if len(cells) != len(names):
                return (f"row {r} has {len(cells)} cells but the header has "
                        f"{len(names)} names")
            if not _reads([line]):
                c = next(c for c in range(len(names))
                         if not _reads([line], c))
                return (f"row {r}, column {names[c]!r}: {cells[c]!r} is not "
                        "a number")


def _first_cell(names, bad):
    """Where the first True of the boolean matrix ``bad`` lies."""
    r, c = np.argwhere(bad)[0].tolist()
    return f"row {r + 1}, column {names[c]!r}"


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


def _dense_rank(keys, top):
    """Each of the non-negative ``keys``, all below ``top``, ranked among the
    distinct keys as np.unique's inverse does, and the number of them."""
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
    Each ``w`` column takes one linear pass while the codes are dense; a
    sort ranks only sparse ones first.  Extra memory is O(rows)."""
    w = _checked_inputs(data, DISCRETE, x, y, w, laplace)
    xcol, ycol = data.codes(x), data.codes(y)
    kx = exposure_levels or data.cardinality(x)
    ky = outcome_levels or data.cardinality(y)
    if xcol.max() >= kx or ycol.max() >= ky:
        raise ValueError("observed codes exceed the requested level grid")
    stratum, strata = np.zeros(len(data), dtype=np.int64), 1
    for v in w:
        code = data.codes(v)
        top = int(code.max()) + 1
        if strata * top > _KEYS_PER_ROW * len(data):
            code, top = _dense_rank(code, top)  # keeps keys below rows**2
        stratum, strata = _dense_rank(stratum * top + code, strata * top)
    if strata * kx * ky > _GRID_CELLS:
        v, k = max((x, kx), (y, ky), key=lambda level: level[1])
        raise ValueError(
            f"counting needs {strata} strata x {kx} x {ky} levels, more than "
            f"2**24 cells: column {v!r} has codes up to {k - 1} (relabel "
            "sparse codes as 0, 1, 2, ...)")
    counts = np.bincount((stratum * kx + xcol) * ky + ycol,
                         minlength=strata * kx * ky)
    return w, stratum, counts.reshape(-1, kx, ky)


def adjustment_total(data, x, y, w, laplace=None,
                     exposure_levels=None, outcome_levels=None):
    """Plug-in adjustment estimate of P(y|do(x)).

    Computes sum over strata of the adjustment set ``w`` of
    P-hat(y|x,w) P-hat(w) from one count of the rows per (stratum, x, y).
    Numbering the strata takes one linear pass per column of ``w`` whose
    codes are dense, a sort only for sparse ones, and O(rows) memory.
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
