"""Census of the discrete estimators' count against a sorting reference.

``estimate._joint_counts`` counts the rows per (stratum, x, y) through one
mixed-radix key of the adjustment codes, ranked only where memory needs
it.  This census draws seeded random discrete datasets of 1 to 5,000 rows
with 0 to 6 adjustment columns, each column's codes dense (below 6),
spread (below 4 x rows + 2) or sparse (below 2**53), and checks that

* ``_joint_counts`` gives the strata and counts of
  ``helpers.joint_counts_by_sorting`` (which ranks every column and every
  combined key with np.unique), on the observed or a widened level grid,
* ``adjustment_total`` gives the table computed from those counts, bit for
  bit, or the PositivityError of their first empty cell, message and all,
* ``marginal_table`` gives the outcome marginal of those counts, and
* a grid of more than 2**24 cells is refused with the message naming the
  number of distinct adjustment rows.

Run from the repository root::

    PYTHONPATH=src python3 tests/count_census.py

It prints one row per sample and exits 1 at the first mismatch, naming the
sample, the dataset and the check.  The file is not a pytest module.
"""

import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from diffgraph import (  # noqa: E402
    DISCRETE,
    Dataset,
    PositivityError,
    adjustment_total,
    marginal_table,
)
from diffgraph.estimate import _joint_counts  # noqa: E402
from helpers import joint_counts_by_sorting  # noqa: E402

SEED = 25
DATASETS = 8000
MAX_ROWS = 5000
MAX_WIDTH = 6
# levels of a wide grid: 4097 x 4097 cells a stratum, always refused
WIDE = 4097


def codes(rng, rows, kind):
    """``rows`` codes of one adjustment column, of 1 to 12 levels below
    ``top`` or, for a "many" kind, drawn afresh for each row."""
    top = {"dense": 6, "spread": 4 * rows + 2, "sparse": 2 ** 53,
           "many spread": 4 * rows + 2, "many sparse": 2 ** 53}[kind]
    if kind.startswith("many"):
        return rng.integers(0, top, rows)
    return rng.choice(rng.integers(0, top, rng.integers(1, 13)), rows)


KINDS = ["dense", "spread", "sparse", "many spread", "many sparse"]


def dataset(rng, wide=False):
    """A random discrete dataset with columns w0.., x and y, and the
    adjustment set: every w column."""
    rows = int(np.exp(rng.uniform(0, np.log(MAX_ROWS + 1))))
    width = int(rng.integers(0, MAX_WIDTH + 1))
    columns = {f"w{i}": codes(rng, rows, rng.choice(
        KINDS, p=[0.4, 0.2, 0.2, 0.1, 0.1])) for i in range(width)}
    for v in ("x", "y"):
        columns[v] = rng.integers(0, rng.choice([1, 2, 3, 6, 16]), rows)
        if wide:
            columns[v][rng.integers(rows)] = WIDE - 1
    names = list(columns)
    return (Dataset(names, np.column_stack(list(columns.values())),
                    DISCRETE), tuple(names[:-2]))


def widened(counts, kx, ky):
    """``counts`` padded with zeros to kx x ky levels."""
    _, ox, oy = counts.shape
    return np.pad(counts, ((0, 0), (0, kx - ox), (0, ky - oy)))


def reference_table(data, w, stratum, counts, laplace):
    """adjustment_total's table or PositivityError, from ``counts``."""
    _, kx, ky = counts.shape
    m = counts.sum(axis=2, keepdims=True)
    if laplace is None and not m.all():
        s, xv, _ = np.argwhere(m == 0)[0].tolist()
        row = int(np.argmax(stratum == s))
        cell = {v: int(data.column(v)[row]) for v in w}
        named = ", ".join(f"{v}={c}" for v, c in cell.items())
        where = f"x={xv}" + (f" within stratum {named}" if w else "")
        return (f"no observations for {where}; the distribution is not "
                f"positive there (rerun with Laplace smoothing to estimate "
                f"anyway)", cell, xv)
    conditional = (counts / m if laplace is None
                   else (counts + laplace) / (m + laplace * ky))
    weight = counts.sum(axis=(1, 2)) / len(data)
    return (weight[:, None, None] * conditional).sum(axis=0)


def estimated(data, w, laplace, kx, ky):
    """adjustment_total's table, or its PositivityError as the reference
    gives it."""
    try:
        return adjustment_total(data, "x", "y", w, laplace, kx, ky) \
            .probabilities
    except PositivityError as err:
        return str(err), err.stratum, err.exposure_value


def same(a, b):
    if isinstance(a, tuple) or isinstance(b, tuple):
        return a == b
    return a.shape == b.shape and np.array_equal(a, b)


def check(data, w, rng):
    """The name of the first check ``data`` fails, or None."""
    kx = data.cardinality("x") + int(rng.integers(0, 2))
    ky = data.cardinality("y") + int(rng.integers(0, 2))
    laplace = None if rng.random() < 0.7 else 0.5
    want_stratum, want = joint_counts_by_sorting(data, "x", "y", w)
    want = widened(want, kx, ky)
    _, stratum, counts = _joint_counts(data, "x", "y", w, None, kx, ky)
    if stratum.dtype != want_stratum.dtype or not np.array_equal(
            stratum, want_stratum):
        return "strata"
    if not same(counts, want):
        return "counts"
    if not same(estimated(data, w, laplace, kx, ky),
                reference_table(data, w, want_stratum, want, laplace)):
        return "adjustment_total"
    marginal = np.tile(want.sum(axis=(0, 1)) / len(data), (kx, 1))
    if not same(marginal_table(data, "x", "y", kx, ky).probabilities,
                marginal):
        return "marginal_table"
    return None


def check_refusal(data, w):
    """The refusal of a grid of 4097 x 4097 cells a stratum, or None."""
    strata = (len(np.unique(np.column_stack([data.column(v) for v in w]),
                            axis=0)) if w else 1)
    for call, count in ((lambda: adjustment_total(data, "x", "y", w),
                         strata),
                        (lambda: marginal_table(data, "x", "y"), 1)):
        try:
            call()
        except ValueError as err:
            got = str(err)
        else:
            got = None
        if got != (f"counting needs {count} strata x {WIDE} x {WIDE} "
                   f"levels, more than 2**24 cells: column 'x' has codes "
                   f"up to {WIDE - 1} (relabel sparse codes as 0, 1, 2, "
                   f"...)"):
            return "refusal"
    return None


def main():
    rng = np.random.default_rng(SEED)
    print(f"{'sample':24} {'datasets':>9} {'rows':>10} {'seconds':>8}")
    for name, wide, count in (("random grids", False, DATASETS),
                              ("grids above 2**24 cells", True,
                               DATASETS // 10)):
        start, rows = time.perf_counter(), 0
        for i in range(count):
            data, w = dataset(rng, wide)
            fault = check_refusal(data, w) if wide else check(data, w, rng)
            if fault is not None:
                print(f"{name} dataset {i}: {fault} differs from the "
                      f"sorting reference ({len(data)} rows, adjustment "
                      f"set {w})")
                return 1
            rows += len(data)
        print(f"{name:24} {count:>9,} {rows:>10,} "
              f"{time.perf_counter() - start:>8.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
