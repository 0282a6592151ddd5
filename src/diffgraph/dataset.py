"""`Dataset`, one population's complete sample as a matrix of rows, and
its CSV reader and writer."""

import itertools
import warnings

import numpy as np

from .graphs import _check_label

DISCRETE = "discrete"
CONTINUOUS = "continuous"

# Rows a rejected CSV file is read in while its first fault is sought.
_FAULT_BLOCK = 1024

# Rows formatted per write: the text and the arrays of one block stay small
# whatever the number of rows.
_WRITE_BLOCK = 4096

# For ``_g17_text``: 5**p for every scale 10**p it multiplies by, and the
# text of 0000 to 9999, four ASCII digits packed in one uint32 each.
_POW5 = 5 ** np.arange(28, dtype=np.uint64)
_QUADS = np.ascontiguousarray((np.indices((10,) * 4, np.uint8) + ord("0"))
                              .reshape(4, -1).T).view(np.uint32).ravel()

# Bytes of one cell's field: the longest ``%.17g`` text, 24 characters as in
# "-2.2250738585072014e-308", then its comma or newline.
_FIELD = 25


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
    one int64 matrix in column-major order, so ``column`` gives each code
    column as a contiguous int64 view, not a copy.
    Integer input (any signed or unsigned dtype, such as the uint8 codes
    ``from_csv`` reads from one-digit cells, or lists of ints) is checked
    in its own dtype before it is cast, so no code wraps; other input is
    checked as floats, then cast once.  Either way a bad cell
    gets the message of its float twin.

    A bad cell is reported by the first one in row-major order, as "row r,
    column 'name'" with rows counted from 1.
    """

    def __init__(self, variable_names, rows, kind):
        names = tuple(variable_names)
        if not names:
            raise ValueError("need at least one variable")
        for name in names:
            _check_label(name)
            # from_csv refuses a quoted name and drops a byte order mark
            if '"' in name or name.startswith("\ufeff"):
                raise ValueError(
                    f"variable name {name!r} contains '\"' or starts with "
                    "U+FEFF, which a CSV header cannot hold")
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

    def cardinality(self, name):
        """1 + largest observed code of a discrete column."""
        return int(self.column(name).max()) + 1

    @classmethod
    def from_csv(cls, path, kind):
        """Read a dataset from CSV with a header row of unquoted variable
        names; empty lines are skipped, and a ``#`` is no comment but a bad
        cell.  Every ValueError names ``path``.

        A discrete file whose data lines are all one-digit cells is read
        without parsing, as uint8 codes (``_discrete_rows``); any other file
        is read by the double reader.  Either way ``Dataset`` checks and
        casts the values.  So every value reads as the same code whichever
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
        of ``_WRITE_BLOCK`` (4,096).  Continuous cells are formatted in
        numpy, byte for byte as ``"%.17g" %`` would (``_g17_text``); only
        cells outside its exact range, zero and magnitudes below 1e-11 or
        from 1e17, go through ``%`` one at a time."""
        row = ",".join(["%d"] * self.rows.shape[1]) + "\n"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(self.variable_names) + "\n")
            for start in range(0, len(self), _WRITE_BLOCK):
                block = self.rows[start:start + _WRITE_BLOCK]
                fh.write(_g17_text(block) if self.kind == CONTINUOUS else
                         (row * len(block)) % tuple(block.ravel().tolist()))


def _scaled(mant, e, k):
    """For each |x| = mant * 2**(e - 53), the floor of |x| * 10**(16 - k)
    and whether round-half-even takes it up by one, computed exactly as
    mant * 5**p * 2**(e - 53 + p), p = 16 - k in 0..27: the product is
    128 bits in two uint64 halves built from 32-bit limbs, and it is
    shifted right by at least one bit, so the remainder is compared with
    a half that is a whole number."""
    p = 16 - k
    shift = 53 - e - p
    mant = mant << np.maximum(1 - shift, 0).astype(np.uint64)
    shift = np.maximum(shift, 1).astype(np.uint64)
    low = np.uint64(0xFFFFFFFF)
    m0, m1 = mant & low, mant >> 32
    five = _POW5[p]
    f0, f1 = five & low, five >> 32
    p00, p01, p10 = m0 * f0, m0 * f1, m1 * f0
    mid = (p00 >> 32) + (p01 & low) + (p10 & low)
    lo = (mid << 32) | (p00 & low)
    hi = m1 * f1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
    floor = ((hi << 1) << (63 - shift)) | (lo >> shift)
    rest = lo & ((1 << shift) - 1)
    return floor, rest + (floor & 1) > (1 << (shift - 1))


def _g17_text(block):
    """The rows of the float matrix ``block`` as CSV text of ``%.17g``
    cells, the same bytes as ``"%.17g" %`` gives each cell.

    A cell of magnitude in (1e-11, 1e17) has 17 significant digits
    d = round-half-even(|x| * 10**(16 - k)), k its decimal exponent, which
    ``_scaled`` computes exactly; log10 guesses k, and a floor outside
    [10**16, 10**17) moves the guess by one.  Cells are sorted by k, so the
    cells of one notation and exponent fill the same columns of their
    NUL-padded fields by slicing; trailing fraction zeros, and a ``.``
    left bare, become NULs.  Any other cell is formatted by ``%``.  The
    text is the fields in cell order, NULs dropped."""
    rows, cols = block.shape
    x = block.ravel()
    size = np.abs(x)
    exact = (size > 1e-11) & (size < 1e17)
    fields = np.zeros((x.size, _FIELD), np.uint8)
    slow = np.flatnonzero(~exact)
    fields[slow, :-1] = np.array(["%.17g" % v for v in x[slow].tolist()],
                                 "S24").view(np.uint8).reshape(-1, 24)
    where = np.flatnonzero(exact)
    x, size = x[where], size[where]
    frac, e = np.frexp(size)
    mant = (frac * 2.0 ** 53).astype(np.uint64)
    e = e.astype(np.int64)
    # k is in -11..16, where 5**(16 - k) fits a uint64, though log10 may
    # guess one past either end
    k = np.clip(np.floor(np.log10(size)), -11, 16).astype(np.int64)
    floor, up = _scaled(mant, e, k)
    off = np.flatnonzero((floor < 10 ** 16) | (floor >= 10 ** 17))
    k[off] += np.where(floor[off] < 10 ** 16, -1, 1)
    floor[off], up[off] = _scaled(mant[off], e[off], k[off])
    # no double in the exact range lies within half a unit of the 17th
    # digit below a power of ten, so d never rounds up to 10**17
    # (tests/writer_census.py walks every power of ten)
    d = floor + up
    order = np.argsort(k.astype(np.int8), kind="stable")
    k, d = k[order], d[order]

    # the 17 digits as text: one digit, then four groups of four
    top = d // 10 ** 8
    low8 = (d - top * 10 ** 8).astype(np.uint32)
    top = top.astype(np.uint32)
    lead = top // 10 ** 8
    high8 = top - lead * 10 ** 8
    quads = np.empty((d.size, 5), np.uint32)
    quads[:, 0] = _QUADS[lead]
    quads[:, 1] = _QUADS[high8 // 10000]
    quads[:, 2] = _QUADS[high8 % 10000]
    quads[:, 3] = _QUADS[low8 // 10000]
    quads[:, 4] = _QUADS[low8 % 10000]
    digits = quads.view(np.uint8)[:, 3:]

    # the digits of d from column ``first`` on follow the point: k + 1
    # digits in for ddd.ddd, one in for d.ddde-XX; 0.000ddd has all 17
    # after its point, but the first is never 0, so it is never stripped
    first = np.maximum(k + 1, 1)
    dot = np.where(k == 16, 0, ord(".")).astype(np.uint8)
    zero = np.flatnonzero(digits[:, 16] == ord("0"))
    tail = digits[zero]
    strip = np.logical_and.accumulate(tail[:, ::-1] == ord("0"),
                                      axis=1)[:, ::-1]
    strip &= np.arange(17) >= first[zero, None]
    tail[strip] = 0
    digits[zero] = tail
    dot[zero[strip[np.arange(zero.size), np.minimum(first[zero], 16)]]] = 0

    out = np.zeros((d.size, _FIELD), np.uint8)
    out[:, 0] = np.signbit(x[order]) * np.uint8(ord("-"))
    edges = np.searchsorted(k, np.arange(-11, 18))
    for exp, a, b in zip(range(-11, 17), edges[:-1], edges[1:]):
        if a == b:
            continue
        o, ds = out[a:b], digits[a:b]
        if exp >= 0:  # fixed: ddd.ddd
            o[:, 1:exp + 2] = ds[:, :exp + 1]
            o[:, exp + 2] = dot[a:b]
            o[:, exp + 3:19] = ds[:, exp + 1:]
        elif exp >= -4:  # fixed: 0.000ddd
            o[:, 1:2 - exp] = np.frombuffer(b"0." + b"0" * (-1 - exp),
                                            np.uint8)
            o[:, 2 - exp:19 - exp] = ds
        else:  # exponent: d.ddde-XX
            o[:, 1] = ds[:, 0]
            o[:, 2] = dot[a:b]
            o[:, 3:19] = ds[:, 1:]
            o[:, 19:23] = np.frombuffer(b"e-%02d" % -exp, np.uint8)
    fields.view(f"V{_FIELD}")[where[order]] = out.view(f"V{_FIELD}")
    grid = fields.reshape(rows, cols, _FIELD)
    grid[:, :, -1] = ord(",")
    grid[:, -1, -1] = ord("\n")
    return fields[fields != 0].tobytes().decode("ascii")


def _discrete_rows(fh, width):
    """The data lines of ``fh`` as a uint8 matrix of codes when every line
    is ``width`` one-digit cells, each ended by a comma and the last by a
    newline, else None, for the double reader; ``fh`` is left where it
    was.  The codes are those of the double reader's values; each cell is
    checked with its separator, as one uint16.  The body is read whole,
    its text and then its bytes, about twice its bytes at the peak.  A
    body off the layout is read twice, here and by the double reader."""
    start = fh.tell()
    body = fh.read().encode()
    fh.seek(start)
    if not body or len(body) % (2 * width):
        return None
    # a (digit, separator) pair is digit + 256 * separator; less the pair
    # of "0" and the column's separator, a right pair gives its digit, a
    # digit byte below "0" borrows and wraps to 65,488 or more, one above
    # "9" gives 10 or more, and a wrong separator adds 256 to 65,280 to the
    # digit byte less 48 (-48 to 207), so leaves 208 (256 - 48) or more
    codes = (np.frombuffer(body, "<u2").reshape(-1, width)
             - np.frombuffer(b"0," * (width - 1) + b"0\n", "<u2"))
    if codes.max() > 9:
        return None
    return codes.astype(np.uint8)


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
