"""Plug-in adjustment, regression, and two-population change estimation,
and the Dataset they read with its CSV reader and writer."""

import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diffgraph import (
    CONTINUOUS,
    DISCRETE,
    Dataset,
    DifferenceGraph,
    InterventionalTable,
    PositivityError,
    SingularDesignError,
    adjustment_total,
    causal_change,
    estimate_effect,
    format_change_report,
    format_interventional_table,
    identify_direct,
    identify_total,
    marginal_table,
    partial_regression_coefficient,
    EffectQuery,
)
from diffgraph import dataset, estimate
from diffgraph.dataset import _WRITE_BLOCK, _first_fault
from diffgraph.estimate import _joint_counts
from helpers import DG_1H, DG_1M, joint_counts_by_sorting


def _discrete(columns, **named):
    names = list(named)
    rows = np.column_stack([np.asarray(named[k], dtype=float) for k in names])
    return Dataset(names, rows, DISCRETE)


def _message(call, *args):
    with pytest.raises(ValueError) as exc_info:
        call(*args)
    return str(exc_info.value)


def test_dataset_validation():
    with pytest.raises(ValueError, match="duplicate variable name 'a'"):
        Dataset(["a", "a"], np.zeros((2, 2)), DISCRETE)
    with pytest.raises(ValueError, match="kind"):
        Dataset(["a"], np.zeros((2, 1)), "fuzzy")
    with pytest.raises(ValueError, match="non-finite cell at row 1, "
                                         "column 'a'"):
        Dataset(["a"], np.array([[np.nan]]), CONTINUOUS)
    # the first bad cell in row-major order is named
    with pytest.raises(ValueError, match="non-finite cell at row 2, "
                                         "column 'b'"):
        Dataset(["a", "b"], np.array([[0, 1], [1, np.nan], [np.inf, 0]]),
                CONTINUOUS)
    with pytest.raises(ValueError, match="2 variable names but 3 columns"):
        Dataset(["a", "b"], np.zeros((2, 3)), CONTINUOUS)
    with pytest.raises(ValueError, match="integer codes, got 0.5 at row 1"):
        Dataset(["a"], np.array([[0.5]]), DISCRETE)
    with pytest.raises(ValueError, match="integer codes, got -1 at row 2, "
                                         "column 'b'"):
        Dataset(["a", "b"], np.array([[0, 0], [0, -1.0], [0.5, 0]]),
                DISCRETE)
    # integer rows give the message of their float twin
    codes = np.array([[0, 0], [0, -1], [2 ** 53, 0]], dtype=np.int64)
    assert _message(Dataset, ["a", "b"], codes, DISCRETE) == _message(
        Dataset, ["a", "b"], codes.astype(float), DISCRETE)


def test_rows_must_form_a_matrix():
    with pytest.raises(ValueError,
                       match=r"^rows must be a matrix, got shape \(3,\)$"):
        Dataset(["X"], [1, 2, 3], DISCRETE)


def test_discrete_codes_above_two_to_the_53_are_rejected(tmp_path):
    """A float64 holds every integer below 2**53 exactly; 2**53 + 1 reads
    as 2**53 and 1e19 would cast to a negative code."""
    for big, shown in (("1e19", "1e+19"),
                       ("9007199254740994", "9.0072e+15"),
                       ("9007199254740993", "9.0072e+15"),
                       ("9007199254740992", "9.0072e+15")):
        path = tmp_path / "big.csv"
        path.write_text(f"X,Y\n0,{big}\n1,0\n0,0\n1,1\n")
        with pytest.raises(ValueError) as exc_info:
            Dataset.from_csv(path, DISCRETE)
        assert str(exc_info.value) == (
            f"{path}: discrete codes must be below 2**53, below which a "
            f"float holds every integer exactly, got {shown} at row 1, "
            "column 'Y'")
    largest = Dataset(["X"], [[0], [2.0 ** 53 - 1]], DISCRETE)
    assert largest.column("X").tolist() == [0, 2 ** 53 - 1]
    assert largest.cardinality("X") == 2 ** 53
    # integer rows give the message of their float twins
    for dtype in (np.int64, np.uint64):
        for big in (2 ** 53, 2 ** 53 + 1, np.iinfo(dtype).max):
            codes = np.array([[0, 1], [1, big]], dtype=dtype)
            message = _message(Dataset, ["X", "Y"], codes, DISCRETE)
            assert message == _message(Dataset, ["X", "Y"],
                                       codes.astype(float), DISCRETE)
            assert message.endswith("at row 2, column 'Y'")
        codes = np.array([[0], [2 ** 53 - 1]], dtype=dtype)
        data = Dataset(["X"], codes, DISCRETE)
        assert data.rows.dtype == np.int64 and data.rows.flags.f_contiguous
        assert data.column("X").tolist() == [0, 2 ** 53 - 1]
    # continuous data keeps any finite value
    assert Dataset(["X"], [[1e19]], CONTINUOUS).column("X")[0] == 1e19


def test_an_empty_dataset_is_rejected_on_construction():
    """Zero rows fail in the constructor, not inside an estimator; rows
    without columns are a width error."""
    for kind in (DISCRETE, CONTINUOUS):
        with pytest.raises(ValueError, match="^no data rows$"):
            Dataset(["X", "Y"], np.empty((0, 2)), kind)
        with pytest.raises(ValueError,
                           match="^1 variable names but 0 columns per row$"):
            Dataset(["X"], [[]], kind)


def test_a_dataset_holds_only_what_a_csv_file_reads_back(tmp_path):
    """from_csv refuses a header name with a '"' and drops a leading
    U+FEFF as a byte order mark, and a file of no variables has no header,
    so no Dataset holds such names or no variables."""
    for kind in (DISCRETE, CONTINUOUS):
        for names, bad in ((['a"b', "c"], 'a"b'), (["\ufeffX"], "\ufeffX"),
                           (["X", "\ufeffY"], "\ufeffY")):
            assert _message(Dataset, names, np.zeros((3, len(names))),
                            kind) == (
                f"variable name {bad!r} contains '\"' or starts with U+FEFF, "
                "which a CSV header cannot hold")
        with pytest.raises(ValueError, match="^need at least one variable$"):
            Dataset([], np.zeros((3, 0)), kind)
        # a U+FEFF later in a name is no byte order mark
        path = tmp_path / "d.csv"
        Dataset(["X\ufeff", "Y"], np.ones((2, 2)), kind).to_csv(path)
        assert Dataset.from_csv(path, kind).variable_names == ("X\ufeff", "Y")


def test_dataset_accessors():
    data = _discrete(None, x=[0, 1, 1], y=[2, 0, 1])
    assert len(data) == 3
    assert data.cardinality("y") == 3
    assert list(data.column("x")) == [0, 1, 1]
    with pytest.raises(KeyError):
        data.column("z")


def test_dataset_csv_round_trip(tmp_path):
    data = _discrete(None, x=[0, 1, 0, 1], y=[1, 1, 0, 0])
    path = tmp_path / "d.csv"
    data.to_csv(path)
    back = Dataset.from_csv(path, DISCRETE)
    assert back.variable_names == data.variable_names
    assert np.array_equal(back.rows, data.rows)

    cont = Dataset(["u"], np.array([[0.12345678901234567], [-3.5]]),
                   CONTINUOUS)
    cpath = tmp_path / "c.csv"
    cont.to_csv(cpath)
    again = Dataset.from_csv(cpath, CONTINUOUS)
    assert np.array_equal(again.rows, cont.rows)


def _savetxt_bytes(names, rows, kind):
    """The bytes of the row-at-a-time writer that ``to_csv`` replaced:
    numpy's ``savetxt`` of the float ``rows``, kept as the reference."""
    out = io.StringIO()
    out.write(",".join(names) + "\n")
    np.savetxt(out, rows, fmt="%d" if kind == DISCRETE else "%.17g",
               delimiter=",")
    return out.getvalue().encode("utf-8")


def _around(values):
    """Each of ``values`` between its two neighbouring doubles."""
    values = np.asarray(values, dtype=float)
    return np.column_stack([np.nextafter(values, -np.inf), values,
                            np.nextafter(values, np.inf)]).ravel()


# where %.17g is subnormal, tiny, switches notation, exceeds 2**53 or is -0;
# then ties that round to even, and each power of ten about the exact range
# of the numpy writer between its neighbours, where log10 may guess the
# exponent one off; the ends of that range, 2**53, doubles just below 1e17
# and the largest double
_EDGE_FLOATS = np.concatenate([
    [-0.0, 5e-324, 2.2250738585072014e-308, 1e-05, 1e-04, 1e16, 1e17,
     -1.5e300, 0.1],
    [s * (1e15 + j / 8) for j in range(1, 8) for s in (1, -1)],
    _around([float(f"1e{k}") for k in range(-12, 18)]),
    _around([1e-11, 2.0 ** 53]),
    [-(1e17 - 16), 1e17 - 32, np.finfo(float).max]])

# rows of the case of random bit patterns, about 200,000 cells
_BIT_ROWS = 16 * _WRITE_BLOCK + 11


@pytest.mark.parametrize("n", [1, _WRITE_BLOCK - 1, _WRITE_BLOCK,
                               _WRITE_BLOCK + 1, 3 * _WRITE_BLOCK + 7,
                               _BIT_ROWS])
def test_to_csv_writes_the_bytes_of_savetxt(tmp_path, n):
    rng = np.random.default_rng(n)
    if n == _BIT_ROWS:
        # every finite double alike, zero in place of inf and nan
        floats = rng.integers(0, 2 ** 64, 3 * n, np.uint64).view(float)
        floats[~np.isfinite(floats)] = 0.0
    else:
        floats = rng.standard_normal(3 * n) * 10.0 ** rng.integers(-300, 300,
                                                                    3 * n)
    floats[:len(_EDGE_FLOATS)] = _EDGE_FLOATS[:3 * n]
    floats = floats.reshape(n, 3)
    codes = rng.integers(0, 2 ** 53, (n, 3)).astype(float)
    codes.flat[:3] = [0.0, -0.0, 2.0 ** 53 - 1][:3 * n]
    for matrix, kind in ((floats, CONTINUOUS), (codes, DISCRETE)):
        layouts = [matrix, matrix[:, :1], np.asfortranarray(matrix),
                   matrix[:, ::-1]]
        # one row is contiguous in either order
        assert n == 1 or not (layouts[2].flags.c_contiguous
                              or layouts[3].flags.c_contiguous)
        for rows in layouts:
            data = Dataset(["a", "b", "c"][:rows.shape[1]], rows, kind)
            if kind == CONTINUOUS:
                assert data.rows.strides == rows.strides
            else:
                # one int64 column-major copy, whatever the float layout
                assert data.rows.dtype == np.int64
                assert data.rows.flags.f_contiguous
                assert np.array_equal(data.rows, rows)
            path = tmp_path / "d.csv"
            data.to_csv(path)
            assert path.read_bytes() == _savetxt_bytes(data.variable_names,
                                                       rows, kind)


def test_from_csv_drops_a_byte_order_mark(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_text("\ufeffX,Y\n0,1\n1,0\n", encoding="utf-8")
    data = Dataset.from_csv(path, DISCRETE)
    assert data.variable_names == ("X", "Y")
    assert list(data.column("X")) == [0, 1]


def test_from_csv_rejects_junk(tmp_path):
    for body, message in (
            ("", "missing header row"),
            ("a,b\n", "no data rows"),
            # blank lines do not count as rows
            ("X,Y\n0,1\n\n1,nan\n", "non-finite cell at row 2, column 'Y'"),
            ("X,Y\n0,1\n1.5,0\n", "got 1.5 at row 2, column 'X'"),
            ("X,,Y\n0,1,1\n", "variable names must be non-empty"),
            ("X,X\n0,1\n", "duplicate variable name 'X'"),
            # a '#' starts no comment
            ("X,Y\n1,2\n3,4#junk\n#5,6\n",
             "row 2, column 'Y': '4#junk' is not a number"),
            ("X,Y\n0,1\n\n1\n",
             "row 2 has 1 cells but the header has 2 names"),
            # a line of whitespace is a row, unlike an empty line
            ("X,Y\n0,1\n \t\n",
             "row 2 has 1 cells but the header has 2 names"),
            ("X\n0\n\n  \n", "row 2, column 'X': '  ' is not a number"),
            # every row equally wide, but not as wide as the header
            ("X,Y\n1,2,3\n", "row 1 has 3 cells but the header has 2 names"),
            ("X,Y\n1,2\n3\n", "row 2 has 1 cells but the header has 2 names"),
            ("X,Y\n0,\n", "row 1, column 'Y': '' is not a number"),
            ("X,Y\n0,1_0\n", "row 1, column 'Y': '1_0' is not a number")):
        path = tmp_path / "bad.csv"
        path.write_text(body)
        with pytest.raises(ValueError) as exc_info:
            Dataset.from_csv(path, DISCRETE)
        assert str(exc_info.value).startswith(f"{path}: ")
        assert message in str(exc_info.value)


@pytest.mark.parametrize("row", [1024, 1025, 2049, 3000])
def test_from_csv_names_the_first_fault_past_the_first_block(tmp_path, row):
    for kind, fault, later, message in (
            (CONTINUOUS, "1,x,3", "1,y",
             f"row {row}, column 'B': 'x' is not a number"),
            (CONTINUOUS, "1,2", "1,y",
             f"row {row} has 2 cells but the header has 3 names"),
            (CONTINUOUS, "   ", "1,y",
             f"row {row} has 1 cells but the header has 3 names"),
            (DISCRETE, "1,1.5,3", "1,2,-1",
             "discrete data must be non-negative integer codes, got 1.5 at "
             f"row {row}, column 'B'")):
        # empty lines are no rows; a later fault is not the one named
        lines = (["A,B,C", ""] + ["1,2,3"] * (row - 1) + ["", fault]
                 + ["4,5,6"] * 1500 + [later])
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as exc_info:
            Dataset.from_csv(path, kind)
        assert str(exc_info.value) == f"{path}: {message}"


def _from_csv_by_doubles(path):
    """The header names of a discrete CSV file, then its rows as numpy's
    double reader gives them, or the full error text when that reader
    fails."""
    with open(path, encoding="utf-8-sig") as fh:
        names = fh.readline().strip().split(",")
        try:
            data = np.loadtxt(fh, delimiter=",", ndmin=2, comments=None)
            if data.size and data.shape[1] != len(names):
                raise ValueError("rows and header differ in width")
        except ValueError:
            fh.seek(0)
            fh.readline()
            return names, f"{path}: {_first_fault(fh, names)}"
    return names, data


# plain integers, cells only the double reader takes, and cells neither takes
_DISCRETE_CELLS = ["007", "+1", " 1", "1 ", "-0", "-1", "1.0", "1.", "1e0",
                   "1.0000000000000001", "nan", "1_0", "", "9007199254740993",
                   "9223372036854775808", "99999999999999999999"]

def _int64_only(reader):
    """``reader``, asserting that the codes it reads come as int64."""
    def read(fh, width):
        codes = reader(fh, width)
        assert codes is None or codes.dtype == np.int64
        return codes
    return read


# stand-ins for _discrete_rows that force each reader path of from_csv: the
# fixed layout first, the double reader
_DISCRETE_READERS = [
    _int64_only(dataset._discrete_rows),
    lambda fh, width: None,
]


def _rows_or_message(read, *args):
    """``read(*args).rows``, or the text of the ValueError it raises."""
    try:
        return read(*args).rows
    except ValueError as exc:
        return str(exc)


def _assert_same_codes(got, expected):
    if isinstance(expected, str):
        assert got == expected
    else:
        assert not isinstance(got, str), got
        assert got.dtype == np.int64 and got.flags.f_contiguous
        assert got.shape == expected.shape and (got == expected).all()


def _assert_reads_as_doubles(path):
    """``from_csv(path, DISCRETE)`` gives the codes of the double reader's
    rows, as an int64 column-major matrix, or the full error text of
    ``_from_csv_by_doubles``, whichever reader path it takes, and a reader
    that reads the codes gives them as int64.  A ``Dataset`` built from
    those rows as floats, as int64 and uint64 arrays that hold them
    exactly, and as lists gives the same codes or message.  The codes are
    returned, or None."""
    names, expected = _from_csv_by_doubles(path)
    if not isinstance(expected, str):
        doubles = expected
        forms = [doubles.tolist()]
        for dtype in (np.int64, np.uint64):
            info = np.iinfo(dtype)
            # float(info.max) rounds up to 2**63 or 2**64
            if ((doubles % 1 == 0) & (info.min <= doubles)
                    & (doubles < float(info.max))).all():
                forms += [doubles.astype(dtype),
                          doubles.astype(dtype).tolist()]
        expected = _rows_or_message(Dataset, names, doubles, DISCRETE)
        for rows in forms:
            _assert_same_codes(
                _rows_or_message(Dataset, names, rows, DISCRETE), expected)
        if isinstance(expected, str):
            expected = f"{path}: {expected}"
    with pytest.MonkeyPatch.context() as patch:
        for reader in _DISCRETE_READERS:
            patch.setattr(dataset, "_discrete_rows", reader)
            _assert_same_codes(
                _rows_or_message(Dataset.from_csv, path, DISCRETE), expected)
    return None if isinstance(expected, str) else expected


@pytest.mark.parametrize("cell", _DISCRETE_CELLS)
def test_from_csv_reads_discrete_cells_as_the_double_reader(tmp_path, cell):
    path = tmp_path / "d.csv"
    path.write_text(f"X,Y\n0,2\n1,{cell}\n")
    rows = _assert_reads_as_doubles(path)
    # an integer code has no sign bit, though the double of -0 has one
    assert rows is None or not np.signbit(rows).any()


@pytest.mark.parametrize("cell", ["1.0", "1.5"])
def test_a_late_double_cell_rereads_a_discrete_file(tmp_path, cell):
    """A cell that only the double reader takes, on row 3,000, sends the
    whole file back to its first data line."""
    lines = (["X,Y"] + [f"{r % 3},{r % 2}" for r in range(2999)]
             + [f"2,{cell}"])
    path = tmp_path / "d.csv"
    path.write_text("\n".join(lines) + "\n")
    rows = _assert_reads_as_doubles(path)
    assert (rows is None) == (cell == "1.5")


def _loadtxt_dtypes(monkeypatch):
    """The dtype of every later ``np.loadtxt`` call, in order."""
    dtypes, loadtxt = [], np.loadtxt

    def spy(*args, dtype=float, **kwargs):
        dtypes.append(dtype)
        return loadtxt(*args, dtype=dtype, **kwargs)
    monkeypatch.setattr(np, "loadtxt", spy)
    return dtypes


@pytest.mark.parametrize("cell", ["1.0", "1e0", "nan", "1_0", "1.5"])
def test_a_body_no_integer_parse_can_take_goes_straight_to_doubles(
        tmp_path, monkeypatch, cell):
    """A body off the fixed layout, here from row 11 on, is read by one
    ``np.loadtxt`` call of float dtype, whether a cell on row 3,000 is no
    plain integer or every cell is a variable-width plain integer."""
    lines = (["X,Y"] + [f"{r % 3},{r % 20}" for r in range(2999)]
             + [f"2,{cell}"])
    path = tmp_path / "d.csv"
    dtypes = _loadtxt_dtypes(monkeypatch)
    for body in (lines, lines[:-1]):
        path.write_text("\n".join(body) + "\n")
        _assert_reads_as_doubles(path)
        dtypes.clear()
        read = _rows_or_message(Dataset.from_csv, path, DISCRETE)
        assert dtypes[0] is float and set(dtypes) == {float}
        # later calls only search a file numpy's reader refused for its
        # first fault
        assert len(dtypes) == 1 or "is not a number" in str(read)


def test_a_fixed_layout_file_is_read_without_the_numpy_reader(tmp_path,
                                                              monkeypatch):
    """Single-digit and zero-padded codes, LF or CRLF, read right with
    ``np.loadtxt`` made to fail, so a silent fall-through to a parser
    cannot hide behind right values."""
    single = np.arange(3000)[:, None] % np.array([3, 2, 10])
    padded = np.arange(3000)[:, None] % np.array([3, 2, 997])

    def refuse(*args, **kwargs):
        raise AssertionError("np.loadtxt called on a fixed-layout file")
    monkeypatch.setattr(np, "loadtxt", refuse)
    for cells, newline, codes in (("%d,%d,%d", "\n", single),
                                  ("%d,%d,%03d", "\n", padded),
                                  ("%02d,%d,%03d", "\r\n", padded)):
        path = tmp_path / "d.csv"
        path.write_text("\ufeffX,Y,Z" + newline + "".join(
            cells % tuple(r) + newline for r in codes.tolist()), newline="")
        data = Dataset.from_csv(path, DISCRETE)
        assert data.variable_names == ("X", "Y", "Z")
        # the int64 column-major matrix every reader gives
        assert data.rows.dtype == np.int64 and data.rows.flags.f_contiguous
        assert np.array_equal(data.rows, codes)


# one change that takes a file off its fixed layout, or none
_LAYOUT_MISSES = [None, "longer row", "no final newline", "blank lines",
                  "separator", "+1", " 1", "-0", "1.0"]


@st.composite
def _fixed_layout_files(draw):
    """A discrete CSV file whose data lines share one byte layout of
    zero-padded codes, or miss it by one change: its text, its width and
    the change."""
    width = draw(st.integers(1, 6))
    sizes = draw(st.one_of(
        st.just([1] * width),
        st.lists(st.sampled_from([1, 2, 3, 15, 16]), min_size=width,
                 max_size=width)))
    rows = draw(st.lists(st.tuples(*[st.integers(0, 10 ** s - 1)
                                     for s in sizes]),
                         min_size=1, max_size=6))
    lines = [",".join(f"{v:0{s}d}" for v, s in zip(row, sizes))
             for row in rows]
    miss = draw(st.sampled_from(_LAYOUT_MISSES))
    r = draw(st.integers(0, len(lines) - 1))
    if miss == "longer row":
        lines[r] = "0" + lines[r]
    elif miss == "separator":
        lines[r] = lines[r].replace(",", ".", 1) if width > 1 else "1.5"
    elif miss in ("+1", " 1", "-0", "1.0"):
        cells = lines[r].split(",")
        cells[draw(st.integers(0, width - 1))] = miss
        lines[r] = ",".join(cells)
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = newline.join([",".join(f"V{j}" for j in range(width))] + lines)
    if miss != "no final newline":
        text += newline
    if miss == "blank lines":
        text += newline * draw(st.integers(1, 4))
    return draw(st.sampled_from(["", "\ufeff"])) + text, width, miss


@settings(max_examples=300, deadline=None)
@given(case=_fixed_layout_files())
@example(case=("X,Y\n1,2\n1.2\n", 2, "separator"))
@example(case=("X,Y\n1,2\n11,2\n", 2, "longer row"))
def test_fixed_layout_files_and_near_misses_read_as_doubles(
        tmp_path_factory, case):
    """Each file reads as the double reader reads it."""
    text, width, miss = case
    path = tmp_path_factory.mktemp("csv") / "d.csv"
    path.write_text(text, newline="")
    _assert_reads_as_doubles(path)
    if miss is None:
        # no numpy reader runs unless a cell is too long for the layout
        longest = max(len(cell) for line in text.splitlines()[1:]
                      for cell in line.split(","))
        with pytest.MonkeyPatch.context() as patch:
            dtypes = _loadtxt_dtypes(patch)
            try:
                Dataset.from_csv(path, DISCRETE)
            except ValueError:
                assert longest > 15  # a 16-digit code of 2**53 or more
            assert (dtypes == []) == (longest <= 15)


_CSV_NAMES = st.lists(st.sampled_from(["X", "Y", "W1", "W2", "Z"]),
                      min_size=1, max_size=4, unique=True)


@st.composite
def _csv_tables(draw):
    names = draw(_CSV_NAMES)
    rows = draw(st.lists(st.lists(st.integers(0, 9), min_size=len(names),
                                  max_size=len(names)),
                         min_size=1, max_size=5))
    return names, rows


def _csv_text(names, rows, newline="\n"):
    lines = [",".join(names)] + [",".join(map(str, r)) for r in rows]
    return newline.join(lines) + newline


@settings(max_examples=40, deadline=None)
@given(table=_csv_tables(), blanks=st.integers(0, 3))
def test_from_csv_reads_crlf_and_trailing_blank_lines(tmp_path_factory,
                                                      table, blanks):
    names, rows = table
    folder = tmp_path_factory.mktemp("csv")
    plain, crlf = folder / "lf.csv", folder / "crlf.csv"
    plain.write_text(_csv_text(names, rows), newline="")
    crlf.write_text(_csv_text(names, rows, "\r\n") + "\r\n" * blanks,
                    newline="")
    want = Dataset.from_csv(plain, DISCRETE)
    got = Dataset.from_csv(crlf, DISCRETE)
    assert got.variable_names == want.variable_names == tuple(names)
    assert np.array_equal(got.rows, want.rows)
    assert np.array_equal(want.rows, np.array(rows, dtype=float))


@settings(max_examples=40, deadline=None)
@given(table=_csv_tables(), data=st.data())
def test_from_csv_bad_input_names_file_and_place(tmp_path_factory, table,
                                                 data):
    names, rows = table
    path = tmp_path_factory.mktemp("csv") / "bad.csv"
    fault = data.draw(st.sampled_from(["quoted", "mismatch", "word"]))
    col = data.draw(st.integers(0, len(names) - 1))
    if fault == "quoted":
        names = names[:col] + [f'"{names[col]}"'] + names[col + 1:]
        expected = [f"column {col + 1} name {names[col]} is quoted"]
    elif fault == "mismatch":
        extra = data.draw(st.integers(1, 2))
        rows = [r + [0] * extra for r in rows]
        expected = [f"row 1 has {len(names) + extra} cells but the header "
                    f"has {len(names)} names"]
    else:
        row = data.draw(st.integers(0, len(rows) - 1))
        rows = [list(r) for r in rows]
        rows[row][col] = "abc"
        expected = [f"row {row + 1}, column {names[col]!r}: 'abc' is not "
                    "a number"]
    path.write_text(_csv_text(names, rows))
    with pytest.raises(ValueError) as exc_info:
        Dataset.from_csv(path, DISCRETE)
    message = str(exc_info.value)
    assert message.startswith(f"{path}: ")
    for part in expected:
        assert part in message


def test_empty_adjustment_set_equals_conditional_distribution():
    rng = np.random.default_rng(1)
    x = rng.integers(0, 2, size=400)
    y = rng.integers(0, 3, size=400)
    data = _discrete(None, x=x, y=y)
    table = adjustment_total(data, "x", "y", ())
    for xv in (0, 1):
        sub = y[x == xv]
        expected = np.bincount(sub, minlength=3) / len(sub)
        assert np.allclose(table.probabilities[xv], expected, atol=0, rtol=0)


def test_adjustment_recovers_known_interventional_table():
    # W -> X, W -> Y, X -> Y with known conditional tables; {W} is a valid
    # back-door set, so the plug-in estimate must converge on
    # sum_w P(y|x,w) P(w).
    rng = np.random.default_rng(7)
    n = 200_000
    w = (rng.random(n) < 0.3).astype(int)
    px = np.where(w == 1, 0.8, 0.4)
    x = (rng.random(n) < px).astype(int)
    py = np.where(x == 1, np.where(w == 1, 0.9, 0.6),
                  np.where(w == 1, 0.5, 0.1))
    y = (rng.random(n) < py).astype(int)
    data = _discrete(None, w=w, x=x, y=y)
    table = adjustment_total(data, "x", "y", ("w",))
    truth_y1_do_x1 = 0.7 * 0.6 + 0.3 * 0.9
    truth_y1_do_x0 = 0.7 * 0.1 + 0.3 * 0.5
    assert table.probabilities[1][1] == pytest.approx(truth_y1_do_x1,
                                                      abs=0.01)
    assert table.probabilities[0][1] == pytest.approx(truth_y1_do_x0,
                                                      abs=0.01)
    assert np.allclose(table.probabilities.sum(axis=1), 1.0)


def test_positivity_error_names_the_empty_cell():
    data = _discrete(None, w=[0, 0, 1, 1], x=[0, 1, 0, 0], y=[0, 1, 1, 0])
    with pytest.raises(PositivityError) as exc_info:
        adjustment_total(data, "x", "y", ("w",))
    err = exc_info.value
    assert err.exposure_value == 1
    assert err.stratum == {"w": 1}
    assert "x=1" in str(err) and "w=1" in str(err)


def test_positivity_error_names_the_lexicographically_first_cell():
    # strata (w1, w2): (1, 0) lacks x=0 and comes first in the rows, but
    # (0, 1), which lacks x=1, comes first in lexicographic order
    data = _discrete(None, w1=[1, 1, 0, 0, 0, 0, 1, 1],
                     w2=[0, 0, 1, 1, 0, 0, 1, 1],
                     x=[1, 1, 0, 0, 0, 1, 0, 1],
                     y=[0, 1, 1, 0, 0, 1, 1, 0])
    with pytest.raises(PositivityError) as exc_info:
        adjustment_total(data, "x", "y", ("w1", "w2"))
    err = exc_info.value
    assert err.stratum == {"w1": 0, "w2": 1}
    assert err.exposure_value == 1
    assert str(err).startswith(
        "no observations for x=1 within stratum w1=0, w2=1;")


def test_positivity_error_names_the_first_cell_of_sparse_codes():
    """The twin of the test above with codes far apart, which are sorted
    instead of tabled, names the same cell in the original codes."""
    w1, w2 = 2 ** 53 - 2, 2 ** 40
    data = _discrete(None, w1=[w1, w1, 7, 7, 7, 7, w1, w1],
                     w2=[0, 0, w2, w2, 0, 0, w2, w2],
                     x=[1, 1, 0, 0, 0, 1, 0, 1],
                     y=[0, 1, 1, 0, 0, 1, 1, 0])
    with pytest.raises(PositivityError) as exc_info:
        adjustment_total(data, "x", "y", ("w1", "w2"))
    err = exc_info.value
    assert err.stratum == {"w1": 7, "w2": w2}
    assert err.exposure_value == 1
    assert str(err).startswith(
        f"no observations for x=1 within stratum w1=7, w2={w2};")


@st.composite
def _coded_columns(draw):
    """1-400 rows of small x and y codes plus 0-4 adjustment columns, each
    drawing its levels from dense small codes or from codes up to
    2**53 - 1."""
    n = draw(st.integers(1, 400))
    width = draw(st.integers(0, 4))
    columns = {}
    for name in [f"w{i}" for i in range(width)] + ["x", "y"]:
        top = (draw(st.sampled_from([2, 3, 16, 4 * n + 1, 2 ** 53]))
               if name.startswith("w") else 3)
        levels = draw(st.lists(st.integers(0, top - 1), min_size=1,
                               max_size=12, unique=True))
        pick = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        columns[name] = pick.choice(levels, size=n)
    return columns


@settings(max_examples=200)
@given(_coded_columns())
def test_strata_and_counts_match_the_sorting_reference(columns):
    data = _discrete(None, **columns)
    w = tuple(columns)[:-2]
    _, stratum, counts = _joint_counts(data, "x", "y", w, None, None, None)
    want_stratum, want_counts = joint_counts_by_sorting(data, "x", "y", w)
    assert stratum.dtype == want_stratum.dtype
    assert np.array_equal(stratum, want_stratum)
    assert np.array_equal(counts, want_counts)


def test_large_stratum_codes_give_the_relabelled_table():
    rng = np.random.default_rng(11)
    n = 600
    small = rng.integers(0, 3, size=(n, 2))
    x = rng.integers(0, 2, size=n)
    y = rng.integers(0, 3, size=n)
    relabelled = _discrete(None, w1=small[:, 0], w2=small[:, 1], x=x, y=y)
    # order-preserving codes from 2**40 up to 2**53 - 1
    large = _discrete(None, w1=2**40 + small[:, 0] * 2**45,
                      w2=2**53 - 3 + small[:, 1], x=x, y=y)
    for laplace in (None, 0.5):
        expected = adjustment_total(relabelled, "x", "y", ("w1", "w2"),
                                    laplace)
        got = adjustment_total(large, "x", "y", ("w1", "w2"), laplace)
        assert np.array_equal(got.probabilities, expected.probabilities)


def _ranks(monkeypatch):
    """The ``top`` of every _dense_rank call, recorded as they are made."""
    tops, rank = [], estimate._dense_rank

    def recorded(keys, top, *present):
        tops.append(top)
        return rank(keys, top, *present)

    monkeypatch.setattr(estimate, "_dense_rank", recorded)
    return tops


def _counted_as_by_sorting(data, w):
    _, stratum, counts = _joint_counts(data, "x", "y", w, None, None, None)
    want_stratum, want_counts = joint_counts_by_sorting(data, "x", "y", w)
    assert np.array_equal(stratum, want_stratum)
    assert np.array_equal(counts, want_counts)


def test_dense_codes_of_few_strata_are_counted_without_a_rank(monkeypatch):
    rng = np.random.default_rng(3)
    data = _discrete(None, **{v: rng.integers(0, 3, 200)
                              for v in ("w1", "w2", "w3", "x", "y")})
    tops = _ranks(monkeypatch)
    _counted_as_by_sorting(data, ("w1", "w2", "w3"))
    assert tops == []


def test_a_sparse_column_is_ranked_before_it_joins_the_key(monkeypatch):
    big = 2 ** 40
    data = _discrete(None, w=[big, 5, 5, big, 7, 7, 5, big],
                     x=[0, 1, 0, 1, 0, 1, 1, 0], y=[1, 0, 0, 1, 1, 0, 1, 0])
    tops = _ranks(monkeypatch)
    _counted_as_by_sorting(data, ("w",))
    assert tops == [big + 1]


def test_the_running_key_is_ranked_before_it_passes_the_bound(monkeypatch):
    """Three columns of five codes on 10 rows: 5 * 5 keys stay within the
    bound of 4 a row, 25 * 5 would not, so the nine (w1, w2) pairs present
    are ranked first; their 9 * 5 keys then outnumber the rows."""
    data = _discrete(None, w1=[0, 1, 2, 3, 4, 0, 1, 2, 3, 4],
                     w2=[4, 3, 2, 1, 0, 0, 1, 2, 3, 4],
                     w3=[0, 1, 2, 3, 4, 0, 1, 2, 3, 4],
                     x=[0, 1] * 5, y=[0, 0, 1, 1, 2] * 2)
    tops = _ranks(monkeypatch)
    _counted_as_by_sorting(data, ("w1", "w2", "w3"))
    assert tops == [25, 45]


def test_a_final_key_space_wider_than_the_rows_is_ranked(monkeypatch):
    data = _discrete(None, w1=[0, 4, 2, 4, 0, 1, 3, 0, 2, 4],
                     w2=[4, 0, 0, 4, 4, 1, 3, 2, 2, 4],
                     x=[0, 1] * 5, y=[1, 0, 0] * 3 + [1])
    tops = _ranks(monkeypatch)
    _counted_as_by_sorting(data, ("w1", "w2"))
    assert tops == [25]


def test_a_ranked_key_gives_the_sorted_table_and_positivity_cell(
        monkeypatch):
    """30 strata of codes 0..7, each on two rows, one with x = 0 and one
    with x = 1: 8 * 8 keys stay within the bound of 4 a row, 64 * 8 would
    not, so the 24 (w1, w2) pairs present are ranked before w3 joins them;
    their 24 * 8 keys then outnumber the 60 rows."""
    rng = np.random.default_rng(5)
    strata = np.unique(rng.integers(0, 8, size=(30, 3)), axis=0)
    order = rng.permutation(60)
    codes = np.repeat(strata, 2, axis=0)[order]
    x = np.tile([0, 1], 30)[order]
    y = rng.integers(0, 3, 60)
    w = ("w1", "w2", "w3")
    data = _discrete(None, **dict(zip(w, codes.T)), x=x, y=y)
    tops = _ranks(monkeypatch)
    _counted_as_by_sorting(data, w)
    assert tops == [64, 192]
    _, counts = joint_counts_by_sorting(data, "x", "y", w)
    m = counts.sum(axis=2, keepdims=True)
    weight = counts.sum(axis=(1, 2)) / len(data)
    expected = (weight[:, None, None] * (counts / m)).sum(axis=0)
    table = adjustment_total(data, "x", "y", w)
    assert np.array_equal(table.probabilities, expected)
    # without its x = 1 row, the 17th stratum in sorted order is the first
    # cell with no observations
    keep = ~((codes == strata[16]).all(axis=1) & (x == 1))
    holed = _discrete(None, **dict(zip(w, codes[keep].T)), x=x[keep],
                      y=y[keep])
    with pytest.raises(PositivityError) as exc_info:
        adjustment_total(holed, "x", "y", w)
    cell = dict(zip(w, strata[16].tolist()))
    assert exc_info.value.stratum == cell
    assert exc_info.value.exposure_value == 1
    named = ", ".join(f"{v}={c}" for v, c in cell.items())
    assert str(exc_info.value).startswith(
        f"no observations for x=1 within stratum {named};")


def test_a_key_grid_above_two_to_the_24_cells_is_ranked_below_it(
        monkeypatch):
    """200 keys x 512 x 256 levels would be 25.6M cells; the two strata
    present take 2**18."""
    n = 400
    data = _discrete(None, w=[0, 199] * (n // 2),
                     x=[511, 0, 1, 2] * (n // 4), y=[0, 255] * (n // 2))
    tops = _ranks(monkeypatch)
    _counted_as_by_sorting(data, ("w",))
    assert tops == [200]


def test_a_ranked_key_grid_still_above_two_to_the_24_cells_is_refused(
        monkeypatch):
    data = _discrete(None, w=[0, 5, 10, 15, 20, 0, 5, 10, 15, 20, 25, 0],
                     x=[2047] + [0] * 11, y=[0] * 11 + [2047])
    tops = _ranks(monkeypatch)
    assert _message(adjustment_total, data, "x", "y", ("w",)) == (
        "counting needs 6 strata x 2048 x 2048 levels, more than 2**24 "
        "cells: column 'x' has codes up to 2047 (relabel sparse codes as 0, "
        "1, 2, ...)")
    assert tops == [26]


def test_counting_allocates_no_more_than_rows_x_levels_cells():
    """The old worst case: rows x kx x ky int64 counts, plus O(rows).
    Each table holds 1,000 rows with x and y of 16 codes each.  4,000 keys,
    the most a column holds unranked, and 40 x 25 keys of which half hold
    no rows are ranked to the strata present; 20 x 25 such keys are counted
    unranked and their empty strata dropped."""
    rng = np.random.default_rng(9)
    n, levels = 1000, 16

    def codes(top, step=1):
        """n codes below ``top``, multiples of ``step``, the first top - 1."""
        column = rng.integers(0, top // step, n) * step
        column[0] = top - 1
        return column

    xy = {"x": codes(levels), "y": codes(levels)}
    cases = [(_discrete(None, w=codes(4000), **xy), ("w",))]
    for top in (40, 20):
        cases.append((_discrete(None, w1=codes(top, 2), w2=codes(25), **xy),
                      ("w1", "w2")))
    for data, w in cases:
        tracemalloc.start()
        try:
            _joint_counts(data, "x", "y", w, None, None, None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= n * levels * levels * 8 + 64 * n
        _counted_as_by_sorting(data, w)


def test_a_count_grid_above_two_to_the_24_cells_is_refused():
    """One code of 3e9 in the outcome would ask for 2 * (3e9 + 1) int64
    counts, 44.7 GiB; the estimators refuse before allocating."""
    data = _discrete(None, x=[0, 1, 0, 1], y=[3e9, 0, 1, 1])
    message = ("counting needs 1 strata x 2 x 3000000001 levels, more than "
               "2**24 cells: column 'y' has codes up to 3000000000 (relabel "
               "sparse codes as 0, 1, 2, ...)")
    tracemalloc.start()
    try:
        for estimate in (lambda: adjustment_total(data, "x", "y", ()),
                         lambda: marginal_table(data, "x", "y")):
            with pytest.raises(ValueError) as exc_info:
                estimate()
            assert str(exc_info.value) == message
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    # strata count too: 5 strata x 2**11 x 2**11 levels
    wide = _discrete(None, w=[0, 1, 2, 3, 4], x=[0, 1, 2047, 0, 1],
                     y=[2047, 0, 1, 1, 0])
    with pytest.raises(ValueError, match="^counting needs 5 strata x 2048 x "
                                         "2048 levels, .* column 'x' has "
                                         "codes up to 2047 "):
        adjustment_total(wide, "x", "y", ("w",))


def test_laplace_smoothing_fills_empty_cells():
    data = _discrete(None, w=[0, 0, 1, 1], x=[0, 1, 0, 0], y=[0, 1, 1, 0])
    table = adjustment_total(data, "x", "y", ("w",), laplace=1.0)
    assert np.allclose(table.probabilities.sum(axis=1), 1.0)
    # the unobserved (w=1, x=1) cell falls back to the uniform prior
    assert table.probabilities[1][0] > 0
    for bad in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            adjustment_total(data, "x", "y", ("w",), laplace=bad)


def test_requested_level_grid_extends_the_table():
    data = _discrete(None, x=[0, 0, 1], y=[0, 1, 1])
    table = adjustment_total(data, "x", "y", (), outcome_levels=3)
    assert table.probabilities.shape == (2, 3)
    assert table.probabilities[0][2] == 0.0
    with pytest.raises(ValueError, match="exceed"):
        adjustment_total(data, "x", "y", (), outcome_levels=1)
    gapped = _discrete(None, x=[0, 1], y=[0, 2])
    with pytest.raises(ValueError, match="exceed the requested level grid"):
        marginal_table(gapped, "x", "y", outcome_levels=2)


def test_marginal_table_matches_empirical_marginal_exactly():
    data = _discrete(None, x=[0, 1, 1, 0, 1], y=[2, 0, 2, 1, 0])
    table = marginal_table(data, "x", "y")
    marginal = np.bincount([2, 0, 2, 1, 0], minlength=3) / 5
    for row in table.probabilities:
        assert np.array_equal(row, marginal)


def test_exposure_and_outcome_stay_out_of_the_adjustment_set():
    data = _discrete(None, x=[0, 1], y=[1, 0], w=[0, 0])
    for w in (("w", "x"), ("y",)):
        with pytest.raises(ValueError, match="not be in the adjustment set"):
            adjustment_total(data, "x", "y", w)
    cont = Dataset(["x", "y"], np.zeros((4, 2)), CONTINUOUS)
    with pytest.raises(ValueError, match="not be in the adjustment set"):
        partial_regression_coefficient(cont, "x", "y", ("x",))


def test_adjustment_requires_discrete_data():
    cont = Dataset(["x", "y"], np.array([[0.5, 1.5], [1.0, 2.0]]),
                   CONTINUOUS)
    with pytest.raises(ValueError, match="discrete"):
        adjustment_total(cont, "x", "y", ())
    with pytest.raises(ValueError, match="distinct"):
        adjustment_total(_discrete(None, x=[0], y=[0]), "x", "x", ())
    with pytest.raises(KeyError):
        adjustment_total(_discrete(None, x=[0], y=[0]), "x", "z", ())


def _linear_dataset(seed, alpha, n=50_000, confounded=True):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(n)
    x = (0.8 * w if confounded else 0.0) + rng.standard_normal(n)
    y = alpha * x + 1.5 * w + rng.standard_normal(n)
    rows = np.column_stack([w, x, y])
    return Dataset(["w", "x", "y"], rows, CONTINUOUS)


def test_partial_regression_recovers_coefficient():
    data = _linear_dataset(3, alpha=2.0)
    est = partial_regression_coefficient(data, "x", "y", ("w",))
    assert est == pytest.approx(2.0, abs=0.05)
    # omitting the confounder biases the estimate, which is the point
    biased = partial_regression_coefficient(data, "x", "y", ())
    assert abs(biased - 2.0) > 0.2


def test_partial_regression_zero_when_independent():
    data = _linear_dataset(4, alpha=0.0)
    est = partial_regression_coefficient(data, "x", "y", ("w",))
    assert est == pytest.approx(0.0, abs=0.05)


def test_partial_regression_invariances():
    data = _linear_dataset(5, alpha=1.25)
    base = partial_regression_coefficient(data, "x", "y", ("w",))
    shifted = Dataset(
        data.variable_names,
        data.rows + np.array([10.0, 0.0, 0.0]),
        CONTINUOUS)
    assert partial_regression_coefficient(shifted, "x", "y", ("w",)) \
        == pytest.approx(base, abs=1e-9)
    scaled = Dataset(
        data.variable_names,
        data.rows * np.array([1.0, 1.0, 3.0]),
        CONTINUOUS)
    assert partial_regression_coefficient(scaled, "x", "y", ("w",)) \
        == pytest.approx(3.0 * base, abs=1e-9)


def test_partial_regression_degenerate_inputs():
    rows = np.column_stack([np.arange(8.0), np.arange(8.0), np.ones(8)])
    collinear = Dataset(["x", "x2", "y"], rows, CONTINUOUS)
    with pytest.raises(SingularDesignError):
        partial_regression_coefficient(collinear, "x", "y", ("x2",))

    short = Dataset(["x", "y"], np.ones((2, 2)), CONTINUOUS)
    with pytest.raises(ValueError, match="rows"):
        partial_regression_coefficient(short, "x", "y", ())

    disc = _discrete(None, x=[0, 1, 0, 1], y=[0, 1, 1, 0])
    with pytest.raises(ValueError, match="continuous"):
        partial_regression_coefficient(disc, "x", "y", ())


def _total_verdict(shared=True):
    return identify_total(
        EffectQuery(DG_1H, "X", "Y", shared_order_assumed=shared))


def _direct_verdict():
    return identify_direct(
        EffectQuery(DG_1M, "X", "Y", shared_order_assumed=True))


def _gallery_discrete(seed, n=5000):
    rng = np.random.default_rng(seed)
    w1 = (rng.random(n) < 0.5).astype(int)
    x = (rng.random(n) < np.where(w1 == 1, 0.7, 0.2)).astype(int)
    w2 = (rng.random(n) < np.where(x == 1, 0.6, 0.4)).astype(int)
    y = (rng.random(n) < np.where(x == 1, 0.75, 0.25)).astype(int)
    return Dataset(["W1", "X", "W2", "Y"],
                   np.column_stack([w1, x, w2, y]).astype(float), DISCRETE)


def test_causal_change_zero_between_identical_populations():
    data = _gallery_discrete(0)
    report = causal_change(_total_verdict(), data, data, "X", "Y")
    assert report.quantity == "total"
    assert report.adjustment_set == ("W1",)
    assert np.allclose(report.change.values, 0.0)
    assert np.array_equal(report.population1_value.probabilities,
                          report.population2_value.probabilities)


def test_causal_change_direct_null_effect_is_exactly_zero():
    verdict = identify_direct(
        EffectQuery(DG_1M, "X", "W1", shared_order_assumed=True))
    assert verdict.kind == "NullEffect"
    d1 = _linear_dataset(8, alpha=1.0)
    d2 = _linear_dataset(9, alpha=0.5)
    d1 = Dataset(["W1", "X", "Y"], d1.rows, CONTINUOUS)
    d2 = Dataset(["W1", "X", "Y"], d2.rows, CONTINUOUS)
    report = causal_change(verdict, d1, d2, "X", "W1")
    assert report.population1_value == 0.0
    assert report.population2_value == 0.0
    assert report.change == 0.0


def _gallery_linear(seed, alpha, n=50_000):
    # W1 -> X, W2 -> Y, X -> Y with adjustable direct coefficient
    rng = np.random.default_rng(seed)
    w1 = rng.standard_normal(n)
    w2 = rng.standard_normal(n)
    x = 0.8 * w1 + rng.standard_normal(n)
    y = alpha * x + 1.2 * w2 + rng.standard_normal(n)
    return Dataset(["W1", "X", "W2", "Y"],
                   np.column_stack([w1, x, w2, y]), CONTINUOUS)


def test_causal_change_direct_difference():
    d1 = _gallery_linear(10, alpha=1.5)
    d2 = _gallery_linear(11, alpha=0.0)
    report = causal_change(_direct_verdict(), d1, d2, "X", "Y")
    assert report.quantity == "direct"
    assert report.population1_value == pytest.approx(1.5, abs=0.05)
    assert report.population2_value == pytest.approx(0.0, abs=0.05)
    assert report.change == pytest.approx(1.5, abs=0.07)


def test_causal_change_total_uses_common_level_grid():
    # population 2 never shows y=2; the shared grid must still cover it
    p1 = _discrete(None, X=[0, 0, 1, 1], Y=[0, 1, 2, 0])
    p2 = _discrete(None, X=[0, 1, 1, 0], Y=[0, 1, 1, 0])
    two = DifferenceGraph(vertices=["X", "Y"], edges=[("X", "Y")])
    verdict = identify_total(
        EffectQuery(two, "X", "Y", shared_order_assumed=True))
    report = causal_change(verdict, p1, p2, "X", "Y")
    t1, t2 = report.population1_value, report.population2_value
    assert t1.probabilities.shape == t2.probabilities.shape == (2, 3)
    assert t2.probabilities[0][2] == 0.0
    assert report.change.values.shape == (2, 3)
    assert np.allclose(report.change.values.sum(axis=1), 0.0)


def test_estimate_effect_dispatches_on_effect_and_kind():
    disc = _gallery_discrete(5)
    assert np.array_equal(
        estimate_effect(_total_verdict(), disc, "X", "Y").probabilities,
        adjustment_total(disc, "X", "Y", ("W1",)).probabilities)
    null_total = identify_total(
        EffectQuery(DG_1H, "Y", "X", shared_order_assumed=True))
    assert null_total.kind == "NullEffect"
    assert np.array_equal(
        estimate_effect(null_total, disc, "Y", "X").probabilities,
        marginal_table(disc, "Y", "X").probabilities)
    cont = _gallery_linear(12, alpha=0.7, n=2000)
    assert estimate_effect(_direct_verdict(), cont, "X", "Y") == \
        partial_regression_coefficient(cont, "X", "Y", ("W1", "W2"))
    not_ident = identify_total(
        EffectQuery(DG_1M, "X", "Y", shared_order_assumed=True))
    with pytest.raises(ValueError, match="NotIdentifiable"):
        estimate_effect(not_ident, disc, "X", "Y")


def test_null_verdicts_still_check_the_data():
    # D = {Y -> X}: both effects of X on Y are null, yet the data must
    # still be of the estimator's kind and hold X and Y
    q = EffectQuery(DifferenceGraph(edges=[("Y", "X")]), "X", "Y",
                    shared_order_assumed=True)
    direct, total = identify_direct(q), identify_total(q)
    assert direct.kind == total.kind == "NullEffect"
    other = Dataset(["A", "B"], np.zeros((4, 2)), DISCRETE)
    with pytest.raises(ValueError, match="continuous"):
        causal_change(direct, other, other, "X", "Y")
    with pytest.raises(KeyError):
        causal_change(total, other, other, "X", "Y")
    with pytest.raises(KeyError):
        estimate_effect(direct, Dataset(["A", "B"], np.zeros((4, 2)),
                                        CONTINUOUS), "X", "Y")
    with pytest.raises(ValueError, match="discrete"):
        estimate_effect(total, Dataset(["X", "Y"], np.zeros((4, 2)),
                                       CONTINUOUS), "X", "Y")
    xy = Dataset(["X", "Y"], np.random.default_rng(0).standard_normal((4, 2)),
                 CONTINUOUS)
    assert estimate_effect(direct, xy, "X", "Y") == 0.0


def test_null_total_verdicts_check_laplace():
    null_total = identify_total(
        EffectQuery(DG_1H, "Y", "X", shared_order_assumed=True))
    assert null_total.kind == "NullEffect"
    disc = _gallery_discrete(6, n=200)
    for bad in (0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="laplace smoothing must be"):
            estimate_effect(null_total, disc, "Y", "X", laplace=bad)
        with pytest.raises(ValueError, match="laplace smoothing must be"):
            causal_change(null_total, disc, disc, "Y", "X", laplace=bad)
    # a positive value is accepted; the marginal needs no smoothing
    assert np.array_equal(
        estimate_effect(null_total, disc, "Y", "X", laplace=1.0).probabilities,
        marginal_table(disc, "Y", "X").probabilities)


def test_direct_effects_reject_laplace():
    data = Dataset(["W1", "X", "W2", "Y"],
                   np.random.default_rng(5).standard_normal((50, 4)),
                   CONTINUOUS)
    null_direct = identify_direct(
        EffectQuery(DG_1H, "Y", "X", shared_order_assumed=True))
    for verdict, x, y in ((_direct_verdict(), "X", "Y"),
                          (null_direct, "Y", "X")):
        assert verdict.effect == "direct"
        for laplace in (-1.0, 1.0):
            with pytest.raises(ValueError, match="total effects only"):
                estimate_effect(verdict, data, x, y, laplace=laplace)
            with pytest.raises(ValueError, match="total effects only"):
                causal_change(verdict, data, data, x, y, laplace=laplace)


def test_causal_change_rejects_bad_inputs():
    data = _gallery_discrete(1)
    not_ident = identify_total(
        EffectQuery(DG_1M, "X", "Y", shared_order_assumed=True))
    with pytest.raises(ValueError, match="NotIdentifiable"):
        causal_change(not_ident, data, data, "X", "Y")
    other = Dataset(["A", "B"], np.zeros((2, 2)), DISCRETE)
    with pytest.raises(ValueError, match="different variables"):
        causal_change(_total_verdict(), data, other, "X", "Y")
    as_continuous = Dataset(data.variable_names, data.rows, CONTINUOUS)
    with pytest.raises(ValueError, match="different kinds"):
        causal_change(_total_verdict(), data, as_continuous, "X", "Y")


def test_causal_change_matches_datasets_by_variable_name():
    """Estimators read columns by name, so the column order of either
    dataset does not matter; a different set of variables still does."""
    order = [3, 0, 2, 1]
    for verdict, data1, data2 in (
            (_total_verdict(), _gallery_discrete(2), _gallery_discrete(3)),
            (_direct_verdict(), _gallery_linear(2, 1.0, n=2000),
             _gallery_linear(3, 0.5, n=2000))):
        permuted = Dataset([data2.variable_names[i] for i in order],
                           data2.rows[:, order], data2.kind)
        aligned = causal_change(verdict, data1, data2, "X", "Y").as_dict()
        assert causal_change(verdict, data1, permuted, "X",
                             "Y").as_dict() == aligned
        renamed = Dataset(("W1", "X", "W2", "Z"), data2.rows, data2.kind)
        with pytest.raises(ValueError, match="different variables"):
            causal_change(verdict, data1, renamed, "X", "Y")


def test_interventional_table_validation():
    with pytest.raises(ValueError, match="sum to 1"):
        InterventionalTable(np.array([[0.5, 0.4], [0.5, 0.5]]))
    with pytest.raises(ValueError, match="sum to 1"):
        InterventionalTable(np.array([[np.nan, np.nan], [0.5, 0.5]]))


def test_formatters_print_one_row_per_grid_cell():
    table = InterventionalTable(
        np.array([[0.25, 0.5, 0.25], [0.125, 0.375, 0.5]]))
    assert format_interventional_table(table, "X", "Y") == (
        "X  Y  P(Y|do(X))\n"
        "0  0  0.250000\n0  1  0.500000\n0  2  0.250000\n"
        "1  0  0.125000\n1  1  0.375000\n1  2  0.500000")
    data1 = _discrete(None, W1=[0] * 4, X=[0, 0, 1, 1], Y=[0, 1, 1, 1])
    data2 = _discrete(None, W1=[0] * 4, X=[0, 0, 1, 1], Y=[0, 0, 0, 1])
    report = causal_change(_total_verdict(), data1, data2, "X", "Y")
    assert format_change_report(report, "X", "Y") == (
        "total causal change for X -> Y (adjustment set: W1)\n"
        "X  Y  P1(y|do(x))  P2(y|do(x))  change\n"
        "0  0  0.500000     1.000000     -0.500000\n"
        "0  1  0.500000     0.000000     0.500000\n"
        "1  0  0.000000     0.500000     -0.500000\n"
        "1  1  1.000000     0.500000     0.500000")


def test_formatters_produce_readable_tables():
    data = _gallery_discrete(2)
    table = adjustment_total(data, "X", "Y", ("W1",))
    text = format_interventional_table(table, "X", "Y")
    assert "P(Y|do(X))" in text.splitlines()[0]
    assert len(text.splitlines()) == 1 + 4

    report = causal_change(_total_verdict(), data, data, "X", "Y")
    rtext = format_change_report(report, "X", "Y")
    assert "change" in rtext.splitlines()[0] or "change" in rtext
    direct = causal_change(
        _direct_verdict(),
        Dataset(["W1", "X", "W2", "Y"],
                np.random.default_rng(3).standard_normal((50, 4)),
                CONTINUOUS),
        Dataset(["W1", "X", "W2", "Y"],
                np.random.default_rng(4).standard_normal((50, 4)),
                CONTINUOUS),
        "X", "Y")
    dtext = format_change_report(direct, "X", "Y")
    assert "population 1" in dtext
