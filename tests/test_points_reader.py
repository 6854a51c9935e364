"""The point reader's two passes: the array pass over plain text and the
csv module's row loop over every other text.

A hypothesis property draws files that are mostly plain: LF or CRLF, an
optional byte order mark, repeated, interleaved and padded ids, extra header
columns in any order, and coordinate spellings that ``float`` reads. Now and
then one line is faulty or not plain. Each file must give the datasets, or
the error on the line, of the reader kept in ``reference_grid``. The route
tests pin which files take which pass, so that neither pass is dead.
"""

import codecs
import csv
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bmcc.grid
import reference_grid
from bmcc.grid import GridError, PointFileError, _read_points_array, read_points_file

from conftest import DATA_DIR

FIELD_LIMIT = 100  # the csv module's field size limit while the property runs
IDS = ("d0", "d1", " d1 ", "d2", "\td2", "d10")
SPELLINGS = ("1_0", "+1", " 0.5", "-0.0", "7", "2.5e-3", "1E2")
BAD_SPELLINGS = ("1e400", "infinity", "nan", "0x1", "", "x")
FAULTS = (*BAD_SPELLINGS, "empty-id", "spaced-id", "ragged-short", "ragged-long", "blank",
          "space", "lone-cr", "quoted", "over-limit-field", "long-line")
coordinate = st.one_of(st.floats(-2, 2).map(repr), st.sampled_from(SPELLINGS))


@st.composite
def point_file(draw):
    """``(text, byte order mark, faulty)``: a point file's text, whether a
    byte order mark precedes it, and whether a fault was put in."""
    extras = draw(st.lists(st.sampled_from(("note", "z", "id")), unique=True, max_size=2))
    columns = draw(st.permutations(["dataset_id", "x", "y", *extras]))
    header = ",".join(draw(st.sampled_from((c, c.upper(), f" {c}"))) for c in columns)
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        values = {c: draw(st.sampled_from(("", "z", "7"))) for c in extras}
        values.update(dataset_id=draw(st.sampled_from(IDS)), x=draw(coordinate),
                      y=draw(coordinate))
        rows.append(values)
    lines = [",".join(row[c] for c in columns) for row in rows]
    newline = draw(st.sampled_from(("\n", "\r\n")))
    breaks = [newline] * len(lines)
    fault = draw(st.sampled_from((None,) * len(FAULTS) + FAULTS))  # half of the files
    at = draw(st.integers(0, len(rows) - 1))
    row = rows[at]
    if fault in BAD_SPELLINGS:
        row[draw(st.sampled_from(("x", "y")))] = fault
    elif fault in ("empty-id", "spaced-id"):
        row["dataset_id"] = " " if fault == "empty-id" else "d 1"
    elif fault == "quoted":
        row["dataset_id"] = f'"{row["dataset_id"]}"'
    elif fault == "over-limit-field":
        row[draw(st.sampled_from(columns))] = "1" * (FIELD_LIMIT + 1)
    elif fault == "long-line":  # over the limit as a line, not as any field
        row["x"] = row["y"] = "0." + "0" * (FIELD_LIMIT // 2)
    lines[at] = ",".join(row[c] for c in columns)
    if fault == "ragged-short":
        lines[at] = lines[at].rsplit(",", 1)[0]
    elif fault == "ragged-long":
        lines[at] += ",7"
    elif fault in ("blank", "space"):
        lines.insert(at, "" if fault == "blank" else " ")
        breaks.append(newline)
    elif fault == "lone-cr":
        breaks[at] = "\r"
    body = "".join(line + end for line, end in zip(lines, breaks))
    if not draw(st.booleans()):  # no break after the last line
        body = body[:-len(breaks[-1])]
    return header + newline + body, draw(st.booleans()), fault is not None


def points_outcome(parser, path):
    """Each dataset's id and point bytes, in order, or the typed error raised
    with its line number and message."""
    try:
        return [(d.id, d.points.tobytes()) for d in parser(path)]
    except GridError as exc:
        return type(exc), getattr(exc, "line_number", None), str(exc)


def reference_outcome(path, text):
    """The reference reader's outcome. It lets the csv module's error on a
    field over the size limit escape, so that error is named here, on the
    physical line of the field, as :func:`read_points_file` names it."""
    try:
        return points_outcome(reference_grid.read_points_file, path)
    except csv.Error as exc:
        lines = re.split(r"\r\n|\r|\n", text)
        number = next(i for i, line in enumerate(lines, start=1)
                      if any(len(f) > FIELD_LIMIT for f in line.split(",")))
        return PointFileError, number, f"line {number}: {exc}"


@pytest.fixture(scope="module")
def scratch_file(tmp_path_factory):
    return tmp_path_factory.mktemp("points") / "points.csv"


@settings(max_examples=500, deadline=None)
@given(drawn=point_file())
def test_array_pass_matches_reference(scratch_file, drawn):
    text, marked, faulty = drawn
    scratch_file.write_bytes((codecs.BOM_UTF8 if marked else b"") + text.encode())
    limit = csv.field_size_limit(FIELD_LIMIT)
    try:
        want = reference_outcome(scratch_file, text)
        assert points_outcome(read_points_file, scratch_file) == want
        if not faulty:  # a plain file takes the array pass
            assert _read_points_array(text) is not None
    finally:
        csv.field_size_limit(limit)


def perfbench_style_file(path):
    """250 datasets of 20 points, written as the benchmark writes them: LF
    line ends and ``repr`` coordinates, one dataset after another."""
    rng = np.random.default_rng(7)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("dataset_id,x,y\n")
        for i in range(250):
            fh.writelines(f"d{i:03d},{x!r},{y!r}\n" for x, y in rng.random((20, 2)).tolist())
    return path


class CsvReached(Exception):
    pass


def refuse_csv(monkeypatch):
    """Make every call of ``csv.reader`` raise :class:`CsvReached`."""
    def reader(*args, **kwargs):
        raise CsvReached
    monkeypatch.setattr(bmcc.grid.csv, "reader", reader)


class TestRoutes:
    def test_plain_files_take_the_array_pass(self, tmp_path, monkeypatch):
        lf = perfbench_style_file(tmp_path / "lf.csv")
        crlf = DATA_DIR / "synth1000.csv"
        assert b"\r\n" in crlf.read_bytes()
        want = [points_outcome(reference_grid.read_points_file, p) for p in (lf, crlf)]
        refuse_csv(monkeypatch)
        got = [points_outcome(read_points_file, p) for p in (lf, crlf)]
        assert got == want
        assert len(got[0]) == 250 and len(got[1]) == 1000

    @pytest.mark.parametrize("text", [
        'dataset_id,x,y\n"a",0.1,0.2\n',
        "dataset_id,x,y,note\na,0.1,0.2,z\rb\n",  # the csv module ends a row at the CR
        "dataset_id,x,y\na,0.1,0.2\n\nb,0.3,0.4\n",
        "dataset_id,x,y\na,0.1,0.2\nb,0.3," + "4" * 200_000 + "\n",
        "dataset_id,x,y,note\na,0.1,0.2,\0\n",  # the csv module refuses NUL before 3.11
        "dataset_id,x,y\n1,0.1\n2,0.3,0.4,0.5\n",  # split at commas alone: two rows
    ], ids=["quoted-id", "lone-cr", "blank-line", "over-limit-line", "nul", "ragged-pair"])
    def test_other_files_reach_the_csv_reader(self, tmp_path, monkeypatch, text):
        path = tmp_path / "pts.csv"
        path.write_text(text, encoding="utf-8", newline="")
        refuse_csv(monkeypatch)
        with pytest.raises(CsvReached):
            read_points_file(path)


def test_a_file_not_utf8_fails_as_such_before_its_lines_are_checked(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_bytes(b"dataset_id,x,y\na,zzz,0.3\n" + b"a,0.1,0.2\n" * 10_000 + b"b,\xff,0\n")
    with pytest.raises(GridError, match="not a UTF-8 text file") as info:
        read_points_file(path)
    assert not isinstance(info.value, PointFileError)
