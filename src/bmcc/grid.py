"""Uniform-grid rasterization of point datasets.

The bounding space is partitioned into a ``2**theta x 2**theta`` grid of
uniform cells. Each cell is identified by a single non-negative integer
obtained by interleaving the bits of its column and row indices (a z-order /
Morton code), so a point dataset reduces to a sorted, duplicate-free array of
cell ids. All downstream machinery (pricing, graph construction, solvers)
operates on these cell-id arrays.

Convention: the column index ``x`` occupies the even bit positions of the
code and the row index ``y`` the odd ones, so ``encode_cell(0, 0) == 0`` and
``encode_cell(1, 0) == 1``. Both ways run the same five shift-and-mask
rounds in int64 (dilated integers, Raman & Wise, IEEE Trans. Computers 2008):
encoding spreads each index onto every other bit, decoding gathers them back.

The datasets of one point file share one read-only block of points, which
:func:`rasterize` encodes in one pass per grid; each call then takes a slice.
"""

from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import accumulate, repeat
from types import SimpleNamespace
import csv
import io
import math
import numbers

import numpy as np

MAX_THETA = 31  # 4**31 - 1 still fits a signed 64-bit cell id

_M1 = 0x5555555555555555
_M2 = 0x3333333333333333
_M4 = 0x0F0F0F0F0F0F0F0F
_M8 = 0x00FF00FF00FF00FF
_M16 = 0x0000FFFF0000FFFF
_M32 = 0x00000000FFFFFFFF
# (shift, spread mask, gathered mask): a round moves blocks of ``shift`` bits
# between the layouts the two masks keep. Encode runs them last to first. As
# int64 scalars, numpy need not convert them on every call.
_ROUNDS = tuple(tuple(map(np.int64, r)) for r in (
    (1, _M1, _M2), (2, _M2, _M4), (4, _M4, _M8), (8, _M8, _M16), (16, _M16, _M32)))


class GridError(ValueError):
    """Base class for grid-level failures."""


class CellRangeError(GridError):
    """An index or cell id falls outside the grid."""


class RasterizationError(GridError):
    """A point lies outside the grid's bounding space."""

    def __init__(self, dataset_id, point, message):
        super().__init__(message)
        self.dataset_id = dataset_id
        self.point = point


class PointFileError(GridError):
    """A point file could not be parsed; carries the offending line number."""

    def __init__(self, line_number, message):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


def _check_theta(theta):
    """A ``bool`` is not a theta, though Python counts it as ``Integral``."""
    if (not isinstance(theta, numbers.Integral) or isinstance(theta, bool)
            or not 1 <= theta <= MAX_THETA):
        raise GridError(f"theta must be an integer in [1, {MAX_THETA}], got {theta!r}")


@dataclass(frozen=True)
class GridConfig:
    """Geometry of the rasterization grid.

    ``(origin_x, origin_y)`` is the bottom-left corner of the bounding space
    and ``cell_width`` / ``cell_height`` are the cell extents in input
    coordinate units; all four are stored as finite Python floats, and
    ``theta`` as a Python int.
    """

    theta: int
    origin_x: float = 0.0
    origin_y: float = 0.0
    cell_width: float = 1.0
    cell_height: float = 1.0

    def __post_init__(self):
        _check_theta(self.theta)
        object.__setattr__(self, "theta", int(self.theta))
        raw = (self.origin_x, self.origin_y, self.cell_width, self.cell_height)
        try:
            extents = tuple(map(float, raw))
        except (TypeError, ValueError, OverflowError):
            extents = (math.nan,)
        if not all(math.isfinite(v) for v in extents):
            raise GridError(f"grid origin and cell extents must be finite numbers, got {raw}")
        for name, value in zip(("origin_x", "origin_y", "cell_width", "cell_height"), extents):
            object.__setattr__(self, name, value)
        if self.cell_width <= 0 or self.cell_height <= 0:
            raise GridError("cell extents must be positive")

    @property
    def side(self) -> int:
        """Cells per grid axis."""
        return 1 << self.theta

    @property
    def n_cells(self) -> int:
        return 1 << (2 * self.theta)

    @classmethod
    def from_envelope(cls, datasets, theta, bounds=None):
        """Fit a grid over ``datasets`` (or explicit ``bounds`` = (x0, y0, x1, y1)).

        Cell extents are the envelope divided by ``2**theta``. A degenerate
        axis (all coordinates equal) gets extent 1.0 so the grid stays valid.
        """
        _check_theta(theta)
        if bounds is not None:
            x0, y0, x1, y1 = map(float, bounds)
        else:
            pts = [d.points for d in datasets]
            if not pts:
                raise GridError("cannot derive an envelope from zero datasets")
            axes = np.ascontiguousarray(np.concatenate(pts).T)  # rows reduce faster
            x0, y0 = axes.min(axis=1).tolist()
            x1, y1 = axes.max(axis=1).tolist()
        if x1 < x0 or y1 < y0:
            raise GridError("envelope maximum lies below its minimum")
        side = 1 << theta
        width = (x1 - x0) / side if x1 > x0 else 1.0
        height = (y1 - y0) / side if y1 > y0 else 1.0
        return cls(theta=theta, origin_x=x0, origin_y=y0,
                   cell_width=width, cell_height=height)


@dataclass(eq=False)
class PointDataset:
    """A raw spatial dataset: an id plus a non-empty sequence of (x, y) points.
    Those :func:`read_points_file` returns are read-only rows of one block."""

    id: str
    points: np.ndarray
    _block = (None, 0, None)  # (block, index, its points); a class attribute, not a field

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] == 0:
            raise GridError(f"dataset {self.id!r}: points must be a non-empty (n, 2) array")
        object.__setattr__(self, "points", pts)


def _over_block(ids, points, ends):
    """Datasets ``ids`` over the rows of ``points`` up to each of ``ends``.
    They share one block: ``points``, made read-only, dataset ``i`` in rows
    ``starts[i]:starts[i + 1]``, and ``cells``, the last grid
    :func:`rasterize` met with :func:`_cells_by_range`'s result on it."""
    points.flags.writeable = False
    block = SimpleNamespace(points=points, starts=[0, *ends], cells=(None, None))
    datasets = [PointDataset(did, points[a:b]) for did, a, b in zip(ids, block.starts, ends)]
    for i, ds in enumerate(datasets):
        ds._block = (block, i, ds.points)
    return datasets


def _exact_integers(values):
    """The 1-d integer ``values`` read exactly: as int64 when numpy gives
    them an integer dtype other than uint64, else as an object array of
    Python ints, because numpy reads an int past int64 as uint64, float64 or
    object, which wraps or rounds it. None when an element is not an
    integer, a float or a bool included."""
    arr = np.asarray(values)
    if arr.dtype.kind in "iu" and arr.dtype != np.uint64:
        return arr.astype(np.int64, copy=False)
    items = arr.tolist() if isinstance(values, np.ndarray) else list(values)
    if arr.dtype.kind not in "ufO" or not all(
            isinstance(v, numbers.Integral) and not isinstance(v, bool) for v in items):
        return None
    return np.array([int(v) for v in items], dtype=object)


@dataclass(eq=False)
class CellBasedDataset:
    """A rasterized dataset: strictly ascending cell ids under one grid.

    Every cell id lies inside ``grid``; catalogs and the distance machinery
    refuse to mix datasets of different grids. The public constructor checks
    all of this. :func:`rasterize` and :func:`bmcc.load_catalog` build their
    datasets with :meth:`_unchecked` instead, because their cells already
    hold it by construction or were checked as one array.
    """

    id: str
    cells: np.ndarray
    grid: GridConfig = field(compare=False)

    def __post_init__(self):
        cells = np.asarray(self.cells)
        if cells.ndim != 1 or cells.size == 0:
            raise GridError(f"dataset {self.id!r}: cells must be a non-empty 1-d array")
        dtype = cells.dtype
        cells = _exact_integers(self.cells)
        if cells is None:  # no float truncation, no bool
            raise GridError(f"dataset {self.id!r}: cell ids must be integers, got {dtype}")
        if cells[0] < 0:
            raise GridError(f"dataset {self.id!r}: negative cell id")
        if cells.size > 1 and not (np.diff(cells) > 0).all():
            raise GridError(f"dataset {self.id!r}: cell ids must be strictly ascending")
        if int(cells[-1]) >= self.grid.n_cells:
            raise CellRangeError(
                f"dataset {self.id!r}: cell id {int(cells[-1])} outside 4**theta")
        object.__setattr__(self, "cells", cells.astype(np.int64, copy=False))  # all in range

    @classmethod
    def _unchecked(cls, id, cells, grid):
        """A dataset over ``cells`` as given, skipping ``__post_init__``: the
        caller guarantees a non-empty 1-d int64 array of strictly ascending
        ids in ``[0, 4**grid.theta)``."""
        ds = object.__new__(cls)
        ds.id, ds.cells, ds.grid = id, cells, grid
        return ds

    @property
    def coverage(self) -> int:
        return int(self.cells.size)


def _interleave(idx):
    """Morton codes of an int64 ``(..., 2)`` array of (x, y) indices below
    2**31, which it overwrites with the indices spread onto the even bits."""
    for shift, spread, _ in reversed(_ROUNDS):
        idx |= idx << shift
        idx &= spread
    return idx[..., 0] | idx[..., 1] << 1


def encode_cell(x: int, y: int, theta: int) -> int:
    """Interleave cell indices into a z-order cell id (x on even bits). A
    theta that ``GridConfig`` refuses, or an index that is not an integer (a
    ``bool`` included), is a :class:`GridError`."""
    _check_theta(theta)
    for axis, index in (("x", x), ("y", y)):
        if not isinstance(index, numbers.Integral) or isinstance(index, bool):
            raise GridError(f"{axis} index must be an integer, got {index!r}")
    side = 1 << theta
    if not 0 <= x < side:
        raise CellRangeError(f"x index {x} outside [0, {side}) at theta={theta}")
    if not 0 <= y < side:
        raise CellRangeError(f"y index {y} outside [0, {side}) at theta={theta}")
    return int(encode_cells(x, y))


def encode_cells(xs, ys) -> np.ndarray:
    """Vectorized Morton encode of index arrays below 2**31 (a y index at or
    above it would wrap the int64); no range checks."""
    return _interleave(np.stack((xs, ys), axis=-1).astype(np.int64, copy=False))


def decode_cells(cell_ids) -> np.ndarray:
    """Vectorized Morton decode to an (n, 2) int64 index array."""
    c = np.asarray(cell_ids, dtype=np.int64)
    v = np.stack((c, c >> 1), -1) & _M1
    for shift, _, gathered in _ROUNDS:
        v |= v >> shift
        v &= gathered
    return v


# A point sitting exactly on the envelope's max corner computes a fractional
# index of side*(1 +/- one ulp); anything within this relative tolerance of
# the boundary clamps to the last cell instead of erroring.
_BOUNDARY_RTOL = 1e-9


def _cells_by_range(points, grid, starts):
    """The cells of each row range ``starts[i]:starts[i + 1]`` of ``points``,
    sorted and duplicate-free, in one array, and each range's bounds in it;
    None when a point lies outside ``grid`` or the range numbers do not fit
    above its cell bits in an int64. One sort of ``range << 2*theta | cell``
    orders the cells by range; a mask of adjacent repeats drops repeats."""
    side, bits, n_sets = grid.side, 2 * grid.theta, len(starts) - 1
    if n_sets >> (63 - bits):
        return None
    with np.errstate(over="ignore"):  # an overflowed index is outside the grid
        f = points - (grid.origin_x, grid.origin_y)
        f /= (grid.cell_width, grid.cell_height)
    if not (f.min() >= 0 and f.max() <= side * (1.0 + _BOUNDARY_RTOL)):
        return None  # a NaN fails both tests
    idx = f.astype(np.int64)  # truncation is floor on indices >= 0
    del f
    np.minimum(idx, side - 1, out=idx)
    keys = _interleave(idx)
    if n_sets > 1:
        keys |= np.repeat(np.arange(n_sets, dtype=np.int64) << bits, np.diff(starts))
    keys.sort()
    keep = np.empty(keys.size, dtype=bool)
    keep[0] = True
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    keys = keys[keep]
    if n_sets == 1:
        return keys, (0, keys.size)
    bounds = np.searchsorted(keys, np.arange(n_sets + 1, dtype=np.int64) << bits).tolist()
    keys &= (1 << bits) - 1
    return keys, bounds


def rasterize(dataset: PointDataset, grid: GridConfig) -> CellBasedDataset:
    """Map every point of ``dataset`` to its cell and return the sorted id set.

    A dataset of a reader's block, its ``points`` still the reader's slice,
    gets a copy of its share of one :func:`_cells_by_range` pass over the
    block, which the block keeps for the last grid only. Other datasets, and
    those of a block with a point outside the grid, take that pass over their
    own points. Points on the upper boundary clamp to the last cell; points
    outside the bounding space, NaN coordinates included, raise
    :class:`RasterizationError` naming the dataset's first. The result is
    built unchecked: sorted in-grid codes without adjacent repeats are
    strictly ascending, non-empty and below ``4**theta``.
    """
    block, i, points = dataset._block
    if block is not None and dataset.points is points:
        cells = block.cells  # read once: another thread may replace it
        if cells[0] is not grid:
            block.cells = cells = (grid, _cells_by_range(block.points, grid, block.starts))
        if cells[1] is not None:
            keys, bounds = cells[1]
            return CellBasedDataset._unchecked(
                dataset.id, keys[bounds[i]:bounds[i + 1]].copy(), grid)
    pts = dataset.points
    cells = _cells_by_range(pts, grid, (0, len(pts)))
    if cells is None:
        with np.errstate(over="ignore"):
            f = (pts - (grid.origin_x, grid.origin_y)) / (grid.cell_width, grid.cell_height)
        ok = (f >= 0) & (f <= grid.side * (1.0 + _BOUNDARY_RTOL))
        pt = tuple(pts[np.argmin(ok.all(axis=1))].tolist())
        raise RasterizationError(
            dataset.id, pt, f"dataset {dataset.id!r}: point {pt} outside the bounding space")
    return CellBasedDataset._unchecked(dataset.id, cells[0], grid)


@contextmanager
def open_text(path, error, newline=None):
    """Open ``path`` for reading as UTF-8 text, dropping one leading byte
    order mark (as spreadsheet exports write). Bytes that do not decode
    raise ``error`` with a message naming the path."""
    with open(path, "r", encoding="utf-8-sig", newline=newline) as fh:
        try:
            yield fh
        except UnicodeDecodeError:
            raise error(f"{path}: not a UTF-8 text file") from None


def read_counted_file(path, magic, version, keys, records, error):
    """Read a versioned text file of counted record lines.

    The layout is a ``<magic> <version>`` line, one ``<key> <values...>``
    line per ``(key, cast, n_values)`` of ``keys``, a ``<records> <count>``
    line, then ``count`` record lines; only blank lines may follow them.
    Returns the list of cast values of each key, in order, and an iterator
    of one ``(line number, tokens)`` pair per record line. Anything else, a
    file that is not UTF-8 included, raises ``error`` naming the line.
    """
    with open_text(path, error) as fh:
        lines = fh.read().splitlines()
    head = lines[0].split() if lines else []
    if len(head) != 2 or head[0] != magic:
        raise error(f"bad magic at line 1: expected '{magic} {version}'")
    if head[1] != str(version):
        raise error(f"unsupported {magic} version {head[1]!r} at line 1")
    values = []
    for number, (key, cast, n_values) in enumerate([*keys, (records, int, 1)], start=2):
        parts = lines[number - 1].split() if number <= len(lines) else []
        try:
            if len(parts) == n_values + 1 and parts[0] == key:
                values.append([cast(p) for p in parts[1:]])
                continue
        except ValueError:
            pass
        raise error(f"missing or malformed '{key}' line at line {number}")
    (count,) = values.pop()
    first = len(keys) + 2  # index of the first record line
    if count < 0:
        raise error(f"negative '{records}' count {count} at line {first}")
    end = first + count
    if len(lines) < end:
        raise error(f"expected {count} lines after '{records} {count}', found "
                    f"{len(lines) - first}: line {len(lines) + 1} is missing")
    extra = next((i for i in range(end, len(lines)) if lines[i].strip()), None)
    if extra is not None:
        raise error(f"line {extra + 1} is past the {count} lines counted by '{records}'")
    return values, ((i + 1, lines[i].split()) for i in range(first, end))


def _read_points_array(text):
    """The datasets of point-file ``text``, read as arrays, or None when the
    text is not of the plain shape this pass covers.

    After CRLF line ends become LF, the text must hold no quote, no other CR
    and no NUL (which the csv module refuses before Python 3.11); every line
    must have the header's field count and be no longer than the csv
    module's field size limit; every coordinate must parse with ``float``
    and be finite; and every id, stripped, must be non-empty and hold no
    whitespace. Such text splits at commas exactly as the csv module splits
    it, and holds no fault the csv pass would raise.
    Datasets come out in first-seen order of their stripped ids, grouped by
    one stable argsort into one read-only block (see :func:`rasterize`).
    """
    text = text.replace("\r\n", "\n")
    if '"' in text or "\r" in text or "\0" in text:
        return None
    lines = text.split("\n")
    del text
    if lines[-1] == "":  # the last line's break
        lines.pop()
    if len(lines) < 2 or max(map(len, lines)) > csv.field_size_limit():
        return None
    header = lines.pop(0).split(",")
    names = [h.strip().lower() for h in header]
    if not {"dataset_id", "x", "y"} <= set(names):
        return None
    id_col, x_col, y_col = map(names.index, ("dataset_id", "x", "y"))
    width = len(header)
    if set(map(str.count, lines, repeat(","))) != {width - 1}:
        return None
    n = len(lines)
    body = ",".join(lines)
    del lines
    tokens = body.split(",")
    del body
    pts = np.empty((n, 2))
    try:
        pts[:, 0] = np.fromiter(map(float, tokens[x_col::width]), np.float64, n)
        pts[:, 1] = np.fromiter(map(float, tokens[y_col::width]), np.float64, n)
    except ValueError:
        return None
    if not np.isfinite(pts).all():
        return None
    raw_ids = tokens[id_col::width]
    del tokens
    group = dict.fromkeys(raw_ids)  # raw ids in first-seen order
    ids = {}  # stripped ids in first-seen order, to their group
    for raw in group:
        parts = raw.split()  # one part: non-empty and no inner whitespace
        if len(parts) != 1:
            return None
        group[raw] = ids.setdefault(parts[0], len(ids))
    owner = np.fromiter(map(group.__getitem__, raw_ids), np.intp, n)
    del raw_ids
    return _over_block(ids, pts[np.argsort(owner, kind="stable")],
                       np.cumsum(np.bincount(owner)).tolist())


def read_points_file(path) -> list[PointDataset]:
    """Parse a comma-separated point file into datasets, in first-seen order.

    The file must be UTF-8 with a header row naming the ``dataset_id``, ``x``
    and ``y`` columns (any order, extra columns ignored); lines end in LF or
    CRLF. The text is read whole, so a file that is not UTF-8 fails as such
    before any of its lines is checked. Plain text, with no quote, lone CR,
    blank or ragged line and no faulty value, takes one array pass (see
    :func:`_read_points_array`). Any other text is read again and goes
    whole, from line 1, to the csv module's row loop, the only source of
    point-file errors: malformed rows and non-finite coordinates fail with
    their line number, the physical line, the last one of a row whose quoted
    field spans lines. Either way the datasets share one block: their points
    are read-only row slices of one array, which :func:`rasterize` encodes in
    one pass.
    """
    with open_text(path, GridError, newline="") as fh:
        datasets = _read_points_array(fh.read())
        if datasets is not None:
            return datasets
        fh.seek(0)
        text = fh.read()
    groups: dict[str, list[tuple[float, float]]] = {}
    with io.StringIO(text, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise PointFileError(1, "empty file (header row required)")
            names = [h.strip().lower() for h in header]
            try:
                id_col = names.index("dataset_id")
                x_col = names.index("x")
                y_col = names.index("y")
            except ValueError:
                raise PointFileError(
                    1, "header must name dataset_id, x and y columns") from None
            width = max(id_col, x_col, y_col) + 1
            for row in reader:
                line_no = reader.line_num  # a quoted field may span lines
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                if len(row) < width:
                    raise PointFileError(line_no, f"expected at least {width} columns")
                did = row[id_col].strip()
                pts = groups.get(did)
                if pts is None:  # an id is checked once, on the line that first names it
                    if not did:
                        raise PointFileError(line_no, "empty dataset_id")
                    if any(ch.isspace() for ch in did):
                        raise PointFileError(line_no, f"dataset_id {did!r} contains whitespace")
                    pts = groups[did] = []
                try:
                    x = float(row[x_col])
                    y = float(row[y_col])
                except ValueError:
                    raise PointFileError(line_no, f"bad coordinate in row {row!r}") from None
                if not (math.isfinite(x) and math.isfinite(y)):
                    raise PointFileError(line_no, f"non-finite coordinate in row {row!r}")
                pts.append((x, y))
        except csv.Error as exc:  # e.g. a field over the csv module's size limit
            raise PointFileError(reader.line_num, str(exc)) from None
    if not groups:
        raise PointFileError(2, "no data rows")
    return _over_block(groups, np.array([p for pts in groups.values() for p in pts]),
                       list(accumulate(map(len, groups.values()))))


def write_points_file(path, datasets) -> None:
    """Write datasets in the ingestion format (header + one point per row)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["dataset_id", "x", "y"])
        for d in datasets:
            for x, y in d.points:
                writer.writerow([d.id, repr(float(x)), repr(float(y))])
