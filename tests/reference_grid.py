"""The uint64 Morton encode, the per-axis ``rasterize`` and the point-file
reader that :mod:`bmcc.grid` replaced, kept as a differential oracle.

``rasterize`` here floors each axis on its own and spreads each index with
five shift-and-mask rounds in uint64, each a fresh array; ``read_points_file``
checks every row's id for emptiness and whitespace. ``test_grid.py`` checks
that the in-place int64 rounds encode as these do and that the
one-expression ``rasterize`` gives the same cells, or the same error naming
the same point, and ``test_parser_fuzz.py`` that the reader which checks
each id once gives the same datasets, or the same error on the same line."""

import csv
import math

import numpy as np

from bmcc.grid import (
    _BOUNDARY_RTOL,
    CellBasedDataset,
    GridError,
    PointDataset,
    PointFileError,
    RasterizationError,
    open_text,
)

_M1 = 0x5555555555555555
_M2 = 0x3333333333333333
_M4 = 0x0F0F0F0F0F0F0F0F
_M8 = 0x00FF00FF00FF00FF
_M16 = 0x0000FFFF0000FFFF


def spread_bits(v):
    """Spread the low 32 bits of ``v`` onto even bit positions (vectorized)."""
    v = np.asarray(v, dtype=np.uint64)
    v = (v | (v << np.uint64(16))) & np.uint64(_M16)
    v = (v | (v << np.uint64(8))) & np.uint64(_M8)
    v = (v | (v << np.uint64(4))) & np.uint64(_M4)
    v = (v | (v << np.uint64(2))) & np.uint64(_M2)
    v = (v | (v << np.uint64(1))) & np.uint64(_M1)
    return v


def encode_cells(xs, ys):
    return (spread_bits(xs) | (spread_bits(ys) << np.uint64(1))).astype(np.int64)


def rasterize(dataset, grid):
    side = grid.side
    with np.errstate(over="ignore"):  # an overflowed index is outside the grid
        fx = (dataset.points[:, 0] - grid.origin_x) / grid.cell_width
        fy = (dataset.points[:, 1] - grid.origin_y) / grid.cell_height
    limit = side * (1.0 + _BOUNDARY_RTOL)
    bad = ~((fx >= 0) & (fy >= 0) & (fx <= limit) & (fy <= limit))
    if bad.any():
        i = int(np.argmax(bad))
        pt = tuple(dataset.points[i].tolist())
        raise RasterizationError(
            dataset.id, pt, f"dataset {dataset.id!r}: point {pt} outside the bounding space")
    ix = np.minimum(np.floor(fx).astype(np.int64), side - 1)
    iy = np.minimum(np.floor(fy).astype(np.int64), side - 1)
    cells = np.unique(encode_cells(ix, iy))
    return CellBasedDataset(id=dataset.id, cells=cells, grid=grid)


def read_points_file(path, delimiter=","):
    groups = {}
    with open_text(path, GridError, newline="") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise PointFileError(1, "empty file (header row required)") from None
        names = [h.strip().lower() for h in header]
        try:
            id_col = names.index("dataset_id")
            x_col = names.index("x")
            y_col = names.index("y")
        except ValueError:
            raise PointFileError(
                1, "header must name dataset_id, x and y columns") from None
        for line_no, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) <= max(id_col, x_col, y_col):
                raise PointFileError(line_no, f"expected at least {max(id_col, x_col, y_col) + 1} columns")
            did = row[id_col].strip()
            if not did:
                raise PointFileError(line_no, "empty dataset_id")
            if any(ch.isspace() for ch in did):
                raise PointFileError(line_no, f"dataset_id {did!r} contains whitespace")
            try:
                x = float(row[x_col])
                y = float(row[y_col])
            except ValueError:
                raise PointFileError(line_no, f"bad coordinate in row {row!r}") from None
            if not (math.isfinite(x) and math.isfinite(y)):
                raise PointFileError(line_no, f"non-finite coordinate in row {row!r}")
            groups.setdefault(did, []).append((x, y))
    if not groups:
        raise PointFileError(2, "no data rows")
    return [PointDataset(id=did, points=np.array(pts)) for did, pts in groups.items()]
