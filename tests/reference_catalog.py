"""The catalog loader that :func:`bmcc.load_catalog` replaced, kept as a
differential oracle.

It parses each dataset line's cells into its own array and builds each
dataset with the checked ``CellBasedDataset`` constructor, so every line
is checked on its own, in file order. ``test_parser_fuzz.py`` checks that the
loader which parses and checks all cells as one array gives the same catalog,
or the same error with the same message."""

import numpy as np

from bmcc.grid import CellBasedDataset, GridConfig, GridError, read_counted_file
from bmcc.marketplace import (
    CATALOG_MAGIC,
    CATALOG_VERSION,
    EXPLICIT_TABLE,
    USAGE_BASED,
    CatalogFormatError,
    Marketplace,
    MarketplaceError,
    PricingFunction,
    _finite_float,
    price_to_cents,
)


def load_catalog(path) -> Marketplace:
    """Parse a catalog file written by :func:`save_catalog`."""
    header, rows = read_counted_file(
        path, CATALOG_MAGIC, CATALOG_VERSION,
        [("theta", int, 1), ("origin", _finite_float, 2), ("cell", _finite_float, 2),
         ("pricing", str, 1)],
        "datasets", CatalogFormatError)
    (theta,), (ox, oy), (cw, ch), (kind,) = header

    def grid_at(line, **fields):
        try:
            return GridConfig(**fields)
        except GridError as exc:
            raise CatalogFormatError(f"{exc} at line {line}") from None

    grid_at(2, theta=theta)
    grid = grid_at(4, theta=theta, origin_x=ox, origin_y=oy, cell_width=cw, cell_height=ch)
    if kind not in (EXPLICIT_TABLE, USAGE_BASED):
        raise CatalogFormatError(f"unknown pricing kind {kind!r} at line 5")

    datasets = {}
    table = {}
    for line, parts in rows:
        if len(parts) < 4:
            raise CatalogFormatError(f"short dataset line at line {line}")
        did, price = parts[0], parts[1]
        if did in datasets:
            raise CatalogFormatError(f"repeated dataset id {did!r} at line {line}")
        try:
            if kind == USAGE_BASED and price != "-":
                raise MarketplaceError("price must be '-' under usage pricing")
            if kind == EXPLICIT_TABLE:
                table[did] = price_to_cents(price)
        except MarketplaceError as exc:
            raise CatalogFormatError(f"dataset {did!r}: {exc} at line {line}") from None
        try:
            n = int(parts[2])
            cells = np.array([int(c) for c in parts[3:]], dtype=np.int64)
        except ValueError:
            raise CatalogFormatError(
                f"dataset {did!r}: non-integer count or cell at line {line}") from None
        except OverflowError:
            raise CatalogFormatError(
                f"dataset {did!r}: cell id outside int64 at line {line}") from None
        if len(cells) != n:
            raise CatalogFormatError(f"dataset {did!r}: cell count mismatch at line {line}")
        try:
            ds = CellBasedDataset(id=did, cells=cells, grid=grid)
        except GridError as exc:
            raise CatalogFormatError(f"{exc} at line {line}") from None
        datasets[did] = ds
    return Marketplace(grid, datasets.values(),
                       PricingFunction(table if kind == EXPLICIT_TABLE else None))
