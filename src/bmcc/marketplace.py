"""Priced catalogs of cell-based datasets.

Prices are held as integer cents so budget comparisons are exact; budgets
and table prices are accepted, and catalogs written, as decimal amounts.
Usage-based pricing charges one unit per covered cell, matching the default
used throughout the benchmark harness.
"""

import bisect
import math
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from functools import cached_property

import numpy as np

from .grid import CellBasedDataset, GridConfig, GridError, read_counted_file

USAGE_BASED = "usage_based"
EXPLICIT_TABLE = "explicit_table"

CATALOG_MAGIC = "CBCAT"
CATALOG_VERSION = 1

_CENT = Decimal("0.01")


class MarketplaceError(ValueError):
    """Invalid catalog, pricing configuration or selection of datasets."""


class UnknownDatasetError(KeyError):
    """A dataset id is not present in the catalog."""


class CatalogFormatError(MarketplaceError):
    """A catalog file is malformed or has an unsupported version."""


def to_cents(value) -> int:
    """Convert a decimal amount (int, str, float, Decimal) to integer cents.

    Amounts must be finite and representable at two decimal places; anything
    finer is rejected rather than silently rounded. A ``bool`` is not an
    amount, though Python counts it as an ``int``.
    """
    if isinstance(value, bool):
        raise MarketplaceError(f"not a decimal amount: {value!r}")
    if isinstance(value, int):
        return value * 100
    try:
        d = Decimal(str(value))
    except InvalidOperation:
        raise MarketplaceError(f"not a decimal amount: {value!r}") from None
    if not d.is_finite():
        raise MarketplaceError(f"not a finite amount: {value!r}")
    try:
        q = d.quantize(_CENT)
    except InvalidOperation:
        raise MarketplaceError(f"amount {value!r} is too large") from None
    if q != d:
        raise MarketplaceError(f"amount {value!r} is finer than one cent")
    return int(q * 100)


def price_to_cents(text) -> int:
    """A price read from a file: a positive whole-cent amount, in cents."""
    cents = to_cents(text)
    if cents <= 0:
        raise MarketplaceError(f"price {text!r} is not positive")
    return cents


def cents_to_decimal(cents: int) -> Decimal:
    return Decimal(cents) * _CENT


@dataclass(frozen=True)
class PricingFunction:
    """A dataset's price: its ``table`` entry, in positive int cents, or its
    coverage in whole units when there is no table (usage pricing)."""

    table: dict[str, int] | None = None  # dataset id -> price in cents

    def __post_init__(self):
        if self.table is None:
            return
        # a copy, so the caller's later edits to its dict skip no check
        object.__setattr__(self, "table", dict(self.table))
        if not self.table:
            raise MarketplaceError("explicit_table pricing requires a price table")
        for did, cents in self.table.items():
            if type(cents) is not int or cents <= 0:
                raise MarketplaceError(
                    f"price for {did!r} must be positive int cents, got {cents!r}")

    @property
    def kind(self) -> str:
        """The catalog's ``pricing`` header word."""
        return USAGE_BASED if self.table is None else EXPLICIT_TABLE

    @classmethod
    def usage_based(cls):
        return cls()

    @classmethod
    def from_table(cls, table) -> "PricingFunction":
        """Build table pricing from a mapping of id -> decimal amount."""
        return cls({did: to_cents(value) for did, value in table.items()})


class Marketplace:
    """Immutable catalog of cell-based datasets under one grid, with prices;
    ids are non-empty and whitespace-free, so catalog lines split back into them.

    ``datasets`` is any iterable of datasets, checked in one pass in its order.
    No dataset is kept: their cells are copied in id order into one read-only
    int64 array, ``ids[j]`` owning ``cells[starts[j]:starts[j + 1]]``.
    Without ``pricing``, prices are usage based. ``p_min_cents``,
    ``p_max_cents`` and ``total_price_cents`` summarize the prices.
    """

    def __init__(self, grid: GridConfig, datasets, pricing: PricingFunction | None = None):
        pricing = pricing or PricingFunction.usage_based()
        table = pricing.table
        catalog = {}
        for ds in datasets:
            did = ds.id
            if not isinstance(did, str) or did.split() != [did]:
                raise MarketplaceError(
                    f"dataset id {did!r} must be a non-empty string without whitespace")
            if did in catalog:
                raise MarketplaceError(f"duplicate dataset id {did!r}")
            # loaded and rasterized datasets share their catalog's grid object
            if ds.grid is not grid and ds.grid != grid:
                raise MarketplaceError(f"dataset {did!r} was rasterized under a different grid")
            if table is not None and did not in table:
                raise MarketplaceError(f"price table misses dataset {did!r}")
            catalog[did] = ds.cells
        if not catalog:
            raise MarketplaceError("a catalog must contain at least one dataset")
        ids, arrays = zip(*sorted(catalog.items()))
        cells, starts = np.concatenate(arrays), np.cumsum([0, *map(len, arrays)], dtype=np.int64)
        cells.flags.writeable = starts.flags.writeable = False
        prices = (np.diff(starts) * 100).tolist() if table is None else [table[d] for d in ids]
        vars(self).update(  # past __setattr__, which refuses every assignment
            grid=grid, pricing=pricing, ids=ids, cells=cells, starts=starts,
            p_min_cents=min(prices), p_max_cents=max(prices), total_price_cents=sum(prices),
            _price_cents=dict(zip(ids, prices)))

    def __setattr__(self, name, value):
        raise AttributeError(f"a Marketplace is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"a Marketplace is immutable; cannot delete {name!r}")

    @classmethod
    def build(cls, grid, datasets, pricing=None) -> "Marketplace":
        """The constructor under the name the pipeline calls."""
        return cls(grid, datasets, pricing)

    def __len__(self):
        return len(self.ids)

    @cached_property  # lazy: only solves read it
    def _split(self) -> tuple[dict[str, int], dict[str, frozenset[int]]]:
        """``(solo, shared)``: ``solo[id]`` counts the dataset's cells that no
        other dataset holds, ``shared[id]`` is the frozenset of its others (one
        empty frozenset for most), so a set S covers sum(solo) + |union(shared)|."""
        order = np.argsort(self.cells, kind="stable")
        repeat = np.diff(self.cells[order]) == 0
        held = np.zeros(len(order), dtype=bool)  # cells that another dataset holds too
        held[order[1:][repeat]] = held[order[:-1][repeat]] = True
        sizes = np.diff(self.starts)
        n_shared = np.bincount(np.repeat(np.arange(len(sizes)), sizes)[held], minlength=len(sizes))
        shared = dict.fromkeys(self.ids, frozenset())
        for j in np.flatnonzero(n_shared).tolist():
            rows = slice(self.starts[j], self.starts[j + 1])
            shared[self.ids[j]] = frozenset(self.cells[rows][held[rows]].tolist())
        return dict(zip(self.ids, (sizes - n_shared).tolist())), shared

    def dataset(self, dataset_id: str) -> CellBasedDataset:
        """A read-only view of its rows of ``cells``, found by bisecting the sorted ``ids``."""
        if dataset_id not in self._price_cents:
            raise UnknownDatasetError(dataset_id)
        j = bisect.bisect_left(self.ids, dataset_id)
        rows = self.cells[self.starts[j]:self.starts[j + 1]]
        return CellBasedDataset._unchecked(dataset_id, rows, self.grid)

    def price_cents(self, dataset_id: str) -> int:
        price = self._price_cents.get(dataset_id)
        if price is None:
            raise UnknownDatasetError(dataset_id)
        return price


def save_catalog(market: Marketplace, path) -> None:
    """Serialize a marketplace to the versioned text catalog format.

    Layout: a magic+version line, grid header lines, the pricing kind, then
    one line per dataset: ``<id> <price|-> <n_cells> <cell ids...>`` where the
    price column is ``-`` under usage pricing (it is derivable).
    """
    g = market.grid
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{CATALOG_MAGIC} {CATALOG_VERSION}\n")
        fh.write(f"theta {g.theta}\n")
        fh.write(f"origin {g.origin_x!r} {g.origin_y!r}\n")
        fh.write(f"cell {g.cell_width!r} {g.cell_height!r}\n")
        fh.write(f"pricing {market.pricing.kind}\n")
        fh.write(f"datasets {len(market)}\n")
        cells, starts, table = market.cells.tolist(), market.starts.tolist(), market.pricing.table
        for did, s, e in zip(market.ids, starts, starts[1:]):
            price = "-" if table is None else cents_to_decimal(table[did])
            fh.write(f"{did} {price} {e - s} {' '.join(map(str, cells[s:e]))}\n")


def _finite_float(text) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not finite: {text!r}")
    return value


def _raise_first_line_error(rows, kind, grid):
    """Run every dataset line's checks in file order and raise the error of
    the first line that fails one."""
    seen = set()
    for line, parts in rows:
        if len(parts) < 4:
            raise CatalogFormatError(f"short dataset line at line {line}")
        did, price = parts[0], parts[1]
        if did in seen:
            raise CatalogFormatError(f"repeated dataset id {did!r} at line {line}")
        try:
            if kind == USAGE_BASED and price != "-":
                raise MarketplaceError("price must be '-' under usage pricing")
            if kind == EXPLICIT_TABLE:
                price_to_cents(price)
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
            CellBasedDataset(id=did, cells=cells, grid=grid)
        except GridError as exc:
            raise CatalogFormatError(f"{exc} at line {line}") from None
        seen.add(did)
    raise AssertionError("every dataset line passes its checks")


def load_catalog(path) -> Marketplace:
    """Parse a catalog file written by :func:`save_catalog`.

    The cells of all dataset lines are parsed into one int64 array and
    checked there at once: strictly ascending within each line, ``>= 0`` and
    below ``4**theta``. These are the checks ``CellBasedDataset`` runs, so
    each dataset goes to :class:`Marketplace` as an unchecked view of its
    slice of that array. That pass only accepts or refuses the whole file:
    on any fault, every dataset line's own checks are rerun in file order,
    and the first line that fails one raises :class:`CatalogFormatError`
    with its message and line number.
    """
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

    rows, seen, sizes, tokens, table = list(rows), set(), [], [], {}
    try:  # accepts no faulty line, but need not find one
        for _, parts in rows:
            if len(parts) < 4 or parts[0] in seen or int(parts[2]) != len(parts) - 3:
                raise ValueError
            if kind == EXPLICIT_TABLE:
                table[parts[0]] = price_to_cents(parts[1])
            elif parts[1] != "-":
                raise ValueError
            seen.add(parts[0])
            sizes.append(len(parts) - 3)
            tokens += parts[3:]
        cells = np.array(list(map(int, tokens)), dtype=np.int64)
        bounds = np.zeros(len(sizes) + 1, dtype=np.int64)  # line k owns bounds[k]:bounds[k + 1]
        np.cumsum(sizes, out=bounds[1:])
        bad = (cells < 0) | (cells >= grid.n_cells)
        descending = cells[1:] <= cells[:-1]
        descending[bounds[1:-1] - 1] = False  # a line's first cell follows another line's last
        bad[1:] |= descending
        if bad.any():
            raise ValueError
    except (ValueError, OverflowError):  # MarketplaceError included
        _raise_first_line_error(rows, kind, grid)

    offsets = bounds.tolist()
    datasets = [CellBasedDataset._unchecked(parts[0], cells[s:e], grid)
                for (_, parts), s, e in zip(rows, offsets, offsets[1:])]
    return Marketplace(grid, datasets, PricingFunction(table if kind == EXPLICIT_TABLE else None))
