"""Priced catalogs of cell-based datasets.

Prices are held internally as integer cents so budget comparisons are exact;
the public surface accepts and returns decimal amounts. Usage-based pricing
charges one unit per covered cell, matching the default used throughout the
benchmark harness.
"""

import math
from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation

import numpy as np

from .grid import CellBasedDataset, GridConfig, GridError, open_text

USAGE_BASED = "usage_based"
EXPLICIT_TABLE = "explicit_table"

CATALOG_MAGIC = "CBCAT"
CATALOG_VERSION = 1

_CENT = Decimal("0.01")


class MarketplaceError(ValueError):
    """Invalid catalog or pricing configuration."""


class UnknownDatasetError(KeyError):
    """A dataset id is not present in the catalog."""


class CatalogFormatError(MarketplaceError):
    """A catalog file is malformed or has an unsupported version."""


def to_cents(value) -> int:
    """Convert a decimal amount (int, str, float, Decimal) to integer cents.

    Amounts must be finite and representable at two decimal places; anything
    finer is rejected rather than silently rounded.
    """
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


def cents_to_decimal(cents: int) -> Decimal:
    return Decimal(cents) * _CENT


@dataclass(frozen=True)
class PricingFunction:
    """Either usage-based (price == coverage) or an explicit per-dataset table."""

    kind: str = USAGE_BASED
    table: dict[str, int] | None = None  # dataset id -> price in cents

    def __post_init__(self):
        if self.kind not in (USAGE_BASED, EXPLICIT_TABLE):
            raise MarketplaceError(f"unknown pricing kind {self.kind!r}")
        if self.kind == EXPLICIT_TABLE:
            if not self.table:
                raise MarketplaceError("explicit_table pricing requires a price table")
            for did, cents in self.table.items():
                if type(cents) is not int or cents <= 0:
                    raise MarketplaceError(
                        f"price for {did!r} must be positive int cents, got {cents!r}")

    @classmethod
    def usage_based(cls):
        return cls(kind=USAGE_BASED)

    @classmethod
    def from_table(cls, table) -> "PricingFunction":
        """Build table pricing from a mapping of id -> decimal amount."""
        return cls(kind=EXPLICIT_TABLE,
                   table={did: to_cents(value) for did, value in table.items()})


@dataclass(eq=False)
class Marketplace:
    """Immutable catalog of cell-based datasets under one grid, with prices;
    ids are non-empty and whitespace-free, so catalog lines split back into them."""

    grid: GridConfig
    datasets: dict[str, CellBasedDataset]
    pricing: PricingFunction
    _price_cents: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        if not self.datasets:
            raise MarketplaceError("a catalog must contain at least one dataset")
        self.datasets = {did: self.datasets[did] for did in sorted(self.datasets)}
        prices = {}
        for did, ds in self.datasets.items():
            if not isinstance(did, str) or did.split() != [did]:
                raise MarketplaceError(
                    f"dataset id {did!r} must be a non-empty string without whitespace")
            if ds.id != did:
                raise MarketplaceError(f"dataset keyed {did!r} carries id {ds.id!r}")
            if ds.grid is not None and ds.grid != self.grid:
                raise MarketplaceError(f"dataset {did!r} was rasterized under a different grid")
            if int(ds.cells[-1]) >= self.grid.n_cells:
                raise MarketplaceError(f"dataset {did!r} has cell ids outside the grid")
            if self.pricing.kind == USAGE_BASED:
                prices[did] = ds.coverage * 100
            else:
                if did not in self.pricing.table:
                    raise MarketplaceError(f"price table misses dataset {did!r}")
                prices[did] = self.pricing.table[did]
        self._price_cents = prices

    @classmethod
    def build(cls, grid, datasets, pricing=None) -> "Marketplace":
        """Assemble a marketplace from an iterable of datasets."""
        pricing = pricing or PricingFunction.usage_based()
        catalog = {}
        for ds in datasets:
            if ds.id in catalog:
                raise MarketplaceError(f"duplicate dataset id {ds.id!r}")
            catalog[ds.id] = ds
        return cls(grid=grid, datasets=catalog, pricing=pricing)

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(self.datasets)

    def __len__(self):
        return len(self.datasets)

    def dataset(self, dataset_id: str) -> CellBasedDataset:
        try:
            return self.datasets[dataset_id]
        except KeyError:
            raise UnknownDatasetError(dataset_id) from None

    def price_cents(self, dataset_id: str) -> int:
        try:
            return self._price_cents[dataset_id]
        except KeyError:
            raise UnknownDatasetError(dataset_id) from None

    def price(self, dataset_id: str) -> Decimal:
        """Price of one dataset: its coverage under usage pricing, else the table value."""
        return cents_to_decimal(self.price_cents(dataset_id))

    @property
    def p_min_cents(self) -> int:
        return min(self._price_cents.values())

    @property
    def p_max_cents(self) -> int:
        return max(self._price_cents.values())

    @property
    def total_price_cents(self) -> int:
        return sum(self._price_cents.values())

    def affordable_subset(self, budget) -> set[str]:
        """Ids of all datasets individually priced within ``budget``."""
        b = to_cents(budget)
        return {did for did, c in self._price_cents.items() if c <= b}


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
        for did, ds in market.datasets.items():
            if market.pricing.kind == USAGE_BASED:
                price = "-"
            else:
                price = str(cents_to_decimal(market.price_cents(did)))
            cells = " ".join(str(int(c)) for c in ds.cells)
            fh.write(f"{did} {price} {ds.coverage} {cells}\n")


def _finite_float(text) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not finite: {text!r}")
    return value


def load_catalog(path) -> Marketplace:
    """Parse a catalog file written by :func:`save_catalog`."""
    with open_text(path, CatalogFormatError) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise CatalogFormatError("empty catalog file")
    head = lines[0].split()
    if len(head) != 2 or head[0] != CATALOG_MAGIC:
        raise CatalogFormatError("not a catalog file (bad magic)")
    if head[1] != str(CATALOG_VERSION):
        raise CatalogFormatError(f"unsupported catalog version {head[1]!r}")

    def expect(idx, key, cast, n_values=1):
        parts = lines[idx].split() if idx < len(lines) else []
        try:
            if len(parts) == n_values + 1 and parts[0] == key:
                return [cast(p) for p in parts[1:]]
        except ValueError:
            pass
        raise CatalogFormatError(f"missing or malformed '{key}' line at line {idx + 1}")

    def grid_at(idx, **fields):
        try:
            return GridConfig(**fields)
        except GridError as exc:
            raise CatalogFormatError(f"{exc} at line {idx + 1}") from None

    theta, = expect(1, "theta", int)
    grid_at(1, theta=theta)
    ox, oy = expect(2, "origin", _finite_float, 2)
    cw, ch = expect(3, "cell", _finite_float, 2)
    grid = grid_at(3, theta=theta, origin_x=ox, origin_y=oy, cell_width=cw, cell_height=ch)
    kind, = expect(4, "pricing", str)
    if kind not in (EXPLICIT_TABLE, USAGE_BASED):
        raise CatalogFormatError(f"unknown pricing kind {kind!r} at line 5")
    count, = expect(5, "datasets", int)
    if count < 0:
        raise CatalogFormatError(f"negative dataset count {count} at line 6")
    extra = next((i for i in range(6 + count, len(lines)) if lines[i].strip()), None)
    if extra is not None:
        raise CatalogFormatError(f"line {extra + 1} is past the {count} dataset lines")

    datasets = []
    table = {}
    for offset in range(count):
        idx = 6 + offset
        if idx >= len(lines):
            raise CatalogFormatError(f"expected {count} dataset lines, found {offset}")
        parts = lines[idx].split()
        if len(parts) < 4:
            raise CatalogFormatError(f"short dataset line at line {idx + 1}")
        did, price = parts[0], parts[1]
        try:
            n = int(parts[2])
            cells = [int(c) for c in parts[3:]]
        except ValueError:
            raise CatalogFormatError(
                f"dataset {did!r}: non-integer count or cell at line {idx + 1}") from None
        if len(cells) != n:
            raise CatalogFormatError(f"dataset {did!r}: cell count mismatch at line {idx + 1}")
        try:
            ds = CellBasedDataset(id=did, cells=np.array(cells, dtype=np.int64), grid=grid)
        except GridError as exc:
            raise CatalogFormatError(f"dataset {did!r}: {exc}") from None
        datasets.append(ds)
        if price != "-":
            table[did] = price
    if kind == EXPLICIT_TABLE:
        pricing = PricingFunction.from_table(table)
    else:
        pricing = PricingFunction.usage_based()
    return Marketplace.build(grid, datasets, pricing)
