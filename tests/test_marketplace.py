from decimal import Decimal

import numpy as np
import pytest

from bmcc.grid import CellBasedDataset, GridConfig
from bmcc.marketplace import (
    EXPLICIT_TABLE,
    CatalogFormatError,
    Marketplace,
    MarketplaceError,
    PricingFunction,
    UnknownDatasetError,
    cents_to_decimal,
    load_catalog,
    save_catalog,
    to_cents,
)

from conftest import make_market, random_market


class TestMoney:
    def test_integers_and_strings(self):
        assert to_cents(5) == 500
        assert to_cents("5") == 500
        assert to_cents("5.25") == 525
        assert to_cents(Decimal("0.01")) == 1

    def test_sub_cent_rejected(self):
        with pytest.raises(MarketplaceError):
            to_cents("1.999")

    def test_round_trip(self):
        assert cents_to_decimal(to_cents("12.34")) == Decimal("12.34")

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "snan", "Infinity",
                                       "1e100000", "1e400", float("inf")])
    def test_non_finite_or_huge_amount_rejected_naming_value(self, value):
        with pytest.raises(MarketplaceError, match=repr(value)):
            to_cents(value)


class TestPricing:
    def test_usage_price_equals_coverage(self, example2_market):
        m = example2_market
        assert [int(m.price(d)) for d in m.ids] == [5, 6, 4, 4, 2]
        for did in m.ids:
            assert m.price(did) == m.dataset(did).coverage

    def test_worked_example_set_price(self):
        m = make_market({"d1": [(0, 0), (1, 1), (2, 2), (3, 3), (0, 3)]}, theta=2)
        assert m.price("d1") == 5

    def test_table_passthrough(self):
        m = make_market({"d1": [(0, 0)]}, theta=2, prices={"d1": 7})
        assert m.price("d1") == 7

    def test_table_must_cover_catalog(self):
        grid = GridConfig(theta=2)
        d1 = CellBasedDataset(id="d1", cells=np.array([0]), grid=grid)
        d2 = CellBasedDataset(id="d2", cells=np.array([1]), grid=grid)
        pricing = PricingFunction.from_table({"d1": 7})
        with pytest.raises(MarketplaceError, match="d2"):
            Marketplace.build(grid, [d1, d2], pricing)

    def test_unknown_id_lookup(self, example2_market):
        with pytest.raises(UnknownDatasetError):
            example2_market.price("nope")

    def test_nonpositive_price_rejected(self):
        with pytest.raises(MarketplaceError):
            PricingFunction.from_table({"d1": 0})

    @pytest.mark.parametrize("cents", [0, -150, 150.0, "150", True])
    def test_explicit_table_holds_positive_int_cents(self, cents):
        """A table built directly is checked as ``from_table``'s is, so no
        free or negative price reaches a solver's ratio keys."""
        with pytest.raises(MarketplaceError, match="price for 'd1'"):
            PricingFunction(kind=EXPLICIT_TABLE, table={"d1": cents, "d2": 100})

    def test_pmin_pmax_bracket_all_prices(self, example2_market):
        m = example2_market
        assert m.p_min_cents == 200 and m.p_max_cents == 600
        for did in m.ids:
            assert m.p_min_cents <= m.price_cents(did) <= m.p_max_cents


class TestAffordableSubset:
    def test_example_budget_15_takes_all(self, example2_market):
        assert example2_market.affordable_subset(15) == set(example2_market.ids)

    def test_zero_budget_is_empty(self, example2_market):
        assert example2_market.affordable_subset(0) == set()

    def test_threshold_filter(self, example2_market):
        assert example2_market.affordable_subset(4) == {"d3", "d4", "d5"}

    def test_monotone_in_budget(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            m = random_market(rng)
            b1 = int(rng.integers(0, m.total_price_cents))
            b2 = int(rng.integers(b1, m.total_price_cents + 1))
            low = m.affordable_subset(cents_to_decimal(b1))
            high = m.affordable_subset(cents_to_decimal(b2))
            assert low <= high


class TestCatalogStructure:
    def test_empty_catalog_rejected(self):
        with pytest.raises(MarketplaceError):
            Marketplace.build(GridConfig(theta=2), [])

    def test_single_dataset_is_legal(self):
        m = make_market({"only": [(0, 0)]}, theta=2)
        assert len(m) == 1

    def test_duplicate_ids_rejected(self):
        grid = GridConfig(theta=2)
        d = CellBasedDataset(id="d1", cells=np.array([0]), grid=grid)
        with pytest.raises(MarketplaceError):
            Marketplace.build(grid, [d, d])

    @pytest.mark.parametrize("did", ["", "a b", 7], ids=["empty", "whitespace", "not-a-string"])
    def test_id_that_cannot_round_trip_rejected(self, did):
        # a catalog line splits on whitespace: '' would load as another
        # dataset, 'a b' would not load at all and 7 would load as '7'
        grid = GridConfig(theta=2)
        d = CellBasedDataset(id=did, cells=np.array([1, 2]), grid=grid)
        with pytest.raises(MarketplaceError, match=repr(did)):
            Marketplace.build(grid, [d])

    def test_ids_sorted(self):
        m = make_market({"b": [(0, 0)], "a": [(1, 1)]}, theta=2)
        assert m.ids == ("a", "b")


class TestCatalogFiles:
    def test_usage_round_trip(self, tmp_path, example2_market):
        path = tmp_path / "cat.txt"
        save_catalog(example2_market, path)
        back = load_catalog(path)
        assert back.ids == example2_market.ids
        assert back.grid == example2_market.grid
        for did in back.ids:
            assert back.price_cents(did) == example2_market.price_cents(did)
            assert back.dataset(did).cells.tolist() == \
                example2_market.dataset(did).cells.tolist()

    def test_table_round_trip(self, tmp_path, dsa_market):
        path = tmp_path / "cat.txt"
        save_catalog(dsa_market, path)
        back = load_catalog(path)
        assert back.pricing.kind == dsa_market.pricing.kind
        for did in back.ids:
            assert back.price_cents(did) == dsa_market.price_cents(did)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "cat.txt"
        path.write_text("NOTACAT 1\n")
        with pytest.raises(CatalogFormatError):
            load_catalog(path)

    def test_unknown_version_rejected(self, tmp_path, example2_market):
        path = tmp_path / "cat.txt"
        save_catalog(example2_market, path)
        lines = path.read_text().splitlines()
        lines[0] = "CBCAT 99"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CatalogFormatError, match="version"):
            load_catalog(path)

    def test_cell_count_mismatch_rejected(self, tmp_path, example2_market):
        path = tmp_path / "cat.txt"
        save_catalog(example2_market, path)
        lines = path.read_text().splitlines()
        parts = lines[6].split()
        parts[2] = str(int(parts[2]) + 1)
        lines[6] = " ".join(parts)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CatalogFormatError):
            load_catalog(path)

    @pytest.mark.parametrize("edit, where", [
        (lambda lines: lines[:3], "line 4"),                   # cut after the 'origin' line
        (lambda lines: lines[:5] + ["datasets x"] + lines[6:], "line 6"),
        (lambda lines: lines[:1] + ["theta"] + lines[2:], "line 2"),
        (lambda lines: lines[:6] + [lines[6].replace(" ", " 1x ", 1)] + lines[7:], "line 7"),
        (lambda lines: lines[:6] + [lines[6].rsplit(" ", 1)[0] + " z"] + lines[7:], "line 7"),
        (lambda lines: lines[:2] + ["origin nan 0.0"] + lines[3:], "line 3"),
        (lambda lines: lines[:2] + ["origin 0.0 -inf"] + lines[3:], "line 3"),
        (lambda lines: lines[:3] + ["cell inf 1.0"] + lines[4:], "line 4"),
        (lambda lines: lines[:3] + ["cell 1.0 nan"] + lines[4:], "line 4"),
        (lambda lines: lines[:5] + ["datasets -1"] + lines[6:], "line 6"),
        (lambda lines: lines[:5] + ["datasets 4"] + lines[6:], "line 11 is past"),
        (lambda lines: lines + [lines[6].replace("d1", "d6", 1)], "line 12 is past"),
        (lambda lines: lines[:1] + ["theta 0"] + lines[2:], "line 2"),
        (lambda lines: lines[:1] + ["theta 40"] + lines[2:], "line 2"),
        (lambda lines: lines[:3] + ["cell 0.0 1.0"] + lines[4:], "line 4"),
        (lambda lines: lines[:3] + ["cell -1.0 1.0"] + lines[4:], "line 4"),
        (lambda lines: lines[:4] + ["pricing bogus"] + lines[5:], "line 5"),
    ], ids=["truncated", "non-integer-count", "empty-value", "shifted-columns",
            "non-integer-cell", "origin-nan", "origin-inf", "cell-inf", "cell-nan",
            "negative-count", "line-past-count", "extra-line", "theta-zero",
            "theta-too-large", "cell-zero-width", "cell-negative-width",
            "unknown-pricing"])
    def test_malformed_header_or_line_rejected_with_line_number(self, tmp_path,
                                                              example2_market, edit, where):
        path = tmp_path / "cat.txt"
        save_catalog(example2_market, path)
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
        with pytest.raises(CatalogFormatError, match=where):
            load_catalog(path)
