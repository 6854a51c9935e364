import hashlib
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bmcc.grid import CellBasedDataset, GridConfig, rasterize, read_points_file
from bmcc.marketplace import (
    EXPLICIT_TABLE,
    USAGE_BASED,
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

import reference_catalog
from conftest import DATA_DIR, make_market


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

    @pytest.mark.parametrize("value", [True, False])
    def test_bool_is_not_an_amount(self, value):
        with pytest.raises(MarketplaceError, match=f"not a decimal amount: {value}"):
            to_cents(value)


class TestPricing:
    def test_usage_price_equals_coverage(self, example2_market):
        m = example2_market
        assert [m.price_cents(d) for d in m.ids] == [500, 600, 400, 400, 200]
        for did in m.ids:
            assert m.price_cents(did) == m.dataset(did).coverage * 100

    def test_worked_example_set_price(self):
        m = make_market({"d1": [(0, 0), (1, 1), (2, 2), (3, 3), (0, 3)]}, theta=2)
        assert m.price_cents("d1") == 500

    def test_table_passthrough(self):
        m = make_market({"d1": [(0, 0)]}, theta=2, prices={"d1": 7})
        assert m.price_cents("d1") == 700

    def test_table_must_cover_catalog(self):
        grid = GridConfig(theta=2)
        d1 = CellBasedDataset(id="d1", cells=np.array([0]), grid=grid)
        d2 = CellBasedDataset(id="d2", cells=np.array([1]), grid=grid)
        pricing = PricingFunction.from_table({"d1": 7})
        with pytest.raises(MarketplaceError, match="d2"):
            Marketplace.build(grid, [d1, d2], pricing)

    def test_unknown_id_lookup(self, example2_market):
        with pytest.raises(UnknownDatasetError):
            example2_market.price_cents("nope")
        # ids before, between and after the sorted catalog ids, and a non-string
        for did in ("d0", "d11", "d9", "", 7):
            with pytest.raises(UnknownDatasetError):
                example2_market.dataset(did)

    def test_nonpositive_price_rejected(self):
        with pytest.raises(MarketplaceError):
            PricingFunction.from_table({"d1": 0})

    @pytest.mark.parametrize("cents", [0, -150, 150.0, "150", True])
    def test_explicit_table_holds_positive_int_cents(self, cents):
        """A table built directly is checked as ``from_table``'s is, so no
        free or negative price reaches a solver's ratio keys."""
        with pytest.raises(MarketplaceError, match="price for 'd1'"):
            PricingFunction(table={"d1": cents, "d2": 100})

    def test_the_table_alone_decides_the_kind(self):
        assert PricingFunction().kind == USAGE_BASED == "usage_based"
        assert PricingFunction({"d1": 100}).kind == EXPLICIT_TABLE
        with pytest.raises(TypeError):
            PricingFunction(kind=USAGE_BASED)

    def test_caller_edits_after_construction_do_not_reach_the_table(self):
        table = {"d1": 100}
        pricing = PricingFunction(table)
        table["d1"] = -5
        grid = GridConfig(theta=2)
        d1 = CellBasedDataset(id="d1", cells=np.array([0]), grid=grid)
        assert Marketplace.build(grid, [d1], pricing).price_cents("d1") == 100

    def test_empty_table_rejected(self):
        with pytest.raises(MarketplaceError, match="requires a price table"):
            PricingFunction({})

    def test_pmin_pmax_bracket_all_prices(self, example2_market):
        m = example2_market
        assert m.p_min_cents == 200 and m.p_max_cents == 600
        for did in m.ids:
            assert m.p_min_cents <= m.price_cents(did) <= m.p_max_cents


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

    @pytest.mark.parametrize("did", ["", "a b", 7, ["a"]],
                             ids=["empty", "whitespace", "not-a-string", "unhashable"])
    def test_id_that_cannot_round_trip_rejected(self, did):
        # a catalog line splits on whitespace: '' would load as another
        # dataset, 'a b' would not load at all and 7 would load as '7'; the
        # id rule runs before the duplicate lookup, which ['a'] would crash
        grid = GridConfig(theta=2)
        d = CellBasedDataset(id=did, cells=np.array([1, 2]), grid=grid)
        with pytest.raises(MarketplaceError, match=repr(did)):
            Marketplace.build(grid, [d])

    def test_ids_sorted(self):
        m = make_market({"b": [(0, 0)], "a": [(1, 1)]}, theta=2)
        assert m.ids == ("a", "b")

    def test_dataset_of_another_grid_rejected(self):
        grid = GridConfig(theta=2)
        d1 = CellBasedDataset(id="d1", cells=np.array([0]), grid=grid)
        d2 = CellBasedDataset(id="d2", cells=np.array([1]), grid=GridConfig(theta=3))
        with pytest.raises(MarketplaceError, match="'d2' was rasterized under a different grid"):
            Marketplace(grid, [d1, d2])

    def test_equal_grid_object_accepted(self):
        d = CellBasedDataset(id="d1", cells=np.array([0]), grid=GridConfig(theta=2))
        assert Marketplace(GridConfig(theta=2), [d]).ids == ("d1",)

    @pytest.mark.parametrize("ids", [("a", 7), (7, "a"), ("b", 3, "a")])
    def test_mixed_str_and_int_ids_rejected(self, ids):
        grid = GridConfig(theta=2)
        datasets = [CellBasedDataset(id=did, cells=np.array([i]), grid=grid)
                    for i, did in enumerate(ids)]
        with pytest.raises(MarketplaceError, match="must be a non-empty string"):
            Marketplace(grid, datasets)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.sets(st.integers(0, 15), min_size=1), min_size=1, max_size=12),
           st.randoms(use_true_random=False), st.booleans())
    def test_any_order_gives_the_same_catalog(self, cell_sets, rnd, with_table):
        grid = GridConfig(theta=2)
        datasets = [CellBasedDataset(id=f"d{i}", cells=sorted(cells), grid=grid)
                    for i, cells in enumerate(cell_sets)]
        pricing = (PricingFunction.from_table({d.id: f"{i + 1}.25" for i, d in
                                               enumerate(datasets)})
                   if with_table else None)
        shuffled = datasets[:]
        rnd.shuffle(shuffled)

        def contents(market):
            return (market.ids, [market.price_cents(did) for did in market.ids],
                    [market.dataset(did).cells.tolist() for did in market.ids])

        want = contents(Marketplace(grid, datasets, pricing))
        assert want[0] == tuple(sorted(d.id for d in datasets))
        assert contents(Marketplace(grid, iter(shuffled), pricing)) == want
        assert contents(Marketplace.build(grid, shuffled, pricing)) == want


class TestCellArray:
    def test_cells_of_every_dataset_in_id_order(self):
        grid = GridConfig(theta=2)
        b = CellBasedDataset(id="b", cells=np.array([0, 5, 9]), grid=grid)
        a = CellBasedDataset(id="a", cells=np.array([3]), grid=grid)
        m = Marketplace(grid, [b, a])
        assert m.ids == ("a", "b")
        assert m.cells.dtype == np.int64 and m.cells.tolist() == [3, 0, 5, 9]
        assert m.starts.dtype == np.int64 and m.starts.tolist() == [0, 1, 4]
        assert [m.price_cents(did) for did in m.ids] == [100, 300]
        view = m.dataset("b")
        assert (view.id, view.grid, view.coverage) == ("b", grid, 3)
        assert view.cells.tolist() == [0, 5, 9] and view.cells.base is m.cells

    def test_caller_edits_after_construction_do_not_reach_the_catalog(self):
        grid = GridConfig(theta=2)
        a = CellBasedDataset(id="a", cells=np.array([0, 1]), grid=grid)
        m = Marketplace(grid, [a])
        a.cells[0] = 7
        assert m.dataset("a").cells.tolist() == [0, 1]
        assert m.cells.tolist() == [0, 1]

    def test_loaded_catalog_owns_its_cells(self, tmp_path, example2_market):
        path = tmp_path / "cat.txt"
        save_catalog(example2_market, path)
        back = load_catalog(path)
        assert back.cells.tolist() == example2_market.cells.tolist()
        assert back.starts.tolist() == example2_market.starts.tolist()
        assert back.cells.base is None  # a copy, not a view of the parsed array
        assert not back.cells.flags.writeable and not back.starts.flags.writeable

    @pytest.fixture
    def market(self):
        return make_market({"a": [(0, 0), (1, 1)], "b": [(2, 3)]}, theta=2)

    @pytest.mark.parametrize("array", ["cells", "starts", "view"])
    def test_arrays_are_read_only(self, market, array):
        target = market.dataset("b").cells if array == "view" else getattr(market, array)
        before = target.tolist()
        with pytest.raises(ValueError, match="read-only"):
            target[0] = 1
        assert target.tolist() == before

    @pytest.mark.parametrize("name", ["grid", "pricing", "ids", "cells", "starts", "extra"])
    def test_attributes_cannot_be_set_or_deleted(self, market, name):
        before = getattr(market, name, None)
        with pytest.raises(AttributeError, match=f"immutable; cannot set '{name}'"):
            setattr(market, name, None)
        with pytest.raises(AttributeError, match=f"immutable; cannot delete '{name}'"):
            delattr(market, name)
        assert getattr(market, name, None) is before

    def test_class_attributes_can_still_be_rebound(self, market, monkeypatch):
        # a timing harness may wrap Marketplace.build on the class
        calls = []
        build = Marketplace.build

        def wrapped(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(Marketplace, "build", wrapped)
        again = Marketplace.build(market.grid, [market.dataset("b")])
        assert len(calls) == 1 and again.ids == ("b",)


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

    def test_table_priced_edit_loads(self, tmp_path, example2_market):
        path = tmp_path / "cat.txt"
        save_catalog(example2_market, path)
        path.write_text("\n".join(table_priced(path.read_text().splitlines(), *PRICES)) + "\n")
        back = load_catalog(path)
        assert back.pricing.kind == EXPLICIT_TABLE
        assert [back.price_cents(did) for did in back.ids] == [to_cents(p) for p in PRICES]

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
        (lambda lines: lines[:7] + [lines[7].replace(" - ", " 9.99 ", 1)] + lines[8:],
         "'d2': price must be '-' under usage pricing at line 8"),
        (lambda lines: lines[:7] + [lines[7].replace("d2", "d1", 1)] + lines[8:],
         "repeated dataset id 'd1' at line 8"),
        (lambda lines: table_priced(lines, "1", "-", "2", "3", "4"),
         "'d2': not a decimal amount: '-' at line 8"),
        (lambda lines: table_priced(lines, "1", "2", "9.999", "3", "4"),
         "'d3': amount '9.999' is finer than one cent at line 9"),
        (lambda lines: table_priced(lines, "1", "2", "3", "0", "4"),
         "'d4': price '0' is not positive at line 10"),
        (lambda lines: table_priced(lines, *PRICES[:4], "-0.01"),
         "'d5': price '-0.01' is not positive at line 11"),
        (lambda lines: table_priced(lines[:7] + [lines[7].replace("d2", "d1", 1)] + lines[8:],
                                    *PRICES), "repeated dataset id 'd1' at line 8"),
        (lambda lines: lines[:6] + [lines[6].rsplit(" ", 1)[0] + " 99999999999999999999999"]
         + lines[7:], "'d1': cell id outside int64 at line 7"),
        (lambda lines: lines[:6] + [lines[6].rsplit(" ", 1)[0] + " -99999999999999999999999"]
         + lines[7:], "'d1': cell id outside int64 at line 7"),
    ], ids=["truncated", "non-integer-count", "empty-value", "shifted-columns",
            "non-integer-cell", "origin-nan", "origin-inf", "cell-inf", "cell-nan",
            "negative-count", "line-past-count", "extra-line", "theta-zero",
            "theta-too-large", "cell-zero-width", "cell-negative-width",
            "unknown-pricing", "usage-price-given", "usage-repeated-id", "table-price-dash",
            "table-price-sub-cent", "table-price-zero", "table-price-negative",
            "table-repeated-id", "cell-past-int64", "cell-below-int64"])
    def test_malformed_header_or_line_rejected_with_line_number(self, tmp_path,
                                                              example2_market, edit, where):
        path = tmp_path / "cat.txt"
        save_catalog(example2_market, path)
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
        with pytest.raises(CatalogFormatError, match=where):
            load_catalog(path)


FAULT_CATALOG = ["CBCAT 1", "theta 3", "origin 0.0 0.0", "cell 1.0 1.0", "pricing usage_based",
                 "datasets 4", "a - 2 5 9", "b - 3 1 2 3", "c - 1 63", "d - 2 0 7"]


@pytest.mark.parametrize("faults, message", [
    ({7: "a - 2 9 5", 8: "b - 3"}, "dataset 'a': cell ids must be strictly ascending at line 7"),
    ({7: "a - 2 5 99999999999999999999", 8: "b 1.00 3 1 2 3"},
     "dataset 'a': cell id outside int64 at line 7"),
    ({8: "b - 3 -1 2 3", 9: "c - 1 x"}, "dataset 'b': negative cell id at line 8"),
    ({8: "b - 4 1 x 3"}, "dataset 'b': non-integer count or cell at line 8"),
    ({8: "b - 3 1 2 64", 9: "a - 1 63"}, "dataset 'b': cell id 64 outside 4**theta at line 8"),
    ({7: "a - 2 5 x", 8: "b - 3 3 2 1"}, "dataset 'a': non-integer count or cell at line 7"),
    ({9: "c - 1 64"}, "dataset 'c': cell id 64 outside 4**theta at line 9"),
], ids=["descending-then-short", "past-int64-then-price", "negative-then-non-integer",
        "count-mismatch-with-non-integer", "outside-then-repeated", "non-integer-then-descending",
        "outside-after-two-good-lines"])
def test_first_faulty_line_is_reported(tmp_path, faults, message):
    """The loader checks the whole catalog in one pass, and on any fault
    rechecks its lines in file order, so it reports the line the reference
    loader, which checks each line on its own, reports."""
    path = tmp_path / "catalog"
    lines = [faults.get(number, text) for number, text in enumerate(FAULT_CATALOG, start=1)]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CatalogFormatError) as caught:
        load_catalog(path)
    with pytest.raises(CatalogFormatError) as reference:
        reference_catalog.load_catalog(path)
    assert str(caught.value) == str(reference.value) == message


PRICES = ("1", "2.50", "0.01", "7", "12.34")


def table_priced(lines, *prices):
    """The lines of a usage-priced catalog turned to table pricing, with
    ``prices`` as the price column of its dataset lines, in order."""
    rows = [row.split() for row in lines[6:]]
    return lines[:4] + ["pricing explicit_table"] + lines[5:6] + [
        " ".join([row[0], price, *row[2:]]) for row, price in zip(rows, prices)]


# sha256 of the catalog save_catalog writes for the committed synth1000 point
# file at theta=11, under usage pricing and under synth_price_table
SYNTH_CATALOG_SHA256 = {
    "usage": "639f769720188c187a69b7b61d5def25f98e77b4884f7dc401336dd43d50101e",
    "table": "a0dd67d1f8fb2920e2732a49bd1f15e20973386e81af0c27a20e5a3e4e6f64bf",
}


def synth_price_table(ids):
    """Prices from 1.00 to 50.99, varied in both the units and the cents."""
    return {did: f"{1 + i % 50}.{i * 7 % 100:02d}" for i, did in enumerate(ids)}


@pytest.fixture(scope="module")
def synth_rasterized():
    datasets = read_points_file(DATA_DIR / "synth1000.csv")
    grid = GridConfig.from_envelope(datasets, theta=11)
    return grid, [rasterize(d, grid) for d in datasets]


@pytest.mark.parametrize("pricing", sorted(SYNTH_CATALOG_SHA256))
def test_synth1000_catalog_bytes_are_pinned(tmp_path, synth_rasterized, pricing):
    grid, datasets = synth_rasterized
    if pricing == "usage":
        prices = PricingFunction.usage_based()
    else:
        prices = PricingFunction.from_table(synth_price_table([d.id for d in datasets]))
    path = tmp_path / "synth1000.cat"
    save_catalog(Marketplace.build(grid, datasets, prices), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SYNTH_CATALOG_SHA256[pricing]


def test_rasterize_and_load_build_datasets_unchecked(tmp_path, monkeypatch):
    # both build their datasets from cells already known to be valid, so
    # neither runs the checks of the public constructor
    checked = []
    check = CellBasedDataset.__post_init__

    def counting(self):
        checked.append(self.id)
        check(self)

    monkeypatch.setattr(CellBasedDataset, "__post_init__", counting)
    points = read_points_file(DATA_DIR / "synth1000.csv")
    grid = GridConfig.from_envelope(points, theta=11)
    datasets = [rasterize(d, grid) for d in points]
    assert checked == []
    path = tmp_path / "synth1000.cat"
    save_catalog(Marketplace.build(grid, datasets), path)
    loaded = load_catalog(path)
    assert checked == []
    assert len(loaded) == len(datasets) == 1000
    assert all(np.array_equal(loaded.dataset(d.id).cells, d.cells) for d in datasets)
    CellBasedDataset(id="x", cells=[0], grid=grid)
    assert checked == ["x"]
