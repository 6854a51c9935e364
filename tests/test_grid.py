import codecs
import sys
import threading
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_grid as ref
from bmcc.grid import (
    _BOUNDARY_RTOL,
    MAX_THETA,
    CellBasedDataset,
    CellRangeError,
    GridConfig,
    GridError,
    PointDataset,
    PointFileError,
    RasterizationError,
    decode_cells,
    encode_cell,
    encode_cells,
    rasterize,
    read_points_file,
    write_points_file,
)
from bmcc.marketplace import Marketplace, load_catalog, save_catalog

from conftest import DATA_DIR


class TestEncodeDecode:
    def test_origin_cell_is_zero(self):
        assert encode_cell(0, 0, 2) == 0

    def test_all_bits_set_at_max_corner(self):
        assert encode_cell(3, 3, 2) == 15
        assert encode_cell(7, 7, 3) == 63

    def test_manual_interleaving(self):
        # x=01, y=10 interleave to 1001
        assert encode_cell(1, 2, 2) == 9

    def test_x_occupies_even_bits(self):
        assert encode_cell(1, 0, 4) == 1
        assert encode_cell(0, 1, 4) == 2

    @pytest.mark.parametrize("x,y", [(-1, 0), (4, 0)])
    def test_x_range_error_names_axis(self, x, y):
        with pytest.raises(CellRangeError, match="x index"):
            encode_cell(x, y, 2)

    @pytest.mark.parametrize("x,y", [(0, -1), (0, 4)])
    def test_y_range_error_names_axis(self, x, y):
        with pytest.raises(CellRangeError, match="y index"):
            encode_cell(x, y, 2)

    @pytest.mark.parametrize("x,y,theta", [(2 ** 33, 0, 40), (0, 0, 0), (1.5, 0, 3),
                                           (True, 0, 3), (0, 2.0, 3), (0, False, 3)])
    def test_bad_index_or_theta_refused(self, x, y, theta):
        # each of these once read as a valid id: 2**33 at theta 40 as cell (0, 0)
        with pytest.raises(GridError):
            encode_cell(x, y, theta)

    def test_decode_zero(self):
        assert decode_cells([0]).tolist() == [[0, 0]]

    def test_decode_inverse_of_example(self):
        assert decode_cells([9]).tolist() == [[1, 2]]

    def test_round_trip_theta4(self):
        for cid, (x, y) in enumerate(decode_cells(np.arange(1 << 8)).tolist()):
            assert encode_cell(x, y, 4) == cid

    @pytest.mark.parametrize("theta", range(1, 9))
    def test_bijection_exhaustive(self, theta):
        side = 1 << theta
        xs, ys = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
        codes = encode_cells(xs.ravel(), ys.ravel())
        assert len(np.unique(codes)) == side * side
        assert codes.min() == 0 and codes.max() == side * side - 1
        back = decode_cells(codes)
        assert np.array_equal(back[:, 0], xs.ravel())
        assert np.array_equal(back[:, 1], ys.ravel())

    def test_large_theta_fits_64_bits(self):
        theta = 31
        side = 1 << theta
        top = encode_cell(side - 1, side - 1, theta)
        assert top == (1 << (2 * theta)) - 1
        assert decode_cells([top]).tolist() == [[side - 1, side - 1]]


class TestGridConfig:
    def test_theta_bounds(self):
        with pytest.raises(GridError):
            GridConfig(theta=0)
        with pytest.raises(GridError):
            GridConfig(theta=32)

    @pytest.mark.parametrize("theta", [10.0, "10", None, 1.5, True])
    def test_non_integral_theta_rejected(self, theta):
        with pytest.raises(GridError, match="integer"):
            GridConfig(theta=theta)

    @pytest.mark.parametrize("theta", [-1, 0, 32, 10**6, 10.0, "10", True])
    def test_envelope_checks_theta_before_shifting(self, theta):
        ds = [PointDataset("a", [(0.0, 0.0), (8.0, 4.0)])]
        with pytest.raises(GridError, match="theta"):
            GridConfig.from_envelope(ds, theta=theta)
        with pytest.raises(GridError, match="theta"):
            GridConfig.from_envelope([], theta=theta, bounds=(0, 0, 1, 1))

    def test_cell_extent_positive(self):
        with pytest.raises(GridError):
            GridConfig(theta=2, cell_width=0.0)

    @pytest.mark.parametrize("field", ["origin_x", "origin_y", "cell_width", "cell_height"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"),
                                       None, "x", [1.0], 10**400],
                             ids=["nan", "inf", "-inf", "none", "text", "list", "huge-int"])
    def test_non_finite_origin_or_extent_rejected(self, field, value):
        with pytest.raises(GridError, match="finite"):
            GridConfig(theta=2, **{field: value})

    @pytest.mark.parametrize("number", [np.float64, Decimal], ids=["float64", "decimal"])
    def test_non_float_extents_stored_as_float_and_round_trip(self, tmp_path, number):
        g = GridConfig(theta=4, origin_x=number("0.5"), origin_y=number("-1"),
                       cell_width=number("0.25"), cell_height=number("3"))
        assert [type(v) for v in (g.origin_x, g.origin_y, g.cell_width, g.cell_height)] == \
            [float] * 4
        assert (g.origin_x, g.origin_y, g.cell_width, g.cell_height) == (0.5, -1.0, 0.25, 3.0)
        ds = CellBasedDataset(id="a", cells=np.array([1, 7], dtype=np.int64), grid=g)
        path = tmp_path / "cat.txt"
        save_catalog(Marketplace.build(g, [ds]), path)
        assert load_catalog(path).grid == g

    def test_numpy_integer_theta_stored_as_int_and_round_trips(self, tmp_path):
        g = GridConfig(theta=np.int64(4))
        assert type(g.theta) is int
        ds = CellBasedDataset(id="a", cells=np.array([1, 7]), grid=g)
        path = tmp_path / "cat.txt"
        save_catalog(Marketplace.build(g, [ds]), path)
        assert repr(load_catalog(path).grid) == repr(g) == repr(GridConfig(theta=4))

    def test_envelope_derivation(self):
        ds = [PointDataset("a", [(0.0, 0.0), (8.0, 4.0)])]
        g = GridConfig.from_envelope(ds, theta=2)
        assert (g.origin_x, g.origin_y) == (0.0, 0.0)
        assert g.cell_width == 2.0 and g.cell_height == 1.0

    def test_envelope_degenerate_axis(self):
        ds = [PointDataset("a", [(1.0, 0.0), (1.0, 4.0)])]
        g = GridConfig.from_envelope(ds, theta=2)
        assert g.cell_width == 1.0


class TestRasterize:
    def test_point_at_origin_lands_in_cell_zero(self):
        g = GridConfig(theta=2)
        out = rasterize(PointDataset("a", [(0.0, 0.0)]), g)
        assert out.cells.tolist() == [0]

    def test_same_cell_deduplicates(self):
        g = GridConfig(theta=2)
        out = rasterize(PointDataset("a", [(0.2, 0.2), (0.7, 0.7)]), g)
        assert out.cells.tolist() == [0]

    def test_two_point_example(self):
        g = GridConfig(theta=2)
        out = rasterize(PointDataset("a", [(0.5, 1.5), (1.5, 0.5)]), g)
        assert out.cells.tolist() == [1, 2]

    def test_upper_boundary_clamps(self):
        g = GridConfig(theta=2)
        out = rasterize(PointDataset("a", [(4.0, 4.0)]), g)
        assert out.cells.tolist() == [encode_cell(3, 3, 2)]

    def test_outside_point_raises_with_context(self):
        g = GridConfig(theta=2)
        with pytest.raises(RasterizationError) as info:
            rasterize(PointDataset("bad", [(0.5, 0.5), (5.0, 0.0)]), g)
        assert info.value.dataset_id == "bad"
        assert info.value.point == (5.0, 0.0)

    @pytest.mark.parametrize("point", [(float("nan"), 0.5), (0.5, float("nan"))])
    def test_nan_coordinate_is_outside(self, point):
        g = GridConfig(theta=2)
        with pytest.raises(RasterizationError) as info:
            rasterize(PointDataset("bad", [(0.5, 0.5), point]), g)
        assert info.value.dataset_id == "bad"

    def test_empty_dataset_rejected(self):
        with pytest.raises(GridError):
            PointDataset("a", np.empty((0, 2)))

    def test_idempotence_on_cell_centers(self):
        g = GridConfig(theta=4)
        rng = np.random.default_rng(5)
        cells = np.unique(rng.integers(0, g.n_cells, size=20))
        original = CellBasedDataset(id="a", cells=cells, grid=g)
        centers = [(x + 0.5, y + 0.5) for x, y in decode_cells(cells).tolist()]
        again = rasterize(PointDataset("a", centers), g)
        assert again.cells.tolist() == original.cells.tolist()

    def test_coverage_monotone_in_theta(self):
        rng = np.random.default_rng(7)
        pts = rng.uniform(0.0, 1.0, size=(200, 2))
        ds = PointDataset("a", pts)
        bounds = (0.0, 0.0, 1.0, 1.0)
        coverages = [
            rasterize(ds, GridConfig.from_envelope([], theta=t, bounds=bounds)).coverage
            for t in range(2, 8)
        ]
        assert all(a <= b for a, b in zip(coverages, coverages[1:]))
        assert all(c <= len(pts) for c in coverages)


THETA31_CORNERS = [0, 1, 2, 255, 256, (1 << 16) - 1, 1 << 16, (1 << 24) - 1, 1 << 24,
                   1 << 30, (1 << MAX_THETA) - 2, (1 << MAX_THETA) - 1]


class TestTableEncodeAgainstShiftAndMask:
    """The 256-entry table encode against the five-round shift-and-mask
    spread it replaced (``reference_grid.spread_bits``)."""

    def test_every_16_bit_value(self):
        v = np.arange(1 << 16)
        spread = ref.spread_bits(v).astype(np.int64)
        zero = np.zeros_like(v)
        assert np.array_equal(encode_cells(v, zero), spread)
        assert np.array_equal(encode_cells(zero, v), spread << 1)
        rng = np.random.default_rng(16)
        other = rng.permutation(v)
        assert np.array_equal(encode_cells(v, other), ref.encode_cells(v, other))

    def test_theta31_corners(self):
        xs, ys = np.meshgrid(THETA31_CORNERS, THETA31_CORNERS, indexing="ij")
        got = encode_cells(xs.ravel(), ys.ravel())
        assert np.array_equal(got, ref.encode_cells(xs.ravel(), ys.ravel()))
        assert got.max() == (1 << (2 * MAX_THETA)) - 1
        for x, y in zip(xs.ravel().tolist(), ys.ravel().tolist()):
            assert encode_cell(x, y, MAX_THETA) == int(ref.encode_cells(x, y))

    def test_shapes_follow_the_inputs(self):
        assert encode_cells(3, 3).shape == ()
        assert encode_cells([[1, 2]], [[0, 1]]).tolist() == [[1, 6]]


def raster_outcome(fn, dataset, grid):
    """``fn``'s cells, or the error it raised with the point it names (as its
    repr, so a NaN coordinate compares equal)."""
    try:
        return fn(dataset, grid).cells.tolist()
    except RasterizationError as exc:
        return type(exc), exc.dataset_id, repr(exc.point), str(exc)


class TestRasterizeAgainstReference:
    """``rasterize`` against the per-axis floor-and-spread one it replaced
    (``reference_grid.rasterize``): the same cells, or the same error naming
    the same point."""

    @pytest.mark.parametrize("theta", [1, 8, 10, 16, 17, 31])
    def test_random_points(self, theta):
        rng = np.random.default_rng(theta)
        for trial in range(40):
            ox, oy = rng.uniform(-1e3, 1e3, size=2)
            cw, ch = 10.0 ** rng.uniform(-6, 3, size=2)
            grid = GridConfig(theta=theta, origin_x=ox, origin_y=oy,
                              cell_width=cw, cell_height=ch)
            span = np.array([cw, ch]) * grid.side
            n = int(rng.integers(1, 40))
            # mostly inside; now and then a few points just outside either edge
            pts = (ox, oy) + span * rng.uniform(-0.02 * (trial % 4 == 0), 1.0, size=(n, 2))
            pts[rng.random(n) < 0.05] = (ox, oy) + span * 1.01
            ds = PointDataset(f"d{trial}", pts)
            want = raster_outcome(ref.rasterize, ds, grid)
            assert raster_outcome(rasterize, ds, grid) == want

    BIG = 1e308
    INF = float("inf")
    NAN = float("nan")
    # points on a 4 x 4 grid over [0, 4]^2, each case after the valid (0.5, 0.5)
    EDGE_POINTS = {
        "exactly-side": [(4.0, 4.0), (4.0, 0.0), (0.0, 4.0)],
        "within-rtol-above": [(4.0 * (1 + _BOUNDARY_RTOL / 2), 1.0)],
        "at-rtol-limit": [(4.0 * (1 + _BOUNDARY_RTOL), 4.0 * (1 + _BOUNDARY_RTOL))],
        "just-past-rtol": [(1.0, 4.0 * (1 + 2 * _BOUNDARY_RTOL))],
        "one-ulp-below-side": [(np.nextafter(4.0, 0.0), np.nextafter(4.0, 0.0))],
        "negative-zero": [(-0.0, -0.0), (-0.0, 1.0)],
        "below-origin": [(np.nextafter(0.0, -1.0), 1.0)],
        "nan-x": [(NAN, 1.0)],
        "nan-y": [(1.0, NAN)],
        "inf": [(INF, 1.0)],
        "minus-inf": [(1.0, -INF)],
        "overflow-high": [(BIG, BIG)],
        "overflow-low": [(-BIG, 1.0)],
    }

    @pytest.mark.parametrize("case", sorted(EDGE_POINTS))
    @pytest.mark.parametrize("origin", [0.0, -1e308])
    def test_edge_points(self, case, origin):
        # from an origin of -1e308 every edge point is far outside the grid,
        # and 1e308 - origin overflows to inf
        grid = GridConfig(theta=2, origin_x=origin, origin_y=origin)
        ds = PointDataset("edge", [(0.5 + origin, 0.5 + origin), *self.EDGE_POINTS[case]])
        want = raster_outcome(ref.rasterize, ds, grid)
        assert raster_outcome(rasterize, ds, grid) == want

    def test_large_theta_boundary(self):
        grid = GridConfig(theta=MAX_THETA)
        side = float(grid.side)
        pts = [(side, side), (side * (1 + _BOUNDARY_RTOL / 2), 0.0),
               (np.nextafter(side, 0.0), 0.5), (-0.0, side - 1)]
        ds = PointDataset("corner", pts)
        assert raster_outcome(rasterize, ds, grid) == raster_outcome(ref.rasterize, ds, grid)


@st.composite
def block_case(draw):
    """A point file of up to 9 datasets on a coarse lattice of coordinates,
    so cells repeat within and across datasets; a theta; narrower bounds; a
    list of ``(dataset, grid)`` calls over two grids, which need not name
    every dataset; and the dataset, if any, whose points are reassigned."""
    coordinate = st.integers(-40, 40).map(lambda v: v / 10)
    rows = draw(st.lists(st.tuples(st.integers(0, 8), coordinate, coordinate),
                         min_size=1, max_size=60))
    quote = draw(st.sampled_from(("", '"')))  # a quoted id sends the file to the csv pass
    text = "dataset_id,x,y\n" + "".join(
        f"{quote * (i == 0)}d{owner}{quote * (i == 0)},{x!r},{y!r}\n"
        for i, (owner, x, y) in enumerate(rows))
    n_sets = len({owner for owner, _, _ in rows})
    theta = draw(st.sampled_from((1, 3, 8, 30, 31)))  # 8+ datasets at 30, 2+ at 31 do not fit
    bounds = (draw(st.integers(-40, 0)) / 10, draw(st.integers(-40, 0)) / 10,
              draw(st.integers(1, 40)) / 10, draw(st.integers(1, 40)) / 10)
    calls = draw(st.lists(st.tuples(st.integers(0, n_sets - 1), st.integers(0, 1)),
                          min_size=1, max_size=3 * n_sets))
    reassigned = draw(st.none() | st.integers(0, n_sets - 1))
    return text, theta, bounds, calls, reassigned


@pytest.fixture(scope="module")
def points_path(tmp_path_factory):
    return tmp_path_factory.mktemp("block") / "points.csv"


class TestRasterizeBlock:
    """The datasets of one point file share one read-only block, which
    ``rasterize`` serves from one pass per grid: each call must give what
    ``reference_grid.rasterize`` gives on a fresh copy of the dataset."""

    @settings(max_examples=300, deadline=None)
    @given(case=block_case())
    def test_block_pass_matches_reference(self, points_path, case):
        text, theta, bounds, calls, reassigned = case
        points_path.write_text(text)
        datasets = read_points_file(points_path)
        grids = [GridConfig.from_envelope(datasets, theta),
                 GridConfig.from_envelope(datasets, theta, bounds=bounds)]
        if reassigned is not None:  # no longer the reader's slice: the per-dataset pass
            d = datasets[reassigned]
            d.points = d.points[::-1] * 0.5
        fresh = [PointDataset(d.id, d.points.copy()) for d in datasets]
        for k, g in calls:
            want = raster_outcome(ref.rasterize, fresh[k], grids[g])
            assert raster_outcome(rasterize, datasets[k], grids[g]) == want
            if isinstance(want, list):  # a write to one result reaches no later call
                rasterize(datasets[k], grids[g]).cells[:] = -1
        block = datasets[0]._block[0]
        kept = [d for k, d in enumerate(datasets) if k != reassigned]
        if kept and len(datasets) < 1 << (63 - 2 * theta):  # the block pass runs on the envelope
            rasterize(kept[0], grids[0])
            assert block.cells[0] is grids[0] and block.cells[1] is not None
        for d in kept:
            assert d._block[0] is block
            with pytest.raises(ValueError, match="read-only"):
                d.points[0, 0] = 0.0

    def test_a_point_outside_falls_back_per_dataset(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("dataset_id,x,y\na,0.5,0.5\nb,0.5,0.5\nb,3.0,0.5\na,1.5,1.5\n")
        a, b = read_points_file(path)
        grid = GridConfig.from_envelope([a, b], 2, bounds=(0, 0, 2, 2))
        assert rasterize(a, grid).cells.tolist() == [3, 15]  # cells (1, 1) and (3, 3)
        with pytest.raises(RasterizationError, match=r"'b': point \(3.0, 0.5\)") as info:
            rasterize(b, grid)
        assert info.value.dataset_id == "b" and a._block[0].cells == (grid, None)

    def test_two_threads_under_two_grids_get_the_reference(self, tmp_path):
        rng = np.random.default_rng(3)
        path = tmp_path / "pts.csv"
        # 2400 points: the block pass encodes them in three chunks
        write_points_file(path, [PointDataset(f"d{i}", rng.random((60, 2))) for i in range(40)])
        datasets = read_points_file(path)
        grids = [GridConfig.from_envelope(datasets, 4), GridConfig.from_envelope(datasets, 10)]
        want = [[ref.rasterize(PointDataset(d.id, d.points.copy()), g).cells.tolist()
                 for d in datasets] for g in grids]
        got = [[], []]
        step = threading.Barrier(2)  # the two threads make each call at once

        def run(g):
            for _ in range(10):
                for d in datasets:
                    step.wait(timeout=60)
                    got[g].append(rasterize(d, grids[g]).cells.tolist())

        threads = [threading.Thread(target=run, args=(g,)) for g in (0, 1)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == [want[0] * 10, want[1] * 10]


class TestCellBasedDataset:
    def test_must_be_strictly_ascending(self):
        with pytest.raises(GridError):
            CellBasedDataset(id="a", cells=np.array([3, 3, 5]), grid=GridConfig(theta=3))
        with pytest.raises(GridError):
            CellBasedDataset(id="a", cells=np.array([5, 3]), grid=GridConfig(theta=3))

    def test_grid_is_required(self):
        with pytest.raises(TypeError, match="grid"):
            CellBasedDataset(id="a", cells=np.array([3]))

    def test_bounds_checked_against_grid(self):
        with pytest.raises(CellRangeError):
            CellBasedDataset(id="a", cells=np.array([16]), grid=GridConfig(theta=2))

    @pytest.mark.parametrize("cells", [np.array([0.5, 1.9, 2.2]), np.array([True]),
                                       [3.0, 2**63], [2**70, 0.5]],
                             ids=["float", "bool", "float-and-past-int64", "past-int64-and-float"])
    def test_non_integer_cells_rejected(self, cells):
        with pytest.raises(GridError, match="cell ids must be integers"):
            CellBasedDataset(id="a", cells=cells, grid=GridConfig(theta=3))

    # numpy reads these as uint64, float64 and object arrays
    @pytest.mark.parametrize("cells, top", [
        ([2**63], 2**63), ([3, 2**63], 2**63), ([2**70], 2**70),
        (np.array([2**70], dtype=object), 2**70), ([2**63, 2**64], 2**64),
        (np.array([5, 2**63], dtype=np.uint64), 2**63),
    ], ids=["uint64", "float64", "list-past-int64", "object-past-int64", "object-pair",
            "uint64-array"])
    def test_ids_past_int64_fall_outside_the_grid(self, cells, top):
        with pytest.raises(CellRangeError, match=rf"cell id {top} outside 4\*\*theta"):
            CellBasedDataset(id="a", cells=cells, grid=GridConfig(theta=3))

    @pytest.mark.parametrize("cells, fault", [
        ([2**63, 5], "strictly ascending"), ([2**70, 2**70], "strictly ascending"),
        ([-1, 2**70], "negative cell id"), ([-(2**70), 3], "negative cell id"),
    ], ids=["descending", "repeated", "negative-first", "below-int64-first"])
    def test_ids_past_int64_keep_the_check_order(self, cells, fault):
        with pytest.raises(GridError, match=fault) as info:
            CellBasedDataset(id="a", cells=cells, grid=GridConfig(theta=3))
        assert type(info.value) is GridError

    def test_object_array_of_small_ints_is_read_as_int64(self):
        d = CellBasedDataset(id="a", cells=np.array([1, 5], dtype=object), grid=GridConfig(theta=3))
        assert d.cells.dtype == np.int64 and d.cells.tolist() == [1, 5]

    @pytest.mark.parametrize("cells", [[], np.zeros((1, 1))], ids=["empty-list", "2-d"])
    def test_empty_or_not_1d_checked_before_dtype(self, cells):
        with pytest.raises(GridError, match="non-empty 1-d array"):
            CellBasedDataset(id="a", cells=cells, grid=GridConfig(theta=3))

    def test_coverage_is_length(self):
        d = CellBasedDataset(id="a", cells=np.array([3, 6, 9, 11, 12]), grid=GridConfig(theta=2))
        assert d.coverage == 5


class TestPointFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "pts.csv"
        ds = [PointDataset("a", [(0.25, 0.5), (1.5, 2.25)]),
              PointDataset("b", [(3.0, 4.0)])]
        write_points_file(path, ds)
        back = read_points_file(path)
        assert [d.id for d in back] == ["a", "b"]
        assert np.allclose(back[0].points, ds[0].points)

    def test_header_required(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("a,0.1,0.2\n")
        with pytest.raises(PointFileError):
            read_points_file(path)

    def test_bad_coordinate_reports_line(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("dataset_id,x,y\na,0.1,0.2\na,zzz,0.3\n")
        with pytest.raises(PointFileError) as info:
            read_points_file(path)
        assert info.value.line_number == 3

    @pytest.mark.parametrize("row", ["a,inf,0.3", "a,0.3,-inf", "a,nan,0.3", "a,0.3,NaN"])
    def test_non_finite_coordinate_reports_line(self, tmp_path, row):
        path = tmp_path / "pts.csv"
        path.write_text(f"dataset_id,x,y\na,0.1,0.2\n{row}\n")
        with pytest.raises(PointFileError, match="non-finite") as info:
            read_points_file(path)
        assert info.value.line_number == 3

    def test_empty_file(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("")
        with pytest.raises(PointFileError):
            read_points_file(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("dataset_id,x,y\n")
        with pytest.raises(PointFileError):
            read_points_file(path)

    def test_whitespace_id_rejected(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text('dataset_id,x,y\n"a b",0.1,0.2\n')
        with pytest.raises(PointFileError):
            read_points_file(path)

    @pytest.mark.parametrize("line", [1, 3])
    def test_oversized_field_reports_line(self, tmp_path, line):
        # the csv module refuses a field over 131072 characters
        rows = ["dataset_id,x,y", "a,0.1,0.2", "a,0.3,0.4"]
        rows[line - 1] += "1" * 200_000
        path = tmp_path / "pts.csv"
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(PointFileError, match="field larger than field limit") as info:
            read_points_file(path)
        assert info.value.line_number == line

    def test_row_after_a_multiline_quoted_field_reports_its_physical_line(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text('dataset_id,x,y\na,0.1,"0.2\n"\nc,zzz,0.3\n')
        with pytest.raises(PointFileError, match="bad coordinate") as info:
            read_points_file(path)
        assert info.value.line_number == 4

    def test_one_leading_byte_order_mark_dropped(self, tmp_path):
        plain = DATA_DIR / "synth1000.csv"
        marked = tmp_path / "bom.csv"
        marked.write_bytes(codecs.BOM_UTF8 + plain.read_bytes())
        want, got = read_points_file(plain), read_points_file(marked)
        assert [d.id for d in got] == [d.id for d in want]
        assert all(g.points.tobytes() == w.points.tobytes() for g, w in zip(got, want))
        # only one is dropped: a second names no dataset_id column
        marked.write_bytes(codecs.BOM_UTF8 * 2 + plain.read_bytes())
        with pytest.raises(PointFileError, match="header must name") as info:
            read_points_file(marked)
        assert info.value.line_number == 1
