import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bmcc import graph as graph_module
from bmcc.grid import GridConfig, decode_cells, encode_cell
from bmcc.graph import (
    _PAIR_CHUNK,
    GraphConfigError,
    _min_sqdist_coords,
    _min_sqdist_pairs,
    build_ball_tree,
    build_graph_indexed,
    build_graph_naive,
    connected_components,
    dataset_distance,
    read_adjacency,
    write_adjacency,
)
from bmcc.marketplace import Marketplace, PricingFunction
from bmcc.solvers import (
    SOLVER_LABELS,
    budgeted_greedy,
    build_bfs_tree,
    complete_graph_delta,
    solve,
    verify_solution,
)

from conftest import (
    brute_force_min_distance,
    make_dataset,
    make_market,
    random_market,
    union_find_components,
)


class TestDatasetDistance:
    def test_identical_sets_distance_zero(self):
        g = GridConfig(theta=3)
        a = make_dataset("a", [(1, 1), (2, 2)], g)
        b = make_dataset("b", [(1, 1), (2, 2)], g)
        assert dataset_distance(a, b) == 0.0

    def test_three_four_five(self):
        g = GridConfig(theta=3)
        a = make_dataset("a", [(0, 0)], g)
        b = make_dataset("b", [(3, 4)], g)
        assert dataset_distance(a, b) == 5.0

    def test_adjacent_cells_distance_one(self, example2_market):
        m = example2_market
        assert dataset_distance(m.dataset("d1"), m.dataset("d2")) == 1.0

    def test_mismatched_grids_rejected(self):
        a = make_dataset("a", [(0, 0)], GridConfig(theta=3))
        b = make_dataset("b", [(0, 0)], GridConfig(theta=4))
        with pytest.raises(GraphConfigError):
            dataset_distance(a, b)

    def test_symmetry_and_zero_iff_intersect(self):
        rng = np.random.default_rng(10)
        g = GridConfig(theta=5)
        for _ in range(50):
            pairs_a = sorted({(int(x), int(y)) for x, y in rng.integers(0, 12, size=(6, 2))})
            pairs_b = sorted({(int(x), int(y)) for x, y in rng.integers(0, 12, size=(6, 2))})
            a = make_dataset("a", pairs_a, g)
            b = make_dataset("b", pairs_b, g)
            dab = dataset_distance(a, b)
            assert dab == dataset_distance(b, a)
            intersects = bool(set(a.cells.tolist()) & set(b.cells.tolist()))
            assert (dab == 0.0) == intersects

    def test_matches_python_loop_oracle(self):
        rng = np.random.default_rng(11)
        g = GridConfig(theta=6)
        for _ in range(25):
            pairs_a = sorted({(int(x), int(y)) for x, y in rng.integers(0, 40, size=(8, 2))})
            pairs_b = sorted({(int(x), int(y)) for x, y in rng.integers(0, 40, size=(8, 2))})
            a = make_dataset("a", pairs_a, g)
            b = make_dataset("b", pairs_b, g)
            assert dataset_distance(a, b) == pytest.approx(
                brute_force_min_distance(a, b, 6), abs=1e-12)


class TestNaiveGraph:
    def test_identical_datasets_always_connect(self):
        m = make_market({"a": [(1, 1)], "b": [(1, 1)]}, theta=3)
        g = build_graph_naive(m, 0)
        assert g.adjacency == {"a": ("b",), "b": ("a",)}

    def test_threshold_exceeded_no_edge(self):
        m = make_market({"a": [(0, 0)], "b": [(3, 4)]}, theta=3)
        g = build_graph_naive(m, 2)
        assert g.n_edges == 0

    def test_example2_edge_structure(self, example2_market):
        g = build_graph_naive(example2_market, 2)
        assert g.adjacency == {
            "d1": ("d2",),
            "d2": ("d1", "d4"),
            "d3": ("d5",),
            "d4": ("d2",),
            "d5": ("d3",),
        }
        comp_members = [c.members for c in connected_components(g)]
        assert ("d1", "d2", "d4") in comp_members

    def test_kernel_over_all_pairs_against_pairwise_calls(self):
        for seed in range(12, 17):
            m = random_market(np.random.default_rng(seed), n_max=8)
            ii, jj = np.triu_indices(len(m), 1)
            d2 = _min_sqdist_pairs(decode_cells(m.cells), m.starts, ii, jj)
            for i, j, v in zip(ii.tolist(), jj.tolist(), d2.tolist()):
                a, b = m.dataset(m.ids[i]), m.dataset(m.ids[j])
                assert math.sqrt(v) == dataset_distance(a, b), (seed, i, j)
                assert math.sqrt(v) == pytest.approx(
                    brute_force_min_distance(a, b, m.grid.theta), abs=1e-12), (seed, i, j)


def scattered_market(seed, n=64, theta=6):
    """``n`` datasets of up to five cells clustered around random spots."""
    rng = np.random.default_rng(seed)
    grid = GridConfig(theta=theta)
    side = grid.side
    datasets = []
    for i in range(n):
        cx, cy = int(rng.integers(0, side)), int(rng.integers(0, side))
        pairs = sorted({(int(np.clip(cx + dx, 0, side - 1)),
                         int(np.clip(cy + dy, 0, side - 1)))
                        for dx, dy in rng.integers(-2, 3, size=(5, 2))})
        datasets.append(make_dataset(f"d{i:02d}", pairs, grid))
    return Marketplace.build(grid, datasets, PricingFunction.usage_based())


def datasets_under(market, tree, node):
    """Ids of the datasets beneath ``node``."""
    return tuple(market.ids[j] for j in tree.order[tree.start[node]:tree.end[node]])


def cells_under(market, tree, node):
    """Decoded (n, 2) cell indices of every dataset beneath ``node``."""
    return np.concatenate([decode_cells(market.dataset(did).cells)
                           for did in datasets_under(market, tree, node)])


class TestBallTree:
    def test_single_dataset_single_leaf(self):
        m = make_market({"a": [(0, 0), (2, 2)]}, theta=3)
        tree = build_ball_tree(m)
        assert len(tree.lo) == 1
        assert tree.left[0] < 0
        assert tree.lo.tolist() == [[0, 0]] and tree.hi.tolist() == [[2, 2]]

    def test_one_cell_dataset_point_box(self):
        m = make_market({"a": [(5, 5)], "b": [(1, 6), (3, 2)]}, theta=3)
        tree = build_ball_tree(m)
        leaf, = (n for n in range(len(tree.lo)) if datasets_under(m, tree, n) == ("a",))
        assert tree.left[leaf] < 0
        assert tree.lo[leaf].tolist() == tree.hi[leaf].tolist() == [5, 5]
        assert tree.lo.dtype == tree.hi.dtype == np.int64

    def test_leaves_partition_catalog(self):
        rng = np.random.default_rng(13)
        m = random_market(rng, n_max=12)
        tree = build_ball_tree(m)
        leaves = [n for n in range(len(tree.lo)) if tree.left[n] < 0]
        seen = []
        for n in leaves:
            under = datasets_under(m, tree, n)
            assert len(under) == 1
            seen.extend(under)
        assert sorted(seen) == sorted(m.ids)

    def test_every_cell_inside_ancestor_boxes(self):
        m = scattered_market(14)
        tree = build_ball_tree(m)
        assert len(tree.lo) == 2 * 64 - 1
        for node in range(len(tree.lo)):
            cells = cells_under(m, tree, node)
            assert (tree.lo[node] <= cells).all() and (cells <= tree.hi[node]).all(), node

    def test_each_box_face_touches_a_cell(self):
        m = scattered_market(15)
        tree = build_ball_tree(m)
        for node in range(len(tree.lo)):
            cells = cells_under(m, tree, node)
            assert cells.min(axis=0).tolist() == tree.lo[node].tolist(), node
            assert cells.max(axis=0).tolist() == tree.hi[node].tolist(), node

    @pytest.mark.parametrize("market", [scattered_market(14), *(
        random_market(np.random.default_rng(seed), n_max=20) for seed in range(40, 46))])
    def test_children_at_left_and_left_plus_one_halve_the_range(self, market):
        """What the walk derives: an internal node's children are ``left`` and
        ``left + 1`` and split its ``start:end`` range into two non-empty
        halves; a leaf holds one dataset; the arrays the walk indexes are
        int64."""
        tree = build_ball_tree(market)
        for arr in (tree.left, tree.start, tree.end, tree.order):
            assert arr.dtype == np.int64
        for i in range(len(tree.lo)):
            a = tree.left[i]
            if a < 0:
                assert tree.end[i] - tree.start[i] == 1, i
                continue
            assert tree.start[a] == tree.start[i] < tree.end[a], i
            assert tree.end[a] == tree.start[a + 1] < tree.end[a + 1] == tree.end[i], i


@pytest.mark.parametrize("build", [build_graph_naive, build_graph_indexed])
@pytest.mark.parametrize("priced", [False, True], ids=["usage", "table"])
def test_graph_prices_are_a_copy_of_the_catalog_prices(build, priced):
    rng = np.random.default_rng(21)
    index_sets = {f"d{i:02d}": [tuple(map(int, rng.integers(0, 32, size=2)))]
                  for i in rng.permutation(12)}
    prices = {did: int(rng.integers(1, 50)) for did in index_sets} if priced else None
    m = make_market(index_sets, theta=5, prices=prices)
    g = build(m, 4)
    assert list(g.prices.items()) == [(d, m.price_cents(d)) for d in m.ids]
    assert list(g.prices) == sorted(index_sets)
    before = {d: m.price_cents(d) for d in m.ids}
    g.prices["d00"] += 1
    del g.prices["d01"]
    assert {d: m.price_cents(d) for d in m.ids} == before


class TestIndexedGraph:
    def test_all_far_market_zero_edges(self):
        m = make_market({"a": [(0, 0)], "b": [(30, 0)], "c": [(0, 30)]}, theta=6)
        gn = build_graph_naive(m, 2)
        gi = build_graph_indexed(m, 2)
        assert gn.n_edges == 0
        assert gn.adjacency == gi.adjacency

    def test_identical_datasets_complete_graph(self):
        m = make_market({f"d{i}": [(3, 3), (4, 4)] for i in range(5)}, theta=4)
        gi = build_graph_indexed(m, 0)
        assert gi.n_edges == 5 * 4 // 2
        assert gi.adjacency == build_graph_naive(m, 0).adjacency

    @pytest.mark.parametrize("delta", [0, 5, 10])
    def test_random_markets_match_naive(self, delta):
        rng = np.random.default_rng(200 + delta)
        grid = GridConfig(theta=7)
        datasets = []
        for i in range(200):
            cx, cy = int(rng.integers(0, 100)), int(rng.integers(0, 100))
            pairs = sorted({(int(np.clip(cx + dx, 0, 127)), int(np.clip(cy + dy, 0, 127)))
                            for dx, dy in rng.integers(-3, 4, size=(6, 2))})
            datasets.append(make_dataset(f"d{i:03d}", pairs, grid))
        m = Marketplace.build(grid, datasets, PricingFunction.usage_based())
        gn = build_graph_naive(m, delta)
        gi = build_graph_indexed(m, delta)
        assert gn.adjacency == gi.adjacency

    def test_distance_exactly_delta_is_an_edge_in_both_paths(self):
        # 3-4-5 singletons: the pair distance equals the threshold exactly
        m = make_market({"a": [(0, 0)], "b": [(3, 4)], "c": [(20, 20)]}, theta=6)
        for delta in (5, 5.0):
            gn = build_graph_naive(m, delta)
            gi = build_graph_indexed(m, delta)
            assert gn.adjacency["a"] == ("b",)
            assert gn.adjacency == gi.adjacency
        # just below the boundary there is no edge
        assert build_graph_indexed(m, 4.999).n_edges == 0


@pytest.mark.parametrize("delta", [math.inf, math.nan, -1.0, True, np.True_, False],
                         ids=["inf", "nan", "negative", "bool", "numpy-bool", "false"])
@pytest.mark.parametrize("build", [build_graph_naive, build_graph_indexed,
                                   lambda m, delta: solve("dsa", m, 1, delta),
                                   lambda m, delta: solve("dsa", m, 1, delta,
                                                          graph=build_graph_naive(m, 1))],
                         ids=["naive", "indexed", "solve", "solve-on-graph"])
def test_bad_delta_is_graph_config_error(build, delta):
    """A ``bool`` is not a distance either, though Python counts it as an
    int; a graph built at delta 1 lets no bad delta through ``solve``."""
    m = make_market({"a": [(0, 0)], "b": [(1, 1)]}, theta=3)
    with pytest.raises(GraphConfigError, match="delta must be finite and non-negative"):
        build(m, delta)


@pytest.mark.parametrize("delta", [10**400, -10**400], ids=["huge", "huge-negative"])
@pytest.mark.parametrize("build", [
    build_graph_naive, build_graph_indexed,
    lambda m, delta: solve("dsa", m, 1, delta),
    lambda m, delta: solve("dsa", m, 1, delta, graph=build_graph_naive(m, 1)),
], ids=["naive", "indexed", "solve", "solve-on-graph"])
def test_delta_beyond_float_range_is_graph_config_error(build, delta):
    """A Python int too large for a float is rejected as a bad delta, not
    left to escape as the ``OverflowError`` of its float conversion."""
    m = make_market({"a": [(0, 0)], "b": [(1, 1)]}, theta=3)
    with pytest.raises(GraphConfigError, match="delta must be finite and non-negative"):
        build(m, delta)


SKEWED_SIZES = (1, 2, 3, 7, 40, 300, 5000)


def blob(rng, size, side):
    """``size`` distinct cells drawn from a square window at a random spot."""
    width = min(side, 2 * math.isqrt(size - 1) + 2)
    x0, y0 = (int(v) for v in rng.integers(0, side - width + 1, size=2))
    picks = rng.choice(width * width, size=size, replace=False)
    return np.column_stack([x0 + picks % width, y0 + picks // width]).astype(np.int64)


def kernel_inputs(coords):
    starts = np.zeros(len(coords) + 1, dtype=np.int64)
    np.cumsum([len(c) for c in coords], out=starts[1:])
    return np.concatenate(coords), starts


def skewed_market(seed, n=60, theta=8):
    """One dataset of 5000 cells, two of 300, the rest of 1 to 40 cells."""
    rng = np.random.default_rng(seed)
    grid = GridConfig(theta=theta)
    sizes = [5000, 300, 300] + [SKEWED_SIZES[i % 5] for i in range(n - 3)]
    datasets = [make_dataset(f"d{i:02d}", [tuple(c) for c in blob(rng, size, grid.side)], grid)
                for i, size in enumerate(sizes)]
    return Marketplace.build(grid, datasets, PricingFunction.usage_based())


class TestBatchedLeafKernel:
    """The padded, size-classed kernel against the per-pair reference."""

    def check_all_pairs(self, coords):
        cells, starts = kernel_inputs(coords)
        ii, jj = (a.ravel() for a in np.meshgrid(np.arange(len(coords)),
                                                 np.arange(len(coords))))
        got = _min_sqdist_pairs(cells, starts, ii, jj)
        assert got.dtype == np.int64
        for i, j, d2 in zip(ii.tolist(), jj.tolist(), got.tolist()):
            assert d2 == _min_sqdist_coords(coords[i], coords[j]), (i, j)
        return got

    def test_mixed_size_classes_match_reference(self):
        rng = np.random.default_rng(31)
        # two sizes inside one power-of-two class (3/4, 5/7, 33/40, 260/300)
        # pad the smaller one; pairs with 300 or 5000 cells exceed one chunk
        sizes = (1, 2, 3, 4, 5, 7, 33, 40, 260, 300, 5000)
        coords = [blob(rng, size, 1 << 9) for size in sizes]
        products = [a * b for a in sizes for b in sizes]
        assert min(products) < _PAIR_CHUNK < max(products)
        got = self.check_all_pairs(coords)
        assert (got == 0).any() and (got > 0).any()

    def test_many_pairs_per_chunk(self):
        rng = np.random.default_rng(32)
        coords = [blob(rng, int(size), 64) for size in rng.choice(SKEWED_SIZES[:4], size=40)]
        self.check_all_pairs(coords)

    def test_theta31_corners_exact(self):
        corners = [(0, 0), (THETA31_MAX, THETA31_MAX), (0, THETA31_MAX), (THETA31_MAX, 0),
                   (1, 0), (THETA31_MAX - 1, THETA31_MAX)]
        rng = np.random.default_rng(33)
        coords = [np.array([corner], dtype=np.int64) for corner in corners]
        for size in (2, 3, 7, 40):
            far = rng.integers(0, THETA31_MAX + 1, size=(size - 1, 2))
            coords.append(np.vstack([[corners[size % 4]], far]).astype(np.int64))
        got = self.check_all_pairs(coords)
        # the two opposite corners: d2 = 2 (2**31 - 1)**2, within 2**33 of 2**63
        assert int(got.max()) == 2 * THETA31_MAX ** 2 > (1 << 63) - (1 << 33)
        for k, (i, j) in enumerate(zip(*(a.ravel() for a in np.meshgrid(
                np.arange(len(coords)), np.arange(len(coords)))))):
            exact = min((int(ax) - int(bx)) ** 2 + (int(ay) - int(by)) ** 2
                        for ax, ay in coords[i].tolist() for bx, by in coords[j].tolist())
            assert int(got[k]) == exact

    def test_empty_pair_list(self):
        cells, starts = kernel_inputs([np.zeros((1, 2), dtype=np.int64)])
        none = np.zeros(0, dtype=np.int64)
        assert _min_sqdist_pairs(cells, starts, none, none).shape == (0,)


class TestDualTreeWalk:
    @pytest.fixture(scope="class")
    def market(self):
        return skewed_market(34)

    @pytest.mark.parametrize("delta", [0, 3, 10, 40, 200, "complete"])
    def test_skewed_sizes_match_naive(self, market, delta):
        if delta == "complete":
            delta = complete_graph_delta(market.grid)
        assert build_graph_indexed(market, delta).adjacency == \
            build_graph_naive(market, delta).adjacency

    def test_no_pair_reaches_kernel_twice(self, market, monkeypatch):
        seen = []

        def recording(cells, starts, ii, jj):
            seen.append(list(zip(ii.tolist(), jj.tolist())))
            return _min_sqdist_pairs(cells, starts, ii, jj)

        monkeypatch.setattr(graph_module, "_min_sqdist_pairs", recording)
        for delta in (0, 3, 10, 40, 200):
            seen.clear()
            build_graph_indexed(market, delta)
            pairs = [pair for call in seen for pair in call]
            assert pairs, delta
            assert all(i != j for i, j in pairs)
            assert len({frozenset(pair) for pair in pairs}) == len(pairs), delta

    def test_catalog_decoded_once_per_build(self, market, monkeypatch):
        calls = []

        def counting(cell_ids):
            calls.append(len(cell_ids))
            return decode_cells(cell_ids)

        monkeypatch.setattr(graph_module, "decode_cells", counting)
        for delta in (0, 10, 200):
            calls.clear()
            build_graph_indexed(market, delta)
            assert calls == [sum(market.dataset(did).coverage for did in market.ids)], delta

    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        """The ``(ii, jj)`` dataset pairs of every call to the exact kernel."""
        calls = []

        def recording(cells, starts, ii, jj):
            calls.append((ii.copy(), jj.copy()))
            return _min_sqdist_pairs(cells, starts, ii, jj)

        monkeypatch.setattr(graph_module, "_min_sqdist_pairs", recording)
        return calls

    def test_far_corners_exactly_delta_apart_accepted_whole(self, kernel_calls):
        # 3-4-5: both datasets' cells fit in one box whose diagonal is delta
        m = make_market({"a": [(0, 0)], "b": [(3, 4)]}, theta=3)
        assert build_graph_indexed(m, 5).adjacency == {"a": ("b",), "b": ("a",)}
        assert all(ii.size == 0 for ii, _ in kernel_calls)

    def test_kernel_sees_no_box_separated_pair(self, market, kernel_calls):
        """A dataset pair whose bounding boxes are more than delta apart is
        settled before the exact kernel."""
        coords = [decode_cells(market.dataset(did).cells) for did in market.ids]
        lo = np.array([c.min(axis=0) for c in coords])
        hi = np.array([c.max(axis=0) for c in coords])
        for delta in (0, 3, 10, 40, 200):
            kernel_calls.clear()
            build_graph_indexed(market, delta)
            ii, jj = (np.concatenate(side) for side in zip(*kernel_calls))
            gap = np.maximum(np.maximum(lo[ii] - hi[jj], lo[jj] - hi[ii]), 0)
            assert ((gap * gap).sum(axis=1) <= delta * delta).all(), delta


@st.composite
def deep_tree_sets(draw):
    """``(theta, sets)``: 1 to 60 cell lists on a small grid, some of them
    repeats of an earlier dataset, subsets of one (a nested box) or its two
    box corners (an identical box)."""
    theta = draw(st.integers(2, 8))
    coord = st.integers(0, (1 << theta) - 1)
    fresh = st.lists(st.tuples(coord, coord), min_size=1, max_size=6, unique=True)
    sets = []
    for _ in range(draw(st.integers(1, 60))):
        kind = draw(st.sampled_from(["fresh", "repeat", "subset", "corners"])) if sets else "fresh"
        if kind == "fresh":
            cells = draw(fresh)
        else:
            base = draw(st.sampled_from(sets))
            if kind == "repeat":
                cells = base
            elif kind == "subset":
                cells = draw(st.lists(st.sampled_from(base), min_size=1, unique=True))
            else:
                xs, ys = zip(*base)
                cells = [(min(xs), min(ys)), (max(xs), max(ys))]
        sets.append(sorted(set(cells)))
    return theta, sets


class TestDeepTreeWalk:
    """Up to 60 datasets build trees deep enough that the walk accepts whole
    internal nodes holding datasets on both sides of the walking leaf in
    ``tree.order``; only those after it may pair with it."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), drawn=deep_tree_sets())
    def test_indexed_equals_naive(self, data, drawn):
        theta, sets = drawn
        m = make_market({f"d{i:02d}": cells for i, cells in enumerate(sets)}, theta=theta)
        deltas = [0, complete_graph_delta(m.grid)]
        if len(sets) > 1:
            i, j = data.draw(st.lists(st.integers(0, len(sets) - 1),
                                      min_size=2, max_size=2, unique=True))
            d = math.sqrt(min((ax - bx) ** 2 + (ay - by) ** 2
                              for ax, ay in sets[i] for bx, by in sets[j]))
            deltas += [d, math.nextafter(d, 0), math.nextafter(d, math.inf)]
        delta = data.draw(st.sampled_from(deltas))
        assert build_graph_indexed(m, delta).adjacency == build_graph_naive(m, delta).adjacency


THETA31_MAX = (1 << 31) - 1  # largest cell index at theta=31


class TestTheta31Exactness:
    """At theta=31 a squared distance needs 62 bits, past a float's 53: the
    threshold and the box gap and far-corner bounds must stay exact there."""

    @pytest.mark.parametrize("far, edge", [((THETA31_MAX, 0), True),
                                           ((THETA31_MAX, 1), False)],
                             ids=["distance-exactly-delta", "one-cell-farther"])
    def test_grid_width_delta_in_both_paths(self, far, edge):
        m = make_market({"a": [(0, 0)], "b": [far]}, theta=31)
        gn = build_graph_naive(m, THETA31_MAX)
        gi = build_graph_indexed(m, THETA31_MAX)
        assert gn.adjacency["a"] == (("b",) if edge else ())
        assert gi.adjacency == gn.adjacency

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_naive_indexed_and_exact_truth_agree(self, data):
        coord = st.one_of(st.sampled_from([0, 1, 2, THETA31_MAX - 1, THETA31_MAX]),
                          st.integers(0, THETA31_MAX))
        cells = st.lists(st.tuples(coord, coord), min_size=1, max_size=6, unique=True)
        sets = data.draw(st.lists(cells, min_size=2, max_size=5))
        m = make_market({f"d{i}": pairs for i, pairs in enumerate(sets)}, theta=31)
        exact = [[min((ax - bx) ** 2 + (ay - by) ** 2 for ax, ay in a for bx, by in b)
                  for b in sets] for a in sets]
        # no int64 squared distance overflows: the kernel gives the exact values
        ii, jj = np.triu_indices(len(sets), 1)
        d2 = _min_sqdist_pairs(decode_cells(m.cells), m.starts, ii, jj).tolist()
        assert d2 == [exact[i][j] for i, j in zip(ii.tolist(), jj.tolist())]
        assert [math.sqrt(v) for v in d2] == [
            dataset_distance(m.dataset(f"d{i}"), m.dataset(f"d{j}"))
            for i, j in zip(ii.tolist(), jj.tolist())]
        d2 = data.draw(st.sampled_from(sorted({v for row in exact for v in row})))
        delta = data.draw(st.sampled_from([math.sqrt(d2), math.nextafter(math.sqrt(d2), 0),
                                           math.nextafter(math.sqrt(d2), math.inf)]))
        truth = {f"d{i}": tuple(f"d{j}" for j in range(len(sets))
                                if j != i and exact[i][j] <= Fraction(delta) ** 2)
                 for i in range(len(sets))}
        assert build_graph_naive(m, delta).adjacency == truth
        assert build_graph_indexed(m, delta).adjacency == truth


class TestComponents:
    def test_edgeless_graph_three_singletons(self):
        m = make_market({"a": [(0, 0)], "b": [(10, 0)], "c": [(0, 10)]}, theta=5)
        comps = connected_components(build_graph_naive(m, 1))
        assert [c.members for c in comps] == [("a",), ("b",), ("c",)]

    def test_path_is_one_component(self):
        m = make_market({"a": [(0, 0)], "b": [(1, 0)], "c": [(2, 0)]}, theta=3)
        comps = connected_components(build_graph_naive(m, 1))
        assert [c.members for c in comps] == [("a", "b", "c")]

    def test_component_count_matches_union_find(self):
        rng = np.random.default_rng(16)
        for _ in range(25):
            m = random_market(rng)
            delta = float(rng.choice([0, 1, 2, 3, 5]))
            g = build_graph_naive(m, delta)
            edges = [(u, v) for u, nbrs in g.adjacency.items() for v in nbrs if u < v]
            expected = union_find_components(g.nodes, edges)
            assert len(connected_components(g)) == expected

    def test_components_ordered_by_smallest_member(self):
        m = make_market({"z": [(0, 0)], "a": [(20, 20)], "b": [(21, 20)]}, theta=6)
        comps = connected_components(build_graph_naive(m, 1))
        assert [c.members[0] for c in comps] == ["a", "z"]


class TestCellMap:
    """Solves read cells from the catalog's ``(solo, shared)`` split, and
    ``verify_solution`` recounts them from the catalog's slices."""

    def test_split_counts_solo_cells_and_keeps_shared_ones(self):
        m = make_market({"a": [(0, 0), (0, 1)], "b": [(0, 1), (1, 1), (3, 3)],
                         "c": [(2, 2)], "d": [(0, 1), (3, 3)], "e": [(2, 3), (3, 2)]},
                        theta=3)
        solo, shared = m._split
        assert solo == {"a": 1, "b": 1, "c": 1, "d": 0, "e": 2}
        one, both = encode_cell(0, 1, 3), encode_cell(3, 3, 3)
        assert shared == {"a": {one}, "b": {one, both}, "c": set(), "d": {one, both},
                          "e": set()}
        assert all(type(cells) is frozenset for cells in shared.values())
        assert shared["c"] is shared["e"]  # one empty frozenset
        assert m._split is m._split  # built once per catalog

    def test_graph_without_market_has_no_cells(self, tmp_path):
        m = scattered_market(4, n=24)
        g = build_graph_indexed(m, 2)
        sol = solve("dsa", m, 30, 2, graph=g)
        write_adjacency(g, tmp_path / "graph.txt")
        read = read_adjacency(tmp_path / "graph.txt")
        with pytest.raises(GraphConfigError, match="no marketplace"):
            verify_solution(read, sol, 30)
        for sub in connected_components(read):
            tree = build_bfs_tree(sub, sub.members[0])
            with pytest.raises(GraphConfigError, match="no marketplace"):
                budgeted_greedy(tree, 10 ** 6, "coverage")

    @pytest.mark.parametrize("label", SOLVER_LABELS)
    def test_every_solver_refuses_a_graph_without_market(self, tmp_path, label):
        write_adjacency(build_graph_indexed(scattered_market(4, n=24), 2), tmp_path / "g.txt")
        read = read_adjacency(tmp_path / "g.txt")
        with pytest.raises(GraphConfigError, match="no marketplace"):
            solve(label, read.market, 10 ** 6, read.delta, graph=read)


class TestThresholdMonotonicity:
    def test_edges_grow_with_delta(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            m = random_market(rng)
            deltas = [0, 1, 2, 4, 8]
            graphs = [build_graph_naive(m, d) for d in deltas]
            for g1, g2 in zip(graphs, graphs[1:]):
                e1 = {(u, v) for u, nbrs in g1.adjacency.items() for v in nbrs}
                e2 = {(u, v) for u, nbrs in g2.adjacency.items() for v in nbrs}
                assert e1 <= e2
            degrees = [g.stats().average_degree for g in graphs]
            assert all(a <= b for a, b in zip(degrees, degrees[1:]))
            comps = [g.stats().components for g in graphs]
            assert all(a >= b for a, b in zip(comps, comps[1:]))


class TestStatsAndExport:
    def test_stats_fields(self, example2_market):
        stats = build_graph_naive(example2_market, 2).stats()
        assert stats.nodes == 5
        assert stats.edges == 3
        assert stats.average_degree == pytest.approx(6 / 5)
        assert stats.components == 2

    def test_adjacency_round_trip(self, tmp_path, example2_market):
        g = build_graph_naive(example2_market, 2)
        path = tmp_path / "graph.txt"
        write_adjacency(g, path)
        back = read_adjacency(path)
        assert back.adjacency == g.adjacency
        assert back.prices == g.prices
        assert back.delta == g.delta

    def test_asymmetric_file_rejected(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("CBGRAPH 1\ndelta 1.0\nnodes 2\na 1.00 1 b\nb 1.00 0\n")
        with pytest.raises(GraphConfigError):
            read_adjacency(path)

    @pytest.mark.parametrize("text, where", [
        ("CBGRAPH 1\n", "line 2"),
        ("CBGRAPH 1\ndelta x\nnodes 1\na 1.00 0\n", "line 2"),
        ("CBGRAPH 1\ndelta 1.0\n", "line 3"),
        ("CBGRAPH 1\ndelta 1.0\nnodes two\n", "line 3"),
        ("CBGRAPH 1\ndelta 1.0\nnodes 2\na 1.00 0\n", "found 1"),
        ("CBGRAPH 1\ndelta 1.0\nnodes 1\na 1.00\n", "line 4"),
        ("CBGRAPH 1\ndelta 1.0\nnodes 1\na 1.00 one\n", "line 4"),
        ("CBGRAPH 1\ndelta nan\nnodes 1\na 1.00 0\n", "line 2"),
        ("CBGRAPH 1\ndelta inf\nnodes 1\na 1.00 0\n", "line 2"),
        ("CBGRAPH 1\ndelta -1\nnodes 1\na 1.00 0\n", "line 2"),
        ("CBGRAPH 1\ndelta 1.0\nnodes 2\na 1.00 0\nb -1 0\n", "line 5"),
        ("CBGRAPH 1\ndelta 1.0\nnodes 1\na nan 0\n", "line 4"),
        ("CBGRAPH 1\ndelta 1.0\nnodes 1\na 1.005 0\n", "line 4"),
        ("CBGRAPH 1\ndelta 1.0\nnodes -1\na 1.00 0\n", "line 3"),
        ("CBGRAPH 1\ndelta 1.0\nnodes 1\na 1.00 0\nb 1.00 0\n", "line 5"),
        ("CBGRAPH 1\ndelta 1.0\nnodes 2\na 1.00 0\na 2.00 0\n", "line 5"),
        ("CBGRAPH 1\ndelta 1.0\nnodes 1\na 1.00 1 a\n", "line 4"),
        ("CBGRAPH 1\ndelta 1.0\nnodes 3\na 1.00 2 c b\nb 1.00 1 a\nc 1.00 1 a\n",
         "line 4"),
        ("CBGRAPH 1\ndelta 1.0\nnodes 2\na 1.00 2 b b\nb 1.00 1 a\n", "line 4"),
        ("CBGRAPH 1\ndelta 1.0\nnodes 2\na 1.00 0\nb 1.00 1 a\n", "line 5"),
    ], ids=["one-line", "bad-delta", "no-nodes-line", "bad-count", "truncated",
            "short-node-line", "bad-neighbor-count", "nan-delta", "infinite-delta",
            "negative-delta", "negative-price", "nan-price", "sub-cent-price",
            "negative-count", "line-past-count", "repeated-id", "self-loop",
            "unsorted-neighbors", "repeated-neighbor", "asymmetric-edge"])
    def test_malformed_file_rejected_with_line_number(self, tmp_path, text, where):
        path = tmp_path / "graph.txt"
        path.write_text(text)
        with pytest.raises(GraphConfigError, match=where):
            read_adjacency(path)

    def test_file_not_utf8_rejected_with_path(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_bytes(b"CBGRAPH 1\ndelta 1.0\xff\n")
        with pytest.raises(GraphConfigError, match="graph.txt: not a UTF-8 text file"):
            read_adjacency(path)
