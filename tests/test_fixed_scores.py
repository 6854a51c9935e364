"""The greedy steps that skip a rescore because the score cannot change,
against the full scans they replace.

``cmc-mc`` scores a path by ``reach / depth``, which no take changes, so it
takes its paths in one pass over an order sorted once per tree
(``BfsTree._mc_order``, :func:`_take_in_order`) instead of rescanning every
live end at each take (:func:`_grow_paths`, which ``cmc-mg`` and ``dpsa``
still run). ``dsa`` walks a kept order of each pass's first keys beside a
side heap of demoted candidates, and rescores only a candidate with shared
cells that fits the budget left: one with no shared cell keeps its gain, and
one over the budget left is dropped whenever it is examined.
"""

import collections

import numpy as np
import pytest

import bmcc.solvers as solvers
import reference_solvers as ref
from bmcc.graph import DatasetGraph, Subgraph, build_graph_indexed, connected_components
from bmcc.grid import GridConfig
from bmcc.marketplace import Marketplace, PricingFunction, cents_to_decimal
from bmcc.solvers import (
    build_bfs_tree,
    find_center_exact,
    solve_cmc,
    solve_dsa,
    _grow_paths,
    _take_in_order,
)

from conftest import make_dataset
from test_solvers_differential import DELTAS, SEEDS, differential_market


def _grow(tree, b, sweep):
    """``(slots taken in order, selected, count, spent)`` of ``cmc-mc``'s
    growth of ``tree`` within ``b`` cents: by the one pass over the kept
    order, or by the full scan of the live ends at each take."""
    setup, depth = tree._node_paths
    growth = setup.copy()
    taken, take = [], growth.take

    def recording_take(s):
        taken.append(s)
        return take(s)

    growth.take = recording_take
    if sweep:
        _take_in_order(growth, b, tree._mc_order)
    else:
        _grow_paths(growth, b, growth.reach, depth)
    return taken, growth.selected, growth.count, growth.spent


def _compare_on_every_tree(sub, total):
    """The sweep against the scan on the trees of ``sub`` from its smallest
    member (``cmc``'s root) and from its exact center, at budgets from one
    cent below the root's price up to ``total``."""
    prices = sub.graph.prices
    component = sum(prices[u] for u in sub.members)
    for root in dict.fromkeys([sub.members[0], find_center_exact(sub).center]):
        tree = build_bfs_tree(sub, root)
        base = prices[root]
        budgets = [base - 1, base, component, total] + [
            base + int(r * (component - base)) for r in (0.02, 0.1, 0.3, 0.6)]
        for b in budgets:
            assert _grow(tree, b, True) == _grow(tree, b, False), (root, b)


def test_sweep_matches_scan_on_the_giant_component(synth_giant):
    _compare_on_every_tree(synth_giant, synth_giant.graph.market.total_price_cents)


@pytest.mark.parametrize("delta", DELTAS, ids=lambda d: f"delta{d:g}")
@pytest.mark.parametrize("pricing", ("usage", "table", "float-tie"))
def test_sweep_matches_scan_on_every_component(pricing, delta):
    for seed in SEEDS:
        market = differential_market(seed, pricing)
        for sub in connected_components(build_graph_indexed(market, delta)):
            if len(sub) > 2:
                _compare_on_every_tree(sub, market.total_price_cents)


def _hand_graph(cells, prices, edges):
    """A graph of the hand-built ``edges`` over a catalog in which dataset
    ``u`` holds the cells at the grid positions ``cells[u]`` and costs
    ``prices[u]`` cents. Its edges need not be the catalog's distances."""
    grid = GridConfig(theta=5)
    datasets = [make_dataset(u, [divmod(p, grid.side) for p in ps], grid)
                for u, ps in cells.items()]
    market = Marketplace.build(grid, datasets, PricingFunction(prices))
    adjacency = {u: set() for u in market.ids}
    for u, v in edges:
        adjacency[u].add(v)
        adjacency[v].add(u)
    return DatasetGraph(delta=0.0, prices=dict(prices), market=market,
                        adjacency={u: tuple(sorted(adjacency[u])) for u in market.ids})


def _hand_tree(counts, prices, edges):
    """The tree ``edges`` ((parent, child) pairs, the root first) over
    datasets that each hold ``counts[u]`` cells of their own."""
    cells, first = {}, 0
    for u, k in counts.items():
        cells[u], first = range(first, first + k), first + k
    graph = _hand_graph(cells, prices, edges)
    return build_bfs_tree(Subgraph(graph.nodes, graph), edges[0][0])


def _order_ids(tree):
    setup = tree._node_paths[0]
    return [setup._ids[setup._node[s]] for s in tree._mc_order]


def _sweep(tree, b):
    """What the sweep selects within ``b`` cents, checked against the scan."""
    got = _grow(tree, b, True)
    assert got == _grow(tree, b, False)
    return got[1]


@pytest.mark.parametrize("short, long", [("a", "b"), ("b", "a")])
def test_equal_ratios_go_to_the_smaller_end_id(short, long):
    """Paths of ratio 2/1 (to ``short``) and 4/2 (to ``long``, below ``m``)
    tie exactly; the budget has room for one of them only."""
    counts = {"r": 1, short: 2, "m": 1, long: 3}
    prices = {"r": 1, short: 5, "m": 1, long: 4}
    tree = _hand_tree(counts, prices, [("r", short), ("r", "m"), ("m", long)])
    assert _order_ids(tree) == ["a", "b", "m"]
    assert _sweep(tree, 6) == ({"r", short} if short == "a" else {"r", "m", long})


def test_close_ratios_are_not_tied_by_a_floor():
    """A path of ratio 7/4 (to ``b4``) and one of 5/3 (to ``a3``); every
    other path has ratio 1. An unscaled key ``reach // depth`` floors all of
    them to 1, so the smallest ids would come first. The budget has room for
    the root and the four nodes of ``b4``'s path."""
    counts = {"r": 1, "a1": 1, "a2": 1, "a3": 3, "b1": 1, "b2": 1, "b3": 1, "b4": 4}
    edges = [("r", "a1"), ("r", "b1"), ("a1", "a2"), ("b1", "b2"), ("a2", "a3"),
             ("b2", "b3"), ("b3", "b4")]
    tree = _hand_tree(counts, dict.fromkeys(counts, 1), edges)
    assert _order_ids(tree) == ["b4", "a3", "a1", "a2", "b1", "b2", "b3"]
    assert _sweep(tree, 5) == {"r", "b1", "b2", "b3", "b4"}


def test_a_cheaper_path_fits_after_a_better_one_did_not():
    """The best path (to ``b``, ratio 10) does not fit with the root; the
    sweep passes over it and still takes the cheaper one to ``c``."""
    counts, prices = {"a": 1, "b": 10, "c": 1}, {"a": 1, "b": 5, "c": 1}
    tree = _hand_tree(counts, prices, [("a", "b"), ("a", "c")])
    assert _order_ids(tree) == ["b", "c"]
    assert _sweep(tree, 5) == {"a", "c"}
    # b alone fits 5 cents, so it stays in the candidate graph of the solve
    market = tree.component.graph.market
    sol = solve_cmc(market, cents_to_decimal(5), 0, variant="mc", graph=tree.component.graph)
    assert (sol.selected, sol.coverage, sol.total_price_cents) == (("a", "c"), 2, 2)


def test_a_shared_pop_that_is_not_adjacent_is_rescored_and_taken_later():
    """``x`` shares ten cells with ``a`` and has one of its own; ``b`` has
    five. The hand-built edges are a-b and b-x. Both passes take ``a``, then
    pop ``x`` while it is not adjacent: its rescore (gain 1) sends it below
    ``b``, and once ``b`` is taken, ``x`` is adjacent and taken too.

    On a graph whose edges are the catalog's distances, a dataset whose gain
    fell shares a cell with the selection and so is adjacent to it; only
    edges built by hand can pair a fallen gain with a missing edge."""
    cells = {"a": range(0, 20), "b": range(30, 35), "x": [*range(0, 10), 40]}
    graph = _hand_graph(cells, dict.fromkeys(cells, 1), [("a", "b"), ("b", "x")])
    budget = cents_to_decimal(3)
    sol = solve_dsa(graph.market, budget, 0, graph=graph)
    assert (sol.selected, sol.coverage, sol.round_coverages) == (("a", "b", "x"), 26, (26, 26))
    assert sol == ref.solve_dsa(graph.market, budget, 0, graph=graph)


def _star_dsa(cells, budget_cents):
    """``solve_dsa`` on the star whose centre is ``a`` over datasets of one
    cent each, checked against the full-scan reference."""
    graph = _hand_graph(cells, dict.fromkeys(cells, 1), [("a", u) for u in cells if u != "a"])
    budget = cents_to_decimal(budget_cents)
    sol = solve_dsa(graph.market, budget, 0, graph=graph)
    assert sol == ref.solve_dsa(graph.market, budget, 0, graph=graph)
    return sol


def test_a_demoted_candidate_waits_while_static_candidates_pass_it():
    """``x`` shares ten cells with ``a`` and has one of its own; ``b`` and
    ``c``, with five and three cells of their own, have no shared cell. Both
    passes take ``a``, then rescore ``x`` to a gain of 1 and demote it; ``b``
    and ``c`` pass it on their first keys and fill the budget."""
    cells = {"a": range(0, 20), "b": range(30, 35), "c": range(50, 53), "x": [*range(10), 40]}
    sol = _star_dsa(cells, 3)
    assert (sol.selected, sol.coverage, sol.round_coverages) == (("a", "b", "c"), 28, (28, 28))


@pytest.mark.parametrize("first", ["x", "y"])
def test_demoted_candidates_with_equal_keys_come_out_in_ascending_id(first):
    """``first`` shares ten cells with ``a``, the other of ``x`` and ``y``
    nine; each has one of its own, so both are rescored to a gain of 1 and
    demoted below ``z`` (five cells), ``first`` before the other. The budget
    has room for ``z`` and one of them: ``x``, whichever was demoted first."""
    other = "y" if first == "x" else "x"
    cells = {"a": range(0, 20), first: [*range(10), 40], other: [*range(9), 41],
             "z": range(50, 55)}
    sol = _star_dsa(cells, 3)
    assert (sol.selected, sol.coverage) == (("a", "x", "z"), 26)


def test_equal_first_keys_are_kept_in_ascending_id():
    """Three datasets of one cell at one cent tie on both first keys, on a
    graph that lists its nodes in descending id: each kept order ascends by
    id, so both passes take ``a`` first and then find no neighbour of it."""
    hand = _hand_graph({"a": [0], "b": [1], "c": [2]}, dict.fromkeys("abc", 1), [("b", "c")])
    graph = DatasetGraph(0.0, hand.prices, {u: hand.adjacency[u] for u in "cba"}, hand.market)
    budget = cents_to_decimal(2)
    sol = solve_dsa(graph.market, budget, 0, graph=graph)
    assert solvers._DSA_ORDERS[graph] == (("a", "b", "c"), ("a", "b", "c"))
    assert (sol.selected, sol.round_coverages) == (("a",), (1, 1))
    assert sol == ref.solve_dsa(graph.market, budget, 0, graph=graph)


class _CountedCells(frozenset):
    """A dataset's shared cells that count each set difference taken of
    them, which is how ``dsa`` rescores a candidate."""

    def __sub__(self, other):
        self.rescores[self.owner] += 1
        return frozenset(self) - other

    difference = __sub__


@pytest.mark.parametrize("seed", range(40))
def test_no_candidate_without_shared_cells_is_rescored(seed):
    """Random catalogs of up to 14 datasets on 60 cell positions, so that
    cells are often shared, with random prices (ties common), random
    hand-built edges and a random budget: ``dsa`` answers as the full-scan
    reference, and only datasets with shared cells are rescored."""
    rng = np.random.default_rng(seed)
    ids = [f"d{i:02d}" for i in range(int(rng.integers(3, 15)))]
    cells = {u: rng.choice(60, size=int(rng.integers(1, 13)), replace=False).tolist()
             for u in ids}
    prices = {u: int(rng.integers(1, 6)) for u in ids}
    edges = [(u, v) for i, u in enumerate(ids) for v in ids[i + 1:] if rng.random() < 0.4]
    graph = _hand_graph(cells, prices, edges)
    budget = cents_to_decimal(int(rng.integers(min(prices.values()), sum(prices.values()) + 1)))
    want = ref.solve_dsa(graph.market, budget, 0, graph=graph)
    solo, shared = graph.market._split
    rescores = collections.Counter()
    counted = {}
    for u, mine in shared.items():
        counted[u] = _CountedCells(mine)
        counted[u].owner, counted[u].rescores = u, rescores
    vars(graph.market)["_split"] = solo, counted
    assert solve_dsa(graph.market, budget, 0, graph=graph) == want
    assert set(rescores) <= {u for u in ids if shared[u]}, rescores
