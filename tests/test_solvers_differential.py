"""Differential test: the incremental greedy solvers against the full-scan
loops they replaced (``reference_solvers``), on seeded random markets.

Usage pricing makes every dataset's initial gain-per-price equal, so the
first picks of the ratio passes are decided by the smallest-id tie-break
alone; explicit-table pricing makes the ratios distinct. Float-tie pricing
charges 2**53 cents per cell plus under one cent per cell, so distinct ratios
round to equal floats and only an exact key orders them. Budgets run from
below the cheapest dataset up to the whole catalog.
"""

from dataclasses import replace

import numpy as np
import pytest

import reference_solvers as ref
from bmcc.graph import build_graph_indexed, connected_components
from bmcc.grid import GridConfig
from bmcc.marketplace import Marketplace, PricingFunction, cents_to_decimal, to_cents
from bmcc.solvers import (
    budgeted_greedy,
    build_bfs_tree,
    complete_graph_delta,
    find_center_exact,
    find_center_two_bfs,
    make_reduction_instance,
    solve_cmc,
    solve_dpsa,
    solve_dsa,
)

from conftest import make_dataset

THETA = 6
SEEDS = range(8)
DELTAS = (0.0, 2.0, 10.0, complete_graph_delta(GridConfig(theta=THETA)))
RATIOS = (0.02, 0.1, 0.3, 1.0)

SOLVERS = {
    "dsa": (solve_dsa, ref.solve_dsa, {}),
    "dpsa": (solve_dpsa, ref.solve_dpsa, {"center_mode": "exact"}),
    "dpsa-ba": (solve_dpsa, ref.solve_dpsa, {"center_mode": "two_bfs"}),
    "cmc-mc": (solve_cmc, ref.solve_cmc, {"variant": "mc"}),
    "cmc-mg": (solve_cmc, ref.solve_cmc, {"variant": "mg"}),
}


def differential_market(seed, pricing):
    """25-40 overlapping blobs of 1-14 cells in a 40x40 corner of a 64x64
    grid: a few components at small deltas, one at large ones."""
    rng = np.random.default_rng(1000 + seed)
    grid = GridConfig(theta=THETA)
    datasets = []
    for i in range(int(rng.integers(25, 41))):
        cx, cy = (int(v) for v in rng.integers(0, 40, size=2))
        k = int(rng.integers(1, 15))
        xs = np.clip(cx + rng.integers(-3, 4, size=k), 0, grid.side - 1)
        ys = np.clip(cy + rng.integers(-3, 4, size=k), 0, grid.side - 1)
        pairs = sorted({(int(x), int(y)) for x, y in zip(xs, ys)})
        datasets.append(make_dataset(f"d{i:02d}", pairs, grid))
    if pricing == "usage":
        prices = PricingFunction.usage_based()
    elif pricing == "table":
        prices = PricingFunction.from_table(
            {d.id: cents_to_decimal(int(rng.integers(50, 5000))) for d in datasets})
    else:  # "float-tie": every initial ratio is 1 / (2**53 + f), 0 <= f < 1
        prices = PricingFunction({d.id: d.coverage * 2 ** 53 + int(rng.integers(0, d.coverage))
                                  for d in datasets})
    return Marketplace.build(grid, datasets, prices)


def budgets(market):
    """Budget ratios of the catalog total, plus one cent below the cheapest."""
    cheapest = min(market.price_cents(d) for d in market.ids)
    cents = [int(r * market.total_price_cents) for r in RATIOS] + [cheapest - 1]
    return [cents_to_decimal(c) for c in cents]


def solution_key(sol):
    return (sol.selected, sol.coverage, sol.total_price_cents, sol.round_coverages,
            sol.status)


def _compare_solvers(graph, delta, budget_list, seed):
    for budget in budget_list:
        for label, (new, old, kwargs) in SOLVERS.items():
            got = new(graph.market, budget, delta, graph=graph, **kwargs)
            want = old(graph.market, budget, delta, graph=graph, **kwargs)
            assert solution_key(got) == solution_key(want), (seed, str(budget), label)


@pytest.mark.parametrize("delta", DELTAS, ids=lambda d: f"delta{d:g}")
@pytest.mark.parametrize("pricing", ("usage", "table", "float-tie"))
def test_solvers_match_full_scan_reference(pricing, delta):
    for seed in SEEDS:
        market = differential_market(seed, pricing)
        _compare_solvers(build_graph_indexed(market, delta), delta, budgets(market), seed)


def test_path_solvers_match_full_scan_reference_on_a_chain():
    """A chain of 40 unit-priced datasets, each sharing 5 cells with the next:
    every path is a stretch of the chain and many scores tie exactly, so the
    smallest-id rule decides most picks."""
    market = make_reduction_instance(205, [range(5 * i, 5 * i + 10) for i in range(40)])
    graph = build_graph_indexed(market, 0)
    assert graph.n_edges == 39
    for ratio in RATIOS:
        budget = cents_to_decimal(int(ratio * market.total_price_cents))
        for label in ("dpsa", "dpsa-ba", "cmc-mc", "cmc-mg"):
            new, old, kwargs = SOLVERS[label]
            got = new(market, budget, 0, graph=graph, **kwargs)
            want = old(market, budget, 0, graph=graph, **kwargs)
            assert solution_key(got) == solution_key(want), (ratio, label)


def test_float_tie_pricing_ties_distinct_ratios():
    for seed in SEEDS:
        market = differential_market(seed, "float-tie")
        ratios = {(market.dataset(d).coverage, market.price_cents(d)) for d in market.ids}
        assert max(p for _, p in ratios) ** 2 > 2 ** 106
        assert any(g1 / p1 == g2 / p2 and g1 * p2 != g2 * p1
                   for g1, p1 in ratios for g2, p2 in ratios), seed


def _trees(sub):
    """BFS trees from the exact center, the double-BFS center and the
    smallest id (distinct roots only)."""
    roots = dict.fromkeys([find_center_exact(sub).center, find_center_two_bfs(sub).center,
                           sub.members[0]])
    return [build_bfs_tree(sub, root) for root in roots]


def _compare_greedy_on_every_component(graph, budget_list):
    """The greedy's set against the reference's, and its coverage and price
    against a recount of that set over its market slices and the graph's
    prices."""
    for sub in connected_components(graph):
        for tree in _trees(sub):
            for budget in budget_list:
                for flag in ("ratio", "coverage"):
                    selected, coverage, price = budgeted_greedy(tree, to_cents(budget), flag)
                    want = ref.budgeted_greedy(sub, tree, budget, flag)
                    assert selected == want, (tree.root, str(budget), flag)
                    recount = (len(ref.covered_cells(graph.market, selected)),
                               sum(graph.prices[u] for u in selected))
                    assert (coverage, price) == recount, (tree.root, str(budget), flag)


@pytest.mark.parametrize("delta", DELTAS, ids=lambda d: f"delta{d:g}")
@pytest.mark.parametrize("pricing", ("usage", "table"))
def test_budgeted_greedy_matches_reference_on_every_component(pricing, delta):
    for seed in SEEDS:
        market = differential_market(seed, pricing)
        _compare_greedy_on_every_component(build_graph_indexed(market, delta),
                                           budgets(market))


def free_graphs(pricing, delta):
    """Per seed, the differential market's graph with about 40% of its
    datasets priced at zero, and budgets at each ratio of its new total."""
    rng = np.random.default_rng(77)
    for seed in SEEDS:
        market = differential_market(seed, pricing)
        graph = build_graph_indexed(market, delta)
        prices = {d: (0 if rng.random() < 0.4 else p) for d, p in graph.prices.items()}
        total = sum(prices.values())
        yield seed, replace(graph, prices=prices), [
            cents_to_decimal(int(r * total)) for r in RATIOS]


@pytest.mark.parametrize("delta", DELTAS[1:], ids=lambda d: f"delta{d:g}")
def test_budgeted_greedy_matches_reference_with_zero_cost_paths(delta):
    """Free nodes on the graph make zero incremental-price paths appear
    mid-run, exercising the ratio pass's zero-cost-first rule."""
    for _, free, budget_list in free_graphs("table", delta):
        _compare_greedy_on_every_component(free, budget_list)


@pytest.mark.parametrize("delta", DELTAS, ids=lambda d: f"delta{d:g}")
@pytest.mark.parametrize("pricing", ("usage", "table"))
def test_solvers_match_reference_with_zero_graph_prices(pricing, delta):
    """Whole solves on graphs that price some datasets at zero: both sides
    read ``graph.prices``, and ``dsa``'s ratio pass ranks free datasets
    first, by higher gain."""
    for seed, free, budget_list in free_graphs(pricing, delta):
        _compare_solvers(free, delta, budget_list, seed)
