"""Differential and enumeration tests for the exact oracle.

:func:`bmcc.solvers.solve_exact` walks the connected, budget-feasible sets of
the candidate graph (:func:`bmcc.solvers._connected_sets`, ESU). The tests
check three things:

* it returns exactly the :class:`Solution` of the bitmask oracle it replaced
  (``reference_solvers.solve_exact``, all 2^n subsets) on small markets;
* the enumeration yields every connected set priced within the budget
  exactly once, with its covered cells and price. A duplicate set cannot
  change a minimum, so the differential test alone would not see one;
* past the reference's 2^n-table limit, on 25-40 datasets, its coverage is
  at least that of every heuristic.
"""

import itertools
from dataclasses import replace

import numpy as np
import pytest

import reference_solvers as ref
from bmcc.graph import DatasetGraph, build_graph_indexed
from bmcc.marketplace import Marketplace, PricingFunction, cents_to_decimal
from bmcc.solvers import (
    SOLVER_LABELS,
    _connected_sets,
    make_reduction_instance,
    solve,
    solve_exact,
)

from conftest import random_market
from test_solvers_differential import DELTAS, RATIOS, differential_market

SEEDS = range(10)


def small_market(seed, pricing):
    """A ``random_market`` of 2-15 datasets under the given pricing."""
    rng = np.random.default_rng(500 + seed)
    market = random_market(rng, n_max=15)
    datasets = [market.dataset(i) for i in market.ids]
    if pricing == "usage":
        prices = PricingFunction.usage_based()
    else:
        prices = PricingFunction.from_table(
            {d.id: cents_to_decimal(int(rng.integers(1, 1200))) for d in datasets})
    return Marketplace.build(market.grid, datasets, prices)


def oracle_budgets(total, cheapest):
    """Zero, one cent below the cheapest dataset, the ratios of the total,
    and more than the total."""
    cents = [0, max(cheapest - 1, 0)] + [int(r * total) for r in RATIOS] + [total + 100]
    return [cents_to_decimal(c) for c in cents]


@pytest.mark.parametrize("delta", DELTAS, ids=lambda d: f"delta{d:g}")
@pytest.mark.parametrize("pricing", ("usage", "table"))
def test_exact_matches_bitmask_reference(pricing, delta):
    for seed in SEEDS:
        market = small_market(seed, pricing)
        graph = build_graph_indexed(market, delta)
        cheapest = min(graph.prices.values())
        for budget in oracle_budgets(market.total_price_cents, cheapest):
            got = solve_exact(market, budget, delta, graph=graph)
            want = ref.solve_exact(market, budget, delta, graph=graph)
            assert got == want, (seed, str(budget))


@pytest.mark.parametrize("delta", DELTAS[1:], ids=lambda d: f"delta{d:g}")
def test_exact_matches_bitmask_reference_with_free_nodes(delta):
    """About 40% of the nodes re-priced to 0: free nodes never hit the
    budget, so the budget prune must still reach every set through them."""
    rng = np.random.default_rng(78)
    for seed in SEEDS:
        market = small_market(seed, "table")
        graph = build_graph_indexed(market, delta)
        prices = {d: (0 if rng.random() < 0.4 else p) for d, p in graph.prices.items()}
        free = replace(graph, prices=prices)
        total = sum(prices.values())
        for budget in oracle_budgets(total, min(prices.values())):
            got = solve_exact(market, budget, delta, graph=free)
            want = ref.solve_exact(market, budget, delta, graph=free)
            assert got == want, (seed, str(budget))


# ---------------------------------------------------------------------------
# Each connected, budget-feasible set exactly once


def make_graph(n, edges, prices=None):
    """A graph over ``n`` one-cell datasets ``s0..``, ids ascending with the
    node index, with the given undirected edges and prices (default 1)."""
    market = make_reduction_instance(n, [[i] for i in range(n)])
    ids = market.ids
    nbrs = {i: set() for i in range(n)}
    for i, j in edges:
        nbrs[i].add(j)
        nbrs[j].add(i)
    return DatasetGraph(
        delta=0.0,
        prices={ids[i]: 1 if prices is None else prices[i] for i in range(n)},
        adjacency={ids[i]: tuple(ids[j] for j in sorted(nbrs[i])) for i in range(n)},
        market=market,
    )


def enumerated(graph, budget=None):
    """The member sets the generator yields on the graph induced by the
    nodes that fit ``budget`` (the candidate graph of a solve), after checking
    each yield's coverage, shared cells and price against its members, whose
    cells are recounted from their market slices."""
    if budget is None:
        budget = sum(graph.prices.values())
    out = []
    shared = ref.shared_cells(graph.market)
    candidate = graph.restricted(d for d, p in graph.prices.items() if p <= budget)
    for members, coverage, covered, price in _connected_sets(candidate, budget):
        cells = ref.covered_cells(graph.market, members)
        assert (coverage, covered) == (len(cells), cells & shared)
        assert price == sum(graph.prices[d] for d in members) <= budget
        out.append(frozenset(members))
    return out


def connected(graph, members):
    start = next(iter(members))
    seen, frontier = {start}, [start]
    while frontier:
        u = frontier.pop()
        for v in graph.adjacency[u]:
            if v in members and v not in seen:
                seen.add(v)
                frontier.append(v)
    return seen == members


def brute_force(graph, budget):
    """Every connected node set priced within ``budget``, by listing all 2^n."""
    nodes = graph.nodes
    return {frozenset(c) for k in range(1, len(nodes) + 1)
            for c in itertools.combinations(nodes, k)
            if sum(graph.prices[d] for d in c) <= budget and connected(graph, frozenset(c))}


def complete(n):
    return list(itertools.combinations(range(n), 2))


def path(n):
    return [(i, i + 1) for i in range(n - 1)]


def cycle(n):
    return path(n) + [(n - 1, 0)]


def star(n, hub):
    return [(hub, i) for i in range(n) if i != hub]


@pytest.mark.parametrize("n", range(1, 11))
def test_connected_sets_counts_on_named_graphs(n):
    shapes = {
        "complete": (complete(n), 2 ** n - 1),
        "path": (path(n), n * (n + 1) // 2),
        # a hub in the middle: 2^(n-1) sets hold it, plus each leaf alone
        "star": (star(n, n // 2), 2 ** (n - 1) + n - 1),
    }
    if n >= 3:
        shapes["cycle"] = (cycle(n), n * (n - 1) + 1)
    for name, (edges, count) in shapes.items():
        sets = enumerated(make_graph(n, edges))
        assert len(sets) == count, name
        assert len(set(sets)) == count, name


def test_connected_sets_match_brute_force_under_budget():
    rng = np.random.default_rng(9)
    checked = 0
    for _ in range(60):
        n = int(rng.integers(1, 11))
        p = float(rng.choice([0.15, 0.3, 0.6]))
        edges = [e for e in complete(n) if rng.random() < p]
        prices = [int(v) for v in rng.integers(0, 6, size=n)]
        graph = make_graph(n, edges, prices)
        total = sum(prices)
        for budget in {0, total // 4, total // 2, total, int(rng.integers(0, total + 1))}:
            sets = enumerated(graph, budget)
            want = brute_force(graph, budget)
            assert len(sets) == len(set(sets)) == len(want), (n, edges, prices, budget)
            assert set(sets) == want
            checked += 1
    assert checked >= 150


# ---------------------------------------------------------------------------
# Past the bitmask oracle's 2^n tables


@pytest.mark.parametrize("delta", DELTAS, ids=lambda d: f"delta{d:g}")
@pytest.mark.parametrize("pricing", ("usage", "table"))
def test_exact_dominates_heuristics_on_25_to_40_datasets(pricing, delta):
    """Every budget at delta 0 and 2; at the larger deltas, where the
    candidate graph is dense, only the smallest ratio and the one below the
    cheapest dataset."""
    for seed in range(8):
        market = differential_market(seed, pricing)
        assert 25 <= len(market) <= 40
        graph = build_graph_indexed(market, delta)
        total = market.total_price_cents
        cheapest = min(graph.prices.values())
        cents = [cheapest - 1, int(RATIOS[0] * total)]
        if delta <= 2:
            cents += [int(r * total) for r in RATIOS[1:]]
        for budget in map(cents_to_decimal, cents):
            opt = solve_exact(market, budget, delta, cap=40, graph=graph)
            for label in SOLVER_LABELS:
                if label == "exact":
                    continue
                sol = solve(label, market, budget, delta, graph=graph)
                assert sol.coverage <= opt.coverage, (seed, str(budget), label)
