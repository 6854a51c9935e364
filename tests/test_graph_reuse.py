"""Reuse across solves on one query graph.

A solve prepares what depends on the graph alone once per graph object: its
components (``bmcc.graph._components``, keyed weakly by the graph) and, on
each component, the result of each center search (``Subgraph.centers``) and
each BFS tree with its path set-ups (``Subgraph.trees``).
These tests check that a solve on a graph solved before, at other budgets,
answers exactly as one on a freshly built graph; that no solve writes to
what is kept; that the reuse keeps no graph alive; that a repeat center
search or tree runs no BFS; that what is kept per tree node stays small; and
that two threads solving one shared graph at once get the single-thread
answers.
"""

import gc
import sys
import threading
import tracemalloc
import weakref
from array import array

import pytest

import bmcc.graph as graph_module
import bmcc.solvers as solvers
from bmcc.graph import DatasetGraph, Subgraph, build_graph_indexed, connected_components
from bmcc.marketplace import cents_to_decimal
from bmcc.solvers import (
    CenterResult,
    budgeted_greedy,
    build_bfs_tree,
    find_center_exact,
    find_center_two_bfs,
    solve,
)

from test_solvers_differential import DELTAS, budgets, differential_market

LABELS = ("dsa", "dpsa", "dpsa-ba", "cmc-mc", "cmc-mg")
DIFFERENTIAL_CASES = [(seed, pricing, delta) for seed in range(3)
                      for pricing in ("usage", "table", "float-tie") for delta in DELTAS]


def _fit_budgets(market):
    """Two budgets in cents: the largest dataset price, at which every
    dataset fits on its own and the candidate graph is the query graph, and
    the median of the prices below it, at which only some do."""
    prices = sorted(market.price_cents(d) for d in market.ids)
    below = [p for p in prices if p < prices[-1]]
    return [prices[-1], below[len(below) // 2]]


def _solve_all(market, graph, delta, cents_list):
    return {(label, cents): solve(label, market, cents_to_decimal(cents), delta, graph=graph)
            for cents in cents_list for label in LABELS}


def _assert_cached_equals_fresh(market, delta, warm_cents, cents_list):
    graph = build_graph_indexed(market, delta)
    _solve_all(market, graph, delta, warm_cents)
    assert graph in graph_module._COMPONENTS
    for cents in cents_list:
        for label in LABELS:
            budget = cents_to_decimal(cents)
            fresh = build_graph_indexed(market, delta)
            assert solve(label, market, budget, delta, graph=graph) == \
                solve(label, market, budget, delta, graph=fresh), (label, cents)


@pytest.mark.parametrize("seed,pricing,delta", DIFFERENTIAL_CASES,
                         ids=[f"{p}-seed{s}-delta{d:g}" for s, p, d in DIFFERENTIAL_CASES])
def test_cached_answers_equal_fresh_ones_on_differential_markets(seed, pricing, delta):
    market = differential_market(seed, pricing)
    cents = [int(b * 100) for b in budgets(market)]
    _assert_cached_equals_fresh(market, delta, _fit_budgets(market), cents)


def test_cached_answers_equal_fresh_ones_on_synth1000(synth_giant):
    market = synth_giant.graph.market
    fits = _fit_budgets(market)
    _assert_cached_equals_fresh(market, 10, fits, fits + [market.total_price_cents // 10])


def _plain(value):
    """``value`` with every list, tuple, array and dict copied, recursively."""
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, array)):
        return [_plain(v) for v in value]
    return value


def _kept(graph):
    """A deep copy of every tree kept on the graph's components and of the
    path set-ups kept with each, and the set-up objects themselves."""
    copies, objects = [], []
    for sub in graph_module._components(graph):
        for root, tree in sub.trees.items():
            setups = {name: vars(tree)[name] for name in ("_growth", "_node_paths")
                      if name in vars(tree)}
            objects += setups.values()
            copies.append((sub.members, root, _plain(tree.parent), tree.leaves,
                           {name: _plain(vars(setup) if name == "_growth" else
                                         (vars(setup[0]), setup[1]))
                            for name, setup in setups.items()}))
    return copies, objects


@pytest.mark.parametrize("seed", range(3))
def test_kept_setups_are_unchanged_by_solves_at_any_budget(seed):
    """Solve one graph at budgets up and then down, some of which restrict
    it: one below the price of a kept tree's root, and one below every
    price. Every answer is the fresh graph's, and after the first solve
    that keeps them, no tree or set-up is added, rebuilt or written."""
    market = differential_market(seed, "table")
    graph = build_graph_indexed(market, 10.0)
    prices = sorted(graph.prices.values())
    every, total = prices[-1], market.total_price_cents
    giant = max(graph_module._components(graph), key=len)
    assert len(giant) >= 3
    _solve_all(market, graph, 10.0, [every])
    before, objects = _kept(graph)
    root = build_bfs_tree(giant, find_center_exact(giant).center).root
    assert root in giant.trees and before
    below_root = graph.prices[root] - 1
    ups = [every, every + 1, 2 * every, total // 2, total]
    sequence = [prices[0] - 1, below_root, prices[len(prices) // 2], *ups, *ups[::-1],
                below_root, every]
    for cents in sequence:
        for label in LABELS:
            budget = cents_to_decimal(cents)
            fresh = build_graph_indexed(market, 10.0)
            assert solve(label, market, budget, 10.0, graph=graph) == \
                solve(label, market, budget, 10.0, graph=fresh), (label, cents)
        for flag in ("ratio", "coverage"):
            assert budgeted_greedy(giant.trees[root], below_root, flag) == (set(), 0, 0)
    after, kept_objects = _kept(graph)
    assert after == before
    assert len(kept_objects) == len(objects)
    assert all(a is b for a, b in zip(kept_objects, objects))


# Bytes that solving synth1000's query graph with all five solvers keeps on
# its components, per node of a kept BFS tree, measured by tracemalloc: the
# trees, their path set-ups and the center results. The integer-slot layout
# kept 165 bytes per node when pinned (Python 3.11.7); the same trees kept
# with set-ups of id-keyed dicts and slice objects came to 314, and one more
# id -> node dict per set-up comes to 206. The gate allows 10% over the pin,
# so even that one dict fails it.
KEPT_BYTES_PER_TREE_NODE = 165


def test_what_solves_keep_per_tree_node_stays_small(synth_giant):
    market = synth_giant.graph.market
    graph = build_graph_indexed(market, 10)
    budget = cents_to_decimal(max(graph.prices.values()))
    components = graph_module._components(graph)
    market._split  # the catalog's cell split, built once per catalog
    gc.collect()
    tracemalloc.start()
    try:
        for label in LABELS:
            solve(label, market, budget, 10, graph=graph)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    nodes = sum(len(tree.parent) for sub in components for tree in sub.trees.values())
    assert nodes > 2 * len(synth_giant)
    assert kept / nodes <= 1.1 * KEPT_BYTES_PER_TREE_NODE, kept / nodes


# Bytes that one solve with each of the five solvers keeps per component of
# synth1000's delta=0 graph, where 963 of 965 components have one or two
# members, measured by tracemalloc from before the component search: each
# component, the parent map of the search that found it, its BFS trees and
# its center results. They came to 730-735 bytes when pinned (Python
# 3.11.7); keeping neither the trees nor the search map of a component of
# one or two members came to 312. The gate allows 10% over the pin.
KEPT_BYTES_PER_TINY_COMPONENT = 735


def test_what_solves_keep_per_tiny_component_stays_small(synth_giant):
    market = synth_giant.graph.market
    graph = build_graph_indexed(market, 0)
    budget = cents_to_decimal(max(graph.prices.values()))
    market._split  # the catalog's cell split, built once per catalog
    gc.collect()
    tracemalloc.start()
    try:
        for label in LABELS:
            solve(label, market, budget, 0, graph=graph)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    components = graph_module._components(graph)
    assert sum(len(sub) <= 2 for sub in components) > 0.95 * len(components)
    assert kept / len(components) <= 1.1 * KEPT_BYTES_PER_TINY_COMPONENT, kept / len(components)


def test_the_tree_of_the_component_search_runs_no_bfs(synth_giant, monkeypatch):
    calls = _counting_bfs(monkeypatch)
    tree = build_bfs_tree(synth_giant, synth_giant.members[0])
    assert calls == [] and tree.parent is synth_giant.parent
    center = find_center_exact(synth_giant).center
    del calls[:]
    first = build_bfs_tree(synth_giant, center)
    assert calls == [center]
    assert build_bfs_tree(synth_giant, center) is first and calls == [center]
    assert synth_giant.trees == {synth_giant.members[0]: tree, center: first}


@pytest.mark.parametrize("label", ["dpsa", "dpsa-ba"])
def test_tiny_components_keep_their_trees(monkeypatch, label):
    """At delta=0 most components of a differential market have one or two
    members. Their BFS trees are kept like any other's: a repeat solve runs
    no BFS, a repeat tree is the same object, and the tree from the smallest
    member is the component search's own parent map."""
    market = differential_market(0, "usage")
    graph = build_graph_indexed(market, 0.0)
    budget = cents_to_decimal(max(graph.prices.values()))
    calls = _counting_bfs(monkeypatch)
    first = solve(label, market, budget, 0.0, graph=graph)
    del calls[:]
    assert solve(label, market, budget, 0.0, graph=graph) == first
    assert calls == []
    components = graph_module._components(graph)
    assert {1, 2} <= {len(sub) for sub in components}
    for sub in components:
        assert build_bfs_tree(sub, sub.members[0]).parent is sub.parent
        for root in sub.members:
            assert build_bfs_tree(sub, root) is build_bfs_tree(sub, root), (sub.members, root)


def _live_entries():
    gc.collect()
    return len(graph_module._COMPONENTS)


def test_a_solved_graph_leaves_no_entry():
    market = differential_market(0, "table")
    graph = build_graph_indexed(market, 10.0)
    every, some = _fit_budgets(market)
    base = _live_entries()
    _solve_all(market, graph, 10.0, [some])
    # each solve's restricted candidate graph died with its solve
    assert graph not in graph_module._COMPONENTS and _live_entries() == base
    _solve_all(market, graph, 10.0, [every])
    assert graph in graph_module._COMPONENTS and _live_entries() == base + 1
    alive = weakref.ref(graph)
    del graph
    assert _live_entries() == base
    assert alive() is None


def _path4():
    """The path n0 - n1 - n2 - n3: the exact center is n1 (smallest id of
    the two of eccentricity 2), the double-BFS walk ends on n2."""
    ids = ("n0", "n1", "n2", "n3")
    adjacency = {u: tuple(v for v in ids if abs(int(v[1]) - int(u[1])) == 1) for u in ids}
    (sub,) = connected_components(DatasetGraph(1.0, dict.fromkeys(ids, 1), adjacency))
    return sub


def _counting_bfs(monkeypatch):
    calls = []
    live = solvers.bfs
    monkeypatch.setattr(solvers, "bfs", lambda adjacency, root: calls.append(root) or
                        live(adjacency, root))
    return calls


@pytest.mark.parametrize("search", [find_center_exact, find_center_two_bfs],
                         ids=["exact", "two_bfs"])
def test_a_repeat_center_search_runs_no_bfs(synth_giant, monkeypatch, search):
    calls = _counting_bfs(monkeypatch)
    first = search(synth_giant)
    assert calls
    del calls[:]
    assert search(synth_giant) is first
    assert calls == []
    fresh = Subgraph(synth_giant.members, synth_giant.graph, synth_giant.parent)
    assert search(fresh) == first


@pytest.mark.parametrize("order", [("exact", "two_bfs"), ("two_bfs", "exact")],
                         ids=["exact-first", "two_bfs-first"])
def test_the_two_searches_keep_separate_results(order):
    searches = {"exact": find_center_exact, "two_bfs": find_center_two_bfs}
    want = {"exact": CenterResult("n1", 2), "two_bfs": CenterResult("n2", 2)}
    sub = _path4()
    assert {name: searches[name](sub) for name in order} == want
    assert sub.centers == want
    assert {name: searches[name](sub) for name in order} == want
    fresh = _path4()
    assert {name: search(fresh) for name, search in searches.items()} == want


@pytest.mark.parametrize("label", ["dpsa", "dpsa-ba"])
def test_a_repeat_dpsa_solve_runs_no_bfs(synth_giant, monkeypatch, label):
    """A second ``dpsa`` solve on a graph reuses its components, centers and
    BFS trees, so it runs no BFS at all."""
    market = synth_giant.graph.market
    graph = build_graph_indexed(market, 10)
    budget = cents_to_decimal(max(market.price_cents(d) for d in market.ids))
    calls = _counting_bfs(monkeypatch)
    first = solve(label, market, budget, 10, graph=graph)
    trees = [sub for sub in connected_components(graph) if len(sub) >= 3]
    assert len(calls) > len(trees)
    del calls[:]
    assert solve(label, market, budget, 10, graph=graph) == first
    assert calls == []


def test_two_threads_solving_one_graph_get_the_single_thread_answers(synth_giant):
    """Every dataset fits, so each solve's candidate graph is the shared one.
    Each of the shared graphs starts cold, so the threads race to prepare its
    components and centers."""
    graph = synth_giant.graph
    market = graph.market
    budget = cents_to_decimal(max(graph.prices.values()))
    fresh = build_graph_indexed(market, 10)
    want = [solve(label, market, budget, 10, graph=fresh) for label in LABELS]
    shared = [DatasetGraph(graph.delta, graph.prices, graph.adjacency, market)
              for _ in range(40)]
    got = [[], []]
    step = threading.Barrier(2)  # the two threads make each call at once

    def run(t):
        for g in shared:
            for label in LABELS:
                step.wait(timeout=60)
                got[t].append(solve(label, market, budget, 10, graph=g))

    threads = [threading.Thread(target=run, args=(t,)) for t in (0, 1)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [want * len(shared)] * 2
