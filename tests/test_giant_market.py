"""Pinned answers on the giant-component regime, which no benchmark workload
reaches: ``generate_datasets(3000, 20, 0.012, 7)`` at theta=11, delta=10,
usage pricing and a budget of 0.3 of the catalog total. Most of its 3000
datasets fall in one component, so every solver grows long paths there.

Each solver's coverage, price in cents and a digest of its selected ids were
recorded before the solvers moved to per-dataset solo counts, and must not
change. So must the graph's edge count at delta 0, 10, 40 and 150 and a
digest of its delta=10 edge set, recorded with the node-pair tree walk that
the single-tree walk replaced."""

import hashlib

import pytest

from bmcc.cli import generate_datasets
from bmcc.graph import build_graph_indexed
from bmcc.grid import GridConfig, rasterize
from bmcc.marketplace import Marketplace, cents_to_decimal
from bmcc.solvers import solve, verify_solution

# label -> (coverage, price in cents, number of ids, sha256 prefix of the ids)
PINNED = {
    "dsa": (6161, 619600, 311, "e79b4a6001c41a7a"),
    "dpsa": (17954, 1795400, 899, "6bd3b07bfdb91990"),
    "dpsa-ba": (17958, 1795800, 899, "e94167aa8bcbc4da"),
    "cmc-mc": (17919, 1796000, 898, "a473b15deeb2517f"),
    "cmc-mg": (17919, 1796000, 899, "cdfe2b9ddbd52584"),
}

# delta -> number of edges
PINNED_EDGES = {0: 499, 10: 24586, 40: 51080, 150: 175367}
# sha256 prefix of the delta=10 edges, one "u v" line per edge with u < v
PINNED_EDGES_DIGEST = "63e0ab9dbcc6a4fd"


def ids_digest(selected):
    return hashlib.sha256(" ".join(selected).encode()).hexdigest()[:16]


@pytest.fixture(scope="module")
def giant():
    datasets = generate_datasets(3000, 20, 0.012, 7)
    grid = GridConfig.from_envelope(datasets, theta=11)
    market = Marketplace(grid, [rasterize(d, grid) for d in datasets])
    graph = build_graph_indexed(market, 10)
    return graph, cents_to_decimal(market.total_price_cents * 3 // 10)


@pytest.mark.parametrize("label", PINNED)
def test_giant_market_answers_are_pinned(giant, label):
    graph, budget = giant
    sol = solve(label, graph.market, budget, 10, graph=graph)
    assert verify_solution(graph, sol, budget).ok
    got = (sol.coverage, sol.total_price_cents, len(sol.selected), ids_digest(sol.selected))
    assert got == PINNED[label]


@pytest.mark.parametrize("delta", PINNED_EDGES)
def test_giant_market_edge_counts_are_pinned(giant, delta):
    graph, _ = giant
    built = graph if delta == 10 else build_graph_indexed(graph.market, delta)
    assert built.n_edges == PINNED_EDGES[delta]


def test_giant_market_edge_set_is_pinned(giant):
    graph, _ = giant
    text = "\n".join(f"{u} {v}" for u in graph.nodes for v in graph.adjacency[u] if u < v)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == PINNED_EDGES_DIGEST
