"""Shared fixtures: hand-built instances anchored to worked examples, a
seeded random-instance generator, and independent oracles (brute-force
max-coverage, Floyd-Warshall, union-find) used to validate the solvers."""

import itertools
from pathlib import Path

import numpy as np
import pytest

from bmcc.grid import CellBasedDataset, GridConfig, encode_cell, rasterize, read_points_file
from bmcc.graph import DatasetGraph, Subgraph, build_graph_indexed, connected_components
from bmcc.marketplace import Marketplace, PricingFunction

DATA_DIR = Path(__file__).parent / "data"


def make_dataset(did, index_pairs, grid):
    cells = sorted(encode_cell(x, y, grid.theta) for x, y in index_pairs)
    return CellBasedDataset(id=did, cells=np.array(cells, dtype=np.int64), grid=grid)


def make_market(index_sets, theta, prices=None):
    grid = GridConfig(theta=theta)
    datasets = [make_dataset(did, pairs, grid) for did, pairs in index_sets.items()]
    pricing = PricingFunction.from_table(prices) if prices else PricingFunction.usage_based()
    return Marketplace.build(grid, datasets, pricing)


@pytest.fixture(scope="session")
def synth_giant_component():
    datasets = read_points_file(DATA_DIR / "synth1000.csv")
    grid = GridConfig.from_envelope(datasets, theta=11)
    market = Marketplace.build(grid, [rasterize(d, grid) for d in datasets],
                               PricingFunction.usage_based())
    return max(connected_components(build_graph_indexed(market, 10)), key=len)


@pytest.fixture
def synth_giant(synth_giant_component):
    """Largest component of the committed 1000-dataset catalog at theta=11,
    delta=10 (the graph of acceptance criterion 9). Each test gets its own
    Subgraph over the shared graph, so a center search another test ran
    (kept in ``Subgraph.centers``) cannot change what a test counts."""
    sub = synth_giant_component
    return Subgraph(sub.members, sub.graph, sub.parent)


@pytest.fixture(scope="session")
def example2_market():
    """Five datasets with usage prices {5,6,4,4,2}; at delta=2 the edges are
    d1-d2 (distance 1), d2-d4 and d3-d5, so the budget-15 optimum is
    {d1, d2, d4} with coverage 15."""
    return make_market({
        "d1": [(0, 0), (0, 1), (1, 0), (1, 1), (0, 2)],
        "d2": [(2, 0), (2, 1), (3, 0), (3, 1), (4, 0), (4, 1)],
        "d3": [(0, 6), (1, 6), (0, 7), (1, 7)],
        "d4": [(6, 0), (6, 1), (7, 0), (7, 1)],
        "d5": [(3, 6), (3, 7)],
    }, theta=3)


@pytest.fixture(scope="session")
def dsa_market():
    """Eight datasets, B=6, delta=1: the gain-per-price pass walks the cheap
    chain d5, d7, d8 (coverage 8) while the raw-gain pass takes d1 then d5
    (coverage 10), so the second pass wins."""
    return make_market({
        "d1": [(x, 0) for x in range(6)],
        "d5": [(x, 1) for x in range(4)],
        "d7": [(0, 2), (1, 2)],
        "d8": [(0, 3), (1, 3)],
        "d2": [(10, 10), (11, 10)],
        "d3": [(13, 10), (14, 10)],
        "d4": [(10, 13), (11, 13)],
        "d6": [(13, 13), (14, 13)],
    }, theta=4, prices={"d1": 4, "d5": 2, "d7": 1, "d8": 2,
                        "d2": 3, "d3": 3, "d4": 3, "d6": 3})


@pytest.fixture(scope="session")
def dpsa_market():
    """Eight datasets, B=14, delta=1, center d2 (radius 2). The ratio pass
    first takes the 4-gain/2-price path to d6 and ends at coverage 20; the
    coverage pass takes the 10- and 8-gain paths and ends at 21, the unique
    optimum {d1, d2, d4, d5, d8}."""
    return make_market({
        "d1": [(10, y) for y in range(11, 17)],
        "d2": [(10, 10), (11, 10), (12, 10)],
        "d3": [(10, y) for y in range(17, 20)],
        "d4": [(x, 10) for x in range(13, 17)],
        "d5": [(x, 13) for x in range(6, 10)],
        "d6": [(10, 9), (10, 8), (10, 7), (13, 10)],
        "d7": [(11, 10)],
        "d8": [(x, 10) for x in range(17, 21)],
    }, theta=5, prices={"d1": 4, "d2": 2, "d3": 2, "d4": 4,
                        "d5": 2, "d6": 2, "d7": 2, "d8": 2})


def random_market(rng, n_max=12, theta=6, span=20, usage_only=False):
    """Small clustered instance: datasets are blobs of cells whose centers
    fall in a span x span corner of the grid, so moderate deltas connect."""
    side = 1 << theta
    n = int(rng.integers(2, n_max + 1))
    datasets = []
    grid = GridConfig(theta=theta)
    for i in range(n):
        cx = int(rng.integers(0, min(span, side)))
        cy = int(rng.integers(0, min(span, side)))
        k = int(rng.integers(1, 9))
        xs = np.clip(cx + rng.integers(-3, 4, size=k), 0, side - 1)
        ys = np.clip(cy + rng.integers(-3, 4, size=k), 0, side - 1)
        pairs = sorted({(int(x), int(y)) for x, y in zip(xs, ys)})
        datasets.append(make_dataset(f"d{i:02d}", pairs, grid))
    if usage_only or rng.random() < 0.5:
        pricing = PricingFunction.usage_based()
    else:
        pricing = PricingFunction.from_table(
            {d.id: int(rng.integers(1, 12)) for d in datasets})
    return Marketplace.build(grid, datasets, pricing)


def random_budget_cents(rng, market):
    """Budget between roughly 15% and 95% of the catalog total, in cents."""
    frac = float(rng.uniform(0.15, 0.95))
    return int(frac * market.total_price_cents)


def random_tree_subgraph(rng, n):
    """A uniformly random attachment tree wrapped as a one-component graph."""
    width = len(str(max(1, n - 1)))
    ids = [f"n{i:0{width}d}" for i in range(n)]
    nbrs = {i: [] for i in range(n)}
    for i in range(1, n):
        j = int(rng.integers(0, i))
        nbrs[i].append(j)
        nbrs[j].append(i)
    adjacency = {ids[i]: tuple(sorted(ids[j] for j in nbrs[i])) for i in range(n)}
    graph = DatasetGraph(delta=1.0, prices={u: 100 for u in ids},
                         adjacency=adjacency, market=None)
    comps = connected_components(graph)
    assert len(comps) == 1
    return comps[0]


# ---------------------------------------------------------------------------
# Independent oracles


def mcp_brute_force(sets, k):
    """Optimal max k-coverage value by enumerating all <=k combinations."""
    best = 0
    pool = [frozenset(s) for s in sets]
    for r in range(1, min(k, len(pool)) + 1):
        for combo in itertools.combinations(pool, r):
            best = max(best, len(frozenset().union(*combo)))
    return best


def floyd_warshall(adjacency):
    """All-pairs shortest-path matrix over an adjacency dict."""
    ids = sorted(adjacency)
    index = {u: i for i, u in enumerate(ids)}
    n = len(ids)
    inf = n + 10
    dist = np.full((n, n), inf, dtype=np.int64)
    np.fill_diagonal(dist, 0)
    for u, nbrs in adjacency.items():
        for v in nbrs:
            dist[index[u], index[v]] = 1
    for k in range(n):
        dist = np.minimum(dist, dist[:, k][:, None] + dist[k, :][None, :])
    return ids, dist


def union_find_components(nodes, edges):
    parent = {u: u for u in nodes}

    def find(u):
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        return u

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    return len({find(u) for u in nodes})


def _decode_bits(cell, theta):
    """``(x, y)`` of a Morton cell id, one bit at a time: x on the even bits."""
    return tuple(sum((cell >> (2 * k + axis) & 1) << k for k in range(theta))
                 for axis in (0, 1))


def brute_force_min_distance(a, b, theta):
    """Python-loop minimum distance between two cell id arrays."""
    import math
    best = None
    for ca in a.cells.tolist():
        xa, ya = _decode_bits(ca, theta)
        for cb in b.cells.tolist():
            xb, yb = _decode_bits(cb, theta)
            d = math.hypot(xa - xb, ya - yb)
            best = d if best is None else min(best, d)
    return best
