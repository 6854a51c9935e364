#!/usr/bin/env python3
"""Dataset graphs: exact minimum distances, threshold edges, and the
indexed construction matching the naive one bit for bit. The index is a tree
of integer bounding boxes (``build_ball_tree``); the walk prunes and accepts
node pairs by exact box-gap and far-corner tests, with no rounding margin."""

import time

import numpy as np

from bmcc import (
    GridConfig,
    Marketplace,
    PricingFunction,
    build_graph_indexed,
    build_graph_naive,
    connected_components,
    dataset_distance,
)
from bmcc.grid import CellBasedDataset, encode_cells


def cluster(did, rng, grid, center, n_cells=12, spread=3):
    side = grid.side
    xs = np.clip(center[0] + rng.integers(-spread, spread + 1, size=n_cells), 0, side - 1)
    ys = np.clip(center[1] + rng.integers(-spread, spread + 1, size=n_cells), 0, side - 1)
    return CellBasedDataset(id=did, cells=np.unique(encode_cells(xs, ys)), grid=grid)


def main():
    rng = np.random.default_rng(3)
    grid = GridConfig(theta=8)
    datasets = [cluster(f"d{i:03d}", rng, grid,
                        center=rng.integers(0, grid.side, size=2))
                for i in range(250)]
    market = Marketplace.build(grid, datasets, PricingFunction.usage_based())
    print(f"marketplace: {len(market)} datasets on a {grid.side}x{grid.side} grid")

    a, b = market.dataset("d000"), market.dataset("d001")
    print(f"min cell distance d000-d001: {dataset_distance(a, b):.3f}")

    delta = 12.0
    t0 = time.perf_counter()
    naive = build_graph_naive(market, delta)
    t_naive = time.perf_counter() - t0

    t0 = time.perf_counter()
    indexed = build_graph_indexed(market, delta)
    t_indexed = time.perf_counter() - t0

    assert naive.adjacency == indexed.adjacency
    stats = indexed.stats()
    print(f"\ndelta={delta}: {stats.edges} edges, average degree "
          f"{stats.average_degree:.2f}, {stats.components} components")
    print(f"naive build   {t_naive * 1000:7.1f} ms")
    print(f"indexed build {t_indexed * 1000:7.1f} ms (identical edge set)")

    comps = connected_components(indexed)
    sizes = sorted((len(c) for c in comps), reverse=True)
    print(f"largest components: {sizes[:5]}")

    print("\nedges grow with the threshold:")
    for d in (0, 4, 8, 12, 16):
        s = build_graph_indexed(market, d).stats()
        print(f"  delta={d:2d}: avg degree {s.average_degree:6.2f}, "
              f"{s.components:3d} components")


if __name__ == "__main__":
    main()
