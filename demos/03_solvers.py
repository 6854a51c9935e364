#!/usr/bin/env python3
"""Solver walkthrough on a small priced catalog.

Runs the two greedy strategies, the path-based search with both center
finders, the two baselines and the exact oracle on one instance, then
verifies every answer from scratch.
"""

import numpy as np

from bmcc import (
    GridConfig,
    Marketplace,
    PricingFunction,
    SOLVER_LABELS,
    build_bfs_tree,
    build_graph_indexed,
    connected_components,
    find_center_exact,
    find_center_two_bfs,
    solve,
    verify_solution,
)
from bmcc.grid import CellBasedDataset, encode_cell


def dataset(did, grid, index_pairs):
    cells = sorted(encode_cell(x, y, grid.theta) for x, y in index_pairs)
    return CellBasedDataset(id=did, cells=np.array(cells), grid=grid)


def main():
    grid = GridConfig(theta=5)
    # a hub-and-spokes instance: d2 sits between a long arm (d1 -> d3/d5),
    # a chain to the right (d4 -> d8) and two small attachments
    catalog = [
        dataset("d1", grid, [(10, y) for y in range(11, 17)]),
        dataset("d2", grid, [(10, 10), (11, 10), (12, 10)]),
        dataset("d3", grid, [(10, y) for y in range(17, 20)]),
        dataset("d4", grid, [(x, 10) for x in range(13, 17)]),
        dataset("d5", grid, [(x, 13) for x in range(6, 10)]),
        dataset("d6", grid, [(10, 9), (10, 8), (10, 7), (13, 10)]),
        dataset("d7", grid, [(11, 10)]),
        dataset("d8", grid, [(x, 10) for x in range(17, 21)]),
    ]
    prices = {"d1": 4, "d2": 2, "d3": 2, "d4": 4, "d5": 2, "d6": 2, "d7": 2, "d8": 2}
    market = Marketplace.build(grid, catalog, PricingFunction.from_table(prices))
    budget, delta = 14, 1.0

    graph = build_graph_indexed(market, delta)
    print(f"catalog of {len(market)} datasets, budget {budget}, delta {delta}")
    print("adjacency:")
    for node in graph.nodes:
        print(f"  {node}: {' '.join(graph.adjacency[node])}")

    comp = connected_components(graph)[0]
    exact_center = find_center_exact(comp)
    fast_center = find_center_two_bfs(comp)
    print(f"\nexact center: {exact_center.center} (radius {exact_center.radius}); "
          f"double-BFS estimate: {fast_center.center} (radius {fast_center.radius})")
    tree = build_bfs_tree(comp, exact_center.center)
    print(f"BFS-tree leaves and their root paths:")
    for leaf in tree.leaves:
        path = [leaf]  # walk up the tree to just below the root
        while tree.parent[path[-1]] != tree.root:
            path.append(tree.parent[path[-1]])
        path.reverse()
        price = sum(market.price_cents(u) for u in path) // 100
        cells = set().union(*(market.dataset(u).cells.tolist() for u in path))
        print(f"  {leaf}: path {'->'.join(path)}, {len(cells)} cells, price {price}")

    print(f"\n{'solver':8s} {'coverage':>8s} {'price':>6s}  selected")
    for label in SOLVER_LABELS:
        sol = solve(label, market, budget, delta, graph=graph)
        assert verify_solution(graph, sol, budget).ok
        extra = ""
        if sol.round_coverages:
            extra = f"  (passes: {sol.round_coverages[0]} vs {sol.round_coverages[1]})"
        print(f"{label:8s} {sol.coverage:8d} {str(sol.total_price):>6s}  "
              f"{','.join(sol.selected)}{extra}")


if __name__ == "__main__":
    main()
