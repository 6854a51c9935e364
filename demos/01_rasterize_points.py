#!/usr/bin/env python3
"""Grid basics: z-order cell ids, rasterization, and spatial coverage.

A point dataset becomes a sorted set of cell ids on a 2^theta x 2^theta
grid; coverage is simply how many distinct cells the points touch.
"""

import numpy as np

from bmcc import (
    GridConfig,
    PointDataset,
    encode_cell,
    rasterize,
)
from bmcc.grid import decode_cells


def main():
    theta = 3  # an 8x8 grid
    grid = GridConfig(theta=theta)
    print(f"grid: {grid.side}x{grid.side} cells, ids in [0, {grid.n_cells})")

    # Cell ids interleave the column/row bits: neighbors on the curve stay
    # close in space, and the bottom-left cell is id 0.
    for x, y in [(0, 0), (1, 0), (0, 1), (1, 2), (7, 7)]:
        cid = encode_cell(x, y, theta)
        back = decode_cells([cid])[0].tolist()
        print(f"  cell ({x},{y}) -> id {cid:2d} -> decodes back to {back}")

    # Rasterize a small trajectory-like dataset.
    rng = np.random.default_rng(7)
    walk = np.cumsum(rng.uniform(-0.6, 1.0, size=(40, 2)), axis=0)
    walk -= walk.min(axis=0)
    dataset = PointDataset(id="walk", points=walk)
    cell_based = rasterize(dataset, GridConfig.from_envelope([dataset], theta=theta))
    print(f"\n{len(walk)} points rasterized to {cell_based.coverage} cells:")
    print(f"  {cell_based.cells.tolist()}")

    # Coverage of a union counts distinct cells once.
    other = PointDataset(id="other", points=walk[::2] * 0.97)
    other_cells = rasterize(other, GridConfig.from_envelope([dataset], theta=theta))
    both = np.union1d(cell_based.cells, other_cells.cells).size
    print(f"\nunion coverage with a heavily overlapping copy: {both} "
          f"(vs {cell_based.coverage} + {other_cells.coverage} separately)")


if __name__ == "__main__":
    main()
