"""Budget- and connectivity-constrained coverage maximization over
rasterized spatial datasets."""

from .grid import (
    CellBasedDataset,
    CellRangeError,
    GridConfig,
    GridError,
    PointDataset,
    PointFileError,
    RasterizationError,
    encode_cell,
    rasterize,
    read_points_file,
    write_points_file,
)
from .marketplace import (
    Marketplace,
    MarketplaceError,
    PricingFunction,
    UnknownDatasetError,
    load_catalog,
    save_catalog,
    to_cents,
)
from .graph import (
    BallTree,
    DatasetGraph,
    GraphConfigError,
    GraphStats,
    Subgraph,
    build_ball_tree,
    build_graph_indexed,
    build_graph_naive,
    connected_components,
    dataset_distance,
    read_adjacency,
    write_adjacency,
)
from .solvers import (
    BfsTree,
    CenterResult,
    OracleCapError,
    SOLVER_LABELS,
    Solution,
    VerificationReport,
    budgeted_greedy,
    build_bfs_tree,
    complete_graph_delta,
    find_center_exact,
    find_center_two_bfs,
    make_reduction_instance,
    solve,
    solve_cmc,
    solve_dpsa,
    solve_dsa,
    solve_exact,
    verify_solution,
)

__version__ = "0.1.0"
