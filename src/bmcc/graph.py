"""Spatial dataset graphs.

Two datasets are directly connected when the minimum Euclidean distance
between their decoded cell indices is at most the threshold ``delta``; the
dataset graph has one node per catalog entry and an edge per directly
connected pair. Construction comes in two flavours with identical output: a
naive all-pairs evaluation and a ball-tree-indexed walk that prunes node
pairs whose bounding balls are provably farther apart (or provably within
range) of the threshold.

Distances are exact: squared distances are integer arithmetic on cell
indices, and both construction paths share one threshold predicate, so the
edge sets are bit-identical by construction.
"""

import math
import weakref
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .grid import decode_cells, open_text
from .marketplace import Marketplace, MarketplaceError, cents_to_decimal, to_cents

# Ball-bound guard, relative to the grid side: prune/accept only with a clear
# margin so float rounding in centroid arithmetic can never flip a borderline
# pair; everything inside the margin falls through to the exact integer check
# at the leaves.
_BOUND_EPS = 1e-9

_CHUNK_ELEMS = 4_000_000  # cap on temporary (cells_a x cells_b) matrices


class GraphConfigError(ValueError):
    """Mismatched grids or index/catalog pairings."""


@dataclass(eq=False)
class DatasetGraph:
    """Undirected graph over dataset ids with sorted adjacency lists."""

    delta: float
    prices: dict[str, int]  # cents, snapshot of the catalog prices
    adjacency: dict[str, tuple[str, ...]]
    market: Marketplace | None = field(default=None, repr=False)

    @property
    def nodes(self) -> tuple[str, ...]:
        return tuple(self.adjacency)

    @property
    def n_edges(self) -> int:
        return sum(len(v) for v in self.adjacency.values()) // 2

    def neighbors(self, node_id: str) -> tuple[str, ...]:
        return self.adjacency[node_id]

    @cached_property
    def cells(self) -> dict[str, frozenset[int]]:
        """Cell ids of every node, built from the catalog on first use."""
        if self.market is None:
            raise GraphConfigError("graph carries no marketplace; cannot read cells")
        return {u: frozenset(self.market.dataset(u).cells.tolist()) for u in self.adjacency}

    def restricted(self, ids) -> "DatasetGraph":
        """The induced subgraph over ``ids``, on the same catalog."""
        keep = set(ids)
        nodes = sorted(keep)
        return DatasetGraph(
            delta=self.delta,
            prices={u: self.prices[u] for u in nodes},
            adjacency={u: tuple(v for v in self.adjacency[u] if v in keep) for u in nodes},
            market=self.market,
        )

    def stats(self) -> "GraphStats":
        n = len(self.adjacency)
        e = self.n_edges
        return GraphStats(
            nodes=n,
            edges=e,
            average_degree=(2.0 * e / n) if n else 0.0,
            components=len(connected_components(self)),
        )


@dataclass(frozen=True)
class GraphStats:
    nodes: int
    edges: int
    average_degree: float
    components: int


@dataclass(eq=False)
class Subgraph:
    """A maximal connected component; members are sorted ascending."""

    members: tuple[str, ...]
    graph: DatasetGraph

    def __len__(self):
        return len(self.members)

    def adjacency(self) -> dict[str, tuple[str, ...]]:
        return {u: self.graph.adjacency[u] for u in self.members}


@dataclass(eq=False)
class BallTree:
    """Binary ball tree over the catalog; one dataset per leaf.

    Nodes are stored as flat arrays; ``order[start[i]:end[i]]`` lists the
    dataset indices (into ``ids``) beneath node ``i``. ``centroids[i]`` is the
    mean of every cell coordinate under the node and ``radii[i]`` the maximum
    distance from that mean to any covered cell.
    """

    market: Marketplace
    ids: tuple[str, ...]
    order: np.ndarray        # (n,) permutation of dataset indices
    centroids: np.ndarray    # (m, 2) float64
    radii: np.ndarray        # (m,) float64
    left: np.ndarray         # (m,) int32, -1 for leaves
    right: np.ndarray        # (m,) int32
    start: np.ndarray        # (m,) int32 range into order
    end: np.ndarray          # (m,) int32

    @property
    def n_nodes(self) -> int:
        return len(self.radii)

    def is_leaf(self, node: int) -> bool:
        return self.left[node] < 0

    def datasets_under(self, node: int) -> tuple[str, ...]:
        return tuple(self.ids[j] for j in self.order[self.start[node]:self.end[node]])


def _sq_threshold(delta: float) -> int:
    """Integer threshold T with (int) d2 <= delta**2  <=>  d2 <= T, exact
    even where the float square of ``delta`` would round."""
    if delta < 0:
        raise GraphConfigError("delta must be non-negative")
    return math.floor(Fraction(float(delta)) ** 2)


def _min_sqdist_coords(a: np.ndarray, b: np.ndarray) -> int:
    """Exact minimum squared distance between two (n, 2) int64 index arrays."""
    if a.shape[0] * b.shape[0] <= _CHUNK_ELEMS:
        dx = a[:, 0][:, None] - b[:, 0][None, :]
        dy = a[:, 1][:, None] - b[:, 1][None, :]
        return int((dx * dx + dy * dy).min())
    best = None
    rows = max(1, _CHUNK_ELEMS // b.shape[0])
    for lo in range(0, a.shape[0], rows):
        chunk = _min_sqdist_coords(a[lo:lo + rows], b)
        best = chunk if best is None else min(best, chunk)
    return best


def dataset_distance(a, b) -> float:
    """Minimum Euclidean distance between the cell indices of two datasets.

    Zero exactly when the cell sets intersect. Datasets that both carry a
    grid must carry the same one.
    """
    if a.grid is not None and b.grid is not None and a.grid != b.grid:
        raise GraphConfigError(
            f"datasets {a.id!r} and {b.id!r} were rasterized under different grids")
    return math.sqrt(_min_sqdist_coords(decode_cells(a.cells), decode_cells(b.cells)))


_matrix_cache: "weakref.WeakKeyDictionary[Marketplace, np.ndarray]" = weakref.WeakKeyDictionary()


def min_sqdist_matrix(market: Marketplace) -> np.ndarray:
    """All-pairs minimum squared distances as an (n, n) int64 matrix.

    Cached per marketplace: a full matrix serves every threshold, so repeated
    naive builds at different deltas reuse one evaluation.
    """
    cached = _matrix_cache.get(market)
    if cached is not None:
        return cached
    ids = market.ids
    coords = [market.cell_coords(did) for did in ids]
    sizes = np.array([c.shape[0] for c in coords])
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    allc = np.concatenate(coords)
    xs, ys = allc[:, 0], allc[:, 1]
    n = len(ids)
    out = np.empty((n, n), dtype=np.int64)
    for i in range(n):
        ci = coords[i]
        dx = xs[None, :] - ci[:, 0][:, None]
        dy = ys[None, :] - ci[:, 1][:, None]
        per_cell = (dx * dx + dy * dy).min(axis=0)
        out[i] = np.minimum.reduceat(per_cell, starts)
    _matrix_cache[market] = out
    return out


def _graph_from_edges(market, delta, neighbor_sets) -> DatasetGraph:
    adjacency = {did: tuple(sorted(neighbor_sets[did])) for did in market.ids}
    prices = {did: market.price_cents(did) for did in market.ids}
    return DatasetGraph(delta=float(delta), prices=prices, adjacency=adjacency, market=market)


def build_graph_naive(market: Marketplace, delta: float) -> DatasetGraph:
    """Reference construction: evaluate every dataset pair exactly."""
    thr = _sq_threshold(delta)
    matrix = min_sqdist_matrix(market)
    ids = market.ids
    neighbor_sets = {did: set() for did in ids}
    ii, jj = np.nonzero(matrix <= thr)
    for i, j in zip(ii.tolist(), jj.tolist()):
        if i != j:
            neighbor_sets[ids[i]].add(ids[j])
    return _graph_from_edges(market, delta, neighbor_sets)


def build_ball_tree(market: Marketplace) -> BallTree:
    """Top-down ball tree: median split on the dataset-centroid axis of
    maximum spread; leaves hold exactly one dataset."""
    ids = market.ids
    coords = [market.cell_coords(did) for did in ids]
    dcent = np.array([c.mean(axis=0) for c in coords])
    order = np.arange(len(ids), dtype=np.int64)

    centroids, radii, left, right, start, end = [], [], [], [], [], []

    def node_stats(lo, hi):
        members = order[lo:hi]
        allc = np.concatenate([coords[j] for j in members])
        centroid = allc.mean(axis=0)
        diff = allc - centroid
        radius = float(np.sqrt((diff * diff).sum(axis=1).max()))
        return centroid, radius

    def build(lo, hi):
        idx = len(radii)
        centroid, radius = node_stats(lo, hi)
        centroids.append(centroid)
        radii.append(radius)
        left.append(-1)
        right.append(-1)
        start.append(lo)
        end.append(hi)
        count = hi - lo
        if count == 1:
            return idx
        members = order[lo:hi]
        cent = dcent[members]
        axis = int(np.argmax(cent.max(axis=0) - cent.min(axis=0)))
        # sort by (split coordinate, id) so equal coordinates split stably
        keys = sorted(range(count), key=lambda k: (cent[k, axis], ids[members[k]]))
        order[lo:hi] = members[keys]
        mid = lo + (count + 1) // 2
        left[idx] = build(lo, mid)
        right[idx] = build(mid, hi)
        return idx

    build(0, len(ids))
    return BallTree(
        market=market, ids=ids, order=order,
        centroids=np.array(centroids), radii=np.array(radii),
        left=np.array(left, dtype=np.int32), right=np.array(right, dtype=np.int32),
        start=np.array(start, dtype=np.int32), end=np.array(end, dtype=np.int32),
    )


def build_graph_indexed(market: Marketplace, delta: float,
                        tree: BallTree | None = None) -> DatasetGraph:
    """Ball-tree-accelerated construction; edge set identical to the naive path.

    For each dataset the tree is walked from the root: a node is pruned when
    the centroid distance minus both radii exceeds ``delta``, fully accepted
    when the centroid distance plus both radii stays within ``delta``, and
    otherwise recursed until an exact leaf check decides.
    """
    if tree is None:
        tree = build_ball_tree(market)
    if tree.market is not market:
        raise GraphConfigError("ball tree was built over a different marketplace")
    thr = _sq_threshold(delta)
    delta = float(delta)
    ids = market.ids
    n = len(ids)
    coords = [market.cell_coords(did) for did in ids]

    # leaf balls double as the per-dataset query balls
    dcx = [0.0] * n
    dcy = [0.0] * n
    drad = [0.0] * n
    for node in range(tree.n_nodes):
        if tree.left[node] < 0:
            j = int(tree.order[tree.start[node]])
            dcx[j] = float(tree.centroids[node, 0])
            dcy[j] = float(tree.centroids[node, 1])
            drad[j] = float(tree.radii[node])

    ncx = tree.centroids[:, 0].tolist()
    ncy = tree.centroids[:, 1].tolist()
    nrad = tree.radii.tolist()
    nleft = tree.left.tolist()
    nright = tree.right.tolist()
    nstart = tree.start.tolist()
    nend = tree.end.tolist()
    order = tree.order.tolist()

    neighbor_sets = {did: set() for did in ids}
    eps = _BOUND_EPS * market.grid.side
    lo_guard = delta + eps
    hi_guard = delta - eps
    for i in range(n):
        ci_x, ci_y, ri = dcx[i], dcy[i], drad[i]
        found = []
        stack = [0]
        while stack:
            b = stack.pop()
            dx = ncx[b] - ci_x
            dy = ncy[b] - ci_y
            center_dist = math.sqrt(dx * dx + dy * dy)
            rb = nrad[b]
            if center_dist - ri - rb > lo_guard:
                continue
            if center_dist + ri + rb <= hi_guard:
                found.extend(order[nstart[b]:nend[b]])
                continue
            if nleft[b] < 0:
                j = order[nstart[b]]
                if j != i and _min_sqdist_coords(coords[i], coords[j]) <= thr:
                    found.append(j)
            else:
                stack.append(nleft[b])
                stack.append(nright[b])
        me = ids[i]
        mine = neighbor_sets[me]
        for j in found:
            if j != i:
                other = ids[j]
                mine.add(other)
                neighbor_sets[other].add(me)
    return _graph_from_edges(market, delta, neighbor_sets)


def bfs(adjacency, root):
    """Breadth-first search from ``root`` over an id-keyed adjacency mapping.

    Returns ``(parent, layers)``: ``parent`` maps every reached node to its
    BFS parent in visit order, the root to ``None``; ``layers[d]`` lists the
    nodes at depth ``d`` in visit order. Neighbors are visited in adjacency
    order, which is ascending id on a :class:`DatasetGraph`.
    """
    parent = {root: None}
    layers = []
    layer = [root]
    while layer:
        layers.append(layer)
        nxt = []
        for u in layer:
            for v in adjacency[u]:
                if v not in parent:
                    parent[v] = u
                    nxt.append(v)
        layer = nxt
    return parent, layers


def connected_components(graph: DatasetGraph) -> list[Subgraph]:
    """Maximal components via :func:`bfs`; components ordered by smallest
    member id."""
    seen = set()
    components = []
    for root in graph.nodes:
        if root not in seen:
            reached, _ = bfs(graph.adjacency, root)
            seen.update(reached)
            components.append(Subgraph(members=tuple(sorted(reached)), graph=graph))
    return components


GRAPH_MAGIC = "CBGRAPH"
GRAPH_VERSION = 1


def write_adjacency(graph: DatasetGraph, path) -> None:
    """Export as text: one ``<id> <price> <n> <neighbor ids...>`` line per node."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{GRAPH_MAGIC} {GRAPH_VERSION}\n")
        fh.write(f"delta {graph.delta!r}\n")
        fh.write(f"nodes {len(graph.adjacency)}\n")
        for did in graph.nodes:
            nbrs = graph.adjacency[did]
            price = cents_to_decimal(graph.prices[did])
            fh.write(f"{did} {price} {len(nbrs)} {' '.join(nbrs)}\n")


def read_adjacency(path) -> DatasetGraph:
    """Parse an adjacency export; the result carries prices but no catalog.

    The file must hold exactly ``nodes`` node lines, each with a distinct id
    and a neighbor list in strictly ascending id order without the node
    itself, and every edge must be listed at both ends. Anything else raises
    :class:`GraphConfigError` naming the offending line.
    """
    with open_text(path, GraphConfigError) as fh:
        lines = fh.read().splitlines()
    head = lines[0].split() if lines else []
    if len(head) != 2 or head[0] != GRAPH_MAGIC or head[1] != str(GRAPH_VERSION):
        raise GraphConfigError("not a graph adjacency file")

    def header(idx, key, cast):
        parts = lines[idx].split() if idx < len(lines) else []
        try:
            if len(parts) == 2 and parts[0] == key:
                return cast(parts[1])
        except ValueError:
            pass
        raise GraphConfigError(f"expected '{key} <value>' at line {idx + 1}")

    delta = header(1, "delta", float)
    if not (math.isfinite(delta) and delta >= 0):
        raise GraphConfigError(f"delta must be finite and non-negative at line 2, got {delta}")
    count = header(2, "nodes", int)
    if count < 0:
        raise GraphConfigError(f"negative node count {count} at line 3")
    extra = next((i for i in range(3 + count, len(lines)) if lines[i].strip()), None)
    if extra is not None:
        raise GraphConfigError(f"line {extra + 1} is past the {count} node lines")
    adjacency = {}
    prices = {}
    line_of = {}
    for idx in range(3, 3 + count):
        if idx >= len(lines):
            raise GraphConfigError(f"expected {count} node lines, found {idx - 3}")
        parts = lines[idx].split()
        try:
            did, price, k = parts[0], parts[1], int(parts[2])
        except (IndexError, ValueError):
            raise GraphConfigError(f"malformed node line at line {idx + 1}") from None
        nbrs = parts[3:]
        if len(nbrs) != k:
            raise GraphConfigError(f"neighbor count mismatch for {did!r} at line {idx + 1}")
        if did in adjacency:
            raise GraphConfigError(f"repeated node id {did!r} at line {idx + 1}")
        if did in nbrs:
            raise GraphConfigError(f"self-loop at {did!r} at line {idx + 1}")
        if any(v >= w for v, w in zip(nbrs, nbrs[1:])):
            raise GraphConfigError(
                f"neighbors of {did!r} are not strictly ascending at line {idx + 1}")
        try:
            cents = to_cents(price)
        except MarketplaceError as exc:
            raise GraphConfigError(f"{exc} at line {idx + 1}") from None
        if cents < 0:
            raise GraphConfigError(f"negative price {price!r} at line {idx + 1}")
        adjacency[did] = tuple(nbrs)
        prices[did] = cents
        line_of[did] = idx + 1
    for u, nbrs in adjacency.items():
        for v in nbrs:
            if v not in adjacency or u not in adjacency[v]:
                raise GraphConfigError(
                    f"asymmetric adjacency at edge {u!r}-{v!r} at line {line_of[u]}")
    return DatasetGraph(delta=delta, prices=prices,
                        adjacency={u: adjacency[u] for u in sorted(adjacency)},
                        market=None)
