"""Spatial dataset graphs.

Two datasets are directly connected when the minimum Euclidean distance
between their decoded cell indices is at most the threshold ``delta``; the
dataset graph has one node per catalog entry and an edge per directly
connected pair. Construction comes in two flavours with identical output: a
naive all-pairs evaluation, and a dual-tree walk over a tree of integer
bounding boxes of the datasets (Gray & Moore, "'N-Body' Problems in
Statistical Learning", 2000). The walk advances a frontier of node pairs with
array operations, pruning pairs whose boxes are farther apart than ``delta``
and accepting whole those whose farthest corners are within it; the dataset
pairs left open are decided together by one batched exact kernel.

Distances are exact: squared distances, box bounds included, are int64
arithmetic on cell indices (below 2**63 even at theta=31), and both paths
share one integer threshold, so the edge sets are bit-identical.
"""

import math
import weakref
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .grid import decode_cells, open_text
from .marketplace import Marketplace, MarketplaceError, cents_to_decimal, to_cents

_CHUNK_ELEMS = 4_000_000  # cap on temporary (cells_a x cells_b) matrices
_PAIR_CHUNK = 1 << 14  # cell pairs per batched leaf-kernel step: 128 KB of int64


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
    """Binary bounding-box tree over the catalog; one dataset per leaf.

    Nodes are stored as flat arrays; ``order[start[i]:end[i]]`` lists the
    dataset indices (into ``ids``) beneath node ``i``. ``lo[i]`` and ``hi[i]``
    are the smallest and largest cell index on each axis over every cell under
    the node, so a leaf's box is its dataset's box.
    """

    market: Marketplace
    ids: tuple[str, ...]
    order: np.ndarray        # (n,) permutation of dataset indices
    lo: np.ndarray           # (m, 2) int64 box corner
    hi: np.ndarray           # (m, 2) int64 opposite box corner
    left: np.ndarray         # (m,) int32, -1 for leaves
    right: np.ndarray        # (m,) int32
    start: np.ndarray        # (m,) int32 range into order
    end: np.ndarray          # (m,) int32

    @property
    def n_nodes(self) -> int:
        return len(self.lo)

    def is_leaf(self, node: int) -> bool:
        return self.left[node] < 0

    def datasets_under(self, node: int) -> tuple[str, ...]:
        return tuple(self.ids[j] for j in self.order[self.start[node]:self.end[node]])


def check_delta(delta: float) -> None:
    """Raise :class:`GraphConfigError` unless ``delta`` is finite and
    non-negative; a Python int beyond float range counts as infinite."""
    try:
        valid = math.isfinite(delta) and delta >= 0
    except OverflowError:
        valid = False
    if not valid:
        raise GraphConfigError("delta must be finite and non-negative")


def _sq_threshold(delta: float) -> int:
    """Integer threshold T with (int) d2 <= delta**2  <=>  d2 <= T, exact
    even where the float square of ``delta`` would round."""
    check_delta(delta)
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


def _catalog_cells(market: Marketplace):
    """Every cell of the catalog as one (C, 2) int64 array, datasets in id
    order, from one decode; dataset ``j`` owns rows ``starts[j]:starts[j + 1]``."""
    morton = [ds.cells for ds in market.datasets.values()]
    starts = np.zeros(len(morton) + 1, dtype=np.int64)
    np.cumsum([len(c) for c in morton], out=starts[1:])
    return decode_cells(np.concatenate(morton)), starts


_matrix_cache: "weakref.WeakKeyDictionary[Marketplace, np.ndarray]" = weakref.WeakKeyDictionary()


def min_sqdist_matrix(market: Marketplace) -> np.ndarray:
    """All-pairs minimum squared distances as an (n, n) int64 matrix.

    Cached per marketplace: a full matrix serves every threshold, so repeated
    naive builds at different deltas reuse one evaluation.
    """
    cached = _matrix_cache.get(market)
    if cached is not None:
        return cached
    cells, starts = _catalog_cells(market)
    xs, ys = cells[:, 0], cells[:, 1]
    n = len(market)
    out = np.empty((n, n), dtype=np.int64)
    rows = max(1, _CHUNK_ELEMS // len(xs))  # cells of one dataset per (rows, C) block
    for i in range(n):
        per_cell = None
        for lo in range(starts[i], starts[i + 1], rows):
            ci = cells[lo:min(lo + rows, starts[i + 1])]
            dx = xs[None, :] - ci[:, 0][:, None]
            dy = ys[None, :] - ci[:, 1][:, None]
            block = (dx * dx + dy * dy).min(axis=0)
            per_cell = block if per_cell is None else np.minimum(per_cell, block)
        out[i] = np.minimum.reduceat(per_cell, starts[:-1])
    _matrix_cache[market] = out
    return out


def _graph_from_edges(market, delta, src, dst) -> DatasetGraph:
    """Graph from directed index edges sorted by ``(src, dst)``, each edge
    listed at both ends; ids are sorted, so index order is id order."""
    ids = market.ids
    bounds = np.searchsorted(src, np.arange(len(ids) + 1)).tolist()
    names = np.array(ids, dtype=object)[dst].tolist()
    adjacency = {did: tuple(names[bounds[i]:bounds[i + 1]]) for i, did in enumerate(ids)}
    prices = {did: market.price_cents(did) for did in ids}
    return DatasetGraph(delta=float(delta), prices=prices, adjacency=adjacency, market=market)


def build_graph_naive(market: Marketplace, delta: float) -> DatasetGraph:
    """Reference construction: evaluate every dataset pair exactly."""
    thr = _sq_threshold(delta)
    src, dst = np.nonzero(min_sqdist_matrix(market) <= thr)
    loop = src == dst
    return _graph_from_edges(market, delta, src[~loop], dst[~loop])


def _ranges(lo, hi):
    """Concatenation of ``arange(lo[k], hi[k])`` over k; every range non-empty."""
    counts = hi - lo
    ends = np.cumsum(counts)
    return np.arange(ends[-1]) - np.repeat(ends - counts - lo, counts)


def build_ball_tree(market: Marketplace) -> BallTree:
    """Top-down box tree with one dataset per leaf, built a level at a time.

    A node's box is one ``minimum``/``maximum.reduceat`` over the boxes of
    its datasets. Each internal node splits its datasets at the median of
    their box centres, kept integer as ``lo + hi``, along the wider axis of
    the node's box, ties going to the smaller id; one ``lexsort`` over (node,
    centre, id) orders every node of a level. Nodes are numbered level by
    level.
    """
    cells, starts = _catalog_cells(market)
    box_lo = np.minimum.reduceat(cells, starts[:-1], axis=0)
    box_hi = np.maximum.reduceat(cells, starts[:-1], axis=0)
    centre = box_lo + box_hi
    order = np.arange(len(centre))
    levels = []
    begin, stop = np.zeros(1, dtype=np.int64), np.full(1, len(order), dtype=np.int64)
    first = 0
    while begin.size:
        pos = _ranges(begin, stop)
        members = order[pos]
        counts = stop - begin
        heads = np.cumsum(counts) - counts
        lo = np.minimum.reduceat(box_lo[members], heads)
        hi = np.maximum.reduceat(box_hi[members], heads)
        axis = np.repeat(np.argmax(hi - lo, axis=1), counts)  # wider axis, x on ties
        seg = np.repeat(np.arange(begin.size), counts)
        order[pos] = members[np.lexsort((members, centre[members, axis], seg))]
        split = counts > 1
        left = np.full(begin.size, -1)
        left[split] = first + begin.size + 2 * np.arange(np.count_nonzero(split))
        levels.append((begin, stop, lo, hi, left))
        first += begin.size
        begin, stop = begin[split], stop[split]
        mid = begin + (stop - begin + 1) // 2
        begin, stop = np.column_stack([begin, mid]).ravel(), np.column_stack([mid, stop]).ravel()
    begin, stop, lo, hi, left = (np.concatenate(col) for col in zip(*levels))
    return BallTree(market=market, ids=market.ids, order=order, lo=lo, hi=hi,
                    left=left.astype(np.int32),
                    right=np.where(left < 0, -1, left + 1).astype(np.int32),
                    start=begin.astype(np.int32), end=stop.astype(np.int32))


def _padded(starts, sizes, datasets, width):
    """(len(datasets), width) cell rows, each padded with its first cell."""
    t = np.arange(width)
    return starts[datasets][:, None] + np.where(t < sizes[datasets][:, None], t, 0)


def _min_sqdist_pairs(cells, starts, ii, jj) -> np.ndarray:
    """Exact minimum squared distance of every dataset pair ``(ii[k], jj[k])``.

    Datasets fall into power-of-two size classes and are padded to their
    class's largest size with copies of their own first cell, which cannot
    change a minimum. Pairs of one class pair are evaluated together, at most
    ``_PAIR_CHUNK`` cell pairs at a time; a pair larger than that goes to
    :func:`_min_sqdist_coords`.
    """
    xs, ys = cells[:, 0].copy(), cells[:, 1].copy()
    sizes = np.diff(starts)
    size_class = np.frexp(sizes - 1)[1]
    class_max = np.zeros(size_class.max() + 1, dtype=np.int64)
    np.maximum.at(class_max, size_class, sizes)
    swap = size_class[ii] > size_class[jj]
    a, b = np.where(swap, jj, ii), np.where(swap, ii, jj)
    group = size_class[a] * 64 + size_class[b]
    by_group = np.argsort(group, kind="stable")
    out = np.empty(len(a), dtype=np.int64)
    for sel in np.split(by_group, np.flatnonzero(np.diff(group[by_group])) + 1):
        if not sel.size:
            continue
        wa, wb = class_max[size_class[a[sel[0]]]], class_max[size_class[b[sel[0]]]]
        if wa * wb > _PAIR_CHUNK:
            for k in sel.tolist():
                out[k] = _min_sqdist_coords(cells[starts[a[k]]:starts[a[k] + 1]],
                                            cells[starts[b[k]]:starts[b[k] + 1]])
            continue
        step = _PAIR_CHUNK // (wa * wb)
        for lo in range(0, sel.size, step):
            ks = sel[lo:lo + step]
            ra, rb = _padded(starts, sizes, a[ks], wa), _padded(starts, sizes, b[ks], wb)
            dx = xs[ra][:, :, None] - xs[rb][:, None, :]
            dy = ys[ra][:, :, None] - ys[rb][:, None, :]
            dx *= dx
            dy *= dy
            dx += dy
            out[ks] = dx.reshape(ks.size, -1).min(axis=1)
    return out


def _datasets_under(tree: BallTree, a, b):
    """Every dataset pair beneath the node pairs ``(a[k], b[k])``; a self
    pair ``(a, a)`` yields each unordered pair of its datasets once."""
    na, nb = tree.end[a] - tree.start[a], tree.end[b] - tree.start[b]
    counts = na.astype(np.int64) * nb
    pair = np.repeat(np.arange(a.size), counts)
    t = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    p = tree.start[a][pair] + t // nb[pair]
    q = tree.start[b][pair] + t % nb[pair]
    keep = (a != b)[pair] | (p < q)
    return tree.order[p[keep]], tree.order[q[keep]]


def build_graph_indexed(market: Marketplace, delta: float) -> DatasetGraph:
    """Dual-tree construction over a box tree; edge set identical to the
    naive path.

    A frontier of node pairs starts at (root, root) and advances as array
    operations. A self pair becomes its (left, left), (left, right) and
    (right, right) pairs, so every unordered dataset pair is reached once. A
    pair is pruned when the squared gap between its boxes exceeds the integer
    threshold, accepted whole when the squared distance between their
    farthest corners is within it, and otherwise the side with the larger
    half-perimeter is split, leaves never. Both tests are exact int64, so no
    margin is needed. Leaf boxes are dataset boxes: the leaf pairs left open
    are box-near, and one exact integer kernel decides them together.
    """
    thr = _sq_threshold(delta)
    tree = build_ball_tree(market)
    (lx, ly), (hx, hy) = tree.lo.T, tree.hi.T
    size = hx - lx + hy - ly  # half-perimeter
    left, right = tree.left.astype(np.int64), tree.right.astype(np.int64)
    is_leaf = left < 0
    a = b = np.zeros(1, dtype=np.int64)
    whole, open_leaves = [], []
    while a.size:
        # per axis, the larger offset between facing box faces is the gap if
        # positive, and the smaller one is minus the span of the far corners
        ex, fx, ey, fy = lx[a] - hx[b], lx[b] - hx[a], ly[a] - hy[b], ly[b] - hy[a]
        gx, gy = np.maximum(np.maximum(ex, fx), 0), np.maximum(np.maximum(ey, fy), 0)
        cx, cy = np.minimum(ex, fx), np.minimum(ey, fy)
        near = gx * gx + gy * gy <= thr
        inside = near & (cx * cx + cy * cy <= thr)
        whole.append((a[inside], b[inside]))
        same = a == b
        undecided = near & ~inside & ~(same & is_leaf[a])
        a, b, same = a[undecided], b[undecided], same[undecided]
        leaves = is_leaf[a] & is_leaf[b]
        open_leaves.append((a[leaves], b[leaves]))
        cross = ~same & ~leaves
        split_a = cross & ~is_leaf[a] & (is_leaf[b] | (size[a] >= size[b]))
        split_b = cross & ~split_a
        s, sa, sb = a[same], a[split_a], b[split_b]
        a = np.concatenate([left[s], left[s], right[s],
                            left[sa], right[sa], a[split_b], a[split_b]])
        b = np.concatenate([left[s], right[s], right[s],
                            b[split_a], b[split_a], left[sb], right[sb]])

    cells, starts = _catalog_cells(market)
    la, lb = (np.concatenate(side) for side in zip(*open_leaves))
    li, lj = tree.order[tree.start[la]], tree.order[tree.start[lb]]
    close = _min_sqdist_pairs(cells, starts, li, lj) <= thr
    wi, wj = _datasets_under(tree, *(np.concatenate(side) for side in zip(*whole)))
    ii = np.concatenate([li[close], wi])
    jj = np.concatenate([lj[close], wj])
    n = len(market)
    key = np.sort(np.concatenate([ii * n + jj, jj * n + ii]))
    return _graph_from_edges(market, delta, key // n, key % n)


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
