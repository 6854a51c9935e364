"""Spatial dataset graphs.

Two datasets are directly connected when the minimum Euclidean distance
between their decoded cell indices is at most the threshold ``delta``; the
dataset graph has one node per catalog entry and an edge per directly
connected pair. Construction comes in two flavours with identical output: a
naive all-pairs evaluation, and a single-tree walk of each dataset's box
down a tree of integer bounding boxes of the datasets (Gray & Moore,
"'N-Body' Problems in Statistical Learning", 2000). The walk advances a
frontier of (leaf, node) pairs with array operations, pruning pairs whose
boxes are farther apart than ``delta`` and accepting whole those whose
farthest corners are within it. Both builders decide their open dataset
pairs (all pairs, for the naive one) with one exact kernel and assemble
edges with one helper.

Distances are exact: squared distances, box bounds included, are integer
arithmetic on cell indices, and both paths share one integer threshold, so
the edge sets are bit-identical. That arithmetic is int64 (below 2**63
even at theta=31), except in the exact kernel on a catalog whose cell
indices are all below 2**15: there no squared distance exceeds
2 (2**15 - 1)**2 < 2**31, and the kernel runs in int32.

The box tree and a pair's exact distance depend on the catalog alone, and
a catalog is immutable, so one slot keeps, with a weak reference to the
catalog built for last, its tree and every pair the indexed builder's
kernel has decided on it: a δ sweep over one catalog, in any order of δ,
builds one tree and decides each pair once, and a build on another catalog
replaces the slot.
"""

import math
import weakref
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .grid import decode_cells, read_counted_file
from .marketplace import Marketplace, MarketplaceError, cents_to_decimal, to_cents

_CHUNK_ELEMS = 4_000_000  # cap on temporary (cells_a x cells_b) matrices
_PAIR_CHUNK = 1 << 14  # int64 cell pairs per batched leaf-kernel step: 128 KB


class GraphConfigError(ValueError):
    """Mismatched grids or index/catalog pairings."""


@dataclass(frozen=True, eq=False)
class DatasetGraph:
    """Undirected graph over dataset ids with sorted adjacency lists. It holds
    no cells: solves read them from ``market`` (``None`` if read from a file).

    A graph is a snapshot: ``adjacency`` and ``prices`` must not be edited in
    place; build a new graph instead, for example with :meth:`restricted`.
    What solves and :meth:`stats` reuse lives on the object it depends on:
    ``kept`` holds the graph's components (``"components"``, see
    :func:`_components`) and ``dsa``'s orders (``"dsa"``), each component
    its centers and trees (:class:`Subgraph`), each tree its path set-ups.
    A component reaches its graph through a weak proxy, so nothing kept
    holds the graph alive, and all of it dies with the graph. Two threads
    may both compute an entry; the results are equal and either may be
    kept, so no lock is needed."""

    delta: float
    prices: dict[str, int]  # cents, snapshot of the catalog prices
    adjacency: dict[str, tuple[str, ...]]
    market: Marketplace | None = field(default=None, repr=False)
    kept: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def nodes(self) -> tuple[str, ...]:
        return tuple(self.adjacency)

    @property
    def n_edges(self) -> int:
        return sum(len(v) for v in self.adjacency.values()) // 2

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
            components=len(_components(self)),
        )


@dataclass(frozen=True)
class GraphStats:
    nodes: int
    edges: int
    average_degree: float
    components: int


@dataclass(eq=False)
class Subgraph:
    """A maximal connected component, members sorted ascending; ``parent`` is
    the BFS parent map from ``members[0]`` that found it (``None`` on a
    Subgraph built by hand). ``trees`` keeps each BFS tree built on it, keyed
    by root, with the path set-ups built from that tree, and on a component
    of three or more members ``centers`` keeps the result of each center
    search, one entry per search (``"exact"``, ``"two_bfs"``): a repeat
    search, tree or set-up on the same Subgraph runs no BFS and builds
    nothing."""

    members: tuple[str, ...]
    graph: DatasetGraph
    parent: dict[str, str | None] | None = field(default=None, repr=False)
    centers: dict = field(default_factory=dict, init=False, repr=False)
    trees: dict = field(default_factory=dict, init=False, repr=False)

    def __len__(self):
        return len(self.members)


@dataclass(eq=False)
class BallTree:
    """Binary bounding-box tree over the catalog; one dataset per leaf.

    Nodes are stored as flat int64 arrays; ``order[start[i]:end[i]]`` lists
    the dataset indices (into ``market.ids``) beneath node ``i``, and an
    internal node's children are ``left[i]`` and ``left[i] + 1``. ``lo[i]``
    and ``hi[i]`` are the smallest and largest cell index on each axis over
    every cell under the node, so a leaf's box is its dataset's box. ``cells``
    is ``market.cells`` decoded, so ``market.starts`` delimits each dataset's
    rows. Every array is read-only: :func:`build_ball_tree` hands the same
    tree to every build on its catalog.
    """

    cells: np.ndarray        # (C, 2) cell indices of market.cells
    order: np.ndarray        # (n,) permutation of dataset indices
    lo: np.ndarray           # (m, 2) box corner
    hi: np.ndarray           # (m, 2) opposite box corner
    left: np.ndarray         # (m,) first child, -1 for leaves
    start: np.ndarray        # (m,) range into order
    end: np.ndarray          # (m,)


def check_delta(delta: float) -> None:
    """Raise :class:`GraphConfigError` unless ``delta`` is finite and
    non-negative; a Python int beyond float range counts as infinite, and a
    ``bool`` is not a distance."""
    try:
        valid = not isinstance(delta, (bool, np.bool_)) and math.isfinite(delta) and delta >= 0
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

    Zero exactly when the cell sets intersect. The two datasets must share
    one grid.
    """
    if a.grid != b.grid:
        raise GraphConfigError(
            f"datasets {a.id!r} and {b.id!r} were rasterized under different grids")
    return math.sqrt(_min_sqdist_coords(decode_cells(a.cells), decode_cells(b.cells)))


def _graph_from_pairs(market, delta, ii, jj) -> DatasetGraph:
    """Graph from the unordered index pairs ``(ii[k], jj[k])``, each edge
    given once; ids are sorted, so index order is id order."""
    ids = market.ids
    n = len(ids)
    src, dst = np.divmod(np.sort(np.concatenate([ii * n + jj, jj * n + ii])), n)
    bounds = np.searchsorted(src, np.arange(n + 1)).tolist()
    names = np.array(ids, dtype=object)[dst].tolist()
    adjacency = {did: tuple(names[bounds[i]:bounds[i + 1]]) for i, did in enumerate(ids)}
    return DatasetGraph(delta=float(delta), prices=dict(market._price_cents),
                        adjacency=adjacency, market=market)


def build_graph_naive(market: Marketplace, delta: float) -> DatasetGraph:
    """Reference construction: every dataset pair i < j, unpruned, goes to
    the indexed walk's exact kernel :func:`_min_sqdist_pairs`, and edges to
    its assembler :func:`_graph_from_pairs`. Nothing is cached between calls."""
    thr = _sq_threshold(delta)
    ii, jj = np.triu_indices(len(market), 1)
    close = _min_sqdist_pairs(decode_cells(market.cells), market.starts, ii, jj) <= thr
    return _graph_from_pairs(market, delta, ii[close], jj[close])


def _ranges(lo, hi):
    """Concatenation of ``arange(lo[k], hi[k])`` over k; every ``hi[k] >= lo[k]``."""
    counts = hi - lo
    ends = np.cumsum(counts)
    return np.arange(counts.sum()) - np.repeat(ends - counts - lo, counts)


# The catalog built for last, as (weak reference to it, its box tree, keys,
# d2), or None. ``keys`` are the sorted int64 keys ``min(i, j) * n + max(i,
# j)`` (dataset indices, ``n = len(catalog)``) of every pair the exact kernel
# has decided on it, ``d2`` their squared distances; both end in a sentinel
# above every key, so a ``searchsorted`` position always indexes them. Kept
# arrays are read-only: a build stores a new tuple.
_kept_tree = None
_NO_PAIRS = np.array([np.iinfo(np.int64).max]), np.zeros(1, dtype=np.int64)
for _array in _NO_PAIRS:
    _array.setflags(write=False)


def _forget_tree(ref):
    """Empty the slot when its catalog is collected."""
    global _kept_tree
    kept = _kept_tree
    if kept is not None and kept[0] is ref:
        _kept_tree = None


def build_ball_tree(market: Marketplace) -> BallTree:
    """Top-down box tree with one dataset per leaf, built a level at a time.

    A node's box is one ``minimum``/``maximum.reduceat`` over the boxes of
    its datasets. Each internal node splits its datasets at the median of
    their box centres, kept integer as ``lo + hi``, along the wider axis of
    the node's box, ties going to the smaller id; one ``lexsort`` over (node,
    centre, id) orders every node of a level. Nodes are numbered level by
    level.

    One slot keeps the tree last built and a weak reference to its catalog:
    a call on that catalog returns the kept tree, a call on another replaces
    it and the decided pairs kept with it, and the slot empties when its
    catalog is collected. Two threads may both build; the trees are equal
    and either may be kept.
    """
    global _kept_tree
    kept = _kept_tree
    if kept is not None and kept[0]() is market:
        return kept[1]
    cells, starts = decode_cells(market.cells), market.starts
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
    tree = BallTree(cells=cells, order=order, lo=lo, hi=hi, left=left, start=begin, end=stop)
    for array in vars(tree).values():
        array.setflags(write=False)
    _kept_tree = weakref.ref(market, _forget_tree), tree, *_NO_PAIRS
    return tree


def _padded(starts, sizes, datasets, width):
    """(len(datasets), width) cell rows, each padded with its first cell."""
    t = np.arange(width)
    return starts[datasets][:, None] + np.where(t < sizes[datasets][:, None], t, 0)


def _min_sqdist_pairs(cells, starts, ii, jj) -> np.ndarray:
    """Exact minimum squared distance of every dataset pair ``(ii[k], jj[k])``.

    Datasets fall into power-of-two size classes and are padded to their
    class's largest size with copies of their own first cell, which cannot
    change a minimum. Pairs of one class pair are evaluated together, one
    step of 128 KB at a time: ``_PAIR_CHUNK`` cell pairs in int64, or twice
    as many in int32, which the steps use when every (non-negative) cell
    index is below 2**15, so that no squared distance reaches 2**31. A pair
    larger than one step goes to :func:`_min_sqdist_coords`. The result is
    int64 either way.
    """
    dtype, chunk = (np.int32, 2 * _PAIR_CHUNK) if cells.max() < 1 << 15 else (np.int64, _PAIR_CHUNK)
    xs, ys = cells[:, 0].astype(dtype), cells[:, 1].astype(dtype)
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
        if wa * wb > chunk:
            for k in sel.tolist():
                out[k] = _min_sqdist_coords(cells[starts[a[k]]:starts[a[k] + 1]],
                                            cells[starts[b[k]]:starts[b[k] + 1]])
            continue
        step = chunk // (wa * wb)
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


def _datasets_under(tree: BallTree, q, n):
    """Leaf ``q[k]``'s dataset paired with every dataset beneath node
    ``n[k]`` that comes after it in ``tree.order``: the dataset pairs of the
    (leaf, node) pairs accepted whole."""
    first, end = np.maximum(tree.start[n], tree.start[q] + 1), tree.end[n]
    return np.repeat(tree.order[tree.start[q]], end - first), tree.order[_ranges(first, end)]


def _decided_sqdist(market, tree, ii, jj) -> np.ndarray:
    """Exact squared distance of every dataset pair ``(ii[k], jj[k])`` of
    ``market``, each unordered pair given once.

    Pairs the slot has decided are looked up there; only the others go to
    :func:`_min_sqdist_pairs`, and the slot gets a new tuple with them
    merged in, under the same weak reference. The slot is read once: if
    another thread has given it to another catalog, every pair goes to the
    kernel and nothing is stored.
    """
    global _kept_tree
    kept = _kept_tree
    if kept is None or kept[0]() is not market:
        return _min_sqdist_pairs(tree.cells, market.starts, ii, jj)
    ref, kept_tree, keys, d2 = kept
    key = np.minimum(ii, jj) * len(market) + np.maximum(ii, jj)
    pos = np.searchsorted(keys, key)
    out = d2[pos]
    new = np.flatnonzero(keys[pos] != key)
    out[new] = _min_sqdist_pairs(tree.cells, market.starts, ii[new], jj[new])
    keys = np.concatenate([keys, key[new]])
    order = np.argsort(keys)
    keys, d2 = keys[order], np.concatenate([d2, out[new]])[order]
    keys.setflags(write=False)
    d2.setflags(write=False)
    _kept_tree = ref, kept_tree, keys, d2
    return out


def build_graph_indexed(market: Marketplace, delta: float) -> DatasetGraph:
    """Single-tree construction over the catalog's box tree, which
    :func:`build_ball_tree` keeps for the next build on the same catalog;
    edge set identical to the naive path.

    Each leaf's box walks down the tree from the root as a frontier of
    (leaf, node) pairs advanced by int64 array operations. A pair stays only
    while its node holds a dataset after the leaf's own in ``tree.order``,
    so every unordered dataset pair is reached once and no leaf meets
    itself. A pair is pruned when the squared gap between the two boxes
    exceeds the integer threshold, accepted whole when the squared distance
    between their farthest corners is within it, and otherwise its node is
    split into ``left`` and ``left + 1``. Both tests are exact int64, so no
    margin is needed. Leaf boxes are dataset boxes: the leaf pairs left open
    are box-near, and one exact integer kernel decides them together, once
    per catalog: a pair's squared distance does not depend on ``delta``, so
    a later build at any ``delta`` looks up what an earlier one decided
    (:func:`_decided_sqdist`).
    """
    thr = _sq_threshold(delta)
    tree = build_ball_tree(market)
    (lx, ly), (hx, hy) = np.ascontiguousarray(tree.lo.T), np.ascontiguousarray(tree.hi.T)
    left = tree.left
    q = np.flatnonzero(left < 0)
    n = np.zeros_like(q)
    whole, open_leaves = [], []
    while q.size:
        # per axis, the larger offset between facing box faces is the gap if
        # positive, and the smaller one is minus the span of the far corners;
        # a node holding no dataset after the leaf's own counts as far
        ex, fx, ey, fy = lx[q] - hx[n], lx[n] - hx[q], ly[q] - hy[n], ly[n] - hy[q]
        gx, gy = np.maximum(np.maximum(ex, fx), 0), np.maximum(np.maximum(ey, fy), 0)
        cx, cy = np.minimum(ex, fx), np.minimum(ey, fy)
        near = (gx * gx + gy * gy <= thr) & (tree.end[n] > tree.start[q] + 1)
        inside = near & (cx * cx + cy * cy <= thr)
        whole.append((q[inside], n[inside]))
        undecided = near & ~inside
        q, n = q[undecided], n[undecided]
        leaf = left[n] < 0
        open_leaves.append((q[leaf], n[leaf]))
        q, n = q[~leaf], left[n[~leaf]]
        q, n = np.concatenate([q, q]), np.concatenate([n, n + 1])

    oq, on = (np.concatenate(side) for side in zip(*open_leaves))
    li, lj = tree.order[tree.start[oq]], tree.order[tree.start[on]]  # one dataset each
    close = _decided_sqdist(market, tree, li, lj) <= thr
    wi, wj = _datasets_under(tree, *(np.concatenate(side) for side in zip(*whole)))
    return _graph_from_pairs(market, delta, np.concatenate([li[close], wi]),
                             np.concatenate([lj[close], wj]))


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
    """Maximal components via :func:`bfs`, ordered by their smallest member;
    each keeps the parent map of the search from that member, the BFS tree
    rooted there."""
    seen = set()
    components = []
    for root in graph.nodes:
        if root not in seen:
            reached, _ = bfs(graph.adjacency, root)
            seen.update(reached)
            components.append(Subgraph(tuple(sorted(reached)), graph, reached))
    return components


def _components(graph):
    """``connected_components(graph)``, computed once per graph and kept in
    ``graph.kept`` (:class:`DatasetGraph`); later calls return the same
    Subgraphs, with what solves kept on them."""
    components = graph.kept.get("components")
    if components is None:
        components = graph.kept["components"] = connected_components(weakref.proxy(graph))
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
    [(delta,)], rows = read_counted_file(path, GRAPH_MAGIC, GRAPH_VERSION,
                                         [("delta", float, 1)], "nodes", GraphConfigError)
    try:
        check_delta(delta)
    except GraphConfigError as exc:
        raise GraphConfigError(f"{exc} at line 2, got {delta}") from None
    adjacency = {}
    prices = {}
    line_of = {}
    for line, parts in rows:
        try:
            did, price, k = parts[0], parts[1], int(parts[2])
        except (IndexError, ValueError):
            raise GraphConfigError(f"malformed node line at line {line}") from None
        nbrs = parts[3:]
        if len(nbrs) != k:
            raise GraphConfigError(f"neighbor count mismatch for {did!r} at line {line}")
        if did in adjacency:
            raise GraphConfigError(f"repeated node id {did!r} at line {line}")
        if did in nbrs:
            raise GraphConfigError(f"self-loop at {did!r} at line {line}")
        if any(v >= w for v, w in zip(nbrs, nbrs[1:])):
            raise GraphConfigError(
                f"neighbors of {did!r} are not strictly ascending at line {line}")
        try:
            cents = to_cents(price)
        except MarketplaceError as exc:
            raise GraphConfigError(f"{exc} at line {line}") from None
        if cents < 0:
            raise GraphConfigError(f"negative price {price!r} at line {line}")
        adjacency[did] = tuple(nbrs)
        prices[did] = cents
        line_of[did] = line
    for u, nbrs in adjacency.items():
        for v in nbrs:
            if v not in adjacency or u not in adjacency[v]:
                raise GraphConfigError(
                    f"asymmetric adjacency at edge {u!r}-{v!r} at line {line_of[u]}")
    return DatasetGraph(delta=delta, prices=prices,
                        adjacency={u: adjacency[u] for u in sorted(adjacency)},
                        market=None)
