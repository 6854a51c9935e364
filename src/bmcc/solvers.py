"""Budgeted connected-coverage solvers.

All solvers share the same contract: given a marketplace, a budget and a
distance threshold they return a :class:`Solution` whose selected datasets
fit the budget and induce a connected subgraph of the dataset graph.
Available strategies:

* ``dsa`` -- two greedy passes over individual datasets (gain-per-price,
  then raw gain), returning the better result.
* ``dpsa`` / ``dpsa-ba`` -- per component, greedy selection of root-to-leaf
  paths of the BFS tree rooted at the component center (exact center, or the
  double-BFS approximation for ``-ba``). The exact center is found by
  eccentricity bounding (:func:`find_center_exact`): a few BFS runs per
  component rather than one per node. Both searches return a
  :class:`CenterResult`.
* ``cmc-mc`` / ``cmc-mg`` -- baselines that grow root-to-node paths by
  average coverage / average marginal gain per path node.
* ``exact`` -- exhaustive oracle for small catalogs: it enumerates every
  connected, budget-feasible set of the candidate graph exactly once (ESU),
  with no table over all 2^n subsets.

Every tie among equal-scoring candidates breaks toward the smallest id, so
all solvers are deterministic functions of their inputs.

Each solve works on a candidate graph, the datasets priced within the budget
(the query graph itself when every dataset fits), its budget parsed to cents
once (:func:`_prepare`). Cells come from ``Marketplace._split``: a dataset's
*solo* cells, held by no other dataset, are only counted, and the rest form
its *shared* frozenset, empty for most. So v's marginal gain over the shared
cells C covered so far is ``solo[v] + len(shared[v] - C)``, and every
heuristic reads a candidate's coverage (a running count) and price from the
state that grew it. A component of one or two members has a closed form in :func:`budgeted_greedy`
and ``cmc`` (:func:`_small_growth`), with no path set-up: every path greedy
grown from its root takes the other member exactly when the two prices fit
together. Its two center searches take no BFS either. A candidate's ids are
sorted only if it can win (:func:`_offer`).

What depends on the graph alone (components, center results, BFS trees and
their path set-ups, ``dsa``'s orders) is prepared once per graph and reused
by every later solve on it, at any budget: :class:`DatasetGraph` says where
each is kept. Nothing that depends on the budget is kept, and a restricted
candidate graph is built afresh by each solve, so it gets no reuse.

The greedy loops avoid rescoring every candidate at every step, and still
return exactly what a full rescan would:

* Both ``dsa`` passes, whose gains only fall, are lazy (Minoux's
  accelerated greedy, also known as CELF): each walks its candidates in the
  order of their first keys (-score, id), kept per graph, beside a side heap
  of the candidates a rescore demoted, and rescores a candidate only before
  examining it, and only if it has shared cells and still fits. The ratio pass
  keys by an exact int (:func:`_ratio_key`).
* Both flags of :func:`budgeted_greedy` (the coverage flag over a unit
  denominator) and ``cmc-mg`` run one exact scan, :func:`_grow_paths`: a
  taken path makes every path sharing its nodes cheaper, so a ratio over the
  incremental path price ``dp`` can rise. The scan skips the paths that do
  not fit (they never will), drops the ends already selected, and stops at
  the first step where none fits. ``cmc-mc``'s score, a path's distinct
  cells over its depth, never changes, so it takes its paths in one pass
  over an order sorted once per tree (:func:`_take_in_order`).
  Each path's gain and ``dp`` are kept exact by an inverted index (cell ->
  nodes) and a DFS preorder of the candidates, in which those below a node
  are one contiguous range of integer slots; taking a path walks up the
  tree and touches only what it newly covers or pays for. Initial gains and
  prices are running sums in parent order, O(n) per tree. The set-up is
  built once per :class:`BfsTree` and its set of ends, and kept with the
  tree: both flags of :func:`budgeted_greedy`, and both ``cmc`` variants,
  grow a copy of it, so it holds no id-keyed dict and keeps its sums in
  ``array('q')`` (:class:`_PathGrowth`).
"""

import collections
import heapq
import itertools
import math
from array import array
from dataclasses import dataclass, field
from decimal import Decimal
from functools import cached_property

import numpy as np

from .graph import (
    DatasetGraph,
    GraphConfigError,
    Subgraph,
    bfs,
    _components,
    build_graph_indexed,
    check_delta,
    connected_components,  # re-exported as bmcc.solvers.connected_components
)
from .grid import CellRangeError, GridConfig, GridError, CellBasedDataset, _exact_integers
from .marketplace import (
    Marketplace,
    MarketplaceError,
    PricingFunction,
    UnknownDatasetError,
    cents_to_decimal,
    to_cents,
)

STATUS_OK = "ok"
STATUS_BELOW_MINIMUM = "budget_below_minimum"

SOLVER_LABELS = ("dsa", "dpsa", "dpsa-ba", "cmc-mc", "cmc-mg", "exact")
ORACLE_CAP = 15  # the exact oracle's default size cap, in datasets


class OracleCapError(ValueError):
    """The exact oracle refuses catalogs above its configured size cap."""


@dataclass(frozen=True)
class Solution:
    """A solver outcome: selected ids plus recomputable summary figures.

    Feasibility is not stored here: :func:`verify_solution` recomputes it.
    """

    algorithm: str
    selected: tuple[str, ...]
    total_price_cents: int
    coverage: int
    status: str = STATUS_OK
    round_coverages: tuple[int, int] | None = None  # (ratio pass, coverage pass)

    @property
    def total_price(self) -> Decimal:
        return cents_to_decimal(self.total_price_cents)


@dataclass(frozen=True)
class BfsTree:
    """BFS tree of one component and its leaves.

    ``parent`` lists the nodes in visit order; a leaf's root path is found by
    walking it up. The path set-ups are built from ``component`` on first use
    and kept with the tree, which :func:`build_bfs_tree` keeps on the
    component: ``_growth``, over the leaves, that both flags of
    :func:`budgeted_greedy` grow a copy of, and ``_node_paths``, over every
    node below the root, with the depth of each slot's end, that both
    ``cmc`` variants grow a copy of; ``_mc_order`` ranks its slots for
    ``cmc-mc`` (:func:`_take_in_order`). A tree of one or two nodes needs none.
    """

    root: str
    parent: dict[str, str | None]
    leaves: tuple[str, ...]
    component: Subgraph = field(repr=False, compare=False)

    def _setup(self, ends) -> "_PathGrowth":
        graph = self.component.graph
        return _PathGrowth(self.parent, _market_of(graph)._split, graph.prices, ends)

    @cached_property
    def _growth(self) -> "_PathGrowth":
        return self._setup(set(self.leaves))

    @cached_property
    def _node_paths(self) -> tuple["_PathGrowth", array]:
        growth = self._setup(set(itertools.islice(self.parent, 1, None)))
        depth = [0] * len(growth._up)
        for v in range(1, len(depth)):
            depth[v] = depth[growth._up[v]] + 1
        return growth, array("q", [depth[v] for v in growth._node])

    @cached_property
    def _mc_order(self) -> array:
        growth, depth = self._node_paths
        keys = list(map(_ratio_key(depth, 0), growth.reach, depth))
        return array("q", sorted(growth._scan, key=keys.__getitem__))


@dataclass(frozen=True)
class CenterResult:
    """A component's center and radius: exact from :func:`find_center_exact`,
    the double-BFS estimate from :func:`find_center_two_bfs`."""

    center: str
    radius: int


@dataclass(frozen=True)
class VerificationReport:
    """Recomputed feasibility checks for one solution."""

    within_budget: bool
    connected: bool
    recomputed_price_cents: int
    recomputed_coverage: int
    price_matches: bool
    coverage_matches: bool

    @property
    def ok(self) -> bool:
        return (self.within_budget and self.connected
                and self.price_matches and self.coverage_matches)

    def checks(self) -> list[tuple[str, bool]]:
        return [
            ("within_budget", self.within_budget),
            ("connected", self.connected),
            ("price_matches", self.price_matches),
            ("coverage_matches", self.coverage_matches),
        ]


def _market_of(graph):
    if graph.market is None:  # a graph read from an adjacency file
        raise GraphConfigError("graph carries no marketplace; cannot read cells")
    return graph.market


def _prepare(market, budget, delta, graph, cap=None):
    """Common front matter: the budget in cents and the candidate graph, the
    graph induced by the datasets priced within the budget; that is the query
    graph itself when every dataset fits. No solve writes to it. A given
    graph must carry ``market``; a catalog above ``cap`` datasets, if given,
    is refused before any graph is built."""
    b = to_cents(budget)
    if b < 0:
        raise ValueError("budget must be non-negative")
    if graph is not None:
        if _market_of(graph) is not market:
            raise GraphConfigError("graph was built over a different marketplace")
        check_delta(delta)
        if graph.delta != float(delta):
            raise GraphConfigError(
                f"graph was built at delta={graph.delta}, solve requested {delta}")
    if cap is not None and len(market) > cap:
        raise OracleCapError(f"exact oracle capped at {cap} datasets, catalog has {len(market)}")
    if graph is None:
        graph = build_graph_indexed(market, delta)
    if max(graph.prices.values(), default=0) <= b:
        return b, graph
    return b, graph.restricted(did for did, price in graph.prices.items() if price <= b)


def _empty_solution(algorithm, rounds=None):
    return Solution(algorithm=algorithm, selected=(), total_price_cents=0,
                    coverage=0, status=STATUS_BELOW_MINIMUM, round_coverages=rounds)


# Sorts after the key of every candidate: no candidate has negative coverage.
_NO_CANDIDATE = (1, 0, ())


def _offer(best, selected, coverage, price):
    """The better of ``best`` and the candidate node set ``selected``, as keys
    ``(-coverage, price, sorted ids)``: the smallest key is the best
    candidate. The ids are sorted only for a candidate that ties or beats
    ``best`` on coverage and price."""
    if (-coverage, price) <= best[:2]:
        return min(best, (-coverage, price, tuple(sorted(selected))))
    return best


def _solution(algorithm, key, rounds=None):
    """The :class:`Solution` of a candidate summarized by ``key``."""
    return Solution(algorithm, key[2], key[1], -key[0], round_coverages=rounds)


def _small_growth(members, root, split, prices, b):
    """``(selected, coverage, price)`` of what every path greedy from ``root``
    selects on a component of one or two members, whose root fits ``b``: the
    root, and the other member too if the two prices fit ``b`` together."""
    solo, shared = split
    if len(members) == 2 and prices[members[0]] + prices[members[1]] <= b:
        u, v = members
        return {u, v}, solo[u] + solo[v] + len(shared[u] | shared[v]), prices[u] + prices[v]
    return {root}, solo[root] + len(shared[root]), prices[root]


# ---------------------------------------------------------------------------
# Greedy engine shared by the solvers


def _ratio_key(prices, top):
    """Sort key ``key(gain, price)`` of the ratio ``gain / price``, for prices
    among ``prices`` (non-negative int cents) and gains at most ``top``: the
    plain int ``-(gain * scale // price)``, ``scale = max(prices) ** 2``,
    which orders exactly as ``-Fraction(gain, price)`` and compares in C: if
    g1/p1 > g2/p2 then g1*p2 - g2*p1 >= 1, so the scaled ratios differ by at
    least scale / (p1*p2) >= 1 and their floors are strictly ordered, while
    equal ratios give equal floors. A zero price ranks first, by higher
    gain: its key ``-(top * scale + 1 + gain)`` sorts before every ratio's,
    which is at least ``-(top * scale)``."""
    scale = max(prices) ** 2
    first = -(top * scale + 1)
    return lambda gain, price: -(gain * scale // price) if price else first - gain


def _pristine(values):
    """``values`` as an ``array('q')``, which holds no int objects; a tuple
    if a value does not fit in 64 bits."""
    try:
        return array("q", values)
    except OverflowError:
        return tuple(values)


class _PathGrowth:
    """The path set-up of a BFS tree, and a connected set grown from its root
    by whole candidate paths.

    ``parent`` maps every tree node to its parent (the root to ``None``) in
    BFS order; the candidates are the paths from below the root down to each
    node of ``ends``: the leaves, or every node but the root, so each node
    below the root has an end at or below it. ``split`` is the catalog's
    ``(solo, shared)``: solo cells are only counted, so the cell sets below
    are shared cells; ``covered`` holds the selection's, and ``count`` all
    its cells. The exact marginal gain ``gain[s]`` (cells not yet covered)
    and incremental price ``dp[s]`` (price of nodes not yet selected) of
    every candidate are kept up to date, so a step costs only what it touches:

    * a node's *new cells* are those that no ancestor below the root holds.
      Along a path they partition its cells, so ``reach[s]`` (the distinct
      cells of the path), its initial gain (``reach[s]`` less the root's
      cells) and its initial ``dp`` are running sums down the path: one pass
      in parent order, which carries the shared cells (of two or more nodes)
      above each node, so it never walks up the tree;
    * everything is integer-indexed. Nodes are numbered in BFS order, the
      root 0, with per-node lists of the parent, price, solo count and
      cells. The candidates, or *slots*, are numbered in DFS preorder, so
      the slots below node ``i`` are ``range(_lo[i], _hi[i])``, and an end's
      own slot is its ``_lo``. ``_holders`` maps each cell held by two or
      more nodes to the nodes where it is new. Taking a path walks up from
      its end to the selection, and lowers the gain and price of every slot
      below each node it pays for or whose new cells it covers.

    The set-up is read-only: its sums are kept in ``array('q')``, and each
    growth is a :meth:`copy`, whose ``gain`` and ``dp`` are fresh lists
    (``reach`` never changes). Ids are read only by :attr:`selected`.
    """

    def __init__(self, parent, split, prices, ends):
        solo_of, cells_of = split
        self._ids = ids = tuple(parent)
        n = len(ids)
        index = dict(zip(ids, range(n)))
        up = [index.get(u, -1) for u in parent.values()]
        cells = list(map(cells_of.__getitem__, ids))
        # Cells held by one node are new there; a shared cell is new at each
        # holder with no holder above it below the root. The ends in each
        # subtree are counted in the same pass, up from the leaves.
        size = list(map(ends.__contains__, ids))
        seen, shared = set(), set()
        for i in range(n - 1, 0, -1):
            mine = cells[i]
            if mine:
                shared |= seen & mine
                seen |= mine
            size[up[i]] += size[i]
        rooted = cells[0] & seen
        shared |= rooted
        slots = size[0]
        self._up = up
        self._price = price = list(map(prices.__getitem__, ids))
        self._solo = solo = list(map(solo_of.__getitem__, ids))
        self._cells = cells
        self._lo, self._hi = lo, hi = [0] * n, [slots] * n
        self._holders = holders = {}
        node, reach, gain, dp = ([0] * slots for _ in range(4))
        free = [0] * n  # the next free slot below each node
        # (node, shared cells held above it, reach, gain and dp down to it),
        # dropped once the node's children are done: parents come in BFS order
        above = collections.deque([(0, frozenset(), 0, 0, 0)])
        for v in range(1, n):
            u = up[v]
            while above[0][0] != u:
                above.popleft()
            _, held, r, g, d = above[0]
            mine = cells[v]
            tree_shared = mine & shared
            if tree_shared:
                for c in tree_shared - held:
                    holders.setdefault(c, []).append(v)
                mine = mine - held
                held = held | tree_shared
                g -= len(mine & rooted)
            k = solo[v] + len(mine)
            r, g, d = r + k, g + k, d + price[v]
            above.append((v, held, r, g, d))
            a = lo[v] = free[u]
            free[u] = hi[v] = a + size[v]
            if ids[v] in ends:
                node[a], reach[a], gain[a], dp[a] = v, r, g, d
                a += 1
            free[v] = a
        self._node = array("q", node)
        self._scan = array("q", sorted(range(slots), key=lambda s: ids[node[s]]))
        self._gain0, self._dp0, self.reach = _pristine(gain), _pristine(dp), _pristine(reach)
        self._covered0, self._count0, self._spent0 = cells[0], solo[0] + len(cells[0]), price[0]

    def copy(self):
        """A growth from the root alone, in fresh lists; the set-up it reads
        is shared and never written."""
        other = object.__new__(type(self))
        vars(other).update(vars(self))
        other.gain, other.dp = list(self._gain0), list(self._dp0)
        other.covered, other._sel = set(self._covered0), {0}
        other.count, other.spent = self._count0, self._spent0
        return other

    @property
    def selected(self):
        """The ids of the selected nodes."""
        ids = self._ids
        return {ids[i] for i in self._sel}

    def take(self, s):
        """Add the path of slot ``s`` to the set, pay its incremental price
        and return its newly selected nodes, from its end up. The set holds
        every ancestor of its nodes, so those are the nodes from the slot's
        end up to the first selected one. They are added from the top down:
        when a node's turn comes its ancestors are covered, so its cells
        less the covered ones are its new cells less them."""
        gain, dp, covered, selected = self.gain, self.dp, self.covered, self._sel
        up, lo, hi, price, solo, cells = (
            self._up, self._lo, self._hi, self._price, self._solo, self._cells)
        holders = self._holders
        self.spent += dp[s]
        path = []
        u = self._node[s]
        while u not in selected:
            path.append(u)
            u = up[u]
        selected.update(path)
        lost = {}
        for u in reversed(path):
            p = price[u]
            if p:
                for j in range(lo[u], hi[u]):
                    dp[j] -= p
            fresh = cells[u] - covered
            n = solo[u] + len(fresh)
            if n:
                self.count += n
                lost[u] = lost.get(u, 0) + n
            if fresh:
                covered |= fresh
                for c in fresh & holders.keys():
                    for h in holders[c]:
                        if h != u:
                            lost[h] = lost.get(h, 0) + 1
        for h, n in lost.items():
            for j in range(lo[h], hi[h]):
                gain[j] -= n
        return path


def _grow_paths(growth, b, num, den):
    """Grow ``growth`` within ``b`` cents by whole paths to its ends. Each
    step takes, of the paths that fit the room left, the largest exact ratio
    ``num[s] / den[s]`` of the live scores, by integer cross-multiplication:
    a zero ``den`` ranks first, by ``num``, and ties go to the smallest id,
    as the slots are scanned in ascending id of their ends. A take drops
    from the pool every end it selects; the growth stops when no path fits.
    A take raises ``spent`` by ``dp[pick]`` and lowers no ``dp[s]`` by more,
    so ``dp[s] + spent`` never falls: a path that does not fit now never
    will."""
    dp, lo, node = growth.dp, growth._lo, growth._node
    pool = dict.fromkeys(growth._scan)
    while True:
        room = b - growth.spent
        pick, bn, bd = None, -1, 1  # -1/1 ranks below every ratio
        for k in pool:
            if dp[k] > room:
                continue
            n, d = num[k], den[k]
            if (n * bd > bn * d) if d and bd else (d == 0 and (bd != 0 or n > bn)):
                pick, bn, bd = k, n, d
        if pick is None:
            return
        for u in growth.take(pick):
            if node[lo[u]] == u:
                del pool[lo[u]]


def _take_in_order(growth, b, order):
    """Grow ``growth`` within ``b`` cents by taking, in one pass over
    ``order``, each path whose end is not selected and whose ``dp`` fits the
    room left. If ``order`` ranks fixed scores, ties in ascending id of the
    ends (``BfsTree._mc_order``: ``reach / depth`` by :func:`_ratio_key`),
    each take is :func:`_grow_paths`' pick: a slot passed over is selected,
    or did not fit and never will."""
    node, selected, dp = growth._node, growth._sel, growth.dp
    room = b - growth.spent
    for s in order:
        if dp[s] <= room and node[s] not in selected:
            growth.take(s)
            room = b - growth.spent


# ---------------------------------------------------------------------------
# DSA: dual greedy over individual datasets


def solve_dsa(market: Marketplace, budget, delta, graph: DatasetGraph | None = None) -> Solution:
    """Two-pass greedy: gain-per-price pass, raw-gain pass, best of the two.

    Each pass examines candidates in score order; an examined dataset is
    dropped from the pass's pool whether or not it was accepted, and a
    candidate is acceptable only if it keeps the growing set connected and
    within budget. A gain, ``solo + len(shared - covered)``, only falls, so
    both passes are lazy (Minoux's accelerated greedy): a stale key is a
    lower bound on the fresh one. Before anything is covered a gain is the
    dataset's coverage, so each pass's first keys depend on the candidate
    graph alone, and its ids sorted by ``(first key, id)`` are kept in
    ``candidate.kept["dsa"]`` (:class:`DatasetGraph`). A pass walks that
    order beside a side heap of the ``(fresh key, id)`` entries of demoted
    candidates, and at each step takes whichever of the side top and the
    next order entry sorts first.
    A candidate over the budget left is dropped: ``spent`` only rises. One
    with shared cells is rescored, and pushed on the side heap if its fresh
    entry sorts after the side top or the next order entry; one without
    keeps its first gain. So each examination is that of a full rescan.
    The ratio pass keys by the exact int of :func:`_ratio_key`.
    """
    b, candidate = _prepare(market, budget, delta, graph)
    if not candidate.nodes:
        return _empty_solution("dsa", rounds=(0, 0))
    adjacency, prices = candidate.adjacency, candidate.prices
    solo, shared = market._split
    # no gain exceeds the catalog's count of cells
    keys = (_ratio_key(prices.values(), len(market.cells)), lambda gain, price: -gain)
    # before anything is covered, a dataset's gain is its coverage
    entries = [lambda d, key=key: (key(solo[d] + len(shared[d]), prices[d]), d) for key in keys]
    orders = candidate.kept.get("dsa")
    if orders is None:
        orders = candidate.kept["dsa"] = tuple(
            tuple(sorted(adjacency, key=entry)) for entry in entries)

    def one_round(order, key, entry) -> tuple[set[str], int, int]:
        covered: set[int] = set()  # shared cells only
        selected: set[str] = set()
        frontier: set[str] = set()
        side = []  # (fresh key, id) of each demoted candidate
        spent = count = 0
        i, n = 0, len(order)
        while i < n or side:
            if i == n or side and side[0] < entry(order[i]):
                did = heapq.heappop(side)[1]
            else:
                did = order[i]
                i += 1
            price = prices[did]
            if spent + price > b:
                continue
            cells = shared[did]
            if cells:
                fresh = (key(solo[did] + len(cells - covered), price), did)
                if side and side[0] < fresh or i < n and entry(order[i]) < fresh:
                    heapq.heappush(side, fresh)
                    continue
            if selected and did not in frontier:
                continue
            selected.add(did)
            spent += price
            count += solo[did]
            covered |= cells
            frontier.update(adjacency[did])
        return selected, count + len(covered), spent

    first, second = map(one_round, orders, keys, entries)
    # the raw-gain pass wins only on strictly higher coverage
    selected, coverage, price = second if second[1] > first[1] else first
    return Solution("dsa", tuple(sorted(selected)), price, coverage,
                    round_coverages=(first[1], second[1]))


# ---------------------------------------------------------------------------
# Centers and BFS trees


def find_center_exact(sub: Subgraph) -> CenterResult:
    """Exact center by eccentricity bounding (Takes & Kosters): the member of
    minimum eccentricity, smallest id on ties, and that eccentricity as radius.

    Every member keeps bounds ``lo <= ecc <= hi``. A BFS from ``v`` with
    eccentricity ``e`` reaches each ``w`` at some distance ``d``, and the
    triangle inequality gives ``max(d, e - d) <= ecc(w) <= e + d``. A member
    stays a candidate until its bounds meet (its eccentricity is then exact
    and may become the best ``(ecc, id)`` pair) or ``(lo, id)`` sorts after
    the best pair, so it cannot be the center. BFS roots alternate between
    the candidate of smallest ``(lo, id)`` and that of largest ``hi``
    (smallest id on ties); each root's own bounds meet, so the loop ends. The
    answer does not depend on the choice of roots, only the number of BFS
    runs does. Components of one or two members need no BFS; on a larger
    one the result is kept in ``sub.centers``, so a repeat call runs none.
    """
    members = sub.members
    if len(members) <= 2:
        return CenterResult(members[0], len(members) - 1)
    if "exact" in sub.centers:
        return sub.centers["exact"]
    adjacency = sub.graph.adjacency
    lo = dict.fromkeys(members, 0)
    hi = dict.fromkeys(members, len(members) - 1)
    best = (len(members), "")  # sorts after every (eccentricity, id) pair
    candidates = set(members)
    low_turn = True
    while candidates:
        if low_turn:
            root = min(candidates, key=lambda u: (lo[u], u))
        else:
            root = min(candidates, key=lambda u: (-hi[u], u))
        low_turn = not low_turn
        layers = bfs(adjacency, root)[1]
        e = len(layers) - 1
        for d, layer in enumerate(layers):
            low, high = max(d, e - d), e + d
            for w in layer:
                if lo[w] < low:
                    lo[w] = low
                if hi[w] > high:
                    hi[w] = high
        for w in candidates:
            if lo[w] == hi[w] and (lo[w], w) < best:
                best = (lo[w], w)
        candidates = {w for w in candidates if lo[w] < hi[w] and (lo[w], w) < best}
    sub.centers["exact"] = result = CenterResult(best[1], best[0])
    return result


def find_center_two_bfs(sub: Subgraph) -> CenterResult:
    """Double-BFS center estimate: exact on acyclic components.

    BFS from the smallest id finds a farthest node, BFS from there finds the
    opposite end; the midpoint of that path is returned as center with half
    the path length (rounded up) as radius. That radius is a lower bound on
    the returned center's eccentricity, and equals it, and the exact radius,
    on a tree. A component of one or two members needs no BFS: the walk ends
    on its last member. On a larger one the result is kept in
    ``sub.centers``, so a repeat call runs no BFS.
    """
    members = sub.members
    if len(members) <= 2:
        return CenterResult(members[-1], len(members) - 1)
    if "two_bfs" in sub.centers:
        return sub.centers["two_bfs"]
    adjacency = sub.graph.adjacency
    vj = min(bfs(adjacency, members[0])[1][-1])  # farthest, smallest id
    parent, layers = bfs(adjacency, vj)
    vk = min(layers[-1])
    diameter = len(layers) - 1
    center = vk  # walk up from vk to depth diameter // 2
    for _ in range(diameter - diameter // 2):
        center = parent[center]
    sub.centers["two_bfs"] = result = CenterResult(center, (diameter + 1) // 2)
    return result


def build_bfs_tree(sub: Subgraph, root: str) -> BfsTree:
    """Layerwise BFS tree from ``root``, a member of ``sub`` (else ValueError);
    the root is never a leaf, so a one-node component has none. The tree is
    kept in ``sub.trees``, so a repeat call returns it, with its path set-ups,
    and runs no BFS; the tree from the root of the component search is that
    search's parent map (``sub.parent``)."""
    tree = sub.trees.get(root)
    if tree is None:
        if root not in sub.members:
            raise ValueError(f"root {root!r} is not a member of the component")
        parent = sub.parent
        if parent is None or next(iter(parent)) != root:
            parent = bfs(sub.graph.adjacency, root)[0]
        inner = set(parent.values())
        leaves = tuple(sorted(u for u in itertools.islice(parent, 1, None) if u not in inner))
        tree = sub.trees[root] = BfsTree(root=root, parent=parent, leaves=leaves, component=sub)
    return tree


# ---------------------------------------------------------------------------
# DPSA: budgeted greedy over BFS-tree paths


def budgeted_greedy(tree: BfsTree, budget_cents: int, flag: str) -> tuple[set[str], int, int]:
    """Grow a connected set from the tree root by whole root-to-leaf paths
    of ``tree.component``, within ``budget_cents``, an ``int`` of cents.

    ``flag`` selects the leaf scoring: ``"ratio"`` maximizes marginal gain
    per incremental path price, ``"coverage"`` maximizes raw marginal gain.
    A selected path is paid only for its nodes not already in the result,
    and a leaf whose path does not fit is passed over: it never fits later.
    Returns ``(selected, coverage, price)``, read from the growth that ran,
    and ``(set(), 0, 0)`` when the root itself exceeds the budget.

    Both flags run :func:`_grow_paths` over the leaves, on the exact scores
    of :class:`_PathGrowth`: ``"ratio"`` as ``gain / dp``, ``"coverage"`` as
    ``gain`` over a unit denominator. Both grow a copy of the tree's path
    set-up, built once per tree and kept with it; a tree of one or two nodes
    needs none (:func:`_small_growth`).
    """
    if flag not in ("ratio", "coverage"):
        raise ValueError(f"flag must be 'ratio' or 'coverage', got {flag!r}")
    if type(budget_cents) is not int:
        raise TypeError(f"budget_cents must be int cents, got {budget_cents!r}")
    graph = tree.component.graph
    if graph.prices[tree.root] > budget_cents:
        return set(), 0, 0
    if len(tree.parent) <= 2:
        return _small_growth(tuple(tree.parent), tree.root, _market_of(graph)._split,
                             graph.prices, budget_cents)
    growth = tree._growth.copy()
    den = growth.dp if flag == "ratio" else [1] * len(growth.dp)
    _grow_paths(growth, budget_cents, growth.gain, den)
    return growth.selected, growth.count, growth.spent


def solve_dpsa(market: Marketplace, budget, delta, center_mode: str = "exact",
               graph: DatasetGraph | None = None) -> Solution:
    """Path-based dual greedy: per connected component of the affordable
    graph, run :func:`budgeted_greedy` under both flags from the component
    center, then keep the best candidate over all components and flags,
    with the coverage and price the greedy returned for it.

    ``center_mode="two_bfs"`` swaps in the double-BFS center estimate.
    """
    if center_mode not in ("exact", "two_bfs"):
        raise ValueError(f"unknown center_mode {center_mode!r}")
    label = "dpsa" if center_mode == "exact" else "dpsa-ba"
    b, candidate = _prepare(market, budget, delta, graph)
    if not candidate.nodes:
        return _empty_solution(label, rounds=(0, 0))
    # every member of the candidate graph fits the budget, so no greedy
    # result is empty; rounds holds the best coverage of each flag
    best, rounds = _NO_CANDIDATE, [0, 0]
    for sub in _components(candidate):
        if center_mode == "exact":
            center = find_center_exact(sub).center
        else:
            center = find_center_two_bfs(sub).center
        tree = build_bfs_tree(sub, center)
        for i, flag in enumerate(("ratio", "coverage")):
            selected, coverage, price = budgeted_greedy(tree, b, flag)
            rounds[i] = max(rounds[i], coverage)
            best = _offer(best, selected, coverage, price)
    return _solution(label, best, rounds=tuple(rounds))


# ---------------------------------------------------------------------------
# CMC baselines


def solve_cmc(market: Marketplace, budget, delta, variant: str = "mg",
              graph: DatasetGraph | None = None) -> Solution:
    """Connected-maximum-coverage baselines.

    Per component the BFS tree is the search from the smallest id that found
    the component (``Subgraph.parent``), and every root-to-node path is a
    candidate; each step selects, among the paths whose incremental price
    still fits, the one maximizing average coverage per path node (``mc``) or
    average marginal gain per path node (``mg``), and never a path already
    selected. Both variants grow a copy of one path set-up per tree, kept
    with it (``BfsTree._node_paths``): ``mg`` by :func:`_grow_paths`, ``mc``,
    whose scores never change, by one pass over ``BfsTree._mc_order``.
    """
    if variant not in ("mc", "mg"):
        raise ValueError(f"unknown cmc variant {variant!r}")
    label = f"cmc-{variant}"
    b, candidate = _prepare(market, budget, delta, graph)
    if not candidate.nodes:
        return _empty_solution(label)
    prices, split = candidate.prices, market._split
    best = _NO_CANDIDATE
    for sub in _components(candidate):
        members = sub.members
        root = members[0]
        if len(members) <= 2:
            best = _offer(best, *_small_growth(members, root, split, prices, b))
            continue
        tree = build_bfs_tree(sub, root)
        setup, depth = tree._node_paths
        growth = setup.copy()
        if variant == "mg":
            _grow_paths(growth, b, growth.gain, depth)
        else:
            _take_in_order(growth, b, tree._mc_order)
        best = _offer(best, growth.selected, growth.count, growth.spent)
    return _solution(label, best)


# ---------------------------------------------------------------------------
# Exact oracle


def _connected_sets(graph: DatasetGraph, budget: int):
    """Yield ``(members, coverage, covered shared cells, price)`` for every
    connected node set of ``graph`` priced at most ``budget`` cents, each set
    exactly once. Every node of ``graph`` must fit the budget on its own, as
    in a candidate graph.

    This is Wernicke's ESU enumeration ("Efficient detection of network
    motifs", IEEE/ACM TCBB 2006): a set grows only from its smallest member
    ``v``, and only by nodes above ``v`` in its extension, which gains just
    the exclusive neighbours of each added node (above ``v`` and adjacent to
    no earlier member). A node that would overrun the budget is never added:
    prices are non-negative, so every set containing it is over budget too.
    """
    adj, prices = graph.adjacency, graph.prices
    solo, shared = graph.market._split
    for v in graph.nodes:
        stack = [([v], {v, *adj[v]}, [u for u in adj[v] if u > v], solo[v], shared[v],
                  prices[v])]
        while stack:
            members, seen, extension, count, covered, price = stack.pop()
            yield members, count + len(covered), covered, price
            for i, w in enumerate(extension):
                p = price + prices[w]
                if p <= budget:
                    fresh = [u for u in adj[w] if u > v and u not in seen]
                    stack.append((members + [w], seen.union(adj[w]), extension[i + 1:] + fresh,
                                  count + solo[w], covered | shared[w], p))


def solve_exact(market: Marketplace, budget, delta, cap: int = ORACLE_CAP,
                graph: DatasetGraph | None = None) -> Solution:
    """Exhaustive search over the connected, budget-feasible sets of the
    candidate graph, each enumerated once (:func:`_connected_sets`); ties
    prefer lower total price, then lexicographically smaller id tuples.
    Refuses catalogs larger than ``cap``."""
    b, candidate = _prepare(market, budget, delta, graph, cap)
    if not candidate.nodes:
        return _empty_solution("exact")
    best = (0, 0, ())  # the key of the empty set
    for members, coverage, _, price in _connected_sets(candidate, b):
        best = _offer(best, members, coverage, price)
    return _solution("exact", best)


# ---------------------------------------------------------------------------
# Verification and the coverage-problem reduction


def verify_solution(graph: DatasetGraph, solution: Solution, budget) -> VerificationReport:
    """Recompute price, connectivity and coverage (the distinct cells of the
    selected datasets' rows, read by ``market.dataset``) of a solution from scratch.
    An id the graph lacks, one selected twice or a graph with no catalog is refused."""
    for did, times in collections.Counter(solution.selected).items():
        if did not in graph.adjacency:
            raise UnknownDatasetError(did)
        if times > 1:
            raise MarketplaceError(f"solution selects dataset {did!r} {times} times")
    b = to_cents(budget)
    price = sum(graph.prices[d] for d in solution.selected)
    chosen = graph.restricted(solution.selected)
    if len(solution.selected) <= 1:
        connected = True
    else:
        reached, _ = bfs(chosen.adjacency, solution.selected[0])
        connected = len(reached) == len(solution.selected)
    market = _market_of(graph)
    cells = np.sort(np.concatenate(
        [market.cells[:0], *(market.dataset(d).cells for d in solution.selected)]))
    coverage = int(cells.size - np.count_nonzero(cells[1:] == cells[:-1]))
    return VerificationReport(
        within_budget=price <= b,
        connected=connected,
        recomputed_price_cents=price,
        recomputed_coverage=coverage,
        price_matches=price == solution.total_price_cents,
        coverage_matches=coverage == solution.coverage,
    )


def complete_graph_delta(grid: GridConfig) -> float:
    """Threshold guaranteeing a complete dataset graph: the grid diagonal."""
    return grid.side * math.sqrt(2.0)


def make_reduction_instance(universe_size: int, sets) -> Marketplace:
    """Encode a maximum-coverage instance as a unit-price marketplace.

    Element ``k`` of the universe becomes the cell with id ``k`` on the
    smallest grid that fits; every set becomes one dataset priced 1. Solving
    with ``delta = complete_graph_delta(market.grid)`` (which makes the graph
    complete) and budget ``k`` answers the original max ``k``-coverage
    question.
    """
    if universe_size < 1:
        raise CellRangeError("universe must contain at least one element")
    theta = 1
    while (1 << (2 * theta)) < universe_size:
        theta += 1
    grid = GridConfig(theta=theta)
    width = len(str(max(1, len(sets) - 1)))
    datasets = []
    table = {}
    for i, elements in enumerate(sets):
        elements = list(elements)
        if not elements:
            raise CellRangeError(f"set {i} is empty")
        cells = _exact_integers(elements)
        if cells is None:
            raise GridError(f"set {i} has non-integer elements")
        cells = np.unique(cells)
        if cells[0] < 0 or cells[-1] >= universe_size:
            raise CellRangeError(
                f"set {i} has elements outside the universe [0, {universe_size})")
        did = f"s{i:0{width}d}"
        datasets.append(CellBasedDataset(id=did, cells=cells, grid=grid))
        table[did] = 1
    return Marketplace.build(grid, datasets, PricingFunction.from_table(table))


def solve(label: str, market: Marketplace, budget, delta,
          graph: DatasetGraph | None = None, oracle_cap: int = ORACLE_CAP) -> Solution:
    """Dispatch on a solver label (see :data:`SOLVER_LABELS`)."""
    if label == "dsa":
        return solve_dsa(market, budget, delta, graph=graph)
    if label == "dpsa":
        return solve_dpsa(market, budget, delta, center_mode="exact", graph=graph)
    if label == "dpsa-ba":
        return solve_dpsa(market, budget, delta, center_mode="two_bfs", graph=graph)
    if label == "cmc-mc":
        return solve_cmc(market, budget, delta, variant="mc", graph=graph)
    if label == "cmc-mg":
        return solve_cmc(market, budget, delta, variant="mg", graph=graph)
    if label == "exact":
        return solve_exact(market, budget, delta, cap=oracle_cap, graph=graph)
    raise ValueError(f"unknown solver label {label!r}")
