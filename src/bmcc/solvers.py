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
  component rather than one per node.
* ``cmc-mc`` / ``cmc-mg`` -- baselines that grow root-to-node paths by
  average coverage / average marginal gain per path node.
* ``exact`` -- exhaustive oracle for small catalogs: it enumerates every
  connected, budget-feasible set of the candidate graph exactly once (ESU),
  with no table over all 2^n subsets.

Every tie among equal-scoring candidates breaks toward the smallest id, so
all solvers are deterministic functions of their inputs.

Each solve works on a candidate graph, the datasets priced within the budget.
When every dataset fits, it shares the query graph's adjacency and prices
rather than copying them, but it is a new object, so the cell sets it builds
die with the solve. A component of one or two members has a closed form
in :func:`budgeted_greedy` and ``cmc``, with no path set-up: every path
greedy grown from its root takes the other member exactly when the two
prices fit together. Its double-BFS center and BFS tree take no BFS. In ``dsa`` and ``cmc`` a candidate's coverage and
price come from the state that grew it; ``dpsa`` counts them on the set that
:func:`budgeted_greedy` returns. A candidate's ids are sorted only if it can
win (:func:`_offer`).

The greedy loops avoid rescoring every candidate at every step, and still
return exactly what a full rescan would:

* Where a score can only fall -- both ``dsa`` passes and the coverage pass
  of :func:`budgeted_greedy` -- gains are lazy (Minoux's accelerated greedy,
  also known as CELF): a heap keyed by (-score, id) holds stale upper
  bounds, and only its top entry is rescored before being examined. The
  ``dsa`` ratio pass keys by the float quotient gain / price, which is
  correctly rounded and so never inverts two exact ratios; only equal floats
  are compared exactly, by integer cross-multiplication.
* Where the incremental path price ``dp`` falls too -- the ratio pass of
  :func:`budgeted_greedy` and both ``cmc`` variants -- a lazy bound is not
  valid, since a taken path makes every path sharing its nodes cheaper and
  its ratio can rise. There each candidate's gain and ``dp`` are kept exact
  by inverted indexes (cell -> nodes, node -> paths through it), so taking a
  path touches only what it newly covers or pays for. Initial gains and
  prices are running sums in parent order, O(n) per tree, and the set-up is
  built once per :class:`BfsTree`: both flags of :func:`budgeted_greedy`
  grow a copy of it.
"""

import collections
import heapq
import itertools
import math
from dataclasses import dataclass, field
from decimal import Decimal
from functools import cached_property

import numpy as np

from .graph import (
    DatasetGraph,
    GraphConfigError,
    Subgraph,
    bfs,
    build_graph_indexed,
    check_delta,
    connected_components,
)
from .grid import CellRangeError, GridConfig, CellBasedDataset
from .marketplace import (
    Marketplace,
    PricingFunction,
    UnknownDatasetError,
    cents_to_decimal,
    to_cents,
)

STATUS_OK = "ok"
STATUS_BELOW_MINIMUM = "budget_below_minimum"

SOLVER_LABELS = ("dsa", "dpsa", "dpsa-ba", "cmc-mc", "cmc-mg", "exact")


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
    """BFS tree of one component, with the root-to-leaf path of every leaf.

    ``parent`` lists the nodes in visit order; ``paths[leaf]`` lists the path
    nodes root excluded, ending at the leaf. ``tree_depth`` equals the root's
    eccentricity within the component. The path set-up that both flags of
    :func:`budgeted_greedy` start from is built from ``component`` once, on
    first use; a tree without leaves needs none.
    """

    root: str
    parent: dict[str, str | None]
    leaves: tuple[str, ...]
    paths: dict[str, tuple[str, ...]]
    tree_depth: int
    component: Subgraph = field(repr=False, compare=False)

    @cached_property
    def _growth(self) -> "_PathGrowth":
        graph = self.component.graph
        return _PathGrowth(self.parent, graph.cells, graph.prices, self.paths)


@dataclass(frozen=True)
class CenterResult:
    """Exact center and radius of one component.

    ``eccentricities`` maps every member to its eccentricity. It costs one
    BFS per member, so it is computed from ``component`` only when read.
    """

    center: str
    radius: int
    component: Subgraph = field(repr=False, compare=False)

    @cached_property
    def eccentricities(self) -> dict[str, int]:
        adjacency = self.component.graph.adjacency
        return {u: len(bfs(adjacency, u)[1]) - 1 for u in self.component.members}


@dataclass(frozen=True)
class TwoBfsResult:
    center: str
    radius: int
    diameter: int


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


def _prepare(market, budget, delta, graph):
    """Common front matter: the budget in cents and the candidate graph, the
    graph induced by the datasets priced within the budget.

    When every dataset fits, the candidate graph shares the query graph's
    adjacency and prices instead of copying them. It is still a new graph
    object, so the ``cells`` it builds are dropped with the solve and never
    cached on the caller's long-lived graph.
    """
    b = to_cents(budget)
    if b < 0:
        raise ValueError("budget must be non-negative")
    if graph is None:
        graph = build_graph_indexed(market, delta)
    else:
        if graph.market is not market:
            raise GraphConfigError("graph was built over a different marketplace")
        check_delta(delta)
        if graph.delta != float(delta):
            raise GraphConfigError(
                f"graph was built at delta={graph.delta}, solve requested {delta}")
    if max(graph.prices.values(), default=0) <= b:
        return b, DatasetGraph(graph.delta, graph.prices, graph.adjacency, graph.market)
    return b, graph.restricted(did for did, price in graph.prices.items() if price <= b)


def _empty_solution(algorithm, status=STATUS_BELOW_MINIMUM, rounds=None):
    return Solution(algorithm=algorithm, selected=(), total_price_cents=0,
                    coverage=0, status=status, round_coverages=rounds)


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


def _measure(selected, cells_map, prices):
    """``(selected, coverage, price)`` of the node set ``selected``."""
    covered = frozenset().union(*map(cells_map.get, selected))
    return selected, len(covered), sum(map(prices.get, selected))


def _small_growth(members, root, prices, b):
    """What every path greedy grown from ``root`` selects on a component of
    one or two members, whose root fits ``b``: the root, and the other
    member, the one leaf, if the two prices fit ``b`` together."""
    if len(members) == 2 and prices[members[0]] + prices[members[1]] <= b:
        return members
    return (root,)


# ---------------------------------------------------------------------------
# Greedy engine shared by the solvers


def _lazy_argmax(entries, rescore):
    """Yield candidate ids best first, rescoring only the top of a heap.

    ``entries`` holds one ``(key, id)`` pair per candidate, a smaller key
    being better; ``rescore(id)`` returns the key under the caller's current
    state. Between two yields the caller may change that state, but only so
    that no key decreases (a marginal gain that can only fall). A stale key is
    then a lower bound on the fresh one, so a popped candidate whose fresh key
    still sorts at or before the heap top is the exact best remaining one:
    Minoux's accelerated greedy. Ids are the second tuple element, so equal
    scores yield the smallest id first, exactly as a full scan in id order.
    """
    heap = list(entries)
    heapq.heapify(heap)
    while heap:
        cid = heapq.heappop(heap)[1]
        fresh = (rescore(cid), cid)
        if not heap or fresh <= heap[0]:
            yield cid
        else:
            heapq.heappush(heap, fresh)


class _RatioKey:
    """Heap key of the ratio ``gain / price`` (``price > 0``): a larger ratio
    sorts first, as ``-Fraction(gain, price)`` would, without building one.

    Keys compare by the float quotient first. CPython rounds int / int true
    division correctly, so the quotient is monotone in the exact ratio: two
    unequal floats order as the exact ratios do. Only equal floats -- common,
    since usage pricing makes every initial ratio equal -- are compared
    exactly, by integer cross-multiplication.
    """

    __slots__ = ("q", "gain", "price")

    def __init__(self, gain, price):
        self.q = gain / price
        self.gain = gain
        self.price = price

    def __eq__(self, other):
        return self.q == other.q and self.gain * other.price == other.gain * self.price

    def __lt__(self, other):
        if self.q != other.q:
            return self.q > other.q
        return self.gain * other.price > other.gain * self.price

    def __le__(self, other):
        return not other < self


class _PathGrowth:
    """A connected set grown from a BFS-tree root by whole candidate paths.

    ``parent`` maps every tree node to its parent (the root to ``None``) in
    BFS order; ``paths[k]`` lists the nodes of candidate ``k`` from below the
    root down to node ``k`` itself. The exact marginal gain ``gain[k]`` (cells
    not yet covered) and incremental price ``dp[k]`` (price of nodes not yet
    selected) of every candidate are kept up to date, so a step costs only
    what it touches:

    * a node's *new cells* are those that neither the root nor any ancestor
      holds. Along one path they partition its cells outside the root, so a
      path's initial gain is the running sum of new-cell counts down to its
      end node, and its initial ``dp`` the running sum of prices: one pass in
      parent order for all candidates. It also carries the shared cells (of
      two or more nodes) at or above each node, so it never walks up the tree;
    * node -> candidates through it is built once, and so is cell -> nodes
      for the shared cells new below the root; taking a path lowers the
      count of each node whose new cells it covers, and the gain and price of
      every candidate below that node.

    The indexes are read-only after set-up, so :meth:`copy` starts another
    growth from the same state without rebuilding them.
    """

    def __init__(self, parent, cells_map, prices, paths):
        root = next(iter(parent))
        self.prices = prices
        self.paths = paths
        self.selected = {root}
        self.spent = prices[root]
        self.covered = set(cells_map[root])
        # Cells held by one node are new there; a shared cell is new at each
        # holder with no holder above it, and at none if the root holds it.
        seen, shared = set(), set()
        for v in parent:
            shared |= seen & cells_map[v]
            seen |= cells_map[v]
        self._shared = shared
        self._holders = holders = {}
        self._new_cells = new_cells = {}
        # (node, shared cells held at or above it, gain and dp down to it),
        # dropped once the node's children are done: parents come in BFS order
        above = collections.deque([(root, cells_map[root] & shared, 0, 0)])
        self.gain, self.dp = {}, {}
        for v, u in itertools.islice(parent.items(), 1, None):
            while above[0][0] != u:
                above.popleft()
            _, held, gain, dp = above[0]
            cells = cells_map[v]
            mine = cells & shared
            if mine:
                for c in mine - held:
                    holders.setdefault(c, []).append(v)
                cells = cells - held
                held = held | mine
            new_cells[v] = cells
            gain, dp = gain + len(cells), dp + prices[v]
            above.append((v, held, gain, dp))
            if v in paths:
                self.gain[v], self.dp[v] = gain, dp
        self._below = below = {}
        for k, nodes in paths.items():
            for u in nodes:
                below.setdefault(u, []).append(k)

    def copy(self):
        """A growth in this one's state, sharing its read-only indexes."""
        other = object.__new__(_PathGrowth)
        vars(other).update(vars(self))
        other.gain, other.dp = dict(self.gain), dict(self.dp)
        other.selected, other.covered = set(self.selected), set(self.covered)
        return other

    def take(self, k):
        """Add path ``k`` to the set and pay its incremental price."""
        gain, dp, covered, below = self.gain, self.dp, self.covered, self._below
        self.spent += dp[k]
        lost = {}
        for u in self.paths[k]:
            if u in self.selected:
                continue
            self.selected.add(u)
            price = self.prices[u]
            for j in below[u]:
                dp[j] -= price
            fresh = self._new_cells[u] - covered
            if not fresh:
                continue
            covered |= fresh
            lost[u] = lost.get(u, 0) + len(fresh)
            for c in fresh & self._shared:
                for h in self._holders[c]:
                    if h != u:
                        lost[h] = lost.get(h, 0) + 1
        for h, n in lost.items():
            for j in below[h]:
                gain[j] -= n


def _root_paths(parent):
    """Path of every non-root node of a BFS parent map (root first, in visit
    order): its nodes from below the root down to it."""
    root = next(iter(parent))
    paths = {root: ()}
    for v, u in itertools.islice(parent.items(), 1, None):
        paths[v] = paths[u] + (v,)
    del paths[root]
    return paths


# ---------------------------------------------------------------------------
# DSA: dual greedy over individual datasets


def solve_dsa(market: Marketplace, budget, delta, graph: DatasetGraph | None = None) -> Solution:
    """Two-pass greedy: gain-per-price pass, raw-gain pass, best of the two.

    Each pass examines candidates in score order; an examined dataset is
    dropped from the pass's pool whether or not it was accepted, and a
    candidate is acceptable only if it keeps the growing set connected and
    within budget. Gains only fall as cells get covered, so both passes run
    on :func:`_lazy_argmax`.
    """
    b, candidate = _prepare(market, budget, delta, graph)
    if not candidate.nodes:
        return _empty_solution("dsa", rounds=(0, 0))
    adjacency, cells_map, prices = candidate.adjacency, candidate.cells, candidate.prices

    def one_round(ratio_based: bool) -> tuple[set[str], int, int]:
        covered: set[int] = set()
        selected: set[str] = set()
        frontier: set[str] = set()
        spent = 0

        def rescore(did):
            gain = len(cells_map[did].difference(covered))
            return _RatioKey(gain, prices[did]) if ratio_based else -gain

        for did in _lazy_argmax([(rescore(d), d) for d in adjacency], rescore):
            if selected and did not in frontier:
                continue
            if spent + prices[did] > b:
                continue
            selected.add(did)
            spent += prices[did]
            covered.update(cells_map[did])
            frontier.update(adjacency[did])
        return selected, len(covered), spent

    first = one_round(ratio_based=True)
    second = one_round(ratio_based=False)
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
    runs does. Components of one or two members need no BFS.
    """
    members = sub.members
    if len(members) <= 2:
        return CenterResult(members[0], len(members) - 1, sub)
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
    return CenterResult(best[1], best[0], sub)


def find_center_two_bfs(sub: Subgraph) -> TwoBfsResult:
    """Double-BFS center estimate: exact on acyclic components.

    BFS from the smallest id finds a farthest node, BFS from there finds the
    opposite end; the midpoint of that path is returned as center with half
    the path length (rounded up) as radius. A component of one or two
    members needs no BFS: the walk ends on its last member.
    """
    members = sub.members
    if len(members) <= 2:
        return TwoBfsResult(center=members[-1], radius=len(members) - 1,
                            diameter=len(members) - 1)
    adjacency = sub.graph.adjacency
    vj = min(bfs(adjacency, members[0])[1][-1])  # farthest, smallest id
    parent, layers = bfs(adjacency, vj)
    vk = min(layers[-1])
    diameter = len(layers) - 1
    center = vk  # walk up from vk to depth diameter // 2
    for _ in range(diameter - diameter // 2):
        center = parent[center]
    return TwoBfsResult(center=center, radius=(diameter + 1) // 2, diameter=diameter)


def build_bfs_tree(sub: Subgraph, root: str) -> BfsTree:
    """Layerwise BFS tree from ``root`` with the path of every leaf; the root
    is never a leaf, so a one-node component has none."""
    if len(sub.members) <= 2:  # no BFS: the other member is the one leaf
        leaves = tuple(u for u in sub.members if u != root)
        return BfsTree(root=root, parent={root: None, **dict.fromkeys(leaves, root)},
                       leaves=leaves, paths={leaf: (leaf,) for leaf in leaves},
                       tree_depth=len(leaves), component=sub)
    parent, layers = bfs(sub.graph.adjacency, root)
    inner = set(parent.values())
    leaves = tuple(sorted(u for u in itertools.islice(parent, 1, None) if u not in inner))
    to_node = _root_paths(parent)
    return BfsTree(root=root, parent=parent, leaves=leaves,
                   paths={leaf: to_node[leaf] for leaf in leaves},
                   tree_depth=len(layers) - 1, component=sub)


# ---------------------------------------------------------------------------
# DPSA: budgeted greedy over BFS-tree paths


def _ratio_order(leaves, gain, dp):
    """Yield leaves by exact marginal gain per incremental price over the live
    scores, zero-price paths first by gain, each chosen only after the caller
    has acted on the previous one. Each step scans the pool in ascending id
    and keeps the first of equal leaves, so ties break to the smallest id."""
    pool = sorted(leaves)
    while pool:
        at, bg, bd = 0, gain[pool[0]], dp[pool[0]]
        for i, k in enumerate(pool):
            g, d = gain[k], dp[k]
            if (g * bd > bg * d) if d and bd else (d == 0 and (bd != 0 or g > bg)):
                at, bg, bd = i, g, d
        yield pool.pop(at)


def budgeted_greedy(sub: Subgraph, tree: BfsTree, budget, flag: str) -> set[str]:
    """Grow a connected set from the tree root by whole root-to-leaf paths.

    ``flag`` selects the leaf scoring: ``"ratio"`` maximizes marginal gain
    per incremental path price, ``"coverage"`` maximizes raw marginal gain.
    A selected path is paid only for its nodes not already in the result; the
    examined leaf leaves the candidate pool whether or not its path fit.
    Returns the empty set when the root itself exceeds the budget.

    Raw gains only fall, so the coverage pass is lazy (:func:`_lazy_argmax`).
    The ratio pass cannot be: a taken path also lowers the incremental price
    of every path sharing its nodes, which can raise their ratios. It scans
    the exact scores that :class:`_PathGrowth` keeps up to date instead.
    Both flags start from a copy of the tree's path set-up, which is built
    from ``tree.component`` (the ``sub`` it was built on) once per tree. A
    tree of one or two nodes needs none: it returns its root, plus the other
    node if the two prices fit together (:func:`_small_growth`).
    """
    if flag not in ("ratio", "coverage"):
        raise ValueError(f"flag must be 'ratio' or 'coverage', got {flag!r}")
    b = to_cents(budget)
    prices = sub.graph.prices
    if prices[tree.root] > b:
        return set()
    if len(tree.parent) <= 2:
        return set(_small_growth(tuple(tree.parent), tree.root, prices, b))
    growth = tree._growth.copy()
    gain, dp = growth.gain, growth.dp
    if flag == "coverage":
        order = _lazy_argmax([(-gain[leaf], leaf) for leaf in tree.leaves],
                             lambda leaf: -gain[leaf])
    else:
        order = _ratio_order(tree.leaves, gain, dp)
    remaining = set(tree.leaves)
    for leaf in order:
        remaining.discard(leaf)
        if growth.spent + dp[leaf] <= b:
            growth.take(leaf)
            # only a take lowers a price: once none fits, none ever will
            room = b - growth.spent
            if all(dp[k] > room for k in remaining):
                break
    return growth.selected


def solve_dpsa(market: Marketplace, budget, delta, center_mode: str = "exact",
               graph: DatasetGraph | None = None) -> Solution:
    """Path-based dual greedy: per connected component of the affordable
    graph, run :func:`budgeted_greedy` under both flags from the component
    center, then keep the best candidate over all components and flags.

    ``center_mode="two_bfs"`` swaps in the double-BFS center estimate.
    """
    if center_mode not in ("exact", "two_bfs"):
        raise ValueError(f"unknown center_mode {center_mode!r}")
    label = "dpsa" if center_mode == "exact" else "dpsa-ba"
    b, candidate = _prepare(market, budget, delta, graph)
    if not candidate.nodes:
        return _empty_solution(label, rounds=(0, 0))
    cells_map, prices = candidate.cells, candidate.prices
    # every member of the candidate graph fits the budget, so no greedy
    # result is empty; rounds holds the best coverage of each flag
    best, rounds = _NO_CANDIDATE, [0, 0]
    for sub in connected_components(candidate):
        if center_mode == "exact":
            center = find_center_exact(sub).center
        else:
            center = find_center_two_bfs(sub).center
        tree = build_bfs_tree(sub, center)
        for i, flag in enumerate(("ratio", "coverage")):
            grown = budgeted_greedy(sub, tree, budget, flag)
            selected, coverage, price = _measure(grown, cells_map, prices)
            rounds[i] = max(rounds[i], coverage)
            best = _offer(best, selected, coverage, price)
    return _solution(label, best, rounds=tuple(rounds))


# ---------------------------------------------------------------------------
# CMC baselines


def solve_cmc(market: Marketplace, budget, delta, variant: str = "mg",
              graph: DatasetGraph | None = None) -> Solution:
    """Connected-maximum-coverage baselines.

    Per component the BFS tree is rooted at the smallest id and every
    root-to-node path is a candidate; each step selects, among the paths
    whose incremental price still fits, the one maximizing average coverage
    per path node (``mc``) or average marginal gain per path node (``mg``).
    """
    if variant not in ("mc", "mg"):
        raise ValueError(f"unknown cmc variant {variant!r}")
    label = f"cmc-{variant}"
    b, candidate = _prepare(market, budget, delta, graph)
    if not candidate.nodes:
        return _empty_solution(label)
    prices, cells_map = candidate.prices, candidate.cells
    best = _NO_CANDIDATE
    for sub in connected_components(candidate):
        members = sub.members
        root = members[0]
        if len(members) <= 2:
            selected = _small_growth(members, root, prices, b)
            best = _offer(best, *_measure(selected, cells_map, prices))
            continue
        parent, _ = bfs(candidate.adjacency, root)
        paths = _root_paths(parent)
        growth = _PathGrowth(parent, cells_map, prices, paths)
        dp = growth.dp
        if variant == "mg":
            nums = growth.gain
        else:
            path_cells = {root: frozenset()}
            for v, u in itertools.islice(parent.items(), 1, None):
                path_cells[v] = path_cells[u] | cells_map[v]
            nums = {u: len(path_cells[u]) for u in paths}
        pool = dict.fromkeys(sorted(paths))
        while pool:
            room = b - growth.spent
            pick, best_num, best_n = None, 0, 1
            for u in pool:
                if dp[u] > room:
                    continue
                num, n_nodes = nums[u], len(paths[u])
                if pick is None or num * best_n > best_num * n_nodes:
                    pick, best_num, best_n = u, num, n_nodes
            if pick is None:
                break
            growth.take(pick)
            del pool[pick]
        best = _offer(best, growth.selected, len(growth.covered), growth.spent)
    return _solution(label, best)


# ---------------------------------------------------------------------------
# Exact oracle


def _connected_sets(graph: DatasetGraph, budget: int):
    """Yield ``(members, covered cells, price)`` for every connected node set
    of ``graph`` priced at most ``budget`` cents, each set exactly once. Every
    node of ``graph`` must fit the budget on its own, as in a candidate graph.

    This is Wernicke's ESU enumeration ("Efficient detection of network
    motifs", IEEE/ACM TCBB 2006): a set grows only from its smallest member
    ``v``, and only by nodes above ``v`` in its extension, which gains just
    the exclusive neighbours of each added node (above ``v`` and adjacent to
    no earlier member). A node that would overrun the budget is never added:
    prices are non-negative, so every set containing it is over budget too.
    """
    adj, prices, cells = graph.adjacency, graph.prices, graph.cells
    for v in graph.nodes:
        stack = [([v], {v, *adj[v]}, [u for u in adj[v] if u > v], cells[v], prices[v])]
        while stack:
            members, seen, extension, covered, price = stack.pop()
            yield members, covered, price
            for i, w in enumerate(extension):
                p = price + prices[w]
                if p <= budget:
                    fresh = [u for u in adj[w] if u > v and u not in seen]
                    stack.append((members + [w], seen.union(adj[w]),
                                  extension[i + 1:] + fresh, covered | cells[w], p))


def solve_exact(market: Marketplace, budget, delta, cap: int = 15,
                graph: DatasetGraph | None = None) -> Solution:
    """Exhaustive search over the connected, budget-feasible sets of the
    candidate graph, each enumerated once (:func:`_connected_sets`); ties
    prefer lower total price, then lexicographically smaller id tuples.
    Refuses catalogs larger than ``cap``."""
    if len(market) > cap:
        raise OracleCapError(
            f"exact oracle capped at {cap} datasets, catalog has {len(market)}")
    b, candidate = _prepare(market, budget, delta, graph)
    if not candidate.nodes:
        return _empty_solution("exact")
    best = (0, 0, ())  # the key of the empty set
    for members, covered, price in _connected_sets(candidate, b):
        best = _offer(best, members, len(covered), price)
    return _solution("exact", best)


# ---------------------------------------------------------------------------
# Verification and the coverage-problem reduction


def verify_solution(graph: DatasetGraph, solution: Solution, budget) -> VerificationReport:
    """Recompute price, connectivity and coverage of a solution from scratch."""
    for did in solution.selected:
        if did not in graph.adjacency:
            raise UnknownDatasetError(did)
    b = to_cents(budget)
    price = sum(graph.prices[d] for d in solution.selected)
    chosen = graph.restricted(solution.selected)
    if len(solution.selected) <= 1:
        connected = True
    else:
        reached, _ = bfs(chosen.adjacency, solution.selected[0])
        connected = len(reached) == len(solution.selected)
    coverage = len(frozenset().union(*chosen.cells.values()))
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
        cells = sorted(set(int(e) for e in elements))
        if not cells:
            raise CellRangeError(f"set {i} is empty")
        if cells[0] < 0 or cells[-1] >= universe_size:
            raise CellRangeError(
                f"set {i} has elements outside the universe [0, {universe_size})")
        did = f"s{i:0{width}d}"
        datasets.append(CellBasedDataset(id=did, cells=np.array(cells, dtype=np.int64),
                                         grid=grid))
        table[did] = 1
    return Marketplace.build(grid, datasets, PricingFunction.from_table(table))


def solve(label: str, market: Marketplace, budget, delta,
          graph: DatasetGraph | None = None, oracle_cap: int = 15) -> Solution:
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
