"""The full-scan greedy loops, the hand-written BFS loops and the bitmask
exact oracle that the solvers replaced, kept verbatim as a differential
oracle.

Every greedy step here rescores every remaining candidate from scratch
against the uncovered universe, so these functions are slow but obviously
faithful to the selection rules. ``test_solvers_differential.py`` checks that
the solvers in :mod:`bmcc.solvers` return exactly the same selections,
``test_bfs_differential.py`` that components, centers and BFS trees built on
:func:`bmcc.graph.bfs` match the loops below, ``test_center_differential.py``
that the bounded exact center matches the one-BFS-per-node
:func:`find_center_exact` below, and ``test_exact_differential.py`` that the
connected-set oracle returns the same solutions as :func:`solve_exact` below,
which walks all 2^n subsets of the affordable datasets (its edits: it calls
the live ``_prepare``, as this module has its own, and reads cells with
:func:`_cells_map`). The reference solvers price every dataset from
``graph.prices``, as the live ones do, so a graph may price a dataset at
zero; ``solve_dsa``'s ratio pass then ranks free datasets first, by higher
gain (those two are edits). They use these BFS loops, not the live
ones, and their own copies of the per-solve cell helpers that the solvers
replaced, of the ``CenterResult`` that stored every eccentricity, and of the
double-BFS result that stored the diameter."""

import collections
from dataclasses import dataclass, field

from bmcc.graph import DatasetGraph, GraphConfigError, Subgraph, build_graph_indexed
from bmcc.marketplace import Marketplace, to_cents
from bmcc import solvers as live
from bmcc.solvers import (
    STATUS_OK,
    OracleCapError,
    Solution,
    _empty_solution,
    _solution,
)


def _cells_map(market, ids):
    return {did: frozenset(market.dataset(did).cells.tolist()) for did in ids}


def covered_cells(market, ids):
    """The cells the datasets ``ids`` cover, read from their market slices."""
    return frozenset().union(*_cells_map(market, ids).values())


def shared_cells(market):
    """The cells that two or more datasets of ``market`` hold."""
    held = collections.Counter(c for did in market.ids for c in market.dataset(did).cells.tolist())
    return frozenset(c for c, n in held.items() if n > 1)


def _union_len(cells_map, ids):
    if not ids:
        return 0
    return len(frozenset().union(*(cells_map[d] for d in ids)))


def _prepare(market, budget, delta, graph):
    """Common front matter: budget in cents, ids the graph prices within it,
    candidate graph."""
    b = to_cents(budget)
    if b < 0:
        raise ValueError("budget must be non-negative")
    if graph is None:
        graph = build_graph_indexed(market, delta)
    else:
        if graph.market is not market:
            raise GraphConfigError("graph was built over a different marketplace")
        if graph.delta != float(delta):
            raise GraphConfigError(
                f"graph was built at delta={graph.delta}, solve requested {delta}")
    afford = sorted(did for did in market.ids if graph.prices[did] <= b)
    return b, afford, graph


def _solution_from_ids(algorithm, prices, ids, cells_map, rounds=None):
    selected = tuple(sorted(ids))
    return Solution(
        algorithm=algorithm,
        selected=selected,
        total_price_cents=sum(prices[d] for d in selected),
        coverage=_union_len(cells_map, selected),
        status=STATUS_OK,
        round_coverages=rounds,
    )


def _candidate_order_key(prices, cells_map, ids):
    """Total order on candidate node sets: coverage desc, price asc, ids."""
    sel = tuple(sorted(ids))
    price = sum(prices[d] for d in sel)
    return (-_union_len(cells_map, sel), price, sel)


def connected_components(graph: DatasetGraph) -> list[Subgraph]:
    """Maximal components via BFS; components ordered by smallest member id,
    neighbors visited in ascending id within each BFS."""
    seen = set()
    components = []
    for root in graph.nodes:
        if root in seen:
            continue
        seen.add(root)
        queue = [root]
        head = 0
        while head < len(queue):
            u = queue[head]
            head += 1
            for v in graph.adjacency[u]:
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
        components.append(Subgraph(members=tuple(sorted(queue)), graph=graph))
    return components


@dataclass(frozen=True)
class CenterResult:
    center: str
    radius: int
    eccentricities: dict[str, int]


@dataclass(frozen=True)
class TwoBfsResult:
    center: str
    radius: int
    diameter: int


@dataclass(frozen=True)
class BfsTree:
    """BFS tree of one component, with per-leaf root-to-leaf path summaries.

    ``paths[leaf]`` lists the path nodes root excluded, ending at the leaf;
    ``path_cells`` / ``path_price_cents`` aggregate the datasets on the path.
    """

    root: str
    parent: dict[str, str | None]
    depth: dict[str, int]
    leaves: tuple[str, ...]
    paths: dict[str, tuple[str, ...]]
    path_cells: dict[str, frozenset[int]]
    path_price_cents: dict[str, int]


def _bfs_depths(adjacency, root):
    depth = {root: 0}
    queue = [root]
    head = 0
    while head < len(queue):
        u = queue[head]
        head += 1
        for v in adjacency[u]:
            if v not in depth:
                depth[v] = depth[u] + 1
                queue.append(v)
    return depth


def _farthest(depth_map):
    """Deepest node, smallest id on ties."""
    best, best_d = None, -1
    for node in sorted(depth_map):
        d = depth_map[node]
        if d > best_d:
            best, best_d = node, d
    return best, best_d


def find_center_exact(sub: Subgraph) -> CenterResult:
    """Run BFS from every node; the center has minimum eccentricity
    (smallest id on ties), the radius is that eccentricity."""
    adjacency = {u: sub.graph.adjacency[u] for u in sub.members}
    eccentricities = {}
    for node in sub.members:
        depth = _bfs_depths(adjacency, node)
        eccentricities[node] = max(depth.values())
    center = min(sub.members, key=lambda u: (eccentricities[u], u))
    return CenterResult(center=center, radius=eccentricities[center],
                        eccentricities=eccentricities)


def find_center_two_bfs(sub: Subgraph) -> TwoBfsResult:
    """Double-BFS center estimate: exact on acyclic components.

    BFS from the smallest id finds a farthest node, BFS from there finds the
    opposite end; the midpoint of that path is returned as center with half
    the path length (rounded up) as radius.
    """
    adjacency = {u: sub.graph.adjacency[u] for u in sub.members}
    start = sub.members[0]
    vj, _ = _farthest(_bfs_depths(adjacency, start))
    depth = {vj: 0}
    parent = {vj: None}
    queue = [vj]
    head = 0
    while head < len(queue):
        u = queue[head]
        head += 1
        for v in adjacency[u]:
            if v not in depth:
                depth[v] = depth[u] + 1
                parent[v] = u
                queue.append(v)
    vk, diameter = _farthest(depth)
    path = [vk]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    path.reverse()  # vj .. vk
    center = path[diameter // 2]
    return TwoBfsResult(center=center, radius=(diameter + 1) // 2, diameter=diameter)


def build_bfs_tree(sub: Subgraph, root: str) -> BfsTree:
    """Layerwise BFS tree from ``root`` with per-leaf path aggregates."""
    market = sub.graph.market
    adjacency = {u: sub.graph.adjacency[u] for u in sub.members}
    parent: dict[str, str | None] = {root: None}
    depth = {root: 0}
    children = {u: [] for u in sub.members}
    queue = [root]
    head = 0
    while head < len(queue):
        u = queue[head]
        head += 1
        for v in adjacency[u]:
            if v not in depth:
                depth[v] = depth[u] + 1
                parent[v] = u
                children[u].append(v)
                queue.append(v)
    leaves = tuple(sorted(u for u in sub.members if not children[u] and u != root))
    cells_map = _cells_map(market, sub.members)
    paths = {}
    path_cells = {}
    path_price = {}
    for leaf in leaves:
        chain = []
        node = leaf
        while node != root:
            chain.append(node)
            node = parent[node]
        chain.reverse()
        paths[leaf] = tuple(chain)
        path_cells[leaf] = frozenset().union(*(cells_map[u] for u in chain))
        path_price[leaf] = sum(sub.graph.prices[u] for u in chain)
    return BfsTree(root=root, parent=parent, depth=depth, leaves=leaves,
                   paths=paths, path_cells=path_cells, path_price_cents=path_price)


@dataclass
class GreedyState:
    """Mutable per-solve bookkeeping: uncovered universe and budget left."""

    uncovered: set[int]
    budget_cents: int
    spent_cents: int = 0
    selected: set[str] = field(default_factory=set)

    @property
    def remaining_cents(self) -> int:
        return self.budget_cents - self.spent_cents


def solve_dsa(market: Marketplace, budget, delta, graph: DatasetGraph | None = None) -> Solution:
    """Two-pass greedy: gain-per-price pass, raw-gain pass, best of the two.

    Each pass examines candidates in score order; an examined dataset is
    dropped from the pass's pool whether or not it was accepted, and a
    candidate is acceptable only if it keeps the growing set connected and
    within budget.
    """
    b, afford, graph = _prepare(market, budget, delta, graph)
    if not afford:
        return _empty_solution("dsa", rounds=(0, 0))
    adjacency = graph.restricted(afford).adjacency
    cells_map = _cells_map(market, afford)
    universe = frozenset().union(*(frozenset(market.dataset(d).cells.tolist())
                                   for d in market.ids))

    def one_round(ratio_based: bool) -> set[str]:
        state = GreedyState(uncovered=set(universe), budget_cents=b)
        pool = list(afford)
        frontier: set[str] = set()
        while pool and state.spent_cents <= b:
            best = None
            best_gain = -1
            best_price = 0
            for did in pool:
                gain = len(cells_map[did] & state.uncovered)
                price = graph.prices[did]
                if best is None:
                    better = True
                elif ratio_based and (price == 0 or best_price == 0):
                    # a free dataset ranks first, by higher gain
                    better = price == 0 and (best_price != 0 or gain > best_gain)
                elif ratio_based:
                    better = gain * best_price > best_gain * price
                else:
                    better = gain > best_gain
                if better:
                    best, best_gain, best_price = did, gain, price
            pool.remove(best)
            if state.selected and best not in frontier:
                continue
            if state.spent_cents + best_price > b:
                continue
            state.selected.add(best)
            state.spent_cents += best_price
            state.uncovered -= cells_map[best]
            frontier.update(adjacency[best])
        return state.selected

    h1 = one_round(ratio_based=True)
    h2 = one_round(ratio_based=False)
    cov1 = _union_len(cells_map, sorted(h1))
    cov2 = _union_len(cells_map, sorted(h2))
    chosen = h2 if cov2 > cov1 else h1
    return _solution_from_ids("dsa", graph.prices, chosen, cells_map, rounds=(cov1, cov2))


def _pick_leaf_ratio(candidates):
    """Max marginal-gain / incremental-price; zero-cost paths rank first by
    marginal gain; all remaining ties break to the smallest leaf id."""
    best = None
    for leaf, gain, dp in candidates:
        if best is None:
            best = (leaf, gain, dp)
            continue
        b_leaf, b_gain, b_dp = best
        if dp == 0 or b_dp == 0:
            if dp == 0 and b_dp != 0:
                better = True
            elif dp != 0:
                better = False
            else:
                better = gain > b_gain or (gain == b_gain and leaf < b_leaf)
        else:
            lhs, rhs = gain * b_dp, b_gain * dp
            better = lhs > rhs or (lhs == rhs and leaf < b_leaf)
        if better:
            best = (leaf, gain, dp)
    return best


def _pick_leaf_coverage(candidates):
    best = None
    for leaf, gain, dp in candidates:
        if best is None or gain > best[1]:
            best = (leaf, gain, dp)
    return best


def budgeted_greedy(sub: Subgraph, tree: BfsTree, budget, flag: str) -> set[str]:
    """Grow a connected set from the tree root by whole root-to-leaf paths.

    ``flag`` selects the leaf scoring: ``"ratio"`` maximizes marginal gain
    per incremental path price, ``"coverage"`` maximizes raw marginal gain.
    A selected path is paid only for its nodes not already in the result; the
    examined leaf leaves the candidate pool whether or not its path fit.
    Returns the empty set when the root itself exceeds the budget.
    """
    if flag not in ("ratio", "coverage"):
        raise ValueError(f"flag must be 'ratio' or 'coverage', got {flag!r}")
    tree = build_bfs_tree(sub, tree.root)  # this module's paths, not the caller's
    market = sub.graph.market
    b = to_cents(budget)
    root_price = sub.graph.prices[tree.root]
    if root_price > b:
        return set()
    candidate_ids = list(sub.graph.adjacency)
    cells_map = _cells_map(market, candidate_ids)
    universe = frozenset().union(*(cells_map[d] for d in candidate_ids))
    path_cells = {leaf: frozenset().union(*(cells_map[u] for u in tree.paths[leaf]))
                  for leaf in tree.leaves}
    state = GreedyState(uncovered=set(universe - cells_map[tree.root]),
                        budget_cents=b, spent_cents=root_price,
                        selected={tree.root})
    leaves = list(tree.leaves)
    while leaves and state.spent_cents <= b:
        scored = []
        for leaf in leaves:
            dp = sum(sub.graph.prices[u] for u in tree.paths[leaf]) - sum(
                sub.graph.prices[u] for u in tree.paths[leaf] if u in state.selected)
            gain = len(path_cells[leaf] & state.uncovered)
            scored.append((leaf, gain, dp))
        if flag == "ratio":
            leaf, _, dp = _pick_leaf_ratio(scored)
        else:
            leaf, _, dp = _pick_leaf_coverage(scored)
        if state.spent_cents + dp <= b:
            state.selected.update(tree.paths[leaf])
            state.spent_cents += dp
            state.uncovered -= path_cells[leaf]
        leaves.remove(leaf)
    return state.selected


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
    b, afford, graph = _prepare(market, budget, delta, graph)
    if not afford:
        return _empty_solution(label, rounds=(0, 0))
    candidate_graph = graph.restricted(afford)
    cells_map = _cells_map(market, afford)
    ratio_sets = []
    coverage_sets = []
    for sub in connected_components(candidate_graph):
        if center_mode == "exact":
            center = find_center_exact(sub).center
        else:
            center = find_center_two_bfs(sub).center
        tree = build_bfs_tree(sub, center)
        ratio_sets.append(budgeted_greedy(sub, tree, budget, "ratio"))
        coverage_sets.append(budgeted_greedy(sub, tree, budget, "coverage"))
    candidates = [c for c in ratio_sets + coverage_sets if c]
    if not candidates:
        best_single = min(afford, key=lambda d: (-len(cells_map[d]),
                                                 graph.prices[d], d))
        return _solution_from_ids(label, graph.prices, {best_single}, cells_map,
                                  rounds=(0, 0))
    best1 = min((c for c in ratio_sets if c), default=set(),
                key=lambda c: _candidate_order_key(graph.prices, cells_map, c))
    best2 = min((c for c in coverage_sets if c), default=set(),
                key=lambda c: _candidate_order_key(graph.prices, cells_map, c))
    rounds = (_union_len(cells_map, sorted(best1)), _union_len(cells_map, sorted(best2)))
    best = min(candidates, key=lambda c: _candidate_order_key(graph.prices, cells_map, c))
    return _solution_from_ids(label, graph.prices, best, cells_map, rounds=rounds)


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
    b, afford, graph = _prepare(market, budget, delta, graph)
    if not afford:
        return _empty_solution(label)
    candidate_graph = graph.restricted(afford)
    cells_map = _cells_map(market, afford)
    universe = frozenset().union(*(cells_map[d] for d in afford))
    results = []
    for sub in connected_components(candidate_graph):
        root = sub.members[0]
        root_price = candidate_graph.prices[root]
        if root_price > b:
            continue
        adjacency = {u: sub.graph.adjacency[u] for u in sub.members}
        parent = {root: None}
        queue = [root]
        head = 0
        while head < len(queue):
            u = queue[head]
            head += 1
            for v in adjacency[u]:
                if v not in parent:
                    parent[v] = u
                    queue.append(v)
        paths = {}
        path_cells = {}
        for u in sub.members:
            if u == root:
                continue
            chain = []
            node = u
            while node != root:
                chain.append(node)
                node = parent[node]
            chain.reverse()
            paths[u] = tuple(chain)
            path_cells[u] = frozenset().union(*(cells_map[v] for v in chain))
        state = GreedyState(uncovered=set(universe - cells_map[root]),
                            budget_cents=b, spent_cents=root_price,
                            selected={root})
        pool = sorted(paths)
        while pool:
            best = None  # (node, score_num, n_nodes, dp)
            for u in pool:
                dp = sum(candidate_graph.prices[v] for v in paths[u]
                         if v not in state.selected)
                if state.spent_cents + dp > b:
                    continue
                if variant == "mc":
                    num = len(path_cells[u])
                else:
                    num = len(path_cells[u] & state.uncovered)
                n_nodes = len(paths[u])
                if best is None or num * best[2] > best[1] * n_nodes:
                    best = (u, num, n_nodes, dp)
            if best is None:
                break
            u, _, _, dp = best
            state.selected.update(paths[u])
            state.spent_cents += dp
            state.uncovered -= path_cells[u]
            pool.remove(u)
        results.append(state.selected)
    if not results:
        return _empty_solution(label)
    best = min(results, key=lambda c: _candidate_order_key(graph.prices, cells_map, c))
    return _solution_from_ids(label, graph.prices, best, cells_map)


def solve_exact(market: Marketplace, budget, delta, cap: int = 15,
                graph: DatasetGraph | None = None) -> Solution:
    """Exhaustive search over affordable subsets; ties prefer lower total
    price, then lexicographically smaller id tuples. Refuses catalogs larger
    than ``cap``."""
    if len(market) > cap:
        raise OracleCapError(
            f"exact oracle capped at {cap} datasets, catalog has {len(market)}")
    b, candidate = live._prepare(market, budget, delta, graph)
    afford = candidate.nodes
    if not afford:
        return _empty_solution("exact")
    cells_map = _cells_map(market, afford)
    n = len(afford)
    bit_of = {c: i for i, c in enumerate(sorted(frozenset().union(*cells_map.values())))}
    masks = []
    prices = []
    for did in afford:
        m = 0
        for c in cells_map[did]:
            m |= 1 << bit_of[c]
        masks.append(m)
        prices.append(candidate.prices[did])
    index = {did: i for i, did in enumerate(afford)}
    adj_bits = [0] * n
    for did, nbrs in candidate.adjacency.items():
        for v in nbrs:
            adj_bits[index[did]] |= 1 << index[v]

    def connected(subset: int) -> bool:
        low = subset & -subset
        reached = low
        frontier = low
        while frontier:
            nxt = 0
            f = frontier
            while f:
                fb = f & -f
                nxt |= adj_bits[fb.bit_length() - 1]
                f ^= fb
            nxt &= subset & ~reached
            reached |= nxt
            frontier = nxt
        return reached == subset

    size = 1 << n
    price_sum = [0] * size
    union = [0] * size
    best_key = (0, 0, ())  # _candidate_order_key of the empty set
    for mask in range(1, size):
        low = mask & -mask
        rest = mask ^ low
        i = low.bit_length() - 1
        p = price_sum[rest] + prices[i]
        price_sum[mask] = p
        if p > b:
            continue
        u = union[rest] | masks[i]
        union[mask] = u
        if not connected(mask):
            continue
        cov = u.bit_count()
        if cov < -best_key[0]:
            continue
        ids = tuple(afford[j] for j in range(n) if mask >> j & 1)
        key = (-cov, p, ids)
        if key < best_key:
            best_key = key
    return _solution("exact", best_key)
