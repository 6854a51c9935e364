"""The full-scan greedy loops that the incremental solvers replaced, kept
verbatim as a differential oracle.

Every step here rescores every remaining candidate from scratch against the
uncovered universe, so these functions are slow but obviously faithful to the
selection rules. ``test_solvers_differential.py`` checks that the solvers in
:mod:`bmcc.solvers` return exactly the same selections.
"""

from dataclasses import dataclass, field

from bmcc.graph import DatasetGraph, Subgraph, connected_components
from bmcc.marketplace import Marketplace, to_cents
from bmcc.solvers import (
    BfsTree,
    Solution,
    _candidate_order_key,
    _cells_map,
    _empty_solution,
    _prepare,
    _restricted_graph,
    _solution_from_ids,
    _union_len,
    build_bfs_tree,
    find_center_exact,
    find_center_two_bfs,
)


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
    adjacency = graph.restricted(afford)
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
                price = market.price_cents(did)
                if best is None:
                    better = True
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
    return _solution_from_ids("dsa", market, chosen, cells_map, rounds=(cov1, cov2))


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
    market = sub.graph.market
    b = to_cents(budget)
    root_price = sub.graph.prices[tree.root]
    if root_price > b:
        return set()
    candidate_ids = list(sub.graph.adjacency)
    cells_map = _cells_map(market, candidate_ids)
    universe = frozenset().union(*(cells_map[d] for d in candidate_ids))
    state = GreedyState(uncovered=set(universe - cells_map[tree.root]),
                        budget_cents=b, spent_cents=root_price,
                        selected={tree.root})
    leaves = list(tree.leaves)
    while leaves and state.spent_cents <= b:
        scored = []
        for leaf in leaves:
            dp = tree.path_price_cents[leaf] - sum(
                sub.graph.prices[u] for u in tree.paths[leaf] if u in state.selected)
            gain = len(tree.path_cells[leaf] & state.uncovered)
            scored.append((leaf, gain, dp))
        if flag == "ratio":
            leaf, _, dp = _pick_leaf_ratio(scored)
        else:
            leaf, _, dp = _pick_leaf_coverage(scored)
        if state.spent_cents + dp <= b:
            state.selected.update(tree.paths[leaf])
            state.spent_cents += dp
            state.uncovered -= tree.path_cells[leaf]
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
    candidate_graph = _restricted_graph(graph, afford)
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
                                                 market.price_cents(d), d))
        return _solution_from_ids(label, market, {best_single}, cells_map,
                                  rounds=(0, 0))
    best1 = min((c for c in ratio_sets if c), default=set(),
                key=lambda c: _candidate_order_key(market, cells_map, c))
    best2 = min((c for c in coverage_sets if c), default=set(),
                key=lambda c: _candidate_order_key(market, cells_map, c))
    rounds = (_union_len(cells_map, sorted(best1)), _union_len(cells_map, sorted(best2)))
    best = min(candidates, key=lambda c: _candidate_order_key(market, cells_map, c))
    return _solution_from_ids(label, market, best, cells_map, rounds=rounds)


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
    candidate_graph = _restricted_graph(graph, afford)
    cells_map = _cells_map(market, afford)
    universe = frozenset().union(*(cells_map[d] for d in afford))
    results = []
    for sub in connected_components(candidate_graph):
        root = sub.members[0]
        root_price = candidate_graph.prices[root]
        if root_price > b:
            continue
        adjacency = sub.adjacency()
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
    best = min(results, key=lambda c: _candidate_order_key(market, cells_map, c))
    return _solution_from_ids(label, market, best, cells_map)
