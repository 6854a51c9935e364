import math
from fractions import Fraction

import numpy as np
import pytest

import bmcc.solvers as solvers
import reference_solvers as ref
from bmcc.graph import bfs, build_graph_naive, connected_components
from bmcc.grid import CellRangeError
from bmcc.marketplace import cents_to_decimal
from bmcc.solvers import (
    OracleCapError,
    SOLVER_LABELS,
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
    _RatioKey,
    _PathGrowth,
    _lazy_argmax,
    _ratio_order,
    _root_paths,
)

from conftest import (
    floyd_warshall,
    make_market,
    mcp_brute_force,
    random_budget_cents,
    random_market,
    random_tree_subgraph,
)


def _graph_of(market, delta):
    return build_graph_naive(market, delta)


class TestDsa:
    def test_single_affordable_dataset(self):
        m = make_market({"only": [(0, 0), (1, 1)]}, theta=3)
        sol = solve_dsa(m, 5, 1)
        assert sol.selected == ("only",)
        assert sol.round_coverages == (2, 2)
        assert sol.status == "ok"

    def test_all_prices_above_budget(self):
        m = make_market({"a": [(0, 0), (1, 1)], "b": [(2, 2), (3, 3)]}, theta=3)
        sol = solve_dsa(m, 1, 1)
        assert sol.selected == ()
        assert sol.status == "budget_below_minimum"
        assert sol.coverage == 0

    def test_second_pass_beats_first_on_designed_instance(self, dsa_market):
        sol = solve_dsa(dsa_market, 6, 1)
        assert sol.round_coverages == (8, 10)
        assert sol.selected == ("d1", "d5")
        assert sol.coverage == 10
        exact = solve_exact(dsa_market, 6, 1)
        assert exact.coverage == sol.coverage

    def test_returned_coverage_is_round_max(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            m = random_market(rng)
            delta = float(rng.choice([0, 1, 2, 3]))
            budget = cents_to_decimal(random_budget_cents(rng, m))
            sol = solve_dsa(m, budget, delta)
            assert sol.coverage == max(sol.round_coverages)


class TestCenters:
    def test_singleton(self):
        m = make_market({"a": [(0, 0)]}, theta=3)
        sub = connected_components(_graph_of(m, 1))[0]
        res = find_center_exact(sub)
        assert (res.center, res.radius) == ("a", 0)
        two = find_center_two_bfs(sub)
        assert (two.center, two.radius, two.diameter) == ("a", 0, 0)

    def test_path_center(self):
        m = make_market({"a": [(0, 0)], "b": [(1, 0)], "c": [(2, 0)]}, theta=3)
        sub = connected_components(_graph_of(m, 1))[0]
        res = find_center_exact(sub)
        assert (res.center, res.radius) == ("b", 1)
        assert res.eccentricities == {"a": 2, "b": 1, "c": 2}

    def test_exact_matches_floyd_warshall_on_random_trees(self):
        rng = np.random.default_rng(22)
        for _ in range(30):
            sub = random_tree_subgraph(rng, int(rng.integers(2, 51)))
            res = find_center_exact(sub)
            ids, dist = floyd_warshall(sub.adjacency())
            ecc = dist.max(axis=1)
            assert res.eccentricities == {u: int(e) for u, e in zip(ids, ecc)}
            expect_center = min(ids, key=lambda u: (ecc[ids.index(u)], u))
            assert res.center == expect_center
            assert res.radius == int(ecc.min())

    def test_two_bfs_on_five_node_path(self):
        m = make_market({f"n{i}": [(i, 0)] for i in range(5)}, theta=3)
        sub = connected_components(_graph_of(m, 1))[0]
        two = find_center_two_bfs(sub)
        assert (two.center, two.radius, two.diameter) == ("n2", 2, 4)

    def test_two_bfs_on_star(self):
        m = make_market({
            "hub": [(5, 5)],
            "l1": [(4, 5)], "l2": [(6, 5)], "l3": [(5, 4)],
        }, theta=4)
        sub = connected_components(_graph_of(m, 1))[0]
        two = find_center_two_bfs(sub)
        assert two.radius == 1
        assert two.diameter == 2
        assert two.center == "hub"

    def test_two_bfs_exact_on_random_trees(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            sub = random_tree_subgraph(rng, int(rng.integers(2, 201)))
            exact = find_center_exact(sub)
            two = find_center_two_bfs(sub)
            diameter = max(exact.eccentricities.values())
            assert two.diameter == diameter
            assert two.radius == exact.radius


class TestBudgetedGreedy:
    def test_single_leaf_path_within_budget(self):
        m = make_market({"a": [(0, 0)], "b": [(1, 0)], "c": [(2, 0)]}, theta=3)
        sub = connected_components(_graph_of(m, 1))[0]
        tree = build_bfs_tree(sub, "b")
        out = budgeted_greedy(sub, tree, 10, "coverage")
        assert out == {"a", "b", "c"}

    def test_root_price_above_budget_gives_empty(self, dpsa_market):
        sub = connected_components(_graph_of(dpsa_market, 1))[0]
        tree = build_bfs_tree(sub, "d2")
        assert budgeted_greedy(sub, tree, 1, "ratio") == set()

    def test_designed_instance_ratio_flag(self, dpsa_market):
        sub = connected_components(_graph_of(dpsa_market, 1))[0]
        tree = build_bfs_tree(sub, find_center_exact(sub).center)
        # first pick is the gain-4 price-2 path to d6 (ratio 2), then d5, d3
        out = budgeted_greedy(sub, tree, 14, "ratio")
        assert out == {"d1", "d2", "d3", "d5", "d6", "d7"}

    def test_designed_instance_coverage_flag(self, dpsa_market):
        sub = connected_components(_graph_of(dpsa_market, 1))[0]
        tree = build_bfs_tree(sub, find_center_exact(sub).center)
        # picks the gain-10 then the gain-8 path, exhausting the budget
        out = budgeted_greedy(sub, tree, 14, "coverage")
        assert out == {"d1", "d2", "d4", "d5", "d8"}

    def test_bfs_tree_shape(self, dpsa_market):
        sub = connected_components(_graph_of(dpsa_market, 1))[0]
        res = find_center_exact(sub)
        assert (res.center, res.radius) == ("d2", 2)
        tree = build_bfs_tree(sub, res.center)
        assert tree.leaves == ("d3", "d5", "d6", "d7", "d8")
        assert tree.paths["d5"] == ("d1", "d5")
        assert tree.paths["d6"] == ("d6",)
        assert tree.tree_depth == res.radius

    def test_zero_cost_paths_rank_first(self):
        # zero incremental price outranks any finite ratio; within the zero
        # class higher gain wins, then the smaller leaf id
        def first(scored):
            gain = {leaf: g for leaf, g, _ in scored}
            dp = {leaf: d for leaf, _, d in scored}
            return next(_ratio_order(list(gain), gain, dp))

        assert first([("a", 5, 0), ("b", 9, 0), ("c", 100, 1)]) == "b"
        assert first([("a", 5, 0), ("b", 5, 0)]) == "a"
        assert first([("c", 100, 1), ("d", 1, 0)]) == "d"

    def test_ratio_order_ties_break_to_smallest_id(self):
        # equal exact ratios, listed in descending id: the pool is scanned in
        # ascending id, whatever order the leaves come in
        gain = {"c": 3, "b": 2, "a": 1, "z": 5}
        dp = {"c": 3, "b": 2, "a": 1, "z": 4}
        assert list(_ratio_order(("z", "c", "b", "a"), gain, dp)) == ["z", "a", "b", "c"]

    def test_invalid_flag(self, dpsa_market):
        sub = connected_components(_graph_of(dpsa_market, 1))[0]
        tree = build_bfs_tree(sub, "d2")
        with pytest.raises(ValueError):
            budgeted_greedy(sub, tree, 14, "bogus")


class TestRatioKey:
    BIG = 2 ** 53

    def test_orders_as_negated_fractions(self):
        big = self.BIG
        # (2**53 + 1) / 2**53 rounds to 1.0, the quotient of 1 / 1: the float
        # ties, the exact ratios differ
        assert (big + 1) / big == 1 / 1
        pairs = [(g, p) for g in range(4) for p in range(1, 5)]
        pairs += [(big + 1, big), (big, big), (big - 1, big), (3 * big + 1, 3 * big),
                  (big + 2, big + 1), (1, big), (1, big + 1)]
        for a in pairs:
            for b in pairs:
                want = -Fraction(*a), -Fraction(*b)
                got = _RatioKey(*a), _RatioKey(*b)
                assert (got[0] < got[1], got[0] <= got[1], got[0] == got[1]) == \
                    (want[0] < want[1], want[0] <= want[1], want[0] == want[1]), (a, b)

    def test_lazy_argmax_breaks_float_ties_exactly(self):
        big = self.BIG
        # "a" is popped first on a stale key; its fresh ratio 1/1 has the same
        # float as b's, but is exactly smaller, so b must come first
        fresh = {"a": _RatioKey(1, 1), "b": _RatioKey(big + 1, big)}
        entries = [(_RatioKey(2, 1), "a"), (fresh["b"], "b")]
        assert list(_lazy_argmax(entries, fresh.__getitem__)) == ["b", "a"]
        # exactly equal ratios fall back to the smaller id
        fresh = {"a": _RatioKey(2, 2), "b": _RatioKey(1, 1)}
        entries = [(_RatioKey(2, 1), "b"), (fresh["a"], "a")]
        assert list(_lazy_argmax(entries, fresh.__getitem__)) == ["a", "b"]


def _count_path_setups(monkeypatch):
    """Record the root of every path set-up built from now on."""
    built = []
    init = solvers._PathGrowth.__init__

    def counting_init(self, parent, *args):
        built.append(next(iter(parent)))
        init(self, parent, *args)

    monkeypatch.setattr(solvers._PathGrowth, "__init__", counting_init)
    return built


# Path set-ups solve_dpsa builds on the synth1000 catalog at delta=10 and a
# tenth of the total price: one per component of three or more members of the
# affordable graph (every root of it is within budget), shared by the ratio
# and coverage passes. A component of one or two members needs none: its
# answer has a closed form.
SYNTH_DPSA_PATH_SETUPS = 9
# solve_cmc grows one set-up per component of three or more members too, from
# its smallest id, so each variant builds as many on the same query.
SYNTH_CMC_PATH_SETUPS = 9


class TestPathSetup:
    def test_budgeted_greedy_builds_one_setup_per_tree(self, synth_giant, monkeypatch):
        built = _count_path_setups(monkeypatch)
        tree = build_bfs_tree(synth_giant, find_center_exact(synth_giant).center)
        below_root = cents_to_decimal(synth_giant.graph.prices[tree.root] - 1)
        assert budgeted_greedy(synth_giant, tree, below_root, "ratio") == set()
        assert built == []
        budget = cents_to_decimal(synth_giant.graph.market.total_price_cents // 10)
        first = [budgeted_greedy(synth_giant, tree, budget, flag)
                 for flag in ("ratio", "coverage", "ratio")]
        assert built == [tree.root]
        # each pass grows its own copy, so a rerun starts from the same state
        assert first[0] == first[2] != first[1]
        fresh = build_bfs_tree(synth_giant, tree.root)
        assert budgeted_greedy(synth_giant, fresh, budget, "coverage") == first[1]

    def test_one_node_tree_builds_no_setup(self, monkeypatch):
        built = _count_path_setups(monkeypatch)
        sub = connected_components(_graph_of(make_market({"only": [(0, 0)]}, theta=3), 1))[0]
        tree = build_bfs_tree(sub, "only")
        assert [budgeted_greedy(sub, tree, 5, flag) for flag in ("ratio", "coverage")] == \
            [{"only"}, {"only"}]
        assert budgeted_greedy(sub, tree, 0, "ratio") == set()
        assert built == []

    def test_dpsa_builds_one_setup_per_tree(self, synth_giant, monkeypatch):
        graph = synth_giant.graph
        budget = cents_to_decimal(graph.market.total_price_cents // 10)
        built = _count_path_setups(monkeypatch)
        solve_dpsa(graph.market, budget, 10, graph=graph)
        affordable = graph.restricted(
            d for d, p in graph.prices.items() if p <= graph.market.total_price_cents // 10)
        with_trees = [sub for sub in connected_components(affordable) if len(sub) >= 3]
        assert len(built) == len(set(built)) == len(with_trees) == SYNTH_DPSA_PATH_SETUPS

    def test_cmc_builds_one_setup_per_component_of_three_or_more(self, synth_giant,
                                                                monkeypatch):
        graph = synth_giant.graph
        cents = graph.market.total_price_cents // 10
        built = _count_path_setups(monkeypatch)
        for variant in ("mc", "mg"):
            solve_cmc(graph.market, cents_to_decimal(cents), 10, variant=variant, graph=graph)
        affordable = graph.restricted(d for d, p in graph.prices.items() if p <= cents)
        roots = [sub.members[0] for sub in connected_components(affordable) if len(sub) >= 3]
        assert len(roots) == SYNTH_CMC_PATH_SETUPS
        assert built == roots + roots


def _hand_tree():
    """A hand-built tree in BFS order over integer cells. Shared cells: 1 and
    2 are held by the root (and by e and a); 3 by the siblings a and b (and
    by b's child d); 4 and 5 by a node and its descendant (a and c, b and
    d)."""
    parent = {"r": None, "a": "r", "b": "r", "c": "a", "f": "a", "d": "b", "e": "c"}
    cells = {"r": {1, 2}, "a": {2, 3, 4}, "b": {3, 5}, "c": {4, 6},
             "f": {9}, "d": {3, 5, 7}, "e": {1, 8}}
    prices = {"r": 4, "a": 3, "b": 0, "c": 2, "f": 5, "d": 1, "e": 6}
    return parent, {v: frozenset(c) for v, c in cells.items()}, prices


def _random_tree(rng, n, universe):
    """A random tree's BFS parent map, each node holding a few cells of a
    small universe, so most cells are shared."""
    sub = random_tree_subgraph(rng, n)
    parent, _ = bfs(sub.graph.adjacency, sub.members[0])
    cells = {v: frozenset(rng.integers(0, universe, size=int(rng.integers(1, 5))).tolist())
             for v in parent}
    prices = {v: int(rng.integers(0, 4)) for v in parent}
    return parent, cells, prices


class TestPathGrowthInvariants:
    """Every candidate's gain and dp, checked by brute force after set-up and
    after every take."""

    @staticmethod
    def check(growth, cells_map, prices, paths):
        covered = set().union(*(cells_map[u] for u in growth.selected))
        assert growth.covered == covered
        assert growth.spent == sum(prices[u] for u in growth.selected)
        for k, nodes in paths.items():
            path_cells = set().union(*(cells_map[u] for u in nodes))
            assert growth.gain[k] == len(path_cells - covered), k
            assert growth.dp[k] == sum(prices[u] for u in nodes
                                       if u not in growth.selected), k

    def grow(self, parent, cells_map, prices, rng):
        paths = _root_paths(parent)
        growth = _PathGrowth(parent, cells_map, prices, paths)
        self.check(growth, cells_map, prices, paths)
        for k in rng.permutation(sorted(paths)).tolist():
            growth.take(k)
            self.check(growth, cells_map, prices, paths)

    @pytest.mark.parametrize("seed", range(6))
    def test_hand_built_tree(self, seed):
        self.grow(*_hand_tree(), np.random.default_rng(seed))

    @pytest.mark.parametrize("seed", range(30))
    def test_random_trees(self, seed):
        rng = np.random.default_rng(900 + seed)
        tree = _random_tree(rng, int(rng.integers(2, 25)), int(rng.integers(3, 20)))
        self.grow(*tree, rng)


class TestDpsa:
    def test_single_node_graph(self):
        m = make_market({"only": [(0, 0), (0, 1)]}, theta=3)
        sol = solve_dpsa(m, 5, 1)
        assert sol.selected == ("only",)

    def test_designed_instance_pass_coverages_and_optimum(self, dpsa_market):
        sol = solve_dpsa(dpsa_market, 14, 1)
        assert sol.round_coverages == (20, 21)
        assert sol.coverage == 21
        assert sol.selected == ("d1", "d2", "d4", "d5", "d8")
        exact = solve_exact(dpsa_market, 14, 1)
        assert exact.selected == sol.selected
        assert exact.coverage == 21

    def test_two_bfs_variant_on_designed_instance(self, dpsa_market):
        sol = solve_dpsa(dpsa_market, 14, 1, center_mode="two_bfs")
        assert sol.algorithm == "dpsa-ba"
        assert sol.coverage == 21

    def test_unaffordable_catalog(self, dpsa_market):
        sol = solve_dpsa(dpsa_market, 1, 1)
        assert sol.selected == ()
        assert sol.status == "budget_below_minimum"

    def test_approximation_bound_on_connected_instances(self):
        rng = np.random.default_rng(24)
        checked = 0
        for _ in range(150):
            m = random_market(rng, n_max=8, span=12, usage_only=True)
            delta = float(rng.choice([3, 5]))
            graph = _graph_of(m, delta)
            b = int(float(rng.uniform(0.55, 1.0)) * m.total_price_cents)
            afford = sorted(d for d in m.ids if m.price_cents(d) <= b)
            if len(afford) < 2 or set(afford) != set(m.ids):
                continue
            comps = connected_components(graph)
            if len(comps) != 1:
                continue
            res = find_center_exact(comps[0])
            if res.radius < 1:
                continue
            if b < res.radius * m.p_max_cents + m.price_cents(res.center):
                continue
            budget = cents_to_decimal(b)
            opt = solve_exact(m, budget, delta, graph=graph).coverage
            got = solve_dpsa(m, budget, delta, graph=graph).coverage
            ratio = (m.p_min_cents / (res.radius * m.p_max_cents)) \
                * (1 - m.p_max_cents / b) * (1 - 1 / math.e)
            assert got >= ratio * opt - 1e-9
            checked += 1
        assert checked >= 10


# Components of one or two members at delta=1 on a 16x16 grid, one row band
# each: the lone "a"; the pair b0-b1 (1 and 5 cells, 12 together); the pair
# c0-c1 (3 and 4 cells, 10 together); and the cheap pair d0-d1 (4 cells, 3).
TINY_SETS = {
    "a": [(0, 0), (1, 0)],
    "b0": [(0, 4)],
    "b1": [(x, 4) for x in range(1, 6)],
    "c0": [(x, 8) for x in range(3)],
    "c1": [(x, 8) for x in range(3, 7)],
    "d0": [(0, 12), (1, 12)],
    "d1": [(2, 12), (3, 12)],
}
TINY_PRICES = {"a": 2, "b0": 6, "b1": 6, "c0": 5, "c1": 5, "d0": 1, "d1": 2}


@pytest.fixture(scope="module")
def tiny_market():
    return make_market(TINY_SETS, theta=4, prices=TINY_PRICES)


class TestTinyComponents:
    """Components of one or two members take a closed form in
    ``budgeted_greedy`` and ``cmc``; it must give what the general path
    greedy of the full-scan reference gives. At a budget of 9 every node fits
    but no pair above ``d``; at 10 the c pair fits exactly, at 12 the b pair
    does."""

    REFERENCE = {
        "dpsa": (ref.solve_dpsa, {"center_mode": "exact"}),
        "dpsa-ba": (ref.solve_dpsa, {"center_mode": "two_bfs"}),
        "cmc-mc": (ref.solve_cmc, {"variant": "mc"}),
        "cmc-mg": (ref.solve_cmc, {"variant": "mg"}),
    }

    @pytest.mark.parametrize("budget", [1, 2, 3, 5, 9, 10, 12, 30])
    @pytest.mark.parametrize("label", ["dpsa", "dpsa-ba", "cmc-mc", "cmc-mg"])
    def test_closed_form_matches_reference(self, tiny_market, label, budget):
        graph = _graph_of(tiny_market, 1)
        assert max(len(sub) for sub in connected_components(graph)) == 2
        got = solve(label, tiny_market, budget, 1, graph=graph)
        reference, kwargs = self.REFERENCE[label]
        want = reference(tiny_market, budget, 1, graph=graph, **kwargs)
        assert (got.selected, got.coverage, got.total_price_cents, got.round_coverages,
                got.status) == (want.selected, want.coverage, want.total_price_cents,
                                want.round_coverages, want.status)

    def test_pair_roots_and_exact_fit(self, tiny_market):
        graph = _graph_of(tiny_market, 1)
        # the double-BFS center of a pair is its larger id: only dpsa-ba keeps b1
        assert solve("dpsa-ba", tiny_market, 9, 1, graph=graph).selected == ("b1",)
        for label in ("dpsa", "cmc-mc", "cmc-mg"):
            assert solve(label, tiny_market, 9, 1, graph=graph).selected == ("d0", "d1")
        # a pair priced exactly at the budget is taken
        for label in ("dpsa", "dpsa-ba", "cmc-mc", "cmc-mg"):
            sol = solve(label, tiny_market, 10, 1, graph=graph)
            assert (sol.selected, sol.coverage, sol.total_price_cents) == \
                (("c0", "c1"), 7, 1000)

    @pytest.mark.parametrize("label", ["dpsa", "dpsa-ba"])
    def test_dpsa_grows_every_component_under_both_flags(self, tiny_market, label,
                                                         monkeypatch):
        """The closed form lives inside ``budgeted_greedy``: ``dpsa`` still
        runs one center search and both flags on every component, so the
        benchmark's traced call counts stay one and two per component."""
        calls = []
        for name in ("find_center_exact", "find_center_two_bfs", "budgeted_greedy"):
            original = getattr(solvers, name)
            monkeypatch.setattr(solvers, name, lambda *a, _f=original, _n=name:
                                calls.append(_n) or _f(*a))
        graph = _graph_of(tiny_market, 1)
        solve(label, tiny_market, 12, 1, graph=graph)
        center = "find_center_exact" if label == "dpsa" else "find_center_two_bfs"
        n = len(connected_components(graph))
        assert sorted(calls) == sorted([center] * n + ["budgeted_greedy"] * 2 * n)

    def test_centers_and_trees_match_reference(self, tiny_market):
        """The double-BFS center and the BFS tree of a component of one or
        two members take no BFS; they must be what the BFS gives."""
        graph = _graph_of(tiny_market, 1)
        for sub, ref_sub in zip(connected_components(graph), ref.connected_components(graph)):
            got, want = find_center_two_bfs(sub), ref.find_center_two_bfs(ref_sub)
            assert (got.center, got.radius, got.diameter) == \
                (want.center, want.radius, want.diameter)
            for root in sub.members:
                tree, ref_tree = build_bfs_tree(sub, root), ref.build_bfs_tree(ref_sub, root)
                assert (tree.root, list(tree.parent.items()), tree.leaves, tree.paths,
                        tree.tree_depth) == (ref_tree.root, list(ref_tree.parent.items()),
                                             ref_tree.leaves, ref_tree.paths,
                                             ref_tree.tree_depth)

    @pytest.mark.parametrize("budget", [30, 5], ids=["every-node-fits", "some-nodes-fit"])
    @pytest.mark.parametrize("label", SOLVER_LABELS)
    def test_solve_caches_no_cells_on_the_callers_graph(self, tiny_market, label, budget):
        """The candidate graph may share the query graph's adjacency and
        prices, but it is its own object: the cell sets a solve builds must
        not stay behind on a graph the caller keeps."""
        graph = _graph_of(tiny_market, 1)
        solve(label, tiny_market, budget, 1, graph=graph)
        assert "cells" not in vars(graph)


class TestCmc:
    def test_single_node(self):
        m = make_market({"only": [(0, 0)]}, theta=3)
        for variant in ("mc", "mg"):
            sol = solve_cmc(m, 5, 1, variant=variant)
            assert sol.selected == ("only",)

    def test_two_node_path_variants_agree(self):
        m = make_market({"a": [(0, 0), (0, 1)], "b": [(1, 0)]}, theta=3)
        mc = solve_cmc(m, 10, 1, variant="mc")
        mg = solve_cmc(m, 10, 1, variant="mg")
        assert mc.selected == mg.selected == ("a", "b")

    def test_marginal_gain_beats_raw_coverage_under_overlap(self):
        # d1 nearly duplicates the root's cells, so its raw average coverage
        # is high but its marginal gain is 1; with budget for only one path
        # the mc variant wastes the budget on it
        m = make_market({
            "d0": [(x, 0) for x in range(8)],
            "d1": [(x, 0) for x in range(7)] + [(8, 0)],
            "d2": [(x, 1) for x in range(6)],
        }, theta=4, prices={"d0": 1, "d1": 5, "d2": 5})
        mc = solve_cmc(m, 7, 1, variant="mc")
        mg = solve_cmc(m, 7, 1, variant="mg")
        assert mc.selected == ("d0", "d1") and mc.coverage == 9
        assert mg.selected == ("d0", "d2") and mg.coverage == 14
        assert mg.coverage > mc.coverage
        exact = solve_exact(m, 7, 1)
        assert exact.coverage == mg.coverage

    def test_unaffordable_catalog(self, dsa_market):
        sol = solve_cmc(dsa_market, "0.50", 1)
        assert sol.status == "budget_below_minimum"


class TestExact:
    def test_example2_optimum(self, example2_market):
        sol = solve_exact(example2_market, 15, 2)
        assert sol.selected == ("d1", "d2", "d4")
        assert sol.coverage == 15
        assert sol.total_price == 15

    def test_budget_below_every_price(self, example2_market):
        sol = solve_exact(example2_market, 1, 2)
        assert sol.selected == ()

    def test_cap_refusal_names_cap(self):
        m = make_market({f"d{i:02d}": [(i, 0)] for i in range(16)}, theta=5)
        with pytest.raises(OracleCapError, match="15"):
            solve_exact(m, 5, 1)

    def test_tie_breaks_prefer_cheaper_then_lexicographic(self):
        # a+b and c+d both cover 4 cells; c+d is cheaper
        m = make_market({
            "a": [(0, 0), (1, 0)], "b": [(2, 0), (3, 0)],
            "c": [(10, 0), (11, 0)], "d": [(12, 0), (13, 0)],
        }, theta=4, prices={"a": 3, "b": 3, "c": 2, "d": 2})
        sol = solve_exact(m, 6, 1)
        assert sol.selected == ("c", "d")

    def test_dominates_heuristics(self):
        rng = np.random.default_rng(25)
        for _ in range(30):
            m = random_market(rng, n_max=9)
            delta = float(rng.choice([0, 1, 2, 4]))
            budget = cents_to_decimal(random_budget_cents(rng, m))
            graph = _graph_of(m, delta)
            opt = solve_exact(m, budget, delta, graph=graph).coverage
            for label in ("dsa", "dpsa", "dpsa-ba", "cmc-mc", "cmc-mg"):
                assert solve(label, m, budget, delta, graph=graph).coverage <= opt


class TestVerify:
    def test_empty_solution_is_vacuously_feasible(self, example2_market):
        graph = _graph_of(example2_market, 2)
        sol = solve_exact(example2_market, 1, 2)
        report = verify_solution(graph, sol, 1)
        assert report.within_budget and report.connected
        assert report.recomputed_coverage == 0
        assert report.ok

    def test_disconnected_pair_flagged(self, example2_market):
        graph = _graph_of(example2_market, 2)
        sol = solve_exact(example2_market, 15, 2)
        tampered = type(sol)(
            algorithm="exact", selected=("d1", "d3"),
            total_price_cents=900, coverage=9)
        report = verify_solution(graph, tampered, 15)
        assert not report.connected
        assert not report.ok

    def test_coverage_mismatch_flagged(self, example2_market):
        graph = _graph_of(example2_market, 2)
        sol = solve_exact(example2_market, 15, 2)
        tampered = type(sol)(
            algorithm="exact", selected=sol.selected,
            total_price_cents=sol.total_price_cents, coverage=sol.coverage + 1)
        report = verify_solution(graph, tampered, 15)
        assert not report.coverage_matches
        assert not report.ok

    def test_unknown_id_raises(self, example2_market):
        graph = _graph_of(example2_market, 2)
        sol = solve_exact(example2_market, 15, 2)
        tampered = type(sol)(
            algorithm="exact", selected=("ghost",),
            total_price_cents=0, coverage=0)
        with pytest.raises(KeyError):
            verify_solution(graph, tampered, 15)

    def test_solver_outputs_verify_on_randoms(self):
        rng = np.random.default_rng(26)
        for _ in range(25):
            m = random_market(rng)
            delta = float(rng.choice([0, 1, 2, 3]))
            budget = cents_to_decimal(random_budget_cents(rng, m))
            graph = _graph_of(m, delta)
            for label in SOLVER_LABELS:
                sol = solve(label, m, budget, delta, graph=graph)
                assert verify_solution(graph, sol, budget).ok, (label, sol)


class TestReduction:
    def test_dominating_set_choice(self):
        market = make_reduction_instance(2, [{0}, {0, 1}])
        delta = complete_graph_delta(market.grid)
        sol = solve_exact(market, 1, delta)
        assert sol.coverage == 2

    def test_graph_is_complete(self):
        rng = np.random.default_rng(27)
        for _ in range(10):
            universe = int(rng.integers(2, 12))
            sets = [set(rng.integers(0, universe,
                                     size=int(rng.integers(1, universe + 1))).tolist())
                    for _ in range(int(rng.integers(2, 7)))]
            market = make_reduction_instance(universe, sets)
            graph = build_graph_naive(market, complete_graph_delta(market.grid))
            n = len(market)
            assert graph.n_edges == n * (n - 1) // 2

    def test_matches_mcp_brute_force(self):
        rng = np.random.default_rng(28)
        for _ in range(20):
            universe = int(rng.integers(2, 10))
            sets = [set(rng.integers(0, universe,
                                     size=int(rng.integers(1, universe + 1))).tolist())
                    for _ in range(int(rng.integers(2, 7)))]
            k = int(rng.integers(1, len(sets) + 1))
            market = make_reduction_instance(universe, sets)
            sol = solve_exact(market, k, complete_graph_delta(market.grid))
            assert sol.coverage == mcp_brute_force(sets, k)

    def test_out_of_universe_element_rejected(self):
        with pytest.raises(CellRangeError):
            make_reduction_instance(3, [{0, 5}])

    def test_empty_set_rejected(self):
        with pytest.raises(CellRangeError):
            make_reduction_instance(3, [set()])


class TestDeterminism:
    def test_repeated_solves_identical(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            m = random_market(rng)
            delta = float(rng.choice([0, 1, 2, 3]))
            budget = cents_to_decimal(random_budget_cents(rng, m))
            for label in SOLVER_LABELS:
                first = solve(label, m, budget, delta)
                second = solve(label, m, budget, delta)
                assert first == second

    def test_unknown_label(self, example2_market):
        with pytest.raises(ValueError):
            solve("magic", example2_market, 15, 2)
