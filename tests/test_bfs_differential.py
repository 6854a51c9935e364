"""Differential test: components, centers and BFS trees built on the shared
:func:`bmcc.graph.bfs` against the hand-written BFS loops they replaced
(``reference_solvers``), on the seeded markets of the solver differential
test, both on the whole graph and on the graph of affordable datasets.
"""

import pytest

import reference_solvers as ref
from bmcc.graph import bfs, build_graph_indexed, connected_components
from bmcc.solvers import build_bfs_tree, find_center_exact, find_center_two_bfs

from test_solvers_differential import DELTAS, SEEDS, differential_market

TREE_FIELDS = ("root", "parent", "leaves")


def _graphs(market, delta):
    """The whole graph, and the graph restricted to datasets priced at most
    the median price, like the solvers' graph of affordable datasets."""
    graph = build_graph_indexed(market, delta)
    cap = sorted(graph.prices.values())[len(graph.prices) // 2]
    yield graph
    yield graph.restricted(d for d, p in graph.prices.items() if p <= cap)


def _compare_component(sub, ref_sub):
    assert sub.members == ref_sub.members
    # the search that found the component, kept in visit order for solve_cmc,
    # which answers components of one or two members without it
    root = sub.members[0]
    want = list(bfs(sub.graph.adjacency, root)[0].items())
    if len(sub) <= 2:
        assert sub.parent is None
    else:
        assert list(sub.parent.items()) == want
    assert list(ref.build_bfs_tree(ref_sub, root).parent.items()) == want
    got, want = find_center_exact(sub), ref.find_center_exact(ref_sub)
    assert (got.center, got.radius) == (want.center, want.radius)
    got, want = find_center_two_bfs(sub), ref.find_center_two_bfs(ref_sub)
    assert (got.center, got.radius) == (want.center, want.radius)
    for root in sub.members:
        tree, ref_tree = build_bfs_tree(sub, root), ref.build_bfs_tree(ref_sub, root)
        for name in TREE_FIELDS:
            assert getattr(tree, name) == getattr(ref_tree, name), (root, name)
        # parent order is the BFS visit order that the path greedy relies on
        assert list(tree.parent) == list(ref_tree.parent), root
        assert root not in tree.leaves


@pytest.mark.parametrize("delta", DELTAS, ids=lambda d: f"delta{d:g}")
@pytest.mark.parametrize("pricing", ("usage", "table"))
def test_bfs_layers_match_hand_written_loops(pricing, delta):
    singletons = 0
    for seed in SEEDS:
        market = differential_market(seed, pricing)
        for graph in _graphs(market, delta):
            comps, ref_comps = connected_components(graph), ref.connected_components(graph)
            assert [c.members for c in comps] == [c.members for c in ref_comps], seed
            for sub, ref_sub in zip(comps, ref_comps):
                _compare_component(sub, ref_sub)
                if len(sub) == 1:
                    singletons += 1
                    assert build_bfs_tree(sub, sub.members[0]).leaves == ()
    if delta == 0.0:
        assert singletons > 0  # the one-node case is exercised
