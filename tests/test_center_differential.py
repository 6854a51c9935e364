"""Differential test: the exact center found by eccentricity bounding against
the all-node BFS center it replaced (``reference_solvers``), on graphs where
ties and cycles decide the answer, plus a pinned BFS count as a work gate.

Node ids are ``n0, n1, ...`` assigned through a seeded shuffle, so string
order differs from both numeric order and the graph's structure, and ties
between equal eccentricities are broken by ids that the bounding loop has no
structural reason to prefer.
"""

import numpy as np
import pytest

import bmcc.solvers as solvers
import reference_solvers as ref
from bmcc.graph import DatasetGraph, connected_components
from bmcc.solvers import find_center_exact


def _component(n, edges, seed=0):
    """The single component of an ``n``-node graph given by integer edges."""
    label = [f"n{i}" for i in np.random.default_rng(seed).permutation(n)]
    adjacency = {u: set() for u in label}
    for a, b in edges:
        adjacency[label[a]].add(label[b])
        adjacency[label[b]].add(label[a])
    graph = DatasetGraph(delta=1.0, prices=dict.fromkeys(label, 1),
                         adjacency={u: tuple(sorted(vs)) for u, vs in adjacency.items()})
    (sub,) = connected_components(graph)
    return sub


def _cycle(n):
    return n, [(i, (i + 1) % n) for i in range(n)]


def _grid(rows, cols):
    edges = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    edges += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    return rows * cols, edges


def _complete(n):
    return n, [(i, j) for i in range(n) for j in range(i + 1, n)]


def _spider(arms):
    """A hub (node 0) with one path per entry of ``arms``, of that length."""
    edges, n = [], 1
    for length in arms:
        prev = 0
        for _ in range(length):
            edges.append((prev, n))
            prev, n = n, n + 1
    return n, edges


def _random_connected(rng):
    """A random spanning tree plus a few chords, so the graph has cycles."""
    n = int(rng.integers(3, 80))
    edges = [(int(rng.integers(0, v)), v) for v in range(1, n)]
    for _ in range(int(rng.integers(1, n // 2 + 2))):
        a, b = (int(x) for x in rng.choice(n, size=2, replace=False))
        edges.append((a, b))
    return n, edges


CASES = (
    [(f"cycle{n}", _cycle(n)) for n in range(3, 41)]
    + [(f"grid{r}x{c}", _grid(r, c)) for r in range(1, 8) for c in range(r, 9) if r * c >= 3]
    + [(f"complete{n}", _complete(n)) for n in range(3, 13)]
    + [(f"spider{'-'.join(map(str, arms))}", _spider(arms))
       for arms in ((5, 5), (6, 6, 6), (1, 7, 7), (9, 3, 3, 3), (4, 5, 4, 5), (12, 1),
                    (2, 2, 2, 2, 2))]
)


def _compare(sub):
    got, want = find_center_exact(sub), ref.find_center_exact(sub)
    assert (got.center, got.radius) == (want.center, want.radius)


@pytest.mark.parametrize("n,edges", [case for _, case in CASES], ids=[name for name, _ in CASES])
@pytest.mark.parametrize("seed", range(3))
def test_center_matches_all_node_bfs(n, edges, seed):
    _compare(_component(n, edges, seed))


def test_center_matches_all_node_bfs_on_random_graphs_with_cycles():
    rng = np.random.default_rng(505)
    for seed in range(150):
        _compare(_component(*_random_connected(rng), seed))


def test_small_components_run_no_bfs(monkeypatch):
    calls = []
    monkeypatch.setattr(solvers, "bfs", lambda *args: calls.append(args))
    for n, edges, center in ((1, [], "n0"), (2, [(0, 1)], "n0")):
        res = find_center_exact(_component(n, edges))
        assert (res.center, res.radius) == (center, n - 1)
    assert calls == []


# BFS runs find_center_exact makes on the synth1000 giant component. A change
# to the bounding rule or the root choice that makes it do more work fails
# here; a change that makes it do less updates the figure.
SYNTH_GIANT_CENTER_BFS = 13


def test_center_bfs_count_is_pinned(synth_giant, monkeypatch):
    calls = []
    live_bfs = solvers.bfs

    def counting_bfs(adjacency, root):
        calls.append(root)
        return live_bfs(adjacency, root)

    monkeypatch.setattr(solvers, "bfs", counting_bfs)
    res = find_center_exact(synth_giant)
    n_center = len(calls)
    assert len(synth_giant) == 859
    assert n_center == SYNTH_GIANT_CENTER_BFS
    assert n_center * 20 < len(synth_giant)
    want = ref.find_center_exact(synth_giant)
    assert (res.center, res.radius) == (want.center, want.radius)
