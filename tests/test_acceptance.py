"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The random sweeps are fully seeded, so every run checks the same
instances.
"""

import math
import time

import numpy as np
import pytest

import reference_solvers as ref
from bmcc.cli import main as cli_main
from bmcc.graph import (
    build_graph_indexed,
    build_graph_naive,
    connected_components,
)
from bmcc.grid import (
    CellBasedDataset,
    GridConfig,
    encode_cell,
    rasterize,
    read_points_file,
)
from bmcc.marketplace import Marketplace, PricingFunction, cents_to_decimal
from bmcc.solvers import (
    SOLVER_LABELS,
    complete_graph_delta,
    find_center_exact,
    find_center_two_bfs,
    make_reduction_instance,
    solve,
    solve_exact,
    verify_solution,
)

from conftest import (
    DATA_DIR,
    make_dataset,
    mcp_brute_force,
    random_market,
    random_tree_subgraph,
)
from test_cli import mask_timing


def report(criterion, message):
    print(f"ACCEPTANCE {criterion}: PASS - {message}")


# ---------------------------------------------------------------------------
# Shared random-instance sweep (criteria 3, 4, 5)


class SweepInstance:
    def __init__(self, market, delta, budget_cents, graph, solutions, opt):
        self.market = market
        self.delta = delta
        self.budget_cents = budget_cents
        self.graph = graph
        self.solutions = solutions
        self.opt = opt


@pytest.fixture(scope="module")
def sweep():
    rng = np.random.default_rng(2024)
    instances = []
    t0 = time.perf_counter()
    for _ in range(500):
        market = random_market(rng, n_max=12, span=int(rng.choice([10, 14, 18])))
        delta = float(rng.choice([0, 1, 2, 3, 5]))
        budget_cents = int(float(rng.uniform(0.05, 1.0)) * market.total_price_cents)
        budget = cents_to_decimal(budget_cents)
        graph = build_graph_indexed(market, delta)
        solutions = {label: solve(label, market, budget, delta, graph=graph)
                     for label in SOLVER_LABELS}
        instances.append(SweepInstance(
            market, delta, budget_cents, graph, solutions,
            solutions["exact"].coverage))
    elapsed = time.perf_counter() - t0
    return instances, elapsed


def test_criterion_3_dominance_and_feasibility(sweep):
    instances, elapsed = sweep
    assert len(instances) == 500
    violations = 0
    for inst in instances:
        budget = cents_to_decimal(inst.budget_cents)
        for label, sol in inst.solutions.items():
            if not verify_solution(inst.graph, sol, budget).ok:
                violations += 1
            if label != "exact" and sol.coverage > inst.opt:
                violations += 1
    assert violations == 0
    assert elapsed < 60.0
    report(3, f"500 instances, all {len(SOLVER_LABELS)} solvers feasible, "
              f"exact dominates, sweep {elapsed:.1f}s < 60s")


def test_criterion_4_dsa_bound(sweep):
    instances, _ = sweep
    checked = 0
    for inst in instances:
        if inst.budget_cents < inst.market.p_min_cents:
            continue
        if len(connected_components(inst.graph)) != 1:
            continue
        dsa_cov = inst.solutions["dsa"].coverage
        # DSA coverage >= (p_min / B) * OPT, compared exactly over integers
        assert dsa_cov * inst.budget_cents >= inst.market.p_min_cents * inst.opt
        checked += 1
    assert checked >= 50
    report(4, f"gain-per-price bound held exactly on {checked} connected instances")


def test_criterion_5_dpsa_bound(sweep):
    instances, _ = sweep
    checked = 0
    for inst in instances:
        market, b = inst.market, inst.budget_cents
        afford = {d for d in market.ids if market.price_cents(d) <= b}
        if afford != set(market.ids):
            continue
        comps = connected_components(inst.graph)
        if len(comps) != 1:
            continue
        res = find_center_exact(comps[0])
        if res.radius < 1:
            continue
        if b < res.radius * market.p_max_cents + market.price_cents(res.center):
            continue
        bound = (market.p_min_cents / (res.radius * market.p_max_cents)) \
            * (1 - market.p_max_cents / b) * (1 - 1 / math.e)
        assert inst.solutions["dpsa"].coverage >= bound * inst.opt - 1e-9
        checked += 1
    assert checked >= 10
    report(5, f"path-search bound held within 1e-9 on {checked} qualifying instances")


def test_criterion_6_bound_crossover():
    rng = np.random.default_rng(66)
    e = math.e
    for _ in range(1000):
        p_min = float(rng.uniform(0.01, 50.0))
        p_max = p_min + float(rng.uniform(0.0, 50.0))
        r = int(rng.integers(1, 20))
        threshold = r * e * p_max / (e - 1) + p_max
        budget = threshold * float(rng.uniform(1.0, 4.0))
        lhs = (p_min / (r * p_max)) * (1 - p_max / budget) * (1 - 1 / e)
        assert lhs >= p_min / budget - 1e-12
    report(6, "crossover inequality held within 1e-12 on 1000 random tuples")


def test_criterion_7_index_equivalence():
    rng = np.random.default_rng(77)
    t0 = time.perf_counter()
    deltas = (0, 5, 10, 15, 20)
    grid = GridConfig(theta=9)
    side = grid.side
    for market_idx in range(50):
        n = 300 if market_idx == 0 else int(rng.integers(40, 301))
        datasets = []
        for i in range(n):
            cx = int(rng.integers(0, side))
            cy = int(rng.integers(0, side))
            k = int(rng.integers(3, 26))
            pairs = sorted({(int(np.clip(cx + dx, 0, side - 1)),
                             int(np.clip(cy + dy, 0, side - 1)))
                            for dx, dy in rng.integers(-4, 5, size=(k, 2))})
            datasets.append(make_dataset(f"d{i:03d}", pairs, grid))
        market = Marketplace.build(grid, datasets, PricingFunction.usage_based())
        for delta in deltas:
            naive = build_graph_naive(market, delta)
            indexed = build_graph_indexed(market, delta)
            assert naive.adjacency == indexed.adjacency, (market_idx, delta)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report(7, f"50 markets x {len(deltas)} thresholds, edge sets identical, "
              f"{elapsed:.1f}s < 120s")


def test_criterion_8_double_bfs_exact_on_trees():
    rng = np.random.default_rng(88)
    for _ in range(200):
        sub = random_tree_subgraph(rng, int(rng.integers(2, 201)))
        exact = find_center_exact(sub)
        two = find_center_two_bfs(sub)
        # eccentricities and the double-BFS diameter from the reference
        ecc = ref.find_center_exact(sub).eccentricities
        assert ref.find_center_two_bfs(sub).diameter == max(ecc.values())
        assert ecc[two.center] == two.radius == exact.radius
    report(8, "double-BFS diameter exact on 200 random trees (n <= 200)")


@pytest.fixture(scope="module")
def fixture_datasets():
    return read_points_file(DATA_DIR / "synth1000.csv")


def test_criterion_9_trend_reproduction(fixture_datasets):
    datasets = fixture_datasets
    assert len(datasets) == 1000

    grid = GridConfig.from_envelope(datasets, theta=11)
    market = Marketplace.build(grid, [rasterize(d, grid) for d in datasets],
                               PricingFunction.usage_based())
    degrees = []
    for delta in (0, 5, 10, 15, 20):
        degrees.append(build_graph_indexed(market, delta).stats().average_degree)
    assert all(a <= b for a, b in zip(degrees, degrees[1:])), degrees

    components = []
    largest_at_default = None
    for theta in (9, 10, 11, 12, 13):
        g = GridConfig.from_envelope(datasets, theta=theta)
        m = Marketplace.build(g, [rasterize(d, g) for d in datasets],
                              PricingFunction.usage_based())
        comps = connected_components(build_graph_indexed(m, 10))
        components.append(len(comps))
        if theta == 11:
            largest_at_default = max(len(c) for c in comps)
    assert all(a <= b for a, b in zip(components, components[1:])), components
    assert largest_at_default >= 500  # the catalog has a clear main component
    report(9, f"degree trend {['%.2f' % d for d in degrees]} and component trend "
              f"{components} both monotone on the committed 1000-dataset catalog")


def test_criterion_10_bench_determinism(tmp_path, capsys):
    outputs = []
    for name in ("r1.tsv", "r2.tsv"):
        out = tmp_path / name
        code = cli_main([
            "bench", str(DATA_DIR / "synth1000.csv"),
            "--solvers", "dsa,dpsa-ba,cmc-mg",
            "--theta", "9", "--delta", "5,10", "--scales", "0.05",
            "--budget-ratio", "0.1", "--seed", "17", "--out", str(out),
        ])
        capsys.readouterr()
        assert code == 0
        outputs.append(mask_timing(out.read_text()))
    assert outputs[0] == outputs[1]
    report(10, "two seeded bench runs byte-identical with timing fields masked")


def test_criterion_11_reduction_oracle():
    rng = np.random.default_rng(111)
    for _ in range(100):
        universe = int(rng.integers(2, 11))
        n_sets = int(rng.integers(2, 9))
        sets = []
        for _ in range(n_sets):
            size = int(rng.integers(1, universe + 1))
            sets.append(set(rng.choice(universe, size=size, replace=False).tolist()))
        k = int(rng.integers(1, n_sets + 1))
        market = make_reduction_instance(universe, sets)
        delta = complete_graph_delta(market.grid)
        got = solve_exact(market, k, delta).coverage
        assert got == mcp_brute_force(sets, k)
    report(11, "exact solver matched brute-force max-coverage on 100 reductions")


def test_criterion_1_worked_example_optimum(example2_market):
    t0 = time.perf_counter()
    sol = solve_exact(example2_market, 15, 2)
    elapsed = time.perf_counter() - t0
    assert [example2_market.price_cents(d) for d in example2_market.ids] == \
        [500, 600, 400, 400, 200]
    assert sol.selected == ("d1", "d2", "d4")
    assert elapsed < 1.0
    report(1, f"budget-15 optimum is d1+d2+d4, solved in {elapsed * 1000:.1f}ms < 1s")


def test_criterion_2_coverage_arithmetic():
    ds = CellBasedDataset(id="a", cells=np.array([3, 6, 9, 11, 12]), grid=GridConfig(theta=2))
    assert ds.coverage == 5
    assert encode_cell(0, 0, 3) == 0
    report(2, "coverage of {3,6,9,11,12} is 5 and the origin cell encodes to 0")
